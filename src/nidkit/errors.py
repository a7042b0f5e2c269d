"""Shared exception types for persisted-artifact validation and training failures."""

from contextlib import contextmanager


class VersionSkewError(ValueError):
    """A persisted artifact that this version cannot read: an unsupported
    format version, text that is not JSON, or a missing, mistyped or
    out-of-range field."""


@contextmanager
def reading(what: str):
    """Re-raises a failure to read or check an artifact as VersionSkewError."""
    try:
        yield
    except VersionSkewError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise VersionSkewError(f"cannot read {what}: {detail}") from None


class TrainingDivergedError(ArithmeticError):
    """Training produced a non-finite validation loss before any finite epoch."""


class StaleArtifactError(ValueError):
    """A fitted artifact in the output directory came from a different input file."""


class InsufficientDataError(ValueError):
    """The input lacks the rows of a class that a stage needs to train or evaluate."""
