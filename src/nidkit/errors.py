"""Shared exception types for persisted-artifact validation and training failures."""


class VersionSkewError(ValueError):
    """A persisted artifact carries an unsupported format version."""


class TrainingDivergedError(ArithmeticError):
    """Training produced a non-finite validation loss before any finite epoch."""


class StaleArtifactError(ValueError):
    """A fitted artifact in the output directory came from a different input file."""


class InsufficientDataError(ValueError):
    """The input lacks the rows of a class that a stage needs to train or evaluate."""
