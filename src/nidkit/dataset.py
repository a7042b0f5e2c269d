"""NSL-KDD file parsing and attack taxonomy.

A record line has 43 comma-separated fields: 41 features, the attack
label, and a difficulty score. The difficulty column is parsed and kept
but never used as a model feature.

Parsing builds columns once: a float block for the 38 numeric features,
integer codes into sorted vocabularies for the three categorical features
and the label, and an integer difficulty array: the only copy of a file,
no line is kept as text, and no later step sorts a text column again.
Numeric fields must be ASCII decimal numbers; ``#`` is an ordinary character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .schema import DEFAULT_SCHEMA

CATEGORIES = ("Normal", "DoS", "Probe", "R2L", "U2R")
ATTACK_CATEGORIES = ("DoS", "Probe", "R2L", "U2R")

NORMAL = "normal"
ATTACK = "attack"

N_FIELDS = 43
LABEL_FIELD = 41
DIFFICULTY_FIELD = 42
LABEL_CODES = 3  # the label's column in ``LabeledDataset.codes``


class KddParseError(ValueError):
    """Raised for malformed NSL-KDD input (bad arity, bad numerics, empty file)."""


class UnknownLabelError(KeyError):
    """Raised when an attack name is missing from the taxonomy."""

    def __str__(self) -> str:
        return Exception.__str__(self)  # KeyError's would wrap the message in quotes


@dataclass(frozen=True)
class ConnectionRecord:
    """One connection: 41 feature strings, attack label, difficulty 0-21."""

    features: tuple[str, ...]
    label: str
    difficulty: int

    def to_line(self) -> str:
        return ",".join(self.features) + f",{self.label},{self.difficulty}"


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """One parsed split, held only as the columns built at parse time.

    Numeric fields keep their value, not their spelling: ``0.00`` and
    ``0`` parse to the same row. Text is held as codes: row ``i`` of coded
    column ``k`` reads ``vocab[k][codes[i, k]]``. Datasets compare by identity.
    """

    numeric: np.ndarray      # (n, 38) float64, non-categorical features in schema order
    codes: np.ndarray        # (n, 4) int: protocol_type, service, flag, label
    vocab: tuple[np.ndarray, ...]  # per coded column, its distinct strings, strictly increasing
    difficulty: np.ndarray   # (n,) int64 in 0..21
    split: str  # train | test | fixture

    def __post_init__(self) -> None:
        if not len(self.codes):
            raise KddParseError("dataset is empty")
        if self.split not in ("train", "test", "fixture"):
            raise ValueError(f"bad split tag: {self.split!r}")

    def __len__(self) -> int:
        return len(self.codes)

    def labels(self) -> np.ndarray:
        return self.vocab[LABEL_CODES][self.codes[:, LABEL_CODES]].astype(object)

    def column(self, index: int) -> np.ndarray:
        """Parsed values of feature ``index``: str if categorical, else float64."""
        if index in DEFAULT_SCHEMA.categorical_indices:
            k = DEFAULT_SCHEMA.categorical_indices.index(index)
            return self.vocab[k][self.codes[:, k]]
        return self.numeric[:, DEFAULT_SCHEMA.numeric_indices.index(index)]

    @property
    def records(self) -> tuple[ConnectionRecord, ...]:
        """Per-row view, built from the columns on each access; every
        field is spelled by ``spell_column``."""
        fields = np.stack([spell_column(self.column(j)) for j in range(LABEL_FIELD)], axis=1)
        return tuple(map(ConnectionRecord, map(tuple, fields.tolist()), self.labels().tolist(),
                         self.difficulty.tolist()))


def spell_column(values: np.ndarray) -> np.ndarray:
    """A parsed column as text. A str column is returned as it is; a float
    column becomes an object array of str, one per float: the shortest
    string that reads back to the same float64 (``repr``), with a trailing
    ``.0`` dropped, so ``0.0`` is ``0`` and ``-0.0`` is ``-0``. Each distinct
    value is spelled once; values are told apart by their bits, so ``-0.0``
    keeps its sign."""
    if values.dtype.kind == "U":
        return values
    bits, row_of = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                             return_inverse=True)
    spelled = [repr(x).removesuffix(".0") for x in bits.view(np.float64).tolist()]
    return np.array(spelled, dtype=object)[row_of]


@dataclass(frozen=True)
class AttackTaxonomy:
    """Mapping from raw attack name to one of the five categories."""

    mapping: dict[str, str]

    def __post_init__(self) -> None:
        for name, cat in self.mapping.items():
            if cat not in CATEGORIES:
                raise ValueError(f"taxonomy maps {name!r} to unknown category {cat!r}")
        if self.mapping.get(NORMAL) != "Normal":
            raise ValueError("taxonomy must map 'normal' to Normal")


def load_taxonomy(path: str | Path | None = None) -> AttackTaxonomy:
    """Load a `name,category` mapping file; defaults to the bundled one."""
    if path is None:
        text = resources.files("nidkit.data").joinpath("taxonomy.csv").read_text()
    else:
        text = Path(path).read_text()
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise KddParseError(f"taxonomy line {lineno}: expected 'name,category', got {raw!r}")
        name, cat = parts[0].strip(), parts[1].strip()
        if name in mapping and mapping[name] != cat:
            raise KddParseError(f"taxonomy line {lineno}: conflicting entry for {name!r}")
        mapping[name] = cat
    return AttackTaxonomy(mapping=mapping)


def _numeric_error(value: str, feature_name: str) -> str | None:
    # the ASCII decimal grammar the vectorized parse accepts: Python's
    # float() without digit-group underscores or non-ASCII digits
    text = value.strip()
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        x = float(text)
    except ValueError:
        return f"feature {feature_name!r} is not numeric: {value!r}"
    if not math.isfinite(x) or x < 0:
        return f"feature {feature_name!r} must be finite and non-negative, got {value!r}"
    return None


def _difficulty(text: str) -> int | str:
    """The difficulty score, or the message saying why the field is invalid."""
    try:
        difficulty = int(text)
    except ValueError:
        return f"difficulty must be an integer, got {text!r}"
    if not 0 <= difficulty <= 21:
        return f"difficulty must be in 0..21, got {difficulty}"
    return difficulty


def _line_error(line: str) -> str | None:
    """Why one non-blank line is invalid, checked field by field; None if valid."""
    fields = line.split(",")
    if len(fields) != N_FIELDS:
        return f"expected {N_FIELDS} fields, got {len(fields)}"
    for j in DEFAULT_SCHEMA.numeric_indices:
        message = _numeric_error(fields[j], DEFAULT_SCHEMA.names[j])
        if message is not None:
            return message
    difficulty = _difficulty(fields[DIFFICULTY_FIELD])
    if isinstance(difficulty, str):
        return difficulty
    if "\r" in line or "\n" in line:
        return "embedded line break"
    if "\0" in line:  # string columns would drop a trailing NUL
        return "NUL character in a text field"
    return None


def _first_error(kept: list[str], blanks: list[int],
                 cause: Exception | None = None) -> KddParseError:
    """Error naming the first invalid line; line numbers count blank lines."""
    skipped = set(blanks)
    lineno = 0
    for line in kept:
        lineno += 1
        while lineno in skipped:
            lineno += 1
        message = _line_error(line)
        if message is not None:
            return KddParseError(f"line {lineno}: {message}")
    return KddParseError(f"unparseable input: {cause}")


def parse_kdd_lines(lines: Iterable[str], split: str) -> LabeledDataset:
    """Validate and parse lines into columns; blank lines are skipped but
    still counted in the line number that an error names."""
    kept: list[str] = []
    blanks: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        if line:
            kept.append(line)
        else:
            blanks.append(lineno)
    if not kept:
        raise KddParseError("no records found")
    if any(line.count(",") != N_FIELDS - 1 or "\0" in line for line in kept):
        raise _first_error(kept, blanks)
    text_fields = (*DEFAULT_SCHEMA.categorical_indices, LABEL_FIELD, DIFFICULTY_FIELD)
    load = partial(np.loadtxt, kept, delimiter=",", comments=None, ndmin=2)
    try:
        numeric = load(usecols=DEFAULT_SCHEMA.numeric_indices, dtype=np.float64)
        text = load(usecols=text_fields, dtype=object)
    except ValueError as exc:
        raise _first_error(kept, blanks, exc) from None
    if not (np.isfinite(numeric) & (numeric >= 0)).all():
        raise _first_error(kept, blanks)

    # one sort per text column: its vocabulary and every row's code; the
    # difficulty column holds a few distinct strings, each checked once
    vocab, codes = zip(*(np.unique(text[:, k].astype(str), return_inverse=True)
                         for k in range(len(text_fields))))
    parsed = [_difficulty(s) for s in vocab[-1].tolist()]
    if any(isinstance(d, str) for d in parsed):
        raise _first_error(kept, blanks)
    return LabeledDataset(
        numeric=numeric,
        codes=np.stack(codes[:-1], axis=1),
        vocab=vocab[:-1],
        difficulty=np.array(parsed, dtype=np.int64)[codes[-1]],
        split=split,
    )


def parse_kdd_file(path: str | Path, split: str = "train") -> LabeledDataset:
    """Parse an NSL-KDD text file (43 comma-separated fields per line)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kdd_lines(fh, split=split)


def categorize(label: str, taxonomy: AttackTaxonomy) -> str:
    try:
        return taxonomy.mapping[label]
    except KeyError:
        raise UnknownLabelError(f"attack name not in taxonomy: {label!r}") from None


def categories(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Per-record category, in dataset order, looked up once per distinct
    label; an error names the unknown label that appears first in the data."""
    names = ds.vocab[LABEL_CODES].tolist()
    codes = ds.codes[:, LABEL_CODES]
    unknown = np.array([name not in taxonomy.mapping for name in names])
    if unknown.any():
        categorize(names[codes[np.argmax(unknown[codes])]], taxonomy)  # raises
    return np.array([taxonomy.mapping[name] for name in names], dtype=object)[codes]


def binary_of(cats: np.ndarray) -> np.ndarray:
    """Collapse per-record categories to the normal-vs-attack label space."""
    return np.array((ATTACK, NORMAL), dtype=object)[(cats == "Normal").astype(np.intp)]


def binary_labels(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Normal-vs-attack label per record, in dataset order."""
    return binary_of(categories(ds, taxonomy))


def fourclass_labels(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Category per record for an attacks-only dataset; Normal rows are rejected."""
    cats = categories(ds, taxonomy)
    bad = np.nonzero(cats == "Normal")[0]
    if bad.size:
        raise ValueError(f"normal record at row {bad[0]}; four-class labels need attacks only")
    return cats

