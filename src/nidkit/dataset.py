"""NSL-KDD file parsing and attack taxonomy.

A record line has 43 comma-separated fields: 41 features, the attack
label, and a difficulty score. The difficulty column is parsed and kept
but never used as a model feature.

Parsing builds columns once: a float block for the 38 numeric features,
integer codes into sorted vocabularies for the three categorical features
and the label, and an integer difficulty array: the only copy of a file,
no line is kept as text, and no later step sorts a text column again.
One tokenizing pass reads all 43 fields; it codes each text field as it
reads it, by first appearance, and only a column's distinct strings are
sorted, to re-rank those codes. Numeric fields must be ASCII decimal
numbers; ``#`` is an ordinary character. A file must be UTF-8 text.

Past the parse, labels are integer ids in three spaces: a category id
indexes ``CATEGORIES`` (see :func:`category_ids`), an attack id indexes
``ATTACK_CATEGORIES`` (an attack row's category id less 1), and a binary id
indexes ``BINARY_CLASSES``, the two names in sorted order. Stages visit classes
in id order, which fixes the order of their random draws. Names are decoded
only where text is written: ``scores.csv``, the confusion CSVs, ``report.json``,
``baselines.*``, the counts and resample log of ``train_multiclass_report.json``
and the explore exports.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .schema import CATEGORICAL_INDICES, NAMES, NUMERIC_INDICES

CATEGORIES = ("Normal", "DoS", "Probe", "R2L", "U2R")
ATTACK_CATEGORIES = CATEGORIES[1:]
NORMAL_CATEGORY = CATEGORIES.index("Normal")

NORMAL = "normal"
ATTACK = "attack"
BINARY_CLASSES = (ATTACK, NORMAL)
ATTACK_ID, NORMAL_ID = 0, 1  # their indices in BINARY_CLASSES

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
        if index in CATEGORICAL_INDICES:
            k = CATEGORICAL_INDICES.index(index)
            return self.vocab[k][self.codes[:, k]]
        return self.numeric[:, NUMERIC_INDICES.index(index)]

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


def load_taxonomy(path: str | Path | None = None) -> AttackTaxonomy:
    """Load a `name,category` mapping file; defaults to the bundled one. A
    fault in the file raises KddParseError, naming its line if it has one."""
    if path is None:
        text = resources.files("nidkit.data").joinpath("taxonomy.csv").read_text()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise KddParseError(f"taxonomy {_undecodable(path, exc)}") from None
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise KddParseError(f"taxonomy line {lineno}: expected 'name,category', got {raw!r}")
        name, cat = parts[0].strip(), parts[1].strip()
        if cat not in CATEGORIES:
            raise KddParseError(f"taxonomy line {lineno}: unknown category {cat!r} for {name!r}")
        if name in mapping and mapping[name] != cat:
            raise KddParseError(f"taxonomy line {lineno}: conflicting entry for {name!r}")
        mapping[name] = cat
    if mapping.get(NORMAL) != "Normal":
        raise KddParseError("taxonomy must map 'normal' to Normal")
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
    for j in NUMERIC_INDICES:
        message = _numeric_error(fields[j], NAMES[j])
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
    if any("\0" in line for line in kept):
        raise _first_error(kept, blanks)
    # one tokenizing pass over all 43 fields: a text field's converter codes
    # each string by its first appearance, in C, and loadtxt itself rejects a
    # line whose field count differs from the first line's
    text_fields = (*CATEGORICAL_INDICES, LABEL_FIELD, DIFFICULTY_FIELD)
    seen = [defaultdict(itertools.count().__next__) for _ in text_fields]
    try:
        table = np.loadtxt(kept, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                           converters={j: codes.__getitem__ for j, codes in zip(text_fields, seen)})
    except ValueError as exc:
        raise _first_error(kept, blanks, exc) from None
    if table.shape[1] != N_FIELDS:  # every line has the same wrong count
        raise _first_error(kept, blanks)
    # NUMERIC_INDICES are columns 0 and 4..40: slices copy them several
    # times faster than a gather by index
    numeric = np.concatenate((table[:, :1], table[:, 4:LABEL_FIELD]), axis=1)
    if not (np.isfinite(numeric) & (numeric >= 0)).all():
        raise _first_error(kept, blanks)

    # a column's first-appearance codes re-ranked to its sorted vocabulary;
    # the difficulty column holds a few distinct strings, each checked once
    vocab, rank = zip(*(np.unique(np.array(list(codes)), return_inverse=True)
                        for codes in seen[:-1]))
    parsed = [_difficulty(text) for text in seen[-1]]
    if any(isinstance(d, str) for d in parsed):
        raise _first_error(kept, blanks)
    first = table[:, text_fields].astype(np.intp)
    return LabeledDataset(
        numeric=numeric,
        codes=np.stack([r[first[:, k]] for k, r in enumerate(rank)], axis=1),
        vocab=vocab,
        difficulty=np.array(parsed, dtype=np.int64)[first[:, -1]],
        split=split,
    )


def _undecodable(path: str | Path, cause: UnicodeDecodeError) -> KddParseError:
    """Error naming the first line of ``path`` that is not UTF-8; lines
    split and count as in text mode, blank ones included."""
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return KddParseError(f"line {lineno}: not UTF-8 text: {exc}")
    return KddParseError(f"not UTF-8 text: {cause}")


def parse_kdd_file(path: str | Path, split: str = "train") -> LabeledDataset:
    """Parse an NSL-KDD text file (43 comma-separated fields per line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kdd_lines(fh, split=split)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None


def categorize(label: str, taxonomy: AttackTaxonomy) -> str:
    try:
        return taxonomy.mapping[label]
    except KeyError:
        raise UnknownLabelError(f"attack name not in taxonomy: {label!r}") from None


def category_ids(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Per-record category id, in dataset order, looked up once per distinct
    label; an error names the unknown label that appears first in the data."""
    names = ds.vocab[LABEL_CODES].tolist()
    codes = ds.codes[:, LABEL_CODES]
    unknown = np.array([name not in taxonomy.mapping for name in names])
    if unknown.any():
        categorize(names[codes[np.argmax(unknown[codes])]], taxonomy)  # raises
    return np.array([CATEGORIES.index(taxonomy.mapping[name]) for name in names])[codes]


def categories(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Per-record category name, as an object array."""
    return np.array(CATEGORIES, dtype=object)[category_ids(ds, taxonomy)]


def binary_labels(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Normal-vs-attack label per record, in dataset order."""
    normal = category_ids(ds, taxonomy) == NORMAL_CATEGORY
    return np.array(BINARY_CLASSES, dtype=object)[normal.astype(np.intp)]


def fourclass_labels(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Category per record for an attacks-only dataset; Normal rows are rejected."""
    cats = categories(ds, taxonomy)
    bad = np.nonzero(cats == "Normal")[0]
    if bad.size:
        raise ValueError(f"normal record at row {bad[0]}; four-class labels need attacks only")
    return cats
