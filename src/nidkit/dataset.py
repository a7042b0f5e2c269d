"""NSL-KDD file parsing, attack taxonomy, and synthetic fixtures.

A record line has 43 comma-separated fields: 41 features, the attack
label, and a difficulty score. The difficulty column is parsed and kept
but never used as a model feature.

Parsing builds columns once: a float block for the 38 numeric features,
string arrays for the three categorical features and the label, and an
integer difficulty array. Numeric fields must be ASCII decimal numbers;
``#`` is an ordinary character, not a comment marker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .schema import CATEGORICAL, DEFAULT_SCHEMA, FeatureSchema

CATEGORIES = ("Normal", "DoS", "Probe", "R2L", "U2R")
ATTACK_CATEGORIES = ("DoS", "Probe", "R2L", "U2R")

NORMAL = "normal"
ATTACK = "attack"

N_FIELDS = 43
LABEL_FIELD = 41
DIFFICULTY_FIELD = 42


class KddParseError(ValueError):
    """Raised for malformed NSL-KDD input (bad arity, bad numerics, empty file)."""


class UnknownLabelError(KeyError):
    """Raised when an attack name is missing from the taxonomy."""

    def __str__(self) -> str:
        return Exception.__str__(self)  # KeyError's would wrap the message in quotes


@dataclass(frozen=True)
class ConnectionRecord:
    """One connection: 41 raw feature strings, attack label, difficulty 0-21."""

    features: tuple[str, ...]
    label: str
    difficulty: int

    def to_line(self) -> str:
        return ",".join(self.features) + f",{self.label},{self.difficulty}"


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """One parsed split, held as columns built at parse time.

    ``lines`` keeps each validated line verbatim (difficulty written as a
    plain integer) for the outputs that must reproduce raw text. Two
    datasets are equal when their split and lines are.
    """

    numeric: np.ndarray      # (n, 38) float64, non-categorical features in schema order
    categorical: np.ndarray  # (n, 3) str: protocol_type, service, flag
    label: np.ndarray        # (n,) str attack name
    difficulty: np.ndarray   # (n,) int64 in 0..21
    lines: tuple[str, ...]
    split: str  # train | test | fixture

    def __post_init__(self) -> None:
        if not self.lines:
            raise KddParseError("dataset is empty")
        if self.split not in ("train", "test", "fixture"):
            raise ValueError(f"bad split tag: {self.split!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledDataset):
            return NotImplemented
        return self.split == other.split and self.lines == other.lines

    def __len__(self) -> int:
        return len(self.lines)

    def labels(self) -> np.ndarray:
        return self.label.astype(object)

    def column(self, index: int, schema: FeatureSchema = DEFAULT_SCHEMA) -> np.ndarray:
        """Parsed values of feature ``index``: str if categorical, else float64."""
        if index in schema.categorical_indices:
            return self.categorical[:, schema.categorical_indices.index(index)]
        return self.numeric[:, schema.numeric_indices.index(index)]

    def raw_columns(self, indices: tuple[int, ...]) -> np.ndarray:
        """(n, len(indices)) object array of the fields' raw strings."""
        return _load_fields(self.lines, indices, object)

    @property
    def records(self) -> tuple[ConnectionRecord, ...]:
        """Per-row view, built on each access."""
        out = []
        for line, difficulty in zip(self.lines, self.difficulty.tolist()):
            fields = line.split(",")
            out.append(ConnectionRecord(tuple(fields[:LABEL_FIELD]), fields[LABEL_FIELD],
                                        difficulty))
        return tuple(out)


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


def _load_fields(lines: list[str] | tuple[str, ...], indices: tuple[int, ...], dtype) -> np.ndarray:
    """The given comma-separated fields of every line, in one C pass."""
    return np.loadtxt(lines, delimiter=",", usecols=indices, dtype=dtype, comments=None,
                      ndmin=2)


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


def _line_error(line: str, schema: FeatureSchema) -> str | None:
    """Why one non-blank line is invalid, checked field by field; None if valid."""
    fields = line.split(",")
    if len(fields) != N_FIELDS:
        return f"expected {N_FIELDS} fields, got {len(fields)}"
    for j in schema.numeric_indices:
        message = _numeric_error(fields[j], schema.names[j])
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


def _first_error(kept: list[str], blanks: list[int], schema: FeatureSchema,
                 cause: Exception | None = None) -> KddParseError:
    """Error naming the first invalid line; line numbers count blank lines."""
    skipped = set(blanks)
    lineno = 0
    for line in kept:
        lineno += 1
        while lineno in skipped:
            lineno += 1
        message = _line_error(line, schema)
        if message is not None:
            return KddParseError(f"line {lineno}: {message}")
    return KddParseError(f"unparseable input: {cause}")


def parse_kdd_lines(
    lines: Iterable[str], split: str, schema: FeatureSchema = DEFAULT_SCHEMA
) -> LabeledDataset:
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
        raise _first_error(kept, blanks, schema)
    text_fields = (*schema.categorical_indices, LABEL_FIELD, DIFFICULTY_FIELD)
    try:
        numeric = _load_fields(kept, schema.numeric_indices, np.float64)
        text = _load_fields(kept, text_fields, object)
    except ValueError as exc:
        raise _first_error(kept, blanks, schema, exc) from None
    if not (np.isfinite(numeric) & (numeric >= 0)).all():
        raise _first_error(kept, blanks, schema)

    # difficulty holds a few distinct strings: check each once
    spelled, row_of = np.unique(text[:, -1].astype(str), return_inverse=True)
    parsed = [_difficulty(s) for s in spelled.tolist()]
    if any(isinstance(d, str) for d in parsed):
        raise _first_error(kept, blanks, schema)
    # keep lines in the canonical form (difficulty as a plain integer)
    for i, (difficulty, spelling) in enumerate(zip(parsed, spelled.tolist())):
        if str(difficulty) != spelling:
            for row in np.nonzero(row_of == i)[0]:
                kept[row] = kept[row][: kept[row].rfind(",") + 1] + str(difficulty)
    return LabeledDataset(
        numeric=numeric,
        categorical=text[:, :-2].astype(str),
        label=text[:, -2].astype(str),
        difficulty=np.array(parsed, dtype=np.int64)[row_of],
        lines=tuple(kept),
        split=split,
    )


def parse_kdd_file(
    path: str | Path, split: str = "train", schema: FeatureSchema = DEFAULT_SCHEMA
) -> LabeledDataset:
    """Parse an NSL-KDD text file (43 comma-separated fields per line)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kdd_lines(fh, split=split, schema=schema)


def write_kdd_file(ds: LabeledDataset, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in ds.lines:
            fh.write(line + "\n")


def categorize(label: str, taxonomy: AttackTaxonomy) -> str:
    try:
        return taxonomy.mapping[label]
    except KeyError:
        raise UnknownLabelError(f"attack name not in taxonomy: {label!r}") from None


def _per_label(ds: LabeledDataset, fn: Callable[[str], str]) -> np.ndarray:
    """``fn`` of each row's label, called once per distinct label in order of
    first appearance, so a failing label is the first one in the data."""
    names, first, row_of = np.unique(ds.label, return_index=True, return_inverse=True)
    values = np.empty(len(names), dtype=object)
    for i in np.argsort(first):
        values[i] = fn(str(names[i]))
    return values[row_of]


def categories(ds: LabeledDataset, taxonomy: AttackTaxonomy) -> np.ndarray:
    """Per-record category, in dataset order."""
    return _per_label(ds, lambda label: categorize(label, taxonomy))


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


# --- synthetic fixture -------------------------------------------------

# Per-category blob centers on a handful of discriminative features; all
# other continuous features sit near zero. Values chosen so the five
# blobs stay well separated after z-scoring.
_FIXTURE_CENTERS: dict[str, dict[str, float]] = {
    "Normal": {"duration": 50, "src_bytes": 1000, "dst_bytes": 2000, "count": 5,
               "srv_count": 6, "serror_rate": 0.01, "rerror_rate": 0.02,
               "dst_host_count": 30, "same_srv_rate": 0.9},
    "DoS": {"duration": 2, "src_bytes": 200, "dst_bytes": 0, "count": 400,
            "srv_count": 300, "serror_rate": 0.95, "rerror_rate": 0.02,
            "dst_host_count": 250, "same_srv_rate": 0.05},
    "Probe": {"duration": 8, "src_bytes": 40, "dst_bytes": 10, "count": 150,
              "srv_count": 20, "serror_rate": 0.3, "rerror_rate": 0.7,
              "dst_host_count": 180, "same_srv_rate": 0.2,
              "dst_host_srv_diff_host_rate": 0.8, "diff_srv_rate": 0.6},
    "R2L": {"duration": 400, "src_bytes": 3000, "dst_bytes": 500, "count": 3,
            "srv_count": 3, "serror_rate": 0.02, "rerror_rate": 0.05,
            "dst_host_count": 10, "hot": 20, "num_failed_logins": 4,
            "same_srv_rate": 0.8},
    "U2R": {"duration": 800, "src_bytes": 500, "dst_bytes": 300, "count": 2,
            "srv_count": 2, "serror_rate": 0.02, "rerror_rate": 0.02,
            "dst_host_count": 5, "hot": 8, "num_root": 8,
            "num_file_creations": 5, "same_srv_rate": 0.85},
}

_FIXTURE_CATEGORICALS: dict[str, tuple[str, str, str]] = {
    "Normal": ("tcp", "http", "SF"),
    "DoS": ("icmp", "ecr_i", "S0"),
    "Probe": ("tcp", "private", "REJ"),
    "R2L": ("tcp", "ftp", "SF"),
    "U2R": ("tcp", "telnet", "SF"),
}

_FIXTURE_ALT_CATEGORICALS = ("udp", "domain_u", "RSTR")

_FIXTURE_LABELS: dict[str, tuple[str, ...]] = {
    "Normal": ("normal",),
    "DoS": ("neptune", "smurf", "back"),
    "Probe": ("satan", "nmap", "portsweep"),
    "R2L": ("guess_passwd", "warezclient"),
    "U2R": ("rootkit", "buffer_overflow"),
}

_FIXTURE_BINARY_ON: dict[str, tuple[str, ...]] = {
    "Normal": ("logged_in",),
    "DoS": (),
    "Probe": (),
    "R2L": ("logged_in", "is_guest_login"),
    "U2R": ("logged_in", "root_shell"),
}


def make_fixture(
    n_per_class: int, seed: int, schema: FeatureSchema = DEFAULT_SCHEMA
) -> LabeledDataset:
    """Deterministic schema-valid dataset: one Gaussian blob per category."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    binary_names = {e.name for e in schema.entries if e.kind == "binary"}
    lines: list[str] = []
    for cat in CATEGORIES:
        centers = _FIXTURE_CENTERS[cat]
        proto, service, flag = _FIXTURE_CATEGORICALS[cat]
        labels = _FIXTURE_LABELS[cat]
        on = set(_FIXTURE_BINARY_ON[cat])
        for i in range(n_per_class):
            fields: list[str] = []
            use_alt = rng.random() < 0.15
            for e in schema.entries:
                if e.kind == CATEGORICAL:
                    typical = {"protocol_type": proto, "service": service, "flag": flag}[e.name]
                    alt = _FIXTURE_ALT_CATEGORICALS[schema.categorical_indices.index(e.index)]
                    fields.append(alt if use_alt else typical)
                elif e.name in binary_names:
                    fields.append("1" if e.name in on else "0")
                else:
                    center = centers.get(e.name, 0.0)
                    sigma = max(0.02 * center, 0.01) if center else 0.0
                    value = max(0.0, center + sigma * rng.standard_normal())
                    if e.name == "num_outbound_cmds":
                        value = 0.0  # constant column, as in the real dumps
                    fields.append(f"{value:.3f}")
            difficulty = int(rng.integers(0, 22))
            lines.append(",".join(fields) + f",{labels[i % len(labels)]},{difficulty}")
    return parse_kdd_lines(lines, split="fixture", schema=schema)
