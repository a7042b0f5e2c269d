"""Property tests: the columnar parser, encoder and transform against the
per-line, per-cell oracle in ``tests/kdd_oracle.py``."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nidkit.dataset import (
    KddParseError,
    category_ids,
    categorize,
    load_taxonomy,
    parse_kdd_file,
    parse_kdd_lines,
)
from nidkit.explore import find_constant_features, scatter_rows
from nidkit.preprocess import encode, fit_encoder, fit_pipeline, fit_standardizer, standardize
from nidkit.schema import CATEGORICAL_INDICES, NAMES, NUMERIC_INDICES

from . import kdd_oracle as oracle
from .fixtures import write_kdd_file

TAXONOMY = load_taxonomy()

numeric_text = st.one_of(
    st.integers(0, 10**7).map(str),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3f}"),
    st.sampled_from(["0", "00", "0.", ".5", "1e3", "1E-3", "+2", "-0", "-0.0", " 1", "2 ",
                     "\t3", "0.1000000000000000055511151231257827"]),
)
# '#' is an ordinary character; spaces inside a field are kept verbatim
category_text = st.text(alphabet="abcxyz_#- 019", max_size=5)
difficulty_text = st.integers(0, 21).flatmap(
    lambda d: st.sampled_from([str(d), f"0{d}", f"+{d}", f" {d}"]))
blank_line = st.sampled_from(["", "   ", "\t", "\r"])


@st.composite
def valid_row(draw) -> str:
    fields = [draw(category_text) if j in CATEGORICAL_INDICES else draw(numeric_text)
              for j in range(41)]
    fields.append(draw(st.sampled_from(sorted(TAXONOMY.mapping))))
    fields.append(draw(difficulty_text))
    return ",".join(fields)


def valid_lines() -> st.SearchStrategy[list[str]]:
    rows = st.lists(st.one_of(valid_row(), valid_row(), blank_line), max_size=12)
    return st.tuples(st.lists(valid_row(), min_size=1, max_size=3), rows).map(
        lambda parts: [line + "\n" for line in parts[0] + parts[1]])


def _assert_columns_hold(ds, records):
    """The columns hold each oracle field's parsed value: numbers bit for
    bit as ``float`` reads them, text and difficulty exactly."""
    numeric = np.array([[float(r.features[j]) for j in NUMERIC_INDICES] for r in records])
    assert ds.numeric.shape == numeric.shape
    assert ds.numeric.tobytes() == numeric.tobytes()
    text = [[*(r.features[j] for j in CATEGORICAL_INDICES), r.label] for r in records]
    assert ds.codes.shape == (len(records), 4)
    assert np.stack([v[ds.codes[:, k]] for k, v in enumerate(ds.vocab)], axis=1).tolist() == text
    for vocab in ds.vocab:  # the encoder's tie order rests on sorted vocabularies
        assert all(a < b for a, b in zip(vocab.tolist(), vocab.tolist()[1:]))
    assert ds.difficulty.tolist() == [r.difficulty for r in records]


def _codes_from_oracle(train_records, test_records):
    enc = oracle.fit_encoder(train_records)
    std = fit_standardizer(oracle.encode(enc, train_records))
    return enc, std, standardize(std, oracle.encode(enc, test_records))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(train_lines=valid_lines(), test_lines=valid_lines(),
       pair=st.tuples(st.sampled_from(range(41)), st.sampled_from(range(41))))
def test_columnar_parse_encode_transform_match_oracle(train_lines, test_lines, pair):
    train = parse_kdd_lines(train_lines, split="train")
    test = parse_kdd_lines(test_lines, split="test")
    train_records = oracle.parse_lines(train_lines)
    test_records = oracle.parse_lines(test_lines)
    _assert_columns_hold(train, train_records)
    _assert_columns_hold(test, test_records)

    enc = fit_encoder(train)
    oracle_enc, oracle_std, oracle_z = _codes_from_oracle(train_records, test_records)
    assert enc.tables == oracle_enc.tables
    assert encode(enc, train).tobytes() == oracle.encode(enc, train_records).tobytes()
    # the test split brings categories the encoder has never seen
    assert encode(enc, test).tobytes() == oracle.encode(enc, test_records).tobytes()
    pipe = fit_pipeline(train)
    assert pipe.standardizer.mu.tobytes() == oracle_std.mu.tobytes()
    assert pipe.standardizer.sigma.tobytes() == oracle_std.sigma.tobytes()
    assert pipe.transform(test).tobytes() == oracle_z.tobytes()

    assert find_constant_features(train).constant_features == oracle.constant_features(
        train_records)
    jx, jy = pair
    assert scatter_rows(train, NAMES[jx], NAMES[jy], category_ids(train, TAXONOMY)) == [
        (oracle.spelled(r.features[jx], jx), oracle.spelled(r.features[jy], jy),
         categorize(r.label, TAXONOMY)) for r in train_records]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.txt"
        path.write_text("".join(train_lines), encoding="utf-8")
        _assert_columns_hold(parse_kdd_file(path, split="train"), train_records)
        out = Path(tmp) / "written.txt"
        write_kdd_file(train, out)
        assert out.read_text(encoding="utf-8") == "".join(
            ",".join(oracle.spelled(f, j) for j, f in enumerate(r.features))
            + f",{r.label},{r.difficulty}\n" for r in train_records)
        _assert_columns_hold(parse_kdd_file(out, split="train"), train_records)


MALFORMED = {
    "arity": None,
    "non_numeric": ["abc", "", " ", "1.2.3", "0x1F", "--1", "1e", "one", "1 2", "NaNa", "1,"],
    "negative": ["-1", "-0.5", "-1e-9", " -3"],
    "non_finite": ["inf", "nan", "-inf", "Infinity", "1e400", "NaN"],
    "hash": ["#", "1#", "#1", "0#comment"],
    "difficulty_type": ["1.5", "x", "", "7a", "1e1", "#7"],
    "difficulty_range": ["22", "-1", "100", "+22"],
}


@st.composite
def malformed_row(draw) -> str:
    fields = draw(valid_row()).split(",")
    kind = draw(st.sampled_from(sorted(MALFORMED)))
    if kind == "arity":
        n = draw(st.sampled_from([1, 2, 41, 42, 44, 50]))
        fields = fields[:n] if n < 43 else fields + ["0"] * (n - 43)
    elif kind.startswith("difficulty"):
        fields[42] = draw(st.sampled_from(MALFORMED[kind]))
    else:
        fields[draw(st.sampled_from(NUMERIC_INDICES))] = draw(st.sampled_from(MALFORMED[kind]))
    return ",".join(fields)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(before=st.lists(st.one_of(valid_row(), blank_line), max_size=6),
       blanks=st.lists(blank_line, max_size=3),
       bad=malformed_row(),
       after=st.lists(st.one_of(valid_row(), blank_line, malformed_row()), max_size=4))
def test_malformed_line_raises_the_oracle_error(before, blanks, bad, after):
    lines = [line + "\n" for line in before + blanks + [bad] + after]
    with pytest.raises(KddParseError) as expected:
        oracle.parse_lines(lines)
    with pytest.raises(KddParseError) as got:
        parse_kdd_lines(lines, split="train")
    assert str(got.value) == str(expected.value)
