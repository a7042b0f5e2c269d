import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nidkit.dataset import (
    ATTACK,
    NORMAL,
    KddParseError,
    UnknownLabelError,
    binary_labels,
    categorize,
    categories,
    fourclass_labels,
    load_taxonomy,
    parse_kdd_file,
    parse_kdd_lines,
    spell_column,
)
from nidkit.schema import CATEGORICAL_INDICES, NAMES

from . import kdd_oracle as oracle
from .fixtures import make_fixture, write_kdd_file


def _line(label="neptune", difficulty=17):
    fields = []
    for j, name in enumerate(NAMES):
        if j in CATEGORICAL_INDICES:
            fields.append({"protocol_type": "tcp", "service": "http", "flag": "SF"}[name])
        else:
            fields.append("0")
    return ",".join(fields) + f",{label},{difficulty}"


def test_schema_shape():
    assert len(NAMES) == 41
    assert [NAMES[j] for j in CATEGORICAL_INDICES] == ["protocol_type", "service", "flag"]
    # pinned 1-based ordering: feature 20 is the outbound-commands count
    assert NAMES[19] == "num_outbound_cmds"


def test_parse_label_passthrough():
    ds = parse_kdd_lines([_line(label="neptune")], split="train")
    assert ds.records[0].label == "neptune"
    assert ds.records[0].difficulty == 17


def test_parse_wrong_field_count_names_line():
    good = _line()
    bad = good.rsplit(",", 1)[0]  # 42 fields
    with pytest.raises(KddParseError, match="line 2"):
        parse_kdd_lines([good, bad], split="train")


@pytest.mark.parametrize("count", [42, 44])
def test_a_file_whose_every_line_has_the_same_wrong_field_count_fails_at_line_1(count):
    # one tokenizing pass over every field finds the same count on each
    # line; the error is still the oracle's, naming line 1
    line = _line().rsplit(",", 1)[0] if count == 42 else _line() + ",0"
    lines = [line + "\n"] * 3
    with pytest.raises(KddParseError) as expected:
        oracle.parse_lines(lines)
    with pytest.raises(KddParseError) as got:
        parse_kdd_lines(lines, split="train")
    assert str(got.value) == str(expected.value) == f"line 1: expected 43 fields, got {count}"


def test_a_file_is_tokenized_in_one_loadtxt_pass(tmp_path, monkeypatch):
    path = tmp_path / "train.txt"
    write_kdd_file(make_fixture(5, seed=0), path)
    real, calls = np.loadtxt, []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    assert len(parse_kdd_file(path)) == 25
    assert len(calls) == 1


def test_parse_non_numeric_continuous_field():
    fields = _line().split(",")
    fields[0] = "abc"
    with pytest.raises(KddParseError, match="duration"):
        parse_kdd_lines([",".join(fields)], split="train")


def test_parse_rejects_negative_and_nonfinite():
    fields = _line().split(",")
    fields[4] = "-1"
    with pytest.raises(KddParseError, match="src_bytes"):
        parse_kdd_lines([",".join(fields)], split="train")
    fields[4] = "inf"
    with pytest.raises(KddParseError):
        parse_kdd_lines([",".join(fields)], split="train")


def test_parse_difficulty_range():
    with pytest.raises(KddParseError, match="difficulty"):
        parse_kdd_lines([_line(difficulty=22)], split="train")
    with pytest.raises(KddParseError, match="difficulty"):
        parse_kdd_lines([_line(difficulty=-1)], split="train")


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(KddParseError):
        parse_kdd_file(path)


def test_roundtrip_file(tmp_path, fixture_ds):
    path = tmp_path / "fixture.txt"
    write_kdd_file(fixture_ds, path)
    reparsed = parse_kdd_file(path, split="fixture")
    assert reparsed.records == fixture_ds.records
    # byte-for-byte: serializing again reproduces the file
    path2 = tmp_path / "fixture2.txt"
    write_kdd_file(reparsed, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_categorize_table_rows(taxonomy):
    assert categorize("normal", taxonomy) == "Normal"
    assert categorize("neptune", taxonomy) == "DoS"
    assert categorize("guess_passwd", taxonomy) == "R2L"
    assert categorize("satan", taxonomy) == "Probe"
    assert categorize("rootkit", taxonomy) == "U2R"


def test_categorize_unknown_rejected(taxonomy):
    with pytest.raises(UnknownLabelError, match="totally_new_attack"):
        categorize("totally_new_attack", taxonomy)


def test_taxonomy_total_on_table_names(taxonomy):
    table1 = {
        "satan", "portsweep", "nmap", "ipsweep",
        "spy", "phf", "multihop", "imap", "guess_passwd", "ftp_write",
        "warezmaster", "warezclient",
        "rootkit", "perl", "loadmodule", "buffer_overflow",
        "teardrop", "smurf", "pod", "neptune", "land", "back",
    }
    for name in table1 | {"normal"}:
        categorize(name, taxonomy)  # must not raise


def test_binary_labels(taxonomy):
    ds = parse_kdd_lines([_line("normal"), _line("smurf"), _line("normal")], split="train")
    labels = binary_labels(ds, taxonomy)
    assert list(labels) == [NORMAL, ATTACK, NORMAL]


def test_binary_labels_all_normal(taxonomy):
    ds = parse_kdd_lines([_line("normal")] * 4, split="train")
    assert (binary_labels(ds, taxonomy) == NORMAL).all()


def test_fourclass_labels(taxonomy):
    ds = parse_kdd_lines(
        [_line("smurf"), _line("nmap"), _line("spy"), _line("perl")], split="train"
    )
    assert list(fourclass_labels(ds, taxonomy)) == ["DoS", "Probe", "R2L", "U2R"]


def test_fourclass_rejects_normal(taxonomy):
    ds = parse_kdd_lines([_line("smurf"), _line("normal")], split="train")
    with pytest.raises(ValueError, match="normal record at row 1"):
        fourclass_labels(ds, taxonomy)


def test_fixture_deterministic():
    a = make_fixture(2, seed=7)
    b = make_fixture(2, seed=7)
    assert a.records == b.records
    c = make_fixture(2, seed=8)
    assert a.records != c.records


def test_fixture_counts():
    assert len(make_fixture(5, seed=0)) == 25


def test_fixture_roundtrip_and_categories(tmp_path, taxonomy):
    ds = make_fixture(3, seed=9)
    path = tmp_path / "f.txt"
    write_kdd_file(ds, path)
    reparsed = parse_kdd_file(path, split="fixture")
    assert reparsed.records == ds.records
    cats = categories(ds, taxonomy)
    counts = {c: int((cats == c).sum()) for c in np.unique(cats)}
    assert counts == {"Normal": 3, "DoS": 3, "Probe": 3, "R2L": 3, "U2R": 3}


def test_fixture_rejects_bad_count():
    with pytest.raises(ValueError):
        make_fixture(0, seed=1)


def test_taxonomy_file_roundtrip(tmp_path):
    path = tmp_path / "tax.csv"
    path.write_text("normal,Normal\nfoo,DoS\n")
    tax = load_taxonomy(path)
    assert categorize("foo", tax) == "DoS"
    bad = tmp_path / "bad.csv"
    bad.write_text("normal,Normal\nfoo,NotACategory\n")
    with pytest.raises(ValueError):
        load_taxonomy(bad)


def test_columns_hold_the_parsed_fields():
    ds = parse_kdd_lines([_line("normal", 3), _line("smurf", 21)], split="test")
    assert ds.numeric.shape == (2, 38) and ds.numeric.dtype == np.float64
    assert [v.tolist() for v in ds.vocab] == [["tcp"], ["http"], ["SF"], ["normal", "smurf"]]
    assert ds.codes.tolist() == [[0, 0, 0, 0], [0, 0, 0, 1]]
    assert [[v[c] for v, c in zip(ds.vocab, row)] for row in ds.codes] == [
        ["tcp", "http", "SF", "normal"], ["tcp", "http", "SF", "smurf"]]
    assert ds.difficulty.tolist() == [3, 21]


def test_blank_lines_count_in_error_line_numbers():
    with pytest.raises(KddParseError, match=r"^line 4: difficulty must be in 0\.\.21, got 30$"):
        parse_kdd_lines([_line(), "", "  \n", _line(difficulty=30)], split="train")


def test_hash_is_an_ordinary_character():
    fields = _line().split(",")
    fields[2] = "#http"
    ds = parse_kdd_lines([",".join(fields)], split="train")
    assert ds.records[0].features[2] == "#http"
    fields[0] = "#1"
    with pytest.raises(KddParseError, match="line 1: feature 'duration' is not numeric: '#1'"):
        parse_kdd_lines([",".join(fields)], split="train")


def test_parse_rejects_digit_group_underscores():
    fields = _line().split(",")
    fields[0] = "1_000"
    with pytest.raises(KddParseError, match="feature 'duration' is not numeric: '1_000'"):
        parse_kdd_lines([",".join(fields)], split="train")


def test_difficulty_line_is_kept_as_a_plain_integer(tmp_path):
    ds = parse_kdd_lines([_line().rsplit(",", 1)[0] + ",+07"], split="train")
    assert ds.difficulty.tolist() == [7]
    write_kdd_file(ds, tmp_path / "out.txt")
    assert (tmp_path / "out.txt").read_text() == _line(difficulty=7) + "\n"


finite_non_negative = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(2**53, 2**64).map(float),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 2.0**53 + 2, 1.7e308, 1e16]),
)


@given(st.lists(finite_non_negative, min_size=1, max_size=20))
def test_spelling_reads_back_the_same_bits(values):
    column = np.array(values, dtype=np.float64)
    spelled = spell_column(column)
    assert not any(s.endswith(".0") for s in spelled)
    assert np.array([float(s) for s in spelled]).tobytes() == column.tobytes()


def test_categories_name_the_first_unknown_label_in_file_order(taxonomy):
    ds = parse_kdd_lines([_line("normal"), _line("zzz_new"), _line("aaa_new")], split="train")
    with pytest.raises(UnknownLabelError, match="zzz_new"):
        categories(ds, taxonomy)


def test_parse_rejects_nul_and_embedded_line_breaks_in_text_fields():
    fields = _line().split(",")
    fields[1] = "tcp\0"
    with pytest.raises(KddParseError, match="^line 1: NUL character in a text field$"):
        parse_kdd_lines([",".join(fields)], split="train")
    fields[1] = "t\rcp"
    with pytest.raises(KddParseError, match="^line 1: embedded line break$"):
        parse_kdd_lines([",".join(fields)], split="train")
