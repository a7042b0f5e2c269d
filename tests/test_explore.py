import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.dataset import category_ids, parse_kdd_file, parse_kdd_lines
from nidkit.explore import (
    DEFAULT_HISTOGRAM_FEATURES,
    DEFAULT_SCATTER_PAIRS,
    exploration_files,
    find_constant_features,
    histogram,
    pearson_matrix,
    scatter_csv,
    scatter_rows,
)
from nidkit.preprocess import encode, fit_encoder
from nidkit.schema import CATEGORICAL_INDICES, INDEX, NAMES

from .pearson_oracle import pearson_pairs


def _lines(duration_values, labels=None):
    labels = labels or ["normal"] * len(duration_values)
    lines = []
    for v, lab in zip(duration_values, labels):
        fields = []
        for j, name in enumerate(NAMES):
            if j in CATEGORICAL_INDICES:
                fields.append({"protocol_type": "tcp", "service": "http", "flag": "SF"}[name])
            elif name == "duration":
                fields.append(str(v))
            else:
                fields.append("0")
        lines.append(",".join(fields) + f",{lab},0")
    return lines


def _ds(duration_values, labels=None):
    return parse_kdd_lines(_lines(duration_values, labels), split="train")


def _matrix(ds):
    """The encoded matrix that ``exploration_files`` bins, codes fit on ``ds``."""
    return encode(fit_encoder(ds), ds)


def test_histogram_single_value_one_bin(taxonomy):
    ds = _ds([5, 5, 5, 5])
    report = histogram(_matrix(ds), category_ids(ds, taxonomy), "duration", bins=3)
    total = sum(c.sum() for c in report.counts.values())
    per_bin = sum(report.counts.values())
    assert total == 4
    assert (per_bin > 0).sum() == 1
    assert (np.diff(report.edges) > 0).all()


def test_histogram_hand_binning(taxonomy):
    ds = _ds([0, 1, 2, 3])
    report = histogram(_matrix(ds), category_ids(ds, taxonomy), "duration", bins=2)
    assert report.edges.tolist() == [0.0, 1.5, 3.0]
    assert report.counts["Normal"].tolist() == [2, 2]


def test_histogram_last_bin_right_closed(taxonomy):
    ds = _ds([0, 10])
    report = histogram(_matrix(ds), category_ids(ds, taxonomy), "duration", bins=5)
    assert report.counts["Normal"][-1] == 1  # the max lands inside, not past, the last bin


def test_histogram_per_class_conservation(taxonomy, fixture_ds):
    report = histogram(_matrix(fixture_ds), category_ids(fixture_ds, taxonomy), "count", bins=7)
    for cat, counts in report.counts.items():
        assert counts.sum() == 30  # fixture rows per category


def test_histogram_rejects_bad_args(taxonomy):
    ds = _ds([1, 2])
    with pytest.raises(ValueError):
        histogram(_matrix(ds), category_ids(ds, taxonomy), "duration", bins=0)
    with pytest.raises(KeyError):
        histogram(_matrix(ds), category_ids(ds, taxonomy), "no_such_feature", bins=40)


def test_pearson_self_and_linear():
    x = np.array([1.0, 2.0, 3.0])
    m = pearson_matrix(np.column_stack([x, 2 * x, x[::-1]]))
    assert m.values[0, 0] == 1.0
    assert m.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert m.values[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_needs_two_rows():
    with pytest.raises(ValueError):
        pearson_matrix(np.ones((1, 3)))


def test_pearson_symmetric_exact_and_masked():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(20, 5))
    data[:, 3] = 7.0  # constant column
    m = pearson_matrix(data)
    assert (m.values == m.values.T).all()
    assert m.constant_mask.tolist() == [False, False, False, True, False]
    assert (m.values[3] == 0).all() and (m.values[:, 3] == 0).all()
    assert np.abs(m.values).max() <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=40),
    cols=st.integers(min_value=1, max_value=8),
    constant=st.sets(st.integers(min_value=0, max_value=7), max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
)
def test_pearson_matrix_product_matches_pairwise_oracle(rows, cols, constant, seed, scale):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, cols)) * scale + rng.normal(size=cols) * 3 * scale
    for j in constant & set(range(cols)):
        data[:, j] = data[0, j]
    m = pearson_matrix(data)
    want, want_mask = pearson_pairs(data)
    assert (m.constant_mask == want_mask).all()
    assert np.abs(m.values - want).max() <= 1e-12
    assert (m.values == m.values.T).all()


def test_scatter_rows_roundtrip(taxonomy, small_ds):
    rows = scatter_rows(small_ds, "count", "serror_rate", category_ids(small_ds, taxonomy))
    assert len(rows) == len(small_ds)
    jx = INDEX["count"]
    jy = INDEX["serror_rate"]
    for rec, (x, y, cat) in zip(small_ds.records, rows):
        assert rec.features[jx] == x and rec.features[jy] == y
        assert cat in ("Normal", "DoS", "Probe", "R2L", "U2R")
    text = scatter_csv(rows, "count", "serror_rate")
    reparsed = [tuple(line.split(",")) for line in text.splitlines()[1:]]
    assert reparsed == rows


def test_scatter_unknown_feature(taxonomy, small_ds):
    with pytest.raises(KeyError):
        scatter_rows(small_ds, "bogus", "count", category_ids(small_ds, taxonomy))


def test_explore_reads_values_not_spellings(tmp_path, taxonomy):
    path = tmp_path / "train.txt"
    path.write_text("\n".join(_lines(["0.00", "0"])) + "\n")
    ds = parse_kdd_file(path, split="train")
    assert ("duration", "0") in find_constant_features(ds).constant_features
    rows = scatter_rows(ds, "duration", "protocol_type", category_ids(ds, taxonomy))
    assert rows == [("0", "tcp", "Normal")] * 2


def test_constant_features_flagged(fixture_ds):
    report = find_constant_features(fixture_ds)
    names = [n for n, _ in report.constant_features]
    assert "num_outbound_cmds" in names
    value = dict(report.constant_features)["num_outbound_cmds"]
    assert float(value) == 0.0
    assert "count" not in names  # varies across blobs


def test_real_train_constant_features():
    from nidkit.dataset import parse_kdd_file

    from .conftest import require_real_data

    train = parse_kdd_file(require_real_data("KDDTrain+.txt"), split="train")
    names = [n for n, _ in find_constant_features(train).constant_features]
    assert "num_outbound_cmds" in names


def _exploration_files(ds, taxonomy):
    return exploration_files(ds, category_ids(ds, taxonomy), DEFAULT_HISTOGRAM_FEATURES,
                             DEFAULT_SCATTER_PAIRS, 40)


def test_exploration_files_outputs(taxonomy, fixture_ds):
    files = _exploration_files(fixture_ds, taxonomy)
    for text in files.values():
        assert text
    corr = files["correlation.csv"].splitlines()
    assert len(corr) == 42  # header + 41 rows
    assert corr[0].split(",")[1:] == list(NAMES)
    # deterministic re-run: identical texts
    assert _exploration_files(fixture_ds, taxonomy) == files


def test_histogram_bins_the_parsed_values_and_the_label_count_codes(taxonomy, fixture_ds):
    cats = category_ids(fixture_ds, taxonomy)
    files = _exploration_files(fixture_ds, taxonomy)
    enc = fit_encoder(fixture_ds)
    for name in DEFAULT_HISTOGRAM_FEATURES:
        j = INDEX[name]
        column = fixture_ds.column(j)
        if j in CATEGORICAL_INDICES:
            column = np.array([enc.code(name, c) for c in column.tolist()], dtype=np.float64)
        report = histogram(_matrix(fixture_ds), cats, name, bins=40)
        assert (report.edges[0], report.edges[-1]) == (column.min(), column.max()), name
        assert files[f"histograms/{name}.csv"] == report.to_csv(), name


def test_exploration_files_encodes_at_most_once(taxonomy, fixture_ds, monkeypatch):
    from nidkit import explore

    calls = []
    encode = explore.encode
    monkeypatch.setattr(explore, "encode", lambda *a, **k: calls.append(1) or encode(*a, **k))
    _exploration_files(fixture_ds, taxonomy)
    assert len(calls) == 1
