import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.dataset import categories, parse_kdd_file, parse_kdd_lines
from nidkit.explore import (
    find_constant_features,
    histogram,
    pearson_matrix,
    scatter_csv,
    scatter_rows,
    write_exploration,
)
from nidkit.schema import DEFAULT_SCHEMA

from .pearson_oracle import pearson_pairs


def _lines(duration_values, labels=None):
    labels = labels or ["normal"] * len(duration_values)
    lines = []
    for v, lab in zip(duration_values, labels):
        fields = []
        for e in DEFAULT_SCHEMA.entries:
            if e.kind == "categorical":
                fields.append({"protocol_type": "tcp", "service": "http", "flag": "SF"}[e.name])
            elif e.name == "duration":
                fields.append(str(v))
            else:
                fields.append("0")
        lines.append(",".join(fields) + f",{lab},0")
    return lines


def _ds(duration_values, labels=None):
    return parse_kdd_lines(_lines(duration_values, labels), split="train")


def test_histogram_single_value_one_bin(taxonomy):
    ds = _ds([5, 5, 5, 5])
    report = histogram(ds, categories(ds, taxonomy), "duration", bins=3)
    total = sum(c.sum() for c in report.counts.values())
    per_bin = sum(report.counts.values())
    assert total == 4
    assert (per_bin > 0).sum() == 1
    assert (np.diff(report.edges) > 0).all()


def test_histogram_hand_binning(taxonomy):
    ds = _ds([0, 1, 2, 3])
    report = histogram(ds, categories(ds, taxonomy), "duration", bins=2)
    assert report.edges.tolist() == [0.0, 1.5, 3.0]
    assert report.counts["Normal"].tolist() == [2, 2]


def test_histogram_last_bin_right_closed(taxonomy):
    ds = _ds([0, 10])
    report = histogram(ds, categories(ds, taxonomy), "duration", bins=5)
    assert report.counts["Normal"][-1] == 1  # the max lands inside, not past, the last bin


def test_histogram_per_class_conservation(taxonomy, fixture_ds):
    report = histogram(fixture_ds, categories(fixture_ds, taxonomy), "count", bins=7)
    for cat, counts in report.counts.items():
        assert counts.sum() == 30  # fixture rows per category


def test_histogram_rejects_bad_args(taxonomy):
    ds = _ds([1, 2])
    with pytest.raises(ValueError):
        histogram(ds, categories(ds, taxonomy), "duration", bins=0)
    with pytest.raises(KeyError):
        histogram(ds, categories(ds, taxonomy), "no_such_feature")


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
    rows = scatter_rows(small_ds, "count", "serror_rate", categories(small_ds, taxonomy))
    assert len(rows) == len(small_ds)
    jx = DEFAULT_SCHEMA.index_of("count")
    jy = DEFAULT_SCHEMA.index_of("serror_rate")
    for rec, (x, y, cat) in zip(small_ds.records, rows):
        assert rec.features[jx] == x and rec.features[jy] == y
        assert cat in ("Normal", "DoS", "Probe", "R2L", "U2R")
    text = scatter_csv(rows, "count", "serror_rate")
    reparsed = [tuple(line.split(",")) for line in text.splitlines()[1:]]
    assert reparsed == rows


def test_scatter_unknown_feature(taxonomy, small_ds):
    with pytest.raises(KeyError):
        scatter_rows(small_ds, "bogus", "count", categories(small_ds, taxonomy))


def test_explore_reads_values_not_spellings(tmp_path, taxonomy):
    path = tmp_path / "train.txt"
    path.write_text("\n".join(_lines(["0.00", "0"])) + "\n")
    ds = parse_kdd_file(path, split="train")
    assert ("duration", "0") in find_constant_features(ds).constant_features
    rows = scatter_rows(ds, "duration", "protocol_type", categories(ds, taxonomy))
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


def test_write_exploration_outputs(tmp_path, taxonomy, fixture_ds):
    files = write_exploration(fixture_ds, taxonomy, tmp_path / "explore")
    for path in files:
        assert path.exists()
    corr = (tmp_path / "explore" / "correlation.csv").read_text().splitlines()
    assert len(corr) == 42  # header + 41 rows
    assert corr[0].split(",")[1:] == list(DEFAULT_SCHEMA.names)
    # deterministic re-run: byte-identical artifacts
    before = {p: p.read_bytes() for p in files}
    write_exploration(fixture_ds, taxonomy, tmp_path / "explore")
    for p, content in before.items():
        assert p.read_bytes() == content


def test_feature_view_matches_the_encoded_matrix(fixture_ds):
    from nidkit import explore

    full = explore._numeric_view(fixture_ds)
    for j, name in enumerate(DEFAULT_SCHEMA.names):
        assert explore._feature_view(fixture_ds, name).tobytes() == (
            full[:, j].tobytes()), name


def test_write_exploration_encodes_at_most_once(tmp_path, taxonomy, fixture_ds, monkeypatch):
    from nidkit import explore

    calls = []
    encode = explore.encode
    monkeypatch.setattr(explore, "encode", lambda *a, **k: calls.append(1) or encode(*a, **k))
    write_exploration(fixture_ds, taxonomy, tmp_path / "explore")
    assert len(calls) == 1
