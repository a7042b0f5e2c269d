import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.baselines import LinearSvmConfig
from nidkit.preprocess import FeatureMatrix
from nidkit.resample import (
    SmoteConfig,
    SvmSmoteConfig,
    _batch_knn,
    _interpolate,
    _synthesize,
    svm_smote,
)

from .knn_oracle import knn


def _labelled(values, labels):
    return FeatureMatrix(
        values=np.asarray(values, dtype=np.float64),
        labels=np.asarray(labels, dtype=object),
    )


def _blobs(counts: dict, seed=0, spread=0.2, scale=10.0):
    """Well-separated per-class Gaussian blobs in 2-D."""
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for i, (cls, n) in enumerate(sorted(counts.items())):
        center = np.array([scale * i, -scale * i])
        values.append(center + rng.normal(0.0, spread, size=(n, 2)))
        labels += [cls] * n
    return _labelled(np.vstack(values), labels)


# --- knn ----------------------------------------------------------------

def test_knn_query_at_pool_point():
    pool = np.array([[1.0, 1.0], [3.0, 3.0]])
    assert knn(pool[1], pool, k=1).tolist() == [1]


def test_knn_exhaustive_oracle():
    pool = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    query = np.array([0.4, 0.0])
    got = knn(query, pool, k=2)
    # independent oracle: full distance table, sorted by (distance, index)
    dists = [((p - query) ** 2).sum() for p in pool]
    expected = [i for _, i in sorted((d, i) for i, d in enumerate(dists))][:2]
    assert got.tolist() == expected == [0, 1]


def test_knn_tie_prefers_lower_index():
    pool = np.array([[1.0], [-1.0], [2.0]])
    assert knn(np.array([0.0]), pool, k=1).tolist() == [0]


def test_knn_pool_too_small():
    pool = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="pool"):
        knn(np.array([0.0]), pool, k=2, exclude=0)


def test_knn_exclude_self():
    pool = np.array([[0.0], [1.0], [9.0]])
    assert knn(pool[0], pool, k=1, exclude=0).tolist() == [1]


def _grid(draw, rows, d):
    # small integers: many equal distances, all computed exactly
    cells = draw(st.lists(st.integers(-2, 2), min_size=rows * d, max_size=rows * d))
    return np.array(cells, dtype=np.float64).reshape(rows, d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_batch_knn_matches_single_query_oracle(data):
    draw = data.draw
    d = draw(st.integers(1, 3))
    n_pool = draw(st.integers(2, 12))
    pool = _grid(draw, n_pool, d)
    mode = draw(st.sampled_from(["none", "self", "other"]))
    if mode == "self":
        # queries are pool rows, each excluding itself, as SMOTE calls it
        exclude = np.array(draw(st.lists(st.integers(0, n_pool - 1), min_size=1, max_size=8)))
        queries = pool[exclude]
    else:
        queries = _grid(draw, draw(st.integers(1, 8)), d)
        exclude = None
        if mode == "other":
            exclude = np.array(draw(st.lists(st.integers(0, n_pool - 1),
                                             min_size=len(queries), max_size=len(queries))))
    k = draw(st.integers(1, n_pool - (exclude is not None)))
    chunk = draw(st.integers(1, 4))
    got = _batch_knn(queries, pool, k, exclude=exclude, chunk=chunk)
    for i, query in enumerate(queries):
        skip = None if exclude is None else int(exclude[i])
        assert got[i].tolist() == knn(query, pool, k, exclude=skip).tolist()


# --- plain SMOTE -----------------------------------------------------------

def test_interpolate_midpoint():
    out = _interpolate(np.array([0.0, 0.0]), np.array([2.0, 2.0]), 0.5)
    assert out.tolist() == [1.0, 1.0]


def _smote(minority, n_new, k, seed):
    """Plain SMOTE as svm_smote's fallback runs it: each row's k nearest
    other rows, then seeded round-robin synthesis."""
    near = _batch_knn(minority, minority, k, exclude=np.arange(minority.shape[0]))
    return _synthesize(minority, near, minority, n_new, np.random.default_rng(seed))


def test_smote_zero_new_rows():
    minority = np.array([[0.0, 0.0], [1.0, 1.0]])
    out = _smote(minority, 0, k=1, seed=0)
    assert out.shape == (0, 2)


def test_smote_segment_property():
    rng = np.random.default_rng(123)
    for seed in range(200):
        a, b = rng.normal(size=(2, 3))
        out = _smote(np.vstack([a, b]), 5, k=1, seed=seed)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()


def test_smote_deterministic():
    minority = np.random.default_rng(0).normal(size=(10, 4))
    assert (_smote(minority, 7, k=3, seed=99) == _smote(minority, 7, k=3, seed=99)).all()


# --- SVM-SMOTE ----------------------------------------------------------------

def test_svm_smote_balanced_input_is_identity():
    fm = _blobs({"A": 10, "B": 10})
    rs = svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert rs.matrix.n_rows == 20
    assert not rs.synthetic_mask.any()
    assert (rs.matrix.values == fm.values).all()
    assert (rs.matrix.labels == fm.labels).all()


def test_svm_smote_fills_to_majority():
    fm = _blobs({"A": 100, "B": 10})
    rs = svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert rs.class_counts() == {"A": 100, "B": 100}
    assert int(rs.synthetic_mask.sum()) == 90


def test_svm_smote_four_class_targets():
    fm = _blobs({"DoS": 40, "Probe": 20, "R2L": 10, "U2R": 5})
    rs = svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert rs.class_counts() == {"DoS": 40, "Probe": 40, "R2L": 40, "U2R": 40}


def test_svm_smote_originals_first_bit_exact():
    fm = _blobs({"A": 30, "B": 6})
    rs = svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=2)))
    n = fm.n_rows
    assert not rs.synthetic_mask[:n].any()
    assert rs.synthetic_mask[n:].all()
    assert (rs.matrix.values[:n] == fm.values).all()
    assert (rs.matrix.labels[:n] == fm.labels).all()


def test_svm_smote_deterministic():
    fm = _blobs({"A": 25, "B": 8}, seed=4)
    cfg = SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=5))
    r1 = svm_smote(fm, cfg)
    r2 = svm_smote(fm, cfg)
    assert (r1.matrix.values == r2.matrix.values).all()
    assert (r1.matrix.labels == r2.matrix.labels).all()
    assert r1.log == r2.log


def test_svm_smote_single_class_rejected():
    fm = _labelled(np.ones((5, 2)), ["A"] * 5)
    with pytest.raises(ValueError, match="2 classes"):
        svm_smote(fm, SvmSmoteConfig())


def test_svm_smote_tiny_class_rejected():
    fm = _blobs({"A": 10, "B": 1})
    with pytest.raises(ValueError, match="need >= 2"):
        svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=1)))


def test_svm_smote_fallback_without_violators():
    # margins huge and the SVM trained hard: no violators remain, so the
    # class falls back to plain SMOTE (and says so in the log)
    fm = _blobs({"A": 40, "B": 10}, spread=0.01, scale=1000.0)
    cfg = SvmSmoteConfig(
        smote=SmoteConfig(k_neighbors=3, seed=1),
        svm=LinearSvmConfig(epochs=300, learning_rate=5.0, lam=1e-6),
    )
    rs = svm_smote(fm, cfg)
    assert rs.class_counts() == {"A": 40, "B": 40}
    assert any("fallback" in line for line in rs.log)


def test_svm_smote_interpolated_synthetics_stay_in_class_box():
    fm = _blobs({"A": 50, "B": 12}, seed=2)
    rs = svm_smote(fm, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=3)))
    b_rows = fm.values[fm.labels == "B"]
    lo, hi = b_rows.min(axis=0), b_rows.max(axis=0)
    span = hi - lo
    synth = rs.matrix.values[rs.synthetic_mask]
    # extrapolation can leave the box by at most out_step * box span
    assert (synth >= lo - 0.5 * span - 1e-9).all()
    assert (synth <= hi + 0.5 * span + 1e-9).all()


def test_config_invariants():
    with pytest.raises(ValueError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ValueError):
        SvmSmoteConfig(smote=SmoteConfig(k_neighbors=5), m_neighbors=3)
    with pytest.raises(ValueError):
        SvmSmoteConfig(out_step=0.0)
