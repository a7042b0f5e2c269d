import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit import resample
from nidkit.baselines import CELLS, LinearSvmConfig
from nidkit.resample import (
    SmoteConfig,
    SvmSmoteConfig,
    _batch_knn,
    _synthesize,
    svm_smote,
)

from .knn_oracle import knn


def _blobs(counts: tuple, seed=0, spread=0.2, scale=10.0):
    """Well-separated Gaussian blobs in 2-D, ``counts[i]`` rows of class id i."""
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for i, n in enumerate(counts):
        center = np.array([scale * i, -scale * i])
        values.append(center + rng.normal(0.0, spread, size=(n, 2)))
        labels += [i] * n
    return np.vstack(values), np.array(labels)


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
    rows = draw(st.integers(1, 4))
    got = _batch_knn(queries, pool, k, exclude=exclude, cells=rows * n_pool)
    for i, query in enumerate(queries):
        skip = None if exclude is None else int(exclude[i])
        assert got[i].tolist() == knn(query, pool, k, exclude=skip).tolist()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batch_knn_same_indices_for_every_block_size(data):
    # float rows, some duplicated so exact distance ties occur: the
    # neighbours must not depend on how many queries share a block
    draw = data.draw
    d = draw(st.integers(1, 12))
    coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                  min_size=1, max_size=20)))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=40))
    pool = base[picks]
    n_pool = len(pool)
    if draw(st.booleans()):
        exclude = np.array(draw(st.lists(st.integers(0, n_pool - 1), min_size=1, max_size=30)))
        queries = pool[exclude]
    else:
        extra = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=0, max_size=10))
        queries = np.vstack([pool, np.array(extra).reshape(-1, d)])
        exclude = None
    k = draw(st.integers(1, n_pool - (exclude is not None)))
    whole = _batch_knn(queries, pool, k, exclude=exclude, cells=len(queries) * n_pool)
    for i, query in enumerate(queries):
        skip = None if exclude is None else int(exclude[i])
        assert whole[i].tolist() == knn(query, pool, k, exclude=skip).tolist()
    for rows in range(1, len(queries)):
        got = _batch_knn(queries, pool, k, exclude=exclude, cells=rows * n_pool)
        assert (got == whole).all(), rows


def test_batch_knn_duplicate_rows_tie_to_lower_index_in_any_block():
    # found by the property above: ranked by the matrix product alone, a
    # one-row block put the duplicate at index 13 ahead of index 11
    pool = np.zeros((14, 8))
    pool[[11, 13]] = [0.0, 0.0, 0.0, 53.81460337389311, 0.0, 56.0, 0.0, 1e-09]
    queries = np.vstack([pool, np.zeros((4, 8)), [[0.0, 0.0, 0.0, 73.0, 0.0, 3.0, 0.0, 1.0]]])
    for rows in range(1, len(queries) + 1):
        assert _batch_knn(queries, pool, 1, cells=rows * len(pool))[-1].tolist() == [11]


def test_batch_knn_memory_does_not_grow_with_the_queries():
    # one pool, 20 then 2,000 queries: past the (n_q, k) result, the traced
    # peak may grow by no more than a few budgets of screen cells
    rng = np.random.default_rng(5)
    pool = rng.normal(size=(20_000, 8))
    queries = rng.normal(size=(2_000, 8))
    k = 10
    peaks = []
    for n_q in (20, 2_000):
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            out = _batch_knn(queries[:n_q], pool, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n_q, k)
        peaks.append(peak - entry)
    assert peaks[1] - peaks[0] <= 2_000 * k * 8 + 4 * CELLS * 8


# --- plain SMOTE -----------------------------------------------------------

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
    values, labels = _blobs((10, 10))
    rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert len(rs.values) == 20
    assert not rs.synthetic_mask.any()
    assert (rs.values == values).all()
    assert (rs.labels == labels).all()


def test_svm_smote_fills_to_majority():
    values, labels = _blobs((100, 10))
    rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert np.bincount(rs.labels).tolist() == [100, 100]
    assert int(rs.synthetic_mask.sum()) == 90


def test_svm_smote_four_class_targets():
    values, labels = _blobs((40, 20, 10, 5))
    rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert np.bincount(rs.labels).tolist() == [40, 40, 40, 40]


def test_svm_smote_originals_first_bit_exact():
    values, labels = _blobs((30, 6))
    rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=2)))
    n = len(values)
    assert not rs.synthetic_mask[:n].any()
    assert rs.synthetic_mask[n:].all()
    assert (rs.values[:n] == values).all()
    assert (rs.labels[:n] == labels).all()


def test_svm_smote_deterministic():
    values, labels = _blobs((25, 8), seed=4)
    cfg = SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=5))
    r1 = svm_smote(values, labels, cfg)
    r2 = svm_smote(values, labels, cfg)
    assert (r1.values == r2.values).all()
    assert (r1.labels == r2.labels).all()
    assert r1.log == r2.log


def test_svm_smote_single_class_rejected():
    with pytest.raises(ValueError, match="2 classes"):
        svm_smote(np.ones((5, 2)), np.zeros(5, dtype=np.intp), SvmSmoteConfig())


def test_svm_smote_tiny_class_rejected():
    values, labels = _blobs((10, 1))
    with pytest.raises(ValueError, match="need >= 2"):
        svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=1)))


def _spy_svm_fits(monkeypatch):
    """The label stacks of every ``fit_linear_svm`` call ``svm_smote`` makes."""
    calls = []
    fit = resample.fit_linear_svm

    def spy(values, labels, cfg):
        calls.append(np.array(labels))
        return fit(values, labels, cfg)

    monkeypatch.setattr(resample, "fit_linear_svm", spy)
    return calls


def test_svm_smote_fits_every_grown_class_in_one_call(monkeypatch):
    # one joint fit, one label row per class that needs synthetics in
    # ascending order; the benchmark times this call as resample.svm_fit_s
    calls = _spy_svm_fits(monkeypatch)
    values, labels = _blobs((40, 20, 40, 10, 5), seed=6)
    svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)))
    assert len(calls) == 1
    assert calls[0].tolist() == [(labels == cls).tolist() for cls in (1, 3, 4)]


def test_svm_smote_refuses_a_tiny_class_before_any_fit(monkeypatch):
    # the one-row class comes after a larger minority class, whose fit and
    # neighbour searches must not run first
    calls = _spy_svm_fits(monkeypatch)
    values, labels = _blobs((30, 10, 1))
    with pytest.raises(ValueError, match="class 2 has 1 row.*need >= 2"):
        svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=1)))
    assert calls == []


def test_svm_smote_fallback_without_violators():
    # margins huge and the SVM trained hard: no violators remain, so the
    # class falls back to plain SMOTE (and says so in the log)
    values, labels = _blobs((40, 10), spread=0.01, scale=1000.0)
    cfg = SvmSmoteConfig(
        smote=SmoteConfig(k_neighbors=3, seed=1),
        svm=LinearSvmConfig(epochs=300, learning_rate=5.0, lam=1e-6),
    )
    rs = svm_smote(values, labels, cfg)
    assert np.bincount(rs.labels).tolist() == [40, 40]
    assert "fallback" in rs.log[1]


def test_svm_smote_interpolated_synthetics_stay_in_class_box():
    values, labels = _blobs((50, 12), seed=2)
    rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=3)))
    b_rows = values[labels == 1]
    lo, hi = b_rows.min(axis=0), b_rows.max(axis=0)
    span = hi - lo
    synth = rs.values[rs.synthetic_mask]
    # extrapolation can leave the box by at most OUT_STEP * box span
    assert (synth >= lo - 0.5 * span - 1e-9).all()
    assert (synth <= hi + 0.5 * span + 1e-9).all()


def test_svm_smote_working_memory_is_bounded_by_its_result():
    # 4,000 overlapping minority rows against 12,000: the neighbour search
    # runs over hundreds of borderline seeds, yet the traced peak above
    # entry stays within a few copies of the returned matrix
    rng = np.random.default_rng(0)
    values = np.vstack([rng.normal(0.0, 1.0, size=(8000, 41)),
                        rng.normal(0.3, 1.0, size=(4000, 41))])
    labels = np.array([0] * 8000 + [1] * 4000)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        rs = svm_smote(values, labels, SvmSmoteConfig(smote=SmoteConfig(seed=1),
                                          svm=LinearSvmConfig(epochs=3)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert int(rs.log[1].split()[0]) >= 256  # "<n> borderline seeds ..."
    assert peak - entry <= 3 * rs.values.nbytes


def test_config_invariants():
    with pytest.raises(ValueError):
        SmoteConfig(k_neighbors=0)
    with pytest.raises(ValueError):
        SvmSmoteConfig(smote=SmoteConfig(k_neighbors=5), m_neighbors=3)
