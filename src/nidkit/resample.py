"""Synthetic minority oversampling: SVM-SMOTE, with plain SMOTE as its fallback.

Synthetics interpolate between a seed row and one of its k nearest
minority neighbours. The SVM variant seeds generation at borderline
minority rows (hinge-loss violators of a one-vs-rest linear SVM); a
seed whose m-neighbourhood is majority-dominated interpolates inward,
otherwise it extrapolates outward by ``OUT_STEP``. Rows are (n, d)
float64 arrays with a row-aligned array of integer class ids. Original rows
always come first and bit-exact in the result, and everything is
deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .baselines import CELLS, LinearSvmConfig, fit_linear_svm

# Fraction of the seed-to-neighbour distance an extrapolating seed steps out.
OUT_STEP = 0.5
# Queries per block of the neighbour search (fewer when ``cells`` is small).
QUERY_BLOCK = 64


@dataclass(frozen=True)
class SmoteConfig:
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")


@dataclass(frozen=True)
class SvmSmoteConfig:
    smote: SmoteConfig = field(default_factory=SmoteConfig)
    m_neighbors: int = 10
    svm: LinearSvmConfig = field(default_factory=LinearSvmConfig)

    def __post_init__(self) -> None:
        if self.m_neighbors < self.smote.k_neighbors:
            raise ValueError("m_neighbors must be >= k_neighbors")


@dataclass(frozen=True)
class ResampledSet:
    values: np.ndarray          # (n + synthetics, d) float64
    labels: np.ndarray          # class id per row
    synthetic_mask: np.ndarray  # True for generated rows
    log: dict[int, str]  # per oversampled class id, what it did


def _batch_knn(
    queries: np.ndarray,
    pool: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
    cells: int = CELLS,
) -> np.ndarray:
    """Indices of the k nearest pool rows of each query by squared Euclidean
    distance; ties break toward the lower pool index. ``exclude[i]``, when
    given, is a pool row query i may not return (itself, when it belongs to
    the pool). Queries go in blocks of ``min(QUERY_BLOCK, isqrt(cells))``
    rows, and each block walks the pool in chunks of ``cells // block``
    rows, so the screen buffer holds at most ``cells`` values whatever the
    pool and query counts; the result depends on neither size.

    A matrix product screens each chunk. Its last bits depend on how BLAS
    tiles the chunk, so it only keeps every row it cannot rule out of the
    k nearest: a row stays a candidate while its screen value is within a
    slack of the k-th smallest seen so far, a bound that only falls, so the
    candidates hold every row the whole pool's k-th value would keep. They
    are ranked by their distance summed directly, which each (query, row)
    pair computes the same way."""
    n_q, d = queries.shape
    n_pool = pool.shape[0]
    out = np.empty((n_q, k), dtype=np.int64)
    pool_sq = np.einsum("ij,ij->i", pool, pool)
    # rounding keeps the screen and the direct sum within
    # 2 (d + 2) eps (|q|^2 + |p|^2) of each other, so a row among the k
    # nearest by the direct sum screens within twice that of the k-th
    # screened row; the slack doubles that margin again
    slack = 8 * (d + 2) * np.finfo(np.float64).eps
    pool_sq_max = pool_sq.max()
    block = max(1, min(QUERY_BLOCK, math.isqrt(cells)))
    width = max(1, cells // block)
    buffer = np.empty(min(block, n_q) * min(width, n_pool))
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        q = queries[start:stop]
        margin = slack * ((q * q).sum(axis=1) + pool_sq_max)
        # each query's k smallest screen values so far; while fewer than k
        # rows are in, the bound is the largest float, which admits every
        # row but an excluded one (screened at inf)
        smallest = np.full((stop - start, k), np.inf)
        row = col = np.empty(0, dtype=np.intp)
        value = np.empty(0)
        for lo in range(0, n_pool, width):
            hi = min(lo + width, n_pool)
            # |p|^2 - 2 q.p: the squared distance less the query's own |q|^2
            screen = np.matmul(-2.0 * q, pool[lo:hi].T,
                               out=buffer[: (stop - start) * (hi - lo)].reshape(stop - start, -1))
            screen += pool_sq[lo:hi]
            if exclude is not None:
                own = np.flatnonzero((exclude[start:stop] >= lo) & (exclude[start:stop] < hi))
                screen[own, exclude[start + own] - lo] = np.inf
            if lo == 0:
                # the chunk's partitioned copy is freed once its k smallest are copied out
                smallest = np.hstack(
                    [smallest, np.partition(screen, min(k, hi - lo) - 1, axis=1)[:, :k]])
                smallest = np.partition(smallest, k - 1, axis=1)[:, :k]
                limit = np.minimum(smallest[:, k - 1] + margin, np.finfo(np.float64).max)
            # the cells within the current bound hold all a chunk can add:
            # its candidates, and the values below a query's k-th
            new_row, new_col = np.divmod(np.flatnonzero(screen <= limit[:, None]), hi - lo)
            new_value = screen[new_row, new_col]
            below = new_value < smallest[new_row, k - 1]
            if lo > 0 and below.any():
                # sort the few values below the k-th in with each such query's k
                hit, added = np.unique(new_row[below], return_counts=True)
                owner = np.concatenate([np.repeat(hit, k), new_row[below]])
                merged = np.concatenate([smallest[hit].ravel(), new_value[below]])
                order = np.lexsort((merged, owner))
                first = np.cumsum(added + k) - (added + k)
                smallest[hit] = merged[order[first[:, None] + np.arange(k)]]
                limit = np.minimum(smallest[:, k - 1] + margin, np.finfo(np.float64).max)
                fresh = new_value <= limit[new_row]
                new_row, new_col, new_value = new_row[fresh], new_col[fresh], new_value[fresh]
            keep = value <= limit[row]
            row = np.concatenate([row[keep], new_row])
            col = np.concatenate([col[keep], new_col + lo])
            value = np.concatenate([value[keep], new_value])
        diff = q[row] - pool[col]
        direct = (diff * diff).sum(axis=1)
        # sorted by (query, distance, pool index); each query has >= k rows
        order = np.lexsort((col, direct, row))
        counts = np.bincount(row, minlength=stop - start)
        first = np.cumsum(counts) - counts
        out[start:stop] = col[order[first[:, None] + np.arange(k)]]
    return out


def _synthesize(seeds, seed_neighbors, pool, n_new, rng, *, extrapolate=None, out=None):
    """Round-robin over seeds; one synthetic per draw pair (neighbor, lambda).

    A seed flagged in ``extrapolate`` gives a + lam * OUT_STEP * (a - b),
    any other seed a + lam * (b - a), for seed a and neighbour b; each row
    computes its own branch only. Rows are written into ``out`` (n_new, d)
    when given, else into a new array."""
    n_seeds, k = seed_neighbors.shape
    which = np.arange(n_new) % n_seeds
    choice = rng.integers(0, k, size=n_new)
    lam = rng.random(n_new)[:, None]
    a = seeds[which]
    # the neighbours b, then each row's step, computed in place (the indices
    # are valid, so "clip" changes none; unlike "raise" it needs no buffer)
    out = np.take(pool, seed_neighbors[which, choice], axis=0, out=out, mode="clip")
    outward, coef = np.False_, lam
    if extrapolate is not None:
        outward = extrapolate[which, None]
        coef = np.where(outward, lam * OUT_STEP, lam)
    np.subtract(out, a, out=out, where=~outward)
    np.subtract(a, out, out=out, where=outward)
    out *= coef
    out += a
    return out


def svm_smote(values: np.ndarray, labels: np.ndarray, cfg: SvmSmoteConfig) -> ResampledSet:
    """Oversample the rows ``values``, whose class ids are ``labels``, so
    every class reaches the count of the largest class.

    A class below that count with fewer than 2 rows is refused
    (ValueError) before any work. The one-vs-rest linear SVMs of the others
    are fitted together, in one ``fit_linear_svm`` call. Classes then go in
    ascending id order, each drawing from its own child of
    ``SeedSequence(cfg.smote.seed)``. Per class: its SVM picks the
    borderline rows (positive hinge loss); those seed the generation. A
    seed with a majority-dominated m-neighbourhood interpolates toward its
    k within-class neighbours, otherwise it extrapolates away from them by
    ``OUT_STEP``. Classes with no violators fall back to plain SMOTE over
    the whole class (recorded in the log).
    """
    counts = np.bincount(labels)
    classes = np.flatnonzero(counts)
    class_counts = counts[classes]
    if len(classes) < 2:
        raise ValueError("svm_smote needs at least 2 classes present")
    target = int(class_counts.max())

    # originals first, then each class's synthetics written into its slice
    n = values.shape[0]
    all_values = np.empty((n + int((target - class_counts).sum()), values.shape[1]))
    all_values[:n] = values
    all_labels = np.empty(all_values.shape[0], dtype=labels.dtype)
    all_labels[:n] = labels
    stop = n
    log: dict[int, str] = {}
    grown = np.flatnonzero(class_counts < target)  # positions in ``classes``
    for i in grown.tolist():
        if class_counts[i] < 2:
            raise ValueError(f"class {classes[i]} has {class_counts[i]} row(s); "
                             "need >= 2 to oversample")
    # one joint fit of every grown class's one-vs-rest SVM, in ascending class order
    svms = fit_linear_svm(values, labels == classes[grown, None], cfg.svm) if grown.size else []
    children = np.random.SeedSequence(cfg.smote.seed).spawn(len(classes))
    for i, svm in zip(grown.tolist(), svms):
        cls, n_cls, child = int(classes[i]), int(class_counts[i]), children[i]
        need = target - n_cls
        start, stop = stop, stop + need
        all_labels[start:stop] = cls
        rng = np.random.default_rng(child)
        member_idx = np.nonzero(labels == cls)[0]
        members = values[member_idx]
        k_eff = min(cfg.smote.k_neighbors, n_cls - 1)
        seed_rows = np.intersect1d(svm.margin_violators, member_idx)
        if seed_rows.size == 0:
            log[cls] = f"no margin violators, plain SMOTE fallback over {n_cls} rows"
            neighbors = _batch_knn(members, members, k_eff, exclude=np.arange(n_cls))
            _synthesize(members, neighbors, members, need, rng, out=all_values[start:stop])
        else:
            seeds = values[seed_rows]
            m_eff = min(cfg.m_neighbors, n - 1)
            wide = _batch_knn(seeds, values, m_eff, exclude=seed_rows)
            majority = (labels[wide] != cls).sum(axis=1)
            interpolate_seed = majority > m_eff / 2.0
            # neighbour lookup stays within the class; map seed rows to
            # their position among members to exclude self-matches
            pos_in_class = np.searchsorted(member_idx, seed_rows)
            near = _batch_knn(seeds, members, k_eff, exclude=pos_in_class)
            _synthesize(
                seeds, near, members, need, rng,
                extrapolate=~interpolate_seed, out=all_values[start:stop],
            )
            log[cls] = (f"{seed_rows.size} borderline seeds "
                        f"({int(interpolate_seed.sum())} interpolating), {need} synthetics")

    mask = np.zeros(all_values.shape[0], dtype=bool)
    mask[n:] = True
    return ResampledSet(values=all_values, labels=all_labels, synthetic_mask=mask, log=log)
