"""Synthetic minority oversampling: plain SMOTE and an SVM-guided variant.

Synthetics interpolate between a seed row and one of its k nearest
minority neighbours. The SVM variant seeds generation at borderline
minority rows (hinge-loss violators of a one-vs-rest linear SVM); a
seed whose m-neighbourhood is majority-dominated interpolates inward,
otherwise it extrapolates outward by ``out_step``. Original rows always
come first and bit-exact in the result, and everything is deterministic
per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import LinearSvmConfig, fit_linear_svm
from .preprocess import FeatureMatrix


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
    out_step: float = 0.5
    svm: LinearSvmConfig = field(default_factory=LinearSvmConfig)

    def __post_init__(self) -> None:
        if self.m_neighbors < self.smote.k_neighbors:
            raise ValueError("m_neighbors must be >= k_neighbors")
        if not 0.0 < self.out_step <= 1.0:
            raise ValueError("out_step must be in (0, 1]")


@dataclass(frozen=True)
class ResampledSet:
    matrix: FeatureMatrix
    synthetic_mask: np.ndarray  # True for generated rows
    log: tuple[str, ...] = ()

    def class_counts(self) -> dict[str, int]:
        values, counts = np.unique(self.matrix.labels, return_counts=True)
        return {str(v): int(c) for v, c in zip(values, counts)}


def _batch_knn(
    queries: np.ndarray,
    pool: np.ndarray,
    k: int,
    exclude: np.ndarray | None = None,
    chunk: int = 256,
) -> np.ndarray:
    """Indices of the k nearest pool rows of each query by squared Euclidean
    distance; ties break toward the lower pool index. ``exclude[i]``, when
    given, is a pool row query i may not return (itself, when it belongs to
    the pool)."""
    n_q = queries.shape[0]
    out = np.empty((n_q, k), dtype=np.int64)
    pool_sq = (pool * pool).sum(axis=1)
    for start in range(0, n_q, chunk):
        stop = min(start + chunk, n_q)
        q = queries[start:stop]
        d2 = pool_sq[None, :] - 2.0 * (q @ pool.T) + (q * q).sum(axis=1)[:, None]
        np.maximum(d2, 0.0, out=d2)
        if exclude is not None:
            rows = np.arange(start, stop)
            d2[np.arange(stop - start), exclude[rows]] = np.inf
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        dmax = np.take_along_axis(d2, part, axis=1).max(axis=1)
        for r in range(stop - start):
            cand = np.nonzero(d2[r] <= dmax[r])[0]  # ascending index
            order = np.argsort(d2[r, cand], kind="stable")
            out[start + r] = cand[order[:k]]
    return out


def _interpolate(a: np.ndarray, b: np.ndarray, lam) -> np.ndarray:
    return a + np.asarray(lam) * (b - a)


def _synthesize(seeds, seed_neighbors, pool, n_new, rng, *, out_step=None, extrapolate=None):
    """Round-robin over seeds; one synthetic per draw pair (neighbor, lambda)."""
    n_seeds, k = seed_neighbors.shape
    which = np.arange(n_new) % n_seeds
    choice = rng.integers(0, k, size=n_new)
    lam = rng.random(n_new)[:, None]
    a = seeds[which]
    b = pool[seed_neighbors[which, choice]]
    if extrapolate is None:
        return _interpolate(a, b, lam)
    out = np.where(
        extrapolate[which, None],
        a + lam * out_step * (a - b),
        _interpolate(a, b, lam),
    )
    return out


def smote_generate(minority: np.ndarray, n_new: int, cfg: SmoteConfig) -> np.ndarray:
    """Plain SMOTE rows from a single-class matrix; deterministic per cfg.seed."""
    minority = np.asarray(minority, dtype=np.float64)
    if n_new < 0:
        raise ValueError("n_new must be >= 0")
    if n_new == 0:
        return np.empty((0, minority.shape[1]))
    if minority.shape[0] < 2:
        raise ValueError("SMOTE needs at least 2 minority rows")
    if minority.shape[0] < cfg.k_neighbors + 1:
        raise ValueError(
            f"SMOTE with k={cfg.k_neighbors} needs >= {cfg.k_neighbors + 1} rows, "
            f"got {minority.shape[0]}"
        )
    rng = np.random.default_rng(cfg.seed)
    neighbors = _batch_knn(
        minority, minority, cfg.k_neighbors, exclude=np.arange(minority.shape[0])
    )
    return _synthesize(minority, neighbors, minority, n_new, rng)


def svm_smote(fm: FeatureMatrix, cfg: SvmSmoteConfig) -> ResampledSet:
    """Oversample every class up to the count of the largest class.

    Per class: a one-vs-rest linear SVM picks the borderline rows
    (positive hinge loss); those seed the generation. A seed with a
    majority-dominated m-neighbourhood interpolates toward its k
    within-class neighbours, otherwise it extrapolates away from them
    by ``out_step``. Classes with no violators fall back to plain SMOTE
    over the whole class (recorded in the log).
    """
    values, labels = fm.values, fm.labels
    classes, class_counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise ValueError("svm_smote needs at least 2 classes present")
    counts = {str(c): int(n) for c, n in zip(classes, class_counts)}
    target = max(counts.values())

    synth_blocks: list[np.ndarray] = []
    synth_labels: list[np.ndarray] = []
    log: list[str] = []
    children = np.random.SeedSequence(cfg.smote.seed).spawn(len(classes))
    for cls, child in zip(classes, children):
        cls = str(cls)
        need = target - counts[cls]
        if need == 0:
            continue
        n_cls = counts[cls]
        if n_cls < 2:
            raise ValueError(f"class {cls!r} has {n_cls} row(s); need >= 2 to oversample")
        rng = np.random.default_rng(child)
        member_idx = np.nonzero(labels == cls)[0]
        members = values[member_idx]
        k_eff = min(cfg.smote.k_neighbors, n_cls - 1)
        y = np.where(labels == cls, 1.0, -1.0)
        svm = fit_linear_svm(values, y, cfg.svm)
        seed_rows = np.intersect1d(svm.margin_violators, member_idx)
        if seed_rows.size == 0:
            log.append(f"class {cls}: no margin violators, plain SMOTE fallback over {n_cls} rows")
            neighbors = _batch_knn(members, members, k_eff, exclude=np.arange(n_cls))
            new = _synthesize(members, neighbors, members, need, rng)
        else:
            seeds = values[seed_rows]
            m_eff = min(cfg.m_neighbors, values.shape[0] - 1)
            wide = _batch_knn(seeds, values, m_eff, exclude=seed_rows)
            majority = (labels[wide] != cls).sum(axis=1)
            interpolate_seed = majority > m_eff / 2.0
            # neighbour lookup stays within the class; map seed rows to
            # their position among members to exclude self-matches
            pos_in_class = np.searchsorted(member_idx, seed_rows)
            near = _batch_knn(seeds, members, k_eff, exclude=pos_in_class)
            new = _synthesize(
                seeds, near, members, need, rng,
                out_step=cfg.out_step, extrapolate=~interpolate_seed,
            )
            log.append(
                f"class {cls}: {seed_rows.size} borderline seeds "
                f"({int(interpolate_seed.sum())} interpolating), {need} synthetics"
            )
        synth_blocks.append(new)
        synth_labels.append(np.full(need, cls, dtype=object))

    if synth_blocks:
        all_values = np.vstack([values, *synth_blocks])
        all_labels = np.concatenate([labels, *synth_labels])
    else:
        all_values = values.copy()
        all_labels = labels.copy()
    mask = np.zeros(all_values.shape[0], dtype=bool)
    mask[values.shape[0]:] = True
    out = FeatureMatrix(values=all_values, labels=all_labels)
    return ResampledSet(matrix=out, synthetic_mask=mask, log=tuple(log))
