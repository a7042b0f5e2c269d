"""Reference oracle for ``nidkit.resample._batch_knn``: one query at a time,
a full distance vector and a stable sort, so ties go to the lower index."""

from __future__ import annotations

import numpy as np


def knn(query: np.ndarray, pool: np.ndarray, k: int, exclude: int | None = None) -> np.ndarray:
    """Indices of the k nearest pool rows by Euclidean distance.

    Ties break toward the lower index. ``exclude`` removes one pool row
    (the query itself, when it belongs to the pool).
    """
    query = np.asarray(query, dtype=np.float64)
    pool = np.asarray(pool, dtype=np.float64)
    available = pool.shape[0] - (1 if exclude is not None else 0)
    if k < 1 or available < k:
        raise ValueError(f"pool has only {available} usable rows, need {k}")
    d2 = ((pool - query) ** 2).sum(axis=1)
    if exclude is not None:
        d2[exclude] = np.inf
    return np.argsort(d2, kind="stable")[:k]
