"""Reference oracle for ``nidkit.explore.pearson_matrix``: one dot product
per column pair, clipped to [-1, 1] and mirrored; constant columns are
masked with zeros and every other column has a unit diagonal."""

from __future__ import annotations

import numpy as np


def pearson_pairs(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, constant_mask) of the Pearson matrix of ``matrix``'s columns."""
    matrix = np.asarray(matrix, dtype=np.float64)
    d = matrix.shape[1]
    centered = matrix - matrix.mean(axis=0)
    std = matrix.std(axis=0)
    mask = std == 0
    out = np.zeros((d, d))
    n = matrix.shape[0]
    for i in range(d):
        if mask[i]:
            continue
        out[i, i] = 1.0
        for j in range(i + 1, d):
            if mask[j]:
                continue
            r = (centered[:, i] @ centered[:, j]) / (n * std[i] * std[j])
            r = min(1.0, max(-1.0, r))
            out[i, j] = r
            out[j, i] = r
    return out, mask
