"""Reference oracle for the batched split search ``nidkit.baselines._best_splits``,
which ``tests/test_baselines.py`` reaches through its one-node helper
``_split_search``: one candidate feature at a time, over a row-major
(rows, columns) statistics block.

Each feature's rows are gathered in ascending value order and summed with
one cumsum; every boundary between two distinct values is scored, and the
feature with a strictly lower best score replaces the current best, so ties
go to the lower feature index, then the lower threshold. A threshold is
the midpoint of the two values at the boundary, or the lower value when the
midpoint rounds to the upper one.
"""

from __future__ import annotations

import numpy as np


def gini_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Weighted child Gini per boundary; columns are per-class weight sums."""
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        gini_l = 1.0 - ((left / wl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
    gini_l = np.where(wl > 0, gini_l, 0.0)
    gini_r = np.where(wr > 0, gini_r, 0.0)
    return (wl * gini_l + wr * gini_r) / (wl + wr)


def sse_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Summed child squared error per boundary; columns are sums of y, y^2, 1."""
    sse_l = left[:, 1] - left[:, 0] ** 2 / left[:, 2]
    sse_r = right[:, 1] - right[:, 0] ** 2 / right[:, 2]
    return sse_l + sse_r


def best_split(data, stats, orders, candidates, score):
    """(feature, threshold, n_left_in_feature_order) of the best split of
    the node whose (d, n) row order is ``orders``, or None when every
    candidate feature is constant on the node."""
    best = None
    best_score = np.inf
    for j in candidates:
        o = orders[j]
        xs = data[o, j]
        if xs[0] == xs[-1]:
            continue
        cum = np.cumsum(np.take(stats, o, axis=0), axis=0)
        valid = np.nonzero(xs[:-1] != xs[1:])[0]
        left = cum[valid]
        scores = score(left, cum[-1] - left)
        pos = int(np.argmin(scores))
        if scores[pos] < best_score:
            i = valid[pos]
            best_score = scores[pos]
            mid = (xs[i] + xs[i + 1]) / 2.0
            best = (j, xs[i] if mid == xs[i + 1] else mid, i + 1)
    return best
