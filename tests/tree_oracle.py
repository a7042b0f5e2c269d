"""Reference oracle for the tree grower of ``nidkit.baselines``: one tree at
a time, depth first, partitioning the row order of every feature at each
split.

A node holds a (d, n) row order, row j listing its rows by ascending
feature j. It reads its class totals over the order of feature 0, searches
its candidate features with ``split_oracle.best_split`` and hands each
child the stable partition of all d orders. A forest tree draws its
bootstrap, then each node's candidates in preorder, from the tree's own
``SeedSequence`` child, and leaves are numbered in preorder.
"""

from __future__ import annotations

import numpy as np

from nidkit.baselines import _Node

from . import split_oracle


def partition(orders: np.ndarray, left_rows: np.ndarray, n_all: int):
    """(left, right) row orders of a split: each row of ``orders`` keeps its
    order on both sides."""
    in_left = np.zeros(n_all, dtype=bool)
    in_left[left_rows] = True
    go_left = in_left[orders]
    flat = orders.ravel()
    d = orders.shape[0]
    return (flat[np.flatnonzero(go_left)].reshape(d, len(left_rows)),
            flat[np.flatnonzero(~go_left)].reshape(d, -1))


def grow(data, stats, orders, max_depth, max_features=None, rng=None):
    """Gini tree over the (d, n) row order ``orders`` of ``data``; ``stats``
    holds each row's weight in its class column. With ``max_features``
    below d each node searches that many features drawn from ``rng``."""
    d = data.shape[1]
    root = _Node()
    n_leaves = 0
    pending = [(root, orders, 0)]
    while pending:
        node, orders, depth = pending.pop()
        totals = stats[orders[0]].sum(axis=0)
        split = None
        if depth < max_depth and (totals > 0).sum() > 1:
            if max_features is not None and max_features < d:
                candidates = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                candidates = np.arange(d)
            split = split_oracle.best_split(data, stats, orders, candidates,
                                            split_oracle.gini_scores)
        if split is None:
            node.value, node.leaf_id = int(np.argmax(totals)), n_leaves
            n_leaves += 1
            continue
        feature, threshold, n_left = split
        node.feature, node.threshold = int(feature), threshold
        left, right = partition(orders, orders[feature, :n_left], data.shape[0])
        node.left, node.right = _Node(), _Node()
        pending.append((node.right, right, depth + 1))
        pending.append((node.left, left, depth + 1))
    return root


def fit_forest(data, class_ids, n_classes, n_trees, bootstrap, max_features, seed,
               max_depth=12):
    """Roots of the bagged trees ``nidkit.baselines.fit_forest`` grows."""
    n, d = data.shape
    presorted = np.ascontiguousarray(np.argsort(data, axis=0, kind="stable").T)
    roots = []
    for child in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(child)
        if bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            drawn = np.flatnonzero((weights > 0)[presorted])
            orders = presorted.ravel()[drawn].reshape(d, -1)
        else:
            weights, orders = np.ones(n), presorted
        stats = np.zeros((n, n_classes))
        stats[np.arange(n), class_ids] = weights
        roots.append(grow(data, stats, orders, max_depth, max_features, rng))
    return roots
