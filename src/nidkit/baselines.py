"""Classical supervised baselines for the binary detection task.

All models are trained from scratch on numpy: CART-style decision
trees (Gini), bagged forests, Gaussian naive Bayes, a primal
hinge-loss linear SVM, AdaBoost over stumps, and gradient boosting
with depth-3 regression trees on logistic-loss gradients.

One grower makes every tree. Columns are presorted once into a (d, n)
row order. A node holds, as column ids of a per-row statistics block
(the weighted class one-hot for Gini, y and y^2 for squared error), its
row set, which is its order by feature 0, and the orders of the
features its parent searched. A child gets a candidate's order by
partitioning its parent's when the parent held it, and otherwise by
sorting its rows on their presort rank, the (value, row index) key,
which gives the same order. Trees that search every feature (the
decision tree and the boosting trees) so hold every order from the root
and partition them all; a forest node, at any group size, holds its row
set and the few orders its parent searched, and moves only those.

The grower advances a group of trees in lockstep. Each step takes the
next depth-first node of every tree, runs one leaf test over them all,
draws each tree's candidates from its own generator in its own
preorder, and runs one split search over every (node, candidate) row:
one gather and one cumsum per chunk of rows bounded by ``CELLS`` sum the
statistics on both sides of every boundary, and a score function turns
the sums and row counts into the child cost. ``fit_tree``, AdaBoost and
gradient boosting grow one-tree groups; a forest groups as many trees
as keep their state within ``GROUP_CELLS``, so its groups shrink as the
rows grow (one tree each at NSL-KDD scale), and no tree depends on the
grouping. With integer weights (the decision tree and the forest) a
child whose split sums show one class only, or that sits at the depth
limit, is a leaf at once. Split
tie-breaking is deterministic everywhere: lower feature index first,
then lower threshold; a candidate threshold is the midpoint of two
consecutive distinct sorted values, or the lower value when that
midpoint rounds to the upper one (scikit-learn's rule), so rows at the
upper value always go right. A forest's trees each draw from their own
``SeedSequence`` child and grow in the calling process.

Labels are class ids 0..k-1 (``nidkit baselines`` passes binary ids) and
every model predicts ids. The SVM, AdaBoost and gradient boosting take
binary ids only, with id 1 the positive class.

The linear SVM doubles as the borderline detector for SVM-SMOTE via
its ``margin_violators`` (training rows with positive hinge loss at
the final iterate). The MLP baseline is the stage-2 network, trained
through ``classifier.train_network``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Working-memory budget, in float64 cells (2 MB), of one chunk of the split
# search here and of the neighbour search in ``resample``: a chunk never
# grows with the row count.
CELLS = 1 << 18
# Budget, in cells (32 MB), of the lockstep state of one group of forest
# trees; see ``_tree_cells``.
GROUP_CELLS = 1 << 22


def _class_ids(labels) -> tuple[np.ndarray, int]:
    """(``labels`` as an intp array, class count k): ids are integers in
    0..k-1, and the largest one sets k (``bincount`` rejects any other)."""
    k = len(np.bincount(labels))
    return np.asarray(labels, dtype=np.intp), k


def _binary_ids(labels) -> np.ndarray:
    """``labels`` as an intp array of binary ids; ValueError unless ids 0
    and 1 both occur and nothing else does."""
    labels = np.asarray(labels)
    positive = labels == 1
    if not ((positive | (labels == 0)).all() and 0 < positive.sum() < labels.size):
        raise ValueError("labels must be the binary ids 0 and 1, both present")
    return positive.astype(np.intp)


# --- decision trees -------------------------------------------------------

@dataclass(frozen=True)
class DecisionTreeConfig:
    max_depth: int = 12

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value", "leaf_id")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, value=None, leaf_id=-1):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.leaf_id = leaf_id

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _presort(data_t: np.ndarray) -> np.ndarray:
    """(d, n) row order of the feature-major (d, n) data: row j lists the
    rows by ascending feature j, stable."""
    return np.argsort(data_t, axis=1, kind="stable")


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges [starts[i], starts[i] + lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    out = np.repeat(starts - ends + lengths, lengths)
    out += np.arange(len(out))
    return out


def _gini_scores(left, right, n_left, n_right) -> np.ndarray:
    """Weighted child Gini per boundary; ``left`` and ``right`` are (k, m)
    per-class weight sums, which weigh the sides in place of the row
    counts. Classes are added in class order, which is also the order in
    which numpy sums a row of fewer than eight values."""
    wl = left.sum(axis=0)
    wr = right.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        gini_l = 1.0 - ((left / wl) ** 2).sum(axis=0)
        gini_r = 1.0 - ((right / wr) ** 2).sum(axis=0)
        gini_l = np.where(wl > 0, gini_l, 0.0)
        gini_r = np.where(wr > 0, gini_r, 0.0)
        return (wl * gini_l + wr * gini_r) / (wl + wr)  # NaN where no side has weight


def _sse_scores(left, right, n_left, n_right) -> np.ndarray:
    """Summed child squared error per boundary; rows are sums of y and y^2."""
    sse_l = left[1] - left[0] ** 2 / n_left
    sse_r = right[1] - right[0] ** 2 / n_right
    return sse_l + sse_r


def _class_stats(class_ids: np.ndarray, weights: np.ndarray, n_classes: int) -> np.ndarray:
    """Gini statistics block: each row's weight in its class column."""
    stats = np.zeros((len(class_ids), n_classes))
    stats[np.arange(len(class_ids)), class_ids] = weights
    return stats


def _class_leaf(totals: np.ndarray):
    """(weighted majority class, pure) of nodes with (k, s) class weight
    totals: pure when at most one class has weight."""
    return np.argmax(totals, axis=0), (totals > 0).sum(axis=0) <= 1


def _gini_leaf(block: np.ndarray, sizes: list[int]):
    """``_class_leaf`` of each node; ``block`` is the (k, m) Gini statistics
    of the nodes' rows, node after node, ``sizes`` their row counts.
    ``bincount`` adds each node's rows in order, as a row sum would."""
    node = np.repeat(np.arange(len(sizes)), sizes)
    return _class_leaf(np.array([np.bincount(node, weights=w, minlength=len(sizes))
                                 for w in block]))


def _sse_leaf(block: np.ndarray, sizes: list[int]):
    """(no value, pure) of each node's squared-error statistics rows: pure
    when every target is equal."""
    starts = np.cumsum([0, *sizes[:-1]])
    return None, np.minimum.reduceat(block[0], starts) == np.maximum.reduceat(block[0], starts)


def _first_minima(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of the first minimum of ``values`` in each run of equal
    ``groups``; a run holding a NaN gives none."""
    run = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
    low = np.repeat(np.minimum.reduceat(values, run), np.diff(np.append(run, len(values))))
    hit = np.flatnonzero(values == low)
    return hit[np.concatenate(([True], groups[hit][1:] != groups[hit][:-1]))]


def _best_splits(data_t, stats_t, src, starts, shifts, lengths, score, cells: int = CELLS):
    """Best split of each of s nodes by ``score`` of the summed statistics
    on each side of every boundary.

    ``stats_t`` is the (k, N) class-major statistics block and ``src`` a
    flat array of its column ids. Node i offers c candidates, row j of the
    (s, c) ``starts`` and ``shifts`` in ascending feature order: the node's
    rows in that feature's order are ``src[starts[i, j]:][:lengths[i]]``,
    and column p's value of the feature is ``data_t.flat[p + shifts[i, j]]``.
    ``src`` holds ``max(lengths)`` column ids past every start.

    The candidate rows go in node order, in chunks of at most ``cells // k``
    cells (at least one row): one gather and one cumsum per chunk, then
    only the boundaries between two distinct values are scored. A chunk of
    rows of one length sums each row on its own. A chunk of rows of several
    lengths, which only a search over several nodes makes, sums them as one
    run and subtracts each row's sum before it; that is exact only for
    integer-valued statistics, such as a forest's bootstrap counts. Either
    way each sum runs over its row's entries in ascending value order, so
    the result does not depend on the chunks. Row counts come from the
    boundary positions, exact as float64.

    Returns (node, row, threshold, n_left, left, right) over the nodes that
    have a boundary: ``row`` is the flat index i * c + j of the winning
    candidate, and ``left`` and ``right`` are the (k, nodes) statistics
    summed on each side of the winning boundary.
    Ties resolve to the lower feature index, then the lower threshold (the
    first minimal boundary in (feature, ascending value) order).
    """
    k = stats_t.shape[0]
    c = starts.shape[1]
    starts, shifts = starts.ravel(), shifts.ravel()
    n = np.repeat(lengths, c)
    ends = np.cumsum(n)
    data_flat = data_t.ravel()
    found = []
    a = 0
    while a < len(n):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - n[a] + cells // k, side="right")))
        first, w = starts[a:b], n[a:b]
        width = int(w[0])
        # a boundary follows flat position p of the chunk when the value
        # changes there; a row's last entry never starts one
        if (w == width).all():
            # rows of one length: a (rows, width) block, each row summed on its own
            cols = np.ndarray((len(src) - width + 1, width), src.dtype, src, 0,
                              src.strides * 2)[first]
            xs = np.take(data_flat, cols + shifts[a:b, None])
            changes = np.empty(cols.shape, dtype=bool)
            np.not_equal(xs[:, :-1], xs[:, 1:], out=changes[:, :-1])
            changes[:, -1] = False
            at = np.flatnonzero(changes)
            if at.size:
                cum = np.cumsum(np.take(stats_t, cols, axis=1), axis=2).reshape(k, -1)
                r = at // width
                i = at - r * width
                left = np.take(cum, at, axis=1)
                right = np.take(cum, at - i + (width - 1), axis=1) - left
                n_row = width
        else:
            # rows of several lengths: one run, each row's sums less the sum
            # before the row
            cols = src[_ranges(first, w)]
            row_of = np.repeat(np.arange(b - a), w)
            xs = np.take(data_flat, cols + shifts[a:b][row_of])
            last = np.cumsum(w) - 1
            changes = np.empty(len(cols), dtype=bool)
            np.not_equal(xs[:-1], xs[1:], out=changes[:-1])
            changes[last] = False
            at = np.flatnonzero(changes)
            if at.size:
                cum = np.zeros((k, len(cols) + 1))
                np.cumsum(np.take(stats_t, cols, axis=1), axis=1, out=cum[:, 1:])
                r = row_of[at]
                i = at - (last[r] + 1 - w[r])
                base = np.take(cum, at - i, axis=1)
                left = np.take(cum, at + 1, axis=1) - base
                right = np.take(cum, last[r] + 1, axis=1) - base - left
                n_row = w[r]
        if not at.size:
            a = b
            continue
        n_left = (i + 1).astype(np.float64)
        scores = score(left, right, n_left, n_row - n_left)
        best = (np.argmin(scores, keepdims=True) if len(lengths) == 1 else
                _first_minima((a + r) // c, scores))
        best = best[scores[best] < np.inf]  # a NaN splits nothing
        at = at[best]
        xs = xs.ravel()
        found.append((a + r[best], i[best], scores[best], xs[at], xs[at + 1],
                      left[:, best], right[:, best]))
        a = b
    if not found:
        return (np.zeros(0, dtype=np.intp),) * 4 + (np.zeros((k, 0)),) * 2
    q, i, scores, lo, hi, left, right = (found[0] if len(found) == 1 else
                                         (np.concatenate(p, axis=-1) for p in zip(*found)))
    if len(found) > 1:
        # a node split over chunks keeps its first best, chunk by chunk
        best = _first_minima(q // c, scores)
        q, i, lo, hi = q[best], i[best], lo[best], hi[best]
        left, right = left[:, best], right[:, best]
    # the midpoint of adjacent doubles can round up to hi, which would send
    # hi's rows left; lo keeps them right
    mid = (lo + hi) / 2.0
    return q // c, q, np.where(mid == hi, lo, mid), i + 1, left, right


class _TreeGrower:
    """The one grower: trees over one presorted data set, grown to
    ``max_depth`` in lockstep. ``score`` rates the boundaries and ``leaf``
    gives each node's (value, pure); with ``max_features`` below d each node
    searches that many features drawn from its tree's generator. ``known``,
    given only for integer-valued statistics, whose sums are exact in any
    order, gives a child's (value, pure) from the statistics its parent's
    split sums on its side: such a child takes no leaf test, and one it
    reports pure, or one at the depth limit, is a leaf at once, with no
    orders or step.

    A node holds the orders of feature 0 (its row set) and of the features
    its parent searched, as column ids of the statistics block. A child
    gets the order of a candidate its parent held by the parent's
    partition, and any other by sorting its rows on their presort rank,
    the (value, row index) key, which gives the same order."""

    def __init__(self, data_t, max_depth, score, leaf, max_features=None, known=None):
        self.data_t = data_t
        self.presorted = _presort(data_t)
        self.max_depth = max_depth
        self.score = score
        self.leaf = leaf
        self.known = known
        d = len(data_t)
        self.features = np.arange(d)
        self.max_features = max_features if max_features is not None and max_features < d else d
        self.rank = None  # each row's place in each column's presort, made when first needed

    def grow(self, stats_t, roots, rngs=()):
        """Trees over the class-major statistics ``stats_t`` (k, g * n):
        tree t reads columns t * n onwards, starts from ``roots[t]``, its
        root's (features, column orders) with feature 0 first, and draws its
        candidates from ``rngs[t]``. Several trees need integer-valued
        statistics (see ``_best_splits``). Each step takes the next node of
        every tree in depth-first preorder, which fixes each tree's candidate draws
        and leaf ids; a leaf known at its parent's split takes its id on the
        way. Returns each tree's (root, leaf count)."""
        tops = [_Node() for _ in roots]
        n_leaves = [0] * len(roots)
        pending = [[(top, 0, feats, orders)] for top, (feats, orders) in zip(tops, roots)]
        while any(pending):
            step = []
            for t, stack in enumerate(pending):
                while stack and stack[-1][3] is None:
                    stack.pop()[0].leaf_id = n_leaves[t]
                    n_leaves[t] += 1
                if stack:
                    step.append((t, *stack.pop()))
            if step:
                for t, left, right in self._step(stats_t, step, rngs, n_leaves):
                    pending[t] += (right, left)
        return list(zip(tops, n_leaves))

    def _step(self, stats_t, step, rngs, n_leaves):
        """Leaf test and split search over the nodes ``step`` (tree, node,
        depth, features, orders), one per tree: splits each node that has a
        boundary, numbers the others as their trees' next leaves, and returns
        the children's (tree, left, right) pending entries. A child that
        ``known`` rated at its parent's split already has its value and is
        not pure, so only the other nodes take the leaf test."""
        test = [e for e in step if self.known is None or e[1].value is None]
        pure = set()
        if test:
            rows = [orders[0] for *_, orders in test]
            values, is_pure = self.leaf(
                np.take(stats_t, rows[0] if len(rows) == 1 else np.concatenate(rows), axis=1),
                [len(r) for r in rows])
            for (_, node, *_), value, p in zip(test, [None] * len(test) if values is None
                                               else values.tolist(), is_pure.tolist()):
                node.value = value
                if p:
                    pure.add(node)
        search = [e for e in step if e[2] < self.max_depth and e[1] not in pure]
        out = self._split(stats_t, search, rngs) if search else []
        for t, node, *_ in step:
            if node.is_leaf:
                node.leaf_id = n_leaves[t]
                n_leaves[t] += 1
        return out

    def _split(self, stats_t, search, rngs):
        """One split search over the nodes ``search`` (tree, node, depth,
        features, orders); splits each node that has a boundary and returns
        its (tree, left, right) pending entries."""
        d, n_all = self.presorted.shape
        c = self.max_features
        trees, sizes, held = np.array([(t, orders.shape[1], len(feats))
                                       for t, _, _, feats, orders in search]).T
        if c == d:
            cands = np.repeat(self.features[None], len(search), axis=0)
        else:
            cands = np.sort([rngs[t].choice(d, size=c, replace=False) for t, *_ in search],
                            axis=1)
        offsets = np.cumsum(held * sizes) - held * sizes
        n_held = int(offsets[-1] + held[-1] * sizes[-1])
        # every node holds every order, in feature order
        whole = all(len(feats) == d for *_, feats, _ in search)
        if whole:
            slot, node_of = cands, []
        else:
            table = np.full((len(search), d), -1)
            table[np.repeat(np.arange(len(search)), held),
                  np.concatenate([feats for *_, feats, _ in search])] = (
                np.arange(held.sum()) - np.repeat(np.cumsum(held) - held, held))
            slot = table[np.arange(len(search))[:, None], cands]
            node_of = np.nonzero(slot < 0)[0]
        starts = offsets[:, None] + slot * sizes[:, None]
        shifts = (cands - trees[:, None]) * n_all
        if len(search) == 1 and not len(node_of):
            src = search[0][4].ravel()
        else:
            # held orders, then the missing candidates' orders, then a tail
            # that lets a search block read its longest row's length past
            # every start
            lens = sizes[node_of]
            src = np.empty(n_held + lens.sum() + sizes.max(), dtype=np.intp)
            np.concatenate([orders.ravel() for *_, orders in search], out=src[:n_held])
            src[n_held + lens.sum() :] = 0
        if len(node_of):
            if self.rank is None:
                self.rank = np.empty(d * n_all, dtype=np.int32 if n_all <= 2**31 else np.int64)
                self.rank[(self.presorted + (self.features * n_all)[:, None]).ravel()] = (
                    np.tile(np.arange(n_all), d))
            # a missing candidate's order: its node's row set sorted by presort
            # rank, for every node of the step in one sort of (segment, rank)
            # keys, in 32 bits where they fit
            missing = slot < 0
            dest = src[n_held : n_held + lens.sum()]
            np.take(src, _ranges(offsets[node_of], lens), out=dest)
            dest += np.repeat(shifts[missing], lens)
            offset = np.arange(len(node_of)) * n_all
            key = np.take(self.rank, dest, mode="clip").astype(
                np.int32 if offset[-1] + n_all <= 2**31 else np.int64, copy=False)
            key += np.repeat(offset.astype(key.dtype), lens)
            key.sort()
            np.take(self.presorted.ravel(), key + np.repeat(cands[missing] * n_all - offset, lens),
                    out=dest, mode="clip")
            dest += np.repeat(trees[node_of] * n_all, lens)
            starts[missing] = n_held + np.cumsum(lens) - lens
        won, row, threshold, n_left, sums_l, sums_r = _best_splits(
            self.data_t, stats_t, src, starts, shifts, sizes, self.score)
        if not len(won):
            return []
        if self.known is None:
            values, done = [None] * (2 * len(won)), np.zeros(2 * len(won), dtype=bool)
        else:
            values, pure = self.known(np.concatenate((sums_l, sums_r), axis=1))
            values = values.tolist()
            at_limit = np.array([search[s][2] + 1 == self.max_depth for s in won.tolist()])
            done = pure | np.concatenate((at_limit, at_limit))
        # a node both of whose children are known leaves moves no orders
        moved = ~(done[: len(won)] & done[len(won) :])
        split_at = starts.ravel()[row[moved]]
        in_left = np.zeros(stats_t.shape[1], dtype=bool)
        if len(split_at) == 1:
            in_left[src[split_at[0] : split_at[0] + n_left[moved][0]]] = True
        elif len(split_at):
            in_left[src[_ranges(split_at, n_left[moved])]] = True
        # children hold feature 0 and the node's candidates, feature 0 once;
        # at the depth limit only feature 0, which the leaf test reads
        kept, at = [], []
        offsets, sizes = offsets.tolist(), sizes.tolist()
        for s in won[moved].tolist():
            if search[s][2] + 1 == self.max_depth:
                kept.append(self.features[:1])
                at.append(offsets[s])
            else:
                rest = int(cands[s, 0] == 0)  # candidates are sorted: 0 comes first
                kept.append(np.concatenate((self.features[:1], cands[s, rest:])))
                at += [offsets[s], *starts[s, rest:].tolist()]
        m = [len(f) for f in kept]
        n = [sizes[s] for s in won[moved].tolist()]
        if not kept:
            flat = src[:0]
        elif len(search) == 1 and at == list(range(at[0], at[0] + m[0] * n[0], n[0])):
            flat = src[at[0] : at[0] + m[0] * n[0]]  # the node's own orders: no copy
        else:
            flat = src[_ranges(np.array(at), np.repeat(n, m))]
        go_left = in_left[flat]
        left, right = flat[np.flatnonzero(go_left)], flat[np.flatnonzero(~go_left)]
        out = []
        lo = ro = p = 0
        for j, (s, q, thr, nl) in enumerate(zip(won.tolist(), row.tolist(), threshold.tolist(),
                                                n_left.tolist())):
            t, node, depth, *_ = search[s]
            node.feature, node.threshold, node.value = int(cands[s, q % c]), thr, None
            node.left, node.right = _Node(), _Node()
            entries = []
            for child, i, side, start, size in ((node.left, j, left, lo, nl),
                                                (node.right, j + len(won), right, ro,
                                                 sizes[s] - nl)):
                child.value = values[i]
                if done[i]:
                    entries.append((child, depth + 1, None, None))
                else:
                    entries.append((child, depth + 1, kept[p],
                                    side[start : start + m[p] * size].reshape(m[p], size)))
            if moved[j]:
                lo += m[p] * nl
                ro += m[p] * (sizes[s] - nl)
                p += 1
            out.append((t, *entries))
        return out


def _route_leaves(root: _Node, data_t: np.ndarray) -> list[tuple[_Node, np.ndarray]]:
    """(leaf, rows) pairs of the feature-major (d, n) data ``data_t``."""
    out = []
    stack = [(root, np.arange(data_t.shape[1]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out.append((node, rows))
            continue
        go_left = data_t[node.feature][rows] <= node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


def _feature_major(data: np.ndarray) -> np.ndarray:
    """(d, n) copy of ``data``, which many trees route: each node then
    gathers from one contiguous feature row."""
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64).T)


@dataclass
class DecisionTree:
    root: _Node

    def predict(self, data: np.ndarray) -> np.ndarray:
        # one tree routes a transposed view: a copy would cost more than it saves
        data_t = np.asarray(data, dtype=np.float64).T
        out = np.empty(data_t.shape[1], dtype=np.intp)
        for node, rows in _route_leaves(self.root, data_t):
            out[rows] = node.value
        return out


def _apply(root: _Node, data_t: np.ndarray) -> np.ndarray:
    """Leaf id per column of the feature-major data ``data_t``."""
    out = np.empty(data_t.shape[1], dtype=np.int64)
    for node, rows in _route_leaves(root, data_t):
        out[rows] = node.leaf_id
    return out


def fit_tree(
    data: np.ndarray, labels, cfg: DecisionTreeConfig = DecisionTreeConfig()
) -> DecisionTree:
    """Greedy Gini tree; leaves store the majority class id."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] < 1:
        raise ValueError("need at least one row")
    class_ids, k = _class_ids(labels)
    grower = _TreeGrower(_feature_major(data), cfg.max_depth, _gini_scores, _gini_leaf,
                         known=_class_leaf)
    stats_t = np.ascontiguousarray(_class_stats(class_ids, np.ones(len(class_ids)), k).T)
    ((root, _),) = grower.grow(stats_t, [(grower.features, grower.presorted)])
    return DecisionTree(root=root)


# --- random forest --------------------------------------------------------



def _tree_cells(n_rows: int, n_classes: int, max_features: int) -> int:
    """Cells of one forest tree's lockstep state: its bootstrap weights and
    statistics block (``n_classes + 1`` per row), and per row at most
    ``max_features + 1`` held orders in its pending nodes, twice that in a
    step's search source (held and sorted orders), and as much again in each
    of the partition's gather and its two sides. The search's own working
    memory is bounded by ``CELLS``."""
    return n_rows * (n_classes + 1 + 5 * (max_features + 1))


def _group_size(n_rows: int, n_classes: int, max_features: int) -> int:
    """Trees grown together: as many as keep their lockstep state within
    ``GROUP_CELLS``, at least one."""
    return max(1, GROUP_CELLS // _tree_cells(n_rows, n_classes, max_features))


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    bootstrap: bool = True
    max_features: int | None = None  # None -> round(sqrt(n_features))
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be >= 1")


@dataclass
class RandomForest:
    trees: list[DecisionTree]
    n_classes: int

    def predict(self, data: np.ndarray) -> np.ndarray:
        data_t = _feature_major(data)
        votes = np.zeros((data_t.shape[1], self.n_classes), dtype=np.int64)
        for tree in self.trees:
            for node, rows in _route_leaves(tree.root, data_t):
                votes[rows, node.value] += 1
        return np.argmax(votes, axis=1)  # ties -> lower class id


def fit_forest(data: np.ndarray, labels, cfg: ForestConfig = ForestConfig()) -> RandomForest:
    """Bagged Gini trees with ``max_features`` candidates per node.

    Tree i draws its bootstrap and candidates from the i-th child of
    ``SeedSequence(cfg.seed)``. Consecutive trees grow in lockstep groups
    of ``_group_size`` trees in the calling process; the trees do not
    depend on the grouping.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] < 1:
        raise ValueError("need at least one row")
    n, d = data.shape
    class_ids, k = _class_ids(labels)
    max_features = min(cfg.max_features if cfg.max_features is not None
                       else int(round(np.sqrt(d))), d)
    grower = _TreeGrower(_feature_major(data), DecisionTreeConfig().max_depth, _gini_scores,
                         _gini_leaf, max_features, known=_class_leaf)
    presorted = grower.presorted
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    n_groups = -(-cfg.n_trees // _group_size(n, k, max_features))
    group = -(-cfg.n_trees // n_groups)  # as many trees in each
    trees = []
    for first in range(0, cfg.n_trees, group):
        part = rngs[first : first + group]
        weights = [np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
                   if cfg.bootstrap else np.ones(n) for rng in part]
        stats_t = np.ascontiguousarray(
            np.vstack([_class_stats(class_ids, w, k) for w in weights]).T)
        # at any group size a root holds only its drawn rows' feature-0 order,
        # and each node its row set and the orders its parent searched
        roots = [(grower.features[:1], (presorted[0][w[presorted[0]] > 0] + t * n)[None])
                 for t, w in enumerate(weights)]
        trees += [DecisionTree(root=root) for root, _ in grower.grow(stats_t, roots, part)]
    return RandomForest(trees=trees, n_classes=k)


# --- Gaussian naive Bayes ---------------------------------------------------

VARIANCE_FLOOR = 1e-9


@dataclass
class GaussianNB:
    priors: np.ndarray     # (k,)
    means: np.ndarray      # (k, d)
    variances: np.ndarray  # (k, d), floored

    def log_posteriors(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        out = np.empty((data.shape[0], len(self.priors)))
        for i in range(len(self.priors)):
            diff = data - self.means[i]
            out[:, i] = (
                np.log(self.priors[i])
                - 0.5 * np.log(2.0 * np.pi * self.variances[i]).sum()
                - 0.5 * (diff * diff / self.variances[i]).sum(axis=1)
            )
        return out

    def predict(self, data: np.ndarray) -> np.ndarray:
        return np.argmax(self.log_posteriors(data), axis=1)


def fit_gnb(data: np.ndarray, labels) -> GaussianNB:
    data = np.asarray(data, dtype=np.float64)
    class_ids, k = _class_ids(labels)
    d = data.shape[1]
    priors = np.empty(k)
    means = np.empty((k, d))
    variances = np.empty((k, d))
    for i in range(k):
        rows = data[class_ids == i]
        if rows.shape[0] < 1:
            raise ValueError(f"class id {i} has no rows")
        priors[i] = rows.shape[0] / data.shape[0]
        means[i] = rows.mean(axis=0)
        variances[i] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    return GaussianNB(priors=priors, means=means, variances=variances)


# --- linear SVM -------------------------------------------------------------

SVM_BATCH_SIZE = 64


@dataclass(frozen=True)
class LinearSvmConfig:
    lam: float = 1e-4
    epochs: int = 20
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class LinearSvm:
    w: np.ndarray
    b: float
    margin_violators: np.ndarray  # training indices with hinge loss > 0 at the end

    def decision(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=np.float64) @ self.w + self.b

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Binary ids; the boundary itself goes to id 0."""
        return (self.decision(data) > 0).astype(np.intp)


def fit_linear_svm(data: np.ndarray, labels, cfg: LinearSvmConfig = LinearSvmConfig()) -> LinearSvm:
    """Primal hinge loss + lam*||w||^2, minibatch subgradient, epoch-decayed step,
    on binary ids with id 1 on the positive side.

    Optimizes on mean-centered features (the bias dimension conditions
    badly otherwise); the shift is folded back into the stored intercept.
    """
    data = np.asarray(data, dtype=np.float64)
    y = np.where(_binary_ids(labels) == 1, 1.0, -1.0)
    n, d = data.shape
    center = data.mean(axis=0)
    centered = data - center
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    b = 0.0
    for epoch in range(cfg.epochs):
        eta = cfg.learning_rate / (1.0 + epoch)
        order = rng.permutation(n)
        for start in range(0, n, SVM_BATCH_SIZE):
            idx = order[start : start + SVM_BATCH_SIZE]
            xb, yb = centered[idx], y[idx]
            margin = 1.0 - yb * (xb @ w + b)
            viol = margin > 0
            grad_w = 2.0 * cfg.lam * w
            grad_b = 0.0
            if viol.any():
                grad_w = grad_w - (yb[viol, None] * xb[viol]).sum(axis=0) / len(idx)
                grad_b = -yb[viol].sum() / len(idx)
            w = w - eta * grad_w
            b = b - eta * grad_b
    b = b - float(w @ center)
    hinge = 1.0 - y * (data @ w + b)
    return LinearSvm(w=w, b=b, margin_violators=np.nonzero(hinge > 0)[0])


# --- AdaBoost ----------------------------------------------------------------

@dataclass(frozen=True)
class AdaBoostConfig:
    n_rounds: int = 100

    def __post_init__(self) -> None:
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")


@dataclass
class AdaBoost:
    stumps: list[DecisionTree]
    alphas: list[float]

    def decision(self, data: np.ndarray) -> np.ndarray:
        data_t = _feature_major(data)
        score = np.zeros(data_t.shape[1])
        for stump, alpha in zip(self.stumps, self.alphas):
            score += alpha * _stump_votes(stump, data_t)
        return score

    def predict(self, data: np.ndarray) -> np.ndarray:
        return (self.decision(data) > 0).astype(np.intp)


def _stump_votes(stump: DecisionTree, data_t: np.ndarray) -> np.ndarray:
    """+1 on columns of the feature-major ``data_t`` whose leaf holds id 1,
    -1 elsewhere."""
    votes = np.empty(data_t.shape[1])
    for node, rows in _route_leaves(stump.root, data_t):
        votes[rows] = 1.0 if node.value == 1 else -1.0
    return votes


def stump_weight(err: float) -> float:
    """SAMME weight for a binary weak learner: 0.5 * ln((1-err)/err)."""
    err = min(max(err, 1e-12), 1.0 - 1e-12)
    return 0.5 * np.log((1.0 - err) / err)


def fit_adaboost(data: np.ndarray, labels, cfg: AdaBoostConfig = AdaBoostConfig()) -> AdaBoost:
    data = np.asarray(data, dtype=np.float64)
    class_ids = _binary_ids(labels)
    y = np.where(class_ids == 1, 1.0, -1.0)
    n = data.shape[0]
    data_t = _feature_major(data)
    grower = _TreeGrower(data_t, 1, _gini_scores, _gini_leaf)

    def fit_stump(weights):
        stats_t = np.ascontiguousarray(_class_stats(class_ids, weights, 2).T)
        ((root, _),) = grower.grow(stats_t, [(grower.features, grower.presorted)])
        return DecisionTree(root=root)

    weights = np.full(n, 1.0 / n)
    stumps: list[DecisionTree] = []
    alphas: list[float] = []
    for _ in range(cfg.n_rounds):
        stump = fit_stump(weights)
        pred = _stump_votes(stump, data_t)
        err = float(weights[pred != y].sum())
        if err >= 0.5:
            break  # weak learner no better than chance; keep prior rounds
        alpha = stump_weight(err)
        stumps.append(stump)
        alphas.append(alpha)
        if err == 0.0:
            break
        weights = weights * np.exp(-alpha * y * pred)
        weights = weights / weights.sum()
    if not stumps:
        # degenerate data: fall back to the single best stump regardless of err
        stumps = [fit_stump(weights)]
        alphas = [0.0]
    return AdaBoost(stumps=stumps, alphas=alphas)


# --- gradient boosting --------------------------------------------------------

# Shrinkage of each round's tree and the depth of those trees.
GB_LEARNING_RATE = 0.1
GB_MAX_DEPTH = 3


@dataclass(frozen=True)
class GradientBoostConfig:
    n_rounds: int = 100

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class GradientBoost:
    f0: float
    trees: list[tuple[DecisionTree, np.ndarray]]  # (tree, per-leaf additive value)

    def decision(self, data: np.ndarray) -> np.ndarray:
        data_t = _feature_major(data)
        score = np.full(data_t.shape[1], self.f0)
        for tree, leaf_values in self.trees:
            score += GB_LEARNING_RATE * leaf_values[_apply(tree.root, data_t)]
        return score

    def predict(self, data: np.ndarray) -> np.ndarray:
        return (self.decision(data) > 0).astype(np.intp)  # id 1 where score > 0


def fit_gradient_boost(
    data: np.ndarray, labels, cfg: GradientBoostConfig = GradientBoostConfig()
) -> GradientBoost:
    """Additive regression trees on logistic-loss gradients, Newton leaf steps."""
    data = np.asarray(data, dtype=np.float64)
    y = _binary_ids(labels).astype(np.float64)
    p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    f0 = float(np.log(p0 / (1.0 - p0)))
    scores = np.full(data.shape[0], f0)
    data_t = _feature_major(data)
    grower = _TreeGrower(data_t, GB_MAX_DEPTH, _sse_scores, _sse_leaf)
    trees: list[tuple[DecisionTree, np.ndarray]] = []
    for _ in range(cfg.n_rounds):
        prob = _sigmoid(scores)
        residual = y - prob
        ((root, n_leaves),) = grower.grow(np.vstack((residual, residual * residual)),
                                          [(grower.features, grower.presorted)])
        tree = DecisionTree(root=root)
        leaf_of_row = _apply(root, data_t)
        num = np.bincount(leaf_of_row, weights=residual, minlength=n_leaves)
        den = np.bincount(leaf_of_row, weights=prob * (1.0 - prob), minlength=n_leaves)
        leaf_values = num / np.maximum(den, 1e-12)
        trees.append((tree, leaf_values))
        scores = scores + GB_LEARNING_RATE * leaf_values[leaf_of_row]
    return GradientBoost(f0=f0, trees=trees)
