"""Classical supervised baselines for the binary detection task.

All models are trained from scratch on numpy: CART-style decision
trees (Gini), bagged forests, Gaussian naive Bayes, a primal
hinge-loss linear SVM, AdaBoost over stumps, and gradient boosting
with depth-3 regression trees on logistic-loss gradients.

One engine grows every tree. Columns are presorted once into a (d, n)
row order; at each node a single split search sums a per-row
statistics block on both sides of every boundary (the weighted class
one-hot for Gini, y and y^2 for squared error), a score function turns
the sums and the row counts of both sides into the child cost, and a
leaf rule reads a node's value and purity from its rows of the block. The search scores all candidate
features of a node together, in blocks bounded by ``CELLS``. Split
tie-breaking is deterministic everywhere: lower feature index first,
then lower threshold; a candidate threshold is the midpoint of two
consecutive distinct sorted values, or the lower value when that
midpoint rounds to the upper one (scikit-learn's rule), so rows at the
upper value always go right. A forest's trees each draw from their own
``SeedSequence`` child and grow one after another in the calling
process.

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

# Working-memory budget, in float64 cells (2 MB), of one block of the split
# search here and of the neighbour search in ``resample``: a block never
# grows with the row count.
CELLS = 1 << 18


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


def _presort(data: np.ndarray) -> np.ndarray:
    """(d, n) row order: row j lists the rows by ascending column j, stable."""
    return np.ascontiguousarray(np.argsort(data, axis=0, kind="stable").T)


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
    return (wl * gini_l + wr * gini_r) / (wl + wr)


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


def _gini_leaf(stats: np.ndarray) -> tuple[int, bool]:
    """(weighted majority class, pure) of a node's Gini statistics rows."""
    totals = stats.sum(axis=0)
    return int(np.argmax(totals)), int((totals > 0).sum()) <= 1


def _sse_leaf(stats: np.ndarray) -> tuple[None, bool]:
    """(no value, pure) of a node's squared-error statistics rows."""
    t = stats[:, 0]
    return None, bool((t == t[0]).all())


def _best_split(data_t, stats_t, orders, candidates, score, cells: int = CELLS):
    """Best split of a node by ``score`` of the summed statistics on each
    side of every boundary.

    ``data_t`` is the (d, N) feature-major data, ``stats_t`` the (k, N)
    class-major statistics block, ``orders`` the node's (d, n) row order
    and ``candidates`` an ascending array of feature indices. Features go
    in blocks of ``cells // (k * n)`` (at least one): one gather and one
    cumsum per block, then only the boundaries between two distinct values
    are scored. Each feature's sums run over its rows in ascending value
    order, so the result does not depend on the block size. Row counts
    come from the boundary positions, exact as float64.

    Returns (feature, threshold, n_left_in_feature_order) or None. Ties
    resolve to the lower feature index, then the lower threshold (the
    first minimal boundary in (feature, ascending value) order).
    """
    k, n_all = stats_t.shape
    n = orders.shape[1]
    step = max(1, cells // (k * n))
    best = None
    best_score = np.inf
    for start in range(0, len(candidates), step):
        feats = candidates[start : start + step]
        rows = orders[feats]
        xs = np.take(data_t, rows + (feats * n_all)[:, None])
        # a boundary follows flat position p of the (f, n) block when the
        # value changes there; the last column never starts one
        changes = np.zeros(rows.shape, dtype=bool)
        np.not_equal(xs[:, :-1], xs[:, 1:], out=changes[:, :-1])
        at = np.flatnonzero(changes)
        if at.size == 0:
            continue
        cum = np.cumsum(np.take(stats_t, rows, axis=1), axis=2).reshape(k, -1)
        left = np.take(cum, at, axis=1)
        totals = np.take(cum, at - at % n + (n - 1), axis=1)
        n_left = (at % n + 1).astype(np.float64)
        scores = score(left, totals - left, n_left, n - n_left)
        pos = int(np.argmin(scores))
        if scores[pos] < best_score:
            f, i = divmod(int(at[pos]), n)
            best_score = scores[pos]
            lo, hi = xs[f, i], xs[f, i + 1]
            # the midpoint of adjacent doubles can round up to hi, which
            # would send hi's rows left; lo keeps them right
            mid = (lo + hi) / 2.0
            best = (int(feats[f]), lo if mid == hi else mid, i + 1)
    return best


class _TreeGrower:
    """The one grower over a per-row ``stats`` block, to ``max_depth``;
    ``score`` rates the boundaries and ``leaf`` gives a node's (value, pure)."""

    def __init__(self, data_t, max_depth, stats, score, leaf, max_features=None, rng=None):
        self.data_t = data_t
        self.max_depth = max_depth
        self.stats = stats
        self.stats_t = np.ascontiguousarray(stats.T)
        self.score = score
        self.leaf = leaf
        self.max_features = max_features
        self.rng = rng
        self.features = np.arange(data_t.shape[0])
        self.n_leaves = 0

    def grow(self, orders: np.ndarray) -> _Node:
        """Tree over the (d, n) row order ``orders``, grown depth first:
        nodes are visited in preorder, which fixes the order of candidate
        draws and leaf ids. Only the pending right siblings' row orders stay
        alive, not every ancestor's."""
        root = _Node()
        pending = [(root, orders, 0)]
        del orders
        while pending:
            node, orders, depth = pending.pop()
            value, pure = self.leaf(np.take(self.stats, orders[0], axis=0))
            d, n_rows = orders.shape
            split = None
            if depth < self.max_depth and not pure:
                if self.max_features is not None and self.max_features < d:
                    candidates = np.sort(self.rng.choice(d, size=self.max_features,
                                                         replace=False))
                else:
                    candidates = self.features
                split = _best_split(self.data_t, self.stats_t, orders, candidates, self.score)
            if split is None:
                node.value, node.leaf_id = value, self.n_leaves
                self.n_leaves += 1
                continue
            node.feature, node.threshold, n_left = split
            # children at the depth limit are leaves, which read only the
            # first feature's order
            kept = orders if depth + 1 < self.max_depth else orders[:1]
            left, right = _partition(kept, orders[node.feature, :n_left], self.data_t.shape[1])
            node.left, node.right = _Node(), _Node()
            pending.append((node.right, right, depth + 1))
            pending.append((node.left, left, depth + 1))
        return root


def _partition(orders: np.ndarray, left_rows: np.ndarray, n_all: int):
    """(left, right) row orders of a split: each row of ``orders`` keeps its
    order on both sides. Positions from ``flatnonzero`` gather faster than
    a boolean mask selects."""
    in_left = np.zeros(n_all, dtype=bool)
    in_left[left_rows] = True
    go_left = in_left[orders]
    flat = orders.ravel()
    d = orders.shape[0]
    return (flat[np.flatnonzero(go_left)].reshape(d, len(left_rows)),
            flat[np.flatnonzero(~go_left)].reshape(d, -1))


def _route_leaves(root: _Node, data: np.ndarray) -> list[tuple[_Node, np.ndarray]]:
    out = []
    stack = [(root, np.arange(data.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out.append((node, rows))
            continue
        go_left = data[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[go_left]))
        stack.append((node.right, rows[~go_left]))
    return out


@dataclass
class DecisionTree:
    root: _Node

    def predict(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        out = np.empty(data.shape[0], dtype=np.intp)
        for node, rows in _route_leaves(self.root, data):
            out[rows] = node.value
        return out

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Leaf id per row."""
        out = np.empty(data.shape[0], dtype=np.int64)
        for node, rows in _route_leaves(self.root, np.asarray(data, dtype=np.float64)):
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
    stats = _class_stats(class_ids, np.ones(len(class_ids)), k)
    grower = _TreeGrower(np.ascontiguousarray(data.T), cfg.max_depth, stats,
                         _gini_scores, _gini_leaf)
    return DecisionTree(root=grower.grow(_presort(data)))


# --- random forest --------------------------------------------------------

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
        data = np.asarray(data, dtype=np.float64)
        votes = np.zeros((data.shape[0], self.n_classes), dtype=np.int64)
        for tree in self.trees:
            for node, rows in _route_leaves(tree.root, data):
                votes[rows, node.value] += 1
        return np.argmax(votes, axis=1)  # ties -> lower class id


def fit_forest(data: np.ndarray, labels, cfg: ForestConfig = ForestConfig()) -> RandomForest:
    """Bagged Gini trees with ``max_features`` candidates per node.

    Tree i draws its bootstrap and candidates from the i-th child of
    ``SeedSequence(cfg.seed)``; the trees grow one after another in the
    calling process.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.shape[0] < 1:
        raise ValueError("need at least one row")
    n, d = data.shape
    class_ids, k = _class_ids(labels)
    max_features = min(cfg.max_features if cfg.max_features is not None
                       else int(round(np.sqrt(d))), d)
    data_t, presorted = np.ascontiguousarray(data.T), _presort(data)
    trees = []
    for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees):
        rng = np.random.default_rng(seed)
        if cfg.bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            drawn = np.flatnonzero((weights > 0)[presorted])
            orders = presorted.ravel()[drawn].reshape(d, -1)
        else:
            weights, orders = np.ones(n), presorted
        grower = _TreeGrower(data_t, DecisionTreeConfig().max_depth,
                             _class_stats(class_ids, weights, k),
                             _gini_scores, _gini_leaf, max_features, rng)
        trees.append(DecisionTree(root=grower.grow(orders)))
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
        data = np.asarray(data, dtype=np.float64)
        score = np.zeros(data.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            score += alpha * _stump_votes(stump, data)
        return score

    def predict(self, data: np.ndarray) -> np.ndarray:
        return (self.decision(data) > 0).astype(np.intp)


def _stump_votes(stump: DecisionTree, data: np.ndarray) -> np.ndarray:
    """+1 on rows whose leaf holds id 1, -1 elsewhere."""
    votes = np.empty(data.shape[0])
    for node, rows in _route_leaves(stump.root, data):
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
    orders = _presort(data)
    data_t = np.ascontiguousarray(data.T)

    def fit_stump(weights):
        grower = _TreeGrower(data_t, 1, _class_stats(class_ids, weights, 2),
                             _gini_scores, _gini_leaf)
        return DecisionTree(root=grower.grow(orders))

    weights = np.full(n, 1.0 / n)
    stumps: list[DecisionTree] = []
    alphas: list[float] = []
    for _ in range(cfg.n_rounds):
        stump = fit_stump(weights)
        pred = _stump_votes(stump, data)
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
        data = np.asarray(data, dtype=np.float64)
        score = np.full(data.shape[0], self.f0)
        for tree, leaf_values in self.trees:
            score += GB_LEARNING_RATE * leaf_values[tree.apply(data)]
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
    orders = _presort(data)
    data_t = np.ascontiguousarray(data.T)
    trees: list[tuple[DecisionTree, np.ndarray]] = []
    for _ in range(cfg.n_rounds):
        prob = _sigmoid(scores)
        residual = y - prob
        stats = np.column_stack((residual, residual * residual))
        grower = _TreeGrower(data_t, GB_MAX_DEPTH, stats, _sse_scores, _sse_leaf)
        tree = DecisionTree(root=grower.grow(orders))
        leaf_of_row = tree.apply(data)
        n_leaves = grower.n_leaves
        num = np.bincount(leaf_of_row, weights=residual, minlength=n_leaves)
        den = np.bincount(leaf_of_row, weights=prob * (1.0 - prob), minlength=n_leaves)
        leaf_values = num / np.maximum(den, 1e-12)
        trees.append((tree, leaf_values))
        scores = scores + GB_LEARNING_RATE * leaf_values[leaf_of_row]
    return GradientBoost(f0=f0, trees=trees)
