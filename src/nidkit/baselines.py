"""Classical supervised baselines for the binary detection task.

All models are trained from scratch on numpy: CART-style decision
trees (Gini), bagged forests, Gaussian naive Bayes, a primal
hinge-loss linear SVM, AdaBoost over stumps, and gradient boosting
with depth-3 regression trees on logistic-loss gradients.

One engine grows every tree. Columns are presorted once into a (d, n)
row order; at each node a single split search sums a per-row
statistics block on both sides of every boundary (the weighted class
one-hot for Gini, y, y^2 and 1 for squared error), a score function
turns the sums into the child cost, and a leaf rule reads a node's value
and purity from its rows of the block. Split tie-breaking is
deterministic everywhere: lower feature index first, then lower
threshold; candidate thresholds are midpoints between consecutive
distinct sorted values.

The linear SVM doubles as the borderline detector for SVM-SMOTE via
its ``margin_violators`` (training rows with positive hinge loss at
the final iterate). The MLP baseline is the stage-2 network, trained
through ``classifier.train_network``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# --- decision trees -------------------------------------------------------

@dataclass(frozen=True)
class DecisionTreeConfig:
    max_depth: int = 12
    min_samples_split: int = 2

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")


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


def _gini_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Weighted child Gini per boundary; columns are per-class weight sums."""
    wl = left.sum(axis=1)
    wr = right.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        gini_l = 1.0 - ((left / wl[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
    gini_l = np.where(wl > 0, gini_l, 0.0)
    gini_r = np.where(wr > 0, gini_r, 0.0)
    return (wl * gini_l + wr * gini_r) / (wl + wr)


def _sse_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Summed child squared error per boundary; columns are sums of y, y^2, 1."""
    sse_l = left[:, 1] - left[:, 0] ** 2 / left[:, 2]
    sse_r = right[:, 1] - right[:, 0] ** 2 / right[:, 2]
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


def _best_split(data, stats, orders, candidates, score):
    """Best split over candidate features by ``score`` of the summed
    ``stats`` rows on each side of every boundary.

    Returns (feature, threshold, n_left_in_feature_order) or None. Ties
    resolve to the lower feature index, then the lower threshold (the
    first minimal boundary in ascending value order).
    """
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
            best = (j, (xs[i] + xs[i + 1]) / 2.0, i + 1)
    return best


class _TreeGrower:
    """The one recursive grower over a per-row ``stats`` block; ``score``
    rates the boundaries and ``leaf`` gives a node's (value, pure)."""

    def __init__(self, data, cfg, stats, score, leaf, max_features=None, rng=None):
        self.data = data
        self.cfg = cfg
        self.stats = stats
        self.score = score
        self.leaf = leaf
        self.max_features = max_features
        self.rng = rng
        self.n_leaves = 0

    def grow(self, orders: np.ndarray, depth: int = 0) -> _Node:
        value, pure = self.leaf(np.take(self.stats, orders[0], axis=0))
        d, n_rows = orders.shape
        split = None
        if depth < self.cfg.max_depth and n_rows >= self.cfg.min_samples_split and not pure:
            if self.max_features is not None and self.max_features < d:
                candidates = np.sort(self.rng.choice(d, size=self.max_features, replace=False))
            else:
                candidates = range(d)
            split = _best_split(self.data, self.stats, orders, candidates, self.score)
        if split is None:
            self.n_leaves += 1
            return _Node(value=value, leaf_id=self.n_leaves - 1)
        feature, threshold, n_left = split
        in_left = np.zeros(self.data.shape[0], dtype=bool)
        in_left[orders[feature, :n_left]] = True
        go_left = in_left[orders]
        node = _Node(feature=feature, threshold=threshold)
        node.left = self.grow(orders[go_left].reshape(d, n_left), depth + 1)
        node.right = self.grow(orders[~go_left].reshape(d, -1), depth + 1)
        return node


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
    classes: tuple

    def predict(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        out = np.empty(data.shape[0], dtype=object)
        for node, rows in _route_leaves(self.root, data):
            out[rows] = self.classes[node.value]
        return out

    def apply(self, data: np.ndarray) -> np.ndarray:
        """Leaf id per row."""
        out = np.empty(data.shape[0], dtype=np.int64)
        for node, rows in _route_leaves(self.root, np.asarray(data, dtype=np.float64)):
            out[rows] = node.leaf_id
        return out


def fit_tree(
    data: np.ndarray,
    labels,
    cfg: DecisionTreeConfig = DecisionTreeConfig(),
    sample_weight: np.ndarray | None = None,
) -> DecisionTree:
    """Greedy Gini tree; leaves store the (weighted) majority class."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    if data.shape[0] < 1:
        raise ValueError("need at least one row")
    classes, class_ids = np.unique(labels, return_inverse=True)
    weights = np.ones(len(labels)) if sample_weight is None else np.asarray(sample_weight, float)
    stats = _class_stats(class_ids, weights, len(classes))
    grower = _TreeGrower(data, cfg, stats, _gini_scores, _gini_leaf)
    return DecisionTree(root=grower.grow(_presort(data)), classes=tuple(classes))


# --- random forest --------------------------------------------------------

@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    bootstrap: bool = True
    max_features: int | None = None  # None -> round(sqrt(n_features))
    tree: DecisionTreeConfig = field(default_factory=DecisionTreeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass
class RandomForest:
    trees: list[DecisionTree]
    classes: tuple

    def predict(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        votes = np.zeros((data.shape[0], len(self.classes)), dtype=np.int64)
        for tree in self.trees:  # every tree indexes the forest's classes
            for node, rows in _route_leaves(tree.root, data):
                votes[rows, node.value] += 1
        winners = np.argmax(votes, axis=1)  # ties -> lower class index
        return np.array(self.classes, dtype=object)[winners]


def fit_forest(data: np.ndarray, labels, cfg: ForestConfig = ForestConfig()) -> RandomForest:
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    n, d = data.shape
    classes, class_ids = np.unique(labels, return_inverse=True)
    max_features = cfg.max_features if cfg.max_features is not None else int(round(np.sqrt(d)))
    max_features = min(max_features, d)
    base_orders = _presort(data)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    trees = []
    for rng in streams:
        if cfg.bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            orders = base_orders[(weights > 0)[base_orders]].reshape(d, -1)
        else:
            weights, orders = np.ones(n), base_orders
        grower = _TreeGrower(data, cfg.tree, _class_stats(class_ids, weights, len(classes)),
                             _gini_scores, _gini_leaf, max_features, rng)
        trees.append(DecisionTree(root=grower.grow(orders), classes=tuple(classes)))
    return RandomForest(trees=trees, classes=tuple(classes))


# --- Gaussian naive Bayes ---------------------------------------------------

VARIANCE_FLOOR = 1e-9


@dataclass
class GaussianNB:
    classes: tuple
    priors: np.ndarray     # (k,)
    means: np.ndarray      # (k, d)
    variances: np.ndarray  # (k, d), floored

    def log_posteriors(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        out = np.empty((data.shape[0], len(self.classes)))
        for i in range(len(self.classes)):
            diff = data - self.means[i]
            out[:, i] = (
                np.log(self.priors[i])
                - 0.5 * np.log(2.0 * np.pi * self.variances[i]).sum()
                - 0.5 * (diff * diff / self.variances[i]).sum(axis=1)
            )
        return out

    def predict(self, data: np.ndarray) -> np.ndarray:
        return np.array(self.classes, dtype=object)[np.argmax(self.log_posteriors(data), axis=1)]


def fit_gnb(data: np.ndarray, labels) -> GaussianNB:
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    classes = tuple(np.unique(labels))
    k, d = len(classes), data.shape[1]
    priors = np.empty(k)
    means = np.empty((k, d))
    variances = np.empty((k, d))
    for i, c in enumerate(classes):
        rows = data[labels == c]
        if rows.shape[0] < 1:
            raise ValueError(f"class {c!r} has no rows")
        priors[i] = rows.shape[0] / data.shape[0]
        means[i] = rows.mean(axis=0)
        variances[i] = np.maximum(rows.var(axis=0), VARIANCE_FLOOR)
    return GaussianNB(classes=classes, priors=priors, means=means, variances=variances)


# --- linear SVM -------------------------------------------------------------

@dataclass(frozen=True)
class LinearSvmConfig:
    lam: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass
class LinearSvm:
    w: np.ndarray
    b: float
    margin_violators: np.ndarray  # training indices with hinge loss > 0 at the end

    def decision(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=np.float64) @ self.w + self.b

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Signs in {-1, +1}; the boundary itself goes to -1."""
        return np.where(self.decision(data) > 0, 1, -1)


def fit_linear_svm(data: np.ndarray, labels, cfg: LinearSvmConfig = LinearSvmConfig()) -> LinearSvm:
    """Primal hinge loss + lam*||w||^2, minibatch subgradient, epoch-decayed step.

    Optimizes on mean-centered features (the bias dimension conditions
    badly otherwise); the shift is folded back into the stored intercept.
    """
    data = np.asarray(data, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be in {-1, +1}")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes must be present")
    n, d = data.shape
    center = data.mean(axis=0)
    centered = data - center
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    b = 0.0
    for epoch in range(cfg.epochs):
        eta = cfg.learning_rate / (1.0 + epoch)
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
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
    classes: tuple  # classes[0] -> -1, classes[1] -> +1

    def decision(self, data: np.ndarray) -> np.ndarray:
        score = np.zeros(np.asarray(data).shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            pred = stump.predict(data)
            score += alpha * np.where(pred == self.classes[1], 1.0, -1.0)
        return score

    def predict(self, data: np.ndarray) -> np.ndarray:
        return np.array(self.classes, dtype=object)[(self.decision(data) > 0).astype(np.intp)]


def stump_weight(err: float) -> float:
    """SAMME weight for a binary weak learner: 0.5 * ln((1-err)/err)."""
    err = min(max(err, 1e-12), 1.0 - 1e-12)
    return 0.5 * np.log((1.0 - err) / err)


def fit_adaboost(data: np.ndarray, labels, cfg: AdaBoostConfig = AdaBoostConfig()) -> AdaBoost:
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    classes, class_ids = np.unique(labels, return_inverse=True)
    if len(classes) != 2:
        raise ValueError("AdaBoost needs binary labels")
    y = np.where(class_ids == 1, 1.0, -1.0)
    n = data.shape[0]
    orders = _presort(data)
    stump_cfg = DecisionTreeConfig(max_depth=1, min_samples_split=2)

    def fit_stump(weights):
        grower = _TreeGrower(data, stump_cfg, _class_stats(class_ids, weights, 2),
                             _gini_scores, _gini_leaf)
        return DecisionTree(root=grower.grow(orders), classes=tuple(classes))

    weights = np.full(n, 1.0 / n)
    stumps: list[DecisionTree] = []
    alphas: list[float] = []
    for _ in range(cfg.n_rounds):
        stump = fit_stump(weights)
        pred = np.where(stump.predict(data) == classes[1], 1.0, -1.0)
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
    return AdaBoost(stumps=stumps, alphas=alphas, classes=tuple(classes))


# --- gradient boosting --------------------------------------------------------

@dataclass(frozen=True)
class GradientBoostConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3

    def __post_init__(self) -> None:
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


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
    learning_rate: float
    classes: tuple  # classes[0] -> score <= 0, classes[1] -> score > 0

    def decision(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        score = np.full(data.shape[0], self.f0)
        for tree, leaf_values in self.trees:
            score += self.learning_rate * leaf_values[tree.apply(data)]
        return score

    def predict(self, data: np.ndarray) -> np.ndarray:
        return np.array(self.classes, dtype=object)[(self.decision(data) > 0).astype(np.intp)]


def fit_gradient_boost(
    data: np.ndarray, labels, cfg: GradientBoostConfig = GradientBoostConfig()
) -> GradientBoost:
    """Additive regression trees on logistic-loss gradients, Newton leaf steps."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    classes, class_ids = np.unique(labels, return_inverse=True)
    if len(classes) != 2:
        raise ValueError("gradient boosting needs binary labels")
    y = class_ids.astype(np.float64)  # classes[1] -> 1
    p0 = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
    f0 = float(np.log(p0 / (1.0 - p0)))
    scores = np.full(data.shape[0], f0)
    orders = _presort(data)
    tree_cfg = DecisionTreeConfig(max_depth=cfg.max_depth, min_samples_split=2)
    trees: list[tuple[DecisionTree, np.ndarray]] = []
    for _ in range(cfg.n_rounds):
        prob = _sigmoid(scores)
        residual = y - prob
        stats = np.column_stack((residual, residual * residual, np.ones_like(residual)))
        grower = _TreeGrower(data, tree_cfg, stats, _sse_scores, _sse_leaf)
        tree = DecisionTree(root=grower.grow(orders), classes=tuple(classes))
        leaf_of_row = tree.apply(data)
        n_leaves = grower.n_leaves
        num = np.bincount(leaf_of_row, weights=residual, minlength=n_leaves)
        den = np.bincount(leaf_of_row, weights=prob * (1.0 - prob), minlength=n_leaves)
        leaf_values = num / np.maximum(den, 1e-12)
        trees.append((tree, leaf_values))
        scores = scores + cfg.learning_rate * leaf_values[leaf_of_row]
    return GradientBoost(f0=f0, trees=trees, learning_rate=cfg.learning_rate, classes=tuple(classes))
