"""Classical supervised baselines for the binary detection task.

All models are trained from scratch on numpy: CART-style decision
trees (Gini), bagged forests, Gaussian naive Bayes, a primal
hinge-loss linear SVM, AdaBoost over stumps, and gradient boosting
with depth-3 regression trees on logistic-loss gradients. Split
tie-breaking is deterministic everywhere: lower feature index first,
then lower threshold; candidate thresholds are midpoints between
consecutive distinct sorted values.

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


def gini_impurity(counts: np.ndarray) -> float:
    """1 - sum(p^2) over class shares; 0 for empty or pure nodes."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _presort_columns(data: np.ndarray) -> list[np.ndarray]:
    return [np.argsort(data[:, j], kind="stable").astype(np.int64) for j in range(data.shape[1])]


def _best_split_cls(data, class_ids, weights, orders, candidates, n_classes):
    """Best weighted-Gini split over candidate features.

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
        onehot = np.zeros((len(o), n_classes))
        onehot[np.arange(len(o)), class_ids[o]] = weights[o]
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        valid = np.nonzero(xs[:-1] != xs[1:])[0]
        left = cum[valid]
        right = total - left
        wl = left.sum(axis=1)
        wr = right.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            gini_l = 1.0 - ((left / wl[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - ((right / wr[:, None]) ** 2).sum(axis=1)
        gini_l = np.where(wl > 0, gini_l, 0.0)
        gini_r = np.where(wr > 0, gini_r, 0.0)
        scores = (wl * gini_l + wr * gini_r) / (wl + wr)
        pos = int(np.argmin(scores))
        if scores[pos] < best_score:
            i = valid[pos]
            best_score = scores[pos]
            best = (j, (xs[i] + xs[i + 1]) / 2.0, i + 1)
    return best


def _best_split_reg(data, targets, orders, candidates):
    """Best split by weighted sum of child squared errors."""
    best = None
    best_score = np.inf
    for j in candidates:
        o = orders[j]
        xs = data[o, j]
        if xs[0] == xs[-1]:
            continue
        y = targets[o]
        cum_y = np.cumsum(y)
        cum_y2 = np.cumsum(y * y)
        n = len(o)
        valid = np.nonzero(xs[:-1] != xs[1:])[0]
        nl = valid + 1.0
        nr = n - nl
        sse_l = cum_y2[valid] - cum_y[valid] ** 2 / nl
        sse_r = (cum_y2[-1] - cum_y2[valid]) - (cum_y[-1] - cum_y[valid]) ** 2 / nr
        scores = sse_l + sse_r
        pos = int(np.argmin(scores))
        if scores[pos] < best_score:
            i = valid[pos]
            best_score = scores[pos]
            best = (j, (xs[i] + xs[i + 1]) / 2.0, i + 1)
    return best


class _TreeGrower:
    """Shared recursive grower over presorted column orders."""

    def __init__(self, data, cfg, *, class_ids=None, weights=None, n_classes=0,
                 targets=None, max_features=None, rng=None):
        self.data = data
        self.cfg = cfg
        self.class_ids = class_ids
        self.weights = weights
        self.n_classes = n_classes
        self.targets = targets
        self.max_features = max_features
        self.rng = rng
        self.n_leaves = 0
        self.regression = targets is not None

    def _leaf(self, rows) -> _Node:
        if self.regression:
            value = float(self.targets[rows].mean())
        else:
            totals = np.bincount(
                self.class_ids[rows], weights=self.weights[rows], minlength=self.n_classes
            )
            value = int(np.argmax(totals))
        node = _Node(value=value, leaf_id=self.n_leaves)
        self.n_leaves += 1
        return node

    def _pure(self, rows) -> bool:
        if self.regression:
            t = self.targets[rows]
            return bool((t == t[0]).all())
        present = np.bincount(
            self.class_ids[rows], weights=self.weights[rows], minlength=self.n_classes
        ) > 0
        return int(present.sum()) <= 1

    def grow(self, orders, depth) -> _Node:
        rows = orders[0]
        if (
            depth >= self.cfg.max_depth
            or len(rows) < self.cfg.min_samples_split
            or self._pure(rows)
        ):
            return self._leaf(rows)
        d = self.data.shape[1]
        if self.max_features is not None and self.max_features < d:
            candidates = np.sort(self.rng.choice(d, size=self.max_features, replace=False))
        else:
            candidates = range(d)
        if self.regression:
            split = _best_split_reg(self.data, self.targets, orders, candidates)
        else:
            split = _best_split_cls(
                self.data, self.class_ids, self.weights, orders, candidates, self.n_classes
            )
        if split is None:
            return self._leaf(rows)
        feature, threshold, n_left = split
        left_rows = orders[feature][:n_left]
        in_left = np.zeros(self.data.shape[0], dtype=bool)
        in_left[left_rows] = True
        left_orders = [o[in_left[o]] for o in orders]
        right_orders = [o[~in_left[o]] for o in orders]
        node = _Node(feature=feature, threshold=threshold)
        node.left = self.grow(left_orders, depth + 1)
        node.right = self.grow(right_orders, depth + 1)
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
    config: DecisionTreeConfig

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
    grower = _TreeGrower(
        data, cfg, class_ids=class_ids, weights=weights, n_classes=len(classes)
    )
    root = grower.grow(_presort_columns(data), depth=0)
    return DecisionTree(root=root, classes=tuple(classes), config=cfg)


def _fit_tree_on_orders(data, class_ids, weights, n_classes, orders, cfg,
                        max_features=None, rng=None) -> _Node:
    grower = _TreeGrower(
        data, cfg, class_ids=class_ids, weights=weights, n_classes=n_classes,
        max_features=max_features, rng=rng,
    )
    return grower.grow(orders, depth=0)


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
    config: ForestConfig

    def predict(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        votes = np.zeros((data.shape[0], len(self.classes)), dtype=np.int64)
        index = {c: i for i, c in enumerate(self.classes)}
        for tree in self.trees:
            pred = tree.predict(data)
            for c, i in index.items():
                votes[:, i] += pred == c
        winners = np.argmax(votes, axis=1)  # ties -> lower class index
        return np.array([self.classes[i] for i in winners], dtype=object)


def fit_forest(data: np.ndarray, labels, cfg: ForestConfig = ForestConfig()) -> RandomForest:
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=object)
    n, d = data.shape
    classes, class_ids = np.unique(labels, return_inverse=True)
    max_features = cfg.max_features if cfg.max_features is not None else int(round(np.sqrt(d)))
    max_features = min(max_features, d)
    base_orders = _presort_columns(data)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)]
    trees = []
    for rng in streams:
        if cfg.bootstrap:
            draw = rng.integers(0, n, size=n)
            weights = np.bincount(draw, minlength=n).astype(np.float64)
            keep = weights > 0
            orders = [o[keep[o]] for o in base_orders]
        else:
            weights = np.ones(n)
            orders = [o.copy() for o in base_orders]
        root = _fit_tree_on_orders(
            data, class_ids, weights, len(classes), orders, cfg.tree,
            max_features=max_features, rng=rng,
        )
        trees.append(DecisionTree(root=root, classes=tuple(classes), config=cfg.tree))
    return RandomForest(trees=trees, classes=tuple(classes), config=cfg)


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
        winners = np.argmax(self.log_posteriors(data), axis=1)
        return np.array([self.classes[i] for i in winners], dtype=object)


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
        score = self.decision(data)
        return np.array(
            [self.classes[1] if s > 0 else self.classes[0] for s in score], dtype=object
        )


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
    base_orders = _presort_columns(data)
    stump_cfg = DecisionTreeConfig(max_depth=1, min_samples_split=2)
    weights = np.full(n, 1.0 / n)
    stumps: list[DecisionTree] = []
    alphas: list[float] = []
    for _ in range(cfg.n_rounds):
        root = _fit_tree_on_orders(
            data, class_ids, weights, 2, [o.copy() for o in base_orders], stump_cfg
        )
        stump = DecisionTree(root=root, classes=tuple(classes), config=stump_cfg)
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
        root = _fit_tree_on_orders(
            data, class_ids, weights, 2, [o.copy() for o in base_orders], stump_cfg
        )
        stumps = [DecisionTree(root=root, classes=tuple(classes), config=stump_cfg)]
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
        score = self.decision(data)
        return np.array(
            [self.classes[1] if s > 0 else self.classes[0] for s in score], dtype=object
        )


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
    base_orders = _presort_columns(data)
    tree_cfg = DecisionTreeConfig(max_depth=cfg.max_depth, min_samples_split=2)
    trees: list[tuple[DecisionTree, np.ndarray]] = []
    for _ in range(cfg.n_rounds):
        prob = _sigmoid(scores)
        residual = y - prob
        grower = _TreeGrower(data, tree_cfg, targets=residual)
        root = grower.grow([o.copy() for o in base_orders], depth=0)
        tree = DecisionTree(root=root, classes=tuple(classes), config=tree_cfg)
        leaf_of_row = tree.apply(data)
        n_leaves = grower.n_leaves
        num = np.bincount(leaf_of_row, weights=residual, minlength=n_leaves)
        den = np.bincount(leaf_of_row, weights=prob * (1.0 - prob), minlength=n_leaves)
        leaf_values = num / np.maximum(den, 1e-12)
        trees.append((tree, leaf_values))
        scores = scores + cfg.learning_rate * leaf_values[leaf_of_row]
    return GradientBoost(f0=f0, trees=trees, learning_rate=cfg.learning_rate, classes=tuple(classes))
