import hashlib

import numpy as np
import pytest

from nidkit.baselines import (
    AdaBoostConfig,
    DecisionTree,
    DecisionTreeConfig,
    ForestConfig,
    GradientBoostConfig,
    LinearSvmConfig,
    RandomForest,
    _Node,
    fit_adaboost,
    fit_forest,
    fit_gnb,
    fit_gradient_boost,
    fit_linear_svm,
    fit_tree,
    stump_weight,
)
from nidkit.classifier import AttackClassifier, DnnConfig, predict, train_network
from nidkit.neural import TrainConfig


def gini_impurity(counts: np.ndarray) -> float:
    """1 - sum(p^2) over class shares; 0 for empty or pure nodes."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _two_blobs(n=40, d=3, gap=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n // 2, d))
    b = rng.normal(0.0, 0.5, size=(n // 2, d))
    b[:, 0] += gap
    data = np.vstack([a, b])
    labels = np.array(["neg"] * (n // 2) + ["pos"] * (n // 2), dtype=object)
    return data, labels


# --- decision tree -----------------------------------------------------------

def test_gini_fifty_fifty():
    assert gini_impurity(np.array([5.0, 5.0])) == 0.5
    assert gini_impurity(np.array([10.0, 0.0])) == 0.0


def test_tree_pure_data_single_leaf():
    tree = fit_tree(np.random.default_rng(0).normal(size=(10, 3)), ["A"] * 10)
    assert tree.root.is_leaf
    assert (tree.predict(np.zeros((4, 3))) == "A").all()


def test_tree_one_dim_split_at_midpoint():
    tree = fit_tree(np.array([[0.0], [1.0]]), ["A", "B"])
    assert not tree.root.is_leaf
    assert tree.root.feature == 0
    assert tree.root.threshold == 0.5
    assert tree.predict(np.array([[0.2], [0.8]])).tolist() == ["A", "B"]


def _oracle_best_split(data, labels):
    """Brute force over every (feature, midpoint) pair; spec tie rules."""
    classes = sorted(set(labels))
    best = None
    for j in range(data.shape[1]):
        values = np.unique(data[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = data[:, j] <= thr
            score = 0.0
            for side in (left, ~left):
                counts = np.array([(labels[side] == c).sum() for c in classes], float)
                score += side.sum() * gini_impurity(counts)
            score /= data.shape[0]
            if best is None or score < best[0] - 1e-15:
                best = (score, j, thr)
    return best


def test_tree_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        data = rng.normal(size=(30, 3)).round(1)  # coarse values force ties
        labels = np.array(rng.choice(["A", "B"], size=30), dtype=object)
        if len(set(labels)) < 2:
            continue
        tree = fit_tree(data, labels, DecisionTreeConfig(max_depth=1))
        score, feature, threshold = _oracle_best_split(data, labels)
        assert not tree.root.is_leaf
        got_left = data[:, tree.root.feature] <= tree.root.threshold
        got_score = (
            got_left.sum() * gini_impurity(np.array([
                (labels[got_left] == "A").sum(), (labels[got_left] == "B").sum()], float))
            + (~got_left).sum() * gini_impurity(np.array([
                (labels[~got_left] == "A").sum(), (labels[~got_left] == "B").sum()], float))
        ) / 30
        assert got_score == pytest.approx(score, abs=1e-12)


def test_tree_path_replay_oracle():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 4))
    labels = np.array(rng.choice(["x", "y"], size=60), dtype=object)
    tree = fit_tree(data, labels, DecisionTreeConfig(max_depth=5))

    def walk(row):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return tree.classes[node.value]

    probe = rng.normal(size=(25, 4))
    assert tree.predict(probe).tolist() == [walk(r) for r in probe]


def test_tree_separable_perfect_fit():
    data, labels = _two_blobs()
    tree = fit_tree(data, labels)
    assert (tree.predict(data) == labels).all()


# --- golden trees ---------------------------------------------------------------

def _golden_data():
    """Fixed-seed, tie-heavy set: five features on a 4-value grid, noisy
    labels, and binary labels that are pure outside one value of feature 0."""
    rng = np.random.default_rng(20240)
    data = rng.integers(0, 4, size=(160, 5)).astype(np.float64) / 2.0
    score = data[:, 0] - data[:, 1] + 0.5 * data[:, 2] + rng.normal(0.0, 0.6, size=160)
    three = np.array(["a", "b", "c"], dtype=object)[np.digitize(score, [-0.5, 0.5])]
    two = np.where(score > 0.0, "p", "n").astype(object)
    step = np.where((data[:, 0] > 1.0) | ((data[:, 0] == 1.0) & (score > 0.5)), "p", "n")
    return data, three, two, step.astype(object)


def _tree_digest(roots, with_value=True, extra=()):
    """SHA-256 of a preorder walk (feature, threshold, class value, leaf id)
    over ``roots``, then of the float64 bytes of each array in ``extra``."""
    h = hashlib.sha256()
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            value = node.value if with_value and node.is_leaf else None
            h.update(repr((int(node.feature), float(node.threshold).hex(), value,
                           int(node.leaf_id))).encode())
            if not node.is_leaf:
                stack.extend((node.right, node.left))
    for values in extra:
        h.update(np.asarray(values, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_golden_tree_digests():
    # any change to split choice, tie rule, leaf numbering, leaf value or
    # boosting weight changes a digest
    data, three, two, step = _golden_data()
    tree = fit_tree(data, three)
    assert _tree_digest([tree.root]) == (
        "5ce2f33d4c3f044eaa700fc2ba92c0390a036e62aee5bacccb3f60e2f4232272")
    forest = fit_forest(data, three, ForestConfig(n_trees=6, seed=5))
    assert _tree_digest([t.root for t in forest.trees]) == (
        "6243352b4d2a2a32862bebba9142f3c54b70bbd1e2181407ddca0af41ab68a08")
    boost = fit_adaboost(data, two, AdaBoostConfig(n_rounds=15))
    assert _tree_digest([s.root for s in boost.stumps], extra=[boost.alphas]) == (
        "a83a5021bcbbb97be6d5bac39b8f0c9a9c88dc594e271ddc7500efb87759e9d0")
    # regression leaves carry no class; their Newton steps are hashed instead.
    # ``step`` makes pure nodes above the depth limit, which must stay leaves
    for labels, want in (
        (two, "01039bad91e44038436933b80eecc44068171c0d12bd6999af63a929d0a05d4c"),
        (step, "d42490bc93034913bbb6da5d99044566ea52d1ccd1ee5b6625184b24a2610857"),
    ):
        gb = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=8))
        assert _tree_digest([t.root for t, _ in gb.trees], with_value=False,
                            extra=[v for _, v in gb.trees]) == want


# --- random forest ------------------------------------------------------------

def test_forest_degenerate_equals_tree():
    data, labels = _two_blobs(seed=4)
    forest = fit_forest(
        data, labels,
        ForestConfig(n_trees=1, bootstrap=False, max_features=data.shape[1]),
    )
    tree = fit_tree(data, labels)
    probe = np.random.default_rng(2).normal(size=(30, 3)) * 3.0
    assert (forest.predict(probe) == tree.predict(probe)).all()


def test_forest_majority_vote_with_tie_rule():
    leaf_a = _Node(value=0)
    leaf_b = _Node(value=1)
    mk = lambda leaf: DecisionTree(root=leaf, classes=("A", "B"))
    forest = RandomForest(trees=[mk(leaf_a), mk(leaf_a), mk(leaf_b)], classes=("A", "B"))
    assert forest.predict(np.zeros((2, 1))).tolist() == ["A", "A"]
    tied = RandomForest(trees=[mk(leaf_a), mk(leaf_b)], classes=("A", "B"))
    assert tied.predict(np.zeros((1, 1))).tolist() == ["A"]  # tie -> lower index


def test_forest_deterministic_per_seed():
    data, labels = _two_blobs(seed=5)
    probe = np.random.default_rng(3).normal(size=(20, 3))
    p1 = fit_forest(data, labels, ForestConfig(n_trees=7, seed=11)).predict(probe)
    p2 = fit_forest(data, labels, ForestConfig(n_trees=7, seed=11)).predict(probe)
    assert (p1 == p2).all()


# --- Gaussian naive Bayes -------------------------------------------------------

def test_gnb_symmetric_blob_boundary_at_midpoint():
    data = np.array([[0.0], [0.2], [-0.2], [2.0], [2.2], [1.8]])
    labels = np.array(["a", "a", "a", "b", "b", "b"], dtype=object)
    gnb = fit_gnb(data, labels)
    assert gnb.predict(np.array([[0.99]]))[0] == "a"
    assert gnb.predict(np.array([[1.01]]))[0] == "b"


def test_gnb_prior_decides_on_equal_likelihood():
    data = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [0.0], [1.0]])
    labels = np.array(["a"] * 6 + ["b"] * 2, dtype=object)
    gnb = fit_gnb(data, labels)
    # identical per-class distributions: {0,1} shows up the same way, so
    # only the prior differs
    assert gnb.means[0] == pytest.approx(gnb.means[1])
    assert gnb.predict(np.array([[0.5]]))[0] == "a"


def test_gnb_variance_floor_on_constant_feature():
    data = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array(["a", "a", "b", "b"], dtype=object)
    gnb = fit_gnb(data, labels)
    assert (gnb.variances >= 1e-9).all()
    out = gnb.predict(np.array([[1.0, 5.5], [1.0, 0.5]]))
    assert out.tolist() == ["a", "b"]


# --- linear SVM ------------------------------------------------------------------

def test_svm_separable_blobs_perfect_training_accuracy():
    data, labels = _two_blobs(n=60, gap=8.0, seed=6)
    y = np.where(labels == "pos", 1.0, -1.0)
    svm = fit_linear_svm(data, y, LinearSvmConfig(seed=0))
    assert (svm.predict(data) == y).all()


def test_svm_deterministic_per_seed():
    data, labels = _two_blobs(seed=7)
    y = np.where(labels == "pos", 1.0, -1.0)
    a = fit_linear_svm(data, y, LinearSvmConfig(seed=3))
    b = fit_linear_svm(data, y, LinearSvmConfig(seed=3))
    assert (a.w == b.w).all() and a.b == b.b
    assert (a.margin_violators == b.margin_violators).all()


def test_svm_wrong_side_point_is_margin_violator():
    data, labels = _two_blobs(n=40, gap=10.0, seed=8)
    y = np.where(labels == "pos", 1.0, -1.0)
    y[0] = 1.0  # mislabel one far-negative point
    svm = fit_linear_svm(data, y, LinearSvmConfig(seed=1))
    assert 0 in svm.margin_violators


def test_svm_single_class_rejected():
    with pytest.raises(ValueError):
        fit_linear_svm(np.ones((4, 2)), np.ones(4))


def test_svm_rejects_bad_labels():
    with pytest.raises(ValueError, match="-1"):
        fit_linear_svm(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))


# --- AdaBoost ----------------------------------------------------------------------

def test_stump_weight_formula():
    assert stump_weight(0.25) == pytest.approx(0.5 * np.log(3.0), abs=1e-12)


def test_adaboost_one_round_equals_best_stump():
    data, labels = _two_blobs(seed=9)
    boost = fit_adaboost(data, labels, AdaBoostConfig(n_rounds=1))
    stump = fit_tree(data, labels, DecisionTreeConfig(max_depth=1))
    probe = np.random.default_rng(4).normal(size=(30, 3)) * 4.0
    assert (boost.predict(probe) == stump.predict(probe)).all()


def test_adaboost_weights_stay_distribution():
    # replay: weights start uniform and are renormalized to sum 1 after each
    # round; each round's weighted error must then give exactly its alpha
    rng = np.random.default_rng(10)
    data = rng.normal(size=(50, 3))
    labels = np.array(rng.choice(["a", "b"], size=50), dtype=object)
    boost = fit_adaboost(data, labels, AdaBoostConfig(n_rounds=12))
    assert len(boost.stumps) > 1
    y = np.where(labels == boost.classes[1], 1.0, -1.0)
    weights = np.full(len(labels), 1.0 / len(labels))
    for stump, alpha in zip(boost.stumps, boost.alphas):
        pred = np.where(stump.predict(data) == boost.classes[1], 1.0, -1.0)
        err = float(weights[pred != y].sum())
        assert alpha == stump_weight(err)
        weights = weights * np.exp(-alpha * y * pred)
        weights = weights / weights.sum()


def test_adaboost_stops_when_no_stump_beats_chance():
    # one feature value, two balanced classes: any stump has err = 0.5
    data = np.zeros((4, 1))
    labels = np.array(["a", "b", "a", "b"], dtype=object)
    boost = fit_adaboost(data, labels, AdaBoostConfig(n_rounds=10))
    assert len(boost.stumps) == 1  # fallback stump, no useful rounds
    assert boost.alphas == [0.0]


def test_adaboost_perfect_stump_stops_early():
    data, labels = _two_blobs(n=20, gap=10.0, seed=11)
    boost = fit_adaboost(data, labels, AdaBoostConfig(n_rounds=50))
    assert len(boost.stumps) == 1  # err == 0 on round one
    assert (boost.predict(data) == labels).all()


# --- gradient boosting ----------------------------------------------------------------

def test_gradient_boost_zero_rounds_prior_sign():
    data = np.random.default_rng(12).normal(size=(10, 2))
    labels = np.array(["a"] * 7 + ["b"] * 3, dtype=object)
    model = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=0))
    assert model.f0 == pytest.approx(np.log(0.3 / 0.7), abs=1e-12)
    assert (model.predict(data) == "a").all()  # majority prior


def test_gradient_boost_learns_separable():
    data, labels = _two_blobs(n=60, seed=13)
    model = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=20))
    assert (model.predict(data) == labels).mean() == 1.0


def test_gradient_boost_deterministic():
    data, labels = _two_blobs(seed=14)
    probe = np.random.default_rng(5).normal(size=(20, 3))
    a = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=5)).decision(probe)
    b = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=5)).decision(probe)
    assert (a == b).all()


# --- MLP baseline ------------------------------------------------------------------------

def test_mlp_baseline_separable():
    data, labels = _two_blobs(n=80, seed=15)
    data = (data - data.mean(axis=0)) / data.std(axis=0)  # production path standardizes
    # few batches per epoch at this scale; a larger step keeps the test quick
    cfg = TrainConfig(max_epochs=100, seed=0, learning_rate=0.02)
    classes = tuple(np.unique(labels))
    model, _ = train_network(
        data, labels, classes, DnnConfig(input_dim=3, hidden_dim=8, output_dim=2),
        cfg, np.random.default_rng(cfg.seed),
    )
    predicted, _ = predict(AttackClassifier(model=model, class_order=classes), data)
    assert (predicted == labels).mean() > 0.95


# --- shared invariant --------------------------------------------------------------------

@pytest.mark.parametrize("fitter", [
    lambda d, l: fit_tree(d, l).predict,
    lambda d, l: fit_forest(d, l, ForestConfig(n_trees=5, seed=0)).predict,
    lambda d, l: fit_gnb(d, l).predict,
    lambda d, l: fit_adaboost(d, l, AdaBoostConfig(n_rounds=10)).predict,
    lambda d, l: fit_gradient_boost(d, l, GradientBoostConfig(n_rounds=10)).predict,
])
def test_training_accuracy_beats_majority(fitter):
    rng = np.random.default_rng(16)
    data = rng.normal(size=(80, 4))
    labels = np.where(data[:, 0] + 0.3 * rng.normal(size=80) > 0, "p", "n").astype(object)
    predictor = fitter(data, labels)
    acc = (predictor(data) == labels).mean()
    majority = max((labels == "p").mean(), (labels == "n").mean())
    assert acc >= majority
