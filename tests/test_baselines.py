import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit import baselines
from nidkit.baselines import (
    CELLS,
    GROUP_CELLS,
    AdaBoostConfig,
    DecisionTree,
    DecisionTreeConfig,
    ForestConfig,
    GradientBoostConfig,
    LinearSvmConfig,
    RandomForest,
    _Node,
    _best_splits,
    _class_stats,
    _gini_scores,
    _group_size,
    _presort,
    _sse_scores,
    _tree_cells,
    fit_adaboost,
    fit_forest,
    fit_gnb,
    fit_gradient_boost,
    fit_linear_svm,
    fit_tree,
    stump_weight,
)
from nidkit.classifier import (AttackClassifier, DnnConfig, _stratified_split, predict,
                               train_network)
from nidkit.neural import TrainConfig

from . import split_oracle, svm_oracle, tree_oracle


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
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    return data, labels


# --- decision tree -----------------------------------------------------------

def test_gini_fifty_fifty():
    assert gini_impurity(np.array([5.0, 5.0])) == 0.5
    assert gini_impurity(np.array([10.0, 0.0])) == 0.0


def test_tree_pure_data_single_leaf():
    tree = fit_tree(np.random.default_rng(0).normal(size=(10, 3)), [0] * 10)
    assert tree.root.is_leaf
    assert (tree.predict(np.zeros((4, 3))) == 0).all()


def test_tree_one_dim_split_at_midpoint():
    tree = fit_tree(np.array([[0.0], [1.0]]), [0, 1])
    assert not tree.root.is_leaf
    assert tree.root.feature == 0
    assert tree.root.threshold == 0.5
    assert tree.predict(np.array([[0.2], [0.8]])).tolist() == [0, 1]


def test_tree_threshold_between_adjacent_doubles_keeps_upper_rows_right():
    # the midpoint of two adjacent doubles rounds to the upper one; the
    # threshold falls back to the lower value so each row lands in its leaf
    lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert (lo + hi) / 2.0 == hi
    data = np.array([[lo], [hi]])
    tree = fit_tree(data, [0, 1])
    assert tree.root.threshold == lo
    assert tree.predict(data).tolist() == [0, 1]
    stats = _class_stats(np.array([0, 1]), np.ones(2), 2)
    assert split_oracle.best_split(data, stats, _presort(data.T), np.array([0]),
                                   split_oracle.gini_scores) == (0, lo, 1)


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
        labels = rng.choice(2, size=30)
        if len(set(labels)) < 2:
            continue
        tree = fit_tree(data, labels, DecisionTreeConfig(max_depth=1))
        score, feature, threshold = _oracle_best_split(data, labels)
        assert not tree.root.is_leaf
        got_left = data[:, tree.root.feature] <= tree.root.threshold
        got_score = (
            got_left.sum() * gini_impurity(np.array([
                (labels[got_left] == 0).sum(), (labels[got_left] == 1).sum()], float))
            + (~got_left).sum() * gini_impurity(np.array([
                (labels[~got_left] == 0).sum(), (labels[~got_left] == 1).sum()], float))
        ) / 30
        assert got_score == pytest.approx(score, abs=1e-12)


def test_tree_path_replay_oracle():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(60, 4))
    labels = rng.choice(2, size=60)
    tree = fit_tree(data, labels, DecisionTreeConfig(max_depth=5))

    def walk(row):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    probe = rng.normal(size=(25, 4))
    assert tree.predict(probe).tolist() == [walk(r) for r in probe]


def test_tree_separable_perfect_fit():
    data, labels = _two_blobs()
    tree = fit_tree(data, labels)
    assert (tree.predict(data) == labels).all()


# --- batched split search -------------------------------------------------------

def _split_search(values, stats_t, orders, candidates, score, cells=CELLS):
    """(feature, threshold, n_left) of ``_best_splits`` over one node whose
    (d, n) row order is ``orders``, or None when it has no boundary."""
    n_all, n = values.shape[0], orders.shape[1]
    node, row, threshold, n_left, *_ = _best_splits(
        np.ascontiguousarray(values.T), stats_t, orders.ravel(), (candidates * n)[None],
        (candidates * n_all)[None], np.array([n]), score, cells=cells)
    return (int(candidates[row[0]]), threshold[0], int(n_left[0])) if len(node) else None


def _node_block(draw, n_all, d):
    """Tie-heavy integer grid or float values with duplicated rows."""
    if draw(st.booleans()):
        top = draw(st.integers(0, 3))
        cells = draw(st.lists(st.integers(0, top), min_size=n_all * d, max_size=n_all * d))
        return np.array(cells, dtype=np.float64).reshape(n_all, d) / 2.0
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                  min_size=1, max_size=n_all)))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n_all, max_size=n_all))
    return base[picks]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_batched_split_search_matches_per_feature_oracle(data):
    # every statistics block a tree builds, any sorted candidate subset,
    # and every block size from one feature to all: the batched search must
    # return the oracle's (feature, threshold, n_left) bit for bit
    draw = data.draw
    n_all = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    values = _node_block(draw, n_all, d)
    kind = draw(st.sampled_from(["unit", "bootstrap", "float", "sse"]))
    if kind == "sse":
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        y = np.array(draw(st.lists(unit, min_size=n_all, max_size=n_all)))
        stats = np.column_stack((y, y * y, np.ones_like(y)))
        score, oracle_score = _sse_scores, split_oracle.sse_scores
    else:
        k = draw(st.integers(2, 7))
        class_ids = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n_all,
                                           max_size=n_all)))
        if kind == "unit":
            weights = np.ones(n_all)
        elif kind == "bootstrap":  # rows drawn 0 times are in no node
            weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n_all,
                                             max_size=n_all)), dtype=np.float64)
        else:  # AdaBoost-like: positive floats summing to one
            raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=n_all, max_size=n_all))
            weights = np.array(raw) / np.sum(raw)
        stats = _class_stats(class_ids, weights, k)
        score, oracle_score = _gini_scores, split_oracle.gini_scores
    # a node holds a subset of the rows, in the presorted order
    keep = np.array(draw(st.lists(st.booleans(), min_size=n_all, max_size=n_all)))
    keep[draw(st.integers(0, n_all - 1))] = True
    orders = _presort(values.T)
    orders = orders[keep[orders]].reshape(d, -1)
    chosen = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    candidates = np.array(sorted(chosen))
    want = split_oracle.best_split(values, stats, orders, candidates, oracle_score)
    # the oracle sums a column of ones for the row counts; the search takes
    # them from the boundary positions
    stats_t = np.ascontiguousarray((stats[:, :2] if kind == "sse" else stats).T)
    k, n = stats_t.shape[0], orders.shape[1]
    for step in range(1, len(candidates) + 1):
        got = _split_search(values, stats_t, orders, candidates, score, cells=step * k * n)
        if want is None:
            assert got is None, step
        else:
            assert got is not None, step
            assert (got[0], float(got[1]).hex(), got[2]) == (
                int(want[0]), float(want[1]).hex(), int(want[2])), step


def test_split_search_on_constant_candidates_returns_none():
    # features 0 and 2 vary, but the node only offers the constant feature 1
    values = np.array([[0.0, 5.0, 1.0], [1.0, 5.0, 0.0], [2.0, 5.0, 1.0], [3.0, 5.0, 0.0]])
    stats = _class_stats(np.array([0, 1, 0, 1]), np.ones(4), 2)
    orders = _presort(values.T)
    candidates = np.array([1])
    assert split_oracle.best_split(values, stats, orders, candidates,
                                   split_oracle.gini_scores) is None
    assert _split_search(values, np.ascontiguousarray(stats.T), orders, candidates,
                         _gini_scores) is None


def test_split_search_on_all_zero_weights_returns_none_without_a_warning():
    # weights that all underflowed to zero, as in a long AdaBoost run: every
    # boundary scores 0/0, which splits nothing and warns of nothing
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    stats = _class_stats(np.array([0, 1, 0, 1]), np.zeros(4), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _split_search(values, np.ascontiguousarray(stats.T), _presort(values.T),
                             np.array([0]), _gini_scores) is None


# --- golden trees ---------------------------------------------------------------

def _golden_data():
    """Fixed-seed, tie-heavy set: five features on a 4-value grid, noisy
    labels, and binary labels that are pure outside one value of feature 0."""
    rng = np.random.default_rng(20240)
    data = rng.integers(0, 4, size=(160, 5)).astype(np.float64) / 2.0
    score = data[:, 0] - data[:, 1] + 0.5 * data[:, 2] + rng.normal(0.0, 0.6, size=160)
    three = np.digitize(score, [-0.5, 0.5])
    two = (score > 0.0).astype(np.intp)
    step = ((data[:, 0] > 1.0) | ((data[:, 0] == 1.0) & (score > 0.5))).astype(np.intp)
    return data, three, two, step


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
    mk = lambda leaf: DecisionTree(root=leaf)
    forest = RandomForest(trees=[mk(leaf_a), mk(leaf_a), mk(leaf_b)], n_classes=2)
    assert forest.predict(np.zeros((2, 1))).tolist() == [0, 0]
    tied = RandomForest(trees=[mk(leaf_a), mk(leaf_b)], n_classes=2)
    assert tied.predict(np.zeros((1, 1))).tolist() == [0]  # tie -> lower id


def test_forest_deterministic_per_seed():
    data, labels = _two_blobs(seed=5)
    probe = np.random.default_rng(3).normal(size=(20, 3))
    p1 = fit_forest(data, labels, ForestConfig(n_trees=7, seed=11)).predict(probe)
    p2 = fit_forest(data, labels, ForestConfig(n_trees=7, seed=11)).predict(probe)
    assert (p1 == p2).all()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_forest_trees_match_the_depth_first_oracle(data):
    # tie-heavy grids and duplicated rows, bootstrap on and off, every
    # max_features from 1 to d, 1-7 trees and 2-3 classes: the lockstep
    # grower must give the oracle's trees, node for node and bit for bit
    draw = data.draw
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    values = _node_block(draw, n, d)
    class_ids = np.array(draw(st.lists(st.integers(0, draw(st.integers(1, 2))),
                                       min_size=n, max_size=n)))
    n_trees, bootstrap = draw(st.integers(1, 7)), draw(st.booleans())
    max_features, seed = draw(st.integers(1, d)), draw(st.integers(0, 2**16))
    # each tree grows alone or all grow in one group; either way a node
    # sorts the orders of the candidates its parent did not search
    group_cells = draw(st.sampled_from([1, baselines.GROUP_CELLS]))
    kept, baselines.GROUP_CELLS = baselines.GROUP_CELLS, group_cells
    try:
        forest = fit_forest(values, class_ids, ForestConfig(
            n_trees=n_trees, bootstrap=bootstrap, max_features=max_features, seed=seed))
    finally:
        baselines.GROUP_CELLS = kept
    want = tree_oracle.fit_forest(values, class_ids, class_ids.max() + 1, n_trees, bootstrap,
                                  max_features, seed)
    assert _tree_digest([t.root for t in forest.trees]) == _tree_digest(want)
    # as in the oracle, a split node keeps no class value
    stack = [t.root for t in forest.trees]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            assert node.value is None
            stack += (node.left, node.right)


def _with_group_size(monkeypatch, group, rows, n_classes, max_features):
    """Sets the lockstep budget to ``group`` trees of that shape."""
    monkeypatch.setattr(baselines, "GROUP_CELLS",
                        group * _tree_cells(rows, n_classes, max_features))


def test_forest_trees_do_not_depend_on_the_group_size(monkeypatch):
    data, three, _, _ = _golden_data()
    for cfg, max_features in ((ForestConfig(n_trees=7, seed=3), 2),
                              (ForestConfig(n_trees=7, max_features=5, seed=4), 5)):
        digests = set()
        for group in (1, 3, 7):
            _with_group_size(monkeypatch, group, len(data), 3, max_features)
            assert _group_size(len(data), 3, max_features) == group
            digests.add(_tree_digest([t.root for t in fit_forest(data, three, cfg).trees]))
        assert len(digests) == 1, cfg


def test_group_size_shrinks_as_rows_grow_and_keeps_its_budget(monkeypatch):
    sizes = [_group_size(n, 2, 6) for n in (300, 3_000, 30_000, 125_973)]
    assert sizes == sorted(sizes, reverse=True) and sizes[0] > sizes[-1]
    # at NSL-KDD scale each tree grows alone
    assert _group_size(125_973, 2, 6) == 1
    # a tree's lockstep state is no larger than its cell count says: each
    # tree a group adds raises the traced peak of a fit by at most that many
    # cells, and a tree grown alone holds no more than one grown in a pair
    rng = np.random.default_rng(0)
    data = rng.integers(0, 50, size=(2_000, 41)) / 7.0
    labels = (data[:, 0] + rng.normal(size=2_000) > 3.5).astype(np.intp)
    peaks = {}
    for group in (1, 2, 9):
        _with_group_size(monkeypatch, group, 2_000, 2, 6)
        tracemalloc.start()
        try:
            fit_forest(data, labels, ForestConfig(n_trees=9, seed=1))
            peaks[group] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[9] - peaks[2] <= 7 * _tree_cells(2_000, 2, 6) * 8
    assert peaks[1] <= peaks[2]


@pytest.mark.parametrize("max_features, rows, message", [
    (0, 40, "max_features must be >= 1"),   # no node would have a candidate
    (-1, 40, "max_features must be >= 1"),
    (None, 0, "need at least one row"),
], ids=["zero-features", "negative-features", "zero-rows"])
def test_forest_rejects_bad_input_before_growing(max_features, rows, message):
    data, labels = _two_blobs(seed=4)
    with pytest.raises(ValueError, match=message):
        fit_forest(data[:rows], labels[:rows], ForestConfig(n_trees=3, max_features=max_features))


# --- Gaussian naive Bayes -------------------------------------------------------

def test_gnb_symmetric_blob_boundary_at_midpoint():
    data = np.array([[0.0], [0.2], [-0.2], [2.0], [2.2], [1.8]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    gnb = fit_gnb(data, labels)
    assert gnb.predict(np.array([[0.99]]))[0] == 0
    assert gnb.predict(np.array([[1.01]]))[0] == 1


def test_gnb_prior_decides_on_equal_likelihood():
    data = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [0.0], [1.0]])
    labels = np.array([0] * 6 + [1] * 2)
    gnb = fit_gnb(data, labels)
    # identical per-class distributions: {0,1} shows up the same way, so
    # only the prior differs
    assert gnb.means[0] == pytest.approx(gnb.means[1])
    assert gnb.predict(np.array([[0.5]]))[0] == 0


def test_gnb_variance_floor_on_constant_feature():
    data = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    gnb = fit_gnb(data, labels)
    assert (gnb.variances >= 1e-9).all()
    out = gnb.predict(np.array([[1.0, 5.5], [1.0, 0.5]]))
    assert out.tolist() == [0, 1]


# --- linear SVM ------------------------------------------------------------------

def test_svm_separable_blobs_perfect_training_accuracy():
    data, labels = _two_blobs(n=60, gap=8.0, seed=6)
    svm = fit_linear_svm(data, labels, LinearSvmConfig(seed=0))
    assert (svm.predict(data) == labels).all()


def test_svm_deterministic_per_seed():
    data, labels = _two_blobs(seed=7)
    a = fit_linear_svm(data, labels, LinearSvmConfig(seed=3))
    b = fit_linear_svm(data, labels, LinearSvmConfig(seed=3))
    assert (a.w == b.w).all() and a.b == b.b
    assert (a.margin_violators == b.margin_violators).all()


def test_svm_wrong_side_point_is_margin_violator():
    data, labels = _two_blobs(n=40, gap=10.0, seed=8)
    labels[0] = 1  # mislabel one far-negative point
    svm = fit_linear_svm(data, labels, LinearSvmConfig(seed=1))
    assert 0 in svm.margin_violators


def test_svm_single_class_rejected():
    with pytest.raises(ValueError):
        fit_linear_svm(np.ones((4, 2)), np.ones(4))


def test_svm_rejects_bad_labels():
    with pytest.raises(ValueError, match="binary ids"):
        fit_linear_svm(np.ones((4, 2)), np.array([-1, 1, -1, 1]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_joint_svm_fit_matches_the_per_label_oracle(data):
    # k label rows fitted together: each row gives the oracle's violators,
    # and its weights up to the last bits the joint sums round differently
    draw = data.draw
    n, d, k = draw(st.integers(4, 40)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
    rows = []
    for _ in range(k):
        row = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if row.min() == row.max():  # both ids must be present
            row[draw(st.integers(0, n - 1))] ^= 1
        rows.append(row)
    cfg = LinearSvmConfig(epochs=draw(st.integers(1, 3)), seed=draw(st.integers(0, 9)))
    joint = fit_linear_svm(values, np.array(rows), cfg)
    assert len(joint) == k
    for row, got in zip(rows, joint):
        want = svm_oracle.fit_linear_svm(values, row, cfg)
        assert got.margin_violators.tolist() == want.margin_violators.tolist()
        scale = max(np.abs(want.w).max(), abs(want.b))
        np.testing.assert_allclose(got.w, want.w, rtol=1e-9, atol=1e-9 * scale)
        assert abs(got.b - want.b) <= 1e-9 * scale
        assert isinstance(got.b, float)


def test_svm_one_label_row_gives_one_model():
    data, labels = _two_blobs(seed=9)
    one = fit_linear_svm(data, labels, LinearSvmConfig(seed=2))
    (stacked,) = fit_linear_svm(data, labels[None], LinearSvmConfig(seed=2))
    assert (one.w == stacked.w).all() and one.b == stacked.b
    assert (one.margin_violators == stacked.margin_violators).all()


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
    labels = rng.choice(2, size=50)
    boost = fit_adaboost(data, labels, AdaBoostConfig(n_rounds=12))
    assert len(boost.stumps) > 1
    y = np.where(labels == 1, 1.0, -1.0)
    weights = np.full(len(labels), 1.0 / len(labels))
    for stump, alpha in zip(boost.stumps, boost.alphas):
        pred = np.where(stump.predict(data) == 1, 1.0, -1.0)
        err = float(weights[pred != y].sum())
        assert alpha == stump_weight(err)
        weights = weights * np.exp(-alpha * y * pred)
        weights = weights / weights.sum()


def test_adaboost_stops_when_no_stump_beats_chance():
    # one feature value, two balanced classes: any stump has err = 0.5
    data = np.zeros((4, 1))
    labels = np.array([0, 1, 0, 1])
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
    labels = np.array([0] * 7 + [1] * 3)
    model = fit_gradient_boost(data, labels, GradientBoostConfig(n_rounds=0))
    assert model.f0 == pytest.approx(np.log(0.3 / 0.7), abs=1e-12)
    assert (model.predict(data) == 0).all()  # majority prior


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
    # few batches per epoch at this scale, so the paper's step needs many epochs
    cfg = TrainConfig(max_epochs=300)
    rng = np.random.default_rng(0)
    train_idx, val_idx = _stratified_split(labels, 0.15, rng)
    model, _ = train_network(
        data[train_idx], labels[train_idx], DnnConfig(input_dim=3, hidden_dim=8, output_dim=2),
        cfg, rng, validation=(data[val_idx], labels[val_idx]),
    )
    predicted, _ = predict(AttackClassifier(model=model), data)
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
    labels = (data[:, 0] + 0.3 * rng.normal(size=80) > 0).astype(np.intp)
    predictor = fitter(data, labels)
    acc = (predictor(data) == labels).mean()
    majority = max((labels == 1).mean(), (labels == 0).mean())
    assert acc >= majority
