import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit.metrics import (
    ConfusionMatrix,
    accuracy,
    binary_metrics,
    confusion,
    f1_score,
    macro_micro,
    multiclass_report,
    per_class_f1,
)


def test_confusion_perfect_diagonal():
    cm = confusion([0, 1, 0], [0, 1, 0], ("A", "B"))
    assert cm.counts.tolist() == [[2, 0], [0, 1]]


def test_confusion_hand_count():
    cm = confusion([0, 0, 1], [0, 1, 1], ("A", "B"))
    assert cm.counts.tolist() == [[1, 1], [0, 1]]


def test_confusion_empty_and_unknown():
    with pytest.raises(ValueError):
        confusion([], [], ("A", "B"))
    with pytest.raises(ValueError, match="unknown predicted"):
        confusion([0], [2], ("A", "B"))
    with pytest.raises(ValueError, match="unknown true"):
        confusion([-1], [0], ("A", "B"))


def test_binary_metrics_all_tp():
    cm = ConfusionMatrix(counts=np.array([[0, 0], [0, 1]]), classes=("neg", "pos"))
    m = binary_metrics(cm, positive_class="pos")
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_binary_metrics_degenerate_zero():
    cm = ConfusionMatrix(counts=np.array([[0, 0], [5, 0]]), classes=("neg", "pos"))
    m = binary_metrics(cm, positive_class="pos")
    assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0
    assert m.fn == 5


def test_f1_from_published_precision_recall():
    assert f1_score(0.6816, 0.8309) == pytest.approx(0.7489, abs=1e-4)


def test_binary_metrics_identities():
    cm = ConfusionMatrix(counts=np.array([[50, 10], [5, 35]]), classes=("neg", "pos"))
    m = binary_metrics(cm, positive_class="pos")
    assert m.accuracy == (m.tp + m.tn) / (m.tp + m.tn + m.fp + m.fn)
    assert m.precision == m.tp / (m.tp + m.fp)
    assert m.recall == m.tp / (m.tp + m.fn)
    assert m.f1 == pytest.approx(f1_score(m.precision, m.recall), abs=1e-15)


def test_per_class_f1_diagonal():
    cm = ConfusionMatrix(counts=np.diag([3, 4, 5]), classes=("a", "b", "c"))
    assert all(v == 1.0 for v in per_class_f1(cm).values())


def test_per_class_f1_hand_reduction():
    cm = ConfusionMatrix(counts=np.array([[5, 5], [0, 10]]), classes=("c0", "c1"))
    scores = per_class_f1(cm)
    assert scores["c0"] == pytest.approx(2 * (1.0 * 0.5) / 1.5, abs=1e-12)


def test_per_class_f1_absent_class_is_zero():
    cm = ConfusionMatrix(
        counts=np.array([[3, 0, 0], [0, 2, 0], [0, 0, 0]]), classes=("a", "b", "c")
    )
    assert per_class_f1(cm)["c"] == 0.0


def test_macro_micro_equal_supports():
    macro, micro = macro_micro({"a": 0.8, "b": 0.4}, {"a": 10, "b": 10})
    assert macro == pytest.approx(micro, abs=1e-12)
    assert macro == pytest.approx(0.6)


def test_macro_micro_weighted():
    macro, micro = macro_micro({"a": 1.0, "b": 0.0}, {"a": 9, "b": 1})
    assert macro == pytest.approx(0.5)
    assert micro == pytest.approx(0.9)


def test_macro_micro_zero_support():
    with pytest.raises(ValueError):
        macro_micro({"a": 1.0}, {"a": 0})


def test_accuracy_is_trace_over_total():
    cm = ConfusionMatrix(counts=np.array([[7, 2], [3, 8]]), classes=("x", "y"))
    assert accuracy(cm) == (7 + 8) / 20


def test_pooled_f1_equals_accuracy_single_label():
    cm = ConfusionMatrix(counts=np.array([[7, 2, 1], [3, 8, 0], [1, 1, 4]]),
                         classes=("x", "y", "z"))
    # conventional micro-F1 from pooled counts: in single-label data every
    # off-diagonal count is one false positive and one false negative
    tp = int(np.trace(cm.counts))
    fp = fn = cm.total - tp
    pooled = f1_score(tp / (tp + fp), tp / (tp + fn))
    assert pooled == pytest.approx(accuracy(cm), abs=1e-12)


def test_macro_f1_reproduces_published_fourclass_rows():
    # published per-class F1 columns and their macro rows must agree with
    # the arithmetic-mean definition
    without = {"DoS": 0.8790, "Probe": 0.8703, "R2L": 0.4789, "U2R": 0.2075}
    with_os = {"DoS": 0.8678, "Probe": 0.8560, "R2L": 0.5100, "U2R": 0.5741}
    supports = {c: 1 for c in without}
    macro, _ = macro_micro(without, supports)
    assert macro == pytest.approx(0.6089, abs=5e-4)
    macro, _ = macro_micro(with_os, supports)
    assert macro == pytest.approx(0.7020, abs=5e-4)


def test_multiclass_report_consistency():
    true = [0] * 5 + [1] * 3 + [2] * 2
    pred = [0] * 4 + [1] * 4 + [2, 0]
    report = multiclass_report(true, pred, ("DoS", "Probe", "R2L"))
    assert report.confusion.counts.sum(axis=1).tolist() == [5, 3, 2]
    assert report.confusion.total == 10
    supports = {c: int(report.confusion.counts[i].sum())
                for i, c in enumerate(report.confusion.classes)}
    macro, micro = macro_micro(report.per_class_f1, supports)
    assert report.macro_f1 == macro and report.micro_f1 == micro


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from([0, 1, 2])),
        min_size=1, max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_metrics_permutation_invariant(pairs, seed):
    true = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    base = multiclass_report(true, pred, ("a", "b", "c"))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(pairs))
    shuffled = multiclass_report(
        [true[i] for i in perm], [pred[i] for i in perm], ("a", "b", "c")
    )
    assert (base.confusion.counts == shuffled.confusion.counts).all()
    assert base.macro_f1 == shuffled.macro_f1
    assert base.accuracy == shuffled.accuracy


@settings(max_examples=100, deadline=None)
@given(
    tp=st.integers(0, 50), fp=st.integers(0, 50),
    fn=st.integers(0, 50), tn=st.integers(0, 50),
)
def test_f1_harmonic_mean_bounds(tp, fp, fn, tn):
    cm = ConfusionMatrix(counts=np.array([[tn, fp], [fn, tp]]), classes=("n", "p"))
    m = binary_metrics(cm, positive_class="p")
    assert 0.0 <= m.accuracy <= 1.0
    assert 0.0 <= m.f1 <= 1.0
    if m.precision > 0 and m.recall > 0:
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12
