import numpy as np
import pytest

from nidkit.classifier import (
    CLASS_ORDER,
    AttackClassifier,
    DnnConfig,
    predict,
    train_fourclass,
)
from nidkit.metrics import multiclass_report
from nidkit.neural import LayerSpec, MlpModel, TrainConfig
from nidkit.preprocess import FeatureMatrix
from nidkit.resample import SmoteConfig, SvmSmoteConfig


def _four_blobs(counts=(30, 20, 12, 8), d=6, seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    values, labels = [], []
    for i, (cls, n) in enumerate(zip(CLASS_ORDER, counts)):
        center = np.zeros(d)
        center[i % d] = 8.0 * (i + 1)
        values.append(center + rng.normal(0.0, spread, size=(n, d)))
        labels += [cls] * n
    return FeatureMatrix(
        values=np.vstack(values),
        labels=np.array(labels, dtype=object),
    )


def _tcfg(**kw):
    defaults = dict(max_epochs=30, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_dnn_config_shape():
    layers = DnnConfig().layers()
    assert (layers[0].in_dim, layers[0].out_dim, layers[0].activation) == (41, 80, "relu")
    assert (layers[1].in_dim, layers[1].out_dim, layers[1].activation) == (80, 4, "softmax")


def test_train_fourclass_separable_fixture():
    fm = _four_blobs()
    clf, info = train_fourclass(
        fm, tcfg=_tcfg(max_epochs=200), dnn=DnnConfig(input_dim=6, hidden_dim=16)
    )
    predicted, _ = predict(clf, fm.values)
    assert (predicted == fm.labels).mean() > 0.9
    assert info["oversampled"] is False
    assert clf.trained_with_oversampling is False


def test_train_fourclass_missing_class_rejected():
    fm = _four_blobs()
    keep = fm.labels != "U2R"
    fm2 = FeatureMatrix(values=fm.values[keep], labels=fm.labels[keep])
    with pytest.raises(ValueError, match="U2R"):
        train_fourclass(fm2, tcfg=_tcfg(), dnn=DnnConfig(input_dim=6, hidden_dim=8))


def test_train_fourclass_rejects_foreign_labels():
    fm = _four_blobs()
    labels = fm.labels.copy()
    labels[0] = "Normal"
    foreign = FeatureMatrix(values=fm.values, labels=labels)
    with pytest.raises(ValueError, match="outside"):
        train_fourclass(foreign, tcfg=_tcfg(), dnn=DnnConfig(input_dim=6, hidden_dim=8))


def test_train_fourclass_with_oversampling_balances_counts():
    fm = _four_blobs(counts=(40, 16, 10, 6))
    oversample = SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=1))
    clf, info = train_fourclass(
        fm, oversample=oversample, tcfg=_tcfg(seed=1), dnn=DnnConfig(input_dim=6, hidden_dim=16)
    )
    after = info["class_counts_after"]
    assert len(set(after.values())) == 1  # equalized to the majority count
    assert clf.trained_with_oversampling is True
    before = info["class_counts_before"]
    assert all(after[c] >= before[c] for c in CLASS_ORDER)


def test_train_fourclass_does_not_mutate_input():
    fm = _four_blobs(counts=(20, 10, 8, 6))
    snapshot = fm.values.copy()
    train_fourclass(
        fm,
        oversample=SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3)),
        tcfg=_tcfg(),
        dnn=DnnConfig(input_dim=6, hidden_dim=8),
    )
    assert (fm.values == snapshot).all()


def test_train_fourclass_deterministic():
    fm = _four_blobs()
    models = []
    for _ in range(2):
        clf, _ = train_fourclass(
            fm, tcfg=_tcfg(seed=7), rng=np.random.default_rng(7),
            dnn=DnnConfig(input_dim=6, hidden_dim=8),
        )
        models.append(clf.model)
    for w1, w2 in zip(models[0].weights, models[1].weights):
        assert (w1 == w2).all()


def _evaluate(clf, fm):
    return multiclass_report(fm.labels, predict(clf, fm.values)[0], clf.class_order)


def _uniform_classifier(d=4):
    # zero weights -> uniform softmax everywhere
    model = MlpModel(
        [LayerSpec(d, 4, "softmax")], [np.zeros((4, d))], [np.zeros(4)]
    )
    return AttackClassifier(model=model)


def test_predict_tie_breaks_to_lower_class_index():
    clf = _uniform_classifier()
    cats, probs = predict(clf, np.ones((3, 4)))
    assert (cats == "DoS").all()
    assert np.allclose(probs, 0.25)


def test_predict_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    fm = _four_blobs()
    clf, _ = train_fourclass(fm, tcfg=_tcfg(max_epochs=5), rng=rng,
                             dnn=DnnConfig(input_dim=6, hidden_dim=8))
    _, probs = predict(clf, rng.normal(size=(50, 6)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_predict_width_mismatch():
    clf = _uniform_classifier(d=4)
    with pytest.raises(ValueError):
        predict(clf, np.ones((2, 5)))


def test_evaluate_perfect_predictions():
    fm = _four_blobs(counts=(5, 5, 5, 5))
    clf, _ = train_fourclass(fm, tcfg=_tcfg(max_epochs=60, seed=3),
                             dnn=DnnConfig(input_dim=6, hidden_dim=16))
    report = _evaluate(clf, fm)
    if (predict(clf, fm.values)[0] == fm.labels).all():
        assert np.trace(report.confusion.counts) == 20
        assert all(v == 1.0 for v in report.per_class_f1.values())


def test_evaluate_row_sums_match_true_counts():
    fm = _four_blobs(counts=(12, 9, 7, 5), seed=4)
    clf, _ = train_fourclass(fm, tcfg=_tcfg(max_epochs=5, seed=4),
                             dnn=DnnConfig(input_dim=6, hidden_dim=8))
    report = _evaluate(clf, fm)
    sums = report.confusion.counts.sum(axis=1).tolist()
    assert sums == [12, 9, 7, 5]
    assert report.confusion.total == fm.n_rows


def test_classifier_json_roundtrip():
    fm = _four_blobs()
    clf, _ = train_fourclass(fm, tcfg=_tcfg(max_epochs=3),
                             dnn=DnnConfig(input_dim=6, hidden_dim=8))
    loaded = AttackClassifier.from_json(clf.to_json())
    x = np.random.default_rng(5).normal(size=(10, 6))
    c1, p1 = predict(clf, x)
    c2, p2 = predict(loaded, x)
    assert (c1 == c2).all() and (p1 == p2).all()
    assert loaded.class_order == CLASS_ORDER


def test_classifier_version_guard():
    import json

    from nidkit.errors import VersionSkewError

    clf = _uniform_classifier()
    doc = json.loads(clf.to_json())
    doc["format_version"] = 0
    with pytest.raises(VersionSkewError):
        AttackClassifier.from_json(json.dumps(doc))
