import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit import detector, neural, pipeline
from nidkit.dataset import ATTACK_ID, BINARY_CLASSES, CATEGORIES, NORMAL_CATEGORY, NORMAL_ID
from nidkit.detector import (
    AnomalyDetector,
    _best_f1_threshold,
    AutoencoderConfig,
    calibrate_threshold,
    nearest_rank_quantile,
    reconstruction_errors,
    scores_to_csv,
    train_on_normal,
    verdict_array,
)
from nidkit.neural import LayerSpec, MlpModel, TrainConfig

from .f1_oracle import best_f1_threshold


def _normal_blob(n=80, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, d))


def _small_ae_cfg(d=8, hidden=3):
    return AutoencoderConfig(input_dim=d, hidden_dim=hidden)


def _row_error(model, x):
    return float(reconstruction_errors(model, x[None, :])[0])


def test_autoencoder_config_shape():
    layers = AutoencoderConfig().layers()
    assert (layers[0].in_dim, layers[0].out_dim) == (41, 15)
    assert (layers[1].in_dim, layers[1].out_dim) == (15, 41)
    assert layers[0].activation == "selu"
    assert layers[0].noise_sigma == 0.15 and layers[0].dropout_rate == 0.05
    assert layers[1].noise_sigma == 0.0 and layers[1].dropout_rate == 0.0
    with pytest.raises(ValueError):
        AutoencoderConfig(input_dim=10, hidden_dim=10)


def test_train_on_normal_rejects_attacks(tmp_path, monkeypatch):
    # train_on_normal takes unlabeled rows, so the binary stage selects them:
    # every attack row is kept out of the autoencoder's training and
    # validation rows, and the two sets share out all the normal rows
    n_normal, n_attack = 30, 40
    cats = np.array([NORMAL_CATEGORY] * n_normal
                    + [c for c in range(len(CATEGORIES)) if c != NORMAL_CATEGORY] * (n_attack // 4))
    rng = np.random.default_rng(0)
    values = rng.normal(0.0, 1.0, size=(len(cats), 41))
    values[cats != NORMAL_CATEGORY, 0] = 100.0  # marks the attack rows
    real = detector.train_on_normal
    seen = []

    def recording(normals, cfg, tcfg, rng, validation):
        seen.append((normals, validation))
        return real(normals, cfg, tcfg, rng, validation=validation)

    monkeypatch.setattr(detector, "train_on_normal", recording)
    cfg = pipeline.RunConfig(out_dir=str(tmp_path), max_epochs=2)
    pipeline._train_binary(cfg, cats, values)
    ((normals, validation),) = seen
    assert len(normals) and len(validation)
    assert not (normals[:, 0] == 100.0).any() and not (validation[:, 0] == 100.0).any()
    normal_rows = {row.tobytes() for row in values[cats == NORMAL_CATEGORY]}
    assert all(row.tobytes() in normal_rows for row in (*normals, *validation))
    assert len(normals) + len(validation) == n_normal


def test_train_on_normal_improves_and_separates():
    normals = _normal_blob(n=120, seed=1)
    cfg = _small_ae_cfg()
    model, history = train_on_normal(
        normals, cfg, TrainConfig(max_epochs=40, patience=6), np.random.default_rng(1),
        validation=_normal_blob(n=30, seed=3),
    )
    assert history.val_loss[history.best_epoch] < history.val_loss[0] or history.n_epochs == 1
    assert model.in_dim == 8 and model.out_dim == 8
    shifted = _normal_blob(n=40, seed=2) + 6.0
    normal_err = reconstruction_errors(model, normals).mean()
    attack_err = reconstruction_errors(model, shifted).mean()
    assert normal_err < attack_err


def test_reconstruction_error_identity_model():
    model = MlpModel([LayerSpec(4, 4, "identity")], [np.eye(4)], [np.zeros(4)])
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert _row_error(model, x) == 0.0


def test_reconstruction_error_deterministic():
    rng = np.random.default_rng(3)
    model = neural.init_model(_small_ae_cfg().layers(), rng)
    x = rng.normal(size=8)
    assert _row_error(model, x) == _row_error(model, x)


def test_reconstruction_error_width_mismatch():
    model = MlpModel([LayerSpec(4, 4)], [np.eye(4)], [np.zeros(4)])
    with pytest.raises(ValueError):
        reconstruction_errors(model, np.ones((2, 5)))


def test_reconstruction_error_against_manual_forward():
    # independent oracle: explicit selu + matmul reimplementation
    rng = np.random.default_rng(4)
    cfg = _small_ae_cfg(d=6, hidden=2)
    model = neural.init_model(cfg.layers(), rng)
    w1, w2 = model.weights
    b1, b2 = model.biases
    lam, alpha = 1.0507009873554805, 1.6732632423543772

    def manual_error(x):
        z = w1 @ x + b1
        h = np.where(z > 0, lam * z, lam * alpha * (np.exp(z) - 1.0))
        recon = w2 @ h + b2
        return float(((x - recon) ** 2).sum())

    for delta in (0.0, 0.25):
        x = rng.normal(size=6) + delta
        assert abs(_row_error(model, x) - manual_error(x)) < 1e-9


def test_quantile_nearest_rank():
    errors = np.arange(1.0, 101.0)
    assert nearest_rank_quantile(errors, 0.95) == 95.0
    assert nearest_rank_quantile(np.array([7.0, 7.0, 7.0]), 0.95) == 7.0
    assert nearest_rank_quantile(errors, 1.0) == 100.0


def test_calibrate_quantile_uses_normal_rows():
    model = MlpModel([LayerSpec(1, 1, "identity")], [np.zeros((1, 1))], [np.zeros(1)])
    # reconstruction of 0 -> error = x^2
    values = np.array([[float(i)] for i in range(1, 11)])
    labels = np.full(len(values), NORMAL_ID)
    alpha, info = calibrate_threshold(model, values, labels, method="quantile", q=0.95)
    assert alpha == 100.0  # 10th of {1,4,...,100}
    assert info["method"] == "quantile"


def test_calibrate_labeled_f1_separated():
    model = MlpModel([LayerSpec(1, 1, "identity")], [np.zeros((1, 1))], [np.zeros(1)])
    values = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
    labels = np.array([NORMAL_ID] * 3 + [ATTACK_ID] * 3)
    alpha, info = calibrate_threshold(model, values, labels, method="labeled_f1", q=0.95)
    assert info["validation_f1"] == 1.0
    assert 9.0 <= alpha < 100.0  # any threshold between the populations
    errors = reconstruction_errors(model, values)
    verdicts = np.where(errors > alpha, ATTACK_ID, NORMAL_ID)
    assert (verdicts == labels).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_best_f1_threshold_matches_the_per_cut_oracle(data):
    # few distinct errors among many rows, so most cuts share a value and
    # many cuts tie on F1: alpha and F1 must equal the loop's bit for bit
    draw = data.draw
    n = draw(st.integers(1, 80))
    levels = draw(st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=6))
    errors = np.array(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.sampled_from([NORMAL_ID, ATTACK_ID]),
                                    min_size=n, max_size=n)))
    got = _best_f1_threshold(errors, labels)
    want = best_f1_threshold(errors, labels)
    assert got == want


def test_best_f1_threshold_tie_goes_to_the_smallest_alpha():
    # cutting at 1.0 or at 4.0 both give F1 = 2/3; the smaller alpha wins
    errors = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    labels = np.array([NORMAL_ID, ATTACK_ID, NORMAL_ID, NORMAL_ID, ATTACK_ID])
    assert _best_f1_threshold(errors, labels) == (1.0, 2.0 / 3.0)


def test_calibrate_labeled_f1_needs_both_classes():
    model = MlpModel([LayerSpec(1, 1)], [np.eye(1)], [np.zeros(1)])
    with pytest.raises(ValueError, match="both"):
        calibrate_threshold(model, np.ones((3, 1)), np.full(3, NORMAL_ID), "labeled_f1", 0.95)


def test_calibrate_empty_validation():
    model = MlpModel([LayerSpec(1, 1)], [np.eye(1)], [np.zeros(1)])
    with pytest.raises(ValueError, match="empty"):
        calibrate_threshold(model, np.empty((0, 1)), np.array([], dtype=np.intp), "quantile", 0.95)


def _zero_model(d=1):
    return MlpModel([LayerSpec(d, d, "identity")], [np.zeros((d, d))], [np.zeros(d)])


def test_detect_boundary_is_normal():
    det = AnomalyDetector(model=_zero_model(), alpha=4.0, calibration={"method": "quantile"})
    # errors are x^2: 4.0 sits exactly on alpha -> normal; above -> attack
    errors, verdicts = verdict_array(det, np.array([[2.0], [2.0001], [1.0]]))
    assert verdicts.tolist() == [NORMAL_ID, ATTACK_ID, NORMAL_ID]
    assert errors[0] == 4.0


def test_detect_monotone_in_alpha():
    rng = np.random.default_rng(7)
    values = rng.normal(size=(50, 3))
    model = MlpModel([LayerSpec(3, 3, "identity")], [np.zeros((3, 3))], [np.zeros(3)])
    errors = reconstruction_errors(model, values)
    ladder = np.sort(rng.uniform(errors.min(), errors.max(), size=12))
    previous = None
    for alpha in ladder:
        det = AnomalyDetector(model=model, alpha=float(alpha), calibration={})
        flagged = set(np.nonzero(verdict_array(det, values)[1] == ATTACK_ID)[0].tolist())
        if previous is not None:
            assert flagged <= previous
        previous = flagged


def test_verdict_consistent_with_stored_error():
    det = AnomalyDetector(model=_zero_model(3), alpha=1.5, calibration={})
    values = np.random.default_rng(8).normal(size=(30, 3))
    for e, v in zip(*verdict_array(det, values)):
        assert v == (ATTACK_ID if e > det.alpha else NORMAL_ID)


def test_detector_json_roundtrip_identical_verdicts():
    # an artifact holds a network over the 41 features
    rng = np.random.default_rng(9)
    model = neural.init_model(AutoencoderConfig().layers(), rng)
    det = AnomalyDetector(model=model, alpha=2.5, calibration={"method": "quantile", "q": 0.95})
    loaded = AnomalyDetector.from_json(det.to_json())
    values = rng.normal(size=(20, 41))
    e1, v1 = verdict_array(det, values)
    e2, v2 = verdict_array(loaded, values)
    assert (e1 == e2).all() and (v1 == v2).all()
    assert loaded.calibration == det.calibration


def test_detector_version_guard():
    import json

    det = AnomalyDetector(model=_zero_model(), alpha=1.0, calibration={})
    doc = json.loads(det.to_json())
    doc["format_version"] = 99
    from nidkit.errors import VersionSkewError

    with pytest.raises(VersionSkewError):
        AnomalyDetector.from_json(json.dumps(doc))


def test_scores_csv_shape():
    text = scores_to_csv(np.array([1.0, 2.0]), np.array([NORMAL_ID, ATTACK_ID]))
    lines = text.splitlines()
    assert lines[0] == "row_index,reconstruction_error,verdict"
    assert lines[1].startswith("0,") and lines[1].endswith(",normal")
    assert lines[2].startswith("1,") and lines[2].endswith(",attack")


def test_scores_csv_errors_read_back_bit_for_bit():
    rng = np.random.default_rng(10)
    model = neural.init_model(_small_ae_cfg().layers(), rng)
    det = AnomalyDetector(model=model, alpha=8.0, calibration={})
    errors, verdicts = verdict_array(det, rng.normal(size=(200, 8)) * rng.exponential(size=(200, 1)))
    rows = [line.split(",") for line in scores_to_csv(errors, verdicts).splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(200))
    assert np.array([float(r[1]) for r in rows]).tobytes() == errors.tobytes()
    assert [r[2] for r in rows] == [BINARY_CLASSES[v] for v in verdicts]


def test_alpha_must_be_positive():
    with pytest.raises(ValueError):
        AnomalyDetector(model=_zero_model(), alpha=0.0, calibration={})
