import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nidkit import classifier, neural
from nidkit.classifier import CLASS_ORDER, DnnConfig, train_fourclass
from nidkit.dataset import ATTACK_ID, NORMAL_ID
from nidkit.detector import AutoencoderConfig, train_on_normal
from nidkit.errors import TrainingDivergedError
from nidkit.neural import (
    AdamState,
    EarlyStopper,
    LayerSpec,
    MlpModel,
    TrainConfig,
    _apply_activation,
    forward,
    init_model,
    loss,
    train,
)

from nidkit.pipeline import RunConfig, _fit_baseline
from nidkit.resample import SmoteConfig, SvmSmoteConfig

from . import gradcheck as oracle
from .gradcheck import check_model_gradients, random_small_model


# --- activations -----------------------------------------------------------

def test_relu_values():
    out = _apply_activation("relu", np.array([-1.0, 2.0]))
    assert out.tolist() == [0.0, 2.0]


def test_selu_zero_and_branches():
    assert _apply_activation("selu", np.array([0.0]))[0] == 0.0
    assert _apply_activation("selu", np.array([1.0]))[0] == pytest.approx(neural.SELU_LAMBDA)
    assert _apply_activation("selu", np.array([-1e9]))[0] == pytest.approx(
        -neural.SELU_LAMBDA * neural.SELU_ALPHA
    )


def test_softmax_symmetry_and_props():
    out = _apply_activation("softmax", np.array([0.0, 0.0]))
    assert out.tolist() == [0.5, 0.5]
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 7))
    p = _apply_activation("softmax", z)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9
    assert ((p > 0) & (p < 1)).all()
    shifted = _apply_activation("softmax", z + 123.456)
    assert np.abs(p - shifted).max() < 1e-9


# --- losses ------------------------------------------------------------------

def test_mse_values():
    v, _ = loss("mse", np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert v == 0.0
    v, g = loss("mse", np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert v == 1.0
    assert g.tolist() == [-1.0, -1.0]  # 2*(p-t)/size


def test_cross_entropy_value():
    v, _ = loss("cross_entropy", np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert v == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        loss("mse", np.array([1.0]), np.array([1.0, 2.0]))


# --- forward ------------------------------------------------------------------

def _identity_model(d=3, dropout=0.0, noise=0.0):
    spec = LayerSpec(d, d, "identity", dropout_rate=dropout, noise_sigma=noise)
    return MlpModel([spec], [np.eye(d)], [np.zeros(d)])


def test_forward_identity_passthrough():
    model = _identity_model()
    x = np.array([[1.0, -2.0, 3.0]])
    out = forward(model, x)
    assert (out == x).all()


def test_forward_infer_deterministic():
    model = _identity_model(dropout=0.5, noise=0.1)  # stochastic only in training
    x = np.random.default_rng(0).normal(size=(5, 3))
    a = forward(model, x)
    b = forward(model, x)
    assert (a == b).all()


def test_forward_train_dropout_reproducible():
    model = _identity_model(dropout=0.5)
    x = np.ones((4, 3))
    a, _ = oracle.forward(model, x, np.random.default_rng(42))
    b, _ = oracle.forward(model, x, np.random.default_rng(42))
    assert (a == b).all()
    c, _ = oracle.forward(model, x, np.random.default_rng(43))
    assert (a != c).any()


def test_forward_width_mismatch():
    with pytest.raises(ValueError):
        forward(_identity_model(3), np.ones((2, 4)))


def test_softmax_only_on_the_output_layer():
    layers = [LayerSpec(2, 3, "softmax"), LayerSpec(3, 2, "identity")]
    with pytest.raises(ValueError, match="softmax"):
        MlpModel(layers, [np.zeros((3, 2)), np.zeros((2, 3))], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError, match="softmax"):
        init_model(layers, np.random.default_rng(0))


def test_weights_and_biases_are_views_into_params():
    model = init_model([LayerSpec(3, 2, "relu"), LayerSpec(2, 4)], np.random.default_rng(0))
    assert model.params.shape == (model.params.size,) == (3 * 2 + 2 + 2 * 4 + 4,)
    model.params[:] = np.arange(model.params.size)
    assert model.weights[0].tolist() == [[0, 1, 2], [3, 4, 5]]
    assert model.biases[0].tolist() == [6, 7]
    assert model.biases[1].tolist() == [16, 17, 18, 19]


def test_dropout_preserves_expectation():
    d = 6
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 1.5, size=(d, d))
    spec = LayerSpec(d, d, "identity", dropout_rate=0.5)
    model = MlpModel([spec], [w], [np.zeros(d)])
    x = rng.uniform(1.0, 2.0, size=(1, d))
    clean = forward(model, x)
    # 2e4 masks at once: each batch row draws its own mask
    big, _ = oracle.forward(model, np.repeat(x, 20000, axis=0), np.random.default_rng(3))
    averaged = big.mean(axis=0)
    assert np.abs(averaged - clean[0]).max() < 0.02 * np.abs(clean[0]).max()


# --- backward -----------------------------------------------------------------

def test_backward_zero_loss_grad_gives_zero_grads():
    rng = np.random.default_rng(0)
    model = random_small_model(rng)
    x = rng.normal(size=(3, model.in_dim))
    out, cache = oracle.forward(model, x)
    grads = oracle.backward(model, cache, np.zeros_like(out))
    for dw, db in grads:
        assert (dw == 0).all() and (db == 0).all()


def test_backward_linear_mse_closed_form():
    rng = np.random.default_rng(5)
    n, d = 12, 4
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, 1))
    w = rng.normal(size=(1, d))
    model = MlpModel([LayerSpec(d, 1, "identity")], [w.copy()], [np.zeros(1)])
    out, cache = oracle.forward(model, x)
    _, grad = loss("mse", out, y)
    (dw, db), = oracle.backward(model, cache, grad)
    expected_dw = 2.0 / n * x.T @ (x @ w.T - y)
    assert np.abs(dw - expected_dw.T).max() < 1e-12
    assert db[0] == pytest.approx(2.0 / n * (x @ w.T - y).sum(), abs=1e-12)


def test_backward_stale_cache_rejected():
    rng = np.random.default_rng(0)
    model = random_small_model(rng)
    other = model.copy()
    x = rng.normal(size=(2, model.in_dim))
    out, cache = oracle.forward(model, x)
    with pytest.raises(ValueError, match="stale"):
        oracle.backward(other, cache, np.zeros_like(out))


def test_gradient_check_sample():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        model = random_small_model(rng)
        assert check_model_gradients(model, rng)


def test_gradient_check_with_dropout_masks_reused():
    # dropout gradients flow through the exact masks stored in the cache:
    # scaling the mask path by hand must match the oracle's backward()
    rng = np.random.default_rng(3)
    d = 4
    w = rng.normal(size=(2, d))
    spec = LayerSpec(d, 2, "identity", dropout_rate=0.5)
    model = MlpModel([spec], [w.copy()], [np.zeros(2)])
    x = rng.normal(size=(5, d))
    out, cache = oracle.forward(model, x, np.random.default_rng(11))
    t = rng.normal(size=out.shape)
    _, grad = loss("mse", out, t)
    (dw, _), = oracle.backward(model, cache, grad)
    dropped = cache.inputs[0]  # input after mask/scaling
    assert np.abs(dw - grad.T @ dropped).max() < 1e-12


# --- adam ---------------------------------------------------------------------

def test_adam_zero_gradient_is_identity():
    p = np.array([1.0, -2.0])
    state = AdamState(p.size)
    state.step(p, np.zeros(2))
    assert p.tolist() == [1.0, -2.0]
    assert state.t == 1


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    state = AdamState(p.size)
    state.step(p, np.array([1.0]))
    assert abs(-p[0] - 0.001) < 1e-9  # m_hat = v_hat = 1 at t=1


def test_adam_decreases_quadratic():
    w = np.array([1.0])
    state = AdamState(w.size)
    losses = [w[0] ** 2]
    for _ in range(2):
        state.step(w, 2.0 * w)
        losses.append(w[0] ** 2)
    assert losses[1] < losses[0] and losses[2] < losses[1]


@pytest.mark.parametrize("t", [0, 345, 37_400])
def test_adam_matches_the_allocating_oracle_across_the_skipped_divisions(t):
    # the 20 steps after t cross the step where bc1 (356), then bc2
    # (37,412), reaches 1.0 and its division is skipped
    rng = np.random.default_rng(t)
    m, v = rng.normal(size=7), rng.random(7)
    got, want = AdamState(7), AdamState(7)
    for state in (got, want):
        state.t, state.m[:], state.v[:] = t, m, v
    p = rng.normal(size=7)
    q = p.copy()
    for _ in range(20):
        grad = rng.normal(size=7)
        got.step(p, grad)
        oracle.adam_step(want, q, grad)
    assert p.tobytes() == q.tobytes()
    assert got.m.tobytes() == want.m.tobytes() and got.v.tobytes() == want.v.tobytes()


def test_adam_shape_mismatch():
    p = np.zeros(3)
    state = AdamState(p.size)
    with pytest.raises(ValueError):
        state.step(p, np.zeros(4))


# --- training loop --------------------------------------------------------------

def test_early_stopper_exact_patience():
    stopper = EarlyStopper(patience=6)
    assert stopper.update(1.0) is False
    stops = [stopper.update(1.0) for _ in range(6)]
    assert stops == [False] * 5 + [True]


def test_early_stopper_resets_on_improvement():
    stopper = EarlyStopper(patience=2)
    stopper.update(1.0)
    assert stopper.update(2.0) is False
    assert stopper.update(0.5) is False  # improvement resets the counter
    assert stopper.update(0.6) is False
    assert stopper.update(0.7) is True


def _blob_data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n // 2, 3)) + np.array([2.0, 0.0, 0.0])
    b = rng.normal(0.0, 0.3, size=(n // 2, 3)) - np.array([2.0, 0.0, 0.0])
    x = np.vstack([a, b])
    t = np.zeros((n, 2))
    t[: n // 2, 0] = 1.0
    t[n // 2 :, 1] = 1.0
    return x, t


def test_train_reduces_loss_and_freezes():
    x, t = _blob_data()
    rng = np.random.default_rng(0)
    model = init_model([LayerSpec(3, 8, "relu"), LayerSpec(8, 2, "softmax")], rng)
    cfg = TrainConfig(max_epochs=30)
    trained, history = train(model, x[::2], t[::2], cfg, rng, (x[1::2], t[1::2]))
    assert history.train_loss[-1] < history.train_loss[0]
    with pytest.raises(ValueError):
        trained.weights[0][0, 0] = 99.0  # frozen arrays are read-only


def test_train_returns_best_validation_params():
    x, t = _blob_data(n=40, seed=3)
    rng = np.random.default_rng(1)
    model = init_model([LayerSpec(3, 16, "relu"), LayerSpec(16, 2, "softmax")], rng)
    cfg = TrainConfig(max_epochs=40, patience=6)
    trained, history = train(model, x[::2], t[::2], cfg, rng, (x[1::2], t[1::2]))
    assert history.best_epoch == int(np.argmin(history.val_loss))
    # patience: after the best epoch, at most `patience` more epochs ran
    assert history.n_epochs - 1 - history.best_epoch <= cfg.patience


def test_train_deterministic_per_seed():
    x, t = _blob_data(seed=5)
    results = []
    for _ in range(2):
        rng = np.random.default_rng(9)
        model = init_model([LayerSpec(3, 5, "selu"), LayerSpec(5, 2, "softmax")], rng)
        trained, _ = train(
            model, x[::2], t[::2], TrainConfig(max_epochs=8), rng, (x[1::2], t[1::2])
        )
        results.append(trained)
    for w1, w2 in zip(results[0].weights, results[1].weights):
        assert (w1 == w2).all()
    for b1, b2 in zip(results[0].biases, results[1].biases):
        assert (b1 == b2).all()


def test_train_empty_data_rejected():
    model = init_model([LayerSpec(2, 3, "relu"), LayerSpec(3, 2)], np.random.default_rng(0))
    with pytest.raises(ValueError):
        train(model, np.empty((0, 2)), np.empty((0, 2)), TrainConfig(),
              np.random.default_rng(0), (np.empty((0, 2)), np.empty((0, 2))))


def test_train_does_not_mutate_input_model():
    x, t = _blob_data()
    rng = np.random.default_rng(4)
    model = init_model([LayerSpec(3, 4, "relu"), LayerSpec(4, 2, "softmax")], rng)
    snapshot = [w.copy() for w in model.weights]
    train(model, x, t, TrainConfig(max_epochs=3), rng, (x, t))
    for w, s in zip(model.weights, snapshot):
        assert (w == s).all()


@pytest.mark.parametrize("dims", [(3, 2), (3, 4, 4, 2)])
def test_train_refuses_other_depths_before_any_draw(dims):
    layers = [LayerSpec(a, b, "relu") for a, b in zip(dims, dims[1:])]
    model = init_model(layers, np.random.default_rng(0))
    x, t = np.ones((4, dims[0])), np.ones((4, dims[-1]))
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="two-layer"):
        train(model, x, t, TrainConfig(), rng, (x, t))
    assert rng.bit_generator.state == state


_rates = st.sampled_from([0.0, 0.25, 0.5])


@settings(max_examples=60, deadline=None)
@given(hidden=st.sampled_from(["relu", "selu", "identity"]),
       output=st.sampled_from(["softmax", "identity", "relu", "selu"]),
       noise=st.tuples(_rates, _rates), dropout=st.tuples(_rates, _rates),
       dims=st.tuples(st.integers(1, 5), st.integers(1, 6), st.integers(1, 4)),
       batch_size=st.integers(2, 9), rows=st.integers(1, 30),
       patience=st.integers(1, 3), own_validation=st.booleans(),
       seed=st.integers(0, 2**16))
def test_train_equals_the_per_layer_oracle_bit_for_bit(
        hidden, output, noise, dropout, dims, batch_size, rows, patience,
        own_validation, seed):
    # neural.train's straight-line step against the per-layer loop it
    # replaced: forward with cache, loss, backward, concatenate, allocating
    # Adam; any reordered operation or draw changes a bit
    rng = np.random.default_rng(seed)
    layers = [LayerSpec(dims[0], dims[1], hidden, dropout[0], noise[0]),
              LayerSpec(dims[1], dims[2], output, dropout[1], noise[1])]
    model = init_model(layers, rng)
    x = rng.normal(size=(rows, dims[0]))
    if output == "softmax":
        t = np.eye(dims[2])[rng.integers(0, dims[2], size=rows)]
    else:
        t = rng.normal(size=(rows, dims[2]))
    val = (x[: rows // 2 + 1], t[: rows // 2 + 1]) if own_validation else (x[:0], t[:0])
    cfg = TrainConfig(batch_size=batch_size, patience=patience, max_epochs=8)
    got, got_history = train(model, x, t, cfg, np.random.default_rng(seed + 1), val)
    want, want_history = oracle.train(model, x, t, cfg, np.random.default_rng(seed + 1), val)
    assert got.params.tobytes() == want.params.tobytes()
    for name in ("train_loss", "val_loss"):
        got_losses, want_losses = getattr(got_history, name), getattr(want_history, name)
        assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes(), name
    assert got_history.best_epoch == want_history.best_epoch
    assert got_history.n_epochs == want_history.n_epochs


# --- serialization -----------------------------------------------------------

def test_model_json_roundtrip():
    rng = np.random.default_rng(8)
    model = init_model(
        [LayerSpec(4, 3, "selu", dropout_rate=0.05, noise_sigma=0.15), LayerSpec(3, 4)], rng
    )
    loaded = MlpModel.from_json(model.to_json())
    x = rng.normal(size=(6, 4))
    a = forward(model, x)
    b = forward(loaded, x)
    assert (a == b).all()
    assert loaded.layers == model.layers


def test_model_json_version_guard():
    rng = np.random.default_rng(8)
    model = init_model([LayerSpec(2, 2)], rng)
    import json

    doc = json.loads(model.to_json())
    doc["format_version"] = 42
    with pytest.raises(ValueError, match="version"):
        MlpModel.from_json(json.dumps(doc))


def test_train_diverging_before_any_finite_epoch_raises_typed_error():
    # one huge cell overflows the first updates, so no epoch has a finite loss
    rng = np.random.default_rng(0)
    model = init_model([LayerSpec(4, 3, "selu"), LayerSpec(3, 4, "selu")], rng)
    x = rng.normal(size=(40, 4))
    x[5, 2] = 1e200
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError, match="epoch 0"):
        train(model, x, x, TrainConfig(max_epochs=5), rng, (x, x))


# --- golden networks --------------------------------------------------------------

def _net_digest(model, n_epochs, best_epoch):
    """(SHA-256 of the float64 bytes of each layer's weights then biases,
    in layer order, n_epochs, best_epoch)."""
    h = hashlib.sha256()
    for w, b in zip(model.weights, model.biases):
        h.update(np.ascontiguousarray(w, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(b, dtype=np.float64).tobytes())
    return h.hexdigest(), n_epochs, best_epoch


def _golden_attacks():
    """Imbalanced, overlapping four-class set, so SVM-SMOTE adds rows."""
    rng = np.random.default_rng(20241)
    values, labels = [], []
    for i, n in enumerate((60, 24, 10, 6)):  # attack id i
        center = np.zeros(5)
        center[i] = 2.0
        values.append(center + rng.normal(0.0, 1.0, size=(n, 5)))
        labels += [i] * n
    return np.vstack(values), np.array(labels)


def test_golden_network_digests(monkeypatch):
    # any change to init, noise/dropout draws, batching, the loss gradient,
    # the Adam arithmetic or the kept epoch changes a digest
    rng = np.random.default_rng(20240)
    normals = rng.normal(size=(120, 8))
    model, history = train_on_normal(
        normals[:96], AutoencoderConfig(input_dim=8, hidden_dim=3),
        TrainConfig(max_epochs=12, patience=3), np.random.default_rng(1),
        validation=normals[96:],
    )
    assert _net_digest(model, history.n_epochs, history.best_epoch) == (
        "bc7c7225e4efbca6103c4c9fd4206899436bc03ae6233f8d1d704bfd2e5da103", 12, 11)

    attack_values, attack_labels = _golden_attacks()
    dnn = DnnConfig(input_dim=5, hidden_dim=12)
    oversample = SvmSmoteConfig(smote=SmoteConfig(k_neighbors=3, seed=1), m_neighbors=5)
    for variant, smote, want in (
        ("plain", None,
         ("0bed2cbc7328c28583cdd40843e3a246119a58a58d12d387d064ba863613de79", 181, 174)),
        ("oversampled", oversample,
         ("7b6ba00c49c1317dd26a0751b5693589c2b85b5dd4b6f1c2a8e5c969cfc85124", 128, 121)),
    ):
        clf, info = train_fourclass(attack_values, attack_labels, 0.15, TrainConfig(),
                                    np.random.default_rng(17), oversample=smote, dnn=dnn)
        if smote is not None:
            assert (sum(info["class_counts_after"].values())
                    > sum(info["class_counts_before"].values()))
        assert _net_digest(clf.model, info["epochs"], info["best_epoch"]) == want, variant

    # the MLP baseline: train_network on a validation pair from the stratified split
    trained = []

    def recording_train_network(*args, **kwargs):
        assert len(kwargs["validation"][0]) > 0
        trained.append(real_train_network(*args, **kwargs))
        return trained[-1]

    real_train_network = classifier.train_network
    monkeypatch.setattr(classifier, "train_network", recording_train_network)
    labels = np.where(attack_labels == CLASS_ORDER.index("DoS"), NORMAL_ID, ATTACK_ID)
    _fit_baseline("mlp", attack_values, labels, RunConfig(max_epochs=15, seed=4))
    (mlp, mlp_history), = trained
    assert _net_digest(mlp, mlp_history.n_epochs, mlp_history.best_epoch) == (
        "4996fc6af9aead9328df34f049aa02f81653c79a34eeb7d05a24bba55ca6c75d", 15, 14)
