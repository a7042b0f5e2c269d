"""Minimal dense neural-network engine built on numpy.

Supports exactly what the networks in this toolkit need: ReLU /
SeLU / softmax / identity activations, additive Gaussian input noise
and inverted dropout (applied only in training), bias-corrected Adam
over one flat parameter buffer, shuffled mini-batches, and early
stopping. ``train`` fits two-layer networks, the only depth the toolkit
builds, in one straight-line step per batch; the per-layer loop it must
equal bit for bit lives in ``tests/gradcheck.py``. ``forward`` is
inference only. ``train`` takes the training rows and their targets as
two row-aligned float64 arrays, and the validation rows as
a (values, targets) pair of such arrays; the caller draws that split
(``classifier._stratified_split``), so the validation fraction is its
setting. The output layer picks the loss: cross-entropy after a softmax,
MSE otherwise.
Everything is float64 and deterministic given a seed: all randomness
flows through an explicit ``numpy.random.Generator`` and the draw order
is fixed by the layer configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDivergedError, VersionSkewError, reading

MODEL_FORMAT_VERSION = 1

# Standard self-normalizing constants.
SELU_LAMBDA = 1.0507009873554805
SELU_ALPHA = 1.6732632423543772

ACTIVATIONS = ("relu", "selu", "softmax", "identity")

# Adam step size (the paper's), moment decays and guard (Kingma & Ba, 2015).
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LayerSpec:
    """One dense layer. Noise and dropout act on the layer *input*, and
    only in training; inference is deterministic."""

    in_dim: int
    out_dim: int
    activation: str = "identity"
    dropout_rate: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


class MlpModel:
    """Dense MLP: ordered layers with (out x in) weight matrices.

    All parameters live in one flat float64 vector ``params`` (W0, b0,
    W1, b1, ...); ``weights[i]`` and ``biases[i]`` are views into it.
    Models returned by :func:`train` are frozen with read-only arrays.
    """

    def __init__(
        self,
        layers: list[LayerSpec],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ) -> None:
        if not layers:
            raise ValueError("model needs at least one layer")
        if any(spec.activation == "softmax" for spec in layers[:-1]):
            raise ValueError("softmax is only supported on the output layer")
        if len(weights) != len(layers) or len(biases) != len(layers):
            raise ValueError("weights/biases count must match layer count")
        for i, (spec, w, b) in enumerate(zip(layers, weights, biases)):
            if w.shape != (spec.out_dim, spec.in_dim):
                raise ValueError(f"layer {i}: weight shape {w.shape} != {(spec.out_dim, spec.in_dim)}")
            if b.shape != (spec.out_dim,):
                raise ValueError(f"layer {i}: bias shape {b.shape} != {(spec.out_dim,)}")
            if i > 0 and spec.in_dim != layers[i - 1].out_dim:
                raise ValueError(f"layer {i} in_dim {spec.in_dim} != previous out_dim")
        self.layers = list(layers)
        self.params = np.concatenate(
            [np.ravel(a) for pair in zip(weights, biases) for a in pair], dtype=np.float64
        )
        self.weights, self.biases = [], []
        start = 0
        for spec in self.layers:
            end = start + spec.out_dim * spec.in_dim
            self.weights.append(self.params[start:end].reshape(spec.out_dim, spec.in_dim))
            self.biases.append(self.params[end : end + spec.out_dim])
            start = end + spec.out_dim

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def copy(self) -> "MlpModel":
        return MlpModel(self.layers, self.weights, self.biases)

    def freeze(self) -> "MlpModel":
        for arr in (self.params, *self.weights, *self.biases):
            arr.flags.writeable = False
        return self

    def to_json(self) -> str:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "mlp",
            "layers": [
                {
                    "in_dim": s.in_dim,
                    "out_dim": s.out_dim,
                    "activation": s.activation,
                    "dropout_rate": s.dropout_rate,
                    "noise_sigma": s.noise_sigma,
                }
                for s in self.layers
            ],
            # row-major flat lists, one per layer
            "weights": [w.ravel().tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MlpModel":
        """Raises VersionSkewError for text that is not a network of this format."""
        with reading("network"):
            doc = json.loads(text)
            version = doc.get("format_version")
            if version != MODEL_FORMAT_VERSION:
                raise VersionSkewError(f"model format version {version!r} unsupported "
                                       f"(expected {MODEL_FORMAT_VERSION})")
            layers = [LayerSpec(**spec) for spec in doc["layers"]]
            weights = [
                np.array(flat, dtype=np.float64).reshape(s.out_dim, s.in_dim)
                for flat, s in zip(doc["weights"], layers)
            ]
            biases = [np.array(b, dtype=np.float64) for b in doc["biases"]]
            model = cls(layers=layers, weights=weights, biases=biases)
            if not np.isfinite(model.params).all():
                raise ValueError("network has a non-finite weight or bias")
            return model.freeze()


def init_model(layers: list[LayerSpec], rng: np.random.Generator) -> MlpModel:
    """He-uniform for relu, LeCun-normal for selu, Glorot-uniform otherwise."""
    weights, biases = [], []
    for spec in layers:
        fan_in, fan_out = spec.in_dim, spec.out_dim
        if spec.activation == "relu":
            bound = math.sqrt(6.0 / fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        elif spec.activation == "selu":
            w = rng.normal(0.0, math.sqrt(1.0 / fan_in), size=(fan_out, fan_in))
        else:
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return MlpModel(layers=layers, weights=weights, biases=biases)


# --- activations --------------------------------------------------------

def _apply_activation(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "selu":
        return np.where(z > 0, SELU_LAMBDA * z, SELU_LAMBDA * SELU_ALPHA * np.expm1(np.minimum(z, 0.0)))
    if kind == "softmax":
        # ndarray.max and .sum are these reductions behind a Python wrapper
        e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
        return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)
    if kind == "identity":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def _activation_backward(kind: str, z: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """dL/dz given dL/da and the pre-activations z."""
    if kind == "relu":
        return upstream * (z > 0)
    if kind == "selu":
        deriv = np.where(z > 0, SELU_LAMBDA, SELU_LAMBDA * SELU_ALPHA * np.exp(np.minimum(z, 0.0)))
        return upstream * deriv
    # identity; a softmax output receives its loss gradient at z already
    return upstream


# --- losses -------------------------------------------------------------

def loss(kind: str, prediction: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Return (scalar loss, gradient). For mse the gradient is w.r.t. the
    prediction; for cross_entropy the prediction holds softmax outputs and
    the gradient is w.r.t. the softmax preactivations."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    if kind == "mse":
        diff = prediction - target
        return float((diff * diff).mean()), 2.0 * diff / diff.size
    if kind == "cross_entropy":
        rows = prediction.shape[0] if prediction.ndim == 2 else 1
        value = float(-(target * np.log(np.maximum(prediction, 1e-12))).sum() / rows)
        return value, (prediction - target) / rows
    raise ValueError(f"unknown loss {kind!r}")


# --- inference ------------------------------------------------------------

def forward(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Run the network on a batch of rows, without noise or dropout."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(f"batch width {batch.shape} does not match input dim {model.in_dim}")
    x = batch
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        x = _apply_activation(spec.activation, x @ w.T + b)
    return x


# --- Adam ---------------------------------------------------------------

class AdamState:
    """First/second-moment accumulators for one flat parameter vector, and
    the two work arrays an update writes its intermediates into."""

    def __init__(self, size: int) -> None:
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._step = np.empty(size)
        self._scale = np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One bias-corrected Adam update of ``params`` in place:
        ``params -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``, operation by
        operation in that order. A correction reaches exactly 1.0 (bc1 at
        step 356, bc2 at step 37,412); dividing by it would copy its operand
        bit for bit, so that division is skipped."""
        if params.shape != self.m.shape or grad.shape != self.m.shape:
            raise ValueError(f"shape mismatch: param {params.shape}, grad {grad.shape}")
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        step, scale = self._step, self._scale
        self.m *= ADAM_BETA1
        self.m += np.multiply(grad, 1.0 - ADAM_BETA1, out=step)
        self.v *= ADAM_BETA2
        self.v += np.multiply(np.multiply(grad, grad, out=step), 1.0 - ADAM_BETA2, out=step)
        np.multiply(self.m if bc1 == 1.0 else np.divide(self.m, bc1, out=step), ADAM_LR, out=step)
        np.sqrt(self.v if bc2 == 1.0 else np.divide(self.v, bc2, out=scale), out=scale)
        scale += ADAM_EPS
        step /= scale
        params -= step


# --- training loop ------------------------------------------------------

class EarlyStopper:
    """Stop when validation loss fails to improve for `patience` epochs."""

    def __init__(self, patience: int) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best: float | None = None
        self.counter = 0

    def update(self, val_loss: float) -> bool:
        if self.best is None or val_loss < self.best:
            self.best = val_loss
            self.counter = 0
        else:
            self.counter += 1
        return self.counter >= self.patience


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    patience: int = 6
    max_epochs: int = 200

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    n_epochs: int = 0


def _corrupt(spec: LayerSpec, x: np.ndarray, rng: np.random.Generator
             ) -> tuple[np.ndarray, np.ndarray | None]:
    """A layer's training input: its noise, then its dropout, drawn from
    ``rng`` in that order; also the dropout mask (None without dropout)."""
    mask = None
    if spec.noise_sigma > 0:
        x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
    if spec.dropout_rate > 0:
        mask = rng.random(x.shape) >= spec.dropout_rate
        x = x * mask / (1.0 - spec.dropout_rate)
    return x, mask


def train(
    model: MlpModel,
    data: np.ndarray,
    targets: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    validation: tuple[np.ndarray, np.ndarray],
) -> tuple[MlpModel, TrainHistory]:
    """Mini-batch Adam with early stopping; returns the best-validation model.

    ``model`` must have two layers, as every network of this toolkit has;
    any other depth is refused (ValueError) before a random draw. Each
    batch is one straight-line step: the noise and dropout of each layer's
    input, the forward pass, :func:`loss`, the gradients written into one
    flat buffer laid out as ``params``, and one Adam update.
    ``validation`` is the caller's (values, targets) pair; an empty pair
    validates on the training rows. The input model is left untouched; the
    returned model is frozen with the parameters of the best validation epoch.
    """
    if len(model.layers) != 2:
        raise ValueError(f"train takes a two-layer model, got {len(model.layers)} layer(s)")
    train_x = np.asarray(data, dtype=np.float64)
    train_t = np.asarray(targets, dtype=np.float64)
    if train_x.shape[0] == 0:
        raise ValueError("empty training data")
    if train_x.shape[0] != train_t.shape[0]:
        raise ValueError("data/target row mismatch")
    val_x, val_t = validation if len(validation[0]) else (train_x, train_t)

    work = model.copy()
    (spec0, spec1), (w0, w1), (b0, b1) = work.layers, work.weights, work.biases
    act0, act1 = spec0.activation, spec1.activation
    kind = "cross_entropy" if act1 == "softmax" else "mse"
    # the gradients are written into a second model's views, so their flat
    # buffer has the layout of ``params``
    grads = work.copy()
    (dw0, dw1), (db0, db1) = grads.weights, grads.biases
    adam = AdamState(work.params.size)
    stopper = EarlyStopper(cfg.patience)
    history = TrainHistory()

    n_train = train_x.shape[0]
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x0, _ = _corrupt(spec0, train_x[idx], rng)
            z0 = x0 @ w0.T + b0
            x1, mask1 = _corrupt(spec1, _apply_activation(act0, z0), rng)
            z1 = x1 @ w1.T + b1
            value, dz1 = loss(kind, _apply_activation(act1, z1), train_t[idx])
            dz1 = _activation_backward(act1, z1, dz1)
            np.matmul(dz1.T, x1, out=dw1)
            # np.sum's own reduction, without its Python wrapper
            np.add.reduce(dz1, axis=0, out=db1)
            dx1 = dz1 @ w1
            if mask1 is not None:
                dx1 = dx1 * mask1 / (1.0 - spec1.dropout_rate)
            dz0 = _activation_backward(act0, z0, dx1)
            np.matmul(dz0.T, x0, out=dw0)
            np.add.reduce(dz0, axis=0, out=db0)
            adam.step(work.params, grads.params)
            batch_losses.append(value)
        val_value, _ = loss(kind, forward(work, val_x), val_t)
        if not math.isfinite(val_value) and stopper.best is None:
            raise TrainingDivergedError(
                f"validation loss is {val_value} at epoch {epoch}, with no finite epoch to keep"
            )
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_value)
        stop = stopper.update(val_value)
        if stopper.counter == 0:  # a new best epoch
            best = work.params.copy()
            history.best_epoch = epoch
        if stop:
            break
    history.n_epochs = len(history.val_loss)
    work.params[:] = best
    return work.freeze(), history
