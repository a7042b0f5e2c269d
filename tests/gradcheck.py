"""Training oracles shared by the neural tests and the acceptance suite.

``forward``, ``backward``, ``adam_step`` and ``train`` are the per-layer
training path that ``nidkit.neural.train`` replaced with one two-layer
step: a forward pass that keeps every layer's input, preactivation and
dropout mask, backpropagation through that cache, one concatenated
gradient, and an Adam update that allocates its intermediates.
``neural.train`` must match ``train`` here bit for bit.

``numeric_grads`` is a finite-difference gradient oracle, independent of
the backprop path: loss is evaluated through plain inference passes while
each parameter is nudged."""

import math
from dataclasses import dataclass

import numpy as np

from nidkit import neural


@dataclass
class ForwardCache:
    model: neural.MlpModel
    inputs: list[np.ndarray]   # per layer: input after noise/dropout
    preacts: list[np.ndarray]  # per layer: z = x W^T + b
    masks: list[np.ndarray | None]


def forward(model, batch, rng=None):
    """Run the network; with an rng, applies each layer's noise then dropout.
    Returns the output and the cache ``backward`` reads."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ValueError(f"batch width {batch.shape} does not match input dim {model.in_dim}")
    x = batch
    inputs, preacts, masks = [], [], []
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        mask = None
        if rng is not None:
            if spec.noise_sigma > 0:
                x = x + rng.normal(0.0, spec.noise_sigma, size=x.shape)
            if spec.dropout_rate > 0:
                mask = rng.random(x.shape) >= spec.dropout_rate
                x = x * mask / (1.0 - spec.dropout_rate)
        inputs.append(x)
        z = x @ w.T + b
        preacts.append(z)
        masks.append(mask)
        x = neural._apply_activation(spec.activation, z)
    return x, ForwardCache(model=model, inputs=inputs, preacts=preacts, masks=masks)


def _activation_backward(kind, z, upstream):
    """dL/dz given dL/da and the pre-activations z."""
    if kind == "relu":
        return upstream * (z > 0)
    if kind == "selu":
        deriv = np.where(z > 0, neural.SELU_LAMBDA,
                         neural.SELU_LAMBDA * neural.SELU_ALPHA * np.exp(np.minimum(z, 0.0)))
        return upstream * deriv
    # identity; a softmax output receives its loss gradient at z already
    return upstream


def backward(model, cache, loss_grad):
    """Backpropagate the gradient ``neural.loss`` returns: per-layer (dW, db),
    reusing the forward masks."""
    if cache.model is not model:
        raise ValueError("stale cache: forward pass came from a different model")
    grads = [None] * len(model.layers)
    upstream = np.asarray(loss_grad, dtype=np.float64)
    for i in range(len(model.layers) - 1, -1, -1):
        spec = model.layers[i]
        dz = _activation_backward(spec.activation, cache.preacts[i], upstream)
        grads[i] = (dz.T @ cache.inputs[i], dz.sum(axis=0))
        if i > 0:
            dx = dz @ model.weights[i]
            if cache.masks[i] is not None:
                dx = dx * cache.masks[i] / (1.0 - spec.dropout_rate)
            upstream = dx
    return grads


def adam_step(state, params, grad):
    """One bias-corrected Adam update of ``params`` in place, through the
    moments of ``state`` (a ``neural.AdamState``), allocating each
    intermediate."""
    state.t += 1
    bc1 = 1.0 - neural.ADAM_BETA1 ** state.t
    bc2 = 1.0 - neural.ADAM_BETA2 ** state.t
    state.m *= neural.ADAM_BETA1
    state.m += (1.0 - neural.ADAM_BETA1) * grad
    state.v *= neural.ADAM_BETA2
    state.v += (1.0 - neural.ADAM_BETA2) * (grad * grad)
    params -= neural.ADAM_LR * (state.m / bc1) / (np.sqrt(state.v / bc2) + neural.ADAM_EPS)


def train(model, data, targets, cfg, rng, validation):
    """The per-layer training loop ``neural.train`` must equal bit for bit:
    forward with cache, loss, backward, concatenate, allocating Adam."""
    train_x = np.asarray(data, dtype=np.float64)
    train_t = np.asarray(targets, dtype=np.float64)
    val_x, val_t = validation if len(validation[0]) else (train_x, train_t)
    work = model.copy()
    kind = "cross_entropy" if work.layers[-1].activation == "softmax" else "mse"
    adam = neural.AdamState(work.params.size)
    stopper = neural.EarlyStopper(cfg.patience)
    history = neural.TrainHistory()
    n_train = train_x.shape[0]
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(n_train)
        batch_losses = []
        for start in range(0, n_train, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, cache = forward(work, train_x[idx], rng)
            value, grad = neural.loss(kind, out, train_t[idx])
            layer_grads = backward(work, cache, grad)
            adam_step(adam, work.params,
                      np.concatenate([g.ravel() for pair in layer_grads for g in pair]))
            batch_losses.append(value)
        val_out, _ = forward(work, val_x)
        val_value, _ = neural.loss(kind, val_out, val_t)
        if not math.isfinite(val_value) and stopper.best is None:
            raise neural.TrainingDivergedError(f"validation loss is {val_value} at epoch {epoch}")
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_value)
        stop = stopper.update(val_value)
        if stopper.counter == 0:
            best = work.params.copy()
            history.best_epoch = epoch
        if stop:
            break
    history.n_epochs = len(history.val_loss)
    work.params[:] = best
    return work.freeze(), history


def numeric_grads(model, data, targets, loss_kind, h=1e-5):
    """Central finite differences over every weight and bias component."""
    grads = []
    for arr in [a for pair in zip(model.weights, model.biases) for a in pair]:
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + h
            hi, _ = neural.loss(loss_kind, neural.forward(model, data), targets)
            arr.flat[idx] = orig - h
            lo, _ = neural.loss(loss_kind, neural.forward(model, data), targets)
            arr.flat[idx] = orig
            g.flat[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def backprop_grads(model, data, targets, loss_kind):
    out, cache = forward(model, data)
    _, grad = neural.loss(loss_kind, out, targets)
    layer_grads = backward(model, cache, grad)
    return [a for pair in layer_grads for a in pair]


def random_small_model(rng, max_params=50):
    """Random two-layer model, the depth ``neural.train`` takes, with
    smooth-enough geometry for FD checks."""
    activations = ["identity", "relu", "selu", "softmax"]
    while True:
        dims = [int(rng.integers(1, 4)) for _ in range(3)]
        layers = []
        for i in range(2):
            act = activations[rng.integers(0, len(activations))]
            if act == "softmax" and i == 0:
                act = "selu"  # keep softmax terminal: that is how it is used
            layers.append(neural.LayerSpec(dims[i], dims[i + 1], act))
        model = neural.init_model(layers, rng)
        if model.params.size <= max_params:
            # generic parameter point: zero biases park dead-relu paths
            # exactly on the selu/relu kinks where FD is one-sided
            for b in model.biases:
                b += rng.normal(0.0, 0.5, size=b.shape)
            return model


def check_model_gradients(model, rng, rel_tol=1e-4, h=1e-5):
    """True when every backprop component matches FD within rel_tol.

    Inputs are redrawn until no relu/selu preactivation sits within 1e-3
    of its kink, so the central difference never straddles one.
    """
    loss_kind = "cross_entropy" if model.layers[-1].activation == "softmax" else "mse"
    for _ in range(50):
        data = rng.normal(0.0, 1.0, size=(3, model.in_dim))
        _, cache = forward(model, data)
        near_kink = any(
            spec.activation in ("relu", "selu") and np.abs(z).min() < 1e-3
            for spec, z in zip(model.layers, cache.preacts)
        )
        if not near_kink:
            break
    if loss_kind == "cross_entropy":
        targets = np.zeros((3, model.out_dim))
        targets[np.arange(3), rng.integers(0, model.out_dim, size=3)] = 1.0
    else:
        targets = rng.normal(0.0, 1.0, size=(3, model.out_dim))
    bp = backprop_grads(model, data, targets, loss_kind)
    fd = numeric_grads(model, data, targets, loss_kind, h=h)
    for a, b in zip(bp, fd):
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-4)
        if (np.abs(a - b) / denom > rel_tol).any():
            return False
    return True
