"""Finite-difference gradient oracle shared by the neural tests and the
acceptance suite. Independent of the backprop path: loss is evaluated
through plain forward passes while each parameter is nudged."""

import numpy as np

from nidkit import neural


def numeric_grads(model, data, targets, loss_kind, h=1e-5):
    """Central finite differences over every weight and bias component."""
    grads = []
    for arr in [a for pair in zip(model.weights, model.biases) for a in pair]:
        g = np.zeros_like(arr)
        for idx in range(arr.size):
            orig = arr.flat[idx]
            arr.flat[idx] = orig + h
            out, _ = neural.forward(model, data)
            hi, _ = neural.loss(loss_kind, out, targets)
            arr.flat[idx] = orig - h
            out, _ = neural.forward(model, data)
            lo, _ = neural.loss(loss_kind, out, targets)
            arr.flat[idx] = orig
            g.flat[idx] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def backprop_grads(model, data, targets, loss_kind):
    out, cache = neural.forward(model, data)
    _, grad = neural.loss(loss_kind, out, targets)
    layer_grads = neural.backward(model, cache, grad)
    return [a for pair in layer_grads for a in pair]


def random_small_model(rng, max_params=50):
    """Random 1-3 layer model with smooth-enough geometry for FD checks."""
    activations = ["identity", "relu", "selu", "softmax"]
    while True:
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(1, 4)) for _ in range(n_layers + 1)]
        layers = []
        for i in range(n_layers):
            act = activations[rng.integers(0, len(activations))]
            if act == "softmax" and i < n_layers - 1:
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
        _, cache = neural.forward(model, data)
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
