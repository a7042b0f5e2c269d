"""Reference oracle for ``nidkit.baselines.fit_linear_svm``: one label row
at a time, as the fit ran before it took a stack of label rows.

Each fit centers the data itself, draws its own batch order from
``cfg.seed`` and sums each batch's violators row by row, so a (k, n)
stack costs k walks over the data.
"""

from __future__ import annotations

import numpy as np

from nidkit.baselines import SVM_BATCH_SIZE, LinearSvm, LinearSvmConfig, _binary_ids


def fit_linear_svm(data: np.ndarray, labels, cfg: LinearSvmConfig = LinearSvmConfig()) -> LinearSvm:
    """Primal hinge loss + lam*||w||^2 on one row of binary ids, fitted as
    ``nidkit.baselines.fit_linear_svm`` fits one row of a stack."""
    data = np.asarray(data, dtype=np.float64)
    y = np.where(_binary_ids(labels) == 1, 1.0, -1.0)
    n, d = data.shape
    center = data.mean(axis=0)
    centered = data - center
    rng = np.random.default_rng(cfg.seed)
    w = np.zeros(d)
    b = 0.0
    for epoch in range(cfg.epochs):
        eta = cfg.learning_rate / (1.0 + epoch)
        order = rng.permutation(n)
        for start in range(0, n, SVM_BATCH_SIZE):
            idx = order[start : start + SVM_BATCH_SIZE]
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
