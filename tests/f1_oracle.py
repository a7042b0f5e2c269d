"""Reference oracle for ``nidkit.detector._best_f1_threshold``: one pass
over the distinct validation errors, counting tp/fp/fn at each cut and
keeping the first strictly better F1, so ties go to the smallest alpha."""

from __future__ import annotations

import numpy as np

from nidkit.dataset import ATTACK_ID


def best_f1_threshold(errors: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(alpha, f1) over the verdict rule error > alpha, positive = attack;
    ``labels`` are binary ids."""
    order = np.argsort(errors, kind="stable")
    e = errors[order]
    is_attack = (labels[order] == ATTACK_ID).astype(np.int64)
    total_attack = int(is_attack.sum())
    # after cutting at position i (alpha = e[i]): predictions are rows > i
    attack_up_to = np.cumsum(is_attack)
    n = e.size
    best_alpha, best_f1 = float(e[-1]), -1.0
    last_of_value = np.nonzero(np.r_[e[:-1] != e[1:], True])[0]
    for i in last_of_value:
        alpha = float(e[i])
        pred_attack = n - (i + 1)
        tp = total_attack - int(attack_up_to[i])
        fp = pred_attack - tp
        fn = total_attack - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        if f1 > best_f1:
            best_f1, best_alpha = f1, alpha
    return best_alpha, best_f1
