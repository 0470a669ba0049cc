"""Adam updates over a ParamStore."""

from __future__ import annotations

import numpy as np

from pjfit.numerics.params import ParamStore


class TrainingDivergedError(RuntimeError):
    """A gradient or loss went non-finite."""


def adam_step(store: ParamStore, lr: float, step: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """One Adam update with bias correction.

    Frozen entries are left untouched (values and moments). All gradients,
    including frozen ones, are zeroed afterwards. A parameter with no
    gradient buffer has a zero gradient. ``step`` is 1-based.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if step < 1:
        raise ValueError("step is 1-based")
    for name, p in store.items():
        if p.has_grad and not np.isfinite(p.grad).all():
            raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
    for _, p in store.items():
        if p.trainable:
            grad = p.grad if p.has_grad else 0.0
            if p.m is None:
                p.m = np.zeros_like(p.value)
                p.v = np.zeros_like(p.value)
            p.m *= beta1
            p.m += (1.0 - beta1) * grad
            p.v *= beta2
            p.v += (1.0 - beta2) * np.square(grad)
            m_hat = p.m / (1.0 - beta1 ** step)
            v_hat = p.v / (1.0 - beta2 ** step)
            p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    store.zero_grads()
    return store
