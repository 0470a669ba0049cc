"""Adam updates over a ParamStore."""

from __future__ import annotations

import numpy as np

from pjfit.numerics.params import ParamStore

# Elements per block of the fused update. Value, gradient, both moments and
# the two scratch buffers of one block (6 x 128 KiB) stay in a core's L2.
BLOCK = 16384


class TrainingDivergedError(RuntimeError):
    """A gradient or loss went non-finite."""


def adam_step(store: ParamStore, lr: float, step: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """One Adam update with bias correction, in place; ``step`` is 1-based.

    First every gradient is checked: a non-finite one raises
    TrainingDivergedError naming its parameter before any value or moment
    changes. Then one pass walks each parameter in blocks of
    BLOCK elements, reading value, gradient and moments once and writing
    them once: the moments are updated, the value takes its step, and the
    gradient block is zeroed while still in cache, which replaces a
    separate ``zero_grads`` pass. Moments are allocated on a parameter's
    first step with ``np.zeros``, whose pages the system zeroes on first
    touch inside the same pass, so there is no separate zeroing pass.

    The arithmetic is the textbook expression's, operation for operation,
    so the result is bitwise equal to it:

        m = m * beta1 + (1 - beta1) * g;  v = v * beta2 + (1 - beta2) * g^2
        value -= (lr * (m / c1)) / (sqrt(v / c2) + eps)

    with c1 = 1 - beta1**step and c2 = 1 - beta2**step. A parameter with no
    gradient buffer takes g = 0.0 (still added, which turns a -0.0 moment
    into +0.0).
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if step < 1:
        raise ValueError("step is 1-based")
    for name, p in store.items():
        if p.has_grad and not np.isfinite(p.grad).all():
            raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    scratch_a = np.empty(BLOCK)
    scratch_b = np.empty(BLOCK)
    for _, p in store.items():
        if p.m is None:
            p.m = np.zeros(p.value.shape)
            p.v = np.zeros(p.value.shape)
        value, m, v = _flat(p.value), _flat(p.m), _flat(p.v)
        grad = _flat(p.grad) if p.has_grad else None
        for lo in range(0, value.size, BLOCK):
            hi = min(lo + BLOCK, value.size)
            w, mb, vb = value[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
            mb *= beta1
            vb *= beta2
            if grad is None:
                mb += 0.0
                vb += 0.0
            else:
                g = grad[lo:hi]
                np.multiply(g, 1.0 - beta1, out=a)
                mb += a
                np.square(g, out=a)
                a *= 1.0 - beta2
                vb += a
                g.fill(0.0)
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(mb, c1, out=b)
            b *= lr
            b /= a
            w -= b
    return store


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-D view of a C-contiguous array; writes through it reach ``a``."""
    if not a.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous array, got strides {a.strides}")
    return a.reshape(-1)
