"""Central finite-difference checking of analytic gradients."""

from __future__ import annotations

import numpy as np

from pjfit.numerics import Matrix, ParamStore


def finite_diff_check(f, store: ParamStore, h: float = 1e-5,
                      coords_per_param: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic and numerical gradients.

    ``f(store) -> Matrix`` must build a fresh taped scalar each call and be
    deterministic. Analytic gradients come from one backward pass; numerical
    ones from central differences (f(t+h) - f(t-h)) / 2h per coordinate.
    The per-coordinate error is |a - n| / max(1e-8, |a| + |n|).

    With ``coords_per_param`` set, that many coordinates are sampled per
    entry instead of sweeping all of them.
    """
    store.release_grads()
    out = f(store)
    if not isinstance(out, Matrix) or out.tape is None:
        raise TypeError("f must return a taped scalar Matrix")
    out.tape.backward(out)
    analytic = {name: p.grad.copy() if p.reached else np.zeros_like(p.value)
                for name, p in store.items()}
    store.release_grads()

    def value() -> float:
        return f(store).item()

    worst = 0.0
    for name, p in store.items():
        coords = _coords(p.value.shape, coords_per_param, rng)
        for i, j in coords:
            orig = p.value[i, j]
            p.value[i, j] = orig + h
            f_plus = value()
            p.value[i, j] = orig - h
            f_minus = value()
            p.value[i, j] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = analytic[name][i, j]
            rel = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if rel > worst:
                worst = rel
    return worst


def sum_all(x: Matrix) -> Matrix:
    """The sum of x's entries as a (1, 1) Matrix on x's tape: the scalar a
    test builds from an op's output to run a backward pass through it."""
    out = Matrix(np.array([[x.data.sum()]]), x.tape)
    if x.tape is not None:
        def backward():
            x.grad[...] += out.grad[0, 0]
        x.tape.record(backward)
    return out


def _coords(shape: tuple[int, int], k: int | None, rng: np.random.Generator | None):
    n_rows, n_cols = shape
    total = n_rows * n_cols
    if k is None or k >= total:
        flat = np.arange(total)
    else:
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        flat = rng.choice(total, size=k, replace=False)
    return [(int(t) // n_cols, int(t) % n_cols) for t in flat]
