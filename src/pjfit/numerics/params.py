"""Named parameter storage with per-entry gradients and freeze flags."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pjfit.numerics.matrix import Matrix, Tape


@dataclass
class Param:
    value: np.ndarray
    trainable: bool = True
    # Adam moments, allocated on first optimizer step
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    _grad: np.ndarray | None = field(default=None, repr=False)

    @property
    def grad(self) -> np.ndarray:
        """The gradient buffer, allocated on first access.

        Binding the parameter on a tape is the first access in a training
        step; inference never allocates one.
        """
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @property
    def has_grad(self) -> bool:
        return self._grad is not None


class ParamStore:
    """Ordered name -> Param map. Iteration order is insertion order,
    which fixes checkpoint layout and makes runs reproducible."""

    def __init__(self) -> None:
        self._params: dict[str, Param] = {}

    def add(self, name: str, value, trainable: bool = True) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"parameter {name!r} must be 2-D, got shape {arr.shape}")
        p = Param(value=arr, trainable=trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grads(self) -> None:
        for p in self._params.values():
            if p.has_grad:
                p.grad[...] = 0.0

    def release_grads(self) -> None:
        """Drop every gradient buffer; the next taped use allocates a new one."""
        for p in self._params.values():
            p._grad = None

    def bind(self, tape: Tape | None = None) -> "BoundParams":
        return BoundParams(self, tape)


class BoundParams:
    """Parameters viewed as Matrix nodes on one tape.

    On a tape, each Matrix shares the Param's grad buffer, so a backward
    pass writes gradients directly into the store. Without a tape no
    buffer is touched.
    """

    def __init__(self, store: ParamStore, tape: Tape | None):
        self._store = store
        self.tape = tape
        self._cache: dict[tuple[str, int, int], Matrix] = {}

    def __getitem__(self, name: str) -> Matrix:
        return self.rows(name, 0, self._store[name].value.shape[0])

    def rows(self, name: str, lo: int, hi: int) -> Matrix:
        """Rows [lo, hi) of a parameter as a view of its value; on a tape its
        gradient is the same rows of the parameter's gradient buffer."""
        key = (name, lo, hi)
        m = self._cache.get(key)
        if m is None:
            p = self._store[name]
            if not 0 <= lo <= hi <= p.value.shape[0]:
                raise IndexError(f"rows [{lo}, {hi}) of {name!r} with {p.value.shape[0]} rows")
            if self.tape is None:
                m = Matrix(p.value[lo:hi])
            else:
                m = Matrix(p.value[lo:hi], tape=self.tape, grad=p.grad[lo:hi])
            self._cache[key] = m
        return m

    def constant(self, data) -> Matrix:
        """Wrap input data (embeddings, packed histories) as an untaped Matrix.

        Constants take part in the graph, but no backward pass computes or
        stores a gradient for them.
        """
        return Matrix(data)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-limit, limit) with limit = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))
