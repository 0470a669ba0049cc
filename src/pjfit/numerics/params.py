"""Named parameters as views of one float64 buffer per role.

The roles are the values, the gradients and Adam's moments ``m`` and
``v``. A ``ParamStore`` is built from a spec, a list of (name, rows,
cols): its ``Buffers`` holds one 1-D array per role over all its
parameters, in spec order, and each parameter's arrays are (rows x cols)
views of its span of them. ``model.init_params`` and
``checkpoint.load_checkpoint`` fill the zero values a new store starts
with; ``optim``'s passes cut the element range into shards.

The value buffer exists from the start; the gradient buffer is allocated
when the first parameter's gradient is first needed, and the moments on
the first optimizer step, all with ``np.empty``: nothing reads a value
that was not written. A parameter gets its gradient view on first
access, so ``has_grad`` says whether anything asked for that parameter's
gradient.

Nothing zeroes a gradient ahead of a step. Each parameter keeps one
flag, ``reached``: whether a backward pass wrote its gradient in the
current step. A tape binds a parameter whole, as one Matrix that shares
its gradient view, and the first backward closure to reach it (see
``Matrix.grad_slot``) writes its product there; the rest add.
``Param.grad`` reaches the parameter. ``adam_step`` zeroes the gradients
of the parameters nothing reached, reads the buffer and then consumes it
(``consume_grad``): the flags are cleared, so the stale values read as
zeros and the next step overwrites them.

A ``BoundParams`` holds a store's name -> Param map, not the store, so
the serving index keeps no store alive. A writer goes through a
parameter's views, so making a value view read-only (as the serving
index does) stops it: ``adam_step`` checks every value view before it
writes, though it writes through the buffers.
"""

from __future__ import annotations

import numpy as np

from pjfit.numerics.matrix import Matrix, Tape


class Buffers:
    """One 1-D float64 array per role over consecutive parameters; the
    gradients and moments are None until first needed."""

    __slots__ = ("values", "grads", "m", "v")

    def __init__(self, values: np.ndarray):
        self.values = values
        self.grads: np.ndarray | None = None
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


class Param:
    """Elements [lo, lo + rows * cols) of a ``Buffers``, as (rows, cols) views.

    A gradient no backward pass has reached in the current step
    (``reached`` false) holds stale or undefined values and reads as zero.
    """

    __slots__ = ("value", "reached", "_buffers", "_span", "_grad")

    def __init__(self, buffers: Buffers, lo: int, shape: tuple[int, int]):
        self._buffers = buffers
        self._span = slice(lo, lo + shape[0] * shape[1])
        self.value = buffers.values[self._span].reshape(shape)
        self.reached = False
        self._grad: np.ndarray | None = None

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self._span].reshape(self.value.shape)

    def grad_view(self) -> np.ndarray:
        """The gradient view as it is, reached or not: what a bound Matrix
        holds. The buffer and the view are allocated with the first call."""
        if self._grad is None:
            if self._buffers.grads is None:
                self._buffers.grads = np.empty(self._buffers.values.size)
            self._grad = self._view(self._buffers.grads)
        return self._grad

    @property
    def grad(self) -> np.ndarray:
        """The gradient view, valid: zeroed first when nothing reached it in
        this step, and reached from then on.

        Binding the parameter on a tape hands out the view; inference never
        allocates one.
        """
        grad = self.grad_view()
        if not self.reached:
            grad.fill(0.0)
            self.reached = True
        return grad

    def zero_unreached(self) -> None:
        """Zero the gradient if nothing reached it, so that this parameter's
        span of the gradient buffer (which must exist) holds its gradient.
        Hands out no view."""
        if not self.reached:
            self._view(self._buffers.grads).fill(0.0)
            self.reached = True

    def consume_grad(self) -> None:
        """Start a new step: the gradient counts as not reached, so it reads
        as zeros again without a pass over it."""
        self.reached = False

    @property
    def has_grad(self) -> bool:
        return self._grad is not None

    @property
    def m(self) -> np.ndarray | None:
        """Adam's first moment, None before the first optimizer step."""
        return None if self._buffers.m is None else self._view(self._buffers.m)

    @property
    def v(self) -> np.ndarray | None:
        """Adam's second moment, None before the first optimizer step."""
        return None if self._buffers.v is None else self._view(self._buffers.v)


class ParamStore:
    """Ordered name -> Param map over one ``Buffers`` (``store.buffers``).
    Iteration order is spec order, which fixes checkpoint layout and makes
    runs reproducible."""

    def __init__(self, spec: list[tuple[str, int, int]]) -> None:
        """Zero-valued parameters, one per (name, rows, cols) of ``spec``,
        as views of the value buffer in spec order."""
        self.buffers = Buffers(np.zeros(sum(rows * cols for _, rows, cols in spec)))
        self._params: dict[str, Param] = {}
        lo = 0
        for name, rows, cols in spec:
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._params[name] = Param(self.buffers, lo, (rows, cols))
            lo += rows * cols

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

    def release_grads(self) -> None:
        """Drop the gradient buffer; the next taped use allocates a new one."""
        for p in self._params.values():
            p._grad = None
            p.consume_grad()
        self.buffers.grads = None

    def release_training_buffers(self) -> None:
        """Drop the gradient and moment buffers; only the values stay."""
        self.release_grads()
        self.buffers.m = self.buffers.v = None

    def bind(self, tape: Tape | None = None) -> "BoundParams":
        return BoundParams(self._params, tape)


class BoundParams:
    """The parameters of a name -> Param map (a store's own, from
    ``ParamStore.bind``) viewed as Matrix nodes on one tape, each bound
    whole.

    On a tape, each Matrix shares the Param's gradient view, so a backward
    pass writes gradients directly into the store, and tells the Param
    that it was reached (``Matrix.grad_slot``). Without a tape no buffer is
    touched.
    """

    def __init__(self, params: dict[str, Param], tape: Tape | None = None):
        self._params = params
        self.tape = tape
        self._cache: dict[str, Matrix] = {}

    def __getitem__(self, name: str) -> Matrix:
        m = self._cache.get(name)
        if m is None:
            p = self._params[name]
            if self.tape is None:
                m = Matrix(p.value)
            else:
                m = Matrix(p.value, tape=self.tape, grad=p.grad_view(), param=p)
            self._cache[name] = m
        return m
