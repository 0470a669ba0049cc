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
flag per gradient row: reached in the current step or not. It lives on
the parameter, not on the Matrix views bound to it, since several views
of one parameter (row blocks of ``fusion.w1`` or ``moe.w1``) share its
rows. A backward closure that reaches rows [lo, hi) (``reach_rows``)
writes its product there when none of them was reached yet, and adds
otherwise, after the unreached ones are zeroed. ``Param.grad`` reaches
every row. ``adam_step`` zeroes the unreached rows, reads the buffer and
then consumes it (``consume_grad``): the flags are cleared, so the stale
values read as zeros and the next step overwrites them.

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

    A gradient row no backward pass has reached in the current step holds
    stale or undefined values and reads as zero.
    """

    __slots__ = ("value", "_buffers", "_span", "_grad", "_reached")

    def __init__(self, buffers: Buffers, lo: int, shape: tuple[int, int]):
        self._buffers = buffers
        self._span = slice(lo, lo + shape[0] * shape[1])
        self.value = buffers.values[self._span].reshape(shape)
        self._grad: np.ndarray | None = None
        self._reached = np.zeros(shape[0], dtype=bool)

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self._span].reshape(self.value.shape)

    def grad_rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of the gradient view as they are, reached or not:
        what a bound Matrix holds (see ``reach_rows``). The buffer and the
        view are allocated with the first call."""
        if self._grad is None:
            if self._buffers.grads is None:
                self._buffers.grads = np.empty(self._buffers.values.size)
            self._grad = self._view(self._buffers.grads)
        return self._grad[lo:hi]

    @property
    def grad(self) -> np.ndarray:
        """The whole gradient view, valid: rows nothing reached in this step
        are zeroed first, and every row counts as reached from then on.

        Binding the parameter on a tape hands out the view; inference never
        allocates one.
        """
        rows = self.value.shape[0]
        grad = self.grad_rows(0, rows)
        if self.reach_rows(0, rows):
            grad.fill(0.0)
        return grad

    def reach_rows(self, lo: int, hi: int) -> bool:
        """Mark gradient rows [lo, hi) reached. True when none of them was
        reached before: the caller then writes all of them. Otherwise the
        ones not reached yet are zeroed, and the caller adds into the rows."""
        reached = self._reached[lo:hi]
        marked = np.count_nonzero(reached)
        if 0 < marked < hi - lo:
            self._grad[lo:hi][~reached] = 0.0
        reached.fill(True)
        return marked == 0 and hi > lo

    def zero_unreached(self) -> None:
        """Zero the gradient rows nothing reached, so that this parameter's
        span of the gradient buffer (which must exist) holds its gradient.
        Hands out no view."""
        if np.count_nonzero(self._reached) < self._reached.size:
            self._view(self._buffers.grads)[~self._reached] = 0.0
        self._reached.fill(True)

    def consume_grad(self) -> None:
        """Start a new step: no gradient row counts as reached, so the
        gradient reads as zeros again without a pass over it."""
        self._reached.fill(False)

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
    ``ParamStore.bind``) viewed as Matrix nodes on one tape.

    On a tape, each Matrix shares the Param's grad buffer, so a backward
    pass writes gradients directly into the store, and asks the Param
    whether its rows were reached yet in the step (``Param.reach_rows``).
    Without a tape no buffer is touched.
    """

    def __init__(self, params: dict[str, Param], tape: Tape | None = None):
        self._params = params
        self.tape = tape
        self._cache: dict[tuple[str, int, int], Matrix] = {}

    def __getitem__(self, name: str) -> Matrix:
        return self.rows(name, 0, self._params[name].value.shape[0])

    def rows(self, name: str, lo: int, hi: int) -> Matrix:
        """Rows [lo, hi) of a parameter as a view of its value; on a tape its
        gradient is the same rows of the parameter's gradient buffer."""
        key = (name, lo, hi)
        m = self._cache.get(key)
        if m is None:
            p = self._params[name]
            if not 0 <= lo <= hi <= p.value.shape[0]:
                raise IndexError(f"rows [{lo}, {hi}) of {name!r} with {p.value.shape[0]} rows")
            if self.tape is None:
                m = Matrix(p.value[lo:hi])
            else:
                m = Matrix(p.value[lo:hi], tape=self.tape, grad=p.grad_rows(lo, hi),
                           rows_of=(p, lo, hi))
            self._cache[key] = m
        return m

