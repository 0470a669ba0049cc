"""Named parameters as views of one float64 buffer per role, and their
gradients, kept factored where that is exact.

The roles are the values and Adam's moments ``m`` and ``v``. A
``ParamStore`` is built from a spec, a list of (name, rows, cols): its
``Buffers`` holds one 1-D array per role over all its parameters, in spec
order, and each parameter's arrays are (rows x cols) views of its span of
them. ``model.init_params`` and ``checkpoint.load_checkpoint`` fill the
zero values a new store starts with; ``optim``'s passes cut the element
range into shards. The value buffer exists from the start, the moments
from the first optimizer step, allocated with ``np.empty``: nothing reads
a value that was not written.

There is no gradient buffer. A weight's gradient is a sum of products x^T
dy, one per use in ``ops.matmul`` or ``ops.affine``, and a parameter keeps
each as the pair (x, dy) of arrays the backward pass holds anyway
(``Param.add_product``). Adam multiplies the pairs out a few rows at a
time, right before it updates those rows (``optim``), so no whole-store
gradient is ever held: at d=1024 with four pairs per batch, the pairs'
arrays hold ~1.2% as many values as the weights they stand for. A pair
is kept only when

- a FACTOR_ROWS-row block of its product is a GEMM of at most GEMM_CAP
  multiply-adds, so that Adam's shards can multiply it out in blocks that
  stay on their own threads;
- the product has at least two columns: OpenBLAS computes a one-column
  product as a matrix-vector product, whose bits change with the rows
  asked for;
- x holds no value of this store, since Adam rewrites values in place;
- every contribution to the gradient so far was a kept pair.

Any other contribution goes to a dense gradient array the parameter owns
(kept across steps, dropped by ``ParamStore.release_grads``): biases, the
category table, a weight used with more rows than the cap allows, and a
weight's product after a dense contribution. A dense contribution that
finds pairs multiplies them out first. Either way the contributions are
summed in the order the backward pass makes them, the first written and
the rest added, so the gradient has the bits of one dense buffer's.

Nothing zeroes a gradient ahead of a step. Each parameter keeps one flag,
``reached``: whether a backward pass contributed to its gradient in the
current step. A gradient nothing reached reads as zeros: ``Param.grad``
zeroes the dense array first, and Adam reads zeros. ``Param.grad``
multiplies the pairs out into the dense array, for tests and the
gradchecks. ``adam_step`` consumes every gradient (``consume_grad``):
the pairs are dropped and the flags cleared.

A ``BoundParams`` holds a store's name -> Param map, not the store, so
the serving index keeps no store alive. A writer goes through a
parameter's views, so making a value view read-only (as the serving
index does) stops it: ``adam_step`` checks every value view before it
writes, though it writes through the buffers.
"""

from __future__ import annotations

import numpy as np

from pjfit.numerics.matrix import Matrix, Tape

# OpenBLAS runs a GEMM of at most 2^18 multiply-adds on the calling thread
# (interface/gemm.c: 65536 * GEMM_MULTITHREAD_THRESHOLD, which is 4).
GEMM_CAP = 1 << 18
# Rows of the smallest block Adam multiplies out: a one-row block is a
# matrix-vector product whose bits differ from the full product's, while
# blocks of 2 rows or more matched them for every tensor shape of the d=64
# and d=1024 models at K = 1, 2, 3, 4, 25, 32 and 100. That was verified
# on OpenBLAS 0.3.31 with its Haswell kernels only; other kernels may
# differ, which the row-block test of test_numerics.py would show. 4 rows,
# twice the measured 2, is a chosen margin, not a measured bound.
MIN_ROWS = 4
# Rows of the block of a product that must fit GEMM_CAP for the pair to be
# kept: twice MIN_ROWS, a choice, not a measurement, so that Adam's capped
# GEMMs of a kept product hold at least twice the rows of the smallest
# exact block. At 1024 columns it keeps products of K <= 32 rows.
FACTOR_ROWS = 2 * MIN_ROWS


class Buffers:
    """One 1-D float64 array per role over consecutive parameters; the
    moments are None until the first optimizer step."""

    __slots__ = ("values", "m", "v")

    def __init__(self, values: np.ndarray):
        self.values = values
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


class Param:
    """Elements [lo, lo + rows * cols) of a ``Buffers``, as (rows, cols)
    views, and the parameter's gradient in the current step.

    The gradient is the sum of ``factors``' products x^T dy when that
    list is not empty, else the dense array; it is zeros when nothing
    reached it (``reached`` false). ``has_grad`` says whether a tape bound
    the parameter (pairs come only from a bound parameter's products) or
    anything asked for its dense gradient (``grad_slot``) since the last
    ``release_grads``.
    """

    __slots__ = ("value", "reached", "factors", "has_grad", "_buffers", "_span", "_dense")

    def __init__(self, buffers: Buffers, lo: int, shape: tuple[int, int]):
        self._buffers = buffers
        self._span = slice(lo, lo + shape[0] * shape[1])
        self.value = buffers.values[self._span].reshape(shape)
        self.reached = False
        self.factors: list[tuple[np.ndarray, np.ndarray]] = []
        self.has_grad = False
        self._dense: np.ndarray | None = None

    @property
    def offset(self) -> int:
        """The index of the parameter's first element in its buffers."""
        return self._span.start

    def add_product(self, x: np.ndarray, dy: np.ndarray) -> None:
        """gradient += x^T dy, kept as the pair when the rules of the
        module docstring allow it, else added to the dense gradient."""
        k, cols = dy.shape
        if (k >= 1 and cols >= 2 and FACTOR_ROWS * cols * k <= GEMM_CAP
                and (self.factors or not self.reached)
                and not np.may_share_memory(x, self._buffers.values)):
            self.factors.append((x, dy))
            self.reached = True
            return
        grad, first = self.grad_slot()
        if first:
            np.matmul(x.T, dy, out=grad)
        else:
            grad += x.T @ dy

    def grad_slot(self) -> tuple[np.ndarray, bool]:
        """(dense, first): the dense gradient, with the pairs multiplied
        out into it, and whether nothing has reached it yet in this step.
        When ``first``, its contents are undefined and the caller must
        write all of it; otherwise the caller adds into it. Either way the
        gradient counts as reached."""
        self.has_grad = True
        if self._dense is None:
            self._dense = np.empty(self.value.shape)
        if self.factors:
            rows = self.value.shape[0]
            self.multiply_rows(0, rows, self._dense.reshape(-1), rows)
            self.factors = []
            return self._dense, False
        first, self.reached = not self.reached, True
        return self._dense, first

    def multiply_rows(self, top: int, bottom: int, out: np.ndarray, group_rows: int) -> None:
        """Rows [top, bottom) of the sum of the pairs' products x^T dy into
        the start of the 1-D array ``out``, in GEMMs of at most
        ``group_rows`` rows and at least MIN_ROWS (all of them when fewer):
        the first pair written, the rest added, in the order the backward
        pass made them."""
        rows, cols = bottom - top, self.value.shape[1]
        n = max(1, min(-(-rows // group_rows), rows // MIN_ROWS))
        for i in range(n):
            a, b = top + rows * i // n, top + rows * (i + 1) // n
            block = out[(a - top) * cols:(b - top) * cols].reshape(b - a, cols)
            (x, dy), *rest = self.factors
            np.matmul(x[:, a:b].T, dy, out=block)
            for x, dy in rest:
                block += x[:, a:b].T @ dy

    @property
    def grad(self) -> np.ndarray:
        """The gradient as a dense array: the pairs multiplied out, or
        zeros when nothing reached it in this step, and reached from then
        on. Inference never allocates one."""
        grad, first = self.grad_slot()
        if first:
            grad.fill(0.0)
        return grad

    @property
    def dense(self) -> np.ndarray | None:
        """The dense gradient array as it is, valid only when the parameter
        is reached and holds no pairs."""
        return self._dense

    def consume_grad(self) -> None:
        """Start a new step: the pairs are dropped and the gradient counts
        as not reached, so it reads as zeros again without a pass over it."""
        self.factors = []
        self.reached = False

    def _view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self._span].reshape(self.value.shape)

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
        """Drop every gradient and dense gradient array; the next taped use
        starts from nothing."""
        for p in self._params.values():
            p.consume_grad()
            p._dense = None
            p.has_grad = False

    def release_training_buffers(self) -> None:
        """Drop the gradients and the moment buffers; only the values stay."""
        self.release_grads()
        self.buffers.m = self.buffers.v = None

    def bind(self, tape: Tape | None = None) -> "BoundParams":
        return BoundParams(self._params, tape)


class BoundParams:
    """The parameters of a name -> Param map (a store's own, from
    ``ParamStore.bind``) viewed as Matrix nodes on one tape, each bound
    whole.

    On a tape, each Matrix holds its Param, so a backward pass hands its
    contributions to the Param (``Matrix.grad_slot``, ``ops``'s products).
    Without a tape no gradient is touched.
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
                p.has_grad = True
                m = Matrix(p.value, tape=self.tape, param=p)
            self._cache[name] = m
        return m
