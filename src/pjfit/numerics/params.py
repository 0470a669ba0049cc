"""Named parameters as views of one float64 value buffer, and their
gradients, kept factored where that is exact.

A ``ParamStore`` is built from a spec, a list of (name, rows, cols): its
``values`` is one 1-D array over all its parameters, in spec order, and
each parameter's value is a (rows x cols) view of its span of it.
``model.init_params`` and ``checkpoint.load_checkpoint`` fill the zero
values a new store starts with; ``optim``'s passes cut the element range
into shards. The store holds no optimizer state: Adam's moments are
arrays over the same element range that ``training.train`` owns.

There is no gradient buffer. A weight's gradient is a sum of products x^T
dy, one per use in ``ops.matmul`` or ``ops.affine``, and a parameter keeps
each as the pair (x, dy) of arrays the backward pass holds anyway
(``Param.add_product``). Adam multiplies the pairs out a few rows at a
time, right before it updates those rows, so no whole-store gradient is
ever held. A pair of K rows (x is K x rows, dy K x cols) is kept when

- its factors hold fewer values than its product, K (rows + cols) <
  rows cols (``_keeps``);
- the product has at least two columns: OpenBLAS computes a one-column
  product as a matrix-vector product, whose bits change with the rows
  asked for;
- x holds no value of this store, since Adam rewrites values in place;
- every contribution to the gradient so far was a kept pair.

Any other contribution goes to a dense gradient array the parameter owns
(kept across steps, dropped by ``ParamStore.release_grads``): biases, the
category table, a weight used with more rows than the rule allows, and a
weight's product after a dense contribution. A dense contribution that
finds pairs multiplies them out first. Either way the contributions are
summed in the order the backward pass makes them, the first written and
the rest added, so the gradient has the bits of one dense buffer's
wherever a pair's row blocks have the bits of its whole product (below).

Adam's shards multiply the kept pairs out, each the rows of its own
range, in blocks of MIN_ROWS rows or more, one GEMM per pair
(``Param.grad_blocks``), with OpenBLAS held to one thread (``optim``);
``Param.grad`` multiplies them out in one GEMM per pair over the whole
tensor. On OpenBLAS 0.3.31 (a DYNAMIC_ARCH build, which picks its
SkylakeX kernels on an AVX-512 Xeon), for every tensor shape of the
model at K = 1, 4, 25, 32 and at the largest K the rule keeps (767 at
d=1024), such row blocks gave the bits of the whole product in one
GEMM, as a dense gradient has them, wherever they were cut and on 1 and
2 threads: so neither the blocks, nor the cuts between Adam's shards,
nor keeping a pair changes a bit. The row-block tests of
test_numerics.py check this on the BLAS at hand.

Nothing zeroes a gradient ahead of a step. Each parameter keeps one flag,
``reached``: whether a backward pass contributed to its gradient in the
current step. A gradient nothing reached reads as zeros: ``Param.grad``
zeroes the dense array first, and Adam reads zeros. ``Param.grad``
multiplies the pairs out into the dense array, for tests and the
gradchecks. ``adam_step`` consumes every gradient (``consume_grad``):
the pairs are dropped and the flag cleared.

Adam (``optim``) reads a gradient through two operations of its Param:

- ``grad_is_finite``, before any value changes. Kept pairs are checked
  without multiplying them out, by a Cauchy-Schwarz bound on their
  factors (``_bounded``); only a pair that fails it is multiplied out
  into the dense array, which is scanned like any dense gradient.
- ``grad_blocks``, a walk over an element range of the gradient in
  blocks: zeros for a parameter nothing reached (the attention sets of a
  stage that was empty in the batch), slices of the dense array, or the
  pairs multiplied out a row block at a time into the caller's scratch.

``ParamStore.bind`` returns a plain name -> Matrix dict over the values.
On a tape, each Matrix holds its Param, so a backward pass hands its
contributions to the Param (``Matrix.grad_slot``, ``ops``'s products).
Without one, each is a constant over the value view and holds no Param,
so whatever keeps it (the serving index) pins only the values. A writer
goes through a parameter's views, so making a value view read-only (as
the serving index does) stops it: ``adam_step`` checks every value view
before it writes, though it writes through ``values``.
"""

from __future__ import annotations

import math

import numpy as np

from pjfit.numerics.matrix import Matrix, Tape

# Rows of the smallest block Adam multiplies a pair out in: blocks of 64
# rows or more gave the one-GEMM product's bits for every tensor shape of
# the model at every K up to 2048, on 1 and 2 threads, while 4-row blocks
# did not at K = 512 (OpenBLAS 0.3.31).
MIN_ROWS = 64


class Param:
    """Elements [offset, offset + rows * cols) of a store's values, as a
    (rows, cols) view, and the parameter's gradient in the current step.

    The gradient is the sum of ``factors``' products x^T dy when that
    list is not empty, else the dense array; it is zeros when nothing
    reached it (``reached`` false).
    """

    __slots__ = ("value", "offset", "reached", "factors", "_values", "_dense")

    def __init__(self, values: np.ndarray, offset: int, shape: tuple[int, int]):
        self._values = values
        self.offset = offset
        self.value = values[offset:offset + shape[0] * shape[1]].reshape(shape)
        self.reached = False
        self.factors: list[tuple[np.ndarray, np.ndarray]] = []
        self._dense: np.ndarray | None = None

    def add_product(self, x: np.ndarray, dy: np.ndarray) -> None:
        """gradient += x^T dy, kept as the pair when the rules of the
        module docstring allow it, else added to the dense gradient."""
        if (_keeps(len(dy), *self.value.shape) and (self.factors or not self.reached)
                and not np.may_share_memory(x, self._values)):
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
        if self._dense is None:
            self._dense = np.empty(self.value.shape)
        if self.factors:
            self._multiply_rows(0, self.value.shape[0], self._dense.reshape(-1),
                                np.empty(self.value.size))
            self.factors = []
            return self._dense, False
        first, self.reached = not self.reached, True
        return self._dense, first

    def grad_is_finite(self) -> bool:
        """Whether every entry of the gradient is finite. Kept pairs that
        pass ``_bounded`` are finite without being multiplied out; pairs
        that fail it are multiplied out into the dense array, which is
        then scanned. A gradient nothing reached is zeros."""
        if self.factors and not _bounded(self.factors):
            with np.errstate(over="ignore", invalid="ignore"):
                self.grad_slot()  # multiplies the pairs out, to be checked
        return not self.reached or bool(self.factors) or _finite(self._dense)

    def block_size(self, block: int) -> int:
        """The most elements ``grad_blocks`` yields at once, or writes into
        its scratch, for ``block``: ``block``, or the rows of a GEMM of the
        pairs when they hold more, and never more than the parameter
        holds."""
        return min(self.value.size, max(block, self._group_rows(block) * self.value.shape[1]))

    def grad_blocks(self, lo: int, hi: int, block: int, scratch: np.ndarray):
        """(g, start, stop) for each block [start, stop) of the gradient's
        elements [lo, hi), in order, g its gradient there: zeros when
        nothing reached it, its dense array, or its pairs multiplied out
        into ``scratch`` (``block_size(block)`` elements at least), the rows
        that hold at most ``block`` elements at a time, in GEMMs of
        ``_group_rows`` rows. A block of fewer rows (at the ends of the
        range) is multiplied out with its neighbours, up to that many rows,
        and only its own elements are read. A g in ``scratch`` holds until
        the walk takes its next step."""
        if lo >= hi:
            return
        if not self.factors:
            flat = self._dense.reshape(-1) if self.reached else None
            if flat is None:
                scratch[:min(block, hi - lo)] = 0.0
            for start in range(lo, hi, block):
                stop = min(start + block, hi)
                yield scratch[:stop - start] if flat is None else flat[start:stop], start, stop
            return
        (rows, cols), group_rows = self.value.shape, self._group_rows(block)
        end = -(-hi // cols)
        # where the pairs after the first are multiplied before they are added
        product = np.empty(self.block_size(block))
        for r in range(lo // cols, end, group_rows):
            r_end = min(r + group_rows, end)
            top = max(0, r_end - group_rows)
            bottom = min(rows, top + group_rows)
            self._multiply_rows(top, bottom, scratch, product)
            start, stop = max(lo, r * cols), min(hi, r_end * cols)
            yield scratch[start - top * cols:stop - top * cols], start, stop

    def _group_rows(self, block: int) -> int:
        """Rows per GEMM when the pairs are multiplied out for pieces of
        ``block`` elements: a piece's rows, and never fewer than MIN_ROWS."""
        return max(MIN_ROWS, block // self.value.shape[1])

    def _multiply_rows(self, top: int, bottom: int, out: np.ndarray, product: np.ndarray) -> None:
        """Rows [top, bottom) of the sum of the pairs' products x^T dy into
        the start of the 1-D array ``out``, one GEMM per pair: the first
        pair written, each later one multiplied into ``product`` (as many
        elements as the rows hold at least) and added, in the order the
        backward pass made them."""
        rows, cols = bottom - top, self.value.shape[1]
        block = out[:rows * cols].reshape(rows, cols)
        (x, dy), *rest = self.factors
        np.matmul(x[:, top:bottom].T, dy, out=block)
        for x_later, dy_later in rest:
            later = product[:block.size].reshape(block.shape)
            np.matmul(x_later[:, top:bottom].T, dy_later, out=later)
            block += later

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
        self.factors, self.reached = [], False


class ParamStore:
    """Ordered name -> Param map over one 1-D value buffer (``store.values``).
    Iteration order is spec order, which fixes checkpoint layout and makes
    runs reproducible."""

    def __init__(self, spec: list[tuple[str, int, int]]) -> None:
        """Zero-valued parameters, one per (name, rows, cols) of ``spec``,
        as views of the value buffer in spec order."""
        self.values = np.zeros(sum(rows * cols for _, rows, cols in spec))
        self._params: dict[str, Param] = {}
        lo = 0
        for name, rows, cols in spec:
            if name in self._params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._params[name] = Param(self.values, lo, (rows, cols))
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

    def bind(self, tape: Tape | None = None) -> dict[str, Matrix]:
        """Every parameter as a Matrix over its value view: on ``tape``
        holding its Param, or, without one, a constant."""
        return {name: Matrix(p.value, tape, None if tape is None else p)
                for name, p in self._params.items()}


def _keeps(k: int, rows: int, cols: int) -> bool:
    """Whether a product of K = ``k`` rows into a (rows x cols) gradient
    may be kept as its pair: it has two columns or more, and its factors
    hold fewer values than it does."""
    return cols >= 2 and 0 < k * (rows + cols) < rows * cols


def _bounded(factors: list[tuple[np.ndarray, np.ndarray]]) -> bool:
    """Whether the sum of the pairs' products x^T dy is finite for sure:
    by Cauchy-Schwarz, every entry of a product, and every partial sum of
    one, is at most |x| |dy| in magnitude (Frobenius norms), and the sum
    of those over the pairs is below 1e300. A non-finite factor, or a norm
    whose square overflows, makes it NaN or infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return sum(_norm(x) * _norm(dy) for x, dy in factors) < 1e300


def _norm(a: np.ndarray) -> float:
    """The Frobenius norm of ``a``, read in one pass."""
    flat = a.ravel()
    return math.sqrt(float(np.dot(flat, flat)))


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, read in one pass without a
    temporary array when it is: a sum with an infinite or NaN term is
    infinite or NaN, and only a sum that overflows, or holds such a term,
    is checked entry by entry."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(a.sum()) or np.isfinite(a).all())
