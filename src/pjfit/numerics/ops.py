"""Forward operations with hand-derived backward passes.

Every function returns a new Matrix and, when any input sits on a tape,
records one closure that accumulates exact gradients into the inputs that
sit on that tape. Untaped inputs (constants) get no gradient computed.
The first contribution a closure makes to a gradient in a backward pass
is written into it (``Matrix.grad_slot``), later ones are added, and the
tape skips a closure whose output nothing reached. A bound weight's
product x^T dy in ``matmul`` and ``affine`` is handed to its parameter,
which keeps its step's first product as the pair (x, dy) where it can
(``params``), for Adam to multiply out.

The vocabulary is the ten ops the model calls, all on 2-D matrices:
``matmul``, ``affine``, ``relu``, ``softmax_rows``, ``segment_attention``,
``concat_cols``, ``split_cols``, ``gather_rows``, ``add`` and ``mul``.
The pairwise loss is one node of its own, ``training.bpr_loss_graph``.

``segment_attention`` runs on dense GEMMs, not on per-slot row copies.
Its heads are column blocks of q, k and v, and its output holds them side
by side; the slot indices are built once per call and serve every head.
Each head works on one dense block of (n queries) x (U k/v rows), n U
cells, so callers pass only the k/v rows their ranges name, and those
rows must be finite. Outputs and gradients differ from those of
per-slot dot products and scatters only in summation order: on the
attention calls of a converge-d64 benchmark run by at most 3.1e-15 of
each result's largest entry, and the tests hold them to 1e-12 relative
of a per-query oracle.
"""

from __future__ import annotations

import math

import numpy as np

from pjfit.numerics.matrix import DimensionError, Matrix, tape_of


def _add_result(m: Matrix, op, *args, **kwargs) -> None:
    """m's gradient += op(*args, **kwargs), for a numpy function ``op``
    that takes ``out``. The first contribution of a backward pass is
    computed straight into the gradient (``np.matmul(..., out=)`` for a
    product), not added to zeros."""
    grad, first = m.grad_slot()
    if first:
        op(*args, out=grad, **kwargs)
    else:
        grad += op(*args, **kwargs)


def _add_value(m: Matrix, value: np.ndarray) -> None:
    """m's gradient += value; the first contribution is copied in."""
    grad, first = m.grad_slot()
    if first:
        grad[...] = value
    else:
        grad += value


def _add_product(w: Matrix, x: np.ndarray, dy: np.ndarray) -> None:
    """w's gradient += x^T dy. A bound parameter takes the product as the
    pair (x, dy) (``Param.add_product``), which it keeps unmultiplied when
    the product is its step's first and the keep rule allows."""
    if w._param is not None:
        w._param.add_product(x, dy)
    else:
        _add_result(w, np.matmul, x.T, dy)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data @ b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                _add_result(a, np.matmul, out.grad, b.data.T)
            if b.tape is not None:
                _add_product(b, a.data, out.grad)
        tape.record(backward, out)
    return out


def affine(x: Matrix, w: Matrix, b: Matrix) -> Matrix:
    """x @ w + b, where b is one row broadcast over the rows or a whole
    (x.rows x w.cols) matrix, such as a running sum of products."""
    if x.cols != w.rows:
        raise DimensionError(f"affine: x {x.shape} incompatible with w {w.shape}")
    if b.shape not in ((1, w.cols), (x.rows, w.cols)):
        raise DimensionError(
            f"affine: bias {b.shape} must be (1, {w.cols}) or ({x.rows}, {w.cols})")
    tape = tape_of(x, w, b)
    data = x.data @ w.data
    data += b.data
    out = Matrix(data, tape)
    if tape is not None:
        def backward():
            if x.tape is not None:
                _add_result(x, np.matmul, out.grad, w.data.T)
            if w.tape is not None:
                _add_product(w, x.data, out.grad)
            if b.tape is not None and b.rows < out.rows:
                _add_result(b, np.sum, out.grad, axis=0, keepdims=True)
            elif b.tape is not None:
                _add_value(b, out.grad)
        tape.record(backward, out)
    return out


def relu(x: Matrix) -> Matrix:
    """Elementwise max(0, x); NaN stays NaN. Subgradient at exactly 0 is 0."""
    out = Matrix(np.maximum(x.data, 0.0), x.tape)
    if x.tape is not None:
        mask = x.data > 0.0
        def backward():
            _add_result(x, np.multiply, out.grad, mask)
        x.tape.record(backward, out)
    return out


def softmax_rows(x: Matrix) -> Matrix:
    """Row-wise softmax with max subtraction for stability."""
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = Matrix(s, x.tape)
    if x.tape is not None:
        def backward():
            g = out.grad
            # d softmax: s * (g - sum_j g_j s_j) per row
            _add_result(x, np.multiply, s, g - (g * s).sum(axis=1, keepdims=True))
        x.tape.record(backward, out)
    return out


def segment_attention(q: Matrix, k: Matrix, v: Matrix, ranges, row_map, heads: int) -> Matrix:
    """Multi-head attention of each query row over its own segment of key rows.

    q, k and v hold ``heads`` column blocks each, head h's block being
    columns [h w, (h + 1) w) for w the width divided by ``heads``. Row i of
    head h's output is softmax(q_i K_s^T / sqrt(d_k)) V_s over the key rows
    s = [lo_i, hi_i), with q, K and V read in that head's blocks and d_k
    the head's q width; the output holds the heads side by side, (n x
    v.cols).

    ``ranges`` is an (n, 2) integer array holding one [lo, hi) range per
    query row over the packed keys of ``row_map``; several queries may
    share a range. A query with an empty range gets a zero row and passes
    no gradient. ``row_map`` is a vector of k/v rows: packed key j is k/v
    row ``row_map[j]``, so one k/v row can serve many packed keys, and its
    gradients accumulate.

    The slot and segment index arithmetic is built once per call and
    serves every head. Each head works on one dense block of (n queries)
    x (all k/v rows): each slot's logit is read by flat index ``query *
    k.rows + key`` from one GEMM ``L = Q K^T``, the slot weights are
    summed into ``P`` with ``bincount`` (so a row named twice in a range
    counts twice) and the output is ``P V``. The backward is GEMMs on the
    same block: ``dV = P^T G``, slot weight gradients read from ``G
    V^T``, ``dQ = dL K`` and ``dK = dL^T Q``. No slot copies a q, k or v
    row. A call costs one block of n ``k.rows`` cells per head, so pass
    only the k/v rows the ranges name; a query meets every row it does not
    name with weight 0, which leaves its output unchanged only while that
    row is finite. See the module docstring for the tolerance.
    """
    ranges = np.asarray(ranges, dtype=np.intp)
    if q.cols != k.cols:
        raise DimensionError(f"attention: q {q.shape} vs k {k.shape}")
    if k.rows != v.rows:
        raise DimensionError(f"attention: k {k.shape} vs v {v.shape}")
    if heads < 1 or q.cols % heads or v.cols % heads:
        raise DimensionError(f"attention: {heads} heads do not divide q {q.shape} and v {v.shape}")
    if ranges.shape != (q.rows, 2):
        raise DimensionError(f"attention: ranges {ranges.shape} for {q.rows} query rows")
    row_map = np.asarray(row_map, dtype=np.intp)
    if row_map.ndim != 1:
        raise DimensionError(f"attention: row map of shape {row_map.shape} is not a vector")
    if row_map.size and (row_map.min() < 0 or row_map.max() >= k.rows):
        raise IndexError(f"attention: row map entry outside [0, {k.rows})")
    lo, hi = ranges[:, 0], ranges[:, 1]
    if (lo < 0).any() or (hi < lo).any() or (hi > row_map.size).any():
        raise IndexError(f"attention: key range outside [0, {row_map.size})")
    tape = tape_of(q, k, v)
    lengths = hi - lo
    nonempty = lengths > 0
    if not nonempty.any():
        return Matrix(np.zeros((q.rows, v.cols)), tape)

    # one slot per (query, key in its range), query-major; a segment is
    # the run of slots of one query, so segment sums are reduceat calls
    starts = np.concatenate(([0], np.cumsum(lengths)))
    query = np.repeat(np.arange(q.rows), lengths)
    key = row_map[np.arange(query.size) + np.repeat(lo - starts[:-1], lengths)]
    flat = query * k.rows + key
    first = starts[:-1][nonempty]
    seg_len = lengths[nonempty]

    def dense(slot_values):
        return np.bincount(flat, slot_values, minlength=q.rows * k.rows).reshape(q.rows, k.rows)

    dk, dv = q.cols // heads, v.cols // heads
    # per head, its columns of q and k, and of v and the output
    blocks = [(slice(h * dk, (h + 1) * dk), slice(h * dv, (h + 1) * dv)) for h in range(heads)]
    scale = 1.0 / math.sqrt(dk)
    weights = []
    data = np.empty((q.rows, v.cols))
    for cq, cv in blocks:
        logits = np.take(q.data[:, cq] @ k.data[:, cq].T, flat)
        logits *= scale
        e = logits - np.repeat(np.maximum.reduceat(logits, first), seg_len)
        np.exp(e, out=e)
        weights.append(e / np.repeat(np.add.reduceat(e, first), seg_len))
        data[:, cv] = dense(weights[-1]) @ v.data[:, cv]
    out = Matrix(data, tape)
    if tape is not None:
        def backward():
            # every head writes or adds its column block of each gradient,
            # so a gradient first reached here is written whole by the loop;
            # the slots are taken in the loop's order, v, q, k, so that an
            # input passed twice is written before it is added to
            dv_slot, dq_slot, dk_slot = (m.grad_slot() if m.tape is not None else None
                                         for m in (v, q, k))

            def add(slot, cols, left, right):
                if slot is not None:
                    grad, fresh = slot
                    if fresh:
                        np.matmul(left, right, out=grad[:, cols])
                    else:
                        grad[:, cols] += left @ right

            for (cq, cv), w in zip(blocks, weights):
                g = out.grad[:, cv]
                dw = np.take(g @ v.data[:, cv].T, flat)
                add(dv_slot, cv, dense(w).T, g)
                dlogits = w * (dw - np.repeat(np.add.reduceat(dw * w, first), seg_len))
                dlogits *= scale
                dl = dense(dlogits)
                add(dq_slot, cq, dl, k.data[:, cq])
                add(dk_slot, cq, dl.T, q.data[:, cq])
        tape.record(backward, out)
    return out


def concat_cols(parts: list[Matrix]) -> Matrix:
    if not parts:
        raise DimensionError("concat_cols of nothing")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionError(f"concat_cols: row counts differ: {[p.shape for p in parts]}")
    tape = tape_of(*parts)
    out = Matrix(np.concatenate([p.data for p in parts], axis=1), tape)
    if tape is not None:
        offsets = np.cumsum([0] + [p.cols for p in parts])
        def backward():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.tape is not None:
                    _add_value(p, out.grad[:, lo:hi])
        tape.record(backward, out)
    return out


def split_cols(x: Matrix, parts: int) -> list[Matrix]:
    """The inverse of ``concat_cols``: x cut into ``parts`` column blocks
    of equal width, left to right, with one backward for all of them."""
    if parts < 1 or x.cols % parts:
        raise DimensionError(f"split_cols: {parts} parts do not divide {x.shape}")
    width = x.cols // parts
    outs = [Matrix(x.data[:, i * width:(i + 1) * width], x.tape) for i in range(parts)]
    if x.tape is not None:
        def backward():
            for i, out in enumerate(outs):
                if out.has_grad:
                    x.grad[:, i * width:(i + 1) * width] += out.grad
        x.tape.record(backward)
    return outs


def gather_rows(x: Matrix, indices) -> Matrix:
    """Select rows by index, e.g. embedding-table lookup.

    The backward sums the gradients of repeated indices with one
    ``bincount`` over x's cells, which ran 2-5x faster than ``np.add.at``
    on the (32 x 256) and (32 x 1024) gathers of a d=64 training step.
    """
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise IndexError(f"row index out of range for {x.rows} rows: {idx}")
    out = Matrix(x.data[idx], x.tape)
    if x.tape is not None:
        def backward():
            cells = (idx[:, None] * x.cols + np.arange(x.cols)).reshape(-1)
            _add_value(x, np.bincount(cells, out.grad.reshape(-1),
                                      minlength=x.data.size).reshape(x.shape))
        x.tape.record(backward, out)
    return out


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data + b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                _add_value(a, out.grad)
            if b.tape is not None:
                _add_value(b, out.grad)
        tape.record(backward, out)
    return out


def mul(a: Matrix, b: Matrix) -> Matrix:
    """Elementwise product."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: {a.shape} vs {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data * b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                _add_result(a, np.multiply, out.grad, b.data)
            if b.tape is not None:
                _add_result(b, np.multiply, out.grad, a.data)
        tape.record(backward, out)
    return out
