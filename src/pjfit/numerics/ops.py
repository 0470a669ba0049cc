"""Forward operations with hand-derived backward passes.

Every function returns a new Matrix and, when any input sits on a tape,
records one closure that accumulates exact gradients into the inputs that
sit on that tape. Untaped inputs (constants) get no gradient computed.
"""

from __future__ import annotations

import math

import numpy as np

from pjfit.numerics.matrix import DimensionError, Matrix, tape_of


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data @ b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                a.grad += out.grad @ b.data.T
            if b.tape is not None:
                b.grad += a.data.T @ out.grad
        tape.record(backward)
    return out


def affine(x: Matrix, w: Matrix, b: Matrix) -> Matrix:
    """x @ w + b with b broadcast over rows; b must be 1 x w.cols."""
    if x.cols != w.rows:
        raise DimensionError(f"affine: x {x.shape} incompatible with w {w.shape}")
    if b.shape != (1, w.cols):
        raise DimensionError(f"affine: bias {b.shape} must be (1, {w.cols})")
    tape = tape_of(x, w, b)
    out = Matrix(x.data @ w.data + b.data, tape)
    if tape is not None:
        def backward():
            if x.tape is not None:
                x.grad += out.grad @ w.data.T
            if w.tape is not None:
                w.grad += x.data.T @ out.grad
            if b.tape is not None:
                b.grad += out.grad.sum(axis=0, keepdims=True)
        tape.record(backward)
    return out


def relu(x: Matrix) -> Matrix:
    """Elementwise max(0, x). Subgradient at exactly 0 is 0."""
    mask = x.data > 0.0
    out = Matrix(np.where(mask, x.data, 0.0), x.tape)
    if x.tape is not None:
        def backward():
            x.grad += out.grad * mask
        x.tape.record(backward)
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
            x.grad += s * (g - (g * s).sum(axis=1, keepdims=True))
        x.tape.record(backward)
    return out


def segment_attention(q: Matrix, k: Matrix, v: Matrix, ranges, row_map=None) -> Matrix:
    """Row i is softmax(q_i K_s^T / sqrt(d_k)) V_s over the key rows s = [lo_i, hi_i).

    ``ranges`` is an (n, 2) integer array holding one [lo, hi) range per
    query row; several queries may share a range. A query with an empty
    range gets a zero row and passes no gradient. Without ``row_map`` the
    ranges index k/v rows directly. With it, they index ``row_map``, whose
    entries are k/v rows: packed key j is k/v row ``row_map[j]``, so one
    k/v row can serve many packed keys, and its gradients accumulate.
    """
    ranges = np.asarray(ranges, dtype=np.intp)
    if q.cols != k.cols:
        raise DimensionError(f"attention: q {q.shape} vs k {k.shape}")
    if k.rows != v.rows:
        raise DimensionError(f"attention: k {k.shape} vs v {v.shape}")
    if ranges.shape != (q.rows, 2):
        raise DimensionError(f"attention: ranges {ranges.shape} for {q.rows} query rows")
    n_keys = k.rows
    if row_map is not None:
        row_map = np.asarray(row_map, dtype=np.intp)
        if row_map.ndim != 1:
            raise DimensionError(f"attention: row map of shape {row_map.shape} is not a vector")
        if row_map.size and (row_map.min() < 0 or row_map.max() >= k.rows):
            raise IndexError(f"attention: row map entry outside [0, {k.rows})")
        n_keys = row_map.size
    lo, hi = ranges[:, 0], ranges[:, 1]
    if (lo < 0).any() or (hi < lo).any() or (hi > n_keys).any():
        raise IndexError(f"attention: key range outside [0, {n_keys})")
    tape = tape_of(q, k, v)
    lengths = hi - lo
    nonempty = lengths > 0
    if not nonempty.any():
        return Matrix(np.zeros((q.rows, v.cols)), tape)

    # one slot per (query, key in its range), query-major; a segment is
    # the run of slots of one query, so segment sums are reduceat calls
    offsets = np.cumsum(lengths) - lengths
    query = np.repeat(np.arange(q.rows), lengths)
    key = np.arange(query.size) + np.repeat(lo - offsets, lengths)
    if row_map is not None:
        key = row_map[key]
    first = offsets[nonempty]
    seg_len = lengths[nonempty]

    scale = 1.0 / math.sqrt(q.cols)
    # slot-sized copies come from np.take, faster than fancy indexing, and
    # products are taken in place, so each is allocated once
    logits = np.einsum("ij,ij->i", np.take(q.data, query, axis=0), np.take(k.data, key, axis=0))
    logits *= scale
    e = logits - np.repeat(np.maximum.reduceat(logits, first), seg_len)
    np.exp(e, out=e)
    weights = e / np.repeat(np.add.reduceat(e, first), seg_len)
    weighted = np.take(v.data, key, axis=0)
    weighted *= weights[:, None]
    data = np.zeros((q.rows, v.cols))
    data[nonempty] = np.add.reduceat(weighted, first, axis=0)
    out = Matrix(data, tape)
    if tape is not None:
        def backward():
            g = np.take(out.grad, query, axis=0)
            # np.add.at, not +=: a k/v row may sit in many slots
            if v.tape is not None:
                np.add.at(v.grad, key, weights[:, None] * g)
            dw = np.einsum("ij,ij->i", g, np.take(v.data, key, axis=0))
            dlogits = weights * (dw - np.repeat(np.add.reduceat(dw * weights, first), seg_len))
            dlogits *= scale
            if q.tape is not None:
                dq = np.take(k.data, key, axis=0)
                dq *= dlogits[:, None]
                q.grad[nonempty] += np.add.reduceat(dq, first, axis=0)
            if k.tape is not None:
                dk = np.take(q.data, query, axis=0)
                dk *= dlogits[:, None]
                np.add.at(k.grad, key, dk)
        tape.record(backward)
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
                    p.grad += out.grad[:, lo:hi]
        tape.record(backward)
    return out


def concat_rows(parts: list[Matrix]) -> Matrix:
    if not parts:
        raise DimensionError("concat_rows of nothing")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise DimensionError(f"concat_rows: col counts differ: {[p.shape for p in parts]}")
    tape = tape_of(*parts)
    out = Matrix(np.concatenate([p.data for p in parts], axis=0), tape)
    if tape is not None:
        offsets = np.cumsum([0] + [p.rows for p in parts])
        def backward():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                if p.tape is not None:
                    p.grad += out.grad[lo:hi, :]
        tape.record(backward)
    return out


def gather_rows(x: Matrix, indices) -> Matrix:
    """Select rows by index, e.g. embedding-table lookup."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= x.rows):
        raise IndexError(f"row index out of range for {x.rows} rows: {idx}")
    out = Matrix(x.data[idx], x.tape)
    if x.tape is not None:
        def backward():
            np.add.at(x.grad, idx, out.grad)
        x.tape.record(backward)
    return out


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"add: {a.shape} vs {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data + b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                a.grad += out.grad
            if b.tape is not None:
                b.grad += out.grad
        tape.record(backward)
    return out


def sub(a: Matrix, b: Matrix) -> Matrix:
    if a.shape != b.shape:
        raise DimensionError(f"sub: {a.shape} vs {b.shape}")
    tape = tape_of(a, b)
    out = Matrix(a.data - b.data, tape)
    if tape is not None:
        def backward():
            if a.tape is not None:
                a.grad += out.grad
            if b.tape is not None:
                b.grad -= out.grad
        tape.record(backward)
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
                a.grad += out.grad * b.data
            if b.tape is not None:
                b.grad += out.grad * a.data
        tape.record(backward)
    return out


def scale(x: Matrix, c: float) -> Matrix:
    out = Matrix(x.data * c, x.tape)
    if x.tape is not None:
        def backward():
            x.grad += out.grad * c
        x.tape.record(backward)
    return out


def square(x: Matrix) -> Matrix:
    out = Matrix(x.data * x.data, x.tape)
    if x.tape is not None:
        def backward():
            x.grad += out.grad * 2.0 * x.data
        x.tape.record(backward)
    return out


def logsigmoid(x: Matrix) -> Matrix:
    """log(sigma(x)) computed as -softplus(-x); safe for |x| > 30."""
    out = Matrix(-np.logaddexp(0.0, -x.data), x.tape)
    if x.tape is not None:
        # d/dx log sigma(x) = sigma(-x), on the overflow-free branch
        t = np.exp(-np.abs(x.data))
        sig_neg = np.where(x.data >= 0, t / (1.0 + t), 1.0 / (1.0 + t))
        def backward():
            x.grad += out.grad * sig_neg
        x.tape.record(backward)
    return out


def sum_all(x: Matrix) -> Matrix:
    out = Matrix(np.array([[x.data.sum()]]), x.tape)
    if x.tape is not None:
        def backward():
            x.grad += out.grad[0, 0]
        x.tape.record(backward)
    return out


def mean_all(x: Matrix) -> Matrix:
    n = x.data.size
    out = Matrix(np.array([[x.data.sum() / n]]), x.tape)
    if x.tape is not None:
        def backward():
            x.grad += out.grad[0, 0] / n
        x.tape.record(backward)
    return out
