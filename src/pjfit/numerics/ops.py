"""Forward operations with hand-derived backward passes.

Every function returns a new Matrix and, when any input sits on a tape,
records one closure that accumulates exact gradients into the inputs that
sit on that tape. Untaped inputs (constants) get no gradient computed.

``segment_attention`` runs on dense GEMMs, not on per-slot row copies. It
cuts its query rows into ``segment_tiles`` contiguous tiles, ``m = max(1,
min(ceil(n / 16), ceil(n U / (32 slots))))`` for n queries over U k/v rows
with ``slots`` (query, key) pairs, and each tile works on one dense block
of (tile queries) x (distinct k/v rows the tile names). When the tiles'
keys are disjoint that is about 32 dense cells per slot; a single tile
spends n U cells, and ``query_tiles`` falls back to it when the tiles'
keys overlap so much that their blocks would hold more than half of
those cells. Outputs and gradients differ from those of per-slot dot
products and scatters only in summation order: on the attention calls of
a converge-d64 benchmark run by at most 3.1e-15 of each result's largest
entry, and the tests hold them to 1e-12 relative of a per-query oracle.
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
                x.grad += out.grad @ w.data.T
            if w.tape is not None:
                w.grad += x.data.T @ out.grad
            if b.tape is not None:
                b.grad += out.grad.sum(axis=0, keepdims=True) if b.rows < out.rows else out.grad
        tape.record(backward)
    return out


def relu(x: Matrix) -> Matrix:
    """Elementwise max(0, x); NaN stays NaN. Subgradient at exactly 0 is 0."""
    out = Matrix(np.maximum(x.data, 0.0), x.tape)
    if x.tape is not None:
        mask = x.data > 0.0
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


# segment_attention cuts n query rows into at most ceil(n / TILE_QUERIES)
# tiles, and into no more than it takes to bring the dense (queries x
# distinct keys) blocks to about TILE_CELLS_PER_SLOT cells per (query, key)
# slot; see segment_tiles. query_tiles keeps those tiles only when their
# blocks, over the rows they actually name, hold at most TILE_MAX_CELL_SHARE
# of the n U cells of a single block: each tile gathers its own k/v rows, and
# on the converge-d64 benchmark two tiles that each named ~250 of 320 rows
# ran ~20% slower than one tile.
TILE_QUERIES = 16
TILE_CELLS_PER_SLOT = 32
TILE_MAX_CELL_SHARE = 0.5


def segment_tiles(n_queries: int, n_rows: int, n_slots: int) -> int:
    """How many contiguous query tiles segment_attention cuts its rows into.

    ``m = max(1, min(ceil(n / TILE_QUERIES), ceil(n U / (TILE_CELLS_PER_SLOT
    slots))))`` for n queries over U k/v rows with ``slots`` (query, key)
    pairs. One tile over all U rows costs n U dense cells; when the tiles'
    keys are disjoint, m tiles cost about n U / m, that is about
    TILE_CELLS_PER_SLOT cells per slot.
    """
    by_queries = -(-n_queries // TILE_QUERIES)
    by_cells = -(-(n_queries * n_rows) // (TILE_CELLS_PER_SLOT * max(n_slots, 1)))
    return max(1, min(by_queries, by_cells))


def query_tiles(starts: np.ndarray, query: np.ndarray, key: np.ndarray, n_rows: int) -> list[tuple]:
    """The contiguous query tiles segment_attention works on.

    Slot s pairs query ``query[s]`` with k/v row ``key[s]``; the slots are
    query-major and query i owns slots ``[starts[i], starts[i + 1])``. A
    tile is a tuple (a, b, s0, s1, rows, flat): query rows [a, b), their
    slots [s0, s1), the ascending k/v rows they name (None for a single
    tile, which reads all ``n_rows``) and each slot's flat index into the
    dense (b - a) x (tile rows) block. The ``segment_tiles`` tiles are
    kept only when their blocks hold at most ``TILE_MAX_CELL_SHARE`` of the
    n ``n_rows`` cells of a single tile.
    """
    n = starts.size - 1
    m = segment_tiles(n, n_rows, query.size)
    single = [(0, n, 0, query.size, None, query * n_rows + key)]
    if m == 1:
        return single
    tiles = []
    cells = 0
    cuts = np.arange(m + 1) * n // m
    named = np.zeros(n_rows, dtype=bool)
    column = np.empty(n_rows, dtype=np.intp)
    for a, b in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        s0, s1 = int(starts[a]), int(starts[b])
        if s0 == s1:
            continue
        # the tile's distinct rows in ascending order, without a sort
        named[:] = False
        named[key[s0:s1]] = True
        rows = np.flatnonzero(named)
        column[rows] = np.arange(rows.size)
        cells += (b - a) * rows.size
        tiles.append((a, b, s0, s1, rows, (query[s0:s1] - a) * rows.size + column[key[s0:s1]]))
    return single if cells > TILE_MAX_CELL_SHARE * n * n_rows else tiles


def segment_attention(q: Matrix, k: Matrix, v: Matrix, ranges, row_map=None) -> Matrix:
    """Row i is softmax(q_i K_s^T / sqrt(d_k)) V_s over the key rows s = [lo_i, hi_i).

    ``ranges`` is an (n, 2) integer array holding one [lo, hi) range per
    query row; several queries may share a range. A query with an empty
    range gets a zero row and passes no gradient. Without ``row_map`` the
    ranges index k/v rows directly. With it, they index ``row_map``, whose
    entries are k/v rows: packed key j is k/v row ``row_map[j]``, so one
    k/v row can serve many packed keys, and its gradients accumulate.

    The query rows are cut into ``query_tiles`` contiguous tiles. Each
    tile gathers the distinct k/v rows its slots name (a single tile uses
    k and v as they are) and works on a dense block of (tile queries)
    x (tile rows): each slot's logit is read by flat index from one GEMM
    ``L_t = Q_t K_t^T``, the slot weights are summed into ``P_t`` with
    ``bincount`` (so a row named twice in a range counts twice) and the
    output is ``P_t V_t``. The backward is GEMMs on the same blocks:
    ``dV_t = P_t^T G_t``, slot weight gradients read from ``G_t V_t^T``,
    ``dQ_t = dL_t K_t`` and ``dK_t = dL_t^T Q_t``. No slot copies a q, k
    or v row; see the module docstring for the cost and the tolerance. A
    block row meets the k/v rows its query does not name with weight 0, so
    they leave its output unchanged only while they are finite.
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
    starts = np.concatenate(([0], np.cumsum(lengths)))
    query = np.repeat(np.arange(q.rows), lengths)
    key = np.arange(query.size) + np.repeat(lo - starts[:-1], lengths)
    if row_map is not None:
        key = row_map[key]
    first = starts[:-1][nonempty]
    seg_len = lengths[nonempty]

    tiles = query_tiles(starts, query, key, k.rows)

    def block(x, rows):
        return x.data if rows is None else np.take(x.data, rows, axis=0)

    def dense(a, b, rows, flat, slot_values):
        width = v.rows if rows is None else rows.size
        return np.bincount(flat, slot_values, minlength=(b - a) * width).reshape(b - a, width)

    scale = 1.0 / math.sqrt(q.cols)
    logits = np.empty(query.size)
    for a, b, s0, s1, rows, flat in tiles:
        logits[s0:s1] = np.take(q.data[a:b] @ block(k, rows).T, flat)
    logits *= scale
    e = logits - np.repeat(np.maximum.reduceat(logits, first), seg_len)
    np.exp(e, out=e)
    weights = e / np.repeat(np.add.reduceat(e, first), seg_len)
    data = np.zeros((q.rows, v.cols))
    for a, b, s0, s1, rows, flat in tiles:
        np.matmul(dense(a, b, rows, flat, weights[s0:s1]), block(v, rows), out=data[a:b])
    out = Matrix(data, tape)
    if tape is not None:
        def backward():
            # a tile's rows are distinct, so a fancy-index += adds each
            # tile's gradient block once per row
            dw = np.empty(query.size)
            for a, b, s0, s1, rows, flat in tiles:
                g = out.grad[a:b]
                dw[s0:s1] = np.take(g @ block(v, rows).T, flat)
                if v.tape is not None:
                    dv = dense(a, b, rows, flat, weights[s0:s1]).T @ g
                    if rows is None:
                        v.grad += dv
                    else:
                        v.grad[rows] += dv
            dlogits = weights * (dw - np.repeat(np.add.reduceat(dw * weights, first), seg_len))
            dlogits *= scale
            for a, b, s0, s1, rows, flat in tiles:
                dl = dense(a, b, rows, flat, dlogits[s0:s1])
                if q.tape is not None:
                    q.grad[a:b] += dl @ block(k, rows)
                if k.tape is not None:
                    dk = dl.T @ q.data[a:b]
                    if rows is None:
                        k.grad += dk
                    else:
                        k.grad[rows] += dk
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
            x.grad += np.bincount(cells, out.grad.reshape(-1),
                                  minlength=x.data.size).reshape(x.shape)
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
