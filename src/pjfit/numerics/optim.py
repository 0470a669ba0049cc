"""Adam updates over a ParamStore, split across the usable CPUs.

``adam_step`` works on the store's ``Buffers`` (one array per role, see
``params``): it cuts their element range [0, n) into W contiguous shards
[lo, hi), W = max(1, min(usable CPUs, n // CUTOFF)), where the usable
CPUs are the process's affinity mask. The calling thread updates the
first shard; the rest run on a pool of at most W - 1 threads that the
call starts and joins, so no thread outlives it. numpy releases the
interpreter lock inside each block's operations, so the shards run in
parallel. Every operation of the update is elementwise, so where the
shard and block cuts fall changes no bit: the result is the same for
every W and every BLOCK.

Measured on 2 vCPUs with a 4 MiB L2 each, float64, on the d=1024 store
(66.8M values, so W = 2): one step after the first takes 0.50 s on two
threads against 0.86-0.89 s on one, and in a traced ``sparse-d1024`` run
(seed 31) a training call's Adam time is 1.60 s (2.80 s on one thread
over per-tensor arrays). BLOCK was measured on this store at W = 2:
16384 elements took 0.65-0.71 s per step, 32768 0.50-0.55 s, 65536
0.50-0.51 s, 131072 0.49-0.57 s and 262144 0.56-0.61 s.

CUTOFF keeps small stores on the calling thread, since inside training
two threads lose there: on ``converge-d64`` (2.4M values) a CUTOFF of
2^20, so W = 2, trained at a median 383 pairs/s against 428 at W = 1 (6
runs each, seeds 971-976, slower on every seed). On a bare 2.4M-value
store two threads take 19 ms per step against 31 ms on one, but 36 ms
against 32 ms right after twenty (256 x 256) GEMMs, and 20 ms again
after a 0.5 s pause: OpenBLAS's threads go on spinning for a while after
a GEMM, and the backward ends in GEMMs. 2^22 elements per shard keeps
the 2.4M-value store on one thread and splits the 66.8M-value one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pjfit.numerics.params import Buffers, ParamStore

# Elements per block of the fused update. Value, gradient, both moments and
# the two scratch buffers of one block (6 x 512 KiB) stay in a core's 4 MiB
# L2.
BLOCK = 65536
# Elements per shard at least: a store smaller than 2 * CUTOFF updates on
# the calling thread alone.
CUTOFF = 1 << 22


class TrainingDivergedError(RuntimeError):
    """A gradient or loss went non-finite."""


def adam_step(store: ParamStore, lr: float, step: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """One Adam update with bias correction, in place; ``step`` is 1-based.

    First every parameter is checked, and nothing changes unless all pass:
    a read-only value (a store frozen by a serving index) raises
    ValueError naming the parameter, and a non-finite gradient raises
    TrainingDivergedError naming the first such parameter in store order.
    The gradient check runs on the shards, like the update.

    Then each shard walks its elements in blocks of BLOCK, reading value,
    gradient and moments once and writing them once: the moments are
    updated, the value takes its step, and the gradient block is zeroed
    while still in cache, so no separate pass zeroes the gradients.
    The moments are allocated on the first step with ``np.zeros``, whose
    pages the system zeroes on first touch inside the same pass. A
    parameter whose gradient nothing asked for reads the zeros of its span
    of the gradient buffer.

    The arithmetic is the textbook expression's, operation for operation,
    so the result is bitwise equal to it:

        m = m * beta1 + (1 - beta1) * g;  v = v * beta2 + (1 - beta2) * g^2
        value -= (lr * (m / c1)) / (sqrt(v / c2) + eps)

    with c1 = 1 - beta1**step and c2 = 1 - beta2**step. A zero gradient is
    still added ((1 - beta1) * 0.0 is +0.0, which turns a -0.0 moment into
    +0.0).
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if step < 1:
        raise ValueError("step is 1-based")
    for name, p in store.items():
        if not p.value.flags.writeable:
            raise ValueError(f"parameter {name!r} is read-only")
    buffers = store.buffers
    bad = [i for i in _sharded(buffers, _first_non_finite) if i is not None]
    if bad:
        first = min(bad)
        for name, p in store.items():
            first -= p.value.size
            if first < 0:
                raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
    if buffers.grads is None:
        buffers.grads = np.zeros(buffers.values.size)
    if buffers.m is None:
        buffers.m = np.zeros(buffers.values.size)
        buffers.v = np.zeros(buffers.values.size)
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    _sharded(buffers, _update, lr, c1, c2, beta1, beta2, eps)
    return store


def _workers(elements: int) -> int:
    """W: one shard per usable CPU, and at least CUTOFF elements per shard."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, elements // CUTOFF))


def _sharded(buffers: Buffers, shard, *args) -> list:
    """``shard(buffers, lo, hi, *args)`` for each of W contiguous shards
    [lo, hi) of the elements of ``buffers``, in shard order: the first on
    the calling thread, the rest on threads that are joined before this
    returns. An exception in any shard is raised here."""
    n = buffers.values.size
    w = _workers(n)
    cuts = [n * i // w for i in range(w + 1)]
    with ThreadPoolExecutor(max(1, w - 1)) as pool:
        rest = [pool.submit(shard, buffers, cuts[i], cuts[i + 1], *args) for i in range(1, w)]
        return [shard(buffers, cuts[0], cuts[1], *args)] + [f.result() for f in rest]


def _blocks(lo: int, hi: int):
    """(start, stop) of each block of at most BLOCK elements of [lo, hi)."""
    for start in range(lo, hi, BLOCK):
        yield start, min(start + BLOCK, hi)


def _first_non_finite(buffers: Buffers, lo: int, hi: int) -> int | None:
    """The first element of [lo, hi) with a non-finite gradient, or None."""
    if buffers.grads is None:
        return None
    finite = np.empty(BLOCK, dtype=bool)
    for start, stop in _blocks(lo, hi):
        ok = np.isfinite(buffers.grads[start:stop], out=finite[:stop - start])
        if not ok.all():
            return start + int(np.argmin(ok))
    return None


def _update(buffers: Buffers, lo: int, hi: int, lr: float, c1: float, c2: float,
            beta1: float, beta2: float, eps: float) -> None:
    scratch_a = np.empty(BLOCK)
    scratch_b = np.empty(BLOCK)
    for start, stop in _blocks(lo, hi):
        w = buffers.values[start:stop]
        g = buffers.grads[start:stop]
        mb, vb = buffers.m[start:stop], buffers.v[start:stop]
        a, b = scratch_a[:stop - start], scratch_b[:stop - start]
        mb *= beta1
        vb *= beta2
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
