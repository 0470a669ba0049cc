"""The passes over every value of a ParamStore, split across the usable
CPUs: the initial draw (``glorot_fill``) and the Adam update.
``checkpoint`` splits its save and load by the same rule (``shards``,
``run_calls``).

Each pass cuts the element range [0, n) of the store's ``Buffers`` (one
array per role, see ``params``) into W contiguous shards [lo, hi), W =
max(1, min(usable CPUs, n // CUTOFF)), where the usable CPUs are the
process's affinity mask. The calling thread works the first shard; the
rest run on a pool of at most W - 1 threads that the call starts and
joins, so no thread outlives it. numpy releases the interpreter lock
inside each block's operations, so the shards run in parallel. Every
operation of both passes is elementwise, and a shard of the draw starts
its own generator at its offset, so where the shard and block cuts fall
changes no bit: the result is the same for every W and every BLOCK.

Who zeroes the gradients: nobody, as a pass of its own. A backward pass
writes the first contribution to a parameter's rows and adds the rest
(``params``); ``adam_step`` zeroes only the rows nothing reached in the
step (the attention sets of a stage that was empty in the batch: 11.6% of
the d=1024 store on the first step of ``sparse-d1024`` at seed 1), reads
the whole buffer, and clears every row's reached flag: the gradients read
as zeros through ``Param.grad`` from then on, and the next backward
overwrites them.

Measured on 2 vCPUs with a 2 MiB L2 each, float64, on the d=1024 store
(54,219,978 values, so W = 2), two runs of 7 steps per setting, the
settings alternating: a step after the first takes a median 0.34 s on
two threads (0.29-0.38) against 0.58 s on one (0.54-0.71), and the first
step, which writes the moments without reading them, 0.39 s against
0.63 s. The init draw of that store takes a median 0.20 s on two
threads against 0.38 s on one (6 draws each, alternating). BLOCK was
measured on this store at W = 2, 6 steps per size in alternating order:
16384 elements took 0.50 s per step, 32768 0.38 s, 65536 0.37 s and
131072 0.39 s. On the d=64 store (W = 1) the sizes read 28-31 ms, with
no order beyond the noise. A block's six arrays (3 MiB at 65536) do not
fit in L2, so 65536 stays because it measured fastest, not for cache
residency.

CUTOFF keeps small stores on the calling thread, since inside training
two threads lose there: on ``converge-d64`` (2.4M values) a CUTOFF of
2^20, so W = 2, trained at a median 383 pairs/s against 428 at W = 1 (6
runs each, seeds 971-976, slower on every seed). On a bare 2.4M-value
store two threads take 19 ms per step against 31 ms on one, but 36 ms
against 32 ms right after twenty (256 x 256) GEMMs, and 20 ms again
after a 0.5 s pause: OpenBLAS's threads go on spinning for a while after
a GEMM, and the backward ends in GEMMs. 2^22 elements per shard keeps
the 2.4M-value store on one thread and splits the 54.2M-value one.
"""

from __future__ import annotations

import copy
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pjfit.numerics.params import Buffers, ParamStore

# Elements per block of the fused update: value, gradient, both moments and
# two scratch buffers of 512 KiB each. The fastest of the sizes measured at
# d=1024 (module docstring), though the six arrays exceed a core's L2.
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

    Before that, the gradient rows nothing reached in the step are zeroed
    (``Param.zero_unreached``): a parameter nobody asked about reads as a
    zero gradient. Then each shard walks its elements in blocks of BLOCK,
    reading value, gradient and moments once and writing value and
    moments once: the moments are updated and the value takes its step.
    The gradients are consumed, not zeroed (``Param.consume_grad``): they
    read as zeros afterwards without a pass over them.

    The arithmetic is the textbook expression's, operation for operation,
    so the result is bitwise equal to it:

        m = m * beta1 + (1 - beta1) * g;  v = v * beta2 + (1 - beta2) * g^2
        value -= (lr * (m / c1)) / (sqrt(v / c2) + eps)

    with c1 = 1 - beta1**step and c2 = 1 - beta2**step. A zero gradient is
    still added ((1 - beta1) * 0.0 is +0.0, which turns a -0.0 moment into
    +0.0). On the first step the moments are allocated with ``np.empty``
    and written without being read, as m = (1 - beta1) * g + 0.0 and v =
    (1 - beta2) * g^2 + 0.0: from zero moments, m * beta1 is +0.0, and
    adding +0.0 gives the same bits as adding it first, the sign of a zero
    included.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if step < 1:
        raise ValueError("step is 1-based")
    for name, p in store.items():
        if not p.value.flags.writeable:
            raise ValueError(f"parameter {name!r} is read-only")
    buffers = store.buffers
    if buffers.grads is None:
        buffers.grads = np.empty(buffers.values.size)
    for _, p in store.items():
        p.zero_unreached()
    bad = [i for i in _sharded(buffers, _first_non_finite) if i is not None]
    if bad:
        first = min(bad)
        for name, p in store.items():
            first -= p.value.size
            if first < 0:
                raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
    first = buffers.m is None
    if first:
        buffers.m = np.empty(buffers.values.size)
        buffers.v = np.empty(buffers.values.size)
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    _sharded(buffers, _update, lr, c1, c2, beta1, beta2, eps, first)
    for _, p in store.items():
        p.consume_grad()
    return store


def worker_count(elements: int) -> int:
    """W: one shard per usable CPU, and at least CUTOFF elements per shard."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, elements // CUTOFF))


def shards(elements: int) -> list[tuple[int, int]]:
    """The W = ``worker_count(elements)`` contiguous shards [lo, hi) of
    [0, elements), in order, their sizes differing by at most one."""
    w = worker_count(elements)
    return [(elements * i // w, elements * (i + 1) // w) for i in range(w)]


def run_calls(calls: list[tuple]) -> list:
    """The results of ``fn(*args)`` for each (fn, *args) of ``calls``, in
    order: the first on the calling thread, the rest on threads that are
    joined before this returns. An exception in any call is raised here,
    the first call's before the others'."""
    with ThreadPoolExecutor(max(1, len(calls) - 1)) as pool:
        rest = [pool.submit(*call) for call in calls[1:]]
        return [calls[0][0](*calls[0][1:])] + [f.result() for f in rest]


def _sharded(buffers: Buffers, shard, *args) -> list:
    """``shard(buffers, lo, hi, *args)`` for each shard [lo, hi) of the
    elements of ``buffers`` (``shards``), in shard order (``run_calls``)."""
    return run_calls([(shard, buffers, lo, hi, *args) for lo, hi in shards(buffers.values.size)])


def glorot_fill(values: np.ndarray, limits: list[tuple[int, float]],
                rng: np.random.Generator) -> None:
    """Uniform values in the 1-D array ``values``: value i is draw i of
    ``rng``'s stream, mapped by ``rng.uniform``'s arithmetic (u * (limit -
    -limit) + -limit) to [-limit, limit) with the limit of its span.
    ``limits`` holds (count, limit) per consecutive span of ``values``, in
    order; a limit of 0 gives +0.0. ``rng`` ends at position n =
    values.size, as after ``rng.uniform`` drew them all.

    Shard 0 (``shards``) is drawn from ``rng`` on the calling thread, each
    other shard from a copy of its bit generator (PCG64, as every generator
    of ``rng.py``) moved to the shard's start with ``advance``, which jumps
    ahead in O(log n) steps. Each shard draws BLOCK values at a time and
    scales them while they are in cache.
    """
    cuts = shards(values.size)
    generators = [rng]
    for lo, _ in cuts[1:]:
        bit_generator = copy.deepcopy(rng.bit_generator)
        bit_generator.advance(lo)
        generators.append(np.random.Generator(bit_generator))
    run_calls([(_draw, values, limits, lo, hi, g) for (lo, hi), g in zip(cuts, generators)])
    rng.bit_generator.advance(values.size - cuts[0][1])


def _draw(values: np.ndarray, limits: list[tuple[int, float]], lo: int, hi: int,
          rng: np.random.Generator) -> None:
    """Draws [lo, hi) of ``glorot_fill``'s values from ``rng``, which stands
    at ``lo``, at most BLOCK values at a time and none across a span edge."""
    stop = 0
    for count, limit in limits:
        start, stop = stop, stop + count
        for a, b in _blocks(max(lo, start), min(hi, stop)):
            block = values[a:b]
            rng.random(out=block)
            block *= limit - -limit
            block += -limit


def _blocks(lo: int, hi: int):
    """(start, stop) of each block of at most BLOCK elements of [lo, hi)."""
    for start in range(lo, hi, BLOCK):
        yield start, min(start + BLOCK, hi)


def _first_non_finite(buffers: Buffers, lo: int, hi: int) -> int | None:
    """The first element of [lo, hi) with a non-finite gradient, or None."""
    finite = np.empty(BLOCK, dtype=bool)
    for start, stop in _blocks(lo, hi):
        ok = np.isfinite(buffers.grads[start:stop], out=finite[:stop - start])
        if not ok.all():
            return start + int(np.argmin(ok))
    return None


def _update(buffers: Buffers, lo: int, hi: int, lr: float, c1: float, c2: float,
            beta1: float, beta2: float, eps: float, first: bool) -> None:
    scratch_a = np.empty(BLOCK)
    scratch_b = np.empty(BLOCK)
    for start, stop in _blocks(lo, hi):
        w = buffers.values[start:stop]
        g = buffers.grads[start:stop]
        mb, vb = buffers.m[start:stop], buffers.v[start:stop]
        a, b = scratch_a[:stop - start], scratch_b[:stop - start]
        if first:
            # the update from zero moments without reading them: 0 * beta
            # is +0.0, so m is (1 - beta1) g + 0.0, which also turns -0.0 to +0.0
            np.multiply(g, 1.0 - beta1, out=mb)
            mb += 0.0
            np.square(g, out=vb)
            vb *= 1.0 - beta2
            vb += 0.0
        else:
            mb *= beta1
            vb *= beta2
            np.multiply(g, 1.0 - beta1, out=a)
            mb += a
            np.square(g, out=a)
            a *= 1.0 - beta2
            vb += a
        np.divide(vb, c2, out=a)
        np.sqrt(a, out=a)
        a += eps
        np.divide(mb, c1, out=b)
        b *= lr
        b /= a
        w -= b
