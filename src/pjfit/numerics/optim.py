"""The passes over every value of a ParamStore, split across the usable
CPUs: the initial draw (``glorot_fill``) and the Adam update.
``checkpoint`` splits its save and load by the same rule (``shards``,
``run_calls``). Adam's moments are not the store's: ``adam_step`` takes
them from its caller, ``training.train``, as two arrays over the store's
elements.

Each pass cuts the element range [0, n) of the store's values (and of
the moments) into W contiguous shards [lo, hi), W = max(1, min(usable
CPUs, n // CUTOFF)), where the usable CPUs are the process's affinity
mask. The calling thread works the first shard; the rest run on a pool
of at most W - 1 threads that the call starts and joins, so no thread
outlives it. numpy releases the interpreter lock inside each block's
operations, so the shards run in parallel. Every operation of the draw
and of the update is elementwise, and a shard of the draw starts its own
generator at its offset, so where the shard and block cuts fall changes
no bit: the result is the same for every W and every BLOCK.

The gradients are not a buffer. A shard walks its element range
parameter by parameter and reads each gradient through its Param
(``Param.grad_blocks``), which also says whether it is finite
(``Param.grad_is_finite``). How a gradient is held, and that the walk
gives the same bits wherever a cut falls, is ``params``' rule.

A gradient's pairs are multiplied out in each shard's walk, in GEMMs of
``params.MIN_ROWS`` rows or more. OpenBLAS may spread such a GEMM over
its own threads, and two shards that both hand one to OpenBLAS fight over
its threads, which go on spinning after each GEMM. So OpenBLAS is held to
one thread (``_one_blas_thread``) and its thread count restored after, in
one of two scopes:

- Adam's step. While more than one shard runs, ``adam_step`` holds it
  from its first gradient check to its last shard, so each shard
  multiplies out and updates its own rows on its own CPU. The checks run
  held too: the norms of the Cauchy-Schwarz bound (``params._norm``, an
  ``np.dot`` that OpenBLAS threads above ~10k values) woke OpenBLAS's
  worker, which then spun on a CPU that a shard needed: 12 ticks at 100
  Hz after one norm of 20,000 values, none when held.
- The whole training of a small store. ``training.train`` keeps
  ``training_hold`` around its loop over batches: for a store of fewer
  than SMALL_STORE values OpenBLAS stays on one thread in the forward and
  the backward too, and Adam's own hold inside it is a no-op. At d=64 the
  forward's and backward's GEMMs, run on two threads, kept the worker
  spinning through each Adam step: it took 1.5-1.7 s of CPU in a warm
  1.7 s ``converge-d64`` call, so a second shard got half a CPU. Held
  throughout, it took none.

A pair's row blocks have the same bits on 1 and 2 threads, so Adam's hold
changes no bit. The forward's and backward's GEMMs can give other bits on
one thread than on two (ROADMAP item 6): on ``converge-d64`` seeds 1-3
they did not, so its training has the same bits as before the hold. The
count is the process's, so another thread's GEMM inside a hold runs on
one thread too. When numpy's BLAS is not an OpenBLAS found among the
process's mapped libraries, nothing is held: the result is the same, only
slower. A batch-32 d=1024 training (CHANGES.md) ran ~10% faster than with
dense gradients with Adam's hold, and ~20% slower with its larger pairs
(K > 32 at 1024 columns) multiplied out and updated on the calling thread
after the walk.

The constants were measured on 2 vCPUs with a 2 MiB L2 each (the timings
are in CHANGES.md):
- BLOCK, 65536 elements, measured fastest at d=1024 among 16384-131072,
  and no size was faster at d=64;
- CUTOFF, 2^20 elements per shard, splits the d=64 store (2.4M values)
  in two, which gains only with it trained on one BLAS thread (above),
  and keeps the test stores of a few thousand values on one thread; the
  54.2M-value d=1024 store splits in two;
- SMALL_STORE, 2^23 values, lies between the store sizes where training
  held throughout gained and where it lost. Warm ``train()`` calls on
  ``converge-d64``'s generator in one process, held throughout against
  Adam's hold alone (both at CUTOFF 2^20; medians, and the pairs of
  alternating calls that the hold won): d=64 (2.4M values) 1.41 against
  1.73 s (8/8), d=256 (7.4M) 4.18 against 4.78 s (4/4), d=512 (18.3M)
  8.99 against 8.29 s (0/4), and d=1024 at batch 32 (54.2M) 9.55 against
  8.30 s (1/4), where the forward's and backward's larger GEMMs gain
  from two threads (and where one thread changed the bits).
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from pjfit.numerics.params import Param, ParamStore

# Elements per block of the update: value, gradient, both moments and two
# scratch buffers of 512 KiB each. The fastest of the sizes measured at
# d=1024, though the six arrays exceed a core's L2.
BLOCK = 65536
# Elements per shard at least: a store smaller than 2 * CUTOFF updates on
# the calling thread alone.
CUTOFF = 1 << 20
# Values in a store below which its training holds OpenBLAS to one thread
# throughout (``training_hold``), not only inside Adam's steps.
SMALL_STORE = 1 << 23


class TrainingDivergedError(RuntimeError):
    """A gradient or loss went non-finite."""


def adam_step(store: ParamStore, m: np.ndarray, v: np.ndarray, lr: float, step: int,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> ParamStore:
    """One Adam update with bias correction, in place; ``step`` is 1-based.

    ``m`` and ``v`` are the moments, the caller's: 1-D float64 arrays over
    the store's elements, zeros before step 1. ``training.train`` owns
    them for the length of a run; the store holds no optimizer state.

    First the moments and every parameter are checked, and nothing changes
    unless all pass: moments of another size or dtype, or read-only, raise
    ValueError; a read-only value (a store frozen by a serving index)
    raises ValueError naming the parameter; and a non-finite gradient
    raises TrainingDivergedError naming the first such parameter in store
    order (``Param.grad_is_finite``).

    Then each shard walks its elements, reading value, gradient and
    moments once and writing value and moments once: the moments are
    updated and the value takes its step. A gradient nothing reached in
    the step reads as zeros. The gradients are consumed
    (``Param.consume_grad``): their pairs are dropped, and they read as
    zeros afterwards without a pass over them.

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
    for moment in (m, v):
        if (moment.shape != store.values.shape or moment.dtype != np.float64
                or not moment.flags.writeable):
            raise ValueError(f"Adam's moments must be writable float64 arrays of shape "
                             f"{store.values.shape}")
    for name, p in store.items():
        if not p.value.flags.writeable:
            raise ValueError(f"parameter {name!r} is read-only")
    parameters = [p for _, p in store.items()]
    cuts = shards(store.values.size)
    with _one_blas_thread(len(cuts) > 1):
        for name, p in store.items():
            if not p.grad_is_finite():
                raise TrainingDivergedError(f"non-finite gradient in parameter {name!r}")
        args = (lr, 1.0 - beta1 ** step, 1.0 - beta2 ** step, beta1, beta2, eps)
        run_calls([(_update, lo, hi, store.values, m, v, parameters, *args) for lo, hi in cuts])
    for p in parameters:
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


def _openblas_threads():
    """The (get, set) functions of the thread count of the OpenBLAS that the
    process has loaded (numpy's), or None when none is found: no
    /proc/self/maps, or no mapped library whose name holds "openblas"
    exports them under one of the names OpenBLAS builds use."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line[line.index("/"):].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and put:
                return get, put
    return None


_OPENBLAS = _openblas_threads()


@contextlib.contextmanager
def _one_blas_thread(hold: bool):
    """OpenBLAS held to one thread inside the block when ``hold``, and its
    thread count restored after it; nothing when not, or when
    ``_openblas_threads`` found no OpenBLAS."""
    get, put = _OPENBLAS if hold and _OPENBLAS else (lambda: None, lambda threads: None)
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def training_hold(store: ParamStore):
    """The hold ``training.train`` keeps around its loop over batches:
    OpenBLAS held to one thread (``_one_blas_thread``) for a store of fewer
    than SMALL_STORE values, nothing for a larger one. Inside it, Adam's
    own hold is a no-op."""
    return _one_blas_thread(store.values.size < SMALL_STORE)


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


def _update(lo: int, hi: int, values: np.ndarray, m: np.ndarray, v: np.ndarray,
            parameters: list[Param], *args) -> None:
    """The update of elements [lo, hi) of ``values`` and the moments ``m``
    and ``v``: for each of ``parameters``, in store order, the Adam ops on
    each block of its gradient (``Param.grad_blocks``) that falls in the
    range. ``args`` are ``_adam``'s from ``lr`` on."""
    size = max((p.block_size(BLOCK) for p in parameters), default=0)
    scratch, scratch_a, scratch_b = np.empty(size), np.empty(size), np.empty(size)
    for p in parameters:
        start = p.offset
        a, b = max(lo, start) - start, min(hi, start + p.value.size) - start
        for g, s, e in p.grad_blocks(a, b, BLOCK, scratch):
            at = slice(start + s, start + e)
            _adam(values[at], g, m[at], v[at], scratch_a[:e - s], scratch_b[:e - s], *args)


def _adam(w: np.ndarray, g: np.ndarray, mb: np.ndarray, vb: np.ndarray, a: np.ndarray,
          b: np.ndarray, lr: float, c1: float, c2: float, beta1: float, beta2: float,
          eps: float) -> None:
    """The update of one block in place: w, g, mb and vb the value,
    gradient and moments, a and b scratch arrays of the same length."""
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
