"""Binary checkpoint format, version 5.

Layout (all integers little-endian u32):

    magic "PJF1" | version | config-JSON length + bytes |
    the store's value buffer as little-endian float32

The values follow ``model.param_spec`` of the embedded config, tensor
by tensor, each row-major. The file names no tensor: the config alone
places each value. So a change to ``param_spec`` that changes the order
or the number of the values (a tensor added, dropped, reshaped or
reordered) needs a new version. A change that keeps each value at its
place and meaning, such as a tensor renamed or cut into consecutive row
blocks, does not: version 5 files written before ``fusion.w1`` and
``moe.w1`` were cut into row blocks load as they did. Versions 1-4 are
rejected with ``UnsupportedVersionError``.

Training math runs in float64; checkpoints narrow to float32 on save and
widen on load, so round-trips are bit-exact at 32-bit precision. Loading
checks magic, version and config, and that the file holds exactly the
values the config implies, before it allocates the store; then that every
value is finite, naming the tensor and element of the first that is not.

Both passes over the values are split by ``optim``'s rule: W = max(1,
min(usable CPUs, n // optim.CUTOFF)) contiguous shards of the n values
(``optim.shards``), so W = 2 for the d=1024 store on two CPUs and W = 1
at d=64. No thread outlives the call.

- Save: the calling thread writes and flushes the header through the
  handle ``atomic_files`` yields. Then each shard is narrowed into a
  float32 scratch of its own, ``WRITE_CHUNK`` values at a time, and each
  chunk is written with ``os.pwrite`` at its place in the file, so no
  store-sized float32 copy exists and no shard waits for another.
- Load: each shard is read with ``os.preadv`` on the checked file's
  descriptor into a float32 scratch of its own, ``WIDEN_CHUNK`` values at
  a time, widened into the value buffer and checked while in cache. Each
  shard stops at its first non-finite value, or where the file ends if it
  shrank after its size was checked, and the error names the earliest of
  these over all shards: the one a sequential scan would meet first, so
  the message does not depend on W.

Measured on 2 vCPUs at d=1024 (W = 2): in the benchmark's set-up order
(train, then three save+reload cycles; medians over 6 runs) a reload
takes 74 ms against 137 ms on one thread; a save with no old file to
replace takes a median 67 ms (57-76) against 119 ms (102-129) on one
CPU, 6 saves each. A save over the file saved moments earlier spends
another 50-130 ms in ``os.replace``, which waits for the old file's
writeback. At d=64 (W = 1) a load takes 3.6-4.1 ms and a save 5-7 ms.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import json
import os
import struct

import numpy as np

from pjfit.config import ModelConfig, model_config_from_dict
from pjfit.domain.records import atomic_files
from pjfit.model import param_spec
from pjfit.numerics import ParamStore, optim

MAGIC = b"PJF1"
VERSION = 5
# Values per narrowed chunk: 1 MiB of float32 per shard. A d=1024 save
# with no old file to replace took a median 75 ms at this size against
# 70-110 ms at 1 << 16, 1 << 17 and 1 << 20 (6 saves each, 2 vCPUs).
WRITE_CHUNK = 1 << 18
WIDEN_CHUNK = 1 << 16


class CheckpointError(ValueError):
    pass


class BadMagicError(CheckpointError):
    pass


class UnsupportedVersionError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


def save_checkpoint(store: ParamStore, cfg: ModelConfig, path) -> None:
    """Write the store atomically (``atomic_files``): the header, then the
    value buffer narrowed to float32, each shard of it (``optim.shards``)
    in place by ``_write_narrowed``.

    The store's layout must be ``param_spec(cfg)``, since the file keeps
    only the config to say where each value belongs."""
    layout = [(name, *p.value.shape) for name, p in store.items()]
    bad = [pair for pair in itertools.zip_longest(layout, param_spec(cfg)) if pair[0] != pair[1]]
    if bad:
        raise CheckpointShapeError(f"{path}: store tensor {bad[0][0]} where the config "
                                   f"implies {bad[0][1]}")
    config_bytes = json.dumps({"model": dataclasses.asdict(cfg)},
                              sort_keys=True).encode("utf-8")
    header = MAGIC + struct.pack("<II", VERSION, len(config_bytes)) + config_bytes
    values = store.buffers.values
    with atomic_files(path) as (fh,):
        fh.write(header)
        fh.flush()
        optim.run_calls([(_write_narrowed, fh.fileno(), len(header), values, lo, hi)
                         for lo, hi in optim.shards(values.size)])


def _write_narrowed(fd: int, offset: int, values: np.ndarray, lo: int, hi: int) -> None:
    """Writes ``values[lo:hi]`` as float32 at byte ``offset + 4 * lo`` of
    ``fd``, ``WRITE_CHUNK`` values at a time through a scratch of its own;
    a short write is continued where it stopped."""
    scratch = np.empty(min(WRITE_CHUNK, hi - lo), dtype="<f4")
    for a in range(lo, hi, WRITE_CHUNK):
        chunk = scratch[:min(WRITE_CHUNK, hi - a)]
        chunk[...] = values[a:a + chunk.size]
        data, at = memoryview(chunk).cast("B"), offset + 4 * a
        while data:
            written = os.pwrite(fd, data, at)
            data, at = data[written:], at + written


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig]:
    """Read a checkpoint into a store built from its config's spec: each
    shard of the float32 block is read through a scratch of its own and
    widened into the store's float64 value buffer."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n: int, context: str) -> bytes:
            # checked against the file size, so a corrupt length allocates nothing
            if fh.tell() + n > size:
                raise TruncatedCheckpointError(
                    f"{path}: file ends inside {context} "
                    f"(needed {n} bytes at offset {fh.tell()})")
            return fh.read(n)

        magic = take(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, = struct.unpack("<I", take(4, "version"))
        if version != VERSION:
            raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
        config_len, = struct.unpack("<I", take(4, "config length"))
        try:
            config_doc = json.loads(take(config_len, "config").decode("utf-8"))
            cfg = model_config_from_dict(config_doc["model"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: invalid embedded config: {exc}") from exc

        spec = param_spec(cfg)
        ends = list(itertools.accumulate(rows * cols for _, rows, cols in spec))

        def truncated(values_read: int) -> TruncatedCheckpointError:
            name = spec[bisect.bisect_right(ends, values_read)][0]
            return TruncatedCheckpointError(f"{path}: file ends inside tensor {name!r}, before "
                                            f"the {ends[-1]} values its config implies")

        offset = fh.tell()
        stored = size - offset
        # the value buffer is allocated after this, so a config that implies
        # more values than the file holds fails before it
        if stored < 4 * ends[-1]:
            raise truncated(stored // 4)
        if stored > 4 * ends[-1]:
            raise CheckpointError(f"{path}: {stored - 4 * ends[-1]} trailing bytes")
        store = ParamStore(spec)
        values = store.buffers.values
        found = [f for f in optim.run_calls([(_read_widened, fh.fileno(), offset, values, lo, hi)
                                             for lo, hi in optim.shards(values.size)])
                 if f is not None]
    if found:
        at, ended = min(found)
        if ended:
            raise truncated(at)
        k = bisect.bisect_right(ends, at)
        name, _, cols = spec[k]
        row, col = divmod(at - (ends[k - 1] if k else 0), cols)
        raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value "
                              f"({values[at]}) at row {row}, column {col}")
    return store, cfg


def _read_widened(fd: int, offset: int, values: np.ndarray, lo: int,
                  hi: int) -> tuple[int, bool] | None:
    """Reads the float32 values [lo, hi) of the block that starts at byte
    ``offset`` of ``fd`` into ``values[lo:hi]``, ``WIDEN_CHUNK`` at a time
    through a scratch of its own. Returns None, or (i, False) for the first
    value i that is not finite, or (i, True) if the file ends before value i.

    Each widened chunk is checked while in cache by its float64 sum:
    WIDEN_CHUNK float32 magnitudes (< 3.5e38 each) cannot overflow it, so
    only a NaN or an Inf makes it non-finite, and only then is the chunk
    scanned; errstate (per thread) keeps inf - inf from warning."""
    scratch = np.empty(min(WIDEN_CHUNK, hi - lo), dtype="<f4")
    with np.errstate(all="ignore"):
        for a in range(lo, hi, WIDEN_CHUNK):
            part = scratch[:min(WIDEN_CHUNK, hi - a)]
            n = os.preadv(fd, [part], offset + 4 * a) // 4
            chunk = values[a:a + n]
            chunk[...] = part[:n]
            if not np.isfinite(chunk.sum()):
                return a + int(np.argmin(np.isfinite(chunk))), False
            if n < part.size:
                return a + n, True
    return None
