"""Binary checkpoint format, version 5.

Layout (all integers little-endian u32):

    magic "PJF1" | version | config-JSON length + bytes |
    the store's value buffer as little-endian float32

The values follow ``model.param_spec`` of the embedded config, tensor
by tensor, each row-major. The file names no tensor: the config alone
places each value, so any change to ``param_spec`` (a tensor added,
dropped, reshaped or reordered) needs a new version. Versions 1-4 are
rejected with ``UnsupportedVersionError``: version 4 wrote a name, rank
and dims record per tensor, version 3 a ``wo`` per attention set,
version 2 a first layer per expert, version 1 a tensor per head.

Training math runs in float64; checkpoints narrow to float32 on save and
widen on load, so round-trips are bit-exact at 32-bit precision. Loading
checks magic, version and config, and that the file holds exactly the
values the config implies, before it allocates the store; then that every
value is finite, naming the tensor and element of the first that is not.
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
from pjfit.numerics import ParamStore

MAGIC = b"PJF1"
VERSION = 5
WRITE_CHUNK = 1 << 20
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
    value buffer narrowed to float32 ``WRITE_CHUNK`` values at a time.

    The store's layout must be ``param_spec(cfg)``, since the file keeps
    only the config to say where each value belongs."""
    layout = [(name, *p.value.shape) for name, p in store.items()]
    bad = [pair for pair in itertools.zip_longest(layout, param_spec(cfg)) if pair[0] != pair[1]]
    if bad:
        raise CheckpointShapeError(f"{path}: store tensor {bad[0][0]} where the config "
                                   f"implies {bad[0][1]}")
    config_bytes = json.dumps({"model": dataclasses.asdict(cfg)},
                              sort_keys=True).encode("utf-8")
    values = store.buffers.values
    with atomic_files(path) as (fh,):
        fh.write(MAGIC + struct.pack("<II", VERSION, len(config_bytes)) + config_bytes)
        for lo in range(0, values.size, WRITE_CHUNK):
            fh.write(values[lo:lo + WRITE_CHUNK].astype("<f4"))


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig]:
    """Read a checkpoint into a store built from its config's spec, the
    float32 block straight into the store's float64 value buffer."""
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
        stored = size - fh.tell()
        # the value buffer is allocated after this, so a config that implies
        # more values than the file holds fails before it
        if stored < 4 * ends[-1]:
            name = spec[bisect.bisect_right(ends, stored // 4)][0]
            raise TruncatedCheckpointError(
                f"{path}: file ends inside tensor {name!r}, before the "
                f"{ends[-1]} values its config implies")
        if stored > 4 * ends[-1]:
            raise CheckpointError(f"{path}: {stored - 4 * ends[-1]} trailing bytes")
        store = ParamStore(spec)
        # widened in place: read into the upper half of the value buffer's
        # bytes, then widened front to back WIDEN_CHUNK values at a time,
        # each chunk's writes ending below the values still to be read
        # (numpy copies a chunk that overlaps its source through a temporary)
        out = store.buffers.values
        narrow = out.view("<f4")[out.size:]
        fh.readinto(narrow)
        # each widened chunk is checked while in cache by its float64 sum:
        # WIDEN_CHUNK float32 magnitudes (< 3.5e38 each) cannot overflow it,
        # so only a NaN or an Inf makes it non-finite, and only then is the
        # chunk scanned; errstate keeps inf - inf from warning
        with np.errstate(all="ignore"):
            for lo in range(0, out.size, WIDEN_CHUNK):
                chunk = out[lo:lo + WIDEN_CHUNK]
                chunk[...] = narrow[lo:lo + WIDEN_CHUNK]
                if not np.isfinite(chunk.sum()):
                    at = lo + int(np.argmin(np.isfinite(chunk)))
                    k = bisect.bisect_right(ends, at)
                    name, _, cols = spec[k]
                    row, col = divmod(at - (ends[k - 1] if k else 0), cols)
                    raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value "
                                          f"({out[at]}) at row {row}, column {col}")
    return store, cfg
