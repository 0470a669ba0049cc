"""Binary checkpoint format.

Layout (all integers little-endian u32):

    magic "PJF1" | version | config-JSON length + bytes |
    tensor count | per tensor: name length + UTF-8 name, rank, dims...,
    row-major float32 values

Tensors follow ``model.param_spec`` of the embedded config. An attention
set is four (d x d) tensors, ``wq``, ``wk``, ``wv`` and ``wo``, with the
heads as column blocks of the first three. Version 3 made the experts'
first layers column blocks of one ``moe.w1`` and one ``moe.b1``, the
single-FFN ablations included as one expert. Version 2 (a ``w1`` and
``b1`` per expert, ``head.*`` tensors) and version 1 (a tensor per
attention head) are rejected with ``UnsupportedVersionError``.

Training math runs in float64; checkpoints narrow to float32 on save and
widen on load, so round-trips are bit-exact at 32-bit precision. Loading
validates magic, version, and every tensor name and shape against the
parameter layout implied by the embedded config.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from pjfit.config import ModelConfig, model_config_from_dict, model_config_to_dict
from pjfit.model import param_spec
from pjfit.numerics import ParamStore

MAGIC = b"PJF1"
VERSION = 3
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
    """Write the store atomically: stream it into ``<path>.tmp``, then
    rename that over ``path``."""
    config_bytes = json.dumps({"model": model_config_to_dict(cfg)},
                              sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", VERSION, len(config_bytes)) + config_bytes
                 + struct.pack("<I", len(store)))
        for name, p in store.items():
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)) + name_bytes
                     + struct.pack("<III", 2, *p.value.shape))
            fh.write(np.ascontiguousarray(p.value, dtype="<f4"))
    os.replace(tmp, path)


class _Reader:
    """Reads a checkpoint file front to back. Every read is checked against
    the file size first, so a short file names the field it cuts off and a
    corrupt length allocates nothing."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.pos = 0
        self.size = os.fstat(fh.fileno()).st_size

    def _advance(self, n: int, context: str) -> None:
        if self.pos + n > self.size:
            raise TruncatedCheckpointError(
                f"{self.path}: file ends inside {context} "
                f"(needed {n} bytes at offset {self.pos})")
        self.pos += n

    def take(self, n: int, context: str) -> bytes:
        self._advance(n, context)
        return self.fh.read(n)

    def read_widened(self, out: np.ndarray, context: str) -> None:
        """Fill the C-contiguous float64 array ``out`` from little-endian
        float32 values, widened in place: read into the upper half of
        ``out``'s bytes, then widened front to back ``WIDEN_CHUNK`` values
        at a time, each chunk's writes ending below the values still to be
        read (numpy copies a chunk that overlaps its source through a
        temporary)."""
        out = out.reshape(-1)
        n = out.size
        self._advance(n * 4, context)
        narrow = out.view("<f4")[n:]
        self.fh.readinto(narrow)
        for lo in range(0, n, WIDEN_CHUNK):
            out[lo:lo + WIDEN_CHUNK] = narrow[lo:lo + WIDEN_CHUNK]

    def u32(self, context: str) -> int:
        return struct.unpack("<I", self.take(4, context))[0]


def load_checkpoint(path) -> tuple[ParamStore, ModelConfig]:
    """Read a checkpoint into a store built from its config's spec; tensors
    are read one at a time straight into their views of the value buffer."""
    with open(path, "rb") as fh:
        return _read_checkpoint(_Reader(fh, path))


def _read_checkpoint(reader: _Reader) -> tuple[ParamStore, ModelConfig]:
    path = reader.path
    magic = reader.take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    version = reader.u32("version")
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported format version {version}")
    config_len = reader.u32("config length")
    try:
        config_doc = json.loads(reader.take(config_len, "config").decode("utf-8"))
        cfg = model_config_from_dict(config_doc["model"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: invalid embedded config: {exc}") from exc

    spec = param_spec(cfg)
    count = reader.u32("tensor count")
    if count != len(spec):
        raise CheckpointShapeError(
            f"{path}: {count} tensors stored, config implies {len(spec)}")
    # the one value buffer is allocated up front, so a config that implies
    # more values than the file can hold must fail before it
    values = sum(rows * cols for _, rows, cols in spec)
    if 4 * values > reader.size - reader.pos:
        raise TruncatedCheckpointError(
            f"{path}: file ends before the {values} values its config implies")
    store = ParamStore(spec)
    for expected_name, rows, cols in spec:
        name_len = reader.u32(f"name length of {expected_name!r}")
        try:
            name = reader.take(name_len, f"name of {expected_name!r}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointShapeError(
                f"{path}: tensor name is not UTF-8 where config expects {expected_name!r}") from exc
        if name != expected_name:
            raise CheckpointShapeError(
                f"{path}: tensor {name!r} where config expects {expected_name!r}")
        rank = reader.u32(f"rank of {name!r}")
        if rank != 2:
            raise CheckpointShapeError(f"{path}: tensor {name!r} has rank {rank}, expected 2")
        dims = struct.unpack("<II", reader.take(8, f"dims of {name!r}"))
        if dims != (rows, cols):
            raise CheckpointShapeError(
                f"{path}: tensor {name!r} has shape {dims}, config implies {(rows, cols)}")
        reader.read_widened(store[name].value, f"values of tensor {name!r}")
    if reader.pos != reader.size:
        raise CheckpointError(f"{path}: {reader.size - reader.pos} trailing bytes")
    return store, cfg
