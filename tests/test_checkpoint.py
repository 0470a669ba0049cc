import json
import os
import re
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import pjfit
from pjfit import checkpoint
from pjfit.checkpoint import (
    BadMagicError,
    CheckpointError,
    CheckpointShapeError,
    TruncatedCheckpointError,
    UnsupportedVersionError,
    load_checkpoint,
    save_checkpoint,
)
from pjfit.config import ABLATIONS
from pjfit.model import init_params, param_spec
from pjfit.numerics import optim, seeded_rng
from pjfit.serve import ServingIndex
from pjfit.training import SequenceCache, score_pairs

from conftest import DatasetBuilder, toy_model_config


@pytest.fixture
def saved(tmp_path):
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(store, cfg, path)
    return cfg, store, path


def test_round_trip_is_bitwise_identical_at_32_bit(saved):
    cfg, store, path = saved
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded.names() == store.names()
    for name, p in store.items():
        narrowed = p.value.astype(np.float32)
        assert loaded[name].value.astype(np.float32).tobytes() == narrowed.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_widening_in_chunks_reads_every_value(saved, monkeypatch, chunk):
    # a tensor is widened in place over several chunks, some of whose
    # float32 sources overlap their float64 destinations
    cfg, store, path = saved
    monkeypatch.setattr(optim, "BLOCK", chunk)
    loaded, _ = load_checkpoint(path)
    for name, p in store.items():
        assert loaded[name].value.tobytes() == p.value.astype(np.float32).astype(np.float64).tobytes()


def test_save_load_save_is_byte_stable(saved, tmp_path):
    cfg, _, path = saved
    loaded, loaded_cfg = load_checkpoint(path)
    second = tmp_path / "second.ckpt"
    save_checkpoint(loaded, loaded_cfg, second)
    assert second.read_bytes() == path.read_bytes()


def test_loaded_values_are_views_of_one_buffer(saved):
    _, _, path = saved
    loaded, _ = load_checkpoint(path)
    assert all(np.shares_memory(p.value, loaded.values) for _, p in loaded.items())


def test_config_larger_than_the_file_fails_before_allocating(saved):
    # an embedded config of 10^12 values in a file of a few KB: raised from
    # the file size, before the value buffer (8 TB) is allocated
    _, _, path = saved
    blob = path.read_bytes()
    config_len = int.from_bytes(blob[8:12], "little")
    doc = json.loads(blob[12:12 + config_len])
    doc["model"].update(d_model=1 << 20, fusion_hidden=1 << 20)
    config = json.dumps(doc).encode()
    path.write_bytes(blob[:8] + len(config).to_bytes(4, "little") + config + blob[12 + config_len:])
    with pytest.raises(TruncatedCheckpointError, match="values its config implies"):
        load_checkpoint(path)


def test_truncation_mid_tensor_names_the_tensor(saved):
    cfg, _, path = saved
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 2])
    # the store ends with the last expert's output bias, one value
    with pytest.raises(TruncatedCheckpointError, match="moe.expert2.b3"):
        load_checkpoint(path)


def test_bad_magic_rejected(saved):
    _, _, path = saved
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(BadMagicError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(saved):
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError, match="version 99"):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_old_version_checkpoint_is_rejected(saved, version):
    # version 1 stored one (d x d_k) query, key and value tensor per head;
    # version 2 a first layer per expert and head.* tensors for the
    # single-FFN ablations; version 3 an output projection wo per attention
    # set and the rows of fusion.w1 stage-major; version 4 a name, rank and
    # dims record before each tensor
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    assert blob[4:8] == (5).to_bytes(4, "little")
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError, match=f"unsupported format version {version}$"):
        load_checkpoint(path)


def _set_values(path, at, values):
    """Overwrite float32 values at and after position ``at`` of the value block."""
    blob = bytearray(path.read_bytes())
    config_len = int.from_bytes(blob[8:12], "little")
    lo = 12 + config_len + 4 * at
    raw = np.asarray(values, dtype="<f4").tobytes()
    blob[lo:lo + len(raw)] = raw
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("chunk", [7, 1 << 16])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_value_is_refused_naming_the_tensor_and_element(saved, monkeypatch, chunk, bad):
    # row 1, column 2 of the second tensor; raised as CheckpointError even
    # with RuntimeWarnings as errors
    cfg, _, path = saved
    monkeypatch.setattr(optim, "BLOCK", chunk)
    (_, rows0, cols0), (name, _, cols) = param_spec(cfg)[:2]
    _set_values(path, rows0 * cols0 + cols + 2, [bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor {name!r} holds a non-finite value ({bad}) at row 1, column 2")):
            load_checkpoint(path)


def test_opposite_infinities_in_one_chunk_are_refused(saved):
    # their float64 sum is NaN, not Inf; the first one is named
    _, store, path = saved
    _set_values(path, store.values.size - 2, [np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match=re.escape("(inf)")):
            load_checkpoint(path)


def test_largest_finite_float32_values_load(saved):
    # every value at the float32 extremes: each chunk's float64 sum stays finite
    _, store, path = saved
    n = store.values.size
    top = np.finfo(np.float32).max
    _set_values(path, 0, np.where(np.arange(n) % 3 == 0, -top, top))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loaded, _ = load_checkpoint(path)
    assert np.abs(loaded.values).min() == top


def test_value_block_is_the_float32_value_buffer(saved):
    _, store, path = saved
    blob = path.read_bytes()
    config_len = int.from_bytes(blob[8:12], "little")
    assert blob[12 + config_len:] == store.values.astype("<f4").tobytes()


def test_param_spec_is_the_layout_pinned_for_this_version():
    # a checkpoint names no tensor, so its version stands for the layout:
    # a change to param_spec that changes the order or the number of the
    # values needs a new checkpoint.VERSION and a new pin; one that keeps
    # every value in place (a rename, a tensor cut into row blocks) only a
    # new pin, and a file of the old layout in the test below
    pinned = json.loads((Path(__file__).parent / "data" / "checkpoint_layout.json").read_text())
    assert checkpoint.VERSION == pinned["version"], (
        "checkpoint.VERSION changed: pin its param_spec in tests/data/checkpoint_layout.json")
    for ablation in ABLATIONS:
        spec = [list(t) for t in param_spec(toy_model_config(ablation=ablation))]
        assert spec == pinned["toy_param_specs"][ablation], (
            f"param_spec of the toy {ablation!r} config changed: if a value moved, checkpoints "
            f"of version {checkpoint.VERSION} would load into the wrong tensors, so bump "
            "checkpoint.VERSION; either way re-pin tests/data/checkpoint_layout.json")


def v5_dataset():
    """The dataset the committed version 5 files in tests/data were trained
    and scored on (see ``how`` in v5_toy_scores.json)."""
    b = DatasetBuilder(dim=4, seed=5)
    for c in range(4):
        b.entity(f"c{c}", "candidate", category=("Technology", "Data")[c % 2],
                 hist_eval=("j0", "j1", "j2")[c % 2:], hist_pass_eval=("j1",)[:c % 2])
    for j in range(3):
        b.entity(f"j{j}", "job", category=("Technology", "Data", "Sales")[j],
                 hist_eval=("c0", "c1", "c2")[j:], hist_pass_interview=("c3",)[:j % 2])
    for c in range(4):
        for j in range(3):
            b.pair(f"c{c}", f"j{j}", int(c % 2 == j % 2), ts=10 * c + j)
    return b.build()


@pytest.mark.parametrize("name", ["v5_toy_none.ckpt", "v5_toy_simple_match.ckpt"])
def test_a_file_written_before_the_row_block_split_loads_as_it_did(name, tmp_path):
    # written, with the same version, when fusion.w1 and moe.w1 were one
    # tensor each; they are now consecutive row-block tensors, so every
    # value keeps its place in the file
    data = Path(__file__).parent / "data"
    pinned = json.loads((data / "v5_toy_scores.json").read_text())["checkpoints"][name]
    store, cfg = load_checkpoint(data / name)
    values, lo = store.values, 0
    for old, rows, cols in pinned["spec"]:
        # a tensor of then is the tensors of now that bear its name, stacked
        stacked = np.concatenate([p.value for new, p in store.items()
                                  if new == old or new.startswith(old + ".")])
        assert stacked.shape == (rows, cols), old
        assert stacked.tobytes() == values[lo:lo + rows * cols].tobytes(), old
        lo += rows * cols
    assert lo == values.size
    # the values and the config are the file's own bytes
    save_checkpoint(store, cfg, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (data / name).read_bytes()
    # and score as they did; a BLAS kernel other than the writer's may round
    # otherwise, so the pin is 1e-12 relative, not bitwise
    ds = v5_dataset()
    candidates = [c for c in ds.candidates.values() for _ in ds.jobs]
    jobs = [j for _ in ds.candidates for j in ds.jobs.values()]
    got = score_pairs(candidates, jobs, store.bind(), cfg, SequenceCache(ds, cfg)).data[:, 0]
    np.testing.assert_allclose(got, pinned["score_pairs"], rtol=1e-12, atol=1e-15)
    got = ServingIndex(store, cfg, ds).score(candidates, jobs)
    np.testing.assert_allclose(got, pinned["index"], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("other", [dict(d_model=16), dict(expert_hidden=(10, 7)),
                                   dict(ablation="no_moe")])
def test_store_of_another_config_is_not_saved(tmp_path, other):
    store = init_params(toy_model_config(), seeded_rng(0))
    path = tmp_path / "model.ckpt"
    with pytest.raises(CheckpointShapeError, match="where the config implies"):
        save_checkpoint(store, toy_model_config(**other), path)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_old_file_and_leaves_no_tmp(saved, full_disk):
    cfg, _, path = saved
    old = path.read_bytes()
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(init_params(cfg, seeded_rng(1)), cfg, path)
    assert path.read_bytes() == old
    assert list(path.parent.iterdir()) == [path]


def _tensor_at(cfg, at):
    """(name, row, column) of value ``at`` of the store of ``cfg``."""
    for name, rows, cols in param_spec(cfg):
        if at < rows * cols:
            return (name, *divmod(at, cols))
        at -= rows * cols


def test_a_file_cut_after_its_size_was_checked_is_truncated_not_zeros(saved, monkeypatch):
    # the file loses its last 100 values between the size check and the read
    cfg, store, path = saved
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-400])
    monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=size))
    name, _, _ = _tensor_at(cfg, store.values.size - 100)
    with pytest.raises(TruncatedCheckpointError, match=re.escape(
            f"{path}: file ends inside tensor {name!r}, before the "
            f"{store.values.size} values its config implies")):
        load_checkpoint(path)


def _split_io(monkeypatch, elements, workers):
    """Forces ``workers`` shards of ``elements`` values, in chunks small
    enough that each shard takes several. Returns the (kind, lo, hi,
    thread) of every shard's call as it runs."""
    monkeypatch.setattr(optim, "CUTOFF", elements // workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(checkpoint, "WRITE_CHUNK", 64)
    monkeypatch.setattr(optim, "BLOCK", 100)
    assert len(optim.shards(elements)) == workers
    calls = []
    write, read = checkpoint._write_narrowed, checkpoint._read_widened

    def writing(fd, offset, values, lo, hi):
        calls.append(("write", lo, hi, threading.get_ident()))
        return write(fd, offset, values, lo, hi)

    def reading(fd, offset, values, lo, hi):
        calls.append(("read", lo, hi, threading.get_ident()))
        return read(fd, offset, values, lo, hi)

    monkeypatch.setattr(checkpoint, "_write_narrowed", writing)
    monkeypatch.setattr(checkpoint, "_read_widened", reading)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_save_and_load_give_the_same_bytes_for_every_worker_count(saved, tmp_path,
                                                                        monkeypatch, workers):
    # ``saved`` was written by one worker in the default chunks; a short
    # switch interval interleaves the shards' threads finely
    cfg, store, path = saved
    n = store.values.size
    calls = _split_io(monkeypatch, n, workers)
    threads = threading.active_count()
    split = tmp_path / "split.ckpt"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        save_checkpoint(store, cfg, split)
        loaded, _ = load_checkpoint(split)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert split.read_bytes() == path.read_bytes()
    assert loaded.values.tobytes() == store.values.astype("<f4").astype(np.float64).tobytes()
    cuts = [n * i // workers for i in range(workers + 1)]
    for kind in ("write", "read"):
        assert sorted(c[1:3] for c in calls if c[0] == kind) == list(zip(cuts, cuts[1:]))
        # the first shard runs on the calling thread
        assert [c[1] == 0 for c in calls if c[0] == kind and c[3] == threading.get_ident()] == [True]


def test_short_positional_writes_are_continued(saved, tmp_path, monkeypatch):
    # a write that takes 3 bytes of a chunk must be followed by the rest
    cfg, store, path = saved
    _split_io(monkeypatch, store.values.size, 2)
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:3], offset))
    short = tmp_path / "short.ckpt"
    save_checkpoint(store, cfg, short)
    assert short.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_the_earliest_non_finite_value_over_all_shards_is_named(saved, monkeypatch, workers):
    # the last value of the first shard, and the first value of every later
    # shard, which those shards meet at once
    cfg, store, path = saved
    n = store.values.size
    _split_io(monkeypatch, n, workers)
    starts = [n * i // workers for i in range(1, workers)]
    for at in [starts[0] - 1] + starts:
        _set_values(path, at, [np.nan])
    name, row, col = _tensor_at(cfg, starts[0] - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor {name!r} holds a non-finite value (nan) at row {row}, column {col}")):
            load_checkpoint(path)


def test_opposite_infinities_in_a_later_shard_are_refused_without_a_warning(saved, monkeypatch):
    # errstate is per thread: the second shard's inf - inf must not warn
    _, store, path = saved
    _split_io(monkeypatch, store.values.size, 2)
    _set_values(path, store.values.size - 2, [np.inf, -np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match=re.escape("(inf)")):
            load_checkpoint(path)


def test_failed_split_write_keeps_the_old_file_and_leaves_no_tmp(saved, monkeypatch, full_disk):
    cfg, store, path = saved
    _split_io(monkeypatch, store.values.size, 2)
    old = path.read_bytes()
    threads = threading.active_count()
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(init_params(cfg, seeded_rng(1)), cfg, path)
    assert threading.active_count() == threads
    assert path.read_bytes() == old
    assert list(path.parent.iterdir()) == [path]


class _FailsFrom:
    """Values whose slices from ``start`` on raise MemoryError."""

    def __init__(self, values, start):
        self.values, self.start = values, start

    def __getitem__(self, key):
        if key.stop > self.start:
            raise MemoryError("no room")
        return self.values[key]


@pytest.mark.parametrize("failing_shard", [0, 1])
def test_a_failed_narrowing_thread_fails_the_save_without_a_hang(saved, monkeypatch, failing_shard):
    cfg, store, path = saved
    n = store.values.size
    _split_io(monkeypatch, n, 2)
    write = checkpoint._write_narrowed

    def failing(fd, offset, values, lo, hi):
        if lo == n * failing_shard // 2:
            values = _FailsFrom(values, lo + 200)
        return write(fd, offset, values, lo, hi)

    monkeypatch.setattr(checkpoint, "_write_narrowed", failing)
    old = path.read_bytes()
    raised = []

    def save():
        try:
            save_checkpoint(init_params(cfg, seeded_rng(1)), cfg, path)
        except MemoryError as exc:
            raised.append(exc)

    saving = threading.Thread(target=save, daemon=True)
    saving.start()
    saving.join(timeout=30)
    assert not saving.is_alive()
    assert [str(e) for e in raised] == ["no room"]
    assert path.read_bytes() == old
    assert list(path.parent.iterdir()) == [path]


def test_trailing_garbage_rejected(saved):
    _, _, path = saved
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_ablation_configs_round_trip(tmp_path):
    for ablation in ("no_moe", "simple_match", "no_fine_interaction", "no_category"):
        cfg = toy_model_config(ablation=ablation)
        store = init_params(cfg, seeded_rng(1))
        path = tmp_path / f"{ablation}.ckpt"
        save_checkpoint(store, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg.ablation == ablation
        assert loaded.names() == store.names()


def test_importing_checkpoint_loads_the_model_but_not_training():
    # a fresh interpreter that finds the same pjfit package
    code = ("import sys, pjfit.checkpoint; "
            "print('pjfit.model' in sys.modules, 'pjfit.training' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(pjfit.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["True", "False"]
