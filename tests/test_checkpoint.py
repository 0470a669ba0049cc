import json
import os
import subprocess
import sys
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
from pjfit.numerics import seeded_rng
from pjfit.training import init_params

from conftest import toy_model_config


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
    monkeypatch.setattr(checkpoint, "WIDEN_CHUNK", chunk)
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
    buffers = loaded.buffers
    assert all(np.shares_memory(p.value, buffers.values) for _, p in loaded.items())


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
    path.write_bytes(blob[:len(blob) - 10])
    # the store ends with the last expert's output bias
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


@pytest.mark.parametrize("version", [1, 2])
def test_old_version_checkpoint_is_rejected(saved, version):
    # version 1 stored one (d x d_k) query, key and value tensor per head;
    # version 2 a first layer per expert and head.* tensors for the
    # single-FFN ablations
    _, _, path = saved
    blob = bytearray(path.read_bytes())
    assert blob[4:8] == (3).to_bytes(4, "little")
    blob[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError, match=f"unsupported format version {version}$"):
        load_checkpoint(path)


def test_tensor_name_that_is_not_utf8_names_the_file_and_the_tensor(saved):
    _, store, path = saved
    blob = bytearray(path.read_bytes())
    config_len = int.from_bytes(blob[8:12], "little")
    blob[12 + config_len + 8] = 0xFF  # after the tensor count and the name length
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointShapeError, match="not UTF-8") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and repr(store.names()[0]) in str(info.value)


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
