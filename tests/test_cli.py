"""End-to-end command tests: synth -> augment -> train -> eval -> rank."""

import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from pjfit import cli
from pjfit.checkpoint import load_checkpoint
from pjfit.cli import main
from pjfit.domain import load_data_dir, validate_records
from pjfit.numerics import DimensionError, ParamStore
from pjfit.serve import ServingIndex

from conftest import BROKEN_EMBEDDINGS, META_DEFECTS

SYNTH_CFG = {
    "n_candidates": 48,
    "n_jobs": 12,
    "categories": ["Technology", "Data", "Sales", "Design"],
    "confusable_pairs": [["Data", "Technology"]],
    "embedding_dim": 8,
    "positives_per_job": 3.0,
    "seed": 0,
}

TRAIN_CFG = {
    "batch_size": 16,
    "learning_rate": 0.005,
    "epochs": 2,
    "model": {
        "heads": 2, "seq_len": 4, "fusion_hidden": 16, "fusion_out": 8,
        "category_dim": 3, "gate_hidden": 6, "n_experts": 3,
        "expert_hidden": [10, 6],
    },
}


def body(path):
    """File content with the volatile header line stripped."""
    return "".join(l for l in Path(path).read_text().splitlines(keepends=True)
                   if not l.startswith("#"))


def read_report(path) -> dict:
    return json.loads(body(path))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run reused by the assertions below."""
    root = tmp_path_factory.mktemp("cli")
    (root / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (root / "train.json").write_text(json.dumps(TRAIN_CFG))
    assert main(["synth", "--config", str(root / "synth.json"),
                 "--out", str(root / "data")]) == 0
    assert main(["augment", "--data", str(root / "data"), "--client", "mock",
                 "--threshold", "200", "--out", str(root / "aug")]) == 0
    assert main(["train", "--data", str(root / "aug"),
                 "--config", str(root / "train.json"), "--seed", "1",
                 "--checkpoint-out", str(root / "model.ckpt"),
                 "--report-out", str(root / "train_report.json")]) == 0
    assert main(["eval", "--data", str(root / "aug"),
                 "--checkpoint", str(root / "model.ckpt"),
                 "--report-out", str(root / "eval_report.json")]) == 0
    return root


def test_synth_writes_expected_layout(pipeline):
    for name in ("entities.jsonl", "pairs.jsonl", "meta.json", "embeddings.npz"):
        assert (pipeline / "data" / name).exists()


def test_augment_keeps_embeddings_bit_for_bit(pipeline):
    before, after = load_data_dir(pipeline / "data")[0], load_data_dir(pipeline / "aug")[0]
    assert any(j.augmented for j in after.jobs.values())
    for table in ("candidates", "jobs"):
        old, new = getattr(before, table), getattr(after, table)
        assert old.keys() == new.keys()
        for entity_id, record in old.items():
            assert new[entity_id].embedding.tobytes() == record.embedding.tobytes()


def test_augment_log_and_markers(pipeline):
    log_lines = (pipeline / "aug" / "augment_log.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in log_lines]
    assert records == sorted(records, key=lambda r: r["job_id"])
    accepted = [r for r in records if r["accepted"]]
    assert accepted and all(r["retention"] >= 0.7 for r in accepted)


def test_train_report_contents(pipeline):
    report = read_report(pipeline / "train_report.json")
    assert report["command"] == "train"
    assert report["config"]["seed"] == 1
    assert set(report["metrics"]) == {"auc", "gauc", "ndcg", "ap", "n_pairs"}
    assert len(report["loss_trace"]) > 0
    assert report["version"]


def test_eval_reproduces_train_metrics_exactly(pipeline):
    train_report = read_report(pipeline / "train_report.json")
    eval_report = read_report(pipeline / "eval_report.json")
    assert eval_report["metrics"] == train_report["metrics"]


def test_rank_outputs_sorted_table(pipeline):
    out = pipeline / "rank.tsv"
    some_job = sorted(json.loads(l)["job_id"] for l in
                      (pipeline / "data" / "pairs.jsonl").read_text().splitlines())[0]
    assert main(["rank", "--job", some_job, "--checkpoint", str(pipeline / "model.ckpt"),
                 "--data", str(pipeline / "aug"), "--out", str(out)]) == 0
    rows = [l.split("\t") for l in body(out).splitlines()]
    scores = [float(s) for _, s in rows]
    assert scores == sorted(scores, reverse=True)
    assert len(rows) == SYNTH_CFG["n_candidates"]


def test_rank_deduplicates_and_rejects_unknown(pipeline, capsys):
    some_job = sorted(json.loads(l)["job_id"] for l in
                      (pipeline / "data" / "pairs.jsonl").read_text().splitlines())[0]
    out = pipeline / "rank_dup.tsv"
    cands = sorted({json.loads(l)["candidate_id"] for l in
                    (pipeline / "data" / "pairs.jsonl").read_text().splitlines()})
    dup = f"{cands[0]},{cands[0]},{cands[1]}"
    assert main(["rank", "--job", some_job, "--checkpoint", str(pipeline / "model.ckpt"),
                 "--data", str(pipeline / "aug"), "--candidates", dup,
                 "--out", str(out)]) == 0
    assert "duplicate candidate id" in capsys.readouterr().err
    assert len(body(out).splitlines()) == 2

    assert main(["rank", "--job", some_job, "--checkpoint", str(pipeline / "model.ckpt"),
                 "--data", str(pipeline / "aug"), "--candidates", "ghost1,ghost2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ghost1" in err and "ghost2" in err


def test_full_chain_is_deterministic(tmp_path):
    """Rerunning the exact same commands yields byte-identical checkpoints
    and data files, and reports identical after the header line."""
    import shutil

    (tmp_path / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_CFG))
    base = tmp_path / "work"

    def run_chain():
        base.mkdir()
        assert main(["synth", "--config", str(tmp_path / "synth.json"),
                     "--seed", "5", "--out", str(base / "data")]) == 0
        assert main(["augment", "--data", str(base / "data"), "--client", "mock",
                     "--mock-seed", "2", "--out", str(base / "aug")]) == 0
        assert main(["train", "--data", str(base / "aug"),
                     "--config", str(tmp_path / "train.json"), "--seed", "3",
                     "--checkpoint-out", str(base / "model.ckpt"),
                     "--report-out", str(base / "report.json")]) == 0
        snapshot = {
            "ckpt": (base / "model.ckpt").read_bytes(),
            "report": body(base / "report.json"),
        }
        for name in ("entities.jsonl", "pairs.jsonl", "embeddings.npz", "augment_log.jsonl"):
            snapshot[name] = (base / "aug" / name).read_bytes()
        shutil.rmtree(base)
        return snapshot

    assert run_chain() == run_chain()


@pytest.mark.parametrize("value", [
    pytest.param(-1, id="-1"),
    pytest.param(float("nan"), id="NaN"),
    pytest.param(float("inf"), id="Infinity"),
])
def test_synth_rejects_a_negative_positives_per_job_before_writing(tmp_path, capsys, value):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({**SYNTH_CFG, "positives_per_job": value}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "positives_per_job must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


def test_synth_without_a_defined_cosine_baseline_prints_n_a(tmp_path, capsys):
    # one positive and one negative per job: the last quarter of the
    # interleaved timeline holds negatives alone, so the baseline AUC is undefined
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({**SYNTH_CFG, "positives_per_job": 0}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
    assert "baseline cosine AUC n/a" in capsys.readouterr().out
    assert load_data_dir(tmp_path / "data")[1]["baseline_cosine_auc"] is None


def test_usage_and_data_error_exit_codes(tmp_path, capsys):
    assert main(["train", "--data"]) == 1  # missing value
    assert main(["nonsense"]) == 1
    assert main(["eval", "--data", str(tmp_path / "missing"),
                 "--checkpoint", str(tmp_path / "none.ckpt"),
                 "--report-out", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()


def test_unknown_synth_config_key_is_a_data_error(tmp_path, capsys):
    (tmp_path / "synth.json").write_text(json.dumps({**SYNTH_CFG, "bogus": 1}))
    assert main(["synth", "--config", str(tmp_path / "synth.json"),
                 "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'bogus'" in err
    assert not (tmp_path / "data").exists()


def test_synth_config_that_is_not_an_object_is_a_data_error(tmp_path, capsys):
    (tmp_path / "synth.json").write_text("[]")
    assert main(["synth", "--config", str(tmp_path / "synth.json"),
                 "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "JSON object" in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("doc, named", [
    pytest.param({"n_jobs": "5"}, "'n_jobs'", id="string-for-int"),
    pytest.param({"n_jobs": True}, "'n_jobs'", id="bool-for-int"),
    pytest.param({"prototype_noise": "0.3"}, "'prototype_noise'", id="string-for-float"),
    pytest.param({"categories": "Data"}, "'categories'", id="string-categories"),
    pytest.param({"categories": ["Data", 5]}, "'categories'", id="int-category"),
    pytest.param({"confusable_pairs": "DataTechnology"}, "'confusable_pairs'", id="string-pairs"),
    pytest.param({"confusable_pairs": [["Data", "Technology", "Sales"]]}, "'confusable_pairs'",
                 id="three-name-pair"),
])
def test_bad_synth_config_is_a_data_error(tmp_path, capsys, doc, named):
    path = tmp_path / "synth.json"
    path.write_text(json.dumps({**SYNTH_CFG, **doc}))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and named in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("doc, named", [
    pytest.param({"bogus": 1}, "'bogus'", id="unknown-key"),
    pytest.param({"model": {"bogus": 1}}, "'bogus'", id="unknown-model-key"),
    pytest.param({"model": 5}, "JSON object", id="model-not-an-object"),
    pytest.param([], "JSON object", id="not-an-object"),
    pytest.param({"epochs": "3"}, "'epochs'", id="string-for-int"),
    pytest.param({"model": {"heads": True}}, "'heads'", id="bool-for-int"),
    pytest.param({"model": {"expert_hidden": [1.5, 2]}}, "expert_hidden", id="float-expert-width"),
    pytest.param({"model": {"expert_hidden": "ab"}}, "expert_hidden", id="string-expert-widths"),
    pytest.param({"model": {"expert_hidden": [0, 6]}}, "expert_hidden", id="zero-expert-width"),
    pytest.param({"model": {"expert_hidden": [-3, 6]}}, "expert_hidden", id="negative-expert-width"),
    pytest.param({"model": {"expert_hidden": [10]}}, "expert_hidden", id="one-expert-width"),
    pytest.param({"model": {"expert_hidden": [10, 6, 4]}}, "expert_hidden", id="three-expert-widths"),
    pytest.param({"learning_rate": float("nan")}, "learning_rate", id="nan-learning-rate"),
    pytest.param({"learning_rate": float("inf")}, "learning_rate", id="infinite-learning-rate"),
    pytest.param({"lambda_reg": float("nan")}, "lambda_reg", id="nan-lambda-reg"),
])
def test_bad_train_config_is_a_data_error(pipeline, tmp_path, capsys, doc, named):
    (tmp_path / "train.json").write_text(json.dumps(doc))
    assert main(["train", "--data", str(pipeline / "aug"), "--config", str(tmp_path / "train.json"),
                 "--checkpoint-out", str(tmp_path / "m.ckpt"),
                 "--report-out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and named in err and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag", ["--mock-failure-rate", "--mock-keyword-drop-rate"])
@pytest.mark.parametrize("rate", ["2", "-0.1", "nan"])
def test_mock_rate_outside_unit_interval_is_a_data_error(pipeline, tmp_path, capsys, flag, rate):
    assert main(["augment", "--data", str(pipeline / "data"), "--client", "mock",
                 flag, rate, "--out", str(tmp_path / "aug")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "[0, 1]" in err
    assert not (tmp_path / "aug").exists()


def test_internal_shape_error_is_not_a_data_error(tmp_path, monkeypatch, capsys):
    # DimensionError subclasses ValueError, but it marks a bug in the model
    # code, not bad input
    def broken(path):
        raise DimensionError("matmul: (1, 3) @ (2, 2)")

    monkeypatch.setattr(cli, "load_checkpoint", broken)
    assert main(["eval", "--data", str(tmp_path), "--checkpoint", str(tmp_path / "m.ckpt"),
                 "--report-out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "data error" not in err


def test_a_key_error_is_an_internal_error_and_an_unknown_job_a_data_error(pipeline, tmp_path,
                                                                          monkeypatch, capsys):
    # every data path turns a missing id or key into a data error, so a
    # KeyError that reaches main is a fault of the program, such as a
    # tensor name the model looks up and the store lacks
    argv = ["rank", "--checkpoint", str(pipeline / "model.ckpt"), "--data", str(pipeline / "aug"),
            "--out", str(tmp_path / "rank.tsv")]
    assert main(argv + ["--job", "ghost-job"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'ghost-job'" in err
    job = sorted(load_data_dir(pipeline / "aug")[0].jobs)[0]

    bind = ParamStore.bind

    def renamed(self, tape=None):
        return {f"renamed.{name}": m for name, m in bind(self, tape).items()}

    monkeypatch.setattr(ParamStore, "bind", renamed)
    assert main(argv + ["--job", job]) == 3
    err = capsys.readouterr().err
    assert "internal error: KeyError: " in err and "data error" not in err
    assert not (tmp_path / "rank.tsv").exists()


def test_an_index_error_is_an_internal_error(pipeline, tmp_path, monkeypatch, capsys):
    # the model's index checks (ops.gather_rows, ops.segment_attention,
    # moe) see only ids the boundary has checked, so an IndexError that
    # reaches main is a fault of the program
    def broken(self, candidates, jobs):
        raise IndexError("index 7 is out of bounds")

    monkeypatch.setattr(ServingIndex, "score", broken)
    job = sorted(load_data_dir(pipeline / "aug")[0].jobs)[0]
    assert main(["rank", "--checkpoint", str(pipeline / "model.ckpt"), "--data",
                 str(pipeline / "aug"), "--job", job, "--out", str(tmp_path / "rank.tsv")]) == 3
    err = capsys.readouterr().err
    assert "internal error: IndexError: " in err and "data error" not in err
    assert not (tmp_path / "rank.tsv").exists()


def _synth(tmp_path, **overrides):
    (tmp_path / "synth.json").write_text(json.dumps({**SYNTH_CFG, **overrides}))
    assert main(["synth", "--config", str(tmp_path / "synth.json"), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data"


def _eval_and_rank_errors(pipeline, data, tmp_path, capsys):
    """stderr of `eval` and of `rank` on ``data`` with the pipeline's checkpoint,
    after checking that both exit 2."""
    job = sorted(load_data_dir(data)[0].jobs)[0]
    errors = []
    for argv in (["eval", "--report-out", str(tmp_path / "r.json")],
                 ["rank", "--job", job, "--out", str(tmp_path / "rank.tsv")]):
        capsys.readouterr()
        assert main(argv + ["--data", str(data), "--checkpoint", str(pipeline / "model.ckpt")]) == 2
        errors.append(capsys.readouterr().err)
    return errors


def test_embedding_width_that_does_not_fit_the_checkpoint_is_a_data_error(pipeline, tmp_path, capsys):
    data = _synth(tmp_path, embedding_dim=16)
    for err in _eval_and_rank_errors(pipeline, data, tmp_path, capsys):
        assert "data error" in err and "embedding dim 16" in err and "d_model 8" in err


def test_categories_beyond_the_checkpoints_are_a_data_error(pipeline, tmp_path, capsys):
    data = _synth(tmp_path, categories=SYNTH_CFG["categories"] + ["Marketing", "Finance"])
    assert max(r.category_id for r in load_data_dir(data)[0].jobs.values()) >= 4
    for err in _eval_and_rank_errors(pipeline, data, tmp_path, capsys):
        assert "data error" in err and "outside the model's 4 categories" in err
        assert "Traceback" not in err


def _embeddings(data):
    with np.load(data / "embeddings.npz") as npz:
        return npz["ids"], npz["values"]


def test_non_finite_embedding_is_a_data_error_for_rank(pipeline, tmp_path, capsys):
    data = _synth(tmp_path)
    docs = [json.loads(l) for l in (data / "entities.jsonl").read_text().splitlines()]
    ids, values = _embeddings(data)
    values[0, 0] = float("nan")
    np.savez(data / "embeddings.npz", ids=ids, values=values)
    job = next(d["id"] for d in docs if d["kind"] == "job")
    capsys.readouterr()
    assert main(["rank", "--job", job, "--out", str(tmp_path / "rank.tsv"), "--data", str(data),
                 "--checkpoint", str(pipeline / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"entities.jsonl:1: embedding of {docs[0]['id']!r}" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_checkpoint_value_is_a_data_error(pipeline, tmp_path, capsys, bad):
    # value 10 of the first tensor; with RuntimeWarnings as errors, as in CI
    blob = bytearray((pipeline / "model.ckpt").read_bytes())
    lo = 12 + int.from_bytes(blob[8:12], "little") + 4 * 10
    blob[lo:lo + 4] = np.float32(bad).tobytes()
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(bytes(blob))
    job = sorted(load_data_dir(pipeline / "aug")[0].jobs)[0]
    for argv in (["eval", "--report-out", str(tmp_path / "r.json")],
                 ["rank", "--job", job, "--out", str(tmp_path / "rank.tsv")]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--data", str(pipeline / "aug"), "--checkpoint", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "'cand.evaluated.internal.wq'" in err and "row 1, column 2" in err
        assert "Traceback" not in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "rank.tsv").exists()


@pytest.mark.parametrize("warnings_as_errors", [False, True])
def test_a_non_finite_score_is_a_runtime_error(pipeline, tmp_path, capsys, warnings_as_errors):
    # a finite but huge embedding overflows inside the model: exit 3 naming
    # the pair, and no report or table is written
    data = tmp_path / "aug"
    shutil.copytree(pipeline / "aug", data)
    _, test_ds = cli._split(*load_data_dir(data))
    pair = test_ds.pairs[0]
    ids, values = _embeddings(data)
    values[list(ids).index(pair.candidate_id)] = 1e308
    np.savez(data / "embeddings.npz", ids=ids, values=values)
    for argv in (["eval", "--report-out", str(tmp_path / "r.json")],
                 ["rank", "--job", pair.job_id, "--candidates", pair.candidate_id,
                  "--out", str(tmp_path / "rank.tsv")]):
        capsys.readouterr()
        with warnings.catch_warnings():
            if warnings_as_errors:
                warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--data", str(data), "--checkpoint", str(pipeline / "model.ckpt")]) == 3
        err = capsys.readouterr().err
        assert "runtime error: non-finite score" in err and "Traceback" not in err
    assert f"for candidate {pair.candidate_id!r} and job {pair.job_id!r}" in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "rank.tsv").exists()


def test_rank_on_a_data_directory_without_candidates_is_a_data_error(pipeline, tmp_path, capsys):
    data = _synth(tmp_path)
    docs = [json.loads(l) for l in (data / "entities.jsonl").read_text().splitlines()]
    jobs = [{**d, "hist_eval": [], "hist_pass_eval": [], "hist_pass_interview": []}
            for d in docs if d["kind"] == "job"]
    (data / "entities.jsonl").write_text("".join(json.dumps(d) + "\n" for d in jobs))
    ids, values = _embeddings(data)
    keep = [i for i, d in enumerate(docs) if d["kind"] == "job"]
    np.savez(data / "embeddings.npz", ids=ids[keep], values=values[keep])
    (data / "pairs.jsonl").write_text("")
    capsys.readouterr()
    assert main(["rank", "--job", jobs[0]["id"], "--out", str(tmp_path / "rank.tsv"),
                 "--data", str(data), "--checkpoint", str(pipeline / "model.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "no candidates" in err and "Traceback" not in err
    assert not (tmp_path / "rank.tsv").exists()


@pytest.mark.parametrize("command", ["augment", "train"])
def test_entity_field_of_the_wrong_type_is_a_data_error(pipeline, tmp_path, capsys, command):
    data = _synth(tmp_path)
    docs = [json.loads(l) for l in (data / "entities.jsonl").read_text().splitlines()]
    docs[1]["text"] = 5
    (data / "entities.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
    argv = {"augment": ["--client", "mock", "--out", str(tmp_path / "aug")],
            "train": ["--config", str(pipeline / "train.json"),
                      "--checkpoint-out", str(tmp_path / "m.ckpt"),
                      "--report-out", str(tmp_path / "r.json")]}[command]
    capsys.readouterr()
    assert main([command, "--data", str(data)] + argv) == 2
    err = capsys.readouterr().err
    assert "data error" in err and f"entities.jsonl:2: text of {docs[1]['id']!r}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A pristine synth data directory; tests break copies of it."""
    root = tmp_path_factory.mktemp("synth")
    (root / "synth.json").write_text(json.dumps(SYNTH_CFG))
    assert main(["synth", "--config", str(root / "synth.json"), "--out", str(root / "data")]) == 0
    return root / "data"


def _data_error(argv, out, capsys):
    """stderr of ``main(argv)``, after checking that it exits 2 and writes
    no ``out``."""
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err
    return err


def _augment_error(data, tmp_path, capsys):
    """stderr of `augment` on ``data``, after checking that it exits 2 and
    writes nothing."""
    return _data_error(["augment", "--data", data, "--client", "mock", "--out", tmp_path / "aug"],
                       tmp_path / "aug", capsys)


@pytest.mark.parametrize("damage, message", BROKEN_EMBEDDINGS)
def test_broken_embeddings_file_is_a_data_error(synth_dir, tmp_path, capsys, damage, message):
    data = shutil.copytree(synth_dir, tmp_path / "data")
    damage(data / "embeddings.npz", *_embeddings(synth_dir))
    err = _augment_error(data, tmp_path, capsys)
    assert re.search(rf"{re.escape(str(data / 'embeddings.npz'))}: .*{message}", err)


@pytest.mark.parametrize("meta_text, message", META_DEFECTS)
def test_malformed_meta_is_a_data_error(synth_dir, tmp_path, capsys, meta_text, message):
    data = shutil.copytree(synth_dir, tmp_path / "data")
    (data / "meta.json").write_text(meta_text)
    err = _augment_error(data, tmp_path, capsys)
    assert f"{data / 'meta.json'}: {message}" in err


def test_data_directory_with_inline_embeddings_is_a_data_error(synth_dir, tmp_path, capsys):
    # the layout written before embeddings moved to embeddings.npz
    data = shutil.copytree(synth_dir, tmp_path / "data")
    docs = [json.loads(l) for l in (data / "entities.jsonl").read_text().splitlines()]
    _, values = _embeddings(data)
    (data / "entities.jsonl").write_text("".join(
        json.dumps({**d, "embedding": row.tolist()}) + "\n" for d, row in zip(docs, values)))
    (data / "embeddings.npz").unlink()
    err = _augment_error(data, tmp_path, capsys)
    assert f"{data / 'entities.jsonl'}:1: inline embeddings" in err and "embeddings.npz" in err


# Bytes that decode to no JSON document: a byte that is not UTF-8, arrays
# nested past the parser's recursion limit, and an integer longer than
# Python's 4300-digit conversion limit (from 3.11; 3.10 reads it, and the
# document is then refused for not being an object)
UNDECODABLE = [
    pytest.param(b'{"id": "' + b"\xff" * 4 + b'"}', id="not-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-too-deep"),
    pytest.param(b"1" * 5000, id="integer-too-long"),
]


@pytest.mark.parametrize("name", ["entities.jsonl", "pairs.jsonl"])
@pytest.mark.parametrize("bad", UNDECODABLE)
def test_an_undecodable_line_is_a_data_error_naming_its_line(synth_dir, tmp_path, capsys,
                                                             name, bad):
    data = shutil.copytree(synth_dir, tmp_path / "data")
    first, _, *rest = (data / name).read_bytes().splitlines(keepends=True)
    (data / name).write_bytes(b"".join([first, bad + b"\n", *rest]))
    assert f"{data / name}:2: " in _augment_error(data, tmp_path, capsys)


@pytest.mark.parametrize("bad", UNDECODABLE)
def test_an_undecodable_meta_config_or_embedded_config_is_a_data_error_naming_its_file(
        synth_dir, pipeline, tmp_path, capsys, bad):
    data = shutil.copytree(synth_dir, tmp_path / "data")
    (data / "meta.json").write_bytes(bad)
    assert f"{data / 'meta.json'}: " in _augment_error(data, tmp_path, capsys)

    config = tmp_path / "synth.json"
    config.write_bytes(bad)
    err = _data_error(["synth", "--config", config, "--out", tmp_path / "out"],
                      tmp_path / "out", capsys)
    assert f"{config}: " in err

    blob = (pipeline / "model.ckpt").read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(blob[:8] + len(bad).to_bytes(4, "little") + bad + blob[12 + n:])
    err = _data_error(["eval", "--data", pipeline / "aug", "--checkpoint", ckpt,
                       "--report-out", tmp_path / "r.json"], tmp_path / "r.json", capsys)
    assert f"{ckpt}: " in err


def test_a_template_that_is_not_utf_8_is_a_data_error_naming_its_file(synth_dir, tmp_path,
                                                                      capsys):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "default.txt").write_bytes(b"system\n---\nuser \xff {original_jd}\n")
    err = _data_error(["augment", "--data", synth_dir, "--template-dir", templates,
                       "--out", tmp_path / "aug"], tmp_path / "aug", capsys)
    assert f"{templates / 'default.txt'}: " in err


def test_original_jd_text_reports_the_pre_augmentation_short_jds(pipeline, tmp_path):
    assert main(["train", "--data", str(pipeline / "aug"),
                 "--config", str(pipeline / "train.json"), "--seed", "1",
                 "--jd-text", "original",
                 "--checkpoint-out", str(tmp_path / "model.ckpt"),
                 "--report-out", str(tmp_path / "report.json")]) == 0
    report = read_report(tmp_path / "report.json")
    augmented = read_report(pipeline / "train_report.json")
    before = validate_records(load_data_dir(pipeline / "data")[0])
    assert report["jd_text"] == "original" and augmented["jd_text"] == "augmented"
    assert report["dataset_report"]["short_jd_share"] == before.short_jd_share
    assert augmented["dataset_report"]["short_jd_share"] < before.short_jd_share


def test_no_jd_aug_ablation_points_at_the_jd_text_flag(pipeline, tmp_path, capsys):
    (tmp_path / "train.json").write_text(json.dumps({"model": {"ablation": "no_jd_aug"}}))
    assert main(["train", "--data", str(pipeline / "aug"), "--config", str(tmp_path / "train.json"),
                 "--checkpoint-out", str(tmp_path / "m.ckpt"),
                 "--report-out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'no_jd_aug'" in err and "--jd-text original" in err
    assert not (tmp_path / "m.ckpt").exists()

    # a checkpoint whose embedded config names it
    blob = (pipeline / "model.ckpt").read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    config = blob[12:12 + n].replace(b'"ablation": "none"', b'"ablation": "no_jd_aug"')
    assert config != blob[12:12 + n]
    (tmp_path / "old.ckpt").write_bytes(blob[:8] + len(config).to_bytes(4, "little") + config
                                        + blob[12 + n:])
    assert main(["eval", "--data", str(pipeline / "aug"), "--checkpoint", str(tmp_path / "old.ckpt"),
                 "--report-out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "'no_jd_aug'" in err and "--jd-text original" in err
    assert not (tmp_path / "r.json").exists()


def test_version_1_checkpoint_is_a_data_error(pipeline, tmp_path, capsys):
    # and version 3, the last one with an output projection per attention
    # set, and version 4, the last one with a record per tensor
    for version in (1, 3, 4):
        old = tmp_path / f"v{version}.ckpt"
        blob = bytearray((pipeline / "model.ckpt").read_bytes())
        blob[4:8] = version.to_bytes(4, "little")
        old.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["eval", "--data", str(pipeline / "aug"), "--checkpoint", str(old),
                     "--report-out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and f"version {version}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.json").exists()
