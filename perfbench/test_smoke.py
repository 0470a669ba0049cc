"""Smoke test of the benchmark: every workload at toy width, in seconds.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It also shows that the correctness checks trip on a perturbed score, a
wrong metric value and a misordered ranking.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import run  # noqa: E402
from checks import Checks  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pjfit import training  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_MODEL = dict(d_model=8, heads=2, seq_len=4, fusion_hidden=16, fusion_out=8,
                 category_dim=3, gate_hidden=6, n_experts=3, expert_hidden=(10, 6))


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def toy(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        synth={**w.synth, "n_candidates": 64, "n_jobs": 24, "embedding_dim": 8},
        model=TOY_MODEL,
        train={**w.train, "learning_rate": 1e-2},
        train_positives=8,
        eval_jobs=None if w.eval_jobs is None else 6,
        rank_candidates=None if w.rank_candidates is None else 8,
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def toy_round(request, tmp_path_factory):
    inputs = harness.prepare(toy(request.param), 3, tmp_path_factory.mktemp(request.param), 2)
    checks = Checks()
    r = harness.run_round(inputs, 0.0, 2, checks)
    return inputs, r, checks


def test_workload_passes_every_check_and_reports_every_metric(toy_round):
    inputs, r, checks = toy_round
    metrics = run.end_to_end(inputs, r)
    harness.verify(inputs, r, checks)
    assert checks.ok, checks.failures
    assert checks.passed > 10
    assert {n: m["unit"] for n, m in metrics.items()} == _units("end_to_end")
    for name, metric in metrics.items():
        assert metric["value"] > 0, name
    phases = run.phase_counts(r)
    assert all(p["failed"] == 0 for p in phases.values())


def test_perturbed_score_trips_the_oracle_check(toy_round):
    inputs, r, _ = toy_round
    p = r.eval_preds[0][0]
    exact, perturbed = Checks(), Checks()
    exact.scores_match_oracle("eval", [(p.candidate_id, p.job_id, p.score)],
                              r.store, r.model_config, r.dataset)
    perturbed.scores_match_oracle("eval", [(p.candidate_id, p.job_id, p.score + 1e-6)],
                                  r.store, r.model_config, r.dataset)
    assert exact.ok and not perturbed.ok


@pytest.mark.parametrize("metric", ["auc", "gauc", "ndcg", "ap"])
def test_wrong_metric_value_trips_the_bruteforce_check(toy_round, metric):
    inputs, r, _ = toy_round
    preds = r.eval_preds[0]
    hard = harness.hard_slice(preds, r.dataset, inputs.partner)
    reported = dict(r.eval_metrics[0])
    hard_auc = run.end_to_end(inputs, r)["hard_auc"]["value"]
    good, bad = Checks(), Checks()
    good.metrics_match_bruteforce(preds, reported, hard, hard_auc)
    reported[metric] += 1e-6
    bad.metrics_match_bruteforce(preds, reported, hard, hard_auc)
    assert good.ok and len(bad.failures) == 1


def test_misordered_ranking_trips_the_ranking_check(toy_round):
    inputs, r, _ = toy_round
    job_id, requested = inputs.rank_requests[0]
    ranking = r.rankings[0]
    swapped = [ranking[1], ranking[0]] + ranking[2:]
    good, bad = Checks(), Checks()
    good.ranking(requested, ranking, {})
    bad.ranking(requested, swapped, {})
    assert good.ok and not bad.ok


def test_traced_round_reports_every_per_layer_metric(tmp_path):
    inputs = harness.prepare(toy("sparse-d1024"), 3, tmp_path, 2)
    checks = Checks()
    original = training.train
    with Tracer() as tracer:
        r = harness.run_round(inputs, 0.0, 1, checks, repeat=False)
    assert training.train is original
    assert not tracer.missing
    metrics = run.per_layer(tracer, r.wall_s, r.wall_s)
    assert {n: m["unit"] for n, m in metrics.items()} == _units("per_layer")
    assert metrics["augment.jds_selected"]["value"] == metrics["augment.jds_accepted"]["value"] > 0
    assert 0 < metrics["domain.history_rows_valid_share"]["value"] < 1
    assert metrics["encoder.kv_blocks_per_unique"]["value"] > 1
    assert metrics["training.tape_nodes_per_pair"]["value"] > 0
