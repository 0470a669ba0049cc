"""Correctness checks run inside every benchmark run.

Each check compares the program's output with a computation made apart
from it: the numpy forward pass in ``tests/reference_model.py``, the
brute-force metric counts in ``tests/oracles.py``, counts taken straight
from the inputs, or a property the method must have. A check appends a
message to ``Checks.failures`` instead of raising, so one run reports
every failed check.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from reference_model import np_score_pair

# Library scores against the float64 numpy oracle. The two forward passes
# are written apart (the library scales attention logits after the
# product, the oracle divides) and may round differently; 1e-9 relative
# leaves room for that and still flags any change to the model's arithmetic.
ORACLE_TOL = 1e-9
# The same pair scored by the eval path and by the rank path.
PATH_TOL = 1e-12
# A metric against its brute-force count.
METRIC_TOL = 1e-12


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


class Checks:
    def __init__(self) -> None:
        self.passed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    # ------------------------------------------------------------ setup

    def augmentation(self, jobs, threshold: int, records) -> None:
        """With the mock client every JD shorter than the threshold is
        selected and accepted; the expected set is counted from the texts."""
        short = sorted(j.id for j in jobs if len(j.text) < threshold)
        selected = sorted(r.job_id for r in records)
        self.expect(selected == short,
                    f"augment selected {len(selected)} JDs, {len(short)} are shorter than {threshold}")
        rejected = [r.job_id for r in records if not r.accepted]
        self.expect(not rejected, f"augment rejected {len(rejected)} JDs: {rejected[:5]}")

    def checkpoint_roundtrip(self, store, loaded) -> None:
        """A reloaded checkpoint equals the float32 cast of the store, bit for bit."""
        self.expect(store.names() == loaded.names(), "checkpoint tensor names differ after reload")
        bad = [name for name, p in store.items()
               if name not in loaded
               or not np.array_equal(loaded[name].value,
                                     p.value.astype(np.float32).astype(np.float64))]
        self.expect(not bad, f"checkpoint round trip changed {len(bad)} tensors, e.g. {bad[:3]}")

    # ------------------------------------------------------------ training

    def first_step_loss(self, first_batch, init_store, cfg, dataset, lambda_reg: float,
                        reported: float) -> None:
        """The first reported loss is the BPR formula over oracle scores at
        the initial weights, which init_params rebuilds from the seed."""
        pos = [np_score_pair(dataset.candidates[p.candidate_id], dataset.jobs[p.job_id],
                             init_store, cfg, dataset) for p, _ in first_batch]
        neg = [np_score_pair(dataset.candidates[n.candidate_id], dataset.jobs[n.job_id],
                             init_store, cfg, dataset) for _, n in first_batch]
        b = len(pos)
        # -log sigma(d) = log(1 + exp(-d)), evaluated on the overflow-free branch
        nll = sum(max(-d, 0.0) + math.log1p(math.exp(-abs(d)))
                  for d in (p - n for p, n in zip(pos, neg))) / b
        reg = sum(p * p for p in pos) / b + sum(n * n for n in neg) / b
        expected = nll + lambda_reg * reg
        self.expect(close(reported, expected, ORACLE_TOL),
                    f"first-step loss {reported!r} != BPR over oracle scores {expected!r}")

    def loss_falls(self, losses, epochs: int) -> None:
        steps = len(losses) // epochs
        first = float(np.mean(losses[:steps]))
        last = float(np.mean(losses[-steps:]))
        self.expect(last < first, f"final-epoch loss {last:.4f} is not below the first epoch's {first:.4f}")

    def repeats_identical(self, what: str, values) -> None:
        """Reruns of one deterministic call must agree bit for bit."""
        self.expect(all(v == values[0] for v in values[1:]),
                    f"{what} differs between {len(values)} identical calls")

    # ------------------------------------------------------------ scoring

    def scores_match_oracle(self, path: str, scored, store, cfg, dataset) -> None:
        """``scored`` holds (candidate_id, job_id, score) from one path."""
        for cid, jid, score in scored:
            want = np_score_pair(dataset.candidates[cid], dataset.jobs[jid], store, cfg, dataset)
            self.expect(close(score, want, ORACLE_TOL),
                        f"{path} score of ({cid}, {jid}) is {score!r}, oracle gives {want!r}")

    def ranking(self, requested, ranking, eval_scores: dict) -> None:
        """The ranking lists exactly the requested candidates, by descending
        score with ties broken by id, and agrees with the eval path."""
        ids = [cid for cid, _ in ranking]
        self.expect(sorted(ids) == sorted(set(requested)) and len(ids) == len(set(requested)),
                    "ranking does not list exactly the requested candidates")
        keys = [(-score, cid) for cid, score in ranking]
        self.expect(keys == sorted(keys), "ranking is not sorted by descending score, then id")
        for cid, score in ranking:
            if cid in eval_scores:
                self.expect(close(score, eval_scores[cid], PATH_TOL),
                            f"rank score {score!r} of {cid} != eval score {eval_scores[cid]!r}")

    # ------------------------------------------------------------ metrics

    def metrics_match_bruteforce(self, preds, reported: dict, hard_preds, hard_auc: float) -> None:
        scores = [p.score for p in preds]
        labels = [p.label for p in preds]
        want = {
            "auc": oracles.auc_pair_counting(scores, labels),
            "gauc": oracles.gauc_weighted_by_hand(preds),
            "ndcg": oracles.ndcg_scalar_loop(scores, labels),
            "ap": oracles.ap_threshold_sweep(scores, labels),
        }
        for name, value in want.items():
            self.expect(close(reported[name], value, METRIC_TOL),
                        f"{name} {reported[name]!r} != brute-force {value!r}")
        self.expect(reported["n_pairs"] == len(preds),
                    f"evaluate counted {reported['n_pairs']} pairs, scored {len(preds)}")
        hard_want = oracles.auc_pair_counting([p.score for p in hard_preds],
                                              [p.label for p in hard_preds])
        self.expect(close(hard_auc, hard_want, METRIC_TOL),
                    f"hard_auc {hard_auc!r} != brute-force {hard_want!r}")
