"""Pairwise loss, training loop, evaluation, ranking.

``model.score_pairs`` is the one forward pass (read from this module
too). Training builds one taped graph per batch with positives and
negatives stacked. Evaluation and ranking run on frozen weights: they
score fixed-size chunks of pairs through the store's
``serve.ServingIndex``, which runs the same per-entity and per-pair
functions, keeps the per-entity outputs across calls, and equals
``score_pairs`` up to rounding (1e-12 relative in the tests). Training
minimizes the pairwise (BPR) loss

    L = -(1/|B|) sum log sigma(y+ - y-) + lambda (1/|B|) sum ((y+)^2 + (y-)^2)

with Adam. ``bpr_loss_graph`` records it as one tape node over the
batch's score column, with its own gradient (see there), so the op
library holds only the model's ops. Text embeddings enter as constants
and are never trained; the category table and every network weight are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from pjfit.config import ModelConfig, TrainConfig
from pjfit.domain import Dataset, DatasetError, SequenceCache, sample_training_pairs
from pjfit.metrics import RankedPrediction, ap, auc, gauc, ndcg
# param_spec, init_params and score_pairs are read from this module too
from pjfit.model import check_fits, init_params, param_spec, score_pairs
from pjfit.numerics import Matrix, ParamStore, Tape, TrainingDivergedError, adam_step
from pjfit.numerics import spawn_rngs
from pjfit.serve import index_for


# Pairs per ServingIndex.score call in score_all and rank_candidates. Each
# call reads fusion.w1.external and the head layers once, so larger
# chunks read them fewer times. Entities a chunk meets for the first time
# are computed in one batch, as score_pairs would, so a cold chunk's working
# memory grows with the distinct entities its histories name, at most
# SCORE_CHUNK * seq_len per stage and entity kind. Per pair, a chunk holds
# the external attention outputs and fusion hidden rows; attention adds,
# one head at a time, a dense block of SCORE_CHUNK x (distinct entities)
# cells at most per ops.segment_attention call.
SCORE_CHUNK = 256


def bpr_loss_graph(scores: Matrix, n: int, lambda_reg: float) -> Matrix:
    """The loss of n pairs as one tape node over their (2n, 1) score column,
    the n positives first, then their negatives in the same order.

    With y+ = scores[:n] and y- = scores[n:], d = y+ - y- and g the
    gradient arriving at the loss, the backward adds

        dL/dy+ = (2 g lambda / n) y+ - (g / n) sigma(-d)
        dL/dy- = (2 g lambda / n) y- + (g / n) sigma(-d)

    to the score column's gradient, the square terms first. log sigma(d)
    is -softplus(-d) and sigma(-d) is read from exp(-|d|), so neither
    overflows for |d| > 30.
    """
    if n < 1:
        raise ValueError("empty batch")
    if scores.shape != (2 * n, 1):
        raise ValueError(f"expected a ({2 * n}, 1) score column, got {scores.shape}")
    pos, neg = scores.data[:n], scores.data[n:]
    d = pos - neg
    # -mean log sigma(d) as the mean of softplus(-d): negation is exact
    loss = np.logaddexp(0.0, -d).sum() / n
    if lambda_reg != 0.0:
        loss += ((pos * pos).sum() / n + (neg * neg).sum() / n) * lambda_reg
    out = Matrix([[loss]], scores.tape)
    if scores.tape is not None:
        def backward():
            g = out.grad[0, 0]
            t = np.exp(-np.abs(d))
            dd = -g / n * np.where(d >= 0, t / (1.0 + t), 1.0 / (1.0 + t))
            if lambda_reg != 0.0:
                sq = g * lambda_reg / n * 2.0
                scores.grad[:n] += sq * pos
                scores.grad[n:] += sq * neg
            scores.grad[:n] += dd
            scores.grad[n:] -= dd
        scores.tape.record(backward, out)
    return out


@dataclass
class TrainResult:
    store: ParamStore
    losses: list[float] = field(default_factory=list)
    steps: int = 0
    skipped_positives: int = 0


def train(train_dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Deterministic training run: sample pair batches, Adam-step per batch.

    The returned store holds the trained values only: no gradient buffers
    and no Adam moments. Raises TrainingDivergedError naming the batch index if the
    loss goes non-finite.
    """
    if not any(p.label == 1 for p in train_dataset.pairs):
        raise DatasetError("training data contains no positive pairs")
    check_fits(config.model, train_dataset)

    rng_init, rng_sample = spawn_rngs(config.seed, 2)
    store = init_params(config.model, rng_init)
    cache = SequenceCache(train_dataset, config.model)
    result = TrainResult(store=store)

    for _ in range(config.epochs):
        epoch = sample_training_pairs(
            train_dataset, rng_sample,
            per_positive_negatives=config.negatives_per_positive,
            batch_size=config.batch_size)
        result.skipped_positives += epoch.skipped_positives
        for batch_index, batch in enumerate(epoch.batches):
            tape = Tape()
            bound = store.bind(tape)
            # positives first, then their negatives, in one graph
            pairs = [pos for pos, _ in batch.entries] + [neg for _, neg in batch.entries]
            scores = score_pairs([train_dataset.candidates[p.candidate_id] for p in pairs],
                                 [train_dataset.jobs[p.job_id] for p in pairs],
                                 bound, config.model, cache)
            loss = bpr_loss_graph(scores, len(batch), config.lambda_reg)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(f"non-finite loss at batch {batch_index}")
            tape.backward(loss)
            result.steps += 1
            adam_step(store, config.learning_rate, result.steps)
            result.losses.append(loss_value)
    # nothing reads the gradients (consumed by the last step) or the
    # moments after training; at d=1024 the moments alone take ~1 GB
    store.release_training_buffers()
    return result


class NonFiniteScoreError(RuntimeError):
    """A pair scored NaN or infinite. Checkpoints and data directories are
    refused at load if any value is not finite, so this is overflow in
    finite weights or inputs, or a bug: a runtime error, not a data error."""


def _score_chunks(candidates, jobs, store: ParamStore, cfg: ModelConfig,
                  dataset: Dataset) -> list[float]:
    """Frozen-parameter scores of (candidates[i], jobs[i]), SCORE_CHUNK pairs
    per index call. Scoring runs with numpy's floating-point warnings off,
    and a non-finite score raises NonFiniteScoreError naming the first such
    pair instead."""
    scores: list[float] = []
    with np.errstate(all="ignore"):
        index = index_for(store, cfg, dataset)
        for lo in range(0, len(candidates), SCORE_CHUNK):
            chunk = index.score(candidates[lo:lo + SCORE_CHUNK], jobs[lo:lo + SCORE_CHUNK])
            finite = np.isfinite(chunk)
            if not finite.all():
                at = lo + int(np.argmin(finite))
                raise NonFiniteScoreError(
                    f"non-finite score ({chunk[at - lo]}) for candidate {candidates[at].id!r} "
                    f"and job {jobs[at].id!r}")
            scores.extend(chunk.tolist())
    return scores


def score_all(dataset: Dataset, store: ParamStore, cfg: ModelConfig) -> list[RankedPrediction]:
    """Score every pair in the dataset with frozen parameters, in pair order."""
    scores = _score_chunks([dataset.candidates[p.candidate_id] for p in dataset.pairs],
                           [dataset.jobs[p.job_id] for p in dataset.pairs],
                           store, cfg, dataset)
    return [RankedPrediction(p.candidate_id, p.job_id, score, p.label)
            for p, score in zip(dataset.pairs, scores)]


def evaluate(test_dataset: Dataset, store: ParamStore, cfg: ModelConfig) -> dict:
    """AUC, GAUC (grouped by job), NDCG and AP over the test pairs."""
    preds = score_all(test_dataset, store, cfg)
    return {
        "auc": auc(preds),
        "gauc": gauc(preds),
        "ndcg": ndcg(preds),
        "ap": ap(preds),
        "n_pairs": len(preds),
    }


def rank_candidates(job_id: str, candidate_ids, store: ParamStore, cfg: ModelConfig,
                    dataset: Dataset) -> list[tuple[str, float]]:
    """Scores sorted descending; ties broken by candidate id. Duplicate
    input ids are dropped with a warning on stderr; unknown ids and an empty
    candidate list are errors."""
    unknown = [c for c in candidate_ids if c not in dataset.candidates]
    if job_id not in dataset.jobs:
        unknown.append(job_id)
    if unknown:
        raise DatasetError("unknown ids: " + ", ".join(repr(u) for u in unknown))
    seen = set()
    deduped = []
    for cid in candidate_ids:
        if cid in seen:
            print(f"warning: duplicate candidate id {cid!r} ignored", file=sys.stderr)
            continue
        seen.add(cid)
        deduped.append(cid)
    if not deduped:
        raise DatasetError(f"no candidates to rank for job {job_id!r}")
    job = dataset.jobs[job_id]
    scores = _score_chunks([dataset.candidates[cid] for cid in deduped], [job] * len(deduped),
                           store, cfg, dataset)
    return sorted(zip(deduped, scores), key=lambda t: (-t[1], t[0]))
