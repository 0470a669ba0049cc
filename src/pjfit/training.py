"""End-to-end scoring, pairwise loss, training loop, evaluation, ranking.

``score_pairs`` is the one forward pass. It scores a batch of pairs at
once: histories are packed by reference (the ids of the valid entries, no
padding), every distinct entity they name is projected once per attention
set, both sides are encoded, [candidate fusion, job fusion, resume embedding,
JD embedding] forms each pair's joint representation, and the scoring head
maps the batch to a (B, 1) column. Training builds one graph per batch
with positives and negatives stacked; evaluation and ranking score
fixed-size chunks of pairs. Training minimizes the pairwise loss

    L = -(1/|B|) sum log sigma(y+ - y-) + lambda (1/|B|) sum ((y+)^2 + (y-)^2)

with Adam. Text embeddings enter as constants and are never trained; the
category table and every network weight are.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from pjfit.config import ModelConfig, TrainConfig
from pjfit.domain import Dataset, DatasetError, EntityRecord, sample_training_pairs
from pjfit.encoder import encode_side_batch, encoder_param_spec
from pjfit.metrics import RankedPrediction, ap, auc, gauc, ndcg
from pjfit.moe import head_param_spec, moe_scores
from pjfit.numerics import (
    BoundParams,
    Matrix,
    ParamStore,
    Tape,
    TrainingDivergedError,
    adam_step,
    glorot_uniform,
    ops,
    spawn_rngs,
)


def param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """Every trainable tensor's (name, rows, cols), in checkpoint order."""
    return encoder_param_spec(cfg) + head_param_spec(cfg)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """Glorot-uniform weights, zero biases, insertion order per param_spec."""
    store = ParamStore()
    for name, rows, cols in param_spec(cfg):
        if name.rsplit(".", 1)[-1].startswith("b"):
            store.add(name, np.zeros((rows, cols)))
        else:
            store.add(name, glorot_uniform(rng, rows, cols))
    return store


# Pairs per batched forward in score_all and rank_candidates. Each forward
# reads every weight once, so larger chunks read them fewer times. A chunk's
# working memory grows with the distinct entities its histories name, at
# most SCORE_CHUNK * seq_len per stage and entity kind; attention adds the
# dense (tile queries x tile keys) blocks of ops.segment_attention, about
# ops.TILE_CELLS_PER_SLOT cells per (query, key) slot and at most
# SCORE_CHUNK x (distinct entities) cells per call.
SCORE_CHUNK = 256


class SequenceCache:
    """History ids per (entity, stage), built once per dataset.

    A stage keeps the ids of its ``seq_len`` most recent counterparts, most
    recent first: the entities whose rows ``pad_sequence`` marks valid, in
    the same order. An empty stage has no ids. Embeddings are not copied
    until ``pack`` stacks those a batch needs.
    """

    def __init__(self, dataset: Dataset, cfg: ModelConfig):
        self._dataset = dataset
        self._cfg = cfg
        self._cache: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}

    def _ids(self, record: EntityRecord) -> tuple[tuple[str, ...], ...]:
        """One tuple of at most seq_len counterpart ids per active stage."""
        key = (record.kind, record.id)
        ids = self._cache.get(key)
        if ids is None:
            n = self._cfg.seq_len
            ids = self._cache[key] = tuple(record.history(stage)[::-1][:n]
                                           for stage in self._cfg.stages)
        return ids

    def pack(self, records) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per active stage, for records of one kind: the (U, d) embeddings
        of the U distinct entities their histories name, in first-seen order;
        the row among them of each packed history entry, record after record;
        and the (len(records), 2) array of each record's [lo, hi) range of
        packed entries."""
        counterpart = "job" if records[0].kind == "candidate" else "candidate"
        per_record = [self._ids(r) for r in records]
        packed = []
        for stage in range(len(self._cfg.stages)):
            position: dict[str, int] = {}
            row_map = np.array([position.setdefault(i, len(position))
                                for ids in per_record for i in ids[stage]], dtype=np.intp)
            embeddings = [self._dataset.entity(counterpart, i).embedding for i in position]
            rows = (np.stack(embeddings) if embeddings
                    else np.zeros((0, self._dataset.embedding_dim)))
            lengths = np.array([len(ids[stage]) for ids in per_record], dtype=np.intp)
            ends = np.cumsum(lengths)
            packed.append((rows, row_map, np.stack([ends - lengths, ends], axis=1)))
        return packed


def _distinct(records) -> tuple[list[EntityRecord], np.ndarray]:
    """The distinct records by id, in first-seen order, and each input's position among them."""
    position: dict[str, int] = {}
    distinct: list[EntityRecord] = []
    index = np.empty(len(records), dtype=np.intp)
    for i, record in enumerate(records):
        j = position.get(record.id)
        if j is None:
            j = position[record.id] = len(distinct)
            distinct.append(record)
        index[i] = j
    return distinct, index


def score_pairs(candidates, jobs, bound: BoundParams, cfg: ModelConfig,
                cache: SequenceCache) -> Matrix:
    """Match scores of the pairs (candidates[i], jobs[i]) as a (B, 1) column.

    Internal interactions attend each side's text over its own
    counterpart-kind history; external interactions attend it over the
    paired entity's same-kind history. Each entity that the batch's
    histories name is projected once per attention set, however many
    histories name it, and each distinct text once per query projection,
    so the positive and the negative of a training entry share their job's
    projections. Entities with empty histories are
    scorable: empty stages contribute zero vectors. A pair's score depends
    on the rest of the batch only through rounding.
    """
    if len(candidates) != len(jobs):
        raise ValueError(f"{len(candidates)} candidates for {len(jobs)} jobs")
    if not candidates:
        raise ValueError("no pairs to score")
    cands, cand_index = _distinct(candidates)
    job_records, job_index = _distinct(jobs)
    resume = bound.constant(np.stack([c.embedding for c in cands]))
    jd = bound.constant(np.stack([j.embedding for j in job_records]))
    cand_hist = [(bound.constant(rows), row_map, ranges)
                 for rows, row_map, ranges in cache.pack(cands)]
    job_hist = [(bound.constant(rows), row_map, ranges)
                for rows, row_map, ranges in cache.pack(job_records)]
    # the paired entity's history, one range per pair
    cand_cross = [(rows, row_map, ranges[job_index]) for rows, row_map, ranges in job_hist]
    job_cross = [(rows, row_map, ranges[cand_index]) for rows, row_map, ranges in cand_hist]

    cand_fused = encode_side_batch(resume, cand_index, cand_hist, cand_cross, bound, "cand", cfg)
    job_fused = encode_side_batch(jd, job_index, job_hist, job_cross, bound, "job", cfg)

    cand_categories = np.array([c.category_id for c in candidates], dtype=np.intp)
    job_categories = np.array([j.category_id for j in jobs], dtype=np.intp)
    parts = [cand_fused, job_fused, ops.gather_rows(resume, cand_index),
             ops.gather_rows(jd, job_index)]
    if cfg.ablation == "simple_match":
        same = (cand_categories == job_categories).astype(np.float64)
        parts.append(bound.constant(same.reshape(-1, 1)))
    x = ops.concat_cols(parts)
    return moe_scores(x, cand_categories, job_categories, bound, cfg)


def bpr_loss_graph(pos: Matrix, neg: Matrix, lambda_reg: float) -> Matrix:
    """Loss over (B,1) score columns; log-sigmoid on the stable branch."""
    if pos.shape != neg.shape or pos.cols != 1:
        raise ValueError(f"expected matching (B,1) score columns, got {pos.shape} and {neg.shape}")
    if pos.rows < 1:
        raise ValueError("empty batch")
    loss = ops.scale(ops.mean_all(ops.logsigmoid(ops.sub(pos, neg))), -1.0)
    if lambda_reg != 0.0:
        reg = ops.add(ops.mean_all(ops.square(pos)), ops.mean_all(ops.square(neg)))
        loss = ops.add(loss, ops.scale(reg, lambda_reg))
    return loss


def bpr_loss(pos_scores, neg_scores, lambda_reg: float = 0.0) -> float:
    """Same formula over plain score lists."""
    if len(pos_scores) != len(neg_scores):
        raise ValueError("positive and negative score lists must have equal length")
    pos = Matrix(np.asarray(pos_scores, dtype=np.float64).reshape(-1, 1))
    neg = Matrix(np.asarray(neg_scores, dtype=np.float64).reshape(-1, 1))
    return bpr_loss_graph(pos, neg, lambda_reg).item()


@dataclass
class TrainResult:
    store: ParamStore
    losses: list[float] = field(default_factory=list)
    steps: int = 0
    skipped_positives: int = 0


def train(train_dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Deterministic training run: sample pair batches, Adam-step per batch.

    The returned store keeps its Adam moments but holds no gradient
    buffers. Raises TrainingDivergedError naming the batch index if the
    loss goes non-finite.
    """
    if not any(p.label == 1 for p in train_dataset.pairs):
        raise DatasetError("training data contains no positive pairs")
    if train_dataset.embedding_dim != config.model.d_model:
        raise DatasetError(
            f"dataset embedding dim {train_dataset.embedding_dim} "
            f"!= model d_model {config.model.d_model}")

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
            n = len(batch)
            loss = bpr_loss_graph(ops.gather_rows(scores, np.arange(n)),
                                  ops.gather_rows(scores, np.arange(n, 2 * n)), config.lambda_reg)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(f"non-finite loss at batch {batch_index}")
            tape.backward(loss)
            result.steps += 1
            adam_step(store, config.learning_rate, result.steps)
            result.losses.append(loss_value)
    # every gradient is zero after the last step and nothing reads them
    store.release_grads()
    return result


def _score_chunks(candidates, jobs, store: ParamStore, cfg: ModelConfig,
                  dataset: Dataset) -> list[float]:
    """Frozen-parameter scores of (candidates[i], jobs[i]), SCORE_CHUNK pairs per forward."""
    bound = store.bind(tape=None)
    cache = SequenceCache(dataset, cfg)
    scores: list[float] = []
    for lo in range(0, len(candidates), SCORE_CHUNK):
        out = score_pairs(candidates[lo:lo + SCORE_CHUNK], jobs[lo:lo + SCORE_CHUNK],
                          bound, cfg, cache)
        scores.extend(out.data[:, 0].tolist())
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
    input ids are dropped with a warning on stderr, unknown ids are an error."""
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
    job = dataset.jobs[job_id]
    scores = _score_chunks([dataset.candidates[cid] for cid in deduped], [job] * len(deduped),
                           store, cfg, dataset)
    return sorted(zip(deduped, scores), key=lambda t: (-t[1], t[0]))
