"""The model's parameters and its one forward pass.

Each side's text attends its histories (``encoder``); the two fused side
vectors and the two texts form the joint vector [candidate fusion, job
fusion, resume embedding, JD embedding] (plus a same-category column for
``simple_match``), which the scoring head (``moe``) maps to a score. The
forward is split the way of ColBERT's late interaction (Khattab &
Zaharia, arXiv:2004.12832): ``entity_rows`` and ``encoder.external_keys``
hold what depends on one entity only, ``pair_scores`` the rest.
``score_pairs`` runs both on a batch's distinct entities, taped for
training; the serving index (``serve``) runs them on frozen weights and
keeps the per-entity outputs across calls.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain import Dataset, DatasetError, SequenceCache, distinct_records
from pjfit.encoder import (
    SIDES,
    encoder_param_spec,
    external_keys,
    external_projections,
    external_queries,
    fuse_pairs,
    internal_hidden,
)
from pjfit.moe import head_input, head_param_spec, head_rows, moe_scores
from pjfit.numerics import BoundParams, Matrix, ParamStore, glorot_uniform, ops

# entity kind -> the encoder side that its text is the query of
SIDE = dict(zip(("candidate", "job"), SIDES))


def param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """Every trainable tensor's (name, rows, cols), in checkpoint order."""
    return encoder_param_spec(cfg) + head_param_spec(cfg)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """Glorot-uniform weights, zero biases, as views of one value buffer in
    param_spec order.

    An attention set's ``wq``, ``wk`` and ``wv`` are drawn head by head,
    per head a (d x d_k) Glorot block of each in the order q, k, v, into
    the head's columns: each head is its own projection, so its limit is
    sqrt(6 / (d + d_k)), not the fused shape's sqrt(6 / 2d). Likewise per
    expert its (joint_dim x h1) block of ``moe.w1``, its w2, then its w3.
    Whole tensors are drawn straight into their views, column blocks into
    a temporary that is copied into their columns.
    """
    store = ParamStore(param_spec(cfg))
    h1 = cfg.expert_hidden[0]
    for name, p in store.items():
        prefix, leaf = name.rsplit(".", 1)
        rows, cols = p.value.shape
        if leaf.startswith("b") or leaf in ("wk", "wv") or name.startswith("moe.expert"):
            continue  # biases stay zero; the rest is drawn with its wq or with moe.w1
        if leaf == "wq":
            for h in range(cfg.heads):
                block = slice(h * cfg.head_dim, (h + 1) * cfg.head_dim)
                for r in "qkv":
                    store[f"{prefix}.w{r}"].value[:, block] = glorot_uniform(rng, rows, cfg.head_dim)
        elif name == "moe.w1":
            for i in range(cfg.head_experts):
                p.value[:, i * h1:(i + 1) * h1] = glorot_uniform(rng, rows, h1)
                for tail in (f"moe.expert{i}.w2", f"moe.expert{i}.w3"):
                    glorot_uniform(rng, *store[tail].value.shape, out=store[tail].value)
        else:
            glorot_uniform(rng, rows, cols, out=p.value)
    return store


def check_fits(cfg: ModelConfig, dataset: Dataset) -> None:
    """Raise DatasetError unless the model can read the dataset's
    embeddings and category ids."""
    if dataset.embedding_dim != cfg.d_model:
        raise DatasetError(f"dataset embedding dim {dataset.embedding_dim} "
                           f"!= model d_model {cfg.d_model}")
    top = max((r.category_id for table in (dataset.candidates, dataset.jobs)
               for r in table.values()), default=0)
    if top >= cfg.n_categories:
        raise DatasetError(f"dataset category id {top} ({dataset.vocab.name_of(top)!r}) "
                           f"is outside the model's {cfg.n_categories} categories")


def entity_rows(text: Matrix, own, bound: BoundParams, side: str, cfg: ModelConfig) -> list[Matrix]:
    """The per-entity outputs of U entities of one side, from their (U, d)
    texts and own histories (one (rows, row_map, ranges) per stage): the
    external query rows per stage, the internal hidden row, and the text
    times its rows of the head's first layer (all experts side by side).
    """
    lo = 2 * cfg.fusion_out + (0 if side == "cand" else cfg.d_model)
    return [*external_queries(text, bound, side, cfg), internal_hidden(text, own, bound, side, cfg),
            head_rows(text, lo, bound)]


def categories(records) -> np.ndarray:
    return np.array([r.category_id for r in records], dtype=np.intp)


def distinct_pairs(candidates, jobs) -> list[tuple]:
    """Per side, the distinct records of B pairs and each pair's index among them."""
    if len(candidates) != len(jobs):
        raise ValueError(f"{len(candidates)} candidates for {len(jobs)} jobs")
    if not candidates:
        raise ValueError("no pairs to score")
    return [distinct_records(candidates), distinct_records(jobs)]


def pair_scores(sides, candidate_categories: np.ndarray, job_categories: np.ndarray,
                bound: BoundParams, cfg: ModelConfig) -> Matrix:
    """(B, 1) scores of B pairs.

    ``sides`` holds, in ``SIDES`` order, (rows, index, keys, projections)
    per side: the side's ``entity_rows``, each pair's row of them, and the
    keys and projections ``encoder.fuse_pairs`` reads. The category arrays
    hold each pair's category ids.
    """
    n = len(cfg.stages)
    fused = ops.concat_cols([
        fuse_pairs(rows[:n], rows[n], index, keys, projections, bound, side, cfg)
        for side, (rows, index, keys, projections) in zip(SIDES, sides)])
    first = head_input(fused, bound)
    for rows, index, _, _ in sides:
        first = ops.add(first, ops.gather_rows(rows[n + 1], index))
    if cfg.ablation == "simple_match":
        same = (candidate_categories == job_categories).astype(np.float64).reshape(-1, 1)
        first = ops.add(first, head_rows(bound.constant(same), cfg.joint_dim - 1, bound))
    return moe_scores(first, candidate_categories, job_categories, bound, cfg)


def score_pairs(candidates, jobs, bound: BoundParams, cfg: ModelConfig,
                cache: SequenceCache) -> Matrix:
    """Match scores of the pairs (candidates[i], jobs[i]) as a (B, 1) column.

    Per-entity outputs are computed once per distinct entity, and each
    history entity once per attention set, so the positive and the
    negative of a training entry share their job's work. Empty stages
    contribute zero vectors. A pair's score depends on the rest of the
    batch only through rounding.
    """
    distinct = distinct_pairs(candidates, jobs)
    hist = [[(bound.constant(rows), row_map, ranges)
             for rows, row_map, ranges in cache.pack(records)] for records, _ in distinct]
    sides = []
    for s, side in enumerate(SIDES):
        (records, index), partner_index = distinct[s], distinct[1 - s][1]
        text = bound.constant(np.stack([r.embedding for r in records]))
        # the paired entity's same-kind history, one range per pair
        keys = [(external_keys(rows, bound, side, stage, cfg), row_map, ranges[partner_index])
                for stage, (rows, row_map, ranges) in zip(cfg.stages, hist[1 - s])]
        sides.append((entity_rows(text, hist[s], bound, side, cfg), index, keys,
                      external_projections(bound, side, cfg)))
    return pair_scores(sides, categories(candidates), categories(jobs), bound, cfg)
