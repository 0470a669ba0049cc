"""The model's parameters and its one forward pass.

Each side's text attends its histories (``encoder``): per stage and
direction, one attention set of three (d x d) matrices, whose heads'
outputs enter the fusion DNN's first layer directly: the internal ones
through ``fusion.w1.internal``, the external ones through
``fusion.w1.external``. The two fused side vectors and the two texts
form the joint vector [candidate fusion, job fusion, resume embedding,
JD embedding] (plus a same-category column for ``simple_match``), which
the scoring head (``moe``) maps to a score; each block meets its own
tensor of the head's first layer, ``moe.w1.fusion``, ``moe.w1.resume``,
``moe.w1.jd`` and ``moe.w1.same``. The forward is split the way of
ColBERT's late interaction (Khattab & Zaharia, arXiv:2004.12832):
``entity_rows`` and ``encoder.external_keys`` hold what depends on one
entity only, ``pair_scores`` the rest. ``score_pairs`` runs both on a
batch's distinct entities, as rows of the dataset's ``SequenceCache``,
taped for training; the serving index (``serve``) runs them on frozen
weights and keeps the per-entity outputs across calls.

A side's history values reach ``pair_scores`` in one of two forms (see
``encoder.fuse_pairs``): plain, the values of ``external_keys``, which
meet ``fusion.w1.external`` after attention; or folded, by
``encoder.fold_values``, through that tensor before it. ``score_pairs``
always passes plain values; the serving index folds a side's values
when the call attends few distinct keys.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain import COUNTERPART, Dataset, DatasetError, SequenceCache, first_seen
from pjfit.encoder import (
    SIDES,
    encoder_param_spec,
    external_keys,
    external_queries,
    fuse_pairs,
    internal_hidden,
)
from pjfit.moe import head_param_spec, moe_scores
from pjfit.numerics import Matrix, ParamStore, glorot_fill, ops

# entity kind -> the encoder side that its text is the query of
SIDE = dict(zip(("candidate", "job"), SIDES))
# encoder side -> the tensor of the head's first layer that reads its text
TEXT_W1 = dict(zip(SIDES, ("moe.w1.resume", "moe.w1.jd")))


def param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """Every trainable tensor's (name, rows, cols), in checkpoint order."""
    return encoder_param_spec(cfg) + head_param_spec(cfg)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ParamStore:
    """Glorot-uniform weights and +0.0 biases, as views of one value buffer
    in param_spec order, drawn in buffer order (``optim.glorot_fill``):
    value i is draw i of ``rng``'s stream, biases included, which are drawn
    with limit 0. ``rng`` ends n draws on, n the number of values. The
    values are bitwise the same for every worker count.

    A weight's limit is sqrt(6 / (fan_in + fan_out)) of the projection it
    holds: (rows + cols) for most, but each head of ``wq``, ``wk`` and
    ``wv`` is its own (d x d_k) projection, the two ``fusion.w1`` tensors
    of a side are one (fusion_in x fusion_hidden) layer, and each expert's
    column block of the ``moe.w1`` tensors its own (joint_dim x h1) first
    layer.
    """
    store = ParamStore(param_spec(cfg))
    limits = []
    for name, p in store.items():
        rows, cols = p.value.shape
        layer, leaf = name.rsplit(".", 1)
        if leaf in ("wq", "wk", "wv"):
            cols = cfg.head_dim
        elif layer.endswith("fusion.w1"):
            rows = cfg.fusion_in
        elif layer == "moe.w1":
            rows, cols = cfg.joint_dim, cfg.expert_hidden[0]
        limits.append((p.value.size, 0.0 if leaf.startswith("b") else np.sqrt(6.0 / (rows + cols))))
    glorot_fill(store.values, limits, rng)
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


def entity_rows(text: Matrix, own, bound: dict[str, Matrix], side: str,
                cfg: ModelConfig) -> list[Matrix]:
    """The per-entity outputs of U entities of one side, from their (U, d)
    texts and own histories (one (rows, row_map, ranges) per stage): the
    external query rows per stage, the internal hidden row, and the text
    times its tensor of the head's first layer (all experts side by side).
    """
    return [*external_queries(text, bound, side, cfg), internal_hidden(text, own, bound, side, cfg),
            ops.matmul(text, bound[TEXT_W1[side]])]


def pair_rows(candidates, jobs, cache: SequenceCache) -> list[np.ndarray]:
    """Per kind, in ``SIDE`` order, the cache row of each of B pairs' records."""
    if len(candidates) != len(jobs):
        raise ValueError(f"{len(candidates)} candidates for {len(jobs)} jobs")
    if not candidates:
        raise ValueError("no pairs to score")
    return [cache.rows(kind, records) for kind, records in zip(SIDE, (candidates, jobs))]


def pair_scores(sides, candidate_categories: np.ndarray, job_categories: np.ndarray,
                bound: dict[str, Matrix], cfg: ModelConfig) -> Matrix:
    """(B, 1) scores of B pairs.

    ``sides`` holds, in ``SIDES`` order, (rows, index, keys, folded) per
    side: the side's ``entity_rows``, each pair's row of them, the keys
    ``encoder.fuse_pairs`` reads and whether their values are plain or
    folded through ``fusion.w1.external``. The category arrays hold each
    pair's category ids.
    """
    n = len(cfg.stages)
    fused = ops.concat_cols([
        fuse_pairs(rows[:n], rows[n], index, keys, bound, side, cfg, folded)
        for side, (rows, index, keys, folded) in zip(SIDES, sides)])
    first = ops.affine(fused, bound["moe.w1.fusion"], bound["moe.b1"])
    for rows, index, *_ in sides:
        first = ops.add(first, ops.gather_rows(rows[n + 1], index))
    if cfg.ablation == "simple_match":
        same = (candidate_categories == job_categories).astype(np.float64).reshape(-1, 1)
        first = ops.add(first, ops.matmul(Matrix(same), bound["moe.w1.same"]))
    return moe_scores(first, candidate_categories, job_categories, bound, cfg)


def score_pairs(candidates, jobs, bound: dict[str, Matrix], cfg: ModelConfig,
                cache: SequenceCache) -> Matrix:
    """Match scores of the pairs (candidates[i], jobs[i]) as a (B, 1) column.

    The records are read as rows of ``cache``, which must be built on their
    dataset. Per-entity outputs are computed once per distinct entity, and
    each history entity once per attention set, so the positive and the
    negative of a training entry share their job's work. Empty stages
    contribute zero vectors. A pair's score depends on the rest of the
    batch only through rounding.
    """
    rows = pair_rows(candidates, jobs, cache)
    distinct = [first_seen(r) for r in rows]
    hist = [[(Matrix(cache.embedding[COUNTERPART[kind]][named]), row_map, ranges)
             for named, row_map, ranges in cache.pack(kind, entities)]
            for kind, (entities, _) in zip(SIDE, distinct)]
    sides = []
    for s, (kind, side) in enumerate(SIDE.items()):
        (entities, index), partner_index = distinct[s], distinct[1 - s][1]
        text = Matrix(cache.embedding[kind][entities])
        # the paired entity's same-kind history, one range per pair
        keys = [(external_keys(history, bound, side, stage, cfg), row_map, ranges[partner_index])
                for stage, (history, row_map, ranges) in zip(cfg.stages, hist[1 - s])]
        sides.append((entity_rows(text, hist[s], bound, side, cfg), index, keys, False))
    return pair_scores(sides, *(cache.category[kind][r] for kind, r in zip(SIDE, rows)), bound, cfg)
