"""Bilateral historical-interaction encoders, as per-entity and per-pair parts.

Each side (candidate-to-job, job-to-candidate) attends its text over six
history sequences: per recruitment stage, an internal interaction with
the entity's own counterpart-kind history and an external one with the
paired entity's same-kind history. Their outputs feed a two-layer fusion
DNN. Per entity: ``external_queries``, ``internal_hidden`` (the internal
interactions through ``fusion.w1.internal``, plus ``fusion.b1``) and, for
history entities, ``external_keys`` (and, when serving,
``fold_values``). Per pair: ``fuse_pairs``.

An attention set (one side, stage and direction) is three (d x d)
matrices, ``wq``, ``wk`` and ``wv``, whose column blocks of width
d / heads are the heads' projections. Its output is the heads' outputs
side by side. No output projection follows: the rows of the fusion
DNN's first layer that read a set are a linear map of their own, and a
(d x d) projection before them would add no function. Only
``ops.segment_attention`` splits the heads, so each set runs one query,
key and value GEMM per call.

The first layer reads the 2 S d attention outputs of S active stages in
two tensors of S d rows each, in this order: ``fusion.w1.internal``
reads the internal outputs, stage by stage, and ``fusion.w1.external``
the external ones, so each direction's S outputs side by side enter in
one GEMM. Since attention is linear in its values, the external tensor can
also be applied before it: ``fold_values`` maps each history key's
values, head by head, through the head's rows of that GEMM, and
``fuse_pairs`` attends over those folded values instead. This trades a
GEMM over the pairs for one over the distinct keys, which pays when a
batch attends few keys (``serve`` chooses per call, on frozen weights).

Histories are packed by reference: per stage, the distinct entities a
batch's histories name are stacked once, a row map gives the row of each
packed key, and each query reads its own [lo, hi) range of packed keys.
The two sides share architecture but never parameters.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.numerics import BoundParams, Matrix, ops

SIDES = ("cand", "job")


def encoder_param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, rows, cols) for both sides, in checkpoint order."""
    spec: list[tuple[str, int, int]] = []
    d = cfg.d_model
    for side in SIDES:
        for stage in cfg.stages:
            for direction in ("internal", "external"):
                prefix = f"{side}.{stage}.{direction}"
                spec += [(f"{prefix}.{w}", d, d) for w in ("wq", "wk", "wv")]
        spec += [(f"{side}.fusion.w1.{direction}", len(cfg.stages) * d, cfg.fusion_hidden)
                 for direction in ("internal", "external")]
        spec.append((f"{side}.fusion.b1", 1, cfg.fusion_hidden))
        spec.append((f"{side}.fusion.w2", cfg.fusion_hidden, cfg.fusion_out))
        spec.append((f"{side}.fusion.b2", 1, cfg.fusion_out))
    return spec


def interaction(query: Matrix, rows: Matrix, row_map: np.ndarray, ranges: np.ndarray,
                bound: BoundParams, prefix: str, heads: int) -> Matrix:
    """Attention of ``query Wq`` over ``rows Wk`` and ``rows Wv`` in ``heads``
    column blocks, its heads side by side.

    ``rows`` holds the embeddings of the distinct history entities, each
    projected to keys and values once. The packed history key j is row
    ``row_map[j]`` of them, and query j attends the packed keys in
    ``ranges[j]``. An empty range yields the zero vector: each head
    attends over nothing and contributes zeros.
    """
    k, v = (ops.matmul(rows, bound[f"{prefix}.{w}"]) for w in ("wk", "wv"))
    return ops.segment_attention(ops.matmul(query, bound[f"{prefix}.wq"]), k, v, ranges, row_map,
                                 heads)


def _check_stages(seqs, cfg: ModelConfig) -> None:
    if len(seqs) != len(cfg.stages):
        raise ValueError(f"expected {len(cfg.stages)} sequences per direction, got {len(seqs)}")


def external_queries(text: Matrix, bound: BoundParams, side: str, cfg: ModelConfig) -> list[Matrix]:
    """(U, d) query rows of U texts, all heads side by side, per stage."""
    return [ops.matmul(text, bound[f"{side}.{stage}.external.wq"]) for stage in cfg.stages]


def external_keys(rows: Matrix, bound: BoundParams, side: str, stage: str,
                  cfg: ModelConfig) -> list[Matrix]:
    """[K, V]: the (n, d) keys and values, all heads side by side, of
    history entities (their (n, d) embeddings ``rows``) under the side's
    external set of one stage."""
    return [ops.matmul(rows, bound[f"{side}.{stage}.external.{w}"]) for w in ("wk", "wv")]


def internal_hidden(text: Matrix, own, bound: BoundParams, side: str, cfg: ModelConfig) -> Matrix:
    """(U, fusion_hidden): the internal interactions of U entities (texts
    ``text``, own histories ``own``, one (rows, row_map, ranges) per stage)
    side by side, times ``fusion.w1.internal``, plus ``fusion.b1``.
    """
    _check_stages(own, cfg)
    out = ops.concat_cols([interaction(text, *seq, bound, f"{side}.{stage}.internal", cfg.heads)
                           for stage, seq in zip(cfg.stages, own)])
    return ops.affine(out, bound[f"{side}.fusion.w1.internal"], bound[f"{side}.fusion.b1"])


def fold_values(v: Matrix, bound: BoundParams, side: str, stage: str, cfg: ModelConfig) -> Matrix:
    """(n, heads fusion_hidden): the (n, d) external values ``v`` of one
    stage folded through ``fusion.w1.external``, per head its column block
    of ``v`` times that head's rows of the stage's block, heads side by
    side.

    The only reader of part of a parameter, so it runs on frozen weights
    only: a taped ``bound`` raises ValueError."""
    if bound.tape is not None:
        raise ValueError("fold_values reads rows of fusion.w1.external, which a tape cannot bind")
    w1 = bound[f"{side}.fusion.w1.external"].data
    lo, w = cfg.stages.index(stage) * cfg.d_model, cfg.head_dim
    return ops.concat_cols([ops.matmul(part, Matrix(w1[lo + h * w:lo + (h + 1) * w]))
                            for h, part in enumerate(ops.split_cols(v, cfg.heads))])


def fuse_pairs(queries: list[Matrix], hidden: Matrix, index: np.ndarray, keys,
               bound: BoundParams, side: str, cfg: ModelConfig, folded: bool) -> Matrix:
    """(B, fusion_out) fused representations of one side of B pairs.

    ``queries`` and ``hidden`` are the side's ``external_queries`` and
    ``internal_hidden``, ``index`` each pair's row of them. ``keys`` holds
    per stage ([K, V], row_map, ranges): the ``external_keys`` of the
    entities the partners' same-kind histories name, and one range per
    pair. Each stage runs one attention over all heads.

    The values come in one of two forms, the same for every stage. Plain
    (``folded`` false), V is the (n, d) values: the stages' outputs side by
    side meet ``fusion.w1.external`` in one (B x S d) (S d x fusion_hidden)
    GEMM. Folded, V is ``fold_values`` of them: attention over the folded
    rows gives each head's product with its rows of ``fusion.w1.external``
    directly, and the heads' blocks are added to the hidden
    pre-activation, so no GEMM reads that tensor. The two forms differ
    only in the order of the sums.
    """
    _check_stages(keys, cfg)
    # lazily, so that the folded path holds one stage's (B x heads h) output at a time
    attended = (ops.segment_attention(ops.gather_rows(q, index), k, v, ranges, row_map, cfg.heads)
                for q, ((k, v), row_map, ranges) in zip(queries, keys))
    h = ops.gather_rows(hidden, index)
    if folded:
        for a in attended:
            for head in ops.split_cols(a, cfg.heads):
                h = ops.add(h, head)
    else:
        h = ops.affine(ops.concat_cols(list(attended)), bound[f"{side}.fusion.w1.external"], h)
    return ops.affine(ops.relu(h), bound[f"{side}.fusion.w2"], bound[f"{side}.fusion.b2"])
