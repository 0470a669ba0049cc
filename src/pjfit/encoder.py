"""Bilateral historical-interaction encoders, as per-entity and per-pair parts.

Each side (candidate-to-job, job-to-candidate) attends its text over six
history sequences: per recruitment stage, an internal interaction with
the entity's own counterpart-kind history and an external one with the
paired entity's same-kind history. The six outputs, stage-major with
internal first, feed a two-layer fusion DNN. Per entity:
``external_queries``, ``internal_hidden`` (the internal interactions
through their rows of ``fusion.w1``, plus ``fusion.b1``) and, for
history entities, ``external_keys``. Per pair: ``fuse_pairs``.

An attention set (one side, stage and direction) is four (d x d)
matrices: ``wq``, ``wk`` and ``wv``, whose column blocks of width
d / heads are the heads' projections, and ``wo``, whose row blocks read
the heads' outputs. Only ``ops.segment_attention`` splits the heads, so
each set runs one query, key, value and output GEMM per call.

Histories are packed by reference: per stage, the distinct entities a
batch's histories name are stacked once, a row map gives the row of each
packed key, and each query reads its own [lo, hi) range of packed keys.
The two sides share architecture but never parameters.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.numerics import BoundParams, DimensionError, Matrix, ops

SIDES = ("cand", "job")


def encoder_param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, rows, cols) for both sides, in checkpoint order."""
    spec: list[tuple[str, int, int]] = []
    d = cfg.d_model
    for side in SIDES:
        for stage in cfg.stages:
            for direction in ("internal", "external"):
                prefix = f"{side}.{stage}.{direction}"
                spec += [(f"{prefix}.{w}", d, d) for w in ("wq", "wk", "wv", "wo")]
        spec.append((f"{side}.fusion.w1", cfg.fusion_in, cfg.fusion_hidden))
        spec.append((f"{side}.fusion.b1", 1, cfg.fusion_hidden))
        spec.append((f"{side}.fusion.w2", cfg.fusion_hidden, cfg.fusion_out))
        spec.append((f"{side}.fusion.b2", 1, cfg.fusion_out))
    return spec


def interaction(query: Matrix, rows: Matrix, row_map: np.ndarray, ranges: np.ndarray,
                bound: BoundParams, prefix: str, heads: int) -> Matrix:
    """Attention of ``query Wq`` over ``rows Wk`` and ``rows Wv`` in ``heads``
    column blocks, its heads side by side, times Wo.

    ``rows`` holds the embeddings of the distinct history entities, each
    projected to keys and values once. The packed history key j is row
    ``row_map[j]`` of them, and query j attends the packed keys in
    ``ranges[j]``. An empty range yields the zero vector: each head
    attends over nothing and contributes zeros, so the output projection
    sees zeros.
    """
    k, v = (ops.matmul(rows, bound[f"{prefix}.{w}"]) for w in ("wk", "wv"))
    out = ops.segment_attention(ops.matmul(query, bound[f"{prefix}.wq"]), k, v, ranges, row_map,
                                heads)
    return ops.matmul(out, bound[f"{prefix}.wo"])


def _check_stages(seqs, cfg: ModelConfig) -> None:
    if len(seqs) != len(cfg.stages):
        raise ValueError(f"expected {len(cfg.stages)} sequences per direction, got {len(seqs)}")


def _w1_rows(bound: BoundParams, side: str, block: int, cfg: ModelConfig) -> Matrix:
    """The rows of ``fusion.w1`` that read attention output ``block``
    (stage-major, internal before external)."""
    return bound.rows(f"{side}.fusion.w1", block * cfg.d_model, (block + 1) * cfg.d_model)


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
    times their rows of ``fusion.w1``, summed over stages, plus ``fusion.b1``.
    """
    _check_stages(own, cfg)
    hidden = bound[f"{side}.fusion.b1"]
    for t, (stage, seq) in enumerate(zip(cfg.stages, own)):
        out = interaction(text, *seq, bound, f"{side}.{stage}.internal", cfg.heads)
        hidden = ops.affine(out, _w1_rows(bound, side, 2 * t, cfg), hidden)
    return hidden


def external_projections(bound: BoundParams, side: str, cfg: ModelConfig) -> list[list[Matrix]]:
    """Per active stage, the matrices that carry its external attention
    output into the fusion hidden layer, in order: ``wo`` and the rows of
    ``fusion.w1`` that read the external interaction."""
    return [[bound[f"{side}.{stage}.external.wo"], _w1_rows(bound, side, 2 * t + 1, cfg)]
            for t, stage in enumerate(cfg.stages)]


def fuse_pairs(queries: list[Matrix], hidden: Matrix, index: np.ndarray, keys, projections,
               bound: BoundParams, side: str, cfg: ModelConfig) -> Matrix:
    """(B, fusion_out) fused representations of one side of B pairs.

    ``queries`` and ``hidden`` are the side's ``external_queries`` and
    ``internal_hidden``, ``index`` each pair's row of them. ``keys`` holds
    per stage ([K, V], row_map, ranges): the ``external_keys`` of the
    entities the partners' same-kind histories name, and one range per
    pair. Each stage runs one attention over all heads. Each projection is
    a chain of matrices that reads the concatenated attention outputs of
    as many stages as its first matrix has rows (d per stage); the chains'
    outputs are summed. ``external_projections`` has one chain per stage,
    ``[wo_t, w1_t]``; a frozen-weight caller may pass their products
    stacked, one GEMM.
    """
    _check_stages(keys, cfg)
    attended = [ops.segment_attention(ops.gather_rows(q, index), k, v, ranges, row_map, cfg.heads)
                for q, ((k, v), row_map, ranges) in zip(queries, keys)]
    h = ops.gather_rows(hidden, index)
    start = 0
    for chain in projections:
        end = start + chain[0].rows // cfg.d_model
        out = ops.concat_cols(attended[start:end])
        for m in chain[:-1]:
            out = ops.matmul(out, m)
        h = ops.affine(out, chain[-1], h)
        start = end
    if start != len(attended):
        raise DimensionError(f"projections read {start} of {len(attended)} stages")
    return ops.affine(ops.relu(h), bound[f"{side}.fusion.w2"], bound[f"{side}.fusion.b2"])
