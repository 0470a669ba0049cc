"""Bilateral historical-interaction encoders, as per-entity and per-pair parts.

Each side (candidate-to-job, job-to-candidate) attends its text over six
history sequences: per recruitment stage, an internal interaction with
the entity's own counterpart-kind history and an external one with the
paired entity's same-kind history. The six outputs, stage-major with
internal first, feed a two-layer fusion DNN. Per entity:
``external_queries``, ``internal_hidden`` (the internal interactions
through their rows of ``fusion.w1``, plus ``fusion.b1``) and, for
history entities, ``external_keys``. Per pair: ``fuse_pairs``.

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
    dk = cfg.head_dim
    for side in SIDES:
        for stage in cfg.stages:
            for direction in ("internal", "external"):
                prefix = f"{side}.{stage}.{direction}"
                for i in range(cfg.heads):
                    spec.append((f"{prefix}.h{i}.wq", cfg.d_model, dk))
                    spec.append((f"{prefix}.h{i}.wk", cfg.d_model, dk))
                    spec.append((f"{prefix}.h{i}.wv", cfg.d_model, dk))
                spec.append((f"{prefix}.wo", cfg.heads * dk, cfg.d_model))
        spec.append((f"{side}.fusion.w1", cfg.fusion_in, cfg.fusion_hidden))
        spec.append((f"{side}.fusion.b1", 1, cfg.fusion_hidden))
        spec.append((f"{side}.fusion.w2", cfg.fusion_hidden, cfg.fusion_out))
        spec.append((f"{side}.fusion.b2", 1, cfg.fusion_out))
    return spec


def _project(x: Matrix, bound: BoundParams, prefix: str, heads: int, *weights: str) -> list[Matrix]:
    """x times each named per-head weight of attention set ``prefix``,
    weight-major: all heads' ``weights[0]``, then all heads' ``weights[1]``."""
    return [ops.matmul(x, bound[f"{prefix}.h{i}.{w}"]) for w in weights for i in range(heads)]


def interaction(query: Matrix, rows: Matrix, row_map: np.ndarray, ranges: np.ndarray,
                bound: BoundParams, prefix: str, heads: int) -> Matrix:
    """Concat over heads of attention(query Wq_i, rows Wk_i, rows Wv_i), times Wo.

    ``rows`` holds the embeddings of the distinct history entities, each
    projected to keys and values once. The packed history key j is row
    ``row_map[j]`` of them, and query j attends the packed keys in
    ``ranges[j]``. An empty range yields the zero vector: each head
    attends over nothing and contributes zeros, so the output projection
    sees zeros.
    """
    kv = _project(rows, bound, prefix, heads, "wk", "wv")
    out = [ops.segment_attention(q, kv[i], kv[heads + i], ranges, row_map)
           for i, q in enumerate(_project(query, bound, prefix, heads, "wq"))]
    return ops.matmul(ops.concat_cols(out), bound[f"{prefix}.wo"])


def _check_stages(seqs, cfg: ModelConfig) -> None:
    if len(seqs) != len(cfg.stages):
        raise ValueError(f"expected {len(cfg.stages)} sequences per direction, got {len(seqs)}")


def _w1_rows(bound: BoundParams, side: str, block: int, cfg: ModelConfig) -> Matrix:
    """The rows of ``fusion.w1`` that read attention output ``block``
    (stage-major, internal before external)."""
    return bound.rows(f"{side}.fusion.w1", block * cfg.d_model, (block + 1) * cfg.d_model)


def external_queries(text: Matrix, bound: BoundParams, side: str, cfg: ModelConfig) -> list[Matrix]:
    """(U, d_k) query rows of U texts, per external set and head, stage-major."""
    return [q for stage in cfg.stages
            for q in _project(text, bound, f"{side}.{stage}.external", cfg.heads, "wq")]


def external_keys(rows: Matrix, bound: BoundParams, side: str, stage: str,
                  cfg: ModelConfig) -> list[Matrix]:
    """Keys of every head, then values of every head, of history entities
    (their (n, d) embeddings ``rows``) under the side's external set of
    one stage."""
    return _project(rows, bound, f"{side}.{stage}.external", cfg.heads, "wk", "wv")


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
    """Per active stage, the matrices that carry its concatenated external
    heads into the fusion hidden layer, in order: ``wo`` and the rows of
    ``fusion.w1`` that read the external interaction."""
    return [[bound[f"{side}.{stage}.external.wo"], _w1_rows(bound, side, 2 * t + 1, cfg)]
            for t, stage in enumerate(cfg.stages)]


def fuse_pairs(queries: list[Matrix], hidden: Matrix, index: np.ndarray, keys, projections,
               bound: BoundParams, side: str, cfg: ModelConfig) -> Matrix:
    """(B, fusion_out) fused representations of one side of B pairs.

    ``queries`` and ``hidden`` are the side's ``external_queries`` and
    ``internal_hidden``, ``index`` each pair's row of them. ``keys`` holds
    per stage (kv, row_map, ranges): the ``external_keys`` of the entities
    the partners' same-kind histories name, and one range per pair. Each
    projection is a chain of matrices that reads the concatenated heads of
    as many stages as its first matrix has rows (d per stage); the chains'
    outputs are summed. ``external_projections`` has one chain per stage,
    ``[wo_t, w1_t]``; a frozen-weight caller may pass their products
    stacked, one GEMM.
    """
    _check_stages(keys, cfg)
    n = cfg.heads
    heads = [ops.segment_attention(ops.gather_rows(queries[t * n + i], index), kv[i], kv[n + i],
                                   ranges, row_map)
             for t, (kv, row_map, ranges) in enumerate(keys) for i in range(n)]
    h = ops.gather_rows(hidden, index)
    start = 0
    for chain in projections:
        end = start + chain[0].rows // cfg.head_dim
        out = ops.concat_cols(heads[start:end])
        for m in chain[:-1]:
            out = ops.matmul(out, m)
        h = ops.affine(out, chain[-1], h)
        start = end
    if start != len(heads):
        raise DimensionError(f"projections read {start} of {len(heads)} attention heads")
    return ops.affine(ops.relu(h), bound[f"{side}.fusion.w2"], bound[f"{side}.fusion.b2"])
