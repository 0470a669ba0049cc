"""Bilateral historical-interaction encoders, batched over packed histories.

Each side (candidate-to-job, job-to-candidate) attends its own text
embedding over six history sequences: per recruitment stage (evaluated,
passed resume evaluation, passed interviews) an internal interaction
against counterpart-kind history and an external interaction against
same-kind history. The six attention outputs are concatenated in fixed
order, stage-major with internal before external, and fused by a two-layer
DNN down to a compact side representation.

A batch of pairs is encoded in one pass. Histories are packed by
reference: per stage, the embeddings of the distinct entities that the
batch's histories name are stacked once, a row map gives the embedding
row of each packed history key, and each attention query reads its own
[lo, hi) range of packed keys. Each attention set then projects keys and
values with one GEMM per head over the distinct entities only, so an
entity that sits in many histories is projected once. Queries are
projected once per distinct text too. Internal interactions depend on
one entity only and are computed once per distinct entity; external
interactions gather each pair's projected query and attend per pair.

The two sides share architecture but never parameters: every
(side, stage, direction) triple owns an independent attention set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pjfit.config import ModelConfig
from pjfit.numerics import BoundParams, Matrix, ops

SIDES = ("cand", "job")
DIRECTIONS = ("internal", "external")


@dataclass(frozen=True)
class AttentionSet:
    """Per-head projection weights plus the shared output projection."""

    wq: tuple[Matrix, ...]
    wk: tuple[Matrix, ...]
    wv: tuple[Matrix, ...]
    wo: Matrix


def attention_param_names(prefix: str, heads: int):
    for i in range(heads):
        yield f"{prefix}.h{i}.wq"
        yield f"{prefix}.h{i}.wk"
        yield f"{prefix}.h{i}.wv"
    yield f"{prefix}.wo"


def encoder_param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, rows, cols) for both sides, in checkpoint order."""
    spec: list[tuple[str, int, int]] = []
    dk = cfg.head_dim
    for side in SIDES:
        for stage in cfg.stages:
            for direction in DIRECTIONS:
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


def bound_attention_set(bound: BoundParams, prefix: str, heads: int) -> AttentionSet:
    return AttentionSet(
        wq=tuple(bound[f"{prefix}.h{i}.wq"] for i in range(heads)),
        wk=tuple(bound[f"{prefix}.h{i}.wk"] for i in range(heads)),
        wv=tuple(bound[f"{prefix}.h{i}.wv"] for i in range(heads)),
        wo=bound[f"{prefix}.wo"],
    )


def segment_interaction(query: Matrix, rows: Matrix, row_map: np.ndarray, ranges: np.ndarray,
                        params: AttentionSet, query_index: np.ndarray | None = None) -> Matrix:
    """Concat over heads of attention(query Wq_i, rows Wk_i, rows Wv_i), times Wo.

    ``rows`` holds the embeddings of the distinct history entities, each
    projected to keys and values once. The packed history key j is row
    ``row_map[j]`` of them, and query j attends the packed keys in
    ``ranges[j]``. With ``query_index``, ``query`` holds distinct texts,
    each projected once, and query j is row ``query_index[j]`` of them.
    An empty range yields the zero vector: each head attends over nothing
    and contributes zeros, so the output projection sees zeros.
    """
    heads = []
    for wq, wk, wv in zip(params.wq, params.wk, params.wv):
        q = ops.matmul(query, wq)
        if query_index is not None:
            q = ops.gather_rows(q, query_index)
        heads.append(ops.segment_attention(q, ops.matmul(rows, wk), ops.matmul(rows, wv),
                                           ranges, row_map))
    return ops.matmul(ops.concat_cols(heads), params.wo)


def encode_side_batch(text: Matrix, index: np.ndarray, own, cross, bound: BoundParams,
                      side: str, cfg: ModelConfig) -> Matrix:
    """Fused (B, fusion_out) representations of one side of B pairs.

    ``text`` holds the (U, d) text embeddings of the side's U distinct
    entities and ``index`` the entity of each pair. ``own`` and ``cross``
    are (rows, row_map, ranges) tuples per active stage, as
    ``segment_interaction`` reads them: own history holds counterpart-kind
    embeddings with one range per distinct entity (internal interaction),
    the paired entity's history holds same-kind embeddings with one range
    per pair (external interaction).
    """
    if len(own) != len(cfg.stages) or len(cross) != len(cfg.stages):
        raise ValueError(f"expected {len(cfg.stages)} sequences per direction")
    parts = []
    for stage, own_seq, cross_seq in zip(cfg.stages, own, cross):
        internal = bound_attention_set(bound, f"{side}.{stage}.internal", cfg.heads)
        external = bound_attention_set(bound, f"{side}.{stage}.external", cfg.heads)
        parts.append(ops.gather_rows(segment_interaction(text, *own_seq, internal), index))
        parts.append(segment_interaction(text, *cross_seq, external, query_index=index))
    hidden = ops.relu(ops.affine(ops.concat_cols(parts),
                                 bound[f"{side}.fusion.w1"], bound[f"{side}.fusion.b1"]))
    return ops.affine(hidden, bound[f"{side}.fusion.w2"], bound[f"{side}.fusion.b2"])
