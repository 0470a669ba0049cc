"""Category-aware mixture-of-experts scoring head.

A trainable category embedding table drives a two-layer gating net whose
softmax output weights the expert FFNs. Each expert is a three-affine
network with ReLU after the first two layers; the prediction is the
gate-weighted sum of expert outputs, an unbounded real (pairwise training
works on score differences). Every function works on a batch: one row per
pair, one (candidate, job) category pair per row.

An expert's first layer reads the joint vector as a sum over its column
blocks, each times its rows of the layer, so the blocks are computed
apart (``head_input`` with the bias, ``head_rows``) and ``moe_scores``
runs the rest of the head on their per-pair sum.

Head ablations: ``no_moe`` and ``simple_match`` replace the whole head by
a single expert-shaped FFN (the latter sees an extra binary same-category
input feature appended to the joint vector by the caller); ``no_category``
keeps the gated head but feeds the gate an all-zero category vector.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.numerics import BoundParams, DimensionError, Matrix, ops


def head_param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    h1, h2 = cfg.expert_hidden
    if not cfg.gated_head:
        # single FFN on the joint vector (joint_dim already includes the
        # simple-match feature when that ablation is active)
        return [
            ("head.w1", cfg.joint_dim, h1), ("head.b1", 1, h1),
            ("head.w2", h1, h2), ("head.b2", 1, h2),
            ("head.w3", h2, 1), ("head.b3", 1, 1),
        ]
    spec = [
        ("moe.categories", cfg.n_categories, cfg.category_dim),
        ("moe.gate.w1", cfg.gate_in, cfg.gate_hidden),
        ("moe.gate.b1", 1, cfg.gate_hidden),
        ("moe.gate.w2", cfg.gate_hidden, cfg.n_experts),
        ("moe.gate.b2", 1, cfg.n_experts),
    ]
    for i in range(cfg.n_experts):
        spec += [
            (f"moe.expert{i}.w1", cfg.joint_dim, h1), (f"moe.expert{i}.b1", 1, h1),
            (f"moe.expert{i}.w2", h1, h2), (f"moe.expert{i}.b2", 1, h2),
            (f"moe.expert{i}.w3", h2, 1), (f"moe.expert{i}.b3", 1, 1),
        ]
    return spec


def _prefixes(cfg: ModelConfig) -> list[str]:
    """Parameter prefix of each expert, or of the single head."""
    return [f"moe.expert{i}" for i in range(cfg.n_experts)] if cfg.gated_head else ["head"]


def head_input(x: Matrix, bound: BoundParams, cfg: ModelConfig) -> list[Matrix]:
    """Per expert (or the single head): x times the leading ``x.cols``
    rows of its first layer, plus its first-layer bias."""
    return [ops.affine(x, bound.rows(f"{p}.w1", 0, x.cols), bound[f"{p}.b1"])
            for p in _prefixes(cfg)]


def head_rows(x: Matrix, lo: int, bound: BoundParams, cfg: ModelConfig) -> list[Matrix]:
    """Per expert (or the single head): x times rows [lo, lo + x.cols) of
    its first layer."""
    return [ops.matmul(x, bound.rows(f"{p}.w1", lo, lo + x.cols)) for p in _prefixes(cfg)]


def gate_weights(e_c: Matrix, bound: BoundParams) -> Matrix:
    """softmax(W2 relu(W1 e_c + b1) + b2): nonnegative, sums to 1."""
    hidden = ops.relu(ops.affine(e_c, bound["moe.gate.w1"], bound["moe.gate.b1"]))
    return ops.softmax_rows(ops.affine(hidden, bound["moe.gate.w2"], bound["moe.gate.b2"]))


def _tail(first: Matrix, bound: BoundParams, prefix: str) -> Matrix:
    h = ops.relu(first)
    h = ops.relu(ops.affine(h, bound[f"{prefix}.w2"], bound[f"{prefix}.b2"]))
    return ops.affine(h, bound[f"{prefix}.w3"], bound[f"{prefix}.b3"])


def expert_forward(first: Matrix, i: int, bound: BoundParams, cfg: ModelConfig) -> Matrix:
    """Expert i's (B, 1) output from its first layer's pre-activation."""
    if not 0 <= i < cfg.n_experts:
        raise IndexError(f"expert index {i} out of range [0, {cfg.n_experts})")
    return _tail(first, bound, f"moe.expert{i}")


def moe_scores(first: list[Matrix], candidate_categories, job_categories,
               bound: BoundParams, cfg: ModelConfig) -> Matrix:
    """(B, 1) gate-weighted sums of expert outputs, one per pair.

    ``first`` holds per expert (or the single head) the (B, h1) first-layer
    pre-activation. The gate input of row i concatenates the category
    embeddings of its candidate and job; for confusable category pairs
    both sides matter.
    """
    if not cfg.gated_head:
        return _tail(first[0], bound, "head")
    rows = first[0].rows
    categories = []
    for kind, ids in (("candidate", candidate_categories), ("job", job_categories)):
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.shape != (rows,):
            raise DimensionError(f"moe: {ids.size} {kind} categories for {rows} rows")
        if ((ids < 0) | (ids >= cfg.n_categories)).any():
            raise IndexError(f"{kind} category id out of range [0, {cfg.n_categories}): {ids}")
        categories.append(ids)
    if cfg.ablation == "no_category":
        e_c = bound.constant(np.zeros((rows, cfg.gate_in)))
    else:
        table = bound["moe.categories"]
        e_c = ops.concat_cols([ops.gather_rows(table, ids) for ids in categories])
    gate = gate_weights(e_c, bound)
    outputs = ops.concat_cols([expert_forward(f, i, bound, cfg) for i, f in enumerate(first)])
    # row sums of the gate-weighted outputs
    return ops.matmul(ops.mul(gate, outputs), bound.constant(np.ones((cfg.n_experts, 1))))
