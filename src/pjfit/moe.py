"""Category-aware mixture-of-experts scoring head.

A trainable category embedding table drives a two-layer gating net whose
softmax output weights the expert FFNs. Each expert is a three-affine
network with ReLU after the first two layers; the prediction is the
gate-weighted sum of expert outputs, an unbounded real (pairwise training
works on score differences). Every function works on a batch: one row per
pair, one (candidate, job) category pair per row.

The n experts' first layers are one (joint_dim x n h1) layer and one
``moe.b1``, expert i's in columns [i h1, (i + 1) h1), after the gate
tensors and before each expert's ``moe.expert{i}.w2/b2/w3/b3``. Every
expert reads the same joint vector, so one GEMM per input serves them
all (the batched-expert layout of Switch Transformer, Fedus et al.,
arXiv:2101.03961), and ``moe_scores`` cuts the activated result per
expert with ``ops.split_cols``. The layer is one tensor per column block
of the joint vector, in its order: ``moe.w1.fusion`` reads the two fused
side vectors, ``moe.w1.resume`` and ``moe.w1.jd`` the two texts and,
under ``simple_match``, ``moe.w1.same`` the same-category column.
``model`` multiplies each block by its tensor where the block is made,
and sums the products per pair.

Head ablations: ``no_moe`` and ``simple_match`` are the one-expert case
without a gate (the latter sees an extra binary same-category feature
appended to the joint vector by the caller); ``no_category`` keeps the
gate but feeds it an all-zero category vector.
"""

from __future__ import annotations

import numpy as np

from pjfit.config import ModelConfig
from pjfit.numerics import BoundParams, DimensionError, Matrix, ops


def head_param_spec(cfg: ModelConfig) -> list[tuple[str, int, int]]:
    h1, h2 = cfg.expert_hidden
    n = cfg.head_experts
    spec = [
        ("moe.categories", cfg.n_categories, cfg.category_dim),
        ("moe.gate.w1", cfg.gate_in, cfg.gate_hidden),
        ("moe.gate.b1", 1, cfg.gate_hidden),
        ("moe.gate.w2", cfg.gate_hidden, cfg.n_experts),
        ("moe.gate.b2", 1, cfg.n_experts),
    ] if cfg.gated_head else []
    # one tensor per column block of the joint vector, joint_dim rows in all
    parts = [("fusion", 2 * cfg.fusion_out), ("resume", cfg.d_model), ("jd", cfg.d_model)]
    if cfg.ablation == "simple_match":
        parts.append(("same", 1))
    spec += [(f"moe.w1.{part}", rows, n * h1) for part, rows in parts]
    spec.append(("moe.b1", 1, n * h1))
    for i in range(n):
        spec += [
            (f"moe.expert{i}.w2", h1, h2), (f"moe.expert{i}.b2", 1, h2),
            (f"moe.expert{i}.w3", h2, 1), (f"moe.expert{i}.b3", 1, 1),
        ]
    return spec


def gate_weights(e_c: Matrix, bound: BoundParams) -> Matrix:
    """softmax(W2 relu(W1 e_c + b1) + b2): nonnegative, sums to 1."""
    hidden = ops.relu(ops.affine(e_c, bound["moe.gate.w1"], bound["moe.gate.b1"]))
    return ops.softmax_rows(ops.affine(hidden, bound["moe.gate.w2"], bound["moe.gate.b2"]))


def expert_forward(hidden: Matrix, i: int, bound: BoundParams, cfg: ModelConfig) -> Matrix:
    """Expert i's (B, 1) output from its (B, h1) first hidden layer, after
    the ReLU."""
    if not 0 <= i < cfg.head_experts:
        raise IndexError(f"expert index {i} out of range [0, {cfg.head_experts})")
    h = ops.relu(ops.affine(hidden, bound[f"moe.expert{i}.w2"], bound[f"moe.expert{i}.b2"]))
    return ops.affine(h, bound[f"moe.expert{i}.w3"], bound[f"moe.expert{i}.b3"])


def moe_scores(first: Matrix, candidate_categories, job_categories,
               bound: BoundParams, cfg: ModelConfig) -> Matrix:
    """(B, 1) gate-weighted sums of expert outputs, one per pair.

    ``first`` is the (B, n h1) first-layer pre-activation of all experts
    side by side. The gate input of row i concatenates the category
    embeddings of its candidate and job; for confusable category pairs
    both sides matter.
    """
    if not cfg.gated_head:
        return expert_forward(ops.relu(first), 0, bound, cfg)
    rows = first.rows
    categories = []
    for kind, ids in (("candidate", candidate_categories), ("job", job_categories)):
        ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        if ids.shape != (rows,):
            raise DimensionError(f"moe: {ids.size} {kind} categories for {rows} rows")
        if ((ids < 0) | (ids >= cfg.n_categories)).any():
            raise IndexError(f"{kind} category id out of range [0, {cfg.n_categories}): {ids}")
        categories.append(ids)
    if cfg.ablation == "no_category":
        e_c = Matrix(np.zeros((rows, cfg.gate_in)))
    else:
        table = bound["moe.categories"]
        e_c = ops.concat_cols([ops.gather_rows(table, ids) for ids in categories])
    gate = gate_weights(e_c, bound)
    hidden = ops.split_cols(ops.relu(first), cfg.n_experts)
    outputs = ops.concat_cols([expert_forward(h, i, bound, cfg) for i, h in enumerate(hidden)])
    # row sums of the gate-weighted outputs
    return ops.matmul(ops.mul(gate, outputs), Matrix(np.ones((cfg.n_experts, 1))))
