"""Plain-numpy forward pass used as a transcript oracle in tests.

Mirrors the documented wiring step by step (per-head attention computed
independently, explicit concatenation order, explicit gate/expert layers)
without touching the library's op graph.
"""

import numpy as np

from pjfit.domain import DatasetError


def pad_sequence(ids, dataset, max_len: int = 20,
                 kind: str = "job") -> tuple[np.ndarray, np.ndarray]:
    """Embed a history id list into a fixed (max_len, dim) block.

    Input ids are chronological (oldest first); only the most recent
    ``max_len`` survive and they fill the block most-recent-first. The
    boolean mask flags real rows; padded rows are zero.
    """
    matrix = np.zeros((max_len, dataset.embedding_dim))
    valid = np.zeros(max_len, dtype=bool)
    kept = list(ids)[-max_len:][::-1]
    table = dataset.candidates if kind == "candidate" else dataset.jobs
    for row, entity_id in enumerate(kept):
        if entity_id not in table:
            raise DatasetError(f"unknown {kind} id {entity_id!r}")
        matrix[row] = table[entity_id].embedding
        valid[row] = True
    return matrix, valid


def np_attention(q, k, v, valid):
    if not valid.any():
        return np.zeros((q.shape[0], v.shape[1]))
    logits = (q @ k.T) / np.sqrt(q.shape[1])
    weights = np.zeros_like(logits)
    lv = logits[:, valid]
    e = np.exp(lv - lv.max(axis=1, keepdims=True))
    weights[:, valid] = e / e.sum(axis=1, keepdims=True)
    return weights @ v


def np_mha(query, seq, valid, store, prefix, cfg):
    """Each head projects with its own column block of wq, wk and wv and
    attends on its own; the heads are concatenated."""
    heads = []
    for i in range(cfg.heads):
        block = slice(i * cfg.head_dim, (i + 1) * cfg.head_dim)
        wq, wk, wv = (store[f"{prefix}.{w}"].value[:, block] for w in ("wq", "wk", "wv"))
        heads.append(np_attention(query @ wq, seq @ wk, seq @ wv, valid))
    return np.concatenate(heads, axis=1)


def np_encode_side(self_vec, own_seqs, cross_seqs, store, side, cfg):
    # all internal outputs, stage by stage, then all external ones
    parts = [np_mha(self_vec, own, own_valid, store, f"{side}.{stage}.internal", cfg)
             for stage, (own, own_valid) in zip(cfg.stages, own_seqs)]
    parts += [np_mha(self_vec, cross, cross_valid, store, f"{side}.{stage}.external", cfg)
              for stage, (cross, cross_valid) in zip(cfg.stages, cross_seqs)]
    h = np.concatenate(parts, axis=1)
    h = np.maximum(h @ store[f"{side}.fusion.w1"].value + store[f"{side}.fusion.b1"].value, 0.0)
    return h @ store[f"{side}.fusion.w2"].value + store[f"{side}.fusion.b2"].value


def np_gate(e_c, store):
    h = np.maximum(e_c @ store["moe.gate.w1"].value + store["moe.gate.b1"].value, 0.0)
    logits = h @ store["moe.gate.w2"].value + store["moe.gate.b2"].value
    e = np.exp(logits - logits.max())
    return e / e.sum()


def np_ffn(x, store, i, cfg):
    """Expert i: its column block of moe.w1 and moe.b1, then its own tail."""
    h1 = cfg.expert_hidden[0]
    block = slice(i * h1, (i + 1) * h1)
    h = np.maximum(x @ store["moe.w1"].value[:, block] + store["moe.b1"].value[:, block], 0.0)
    h = np.maximum(h @ store[f"moe.expert{i}.w2"].value + store[f"moe.expert{i}.b2"].value, 0.0)
    return h @ store[f"moe.expert{i}.w3"].value + store[f"moe.expert{i}.b3"].value


def np_moe(x, cat_c, cat_j, store, cfg):
    if not cfg.gated_head:
        return float(np_ffn(x, store, 0, cfg)[0, 0])
    table = store["moe.categories"].value
    e_c = np.concatenate([table[cat_c:cat_c + 1], table[cat_j:cat_j + 1]], axis=1)
    if cfg.ablation == "no_category":
        e_c = np.zeros_like(e_c)
    gate = np_gate(e_c, store)
    outputs = np.array([float(np_ffn(x, store, i, cfg)[0, 0])
                        for i in range(cfg.n_experts)])
    return float((gate.ravel() * outputs).sum())


def np_score_pair(candidate, job, store, cfg, dataset):
    resume = candidate.embedding.reshape(1, -1)
    jd = job.embedding.reshape(1, -1)
    cand_hist = [pad_sequence(candidate.history(s), dataset, cfg.seq_len, kind="job")
                 for s in cfg.stages]
    job_hist = [pad_sequence(job.history(s), dataset, cfg.seq_len, kind="candidate")
                for s in cfg.stages]
    cand_fused = np_encode_side(resume, cand_hist, job_hist, store, "cand", cfg)
    job_fused = np_encode_side(jd, job_hist, cand_hist, store, "job", cfg)
    parts = [cand_fused, job_fused, resume, jd]
    if cfg.ablation == "simple_match":
        parts.append(np.array([[1.0 if candidate.category_id == job.category_id else 0.0]]))
    x = np.concatenate(parts, axis=1)
    return np_moe(x, candidate.category_id, job.category_id, store, cfg)
