"""Serving index: frozen-weight scoring that keeps per-entity work across calls.

With the weights frozen, most of what ``training.score_pairs`` computes
for a pair depends on one of its entities only. A ``ServingIndex``
computes that part once per entity, when a call first needs it, and keeps
it, so a call does only the per-pair rest. This is the late-interaction
split of ColBERT (Khattab & Zaharia, arXiv:2004.12832). ``score_pairs``
stays the training forward and the reference the index is tested
against; ``training.score_all`` (hence ``evaluate``) and
``training.rank_candidates`` score through the index.

What the index keeps, in float64, for d = d_model, S active stages,
h = fusion_hidden and E = the width of the head's first layer summed over
its experts:

* per index, from the weights alone: per side, the external output
  projection of each stage folded into the ``fusion.w1`` rows it feeds,
  ``F = [wo_t @ w1_t]`` stacked over the stages t, an (S d x h) matrix;
  the rows of the experts' first layers (``head.w1`` for the single-head
  ablations) that read the two fused vectors, stacked into one
  (2 fusion_out x E) matrix; and the gate vector of every (candidate
  category, job category) pair;
* per entity, as the query of its own side, S d + h + E values: its
  external-set query rows, all stages and heads; its internal
  interactions pushed through their ``wo`` and ``fusion.w1`` blocks, plus
  ``fusion.b1``, as one h-wide row; and its text times its rows of the
  first head layers;
* per entity and stage, as a key in a partner's same-kind history, 2 d
  values: its external key and value rows, all heads.

At the production width (d = 1024, S = 3, h = 1024, E = 1280) that is
43 KB per entity as a query and 16 KB per entity and stage as a key; the
per-index part is ~53 MB. Tables grow by doubling, so up to twice that
per entity may be reserved. A call computes all the entities it lacks in
one batched pass per kind (and per stage, for keys). The first call on a
new index also computes the six folds, 12.9 GFLOP at d = 1024.

A pair then costs, per side: the external attention of each stage over
the cached keys (``ops.segment_attention``); the heads times F plus the
cached row, ReLU and ``fusion.w2``. The head's first layer is the two
fused vectors times the stacked rows plus the two cached text parts (and
the same-category column for ``simple_match``); the rest of the experts
and the gate follow as in ``moe.moe_scores``.

Scores equal those of ``score_pairs`` up to rounding, since folding and
batching change the order of the sums; the tests hold them to 1e-12
relative. An index returns bitwise the same scores for the same chunk of
pairs however warm it is.

Lifetime: ``index_for`` keeps one index per ``ParamStore``, held weakly.
An index serves while the model config is equal and the dataset's
``candidates`` and ``jobs`` are the same dict objects. Datasets are
immutable after load, and the splits of one dataset share those dicts, so
eval and rank on one data directory share one index. Building an index
makes every parameter array of the store read-only: an in-place update
after it (an optimizer step) raises instead of leaving the index serving
stale entries.
"""

from __future__ import annotations

import weakref

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain import Dataset, DatasetError, SequenceCache, distinct_records
from pjfit.encoder import bound_attention_set, segment_interaction
from pjfit.moe import gate_weights
from pjfit.numerics import Matrix, ParamStore, ops

SIDE = {"candidate": "cand", "job": "job"}


class _Table:
    """Per-entity rows of one width, computed in batches and kept."""

    def __init__(self, width: int):
        self.data = np.empty((0, width))
        self._row: dict[str, int] = {}

    def rows(self, records, compute) -> np.ndarray:
        """The table row of each record. The records not in the table yet
        are computed first, in one ``compute(missing records)`` call."""
        missing = {r.id: r for r in records if r.id not in self._row}
        if missing:
            values = compute(list(missing.values()))
            n = len(self._row)
            end = n + len(missing)
            if end > self.data.shape[0]:
                grown = np.empty((max(end, 2 * n), self.data.shape[1]))
                grown[:n] = self.data[:n]
                self.data = grown
            self.data[n:end] = values
            self._row.update(zip(missing, range(n, end)))
        return np.array([self._row[r.id] for r in records], dtype=np.intp)


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


class ServingIndex:
    """Frozen-weight scorer over one dataset's entities; see the module docstring."""

    def __init__(self, store: ParamStore, cfg: ModelConfig, dataset: Dataset):
        check_fits(cfg, dataset)
        self.cfg = cfg
        self._records = {"candidate": dataset.candidates, "job": dataset.jobs}
        self._cache = SequenceCache(dataset, cfg)
        for _, p in store.items():
            p.value.setflags(write=False)
        params = {name: Matrix(p.value) for name, p in store.items()}
        w = self._w = {name: m.data for name, m in params.items()}

        d, S = cfg.d_model, len(cfg.stages)
        self._internal = {(side, stage): bound_attention_set(params, f"{side}.{stage}.internal",
                                                             cfg.heads)
                          for side in SIDE.values() for stage in cfg.stages}
        self._fold = {side: np.concatenate(
            [w[f"{side}.{stage}.external.wo"] @ w[f"{side}.fusion.w1"][(2 * t + 1) * d:(2 * t + 2) * d]
             for t, stage in enumerate(cfg.stages)]) for side in SIDE.values()}

        self._experts = ([f"moe.expert{i}" for i in range(cfg.n_experts)] if cfg.gated_head
                         else ["head"])
        # the joint vector is [cand fused, job fused, resume, JD, same category]
        self._e1 = [w[f"{p}.w1"] for p in self._experts]
        self._e1_fused = np.concatenate([w1[:2 * cfg.fusion_out] for w1 in self._e1], axis=1)
        self._e1_bias = np.concatenate([w[f"{p}.b1"] for p in self._experts], axis=1)
        if cfg.gated_head:
            # row a * n + b holds the gate of candidate category a, job category b
            n = cfg.n_categories
            table = w["moe.categories"]
            e_c = np.concatenate([np.repeat(table, n, axis=0), np.tile(table, (n, 1))], axis=1)
            if cfg.ablation == "no_category":
                e_c = np.zeros_like(e_c)
            self._gates = gate_weights(Matrix(e_c), params).data

        self._query_cols = S * d
        self._row_cols = self._query_cols + cfg.fusion_hidden
        self._queries = {kind: _Table(self._row_cols + self._e1_bias.shape[1]) for kind in SIDE}
        self._keys = {(kind, stage): _Table(2 * d) for kind in SIDE for stage in cfg.stages}

    def serves(self, cfg: ModelConfig, dataset: Dataset) -> bool:
        return (cfg == self.cfg and dataset.candidates is self._records["candidate"]
                and dataset.jobs is self._records["job"])

    # ------------------------------------------------------------ per entity

    def _query_values(self, kind: str, records) -> np.ndarray:
        """Query rows of new entities of one kind, as the ``_queries`` table lays them out."""
        cfg, w = self.cfg, self._w
        side, d = SIDE[kind], cfg.d_model
        text = np.stack([r.embedding for r in records])
        out = np.empty((len(records), self._queries[kind].data.shape[1]))
        out[:, :self._query_cols] = np.concatenate(
            [text @ w[f"{side}.{stage}.external.h{i}.wq"]
             for stage in cfg.stages for i in range(cfg.heads)], axis=1)
        fusion_w1 = w[f"{side}.fusion.w1"]
        row = np.repeat(w[f"{side}.fusion.b1"], len(records), axis=0)
        query = Matrix(text)
        for t, (stage, (rows, row_map, ranges)) in enumerate(
                zip(cfg.stages, self._cache.pack(records))):
            internal = segment_interaction(query, Matrix(rows), row_map, ranges,
                                           self._internal[side, stage])
            row += internal.data @ fusion_w1[2 * t * d:(2 * t + 1) * d]
        out[:, self._query_cols:self._row_cols] = row
        lo = 2 * cfg.fusion_out + (0 if kind == "candidate" else d)
        out[:, self._row_cols:] = np.concatenate([text @ w1[lo:lo + d] for w1 in self._e1], axis=1)
        return out

    def _key_values(self, kind: str, stage: str, records) -> np.ndarray:
        """[keys | values] of new entities of one kind under their side's external set."""
        prefix = f"{SIDE[kind]}.{stage}.external"
        heads = range(self.cfg.heads)
        text = np.stack([r.embedding for r in records])
        return np.concatenate([text @ self._w[f"{prefix}.h{i}.wk"] for i in heads]
                              + [text @ self._w[f"{prefix}.h{i}.wv"] for i in heads], axis=1)

    # ------------------------------------------------------------ per pair

    def _fuse(self, kind: str, own_rows: np.ndarray, partners, partner_index) -> np.ndarray:
        """(B, fusion_out) fused representations of one side of B pairs.

        ``own_rows`` are the pairs' rows of the side's query table;
        ``partners`` are the distinct paired entities, whose same-kind
        histories the side attends, and ``partner_index`` is each pair's."""
        cfg = self.cfg
        d, dk, side = cfg.d_model, cfg.head_dim, SIDE[kind]
        query = self._queries[kind].data[own_rows, :self._row_cols]
        heads = np.empty((own_rows.size, self._query_cols))
        for t, (stage, (ids, row_map, ranges)) in enumerate(
                zip(cfg.stages, self._cache.pack_ids(partners))):
            table = self._keys[kind, stage]
            records = [self._records[kind][i] for i in ids]
            rows = table.rows(records, lambda new: self._key_values(kind, stage, new))
            kv = table.data[rows]
            pair_ranges = ranges[partner_index]
            for i in range(cfg.heads):
                c = t * d + i * dk
                heads[:, c:c + dk] = ops.segment_attention(
                    Matrix(query[:, c:c + dk]), Matrix(kv[:, i * dk:(i + 1) * dk]),
                    Matrix(kv[:, d + i * dk:d + (i + 1) * dk]), pair_ranges, row_map).data
        hidden = heads @ self._fold[side]
        hidden += query[:, self._query_cols:]
        np.maximum(hidden, 0.0, out=hidden)
        return hidden @ self._w[f"{side}.fusion.w2"] + self._w[f"{side}.fusion.b2"]

    def score(self, candidates, jobs) -> np.ndarray:
        """Scores of the pairs (candidates[i], jobs[i]), a (B,) array."""
        if len(candidates) != len(jobs):
            raise ValueError(f"{len(candidates)} candidates for {len(jobs)} jobs")
        if not candidates:
            raise ValueError("no pairs to score")
        cfg, w = self.cfg, self._w
        cands, cand_index = distinct_records(candidates)
        job_records, job_index = distinct_records(jobs)
        cand_rows = self._queries["candidate"].rows(
            cands, lambda new: self._query_values("candidate", new))[cand_index]
        job_rows = self._queries["job"].rows(
            job_records, lambda new: self._query_values("job", new))[job_index]

        fo = cfg.fusion_out
        x = self._fuse("candidate", cand_rows, job_records, job_index) @ self._e1_fused[:fo]
        x += self._fuse("job", job_rows, cands, cand_index) @ self._e1_fused[fo:]
        x += self._queries["candidate"].data[cand_rows, self._row_cols:]
        x += self._queries["job"].data[job_rows, self._row_cols:]
        x += self._e1_bias
        cand_categories = np.array([c.category_id for c in candidates], dtype=np.intp)
        job_categories = np.array([j.category_id for j in jobs], dtype=np.intp)
        if cfg.ablation == "simple_match":
            # the single head's last first-layer row reads the same-category column
            x += np.outer(cand_categories == job_categories, self._e1[0][-1])
        np.maximum(x, 0.0, out=x)

        width = cfg.expert_hidden[0]
        outputs = np.empty((len(candidates), len(self._experts)))
        for i, prefix in enumerate(self._experts):
            h = x[:, i * width:(i + 1) * width] @ w[f"{prefix}.w2"] + w[f"{prefix}.b2"]
            np.maximum(h, 0.0, out=h)
            outputs[:, i:i + 1] = h @ w[f"{prefix}.w3"] + w[f"{prefix}.b3"]
        if not cfg.gated_head:
            return outputs[:, 0]
        gate = self._gates[cand_categories * cfg.n_categories + job_categories]
        return (gate * outputs).sum(axis=1)


_INDEXES: "weakref.WeakKeyDictionary[ParamStore, ServingIndex]" = weakref.WeakKeyDictionary()


def index_for(store: ParamStore, cfg: ModelConfig, dataset: Dataset) -> ServingIndex:
    """The store's index, built anew when it does not serve (cfg, dataset).

    The index holds no reference to the store, so it lives as long as the
    store does. Raises DatasetError when the dataset does not fit ``cfg``.
    """
    index = _INDEXES.get(store)
    if index is None or not index.serves(cfg, dataset):
        index = _INDEXES[store] = ServingIndex(store, cfg, dataset)
    return index
