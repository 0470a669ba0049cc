"""Serving index: frozen-weight scoring that keeps per-entity work across calls.

A ``ServingIndex`` runs the forward of ``model`` on frozen weights. It
keeps each entity's per-entity outputs from the first call that needs
them, so a call runs only ``model.pair_scores``. As the external
projection it passes the folds ``wo_t w1_t`` of the matrices
``encoder.external_projections`` hands out, computed once and stacked
over the stages: one GEMM per side instead of two per stage.
``training.score_all`` (hence ``evaluate``) and
``training.rank_candidates`` score through it.

What the index keeps, in float64, for d = d_model, S active stages,
h = fusion_hidden and E = n h1, the width of the head's first layer
(``moe.w1``) for n experts of first hidden width h1:

* per index: per side, the S folds stacked, (S d x h);
* per entity, as the query of its own side, S d + h + E values: the
  outputs of ``model.entity_rows``, one table array per stage's external
  query (all heads side by side), one for the hidden row and one head
  array (all experts side by side);
* per entity and stage, as a key in a partner's same-kind history, 2 d
  values: the outputs of ``encoder.external_keys``, one table array for
  the keys and one for the values, all heads side by side.

At the production width (d = 1024, S = 3, h = 1024, E = 1280) that is
43 KB per entity as a query and 16 KB per entity and stage as a key; the
folds take ~50 MB. Tables grow by doubling, so up to twice that per
entity may be reserved. A call computes all the entities it lacks in one
batched pass per kind (and per stage, for keys). Building an index
computes the six folds, 12.9 GFLOP at d = 1024.

Scores equal those of ``model.score_pairs`` up to rounding, since folding
and batching change the order of the sums; the tests hold them to 1e-12
relative. An index returns bitwise the same scores for the same chunk of
pairs however warm it is.

Lifetime: ``index_for`` keeps one index per ``ParamStore``, held weakly.
The index binds the store's own name -> Param map, not the store, so it
copies no weight (its weights are views of the store's value buffer) and
keeps no store alive. An index serves while the model config is equal
and the dataset's ``candidates`` and ``jobs`` are the same dict objects.
Datasets are immutable after load, and the splits of one dataset share
those dicts, so eval and rank on one data directory share one index.
Building an index makes every value view of the store read-only: an
in-place update after it (an optimizer step) raises instead of leaving
the index serving stale entries.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain import Dataset, SequenceCache
from pjfit.encoder import SIDES, external_keys, external_projections
from pjfit.model import SIDE, categories, check_fits, distinct_pairs, entity_rows, pair_scores
from pjfit.numerics import BoundParams, Matrix, ParamStore, ops


class _Table:
    """Per-entity rows of a list of matrices, computed in batches and kept."""

    def __init__(self):
        self.data: list[np.ndarray] = []
        self._row: dict[str, int] = {}

    def rows(self, records, compute) -> np.ndarray:
        """The table row of each record. Records not in the table yet are
        computed first, in one ``compute(missing)`` call that returns one
        matrix per array (on the first call always, to learn the widths)."""
        missing = {r.id: r for r in records if r.id not in self._row}
        if missing or not self.data:
            values = [m.data for m in compute(list(missing.values()))]
            n = len(self._row)
            end = n + len(missing)
            if not self.data:
                self.data = [np.empty((0, v.shape[1])) for v in values]
            if end > self.data[0].shape[0]:
                grown = [np.empty((max(end, 2 * n), a.shape[1])) for a in self.data]
                for new, old in zip(grown, self.data):
                    new[:n] = old[:n]
                self.data = grown
            for a, v in zip(self.data, values):
                a[n:end] = v
            self._row.update(zip(missing, range(n, end)))
        return np.array([self._row[r.id] for r in records], dtype=np.intp)

    def matrices(self) -> list[Matrix]:
        """The filled rows of each array, without a copy."""
        return [Matrix(a[:len(self._row)]) for a in self.data]


def _embeddings(records, d: int) -> Matrix:
    return Matrix(np.stack([r.embedding for r in records]) if records else np.zeros((0, d)))


class ServingIndex:
    """Frozen-weight scorer over one dataset's entities; see the module docstring."""

    def __init__(self, store: ParamStore, cfg: ModelConfig, dataset: Dataset):
        check_fits(cfg, dataset)
        self.cfg = cfg
        self._records = {"candidate": dataset.candidates, "job": dataset.jobs}
        self._cache = SequenceCache(dataset, cfg)
        # the store's own Params, bound without the store (see Lifetime)
        for _, p in store.items():
            p.value.setflags(write=False)
        self._bound = BoundParams(dict(store.items()))
        # per side, the folds of all stages stacked into one (S d x h) matrix
        self._projections = {side: [[Matrix(np.concatenate([
            functools.reduce(ops.matmul, chain).data
            for chain in external_projections(self._bound, side, cfg)]))]] for side in SIDES}
        self._entities = {kind: _Table() for kind in SIDE}
        self._keys = {(kind, stage): _Table() for kind in SIDE for stage in cfg.stages}

    def serves(self, cfg: ModelConfig, dataset: Dataset) -> bool:
        return (cfg == self.cfg and dataset.candidates is self._records["candidate"]
                and dataset.jobs is self._records["job"])

    def _entity_rows(self, kind: str, records) -> tuple[list[Matrix], np.ndarray]:
        """The kind's ``entity_rows`` table and the row of each record."""
        def compute(new):
            own = [(Matrix(rows), row_map, ranges)
                   for rows, row_map, ranges in self._cache.pack(new)]
            return entity_rows(_embeddings(new, self.cfg.d_model), own, self._bound, SIDE[kind],
                               self.cfg)
        table = self._entities[kind]
        rows = table.rows(records, compute)
        return table.matrices(), rows

    def _attended_keys(self, kind: str, partners, partner_index: np.ndarray) -> list[tuple]:
        """Per stage, the keys the side of ``kind`` attends in B pairs: the
        entities the partners' histories name, and each pair's range."""
        keys = []
        for stage, (ids, row_map, ranges) in zip(self.cfg.stages, self._cache.pack_ids(partners)):
            table = self._keys[kind, stage]
            rows = table.rows([self._records[kind][i] for i in ids], lambda new: external_keys(
                _embeddings(new, self.cfg.d_model), self._bound, SIDE[kind], stage, self.cfg))
            keys.append(([Matrix(a[rows]) for a in table.data], row_map, ranges[partner_index]))
        return keys

    def score(self, candidates, jobs) -> np.ndarray:
        """Scores of the pairs (candidates[i], jobs[i]), a (B,) array."""
        distinct = distinct_pairs(candidates, jobs)
        sides = []
        for s, kind in enumerate(SIDE):
            records, index = distinct[s]
            rows, table_rows = self._entity_rows(kind, records)
            sides.append((rows, table_rows[index], self._attended_keys(kind, *distinct[1 - s]),
                          self._projections[SIDE[kind]]))
        return pair_scores(sides, categories(candidates), categories(jobs), self._bound,
                           self.cfg).data[:, 0]


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
