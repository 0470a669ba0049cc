"""Serving index: frozen-weight scoring that keeps per-entity work across calls.

A ``ServingIndex`` runs the forward of ``model`` on frozen weights. It
keeps each entity's per-entity outputs from the first call that needs
them, so a call runs only ``model.pair_scores``: per side, the external
attention of each stage and one GEMM of their outputs side by side with
the external rows of ``fusion.w1``. ``training.score_all`` (hence
``evaluate``) and ``training.rank_candidates`` score through it.

What the index keeps, in float64, for d = d_model, S active stages,
h = fusion_hidden and E = n h1, the width of the head's first layer
(``moe.w1``) for n experts of first hidden width h1:

* per index: no weights; it reads the store's own values in place, and
  the dataset's ``SequenceCache`` (d embedding values per entity);
* per entity, as the query of its own side, S d + h + E values: the
  outputs of ``model.entity_rows``, one table array per stage's external
  query (all heads side by side), one for the hidden row and one head
  array (all experts side by side);
* per entity and stage, as a key in a partner's same-kind history, 2 d
  values: the outputs of ``encoder.external_keys``, one table array for
  the keys and one for the values, all heads side by side.

At the production width (d = 1024, S = 3, h = 1024, E = 1280) that is
43 KB per entity as a query and 16 KB per entity and stage as a key.
A table array has an uninitialised row per entity of its kind, so a row
takes memory only once a call writes it. A call computes all the
entities it lacks in one batched pass per kind (and per stage, for
keys). Building an index computes no model output.

Scores equal those of ``model.score_pairs`` up to rounding, since
batching changes the order of the sums; the tests hold them to 1e-12
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

import weakref

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain import COUNTERPART, Dataset, SequenceCache, first_seen
from pjfit.encoder import external_keys
from pjfit.model import SIDE, check_fits, entity_rows, pair_rows, pair_scores
from pjfit.numerics import BoundParams, Matrix, ParamStore


class _Table:
    """Per-entity outputs of one kind: one array per output with a row per
    entity, filled in batches and kept."""

    def __init__(self, n: int):
        self.filled = np.zeros(n, dtype=bool)
        self.data: list[np.ndarray] = []

    def fill(self, rows: np.ndarray, compute) -> list[np.ndarray]:
        """The arrays, with the given distinct entity rows filled. Rows not
        filled yet are computed first, in one ``compute(missing)`` call that
        returns one matrix per array (on the first call always, to learn
        the widths)."""
        missing = rows[~self.filled[rows]]
        if missing.size or not self.data:
            values = [m.data for m in compute(missing)]
            if not self.data:
                self.data = [np.empty((self.filled.size, v.shape[1])) for v in values]
            for a, v in zip(self.data, values):
                a[missing] = v
            self.filled[missing] = True
        return self.data


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
        n = {kind: len(rows) for kind, rows in self._cache.row.items()}
        self._entities = {kind: _Table(n[kind]) for kind in SIDE}
        self._keys = {(kind, stage): _Table(n[kind]) for kind in SIDE for stage in cfg.stages}

    def serves(self, cfg: ModelConfig, dataset: Dataset) -> bool:
        return (cfg == self.cfg and dataset.candidates is self._records["candidate"]
                and dataset.jobs is self._records["job"])

    def _entity_rows(self, kind: str, entities: np.ndarray) -> list[Matrix]:
        """The kind's ``entity_rows`` table, with the rows of the given
        distinct entities filled."""
        def compute(new):
            own = [(Matrix(self._cache.embedding[COUNTERPART[kind]][named]), row_map, ranges)
                   for named, row_map, ranges in self._cache.pack(kind, new)]
            return entity_rows(Matrix(self._cache.embedding[kind][new]), own, self._bound,
                               SIDE[kind], self.cfg)
        return [Matrix(a) for a in self._entities[kind].fill(entities, compute)]

    def _attended_keys(self, kind: str, partners, partner_index: np.ndarray) -> list[tuple]:
        """Per stage, the keys the side of ``kind`` attends in B pairs: the
        entities the partners' histories name, and each pair's range."""
        keys = []
        packed = self._cache.pack(COUNTERPART[kind], partners)
        for stage, (named, row_map, ranges) in zip(self.cfg.stages, packed):
            table = self._keys[kind, stage].fill(named, lambda new: external_keys(
                Matrix(self._cache.embedding[kind][new]), self._bound, SIDE[kind], stage, self.cfg))
            keys.append(([Matrix(a[named]) for a in table], row_map, ranges[partner_index]))
        return keys

    def score(self, candidates, jobs) -> np.ndarray:
        """Scores of the pairs (candidates[i], jobs[i]), a (B,) array."""
        rows = pair_rows(candidates, jobs, self._cache)
        distinct = [first_seen(r) for r in rows]
        sides = [(self._entity_rows(kind, distinct[s][0]), rows[s],
                  self._attended_keys(kind, *distinct[1 - s])) for s, kind in enumerate(SIDE)]
        return pair_scores(sides, *(self._cache.category[kind][r] for kind, r in zip(SIDE, rows)),
                           self._bound, self.cfg).data[:, 0]


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
