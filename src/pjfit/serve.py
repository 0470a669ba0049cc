"""Serving index: frozen-weight scoring that keeps per-entity work across calls.

A ``ServingIndex`` runs the forward of ``model`` on frozen weights. It
keeps each entity's per-entity outputs from the first call that needs
them, so a call runs only ``model.pair_scores``: per side, the external
attention of each stage and either one GEMM of their outputs side by
side with ``fusion.w1.external`` or, on a side that folds (below), the
sum of attention over folded values. ``training.score_all``
(hence ``evaluate``) and ``training.rank_candidates`` score through it.

What the index keeps, in float64, for d = d_model, S active stages,
h = fusion_hidden and E = n h1, the width of the head's first layer
(the ``moe.w1`` tensors) for n experts of first hidden width h1:

* per index: no weights; it reads the store's own values in place, and
  the dataset's ``SequenceCache`` (d embedding values per entity);
* per entity, as the query of its own side, S d + h + E values: the
  outputs of ``model.entity_rows``, one table array per stage's external
  query (all heads side by side), one for the hidden row and one head
  array (all experts side by side);
* per entity and stage, as a key in a partner's same-kind history, 2 d
  values: the outputs of ``encoder.external_keys``, one table array for
  the keys and one for the values, all heads side by side;
* per entity and stage, once a folding side has attended it as a key,
  heads h more: its values folded through ``fusion.w1.external`` by
  ``encoder.fold_values``, in a third table per (kind, stage).

At the production width (d = 1024, S = 3, heads = 2, h = 1024,
E = 1280) that is 43 KB per entity as a query, 16 KB per entity and
stage as a key and 16 KB more per folded key and stage. A table array
has an uninitialised row per entity of its kind, so a row takes memory
only once a call writes it. A call computes all the entities it lacks in
one batched pass per kind (and per stage, for keys and folds). Building
an index computes no model output.

Folding. A side of a call folds when FOLD_FACTOR heads U <= d, for U the
most distinct keys it attends at one stage (at most 64 keys at d = 1024
and heads = 2), and heads h <= FOLD_WIDTH d, the folded attention output
per stage against the plain one. Its keys then carry folded values, and
``encoder.fuse_pairs`` skips the side's (B x S d) (S d x h) GEMM, whose
weight tensor (25 MB at d = 1024) a small call reads for a few rows of
output. In exchange the attention writes heads h columns per stage
instead of d, and a key met for the first time is folded, d h
multiply-adds per stage. The rule reads only the config and the call's
pairs, never how warm the tables are, so a chunk takes the same path,
and scores the same bytes, in any index. Timings of one side's
``fuse_pairs``, folded over plain (S = 3, heads = 2, h = 1024, each pair
attending min(U, 20) of the U keys per stage; warm: keys and folds read
from tables, cold: computed in the call; medians of 9 runs at d = 1024
and 21 at d = 64, 2 vCPUs, OpenBLAS with 2 threads, float64):

    d     B          U:  4     16    32    64    128   256
    1024  16   warm      0.29  0.33  0.38  0.44  0.53  0.68
               cold      0.94  1.09  1.17  1.38  1.58  1.61
    1024  224  warm      0.72  0.64  0.57  0.72  0.70  0.78
               cold      0.85  0.83  0.98  1.04  0.97  1.39

    d     B          U:  1     2     4     8     16
    64    16   warm      1.39  0.92  1.06  1.05  1.18
               cold      1.60  1.24  1.34  1.44  1.65
    64    224  warm      4.75  4.59  4.41  3.96  4.40
               cold      4.44  4.26  3.66  3.71  3.73

At d = 1024 and B = 16, the size of a rank request, a warm folded side
runs in under half the plain time up to U = 64, and a cold one costs up
to 1.4 times as much; beyond U = 64 a cold fold costs 1.6 times as much
and the warm gain shrinks. A rank request attends up to ~20 keys per
stage, and repeated requests read their folds warm. An eval chunk
attends hundreds of keys per stage, and would pay a fold per key on its
first pass. At d = 64 folding does not pay: its attention writes heads h
= 2048 columns per stage against d = 64, which costs more than the GEMM
it saves, and every B = 224 cell and every cold B = 16 cell is slower.
So the width rule admits heads h up to 2 d, the production ratio at
d = 1024 where folding pays, and no side of a d = 64 model at the
production heads and h folds. A probe of the same cells at d = 64, U
1-8 (21 runs each) read folded over plain 0.77-1.30 at heads h = d / 4
and 2 d, but 0.87-2.31 at 4 d.

Scores equal those of ``model.score_pairs`` up to rounding, since
batching, and folding, change the order of the sums; the tests hold them
to 1e-12 relative. An index returns bitwise the same scores for the same
chunk of pairs however warm it is.

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
from pjfit.encoder import external_keys, fold_values
from pjfit.model import SIDE, check_fits, entity_rows, pair_rows, pair_scores
from pjfit.numerics import BoundParams, Matrix, ParamStore


# A side of a call folds its keys' values through fusion.w1.external when
# FOLD_FACTOR * heads * U <= d_model, for U its most distinct keys at one
# stage, and heads * fusion_hidden <= FOLD_WIDTH * d_model; the module
# docstring gives the timings behind both factors.
FOLD_FACTOR = 8
FOLD_WIDTH = 2


def folds(cfg: ModelConfig, named) -> bool:
    """Whether a side folds, given the distinct keys it attends per stage."""
    return (cfg.heads * cfg.fusion_hidden <= FOLD_WIDTH * cfg.d_model
            and FOLD_FACTOR * cfg.heads * max(n.size for n in named) <= cfg.d_model)


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
        self._folds = {(kind, stage): _Table(n[kind]) for kind in SIDE for stage in cfg.stages}

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

    def _attended_keys(self, kind: str, partners, partner_index: np.ndarray) -> tuple[list, bool]:
        """Per stage, the keys the side of ``kind`` attends in B pairs (the
        entities the partners' histories name, and each pair's range), and
        whether their values are folded."""
        side, keys = SIDE[kind], []
        packed = self._cache.pack(COUNTERPART[kind], partners)
        folded = folds(self.cfg, [named for named, _, _ in packed])
        for stage, (named, row_map, ranges) in zip(self.cfg.stages, packed):
            k, v = self._keys[kind, stage].fill(named, lambda new: external_keys(
                Matrix(self._cache.embedding[kind][new]), self._bound, side, stage, self.cfg))
            if folded:
                v, = self._folds[kind, stage].fill(named, lambda new: [
                    fold_values(Matrix(v[new]), self._bound, side, stage, self.cfg)])
            keys.append(([Matrix(k[named]), Matrix(v[named])], row_map, ranges[partner_index]))
        return keys, folded

    def score(self, candidates, jobs) -> np.ndarray:
        """Scores of the pairs (candidates[i], jobs[i]), a (B,) array."""
        rows = pair_rows(candidates, jobs, self._cache)
        distinct = [first_seen(r) for r in rows]
        sides = [(self._entity_rows(kind, distinct[s][0]), rows[s],
                  *self._attended_keys(kind, *distinct[1 - s])) for s, kind in enumerate(SIDE)]
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
