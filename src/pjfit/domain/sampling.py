"""Entity rows, history packing and pairwise training-batch sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain.records import Dataset, DatasetError, Pair

# entity kind -> the kind its histories name
COUNTERPART = {"candidate": "job", "job": "candidate"}


def first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array of row ids (non-negative
    integers) in first-seen order, and each entry's index among them.

    Sort-free: a table over the ids holds each id's first index, so an
    entry is a first occurrence where its id's table entry is its own
    index, and the first occurrences are already in first-seen order."""
    at = np.arange(values.size)
    first = np.full(values.max(initial=-1) + 1, values.size)
    np.minimum.at(first, values, at)
    distinct = values[first[values] == at]
    rank = np.empty(first.size, dtype=np.intp)
    rank[distinct] = np.arange(distinct.size)
    return distinct, rank[values]


def _embedding_rows(rows: list[np.ndarray], dim: int) -> np.ndarray:
    """The (n, dim) matrix of n embedding rows. When the rows are
    consecutive rows of one buffer, as ``load_data_dir`` leaves each kind's
    records (and ``dataclasses.replace`` keeps them), it is a read-only
    view of that block of the buffer; otherwise a stacked copy."""
    if not rows:
        return np.zeros((0, dim))
    first = rows[0]
    # one shared base: the block lies inside one allocation, which the view keeps alive
    if all(r.base is not None and r.base is first.base and r.ndim == 1 and r.shape == first.shape
           and r.dtype == first.dtype and r.flags.c_contiguous for r in rows):
        start = np.array([r.__array_interface__["data"][0] for r in rows])
        if (start == start[0] + first.nbytes * np.arange(len(rows))).all():
            return np.lib.stride_tricks.as_strided(first, (len(rows), first.size),
                                                   (first.nbytes, first.itemsize), writeable=False)
    return np.stack(rows)


class SequenceCache:
    """A dataset's entities as integer rows, built once per dataset; the one
    place that maps entity ids to rows.

    Per kind, ``row`` maps each id to its row (the dataset's order), and
    ``category`` and ``embedding`` hold the category ids and the
    embeddings by row (see ``_embedding_rows``). Per kind and active
    stage, each entity's history is
    kept as the rows of its ``seq_len`` most recent counterparts, most
    recent first, in one flat array with offsets; an empty stage keeps none.
    """

    def __init__(self, dataset: Dataset, cfg: ModelConfig):
        tables = {"candidate": dataset.candidates, "job": dataset.jobs}
        self.row = {kind: {entity_id: i for i, entity_id in enumerate(table)}
                    for kind, table in tables.items()}
        self.category = {kind: np.array([r.category_id for r in table.values()], dtype=np.intp)
                         for kind, table in tables.items()}
        self.embedding = {kind: _embedding_rows([r.embedding for r in table.values()],
                                                dataset.embedding_dim)
                          for kind, table in tables.items()}
        self._histories = {kind: [self._history(kind, list(table.values()), stage, cfg.seq_len)
                                  for stage in cfg.stages]
                           for kind, table in tables.items()}

    def _history(self, kind: str, records, stage: str, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The counterpart rows of each record's n most recent entries of
        one stage, most recent first, record after record, and the offsets
        of each record's entries. Raises DatasetError naming the record and
        the id for an entry that names no counterpart in the dataset."""
        counterpart = self.row[COUNTERPART[kind]]
        recent = [r.history(stage)[::-1][:n] for r in records]
        offsets = np.concatenate([[0], np.cumsum([len(ids) for ids in recent], dtype=np.intp)])
        try:
            return np.array([counterpart[i] for ids in recent for i in ids], dtype=np.intp), offsets
        except KeyError as exc:
            record = next(r for r, ids in zip(records, recent) if exc.args[0] in ids)
            raise DatasetError(f"{kind} {record.id!r}: {stage} history names unknown "
                               f"{COUNTERPART[kind]} id {exc.args[0]!r}") from None

    def rows(self, kind: str, records) -> np.ndarray:
        """The row of each record of one kind; DatasetError for one not in the dataset."""
        row = self.row[kind]
        try:
            return np.array([row[r.id] for r in records], dtype=np.intp)
        except KeyError as exc:
            raise DatasetError(f"{kind} id {exc.args[0]!r} is not in the dataset "
                               f"being scored") from None

    def pack(self, kind: str, rows: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per active stage, for entity rows of one kind: the counterpart
        rows their histories name, distinct and in first-seen order
        (``named``); the index in ``named`` of each packed history entry,
        entity after entity (``row_map``); and the (len(rows), 2) array of
        each entity's [lo, hi) range of packed entries."""
        packed = []
        for flat, offsets in self._histories[kind]:
            starts, lengths = offsets[rows], offsets[rows + 1] - offsets[rows]
            lo = np.cumsum(lengths) - lengths  # each entity's first packed entry
            entries = flat[np.repeat(starts - lo, lengths) + np.arange(lengths.sum())]
            named, row_map = first_seen(entries)
            packed.append((named, row_map, np.stack([lo, lo + lengths], axis=1)))
        return packed


@dataclass(frozen=True)
class PairBatch:
    """(positive, negative) pair entries; both sides of an entry share a job."""

    entries: tuple[tuple[Pair, Pair], ...]

    def __post_init__(self):
        for pos, neg in self.entries:
            if pos.label != 1 or neg.label != 0:
                raise DatasetError("batch entry must be (label-1, label-0)")
            if pos.job_id != neg.job_id:
                raise DatasetError("batch entry pairs must share a job id")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SampledEpoch:
    batches: list[PairBatch]
    skipped_positives: int  # positives whose job had no unmatched candidate left


def sample_training_pairs(dataset: Dataset, rng: np.random.Generator,
                          per_positive_negatives: int = 1,
                          batch_size: int = 256) -> SampledEpoch:
    """One epoch of BPR batches.

    Positives are the label-1 pairs, visited in shuffled order. For each, a
    negative candidate is drawn uniformly from those with no positive pair
    with that job. Jobs every candidate matches are skipped and counted.
    Deterministic given the rng state.
    """
    positives = [p for p in dataset.pairs if p.label == 1]
    matched = dataset.positives_by_job()
    all_candidates = sorted(dataset.candidates)
    pools: dict[str, list[str]] = {}

    entries: list[tuple[Pair, Pair]] = []
    skipped = 0
    order = rng.permutation(len(positives))
    for idx in order:
        pos = positives[idx]
        pool = pools.get(pos.job_id)
        if pool is None:
            taken = matched[pos.job_id]
            pool = [c for c in all_candidates if c not in taken]
            pools[pos.job_id] = pool
        if not pool:
            skipped += 1
            continue
        for _ in range(per_positive_negatives):
            neg_id = pool[int(rng.integers(len(pool)))]
            entries.append((pos, Pair(neg_id, pos.job_id, 0, pos.ts)))

    batches = [PairBatch(tuple(entries[i:i + batch_size]))
               for i in range(0, len(entries), batch_size)]
    return SampledEpoch(batches=batches, skipped_positives=skipped)
