"""History packing and pairwise training-batch sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pjfit.config import ModelConfig
from pjfit.domain.records import Dataset, DatasetError, EntityRecord, Pair


class SequenceCache:
    """History ids per (entity, stage), built once per dataset.

    A stage keeps the ids of its ``seq_len`` most recent counterparts, most
    recent first. An empty stage has no ids. Embeddings are not copied
    until ``pack`` stacks those a batch needs.
    """

    def __init__(self, dataset: Dataset, cfg: ModelConfig):
        self._dataset = dataset
        self._cfg = cfg
        self._cache: dict[tuple[str, str], tuple[tuple[str, ...], ...]] = {}

    def _ids(self, record: EntityRecord) -> tuple[tuple[str, ...], ...]:
        """One tuple of at most seq_len counterpart ids per active stage."""
        key = (record.kind, record.id)
        ids = self._cache.get(key)
        if ids is None:
            n = self._cfg.seq_len
            ids = self._cache[key] = tuple(record.history(stage)[::-1][:n]
                                           for stage in self._cfg.stages)
        return ids

    def pack_ids(self, records) -> list[tuple[list[str], np.ndarray, np.ndarray]]:
        """Per active stage, for records of one kind: the ids of the U
        distinct entities their histories name, in first-seen order; the
        index among them of each packed history entry, record after record;
        and the (len(records), 2) array of each record's [lo, hi) range of
        packed entries."""
        per_record = [self._ids(r) for r in records]
        packed = []
        for stage in range(len(self._cfg.stages)):
            position: dict[str, int] = {}
            row_map = np.array([position.setdefault(i, len(position))
                                for ids in per_record for i in ids[stage]], dtype=np.intp)
            lengths = np.array([len(ids[stage]) for ids in per_record], dtype=np.intp)
            ends = np.cumsum(lengths)
            packed.append((list(position), row_map, np.stack([ends - lengths, ends], axis=1)))
        return packed

    def pack(self, records) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``pack_ids`` with the ids replaced by the (U, d) stack of their
        embeddings."""
        counterpart = "job" if records[0].kind == "candidate" else "candidate"
        packed = []
        for ids, row_map, ranges in self.pack_ids(records):
            embeddings = [self._dataset.entity(counterpart, i).embedding for i in ids]
            rows = (np.stack(embeddings) if embeddings
                    else np.zeros((0, self._dataset.embedding_dim)))
            packed.append((rows, row_map, ranges))
        return packed


def distinct_records(records) -> tuple[list[EntityRecord], np.ndarray]:
    """The distinct records by id, in first-seen order, and each input's position among them."""
    position: dict[str, int] = {}
    distinct: list[EntityRecord] = []
    index = np.empty(len(records), dtype=np.intp)
    for i, record in enumerate(records):
        j = position.get(record.id)
        if j is None:
            j = position[record.id] = len(distinct)
            distinct.append(record)
        index[i] = j
    return distinct, index


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
