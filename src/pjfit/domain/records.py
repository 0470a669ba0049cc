"""Entity records, labeled pairs, dataset files.

File formats (UTF-8, one JSON document per line):

* entities file: ``{"id", "kind", "text", "category", "embedding",
  "hist_eval", "hist_pass_eval", "hist_pass_interview"}`` plus the optional
  augmentation markers ``"augmented"`` and ``"text_original"``. Any other
  field is rejected: the schema is the fairness boundary, so sensitive or
  proxy attributes (gender, age, school, graduation year, location) are
  structurally unrepresentable. ``id``, ``kind``, ``text`` and
  ``category`` are strings, ``embedding`` a list of numbers, each history
  a list of id strings, ``augmented`` true or false and
  ``text_original`` a string or null.
* pairs file: ``{"candidate_id", "job_id", "label", "ts"}`` with string
  ids, label the integer 0 or 1 and ts in integer seconds (a bool or a
  float such as 1.0 is not an integer here).

A data directory bundles ``entities.jsonl``, ``pairs.jsonl`` and an
optional ``meta.json`` carrying the category list, the temporal split
point and generator bookkeeping.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pjfit.config import STAGES
from pjfit.domain.vocab import CategoryVocab


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


_REQUIRED_ENTITY_FIELDS = {
    "id", "kind", "text", "category", "embedding",
    "hist_eval", "hist_pass_eval", "hist_pass_interview",
}
_OPTIONAL_ENTITY_FIELDS = {"augmented", "text_original"}
_PAIR_FIELDS = {"candidate_id", "job_id", "label", "ts"}

_STAGE_TO_FIELD = {
    "evaluated": "hist_eval",
    "passed_eval": "hist_pass_eval",
    "passed_interview": "hist_pass_interview",
}


@dataclass(frozen=True, eq=False)
class EntityRecord:
    """A candidate or a job with its staged interaction history.

    History lists hold ids of the opposite kind in chronological order
    (oldest first). Only professional content is representable here.
    """

    id: str
    kind: str  # "candidate" | "job"
    text: str
    category_id: int
    embedding: np.ndarray
    hist_eval: tuple[str, ...] = ()
    hist_pass_eval: tuple[str, ...] = ()
    hist_pass_interview: tuple[str, ...] = ()
    augmented: bool = False
    text_original: str | None = None

    def history(self, stage: str) -> tuple[str, ...]:
        return getattr(self, _STAGE_TO_FIELD[stage])


@dataclass(frozen=True)
class Pair:
    candidate_id: str
    job_id: str
    label: int
    ts: int


@dataclass
class Dataset:
    """Immutable-after-load collection of entities and labeled pairs."""

    vocab: CategoryVocab
    candidates: dict[str, EntityRecord]
    jobs: dict[str, EntityRecord]
    pairs: list[Pair]
    embedding_dim: int

    def entity(self, kind: str, entity_id: str) -> EntityRecord:
        table = self.candidates if kind == "candidate" else self.jobs
        try:
            return table[entity_id]
        except KeyError:
            raise DatasetError(f"unknown {kind} id {entity_id!r}") from None

    def positives_by_job(self) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for p in self.pairs:
            if p.label == 1:
                out.setdefault(p.job_id, set()).add(p.candidate_id)
        return out

    def split_temporal(self, split_ts: int) -> tuple["Dataset", "Dataset"]:
        """Pairs strictly before split_ts train; the rest test."""
        train = [p for p in self.pairs if p.ts < split_ts]
        test = [p for p in self.pairs if p.ts >= split_ts]
        make = lambda pairs: Dataset(self.vocab, self.candidates, self.jobs, pairs, self.embedding_dim)
        return make(train), make(test)

    def with_entities(self, replacements: dict[str, EntityRecord]) -> "Dataset":
        """New dataset with some job/candidate records swapped out."""
        cands = dict(self.candidates)
        jobs = dict(self.jobs)
        for record in replacements.values():
            table = cands if record.kind == "candidate" else jobs
            if record.id not in table:
                raise DatasetError(f"cannot replace unknown {record.kind} {record.id!r}")
            table[record.id] = record
        return Dataset(self.vocab, cands, jobs, list(self.pairs), self.embedding_dim)


def _parse_entity(doc: dict, vocab: CategoryVocab, lineno: int, path: str) -> EntityRecord:
    where = f"{path}:{lineno}"
    unknown = set(doc) - _REQUIRED_ENTITY_FIELDS - _OPTIONAL_ENTITY_FIELDS
    if unknown:
        raise DatasetError(f"{where}: unknown fields {sorted(unknown)} are not allowed")
    missing = _REQUIRED_ENTITY_FIELDS - set(doc)
    if missing:
        raise DatasetError(f"{where}: missing fields {sorted(missing)}")
    if not isinstance(doc["id"], str):
        raise DatasetError(f"{where}: id must be a string, got {doc['id']!r}")
    for name in ("kind", "text", "category"):
        if not isinstance(doc[name], str):
            raise DatasetError(f"{where}: {name} of {doc['id']!r} must be a string, "
                               f"got {doc[name]!r}")
    if doc["kind"] not in ("candidate", "job"):
        raise DatasetError(f"{where}: kind must be 'candidate' or 'job', got {doc['kind']!r}")
    if doc["category"] not in vocab:
        raise DatasetError(f"{where}: unknown category {doc['category']!r} for id {doc['id']!r}")
    values = doc["embedding"]
    # a bool is not a number here, and json reads integers of any size
    if not (isinstance(values, list) and set(map(type, values)) <= {float, int}):
        raise DatasetError(f"{where}: embedding of {doc['id']!r} must be a flat list of numbers")
    try:
        embedding = np.array(values, dtype=np.float64)
    except OverflowError:
        raise DatasetError(f"{where}: embedding of {doc['id']!r} holds a number "
                           f"too large for float64") from None
    # json reads the NaN and Infinity literals; a model cannot score them
    if not np.isfinite(embedding).all():
        raise DatasetError(f"{where}: embedding of {doc['id']!r} holds a non-finite value")
    hists = {}
    for field_name in ("hist_eval", "hist_pass_eval", "hist_pass_interview"):
        ids = doc[field_name]
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise DatasetError(f"{where}: {field_name} of {doc['id']!r} must be a list of id strings")
        hists[field_name] = tuple(ids)
    augmented = doc.get("augmented", False)
    if not isinstance(augmented, bool):
        raise DatasetError(f"{where}: augmented of {doc['id']!r} must be true or false, "
                           f"got {augmented!r}")
    text_original = doc.get("text_original")
    if not isinstance(text_original, (str, type(None))):
        raise DatasetError(f"{where}: text_original of {doc['id']!r} must be a string or null, "
                           f"got {text_original!r}")
    if augmented and text_original is None:
        raise DatasetError(f"{where}: augmented record {doc['id']!r} lacks text_original")
    return EntityRecord(
        id=doc["id"], kind=doc["kind"], text=doc["text"],
        category_id=vocab.id_of(doc["category"]), embedding=embedding,
        augmented=augmented, text_original=text_original, **hists,
    )


def load_dataset(entities_path, pairs_path, vocab: CategoryVocab | None = None,
                 embedding_dim: int | None = None) -> Dataset:
    """Parse and validate an entities/pairs file pair.

    The embedding width is taken from the first record unless pinned by
    ``embedding_dim``; every other record must match it. Errors carry the
    offending file and line number.
    """
    vocab = vocab or CategoryVocab()
    candidates: dict[str, EntityRecord] = {}
    jobs: dict[str, EntityRecord] = {}
    dim = embedding_dim

    for lineno, doc in _iter_jsonl(entities_path):
        record = _parse_entity(doc, vocab, lineno, str(entities_path))
        if dim is None:
            dim = int(record.embedding.size)
        if record.embedding.size != dim:
            raise DatasetError(
                f"{entities_path}:{lineno}: embedding of {record.id!r} has "
                f"{record.embedding.size} entries, expected {dim}")
        table = candidates if record.kind == "candidate" else jobs
        if record.id in table:
            raise DatasetError(f"{entities_path}:{lineno}: duplicate {record.kind} id {record.id!r}")
        table[record.id] = record

    # histories must reference existing entities of the opposite kind
    for record in list(candidates.values()) + list(jobs.values()):
        counterpart = jobs if record.kind == "candidate" else candidates
        for stage_ids in (record.hist_eval, record.hist_pass_eval, record.hist_pass_interview):
            for ref in stage_ids:
                if ref not in counterpart:
                    raise DatasetError(
                        f"{record.kind} {record.id!r}: history references "
                        f"missing counterpart id {ref!r}")

    pairs: list[Pair] = []
    for lineno, doc in _iter_jsonl(pairs_path):
        where = f"{pairs_path}:{lineno}"
        if set(doc) != _PAIR_FIELDS:
            raise DatasetError(f"{where}: pair must have exactly fields {sorted(_PAIR_FIELDS)}")
        cid, jid, label, ts = doc["candidate_id"], doc["job_id"], doc["label"], doc["ts"]
        if type(cid) is not str or type(jid) is not str:
            raise DatasetError(f"{where}: candidate_id and job_id must be strings, "
                               f"got {cid!r} and {jid!r}")
        # a bool is not an int here, nor is a float such as 1.0
        if type(label) is not int or label not in (0, 1):
            raise DatasetError(f"{where}: label must be the integer 0 or 1, got {label!r}")
        if type(ts) is not int:
            raise DatasetError(f"{where}: ts must be an integer, got {ts!r}")
        if cid not in candidates:
            raise DatasetError(f"{where}: pair references missing candidate {cid!r}")
        if jid not in jobs:
            raise DatasetError(f"{where}: pair references missing job {jid!r}")
        pairs.append(Pair(cid, jid, label, ts))

    return Dataset(vocab, candidates, jobs, pairs, dim or 0)


def _iter_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
            if not isinstance(doc, dict):
                raise DatasetError(f"{path}:{lineno}: a line must hold a JSON object")
            yield lineno, doc


def _entity_doc(record: EntityRecord, vocab: CategoryVocab) -> dict:
    doc = {
        "id": record.id,
        "kind": record.kind,
        "text": record.text,
        "category": vocab.name_of(record.category_id),
        "embedding": record.embedding.tolist(),
        "hist_eval": list(record.hist_eval),
        "hist_pass_eval": list(record.hist_pass_eval),
        "hist_pass_interview": list(record.hist_pass_interview),
    }
    if record.augmented:
        doc["augmented"] = True
        doc["text_original"] = record.text_original
    return doc


def save_dataset(dataset: Dataset, entities_path, pairs_path) -> None:
    """Inverse of load_dataset; entities sorted by (kind, id) for stable bytes."""
    records = sorted(
        list(dataset.candidates.values()) + list(dataset.jobs.values()),
        key=lambda r: (r.kind, r.id))
    _atomic_write(entities_path, "".join(
        json.dumps(_entity_doc(r, dataset.vocab), ensure_ascii=False) + "\n" for r in records))
    _atomic_write(pairs_path, "".join(
        json.dumps({"candidate_id": p.candidate_id, "job_id": p.job_id,
                    "label": p.label, "ts": p.ts}) + "\n" for p in dataset.pairs))


def _atomic_write(path, content: str) -> None:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def save_data_dir(dataset: Dataset, meta: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, out / "entities.jsonl", out / "pairs.jsonl")
    meta = dict(meta)
    meta.setdefault("categories", list(dataset.vocab.names))
    _atomic_write(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_data_dir(data_dir) -> tuple[Dataset, dict]:
    """Load a data directory; vocabulary comes from meta.json when present."""
    data_dir = Path(data_dir)
    meta_path = data_dir / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else {}
    vocab = CategoryVocab(meta["categories"]) if "categories" in meta else CategoryVocab()
    dataset = load_dataset(data_dir / "entities.jsonl", data_dir / "pairs.jsonl", vocab)
    return dataset, meta


@dataclass
class DatasetReport:
    n_candidates: int = 0
    n_jobs: int = 0
    n_pairs: int = 0
    n_positive: int = 0
    n_negative: int = 0
    history_length_hist: dict[int, int] = field(default_factory=dict)
    short_jd_share: float = 0.0
    short_jd_threshold: int = 200


def validate_records(dataset: Dataset, short_jd_threshold: int = 200) -> DatasetReport:
    """Composition summary: sizes, label balance, history lengths, short-JD share."""
    hist = Counter()
    for record in list(dataset.candidates.values()) + list(dataset.jobs.values()):
        for stage_ids in (record.history(stage) for stage in STAGES):
            hist[len(stage_ids)] += 1
    n_jobs = len(dataset.jobs)
    short = sum(1 for j in dataset.jobs.values() if len(j.text) < short_jd_threshold)
    n_pos = sum(1 for p in dataset.pairs if p.label == 1)
    return DatasetReport(
        n_candidates=len(dataset.candidates),
        n_jobs=n_jobs,
        n_pairs=len(dataset.pairs),
        n_positive=n_pos,
        n_negative=len(dataset.pairs) - n_pos,
        history_length_hist=dict(sorted(hist.items())),
        short_jd_share=short / n_jobs if n_jobs else 0.0,
        short_jd_threshold=short_jd_threshold,
    )
