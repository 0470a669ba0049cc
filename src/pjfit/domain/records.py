"""Entity records, labeled pairs, and the data directory that holds them.

``load_data_dir`` reads a data directory and ``save_data_dir`` writes
one; they are the only code that knows the file layout. A directory
holds four files:

* ``entities.jsonl`` (UTF-8, one JSON object per line):
  ``{"id", "kind", "text", "category", "hist_eval", "hist_pass_eval",
  "hist_pass_interview"}`` plus the optional augmentation markers
  ``"augmented"`` and ``"text_original"``. Any other field is rejected:
  the schema is the fairness boundary, so sensitive or proxy attributes
  (gender, age, school, graduation year, location) are structurally
  unrepresentable. ``id``, ``kind``, ``text`` and ``category`` are
  strings, each history a list of id strings, ``augmented`` true or
  false and ``text_original`` a string or null. The three history
  fields are the recruitment stages of ``config.STAGES`` in order
  (evaluated, passed resume evaluation, passed interview); a record
  keeps them as ``EntityRecord.histories`` in that order, and
  ``_HISTORY_FIELDS`` is the only code that names them. A line that
  still carries an inline ``embedding`` is refused: embeddings live in
  ``embeddings.npz``.
* ``embeddings.npz``: a numpy archive of exactly two arrays, ``ids`` (one
  string per entity record) and ``values`` (an (n, d) float64 matrix).
  Row i belongs to the i-th record of ``entities.jsonl``, and ``ids[i]``
  must equal that record's id, so a reordered or stale file is caught
  rather than silently pairing text with another entity's vector. The
  array is binary because the embeddings are nearly all of a data
  directory's bytes: at d=1024 decoding them as JSON decimals took most
  of a load, while the array reads back the same float64 bits in one
  copy. Pickled arrays are never loaded. Every record's ``embedding`` is
  a row view of the one matrix, which is read-only, since the serving
  index keeps per-entity outputs and an edited row would be served
  stale.
* ``pairs.jsonl``: ``{"candidate_id", "job_id", "label", "ts"}`` with
  string ids, label the integer 0 or 1 and ts in integer seconds (a bool
  or a float such as 1.0 is not an integer here).
* ``meta.json`` (optional): a JSON object carrying the category list
  ``categories`` (a list of unique strings), the temporal split point
  ``split_ts`` (an integer) and generator bookkeeping.

Every JSON input of the program (these files, a ``--config`` file and a
checkpoint's embedded config) is read through ``decode_json``: input
that does not decode (bytes that are not UTF-8, malformed JSON, nesting
too deep for the parser, an integer too long to convert) raises
``DatasetError`` naming the file, and the line in a ``.jsonl`` file. A
``.jsonl`` line ends at a newline byte and is decoded on its own, so the
line number is exact; a line of ASCII whitespace is skipped.
"""

from __future__ import annotations

import json
import os
import zipfile
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pjfit.config import STAGES
from pjfit.domain.vocab import CategoryVocab


class DatasetError(ValueError):
    """Malformed or inconsistent dataset content."""


EMBEDDINGS_FILE = "embeddings.npz"

# the entities-file field of each stage's history, in STAGES order
_HISTORY_FIELDS = ("hist_eval", "hist_pass_eval", "hist_pass_interview")
_REQUIRED_ENTITY_FIELDS = {"id", "kind", "text", "category", *_HISTORY_FIELDS}
_OPTIONAL_ENTITY_FIELDS = {"augmented", "text_original"}
_PAIR_FIELDS = {"candidate_id", "job_id", "label", "ts"}


@dataclass(frozen=True, eq=False)
class EntityRecord:
    """A candidate or a job with its staged interaction history.

    ``histories`` holds one tuple of ids per stage, in ``STAGES`` order;
    each names entities of the opposite kind in chronological order
    (oldest first). Only professional content is representable here.
    """

    id: str
    kind: str  # "candidate" | "job"
    text: str
    category_id: int
    embedding: np.ndarray
    histories: tuple[tuple[str, ...], ...]
    augmented: bool = False
    text_original: str | None = None

    def history(self, stage: str) -> tuple[str, ...]:
        return self.histories[STAGES.index(stage)]


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


def _parse_entity(doc: dict, vocab: CategoryVocab, where: str) -> dict:
    """The EntityRecord fields of one entities line, all but the embedding."""
    if "embedding" in doc:
        raise DatasetError(f"{where}: inline embeddings are no longer read (embedding of "
                           f"{doc.get('id')!r}); embeddings now live in {EMBEDDINGS_FILE} "
                           f"(regenerate the directory with pjfit synth)")
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
    histories = []
    for field_name in _HISTORY_FIELDS:
        ids = doc[field_name]
        if not isinstance(ids, list) or not all(isinstance(x, str) for x in ids):
            raise DatasetError(f"{where}: {field_name} of {doc['id']!r} must be a list of id strings")
        histories.append(tuple(ids))
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
    return dict(id=doc["id"], kind=doc["kind"], text=doc["text"],
                category_id=vocab.id_of(doc["category"]),
                histories=tuple(histories), augmented=augmented, text_original=text_original)


def _load_embeddings(path, ids: list[str]) -> np.ndarray:
    """The read-only (len(ids), d) float64 matrix of an embeddings file
    whose ``ids`` equal ``ids`` row for row."""
    try:
        # numpy does not close a path it opened when the archive is broken
        with open(path, "rb") as fh:
            npz = np.load(fh, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):
                raise DatasetError(f"{path}: not a readable npz archive (a bare .npy array)")
            with npz:
                if set(npz.files) != {"ids", "values"}:
                    raise DatasetError(f"{path}: must hold exactly the arrays 'ids' and 'values', "
                                       f"holds {sorted(npz.files)}")
                file_ids, values = npz["ids"], npz["values"]
    except FileNotFoundError:
        raise DatasetError(f"{path}: missing; a data directory keeps its embeddings "
                           f"in {EMBEDDINGS_FILE}") from None
    except (OSError, EOFError, zipfile.BadZipFile) as exc:
        raise DatasetError(f"{path}: not a readable npz archive ({exc})") from None
    except ValueError as exc:
        # numpy refuses pickled and object arrays when allow_pickle is off
        raise DatasetError(f"{path}: holds a pickled or object array, or is not "
                           f"a readable npz archive ({exc})") from None
    if values.ndim != 2 or values.dtype != np.float64:
        raise DatasetError(f"{path}: values must be a 2-D float64 array, "
                           f"got {values.ndim}-D {values.dtype}")
    if file_ids.ndim != 1 or file_ids.dtype.kind != "U":
        raise DatasetError(f"{path}: ids must be a 1-D array of strings, "
                           f"got {file_ids.ndim}-D {file_ids.dtype}")
    if not len(file_ids) == len(values) == len(ids):
        raise DatasetError(f"{path}: {len(file_ids)} ids and {len(values)} rows "
                           f"for {len(ids)} entity records")
    for row, (got, want) in enumerate(zip(file_ids.tolist(), ids)):
        if got != want:
            raise DatasetError(f"{path}: row {row} is {got!r}, but entity record {row} is {want!r}")
    values.flags.writeable = False
    return values


def decode_json(data: bytes, where) -> object:
    """The JSON document in the UTF-8 bytes ``data``, read from ``where``
    (a file, or file:line). Bytes that are not UTF-8, malformed JSON,
    arrays or objects nested too deep for the parser, and integers too
    long to convert raise DatasetError naming ``where``."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DatasetError(f"{where}: not valid JSON ({exc})") from None


def _iter_jsonl(path):
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            doc = decode_json(line, f"{path}:{lineno}")
            if not isinstance(doc, dict):
                raise DatasetError(f"{path}:{lineno}: a line must hold a JSON object")
            yield lineno, doc


def _entity_doc(record: EntityRecord, vocab: CategoryVocab) -> dict:
    doc = {
        "id": record.id,
        "kind": record.kind,
        "text": record.text,
        "category": vocab.name_of(record.category_id),
        **{name: list(ids) for name, ids in zip(_HISTORY_FIELDS, record.histories)},
    }
    if record.augmented:
        doc["augmented"] = True
        doc["text_original"] = record.text_original
    return doc


def save_data_dir(dataset: Dataset, meta: dict, out_dir) -> None:
    """Inverse of load_data_dir; entities sorted by (kind, id) for stable
    bytes, and meta.json carrying the category list unless ``meta`` does.
    No file is replaced until all four are written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = sorted(
        list(dataset.candidates.values()) + list(dataset.jobs.values()),
        key=lambda r: (r.kind, r.id))
    values = (np.stack([r.embedding for r in records]) if records
              else np.zeros((0, dataset.embedding_dim)))
    meta = dict(meta)
    meta.setdefault("categories", list(dataset.vocab.names))
    names = ("entities.jsonl", EMBEDDINGS_FILE, "pairs.jsonl", "meta.json")
    with atomic_files(*(out / name for name in names)) as (entities, embeddings, pairs, meta_fh):
        entities.write("".join(json.dumps(_entity_doc(r, dataset.vocab), ensure_ascii=False) + "\n"
                               for r in records).encode("utf-8"))
        np.savez(embeddings, ids=np.array([r.id for r in records], dtype=str), values=values)
        pairs.write("".join(json.dumps({"candidate_id": p.candidate_id, "job_id": p.job_id,
                                        "label": p.label, "ts": p.ts}) + "\n"
                            for p in dataset.pairs).encode("utf-8"))
        meta_fh.write((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"))


@contextmanager
def atomic_files(*paths):
    """Binary file handles, one on ``<path>.tmp`` per path, whose contents
    replace the paths only once the block completes. If the block raises,
    every tmp file is deleted and every path keeps its old bytes.

    What it does not guarantee:

    - Durability across a crash. Nothing calls ``fsync`` on a tmp file or
      on the directory, so a file survives a power loss only because ext4
      (with its default ``auto_da_alloc``) writes a file's data back
      before a rename over an existing file commits. That writeback is not
      what ``os.replace`` spends 0.1-0.2 s on when it replaces a d=1024
      checkpoint saved moments before: an ``fdatasync`` of the old file
      just before the save returns at once, and with the old file linked
      aside first the replace takes 0.01-0.07 s and unlinking the aside
      link 0.08-0.17 s. The time goes to releasing the replaced file.
    - A consistent set. The paths are replaced one ``os.replace`` at a
      time, so a failure between two of them leaves the earlier paths new
      and the later ones old.
    """
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(p.name + ".tmp") for p in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _load_meta(path: Path) -> tuple[dict, CategoryVocab]:
    """meta.json's document and vocabulary, checked where they are read:
    an object whose ``categories`` are unique strings and whose
    ``split_ts`` is an integer. Without the file, the default vocabulary."""
    if not path.exists():
        return {}, CategoryVocab()
    meta = decode_json(path.read_bytes(), path)
    if not isinstance(meta, dict):
        raise DatasetError(f"{path}: must hold a JSON object, not {type(meta).__name__}")
    # a bool is not an int here, nor is a float such as 1000420.9
    if "split_ts" in meta and type(meta["split_ts"]) is not int:
        raise DatasetError(f"{path}: split_ts must be an integer, got {meta['split_ts']!r}")
    if "categories" not in meta:
        return meta, CategoryVocab()
    names = meta["categories"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise DatasetError(f"{path}: categories must be a list of strings, got {names!r}")
    try:
        return meta, CategoryVocab(names)
    except ValueError as exc:  # repeated or no names
        raise DatasetError(f"{path}: {exc}") from None


def load_data_dir(data_dir) -> tuple[Dataset, dict]:
    """Parse and validate a data directory: its dataset, and meta.json's
    document (empty without the file). The vocabulary comes from
    meta.json when present, the embedding width from the embeddings
    file. Errors carry the offending file, and the line number where
    there is one.
    """
    data_dir = Path(data_dir)
    meta, vocab = _load_meta(data_dir / "meta.json")
    entities_path, pairs_path = data_dir / "entities.jsonl", data_dir / "pairs.jsonl"
    fields: list[dict] = []
    linenos: list[int] = []
    seen: set[tuple[str, str]] = set()
    for lineno, doc in _iter_jsonl(entities_path):
        entity = _parse_entity(doc, vocab, f"{entities_path}:{lineno}")
        key = (entity["kind"], entity["id"])
        if key in seen:
            raise DatasetError(f"{entities_path}:{lineno}: duplicate {key[0]} id {key[1]!r}")
        seen.add(key)
        fields.append(entity)
        linenos.append(lineno)

    values = _load_embeddings(data_dir / EMBEDDINGS_FILE, [f["id"] for f in fields])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DatasetError(f"{entities_path}:{linenos[row]}: embedding of {fields[row]['id']!r} "
                           f"holds a non-finite value")
    records = [EntityRecord(embedding=embedding, **entity) for entity, embedding in zip(fields, values)]
    candidates = {r.id: r for r in records if r.kind == "candidate"}
    jobs = {r.id: r for r in records if r.kind == "job"}

    # histories must reference existing entities of the opposite kind
    for record, lineno in zip(records, linenos):
        counterpart = jobs if record.kind == "candidate" else candidates
        for stage_ids in record.histories:
            for ref in stage_ids:
                if ref not in counterpart:
                    raise DatasetError(
                        f"{entities_path}:{lineno}: {record.kind} {record.id!r}: history "
                        f"references missing counterpart id {ref!r}")

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

    return Dataset(vocab, candidates, jobs, pairs, values.shape[1]), meta


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
        for stage_ids in record.histories:
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
