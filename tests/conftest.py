import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # local oracles module

from pjfit.config import ModelConfig
from pjfit.domain import CategoryVocab, Dataset, EntityRecord, Pair
from pjfit.numerics import ParamStore, seeded_rng

TOY_VOCAB_NAMES = ("Technology", "Data", "Sales", "Design")


def _write_npy(path, values):
    with open(path, "wb") as fh:
        np.save(fh, values)


def _truncate(path, ids, values):
    np.savez(path, ids=ids, values=values)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# Ways to break a data directory's embeddings.npz, as (damage, message):
# ``damage(path, ids, values)`` writes a broken file at ``path`` in place of
# the good ``ids`` and ``values``; ``message`` is in the error that follows.
BROKEN_EMBEDDINGS = [
    pytest.param(lambda path, ids, values: path.unlink(missing_ok=True), "missing", id="missing"),
    pytest.param(lambda path, ids, values: path.write_text("ids,values\n"),
                 "not a readable npz", id="text-file"),
    pytest.param(lambda path, ids, values: _write_npy(path, values),
                 "not a readable npz", id="npy-not-npz"),
    pytest.param(_truncate, "not a readable npz", id="truncated"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids.astype(object), values=values),
                 "pickled or object array", id="pickled-ids"),
    pytest.param(lambda path, ids, values: np.savez(path, values=values),
                 "exactly the arrays 'ids' and 'values'", id="no-ids"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values, gender=ids),
                 "exactly the arrays 'ids' and 'values'", id="extra-array"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values.astype(np.float32)),
                 "values must be a 2-D float64 array", id="float32-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values.astype(str)),
                 "values must be a 2-D float64 array", id="string-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values > 0),
                 "values must be a 2-D float64 array", id="bool-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values.astype(np.int64)),
                 "values must be a 2-D float64 array", id="int-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids, values=values.ravel()),
                 "values must be a 2-D float64 array", id="1-d-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids,
                                                    values=values.reshape(len(values), -1, 2)),
                 "values must be a 2-D float64 array", id="3-d-values"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=np.arange(len(ids)), values=values),
                 "ids must be a 1-D array of strings", id="int-ids"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids[:-1], values=values[:-1]),
                 "ids and .* rows for .* entity records", id="row-missing"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=np.append(ids, "extra"),
                                                    values=np.vstack([values, values[:1]])),
                 "ids and .* rows for .* entity records", id="row-extra"),
    pytest.param(lambda path, ids, values: np.savez(path, ids=ids[::-1], values=values[::-1]),
                 "row 0 is .*, but entity record 0 is", id="rows-reordered"),
]

# Ways to break meta.json, as (file content, message in the error).
META_DEFECTS = [
    pytest.param("{broken", "not valid JSON", id="invalid-json"),
    pytest.param("[]", "must hold a JSON object", id="list"),
    pytest.param('{"categories": "Data"}', "categories must be a list of strings",
                 id="string-categories"),
    pytest.param('{"categories": [1, 2]}', "categories must be a list of strings",
                 id="int-categories"),
    pytest.param('{"categories": ["Data", "Data"]}', "category names must be unique",
                 id="repeated-category"),
    pytest.param('{"categories": []}', "vocabulary must not be empty", id="no-categories"),
    pytest.param('{"split_ts": 1000420.9}', "split_ts must be an integer", id="float-split"),
    pytest.param('{"split_ts": true}', "split_ts must be an integer", id="bool-split"),
]


def store_of(*params) -> ParamStore:
    """A store of copies of the given (name, value) pairs, in order; a 1-D
    value is one row."""
    values = [np.atleast_2d(np.asarray(value, dtype=np.float64)) for _, value in params]
    store = ParamStore([(name, *value.shape) for (name, _), value in zip(params, values)])
    for (name, _), value in zip(params, values):
        store[name].value[...] = value
    return store


def toy_model_config(**overrides) -> ModelConfig:
    """Tiny dims used by gradient checks: d_model=8, h=2, seq=4, 3 experts."""
    base = dict(
        d_model=8, heads=2, seq_len=4, fusion_hidden=16, fusion_out=8,
        n_categories=len(TOY_VOCAB_NAMES), category_dim=3, gate_hidden=6,
        n_experts=3, expert_hidden=(10, 6),
    )
    base.update(overrides)
    return ModelConfig(**base)


class DatasetBuilder:
    """Hand-build small datasets for tests."""

    def __init__(self, vocab_names=TOY_VOCAB_NAMES, dim=8, seed=0):
        self.vocab = CategoryVocab(vocab_names)
        self.dim = dim
        self.rng = seeded_rng(seed)
        self.candidates: dict[str, EntityRecord] = {}
        self.jobs: dict[str, EntityRecord] = {}
        self.pairs: list[Pair] = []

    def entity(self, entity_id, kind, category="Technology", text=None,
               hist_eval=(), hist_pass_eval=(), hist_pass_interview=(),
               embedding=None, **extra):
        record = EntityRecord(
            id=entity_id, kind=kind,
            text=text if text is not None else f"{category} {kind} {entity_id} profile text",
            category_id=self.vocab.id_of(category),
            embedding=np.asarray(embedding) if embedding is not None else self.rng.normal(size=self.dim),
            hist_eval=tuple(hist_eval),
            hist_pass_eval=tuple(hist_pass_eval),
            hist_pass_interview=tuple(hist_pass_interview),
            **extra,
        )
        (self.candidates if kind == "candidate" else self.jobs)[entity_id] = record
        return record

    def pair(self, candidate_id, job_id, label, ts=0):
        self.pairs.append(Pair(candidate_id, job_id, label, ts))

    def build(self) -> Dataset:
        return Dataset(self.vocab, dict(self.candidates), dict(self.jobs),
                       list(self.pairs), self.dim)


@pytest.fixture
def builder():
    return DatasetBuilder()


@pytest.fixture
def small_dataset():
    """4 candidates, 2 jobs, histories and a few labeled pairs."""
    b = DatasetBuilder()
    for i in range(1, 4):
        b.entity(f"c{i}", "candidate", category=("Technology", "Data")[i % 2])
    # c0 carries real job-side history
    b.entity("c0", "candidate", category="Technology",
             hist_eval=("j0", "j1"), hist_pass_eval=("j0",), hist_pass_interview=("j0",))
    for j in range(2):
        b.entity(f"j{j}", "job", category=("Technology", "Data")[j % 2],
                 hist_eval=("c0", "c1"), hist_pass_eval=("c0",),
                 hist_pass_interview=("c0",) if j == 0 else ())
    b.pair("c0", "j0", 1, ts=100)
    b.pair("c1", "j0", 0, ts=110)
    b.pair("c2", "j1", 1, ts=120)
    b.pair("c3", "j1", 0, ts=200)
    return b.build()
