import gc
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjfit.augment import MockCompletionClient, augment_batch, default_library
from pjfit.config import STAGES
from pjfit.domain import (
    DEFAULT_CATEGORIES,
    CategoryVocab,
    Dataset,
    DatasetError,
    SequenceCache,
    first_seen,
    load_data_dir,
    sample_training_pairs,
    validate_records,
)
from pjfit.domain.records import save_data_dir
from pjfit.numerics import seeded_rng
from pjfit.synth import SynthConfig, generate_dataset

from conftest import BROKEN_EMBEDDINGS, META_DEFECTS, TOY_VOCAB_NAMES, DatasetBuilder, toy_model_config
from reference_model import pad_sequence


def entity_doc(entity_id, kind, **overrides):
    doc = {
        "id": entity_id,
        "kind": kind,
        "text": f"text of {entity_id}",
        "category": "Technology",
        "hist_eval": [],
        "hist_pass_eval": [],
        "hist_pass_interview": [],
    }
    doc.update(overrides)
    return doc


def write_jsonl(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
    return path


@pytest.fixture
def paths(tmp_path):
    return tmp_path / "entities.jsonl", tmp_path / "pairs.jsonl", tmp_path / "embeddings.npz"


def load(paths):
    """The dataset of the data directory that holds ``paths``."""
    return load_data_dir(paths[0].parent)[0]


def write_entities(paths, docs, values=None, dim=4):
    """The entities file and its embeddings file: one row per object line,
    0.1 everywhere unless ``values`` is given."""
    ids = [str(d["id"]) for d in docs if isinstance(d, dict)]
    write_jsonl(paths[0], docs)
    if values is None:
        values = np.full((len(ids), dim), 0.1)
    np.savez(paths[2], ids=np.array(ids, dtype=str), values=values)


def test_load_two_candidates_one_job(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [
        entity_doc("c1", "candidate"),
        entity_doc("c2", "candidate"),
        entity_doc("j1", "job"),
    ])
    write_jsonl(pairs, [{"candidate_id": "c1", "job_id": "j1", "label": 1, "ts": 5}])
    ds = load(paths)
    assert len(ds.candidates) == 2
    assert len(ds.jobs) == 1
    assert ds.embedding_dim == 4
    assert ds.pairs[0].label == 1


def test_loaded_embeddings_are_read_only_rows_of_one_matrix(paths):
    write_entities(paths, [entity_doc("c1", "candidate"), entity_doc("j1", "job")],
                   values=np.arange(8.0).reshape(2, 4))
    write_jsonl(paths[1], [])
    ds = load(paths)
    c1, j1 = ds.candidates["c1"].embedding, ds.jobs["j1"].embedding
    np.testing.assert_array_equal(j1, [4.0, 5.0, 6.0, 7.0])
    assert c1.base is j1.base is not None
    # the serving index keeps per-entity outputs by id, so a row must not change
    with pytest.raises(ValueError, match="read-only"):
        c1[0] = 1.0


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_embedding_names_line_and_id(paths, value):
    entities, pairs, embeddings = paths
    values = np.full((2, 4), 0.1)
    values[1, 2] = value
    write_entities(paths, [entity_doc("c1", "candidate"), entity_doc("c2", "candidate")], values)
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r"entities.jsonl:2: embedding of 'c2' holds a non-finite"):
        load(paths)


def test_inline_embedding_is_refused_and_names_the_new_file(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate"),
                           entity_doc("c2", "candidate", embedding=[0.1] * 4)])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r"entities.jsonl:2: inline embeddings .* "
                                           r"now live in embeddings.npz"):
        load(paths)


@pytest.mark.parametrize("damage, message", BROKEN_EMBEDDINGS)
def test_broken_embeddings_file_is_a_data_error(paths, damage, message):
    entities, pairs, embeddings = paths
    docs = [entity_doc("c1", "candidate"), entity_doc("c2", "candidate"), entity_doc("j1", "job")]
    write_entities(paths, docs)
    damage(embeddings, np.array(["c1", "c2", "j1"]), np.full((3, 4), 0.1))
    write_jsonl(pairs, [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(DatasetError, match=rf"embeddings.npz: .*{message}"):
            load(paths)
        gc.collect()  # an unclosed file warns when it is collected
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"text": 5}, "text of 'c2' must be a string", id="int-text"),
    pytest.param({"category": ["Data"]}, "category of 'c2' must be a string", id="list-category"),
    pytest.param({"kind": None}, "kind of 'c2' must be a string", id="null-kind"),
    pytest.param({"id": 7}, "id must be a string, got 7", id="int-id"),
    pytest.param({"embedding": "0.1 0.1"}, r"inline embeddings .*embedding of 'c2'.* embeddings.npz",
                 id="string-embedding"),
    pytest.param({"embedding": ["0.1"] * 4}, r"inline embeddings .*embedding of 'c2'.* embeddings.npz",
                 id="string-entries"),
    pytest.param({"augmented": "yes", "text_original": "x"}, "augmented of 'c2' must be true or false",
                 id="string-augmented"),
    pytest.param({"augmented": True, "text_original": 3}, "text_original of 'c2' must be a string or null",
                 id="int-text-original"),
])
def test_entity_field_of_the_wrong_type_names_line_and_id(paths, overrides, message):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate"), {**entity_doc("c2", "candidate"), **overrides}])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=rf"entities.jsonl:2: {message}"):
        load(paths)


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"ts": 1.7}, "ts must be an integer, got 1.7", id="float-ts"),
    pytest.param({"ts": "abc"}, "ts must be an integer, got 'abc'", id="string-ts"),
    pytest.param({"ts": True}, "ts must be an integer, got True", id="bool-ts"),
    pytest.param({"label": True}, "label must be the integer 0 or 1, got True", id="bool-label"),
    pytest.param({"label": 1.0}, "label must be the integer 0 or 1, got 1.0", id="float-label"),
    pytest.param({"label": 2}, "label must be the integer 0 or 1, got 2", id="label-two"),
    pytest.param({"job_id": ["j1"]}, r"candidate_id and job_id must be strings, got 'c1' and \['j1'\]",
                 id="list-job-id"),
])
def test_pair_field_of_the_wrong_type_names_the_line(paths, overrides, message):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate"), entity_doc("j1", "job")])
    good = {"candidate_id": "c1", "job_id": "j1", "label": 1, "ts": 5}
    write_jsonl(pairs, [good, {**good, **overrides}])
    with pytest.raises(DatasetError, match=rf"pairs.jsonl:2: {message}"):
        load(paths)


def test_line_that_is_not_an_object_names_the_line(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate"), ["c2", "candidate"]])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r"entities.jsonl:2: a line must hold a JSON object"):
        load(paths)


def test_pair_referencing_missing_job(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate")])
    write_jsonl(pairs, [{"candidate_id": "c1", "job_id": "ghost", "label": 0, "ts": 1}])
    with pytest.raises(DatasetError, match="missing job 'ghost'"):
        load(paths)


def test_dangling_history_id(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate", hist_eval=["nosuchjob"])])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r"entities.jsonl:1: candidate 'c1': history references "
                                           r"missing counterpart id 'nosuchjob'"):
        load(paths)


def test_unknown_category_reports_line_number(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [
        entity_doc("c1", "candidate"),
        entity_doc("c2", "candidate", category="Wizardry"),
    ])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r":2: unknown category 'Wizardry'"):
        load(paths)


def test_malformed_line_reports_line_number(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate")])
    entities.write_text(json.dumps(entity_doc("c1", "candidate")) + "\n{broken\n", encoding="utf-8")
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match=r":2: not valid JSON"):
        load(paths)


def test_duplicate_id_rejected(paths):
    entities, pairs, embeddings = paths
    write_entities(paths, [entity_doc("c1", "candidate"), entity_doc("c1", "candidate")])
    write_jsonl(pairs, [])
    with pytest.raises(DatasetError, match="duplicate candidate id 'c1'"):
        load(paths)


def test_sensitive_fields_are_structurally_rejected(paths):
    entities, pairs, embeddings = paths
    for bad_field in ("gender", "age", "school", "graduation_year", "location"):
        write_entities(paths, [entity_doc("c1", "candidate", **{bad_field: "x"})])
        write_jsonl(pairs, [])
        with pytest.raises(DatasetError, match=f"unknown fields.*{bad_field}"):
            load(paths)


def test_round_trip_is_identity(tmp_path, small_dataset):
    save_data_dir(small_dataset, {}, tmp_path / "first")
    loaded, meta = load_data_dir(tmp_path / "first")
    assert meta == {"categories": list(small_dataset.vocab.names)}
    assert set(loaded.candidates) == set(small_dataset.candidates)
    assert set(loaded.jobs) == set(small_dataset.jobs)
    assert loaded.pairs == small_dataset.pairs
    for cid, rec in small_dataset.candidates.items():
        got = loaded.candidates[cid]
        assert got.text == rec.text
        assert got.category_id == rec.category_id
        for stage in STAGES:
            assert got.history(stage) == rec.history(stage)
        assert got.embedding.dtype == np.float64
        assert got.embedding.tobytes() == rec.embedding.tobytes()
    # a second save of the loaded dataset is byte-identical
    save_data_dir(loaded, meta, tmp_path / "second")
    for name in ("entities.jsonl", "pairs.jsonl", "embeddings.npz", "meta.json"):
        assert (tmp_path / "second" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


def test_failed_write_keeps_the_old_file_and_leaves_no_tmp(tmp_path, small_dataset, full_disk):
    # entities.jsonl takes its one write, then embeddings.npz fails mid-stream:
    # no file of the directory may be replaced
    out = tmp_path / "data"
    out.mkdir()
    names = ("entities.jsonl", "embeddings.npz", "pairs.jsonl", "meta.json")
    for name in names:
        (out / name).write_bytes(f"old {name}".encode())
    with pytest.raises(OSError, match="No space left"):
        save_data_dir(small_dataset, {}, out)
    for name in names:
        assert (out / name).read_bytes() == f"old {name}".encode(), name
    assert not list(out.glob("*.tmp"))


def test_each_history_field_is_its_own_stage(paths, tmp_path):
    fields = {"hist_eval": ["j1"], "hist_pass_eval": ["j2"], "hist_pass_interview": ["j3"]}
    write_entities(paths, [entity_doc("c1", "candidate", **fields)]
                   + [entity_doc(f"j{i}", "job") for i in (1, 2, 3)])
    write_jsonl(paths[1], [])
    ds = load(paths)
    record = ds.candidates["c1"]
    assert [record.history(stage) for stage in STAGES] == [("j1",), ("j2",), ("j3",)]
    save_data_dir(ds, {}, tmp_path / "saved")
    saved = json.loads((tmp_path / "saved" / "entities.jsonl").read_text(encoding="utf-8").splitlines()[0])
    assert saved["id"] == "c1" and {name: saved[name] for name in fields} == fields


def _meta_dir(tmp_path, small_dataset, meta_text):
    save_data_dir(small_dataset, {}, tmp_path / "data")
    (tmp_path / "data" / "meta.json").write_text(meta_text, encoding="utf-8")
    return tmp_path / "data"


@pytest.mark.parametrize("meta_text, message", META_DEFECTS)
def test_malformed_meta_is_a_data_error_naming_the_file(tmp_path, small_dataset, meta_text, message):
    with pytest.raises(DatasetError, match=rf"meta.json: {message}"):
        load_data_dir(_meta_dir(tmp_path, small_dataset, meta_text))


def test_meta_is_optional_and_passes_integer_split_through(tmp_path, small_dataset):
    data = _meta_dir(tmp_path, small_dataset,
                     json.dumps({"categories": list(TOY_VOCAB_NAMES), "split_ts": 150}))
    ds, meta = load_data_dir(data)
    assert meta["split_ts"] == 150 and ds.vocab.names == TOY_VOCAB_NAMES
    (data / "meta.json").unlink()
    ds, meta = load_data_dir(data)
    assert meta == {} and ds.vocab.names == DEFAULT_CATEGORIES


# ------------------------------------------------------------ pad_sequence


def test_pad_empty_history(small_dataset):
    matrix, valid = pad_sequence([], small_dataset, max_len=20)
    assert matrix.shape == (20, small_dataset.embedding_dim)
    assert not valid.any()
    assert not matrix.any()


def test_pad_three_ids_fills_three_rows_most_recent_first(small_dataset):
    ids = ["c0", "c1", "c2"]  # chronological: c2 most recent
    matrix, valid = pad_sequence(ids, small_dataset, max_len=20, kind="candidate")
    assert valid[:3].all() and not valid[3:].any()
    np.testing.assert_array_equal(matrix[0], small_dataset.candidates["c2"].embedding)
    np.testing.assert_array_equal(matrix[2], small_dataset.candidates["c0"].embedding)
    assert not matrix[3:].any()


def test_pad_truncates_to_most_recent_twenty(builder):
    for i in range(25):
        builder.entity(f"j{i:02d}", "job")
    ds = builder.build()
    ids = [f"j{i:02d}" for i in range(25)]
    matrix, valid = pad_sequence(ids, ds, max_len=20)
    assert valid.all()
    # index-slicing oracle: last 20 chronologically, reversed into the block
    expected_order = ids[-20:][::-1]
    for row, jid in enumerate(expected_order):
        np.testing.assert_array_equal(matrix[row], ds.jobs[jid].embedding)


def test_pad_unknown_id_is_dangling_reference(small_dataset):
    with pytest.raises(DatasetError, match="unknown job id 'ghost'"):
        pad_sequence(["ghost"], small_dataset, max_len=4)


@settings(max_examples=40, deadline=None)
@given(n_ids=st.integers(0, 30))
def test_pad_mask_has_exactly_min_len_positions(n_ids):
    b = DatasetBuilder()
    for i in range(30):
        b.entity(f"j{i}", "job")
    ds = b.build()
    _, valid = pad_sequence([f"j{i}" for i in range(n_ids)], ds, max_len=20)
    assert valid.sum() == min(n_ids, 20)


# ------------------------------------------------------------ sequence cache


def _first_seen_by_sorting(values):
    """first_seen's oracle: np.unique's distinct values, reordered by their
    first index."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.integers(0, 40), max_size=120), table=st.integers(0, 2000))
def test_first_seen_equals_the_sorting_oracle(ids, table):
    # empty inputs included; ``table`` raises the largest id, as rows of a
    # large kind do
    values = np.array(ids + ([table] if table % 2 else []), dtype=np.intp)
    got, want = first_seen(values), _first_seen_by_sorting(values)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()
    distinct, inverse = got
    assert distinct[inverse].tolist() == values.tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pack_names_each_history_entity_once_in_first_seen_order(data):
    # histories with empty stages, a job named twice and more entries than
    # seq_len; entity rows repeated, or none at all
    n_jobs, n_candidates = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    history = st.lists(st.integers(0, n_jobs - 1), max_size=8)
    b = DatasetBuilder()
    for j in range(n_jobs):
        b.entity(f"j{j}", "job")
    for c in range(n_candidates):
        b.entity(f"c{c}", "candidate", **{field: tuple(f"j{i}" for i in data.draw(history))
                                          for field in ("hist_eval", "hist_pass_eval",
                                                        "hist_pass_interview")})
    ds = b.build()
    cfg = toy_model_config(seq_len=data.draw(st.integers(1, 5)))
    cache = SequenceCache(ds, cfg)
    assert cache.row["candidate"] == {f"c{c}": c for c in range(n_candidates)}
    rows = np.array(data.draw(st.lists(st.integers(0, n_candidates - 1), max_size=8)), dtype=np.intp)
    for stage, (named, row_map, ranges) in zip(cfg.stages, cache.pack("candidate", rows)):
        assert ranges.shape == (len(rows), 2)
        packed = []
        for row, (lo, hi) in zip(rows, ranges):
            recent = ds.candidates[f"c{row}"].history(stage)[::-1][:cfg.seq_len]
            assert named[row_map[lo:hi]].tolist() == [cache.row["job"][i] for i in recent]
            packed += named[row_map[lo:hi]].tolist()
        assert row_map.size == len(packed)
        assert named.tolist() == list(dict.fromkeys(packed))


def test_dangling_history_id_fails_when_the_cache_is_built(builder):
    # a hand-built dataset skips load_data_dir's reference check
    builder.entity("j0", "job")
    builder.entity("c0", "candidate", hist_pass_eval=("j0", "j9"))
    with pytest.raises(DatasetError, match="candidate 'c0'.*job id 'j9'"):
        SequenceCache(builder.build(), toy_model_config())


# ------------------------------------------------------------ sampling


def test_sampling_all_candidates_matched_skips_with_count(builder):
    builder.entity("c1", "candidate")
    builder.entity("c2", "candidate")
    builder.entity("j1", "job")
    builder.pair("c1", "j1", 1)
    builder.pair("c2", "j1", 1)
    epoch = sample_training_pairs(builder.build(), seeded_rng(0))
    assert epoch.batches == []
    assert epoch.skipped_positives == 2


def test_sampling_is_deterministic_under_seed(small_dataset):
    a = sample_training_pairs(small_dataset, seeded_rng(7))
    b = sample_training_pairs(small_dataset, seeded_rng(7))
    assert [batch.entries for batch in a.batches] == [batch.entries for batch in b.batches]


def test_sampling_negatives_verified_unmatched_by_exhaustive_check():
    b = DatasetBuilder()
    for i in range(100):
        b.entity(f"c{i:03d}", "candidate")
    b.entity("j1", "job")
    for i in range(10):
        b.pair(f"c{i:03d}", "j1", 1, ts=i)
    ds = b.build()
    epoch = sample_training_pairs(ds, seeded_rng(3), batch_size=4)
    entries = [e for batch in epoch.batches for e in batch.entries]
    assert len(entries) == 10
    positives = {(p.candidate_id, p.job_id) for p in ds.pairs if p.label == 1}
    for pos, neg in entries:
        assert pos.label == 1 and neg.label == 0
        assert neg.job_id == pos.job_id
        assert (neg.candidate_id, neg.job_id) not in positives  # brute-force membership
    assert epoch.skipped_positives == 0


def test_sampling_ratio_above_one(small_dataset):
    epoch = sample_training_pairs(small_dataset, seeded_rng(1), per_positive_negatives=3)
    entries = [e for batch in epoch.batches for e in batch.entries]
    assert len(entries) == 2 * 3


# ------------------------------------------------------------ reports


def test_validate_records_empty_dataset():
    ds = Dataset(CategoryVocab(), {}, {}, [], 0)
    report = validate_records(ds)
    assert report.n_candidates == report.n_jobs == report.n_pairs == 0
    assert report.short_jd_share == 0.0
    assert report.history_length_hist == {0: 0} or report.history_length_hist == {}


def test_validate_records_short_jd_share(builder):
    builder.entity("j1", "job", text="x" * 150)
    report = validate_records(builder.build(), short_jd_threshold=200)
    assert report.short_jd_share == 1.0


def test_validate_records_counts(small_dataset):
    report = validate_records(small_dataset)
    assert report.n_candidates == 4
    assert report.n_jobs == 2
    assert report.n_pairs == 4
    assert report.n_positive == 2
    assert report.n_negative == 2
    assert sum(report.history_length_hist.values()) == 6 * 2 + 6  # 6 lists per entity


def test_split_temporal_is_strict(small_dataset):
    train, test = small_dataset.split_temporal(split_ts=150)
    assert max(p.ts for p in train.pairs) < min(p.ts for p in test.pairs)
    assert len(train.pairs) + len(test.pairs) == len(small_dataset.pairs)


def test_cache_embeddings_of_a_loaded_and_augmented_dataset_are_views(tmp_path):
    ds, meta = generate_dataset(SynthConfig(n_candidates=24, n_jobs=8, embedding_dim=8,
                                            categories=TOY_VOCAB_NAMES, seed=3))
    save_data_dir(ds, meta, tmp_path)
    loaded, _ = load_data_dir(tmp_path)
    augmented, log = augment_batch(loaded, MockCompletionClient(seed=0),
                                   default_library(loaded.vocab.names), threshold=10_000)
    assert any(r.accepted for r in log)  # some records are new objects
    matrix = next(iter(loaded.jobs.values())).embedding.base
    cache = SequenceCache(augmented, toy_model_config())
    for kind, table in (("candidate", augmented.candidates), ("job", augmented.jobs)):
        stacked = np.stack([r.embedding for r in table.values()])
        assert np.shares_memory(cache.embedding[kind], matrix)
        assert cache.embedding[kind].tobytes() == stacked.tobytes()
        assert not cache.embedding[kind].flags.writeable


def test_cache_stacks_embeddings_that_are_not_consecutive_rows(paths):
    b = DatasetBuilder()
    for entity_id, kind in (("c0", "candidate"), ("c1", "candidate"), ("j0", "job")):
        b.entity(entity_id, kind)
    built = b.build()
    # rows of one matrix, but the candidates are rows 0 and 2
    write_entities(paths, [entity_doc("c0", "candidate"), entity_doc("j0", "job"),
                           entity_doc("c1", "candidate")], values=np.arange(12.0).reshape(3, 4))
    write_jsonl(paths[1], [])
    loaded = load(paths)
    for ds in (built, loaded):
        cache = SequenceCache(ds, toy_model_config(d_model=ds.embedding_dim))
        embedding = cache.embedding["candidate"]
        records = list(ds.candidates.values())
        assert not any(np.shares_memory(embedding, r.embedding) for r in records)
        assert embedding.tobytes() == np.stack([r.embedding for r in records]).tobytes()
