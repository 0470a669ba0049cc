import numpy as np
import pytest

from pjfit.config import STAGES
from pjfit.domain import load_data_dir, validate_records
from pjfit.domain.records import save_data_dir
from pjfit.synth import SynthConfig, generate_dataset

SMALL = SynthConfig(
    n_candidates=60, n_jobs=16,
    categories=("Technology", "Data", "Sales", "Design"),
    confusable_pairs=(("Data", "Technology"),),
    embedding_dim=16, positives_per_job=3.0, seed=0,
)


@pytest.fixture(scope="module")
def generated():
    return generate_dataset(SMALL)


def test_zero_noise_collapses_to_prototypes():
    ds, _ = generate_dataset(SMALL.__class__(**{**SMALL.__dict__, "prototype_noise": 0.0}))
    tech = [c.embedding for c in ds.candidates.values()
            if ds.vocab.name_of(c.category_id) == "Technology"]
    for e in tech[1:]:
        np.testing.assert_array_equal(e, tech[0])


def test_fixed_seed_gives_byte_identical_files(tmp_path):
    for run in ("a", "b"):
        ds, meta = generate_dataset(SMALL)
        save_data_dir(ds, meta, tmp_path / run)
    for name in ("entities.jsonl", "pairs.jsonl", "meta.json", "embeddings.npz"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_confusable_categories_are_closer_than_unrelated(generated):
    ds, _ = generated
    groups = {}
    for c in ds.candidates.values():
        groups.setdefault(ds.vocab.name_of(c.category_id), []).append(c.embedding)

    def mean_cross_cos(a, b):
        return float(np.mean([x @ y for x in groups[a] for y in groups[b]]))

    confusable = mean_cross_cos("Data", "Technology")
    unrelated = mean_cross_cos("Sales", "Design")
    assert confusable > unrelated + 0.1


def test_generated_dataset_passes_load_validation(tmp_path, generated):
    ds, meta = generated
    save_data_dir(ds, meta, tmp_path / "data")
    loaded, loaded_meta = load_data_dir(tmp_path / "data")
    assert len(loaded.candidates) == SMALL.n_candidates
    assert len(loaded.jobs) == SMALL.n_jobs
    assert loaded_meta["split_ts"] == meta["split_ts"]


def test_positives_same_category_and_hard_negative_count_matches_meta(generated):
    ds, meta = generated
    hard = 0
    partner = {"Data": "Technology", "Technology": "Data"}
    for p in ds.pairs:
        c_cat = ds.vocab.name_of(ds.candidates[p.candidate_id].category_id)
        j_cat = ds.vocab.name_of(ds.jobs[p.job_id].category_id)
        if p.label == 1:
            assert c_cat == j_cat
        else:
            assert c_cat != j_cat
            hard += int(partner.get(j_cat) == c_cat)
    assert hard == meta["n_hard_negative"]
    assert meta["n_positive"] + meta["n_negative"] == meta["n_pairs"] == len(ds.pairs)


def test_temporal_split_is_strict_and_histories_only_replay_train(generated):
    ds, meta = generated
    train, test = ds.split_temporal(meta["split_ts"])
    assert train.pairs and test.pairs
    assert max(p.ts for p in train.pairs) < min(p.ts for p in test.pairs)
    # nothing that only happens in the test period may appear in a history
    train_links = {(p.candidate_id, p.job_id) for p in train.pairs}
    for job in ds.jobs.values():
        for stage_ids in (job.history(stage) for stage in STAGES):
            for cid in stage_ids:
                assert (cid, job.id) in train_links


def test_report_matches_generator_metadata(generated):
    ds, meta = generated
    report = validate_records(ds, short_jd_threshold=200)
    assert report.n_candidates == meta["n_candidates"]
    assert report.n_jobs == meta["n_jobs"]
    assert report.n_positive == meta["n_positive"]
    assert report.n_negative == meta["n_negative"]
    assert abs(report.short_jd_share - meta["short_jd_share"]) < 1e-12


def test_baseline_cosine_auc_reported(generated):
    _, meta = generated
    assert 0.0 < meta["baseline_cosine_auc"] < 1.0


def test_config_validation():
    with pytest.raises(ValueError, match="confusable pair"):
        SynthConfig(categories=("A", "B"), confusable_pairs=(("A", "Z"),))
    with pytest.raises(ValueError, match="two categories"):
        SynthConfig(categories=("A",), confusable_pairs=())
    with pytest.raises(ValueError, match="short_jd_fraction"):
        SynthConfig(short_jd_fraction=1.5)
    with pytest.raises(ValueError, match="positives_per_job"):
        SynthConfig(positives_per_job=-1.0)
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="prototype_noise must be >= 0 and finite"):
            SynthConfig(prototype_noise=value)
