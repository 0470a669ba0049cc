import gc
import weakref

import numpy as np
import pytest

from pjfit import serve
from pjfit.config import ABLATIONS, ModelConfig
from pjfit.domain import DatasetError
from pjfit.numerics import adam_step, seeded_rng
from pjfit.serve import ServingIndex, index_for
from pjfit.training import SequenceCache, evaluate, init_params, rank_candidates, score_pairs

from conftest import DatasetBuilder, toy_model_config
from reference_model import np_score_pair

# Index scores against score_pairs. Both are float64; batching per entity
# changes only the order of sums. A score that rounds to exactly zero on one
# path can be ~1e-16 on the other, hence the absolute floor.
SERVE_RTOL = 1e-12
SERVE_ATOL = 1e-15


def serving_dataset():
    """Histories that share entities, run past the toy seq_len of 4 and
    leave stages empty, plus a candidate and a job with no history at all."""
    b = DatasetBuilder()
    for j in range(4):
        b.entity(f"j{j}", "job", category=("Technology", "Data")[j % 2],
                 hist_eval=("c0", "c1", "c2", "c3", "c4", "c0")[j:],
                 hist_pass_eval=("c1", "c0")[:j], hist_pass_interview=("c1",) if j else ())
    for c in range(5):
        b.entity(f"c{c}", "candidate", category=("Technology", "Data", "Sales")[c % 3],
                 hist_eval=("j0", "j1", "j2", "j3", "j0", "j1")[c:],
                 hist_pass_eval=("j2", "j0")[c % 2:], hist_pass_interview=("j2",) if c % 2 else ())
    b.entity("c5", "candidate", category="Design")
    b.entity("j4", "job", category="Sales")
    return b.build()


def random_store(cfg, seed):
    """Glorot weights and random, not zero, biases, so that a bias the index
    drops shows."""
    rng = seeded_rng(seed)
    store = init_params(cfg, rng)
    for name, p in store.items():
        if name.rsplit(".", 1)[-1].startswith("b"):
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    return store


def all_pairs(ds):
    pairs = [(c, j) for c in ds.candidates.values() for j in ds.jobs.values()]
    return [c for c, _ in pairs], [j for _, j in pairs]


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_index_scores_equal_score_pairs(ablation):
    ds = serving_dataset()
    cfg = toy_model_config(ablation=ablation)
    store = random_store(cfg, 5)
    cands, jobs = all_pairs(ds)
    want = score_pairs(cands, jobs, store.bind(), cfg, SequenceCache(ds, cfg)).data[:, 0]
    got = ServingIndex(store, cfg, ds).score(cands, jobs)
    assert got.shape == (len(cands),)
    np.testing.assert_allclose(got, want, rtol=SERVE_RTOL, atol=SERVE_ATOL)


@pytest.mark.parametrize("kind", ["candidate", "job"])
def test_record_outside_the_dataset_is_a_data_error(kind):
    ds = serving_dataset()
    cfg = toy_model_config()
    store = random_store(cfg, 13)
    pair = {"candidate": ds.candidates["c0"], "job": ds.jobs["j0"]}
    pair[kind] = DatasetBuilder().entity("x9", kind)
    cands, jobs = [pair["candidate"]], [pair["job"]]
    with pytest.raises(DatasetError, match=f"{kind} id 'x9'"):
        score_pairs(cands, jobs, store.bind(), cfg, SequenceCache(ds, cfg))
    with pytest.raises(DatasetError, match=f"{kind} id 'x9'"):
        ServingIndex(store, cfg, ds).score(cands, jobs)


def test_warm_call_returns_the_cold_calls_bytes():
    ds = serving_dataset()
    cfg = toy_model_config()
    index = ServingIndex(random_store(cfg, 6), cfg, ds)
    cands, jobs = all_pairs(ds)
    cold = index.score(cands[:7], jobs[:7]).tobytes()
    index.score(cands[7:], jobs[7:])  # the tables fill past the first call's entities
    assert index.score(cands[:7], jobs[:7]).tobytes() == cold


def test_chunks_and_order_do_not_change_scores():
    ds = serving_dataset()
    cfg = toy_model_config()
    store = random_store(cfg, 7)
    cands, jobs = all_pairs(ds)
    whole = ServingIndex(store, cfg, ds).score(cands, jobs)
    order = seeded_rng(8).permutation(len(cands))
    index = ServingIndex(store, cfg, ds)
    chunked = np.empty(len(cands))
    for lo in range(0, len(order), 7):
        picked = order[lo:lo + 7]
        chunked[picked] = index.score([cands[i] for i in picked], [jobs[i] for i in picked])
    np.testing.assert_allclose(chunked, whole, rtol=SERVE_RTOL, atol=SERVE_ATOL)


def test_eval_and_rank_on_splits_of_one_dataset_share_one_index(monkeypatch):
    built = []

    class Counted(ServingIndex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(serve, "ServingIndex", Counted)
    b = DatasetBuilder()
    for c in range(4):
        b.entity(f"c{c}", "candidate", hist_eval=("j0",) if c % 2 else ())
    for j in range(2):
        b.entity(f"j{j}", "job", hist_eval=("c1", "c3"))
    b.pair("c0", "j0", 1, ts=0)
    b.pair("c1", "j0", 0, ts=1)
    b.pair("c2", "j1", 1, ts=2)
    b.pair("c3", "j1", 0, ts=3)
    train_ds, test_ds = b.build().split_temporal(2)
    cfg = toy_model_config()
    store = random_store(cfg, 9)

    evaluate(test_ds, store, cfg)
    rank_candidates("j0", ["c0", "c1", "c2"], store, cfg, train_ds)
    assert len(built) == 1
    assert index_for(store, cfg, test_ds) is built[0]

    other = random_store(cfg, 9)  # equal values, another store
    rank_candidates("j0", ["c0", "c1"], other, cfg, train_ds)
    assert len(built) == 2
    evaluate(test_ds.with_entities({}), store, cfg)  # same records, new entity tables
    assert len(built) == 3


def test_index_binds_the_store_values_and_does_not_keep_the_store_alive():
    ds = serving_dataset()
    cfg = toy_model_config()
    store = random_store(cfg, 12)
    cands, jobs = all_pairs(ds)
    gc.collect()
    indexes = len(serve._INDEXES)  # stores of earlier tests may still be alive
    index = index_for(store, cfg, ds)
    index.score(cands[:3], jobs[:3])
    values = store.buffers.values
    assert all(np.shares_memory(index._bound[name].data, values) for name in store.names())
    alive = weakref.ref(store)
    del store
    gc.collect()
    assert alive() is None
    assert len(serve._INDEXES) == indexes


def test_writing_to_an_indexed_store_raises():
    ds = serving_dataset()
    cfg = toy_model_config()
    store = random_store(cfg, 10)
    rng = seeded_rng(11)
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    adam_step(store, 1e-3, 1)  # moments exist before the index freezes the store
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    cands, jobs = all_pairs(ds)
    index_for(store, cfg, ds).score(cands[:3], jobs[:3])
    with pytest.raises(ValueError, match="read-only"):
        store["cand.fusion.w1.internal"].value[0, 0] = 1.0
    before = {name: [a.copy() for a in (p.value, p.m, p.v, p.grad)] for name, p in store.items()}
    with pytest.raises(ValueError, match=f"{store.names()[0]!r} is read-only"):
        adam_step(store, 1e-3, 2)
    for name, p in store.items():
        for got, want in zip((p.value, p.m, p.v, p.grad), before[name]):
            assert got.tobytes() == want.tobytes(), name


def folding_config(heads=1, **overrides):
    """A width at which the serving index folds: heads * fusion_hidden (16
    or 64) is within FOLD_WIDTH * d_model (64 at one head, 128 at two), and
    FOLD_FACTOR * heads * U <= d_model holds for U <= 4 distinct keys at a
    stage. At two heads, fold_values reads two row blocks per stage."""
    if heads == 1:
        return toy_model_config(d_model=32, heads=1, seq_len=2, **overrides)
    return toy_model_config(d_model=64, heads=2, seq_len=2, fusion_hidden=32, **overrides)


def folding_dataset(cfg):
    """At seq_len 2: c0 and c1 name four jobs at the evaluated stage, c2 a
    fifth; j0 names two candidates. No entity has a passed-interview
    history, so that stage attends no key."""
    b = DatasetBuilder(dim=cfg.d_model)
    b.entity("c0", "candidate", hist_eval=("j0", "j1"), hist_pass_eval=("j0",))
    b.entity("c1", "candidate", category="Data", hist_eval=("j2", "j3"), hist_pass_eval=("j2",))
    b.entity("c2", "candidate", hist_eval=("j4",))
    b.entity("c3", "candidate", category="Sales", hist_eval=("j5", "j1", "j4", "j3"))
    b.entity("c4", "candidate", category="Design")
    b.entity("j0", "job", hist_eval=("c0", "c1"), hist_pass_eval=("c1",))
    b.entity("j1", "job", category="Data", hist_eval=("c2", "c3", "c4"))
    for j in range(2, 6):
        b.entity(f"j{j}", "job", category=("Technology", "Sales")[j % 2],
                 hist_eval=(f"c{j - 2}",) if j < 5 else ())
    return b.build()


# chunks of folding_dataset as (candidate ids, job ids), and whether the
# candidate side and the job side fold, without and with the one-stage layout
FOLDING_CHUNKS = [
    # both sides fold; the job side attends 4 jobs at the evaluated stage,
    # the limit
    ((["c0", "c1"], ["j0", "j0"]), (True, True), (True, True)),
    # the job side attends 5 jobs and does not fold, except in the one-stage
    # layout, where it attends 2
    ((["c0", "c1", "c2"], ["j0", "j0", "j0"]), (True, False), (True, True)),
    # the candidate side attends 5 candidates at the evaluated stage
    ((["c0", "c4", "c1"], ["j0", "j1", "j4"]), (False, True), (True, True)),
    # every candidate against every job
    (None, (False, False), (True, True)),
]


def chunk_records(ds, chunk):
    if chunk is None:
        return all_pairs(ds)
    cands, jobs = chunk
    return [ds.candidates[c] for c in cands], [ds.jobs[j] for j in jobs]


def recording_folds(monkeypatch):
    """A list that gets, per index call, whether each side folded."""
    calls = []
    scores = serve.pair_scores

    def recorded(sides, *args):
        calls.append(tuple(folded for *_, folded in sides))
        return scores(sides, *args)

    monkeypatch.setattr(serve, "pair_scores", recorded)
    return calls


@pytest.mark.parametrize("ablation, heads", [
    pytest.param(ablation, heads, id=ablation + ("" if heads == 1 else "-heads2"))
    for heads in (1, 2) for ablation in ("none", "no_fine_interaction")])
def test_folding_index_scores_equal_score_pairs_and_the_oracle(ablation, heads, monkeypatch):
    cfg = folding_config(heads, ablation=ablation)
    ds = folding_dataset(cfg)
    store = random_store(cfg, 30)
    calls = recording_folds(monkeypatch)
    index = ServingIndex(store, cfg, ds)
    for chunk, folds, one_stage_folds in FOLDING_CHUNKS:
        cands, jobs = chunk_records(ds, chunk)
        got = index.score(cands, jobs)
        assert calls.pop() == (one_stage_folds if ablation == "no_fine_interaction" else folds)
        want = score_pairs(cands, jobs, store.bind(), cfg, SequenceCache(ds, cfg)).data[:, 0]
        np.testing.assert_allclose(got, want, rtol=SERVE_RTOL, atol=SERVE_ATOL)
        oracle = [np_score_pair(c, j, store, cfg, ds) for c, j in zip(cands, jobs)]
        np.testing.assert_allclose(got, oracle, rtol=1e-9)
    assert index._folds["job", cfg.stages[0]].filled.any()


def test_fold_rule_boundary():
    cfg = folding_config()
    limit = cfg.d_model // (serve.FOLD_FACTOR * cfg.heads)
    assert limit == 4
    named = lambda *sizes: [np.arange(n) for n in sizes]
    assert serve.folds(cfg, named(limit, 0, 1))
    assert not serve.folds(cfg, named(2, limit + 1, 0))
    assert serve.folds(cfg, named(0, 0, 0))
    assert serve.folds(toy_model_config(d_model=1024, heads=2), named(64))
    assert not serve.folds(toy_model_config(d_model=1024, heads=2), named(65))
    # the width rule: heads * fusion_hidden at most FOLD_WIDTH * d_model;
    # the production widths fold at d = 1024 and never at d = 64
    assert serve.folds(ModelConfig(d_model=1024), named(64, 0, 1))
    assert not serve.folds(ModelConfig(d_model=64), named(1, 0, 0))
    assert not serve.folds(ModelConfig(d_model=64), named(0, 0, 0))
    assert serve.folds(folding_config(fusion_hidden=64), named(limit))
    assert not serve.folds(folding_config(fusion_hidden=65), named(limit))


def test_cold_and_warm_index_give_the_same_bytes_on_a_folding_chunk(monkeypatch):
    calls = recording_folds(monkeypatch)
    for heads in (1, 2):
        cfg = folding_config(heads)
        ds = folding_dataset(cfg)
        store = random_store(cfg, 31)
        calls.clear()
        (chunk, folds, _), *others = FOLDING_CHUNKS
        cands, jobs = chunk_records(ds, chunk)
        cold = ServingIndex(store, cfg, ds).score(cands, jobs)
        warm = ServingIndex(store, cfg, ds)
        for other, *_ in others:  # fill the tables, folded rows too, from other chunks
            warm.score(*chunk_records(ds, other))
        assert warm.score(cands, jobs).tobytes() == cold.tobytes()
        assert calls[0] == calls[-1] == folds
