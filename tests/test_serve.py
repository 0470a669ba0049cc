import gc
import weakref

import numpy as np
import pytest

from pjfit import serve
from pjfit.config import ABLATIONS
from pjfit.numerics import adam_step, seeded_rng
from pjfit.serve import ServingIndex, index_for
from pjfit.training import SequenceCache, evaluate, init_params, rank_candidates, score_pairs

from conftest import DatasetBuilder, toy_model_config

# Index scores against score_pairs. Both are float64; folding each external
# wo into fusion.w1 and batching per entity change only the order of sums.
# A score that rounds to exactly zero on one path can be ~1e-16 on the
# other, hence the absolute floor.
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


def test_warm_call_returns_the_cold_calls_bytes():
    ds = serving_dataset()
    cfg = toy_model_config()
    index = ServingIndex(random_store(cfg, 6), cfg, ds)
    cands, jobs = all_pairs(ds)
    cold = index.score(cands[:7], jobs[:7]).tobytes()
    index.score(cands[7:], jobs[7:])  # the tables grow past the first call's entities
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
        store["cand.fusion.w1"].value[0, 0] = 1.0
    before = {name: [a.copy() for a in (p.value, p.m, p.v, p.grad)] for name, p in store.items()}
    with pytest.raises(ValueError, match=f"{store.names()[0]!r} is read-only"):
        adam_step(store, 1e-3, 2)
    for name, p in store.items():
        for got, want in zip((p.value, p.m, p.v, p.grad), before[name]):
            assert got.tobytes() == want.tobytes(), name
