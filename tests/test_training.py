import math
import os

import numpy as np
import pytest

from pjfit import training
from pjfit.checkpoint import load_checkpoint, save_checkpoint
from pjfit.config import ABLATIONS, ModelConfig, TrainConfig
from pjfit.domain import DatasetError, sample_training_pairs
from pjfit.model import param_spec
from pjfit.numerics import Tape, glorot_uniform, ops, optim, seeded_rng, spawn_rngs
from pjfit.synth import SynthConfig, generate_dataset
from pjfit.training import (
    SequenceCache,
    TrainResult,
    bpr_loss,
    bpr_loss_graph,
    evaluate,
    init_params,
    rank_candidates,
    score_all,
    score_pairs,
    train,
)

from conftest import TOY_VOCAB_NAMES, DatasetBuilder, toy_model_config
from gradcheck import finite_diff_check
from reference_model import np_score_pair


def synth_toy(seed=0, **overrides):
    base = dict(
        n_candidates=48, n_jobs=12, categories=TOY_VOCAB_NAMES,
        confusable_pairs=(("Data", "Technology"),), embedding_dim=8,
        positives_per_job=3.0, seed=seed,
    )
    base.update(overrides)
    return generate_dataset(SynthConfig(**base))


# ------------------------------------------------------------------ loss


def test_bpr_equal_scores_is_log_two():
    assert abs(bpr_loss([1.3, -0.2], [1.3, -0.2], 0.0) - math.log(2.0)) < 1e-12
    assert abs(bpr_loss([0.0], [0.0], 0.0) - 0.693147) < 1e-6


def test_bpr_hand_evaluated_anchor():
    # -log sigma(0.5) + 0.1 * (1 + 0.25)
    got = bpr_loss([1.0], [0.5], 0.1)
    assert abs(got - 0.599077) < 1e-6
    exact = -math.log(1.0 / (1.0 + math.exp(-0.5))) + 0.125
    assert abs(got - exact) < 1e-12


def test_bpr_decreases_monotonically_to_zero():
    diffs = [0.0, 1.0, 5.0, 30.0, 100.0]
    losses = [bpr_loss([d], [0.0], 0.0) for d in diffs]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-12
    assert np.isfinite(bpr_loss([-100.0], [0.0], 0.0))  # stable at the far tail


def test_bpr_shift_invariance_only_without_regularization():
    pos, neg = [0.7, -0.1], [0.2, 0.3]
    shifted_pos = [s + 5.0 for s in pos]
    shifted_neg = [s + 5.0 for s in neg]
    assert abs(bpr_loss(pos, neg, 0.0) - bpr_loss(shifted_pos, shifted_neg, 0.0)) < 1e-12
    assert bpr_loss(shifted_pos, shifted_neg, 0.1) > bpr_loss(pos, neg, 0.1)


def test_bpr_rejects_bad_batches():
    with pytest.raises(ValueError, match="equal length"):
        bpr_loss([1.0], [0.5, 0.2], 0.0)
    with pytest.raises(ValueError, match="empty batch"):
        bpr_loss([], [], 0.0)


# ------------------------------------------------------------ score_pairs

# Scores of the batched forward against the numpy oracle, and of one pair
# scored alone against the same pair inside a batch. Both computations are
# float64 and differ only in summation order.
SCORE_TOL = 1e-12


def test_cold_start_entities_are_scorable():
    b = DatasetBuilder()
    b.entity("c1", "candidate")
    b.entity("j1", "job")
    ds = b.build()
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(0))
    score = score_pairs([ds.candidates["c1"]], [ds.jobs["j1"]], store.bind(),
                        cfg, SequenceCache(ds, cfg)).item()
    assert np.isfinite(score)


def test_score_pair_is_deterministic(small_dataset):
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(0))
    cache = SequenceCache(small_dataset, cfg)
    args = ([small_dataset.candidates["c0"]], [small_dataset.jobs["j0"]])
    a = score_pairs(*args, store.bind(), cfg, cache).item()
    b = score_pairs(*args, store.bind(), cfg, cache).item()
    assert a == b


@pytest.mark.parametrize("ablation", ["none", "no_moe", "no_category", "simple_match", "no_fine_interaction"])
def test_score_pair_matches_composition_oracle(small_dataset, ablation):
    cfg = toy_model_config(ablation=ablation)
    store = init_params(cfg, seeded_rng(0))
    cache = SequenceCache(small_dataset, cfg)
    pairs = [("c0", "j0"), ("c1", "j0"), ("c2", "j1"), ("c0", "j1"), ("c3", "j1")]
    cands = [small_dataset.candidates[c] for c, _ in pairs]
    jobs = [small_dataset.jobs[j] for _, j in pairs]
    got = score_pairs(cands, jobs, store.bind(), cfg, cache)
    assert got.shape == (len(pairs), 1)
    for i, (cand, job) in enumerate(zip(cands, jobs)):
        expected = np_score_pair(cand, job, store, cfg, small_dataset)
        np.testing.assert_allclose(got.data[i, 0], expected, rtol=SCORE_TOL)


def test_one_forward_runs_one_attention_per_attention_set(small_dataset, monkeypatch):
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(0))
    heads = []
    attention = ops.segment_attention

    def counted(*args):
        heads.append(args[-1])
        return attention(*args)

    monkeypatch.setattr(ops, "segment_attention", counted)
    pairs = [("c0", "j0"), ("c1", "j0"), ("c2", "j1")]
    score_pairs([small_dataset.candidates[c] for c, _ in pairs],
                [small_dataset.jobs[j] for _, j in pairs], store.bind(), cfg,
                SequenceCache(small_dataset, cfg))
    # 2 sides x 3 stages x (internal, external): one call per set, all heads in it
    assert heads == [cfg.heads] * 12


def test_text_rows_are_gathered_once_per_side_for_any_expert_count(small_dataset, monkeypatch):
    gathered = []
    gather = ops.gather_rows

    def counted(x, indices):
        gathered.append(x.cols)
        return gather(x, indices)

    monkeypatch.setattr(ops, "gather_rows", counted)
    pairs = [("c0", "j0"), ("c1", "j0"), ("c2", "j1")]
    calls = {}
    for n in (3, 5):
        cfg = toy_model_config(n_experts=n)
        gathered.clear()
        score_pairs([small_dataset.candidates[c] for c, _ in pairs],
                    [small_dataset.jobs[j] for _, j in pairs],
                    init_params(cfg, seeded_rng(0)).bind(), cfg, SequenceCache(small_dataset, cfg))
        # each side's text rows of the first layer, all experts side by side
        assert gathered.count(n * cfg.expert_hidden[0]) == 2
        calls[n] = len(gathered)
    assert calls[3] == calls[5]


def test_production_model_size():
    spec = param_spec(ModelConfig())
    assert len(spec) == 83
    assert sum(rows * cols for _, rows, cols in spec) == 66_802_890


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_weights_are_drawn_head_by_head(heads):
    # per attention set and head, a (d x d_k) Glorot block of wq, wk and wv
    # in that order, then wo; per expert, a (joint_dim x h1) Glorot block
    # of moe.w1, then its w2 and its w3; the other tensors in param_spec
    # order
    cfg = toy_model_config(heads=heads)
    store = init_params(cfg, seeded_rng(3))
    rng = seeded_rng(3)
    dk = cfg.head_dim
    h1, h2 = cfg.expert_hidden
    for name, rows, cols in param_spec(cfg):
        prefix, leaf = name.rsplit(".", 1)
        if leaf == "wq":
            for h in range(heads):
                for w in ("wq", "wk", "wv"):
                    np.testing.assert_array_equal(store[f"{prefix}.{w}"].value[:, h * dk:(h + 1) * dk],
                                                  glorot_uniform(rng, rows, dk))
        elif name == "moe.w1":
            for i in range(cfg.n_experts):
                np.testing.assert_array_equal(store[name].value[:, i * h1:(i + 1) * h1],
                                              glorot_uniform(rng, rows, h1))
                np.testing.assert_array_equal(store[f"moe.expert{i}.w2"].value,
                                              glorot_uniform(rng, h1, h2))
                np.testing.assert_array_equal(store[f"moe.expert{i}.w3"].value,
                                              glorot_uniform(rng, h2, 1))
        elif leaf.startswith("b"):
            np.testing.assert_array_equal(store[name].value, np.zeros((rows, cols)))
        elif leaf not in ("wk", "wv") and not name.startswith("moe.expert"):
            np.testing.assert_array_equal(store[name].value, glorot_uniform(rng, rows, cols))


def shared_history_dataset():
    """Candidates and jobs whose histories name the same counterparts, one
    longer than the toy seq_len of 4."""
    b = DatasetBuilder()
    for j in range(4):
        b.entity(f"j{j}", "job", category=("Technology", "Data")[j % 2],
                 hist_eval=("c0", "c1", "c2", "c3", "c4", "c0")[j:],
                 hist_pass_eval=("c1", "c0")[:j], hist_pass_interview=("c1",) if j else ())
    for c in range(5):
        b.entity(f"c{c}", "candidate", category=("Technology", "Data", "Sales")[c % 3],
                 hist_eval=("j0", "j1", "j2", "j3", "j0", "j1")[c:],
                 hist_pass_eval=("j2", "j0")[c % 2:], hist_pass_interview=("j2",) if c % 2 else ())
    return b.build()


def test_shared_history_entities_are_packed_once_and_score_like_the_oracle():
    ds = shared_history_dataset()
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(2))
    cache = SequenceCache(ds, cfg)
    pairs = [("c0", "j0"), ("c1", "j0"), ("c2", "j1"), ("c3", "j2"), ("c4", "j3"), ("c0", "j3")]
    cands = [ds.candidates[c] for c, _ in pairs]
    jobs = [ds.jobs[j] for _, j in pairs]
    got = score_pairs(cands, jobs, store.bind(), cfg, cache)
    for i, (cand, job) in enumerate(zip(cands, jobs)):
        np.testing.assert_allclose(got.data[i, 0], np_score_pair(cand, job, store, cfg, ds),
                                   rtol=SCORE_TOL)

    records = [ds.candidates[f"c{c}"] for c in range(5)]
    for stage, (rows, row_map, ranges) in zip(cfg.stages, cache.pack(records)):
        histories = [r.history(stage)[::-1][:cfg.seq_len] for r in records]
        named = {entity_id for ids in histories for entity_id in ids}
        assert rows.shape == (len(named), cfg.d_model)
        assert row_map.size > len(named)  # some entity sits in several histories
        for ids, (lo, hi) in zip(histories, ranges):
            expected = [ds.jobs[entity_id].embedding for entity_id in ids]
            np.testing.assert_array_equal(rows[row_map[lo:hi]].reshape(-1, cfg.d_model),
                                          np.array(expected).reshape(-1, cfg.d_model))


def test_score_is_independent_of_the_rest_of_the_batch(monkeypatch):
    monkeypatch.setattr(training, "SCORE_CHUNK", 16)  # several chunks of mixed pairs
    ds, meta = synth_toy()
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(4))
    cache = SequenceCache(ds, cfg)
    batched = score_all(ds, store, cfg)
    assert len(batched) == len(ds.pairs) > 3 * 16
    for pred in batched:
        alone = score_pairs([ds.candidates[pred.candidate_id]], [ds.jobs[pred.job_id]],
                            store.bind(), cfg, cache).item()
        np.testing.assert_allclose(pred.score, alone, rtol=SCORE_TOL)
    job_id = ds.pairs[0].job_id
    ranked = dict(rank_candidates(job_id, sorted(ds.candidates), store, cfg, ds))
    for pred in batched:
        if pred.job_id == job_id:
            np.testing.assert_allclose(ranked[pred.candidate_id], pred.score, rtol=SCORE_TOL)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_end_to_end_gradients_pass_finite_differences(small_dataset, ablation):
    # one batched graph: the positive and the negative share their job
    cfg = toy_model_config(ablation=ablation)
    cands = [small_dataset.candidates["c0"], small_dataset.candidates["c1"]]
    jobs = [small_dataset.jobs["j0"]] * 2
    worst = 0.0
    for seed in range(3):
        rng = seeded_rng(300 + seed)
        store = init_params(cfg, rng)
        # biases away from zero: with the zero biases of init_params, the
        # no_category gate (zero input) has every hidden pre-activation on
        # the ReLU kink, where central differences read a slope of 1/2 and
        # the subgradient is 0
        for name, p in store.items():
            if name.rsplit(".", 1)[-1].startswith("b"):
                p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
        cache = SequenceCache(small_dataset, cfg)

        def f(s):
            bound = s.bind(Tape())
            y = score_pairs(cands, jobs, bound, cfg, cache)
            return bpr_loss_graph(ops.gather_rows(y, [0]), ops.gather_rows(y, [1]), lambda_reg=0.1)

        worst = max(worst, finite_diff_check(f, store, coords_per_param=3, rng=rng))
    assert worst < 1e-4, worst


# ------------------------------------------------------------------ train


def train_config(dataset_dim=8, **overrides):
    base = dict(batch_size=32, learning_rate=5e-3, lambda_reg=0.1, epochs=2,
                seed=0, model=toy_model_config())
    base.update(overrides)
    return TrainConfig(**base)


def test_zero_learning_rate_leaves_parameters_at_init():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    cfg = train_config(learning_rate=0.0, epochs=1)
    result = train(train_ds, cfg)
    reference = init_params(cfg.model, spawn_rngs(cfg.seed, 2)[0])
    for name, p in result.store.items():
        np.testing.assert_array_equal(p.value, reference[name].value)


def test_first_loss_is_bpr_over_oracle_scores_at_init():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    cfg = train_config(epochs=1, batch_size=8)
    result = train(train_ds, cfg)
    rng_init, rng_sample = spawn_rngs(cfg.seed, 2)
    init = init_params(cfg.model, rng_init)
    entries = sample_training_pairs(train_ds, rng_sample, batch_size=cfg.batch_size).batches[0].entries

    def oracle(pair):
        return np_score_pair(train_ds.candidates[pair.candidate_id], train_ds.jobs[pair.job_id],
                             init, cfg.model, train_ds)

    pos = [oracle(p) for p, _ in entries]
    neg = [oracle(n) for _, n in entries]
    nll = np.mean([np.logaddexp(0.0, -(p - n)) for p, n in zip(pos, neg)])
    reg = np.mean(np.square(pos)) + np.mean(np.square(neg))
    np.testing.assert_allclose(result.losses[0], nll + cfg.lambda_reg * reg, rtol=1e-12)


def test_inference_allocates_no_gradient_buffers(tmp_path):
    ds, meta = synth_toy()
    train_ds, test_ds = ds.split_temporal(meta["split_ts"])
    cfg = train_config(epochs=1)
    save_checkpoint(train(train_ds, cfg).store, cfg.model, tmp_path / "model.ckpt")
    store, model_cfg = load_checkpoint(tmp_path / "model.ckpt")
    evaluate(test_ds, store, model_cfg)
    rank_candidates(test_ds.pairs[0].job_id, sorted(ds.candidates)[:5], store, model_cfg, ds)
    assert not any(p.has_grad for _, p in store.items())


def test_trained_store_holds_no_gradient_buffers():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    result = train(train_ds, train_config(epochs=1))
    assert result.steps > 0
    assert not any(p.has_grad for _, p in result.store.items())
    assert all(p.m is None and p.v is None for _, p in result.store.items())


def test_training_is_bitwise_deterministic():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    runs = [train(train_ds, train_config(epochs=1)) for _ in range(2)]
    assert runs[0].losses == runs[1].losses
    for name, p in runs[0].store.items():
        assert p.value.tobytes() == runs[1].store[name].value.tobytes()


def test_sharded_adam_trains_bitwise_as_one_worker(monkeypatch):
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    one = train(train_ds, train_config(epochs=1))
    # three shards of a few thousand elements each, in blocks of 100
    monkeypatch.setattr(optim, "BLOCK", 100)
    monkeypatch.setattr(optim, "CUTOFF", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    three = train(train_ds, train_config(epochs=1))
    assert three.losses == one.losses
    for name, p in one.store.items():
        assert p.value.tobytes() == three.store[name].value.tobytes(), name


def test_init_params_values_are_views_of_one_buffer():
    store = init_params(toy_model_config(), seeded_rng(0))
    buffers = store.buffers
    assert all(np.shares_memory(p.value, buffers.values) for _, p in store.items())
    # end to end in param_spec order
    assert np.concatenate([p.value.ravel() for _, p in store.items()]).tobytes() \
        == buffers.values.tobytes()


def test_training_reduces_loss_on_synthetic_data():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    result = train(train_ds, train_config(epochs=3, batch_size=8))
    assert result.steps == len(result.losses) >= 6
    assert result.losses[-1] < result.losses[0]


def test_training_requires_positives():
    b = DatasetBuilder()
    b.entity("c1", "candidate")
    b.entity("j1", "job")
    b.pair("c1", "j1", 0)
    with pytest.raises(DatasetError, match="no positive"):
        train(b.build(), train_config())


def test_training_rejects_dimension_mismatch():
    ds, meta = synth_toy(embedding_dim=16)
    with pytest.raises(DatasetError, match="embedding dim 16"):
        train(ds, train_config())


def test_no_moe_ablation_trains_and_evaluates():
    ds, meta = synth_toy()
    train_ds, test_ds = ds.split_temporal(meta["split_ts"])
    cfg = train_config(epochs=1, model=toy_model_config(ablation="no_moe"))
    result = train(train_ds, cfg)
    report = evaluate(test_ds, result.store, cfg.model)
    assert set(report) == {"auc", "gauc", "ndcg", "ap", "n_pairs"}
    assert all(np.isfinite(v) for v in report.values())


def test_evaluate_report_is_complete_and_finite():
    ds, meta = synth_toy()
    train_ds, test_ds = ds.split_temporal(meta["split_ts"])
    result = train(train_ds, train_config(epochs=1))
    report = evaluate(test_ds, result.store, train_config().model)
    for key in ("auc", "gauc", "ndcg", "ap"):
        assert 0.0 <= report[key] <= 1.0


def test_separable_fixture_reaches_perfect_auc():
    # two orthogonal prototypes, zero noise: positives same-prototype,
    # negatives cross; a trained model must fully separate the test pairs
    b = DatasetBuilder(dim=8)
    e1 = np.eye(8)[0]
    e2 = np.eye(8)[1]
    for i in range(6):
        b.entity(f"c{i}", "candidate", category=("Technology", "Data")[i % 2],
                 embedding=(e1 if i % 2 == 0 else e2))
    for j in range(4):
        b.entity(f"j{j}", "job", category=("Technology", "Data")[j % 2],
                 embedding=(e1 if j % 2 == 0 else e2))
    ts = 0
    for j in range(4):
        for i in range(6):
            label = 1 if (i % 2 == j % 2) else 0
            b.pair(f"c{i}", f"j{j}", label, ts=ts)
            ts += 1
    ds = b.build()
    train_ds, test_ds = ds.split_temporal(split_ts=16)
    cfg = train_config(batch_size=8, learning_rate=2e-2, epochs=30, lambda_reg=0.01)
    result = train(train_ds, cfg)
    report = evaluate(test_ds, result.store, cfg.model)
    assert report["auc"] == 1.0
