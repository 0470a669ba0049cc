import bisect
import gc
import itertools
import math
import os
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from pjfit import training
from pjfit.checkpoint import load_checkpoint, save_checkpoint
from pjfit.config import ABLATIONS, ModelConfig, TrainConfig
from pjfit.domain import DatasetError, sample_training_pairs
from pjfit.model import param_spec
from pjfit.numerics import Matrix, Tape, ops, optim, params, seeded_rng, spawn_rngs
from pjfit.numerics.params import Param
from pjfit.synth import SynthConfig, generate_dataset
from pjfit.training import (
    NonFiniteScoreError,
    SequenceCache,
    TrainResult,
    bpr_loss_graph,
    evaluate,
    init_params,
    rank_candidates,
    score_all,
    score_pairs,
    train,
)

import reference_model
from conftest import TOY_VOCAB_NAMES, DatasetBuilder, store_of, toy_model_config
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


def bpr_loss(pos_scores, neg_scores, lambda_reg: float = 0.0) -> float:
    """The library's loss node over plain score lists."""
    if len(pos_scores) != len(neg_scores):
        raise ValueError("positive and negative score lists must have equal length")
    scores = np.asarray([*pos_scores, *neg_scores], dtype=np.float64).reshape(-1, 1)
    return bpr_loss_graph(Matrix(scores), len(pos_scores), lambda_reg).item()


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
    with pytest.raises(ValueError, match=r"\(4, 1\) score column, got \(3, 1\)"):
        bpr_loss_graph(Matrix(np.zeros((3, 1))), 2, 0.0)
    with pytest.raises(ValueError, match=r"\(2, 1\) score column, got \(1, 2\)"):
        bpr_loss_graph(Matrix(np.zeros((1, 2))), 1, 0.0)


# (positive scores, negative scores): a repeated score (0.4, and a pair
# with equal scores, where the stable branches meet), and pairs with
# |y+ - y-| > 30 on either side, alone and together. Central differences
# check the first three: in the last, at lambda 0, the loss is ~12 while
# the first pair's gradients are ~1e-16, below their resolution.
LOSS_BATCHES = [
    ([0.4, 0.4, -1.3, 2.0], [0.4, 1.1, 0.2, 0.4]),
    ([20.0], [-15.0]),
    ([-16.0], [19.0]),
    ([20.0, -16.0, 0.3], [-15.0, 19.0, 0.3]),
]


def np_bpr(pos, neg, lambda_reg):
    """The loss and its gradients with respect to y+ and y-, in numpy."""
    pos, neg = np.asarray(pos), np.asarray(neg)
    n = pos.size
    d = pos - neg
    sig_neg = 1.0 / (1.0 + np.exp(d))  # sigma(-d)
    loss = np.mean(np.logaddexp(0.0, -d)) + lambda_reg * (np.mean(pos ** 2) + np.mean(neg ** 2))
    return loss, (-sig_neg + 2.0 * lambda_reg * pos) / n, (sig_neg + 2.0 * lambda_reg * neg) / n


@pytest.mark.parametrize("lambda_reg", [0.0, 0.1])
@pytest.mark.parametrize("pos, neg", LOSS_BATCHES[:3])
def test_bpr_loss_node_passes_finite_differences(pos, neg, lambda_reg):
    store = store_of(("y", np.array([*pos, *neg]).reshape(-1, 1)))

    def f(s):
        return bpr_loss_graph(s.bind(Tape())["y"], len(pos), lambda_reg)

    assert finite_diff_check(f, store) < 1e-6


def test_bpr_loss_node_is_exact_far_in_the_tails():
    # d = +-1000: exp(|d|) overflows, so the node must read only exp(-|d|)
    tape = Tape()
    scores = Matrix([[500.0], [-500.0], [-500.0], [500.0]], tape)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        loss = bpr_loss_graph(scores, 2, 0.0)
        tape.backward(loss)
    assert loss.item() == 500.0  # (softplus(-1000) + softplus(1000)) / 2
    np.testing.assert_array_equal(scores.grad[:, 0], [0.0, -0.5, 0.0, 0.5])


@pytest.mark.parametrize("lambda_reg", [0.0, 0.1])
@pytest.mark.parametrize("pos, neg", LOSS_BATCHES)
def test_bpr_loss_node_matches_numpy(pos, neg, lambda_reg):
    # one node on the tape; the gradient arriving at it (2.5 here) scales
    # the gradients it passes
    want, want_pos, want_neg = np_bpr(pos, neg, lambda_reg)
    tape = Tape()
    scores = Matrix(np.array([*pos, *neg]).reshape(-1, 1), tape)
    loss = bpr_loss_graph(scores, len(pos), lambda_reg)
    assert len(tape) == 1
    np.testing.assert_allclose(loss.item(), want, rtol=1e-12, atol=0)
    tape.backward(ops.mul(loss, Matrix([[2.5]])))
    np.testing.assert_allclose(scores.grad[:, 0], 2.5 * np.concatenate([want_pos, want_neg]),
                               rtol=1e-12, atol=0)


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
    assert len(spec) == 75
    assert sum(rows * cols for _, rows, cols in spec) == 54_219_978
    assert not any(name.endswith(".wo") for name, _, _ in spec)


def _pinned_limit(cfg, name, rows, cols):
    """The Glorot limit of every value of tensor ``name`` (rows x cols):
    each head of an attention matrix is a (d x d_k) projection, a side's
    two fusion.w1 tensors one (fusion_in x fusion_hidden) layer, each
    expert's columns of the moe.w1 tensors a (joint_dim x h1) one; biases
    are 0."""
    leaf = name.rsplit(".", 1)[1]
    if leaf.startswith("b"):
        return 0.0
    if leaf in ("wq", "wk", "wv"):
        return math.sqrt(6 / (cfg.d_model + cfg.d_model // cfg.heads))
    if name.endswith(("fusion.w1.internal", "fusion.w1.external")):
        return math.sqrt(6 / (cfg.fusion_in + cfg.fusion_hidden))
    if name.startswith("moe.w1."):
        return math.sqrt(6 / (cfg.joint_dim + cfg.expert_hidden[0]))
    return math.sqrt(6 / (rows + cols))


@pytest.mark.parametrize("ablation", ["none", "simple_match"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_init_params_draws_every_value_in_buffer_order(heads, ablation):
    # value i is draw i of the stream, mapped as rng.uniform maps it by the
    # limit of its tensor; the generator ends past the last value
    cfg = toy_model_config(heads=heads, ablation=ablation)
    rng = seeded_rng(3)
    store = init_params(cfg, rng)
    want = seeded_rng(3)
    draws = want.random(store.values.size)
    limits = np.concatenate([np.full(rows * cols, _pinned_limit(cfg, name, rows, cols))
                             for name, rows, cols in param_spec(cfg)])
    assert store.values.tobytes() == (draws * (limits - -limits) + -limits).tobytes()
    assert rng.bit_generator.state == want.bit_generator.state
    biases = [p.value for name, p in store.items() if name.rsplit(".", 1)[1].startswith("b")]
    assert biases and not any(b.any() or np.signbit(b).any() for b in biases)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_init_params_draws_bitwise_alike_on_any_worker_count(monkeypatch, workers):
    # on the toy store the default is one worker, the sequential draw that
    # test_init_params_draws_every_value_in_buffer_order pins; forced
    # shards cut mid-row and mid-tensor, and blocks of 50 cut the tensors
    cfg = toy_model_config()
    sequential_rng = seeded_rng(3)
    sequential = init_params(cfg, sequential_rng)
    n = sequential.values.size
    assert optim.worker_count(n) == 1
    spec = param_spec(cfg)
    starts = [0, *itertools.accumulate(rows * cols for _, rows, cols in spec)]
    for cut in (n * i // workers for i in range(1, workers)):
        k = bisect.bisect_right(starts, cut) - 1
        assert cut > starts[k] and (cut - starts[k]) % spec[k][2]  # mid-tensor, mid-row
    monkeypatch.setattr(optim, "CUTOFF", n // workers)
    monkeypatch.setattr(optim, "BLOCK", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    shards = []
    draw = optim._draw
    monkeypatch.setattr(optim, "_draw", lambda *args: shards.append(args[2:4]) or draw(*args))
    rng = seeded_rng(3)
    store = init_params(cfg, rng)
    assert sorted(shards) == [(n * i // workers, n * (i + 1) // workers) for i in range(workers)]
    assert store.values.tobytes() == sequential.values.tobytes()
    assert rng.bit_generator.state == sequential_rng.bit_generator.state


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
    packed = cache.pack("candidate", cache.rows("candidate", records))
    for stage, (named_rows, row_map, ranges) in zip(cfg.stages, packed):
        rows = cache.embedding["job"][named_rows]
        histories = [r.history(stage)[::-1][:cfg.seq_len] for r in records]
        named = {entity_id for ids in histories for entity_id in ids}
        assert rows.shape == (len(named), cfg.d_model)
        assert row_map.size > len(named)  # some entity sits in several histories
        for ids, (lo, hi) in zip(histories, ranges):
            expected = [ds.jobs[entity_id].embedding for entity_id in ids]
            np.testing.assert_array_equal(rows[row_map[lo:hi]].reshape(-1, cfg.d_model),
                                          np.array(expected).reshape(-1, cfg.d_model))


@pytest.mark.parametrize("ablation", ["none", "no_fine_interaction"])
def test_an_output_projection_per_set_folds_into_fusion_w1(monkeypatch, ablation):
    # The forward with a (d x d) output projection wo after every attention
    # set equals the forward without it on the store whose fusion.w1 blocks
    # hold wo_t @ w1_t: deleting wo loses no function. Stage t's block sits
    # at rows [t d, (t + 1) d) of fusion.w1.internal and of
    # fusion.w1.external.
    ds = shared_history_dataset()
    cfg = toy_model_config(ablation=ablation)
    d = cfg.d_model
    rng = seeded_rng(14)
    store = init_params(cfg, rng)
    for name, p in store.items():
        if name.rsplit(".", 1)[-1].startswith("b"):
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    wo = {}
    folded = store_of(*((name, p.value) for name, p in store.items()))
    for side in ("cand", "job"):
        for t, stage in enumerate(cfg.stages):
            for direction in ("internal", "external"):
                prefix = f"{side}.{stage}.{direction}"
                wo[prefix] = rng.normal(scale=d ** -0.5, size=(d, d))
                w1 = folded[f"{side}.fusion.w1.{direction}"].value
                rows = slice(t * d, (t + 1) * d)
                w1[rows] = wo[prefix] @ w1[rows]

    mha = reference_model.np_mha
    monkeypatch.setattr(reference_model, "np_mha",
                        lambda query, seq, valid, s, prefix, c:
                        mha(query, seq, valid, s, prefix, c) @ wo[prefix])
    pairs = [("c0", "j0"), ("c1", "j0"), ("c2", "j1"), ("c3", "j2"), ("c4", "j3"), ("c0", "j3")]
    cands = [ds.candidates[c] for c, _ in pairs]
    jobs = [ds.jobs[j] for _, j in pairs]
    got = score_pairs(cands, jobs, folded.bind(), cfg, SequenceCache(ds, cfg)).data[:, 0]
    want = [np_score_pair(c, j, store, cfg, ds) for c, j in zip(cands, jobs)]
    np.testing.assert_allclose(got, want, rtol=1e-12)


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
            return bpr_loss_graph(y, 1, lambda_reg=0.1)

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


def test_a_non_finite_score_is_refused_naming_the_first_pair():
    # finite weights whose products overflow: at this seed every toy score
    # is NaN; raised as a RuntimeError even with RuntimeWarnings as errors
    ds, _ = synth_toy()
    cfg = toy_model_config()
    store = init_params(cfg, seeded_rng(0))
    store["moe.b1"].value[...] = 1e308
    first = ds.pairs[0]
    job_id = first.job_id
    candidates = sorted(ds.candidates)
    assert issubclass(NonFiniteScoreError, RuntimeError)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteScoreError, match=re.escape(
                f"for candidate {first.candidate_id!r} and job {first.job_id!r}")):
            score_all(ds, store, cfg)
        with pytest.raises(NonFiniteScoreError, match=re.escape(
                f"for candidate {candidates[0]!r} and job {job_id!r}")):
            rank_candidates(job_id, candidates, store, cfg, ds)


def test_inference_allocates_no_gradient_buffers(tmp_path):
    ds, meta = synth_toy()
    train_ds, test_ds = ds.split_temporal(meta["split_ts"])
    cfg = train_config(epochs=1)
    save_checkpoint(train(train_ds, cfg).store, cfg.model, tmp_path / "model.ckpt")
    store, model_cfg = load_checkpoint(tmp_path / "model.ckpt")
    evaluate(test_ds, store, model_cfg)
    rank_candidates(test_ds.pairs[0].job_id, sorted(ds.candidates)[:5], store, model_cfg, ds)
    assert not any(p.reached or p.dense is not None for _, p in store.items())


def test_trained_store_holds_no_gradient_buffers():
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    result = train(train_ds, train_config(epochs=1))
    assert result.steps > 0
    assert not any(p.reached or p.dense is not None for _, p in result.store.items())


def test_trained_result_reaches_no_store_sized_array_but_the_values(monkeypatch):
    # Adam's moments are train()'s own, dropped when it returns: the result
    # reaches no other array of the value buffer's size. Param has no
    # weakref slot, so the check walks the references
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    moments, step = [], training.adam_step

    def recorded(store, m, v, *args):
        moments[:] = [weakref.ref(m), weakref.ref(v)]
        return step(store, m, v, *args)

    monkeypatch.setattr(training, "adam_step", recorded)
    result = train(train_ds, train_config(epochs=1))
    assert result.steps > 0
    gc.collect()
    assert moments and all(ref() is None for ref in moments)
    values = result.store.values
    seen, todo, sized = set(), [result], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray) and obj.size == values.size:
            sized.append(obj)
        todo.extend(gc.get_referents(obj))
    assert len(sized) == 1 and sized[0] is values


def test_training_holds_no_store_sized_gradient():
    # the values and both moments take 3 x 8n bytes for n values; the kept
    # pairs, the other gradients, the activations and Adam's scratch stay
    # below 0.6 x 8n more at d=64 (3.27 x 8n in all), where one gradient
    # buffer over the store would add 8n (4.26 x 8n)
    ds, meta = synth_toy(embedding_dim=64)
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    model = ModelConfig(d_model=64, fusion_hidden=256, n_categories=len(TOY_VOCAB_NAMES))
    n = sum(rows * cols for _, rows, cols in param_spec(model))
    tracemalloc.start()
    try:
        train(train_ds, train_config(batch_size=8, epochs=1, model=model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * 8 * n, peak / (8 * n)


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


def sparse_history_dataset():
    """Entities c0-c3, j0 and j1 carry histories, c4-c7, j2 and j3 carry
    none or one evaluated entry, and every pair stays within its group: a
    one-entry batch leaves some stages' histories empty on both sides."""
    b = DatasetBuilder(seed=5)
    cats = ("Technology", "Data")
    for i in range(8):
        hist = {}
        if i < 4:
            hist = dict(hist_eval=("j0", "j1"), hist_pass_eval=("j0",),
                        hist_pass_interview=("j1",) if i % 2 else ())
        elif i % 2:
            hist = dict(hist_eval=("j2",))
        b.entity(f"c{i}", "candidate", category=cats[i % 2], **hist)
    for j in range(4):
        hist = {}
        if j < 2:
            hist = dict(hist_eval=("c0", "c1", "c2"), hist_pass_eval=("c1",),
                        hist_pass_interview=("c0",) if j == 0 else ())
        b.entity(f"j{j}", "job", category=cats[j % 2], **hist)
    for j in range(4):
        for i in range(8):
            if (i < 4) == (j < 2):
                b.pair(f"c{i}", f"j{j}", int(i % 2 == j % 2), ts=10 * i + j)
    return b.build()


def _train_lifecycle(monkeypatch, dataset, cfg, textbook):
    """train() with every parameter's dense gradient refilled whenever a
    step begins. For the write-first lifecycle it is refilled with NaN, so
    that a stale gradient read anywhere shows in the result, and weights
    keep their products as pairs. For the ``textbook`` one no pair is kept
    (a keep rule that refuses every pair) and every gradient is zeroed and
    marked reached at the step's start, so that every backward
    contribution adds into it.
    Returns the final value bytes, the loss trace and, per parameter, which
    steps left its gradient unreached and which kept it as pairs."""
    names, unreached, factored = {}, {}, {}
    consume = Param.consume_grad

    def filled_init(*args):
        store = init_params(*args)
        for name, p in store.items():
            names[id(p)] = name
            if textbook:
                p.grad
        return store

    def refill(p):
        unreached.setdefault(names[id(p)], []).append(not p.reached)
        factored.setdefault(names[id(p)], []).append(bool(p.factors))
        if p.dense is not None:
            if not p.factors:
                # a dense gradient no closure wrote is still all NaN, and
                # one that a closure wrote holds no NaN
                assert np.isnan(p.dense).all() if not p.reached else not np.isnan(p.dense).any()
            p.dense[...] = np.nan
        consume(p)
        if textbook:
            p.grad

    with monkeypatch.context() as m:
        m.setattr(training, "init_params", filled_init)
        m.setattr(Param, "consume_grad", refill)
        if textbook:
            m.setattr(params, "_keeps", lambda k, rows, cols: False)
        result = train(dataset, cfg)
    return (result.store.values.tobytes(), np.array(result.losses).tobytes(),
            unreached, factored)


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_write_first_gradients_train_as_zero_then_add(monkeypatch, ablation):
    # the model's own parameters, each bound whole, among them attention
    # sets no pair of a batch reaches and weights whose products are kept
    # as pairs, against the textbook lifecycle: every step's gradient is a
    # dense array that starts as zeros and each contribution adds
    ds = sparse_history_dataset()
    cfg = train_config(epochs=1, batch_size=1, model=toy_model_config(ablation=ablation))
    values, losses, unreached, factored = _train_lifecycle(monkeypatch, ds, cfg, textbook=False)
    want_values, want_losses, _, dense = _train_lifecycle(monkeypatch, ds, cfg, textbook=True)
    assert losses == want_losses
    assert values == want_values
    # the premises: some attention set is left unreached by one step and
    # reached by another; some weight keeps pairs, and none in the textbook run
    assert any(".internal." in name or ".external." in name
               for name, steps in unreached.items() if any(steps) and not all(steps))
    assert any(any(steps) for steps in factored.values())
    assert not any(any(steps) for steps in dense.values())


@pytest.mark.parametrize("workers, found", [(1, True), (3, True), (3, False)],
                         ids=["1", "3", "3-no-openblas"])
def test_kept_pairs_train_bitwise_as_dense_gradients(monkeypatch, workers, found):
    # d=64 at batch 16: moe.w1.fusion's (512 x 1280, K = 32) and fusion.w1's
    # (192 x 1024) products are kept, and other weights' go dense. Two
    # epochs of steps, against the same training with a keep rule that
    # refuses every pair, on one shard and on three in blocks of 4096. The
    # store is below optim.SMALL_STORE, so on either the walk runs with
    # OpenBLAS held to one thread, and the count is restored after; with no
    # OpenBLAS found (not ``found``), nothing is held and the values and
    # losses are the held run's
    ds, meta = synth_toy(embedding_dim=64)
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    cfg = train_config(batch_size=16, model=toy_model_config(
        d_model=64, fusion_hidden=1024, fusion_out=256, n_experts=5, expert_hidden=(256, 64)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    if workers > 1:
        monkeypatch.setattr(optim, "BLOCK", 4096)
        monkeypatch.setattr(optim, "CUTOFF", 1)
    seen, held = set(), set()
    consume, update, blas = Param.consume_grad, optim._update, optim._OPENBLAS
    threads = blas[0]() if blas else None

    def recorded(p):
        seen.add("kept" if p.factors else "dense" if p.reached else "unreached")
        consume(p)

    def counted(*args):
        held.add(blas[0]() if blas else None)
        update(*args)

    with monkeypatch.context() as m:
        m.setattr(Param, "consume_grad", recorded)
        m.setattr(optim, "_update", counted)
        if not found:
            m.setattr(optim, "_OPENBLAS", None)
        kept = train(train_ds, cfg)
    assert seen >= {"kept", "dense"}
    if blas:
        assert held == {1 if found else threads}
        assert blas[0]() == threads
    assert kept.steps >= 2
    with monkeypatch.context() as m:
        if found:
            m.setattr(params, "_keeps", lambda k, rows, cols: False)
        want = train(train_ds, cfg)  # all dense, or else the held run
    assert np.array(kept.losses).tobytes() == np.array(want.losses).tobytes()
    assert kept.store.values.tobytes() == want.store.values.tobytes()


def _train_recording_holds(monkeypatch, fake_blas):
    """train() of the toy store (5428 values) over a few steps, with the
    fake's thread count recorded at each forward ("forward"),
    Tape.backward ("backward") and Adam walk ("walk"), and the result."""
    ds, meta = synth_toy()
    train_ds, _ = ds.split_temporal(meta["split_ts"])
    counts = {"forward": [], "backward": [], "walk": []}
    forward, backward, update = training.score_pairs, Tape.backward, optim._update

    def recorded(key, fn):
        return lambda *args: counts[key].append(fake_blas.threads) or fn(*args)

    monkeypatch.setattr(training, "score_pairs", recorded("forward", forward))
    monkeypatch.setattr(Tape, "backward", recorded("backward", backward))
    monkeypatch.setattr(optim, "_update", recorded("walk", update))
    return counts, train(train_ds, train_config(batch_size=8, epochs=1))


@pytest.mark.parametrize("workers", [1, 2])
def test_training_hold_keeps_a_small_store_on_one_thread_throughout(monkeypatch, fake_blas,
                                                                    workers):
    # from the first forward to the last walk, whether Adam's step holds
    # on its own (two shards) or not (one): inside the training's hold,
    # Adam's sets the count it finds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(optim, "CUTOFF", 1)
    counts, result = _train_recording_holds(monkeypatch, fake_blas)
    assert result.steps >= 2
    assert counts["forward"] and counts["walk"] == [1] * result.steps * workers
    assert set(counts["forward"]) == set(counts["backward"]) == {1}
    assert fake_blas.threads == 2
    assert fake_blas.puts == [1] + [1, 1] * result.steps * (workers > 1) + [2]


def test_training_hold_is_let_go_when_training_diverges(monkeypatch, fake_blas):
    # the loss of the second batch goes non-finite
    loss_graph = training.bpr_loss_graph
    calls = []

    def diverging(scores, n, lambda_reg):
        calls.append(n)
        loss = loss_graph(scores, n, lambda_reg)
        return Matrix([[np.nan]], scores.tape) if len(calls) == 2 else loss

    monkeypatch.setattr(training, "bpr_loss_graph", diverging)
    with pytest.raises(training.TrainingDivergedError, match="batch 1"):
        _train_recording_holds(monkeypatch, fake_blas)
    assert len(calls) == 2
    assert fake_blas.threads == 2 and fake_blas.puts == [1, 2]


def test_training_hold_leaves_a_store_at_the_threshold_to_adam(monkeypatch, fake_blas):
    # the toy store at optim.SMALL_STORE values: the forward and backward
    # run on the count they find, and only Adam's two shards hold
    monkeypatch.setattr(optim, "SMALL_STORE", 5428)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(optim, "CUTOFF", 1)
    counts, result = _train_recording_holds(monkeypatch, fake_blas)
    assert set(counts["forward"]) == set(counts["backward"]) == {2}
    assert counts["walk"] == [1] * result.steps * 2
    assert fake_blas.puts == [1, 2] * result.steps


def test_init_params_values_are_views_of_one_buffer():
    store = init_params(toy_model_config(), seeded_rng(0))
    assert all(np.shares_memory(p.value, store.values) for _, p in store.items())
    # end to end in param_spec order
    assert np.concatenate([p.value.ravel() for _, p in store.items()]).tobytes() \
        == store.values.tobytes()


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
