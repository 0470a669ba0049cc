import numpy as np
import pytest

from pjfit.encoder import (
    external_keys,
    external_queries,
    fold_values,
    fuse_pairs,
    interaction,
    internal_hidden,
)
from pjfit.numerics import Matrix, Tape, ops, seeded_rng
from pjfit.training import init_params

from conftest import store_of, toy_model_config
from gradcheck import finite_diff_check, sum_all
from reference_model import np_encode_side, np_mha


@pytest.fixture
def cfg():
    return toy_model_config()


@pytest.fixture
def store(cfg):
    return init_params(cfg, seeded_rng(0))


def rand_seqs(rng, cfg, lengths):
    """One packed (rows, row_map, ranges) per stage: a single entity's
    history of n distinct entities."""
    return [(rng.normal(size=(n, cfg.d_model)), np.arange(n), np.array([[0, n]])) for n in lengths]


def as_matrices(seqs, tape=None):
    return [(Matrix(rows, tape), row_map, ranges) for rows, row_map, ranges in seqs]


def padded(seqs, cfg):
    """The oracle's (seq_len, d) block and validity mask for each single-entity stage."""
    out = []
    for rows, _, _ in seqs:
        block = np.zeros((cfg.seq_len, cfg.d_model))
        block[:len(rows)] = rows
        out.append((block, np.arange(cfg.seq_len) < len(rows)))
    return out


def encode_side(text, index, own, cross, bound, side, cfg, folded=False):
    """Fused vectors of one side of a batch of pairs, from the per-entity
    and per-pair encoder functions as ``model.score_pairs`` composes them
    (with ``folded``, as the serving index does on a folding side).

    ``text`` holds the side's distinct entities, ``index`` the entity of
    each pair; ``own`` holds (rows, row_map, ranges) per stage with one
    range per entity, ``cross`` the same with one range per pair."""
    keys = []
    for stage, (rows, row_map, ranges) in zip(cfg.stages, cross):
        k, v = external_keys(rows, bound, side, stage, cfg)
        keys.append(([k, fold_values(v, bound, side, stage, cfg) if folded else v], row_map, ranges))
    return fuse_pairs(external_queries(text, bound, side, cfg),
                      internal_hidden(text, own, bound, side, cfg), index, keys, bound, side, cfg,
                      folded)


def encode_one(self_vec, own, cross, bound, side, cfg):
    """encode_side for one pair of single entities."""
    return encode_side(self_vec, np.array([0]), own, cross, bound, side, cfg)


def test_fully_masked_sequence_gives_zero_vector(cfg, store):
    rng = seeded_rng(1)
    bound = store.bind()
    query = Matrix(rng.normal(size=(2, cfg.d_model)))
    rows = Matrix(rng.normal(size=(cfg.seq_len, cfg.d_model)))
    out = interaction(query, rows, np.arange(cfg.seq_len), np.array([[0, 0], [2, 2]]), bound,
                      "cand.evaluated.internal", cfg.heads)
    np.testing.assert_array_equal(out.data, np.zeros((2, cfg.d_model)))


def test_single_unmasked_row_with_identity_value_path_returns_that_row():
    # W_V for head i selects the i-th d_k-wide block: concat(head outputs)
    # reproduces the attended row exactly
    d_model, heads = 4, 2
    rng = seeded_rng(2)
    eye = np.eye(d_model)
    store = store_of(*((f"set.{w}", rng.normal(size=(d_model, d_model))) for w in ("wq", "wk")),
                     ("set.wv", eye))
    rows = rng.normal(size=(3, d_model))
    out = interaction(Matrix(rng.normal(size=(1, d_model))), Matrix(rows),
                      np.arange(3), np.array([[1, 2]]), store.bind(), "set", heads)
    np.testing.assert_allclose(out.data, rows[1:2], atol=1e-14)


def test_multi_head_matches_per_head_oracle(cfg, store):
    rng = seeded_rng(3)
    query = rng.normal(size=(2, cfg.d_model))
    rows = rng.normal(size=(cfg.seq_len, cfg.d_model))
    out = interaction(Matrix(query), Matrix(rows), np.arange(cfg.seq_len),
                      np.array([[0, 3], [1, 4]]), store.bind(), "job.passed_eval.external",
                      cfg.heads)
    prefix = np.array([True, True, True, False])
    np.testing.assert_allclose(
        out.data[:1], np_mha(query[:1], rows, prefix, store, "job.passed_eval.external", cfg),
        rtol=1e-12)
    np.testing.assert_allclose(
        out.data[1:], np_mha(query[1:], rows[1:4], np.ones(3, dtype=bool), store,
                             "job.passed_eval.external", cfg),
        rtol=1e-12)


def test_encode_side_empty_histories_is_the_bias_chain(cfg, store):
    # fusion of the zero vector: relu(b1) @ w2 + b2
    rng = seeded_rng(4)
    store["cand.fusion.b1"].value[...] = rng.normal(size=store["cand.fusion.b1"].value.shape)
    store["cand.fusion.b2"].value[...] = rng.normal(size=store["cand.fusion.b2"].value.shape)
    empty = rand_seqs(rng, cfg, [0, 0, 0])
    out = encode_one(Matrix(rng.normal(size=(1, cfg.d_model))),
                     as_matrices(empty), as_matrices(empty), store.bind(), "cand", cfg)
    expected = (np.maximum(store["cand.fusion.b1"].value, 0.0)
                @ store["cand.fusion.w2"].value + store["cand.fusion.b2"].value)
    np.testing.assert_allclose(out.data, expected, atol=1e-14)


def test_encode_side_is_pure(cfg, store):
    rng = seeded_rng(5)
    self_vec = rng.normal(size=(1, cfg.d_model))
    own = rand_seqs(rng, cfg, [2, 1, 0])
    cross = rand_seqs(rng, cfg, [3, 0, 1])
    a = encode_one(Matrix(self_vec), as_matrices(own), as_matrices(cross), store.bind(), "cand", cfg)
    b = encode_one(Matrix(self_vec), as_matrices(own), as_matrices(cross), store.bind(), "cand", cfg)
    np.testing.assert_array_equal(a.data, b.data)


def test_encode_side_matches_transcript_oracle(cfg, store):
    rng = seeded_rng(0)
    self_vec = rng.normal(size=(1, cfg.d_model))
    own = rand_seqs(rng, cfg, [3, 2, 1])
    cross = rand_seqs(rng, cfg, [1, 4, 2])
    expected = np_encode_side(self_vec, padded(own, cfg), padded(cross, cfg), store, "job", cfg)
    out = encode_one(Matrix(self_vec), as_matrices(own), as_matrices(cross), store.bind(), "job", cfg)
    assert out.shape == (1, cfg.fusion_out)
    np.testing.assert_allclose(out.data, expected, rtol=1e-11)


def test_permuting_unpadded_rows_leaves_output_unchanged(cfg, store):
    rng = seeded_rng(6)
    self_vec = Matrix(rng.normal(size=(1, cfg.d_model)))
    own = rand_seqs(rng, cfg, [4, 2, 3])
    cross = rand_seqs(rng, cfg, [2, 2, 2])
    base = encode_one(self_vec, as_matrices(own), as_matrices(cross), store.bind(), "cand", cfg)
    # shuffle the 4 rows of the first own-history stage
    rows, row_map, ranges = own[0]
    own_perm = [(rows[[2, 0, 3, 1]], row_map, ranges)] + own[1:]
    permuted = encode_one(self_vec, as_matrices(own_perm), as_matrices(cross), store.bind(), "cand", cfg)
    np.testing.assert_allclose(permuted.data, base.data, atol=1e-10)


def test_padded_garbage_rows_never_leak(cfg, store):
    # distinct rows the entity's history does not reference belong to other
    # entities; they must not reach its output
    rng = seeded_rng(7)
    self_vec = Matrix(rng.normal(size=(1, cfg.d_model)))
    own = rand_seqs(rng, cfg, [2, 0, 1])
    cross = rand_seqs(rng, cfg, [1, 1, 0])
    base = encode_one(self_vec, as_matrices(own), as_matrices(cross), store.bind(), "cand", cfg)
    poisoned_own = []
    for rows, _, ranges in own:
        garbage = np.full((3, cfg.d_model), 1e6)
        poisoned_own.append((np.concatenate([garbage, rows, garbage]),
                             np.arange(3, 3 + len(rows)), ranges))
    out = encode_one(self_vec, as_matrices(poisoned_own), as_matrices(cross), store.bind(), "cand", cfg)
    np.testing.assert_allclose(out.data, base.data, rtol=1e-12)


def test_sides_share_architecture_but_not_parameters(cfg, store):
    rng = seeded_rng(8)
    self_vec = Matrix(rng.normal(size=(1, cfg.d_model)))
    own = as_matrices(rand_seqs(rng, cfg, [2, 1, 1]))
    cross = as_matrices(rand_seqs(rng, cfg, [1, 2, 0]))
    before = encode_one(self_vec, own, cross, store.bind(), "cand", cfg).data.copy()
    for name, p in store.items():
        if name.startswith("job."):
            p.value += 0.37
    after = encode_one(self_vec, own, cross, store.bind(), "cand", cfg).data
    np.testing.assert_array_equal(after, before)


def batch_seqs(rng, cfg, lengths, ranges_of):
    """Per stage: histories of the given lengths packed by reference, with
    the ranges ``ranges_of`` picks from the per-entity ranges. The entries
    share rows: they name one row fewer than there are entries, so one row
    twice, and one more row is named by none."""
    out = []
    for stage_lengths in lengths:
        ends = np.cumsum(stage_lengths)
        ranges = np.stack([ends - np.array(stage_lengths), ends], axis=1)
        named = int(ends[-1]) - 1
        row_map = rng.permutation(np.arange(int(ends[-1])) % named)
        out.append((rng.normal(size=(named + 1, cfg.d_model)), row_map, ranges[ranges_of]))
    return out


def test_encoder_gradients_pass_finite_differences(cfg):
    # two distinct entities in three pairs; the cross histories of the pairs
    # include a shared and an empty range
    index = np.array([0, 1, 1])
    worst = 0.0
    for seed in range(3):
        rng = seeded_rng(100 + seed)
        store = init_params(cfg, rng)
        self_vec = rng.normal(size=(2, cfg.d_model))
        own = batch_seqs(rng, cfg, [[3, 1], [1, 2], [2, 0]], [0, 1])
        cross = batch_seqs(rng, cfg, [[2, 1], [2, 0], [1, 3]], [0, 1, 1])
        probe = rng.normal(size=(3, cfg.fusion_out))

        def f(s):
            tape = Tape()
            bound = s.bind(tape)
            out = encode_side(Matrix(self_vec), index, as_matrices(own, tape),
                              as_matrices(cross, tape), bound, "cand", cfg)
            return sum_all(ops.mul(out, Matrix(probe)))

        worst = max(worst, finite_diff_check(f, store, coords_per_param=4, rng=rng))
    assert worst < 1e-4, worst


def test_encode_side_wrong_stage_count_raises(cfg, store):
    rng = seeded_rng(9)
    seqs = as_matrices(rand_seqs(rng, cfg, [1]))
    with pytest.raises(ValueError, match="sequences per direction"):
        encode_one(Matrix(rng.normal(size=(1, cfg.d_model))), seqs, seqs, store.bind(), "cand", cfg)


@pytest.mark.parametrize("ablation", ["none", "no_fine_interaction"])
def test_fold_values_is_each_heads_values_times_its_fusion_rows(ablation):
    cfg = toy_model_config(ablation=ablation)
    store = init_params(cfg, seeded_rng(20))
    rows = seeded_rng(21).normal(size=(5, cfg.d_model))
    w1 = store["job.fusion.w1.external"].value
    w = cfg.head_dim
    for s, stage in enumerate(cfg.stages):
        v = rows @ store[f"job.{stage}.external.wv"].value
        got = fold_values(Matrix(v), store.bind(), "job", stage, cfg)
        assert got.shape == (5, cfg.heads * cfg.fusion_hidden)
        lo = s * cfg.d_model  # the stage's rows
        for h in range(cfg.heads):
            want = v[:, h * w:(h + 1) * w] @ w1[lo + h * w:lo + (h + 1) * w]
            np.testing.assert_allclose(
                got.data[:, h * cfg.fusion_hidden:(h + 1) * cfg.fusion_hidden], want, rtol=1e-12)


def random_biases(store, rng):
    for name, p in store.items():
        if name.rsplit(".", 1)[-1].startswith("b"):
            p.value[...] = rng.normal(scale=0.1, size=p.value.shape)
    return store


def folding_batch(rng, cfg):
    """Two entities in three pairs; the cross histories hold a shared range,
    an empty range and, at the last stage, no key at all."""
    own = batch_seqs(rng, cfg, [[3, 1], [1, 2], [2, 0]], [0, 1])
    cross = batch_seqs(rng, cfg, [[2, 1], [2, 0], [1, 3]], [0, 1, 1])
    cross[-1] = (np.zeros((0, cfg.d_model)), np.zeros(0, dtype=np.intp), np.zeros((3, 2), int))
    return rng.normal(size=(2, cfg.d_model)), np.array([0, 1, 1]), own, cross


def test_folded_values_fuse_as_plain_ones(cfg):
    rng = seeded_rng(22)
    store = random_biases(init_params(cfg, rng), rng)
    text, index, own, cross = folding_batch(rng, cfg)
    plain, folded = (encode_side(Matrix(text), index, as_matrices(own), as_matrices(cross),
                                 store.bind(), "cand", cfg, f).data for f in (False, True))
    np.testing.assert_allclose(folded, plain, rtol=1e-12)


def test_fold_values_refuses_a_tape(cfg):
    # folding reads rows of fusion.w1.external, and a tape binds a
    # parameter only whole, so only the serving index, untaped, folds
    store = init_params(cfg, seeded_rng(23))
    v = Matrix(seeded_rng(24).normal(size=(3, cfg.d_model)))
    tape = Tape()
    with pytest.raises(ValueError, match="tape"):
        fold_values(v, store.bind(tape), "cand", cfg.stages[0], cfg)
    assert len(tape) == 0 and not any(p.reached or p.dense is not None for _, p in store.items())
