import numpy as np
import pytest

from pjfit.moe import expert_forward, gate_weights, head_input, moe_scores
from pjfit.numerics import Matrix, Tape, ops, seeded_rng
from pjfit.training import init_params

from conftest import toy_model_config
from gradcheck import finite_diff_check
from reference_model import np_ffn, np_gate, np_moe


def joint_scores(x, candidate_categories, job_categories, bound, cfg):
    """moe_scores of whole joint vectors: the first layer reads all of x."""
    return moe_scores(head_input(x, bound), candidate_categories, job_categories, bound, cfg)


def joint_expert(x, i, bound, cfg):
    """Expert i's output for whole joint vectors x."""
    hidden = ops.split_cols(ops.relu(head_input(x, bound)), cfg.head_experts)
    return expert_forward(hidden[i], i, bound, cfg)


@pytest.fixture
def cfg():
    return toy_model_config()


@pytest.fixture
def store(cfg):
    return init_params(cfg, seeded_rng(0))


def test_zeroed_gate_is_uniform():
    cfg = toy_model_config(n_experts=5)
    store = init_params(cfg, seeded_rng(0))
    for name in ("moe.gate.w1", "moe.gate.b1", "moe.gate.w2", "moe.gate.b2"):
        store[name].value[...] = 0.0
    out = gate_weights(Matrix(seeded_rng(1).normal(size=(1, cfg.gate_in))), store.bind())
    np.testing.assert_allclose(out.data, [[0.2] * 5], atol=1e-15)


def test_gate_output_is_a_probability_vector(cfg, store):
    rng = seeded_rng(2)
    bound = store.bind()
    for _ in range(1000):
        g = gate_weights(Matrix(rng.normal(size=(1, cfg.gate_in)) * 3), bound).data
        assert (g > 0).all() and (g < 1).all()
        assert abs(g.sum() - 1.0) < 1e-9


def test_gate_matches_layer_by_layer_oracle(cfg, store):
    # categories Technology (0) and Data (1) in the toy vocabulary
    table = store["moe.categories"].value
    e_c = np.concatenate([table[0:1], table[1:2]], axis=1)
    expected = np_gate(e_c, store)
    got = gate_weights(Matrix(e_c), store.bind()).data
    np.testing.assert_allclose(got, expected.reshape(1, -1), rtol=1e-12)


def test_expert_zero_input_zero_biases_gives_zero(cfg, store):
    x = Matrix(np.zeros((1, cfg.joint_dim)))
    out = joint_expert(x, 0, store.bind(), cfg)
    assert out.item() == 0.0  # biases initialize to zero


def test_expert_output_bias_passes_through(cfg, store):
    store["moe.expert1.b3"].value[...] = 2.5
    out = joint_expert(Matrix(np.zeros((1, cfg.joint_dim))), 1, store.bind(), cfg)
    assert out.item() == 2.5


def test_expert_matches_manual_layer_oracle(cfg, store):
    x = seeded_rng(3).normal(size=(1, cfg.joint_dim))
    expected = np_ffn(x, store, 2, cfg)
    got = joint_expert(Matrix(x), 2, store.bind(), cfg)
    np.testing.assert_allclose(got.data, expected, rtol=1e-12)


def test_expert_index_out_of_range(cfg, store):
    bound = store.bind()
    hidden = ops.split_cols(head_input(Matrix(np.zeros((1, cfg.joint_dim))), bound),
                            cfg.n_experts)
    with pytest.raises(IndexError, match="expert index"):
        expert_forward(hidden[0], cfg.n_experts, bound, cfg)


def test_constant_experts_make_gate_irrelevant(cfg, store):
    # all experts return exactly c: the convex combination must be c
    c = -1.7
    store["moe.w1"].value[...] = 0.0
    for i in range(cfg.n_experts):
        for layer in ("w2", "w3"):
            store[f"moe.expert{i}.{layer}"].value[...] = 0.0
        store[f"moe.expert{i}.b3"].value[...] = c
    x = Matrix(seeded_rng(4).normal(size=(1, cfg.joint_dim)))
    out = joint_scores(x, [0], [1], store.bind(), cfg)
    assert abs(out.item() - c) < 1e-12


def test_forced_one_hot_gate_selects_single_expert(cfg, store):
    store["moe.gate.w2"].value[...] = 0.0
    store["moe.gate.b2"].value[...] = 0.0
    store["moe.gate.b2"].value[0, 1] = 200.0  # softmax weight 1.0 in float64
    x = seeded_rng(5).normal(size=(1, cfg.joint_dim))
    out = joint_scores(Matrix(x), [0], [0], store.bind(), cfg)
    expected = joint_expert(Matrix(x), 1, store.bind(), cfg)
    np.testing.assert_allclose(out.item(), expected.item(), rtol=1e-15)


def test_moe_predict_matches_sum_of_products_oracle(cfg, store):
    # one row per pair, each with its own category pair
    x = seeded_rng(0).normal(size=(4, cfg.joint_dim))
    cand, job = [0, 3, 1, 0], [2, 2, 1, 0]
    got = joint_scores(Matrix(x), cand, job, store.bind(), cfg)
    assert got.shape == (4, 1)
    for i in range(4):
        expected = np_moe(x[i:i + 1], cand[i], job[i], store, cfg)
        np.testing.assert_allclose(got.data[i, 0], expected, rtol=1e-12)


def test_moe_prediction_bounded_by_expert_range(cfg, store):
    rng = seeded_rng(6)
    bound = store.bind()
    for _ in range(50):
        x = Matrix(rng.normal(size=(1, cfg.joint_dim)))
        outputs = [joint_expert(x, i, bound, cfg).item() for i in range(cfg.n_experts)]
        y = joint_scores(x, [int(rng.integers(cfg.n_categories))],
                       [int(rng.integers(cfg.n_categories))], bound, cfg).item()
        assert min(outputs) - 1e-12 <= y <= max(outputs) + 1e-12


def test_swapping_experts_with_gate_columns_is_a_symmetry(cfg, store):
    rng = seeded_rng(7)
    x = rng.normal(size=(1, cfg.joint_dim))
    base = joint_scores(Matrix(x), [1], [2], store.bind(), cfg).item()
    i, j = 0, 2
    h1 = cfg.expert_hidden[0]
    for layer in ("w1", "b1"):
        w = store[f"moe.{layer}"].value
        w[:, i * h1:(i + 1) * h1], w[:, j * h1:(j + 1) * h1] = (
            w[:, j * h1:(j + 1) * h1].copy(), w[:, i * h1:(i + 1) * h1].copy())
    for layer in ("w2", "b2", "w3", "b3"):
        a = store[f"moe.expert{i}.{layer}"].value.copy()
        store[f"moe.expert{i}.{layer}"].value[...] = store[f"moe.expert{j}.{layer}"].value
        store[f"moe.expert{j}.{layer}"].value[...] = a
    w2 = store["moe.gate.w2"].value
    w2[:, [i, j]] = w2[:, [j, i]]
    b2 = store["moe.gate.b2"].value
    b2[:, [i, j]] = b2[:, [j, i]]
    swapped = joint_scores(Matrix(x), [1], [2], store.bind(), cfg).item()
    assert abs(swapped - base) < 1e-10


def test_unknown_category_id_rejected(cfg, store):
    x = Matrix(np.zeros((1, cfg.joint_dim)))
    with pytest.raises(IndexError, match="category id"):
        joint_scores(x, [cfg.n_categories], [0], store.bind(), cfg)


def test_gate_and_expert_gradients_including_category_rows(cfg):
    worst = 0.0
    for seed in range(3):
        rng = seeded_rng(200 + seed)
        store = init_params(cfg, rng)
        x = rng.normal(size=(1, cfg.joint_dim))

        def f(s):
            bound = s.bind(Tape())
            return joint_scores(Matrix(x), [1], [3], bound, cfg)

        worst = max(worst, finite_diff_check(f, store, coords_per_param=5, rng=rng))
        # the used category-embedding rows must carry gradient
        store.release_grads()
        tape = Tape()
        bound = store.bind(tape)
        out = joint_scores(Matrix(x), [1], [3], bound, cfg)
        tape.backward(out)
        grads = store["moe.categories"].grad
        assert np.abs(grads[1]).sum() > 0 and np.abs(grads[3]).sum() > 0
        assert np.abs(grads[0]).sum() == 0  # unused row untouched
    assert worst < 1e-4, worst


def test_no_category_ablation_ignores_the_table(cfg):
    cfg0 = toy_model_config(ablation="no_category")
    store = init_params(cfg0, seeded_rng(0))
    x = seeded_rng(1).normal(size=(1, cfg0.joint_dim))
    a = joint_scores(Matrix(x), [0], [0], store.bind(), cfg0).item()
    store["moe.categories"].value[...] += 9.0
    b = joint_scores(Matrix(x), [3], [2], store.bind(), cfg0).item()
    assert a == b


def test_single_head_ablations_score_without_gate(cfg):
    for ablation in ("no_moe", "simple_match"):
        acfg = toy_model_config(ablation=ablation)
        store = init_params(acfg, seeded_rng(0))
        assert "moe.gate.w1" not in store
        assert store["moe.w1"].value.shape == (acfg.joint_dim, acfg.expert_hidden[0])
        x = seeded_rng(2).normal(size=(1, acfg.joint_dim))
        got = joint_scores(Matrix(x), [0], [1], store.bind(), acfg).item()
        np.testing.assert_allclose(got, float(np_ffn(x, store, 0, acfg)[0, 0]), rtol=1e-12)
