"""Primitive-level oracles, gradient checks, and optimizer behavior."""

import math
import os
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjfit.numerics import (
    DimensionError,
    Matrix,
    ParamStore,
    Tape,
    TrainingDivergedError,
    adam_step,
    ops,
    seeded_rng,
)
from pjfit.numerics import optim


from conftest import store_of
from gradcheck import finite_diff_check, sum_all
from reference_model import np_attention


def taped(*arrays):
    tape = Tape()
    return tape, [Matrix(a, tape) for a in arrays]


# ---------------------------------------------------------------- affine


def test_affine_identity_input_returns_weights():
    w = np.array([[1.5, -2.0], [0.25, 3.0]])
    _, (x, wm, b) = taped(np.eye(2), w, np.zeros((1, 2)))
    out = ops.affine(x, wm, b)
    np.testing.assert_array_equal(out.data, w)


def test_affine_sum_plus_bias():
    _, (x, w, b) = taped([[1.0, 2.0]], [[1.0], [1.0]], [[3.0]])
    assert ops.affine(x, w, b).item() == 6.0


def test_affine_matches_triple_loop_oracle():
    rng = seeded_rng(0)
    x = np.array([[0.3, -0.7]])
    w = rng.normal(size=(2, 3))
    b = np.zeros((1, 3))
    expected = np.zeros((1, 3))
    for i in range(1):
        for j in range(3):
            acc = 0.0
            for k in range(2):
                acc += x[i, k] * w[k, j]
            expected[i, j] = acc + b[0, j]
    _, (xm, wm, bm) = taped(x, w, b)
    np.testing.assert_allclose(ops.affine(xm, wm, bm).data, expected, rtol=0, atol=1e-15)


def test_affine_shape_mismatch_names_both_shapes():
    _, (x, w, b) = taped(np.zeros((1, 3)), np.zeros((2, 2)), np.zeros((1, 2)))
    with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
        ops.affine(x, w, b)


# ---------------------------------------------------------------- relu


def test_relu_clamps_negatives():
    _, (x,) = taped([[-1.0, 0.0, 2.0]])
    np.testing.assert_array_equal(ops.relu(x).data, [[0.0, 0.0, 2.0]])


def test_relu_all_negative_blocks_gradient():
    tape, (x,) = taped([[-1.0, -5.0]])
    out = sum_all(ops.relu(x))
    tape.backward(out)
    np.testing.assert_array_equal(x.grad, np.zeros((1, 2)))


def test_relu_matches_scalar_loop_oracle():
    rng = seeded_rng(3)
    a = rng.normal(size=(4, 5))
    _, (x,) = taped(a)
    got = ops.relu(x).data
    for i in range(4):
        for j in range(5):
            assert got[i, j] == max(0.0, a[i, j])


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry():
    _, (x,) = taped([[0.0, 0.0]])
    np.testing.assert_allclose(ops.softmax_rows(x).data, [[0.5, 0.5]], atol=1e-15)


def test_softmax_large_values_no_overflow():
    _, (x,) = taped([[1000.0, 1000.0, 1000.0]])
    out = ops.softmax_rows(x).data
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-12)


def test_softmax_matches_extended_precision_oracle():
    # direct e^x_i / sum e^x_j at 50 decimal digits
    with mpmath.workdps(50):
        exps = [mpmath.exp(v) for v in (1, 2, 3)]
        total = sum(exps)
        expected = [float(e / total) for e in exps]
    _, (x,) = taped([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(ops.softmax_rows(x).data, [expected], rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1000, max_value=1000), min_size=1, max_size=8))
def test_softmax_rows_sum_to_one(values):
    _, (x,) = taped([values])
    assert abs(ops.softmax_rows(x).data.sum() - 1.0) < 1e-9


# ---------------------------------------------------------------- attention


def test_attention_single_unmasked_row_returns_that_v_row():
    rng = seeded_rng(1)
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    _, (qm, km, vm) = taped(q, k, v)
    out = ops.segment_attention(qm, km, vm, [[1, 2]], np.arange(3), 1)
    np.testing.assert_allclose(out.data, v[1:2], atol=1e-15)


def test_attention_fully_masked_returns_zeros_and_no_gradients():
    rng = seeded_rng(2)
    tape, (q, k, v) = taped(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
    out = ops.segment_attention(q, k, v, [[0, 0], [3, 3]], np.arange(3), 1)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))
    tape.backward(sum_all(out))
    np.testing.assert_array_equal(k.grad, np.zeros((3, 4)))
    np.testing.assert_array_equal(v.grad, np.zeros((3, 4)))
    np.testing.assert_array_equal(q.grad, np.zeros((2, 4)))


def test_attention_matches_step_by_step_oracle():
    rng = seeded_rng(0)
    q = rng.normal(size=(1, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 4))
    # explicit logits, explicit softmax, explicit weighted sum
    logits = np.array([[float(q[0] @ k[r]) / math.sqrt(4) for r in range(3)]])
    e = np.exp(logits - logits.max())
    w = e / e.sum()
    expected = sum(w[0, r] * v[r] for r in range(3))
    _, (qm, km, vm) = taped(q, k, v)
    out = ops.segment_attention(qm, km, vm, [[0, 3]], np.arange(3), 1)
    np.testing.assert_allclose(out.data[0], expected, rtol=1e-12)


def test_segment_attention_matches_per_query_oracle_with_empty_and_shared_ranges():
    rng = seeded_rng(3)
    q = rng.normal(size=(5, 4))
    k = rng.normal(size=(7, 4))
    v = rng.normal(size=(7, 3))
    ranges = np.array([[0, 3], [3, 3], [3, 7], [0, 3], [6, 7]])  # rows 0 and 3 share a range
    _, (qm, km, vm) = taped(q, k, v)
    out = ops.segment_attention(qm, km, vm, ranges, np.arange(7), 1)
    for i, (lo, hi) in enumerate(ranges):
        expected = np_attention(q[i:i + 1], k[lo:hi], v[lo:hi], np.ones(hi - lo, dtype=bool))
        np.testing.assert_allclose(out.data[i:i + 1], expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(out.data[1], np.zeros(3))


def test_segment_attention_reads_keys_through_a_row_map():
    # 8 packed keys over 5 k/v rows: row 1 is named three times, row 3 twice,
    # row 4 by no key; the oracle attends over the gathered rows
    rng = seeded_rng(4)
    q = rng.normal(size=(4, 4))
    k = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 3))
    row_map = np.array([1, 0, 3, 1, 2, 3, 1, 0])
    ranges = np.array([[0, 3], [3, 8], [2, 2], [0, 3]])
    _, (qm, km, vm) = taped(q, k, v)
    out = ops.segment_attention(qm, km, vm, ranges, row_map, 1)
    for i, (lo, hi) in enumerate(ranges):
        rows = row_map[lo:hi]
        expected = np_attention(q[i:i + 1], k[rows], v[rows], np.ones(hi - lo, dtype=bool))
        np.testing.assert_allclose(out.data[i:i + 1], expected, rtol=1e-12, atol=1e-15)
    with pytest.raises(IndexError):
        ops.segment_attention(qm, km, vm, [[0, 9]] * 4, row_map, 1)  # past the last packed key
    with pytest.raises(IndexError):
        ops.segment_attention(qm, km, vm, ranges, [1, 0, 5, 1, 2, 3, 1, 0], 1)  # past the last k/v row
    with pytest.raises(IndexError):
        ops.segment_attention(qm, km, vm, ranges, [1, 0, -1, 1, 2, 3, 1, 0], 1)


def _tiled_attention_case(rng, n, n_rows, tiles, dk=4, dv=3, heads=1):
    """Queries over packed keys, most of the k/v rows named by no query.

    q and k are ``heads`` blocks of ``dk`` columns wide, v ``heads`` blocks
    of ``dv``.

    Each query names 3-5 random k/v rows through a row map, except that
    one range names a row twice, two ranges are empty, the queries on each
    side of every cut between ``tiles`` equal parts share one range, and
    row 7 is named by the first and the last query.
    """
    keys, ranges = [], []
    cuts = set((np.arange(1, tiles) * n // tiles).tolist())
    for i in range(n):
        if i in (5, n - 8):
            ranges.append((len(keys), len(keys)))
            continue
        if i in cuts:
            ranges.append(ranges[-1])
            continue
        named = rng.integers(0, n_rows, size=rng.integers(3, 6)).tolist()
        if i == 2:
            named.append(named[0])
        if i in (0, n - 1):
            named[-1] = 7
        ranges.append((len(keys), len(keys) + len(named)))
        keys += named
    q = rng.normal(size=(n, heads * dk))
    k = rng.normal(size=(n_rows, heads * dk))
    v = rng.normal(size=(n_rows, heads * dv))
    return q, k, v, np.array(ranges), np.array(keys)


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_tiled_segment_attention_matches_per_query_oracle(heads):
    q, k, v, ranges, row_map = _tiled_attention_case(seeded_rng(6), 48, 400, tiles=3, heads=heads)
    _, (qm, km, vm) = taped(q, k, v)
    out = ops.segment_attention(qm, km, vm, ranges, row_map, heads)
    assert out.shape == (48, 3 * heads)
    for h in range(heads):
        qk, vo = slice(4 * h, 4 * h + 4), slice(3 * h, 3 * h + 3)
        for i, (lo, hi) in enumerate(ranges):
            rows = row_map[lo:hi]
            expected = np_attention(q[i:i + 1, qk], k[rows, qk], v[rows, vo],
                                    np.ones(hi - lo, dtype=bool))
            np.testing.assert_allclose(out.data[i:i + 1, vo], expected, rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(out.data[[5, 40]], np.zeros((2, 3 * heads)))


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_tiled_segment_attention_is_bitwise_repeatable(heads):
    q, k, v, ranges, row_map = _tiled_attention_case(seeded_rng(7), 48, 400, tiles=3, heads=heads)
    probe = seeded_rng(8).normal(size=(48, 3 * heads))

    def run():
        tape, (qm, km, vm) = taped(q, k, v)
        out = ops.segment_attention(qm, km, vm, ranges, row_map, heads)
        tape.backward(sum_all(ops.mul(out, Matrix(probe))))
        return [m.tobytes() for m in (out.data, qm.grad, km.grad, vm.grad)]

    assert run() == run()


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_gradients_tiled_attention(heads):
    # rows shared across queries and a row named twice in one range
    # accumulate every gradient, empty ranges pass none
    def builder(rng):
        q, k, v, ranges, row_map = _tiled_attention_case(rng, 17, 160, tiles=2, dk=3, dv=2,
                                                         heads=heads)
        store = _store_with(rng, [("q", q.shape), ("k", k.shape), ("v", v.shape)])
        probe = rng.normal(size=(17, 2 * heads))
        def f(s):
            bound = s.bind(Tape())
            att = ops.segment_attention(bound["q"], bound["k"], bound["v"], ranges, row_map, heads)
            return sum_all(ops.mul(att, Matrix(probe)))
        return store, f
    _fd_case(f"tiled attention, {heads} heads", builder, seeds=range(3))


def test_attention_uniform_logits_returns_mean_of_v_rows():
    rng = seeded_rng(5)
    v = rng.normal(size=(6, 3))
    _, (q, k, vm) = taped(np.zeros((1, 3)), rng.normal(size=(6, 3)), v)
    out = ops.segment_attention(q, k, vm, [[0, 6]], np.arange(6), 1)
    np.testing.assert_allclose(out.data[0], v.mean(axis=0), atol=1e-12)


def test_attention_mask_length_mismatch():
    _, (q, k, v) = taped(np.zeros((1, 4)), np.zeros((3, 4)), np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        ops.segment_attention(q, k, v, [[0, 1], [0, 2]], np.arange(3), 1)  # two ranges, one query
    with pytest.raises(IndexError):
        ops.segment_attention(q, k, v, [[1, 4]], np.arange(3), 1)  # past the last key row
    with pytest.raises(IndexError):
        ops.segment_attention(q, k, v, [[2, 1]], np.arange(3), 1)  # hi before lo


@pytest.mark.parametrize("q_cols, v_cols, heads", [
    (6, 4, 4),  # 4 heads divide v but not q and k
    (6, 3, 2),  # 2 heads divide q and k but not v
    (6, 6, 0),
])
def test_attention_heads_must_divide_q_and_v(q_cols, v_cols, heads):
    _, (q, k, v) = taped(np.zeros((1, q_cols)), np.zeros((3, q_cols)), np.zeros((3, v_cols)))
    with pytest.raises(DimensionError, match=f"{heads} heads do not divide"):
        ops.segment_attention(q, k, v, [[0, 3]], np.arange(3), heads)


# ------------------------------------------------- per-primitive gradients


def _fd_case(name, builder, seeds=range(50)):
    worst = 0.0
    for seed in seeds:
        rng = seeded_rng(seed)
        store, f = builder(rng)
        worst = max(worst, finite_diff_check(f, store, h=1e-5))
    assert worst < 1e-4, f"{name}: max relative error {worst}"


def _store_with(rng, specs):
    return store_of(*((name, rng.normal(size=shape)) for name, shape in specs))


def test_gradients_affine_relu_chain():
    def builder(rng):
        store = _store_with(rng, [("x", (2, 3)), ("w", (3, 4)), ("b", (1, 4))])
        def f(s):
            bound = s.bind(Tape())
            return sum_all(ops.relu(ops.affine(bound["x"], bound["w"], bound["b"])))
        return store, f
    _fd_case("affine+relu", builder)


def test_gradients_affine_with_a_whole_matrix_bias():
    def builder(rng):
        store = _store_with(rng, [("x", (3, 2)), ("w", (2, 4)), ("b", (3, 4))])
        def f(s):
            bound = s.bind(Tape())
            return sum_all(ops.relu(ops.affine(bound["x"], bound["w"], bound["b"])))
        return store, f
    _fd_case("affine with a whole bias", builder)


def test_affine_bias_of_another_shape_is_rejected():
    x, w = Matrix(np.zeros((3, 2))), Matrix(np.zeros((2, 4)))
    with pytest.raises(DimensionError, match=r"\(1, 4\) or \(3, 4\)"):
        ops.affine(x, w, Matrix(np.zeros((2, 4))))


def test_gradients_softmax():
    def builder(rng):
        store = _store_with(rng, [("x", (3, 5))])
        probe = rng.normal(size=(3, 5))
        def f(s):
            bound = s.bind(Tape())
            return sum_all(ops.mul(ops.softmax_rows(bound["x"]), Matrix(probe)))
        return store, f
    _fd_case("softmax", builder)


def test_gradients_attention_with_partial_mask():
    # shared, partial and empty ranges over the same packed keys
    ranges = np.array([[0, 2], [1, 4], [0, 2], [2, 2]])
    def builder(rng):
        store = _store_with(rng, [("q", (4, 4)), ("k", (4, 4)), ("v", (4, 3))])
        probe = rng.normal(size=(4, 3))
        def f(s):
            bound = s.bind(Tape())
            att = ops.segment_attention(bound["q"], bound["k"], bound["v"], ranges, np.arange(4), 1)
            return sum_all(ops.mul(att, Matrix(probe)))
        return store, f
    _fd_case("attention", builder)


def test_gradients_attention_through_a_row_map():
    # repeated k/v rows accumulate the gradients of every key that names
    # them; row 4 is named by none and gets none
    row_map = np.array([1, 0, 3, 1, 2, 3, 1, 0])
    ranges = np.array([[0, 3], [3, 8], [2, 2], [1, 7]])
    def builder(rng):
        store = _store_with(rng, [("q", (4, 4)), ("k", (5, 4)), ("v", (5, 3))])
        probe = rng.normal(size=(4, 3))
        def f(s):
            bound = s.bind(Tape())
            att = ops.segment_attention(bound["q"], bound["k"], bound["v"], ranges, row_map, 1)
            return sum_all(ops.mul(att, Matrix(probe)))
        return store, f
    _fd_case("attention through a row map", builder)


def test_gradients_glue_ops():
    # concat, gather, add and mul in one composite; mul's two inputs both
    # on the tape, or one of them a constant
    def builder(rng):
        store = _store_with(rng, [("table", (5, 3)), ("a", (2, 3)), ("b", (2, 3))])
        probe = rng.normal(size=(3, 6))
        def f(s):
            bound = s.bind(Tape())
            picked = ops.gather_rows(bound["table"], [4, 0, 4])
            # repeated indices: their gradients add up
            mixed = ops.gather_rows(ops.add(bound["a"], ops.mul(bound["a"], bound["b"])), [0, 1, 1])
            joined = ops.concat_cols([picked, mixed])
            return sum_all(ops.mul(ops.add(joined, Matrix(probe)), joined))
        return store, f
    _fd_case("glue", builder)


def test_gradients_split_cols():
    # each block weighted apart, one block unused: its columns get no gradient
    def builder(rng):
        store = _store_with(rng, [("x", (3, 8))])
        probes = rng.normal(size=(3, 3, 2))
        def f(s):
            bound = s.bind(Tape())
            blocks = ops.split_cols(ops.relu(bound["x"]), 4)
            return sum_all(ops.concat_cols([ops.mul(b, Matrix(p))
                                            for b, p in zip(blocks[:3], probes)]))
        return store, f
    _fd_case("split_cols", builder)


def test_concat_of_split_cols_is_bitwise_the_input():
    x = Matrix(seeded_rng(1).normal(size=(5, 12)))
    for parts in (1, 2, 3, 4, 6, 12):
        blocks = ops.split_cols(x, parts)
        assert [b.shape for b in blocks] == [(5, 12 // parts)] * parts
        assert ops.concat_cols(blocks).data.tobytes() == x.data.tobytes()


@pytest.mark.parametrize("parts", [0, 5, 13])
def test_split_cols_parts_must_divide_the_width(parts):
    with pytest.raises(DimensionError, match=f"{parts} parts do not divide"):
        ops.split_cols(Matrix(np.zeros((2, 12))), parts)


# ---------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_parameter_and_moments_alone():
    store = store_of(("w", [[1.0, 2.0]]))
    p = store["w"]
    adam_step(store, lr=0.1, step=1)
    np.testing.assert_array_equal(p.value, [[1.0, 2.0]])
    np.testing.assert_array_equal(p.m, np.zeros((1, 2)))
    np.testing.assert_array_equal(p.v, np.zeros((1, 2)))


def test_adam_first_step_matches_hand_evaluated_recurrence():
    # grad=1, step=1: m_hat=1, v_hat=1, update = -lr / (1 + eps)
    store = store_of(("w", [[0.0]]))
    p = store["w"]
    p.grad[...] = 1.0
    adam_step(store, lr=1e-4, step=1)
    expected = -1e-4 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.value, [[expected]], rtol=1e-12)
    assert abs(p.value[0, 0] + 1e-4) < 1e-10


def test_adam_nan_gradient_names_parameter():
    store = store_of(("ok", [[1.0]]), ("gate.w1", [[1.0]]))
    bad = store["gate.w1"]
    bad.grad[...] = np.nan
    with pytest.raises(TrainingDivergedError, match="gate.w1"):
        adam_step(store, lr=0.1, step=1)


def test_adam_run_is_bitwise_deterministic():
    def run():
        rng = seeded_rng(11)
        store = store_of(("w", rng.uniform(-1.0, 1.0, (4, 4))))
        for step in range(1, 6):
            tape = Tape()
            bound = store.bind(tape)
            r = ops.relu(bound["w"])
            out = sum_all(ops.mul(r, r))
            tape.backward(out)
            adam_step(store, lr=1e-2, step=step)
        return store["w"].value.copy()

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def _textbook_adam_step(state, lr, step, beta1=0.9, beta2=0.999, eps=1e-8):
    """The unblocked update over whole arrays, as the oracle for adam_step."""
    for s in state.values():
        grad = s["grad"] if s["grad"] is not None else 0.0
        if s["m"] is None:
            s["m"] = np.zeros_like(s["value"])
            s["v"] = np.zeros_like(s["value"])
        s["m"] = s["m"] * beta1 + (1.0 - beta1) * grad
        s["v"] = s["v"] * beta2 + (1.0 - beta2) * np.square(grad)
        m_hat = s["m"] / (1.0 - beta1 ** step)
        v_hat = s["v"] / (1.0 - beta2 ** step)
        s["value"] = s["value"] - lr * m_hat / (np.sqrt(v_hat) + eps)
        if s["grad"] is not None:
            s["grad"] = np.zeros_like(s["value"])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_blocked_adam_is_bitwise_equal_to_the_textbook_update():
    rng = seeded_rng(5)
    shapes = {
        "big": (3, optim.BLOCK + 5),  # four blocks, the last one ragged
        "bias": (1, 1),
        "sometimes": (4, 7),  # no gradient buffer on steps 1 and 4
    }
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    store = store_of(*values.items())
    state = {name: {"value": value.copy(), "m": None, "v": None, "grad": None}
             for name, value in values.items()}
    for step in range(1, 6):
        store.release_grads()
        for name, p in store.items():
            if name == "sometimes" and step in (1, 4):
                state[name]["grad"] = None
                if step == 4:
                    # moments set from outside may hold -0.0; the absent
                    # gradient still adds 0.0, which turns them into +0.0
                    for key in ("m", "v"):
                        getattr(p, key)[0, :3] = -0.0
                        state[name][key][0, :3] = -0.0
                continue
            grad = rng.normal(size=p.value.shape)
            grad[rng.random(size=grad.shape) < 0.2] = -0.0
            p.grad[...] = grad
            state[name]["grad"] = grad.copy()
        adam_step(store, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        for name, p in store.items():
            want = state[name]
            assert _same_bits(p.value, want["value"]), (name, step)
            if want["m"] is None:
                assert p.m is None and p.v is None
            else:
                assert _same_bits(p.m, want["m"]) and _same_bits(p.v, want["v"]), (name, step)
            assert p.has_grad == (want["grad"] is not None)
            if p.has_grad:
                assert _same_bits(p.grad, want["grad"]), (name, step)


def test_divergent_gradient_changes_nothing():
    rng = seeded_rng(6)
    store = store_of(*((name, rng.normal(size=(2, optim.BLOCK + 3))) for name in ("a", "b", "c")))
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    adam_step(store, lr=1e-2, step=1)
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    store["c"].grad[1, -1] = np.nan  # the last element of the last parameter
    before = {name: [a.copy() for a in (p.value, p.m, p.v, p.grad)]
              for name, p in store.items()}
    with pytest.raises(TrainingDivergedError, match="'c'"):
        adam_step(store, lr=1e-2, step=2)
    for name, p in store.items():
        for got, want in zip((p.value, p.m, p.v, p.grad), before[name]):
            assert _same_bits(got, want), name


def _shard_into(monkeypatch, workers, elements, block):
    """Make adam_step cut ``elements`` into ``workers`` shards of blocks of
    ``block``: a lowered cutoff on ``workers`` usable CPUs. Returns the
    (lo, hi, thread) of every update shard as it runs."""
    monkeypatch.setattr(optim, "BLOCK", block)
    monkeypatch.setattr(optim, "CUTOFF", elements // workers)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    assert optim.worker_count(elements) == workers
    shards = []
    update = optim._update

    def recorded(buffers, lo, hi, *args):
        shards.append((lo, hi, threading.get_ident()))
        return update(buffers, lo, hi, *args)

    monkeypatch.setattr(optim, "_update", recorded)
    return shards


def test_worker_count_is_cpus_capped_by_the_cutoff(monkeypatch):
    monkeypatch.setattr(optim, "CUTOFF", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert [optim.worker_count(n) for n in (0, 199, 200, 299, 300, 10 ** 9)] == [1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sharded_adam_is_bitwise_equal_to_the_textbook_update(monkeypatch, workers):
    # 140 elements in blocks of 16: the cuts at 70 (two shards) and at 46
    # and 93 (three) fall inside "big" and inside one of its blocks
    shapes = {"big": (3, 37), "bias": (1, 1), "sometimes": (4, 7)}
    shards = _shard_into(monkeypatch, workers, 140, 16)
    rng = seeded_rng(15)
    store = _store_with(rng, shapes.items())
    state = {name: {"value": p.value.copy(), "m": None, "v": None, "grad": None}
             for name, p in store.items()}
    threads = threading.active_count()
    for step in range(1, 5):
        store.release_grads()
        for name, p in store.items():
            if name == "sometimes" and step in (1, 3):
                state[name]["grad"] = None  # reads its zeros in the gradient buffer
                continue
            grad = rng.normal(size=p.value.shape)
            grad[rng.random(size=grad.shape) < 0.2] = -0.0
            p.grad[...] = grad
            state[name]["grad"] = grad.copy()
        del shards[:]
        adam_step(store, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        cuts = [140 * i // workers for i in range(workers + 1)]
        assert sorted(s[:2] for s in shards) == list(zip(cuts, cuts[1:]))
        # the first shard on the calling thread, the rest on pool threads
        assert [lo == 0 for lo, _, t in shards if t == threading.get_ident()] == [True]
        assert threading.active_count() == threads  # no thread outlives the call
        for name, p in store.items():
            want = state[name]
            assert _same_bits(p.value, want["value"]), (name, step)
            assert _same_bits(p.m, want["m"]) and _same_bits(p.v, want["v"]), (name, step)
            assert p.has_grad == (want["grad"] is not None)
            if p.has_grad:
                assert _same_bits(p.grad, want["grad"]), (name, step)


@pytest.mark.parametrize("bad", [["d"], ["b", "d"], ["c", "d"]])
def test_non_finite_check_names_the_first_bad_parameter_across_shards(monkeypatch, bad):
    # two shards cut at 40: "a" and "b" in the first, "c" and "d" in the second
    _shard_into(monkeypatch, 2, 80, 8)
    rng = seeded_rng(16)
    store = _store_with(rng, [("a", (2, 10)), ("b", (4, 5)), ("c", (3, 10)), ("d", (1, 10))])
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    adam_step(store, lr=1e-2, step=1)
    for name, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    for name in bad:
        store[name].grad[-1, -1] = np.inf
    before = {name: [a.copy() for a in (p.value, p.m, p.v, p.grad)]
              for name, p in store.items()}
    with pytest.raises(TrainingDivergedError, match=f"'{bad[0]}'"):
        adam_step(store, lr=1e-2, step=2)
    for name, p in store.items():
        for got, want in zip((p.value, p.m, p.v, p.grad), before[name]):
            assert _same_bits(got, want), name


def test_an_exception_in_a_worker_shard_is_raised_to_the_caller(monkeypatch):
    _shard_into(monkeypatch, 3, 90, 8)
    store = _store_with(seeded_rng(17), [("w", (9, 10))])
    update = optim._update
    ran = []

    def failing(buffers, lo, hi, *args):
        ran.append(lo)
        if lo == 30:
            raise MemoryError("shard [30, 60)")
        return update(buffers, lo, hi, *args)

    monkeypatch.setattr(optim, "_update", failing)
    threads = threading.active_count()
    with pytest.raises(MemoryError, match=r"shard \[30, 60\)"):
        adam_step(store, lr=1e-2, step=1)
    assert sorted(ran) == [0, 30, 60]
    assert threading.active_count() == threads


def test_adam_first_step_writes_the_moments_bitwise_as_the_textbook_update():
    # the first step writes m and v without reading them: -0.0, +0.0 and
    # denormal gradients give the bits of the update from zero moments,
    # +0.0 moments included
    rng = seeded_rng(18)
    grad = rng.normal(size=(3, 40))
    grad[0, :8] = -0.0
    grad[1, :8] = 0.0
    grad[2, :8] = [5e-324, -5e-324, 1e-310, -1e-310, 1e150, -1e150, 1e-160, -1e-160]
    store = store_of(("w", rng.normal(size=(3, 40))))
    state = {"w": {"value": store["w"].value.copy(), "m": None, "v": None, "grad": grad.copy()}}
    store["w"].grad[...] = grad
    adam_step(store, lr=1e-2, step=1)
    _textbook_adam_step(state, lr=1e-2, step=1)
    p, want = store["w"], state["w"]
    assert _same_bits(p.value, want["value"])
    assert _same_bits(p.m, want["m"]) and _same_bits(p.v, want["v"])
    assert not np.signbit(p.m[p.m == 0.0]).any()
    # moments that exist take the general path, which reads them
    p.m[...] = want["m"] = rng.normal(size=(3, 40))
    p.v[...] = want["v"] = rng.random(size=(3, 40))
    p.m[0, :3] = want["m"][0, :3] = -0.0
    p.grad[...] = want["grad"] = grad[::-1].copy()
    adam_step(store, lr=1e-2, step=2)
    _textbook_adam_step(state, lr=1e-2, step=2)
    assert _same_bits(p.value, want["value"])
    assert _same_bits(p.m, want["m"]) and _same_bits(p.v, want["v"])


# ------------------------------------------------------- gradient lifecycle


def _lifecycle_case(seed):
    """Integer data, so that every sum is exact in any order."""
    rng = seeded_rng(seed)
    ints = lambda *shape: rng.integers(-3, 4, size=shape).astype(np.float64)
    return {"x1": ints(5, 4), "x2": ints(5, 4), "x3": ints(5, 3), "probe": ints(5, 3),
            "extra": ints(4, 3)}


def _lifecycle_step(store, data, reach_dead, grad_write_at):
    """One taped step over "w" (4 x 3) and "dead" (3 x 3); returns the
    gradients accumulated from zero.

    Two products read "w", so two closures reach its gradient: the first
    writes it, the second adds. "dead" is bound and multiplied every step,
    but its product reaches the loss only with ``reach_dead``, as an empty
    stage's attention set does not. With ``grad_write_at`` 0, 1 or 2, a
    closure adds ``extra`` to "w" through ``Param.grad``, running first,
    between the two products' closures, or last in the backward."""
    tape = Tape()
    bound = store.bind(tape)

    def write():
        store["w"].grad[...] += data["extra"]

    if grad_write_at == 2:
        tape.record(write)
    a = ops.matmul(Matrix(data["x1"]), bound["w"])
    if grad_write_at == 1:
        tape.record(write)
    b = ops.matmul(Matrix(data["x2"]), bound["w"])
    dead = ops.matmul(Matrix(data["x3"]), bound["dead"])
    if grad_write_at == 0:
        tape.record(write)
    probe = Matrix(data["probe"])
    loss = sum_all(ops.mul(ops.add(a, b), probe))
    if reach_dead:
        loss = ops.add(loss, sum_all(ops.mul(dead, probe)))
    tape.backward(loss)
    want = {"w": data["x1"].T @ data["probe"] + data["x2"].T @ data["probe"],
            "dead": np.zeros((3, 3))}
    if grad_write_at is not None:
        want["w"] += data["extra"]
    if reach_dead:
        want["dead"] += data["x3"].T @ data["probe"]
    return want


@pytest.mark.parametrize("read_grads", [True, False])
@pytest.mark.parametrize("grad_write_at", [0, 1, 2])
def test_gradients_over_two_steps_equal_accumulation_from_zero(grad_write_at, read_grads):
    # step 1 reaches "dead" and writes "w" through Param.grad; step 2 does
    # neither, so "dead" holds step 1's gradient until Adam zeroes it.
    # Reading the gradients (read_grads) zeroes them itself, so the unread
    # runs are the ones that show whether Adam would consume a stale
    # gradient.
    rng = seeded_rng(19)
    store = store_of(("w", rng.normal(size=(4, 3))), ("dead", rng.normal(size=(3, 3))))
    state = {name: {"value": p.value.copy(), "m": None, "v": None, "grad": None}
             for name, p in store.items()}
    for step, (reach_dead, write_at) in enumerate([(True, grad_write_at), (False, None)], 1):
        want = _lifecycle_step(store, _lifecycle_case(step), reach_dead, write_at)
        if read_grads:
            for name, p in store.items():
                np.testing.assert_array_equal(p.grad, want[name], err_msg=f"{name}, step {step}")
        for name in store.names():
            state[name]["grad"] = want[name]
        adam_step(store, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        for name, p in store.items():
            assert _same_bits(p.value, state[name]["value"]), (name, step)
            assert _same_bits(p.m, state[name]["m"]) and _same_bits(p.v, state[name]["v"]), (name, step)
    for name, p in store.items():
        assert _same_bits(p.grad, np.zeros_like(p.value)), name  # consumed: reads as zeros


def test_a_bound_view_reads_zeros_over_a_consumed_gradient():
    # after Adam the buffer still holds the 7s of the last step; a bound
    # parameter's gradient read before any closure reached it is zeros, and
    # a product into it then adds to those zeros
    store = store_of(("w", np.ones((3, 2))))
    store["w"].grad[...] = 7.0
    adam_step(store, lr=0.0, step=1)
    assert (store.buffers.grads == 7.0).all()  # consumed, not zeroed
    tape = Tape()
    w = store.bind(tape)["w"]
    np.testing.assert_array_equal(w.grad, np.zeros((3, 2)))
    x = Matrix([[1.0, 2.0, 3.0]])
    tape.backward(sum_all(ops.matmul(x, w)))
    np.testing.assert_array_equal(store["w"].grad, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


# ------------------------------------------------------------- init draw


# (count, limit) spans of a 146-value buffer. Two workers cut at 73 and
# three at 48 and 97, each inside a span; blocks of 16 cut every span.
_SPANS = [(60, 0.5), (80, 0.25), (6, 0.0)]


def _record_draws(monkeypatch, workers):
    monkeypatch.setattr(optim, "BLOCK", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    draws = []
    draw = optim._draw

    def recorded(values, limits, lo, hi, rng):
        draws.append((lo, hi, threading.get_ident()))
        return draw(values, limits, lo, hi, rng)

    monkeypatch.setattr(optim, "_draw", recorded)
    return draws


@pytest.mark.parametrize("workers, cuts", [(1, [0, 146]), (2, [0, 73, 146]), (3, [0, 48, 97, 146])])
def test_parallel_glorot_fill_is_bitwise_the_sequential_draw(monkeypatch, workers, cuts):
    want, sequential = seeded_rng(21), np.empty(146)
    optim.glorot_fill(sequential, _SPANS, want)
    monkeypatch.setattr(optim, "CUTOFF", 146 // workers)
    draws = _record_draws(monkeypatch, workers)
    values, rng = np.empty(146), seeded_rng(21)
    threads = threading.active_count()
    optim.glorot_fill(values, _SPANS, rng)
    assert sorted(d[:2] for d in draws) == list(zip(cuts, cuts[1:]))
    assert [lo == 0 for lo, _, t in draws if t == threading.get_ident()] == [True]
    assert threading.active_count() == threads
    assert values.tobytes() == sequential.tobytes()
    assert rng.bit_generator.state == want.bit_generator.state
    assert rng.random() == want.random()


# ------------------------------------------------------- gradcheck harness


def test_finite_diff_quadratic_is_nearly_exact():
    store = store_of(("theta", [[0.4, -1.2, 2.0]]))
    def f(s):
        bound = s.bind(Tape())
        return sum_all(ops.mul(bound["theta"], bound["theta"]))
    assert finite_diff_check(f, store) < 1e-9


def test_finite_diff_detects_corrupted_gradient():
    store = store_of(("theta", [[0.4, -1.2]]))

    def f(s):
        tape = Tape()
        bound = s.bind(tape)
        out = sum_all(ops.mul(bound["theta"], bound["theta"]))
        # corrupt the analytic gradient by +0.1 on the side
        tape.record(lambda: s["theta"].grad.__iadd__(0.1))
        return out

    assert finite_diff_check(f, store) > 1e-2


# ------------------------------------------------------- store plumbing


def test_paramstore_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        ParamStore([("w", 1, 1), ("w", 1, 1)])


def test_paramstore_iteration_is_insertion_order():
    store = ParamStore([(name, 1, 1) for name in ("z", "a", "m")])
    assert store.names() == ["z", "a", "m"]


def test_bound_params_share_gradient_buffers():
    store = store_of(("w", [[2.0]]))
    p = store["w"]
    tape = Tape()
    bound = store.bind(tape)
    out = ops.mul(bound["w"], bound["w"])
    tape.backward(out)
    assert p.grad[0, 0] == 4.0  # d(w^2)/dw at w=2


def test_constants_get_no_gradient_buffer():
    store = store_of(("w", [[2.0, -1.0], [0.5, 3.0]]))
    tape = Tape()
    bound = store.bind(tape)
    x = Matrix([[1.0, 2.0]])
    joined = ops.concat_cols([ops.matmul(x, bound["w"]), x])
    out = sum_all(ops.mul(joined, joined))
    tape.backward(out)
    assert x.tape is None and not x.has_grad
    assert store["w"].has_grad and np.abs(store["w"].grad).sum() > 0


def test_gradient_buffers_are_allocated_on_first_taped_use():
    store = store_of(("w", [[2.0]]), ("unused", [[1.0]]))
    p = store["w"]
    w = store.bind()["w"]
    ops.mul(w, w)  # untaped: inference allocates nothing
    assert not p.has_grad
    adam_step(store, lr=0.1, step=1)  # no buffer reads as a zero gradient
    np.testing.assert_array_equal(p.value, [[2.0]])
    assert not p.has_grad

    def f(s):
        bound = s.bind(Tape())
        return sum_all(ops.mul(bound["w"], bound["w"]))

    assert finite_diff_check(f, store) < 1e-9  # "unused" never gets a buffer
    assert p.has_grad and not store["unused"].has_grad


def test_mixing_tapes_is_an_error():
    a = Matrix([[1.0]], Tape())
    b = Matrix([[1.0]], Tape())
    with pytest.raises(ValueError, match="different tapes"):
        ops.add(a, b)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_glorot_draws_in_place_as_rng_uniform_does(seed):
    # filled into a view of a larger buffer: per span the bits of
    # rng.uniform(-limit, limit), a zero limit giving +0.0, the rest of the
    # buffer untouched and the generator left where rng.uniform leaves it
    want, got = seeded_rng(seed), seeded_rng(seed)
    spans = [(rows * cols, np.sqrt(6.0 / (rows + cols))) for rows, cols in ((7, 3), (1, 5), (12, 15))]
    spans.insert(2, (4, 0.0))
    n = sum(count for count, _ in spans)
    buffer = np.full(n + 6, 9.0)
    optim.glorot_fill(buffer[3:3 + n], spans, got)
    expected = np.concatenate([want.uniform(-limit, limit, count) for count, limit in spans])
    assert buffer[3:3 + n].tobytes() == expected.tobytes()
    assert not np.signbit(buffer[3 + 26:3 + 30]).any()
    assert (buffer[:3] == 9.0).all() and (buffer[3 + n:] == 9.0).all()
    assert got.random() == want.random()


def test_seeded_rng_reproduces_stream():
    a = seeded_rng(123).normal(size=8)
    b = seeded_rng(123).normal(size=8)
    np.testing.assert_array_equal(a, b)
