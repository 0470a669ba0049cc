"""Primitive-level oracles, gradient checks, and optimizer behavior."""

import ctypes
import gc
import math
import os
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjfit.config import ABLATIONS, ModelConfig
from pjfit.model import param_spec
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
from pjfit.numerics import optim, params


from conftest import adam_moments, moments_of, store_of
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
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=0.1, step=1)
    np.testing.assert_array_equal(p.value, [[1.0, 2.0]])
    pm, pv = moments_of(p, m, v)
    np.testing.assert_array_equal(pm, np.zeros((1, 2)))
    np.testing.assert_array_equal(pv, np.zeros((1, 2)))


def test_adam_first_step_matches_hand_evaluated_recurrence():
    # grad=1, step=1: m_hat=1, v_hat=1, update = -lr / (1 + eps)
    store = store_of(("w", [[0.0]]))
    p = store["w"]
    p.grad[...] = 1.0
    adam_step(store, *adam_moments(store), lr=1e-4, step=1)
    expected = -1e-4 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.value, [[expected]], rtol=1e-12)
    assert abs(p.value[0, 0] + 1e-4) < 1e-10


def test_adam_nan_gradient_names_parameter():
    store = store_of(("ok", [[1.0]]), ("gate.w1", [[1.0]]))
    bad = store["gate.w1"]
    bad.grad[...] = np.nan
    with pytest.raises(TrainingDivergedError, match="gate.w1"):
        adam_step(store, *adam_moments(store), lr=0.1, step=1)


@pytest.mark.parametrize("bad", ["short", "float32", "read-only"])
def test_adam_refuses_moments_that_do_not_fit_before_any_write(bad):
    store = store_of(("w", [[1.0, 2.0]]), ("b", [[3.0]]))
    store["w"].grad[...] = 1.0
    m, v = adam_moments(store)
    if bad == "short":
        v = v[:-1]
    elif bad == "float32":
        v = v.astype(np.float32)
    else:
        v.flags.writeable = False
    with pytest.raises(ValueError, match=r"moments must be writable float64 arrays of shape \(3,\)"):
        adam_step(store, m, v, lr=0.1, step=1)
    assert store.values.tolist() == [1.0, 2.0, 3.0] and not m.any()
    assert store["w"].reached


def test_adam_run_is_bitwise_deterministic():
    def run():
        rng = seeded_rng(11)
        store = store_of(("w", rng.uniform(-1.0, 1.0, (4, 4))))
        m, v = adam_moments(store)
        for step in range(1, 6):
            tape = Tape()
            bound = store.bind(tape)
            r = ops.relu(bound["w"])
            out = sum_all(ops.mul(r, r))
            tape.backward(out)
            adam_step(store, m, v, lr=1e-2, step=step)
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
        "sometimes": (4, 7),  # no gradient on steps 1 and 4
    }
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    store = store_of(*values.items())
    state = {name: {"value": value.copy(), "m": None, "v": None, "grad": None}
             for name, value in values.items()}
    m, v = adam_moments(store)
    for step in range(1, 6):
        store.release_grads()
        for name, p in store.items():
            if name == "sometimes" and step in (1, 4):
                state[name]["grad"] = None
                if step == 4:
                    # moments set from outside may hold -0.0; the absent
                    # gradient still adds 0.0, which turns them into +0.0
                    for key, moment in zip(("m", "v"), moments_of(p, m, v)):
                        moment[0, :3] = -0.0
                        state[name][key][0, :3] = -0.0
                continue
            grad = rng.normal(size=p.value.shape)
            grad[rng.random(size=grad.shape) < 0.2] = -0.0
            p.grad[...] = grad
            state[name]["grad"] = grad.copy()
        for name, p in store.items():
            assert p.reached == (state[name]["grad"] is not None)
        adam_step(store, m, v, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        for name, p in store.items():
            want = state[name]
            assert _same_bits(p.value, want["value"]), (name, step)
            pm, pv = moments_of(p, m, v)
            assert _same_bits(pm, want["m"]) and _same_bits(pv, want["v"]), (name, step)
            if want["grad"] is not None:
                assert _same_bits(p.grad, want["grad"]), (name, step)


def test_divergent_gradient_changes_nothing():
    rng = seeded_rng(6)
    store = store_of(*((name, rng.normal(size=(2, optim.BLOCK + 3))) for name in ("a", "b", "c")))
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=1e-2, step=1)
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    store["c"].grad[1, -1] = np.nan  # the last element of the last parameter
    before = {name: [a.copy() for a in (p.value, *moments_of(p, m, v), p.grad)]
              for name, p in store.items()}
    with pytest.raises(TrainingDivergedError, match="'c'"):
        adam_step(store, m, v, lr=1e-2, step=2)
    for name, p in store.items():
        for got, want in zip((p.value, *moments_of(p, m, v), p.grad), before[name]):
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

    def recorded(lo, hi, *args):
        shards.append((lo, hi, threading.get_ident()))
        return update(lo, hi, *args)

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
    m, v = adam_moments(store)
    threads = threading.active_count()
    for step in range(1, 5):
        store.release_grads()
        for name, p in store.items():
            if name == "sometimes" and step in (1, 3):
                state[name]["grad"] = None  # nothing reached it: reads as zeros
                continue
            if name == "big" and step % 2 == 0:
                # two kept pairs, multiplied out by each shard that holds a
                # row of them: the cuts fall inside rows. Bound on a tape
                # first, as a backward pass's products are.
                store.bind(Tape())[name]
                pairs = [(rng.normal(size=(k, 3)), rng.normal(size=(k, 37))) for k in (1, 2)]
                for x, dy in pairs:
                    p.add_product(x, dy)
                assert len(p.factors) == 2
                state[name]["grad"] = _dense_sum(pairs)
                continue
            grad = rng.normal(size=p.value.shape)
            grad[rng.random(size=grad.shape) < 0.2] = -0.0
            p.grad[...] = grad
            state[name]["grad"] = grad.copy()
        for name, p in store.items():
            assert p.reached == (state[name]["grad"] is not None)
        del shards[:]
        adam_step(store, m, v, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        cuts = [140 * i // workers for i in range(workers + 1)]
        assert sorted(s[:2] for s in shards) == list(zip(cuts, cuts[1:]))
        # the first shard on the calling thread, the rest on pool threads
        assert [lo == 0 for lo, _, t in shards if t == threading.get_ident()] == [True]
        assert threading.active_count() == threads  # no thread outlives the call
        for name, p in store.items():
            want = state[name]
            assert _same_bits(p.value, want["value"]), (name, step)
            pm, pv = moments_of(p, m, v)
            assert _same_bits(pm, want["m"]) and _same_bits(pv, want["v"]), (name, step)
            if want["grad"] is not None:
                assert _same_bits(p.grad, want["grad"]), (name, step)


@pytest.mark.parametrize("bad", [["d"], ["b", "d"], ["c", "d"]])
def test_non_finite_check_names_the_first_bad_parameter_across_shards(monkeypatch, bad):
    # two shards cut at 40: "a" and "b" in the first, "c" and "d" in the second
    _shard_into(monkeypatch, 2, 80, 8)
    rng = seeded_rng(16)
    store = _store_with(rng, [("a", (2, 10)), ("b", (4, 5)), ("c", (3, 10)), ("d", (1, 10))])
    for _, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=1e-2, step=1)
    for name, p in store.items():
        p.grad[...] = rng.normal(size=p.value.shape)
    for name in bad:
        store[name].grad[-1, -1] = np.inf
    before = {name: [a.copy() for a in (p.value, *moments_of(p, m, v), p.grad)]
              for name, p in store.items()}
    with pytest.raises(TrainingDivergedError, match=f"'{bad[0]}'"):
        adam_step(store, m, v, lr=1e-2, step=2)
    for name, p in store.items():
        for got, want in zip((p.value, *moments_of(p, m, v), p.grad), before[name]):
            assert _same_bits(got, want), name


def test_an_exception_in_a_worker_shard_is_raised_to_the_caller(monkeypatch):
    _shard_into(monkeypatch, 3, 90, 8)
    store = _store_with(seeded_rng(17), [("w", (9, 10))])
    update = optim._update
    ran = []

    def failing(lo, hi, *args):
        ran.append(lo)
        if lo == 30:
            raise MemoryError("shard [30, 60)")
        return update(lo, hi, *args)

    monkeypatch.setattr(optim, "_update", failing)
    threads, blas = threading.active_count(), optim._OPENBLAS
    blas_threads = blas[0]() if blas else None
    with pytest.raises(MemoryError, match=r"shard \[30, 60\)"):
        adam_step(store, *adam_moments(store), lr=1e-2, step=1)
    assert sorted(ran) == [0, 30, 60]
    assert threading.active_count() == threads
    if blas:  # the hold of three shards is let go on the way out
        assert blas[0]() == blas_threads


def test_adam_checks_the_gradients_under_its_hold(monkeypatch, fake_blas):
    # two shards hold OpenBLAS to one thread from the first gradient check
    # on: the norms of the Cauchy-Schwarz bound (np.dot, which OpenBLAS
    # spreads over its threads above ~10k values) run held, and the count
    # comes back after the step and when a non-finite gradient raises
    _shard_into(monkeypatch, 2, 90, 8)
    counts = []
    norm = params._norm
    monkeypatch.setattr(params, "_norm", lambda a: counts.append(fake_blas.threads) or norm(a))
    rng = seeded_rng(25)
    store = _store_with(rng, _FACTORED)
    _add_pairs(store, rng)
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=1e-2, step=1)
    assert len(counts) == 12 and set(counts) == {1}
    assert fake_blas.puts == [1, 2]
    pairs = _add_pairs(store, rng)
    pairs["c"][1][0][1, 2] = np.inf
    del counts[:]
    with pytest.raises(TrainingDivergedError, match="'c'"):
        adam_step(store, m, v, lr=1e-2, step=2)
    assert counts and set(counts) == {1}
    assert fake_blas.puts == [1, 2, 1, 2]


def test_adam_first_step_writes_the_moments_bitwise_as_the_textbook_update():
    # the first step, from zero moments: -0.0, +0.0 and denormal gradients
    # give the bits of the textbook update, +0.0 moments included
    rng = seeded_rng(18)
    grad = rng.normal(size=(3, 40))
    grad[0, :8] = -0.0
    grad[1, :8] = 0.0
    grad[2, :8] = [5e-324, -5e-324, 1e-310, -1e-310, 1e150, -1e150, 1e-160, -1e-160]
    store = store_of(("w", rng.normal(size=(3, 40))))
    state = {"w": {"value": store["w"].value.copy(), "m": None, "v": None, "grad": grad.copy()}}
    store["w"].grad[...] = grad
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=1e-2, step=1)
    _textbook_adam_step(state, lr=1e-2, step=1)
    p, want = store["w"], state["w"]
    pm, pv = moments_of(p, m, v)
    assert _same_bits(p.value, want["value"])
    assert _same_bits(pm, want["m"]) and _same_bits(pv, want["v"])
    assert not np.signbit(pm[pm == 0.0]).any()
    # moments set from outside, -0.0 among them, are read as they are
    pm[...] = want["m"] = rng.normal(size=(3, 40))
    pv[...] = want["v"] = rng.random(size=(3, 40))
    pm[0, :3] = want["m"][0, :3] = -0.0
    p.grad[...] = want["grad"] = grad[::-1].copy()
    adam_step(store, m, v, lr=1e-2, step=2)
    _textbook_adam_step(state, lr=1e-2, step=2)
    assert _same_bits(p.value, want["value"])
    assert _same_bits(pm, want["m"]) and _same_bits(pv, want["v"])


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
    m, v = adam_moments(store)
    for step, (reach_dead, write_at) in enumerate([(True, grad_write_at), (False, None)], 1):
        want = _lifecycle_step(store, _lifecycle_case(step), reach_dead, write_at)
        if read_grads:
            for name, p in store.items():
                np.testing.assert_array_equal(p.grad, want[name], err_msg=f"{name}, step {step}")
        for name in store.names():
            state[name]["grad"] = want[name]
        adam_step(store, m, v, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        for name, p in store.items():
            assert _same_bits(p.value, state[name]["value"]), (name, step)
            pm, pv = moments_of(p, m, v)
            assert _same_bits(pm, state[name]["m"]) and _same_bits(pv, state[name]["v"]), (name, step)
    for name, p in store.items():
        assert _same_bits(p.grad, np.zeros_like(p.value)), name  # consumed: reads as zeros


def test_a_bound_view_reads_zeros_over_a_consumed_gradient():
    # after Adam the dense gradient still holds the 7s of the last step; a
    # bound parameter's gradient read before any closure reached it is
    # zeros, and a product into it then adds to those zeros
    store = store_of(("w", np.ones((3, 2))))
    store["w"].grad[...] = 7.0
    adam_step(store, *adam_moments(store), lr=0.0, step=1)
    assert (store["w"].dense == 7.0).all()  # consumed, not zeroed
    tape = Tape()
    w = store.bind(tape)["w"]
    np.testing.assert_array_equal(w.grad, np.zeros((3, 2)))
    x = Matrix([[1.0, 2.0, 3.0]])
    tape.backward(sum_all(ops.matmul(x, w)))
    np.testing.assert_array_equal(store["w"].grad, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


# ------------------------------------------------------- factored gradients


def _model_shapes(d_model):
    """Every tensor shape of the d_model specs, all ablations."""
    return sorted({(rows, cols) for ablation in ABLATIONS
                   for _, rows, cols in param_spec(ModelConfig(d_model=d_model, ablation=ablation))})


def _pieces(p, lo, hi):
    """p's gradient over elements [lo, hi), as an adam_step shard reads it."""
    scratch = np.empty(p.block_size(optim.BLOCK))
    return [g.copy() for g, _, _ in p.grad_blocks(lo, hi, optim.BLOCK, scratch)]


def _blas():
    """The BLAS numpy runs on: its build string, and the core whose kernels
    an OpenBLAS runs when it reports one. A DYNAMIC_ARCH build picks its
    kernels at run time, so its build string may name another core. The
    row blocks' exactness was verified on OpenBLAS 0.3.31 only, a
    DYNAMIC_ARCH build whose string names Haswell but which ran its
    SkylakeX kernels."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration") or blas.get("name")
    core = _openblas_core()
    return build if core is None else f"{build}; running {core} kernels"


def _openblas_core():
    """The core name that an OpenBLAS mapped into the process reports, as
    ``optim._openblas_threads`` finds its functions, or None when none is
    mapped or none exports a corename function."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line[line.index("/"):].strip() for line in maps
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(lib, name, None)
            if corename:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return None


def _largest_kept(rows, cols):
    """The largest K of a pair the keep rule keeps for a (rows x cols)
    gradient, K (rows + cols) < rows cols, or 0 when it keeps none."""
    return 0 if cols < 2 else (rows * cols - 1) // (rows + cols)


@pytest.mark.parametrize("k", [1, 4, 25, 32, "largest"])
@pytest.mark.parametrize("d_model", [1024, 64])
def test_row_blocks_multiply_out_to_the_full_products_bytes(d_model, k):
    # two pairs per tensor, read whole and as two shards cut near the
    # middle: the bytes of the first product written and the second added,
    # which a dense gradient holds. "largest" is each shape's largest kept
    # K (up to 767 at d=1024); every GEMM has MIN_ROWS rows or more, or all
    # of a smaller tensor's
    rng = seeded_rng(23)
    for rows, cols in _model_shapes(d_model):
        k_rows = max(1, _largest_kept(rows, cols)) if k == "largest" else k
        p = ParamStore([("w", rows, cols)])["w"]
        gemms = []
        pairs = [(rng.normal(size=(k_rows, rows)), rng.normal(size=(k_rows, cols)))
                 for _ in range(2)]
        for x, dy in pairs:
            p.add_product(_recording(x, gemms), dy)
        want = np.matmul(pairs[0][0].T, pairs[0][1])
        want += pairs[1][0].T @ pairs[1][1]
        if not p.factors:
            # the 1024 x 1024 and larger tensors of d=1024 keep their pairs
            # up to K = 511, past every K asked here
            assert not (d_model == 1024 and min(rows, cols) >= 1024 and k != "largest"), (rows, cols)
            assert cols == 1 or k_rows * (rows + cols) >= rows * cols
            assert _same_bits(p.dense, want), (rows, cols)
            continue
        n = rows * cols
        cut = min(n - 1, n // 2 + 3)
        least = min(rows, params.MIN_ROWS)
        for cuts in ([(0, n)], [(0, cut), (cut, n)]):
            got = np.concatenate([g for lo, hi in cuts for g in _pieces(p, lo, hi)])
            assert got.tobytes() == want.tobytes(), (rows, cols, k_rows, cuts, _blas())
        assert gemms and all(least <= r for r, _ in gemms), (rows, cols, k_rows)


def _recording(x, gemms):
    """x as an array whose products x[:, a:b].T @ dy append (rows, multiply-adds)
    to ``gemms``."""
    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                (rows, k), (_, cols) = inputs[0].shape, inputs[1].shape
                gemms.append((rows, rows * k * cols))
            inputs = [a.view(np.ndarray) if isinstance(a, Recorded) else a for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    return x.view(Recorded)


@pytest.mark.parametrize("dense, ks", [(False, ()), (True, ()), (False, (5,)), (False, (5, "cap")),
                                       (False, ("cap", 3))],
                         ids=["unreached", "dense", "one_pair", "small_then_cap", "cap_then_small"])
@pytest.mark.parametrize("rows, cols", [(3, 40), (37, 24), (50, 64), (130, 600)])
def test_the_gradient_walk_reads_the_bytes_of_param_grad(rows, cols, dense, ks):
    # any [lo, hi), cut inside rows and in blocks that are not whole rows:
    # the walk's pieces tile the range and hold the bytes of that slice of
    # Param.grad; each GEMM of a walk has MIN_ROWS rows or more (all of
    # them in a 3-row tensor), also at the largest K the keep rule allows
    # ("cap"). A small K is cut to the largest kept where that is smaller.
    rng = seeded_rng(29)
    p = ParamStore([("w", rows, cols)])["w"]
    gemms = []
    if dense:
        p.grad[...] = rng.normal(size=(rows, cols))
    for k in ks:
        k = _largest_kept(rows, cols) if k == "cap" else min(k, _largest_kept(rows, cols))
        p.add_product(_recording(rng.normal(size=(k, rows)), gemms), rng.normal(size=(k, cols)))
    assert len(p.factors) == len(ks)
    n = rows * cols
    cuts = [(0, n), (1, n - 1), (cols + 3, 3 * cols - 2), (n - 5, n), (7, 7)]
    cuts += [tuple(sorted(rng.integers(0, n + 1, size=2))) for _ in range(6)]
    walks = []
    for block in (optim.BLOCK, 100, 2 * cols + 5):
        scratch = np.full(p.block_size(block), np.nan)
        for lo, hi in cuts:
            # a piece in the scratch holds until the walk takes its next step
            pieces = [(g.copy(), s, e) for g, s, e in p.grad_blocks(lo, hi, block, scratch)]
            ends = [lo] + [e for _, _, e in pieces]
            assert [s for _, s, _ in pieces] == ends[:-1] and ends[-1] == hi
            assert all(g.size == e - s for g, s, e in pieces)
            walks.append((lo, hi, np.concatenate([g for g, _, _ in pieces] + [np.empty(0)])))
    assert bool(gemms) == bool(ks)
    assert all(min(rows, params.MIN_ROWS) <= r for r, _ in gemms)
    want = p.grad.reshape(-1)
    for lo, hi, got in walks:
        assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi, _blas())


def _add_pairs(store, rng, x_scale=1.0, dy_scale=1.0):
    """Two kept pairs (x, dy) of two rows each for every parameter;
    returns them by name."""
    pairs = {}
    for name, p in store.items():
        rows, cols = p.value.shape
        pairs[name] = [(rng.normal(size=(2, rows)) * x_scale, rng.normal(size=(2, cols)) * dy_scale)
                       for _ in range(2)]
        for x, dy in pairs[name]:
            p.add_product(x, dy)
        assert len(p.factors) == 2, name
    return pairs


def _dense_sum(pairs):
    """The textbook gradient of two pairs: the first product written, the
    second added."""
    grad = np.matmul(pairs[0][0].T, pairs[0][1])
    grad += pairs[1][0].T @ pairs[1][1]
    return grad


_FACTORED = [("a", (6, 5)), ("b", (8, 4)), ("c", (5, 7))]


@pytest.mark.parametrize("where, bad", [
    ("x", np.nan), ("x", np.inf), ("dy", np.nan), ("dy", -np.inf), ("both", 1e200)])
def test_non_finite_factors_name_the_first_bad_parameter_and_change_nothing(where, bad):
    # "b" and "c" go bad; in "both", finite factors of 1e200 meet in one
    # entry of the product, which overflows
    rng = seeded_rng(24)
    store = _store_with(rng, _FACTORED)
    _add_pairs(store, rng)
    m, v = adam_moments(store)
    adam_step(store, m, v, lr=1e-2, step=1)
    rows = {name: p.value.shape[0] for name, p in store.items()}
    pairs = {name: [(rng.normal(size=(2, rows[name])), rng.normal(size=(2, p.value.shape[1])))
                    for _ in range(2)] for name, p in store.items()}
    for name in ("b", "c"):
        x, dy = pairs[name][1]
        if where in ("x", "both"):
            x[1, 2] = bad
        if where in ("dy", "both"):
            dy[1, 1] = bad
    for name, p in store.items():
        for x, dy in pairs[name]:
            p.add_product(x, dy)
        assert len(p.factors) == 2
    before = {name: [a.copy() for a in (p.value, *moments_of(p, m, v))]
              for name, p in store.items()}
    with pytest.raises(TrainingDivergedError, match="'b'"):
        adam_step(store, m, v, lr=1e-2, step=2)
    for name, p in store.items():
        for got, want in zip((p.value, *moments_of(p, m, v)), before[name]):
            assert _same_bits(got, want), name
        with np.errstate(invalid="ignore", over="ignore"):
            assert _same_bits(p.grad, _dense_sum(pairs[name])), name


def test_factors_beyond_the_bound_with_a_finite_product_train_as_dense():
    # x's 1e150 meets only dy's zero row, and dy's 1e151 only x's small
    # row: sum K max|x| max|dy| passes 1e300, so the pairs are multiplied
    # out and checked, and their finite products (~1e148) take the step
    rng = seeded_rng(26)
    store = _store_with(rng, _FACTORED)
    state = {name: {"value": p.value.copy(), "m": None, "v": None, "grad": None}
             for name, p in store.items()}
    m, v = adam_moments(store)
    for step in (1, 2):
        pairs = {}
        for name, p in store.items():
            rows, cols = p.value.shape
            pairs[name] = []
            for _ in range(2):
                x, dy = rng.normal(size=(2, rows)) * 1e-3, rng.normal(size=(2, cols))
                if step == 1:
                    x[0, 0], dy[0], dy[1, 0] = 1e150, 0.0, 1e151
                pairs[name].append((x, dy))
                p.add_product(x, dy)
            assert len(p.factors) == 2 and params._bounded(p.factors) == (step == 2)
            state[name]["grad"] = _dense_sum(pairs[name])
        adam_step(store, m, v, lr=1e-2, step=step)
        _textbook_adam_step(state, lr=1e-2, step=step)
        for name, p in store.items():
            assert _same_bits(p.value, state[name]["value"]), (name, step)
            pm, pv = moments_of(p, m, v)
            assert _same_bits(pm, state[name]["m"]) and _same_bits(pv, state[name]["v"])


def test_a_product_of_two_bound_parameters_trains_as_dense_gradients():
    # b's product reads a's value, which Adam rewrites before it reaches b:
    # kept as a pair, b's gradient would be multiplied out from a's new value
    rng = seeded_rng(27)
    store = _store_with(rng, [("a", (3, 4)), ("b", (4, 5))])
    state = {name: {"value": p.value.copy(), "m": None, "v": None, "grad": None}
             for name, p in store.items()}
    probe = rng.normal(size=(3, 5))
    m, v = adam_moments(store)
    for step in (1, 2):
        a, b = state["a"]["value"], state["b"]["value"]
        state["a"]["grad"], state["b"]["grad"] = probe @ b.T, a.T @ probe
        tape = Tape()
        bound = store.bind(tape)
        tape.backward(sum_all(ops.mul(ops.matmul(bound["a"], bound["b"]), Matrix(probe))))
        assert not store["b"].factors
        adam_step(store, m, v, lr=1e-1, step=step)
        _textbook_adam_step(state, lr=1e-1, step=step)
        for name, p in store.items():
            assert _same_bits(p.value, state[name]["value"]), (name, step)


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
    assert store["w"].reached and np.abs(store["w"].grad).sum() > 0


def test_an_untaped_bind_holds_value_views_and_no_param():
    # what the serving index keeps: a Param reachable from it would pin
    # the gradient arrays. Param has no weakref slot, so the check walks
    # the references instead
    store = store_of(("w", [[2.0, -1.0], [0.5, 3.0]]), ("b", [[1.0, 4.0]]))
    bound = store.bind()
    seen, todo = set(), [bound]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (params.Param, ParamStore)), obj
        todo.extend(gc.get_referents(obj))
    assert list(bound) == ["w", "b"]
    for name, m in bound.items():
        assert m.tape is None and np.shares_memory(m.data, store.values)
        np.testing.assert_array_equal(m.data, store[name].value)

    # a taped bind still hands the backward's contributions to the Params
    tape = Tape()
    bound = store.bind(tape)
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    tape.backward(sum_all(ops.affine(Matrix(x), bound["w"], bound["b"])))
    np.testing.assert_array_equal(store["w"].grad, x.T @ np.ones((2, 2)))
    np.testing.assert_array_equal(store["b"].grad, [[2.0, 2.0]])


def test_gradient_buffers_are_allocated_on_first_taped_use():
    store = store_of(("w", [[2.0]]), ("unused", [[1.0]]))
    p = store["w"]
    w = store.bind()["w"]
    ops.mul(w, w)  # untaped: inference allocates nothing
    assert p.dense is None
    adam_step(store, *adam_moments(store), lr=0.1, step=1)  # no buffer reads as a zero gradient
    np.testing.assert_array_equal(p.value, [[2.0]])
    assert p.dense is None

    def f(s):
        bound = s.bind(Tape())
        return sum_all(ops.mul(bound["w"], bound["w"]))

    assert finite_diff_check(f, store) < 1e-9  # "unused" never gets a buffer
    assert store["unused"].dense is None
    out = f(store)
    out.tape.backward(out)
    assert p.dense is not None and store["unused"].dense is None


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
