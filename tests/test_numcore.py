import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import max_relative_error
from uglm.errors import (
    DegenerateInputError,
    DimensionError,
    InvalidParameterError,
    NumericError,
)
from uglm.numcore import (
    FD_STACK_ENTRIES,
    OptimizerState,
    ParamSet,
    optimizer_step,
    row_cosine_similarity,
    softmax_with_temperature,
    stacked_finite_difference_gradient,
)


# ------------------------------------------------------ cosine similarity


def test_cosine_identical_unit_vectors():
    s = row_cosine_similarity(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
    assert s[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_cosine_orthogonal():
    s = row_cosine_similarity(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert s[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cosine_direct_formula():
    # Oracle: plain dot / (|a| |b|) evaluated independently.
    a = np.array([1.0, 1.0])
    b = np.array([1.0, 0.0])
    expected = float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))
    s = row_cosine_similarity(a[None, :], b[None, :])
    assert s[0, 0] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.7071067811865475, abs=1e-12)


def test_cosine_zero_row_names_index():
    x = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateInputError) as exc:
        row_cosine_similarity(x, np.array([[1.0, 1.0]]))
    assert "row 1" in str(exc.value)


def test_cosine_column_mismatch():
    with pytest.raises(DimensionError):
        row_cosine_similarity(np.ones((2, 3)), np.ones((2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_cosine_entries_bounded(n, m, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) + 0.1
    t = rng.normal(size=(m, d)) + 0.1
    s = row_cosine_similarity(x, t)
    assert s.shape == (n, m)
    assert np.all(s >= -1.0 - 1e-12) and np.all(s <= 1.0 + 1e-12)


# ---------------------------------------------------------------- softmax


def test_softmax_symmetry():
    for c in (-3.0, 0.0, 17.5):
        out = softmax_with_temperature([c, c], 1.0)
        assert np.array_equal(out, np.array([0.5, 0.5]))


def test_softmax_direct_evaluation():
    out = softmax_with_temperature([math.log(2.0), 0.0], 1.0)
    assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert out[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_softmax_large_temperature_is_near_uniform():
    out = softmax_with_temperature([1.0, 2.0], 1000.0)
    assert abs(out[0] - 0.5) <= 3e-4
    assert abs(out[1] - 0.5) <= 3e-4


def test_softmax_overflow_safe():
    out = softmax_with_temperature([1e4, 0.0], 1.0)
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.0, -1.0])
def test_softmax_invalid_temperature(tau):
    with pytest.raises(InvalidParameterError):
        softmax_with_temperature([1.0], tau)


# Scaled logit gaps are kept below ~700 so no term underflows to exact 0;
# beyond that, float64 cannot represent a positive probability at all.
@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-30, 30), min_size=1, max_size=8),
    st.floats(0.1, 100.0),
    st.floats(-50, 50),
)
def test_softmax_sum_and_shift_invariance(values, tau, shift):
    out = softmax_with_temperature(values, tau)
    assert np.all(out > 0)
    assert abs(out.sum() - 1.0) <= 1e-12
    shifted = softmax_with_temperature([v + shift for v in values], tau)
    assert np.allclose(out, shifted, rtol=0.0, atol=1e-9)


# -------------------------------------------------- finite differences


def test_fd_square_function():
    params = ParamSet({"p": np.array([[3.0]])})
    grad = stacked_finite_difference_gradient(lambda ps: ps["p"][:, 0, 0] ** 2, params)
    assert grad["p"][0, 0] == pytest.approx(6.0, abs=1e-8)
    # the input ParamSet is untouched
    assert params["p"][0, 0] == 3.0


def test_fd_constant_function():
    params = ParamSet({"a": np.arange(6.0).reshape(2, 3)})
    grad = stacked_finite_difference_gradient(lambda ps: np.full(len(ps.flat), 4.25), params)
    assert np.array_equal(grad["a"], np.zeros((2, 3)))


def test_fd_linear_function():
    params = ParamSet({"a": np.ones((2, 2)), "b": np.full((1, 3), 2.0)})
    grad = stacked_finite_difference_gradient(
        lambda ps: sum(arr.sum(axis=(1, 2)) for _, arr in ps.items()), params
    )
    assert np.allclose(grad["a"], 1.0, atol=1e-9)
    assert np.allclose(grad["b"], 1.0, atol=1e-9)


def test_fd_nonfinite_names_parameter():
    params = ParamSet({"bad": np.array([[0.0]])})

    def f(ps):
        return np.full(len(ps.flat), np.nan)

    with pytest.raises(NumericError) as exc:
        stacked_finite_difference_gradient(f, params)
    assert "bad" in str(exc.value)


def _inf_when_second_moves(ps):
    return np.where(ps["second"][:, 1] != 0.0, np.inf, ps["first"].sum(axis=(1, 2)))


def test_fd_nonfinite_names_the_second_parameter():
    params = ParamSet({"first": np.zeros((2, 2)), "second": np.zeros(3)})
    with pytest.raises(NumericError, match="'second'"):
        stacked_finite_difference_gradient(_inf_when_second_moves, params)


def test_fd_nonfinite_names_a_parameter_in_a_later_call():
    calls = []

    def f(ps):
        calls.append(len(ps.flat))
        return _inf_when_second_moves(ps)

    params = ParamSet({"first": np.zeros((20, 15)), "second": np.zeros(3)})  # 'second' at 301
    with pytest.raises(NumericError, match="'second'"):
        stacked_finite_difference_gradient(f, params)
    assert len(calls) == 301 // FD_STACK_ENTRIES + 1 > 1


def test_fd_stacks_at_most_256_rows_per_call():
    params = ParamSet({"w": np.linspace(-0.1, 0.1, 1000).reshape(40, 25), "b": np.ones(3)})
    rows = []

    def f(ps):
        rows.append(ps.flat.shape)
        return (ps["w"] ** 2).sum(axis=(1, 2)) + ps["b"].sum(axis=1)

    grad = stacked_finite_difference_gradient(f, params)
    full, rest = divmod(1003, FD_STACK_ENTRIES)
    assert [p for p, _ in rows] == [2 * FD_STACK_ENTRIES] * full + [2 * rest] * (rest > 0)
    assert max(p for p, _ in rows) <= 256
    assert all(n == 1003 for _, n in rows)
    assert np.allclose(grad["w"], 2.0 * params["w"], rtol=0.0, atol=1e-9)
    assert np.allclose(grad["b"], 1.0, atol=1e-9)


def test_stacked_row_functions_equal_their_slices():
    rng = np.random.default_rng(0)
    x, t = rng.normal(size=(7, 4, 3)), rng.normal(size=(5, 3))
    stacked = row_cosine_similarity(x, t)
    assert stacked.shape == (7, 4, 5)
    for p in range(7):
        assert np.array_equal(stacked[p], row_cosine_similarity(x[p], t))
    x[3, 2] = 0.0
    with pytest.raises(DegenerateInputError, match="x row 2"):
        row_cosine_similarity(x, t)


# --------------------------------------------------------------- optimizers


def test_adam_first_step_bias_corrected():
    # With g=1 the first bias-corrected step is lr * 1 / (1 + eps).
    params = ParamSet({"p": np.array([[0.0]])})
    grads = ParamSet({"p": np.array([[1.0]])})
    opt = OptimizerState(1.0)
    new, new_opt = optimizer_step(opt, params, grads)
    assert new["p"][0, 0] == pytest.approx(-1.0, abs=1e-6)
    assert new["p"][0, 0] == pytest.approx(-1.0 / (1.0 + 1e-8), abs=1e-15)
    assert new_opt.step == 1


def test_adam_matches_reference_implementation():
    # Oracle: direct per-name transcription of the standard update, kept
    # separate from the production code path, over mixed weights and biases.
    rng = np.random.default_rng(7)
    shapes = {"w1": (3, 2), "b1": (2,), "w2": (2, 4), "b2": (4,)}
    ref = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = ParamSet(ref)
    opt = OptimizerState(0.01)
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 61):
        g = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params, opt = optimizer_step(opt, params, ParamSet(g))
        for name in shapes:
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g[name]
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * g[name] * g[name]
            m_hat = m[name] / (1.0 - 0.9**t)
            v_hat = v[name] / (1.0 - 0.999**t)
            ref[name] = ref[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    for name in shapes:
        assert np.array_equal(params[name], ref[name])


def test_optimizer_shape_mismatch():
    params = ParamSet({"p": np.ones((2, 2))})
    grads = ParamSet({"p": np.ones((2, 3))})
    with pytest.raises(DimensionError):
        optimizer_step(OptimizerState(0.1), params, grads)


def test_optimizer_is_pure():
    params = ParamSet({"p": np.array([[1.0]])})
    opt = OptimizerState(0.1)
    optimizer_step(opt, params, ParamSet({"p": np.array([[5.0]])}))
    assert params["p"][0, 0] == 1.0
    assert opt.step == 0 and opt.first_moment == 0.0 and opt.second_moment == 0.0


def test_adam_nonfinite_update_names_the_bad_parameter():
    params = ParamSet({"first": np.zeros((2, 2)), "second": np.zeros(3)})
    grads = ParamSet({"first": np.ones((2, 2)), "second": np.array([1.0, np.nan, 1.0])})
    with pytest.raises(NumericError, match="'second'"):
        optimizer_step(OptimizerState(0.1), params, grads)


def test_invalid_optimizer_parameters():
    with pytest.raises(InvalidParameterError):
        OptimizerState(-0.1)
    with pytest.raises(InvalidParameterError):
        OptimizerState(float("nan"))


def test_zero_learning_rate_is_a_null_update():
    params = ParamSet({"p": np.array([[2.0, -3.0]])})
    grads = ParamSet({"p": np.array([[1.0, 1.0]])})
    new, _ = optimizer_step(OptimizerState(0.0), params, grads)
    assert np.array_equal(new["p"], params["p"])


# ----------------------------------------------------------- ParamSet


def test_paramset_views_into_one_flat_vector():
    b, a = np.ones((1, 2)), np.full((2, 1), 3.0)
    ps = ParamSet({"b": b, "a": a})
    assert ps.layout == (("b", (1, 2)), ("a", (2, 1)))
    # insertion order is layout order, and building copies the arrays
    assert np.array_equal(ps.flat, [1.0, 1.0, 3.0, 3.0])
    assert not np.shares_memory(ps.flat, b)
    for _, view in ps.items():
        assert np.shares_memory(view, ps.flat)
        assert not view.flags.writeable

    vec = np.arange(4.0)
    rebound = ps.with_flat(vec)
    assert np.shares_memory(rebound["a"], vec)
    assert np.array_equal(rebound["a"], [[2.0], [3.0]])
    assert np.array_equal(ps["a"], a)  # the original keeps its own vector

    grads = ps.zeros_like()
    grads["a"][...] += 1.0  # a gradient buffer is written through its views
    assert np.array_equal(grads.flat, [0.0, 0.0, 1.0, 1.0])


def test_with_flat_rejects_a_vector_of_the_wrong_size():
    ps = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(3)})
    for bad in (np.zeros(8), np.zeros(10), np.zeros((9, 1))):
        with pytest.raises(DimensionError):
            ps.with_flat(bad)


def test_with_flat_over_a_stack_gives_stacked_views():
    ps = ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(3)})
    stack = np.arange(4 * 9.0).reshape(4, 9)
    stacked = ps.with_flat(stack)
    assert stacked["w"].shape == (4, 2, 3) and stacked["b"].shape == (4, 3)
    for p in range(4):
        single = ps.with_flat(stack[p])
        assert np.array_equal(stacked["w"][p], single["w"])
        assert np.array_equal(stacked["b"][p], single["b"])
    assert np.shares_memory(stacked["b"], stack)
    with pytest.raises(DimensionError):
        ps.with_flat(np.zeros((2, 2, 9)))


def test_max_relative_error_denominator_floor():
    a = ParamSet({"x": np.array([[0.0]])})
    b = ParamSet({"x": np.array([[1e-9]])})
    # denominator floors at 1e-8, so the error is 0.1, not 1.0
    assert max_relative_error(a, b) == pytest.approx(0.1)


def test_determinism_bit_identical():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    t = rng.normal(size=(5, 3))
    assert np.array_equal(row_cosine_similarity(x, t), row_cosine_similarity(x, t))
    v = rng.normal(size=7)
    assert np.array_equal(
        softmax_with_temperature(v, 0.3), softmax_with_temperature(v, 0.3)
    )
