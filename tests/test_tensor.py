"""Tensor engine: forward oracles, gradients vs finite differences,
state/error contracts, and the seeded RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    StateError,
)
from hatstory.tensor import (
    Rng,
    Tape,
    Tensor,
    add,
    backward,
    concat,
    grad_check,
    gru_run,
    log_softmax_array,
    matmul,
    mul,
    neg,
    numeric_gradient,
    relu,
    row,
    seeded_init,
    sigmoid,
    sigmoid_array,
    softmax_array,
    sub,
    sum_all,
    tile_rows,
    zeros,
)
from conftest import (assert_close, gru_layer, reference_gru_run, reference_sigmoid, reshape,
                      softmax, stack_rows, tanh, vecmat)


# ---------------------------------------------------------------------------
# forward oracles


def matmul_triple_loop(a, b):
    n, p = a.shape
    p2, q = b.shape
    out = np.zeros((n, q))
    for i in range(n):
        for j in range(q):
            for k in range(p):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_matmul_matches_triple_loop_oracle(rng):
    for n, p, q in [(1, 1, 1), (2, 3, 4), (8, 8, 8), (5, 1, 7)]:
        a = rng.uniform(-2, 2, (n, p))
        b = rng.uniform(-2, 2, (p, q))
        got = matmul(Tensor(a), Tensor(b)).data
        assert_close(got, matmul_triple_loop(a, b), tol=1e-12)


def test_softmax_frozen_values():
    # e^1, e^2, e^3 normalized, computed by hand with math.exp
    e1, e2, e3 = math.exp(1), math.exp(2), math.exp(3)
    s = e1 + e2 + e3
    got = softmax(Tensor([1.0, 2.0, 3.0]), axis=0).data
    assert_close(got, [e1 / s, e2 / s, e3 / s], tol=1e-15)


def test_softmax_overflow_guard():
    got = softmax(Tensor([1000.0, 0.0]), axis=0).data
    assert np.all(np.isfinite(got))
    assert_close(got, [1.0, 0.0], tol=1e-300)


def test_softmax_rows_sum_to_one_and_positive(rng):
    x = Tensor(rng.uniform(-50, 50, (6, 9)))
    p = softmax(x, axis=1).data
    assert np.all(p > 0)
    assert_close(p.sum(axis=1), np.ones(6), tol=1e-12)


def test_softmax_shift_invariance(rng):
    x = rng.uniform(-3, 3, (4, 5))
    for c in (-100.0, 0.5, 17.0):
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + c), axis=1).data
        assert_close(a, b, tol=1e-12)


def test_log_softmax_matches_log_of_softmax(rng):
    x = rng.uniform(-5, 5, (3, 7))
    assert_close(log_softmax_array(x, axis=1), np.log(softmax_array(x, axis=1)), tol=1e-12)


def test_sigmoid_values():
    got = sigmoid(Tensor([0.0, 710.0, -710.0])).data
    assert got[0] == 0.5
    assert np.all(np.isfinite(got))
    assert got[1] == pytest.approx(1.0, abs=1e-12)
    assert got[2] == pytest.approx(0.0, abs=1e-12)


def test_relu_clips_and_preserves(rng):
    x = rng.uniform(-2, 2, (5, 5))
    y = relu(Tensor(x)).data
    assert np.all(y >= 0)
    assert_close(y[x >= 0], x[x >= 0], tol=0)


def test_elementwise_binary_ops(rng):
    a, b = rng.uniform(0.5, 2, (3, 4)), rng.uniform(0.5, 2, (3, 4))
    assert_close(add(Tensor(a), Tensor(b)).data, a + b, tol=0)
    assert_close(sub(Tensor(a), Tensor(b)).data, a - b, tol=0)
    assert_close(mul(Tensor(a), Tensor(b)).data, a * b, tol=0)
    assert_close(neg(Tensor(a)).data, -a, tol=0)


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        mul(Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_scalar_broadcast_allowed():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert_close((x * 2.0).data, np.arange(6.0).reshape(2, 3) * 2, tol=0)
    assert_close((1.0 - x).data, 1 - np.arange(6.0).reshape(2, 3), tol=0)


def test_structural_ops(rng):
    m = rng.uniform(-1, 1, (4, 6))
    t = Tensor(m)
    assert_close(row(t, 2).data, m[2], tol=0)
    assert_close(row(t, slice(1, 3), axis=1).data, m[:, 1:3], tol=0)
    assert_close(reshape(t, (2, 12)).data, m.reshape(2, 12), tol=0)
    assert_close(concat([Tensor(m[0]), Tensor(m[1])]).data, np.concatenate([m[0], m[1]]), tol=0)
    assert_close(stack_rows([Tensor(m[i]) for i in range(4)]).data, m, tol=0)
    assert_close(tile_rows(Tensor(m[3]), 5).data, np.tile(m[3], (5, 1)), tol=0)
    assert_close(vecmat(Tensor(m[0]), Tensor(rng.uniform(-1, 1, (6, 2)))).data.shape, (2,), tol=0)


def test_structural_op_errors():
    with pytest.raises(IndexError):
        row(Tensor(np.ones((2, 2))), 2)
    with pytest.raises(DimensionError):
        concat([Tensor(np.ones((2, 2))), Tensor(np.ones(2))])


# ---------------------------------------------------------------------------
# tape and backward


def test_sum_gradient_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(x))
    assert_close(x.grad, np.ones(3), tol=0)


def test_square_gradient_hand_values():
    x = Tensor([1.0, -2.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(mul(x, x)))
    assert_close(x.grad, [2.0, -4.0], tol=0)


def test_gradient_accumulates_over_paths():
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(add(x, x)))
    assert_close(x.grad, [2.0], tol=0)


def test_tanh_gradient_vs_finite_difference():
    x = Tensor([0.3], requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(tanh(x)))
    analytic = float(x.grad[0])
    h = 1e-5
    numeric = (math.tanh(0.3 + h) - math.tanh(0.3 - h)) / (2 * h)
    assert abs(analytic - numeric) / abs(numeric) <= 1e-7


def test_non_scalar_root_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(ContractError):
            backward(tape, y)


def test_double_backward_rejected():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        y = sum_all(mul(x, x))
        backward(tape, y)
        with pytest.raises(StateError):
            backward(tape, y)


def test_backward_needs_root_on_tape():
    x = Tensor([1.0], requires_grad=True)
    off_tape = sum_all(x)
    with Tape() as tape:
        sum_all(mul(x, x))
        with pytest.raises(ContractError):
            backward(tape, off_tape)


def test_no_tape_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    y = sum_all(mul(x, x))
    assert y.item() == 1.0
    assert x.grad is None


# every composed op, of the program or of the tests' references, over a (3, 4)
# matrix m, a (4, 2) matrix w and a vector v (4,)
COMPOSED_OPS = {
    "add": lambda m, w, v: add(m, m),
    "sub": lambda m, w, v: sub(m, 1.0),
    "mul": lambda m, w, v: mul(2.0, m),
    "neg": lambda m, w, v: neg(m),
    "sigmoid": lambda m, w, v: sigmoid(m),
    "tanh": lambda m, w, v: tanh(m),
    "relu": lambda m, w, v: relu(m),
    "matmul": lambda m, w, v: matmul(m, w),
    "vecmat": lambda m, w, v: vecmat(v, w),
    "softmax": lambda m, w, v: softmax(m),
    "concat": lambda m, w, v: concat([m, m], axis=-1),
    "stack_rows": lambda m, w, v: stack_rows([v, v]),
    "tile_rows": lambda m, w, v: tile_rows(v, 3),
    "reshape": lambda m, w, v: reshape(m, (4, 3)),
    "row": lambda m, w, v: row(m, 1, axis=1),
    "sum_all": lambda m, w, v: sum_all(m),
}


@pytest.mark.parametrize("name", sorted(COMPOSED_OPS))
def test_composed_op_records_once_under_its_name_only_when_tracked(name, rng):
    def operands(requires_grad):
        return [Tensor(rng.uniform(-1, 1, s), requires_grad) for s in ((3, 4), (4, 2), (4,))]

    with Tape() as tape:
        COMPOSED_OPS[name](*operands(True))
    assert len(tape) == 1 and tape.counts() == {name: 1}
    with Tape() as tape:
        COMPOSED_OPS[name](*operands(False))
    assert len(tape) == 0


# ---------------------------------------------------------------------------
# the plain-array GRU kernel against the per-gate reference


def test_sigmoid_array_edge_values():
    x = np.array([0.0, -0.0, 750.0, -750.0, np.inf, -np.inf, np.nan])
    got = sigmoid_array(x)
    assert np.array_equal(got, [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, np.nan], equal_nan=True)
    assert not np.signbit(got[:6]).any()
    wide = np.concatenate([x, Rng(3).uniform(-40.0, 40.0, (200,)), np.linspace(-745.0, 745.0, 99)])
    assert np.array_equal(sigmoid_array(wide), reference_sigmoid(wide), equal_nan=True)


@pytest.mark.parametrize("both", [False, True])
@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("lead", [(3,), (2, 3), (3, 1)], ids=["rows", "pair", "beam-rows"])
def test_gru_run_matches_the_per_gate_reference_bitwise(lead, steps, both):
    """One cell, or two in lockstep, the second reading the inputs from the
    last: each is bitwise its own reference run."""
    rng = Rng(40 + steps)
    for d_in, d_h, scale in ((5, 3, 1.0), (24, 16, 1.0), (7, 33, 1.0), (4, 2, 300.0)):
        cells = gru_layer(d_in, d_h, 1 + both)
        for _, t in (pair for cell in cells for pair in cell.named()):
            t.data[...] = rng.uniform(-scale, scale, t.shape)
        xs = rng.uniform(-2.0, 2.0, (steps,) + lead + (d_in,))
        h0 = rng.uniform(-1.0, 1.0, (len(cells),) + lead + (d_h,))
        got = gru_run(xs, h0, cells)
        for d, cell in enumerate(cells):
            want = reference_gru_run(xs, h0[d], *(t.data for _, t in cell.named()),
                                     reverse=bool(d))
            for a, b in zip(got, want):  # states, z, r, cand; the second cell's in step order
                assert a.shape[:1] + a.shape[2:] == b.shape
                assert np.array_equal(a[:, d], b[::-1] if d else b)


# ---------------------------------------------------------------------------
# grad_check on every differentiable primitive (property over seeds)

UNARY_BUILDERS = {
    "sigmoid": lambda t: sum_all(sigmoid(t)),
    "tanh": lambda t: sum_all(tanh(t)),
    "neg": lambda t: sum_all(neg(t)),
    "softmax": lambda t: sum_all(mul(softmax(t, axis=1), t)),
    "reshape": lambda t: sum_all(mul(reshape(t, (6, 2)), reshape(t, (6, 2)))),
    "row": lambda t: sum_all(mul(row(t, 1), row(t, 1))) + sum_all(mul(  # overlapping slices
        row(t, slice(1, 3), axis=1), row(t, slice(None, 2), axis=1))),
    "tile_sum": lambda t: sum_all(mul(t, t)),
}


@pytest.mark.parametrize("name", sorted(UNARY_BUILDERS))
def test_primitive_gradients_over_seeds(name):
    fn = UNARY_BUILDERS[name]
    for seed in range(20):
        x = Tensor(Rng(seed).uniform(-1.5, 1.5, (3, 4)), requires_grad=True)
        report = grad_check(fn, [x], step=1e-5, tol=1e-5, names=[name])
        assert report.passed, f"{name} seed {seed}: {report.max_rel_err}"


def test_relu_gradients_on_safe_inputs():
    for seed in range(20):
        rng = Rng(seed)
        # keep inputs away from the relu kink so finite differences are valid
        y = Tensor(rng.uniform(0.2, 1.0, (3, 4)) * np.sign(rng.uniform(-1, 1, (3, 4))),
                   requires_grad=True)
        assert grad_check(lambda t: sum_all(mul(relu(t), relu(t))), [y], tol=1e-5).passed


def test_binary_and_structural_gradients():
    for seed in range(20):
        rng = Rng(seed)
        a = Tensor(rng.uniform(0.5, 1.5, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 1.5, (3, 4)), requires_grad=True)
        m = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        v = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        checks = [
            (lambda a, b: sum_all(mul(add(a, b), sub(a, b))), [a, b]),
            (lambda a, m: sum_all(matmul(a, m)), [a, m]),
            (lambda v, m: sum_all(vecmat(v, m)), [v, m]),
            (lambda a, b: sum_all(mul(concat([row(a, 0), row(b, 1)]),
                                      concat([row(b, 0), row(a, 1)]))), [a, b]),
            (lambda v: sum_all(mul(tile_rows(v, 3), tile_rows(v, 3))), [v]),
            (lambda a, b: sum_all(mul(stack_rows([row(a, 0), row(b, 2)]),
                                      stack_rows([row(b, 1), row(a, 1)]))), [a, b]),
        ]
        for fn, params in checks:
            report = grad_check(fn, params, step=1e-5, tol=1e-5)
            assert report.passed, f"seed {seed}: {report.max_rel_err}"


def test_grad_check_positive_example(rng):
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    report = grad_check(lambda x, w: sum_all(sigmoid(matmul(x, w))), [x, w], tol=1e-5)
    assert report.passed


def test_grad_check_detects_corrupted_gradient(rng, monkeypatch):
    # a sigmoid whose backward is scaled x2 must fail the check
    import hatstory.tensor as T

    real = T.sigmoid

    def bad_sigmoid(t):
        out = real(t)
        if T._recording(t):
            rec = T._TAPE_STACK[-1]._records
            tensor, closure = rec[-1]
            rec[-1] = (tensor, lambda: _scaled(closure, t))
        return out

    def _scaled(closure, t):
        before = None if t.grad is None else t.grad.copy()
        closure()
        contrib = t.grad if before is None else t.grad - before
        t.grad = (0 if before is None else before) + 2.0 * contrib

    monkeypatch.setattr(T, "sigmoid", bad_sigmoid)
    x = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    report = grad_check(lambda x: sum_all(T.sigmoid(x)), [x], tol=1e-5)
    assert not report.passed


def test_grad_check_rejects_nondeterministic_function():
    calls = []

    def noisy(x):
        calls.append(1)
        return sum_all(x) if len(calls) == 1 else sum_all(mul(x, x))

    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DeterminismError):
        grad_check(noisy, [x])


def test_grad_check_reads_a_one_element_value_of_any_rank():
    """A (1,) value, such as a loss over one album row, is checked as a
    scalar; its gradient of 2x at x = 0.5 is 1."""
    report = grad_check(lambda x: mul(x, x), [Tensor([0.5], requires_grad=True)], tol=1e-5)
    assert report.passed and report.max_rel_err < 1e-9


def test_grad_check_rejects_a_value_of_more_than_one_element():
    with pytest.raises(ContractError, match=r"\(2,\)"):
        grad_check(lambda x: mul(x, x), [Tensor([0.5, 1.0], requires_grad=True)])


def test_numeric_gradient_restores_inputs(rng):
    x = Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
    before = x.data.copy()
    numeric_gradient(lambda t: sum_all(mul(t, t)), [x])
    assert np.array_equal(x.data, before)


# ---------------------------------------------------------------------------
# rng and init


def test_rng_reproducible_across_instances():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.uniform(0, 1, (5, 5)), b.uniform(0, 1, (5, 5)))
    assert np.array_equal(a.normal(1.0, (3,)), b.normal(1.0, (3,)))
    assert a.integers(0, 100) == b.integers(0, 100)
    assert a.permutation(10) == b.permutation(10)
    assert a.sample_distinct(20, 5) == b.sample_distinct(20, 5)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7", None])
def test_rng_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ContractError, match=f"seed must be a non-negative integer, got {seed!r}"):
        Rng(seed)


def test_rng_uniform_bounds_validated():
    with pytest.raises(ContractError):
        Rng(0).uniform(1.0, 1.0, (2,))


def test_seeded_init_deterministic():
    a = seeded_init(Rng(3), (4, 4))
    b = seeded_init(Rng(3), (4, 4))
    assert np.array_equal(a.data, b.data)


def test_xavier_bound_fan_4_4():
    bound = math.sqrt(0.75)  # sqrt(6 / (4 + 4))
    draws = seeded_init(Rng(0), (4, 4)).data
    assert np.all(np.abs(draws) <= bound)
    # with a wider sample the draws should get near the bound
    wide = np.concatenate([seeded_init(Rng(s), (4, 4)).data.ravel()
                           for s in range(200)])
    assert wide.max() > 0.95 * bound
    assert wide.min() < -0.95 * bound


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rng_permutation_is_permutation(seed):
    perm = Rng(seed).permutation(8)
    assert sorted(perm) == list(range(8))


def test_zeros_and_tensor_basics():
    z = zeros((2, 3), requires_grad=True)
    assert z.shape == (2, 3) and z.requires_grad
    t = Tensor(5.0)
    assert t.item() == 5.0 and t.ndim == 0
    assert sum_all(Tensor([1.0, 2.0])).item() == 3.0
