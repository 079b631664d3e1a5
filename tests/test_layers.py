"""Recurrent cells, MLP, and embedding: hand oracles, properties, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.errors import ContractError, DimensionError
from hatstory.layers import EmbeddingTable, GruParams, MlpParams, bi_gru, embed, gru_step, mlp
from hatstory.tensor import (
    Rng,
    Tape,
    Tensor,
    backward,
    grad_check,
    matmul,
    mul,
    sigmoid,
    sum_all,
    tanh,
    vecmat,
    zeros,
)
from conftest import assert_close


def scalar_gru(w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h, x, h):
    """Independent scalar recomputation of one GRU step."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = sig(x * w_z + h * u_z + b_z)
    r = sig(x * w_r + h * u_r + b_r)
    cand = math.tanh(x * w_h + (r * h) * u_h + b_h)
    return (1.0 - z) * h + z * cand


def make_scalar_cell(vals):
    t = lambda v, shape: Tensor(np.full(shape, v), requires_grad=True)
    return GruParams(
        w_z=t(vals["w_z"], (1, 1)), w_r=t(vals["w_r"], (1, 1)), w_h=t(vals["w_h"], (1, 1)),
        u_z=t(vals["u_z"], (1, 1)), u_r=t(vals["u_r"], (1, 1)), u_h=t(vals["u_h"], (1, 1)),
        b_z=t(vals["b_z"], (1,)), b_r=t(vals["b_r"], (1,)), b_h=t(vals["b_h"], (1,)),
    )


def test_gru_step_scalar_hand_oracle():
    vals = dict(w_z=0.4, w_r=-0.3, w_h=0.7, u_z=0.2, u_r=0.5, u_h=-0.6,
                b_z=0.1, b_r=-0.2, b_h=0.05)
    cell = make_scalar_cell(vals)
    x, h = 0.8, -0.35
    got = gru_step(cell, Tensor([x]), Tensor([h])).data[0]
    want = scalar_gru(x=x, h=h, **vals)
    assert got == pytest.approx(want, abs=1e-15)


def test_gru_step_zero_weights_halves_state():
    cell = make_scalar_cell({k: 0.0 for k in
                             ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")})
    h = Tensor([0.62])
    out = gru_step(cell, Tensor([1.3]), h).data
    # z = sigmoid(0) = 0.5, candidate = tanh(0) = 0, so h' = 0.5 h
    assert_close(out, [0.31], tol=1e-15)


def test_gru_step_vector_matches_per_coordinate_recomputation(rng):
    d_in, d_h = 3, 2
    cell = GruParams.create(rng, d_in, d_h)
    x = rng.uniform(-1, 1, d_in)
    h = rng.uniform(-1, 1, d_h)
    got = gru_step(cell, Tensor(x), Tensor(h)).data

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    z = sig(x @ cell.w_z.data + h @ cell.u_z.data + cell.b_z.data)
    r = sig(x @ cell.w_r.data + h @ cell.u_r.data + cell.b_r.data)
    cand = np.tanh(x @ cell.w_h.data + (r * h) @ cell.u_h.data + cell.b_h.data)
    want = (1 - z) * h + z * cand
    assert_close(got, want, tol=1e-14)


def test_bi_gru_matches_manual_unroll(rng):
    fwd = GruParams.create(rng, 3, 2)
    bwd = GruParams.create(rng, 3, 2)
    xs = [Tensor(rng.uniform(-1, 1, 3)) for _ in range(4)]
    outs = bi_gru(fwd, bwd, xs)

    h = zeros(2)
    fwd_states = []
    for x in xs:
        h = gru_step(fwd, x, h)
        fwd_states.append(h.data)
    h = zeros(2)
    bwd_states = []
    for x in reversed(xs):
        h = gru_step(bwd, x, h)
        bwd_states.append(h.data)
    bwd_states.reverse()
    for i in range(4):
        assert_close(outs[i].data, np.concatenate([fwd_states[i], bwd_states[i]]), tol=0)


def test_bi_gru_rejects_empty_and_mismatched():
    fwd = GruParams.create(Rng(0), 3, 2)
    bwd = GruParams.create(Rng(1), 3, 2)
    with pytest.raises(ContractError):
        bi_gru(fwd, bwd, [])
    with pytest.raises(DimensionError):
        bi_gru(fwd, bwd, [Tensor(np.ones(4))])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
def test_gru_hidden_stays_inside_unit_interval(seed, steps):
    rng = Rng(seed)
    cell = GruParams.create(rng, 3, 4)
    # scale weights up so saturation would show if the bound could break
    for _, t in cell.named():
        t.data *= 3.0
    h = zeros(4)
    for _ in range(steps):
        h = gru_step(cell, Tensor(rng.uniform(-5, 5, 3)), h)
        assert np.all(np.abs(h.data) < 1.0)


def test_gru_params_shape_validation(rng):
    good = GruParams.create(rng, 3, 2)
    with pytest.raises(DimensionError):
        GruParams(
            w_z=good.w_z, w_r=good.w_r, w_h=good.w_h,
            u_z=Tensor(np.ones((3, 3))), u_r=good.u_r, u_h=good.u_h,
            b_z=good.b_z, b_r=good.b_r, b_h=good.b_h,
        )


def test_mlp_identity_single_layer_reproduces_input():
    w = Tensor(np.eye(3), requires_grad=True)
    b = Tensor([0.1, -0.2, 0.3], requires_grad=True)
    params = MlpParams([(w, b)])
    x = np.array([0.5, -1.5, 2.0])
    assert_close(mlp(params, Tensor(x)).data, x + b.data, tol=0)


def test_mlp_hand_computation_two_layers():
    w1 = Tensor(np.array([[1.0, -1.0], [0.5, 2.0]]), requires_grad=True)
    b1 = Tensor(np.array([0.1, 0.2]), requires_grad=True)
    w2 = Tensor(np.array([[1.0], [1.0]]), requires_grad=True)
    b2 = Tensor(np.array([-0.3]), requires_grad=True)
    params = MlpParams([(w1, b1), (w2, b2)])
    x = np.array([2.0, -1.0])
    hidden = np.tanh(x @ w1.data + b1.data)
    want = hidden @ w2.data + b2.data
    assert_close(mlp(params, Tensor(x)).data, want, tol=1e-15)


def test_mlp_batched_rows_match_single_rows(rng):
    params = MlpParams.create(rng, [4, 4, 2])
    xs = rng.uniform(-1, 1, (5, 4))
    batched = mlp(params, Tensor(xs)).data
    for i in range(5):
        assert_close(batched[i], mlp(params, Tensor(xs[i])).data, tol=1e-14)


def test_mlp_create_validates_sizes(rng):
    with pytest.raises(ContractError):
        MlpParams.create(rng, [4])
    with pytest.raises(ContractError):
        MlpParams([])


def test_embedding_matches_one_hot_matmul(rng):
    table = EmbeddingTable.create(rng, 6, 3)
    for tid in range(6):
        one_hot = np.zeros((1, 6))
        one_hot[0, tid] = 1.0
        want = matmul(Tensor(one_hot), table.table).data[0]
        assert_close(embed(table, tid).data, want, tol=0)


def test_embedding_range_checked(rng):
    table = EmbeddingTable.create(rng, 6, 3)
    with pytest.raises(IndexError):
        embed(table, 6)
    with pytest.raises(IndexError):
        embed(table, -1)


def test_gru_step_gradients(rng):
    cell = GruParams.create(rng, 3, 2)
    x = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    h = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
    tensors = [t for _, t in cell.named()] + [x, h]

    def fn(*ts):
        return sum_all(mul(gru_step(cell, x, h), gru_step(cell, x, h)))

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.max_rel_err


def test_bi_gru_gradients(rng):
    fwd = GruParams.create(rng, 2, 2)
    bwd = GruParams.create(rng, 2, 2)
    xs = [Tensor(rng.uniform(-1, 1, 2)) for _ in range(3)]
    tensors = [t for _, t in fwd.named()] + [t for _, t in bwd.named()]

    def fn(*ts):
        outs = bi_gru(fwd, bwd, xs)
        total = sum_all(mul(outs[0], outs[0]))
        for o in outs[1:]:
            total = total + sum_all(mul(o, o))
        return total

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.max_rel_err


def test_mlp_and_embedding_gradients(rng):
    params = MlpParams.create(rng, [3, 3, 1])
    table = EmbeddingTable.create(rng, 5, 3)
    tensors = [t for _, t in params.named()] + [table.table]

    def fn(*ts):
        return sum_all(mlp(params, embed(table, 2)))

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.max_rel_err


# ---------------------------------------------------------------------------
# the fused GRU step against the composed-op reference


def composed_gru_step(params, x, h):
    """The GRU step written with one tape op per arithmetic step, as the
    fused op must reproduce it."""
    z = sigmoid(vecmat(x, params.w_z) + vecmat(h, params.u_z) + params.b_z)
    r = sigmoid(vecmat(x, params.w_r) + vecmat(h, params.u_r) + params.b_r)
    cand = tanh(vecmat(x, params.w_h) + vecmat(mul(r, h), params.u_h) + params.b_h)
    return (1.0 - z) * h + z * cand


def _perturbed_cell(rng, d_in, d_h):
    cell = GruParams.create(rng, d_in, d_h)
    for _, t in cell.named():
        t.data += rng.uniform(-0.5, 0.5, t.shape)  # nonzero biases too
    return cell


def _run_sequence(step, cell, xs, trainable_x):
    """Unroll `step` over xs on one tape. The loss reads every state, so each
    state's gradient sums several contributions. Returns (loss, states,
    gradients of every tensor, tape length)."""
    inputs = [Tensor(x, requires_grad=trainable_x) for x in xs]
    for _, t in cell.named():
        t.grad = None
    with Tape() as tape:
        h = zeros(cell.d_h)
        states = []
        for x in inputs:
            h = step(cell, x, h)
            states.append(h)
        loss = sum_all(mul(states[-1], states[-1]))
        for s in states[:-1]:
            loss = loss + sum_all(mul(s, states[-1]))
        backward(tape, loss)
    grads = [t.grad for _, t in cell.named()]
    if trainable_x:
        grads += [x.grad for x in inputs]
    return loss.data, [s.data for s in states], grads, len(tape)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("trainable_x", [True, False])
def test_fused_gru_step_is_bitwise_equal_to_composed_ops(seed, trainable_x):
    rng = Rng(seed)
    d_in, d_h = 3 + seed, 2 + seed % 3
    cell = _perturbed_cell(rng, d_in, d_h)
    xs = [rng.uniform(-1, 1, d_in) for _ in range(4)]
    loss_c, states_c, grads_c, _ = _run_sequence(composed_gru_step, cell, xs, trainable_x)
    loss_f, states_f, grads_f, _ = _run_sequence(gru_step, cell, xs, trainable_x)
    for a, b in zip(states_c, states_f):
        assert np.array_equal(a, b)
    assert np.array_equal(loss_c, loss_f)
    # same accumulation order as the composed tape, so bitwise, not just close
    for a, b in zip(grads_c, grads_f):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_fused_gru_step_records_one_tape_entry_per_step(rng):
    cell = GruParams.create(rng, 3, 2)
    xs = [rng.uniform(-1, 1, 3) for _ in range(4)]
    # 4 steps plus the loss's 2 + 3 * 3 records
    assert _run_sequence(gru_step, cell, xs, True)[3] == 4 + 2 + 3 * 3


def test_gru_step_gradients_with_constant_input(rng):
    """test_gru_step_gradients covers a trainable x; here x is a constant,
    as photo features are, and the state passes through two steps."""
    cell = _perturbed_cell(rng, 3, 2)
    x = Tensor(rng.uniform(-1, 1, 3))
    h0 = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
    tensors = [t for _, t in cell.named()] + [h0]

    def fn(*ts):
        h1 = gru_step(cell, x, h0)
        h2 = gru_step(cell, x, h1)
        return sum_all(mul(h2, h2)) + sum_all(h1)

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param


def test_fused_gru_step_rejects_wrong_widths(rng):
    cell = GruParams.create(rng, 3, 2)
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones(4)), zeros(2))
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones(3)), zeros(3))
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones((1, 3))), zeros(2))
