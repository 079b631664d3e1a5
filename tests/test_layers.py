"""The composed GRU step and MLP that the fused ops are tested against,
embedding rows and the fused ops: hand oracles, properties, gradients."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hatstory.errors import ContractError, DimensionError
from hatstory.layers import GruParams, MlpParams, gate_shapes, gate_views
from hatstory.tensor import (
    Rng,
    Tape,
    Tensor,
    attention,
    backward,
    concat,
    grad_check,
    gru_sequence,
    matmul,
    mul,
    row,
    seeded_init,
    sentence_log_prob,
    soft_select,
    sum_all,
    zeros,
)
from conftest import (assert_close, composed_attention, gru_cell, gru_layer, gru_step,
                      log_softmax_pick, mlp, mlp_head, reference_gru_sequence, reshape, select_step,
                      stack_rows, vecmat, xavier)


def scalar_gru(w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h, x, h):
    """Independent scalar recomputation of one GRU step."""
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = sig(x * w_z + h * u_z + b_z)
    r = sig(x * w_r + h * u_r + b_r)
    cand = math.tanh(x * w_h + (r * h) * u_h + b_h)
    return (1.0 - z) * h + z * cand


def make_scalar_cell(vals):
    cell = gru_layer(1, 1)[0]
    for name, view in cell.gates().items():
        view[...] = vals[name]
    return cell


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
    cell = gru_cell(rng, d_in, d_h)
    x = rng.uniform(-1, 1, d_in)
    h = rng.uniform(-1, 1, d_h)
    got = gru_step(cell, Tensor(x), Tensor(h)).data

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    w = cell.gates()
    z = sig(x @ w["w_z"] + h @ w["u_z"] + w["b_z"])
    r = sig(x @ w["w_r"] + h @ w["u_r"] + w["b_r"])
    cand = np.tanh(x @ w["w_h"] + (r * h) @ w["u_h"] + w["b_h"])
    want = (1 - z) * h + z * cand
    assert_close(got, want, tol=1e-14)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
@example(6716, 7)  # float64 tanh rounds to exactly 1.0 here, so one state is 1.0
def test_gru_hidden_stays_inside_unit_interval(seed, steps):
    rng = Rng(seed)
    cell = gru_cell(rng, 3, 4)
    # scale weights up so saturation would show if the bound could break
    for _, t in cell.named():
        t.data *= 3.0
    h = zeros(4)
    for _ in range(steps):
        h = gru_step(cell, Tensor(rng.uniform(-5, 5, 3)), h)
        assert np.all(np.abs(h.data) <= 1.0)


def test_gru_params_shape_validation(rng):
    good = gru_cell(rng, 3, 2)
    for bad in (dict(u_zr=Tensor(np.ones((1, 3, 6)))), dict(w=Tensor(np.ones((4, 6)))),
                dict(cell=1)):
        with pytest.raises(DimensionError):
            GruParams(**{"w": good.w, "u_zr": good.u_zr, "u_h": good.u_h, **bad})


@pytest.mark.parametrize("d_in, d_h", [(1, 1), (3, 2), (6, 5)])
def test_gate_shapes_are_the_shapes_gate_views_cuts(d_in, d_h):
    blocks = [t.data[0] for _, t in gru_layer(d_in, d_h)[0].named()]
    assert [view.shape for view in gate_views(*blocks)] == gate_shapes(d_in, d_h)


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
    params = mlp_head(rng, [4, 4, 2])
    xs = rng.uniform(-1, 1, (5, 4))
    batched = mlp(params, Tensor(xs)).data
    for i in range(5):
        assert_close(batched[i], mlp(params, Tensor(xs[i])).data, tol=1e-14)


def test_mlp_params_need_consistent_layers():
    with pytest.raises(ContractError):
        MlpParams([])
    with pytest.raises(DimensionError):
        MlpParams([(Tensor(np.ones((3, 2))), Tensor(np.ones(3)))])


def test_embedding_matches_one_hot_matmul(rng):
    table = seeded_init(rng, (6, 3))
    for tid in range(6):
        one_hot = np.zeros((1, 6))
        one_hot[0, tid] = 1.0
        want = matmul(Tensor(one_hot), table).data[0]
        assert_close(row(table, tid).data, want, tol=0)


def test_embedding_range_checked(rng):
    table = seeded_init(rng, (6, 3))
    with pytest.raises(IndexError):
        row(table, 6)
    with pytest.raises(IndexError):
        row(table, -1)


def test_gru_step_gradients(rng):
    cell = gru_cell(rng, 3, 2)
    x = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    h = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
    tensors = [t for _, t in cell.named()] + [x, h]

    def fn(*ts):
        return sum_all(mul(gru_step(cell, x, h), gru_step(cell, x, h)))

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.max_rel_err


def test_mlp_and_embedding_gradients(rng):
    params = mlp_head(rng, [3, 3, 1])
    table = seeded_init(rng, (5, 3))
    tensors = [t for _, t in params.named()] + [table]

    def fn(*ts):
        return sum_all(mlp(params, row(table, 2)))

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.max_rel_err


def _perturbed_cells(rng, d_in, d_h, count=1):
    """`count` GRUs of one layer, each drawn as `gru_cell` draws one and then
    perturbed, in turn."""
    cells = gru_layer(d_in, d_h, count)
    for cell in cells:
        for view in xavier(rng, cell).gates().values():
            view += rng.uniform(-0.5, 0.5, view.shape)  # nonzero biases too
    return cells


def _perturbed_cell(rng, d_in, d_h):
    return _perturbed_cells(rng, d_in, d_h)[0]


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


def test_gru_step_rejects_wrong_widths(rng):
    cell = gru_cell(rng, 3, 2)
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones(4)), zeros(2))
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones(3)), zeros(3))
    with pytest.raises(DimensionError):
        gru_step(cell, Tensor(np.ones((1, 3))), zeros(2))


# ---------------------------------------------------------------------------
# whole GRU runs and decoder sentences, each one op, against gru_step chains


def gru_chain(cell, xs, h0, reverse=False):
    """States of a gru_step chain over the rows of xs, in input order."""
    states = [None] * len(xs.data)
    h = h0
    for t in reversed(range(len(states))) if reverse else range(len(states)):
        h = states[t] = gru_step(cell, row(xs, t), h)
    return states


def sentence_chain(total, h, g, words, targets, table, cell, proj_w, proj_b):
    """`sentence_log_prob` as one record per word step and word log-prob."""
    for word, target in zip(words, targets):
        h = gru_step(cell, concat([row(table, word), g]), h)
        lp = log_softmax_pick(vecmat(h, proj_w) + proj_b, target)
        total = lp if total is None else total + lp
    return total, h


def _values_and_grads(run, tensors):
    """run() -> (loss, values) on one tape; returns the values and every
    tensor's gradient."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss, values = run()
        backward(tape, loss)
    return [v.data.copy() for v in values], [t.grad for t in tensors]


def one_row(t):
    """t as one album row, the shape the fused ops take, on the tape."""
    return reshape(t, (1,) + t.shape)


def _sequence_loss(states):
    loss = sum_all(mul(states[0], states[0]))
    for s in states[1:]:
        loss = loss + sum_all(mul(s, states[0] + s))
    return loss


def test_gru_sequence_matches_gru_step_chain_bitwise():
    rng = Rng(0)
    for seed, steps in itertools.product(range(4), (1, 2, 6)):
        fwd, bwd = _perturbed_cells(rng, 3 + seed, 2 + seed % 3, 2)
        xs = Tensor(rng.uniform(-1, 1, (steps, 3 + seed)), requires_grad=True)
        h0 = Tensor(rng.uniform(-1, 1, 2 + seed % 3), requires_grad=True)
        tensors = [t for _, t in fwd.named()] + [xs, h0]

        def fused():
            hs = gru_sequence(one_row(xs), one_row(h0), fwd, bwd)
            states = [row(row(hs, 0), t) for t in range(steps)]
            return _sequence_loss(states), [hs]

        def chain():
            states = [concat([f, b]) for f, b in zip(gru_chain(fwd, xs, h0),
                                                     gru_chain(bwd, xs, h0, reverse=True))]
            return _sequence_loss(states), states

        (hs,), grads_f = _values_and_grads(fused, tensors)
        states, grads_c = _values_and_grads(chain, tensors)
        assert np.array_equal(hs[0], np.stack(states))  # values bitwise
        for a, b in zip(grads_f, grads_c):  # gradients summed over the run at once
            assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("shared", [False, True], ids=["two-cells", "one-cell-twice"])
def test_gru_sequence_is_two_one_direction_runs_bitwise(shared):
    """States and every gradient of the lockstep op equal, bit for bit, those
    of a one-direction op per cell, the second over the flipped inputs."""
    rng = Rng(7)
    for count, steps, (d_in, d_h), trainable in itertools.product(
            (1, 3), (1, 2, 6), ((3, 2), (24, 16)), (False, True)):
        fwd, bwd = [_perturbed_cell(rng, d_in, d_h)] * 2 if shared else _perturbed_cells(
            rng, d_in, d_h, 2)
        xs = Tensor(rng.uniform(-1, 1, (count, steps, d_in)), requires_grad=trainable)
        h0 = Tensor(rng.uniform(-1, 1, (count, d_h)), requires_grad=trainable)
        weight = Tensor(rng.uniform(-1, 1, (count, steps, 2 * d_h)))
        tensors = [t for _, t in fwd.named()] + ([xs, h0] if trainable else [])  # bwd shares them
        results = []
        for op in (gru_sequence, reference_gru_sequence):
            def run():
                hs = op(xs, h0, fwd, bwd)
                return _pair_loss(hs, weight), [hs]
            values, grads = _values_and_grads(run, tensors)
            results.append(values + grads)
        for a, b in zip(*results):
            assert a.shape == b.shape and np.array_equal(a, b), (count, steps, d_in, trainable)


def test_gru_sequence_records_one_tape_entry(rng):
    fwd, bwd = (xavier(rng, cell) for cell in gru_layer(3, 2, 2))
    with Tape() as tape:
        gru_sequence(Tensor(rng.uniform(-1, 1, (1, 5, 3))), zeros((1, 2)), fwd, bwd)
    assert tape.counts() == {"gru_sequence": 1}


def test_gru_sequence_rejects_empty_and_mismatched(rng):
    cell = gru_cell(rng, 3, 2)
    for xs, h0 in ((np.ones((1, 0, 3)), np.zeros((1, 2))), (np.ones((1, 2, 4)), np.zeros((1, 2))),
                   (np.ones((1, 3)), np.zeros((1, 2))), (np.ones((1, 2, 3)), np.zeros((1, 3))),
                   (np.ones((2, 2, 3)), np.zeros((1, 2))),
                   (np.ones((2, 3)), np.zeros(2))):  # the last without the row axis
        with pytest.raises(DimensionError, match="gru_sequence"):
            gru_sequence(Tensor(xs), Tensor(h0), cell, cell)
    for other in (gru_cell(rng, 4, 2), gru_cell(rng, 3, 3)):  # directions of unequal widths
        with pytest.raises(DimensionError, match="gru_sequence"):
            gru_sequence(Tensor(np.ones((1, 2, 3))), Tensor(np.zeros((1, 2))), cell, other)


def test_gru_sequence_takes_its_cells_only_where_they_lie_side_by_side(rng):
    """The directions' recurrent blocks are read as one stacked view, never
    copied together: two cells of separate layers, or one layer's cells in
    the wrong order, are refused."""
    fwd, bwd = (xavier(rng, cell) for cell in gru_layer(3, 2, 2))
    xs, h0 = Tensor(np.ones((1, 2, 3))), Tensor(np.zeros((1, 2)))
    for pair in ((fwd, gru_cell(rng, 3, 2)), (bwd, fwd)):
        with pytest.raises(ContractError, match="side by side"):
            gru_sequence(xs, h0, *pair)


def test_gru_sequence_gradients(rng):
    for steps in (1, 2, 6):
        for trainable in (False, True):
            fwd, bwd = _perturbed_cells(rng, 3, 2, 2)
            xs = Tensor(rng.uniform(-1, 1, (1, steps, 3)), requires_grad=trainable)
            h0 = Tensor(rng.uniform(-0.5, 0.5, (1, 2)), requires_grad=trainable)
            weight = Tensor(rng.uniform(-1, 1, (1, steps, 4)))
            tensors = [t for _, t in fwd.named()]
            tensors += [xs, h0] if trainable else []

            def fn(*ts):
                hs = gru_sequence(xs, h0, fwd, bwd)
                return sum_all(mul(hs, hs + weight))

            report = grad_check(fn, tensors, tol=1e-5)
            assert report.passed, (steps, trainable, report.per_param)


def _decoder(rng, vocab=6, d_w=2, k=3, d_g=3):
    """A GRU over [word embedding, g] and an output projection, with nonzero
    biases."""
    cell = _perturbed_cell(rng, d_w + k, d_g)
    table = Tensor(rng.uniform(-1, 1, (vocab, d_w)), requires_grad=True)
    proj_w = Tensor(rng.uniform(-1, 1, (d_g, vocab)), requires_grad=True)
    proj_b = Tensor(rng.uniform(-0.5, 0.5, vocab), requires_grad=True)
    return table, cell, proj_w, proj_b


@pytest.mark.parametrize("seed", range(10))
def test_sentence_log_prob_matches_gru_step_chain_bitwise(seed):
    rng = Rng(seed)
    table, cell, proj_w, proj_b = _decoder(rng)
    g = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    start = Tensor(rng.uniform(-5, -1), requires_grad=True)
    targets = [rng.integers(0, 6) for _ in range(1 + seed % 5)]
    words = [1] + targets[:-1]
    tensors = [t for _, t in cell.named()] + [table, proj_w, proj_b, g, h0, start]
    def story(op, shape):  # the fused op over one row, the chain over vectors
        return lambda: _two_sentences(op, shape(start), shape(h0), shape(g), words, targets,
                                      table, cell, proj_w, proj_b)

    found, expected = (_values_and_grads(story(op, shape), tensors) for op, shape in
                       ((sentence_log_prob, one_row), (sentence_chain, lambda t: t)))
    for a, b in zip(found[0], expected[0]):  # both totals and the final state, one row
        assert np.array_equal(a[0], b)
    for a, b in zip(found[1], expected[1]):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12


def _two_sentences(op, start, h0, g, words, targets, *decoder):
    """Two sentences chained as a story does: the running total and the
    state carry over, and the loss also reads the final state."""
    first, h = op(start, h0, g, words, targets, *decoder)
    total, h = op(first, h, g, words[::-1], targets[::-1], *decoder)
    return total + sum_all(mul(h, h)), [first, total, h]


def test_sentence_log_prob_gradcheck_and_errors(rng):
    table, cell, proj_w, proj_b = _decoder(rng)
    g = Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)
    words, targets = [1, 4, 3, 4, 4], [4, 3, 4, 4, 2]  # a repeated word scatter-adds
    tensors = [t for _, t in cell.named()] + [table, proj_w, proj_b, g, h0]

    def fn(*ts):
        total, h = sentence_log_prob(None, h0, g, words, targets, table, cell, proj_w, proj_b)
        return total + sum_all(mul(h, h))

    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param
    decoder = (table, cell, proj_w, proj_b)
    with pytest.raises(ContractError, match="at least one"):
        sentence_log_prob(None, h0, g, [], [], *decoder)
    with pytest.raises(ContractError):
        sentence_log_prob(None, h0, g, [1, 4], [4], *decoder)
    with pytest.raises(IndexError):
        sentence_log_prob(None, h0, g, [1], [6], *decoder)
    with pytest.raises(IndexError):
        sentence_log_prob(None, h0, g, [-1], [2], *decoder)
    for state, summary in ((h0.data[0], g.data[0]), (h0.data, g.data[0]), (h0.data[0], g.data),
                           (h0.data, np.ones((1, 4))), (np.ones((1, 4)), g.data)):
        with pytest.raises(DimensionError, match="sentence_log_prob"):
            sentence_log_prob(None, Tensor(state), Tensor(summary), words, targets, *decoder)


# ---------------------------------------------------------------------------
# the fused ops over more rows, gradchecked with unequal sentence lengths


def _pair_loss(rows_out, weight):
    return sum_all(mul(rows_out, rows_out + weight))


@pytest.mark.parametrize("count", [1, 3])
def test_gru_sequence_rows_gradcheck(count):
    rng = Rng(40 + count)
    fwd, bwd = _perturbed_cells(rng, 3, 2, 2)
    xs = Tensor(rng.uniform(-1, 1, (count, 4, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-0.5, 0.5, (count, 2)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (count, 4, 4)))
    fn = lambda *ts: _pair_loss(gru_sequence(xs, h0, fwd, bwd), weight)
    tensors = [t for _, t in fwd.named()] + [xs, h0]
    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param


def _row_sentences(rng, lengths, vocab=6):
    targets = [[rng.integers(0, vocab) for _ in range(n)] for n in lengths]
    return [[1, *t[:-1]] for t in targets], targets


@pytest.mark.parametrize("lengths", [[4], [3, 1, 5], [2, 6, 1]])
def test_sentence_log_prob_rows_gradcheck(lengths):
    rng = Rng(len(lengths) + sum(lengths))
    table, cell, proj_w, proj_b = _decoder(rng)
    count = len(lengths)
    g = Tensor(rng.uniform(-1, 1, (count, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, (count, 3)), requires_grad=True)
    start = Tensor(rng.uniform(-5, -1, count), requires_grad=True)
    words, targets = _row_sentences(rng, lengths)
    weight = Tensor(rng.uniform(-1, 1, (count, 3)))

    def fn(*ts):
        total, h = sentence_log_prob(start, h0, g, words, targets, table, cell, proj_w, proj_b)
        return sum_all(total) + _pair_loss(h, weight)

    tensors = [t for _, t in cell.named()] + [table, proj_w, proj_b, g, h0, start]
    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param


def test_sentence_log_prob_one_sentence_read_by_every_row():
    rng = Rng(48)
    table, cell, proj_w, proj_b = _decoder(rng)
    g = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    words, targets = [1, 4, 3, 4], [4, 3, 4, 2]
    weight = Tensor(rng.uniform(-1, 1, (3, 3)))

    def fn(*ts):
        total, h = sentence_log_prob(None, h0, g, words, targets, table, cell, proj_w, proj_b)
        return sum_all(total) + _pair_loss(h, weight)

    tensors = [t for _, t in cell.named()] + [table, proj_w, proj_b, g, h0]
    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param
    shared = sentence_log_prob(None, h0, g, words, targets, table, cell, proj_w, proj_b)
    per_row = sentence_log_prob(None, h0, g, [words] * 3, [targets] * 3, table, cell, proj_w,
                                proj_b)
    for a, b in zip(shared, per_row):
        assert np.array_equal(a.data, b.data)


def test_sentence_log_prob_rows_match_each_row_alone():
    rng = Rng(45)
    decoder = _decoder(rng)
    lengths = [3, 1, 5]
    g, h0 = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
    words, targets = _row_sentences(rng, lengths)
    total, h = sentence_log_prob(None, Tensor(h0), Tensor(g), words, targets, *decoder)
    for i in range(3):
        one, h_one = sentence_chain(None, Tensor(h0[i]), Tensor(g[i]), words[i], targets[i],
                                    *decoder)
        assert abs(total.data[i] - one.data) <= 1e-12 and np.max(np.abs(h.data[i] - h_one.data)) <= 1e-12
        row_one, h_row = sentence_log_prob(None, Tensor(h0[i:i + 1]), Tensor(g[i:i + 1]),
                                           [words[i]], [targets[i]], *decoder)
        assert np.array_equal(row_one.data, [one.data]) and np.array_equal(h_row.data[0], h_one.data)


def test_sentence_log_prob_padded_steps_get_zero_gradient():
    """Row 1 reads one word beside row 0's three: its two padded steps add
    nothing, so its start state and g get the gradients of row 1 alone."""
    rng = Rng(46)
    table, cell, proj_w, proj_b = _decoder(rng)
    h0 = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    g = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)

    def grads(words, targets, pick=lambda t: t):
        for t in [h0, g, table, proj_w, proj_b] + [w for _, w in cell.named()]:
            t.grad = None
        with Tape() as tape:
            total, h = sentence_log_prob(None, pick(h0), pick(g), words, targets, table, cell,
                                         proj_w, proj_b)
            backward(tape, sum_all(total) + sum_all(h))
        return h0.grad[1], g.grad[1], table.grad[0]

    padded = grads([[1, 4, 3], [1]], [[4, 3, 2], [2]])
    alone = grads([1], [2], lambda t: one_row(row(t, 1)))
    assert np.all(padded[2] == 0.0)  # the padding id reads table row 0, which no word reads
    for a, b in zip(padded[:2], alone[:2]):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_sentence_log_prob_rows_errors():
    rng = Rng(47)
    decoder = _decoder(rng)
    h0, g = zeros((2, 3)), zeros((2, 3))
    for words, targets in (([[], []], [[], []]), ([[1, 4], []], [[4, 2], []])):
        with pytest.raises(ContractError, match="at least one"):
            sentence_log_prob(None, h0, g, words, targets, *decoder)
    with pytest.raises(ContractError):
        sentence_log_prob(None, h0, g, [[1, 4]], [[4, 2]], *decoder)  # one list for two rows
    with pytest.raises(ContractError):
        sentence_log_prob(None, h0, g, [[1, 4], [1]], [[4, 2], [2, 2]], *decoder)
    with pytest.raises(IndexError):
        sentence_log_prob(None, h0, g, [[1], [1.0]], [[2], [2]], *decoder)


# ---------------------------------------------------------------------------
# a leading pair axis: two sentences per row in one op, each half bitwise a
# call over its rows alone


def _pair_story(op, h0, g, g_pair, sentences, carry):
    """Two sentences chained as a story does, scored by `op(total, h0, g,
    words, targets)`; the second reads its own g per half and starts from the
    first's state, or afresh from h0 when `carry` is off."""
    total, h = None, h0
    for g_t, (words, targets) in zip((g, g_pair), sentences):
        total, h = op(total, h if carry else h0, g_t, words, targets)
    return total, h


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("carry", [True, False])
def test_sentence_log_prob_pair_axis_is_two_calls_bitwise(count, carry):
    rng = Rng(90 + count + 2 * carry)
    decoder = _decoder(rng)
    # each sentence's story lengths, then its negative's: a negative longer
    # than its story pads across halves
    lengths = ([([3], [5]), ([1], [2])] if count == 1 else
               [([3, 1, 2], [1, 5, 2]), ([2, 4, 1], [4, 2, 3])])
    sentences = [[_row_sentences(rng, ls) for ls in sentence] for sentence in lengths]
    h0 = Tensor(rng.uniform(-1, 1, (2, count, 3)), requires_grad=True)
    g = Tensor(rng.uniform(-1, 1, (count, 3)), requires_grad=True)
    g_pair = Tensor(rng.uniform(-1, 1, (2, count, 3)), requires_grad=True)
    tensors = [t for _, t in decoder[1].named()] + [decoder[0], *decoder[2:], h0, g, g_pair]
    op = lambda total, h, g_t, words, targets: sentence_log_prob(total, h, g_t, words, targets,
                                                                 *decoder)

    def paired():
        joined = [tuple(a + b for a, b in zip(*halves)) for halves in sentences]
        total, h = _pair_story(op, h0, g, g_pair, joined, carry)
        return sum_all(total) + sum_all(mul(h, h)), [total, h]

    def apart():
        results = []
        for i in (0, 1):
            halves = [half[i] for half in sentences]
            results.append(_pair_story(op, row(h0, i), g, row(g_pair, i), halves, carry))
        (t_0, h_0), (t_1, h_1) = results
        loss = sum_all(t_0) + sum_all(t_1) + sum_all(mul(h_0, h_0)) + sum_all(mul(h_1, h_1))
        return loss, [t_0, t_1, h_0, h_1]

    found, expected = _values_and_grads(paired, tensors), _values_and_grads(apart, tensors)
    for a, b in ((found[0][0], expected[0][:2]), (found[0][1], expected[0][2:])):
        assert np.array_equal(a, np.reshape(b, a.shape))
    for a, b in zip(found[1], expected[1]):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("count", [1, 3])
def test_sentence_log_prob_pair_axis_gradcheck(count):
    rng = Rng(95 + count)
    table, cell, proj_w, proj_b = _decoder(rng)
    lengths = [2, 5] if count == 1 else [2, 4, 1, 3, 1, 5]  # the stories' rows, then negatives'
    words, targets = _row_sentences(rng, lengths)
    g = Tensor(rng.uniform(-1, 1, (count, 3)), requires_grad=True)
    h0 = Tensor(rng.uniform(-1, 1, (2, count, 3)), requires_grad=True)
    start = Tensor(rng.uniform(-5, -1, (2, count)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (2, count, 3)))

    def fn(*ts):
        total, h = sentence_log_prob(start, h0, g, words, targets, table, cell, proj_w, proj_b)
        return sum_all(mul(total, total)) + _pair_loss(h, weight)

    tensors = [t for _, t in cell.named()] + [table, proj_w, proj_b, g, h0, start]
    report = grad_check(fn, tensors, tol=1e-5)
    assert report.passed, report.per_param


def _selector(rng, k=4, d_s=3):
    cell = _perturbed_cell(rng, k, d_s)
    head = mlp_head(rng, [d_s + k, d_s + k, 1])
    for _, t in head.named():
        t.data *= 3.0  # keeps the selection path's gradients above difference noise
    return cell, head


def one_row_select(v, cell, head, steps, hard=False):
    """`soft_select` over the photos v (n, k) as one album row, its results
    taken out of the row, as `composed_select` gives them."""
    g, probs, picks = soft_select(one_row(v), cell, head, steps, hard)
    return row(g, 0), probs[0], picks[0]


def composed_select(v, cell, head, steps, hard=False):
    """The selector's steps as composed ops over one album, the reference
    that `soft_select` fuses: `select_step`, in hard mode excluding the
    photos picked before, and the greedy-distinct picks. Returns (g, P,
    picks) as `soft_select` does."""
    n = v.shape[0]
    state = zeros(cell.u_h.shape[-1])
    prev = vecmat(Tensor(np.full(n, 1.0 / n)), v)
    rows_p, chosen = [], []
    for _ in range(steps):
        excluded = np.isin(np.arange(n), chosen) if hard else None
        p, state = select_step(cell, head, v, prev, state, excluded)
        free = [i for i in range(n) if i not in chosen] or range(n)
        chosen.append(min(free, key=lambda i: (-p.data[i], i)))
        rows_p.append(p)
        prev = vecmat(p, v)
    probs = stack_rows(rows_p)
    return matmul(probs, v), probs.data, chosen


@pytest.mark.parametrize("seed", range(5))
def test_soft_select_one_row_is_the_composed_steps_bitwise(seed):
    """Both modes, albums of 5 to 8 photos."""
    rng = Rng(50 + seed)
    cell, head = _selector(rng)
    v = Tensor(rng.uniform(-1, 1, (5 + seed % 4, 4)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (5, 4)))
    tensors = [t for _, t in cell.named()] + [t for _, t in head.named()] + [v]
    for hard in (False, True):
        outs = []

        def run(select):
            outs.append(select(v, cell, head, 5, hard))
            return _pair_loss(outs[-1][0], weight), [outs[-1][0]]

        fused, composed = (_values_and_grads(lambda: run(f), tensors)
                           for f in (one_row_select, composed_select))
        (_, probs_f, picks_f), (_, probs_c, picks_c) = outs
        assert np.array_equal(fused[0][0], composed[0][0])
        assert np.array_equal(probs_f, probs_c) and picks_f == picks_c
        for a, b in zip(fused[1], composed[1]):
            assert np.max(np.abs(a - b)) <= 1e-12
        rows, probs, picks = soft_select(Tensor(v.data[None]), cell, head, 5, hard)
        assert np.array_equal(rows.data[0], fused[0][0]) and np.array_equal(probs[0], probs_f)
        assert picks == [picks_f]
    with pytest.raises(DimensionError, match="soft_select"):
        soft_select(Tensor(v.data), cell, head, 5)


@pytest.mark.parametrize("count", [1, 3])
def test_soft_select_rows_gradcheck(count):
    """Both modes; in hard mode each row masks its own picks."""
    rng = Rng(60 + count)
    cell, head = _selector(rng)
    v = Tensor(rng.uniform(-2, 2, (count, 5, 4)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (count, 5, 4)))
    tensors = [t for _, t in cell.named()] + [t for _, t in head.named()] + [v]
    for hard in (False, True):
        fn = lambda *ts: _pair_loss(soft_select(v, cell, head, 5, hard)[0], weight)
        report = grad_check(fn, tensors, tol=1e-5)
        assert report.passed, (hard, report.per_param)


@pytest.mark.parametrize("hard", [False, True])
def test_soft_select_renormalizes_scores_far_below_zero(hard):
    """Every photo's score pre-activation at -40: the exp-form sigmoid keeps
    each score positive (4.2e-18), so every p_t row is finite and sums to 1.
    In the tanh form that the GRU gates take, each score would be exactly 0
    and each row 0 / 0."""
    rng = Rng(70)
    cell, head = _selector(rng)
    w, b = head.layers[-1]
    w.data[...], b.data[...] = 0.0, -40.0
    _, probs, _ = soft_select(Tensor(rng.uniform(-1, 1, (2, 6, 4))), cell, head, 5, hard)
    assert np.isfinite(probs).all()
    assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) <= 1e-15


def _random_head(rng, d_in, hidden):
    head = mlp_head(rng, [d_in, hidden, 1])
    for _, t in head.named():
        t.data += rng.uniform(-1, 1, t.shape)  # nonzero biases, a wider spread of scores
    return head


def _concatenated_scores(head, state, v):
    """The paper's scorer: `mlp` over the concatenation [state, v_i]."""
    feats = np.concatenate([np.broadcast_to(state, (len(v), len(state))), v], axis=1)
    return mlp(head, Tensor(feats)).data[:, 0]


SPLIT_SHAPES = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000), "n": st.integers(1, 7), "k": st.integers(1, 6),
    "d": st.integers(1, 5), "hidden": st.integers(1, 6), "rows": st.sampled_from([1, 3]),
})


@settings(max_examples=40, deadline=None)
@given(SPLIT_SHAPES, st.booleans())
def test_soft_select_stays_within_rounding_of_the_concatenated_mlp(shape, hard):
    """The split first layer against the paper's formula, step by step in
    numpy over each row, with the GRU of the composed `gru_step`."""
    rng = Rng(shape["seed"])
    n, k, d, rows = shape["n"], shape["k"], shape["d"], shape["rows"]
    cell, head = _perturbed_cell(rng, k, d), _random_head(rng, d + k, shape["hidden"])
    v = rng.uniform(-2, 2, (rows, n, k))
    g, probs, picks = soft_select(Tensor(v), cell, head, 5, hard)
    for i in range(rows):
        state, prev, chosen = np.zeros(d), v[i].mean(axis=0), []
        for t in range(5):
            state = gru_step(cell, Tensor(prev), Tensor(state)).data
            raw = 1.0 / (1.0 + np.exp(-_concatenated_scores(head, state, v[i])))
            free = ~np.isin(np.arange(n), chosen) if len(set(chosen)) < n else np.ones(n, bool)
            p = raw * free if hard else raw
            p = p / p.sum()
            assert np.max(np.abs(probs[i, t] - p)) <= 1e-12
            chosen.append(int(np.flatnonzero(free)[np.argmax(p[free])]))
            prev = p @ v[i]
        assert picks[i] == chosen
        assert np.max(np.abs(g.data[i] - probs[i] @ v[i])) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(SPLIT_SHAPES, st.booleans())
def test_attention_stays_within_rounding_of_the_concatenated_mlp(shape, paired):
    """Rows, or both halves of the pair axis, against the paper's formula."""
    rng = Rng(shape["seed"])
    n, k, d, rows = shape["n"], shape["k"], shape["d"], shape["rows"]
    head = _random_head(rng, d + k, shape["hidden"])
    h = rng.uniform(-2, 2, (2, rows, d) if paired else (rows, d))
    v = rng.uniform(-2, 2, (rows, n, k))
    out, alpha = attention(Tensor(h), Tensor(v), head)
    for at in np.ndindex(h.shape[:-1]):
        scores = _concatenated_scores(head, h[at], v[at[-1]])
        weights = np.exp(scores - scores.max())
        weights /= weights.sum()
        assert np.max(np.abs(alpha[at] - weights)) <= 1e-12
        assert np.max(np.abs(out.data[at] - weights @ v[at[-1]])) <= 1e-12


def one_row_attention(h, v, head):
    """`attention` from the state h (d,) over the photos v (n, k) as one
    album row, its results taken out of the row."""
    out, alpha = attention(one_row(h), one_row(v), head)
    return row(out, 0), alpha[0]


def test_attention_one_row_is_the_composed_ops_bitwise():
    rng = Rng(70)
    head = mlp_head(rng, [7, 7, 1])
    h = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
    v = Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, 4))
    tensors = [t for _, t in head.named()] + [h, v]
    found, expected = (
        _values_and_grads(lambda: (lambda out: (_pair_loss(out[0], weight), [out[0]]))(
            op(h, v, head)), tensors)
        for op in (one_row_attention, composed_attention)
    )
    assert np.array_equal(found[0][0], expected[0][0])
    for a, b in zip(found[1], expected[1]):
        assert np.max(np.abs(a - b)) <= 1e-12
    out, alpha = attention(Tensor(h.data[None]), Tensor(v.data[None]), head)
    assert np.array_equal(out.data[0], found[0][0])
    assert np.array_equal(alpha[0], composed_attention(h, v, head)[1].data)
    with pytest.raises(DimensionError, match="attention"):
        attention(h, v, head)


@pytest.mark.parametrize("count", [1, 3])
def test_attention_rows_gradcheck(count):
    rng = Rng(80 + count)
    head = mlp_head(rng, [7, 7, 1])
    h = Tensor(rng.uniform(-1, 1, (count, 3)), requires_grad=True)
    v = Tensor(rng.uniform(-1, 1, (count, 5, 4)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (count, 4)))
    fn = lambda *ts: _pair_loss(attention(h, v, head)[0], weight)
    # the softmax ignores a shift of every score, so the output bias has no
    # gradient and its central differences are pure rounding noise
    report = grad_check(fn, [t for _, t in head.named()[:-1]] + [h, v], tol=1e-5)
    assert report.passed, report.per_param
    with pytest.raises(DimensionError, match="attention"):
        attention(h, Tensor(v.data[0]), head)


@pytest.mark.parametrize("count", [1, 3])
def test_attention_pair_axis_shares_the_photos(count):
    """Both halves of h (2, R, d) read v (R, n, k): each half's values are
    bitwise a call of its own, and v's gradient sums over the pair."""
    rng = Rng(85 + count)
    head = mlp_head(rng, [7, 7, 1])
    h = Tensor(rng.uniform(-1, 1, (2, count, 3)), requires_grad=True)
    v = Tensor(rng.uniform(-1, 1, (count, 5, 4)), requires_grad=True)
    weight = Tensor(rng.uniform(-1, 1, (2, count, 4)))
    tensors = [t for _, t in head.named()] + [h, v]
    alphas = []

    def paired():
        out, alpha = attention(h, v, head)
        alphas.append(alpha)
        return _pair_loss(out, weight), [out]

    def apart():
        halves = [attention(row(h, i), v, head) for i in (0, 1)]
        alphas.append(np.stack([alpha for _, alpha in halves]))
        loss = sum(_pair_loss(out, row(weight, i)) for i, (out, _) in enumerate(halves))
        return loss, [out for out, _ in halves]

    found, expected = _values_and_grads(paired, tensors), _values_and_grads(apart, tensors)
    assert np.array_equal(found[0][0], np.stack(expected[0]))
    assert np.array_equal(alphas[0], alphas[1]) and alphas[0].shape == (2, count, 5)
    for a, b in zip(found[1], expected[1]):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    report = grad_check(lambda *ts: _pair_loss(attention(h, v, head)[0], weight),
                        [t for _, t in head.named()[:-1]] + [h, v], tol=1e-5)
    assert report.passed, report.per_param
    with pytest.raises(DimensionError, match="attention"):
        attention(h, Tensor(rng.uniform(-1, 1, (count + 1, 5, 4))), head)
