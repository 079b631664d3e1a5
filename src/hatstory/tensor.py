"""Dense float64 tensors with a define-by-run gradient tape.

Deliberately small: row-major numpy storage, one tape of backward closures
per forward pass, and a finite-difference checker kept independent of the
tape so the two routes can cross-validate each other. Shape rules are
strict: binary elementwise ops need equal shapes, the only broadcasting
allowed is scalar-with-tensor, and every other alignment (tiling, joining,
slicing) is an explicit op.

Only the composed ops the program calls live here (`add` to `sum_all`); each
states its value and the gradient each input gets from the output's, and
`_op` records it.
Per-op Python dispatch, not arithmetic, sets the speed of these small
models, so the hottest compositions are fused ops, one tape record each,
with hand-written backwards that give many inputs their gradients in one
pass: the bidirectional encoder (`gru_sequence`), a teacher-forced sentence
(`sentence_log_prob`), the selector's steps (`soft_select`) and an attention
read (`attention`). All take album rows, one album being one row, and the
sentence and the attention a leading pair axis too: a minibatch runs as
rows on one tape, a ranked one's stories and negatives as the pair's
halves, and tape-free inference runs the same ops. At one row, and per
half, their values are bitwise the composed references' that the tests
keep; gradients agree to rounding. The encoder and the sentence run one GRU
kernel, `gru_run`, which steps its cells in lockstep on a leading axis,
bitwise one run per cell. Every GRU step is `gru_step_array`: gates
0.5 tanh(0.5 a) + 0.5, biases folded into the input products, each kind of
weight side by side in one product, and h + z (cand - h). Those weights are
a GRU layer's three block Tensors, which its cells share on a leading axis;
the ops read a cell's blocks as they are (`GruParams.sides`), so no op
copies a weight, and give each block one gradient product per cell.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import (
    ContractError,
    DeterminismError,
    DimensionError,
    IndexRangeError,
    StateError,
)


class Tensor:
    """Dense float64 array, optionally tracked for gradients.

    Values are immutable by convention once created; the two sanctioned
    writers are the optimizer (between tapes) and the finite-difference
    checker (which restores what it perturbs). A gradient reaching a tensor
    whose `grad` is None is written into `grad_buffer` when that is set.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_buffer")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.grad_buffer = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar, got shape {self.data.shape}")
        return self.data.item()

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad)


class Tape:
    """Recording of one forward pass; replayable backward exactly once.

    Use as a context manager around the forward computation. Ops record a
    backward closure only while a tape is active and some input requires a
    gradient, so inference outside a tape pays no tracking cost.
    """

    def __init__(self):
        self._records = []  # (output tensor, backward closure), in execution order
        self._spent = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._records)

    def counts(self):
        """Records per op kind, each named by the op that made its backward."""
        return Counter(back.__qualname__.split(".")[0] for _, back in self._records)


_TAPE_STACK = []


def _recording(*inputs):
    """True when an active tape should track an op over these inputs."""
    if not _TAPE_STACK:
        return False
    return any(t.requires_grad for t in inputs)


def _out(data, *inputs):
    out = Tensor(data)
    out.requires_grad = _recording(*inputs)
    return out


def _rec(out, back):
    _TAPE_STACK[-1]._records.append((out, back))


def _accum(t, g):
    if t.grad is not None:
        t.grad += g
    elif t.grad_buffer is None:
        t.grad = np.array(g, dtype=np.float64)
    else:  # a copy, as above, so a -0.0 stays one
        t.grad = t.grad_buffer
        t.grad[...] = g


def _fit(g, shape):
    """Reduce a gradient to an operand's shape; only scalar operands ever differ."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum()).reshape(shape)


def _binary_shapes(name, a, b):
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise DimensionError(
            f"{name}: shapes {a.data.shape} and {b.data.shape} do not match"
        )


def backward(tape, root):
    """Run the tape backward from a scalar root, accumulating leaf gradients.

    One backward per recording: replaying a spent tape raises StateError.
    Gradients sum in reverse execution order, so repeated runs of the same
    forward pass produce bitwise-identical gradients.
    """
    if tape._spent:
        raise StateError(
            "tape already replayed; rebuild the forward pass before calling backward again"
        )
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.data.shape}")
    if not any(out is root for out, _ in tape._records):
        raise ContractError("backward root was not produced while this tape was recording")
    tape._spent = True
    root.grad = np.ones_like(root.data)
    for out, back in reversed(tape._records):
        if out.grad is not None:
            back()


# ---------------------------------------------------------------------------
# plain-array arithmetic, shared by the ops below and by tape-free batched
# inference; a leading row axis passes through unchanged


def sigmoid_array(x):
    # exp(-|x|) <= 1 on both branches, so no overflow in either tail
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax_array(x, axis=-1):
    """Max-subtracted exponential normalization along one axis."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax_array(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def gru_step_array(xw, h, u_zr, u_h, out=None):
    """One GRU step over the rows of the state h (..., d_h) from the input
    products, xw = x [W_z | W_r | W_h] + [b_z | b_r | b_h] (..., 3 d_h):

    [z | r] = sigmoid(xw[:2 d_h] + h [U_z | U_r])
    cand = tanh(xw[2 d_h:] + (r * h) U_h)
    h' = h + z * (cand - h)

    with sigmoid(a) = 0.5 tanh(0.5 a) + 0.5, in place. `out` holds the
    buffers (zr, cand, h'), zr = [z | r] (..., 2 d_h), made when None."""
    d = h.shape[-1]
    zr, cand, new = out or (np.empty(h.shape[:-1] + (2 * d,)), np.empty_like(h), np.empty_like(h))
    np.matmul(h, u_zr, out=zr)
    zr += xw[..., :2 * d]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr *= 0.5
    zr += 0.5
    np.matmul(zr[..., d:] * h, u_h, out=cand)
    cand += xw[..., 2 * d:]
    np.tanh(cand, out=cand)
    np.subtract(cand, h, out=new)
    new *= zr[..., :d]
    new += h
    return zr, cand, new


def _lockstep(cells):
    """The blocks, each (D, ...), of the D GRU cells that `gru_run` steps as
    one: one cell D times, or cells of a layer that lie side by side in order."""
    first = cells[0]
    blocks = first.w.data, first.u_zr.data, first.u_h.data
    if all(c.w is first.w and c.cell == first.cell + i for i, c in enumerate(cells)):
        return [b[first.cell:first.cell + len(cells)] for b in blocks]
    if any(cell is not first for cell in cells):
        raise ContractError("gru_run: cells must be one cell, or one layer's side by side in order")
    return [np.broadcast_to(b[first.cell], (len(cells),) + b.shape[1:]) for b in blocks]


def gru_run(xs, h0, cells):
    """GRUs over R rows of T inputs, xs (T, R, d_in), stepped in lockstep, one
    per GruParams of `cells` (`_lockstep`), from h0 (D, R, d_h) for D cells;
    or with a pair axis after the first, xs (T, 2, R, d_in) from (D, 2, R,
    d_h). The first cell reads the inputs from the first, a second one from
    the last. The input products, biases included, are made once, one per
    cell; each step is one `gru_step_array` over all the cells. Products are
    per (R, .) block, so each cell, and each half, is bitwise a run over its
    rows alone. Returns the states and z, r, cand gates, each (T, D, ...,
    d_h) in step order ([t, 1] follows input T - 1 - t), and for the
    backward the inputs with their 1s and the cells' blocks."""
    x = np.empty(xs.shape[:-1] + (xs.shape[-1] + 1,))
    x[..., :-1], x[..., -1] = xs, 1.0
    hs = np.empty((len(xs),) + h0.shape)
    d = h0.shape[-1]
    zr, cand = np.empty(hs.shape[:-1] + (2 * d,)), np.empty_like(hs)
    xw = np.empty(hs.shape[:-1] + (3 * d,))
    w_in, u_zr, u_h = _lockstep(cells)
    for i, w in enumerate(w_in):
        np.matmul(x[::-1] if i else x, w, out=xw[:, i])
    u_zr, u_h = (u[(slice(None),) + (None,) * (h0.ndim - 3)] for u in (u_zr, u_h))
    h = h0
    for t in range(len(xs)):
        h = gru_step_array(xw[t], h, u_zr, u_h, (zr[t], cand[t], hs[t]))[2]
    return hs, zr[..., :d], zr[..., d:], cand, (x, w_in, u_zr, u_h)


# ---------------------------------------------------------------------------
# composed ops: each states its value and, for every input, the gradient it
# gets from the output's; `_op` records them


def _op(name, value, inputs, grads):
    """The op's output; under a tape, when some input needs a gradient, one
    record named `name` whose backward accumulates grads[i](g), for the
    output's gradient g, into each such inputs[i] in input order."""
    out = _out(value, *inputs)
    if out.requires_grad:
        def back():
            g = out.grad
            for t, grad in zip(inputs, grads):
                if t.requires_grad:
                    _accum(t, grad(g))
        back.__qualname__ = name  # what Tape.counts reads
        _rec(out, back)
    return out


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("add", a, b)
    return _op("add", a.data + b.data, (a, b),
               (lambda g: _fit(g, a.data.shape), lambda g: _fit(g, b.data.shape)))


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("sub", a, b)
    return _op("sub", a.data - b.data, (a, b),
               (lambda g: _fit(g, a.data.shape), lambda g: _fit(-g, b.data.shape)))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("mul", a, b)
    return _op("mul", a.data * b.data, (a, b),
               (lambda g: _fit(g * b.data, a.data.shape), lambda g: _fit(g * a.data, b.data.shape)))


def neg(a):
    a = _as_tensor(a)
    return _op("neg", -a.data, (a,), (np.negative,))


def sigmoid(a):
    a = _as_tensor(a)
    y = sigmoid_array(a.data)
    return _op("sigmoid", y, (a,), (lambda g: g * y * (1.0 - y),))


def relu(a):
    a = _as_tensor(a)
    # subgradient 0 at the kink
    return _op("relu", np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0),))


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul: needs two matrices, got shapes {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.data.shape} x {b.data.shape}"
        )
    return _op("matmul", a.data @ b.data, (a, b),
               (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def concat(tensors, axis=0):
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ContractError("concat: needs at least one tensor")
    ndim = ts[0].data.ndim
    if ndim == 0:
        raise DimensionError("concat: scalars cannot be concatenated")
    if any(t.data.ndim != ndim for t in ts):
        raise DimensionError("concat: mixed ranks")
    axis = axis % ndim
    first = ts[0].data.shape
    grads, start, lead = [], 0, (slice(None),) * axis
    for t in ts:  # each input's gradient is its slice of the output's
        shape = t.data.shape
        if shape[:axis] != first[:axis] or shape[axis + 1:] != first[axis + 1:]:
            raise DimensionError(f"concat: off-axis extents differ, {first} vs {shape}")
        grads.append(itemgetter(lead + (slice(start, start + shape[axis]),)))
        start += shape[axis]
    return _op("concat", np.concatenate([t.data for t in ts], axis=axis), ts, grads)


def tile_rows(v, n):
    """Repeat a 1-D tensor as n identical rows."""
    v = _as_tensor(v)
    if v.data.ndim != 1:
        raise DimensionError(f"tile_rows: needs a vector, got shape {v.data.shape}")
    if n < 1:
        raise ContractError("tile_rows: n must be positive")
    return _op("tile_rows", np.tile(v.data, (n, 1)), (v,), (lambda g: g.sum(axis=0),))


def sum_all(a):
    a = _as_tensor(a)
    return _op("sum_all", np.asarray(a.data.sum()), (a,),
               (lambda g: np.broadcast_to(g, a.data.shape),))


def row(m, i, axis=0):
    """Select index i, or the slice i, along one axis (the first by default)
    of a tensor; the gradient scatters back into that part. From a vector an
    index gives a scalar."""
    m = _as_tensor(m)
    if m.data.ndim < 1:
        raise DimensionError("row: needs at least a vector, got a scalar")
    if not isinstance(i, slice):
        if not isinstance(i, (int, np.integer)) or not 0 <= i < m.data.shape[axis]:
            raise IndexRangeError(f"row index {i} out of range for shape {m.data.shape}")
        i = int(i)
    at = (slice(None),) * (axis % m.data.ndim) + (i,)

    def grad(g):
        full = np.zeros_like(m.data)
        full[at] = g
        return full

    return _op("row", m.data[at].copy(), (m,), (grad,))


# ---------------------------------------------------------------------------
# fused ops: one tape record for what would otherwise be many small ones


def _flat(a):
    return a.reshape(-1, a.shape[-1])


def _gru_factors(hp, z, r, cand):
    """Step-local derivative factors of GRU updates from the states hp."""
    return 1.0 - z, z * (1.0 - cand * cand), hp * r * (1.0 - r), (cand - hp) * z * (1.0 - z), r


def _gru_back_step(g, t, factors, u_zr_t, u_h_t, gates):
    """Step t of GRU backpropagation for the state gradient g: fills the z, r
    and cand pre-activation gradients gates[t], side by side (..., 3 d_h);
    returns the start state's. The recurrent weights come transposed,
    [U_z | U_r]^T and U_h^T, and may be stacked on a direction axis."""
    omz, dc, dr, dz, r = (f[t] for f in factors)
    d = g.shape[-1]
    gate = gates[t]
    g_rh = np.multiply(g, dc, out=gate[..., 2 * d:]) @ u_h_t
    np.multiply(g, dz, out=gate[..., :d])
    np.multiply(g_rh, dr, out=gate[..., d:2 * d])
    carry = g * omz
    carry += g_rh * r
    carry += gate[..., :2 * d] @ u_zr_t
    return carry


def _gru_weight_grads(cells, runs):
    """Add the GRU weights' gradients into the block Tensors of `cells`, one
    product per block and cell from its run in `runs`: inputs x (with their
    1s), start states hp and [z | r | cand] gate gradients. Cells that are
    their whole layer in order, as on every program path, give the stacked
    products; others, such as one cell twice, add into their cells' slices."""
    parts = []
    for x, hp, r, gates in runs:
        gates, d = _flat(gates), gates.shape[-1] // 3
        parts.append((_flat(x).T @ gates, _flat(hp).T @ gates[:, :2 * d],
                      _flat(r * hp).T @ gates[:, 2 * d:]))
    whole = [cell.cell for cell in cells] == list(range(len(cells[0].w.data)))
    for i, (_, t) in enumerate(cells[0].named()):
        if t.requires_grad and whole:
            _accum(t, parts[0][i][None] if len(parts) == 1 else np.stack([p[i] for p in parts]))
        elif t.requires_grad:
            if t.grad is None:
                _accum(t, np.zeros_like(t.data))
            for cell, part in zip(cells, parts):
                t.grad[cell.cell] += part[i]


def _gru_run_back(h0, run, cells, g_states, need_x):
    """Backpropagation through time of a `gru_run` from the array h0 (D, ...,
    d_h) over the D GruParams `cells`, whose states get g_states (T, D, ...,
    d_h), in step order, from outside. All cells step back together; the
    weights' gradients are one product per block and cell
    (`_gru_weight_grads`). Returns the gradient of h0 and one of the inputs
    per cell, in input order, each None unless `need_x`."""
    hs, z, r, cand, (x, w_in, u_zr, u_h) = run
    hp = np.concatenate([h0[None], hs[:-1]])  # the state each step starts from
    factors = _gru_factors(hp, z, r, cand)
    # the [z | r | cand] pre-activation gradients, each cell's steps contiguous
    by_cell = np.empty(hs.shape[1::-1] + hs.shape[2:-1] + (3 * hs.shape[-1],))
    gates = np.swapaxes(by_cell, 0, 1)
    u_zr_t, u_h_t = np.swapaxes(u_zr, -1, -2), np.swapaxes(u_h, -1, -2)
    carry = None
    for t in range(len(hs) - 1, -1, -1):
        g = g_states[t] if carry is None else carry + g_states[t]
        carry = _gru_back_step(g, t, factors, u_zr_t, u_h_t, gates)
    _gru_weight_grads(cells, [(x[::-1] if d else x, hp[:, d], r[:, d], by_cell[d])
                              for d in range(len(cells))])
    g_x = [None] * len(cells)
    for d in range(len(cells) if need_x else 0):
        g = by_cell[d] @ w_in[d][:-1].T
        g_x[d] = g[::-1] if d else g
    return carry, g_x


def gru_sequence(xs, h0, fwd, bwd):
    """A bidirectional GRU over R rows as one op, its directions stepped in
    lockstep: [r, t] of the (R, T, 2 d_h) result is [f; b], row r's state
    under the cell `fwd` after its input t of xs (R, T, d_in) and under the
    cell `bwd` after reading its inputs from the last down to t, both from
    h0 (R, d_h). Values and gradients are bitwise those of a one-direction
    run per cell, the second over the reversed inputs, recorded as two ops."""
    xs, h0 = _as_tensor(xs), _as_tensor(h0)
    w, _, u_h = fwd.sides()
    d_in, d_h = len(w) - 1, len(u_h)
    if (bwd.sides()[0].shape != w.shape or xs.data.ndim != 3 or xs.data.shape[1] < 1
            or xs.data.shape[2] != d_in or h0.data.shape != (xs.data.shape[0], d_h)):
        raise DimensionError(f"gru_sequence: inputs {xs.data.shape} and state {h0.data.shape} "
                             f"do not fit weights {w.shape} and {bwd.sides()[0].shape} as rows")
    x = xs.data.transpose(1, 0, 2)  # (T, R, d_in)
    start = np.broadcast_to(h0.data, (2,) + h0.data.shape)
    run = gru_run(x, start, [fwd, bwd])
    states = [run[0][:, 0], run[0][::-1, 1]]  # both in input order
    out = _out(np.concatenate([s.transpose(1, 0, 2) for s in states], axis=-1),
               xs, h0, *(t for cell in (fwd, bwd) for _, t in cell.named()))
    if out.requires_grad:
        def back():
            g = out.grad.transpose(1, 0, 2)
            g_h0, g_x = _gru_run_back(start, run, [fwd, bwd],
                                      np.stack([g[..., :d_h], g[::-1, :, d_h:]], axis=1),
                                      xs.requires_grad)
            for d in (1, 0):  # in the order two ops' backwards would add them
                if h0.requires_grad:
                    _accum(h0, g_h0[d])
                if xs.requires_grad:
                    _accum(xs, g_x[d].transpose(1, 0, 2))
        _rec(out, back)
    return out


def sentence_log_prob(total, h0, g, words, targets, table, cell, proj_w, proj_b):
    """One teacher-forced decoder sentence over R rows as one op: from row
    r's state h0[r] (h0 is (R, d_g)), the GRU `cell` reads [table[w], g[r]]
    for each input word w (g is (R, k)), and each state's log-softmax of
    `state @ proj_w + proj_b` picks its target. Each row's log-probs are
    added into its entry of `total` ((R,), or None) in word order, bitwise
    the word-by-word sum. Words and targets hold one list per row, or one
    that every row reads. Returns (total, final states).

    With a leading pair axis, h0 is (2, R, d_g), g (2, R, k) or (R, k) read
    by both halves, `total` (2, R), and the lists 2R, the first half's
    first; each half is bitwise a call over its rows alone. Shorter rows,
    also across halves, are padded and masked (padded steps get exactly zero
    gradient); a row's final state follows its last word.

    The record is keyed on the total, and the state's gradient is read when
    the total's backward runs: a caller that uses the state uses the total."""
    h0, g = _as_tensor(h0), _as_tensor(g)
    vocab, d_w = table.data.shape
    d_in, d_h = cell.w.shape[1] - 1, cell.u_h.shape[-1]
    shared = h0.data.ndim == 3 and g.data.ndim == 2  # one g read by both halves
    if (h0.data.ndim not in (2, 3) or h0.data.shape[-1] != d_h
            or g.data.shape != h0.data.shape[shared:-1] + (d_in - d_w,)):
        raise DimensionError(f"sentence_log_prob: state {h0.data.shape} and input {g.data.shape} "
                             f"do not fit a decoder of width {d_h} over inputs {d_in} as rows")
    lead = h0.data.shape[:-1]  # (R,), or (2, R) with the pair axis
    count = math.prod(lead)
    per_row = bool(words) and isinstance(words[0], list)
    seqs = [*words, *targets] if per_row else [words, targets]
    lengths, half = [len(seq) for seq in seqs], len(seqs) // 2
    if (len(seqs) != 2 * (count if per_row else 1) or lengths[:half] != lengths[half:]
            or not min(lengths)):
        raise ContractError(f"sentence_log_prob: needs as many input words as targets, at least "
                            f"one, in each of {count} rows, got {words} and {targets}")
    steps = max(lengths)
    ids = np.asarray([[*seq, *[0] * (steps - len(seq))] for seq in seqs])
    if ids.dtype.kind not in "biu" or ids.min() < 0 or ids.max() >= vocab:
        bad = next(i for seq in seqs for i in seq
                   if not isinstance(i, (int, np.integer)) or not 0 <= i < vocab)
        raise IndexRangeError(f"sentence_log_prob: token id {bad} out of range for vocab {vocab}")
    # (2, T, *lead), or (2, T, 1, ...) for one sentence that every row reads
    ids = ids.reshape((2,) + (lead if per_row else (1,) * len(lead)) + (steps,))
    ids = ids.transpose(0, -1, *range(1, len(lead) + 1))
    padded = min(lengths) < steps  # only then do rows, or halves, differ in length
    lengths = np.reshape(lengths[:half], lead) if padded else None
    weights = [t for _, t in cell.named()]
    x = np.empty((steps,) + lead + (d_in,))
    x[..., :d_w] = table.data[ids[0]]
    x[..., d_w:] = g.data
    run = gru_run(x, h0.data[None], [cell])
    states = run[0][:, 0]
    y = log_softmax_array(states @ proj_w.data + proj_b.data)
    at = tuple(np.arange(n).reshape((-1,) + (1,) * (len(lead) - i))
               for i, n in enumerate((steps,) + lead)) + (ids[1],)  # each step's targets
    picked = y[at]
    if padded:
        picked[at[0] >= lengths] = 0.0
    if total is not None:
        picked[0] += total.data
    value = np.add.accumulate(picked)[-1]  # sequential: bitwise the word-by-word sum
    end = states[(lengths - 1,) + at[1:-1]] if padded else states[-1]
    inputs = (h0, g, table, proj_w, proj_b, *weights) + (() if total is None else (total,))
    out, h = Tensor(value), Tensor(end)
    out.requires_grad = h.requires_grad = _recording(*inputs)
    if out.requires_grad:
        def back():
            g_out = out.grad
            if total is not None and total.requires_grad:
                _accum(total, out.grad)
            g_logits = np.exp(y) * -g_out[..., None]
            g_logits[at] += g_out
            if padded:
                g_logits[at[0] >= lengths] = 0.0
            if proj_b.requires_grad:
                _accum(proj_b, _flat(g_logits).sum(axis=0))
            if proj_w.requires_grad:
                _accum(proj_w, _flat(states).T @ _flat(g_logits))
            g_states = g_logits @ proj_w.data.T
            if h.grad is not None:
                g_states[(lengths - 1,) + at[1:-1] if padded else -1] += h.grad
            (g_h0,), (g_x,) = _gru_run_back(h0.data[None], run, [cell], g_states[:, None],
                                            g.requires_grad or table.requires_grad)
            if h0.requires_grad:
                _accum(h0, g_h0)
            if g.requires_grad:
                g_g = g_x[..., d_w:].sum(axis=0)
                _accum(g, g_g.sum(axis=0) if shared else g_g)
            if table.requires_grad:
                if table.grad is None:
                    _accum(table, np.zeros_like(table.data))
                # a repeated word adds twice
                np.add.at(table.grad, np.broadcast_to(ids[0], g_x.shape[:-1]), g_x[..., :d_w])
        _rec(out, back)
    return out, h


def _head_run(layers, half, state):
    """The scoring MLP over [state, v_i] for every photo, its first layer split:
    half = v W1_v + b1 (..., n, h), made once per op, plus state W1_s for the
    state (..., d), broadcast over the photos. Returns every layer's output."""
    acts = [half + (state @ layers[0][0].data[:state.shape[-1]])[..., None, :]]
    for w, b in layers[1:]:
        acts[-1] = np.tanh(acts[-1])
        acts.append(acts[-1] @ w.data + b.data)
    return acts


def _head_back(layers, acts, g):
    """Backward of `_head_run` from the output gradient g, accumulating into
    the later layers; returns the first one's pre-activation gradient."""
    for i in range(len(layers) - 1, 0, -1):  # g: layer i's pre-activation gradient
        w, b = layers[i]
        if w.requires_grad:
            _accum(w, _flat(acts[i - 1]).T @ _flat(g))
        if b.requires_grad:
            _accum(b, _flat(g).sum(axis=0))
        g = (g @ w.data.T) * (1.0 - acts[i - 1] * acts[i - 1])
    return g


def _head_first_back(layer, v, d_half, state, d_sum):
    """The first layer's gradients once per op, from its pre-activation gradient
    summed over steps and halves (d_half) and over the photos (d_sum): W1 gets
    the two halves' stacked, and b1; returns the photos v's gradient."""
    w, b = layer
    if w.requires_grad:
        _accum(w, np.concatenate([_flat(state).T @ _flat(d_sum), _flat(v).T @ _flat(d_half)]))
    if b.requires_grad:
        _accum(b, _flat(d_half).sum(axis=0))
    return d_half @ w.data[state.shape[-1]:].T


def soft_select(v, cell, mlp, steps, hard=False):
    """The selector's `steps` steps over R album rows as one op. From the
    mean photo of row r of v (R, n, k), each step runs the GRU `cell` on the
    last summary, scores every photo as sigmoid(mlp([state, v_i])) and
    renormalizes the scores to p_t; the next step reads p_t @ v. Step t
    picks the argmax of p_t among the photos not picked yet, ties to the
    lower index (every photo is free again once all are picked). In `hard`
    mode the scores of the photos picked before step t are zeroed before
    renormalizing. Returns g = P @ v (R, steps, k) as a Tensor, P (R, steps,
    n) as an array and the picks as one list per row. The MLP's first layer
    is split, (v_i W1_v + b1) + state W1_s, its photos' term made once: at
    one row values are bitwise the composed steps' split alike."""
    v = _as_tensor(v)
    weights, layers = [t for _, t in cell.named()], mlp.layers
    tensors = (v, *weights, *(t for pair in layers for t in pair))
    vd = v.data
    k, d_s = cell.w.shape[1] - 1, cell.u_h.shape[-1]
    if vd.ndim != 3 or vd.shape[2] != k:
        raise DimensionError(f"soft_select: photos must be (R, n, {k}) rows, got {vd.shape}")
    count, n, _ = vd.shape
    half = vd @ layers[0][0].data[d_s:] + layers[0][1].data
    w_in, u_zr, u_h = cell.sides()
    recording = _recording(*tensors)
    saved = []  # per step: start and new state, z, r, cand, MLP outputs, raw, kept sum, mask
    state = np.zeros((count, d_s))
    xs = np.ones((steps + 1, count, k + 1))  # each step's input, ending in a constant 1
    xs[0, :, :k] = (np.full((count, 1, n), 1.0 / n) @ vd)[:, 0]
    probs = np.empty((count, steps, n))
    picks = np.empty((count, steps), dtype=int)
    taken = np.zeros((count, n), dtype=bool)
    for t in range(steps):
        free = ~taken | taken.all(axis=1, keepdims=True)
        keep = free if hard else 1.0
        zr, cand, new = gru_step_array(xs[t] @ w_in, state, u_zr, u_h)
        acts = _head_run(layers, half, new)
        raw = sigmoid_array(acts[-1][..., 0])
        kept = raw * keep
        raw_sum = kept.sum(axis=1, keepdims=True)
        p = probs[:, t] = kept / raw_sum
        picks[:, t] = np.where(free, p, -np.inf).argmax(axis=1)  # the first of equal maxima
        taken[np.arange(count), picks[:, t]] = True
        if recording:
            saved.append((state, new, zr[:, :d_s], zr[:, d_s:], cand, acts, raw, raw_sum, keep))
        xs[t + 1, :, :k], state = (p[:, None] @ vd)[:, 0], new
    g = probs @ vd
    out = _out(g, *tensors)
    if out.requires_grad:
        def back():
            d_g = out.grad
            v_t = vd.transpose(0, 2, 1)
            d_v, d_p = probs.transpose(0, 2, 1) @ d_g, d_g @ v_t
            starts, news, zs, rs, cands = (np.stack(a) for a in list(zip(*saved))[:5])
            factors = _gru_factors(starts, zs, rs, cands)
            gates = np.empty(starts.shape[:-1] + (3 * d_s,))
            carry, d_x = np.zeros_like(state), np.zeros((count, k))  # d_x: the next step's input
            d_pres = np.empty((steps,) + half.shape)  # the first layer's pre-activation gradients
            for t in reversed(range(steps)):
                acts, raw, raw_sum, keep = saved[t][5:]
                dp = d_p[:, t] + (d_x[:, None] @ v_t)[:, 0]  # the next step read p_t @ v
                d_v += probs[:, t, :, None] * d_x[:, None]
                d_raw = (dp - (dp * probs[:, t]).sum(axis=1, keepdims=True)) / raw_sum * keep
                d_pres[t] = _head_back(layers, acts, (d_raw * raw * (1.0 - raw))[..., None])
                carry = _gru_back_step(d_pres[t].sum(axis=1) @ layers[0][0].data[:d_s].T + carry, t,
                                       factors, u_zr.T, u_h.T, gates)
                d_x = gates[t] @ w_in[:-1].T
            d_v += d_x[:, None] / n  # the first step read the mean photo
            d_v += _head_first_back(layers[0], vd, d_pres.sum(axis=0), news, d_pres.sum(axis=2))
            _gru_weight_grads([cell], [(xs[:steps], starts, rs, gates)])
            if v.requires_grad:
                _accum(v, d_v)
        _rec(out, back)
    return out, probs, picks.tolist()


def attention(h, v, mlp):
    """Soft attention over R album rows as one op: softmax weights alpha over
    mlp([h[r], v_i]) for the photos of row r of v (R, n, k) from the state
    h (R, d); returns alpha @ v (R, k) as a Tensor and alpha (R, n) as an
    array. With a leading pair axis h is (2, R, d), both halves read v, each
    bitwise as if alone, and v's gradient sums over the pair. Its MLP's first
    layer is split as in `soft_select`, the photos' term made once."""
    h, v = _as_tensor(h), _as_tensor(v)
    paired = h.data.ndim == 3
    if v.data.ndim != 3 or h.data.ndim not in (2, 3) or h.data.shape[paired:-1] != v.data.shape[:1]:
        raise DimensionError(f"attention: state {h.data.shape} does not fit photos {v.data.shape} "
                             f"as rows")
    layers = mlp.layers
    vd = v.data
    hd = h.data.reshape((-1,) + h.data.shape[-2:])  # (halves, rows, d)
    half = vd @ layers[0][0].data[hd.shape[-1]:] + layers[0][1].data
    acts = _head_run(layers, half, hd)
    alpha = softmax_array(acts[-1][..., 0])
    out = _out((alpha[..., None, :] @ vd)[..., 0, :].reshape(h.data.shape[:-1] + vd.shape[-1:]),
               h, v, *(t for pair in layers for t in pair))
    if out.requires_grad:
        def back():
            d_out = out.grad.reshape(alpha.shape[:-1] + vd.shape[-1:])
            d_alpha = (vd @ d_out[..., None])[..., 0]
            d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
            d_pre = _head_back(layers, acts, d_scores[..., None])
            d_sum = d_pre.sum(axis=-2)
            if h.requires_grad:
                _accum(h, (d_sum @ layers[0][0].data[:hd.shape[-1]].T).reshape(h.data.shape))
            d_v = _head_first_back(layers[0], vd, d_pre.sum(axis=0), hd, d_sum)
            if v.requires_grad:
                _accum(v, (d_v + (alpha[..., None] * d_out[..., None, :]).sum(axis=0))
                       .reshape(v.data.shape))
        _rec(out, back)
    return out, alpha.reshape(h.data.shape[:-1] + vd.shape[1:2])


# ---------------------------------------------------------------------------
# randomness and initialization


@dataclass
class Rng:
    """Deterministic random source: equal seeds give bit-identical streams."""

    seed: int
    _g: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        integer = isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
        if not integer or self.seed < 0:
            raise ContractError(f"Rng: seed must be a non-negative integer, got {self.seed!r}")
        self._g = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, shape=()):
        if not low < high:
            raise ContractError(f"uniform: needs low < high, got [{low}, {high})")
        return self._g.uniform(low, high, shape)

    def normal(self, sigma=1.0, shape=()):
        return self._g.normal(0.0, sigma, shape)

    def integers(self, low, high):
        """One integer drawn uniformly from [low, high)."""
        if not low < high:
            raise ContractError(f"integers: needs low < high, got [{low}, {high})")
        return int(self._g.integers(low, high))

    def permutation(self, n):
        return [int(i) for i in self._g.permutation(n)]

    def sample_distinct(self, n, count):
        """`count` distinct integers from range(n), sorted ascending."""
        if count > n:
            raise ContractError(f"sample_distinct: cannot draw {count} from {n}")
        return sorted(int(i) for i in self._g.choice(n, size=count, replace=False))


def seeded_init(rng, shape):
    """Draw a trainable initial weight tensor, Xavier uniform within
    +/- sqrt(6 / (fan_in + fan_out)), where a matrix contributes (rows,
    cols) and a vector uses its length for both fans."""
    shape = tuple(int(d) for d in (shape if hasattr(shape, "__len__") else (shape,)))
    if not shape or any(d < 1 for d in shape):
        raise ContractError(f"seeded_init: invalid shape {shape}")
    fan_in = shape[0]
    fan_out = shape[-1] if len(shape) > 1 else shape[0]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    per_param: dict


def numeric_gradient(f, params, step=1e-5):
    """Central differences of a scalar function, coordinate by coordinate.

    Perturbed values are restored exactly (saved, not re-derived), so the
    caller's tensors come back bit-identical.
    """
    if step <= 0:
        raise ContractError("numeric_gradient: step must be positive")
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        for j in np.ndindex(p.data.shape):  # in place, also in a strided view
            orig = p.data[j]
            p.data[j] = orig + step
            hi = f(*params).item()
            p.data[j] = orig - step
            lo = f(*params).item()
            p.data[j] = orig
            g[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def grad_check(f, params, step=1e-5, tol=1e-5, names=None):
    """Compare tape gradients of f against central differences; f's value
    has one element, of any rank, read with `Tensor.item()`.

    Relative error per coordinate is |a - n| / max(1e-8, |a| + |n|); the
    report carries the maximum overall and per parameter. f must be pure:
    a value change between two probe evaluations raises DeterminismError.
    """
    if isinstance(params, Tensor):
        params = [params]
    params = list(params)
    if step <= 0 or tol <= 0:
        raise ContractError("grad_check: step and tol must be positive")
    v1 = f(*params).item()
    v2 = f(*params).item()
    if v1 != v2:
        raise DeterminismError(
            f"grad_check: function is not deterministic ({v1!r} vs {v2!r})"
        )
    for p in params:
        p.grad = None
    with Tape() as tape:
        backward(tape, f(*params))
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    numeric = numeric_gradient(f, params, step)
    if names is None:
        names = [f"param{i}" for i in range(len(params))]
    per_param = {}
    worst = 0.0
    for name, a, n in zip(names, analytic, numeric):
        denom = np.maximum(1e-8, np.abs(a) + np.abs(n))
        rel = np.abs(a - n) / denom
        err = float(rel.max()) if rel.size else 0.0
        per_param[name] = err
        worst = max(worst, err)
    return GradCheckReport(max_rel_err=worst, passed=worst <= tol, per_param=per_param)
