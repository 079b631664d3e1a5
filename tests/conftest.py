import functools
import json
import math
import operator
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from hatstory import data, model, tensor
from hatstory.layers import GATES, GruParams, MlpParams
from hatstory.errors import ContractError, DimensionError
from hatstory.tensor import Rng, concat, matmul, mul, row, seeded_init, sigmoid, tile_rows, zeros

# Property tests draw the same examples on every run and store none, so a
# failure shows up on the run that introduced it and on every later one.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return Rng(0)


# arbitrary bytes, bytes that change what a JSON text means, and short
# Unicode text as UTF-8
FRAGMENTS = st.one_of(
    st.binary(min_size=1, max_size=4),
    st.sampled_from([b'"', b",", b":", b"{", b"}", b"[", b"]", b"0", b"-", b"1e999", b"\\",
                     b"\n", b"\r", b"null", b"NaN", b"true"]),
    st.text(min_size=1, max_size=3).map(str.encode),
)


@st.composite
def byte_edits(draw, blob):
    """`blob` after one to four edits, each deleting, inserting or replacing
    a short run of bytes at a drawn offset, or cutting the rest off."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        at, chunk = draw(st.integers(0, len(data))), draw(FRAGMENTS)
        edit = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        if edit == "delete":
            del data[at:at + len(chunk)]
        elif edit == "insert":
            data[at:at] = chunk
        elif edit == "replace":
            data[at:at + len(chunk)] = chunk
        else:
            del data[at:]
    return bytes(data)


JSON_VALUES = st.one_of(
    st.sampled_from(["", "p0", 1.5, -2, True, None, [], ["p0"], {}, float("nan"), 1e308, 10**400]),
    st.integers(-3, 60),
    st.text(max_size=6),
)


def _json_paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


@st.composite
def json_edits(draw, text):
    """`text` after one to three edits of its JSON lines, each setting or
    dropping one value of a line, adding a sibling next to it, or putting a
    value in place of the whole line."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        root = json.loads(lines[i])
        path = draw(st.sampled_from(list(_json_paths(root))))
        parent = functools.reduce(operator.getitem, path[:-1], root)
        edit = draw(st.sampled_from(["set", "drop", "add"]))
        if not path:
            root = draw(JSON_VALUES)
        elif edit == "set":
            parent[path[-1]] = draw(JSON_VALUES)
        elif edit == "drop":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.append(draw(JSON_VALUES))
        else:
            parent[draw(st.text(max_size=8))] = draw(JSON_VALUES)
        lines[i] = json.dumps(root, sort_keys=True)
    return "\n".join(lines) + "\n"


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(getattr(actual, "data", actual), dtype=np.float64)
    expected = np.asarray(getattr(expected, "data", expected), dtype=np.float64)
    assert actual.shape == expected.shape, f"{actual.shape} != {expected.shape}"
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= tol, f"max abs err {err} > {tol}\nactual={actual}\nexpected={expected}"


# ---------------------------------------------------------------------------
# composed references for the fused ops, each tape op one record named after it


def vecmat(x, m):
    """Row-vector times matrix: (p,) @ (p, q) -> (q,)."""
    x, m = tensor._as_tensor(x), tensor._as_tensor(m)
    if x.data.ndim != 1 or m.data.ndim != 2:
        raise DimensionError(
            f"vecmat: needs vector and matrix, got shapes {x.data.shape} and {m.data.shape}"
        )
    if x.data.shape[0] != m.data.shape[0]:
        raise DimensionError(
            f"vecmat: inner dimensions differ, {x.data.shape} x {m.data.shape}"
        )
    return tensor._op("vecmat", x.data @ m.data, (x, m),
                      (lambda g: m.data @ g, lambda g: np.outer(x.data, g)))


def tanh(a):
    y = np.tanh(a.data)
    return tensor._op("tanh", y, (a,), (lambda g: g * (1.0 - y * y),))


def softmax(a, axis=-1):
    y = tensor.softmax_array(a.data, axis)
    return tensor._op("softmax", y, (a,),
                      (lambda g: y * (g - (g * y).sum(axis=axis, keepdims=True)),))


def stack_rows(vectors):
    """1-D tensors of equal length as the rows of a matrix."""
    return tensor._op("stack_rows", np.stack([v.data for v in vectors]), vectors,
                      [itemgetter(i) for i in range(len(vectors))])


def reshape(a, shape):
    return tensor._op("reshape", np.ascontiguousarray(a.data.reshape(shape)), (a,),
                      (lambda g: g.reshape(a.data.shape),))


def gate_sigmoid(a):
    """The logistic function as the GRU gates take it, 0.5 tanh(0.5 a) + 0.5."""
    return 0.5 * tanh(0.5 * a) + 0.5


def gru_step(params, x, h):
    """One GRU update of the state h (d_h,) from the input x (d_in,), the
    step of `tensor.gru_step_array` in composed ops: the gates' products side
    by side, [x, 1] [W_z | W_r | W_h; b_z | b_r | b_h] and h [U_z | U_r],
    each gate its slice."""
    d = params.u_h.shape[0]
    w = concat([concat([params.w_z, params.w_r, params.w_h], axis=1),
                reshape(concat([params.b_z, params.b_r, params.b_h]), (1, 3 * d))])
    xw = vecmat(concat([x, tensor.Tensor(np.ones(1))]), w)
    zr = gate_sigmoid(row(xw, slice(None, 2 * d)) + vecmat(h, concat([params.u_z, params.u_r],
                                                                     axis=1)))
    z, r = row(zr, slice(None, d)), row(zr, slice(d, None))
    cand = tanh(row(xw, slice(2 * d, None)) + vecmat(mul(r, h), params.u_h))
    return h + z * (cand - h)


def mlp(params, x):
    """The affine stack over a vector (d_in,) -> (d_out,), or row-wise over a
    matrix (n, d_in) -> (n, d_out): tanh on every hidden layer."""
    for i, (w, b) in enumerate(params.layers):
        x = vecmat(x, w) + b if x.ndim == 1 else matmul(x, w) + tile_rows(b, x.shape[0])
        if i < len(params.layers) - 1:
            x = tanh(x)
    return x


def gru_layer(d_in, d_h, cells=1):
    """`cells` zeroed GRUs of one layer, laid out over one flat array as the
    model lays out the encoder's two directions (`model.flat_views`)."""
    shapes = 3 * [(d_in, d_h)] + 3 * [(d_h, d_h)] + 3 * [(d_h,)]
    layout = [(f"layer_{c}.{gate}", shape) for c in range(cells)
              for gate, shape in zip(GATES, shapes)]
    views = model.flat_views(np.zeros(sum(math.prod(shape) for _, shape in layout)), layout)
    return [GruParams(*(tensor.Tensor(views[f"layer_{c}.{gate}"], requires_grad=True)
                        for gate in GATES), *views[f"layer_{c}"]) for c in range(cells)]


def xavier(rng, cell):
    """The cell with Xavier weights, drawn w_z, w_r, w_h, u_z, u_r, u_h, in
    place, and its biases as they were."""
    for _, t in cell.named()[:6]:
        t.data[...] = seeded_init(rng, t.shape).data
    return cell


def gru_cell(rng, d_in, d_h):
    """Xavier GRU weights, drawn w_z, w_r, w_h, u_z, u_r, u_h, and zero biases."""
    return xavier(rng, gru_layer(d_in, d_h)[0])


def mlp_head(rng, sizes):
    """Xavier MLP weights over sizes [d_in, hidden..., d_out], and zero biases."""
    return MlpParams([(seeded_init(rng, (a, b)), zeros(b, requires_grad=True))
                      for a, b in zip(sizes, sizes[1:])])


def log_softmax_pick(a, i):
    """The log-probability of class i under the logits vector a as one taped
    op: the reference for a word's log-prob that the word-by-word decoder
    loops used, with a hand-written backward."""
    a = tensor._as_tensor(a)
    y = tensor.log_softmax_array(a.data)
    out = tensor._out(np.asarray(y[i]), a)
    if out.requires_grad:
        def back():
            g = np.zeros_like(y)
            g[i] += out.grad
            tensor._accum(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))
        tensor._rec(out, back)
    return out


def decode_word_step(params, prev_word_id, g, h):
    """One decoder step as the word-by-word loops made it: the GRU over
    [embedding row of the previous word, g], then the affine map to logits."""
    x = tensor.concat([tensor.row(params.embedding, prev_word_id), g])
    h2 = gru_step(params.gen_gru, x, h)
    return vecmat(h2, params.proj_w) + params.proj_b, h2


def head_scores(head, state, v):
    """`mlp` over [state, v_i] for every photo of v (n, k), as composed
    ops with the first layer split as the fused ops split it:
    (v W1_v + b1) + state W1_s, W1's rows taken apart by `row` and
    `stack_rows`, so that W1's gradient is the two halves' stacked. The
    reference for the scores of `soft_select` and `attention`; (n,)."""
    (w, b), n, d = head.layers[0], v.shape[0], state.shape[0]
    w_s, w_v = (stack_rows([tensor.row(w, i) for i in rows])
                for rows in (range(d), range(d, w.shape[0])))
    x = matmul(v, w_v) + tile_rows(b, n)
    x = x + tile_rows(vecmat(state, w_s), n)
    for w, b in head.layers[1:]:
        x = matmul(tanh(x), w) + tile_rows(b, n)
    return reshape(x, (n,))


def composed_attention(h, v, head):
    """The reference for `attention`: softmax(`head_scores`) weights alpha
    over the photos of v from the state h; returns (alpha @ v, alpha)."""
    alpha = softmax(head_scores(head, h, v), axis=0)
    return vecmat(alpha, v), alpha


def select_step(cell, head, v, prev_g, state, excluded=None):
    """One selector step as composed ops, the reference for a step of
    `soft_select`: state' = gru(prev_g, state), raw_i = sigmoid(head([state',
    v_i])), zeroed where the boolean mask `excluded` is True, renormalized.
    Returns (p, state')."""
    state = gru_step(cell, prev_g, state)
    raw = sigmoid(head_scores(head, state, v))
    if excluded is not None and excluded.any():
        raw = mul(raw, tensor.Tensor((~excluded).astype(np.float64)))
    return renormalize(raw), state


def renormalize(raw):
    """raw / sum(raw) as one taped op, the division a selector step makes."""
    total = raw.data.sum()
    out = tensor._out(raw.data / total, raw)
    if out.requires_grad:
        def back():
            g = out.grad
            tensor._accum(raw, (g - (g * out.data).sum()) / total)
        tensor._rec(out, back)
    return out


def reference_sigmoid(x):
    """The logistic function with two divides, one per sign of x: the
    reference for `tensor.sigmoid_array`, which divides once."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def reference_gru_run(xs, h0, w_z, w_r, w_h, u_z, u_r, u_h, b_z, b_r, b_h, reverse=False):
    """One GRU over xs (T, ..., d_in) from h0 (..., d_h), a step at a time
    with a fresh array per value, the inputs read last-first when `reverse`:
    the reference for one cell of `tensor.gru_run` and its in-place step.
    Returns the states and z, r, cand gates, each (T, ..., d_h), in input
    order."""
    d = h0.shape[-1]
    hs, z, r, cand = (np.empty(xs.shape[:-1] + (d,)) for _ in range(4))
    w = np.concatenate([np.concatenate([w_z, w_r, w_h], axis=1), [np.concatenate([b_z, b_r, b_h])]])
    xw = np.concatenate([xs, np.ones(xs.shape[:-1] + (1,))], axis=-1) @ w
    u_zr = np.concatenate([u_z, u_r], axis=1)
    h = h0
    for t in reversed(range(len(xs))) if reverse else range(len(xs)):
        zr = 0.5 * np.tanh(0.5 * (h @ u_zr + xw[t, ..., :2 * d])) + 0.5
        z[t], r[t] = zr[..., :d], zr[..., d:]
        cand[t] = np.tanh((r[t] * h) @ u_h + xw[t, ..., 2 * d:])
        h = hs[t] = h + z[t] * (cand[t] - h)
    return hs, z, r, cand


def gru_direction(xs, h0, cell):
    """One GRU direction over (R, T, d_in) rows from h0 (R, d_h) as one taped
    op, `tensor.gru_run` and its backward over the one cell."""
    weights = [t for _, t in cell.named()]
    x, start = xs.data.transpose(1, 0, 2), h0.data[None]
    run = tensor.gru_run(x, start, [cell])
    out = tensor._out(run[0][:, 0].transpose(1, 0, 2), xs, h0, *weights)
    if out.requires_grad:
        def back():
            (g_h0,), (g_x,) = tensor._gru_run_back(start, run, [weights],
                                                   out.grad.transpose(1, 0, 2)[:, None],
                                                   xs.requires_grad)
            if h0.requires_grad:
                tensor._accum(h0, g_h0)
            if xs.requires_grad:
                tensor._accum(xs, g_x.transpose(1, 0, 2))
        tensor._rec(out, back)
    return out


def flip_steps(a):
    """(R, T, d) rows with their T steps in reverse order, as one taped op."""
    return tensor._op("flip_steps", a.data[:, ::-1].copy(), (a,), (lambda g: g[:, ::-1],))


def reference_gru_sequence(xs, h0, fwd, bwd):
    """The two-run form of `tensor.gru_sequence`: one `gru_direction` op per
    cell, the `bwd` one over the flipped inputs, its states flipped back and
    concatenated after the `fwd` ones."""
    back = flip_steps(gru_direction(flip_steps(xs), h0, bwd))
    return tensor.concat([gru_direction(xs, h0, fwd), back], axis=-1)


# ---------------------------------------------------------------------------
# entry points that only the tests call


def beam_decode(params, g, beam, max_len, h0=None):
    """Best token sequence for one sentence, given its photo summary g and
    the decoder state h0 it starts from (Tensors or arrays)."""
    g = np.asarray(getattr(g, "data", g), dtype=np.float64)
    if h0 is not None:
        h0 = np.asarray(getattr(h0, "data", h0), dtype=np.float64)
    shapes = (g.shape, (params.dims.d_g,) if h0 is None else h0.shape)
    if shapes != ((params.dims.k,), (params.dims.d_g,)):
        raise DimensionError(
            f"beam_decode: g and h0 must be ({params.dims.k},) and ({params.dims.d_g},), "
            f"got {shapes[0]} and {shapes[1]}"
        )
    return list(model._beam_search(params, g, beam, max_len, h0)[0])


def template_sentences(c):
    """Every sentence the synthetic grammar can produce for one class."""
    return [t.format(noun=data.class_noun(c)) for t in data._TEMPLATES]


# ---------------------------------------------------------------------------
# the per-tensor optimizer that the flat one replaced, as its reference


def reference_adam_step(named_params, state, cfg):
    """One bias-corrected Adam update over (name, tensor) pairs, tensor by
    tensor; `state` has `step` and the dicts `m` and `v`."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    for name, p in named_params:
        if p.grad is None:
            raise ContractError(f"adam_step: missing gradient for {name}")
        g = p.grad
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def reference_clip_gradients(named_params, max_norm):
    """Scale all gradients so their global L2 norm, one dot product over the
    gradients side by side as the store lays out their tensors
    (`model.flat_views`), is at most max_norm."""
    named = [(name, p) for name, p in named_params if p.grad is not None]
    flat = np.empty(sum(p.grad.size for _, p in named))
    views = model.flat_views(flat, [(name, p.shape) for name, p in named])
    for name, p in named:
        views[name][...] = p.grad
    norm = math.sqrt(flat @ flat)
    if norm > max_norm:
        scale = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad *= scale
    return norm
