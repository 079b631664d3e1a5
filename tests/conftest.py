import numpy as np
import pytest
from hypothesis import settings

from hatstory import tensor
from hatstory.layers import gru_step, mlp
from hatstory.tensor import Rng

# Property tests draw the same examples on every run and store none, so a
# failure shows up on the run that introduced it and on every later one.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def rng():
    return Rng(0)


def assert_close(actual, expected, tol=1e-12):
    actual = np.asarray(getattr(actual, "data", actual), dtype=np.float64)
    expected = np.asarray(getattr(expected, "data", expected), dtype=np.float64)
    assert actual.shape == expected.shape, f"{actual.shape} != {expected.shape}"
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= tol, f"max abs err {err} > {tol}\nactual={actual}\nexpected={expected}"


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
    x = tensor.concat([tensor.row(params.embedding.table, prev_word_id), g])
    h2 = gru_step(params.gen_gru, x, h)
    return tensor.vecmat(h2, params.proj_w) + params.proj_b, h2


def select_step(cell, head, v, prev_g, state, excluded=None):
    """One selector step as composed ops, the reference for a step of
    `soft_select`: state' = gru(prev_g, state), raw_i = sigmoid(head([state',
    v_i])), zeroed where the boolean mask `excluded` is True, renormalized.
    Returns (p, state')."""
    n = v.shape[0]
    state = gru_step(cell, prev_g, state)
    feats = tensor.concat([tensor.tile_rows(state, n), v], axis=1)
    raw = tensor.sigmoid(tensor.reshape(mlp(head, feats), (n,)))
    if excluded is not None and excluded.any():
        raw = tensor.mul(raw, tensor.Tensor((~excluded).astype(np.float64)))
    return raw / tensor.sum_all(raw), state
