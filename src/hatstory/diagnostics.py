"""Finite-difference verification of the whole stack, runnable from the CLI.

Builds a tiny instance (2 photos, k=4, vocab of 7) and checks tape
gradients of each layer of the system against central differences: a few
primitives, the selector and attention ops (over 6 photos of their own),
the GRU-run and sentence ops, the story likelihood, the combined training
loss with the ranking term on, and, for each model variant, the loss of a
batch trained as rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import BOS_ID, Album, Story
from .model import VARIANTS, ModelDims, init_model, variant_log_prob
from .tensor import (
    GradCheckReport,
    Rng,
    Tensor,
    attention,
    grad_check,
    gru_sequence,
    matmul,
    mul,
    sentence_log_prob,
    sigmoid,
    soft_select,
    sum_all,
)
from .training import TrainConfig, batch_loss, combined_loss, make_negative

TOY_DIMS = dict(k=4, d_s=3, d_g=3, d_w=3, vocab_size=7)


def toy_instance(seed=0):
    """A 2-photo album, a 5-sentence story, its fixed shuffled negative,
    and a freshly initialized model.

    Selector weights are scaled 3x after initialization and photo features
    drawn from ±2: at plain Xavier scale the selection path carries
    gradients down near 1e-8, where central differences at step 1e-5 are
    pure cancellation noise and per-coordinate relative error is
    meaningless. The boost keeps every path's gradients above that floor
    without saturating the gates; the tape itself is scale-independent.
    """
    rng = Rng(seed)
    dims = ModelDims(**TOY_DIMS)
    params = init_model(dims, rng)
    features = rng.uniform(-2.0, 2.0, (2, dims.k))
    for name, tensor in params.named_tensors():
        if name.startswith("sel_"):
            tensor.data *= 3.0
    story = Story(sentences=[[4, 5, 2], [5, 6, 2], [3, 4, 2], [6, 2], [4, 6, 2]])
    negative = make_negative(story, Rng(seed + 1))
    return params, features, story, negative


def _check(fn, named, tol=1e-4):
    """Tape gradients of fn over the (name, tensor) pairs `named` against
    central differences of step 1e-5, passing within `tol`."""
    return grad_check(fn, [t for _, t in named], step=1e-5, tol=tol, names=[n for n, _ in named])


def check_primitives(seed=0):
    """matmul -> sigmoid -> sum exercises binary, unary, and reduction paths."""
    rng = Rng(seed)
    x = Tensor(rng.uniform(-1.0, 1.0, (3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1.0, 1.0, (4, 2)), requires_grad=True)
    fn = lambda x, w: sum_all(sigmoid(matmul(x, w)))
    return _check(fn, [("x", x), ("w", w)], tol=1e-5)


def check_selector(seed=0):
    """One `soft_select` op over one row of 6 trainable photos (hard mode
    needs at least 5) and the toy selector's tensors, in soft and in hard
    mode: the worse of the two reports."""
    params, _, _, _ = toy_instance(seed)
    rng, steps = Rng(seed + 3), params.dims.t_steps
    v = Tensor(rng.uniform(-1.0, 1.0, (1, 6, params.dims.k)), requires_grad=True)
    weight = Tensor(rng.uniform(-1.0, 1.0, (1, steps, params.dims.k)))
    named = [(n, t) for n, t in params.named_tensors() if n.startswith("sel_")] + [("photos", v)]
    return max((_check(lambda *tensors: sum_all(mul(
        soft_select(v, params.sel_gru, params.sel_mlp, steps, hard)[0], weight)), named, tol=1e-5)
        for hard in (False, True)), key=lambda report: report.max_rel_err)


def check_attention(seed=0):
    """One `attention` op over one row of 6 trainable photos from a
    trainable state, drawn from ±2 to keep the scorer's gradients above
    difference noise. The scorer's output bias is left out: softmax ignores
    a shift, so its gradient is zero and its differences are rounding noise."""
    params, _, _, _ = toy_instance(seed)
    rng = Rng(seed + 3)
    v = Tensor(rng.uniform(-1.0, 1.0, (1, 6, params.dims.k)), requires_grad=True)
    h = Tensor(rng.uniform(-2.0, 2.0, (1, params.dims.d_g)), requires_grad=True)
    weight = Tensor(rng.uniform(-1.0, 1.0, (1, params.dims.k)))
    named = [(n, t) for n, t in params.named_tensors()
             if n.startswith("attn_mlp.") and n != "attn_mlp.1.b"] + [("state", h), ("photos", v)]
    return _check(lambda *tensors: sum_all(mul(attention(h, v, params.attn_mlp)[0], weight)),
                  named, tol=1e-5)


def check_sequence(seed=0):
    """Both encoder directions (`gru_sequence`) over trainable photo features
    and one decoder sentence (`sentence_log_prob`), each one row from a
    trainable nonzero state, the sentence with a repeated word, on the toy
    model."""
    params, features, story, _ = toy_instance(seed)
    rng = Rng(seed)
    xs = Tensor(features[None], requires_grad=True)
    start, h0, g = (Tensor(rng.uniform(-1.0, 1.0, (1, d)), requires_grad=True)
                    for d in (params.dims.k // 2, params.dims.d_g, params.dims.k))
    sentence = story.sentences[0] + story.sentences[1]  # word 5 comes twice

    def fn(*tensors):
        fwd = gru_sequence(xs, start, params.enc_fwd)
        bwd = gru_sequence(xs, start, params.enc_bwd, reverse=True)
        total, h = sentence_log_prob(
            None, h0, g, [BOS_ID, *sentence[:-1]], sentence, params.embedding,
            params.gen_gru, params.proj_w, params.proj_b,
        )
        return total + sum_all(mul(fwd, bwd)) + sum_all(mul(h, h))

    named = params.named_tensors() + [("features", xs), ("start", start), ("h0", h0), ("g", g)]
    return _check(fn, named)


def check_story_likelihood(seed=0):
    params, features, story, _ = toy_instance(seed)
    return _check(lambda *tensors: variant_log_prob(params, features, story),
                  params.named_tensors())


def check_training_loss(seed=0):
    """The acceptance check: combined loss with rank_weight 1 on the toy
    instance, every model tensor against central differences."""
    params, features, story, negative = toy_instance(seed)
    cfg = _toy_config()
    fn = lambda *tensors: combined_loss(params, features[None], [story], [negative], cfg)[0]
    return _check(fn, params.named_tensors())


def _toy_config(**overrides):
    return TrainConfig(k=TOY_DIMS["k"], d_s=TOY_DIMS["d_s"], d_g=TOY_DIMS["d_g"],
                       d_w=TOY_DIMS["d_w"], rank_weight=1.0, margin=1.0, **overrides)


def check_batch_loss(variant, seed=0):
    """The ranked loss of a 3-row batch (`training.batch_loss`), sentences of
    unequal lengths, under one variant: its trained tensors vs differences."""
    params, features, story, negative = toy_instance(seed)
    rng = Rng(seed + 2)
    stories = [story, Story(sentences=story.sentences[::-1]),
               Story(sentences=[[6, 5, 4, 2], [2], [3, 2], [5, 5, 2], [2]])]
    pairs = [(Album("toy", [], f, [], []), s) for f, s in zip(
        [features] + [rng.uniform(-2.0, 2.0, features.shape) for _ in range(2)], stories)]
    negatives = [negative] + [make_negative(s, rng) for s in stories[1:]]
    cfg = _toy_config(variant=variant)
    return _check(lambda *tensors: batch_loss(params, pairs, negatives, cfg)[0],
                  params.trainable(variant))


@dataclass
class ModuleCheck:
    name: str
    report: GradCheckReport


def run_all(seed=0):
    return [
        ModuleCheck("primitives", check_primitives(seed)),
        ModuleCheck("selector", check_selector(seed)),
        ModuleCheck("attention", check_attention(seed)),
        ModuleCheck("sequence", check_sequence(seed)),
        ModuleCheck("story-likelihood", check_story_likelihood(seed)),
        ModuleCheck("training-loss", check_training_loss(seed)),
        *(ModuleCheck(f"batch-loss-{v}", check_batch_loss(v, seed)) for v in VARIANTS),
    ]
