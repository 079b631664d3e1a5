"""Model-composition tests: album encoder, summary selection, word decoding,
story likelihood, beam search, and the two flat baselines.

The composed references of conftest.py (gru_step, mlp) are verified
independently in test_layers.py, so they serve as trusted building blocks
for recomputing what the model functions are supposed to wire together.
"""

import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatstory.data import BOS_ID, EOS_ID, Album, Story
from hatstory.errors import ConfigurationError, ContractError, DimensionError
from hatstory import model, tensor
from hatstory.metrics import attention_aggregate_topk, hard_selection_ids
from hatstory.model import (
    ModelDims,
    _beam_search,
    _top_k,
    conditioner,
    enc_attn_dec_generate,
    enc_dec_visual,
    encode_album,
    generate,
    generate_story,
    init_model,
    select_summary,
    story_log_prob,
    variant_log_prob,
)
from hatstory.checkpoint import load_checkpoint, save_checkpoint
from hatstory.tensor import (
    Rng,
    Tape,
    Tensor,
    backward,
    grad_check,
    log_softmax_array,
    mul,
    numeric_gradient,
    row,
    sentence_log_prob,
    sum_all,
    zeros,
)

from conftest import (assert_close, beam_decode, composed_attention, decode_word_step, gru_chain,
                      gru_step, log_softmax_pick, mlp, select_step)


def tiny_dims(**overrides):
    base = dict(k=4, d_s=3, d_g=3, d_w=2, vocab_size=6, t_steps=5)
    base.update(overrides)
    return ModelDims(**base)


def tiny_model(seed=0, **overrides):
    return init_model(tiny_dims(**overrides), Rng(seed))


def zero_weights(*groups):
    for group in groups:
        for _, tensor in group.named():
            tensor.data[...] = 0.0


def random_features(rng, n, k):
    return rng.uniform(-1.0, 1.0, (n, k))


# ---------------------------------------------------------------------------
# album encoder


def test_encode_album_is_residual_relu_over_bigru():
    params = tiny_model(seed=3)
    rng = Rng(42)
    feats = random_features(rng, 3, 4)
    enc = encode_album(params, feats[None])

    fwd = [h.data for h in gru_chain(params.enc_fwd, Tensor(feats), zeros(2))]
    bwd = [h.data for h in gru_chain(params.enc_bwd, Tensor(feats), zeros(2), reverse=True)]
    for i in range(3):
        expected = np.maximum(np.concatenate([fwd[i], bwd[i]]) + feats[i], 0.0)
        assert np.array_equal(enc.v.data[0, i], expected)
    assert np.array_equal(enc.final_state.data[0], np.concatenate([fwd[-1], bwd[0]]))
    assert enc.n == 3


@pytest.mark.parametrize("albums", [1, 3])
def test_encode_album_is_one_gru_record_of_n_lockstep_steps(monkeypatch, albums):
    """Both directions step together: an n-photo album takes n GRU steps and
    one `gru_sequence` record, whatever the number of album rows."""
    params, n = tiny_model(seed=1), 6
    calls = []
    step = tensor.gru_step_array
    monkeypatch.setattr(tensor, "gru_step_array", lambda *args: calls.append(1) or step(*args))
    with Tape() as tape:
        encode_album(params, Rng(albums).uniform(-1.0, 1.0, (albums, n, 4)))
    assert len(calls) == n
    assert tape.counts() == {"gru_sequence": 1, "add": 1, "relu": 1}


@pytest.mark.parametrize("k", [16, 256])
@pytest.mark.parametrize("albums", [1, 2, 5, 20])
@settings(max_examples=4, deadline=None)
@given(n=st.integers(5, 9), seed=st.integers(0, 2**16))
def test_encoder_and_selector_rows_equal_one_row_calls(albums, k, n, seed):
    """A album rows give what A one-row calls give, within 1e-12: the
    encoder's input products and the selector's photo term are one product
    over all rows, which the calls of one row make over that row alone."""
    params = init_model(tiny_dims(k=k, d_s=8, d_g=8, d_w=4), Rng(seed))
    features = Rng(seed + 1).uniform(-1.0, 1.0, (albums, n, k))
    enc = encode_album(params, features)
    rows = [encode_album(params, features[a:a + 1]) for a in range(albums)]
    for got, want in ((enc.v, [r.v for r in rows]), (enc.states, [r.states for r in rows])):
        assert np.max(np.abs(got.data - np.concatenate([w.data for w in want]))) <= 1e-12
    for mode in ("soft", "hard"):
        sel = select_summary(params, enc, mode)
        alone = [select_summary(params, r, mode) for r in rows]
        assert sel.indices == [i for one in alone for i in one.indices]
        for got, want in ((sel.probs, [one.probs for one in alone]),
                          (sel.summaries, [one.summaries for one in alone])):
            assert np.max(np.abs(got.data - np.concatenate([w.data for w in want]))) <= 1e-12


def test_encode_album_zero_encoder_passes_relu_features():
    params = tiny_model(seed=0)
    zero_weights(params.enc_fwd, params.enc_bwd)
    feats = np.array([[-1.0, 2.0, -0.5, 3.0], [0.0, -4.0, 1.5, 0.25]])
    enc = encode_album(params, feats[None])
    assert_close(enc.v, Tensor(np.maximum(feats, 0.0)[None]))
    assert_close(enc.final_state, Tensor(np.zeros((1, 4))))


def test_encode_album_input_validation():
    params = tiny_model()
    with pytest.raises(DimensionError):
        encode_album(params, np.zeros(4))
    with pytest.raises(DimensionError):
        encode_album(params, np.zeros((1, 3, 5)))
    with pytest.raises(DimensionError, match=r"\(3, 4\)"):
        encode_album(params, np.zeros((3, 4)))  # one album, not a row of albums
    with pytest.raises(ContractError):
        encode_album(params, np.zeros((1, 0, 4)))


# ---------------------------------------------------------------------------
# summary-photo selection


def test_select_step_recomputes_as_sigmoid_mlp_renormalized():
    """Each hard step recomputed from its state: the GRU over the last
    summary (the mean photo first), a sigmoid MLP score per photo, the
    photos picked before zeroed, the rest renormalized."""
    params = tiny_model(seed=5)
    enc = encode_album(params, random_features(Rng(9), 6, 4)[None])
    sel = select_summary(params, enc, "hard")
    state, prev_g = zeros(3), Tensor(enc.v.data[0].mean(axis=0))
    for t in range(5):
        state = gru_step(params.sel_gru, prev_g, state)
        raws = []
        for i in range(6):
            feats_i = Tensor(np.concatenate([state.data, enc.v.data[0, i]]))
            score = mlp(params.sel_mlp, feats_i).data.reshape(())
            raws.append(0.0 if i in sel.indices[0][:t] else 1.0 / (1.0 + math.exp(-float(score))))
        raws = np.array(raws)
        assert_close(Tensor(sel.probs.data[0, t]), Tensor(raws / raws.sum()), tol=1e-12)
        prev_g = Tensor(sel.g[t].data[0])


def test_select_step_constant_scorer_is_uniform():
    """A constant scorer gives uniform soft steps, and hard step t uniform
    over the 5 - t photos not taken; ties pick the lower index."""
    params = tiny_model(seed=1)
    zero_weights(params.sel_mlp)
    enc = encode_album(params, random_features(Rng(2), 5, 4)[None])
    soft, hard = (select_summary(params, enc, mode) for mode in ("soft", "hard"))
    assert_close(soft.probs, Tensor(np.full((1, 5, 5), 0.2)), tol=1e-15)
    for t in range(5):
        assert_close(Tensor(hard.probs.data[0, t]),
                     Tensor(np.where(np.arange(5) < t, 0.0, 1.0 / (5 - t))), tol=1e-15)
    assert soft.indices == hard.indices == [[0, 1, 2, 3, 4]]


def test_select_step_mask_zeroes_and_renormalizes():
    """Step 0 masks nothing, so hard step 1 scores from soft step 1's state;
    it zeroes step 0's pick and keeps the other photos' ratios."""
    params = tiny_model(seed=7)
    enc = encode_album(params, random_features(Rng(11), 5, 4)[None])
    soft, hard = (select_summary(params, enc, mode) for mode in ("soft", "hard"))
    assert np.array_equal(soft.probs.data[0, 0], hard.probs.data[0, 0])
    taken = hard.indices[0][0]
    assert hard.probs.data[0, 1, taken] == 0.0
    expected = soft.probs.data[0, 1] * (np.arange(5) != taken)
    assert_close(Tensor(hard.probs.data[0, 1]), Tensor(expected / expected.sum()), tol=1e-12)


def test_hard_selection_is_one_fused_op():
    """One `soft_select` entry, its output the (A, T, k) summaries the
    decoder reads whole; each of `g`'s T summaries is a `row` read of it."""
    params = tiny_model(seed=3)
    enc = encode_album(params, random_features(Rng(4), 6, 4)[None])
    with Tape() as tape:
        sel = select_summary(params, enc, "hard")
    assert tape.counts() == {"soft_select": 1}
    with Tape() as tape:
        assert [g.shape for g in sel.g] == [(1, 4)] * 5
    assert tape.counts() == {"row": 5}


@pytest.mark.parametrize("seed", range(20))
def test_select_summary_soft_invariants(seed):
    rng = Rng(seed)
    params = tiny_model(seed=seed)
    n = 5 + seed % 4
    enc = encode_album(params, random_features(rng, n, 4)[None])
    sel = select_summary(params, enc, "soft")

    assert sel.probs.shape == (1, 5, n)
    assert np.all(sel.probs.data >= 0.0)
    assert np.allclose(sel.probs.data.sum(axis=2), 1.0, atol=1e-12)
    indices = sel.indices[0]
    assert len(sel.indices) == 1 and len(indices) == 5 and len(set(indices)) == 5
    assert_close(Tensor(np.stack([g.data for g in sel.g], axis=1)),
                 Tensor(sel.probs.data @ enc.v.data), tol=1e-12)
    # greedy-distinct: each index is the best-scoring photo not yet taken
    taken = set()
    for t in range(5):
        available = [i for i in range(n) if i not in taken]
        best = min(available, key=lambda i: (-sel.probs.data[0, t, i], i))
        assert indices[t] == best
        taken.add(best)


def test_select_summary_hard_matches_stepwise_masking():
    params = tiny_model(seed=13)
    rng = Rng(29)
    enc = encode_album(params, random_features(rng, 7, 4)[None])
    sel = select_summary(params, enc, "hard")
    v = Tensor(enc.v.data[0])

    state = zeros(3)
    prev_g = Tensor(np.full(7, 1.0 / 7) @ v.data)
    chosen = []
    for t in range(5):
        excluded = None
        if chosen:
            excluded = np.zeros(7, dtype=bool)
            excluded[chosen] = True
        p, state = select_step(params.sel_gru, params.sel_mlp, v, prev_g, state, excluded)
        idx = min(
            (i for i in range(7) if i not in chosen),
            key=lambda i: (-p.data[i], i),
        )
        assert_close(Tensor(sel.probs.data[0, t]), p)
        assert sel.indices[0][t] == idx
        chosen.append(idx)
        prev_g = Tensor(p.data @ v.data)
    # taken photos carry exactly zero probability afterwards
    for t in range(1, 5):
        assert np.all(sel.probs.data[0, t, sel.indices[0][:t]] == 0.0)


def test_select_summary_hard_requires_enough_photos():
    params = tiny_model()
    enc = encode_album(params, random_features(Rng(0), 4, 4)[None])
    with pytest.raises(ContractError):
        select_summary(params, enc, "hard")


def test_select_summary_soft_allows_fewer_photos_than_steps():
    params = tiny_model(seed=2)
    enc = encode_album(params, random_features(Rng(1), 3, 4)[None])
    sel = select_summary(params, enc, "soft")
    assert len(sel.indices[0]) == 5
    assert all(0 <= i < 3 for i in sel.indices[0])
    assert set(sel.indices[0][:3]) == {0, 1, 2}  # distinct until photos run out


def test_select_summary_oracle_copies_photo_rows():
    params = tiny_model(seed=4)
    enc = encode_album(params, random_features(Rng(6), 8, 4)[None])
    idx = [6, 0, 3, 7, 2]
    sel = select_summary(params, enc, "oracle", idx)
    assert sel.indices == [idx]
    expected = np.zeros((1, 5, 8))
    expected[0, np.arange(5), idx] = 1.0
    assert np.array_equal(sel.probs.data, expected)
    for t, i in enumerate(idx):
        assert np.array_equal(sel.g[t].data, enc.v.data[:, i])


def test_select_summary_oracle_and_mode_validation():
    params = tiny_model()
    enc = encode_album(params, random_features(Rng(0), 6, 4)[None])
    with pytest.raises(ContractError):
        select_summary(params, enc, "oracle", [0, 1, 2])  # too few
    with pytest.raises(ContractError):
        select_summary(params, enc, "oracle", [0, 1, 2, 3, 3])  # repeated
    with pytest.raises(ContractError):
        select_summary(params, enc, "oracle", [0, 1, 2, 3, 6])  # out of range
    with pytest.raises(ContractError):
        select_summary(params, enc, "best")  # unknown mode


# ---------------------------------------------------------------------------
# word decoding and story likelihood


def test_decode_zero_projection_is_uniform():
    params = tiny_model(seed=0)
    params.proj_w.data[...] = 0.0
    words, targets = [[BOS_ID, 4, 0]], [[4, 0, EOS_ID]]
    total, _ = sentence_log_prob(None, zeros((1, 3)), zeros((1, 1, 4)), words, targets,
                                 params.embedding, params.gen_gru, params.proj_w, params.proj_b)
    assert abs(float(total.data[0]) + 3 * math.log(6)) < 1e-14


def test_story_log_prob_uniform_model_counts_tokens():
    params = tiny_model(seed=1)
    params.proj_w.data[...] = 0.0
    params.proj_b.data[...] = 0.0
    enc = encode_album(params, random_features(Rng(3), 6, 4)[None])
    condition, _ = conditioner(params, enc, "hier")
    story = Story(sentences=[[4, 5, 2], [5, 2], [3, 3, 4, 2], [2], [4, 2]])
    total_tokens = sum(len(s) for s in story.sentences)
    lp = story_log_prob(params, condition, [story])
    assert abs(float(lp.data[0]) - (-total_tokens * math.log(6))) < 1e-12


def test_story_log_prob_matches_stepwise_recomputation():
    params = init_model(tiny_dims(t_steps=2), Rng(17))
    enc = encode_album(params, random_features(Rng(18), 5, 4)[None])
    condition, sel = conditioner(params, enc, "hier")
    story = Story(sentences=[[4, 3, 2], [5, 2]])
    lp = story_log_prob(params, condition, [story])
    total = reference_story_log_prob(params, [Tensor(g.data[0]) for g in sel.g], story)
    assert abs(float(lp.data[0]) - float(total.data)) < 1e-10


def test_story_log_prob_without_state_carry_resets_per_sentence():
    params = init_model(tiny_dims(t_steps=2), Rng(21), carry_state=False)
    enc = encode_album(params, random_features(Rng(22), 5, 4)[None])
    condition, sel = conditioner(params, enc, "hier")
    story = Story(sentences=[[4, 3, 2], [5, 2]])
    lp = story_log_prob(params, condition, [story])

    total = 0.0
    for t, sentence in enumerate(story.sentences):
        g = Tensor(sel.g[t].data[0])
        h = zeros(3)  # fresh state every sentence
        prev = BOS_ID
        for tok in sentence:
            logits, h = decode_word_step(params, prev, g, h)
            total += float(log_softmax_array(logits.data)[tok])
            prev = tok
    assert abs(float(lp.data[0]) - total) < 1e-10


@pytest.mark.parametrize("carry_state", [True, False])
@pytest.mark.parametrize("variant", ["hier", "enc_dec", "enc_attn_dec"])
def test_a_story_is_one_decoder_op_when_its_conditions_are_known(variant, carry_state):
    """The full model's summaries and the flat baseline's projection are made
    before decoding, so with carry_state on the whole story, and its negative,
    is one `sentence_log_prob`. Attention reads the state at each sentence
    start, and a reset state starts each sentence afresh: one op per sentence."""
    params = init_model(tiny_dims(), Rng(23), carry_state=carry_state)
    stories = [random_story(Rng(i), 5, 6) for i in (26, 27)]
    with Tape() as tape:
        enc = encode_album(params, np.stack([random_features(Rng(i), 6, 4) for i in (24, 25)]))
        condition, _ = conditioner(params, enc, variant)
        before = tape.counts()
        story_log_prob(params, condition, (stories, stories[::-1]))
    per_sentence = variant == "enc_attn_dec" or not carry_state
    expected = {"sentence_log_prob": 5 if per_sentence else 1}
    if variant == "enc_attn_dec":
        expected["attention"] = 5
    elif variant == "hier" and per_sentence:
        expected["row"] = 5  # each sentence's summary
    assert tape.counts() - before == expected


def test_story_log_prob_rejects_an_empty_sentence():
    """Every sentence ends at EOS, so an empty one is malformed: a
    ContractError that names the story row and the sentence, raised before
    anything is decoded."""
    params = init_model(tiny_dims(t_steps=3), Rng(19))
    enc = encode_album(params, random_features(Rng(20), 5, 4)[None])
    condition, weights = conditioner(params, enc, "enc_attn_dec")
    good, bad = Story(sentences=[[4, 2], [5, 2], [3, 2]]), Story(sentences=[[4, 2], [], [3, 2]])
    with pytest.raises(ContractError, match="story 0 has an empty sentence 1"):
        story_log_prob(params, condition, [bad])
    with pytest.raises(ContractError, match="story 1 has an empty sentence 1"):
        story_log_prob(params, condition, ([good], [bad]))
    assert weights == []


def test_story_log_prob_rejects_wrong_sentence_count():
    params = tiny_model()
    enc = encode_album(params, random_features(Rng(0), 6, 4)[None])
    for variant in ("hier", "enc_dec", "enc_attn_dec"):
        condition, _ = conditioner(params, enc, variant)
        with pytest.raises(ContractError):
            story_log_prob(params, condition, [Story(sentences=[[2], [2]])])


# ---------------------------------------------------------------------------
# the one teacher-forced loop against the per-variant loops it replaced


def reference_story_log_prob(params, sentence_inputs, story):
    """The sentence loop the full model and the flat baseline used: one
    visual input per sentence, all made before the loop."""
    if len(story.sentences) != len(sentence_inputs):
        raise ContractError("sentence count mismatch")
    total = None
    h = zeros(params.dims.d_g)
    for g, sentence in zip(sentence_inputs, story.sentences):
        if not params.carry_state:
            h = zeros(params.dims.d_g)
        prev = BOS_ID
        for tok in sentence:
            logits, h = decode_word_step(params, prev, g, h)
            lp = log_softmax_pick(logits, tok)
            total = lp if total is None else total + lp
            prev = tok
    return Tensor(0.0) if total is None else total


def reference_enc_attn_dec_log_prob(params, enc, story):
    """The attention baseline's own sentence loop; returns (log_prob, attention)."""
    if len(story.sentences) != params.dims.t_steps:
        raise ContractError("sentence count mismatch")
    total = None
    h = zeros(params.dims.d_g)
    weights = []
    for sentence in story.sentences:
        if not params.carry_state:
            h = zeros(params.dims.d_g)
        vis, alpha = composed_attention(h, row(enc.v, 0), params.attn_mlp)
        weights.append(alpha.data.copy())
        prev = BOS_ID
        for tok in sentence:
            logits, h = decode_word_step(params, prev, vis, h)
            lp = log_softmax_pick(logits, tok)
            total = lp if total is None else total + lp
            prev = tok
    return (Tensor(0.0) if total is None else total), np.stack(weights)


def reference_log_probs(params, features, variant, mode, indices, stories):
    """Encode the album as one row, then score each story as the per-variant
    code did: the selection rows and the flat projection made anew for
    every story."""
    enc = encode_album(params, features[None])
    steps = range(params.dims.t_steps)
    if variant == "hier":
        sel = select_summary(params, enc, mode, indices)
        return [
            reference_story_log_prob(params, [row(sel.g[t], 0) for t in steps], s) for s in stories
        ], None
    if variant == "enc_dec":
        return [
            reference_story_log_prob(params, [row(enc_dec_visual(params, enc), 0)] * len(steps), s)
            for s in stories
        ], None
    scored = [reference_enc_attn_dec_log_prob(params, enc, s) for s in stories]
    return [lp for lp, _ in scored], np.concatenate([a for _, a in scored])


def conditioned_log_probs(params, features, variant, mode, indices, stories):
    condition, decided = conditioner(
        params, encode_album(params, features[None]), variant, mode, indices
    )
    lps = [row(story_log_prob(params, condition, [s]), 0) for s in stories]
    return lps, np.concatenate(decided) if variant == "enc_attn_dec" else None


def value_and_grads(params, score):
    """The summed log-prob, every tensor's gradient, and what else `score`
    returns, from one taped pass."""
    for _, t in params.named_tensors():
        t.grad = None
    with Tape() as tape:
        lps, extra = score()
        total = lps[0]
        for lp in lps[1:]:
            total = total + lp
        backward(tape, total)
    return total.data, {n: t.grad for n, t in params.named_tensors()}, extra


def random_story(rng, t_steps, vocab_size):
    return Story(sentences=[
        [int(rng.integers(EOS_ID + 1, vocab_size)) for _ in range(rng.integers(0, 4))] + [EOS_ID]
        for _ in range(t_steps)
    ])


@pytest.mark.parametrize("stories", [1, 2])
@pytest.mark.parametrize("carry_state", [True, False])
@pytest.mark.parametrize("variant, mode", [
    ("hier", "soft"), ("hier", "hard"), ("hier", "oracle"), ("enc_dec", "soft"),
    ("enc_attn_dec", "soft"),
])
def test_conditioned_loop_matches_reference_loops_bitwise(variant, mode, carry_state, stories):
    for seed in range(3):
        rng = Rng(900 + seed)
        params = init_model(tiny_dims(vocab_size=7), rng, carry_state=carry_state)
        feats = random_features(rng, 7, 4)
        indices = [6, 1, 3, 0, 5] if mode == "oracle" else None
        scored = [random_story(rng, 5, 7) for _ in range(stories)]
        expected = value_and_grads(params, lambda: reference_log_probs(
            params, feats, variant, mode, indices, scored))
        found = value_and_grads(params, lambda: conditioned_log_probs(
            params, feats, variant, mode, indices, scored))
        assert np.array_equal(found[0], expected[0])
        assert found[1].keys() == expected[1].keys()
        for name, grad in expected[1].items():
            if grad is None:
                assert found[1][name] is None, name
            else:
                # the fused GRU runs sum each weight's gradient over a run in
                # one product, and enc_dec projects once per album, not once
                # per story: the same values, gradients summed in another order
                assert np.max(np.abs(found[1][name] - grad)) <= 1e-12, name
        if variant == "enc_attn_dec":
            assert np.array_equal(found[2], expected[2])


def test_conditioner_rejects_unknown_variants_and_baseline_oracles():
    params = tiny_model()
    enc = encode_album(params, random_features(Rng(0), 6, 4)[None])
    with pytest.raises(ConfigurationError, match="unknown variant 'lstm'"):
        conditioner(params, enc, "lstm")
    for variant in ("enc_dec", "enc_attn_dec"):
        with pytest.raises(ConfigurationError, match="oracle"):
            conditioner(params, enc, variant, "oracle", [0, 1, 2, 3, 4])
        with pytest.raises(ConfigurationError, match="oracle"):
            generate(params, enc.v.data[0], variant, 1, 3, [0, 1, 2, 3, 4])
    with pytest.raises(ConfigurationError, match="unknown variant"):
        generate(params, enc.v.data[0], "lstm", 1, 3)


# ---------------------------------------------------------------------------
# beam search


def greedy_decode(params, g, max_len):
    h = zeros(params.dims.d_g)
    prev = BOS_ID
    tokens = []
    for _ in range(max_len):
        logits, h = decode_word_step(params, prev, g, h)
        tok = int(np.argmax(logits.data))  # ties go to the lower token id
        tokens.append(tok)
        if tok == EOS_ID:
            break
        prev = tok
    return tokens


def exhaustive_argmax(params, g, max_len):
    """Score every sequence that stops at EOS or the length cap; return the
    highest-likelihood one (shorter-then-lexicographic on exact ties)."""
    vocab = params.dims.vocab_size
    complete = []

    def extend(tokens, logp, h):
        prev = tokens[-1] if tokens else BOS_ID
        logits, h2 = decode_word_step(params, prev, g, h)
        lps = log_softmax_array(logits.data)
        for tok in range(vocab):
            seq = tokens + (tok,)
            lp = logp + float(lps[tok])
            if tok == EOS_ID or len(seq) == max_len:
                complete.append((seq, lp))
            else:
                extend(seq, lp, h2)

    extend((), 0.0, zeros(params.dims.d_g))
    complete.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
    return complete[0]


@pytest.mark.parametrize("seed", range(100))
def test_beam_one_equals_greedy(seed):
    rng = Rng(seed)
    params = init_model(tiny_dims(vocab_size=5), rng)
    g = Tensor(rng.uniform(-1.0, 1.0, (4,)))
    assert beam_decode(params, g, beam=1, max_len=6) == greedy_decode(params, g, 6)


@pytest.mark.parametrize("seed", range(50))
def test_beam_three_matches_exhaustive_tiny_vocab(seed):
    rng = Rng(1000 + seed)
    params = init_model(tiny_dims(vocab_size=3), rng)
    g = Tensor(rng.uniform(-1.0, 1.0, (4,)))
    best_tokens, best_lp = exhaustive_argmax(params, g, max_len=3)
    found = beam_decode(params, g, beam=3, max_len=3)
    assert tuple(found) == best_tokens, f"beam {found} vs exhaustive {best_tokens} (lp {best_lp})"


def test_beam_tie_breaking_is_canonical():
    params = tiny_model(seed=0)
    for _, t in params.named_tensors():
        t.data[...] = 0.0
    g = zeros(4)
    # all logits equal: greedy runs token 0 to the cap, a wider beam keeps
    # the shorter all-tied EOS hypothesis alive and prefers it on length
    assert beam_decode(params, g, beam=1, max_len=3) == [0, 0, 0]
    assert beam_decode(params, g, beam=3, max_len=3) == [EOS_ID]


def test_beam_argument_validation():
    params = tiny_model()
    with pytest.raises(ContractError):
        beam_decode(params, zeros(4), beam=0, max_len=3)
    with pytest.raises(ContractError):
        beam_decode(params, zeros(4), beam=1, max_len=0)


def test_generate_story_is_deterministic_and_well_formed():
    params = tiny_model(seed=9)
    feats = random_features(Rng(33), 6, 4)
    story1 = generate_story(params, feats, beam=3, max_len=5)
    story2 = generate_story(params, feats, beam=3, max_len=5)
    assert story1.sentences == story2.sentences
    assert len(story1.sentences) == 5
    for sentence in story1.sentences:
        assert 1 <= len(sentence) <= 5
        assert all(0 <= tok < 6 for tok in sentence)


def test_generate_story_oracle_decodes_from_chosen_photos():
    params = tiny_model(seed=10)
    feats = random_features(Rng(34), 6, 4)
    idx = [5, 2, 0, 4, 1]
    story = generate_story(params, feats, beam=2, max_len=4, oracle_indices=idx)

    enc = encode_album(params, feats[None])
    h = None
    for t, i in enumerate(idx):
        tokens, h = _beam_search(params, enc.v.data[0, i], 2, 4, h)
        assert story.sentences[t] == list(tokens)


# ---------------------------------------------------------------------------
# the row-batched beam search against the per-hypothesis search it replaced


@dataclass
class Hypothesis:
    tokens: tuple
    logp: float
    state: Tensor
    serial: int  # creation order; the tie-breaker after log-probability


def reference_beam_search(params, g, beam, max_len, h0=None):
    """One Hypothesis per vocabulary word per active hypothesis per step,
    each step's candidates sorted by (-log-prob, creation order)."""
    vocab = params.dims.vocab_size
    active = [Hypothesis((), 0.0, h0 if h0 is not None else zeros(params.dims.d_g), 0)]
    completed = []
    serial = 1
    for _ in range(max_len):
        candidates = []
        for hyp in active:
            prev = hyp.tokens[-1] if hyp.tokens else BOS_ID
            logits, h2 = decode_word_step(params, prev, g, hyp.state)
            lps = log_softmax_array(logits.data)
            for tok in range(vocab):
                candidates.append(
                    Hypothesis(hyp.tokens + (tok,), hyp.logp + float(lps[tok]), h2, serial)
                )
                serial += 1
        candidates.sort(key=lambda c: (-c.logp, c.serial))
        active = []
        for c in candidates[:beam]:
            if c.tokens[-1] == EOS_ID:
                completed.append(c)
            else:
                active.append(c)
        completed.sort(key=lambda c: (-c.logp, c.serial))
        completed = completed[:beam]
        if not active:
            break
    pool = completed + active  # leftover actives were stopped by the cap
    return min(pool, key=lambda c: (-c.logp, c.serial))


def reference_story(params, condition, beam, max_len):
    """The per-sentence loop around the reference search; `condition(t, h)`
    maps sentence t's start state (a Tensor) to g_t (a Tensor)."""
    h = zeros(params.dims.d_g)
    sentences = []
    for t in range(params.dims.t_steps):
        if not params.carry_state:
            h = zeros(params.dims.d_g)
        winner = reference_beam_search(params, condition(t, h), beam, max_len, h)
        sentences.append(list(winner.tokens))
        h = winner.state
    return sentences


def assert_same_winner(params, g, beam, max_len, h0):
    expected = reference_beam_search(params, g, beam, max_len, h0)
    tokens, state = _beam_search(params, g.data, beam, max_len,
                                 None if h0 is None else h0.data)
    assert tokens == expected.tokens
    assert np.array_equal(state, expected.state.data)


@pytest.mark.parametrize("seed", range(100))
def test_beam_search_matches_reference(seed):
    rng = Rng(5000 + seed)
    dims = tiny_dims(k=2 * rng.integers(1, 4), d_g=rng.integers(1, 6),
                     d_w=rng.integers(1, 5), vocab_size=rng.integers(EOS_ID + 1, 12))
    params = init_model(dims, rng)
    g = Tensor(rng.uniform(-2.0, 2.0, (dims.k,)))
    h0 = Tensor(rng.uniform(-1.0, 1.0, (dims.d_g,)))
    max_len = rng.integers(1, 7)
    for beam in (1, 2, 3, 5):
        for start in (None, h0):
            assert_same_winner(params, g, beam, max_len, start)


@pytest.mark.parametrize("groups", [1, 2, 3])
@pytest.mark.parametrize("vocab_size", [6, 145])
def test_beam_search_ties_match_reference(vocab_size, groups):
    # zero weights tie every candidate; a bias cycling over `groups` values
    # ties the words in groups instead; then a word in three, and EOS, gets
    # log-prob -inf, which ties them at every beam that reaches them
    params = tiny_model(seed=0, vocab_size=vocab_size)
    for _, t in params.named_tensors():
        t.data[...] = 0.0
    params.proj_b.data[...] = -(np.arange(vocab_size) % groups)
    for blocked in (False, True):
        if blocked:
            params.proj_b.data[1::3] = -np.inf
            params.proj_b.data[EOS_ID] = -np.inf
        for beam in (1, 2, 3, 5):
            for max_len in (1, 2, 3, 4):
                assert_same_winner(params, zeros(4), beam, max_len, None)


def test_beam_wider_than_every_live_row_matches_reference():
    # every extension survives, so live rows grow as V^step, not to the beam
    params = tiny_model(seed=3, vocab_size=5)
    h0 = Tensor(Rng(8).uniform(-1.0, 1.0, (params.dims.d_g,)))
    for max_len in (1, 3, 4):
        assert_same_winner(params, Tensor(Rng(9).uniform(-2.0, 2.0, (4,))), 10**12, max_len, h0)


@pytest.mark.parametrize("seed", range(20))
def test_top_k_is_the_stable_argsort_prefix(seed):
    rng = Rng(900 + seed)
    size = rng.integers(1, 40)
    scores = np.array([float(rng.integers(-3, 3)) for _ in range(size)])  # ties everywhere
    kinds = [scores]
    for specials in ([-np.inf], [np.inf], [np.nan], [-np.inf, np.inf, np.nan]):
        marked = scores.copy()
        for special in specials:
            marked[rng.sample_distinct(size, rng.integers(1, size + 1))] = special
        kinds.append(marked)
    for values in kinds:
        kept = values.copy()
        for k in sorted({1, 2, 3, max(size - 1, 1), size, size + 1, 10**12}):
            order = (-values).argsort(kind="stable")[:k]
            picked, got = _top_k(values, k)
            assert picked == order.tolist()
            assert np.array_equal(got, values[order], equal_nan=True)
            assert np.array_equal(values, kept, equal_nan=True)  # the scores are left as they were


@pytest.mark.parametrize("carry_state", [True, False])
@pytest.mark.parametrize("seed", range(5))
def test_generators_match_reference_loops(seed, carry_state):
    params = init_model(tiny_dims(vocab_size=7), Rng(600 + seed), carry_state=carry_state)
    feats = random_features(Rng(700 + seed), 7, 4)
    enc = encode_album(params, feats[None])
    oracle = [6, 1, 3, 0, 5]
    for beam in (1, 3):
        for indices in (None, oracle):
            sel = select_summary(params, enc, "hard" if indices is None else "oracle", indices)
            expected = reference_story(params, lambda t, h: row(sel.g[t], 0), beam, 5)
            story, selection = generate(params, feats, "hier", beam, 5, indices)
            assert story.sentences == expected
            assert selection.indices == sel.indices
            assert generate_story(params, feats, beam, 5, indices).sentences == expected

        vis = row(enc_dec_visual(params, enc), 0)
        expected = reference_story(params, lambda t, h: vis, beam, 5)
        story, decided = generate(params, feats, "enc_dec", beam, 5)
        assert story.sentences == expected
        assert decided is None

        weights = []

        def attend(t, h):
            vis, alpha = composed_attention(h, row(enc.v, 0), params.attn_mlp)
            weights.append(alpha.data)
            return vis

        expected = reference_story(params, attend, beam, 5)
        story, attention = generate(params, feats, "enc_attn_dec", beam, 5)
        assert story.sentences == expected
        assert np.array_equal(np.concatenate(attention), np.stack(weights))
        story, attention = enc_attn_dec_generate(params, feats, beam, 5)
        assert story.sentences == expected
        assert np.array_equal(attention, np.stack(weights))


def test_beam_decode_validates_shapes():
    params = tiny_model()
    with pytest.raises(DimensionError):
        beam_decode(params, zeros(3), beam=2, max_len=3)
    with pytest.raises(DimensionError):
        beam_decode(params, zeros(4), beam=2, max_len=3, h0=zeros(4))


# ---------------------------------------------------------------------------
# flat baselines


def test_enc_dec_log_prob_uses_projected_final_state():
    params = init_model(tiny_dims(t_steps=2), Rng(25))
    feats = random_features(Rng(26), 5, 4)
    story = Story(sentences=[[4, 2], [5, 3, 2]])
    enc = encode_album(params, feats[None])
    condition, _ = conditioner(params, enc, "enc_dec")
    lp = story_log_prob(params, condition, [story])
    vis = Tensor(enc.final_state.data[0] @ params.encdec_w.data + params.encdec_b.data)
    total = reference_story_log_prob(params, [vis] * 2, story)
    assert abs(float(lp.data[0]) - float(total.data)) < 1e-10


def test_enc_dec_zero_projection_ignores_photos():
    params = init_model(tiny_dims(t_steps=1), Rng(27))
    params.encdec_w.data[...] = 0.0
    params.encdec_b.data[...] = 0.0
    story = Story(sentences=[[4, 5, 2]])
    enc_a = encode_album(params, random_features(Rng(1), 5, 4)[None])
    enc_b = encode_album(params, random_features(Rng(2), 8, 4)[None])
    lp_a, lp_b = (
        story_log_prob(params, conditioner(params, enc, "enc_dec")[0], [story])
        for enc in (enc_a, enc_b)
    )
    assert float(lp_a.data[0]) == float(lp_b.data[0])


def test_enc_dec_generate_shapes():
    params = tiny_model(seed=11)
    story, _ = generate(params, random_features(Rng(3), 6, 4), "enc_dec", beam=2, max_len=4)
    assert len(story.sentences) == 5
    assert all(1 <= len(s) <= 4 for s in story.sentences)


def test_enc_attn_dec_attention_is_a_distribution():
    params = init_model(tiny_dims(t_steps=3), Rng(30))
    story, attn = enc_attn_dec_generate(params, random_features(Rng(31), 7, 4), beam=1, max_len=4)
    assert attn.shape == (3, 7)
    assert np.all(attn > 0.0)
    assert np.allclose(attn.sum(axis=1), 1.0, atol=1e-12)
    assert len(story.sentences) == 3


def conditioned_attention(params, enc, story):
    """The attention baseline's log-prob and its (T, n) attention, as the
    conditioner collects the weights."""
    condition, weights = conditioner(params, enc, "enc_attn_dec")
    return story_log_prob(params, condition, [story]), np.concatenate(weights)


def test_enc_attn_dec_single_photo_gets_full_attention():
    params = init_model(tiny_dims(t_steps=1), Rng(32))
    story = Story(sentences=[[4, 2]])
    enc = encode_album(params, random_features(Rng(5), 1, 4)[None])
    _, attn = conditioned_attention(params, enc, story)
    assert np.array_equal(attn, np.ones((1, 1)))


def test_enc_attn_dec_constant_scorer_attends_uniformly():
    params = init_model(tiny_dims(t_steps=2), Rng(35))
    zero_weights(params.attn_mlp)
    feats = random_features(Rng(36), 4, 4)
    story = Story(sentences=[[4, 2], [5, 2]])
    enc = encode_album(params, feats[None])
    lp, attn = conditioned_attention(params, enc, story)
    assert np.allclose(attn, 0.25, atol=1e-15)

    # with uniform attention every sentence sees the mean photo representation
    mean_v = Tensor(enc.v.data[0].mean(axis=0))
    total = reference_story_log_prob(params, [mean_v] * 2, story)
    assert abs(float(lp.data[0]) - float(total.data)) < 1e-10


def test_enc_attn_dec_log_prob_rejects_wrong_sentence_count():
    params = tiny_model()
    enc = encode_album(params, random_features(Rng(0), 5, 4)[None])
    with pytest.raises(ContractError):
        conditioned_attention(params, enc, Story(sentences=[[2]]))


# ---------------------------------------------------------------------------
# the single-album entry points: one (n, k) album becomes one album row


def one_album(seed, n=7):
    features = random_features(Rng(seed), n, 4)
    return Album(f"a{seed}", [f"a{seed}-p{i}" for i in range(n)], features, [], [])


@pytest.mark.parametrize("variant", ["hier", "enc_dec", "enc_attn_dec"])
def test_variant_log_prob_of_one_album_and_story_is_0d(variant):
    """What the benchmark reads with float(.data), bitwise the album's row."""
    params = tiny_model(seed=12)
    album, story = one_album(40), random_story(Rng(41), 5, 6)
    lp = variant_log_prob(params, album.features, story, variant)
    assert isinstance(lp, Tensor) and lp.shape == ()
    rows = variant_log_prob(params, album.features[None], [story], variant)
    assert float(lp.data) == rows.data[0]


def test_single_album_generators_and_selection_ids():
    params = tiny_model(seed=13)
    album = one_album(42)
    story, attn = enc_attn_dec_generate(params, album.features, beam=2, max_len=4)
    assert isinstance(story, Story) and attn.shape == (5, 7)
    assert len(attention_aggregate_topk(attn, 5)) == 5
    story = generate_story(params, album.features, beam=2, max_len=4)
    assert isinstance(story, Story) and len(story.sentences) == 5
    ids = hard_selection_ids(params, album)
    assert len(ids) == 5 and set(ids) <= set(album.photo_ids)


def test_single_album_entry_points_reject_other_shapes():
    """(k,) features, album rows (A, n, k) and a wrong k: a DimensionError
    that names the shape it got."""
    params = tiny_model(seed=14)
    album, story = one_album(43), random_story(Rng(44), 5, 6)
    entry_points = [
        lambda f: variant_log_prob(params, f, story),
        lambda f: generate(params, f, "hier", 2, 4),
        lambda f: generate_story(params, f, 2, 4),
        lambda f: enc_attn_dec_generate(params, f, 2, 4),
        lambda f: hard_selection_ids(params, Album("a", album.photo_ids, f, [], [])),
    ]
    for features in (album.features[0], album.features[None], random_features(Rng(45), 7, 6)):
        for call in entry_points:
            with pytest.raises(DimensionError, match=re.escape(str(features.shape))):
                call(features)


# ---------------------------------------------------------------------------
# construction and validation


def test_model_dims_validation():
    with pytest.raises(ConfigurationError):
        tiny_dims(k=5)  # odd width cannot split across directions
    with pytest.raises(ConfigurationError):
        tiny_dims(d_g=0)
    with pytest.raises(ConfigurationError):
        tiny_dims(vocab_size=EOS_ID)
    with pytest.raises(ConfigurationError):
        tiny_dims(t_steps=-1)


@pytest.mark.parametrize("name, value", [("k", 4.0), ("d_s", True), ("vocab_size", EOS_ID),
                                         ("t_steps", "5")])
def test_model_dims_names_the_field_and_value_it_rejects(name, value):
    with pytest.raises(ConfigurationError) as caught:
        tiny_dims(**{name: value})
    message = str(caught.value)
    assert message.startswith(f"{name} must be an integer") and message.endswith(repr(value))


def test_init_model_same_seed_same_weights():
    a = init_model(tiny_dims(), Rng(5))
    b = init_model(tiny_dims(), Rng(5))
    for (name_a, t_a), (name_b, t_b) in zip(a.named_tensors(), b.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(t_a.data, t_b.data)
    c = init_model(tiny_dims(), Rng(6))
    assert any(
        not np.array_equal(t_a.data, t_c.data)
        for (_, t_a), (_, t_c) in zip(a.named_tensors(), c.named_tensors())
    )


def test_init_model_encoder_gain_scales_only_encoder():
    base = init_model(tiny_dims(), Rng(5))
    scaled = init_model(tiny_dims(), Rng(5), enc_init_gain=0.5)
    for (name, t_base), (_, t_scaled) in zip(base.named_tensors(), scaled.named_tensors()):
        if name.split(".")[0] == "enc":
            assert np.array_equal(t_scaled.data, t_base.data * 0.5)
        else:
            assert np.array_equal(t_scaled.data, t_base.data)


@pytest.mark.parametrize("spare", [0, -1])
def test_a_model_whose_training_state_exceeds_physical_memory_is_refused(monkeypatch, spare):
    """Its weights, gradients and Adam's two moments are 32 bytes a weight;
    the memory probe is patched, so nothing large is asked for."""
    dims = tiny_dims()
    count = sum(math.prod(shape) for _, shape in model.ModelParams.layout(dims))
    monkeypatch.setattr(model, "physical_memory", lambda: 32 * count + spare)
    if spare == 0:
        assert init_model(dims, Rng(0)).store.size == count
        return
    with pytest.raises(ConfigurationError) as caught:
        init_model(dims, Rng(0))
    assert str(caught.value) == (
        f"model {dims} has {count:,} weights, more than can be allocated ({32 * count:,} bytes "
        f"with their gradients and Adam's moments, {32 * count - 1:,} bytes of physical memory)")


def test_each_variant_trains_one_to_four_runs_of_the_store():
    params = tiny_model()
    for variant, count in (("hier", 1), ("enc_dec", 3), ("enc_attn_dec", 4)):
        runs = params.store_runs(variant)
        assert len(runs) == count
        trainable = dict(params.trainable(variant))
        assert sum(run.size for run in runs) == sum(t.size for t in trainable.values())
        for name, t in params.named_tensors():
            inside = any(np.shares_memory(t.data, run) for run in runs)
            assert inside == (name in trainable), (variant, name)


def test_the_manifest_views_hold_every_store_element_once():
    """The checkpoint's manifest cuts each GRU's nine gates out of its
    layer's blocks; with the other tensors its views hold each weight of
    the store exactly once, in `layout`'s names and shapes."""
    params = tiny_model()
    params.store[:] = np.arange(params.store.size)
    entries = params.manifest()
    assert all(view.base is params.store for _, view in entries)
    held = np.concatenate([view.ravel() for _, view in entries])
    assert np.array_equal(np.sort(held), np.arange(params.store.size))
    assert [(name, view.shape) for name, view in entries] == model.ModelParams.layout(params.dims)


def test_a_weight_changed_in_place_shows_in_the_next_generate(tmp_path):
    """No GRU op keeps a copy of its weights: after an in-place change,
    `generate` gives, bit for bit, what a model loaded with the same weights
    gives."""
    params = tiny_model(2, vocab_size=9)
    features = Rng(6).uniform(-1.0, 1.0, (7, params.dims.k))
    first = generate(params, features, "hier", 2, 6)
    for cell in (params.enc_fwd, params.enc_bwd, params.sel_gru, params.gen_gru):
        gates = cell.gates()
        gates["u_r"] *= -1.5
        gates["w_h"] += 0.25
        gates["b_z"] -= 0.5
    changed = generate(params, features, "hier", 2, 6)
    save_checkpoint(params, None, None, tmp_path / "m.hat")
    fresh = generate(load_checkpoint(tmp_path / "m.hat").params, features, "hier", 2, 6)
    assert changed[0].sentences == fresh[0].sentences
    assert np.array_equal(changed[1].probs.data.view(np.uint64), fresh[1].probs.data.view(np.uint64))
    assert not np.array_equal(changed[1].probs.data, first[1].probs.data)


def test_tape_free_generation_on_a_wide_model_copies_no_weight_block():
    """One beam-1 story of a 30-photo album on a model of the `wide`
    benchmark's size (k 256) allocates at its peak less than one encoder
    input block, (257, 384) float64s, which a copy of the weights would."""
    params = init_model(ModelDims(k=256, d_s=32, d_g=32, d_w=16, vocab_size=145), Rng(0))
    features = Rng(1).uniform(-1.0, 1.0, (30, 256))
    generate(params, features, "hier", 1, 12)
    tracemalloc.start()
    try:
        generate(params, features, "hier", 1, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 257 * 384 * 8, peak


def test_init_model_rejects_nonpositive_gain():
    with pytest.raises(ConfigurationError):
        init_model(tiny_dims(), Rng(0), enc_init_gain=0.0)
    with pytest.raises(ConfigurationError):
        init_model(tiny_dims(), Rng(0), enc_init_gain=-1.0)


def test_trainable_tensor_groups_per_variant():
    params = tiny_model()
    hier = {name.split(".")[0] for name, _ in params.trainable("hier")}
    assert "sel_gru" in hier and "sel_mlp" in hier
    assert "encdec" not in hier and "attn_mlp" not in hier

    enc_dec = {name.split(".")[0] for name, _ in params.trainable("enc_dec")}
    assert "encdec" in enc_dec
    assert "sel_gru" not in enc_dec and "attn_mlp" not in enc_dec

    attn = {name.split(".")[0] for name, _ in params.trainable("enc_attn_dec")}
    assert "attn_mlp" in attn
    assert "sel_gru" not in attn and "encdec" not in attn

    with pytest.raises(ConfigurationError):
        params.trainable("transformer")
