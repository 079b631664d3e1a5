"""Objective, optimizer, and training-loop tests: hinge semantics, shuffled
negatives, Adam arithmetic, gradient clipping, and bitwise-reproducible runs.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hatstory.checkpoint import load_checkpoint, save_checkpoint
from hatstory.data import Album, Story, SynthSpec, synth_generate
from hatstory.diagnostics import toy_instance
from hatstory.errors import ConfigurationError, ContractError
from hatstory.model import ModelDims, init_model
from hatstory import model, tensor
from hatstory.tensor import Rng, Tensor, Tape, _accum, backward, grad_check, neg, sum_all
from hatstory.training import (
    VARIANTS,
    TrainConfig,
    AdamState,
    adam_step,
    batch_loss,
    clip_gradients,
    combined_loss,
    make_negative,
    ranking_loss,
    train,
    variant_log_prob,
    write_loss_curve,
)
from conftest import reference_adam_step, reference_clip_gradients


def tiny_cfg(**overrides):
    base = dict(
        k=6, d_s=4, d_g=4, d_w=3, epochs=2, batch_size=2, seed=0,
        learning_rate=1e-2, rank_weight=1.0, margin=1.0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset():
    albums, vocab = synth_generate(SynthSpec(albums=2, n=5, k=6, classes=5, seed=3))
    return albums, vocab


def story5():
    return Story(sentences=[[4, 2], [5, 2], [6, 2], [4, 5, 2], [6, 4, 2]])


# ---------------------------------------------------------------------------
# shuffled negatives


@pytest.mark.parametrize("seed", range(20))
def test_make_negative_is_a_nonidentity_permutation(seed):
    story = story5()
    neg = make_negative(story, Rng(seed))
    assert neg.sentences != story.sentences
    assert sorted(map(tuple, neg.sentences)) == sorted(map(tuple, story.sentences))
    # the original is untouched
    assert story.sentences == story5().sentences


def test_make_negative_is_deterministic_and_reorders_texts():
    story = Story(
        sentences=[[4, 2], [5, 2], [6, 2], [4, 5, 2], [6, 4, 2]],
        texts=["a", "b", "c", "d", "e"],
    )
    neg1 = make_negative(story, Rng(7))
    neg2 = make_negative(story, Rng(7))
    assert neg1.sentences == neg2.sentences
    assert neg1.texts == neg2.texts
    # texts follow their sentences through the shuffle
    for sent, text in zip(neg1.sentences, neg1.texts):
        assert story.texts[story.sentences.index(sent)] == text


def test_make_negative_identity_fallback_swaps_first_two():
    class IdentityRng:
        def permutation(self, n):
            return list(range(n))

    neg = make_negative(story5(), IdentityRng())
    assert neg.sentences == [[5, 2], [4, 2], [6, 2], [4, 5, 2], [6, 4, 2]]


def test_make_negative_requires_five_sentences():
    with pytest.raises(ContractError):
        make_negative(Story(sentences=[[2], [2]]), Rng(0))


# ---------------------------------------------------------------------------
# ranking hinge


def test_ranking_loss_zero_once_margin_satisfied():
    loss = ranking_loss(Tensor(-1.0), Tensor(-5.0), margin=1.0)
    assert float(loss.data) == 0.0


def test_ranking_loss_penalizes_misordered_likelihoods():
    # true story scored 4 nats below its shuffle, margin 1 -> hinge 5
    loss = ranking_loss(Tensor(-5.0), Tensor(-1.0), margin=1.0)
    assert float(loss.data) == 5.0


def test_ranking_loss_gradient_pushes_the_gap_apart():
    pos = Tensor(-5.0, requires_grad=True)
    neg = Tensor(-1.0, requires_grad=True)
    with Tape() as tape:
        loss = ranking_loss(pos, neg, margin=1.0)
        backward(tape, loss)
    # gradient descent raises log p(S) and lowers log p(S')
    assert pos.grad == -1.0
    assert neg.grad == 1.0


def test_ranking_loss_rejects_nonpositive_margin():
    with pytest.raises(ContractError):
        ranking_loss(Tensor(-1.0), Tensor(-2.0), margin=0.0)


# ---------------------------------------------------------------------------
# combined objective


def test_combined_loss_weighted_sum_of_parts():
    albums, _ = tiny_dataset()
    cfg = tiny_cfg(rank_weight=2.5)
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    story = albums[0].stories[0]
    negative = make_negative(story, Rng(1))
    total, gen, rank = combined_loss(params, albums[0].features[None], [story], [negative], cfg)
    assert abs(total.item() - (gen.item() + 2.5 * rank.item())) < 1e-12
    # generation part is the negative story likelihood
    lp = variant_log_prob(params, albums[0].features, story)
    assert abs(gen.item() + float(lp.data)) < 1e-15


def independent_combined_loss(params, features, story, negative, cfg):
    """The ranked objective with the story and its negative scored by two
    separate variant_log_prob calls, each conditioning on the album anew."""
    log_p_pos = variant_log_prob(params, features, story, cfg.variant)
    log_p_neg = variant_log_prob(params, features, negative, cfg.variant)
    rank = ranking_loss(log_p_pos, log_p_neg, cfg.margin)
    return neg(log_p_pos) + cfg.rank_weight * rank


def _loss_and_grads(loss_fn, params, variant):
    trainable = params.trainable(variant)
    for _, t in trainable:
        t.grad = None
    with Tape() as tape:
        total = loss_fn()
        backward(tape, total)
    return total.data, {n: t.grad for n, t in trainable}


@pytest.mark.parametrize("variant", VARIANTS)
def test_combined_loss_conditions_once_and_matches_independent_scoring(variant):
    albums, _ = tiny_dataset()
    cfg = tiny_cfg(rank_weight=2.5, variant=variant)
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    album, story = albums[0], albums[0].stories[0]
    negative = make_negative(story, Rng(1))
    shared, shared_grads = _loss_and_grads(
        lambda: sum_all(combined_loss(params, album.features[None], [story], [negative], cfg)[0]),
        params, variant,
    )
    apart, apart_grads = _loss_and_grads(
        lambda: independent_combined_loss(params, album.features, story, negative, cfg),
        params, variant,
    )
    assert np.array_equal(shared, apart)
    assert shared_grads.keys() == apart_grads.keys()
    for name in shared_grads:
        assert np.max(np.abs(shared_grads[name] - apart_grads[name])) <= 1e-12, name


def acceptance_batch(count):
    """The first `count` albums of the seed-7 acceptance set with their first
    stories and shuffled negatives, and the acceptance model."""
    albums, vocab = synth_generate(
        SynthSpec(albums=20, n=10, k=16, classes=5, seed=7, noise_sigma=0.05)
    )
    cfg = TrainConfig(
        k=16, seed=7, learning_rate=3e-3, batch_size=5, rank_weight=3.0,
        margin=1.0, enc_init_gain=0.5,
    )
    dims = ModelDims(k=16, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    params = init_model(dims, Rng(7), enc_init_gain=cfg.enc_init_gain)
    pairs = [(album, album.stories[0]) for album in albums[:count]]
    return params, pairs, [make_negative(story, Rng(7)) for _, story in pairs], cfg


def test_ranked_acceptance_example_encodes_and_selects_once(monkeypatch):
    """A ranked 5-example batch of the seed-7 acceptance set, all albums of
    one photo count: one encoder pass, one selection, and a bounded tape."""
    params, pairs, negatives, cfg = acceptance_batch(5)
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    # encoding and selection both run inside model.variant_log_prob
    for name in ("encode_album", "select_summary"):
        monkeypatch.setattr(model, name, counted(model, name))
    with Tape() as tape:
        root, _ = batch_loss(params, pairs, negatives, cfg)
        backward(tape, root)
    assert calls == ["encode_album", "select_summary"]
    # per example: 2,794 records when every op was recorded separately and
    # the album was conditioned on twice, 552 with fused GRU steps and word
    # ops, 112 with one op per encoder direction and per sentence; 28 for
    # the whole batch with its examples as rows, 25 with each story and its
    # negative decoded in one pass, 23 with both encoder directions in one op
    assert len(tape) <= 23
    counts = tape.counts()
    assert sum(counts.values()) == len(tape)
    assert counts == {"add": 3, "gru_sequence": 1, "mul": 1, "neg": 1, "relu": 2, "row": 7,
                      "sentence_log_prob": 5, "soft_select": 1, "sub": 1, "sum_all": 1}


def test_batch_records_no_more_tape_entries_than_one_example():
    params, pairs, negatives, cfg = acceptance_batch(5)
    lengths = []
    for count in (1, 5):
        with Tape() as tape:
            batch_loss(params, pairs[:count], negatives[:count], cfg)
        lengths.append(len(tape))
    assert lengths[1] <= lengths[0]


def test_batch_of_one_is_the_combined_loss_bitwise():
    params, pairs, negatives, cfg = acceptance_batch(1)
    (album, story), negative = pairs[0], negatives[0]
    total, gen, rank = combined_loss(params, album.features[None], [story], [negative], cfg)
    root, parts = batch_loss(params, pairs, negatives, cfg)
    assert parts == [(total.item(), gen.item(), rank.item())]
    assert root.item() == total.item()


def mixed_batch(variant, rank_weight, carry_state):
    """Five examples over albums of 6 and 8 photos, interleaved, and their
    negatives when ranked."""
    pairs = []
    for n, seed in ((6, 21), (8, 22)):
        albums, _ = synth_generate(SynthSpec(albums=3, n=n, k=6, classes=5, seed=seed))
        pairs.extend((album, album.stories[0]) for album in albums)
    pairs = [pairs[i] for i in (0, 3, 1, 4, 5)]
    cfg = tiny_cfg(variant=variant, rank_weight=rank_weight, carry_state=carry_state)
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=30)
    params = init_model(dims, Rng(3), carry_state=carry_state)
    rng = Rng(4)
    negatives = [make_negative(s, rng) for _, s in pairs] if rank_weight > 0 else None
    return params, pairs, negatives, cfg


def two_pass_combined_loss(params, features, stories, negatives, cfg):
    """The ranked objective over album rows with the stories and their
    negatives scored as two row sets against one conditioning."""
    condition, _ = model.conditioner(params, model.encode_album(params, features), cfg.variant)
    log_p_pos, log_p_neg = (model.story_log_prob(params, condition, s) for s in (stories, negatives))
    return neg(log_p_pos) + cfg.rank_weight * ranking_loss(log_p_pos, log_p_neg, cfg.margin)


@pytest.mark.parametrize("carry_state", [True, False])
@pytest.mark.parametrize("variant", VARIANTS)
def test_ranked_rows_in_one_pass_match_two_row_passes(variant, carry_state):
    params, pairs, negatives, cfg = mixed_batch(variant, 2.0, carry_state)
    rows = [i for i, (album, _) in enumerate(pairs) if len(album.features) == 8]
    features = np.stack([pairs[i][0].features for i in rows])
    stories, negs = [pairs[i][1] for i in rows], [negatives[i] for i in rows]
    per_row, grads = [], []
    for loss_fn in (lambda *args: combined_loss(*args)[0], two_pass_combined_loss):
        def root():
            per_row.append(loss_fn(params, features, stories, negs, cfg))
            return sum_all(per_row[-1])
        grads.append(_loss_and_grads(root, params, variant)[1])
    assert len(rows) == 3 and np.array_equal(per_row[0].data, per_row[1].data)
    for name in grads[0]:
        assert np.max(np.abs(grads[0][name] - grads[1][name])) <= 1e-12, name


@pytest.mark.parametrize("carry_state", [True, False])
@pytest.mark.parametrize("rank_weight", [0.0, 2.0])
@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_gradient_is_the_sum_of_example_gradients(variant, rank_weight, carry_state):
    params, pairs, negatives, cfg = mixed_batch(variant, rank_weight, carry_state)
    trainable = params.trainable(variant)
    for _, t in trainable:
        t.grad = None
    parts = []
    for i, (album, story) in enumerate(pairs):
        with Tape() as tape:
            total, gen, rank = combined_loss(
                params, album.features[None], [story],
                None if negatives is None else [negatives[i]], cfg,
            )
            backward(tape, total)
        parts.append((total.item(), gen.item(), 0.0 if rank is None else rank.item()))
    summed = {n: t.grad for n, t in trainable}
    for _, t in trainable:
        t.grad = None
    with Tape() as tape:
        root, batched_parts = batch_loss(params, pairs, negatives, cfg)
        backward(tape, root)
    assert np.allclose(batched_parts, parts, rtol=1e-12, atol=0)
    for name, t in trainable:
        assert np.max(np.abs(t.grad - summed[name])) <= 1e-12, name


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_loss_gradcheck_with_reset_state_and_an_empty_sentence(variant):
    """Three rows without state carry, one story with a one-token sentence
    among longer ones. The same story with that sentence empty is rejected."""
    params, features, story, _ = toy_instance(0)
    params.carry_state = False
    rng = Rng(2)
    stories = [story, Story(sentences=[[6, 5, 4, 2], [2], [3, 2], [5, 5, 2], [2]]),
               Story(sentences=story.sentences[::-1])]
    pairs = [(Album("toy", [], f, [], []), s) for f, s in zip(
        [features] + [rng.uniform(-2.0, 2.0, features.shape) for _ in range(2)], stories)]
    negatives = [make_negative(s, rng) for s in stories]
    cfg = tiny_cfg(k=4, d_s=3, d_g=3, d_w=3, variant=variant, carry_state=False)
    empty = Story(sentences=[[6, 5, 4, 2], [], [3, 2], [5, 5, 2], [2]])
    with pytest.raises(ContractError, match="empty sentence 1"):
        batch_loss(params, pairs[:1] + [(pairs[1][0], empty)], negatives[:1] + [empty], cfg)
    named = params.trainable(variant)
    report = grad_check(lambda *ts: batch_loss(params, pairs, negatives, cfg)[0],
                        [t for _, t in named], tol=1e-4, names=[n for n, _ in named])
    assert report.passed, report.per_param


def test_combined_loss_zero_rank_weight_returns_generation_loss_itself():
    albums, _ = tiny_dataset()
    cfg = tiny_cfg(rank_weight=0.0)
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    story = albums[0].stories[0]
    total, gen, rank = combined_loss(params, albums[0].features[None], [story], None, cfg)
    assert total is gen  # identical op graph, not merely an equal value
    assert rank is None


def test_combined_loss_requires_negative_when_ranked():
    albums, _ = tiny_dataset()
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    with pytest.raises(ContractError):
        combined_loss(params, albums[0].features[None], [albums[0].stories[0]], None, tiny_cfg())


def test_variant_log_prob_rejects_unknown_variant():
    albums, _ = tiny_dataset()
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    with pytest.raises(ConfigurationError):
        variant_log_prob(params, albums[0].features, albums[0].stories[0], "lstm")


def test_generation_loss_is_finite_for_all_variants():
    albums, _ = tiny_dataset()
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    for variant in ("hier", "enc_dec", "enc_attn_dec"):
        lp = variant_log_prob(params, albums[0].features, albums[0].stories[0], variant)
        assert math.isfinite(float(lp.data))
        assert float(lp.data) < 0.0


# ---------------------------------------------------------------------------
# Adam


def lone_adam(*weights):
    """A tensor of the given weights and the Adam state over it alone, its
    gradient buffer the state's `grads`."""
    p = Tensor(np.array(weights), requires_grad=True)
    return p, AdamState([("p", p)], [p.data])


def test_adam_first_step_matches_hand_formula():
    p, state = lone_adam(1.0, -2.0)
    _accum(p, np.array([0.5, -1.5]))
    cfg = tiny_cfg(learning_rate=0.1)
    adam_step(state, cfg)

    expected = []
    for start, g in ((1.0, 0.5), (-2.0, -1.5)):
        m = (1 - cfg.beta1) * g
        v = (1 - cfg.beta2) * g * g
        m_hat = m / (1 - cfg.beta1)
        v_hat = v / (1 - cfg.beta2)
        expected.append(start - cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.epsilon))
    assert np.allclose(p.data, expected, atol=1e-15)
    # the bias-corrected first step moves by almost exactly the learning rate
    assert abs(abs(p.data[0] - 1.0) - cfg.learning_rate) < 1e-8
    assert state.step == 1


def test_adam_two_steps_match_reference_loop():
    cfg = tiny_cfg(learning_rate=0.05)
    p, state = lone_adam(0.3)
    grads = [np.array([0.7]), np.array([-0.2])]

    # reference implementation with explicit scalars
    x, m, v = 0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = cfg.beta1 * m + (1 - cfg.beta1) * float(g[0])
        v = cfg.beta2 * v + (1 - cfg.beta2) * float(g[0]) ** 2
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        x -= cfg.learning_rate * m_hat / (math.sqrt(v_hat) + cfg.epsilon)

    for g in grads:
        _accum(p, g)
        adam_step(state, cfg)
    assert abs(float(p.data[0]) - x) < 1e-15
    assert state.step == 2


def test_adam_requires_gradients():
    p, state = lone_adam(1.0)
    with pytest.raises(ContractError):
        adam_step(state, tiny_cfg())


def test_a_tensor_no_gradient_reached_since_the_last_step_is_missing():
    """Its buffer still holds the last batch's gradient; the step tells the
    two apart by whether a gradient reached the tensor since."""
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    state = AdamState(params.trainable("hier"), params.store_runs("hier"))
    for _, t in state.named:
        _accum(t, np.ones(t.shape))
    adam_step(state, tiny_cfg())
    for name, t in state.named:
        if name != "sel_mlp.1.b":
            _accum(t, np.ones(t.shape))
    with pytest.raises(ContractError, match="missing gradient for sel_mlp.1.b"):
        adam_step(state, tiny_cfg())


def _random_gradients(rng, named, step):
    """One batch's gradients: a scale drawn across four decades, with exact
    zeros and negative zeros among the values; some tensors get two."""
    scale = 10.0 ** rng.uniform(-3.0, 1.0)
    out = []
    for i, (_, t) in enumerate(named):
        parts = []
        for _ in range(1 + (i + step) % 3 // 2):
            g = rng.normal(scale, t.shape)
            g[rng.uniform(0.0, 1.0, t.shape) < 0.05] = 0.0
            g[rng.uniform(0.0, 1.0, t.shape) < 0.05] = -0.0
            parts.append(g)
        out.append(parts)
    return out


@pytest.mark.parametrize("grad_clip", [0.0, 0.5])
@pytest.mark.parametrize("variant", VARIANTS)
def test_flat_adam_is_bitwise_the_per_tensor_reference(variant, grad_clip):
    """100 steps over the variant's trainable tensors, gradients averaged and
    clipped as `train` does; tensors outside the variant are untouched."""
    dims = ModelDims(k=6, d_s=4, d_g=5, d_w=3, vocab_size=19)
    flat, ref = (init_model(dims, Rng(4)) for _ in range(2))
    before = {name: t.data.copy() for name, t in flat.named_tensors()}
    cfg = tiny_cfg(variant=variant, grad_clip=grad_clip, learning_rate=3e-2)
    state = AdamState(flat.trainable(variant), flat.store_runs(variant))
    ref_state = SimpleNamespace(step=0, m={}, v={})
    ref_named = ref.trainable(variant)
    rng = Rng(11)
    for step in range(100):
        grads = _random_gradients(rng, state.named, step)
        for (_, t), (_, r), parts in zip(state.named, ref_named, grads):
            for g in parts:
                _accum(t, g)
            r.grad = parts[0].copy()
            for g in parts[1:]:
                r.grad += g
            r.grad *= 1.0 / 3
        state.grads *= 1.0 / 3
        for (name, t), (_, r) in zip(state.named, ref_named):  # each a view of the flat grads
            assert np.shares_memory(t.grad, state.grads), name
            assert np.array_equal(t.grad.view(np.uint64), r.grad.view(np.uint64)), name
        if grad_clip:
            assert (clip_gradients(state.grads, grad_clip)
                    == reference_clip_gradients(ref_named, grad_clip))
        adam_step(state, cfg)
        reference_adam_step(ref_named, ref_state, cfg)
        for _, r in ref_named:
            r.grad = None
        assert np.array_equal(flat.store.view(np.uint64), ref.store.view(np.uint64)), step
    trained = {name for name, _ in state.named}
    for name, t in flat.named_tensors():
        moved = not np.array_equal(t.data.view(np.uint64), before[name].view(np.uint64))
        assert moved == (name in trained), name


# ---------------------------------------------------------------------------
# gradient clipping


def flat_gradients(*grads):
    """(named, grads): one tensor per given gradient (None: none reached it),
    each gradient a view of the flat array `grads`, side by side in order."""
    flat = np.concatenate([np.zeros(2) if g is None else g for g in grads])
    named = []
    for i, g in enumerate(grads):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = None if g is None else flat[2 * i:2 * i + 2]
        named.append((f"t{i}", t))
    return named, flat


def test_clip_gradients_rescales_to_global_norm():
    named, flat = flat_gradients(np.array([3.0, 0.0]), np.array([0.0, 4.0]))
    (_, a), (_, b) = named
    norm = clip_gradients(flat, max_norm=1.0)
    assert abs(norm - 5.0) < 1e-12
    clipped = math.sqrt(float((a.grad**2).sum() + (b.grad**2).sum()))
    assert abs(clipped - 1.0) < 1e-12
    assert np.allclose(a.grad, [0.6, 0.0])
    assert np.allclose(b.grad, [0.0, 0.8])


def test_clip_gradients_leaves_small_gradients_alone():
    named, flat = flat_gradients(np.array([0.3, 0.4]))
    a = named[0][1]
    before = a.grad.copy()
    norm = clip_gradients(flat, max_norm=1.0)
    assert abs(norm - 0.5) < 1e-12
    assert np.array_equal(a.grad, before)


def test_clip_gradients_skips_missing_and_validates_norm():
    named, flat = flat_gradients(None)
    assert clip_gradients(flat, max_norm=1.0) == 0.0
    with pytest.raises(ContractError):
        clip_gradients(flat, max_norm=0.0)


# ---------------------------------------------------------------------------
# training loop


def run_once(tmp_path, name, cfg):
    albums, vocab = tiny_dataset()
    dims = ModelDims(k=6, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    params = init_model(dims, Rng(cfg.seed), carry_state=cfg.carry_state,
                        enc_init_gain=cfg.enc_init_gain)
    curve = train(params, albums, cfg)
    write_loss_curve(curve, tmp_path / name)
    return params, curve, (tmp_path / name).read_bytes()


def test_every_tensor_views_the_store_after_init_load_and_train(tmp_path):
    cfg = tiny_cfg(epochs=1)
    params, _, _ = run_once(tmp_path, "curve.csv", cfg)
    save_checkpoint(params, None, None, tmp_path / "m.hat")
    loaded = load_checkpoint(tmp_path / "m.hat").params
    init = init_model(params.dims, Rng(1))
    for p in (params, loaded, init):
        layout = model.ModelParams.layout(p.dims)
        assert p.store.shape == (sum(math.prod(shape) for _, shape in layout),)
        views = model.flat_views(p.store, layout)
        for name, t in p.named_tensors():
            assert t.data.base is p.store and np.shares_memory(t.data, views[name]), name
            assert t.grad is None and t.grad_buffer is None, name
        for cell in (p.enc_fwd, p.enc_bwd, p.sel_gru, p.gen_gru):  # what the GRU ops read
            assert all(block.base is p.store for block in cell.sides())
            for name, t in cell.named():
                assert any(np.shares_memory(t.data, block) for block in cell.sides()), name
        for block in tensor._lockstep([p.enc_fwd, p.enc_bwd]):  # the directions, stacked
            assert block.base is p.store and block.strides[0] == block[0].nbytes
    assert np.array_equal(params.store, loaded.store)


def test_gradients_left_on_the_model_do_not_reach_its_training(tmp_path):
    cfg = tiny_cfg(epochs=1)
    clean, _, curve = run_once(tmp_path, "clean.csv", cfg)
    albums, vocab = tiny_dataset()
    params = init_model(clean.dims, Rng(cfg.seed))
    for _, t in params.named_tensors():
        t.grad = np.ones(t.shape)
    train(params, albums, cfg)
    assert np.array_equal(params.store, clean.store)


def test_train_is_bitwise_reproducible(tmp_path):
    cfg = tiny_cfg(epochs=3)
    params1, curve1, bytes1 = run_once(tmp_path, "a.csv", cfg)
    params2, curve2, bytes2 = run_once(tmp_path, "b.csv", cfg)
    assert curve1 == curve2
    assert bytes1 == bytes2
    for (n1, t1), (n2, t2) in zip(params1.named_tensors(), params2.named_tensors()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


def test_train_decreases_loss_on_tiny_data(tmp_path):
    cfg = tiny_cfg(epochs=15, rank_weight=0.0, learning_rate=3e-3)
    _, curve, _ = run_once(tmp_path, "c.csv", cfg)
    assert curve[-1]["mean_loss"] < curve[0]["mean_loss"]


def test_train_curve_rows_and_rank_component(tmp_path):
    cfg = tiny_cfg(epochs=2)
    _, curve, raw = run_once(tmp_path, "d.csv", cfg)
    assert [row["epoch"] for row in curve] == [0, 1]
    for row in curve:
        assert set(row) == {"epoch", "mean_loss", "mean_gen_loss", "mean_rank_loss"}
        assert row["mean_loss"] >= row["mean_gen_loss"]
        assert row["mean_rank_loss"] >= 0.0
    header = raw.decode().splitlines()[0]
    assert header == "epoch,mean_loss,mean_gen_loss,mean_rank_loss"


def test_train_early_stop_halts_after_matching_epoch():
    albums, vocab = tiny_dataset()
    cfg = tiny_cfg(epochs=50)
    dims = ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=vocab.size)
    params = init_model(dims, Rng(0))
    curve = train(params, albums, cfg, early_stop=lambda row: row["epoch"] >= 1)
    assert len(curve) == 2


def test_train_rejects_empty_dataset():
    cfg = tiny_cfg()
    params = init_model(ModelDims(k=6, d_s=4, d_g=4, d_w=3, vocab_size=19), Rng(0))
    with pytest.raises(ContractError):
        train(params, [], cfg)


def test_write_loss_curve_round_trips_floats(tmp_path):
    path = tmp_path / "curve.csv"
    curve = [{"epoch": 0, "mean_loss": 1.0 / 3.0, "mean_gen_loss": 0.25,
              "mean_rank_loss": 1e-17}]
    write_loss_curve(curve, path)
    line = path.read_text().splitlines()[1].split(",")
    assert float(line[1]) == 1.0 / 3.0  # repr keeps full precision
    assert float(line[3]) == 1e-17


# ---------------------------------------------------------------------------
# config validation


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        tiny_cfg(rank_weight=-0.5)
    with pytest.raises(ConfigurationError):
        tiny_cfg(margin=0.0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(learning_rate=0.0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(beta1=1.0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(batch_size=0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(variant="transformer")
    with pytest.raises(ConfigurationError):
        tiny_cfg(grad_clip=-1.0)
    with pytest.raises(ConfigurationError):
        tiny_cfg(enc_init_gain=0.0)


@pytest.mark.parametrize(
    "name, value",
    [("k", "6"), ("epochs", 3.0), ("batch_size", True), ("seed", -1), ("min_count", 0),
     ("rank_weight", False), ("margin", math.inf), ("learning_rate", math.nan),
     ("beta2", 1.0), ("epsilon", None), ("carry_state", 1)],
)
def test_train_config_names_the_field_and_value_it_rejects(name, value):
    with pytest.raises(ConfigurationError) as caught:
        tiny_cfg(**{name: value})
    message = str(caught.value)
    assert message.startswith(f"{name} must be ") and message.endswith(repr(value))


def test_train_config_to_dict_round_trip():
    cfg = tiny_cfg(rank_weight=3.0, enc_init_gain=0.5)
    rebuilt = TrainConfig(**cfg.to_dict())
    assert rebuilt == cfg
