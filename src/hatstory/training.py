"""Losses, negative-story construction, Adam, and the training loop.

The objective is generation negative-log-likelihood plus a weighted
sentence-order ranking hinge:

    loss = -log p(S) + rank_weight * max(0, margin + log p(S') - log p(S))

where S' is the same story with its sentences shuffled. Setting
rank_weight to 0 skips negative construction entirely and the loss is
bitwise identical to the plain generation loss.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import SENTENCES_PER_STORY, Story, validate_story, write_atomically
from .errors import ConfigurationError, ContractError, NumericDomainError, check_int, check_number
from .model import VARIANTS, flat_views, group_by_photo_count, variant_log_prob
from .tensor import Rng, Tape, backward, neg, relu, row, sum_all


@dataclass
class TrainConfig:
    # model dimensions (k must match the dataset's feature width)
    k: int = 16
    d_s: int = 32
    d_g: int = 32
    d_w: int = 16
    # objective
    rank_weight: float = 1.0
    margin: float = 1.0
    # optimizer
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    grad_clip: float = 0.0  # global-norm clip; 0 disables
    # loop
    epochs: int = 100
    batch_size: int = 5
    seed: int = 0
    # decoding defaults used by the harness
    beam_size: int = 3
    max_sentence_len: int = 12
    # which model the loss drives
    variant: str = "hier"
    carry_state: bool = True
    # encoder-GRU init scale; < 1 starts photo representations near relu(f_i)
    enc_init_gain: float = 1.0
    min_count: int = 1

    def __post_init__(self):
        for name in ("k", "d_s", "d_g", "d_w", "batch_size", "beam_size",
                     "max_sentence_len", "min_count"):
            check_int(name, getattr(self, name), 1)
        for name in ("epochs", "seed"):
            check_int(name, getattr(self, name), 0)
        for name in ("rank_weight", "grad_clip"):
            check_number(name, getattr(self, name), 0)
        for name in ("margin", "learning_rate", "epsilon", "enc_init_gain"):
            check_number(name, getattr(self, name), 0, above=True)
        for name in ("beta1", "beta2"):
            check_number(name, getattr(self, name), 0, below=1)
        if type(self.carry_state) is not bool:
            raise ConfigurationError(f"carry_state must be true or false, got {self.carry_state!r}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")

    def to_dict(self):
        return asdict(self)


def ranking_loss(log_p_pos, log_p_neg, margin):
    """Hinge on the story/shuffled-story likelihood gap:
    max(0, margin + log p(S') - log p(S)) goes to zero once the true order
    beats the shuffle by the margin."""
    if margin <= 0:
        raise ContractError("ranking_loss: margin must be positive")
    return relu(margin + log_p_neg - log_p_pos)


def make_negative(story, rng):
    """Same story, sentences in a uniformly drawn non-identity order.

    Rejection-sampled; after 100 identity draws in a row it falls back to
    deterministically swapping the first two sentences."""
    count = len(story.sentences)
    if count != SENTENCES_PER_STORY:
        raise ContractError(
            f"make_negative: story must have {SENTENCES_PER_STORY} sentences, got {count}"
        )
    identity = list(range(count))
    order = identity
    for _ in range(100):
        order = rng.permutation(count)
        if order != identity:
            break
    if order == identity:
        order = [1, 0] + identity[2:]
    return Story(
        sentences=[list(story.sentences[i]) for i in order],
        texts=[story.texts[i] for i in order] if story.texts is not None else None,
    )


def combined_loss(params, features, stories, negatives, cfg):
    """(total, generation part, ranking part), each (A,), over (A, n, k)
    album rows with one story per row. `negatives` may be None when
    rank_weight is 0, in which case the op sequence is exactly the
    generation loss. Otherwise one encoding and conditioning of the albums
    serve one decoder pass over the pair (stories, negatives), whose (2, A)
    total splits into log p(S) and log p(S')."""
    if cfg.rank_weight == 0.0:
        gen = neg(variant_log_prob(params, features, stories, cfg.variant))
        return gen, gen, None
    if negatives is None:
        raise ContractError("combined_loss: rank_weight > 0 needs negative stories")
    both = variant_log_prob(params, features, (stories, negatives), cfg.variant)
    log_p_pos, log_p_neg = row(both, 0), row(both, 1)
    gen = neg(log_p_pos)
    rank = ranking_loss(log_p_pos, log_p_neg, cfg.margin)
    return gen + cfg.rank_weight * rank, gen, rank


def batch_loss(params, pairs, negatives, cfg):
    """One batch's loss with its examples as rows: each photo-count group of
    the (album, story) pairs is one `combined_loss` over (A, n, k) features,
    with the pairs' negatives (None when unranked). Returns the sum of every
    row's loss and each pair's (total, generation, ranking) floats."""
    root, parts = None, {}
    for rows, features in group_by_photo_count(params, [album.features for album, _ in pairs]):
        total, gen, rank = combined_loss(
            params, features, [pairs[i][1] for i in rows],
            None if negatives is None else [negatives[i] for i in rows], cfg,
        )
        root = sum_all(total) if root is None else root + sum_all(total)
        rank = np.zeros(len(rows)) if rank is None else rank.data
        parts.update(zip(rows, zip(total.data.tolist(), gen.data.tolist(), rank.tolist())))
    return root, [parts[i] for i in range(len(pairs))]


# ---------------------------------------------------------------------------
# optimizer


# Elements per pass of the Adam update, the length of its two scratch arrays:
# the fastest of 2^12 to 2^17 on a 440,000-weight model, one BLAS thread.
ADAM_CHUNK = 1 << 15


class AdamState:
    """Adam over the (name, tensor) pairs `named`, whose weights the store
    views `weights` hold side by side, in order. Each tensor's `grad_buffer`
    becomes its view of the flat `grads`, which the moments follow; each
    chunk holds aligned views of at most ADAM_CHUNK weights, of their
    (gradients, m, v) and of two scratch arrays."""

    def __init__(self, named, weights):
        self.named, self.step = named, 0
        gmv = np.zeros((3, sum(w.size for w in weights)))
        self.grads = gmv[0]
        views = flat_views(self.grads, [(name, t.shape) for name, t in named])
        for name, t in named:  # gradients from before training are dropped
            t.grad, t.grad_buffer = None, views[name]
        scratch, self.chunks, pos = np.empty((2, min(gmv.shape[1], ADAM_CHUNK))), [], 0
        for w in weights:
            for lo in range(0, w.size, ADAM_CHUNK):
                part = w[lo:lo + ADAM_CHUNK]
                self.chunks.append((part, gmv[:, pos + lo:pos + lo + part.size],
                                    scratch[:, :part.size]))
            pos += w.size


def adam_step(state, cfg):
    """One bias-corrected Adam update, in place on the weights, moments and
    gradients, chunk by chunk, in the elementwise order of

        m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        w -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)

    Every tensor must carry a gradient; the step takes them all, so the next
    gradient to reach a tensor starts its buffer anew."""
    for name, t in state.named:
        if t.grad is None:
            raise ContractError(f"adam_step: missing gradient for {name}")
        t.grad = None
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = 1.0 - b1**state.step, 1.0 - b2**state.step
    for w, (g, m, v), (a, b) in state.chunks:
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=a), g, out=a)
        np.multiply(np.divide(m, c1, out=a), cfg.learning_rate, out=a)
        np.add(np.sqrt(np.divide(v, c2, out=b), out=b), cfg.epsilon, out=b)
        w -= np.divide(a, b, out=a)


def clip_gradients(grads, max_norm):
    """Scale the flat gradients `grads` so that their global L2 norm, one dot
    product over them, is at most max_norm; returns the norm before."""
    if max_norm <= 0:
        raise ContractError("clip_gradients: max_norm must be positive")
    norm = math.sqrt(grads @ grads)
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# training loop


@np.errstate(all="ignore")
def train(params, albums, cfg, log=None, early_stop=None):
    """Train in place; returns the per-epoch loss curve.

    Album/story pairs are shuffled each epoch with the config seed. A
    batch's negatives are drawn in example order, then the whole batch is
    one forward pass on one tape, its examples as rows (`batch_loss`), and
    one backward from the sum of their losses gives the batch's gradients,
    in one flat array (`AdamState`); they are averaged by one multiply, and
    one Adam step fires per batch. The whole run is
    bitwise reproducible for a fixed config. `early_stop`, if given,
    receives each finished epoch's curve row and halts training by
    returning True. A non-finite loss or final weight raises
    NumericDomainError, which reports what numpy's silenced warnings would."""
    examples = []
    for album in albums:
        for story in album.stories:
            validate_story(story, album.album_id)
            examples.append((album, story))
    if not examples:
        raise ContractError("train: dataset has no stories")
    state = AdamState(params.trainable(cfg.variant), params.store_runs(cfg.variant))
    rng = Rng(cfg.seed)
    curve = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(examples))
        sums = {"total": 0.0, "gen": 0.0, "rank": 0.0}
        for start in range(0, len(order), cfg.batch_size):
            pairs = [examples[ex] for ex in order[start : start + cfg.batch_size]]
            negatives = [make_negative(s, rng) for _, s in pairs] if cfg.rank_weight > 0 else None
            with Tape() as tape:
                root, parts = batch_loss(params, pairs, negatives, cfg)
                for (album, _), (value, gen, rank) in zip(pairs, parts):
                    if not math.isfinite(value):
                        raise NumericDomainError(
                            f"train: non-finite loss on album {album.album_id}"
                        )
                    sums["total"] += value
                    sums["gen"] += gen
                    sums["rank"] += rank
                backward(tape, root)
            state.grads *= 1.0 / len(pairs)
            if cfg.grad_clip > 0:
                clip_gradients(state.grads, cfg.grad_clip)
            adam_step(state, cfg)
        count = len(examples)
        curve.append(
            {
                "epoch": epoch,
                "mean_loss": sums["total"] / count,
                "mean_gen_loss": sums["gen"] / count,
                "mean_rank_loss": sums["rank"] / count,
            }
        )
        if log is not None and (epoch % 25 == 0 or epoch == cfg.epochs - 1):
            log(
                f"epoch {epoch}: loss={curve[-1]['mean_loss']:.4f} "
                f"gen={curve[-1]['mean_gen_loss']:.4f} rank={curve[-1]['mean_rank_loss']:.4f}"
            )
        if early_stop is not None and early_stop(curve[-1]):
            break
    for _, t in state.named:
        t.grad_buffer = None
    if not all(np.isfinite(w).all() for w, _, _ in state.chunks):
        raise NumericDomainError("train: non-finite weights after the last step")
    return curve


def write_loss_curve(curve, path):
    lines = ["epoch,mean_loss,mean_gen_loss,mean_rank_loss"]
    for rowd in curve:
        lines.append(
            f"{rowd['epoch']},{rowd['mean_loss']!r},{rowd['mean_gen_loss']!r},"
            f"{rowd['mean_rank_loss']!r}"
        )
    write_atomically(path, ["\n".join(lines), "\n"])
