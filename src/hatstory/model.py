"""The album storyteller with latent photo selection, plus two flat baselines.

Pipeline: a bidirectional GRU turns an album's photo features into
contextualized representations v_i = relu(bi_gru_i + f_i); a pointer-style
selector GRU walks 5 steps, scoring every photo with a sigmoid MLP and
renormalizing to a distribution p_t; the story decoder GRU consumes the
attended photo summary g_t = p_t V together with the previous word and
emits one sentence per step, its hidden state carried across sentences.

Selection modes:
  soft   - no masking; used for training and for likelihood scoring.
  hard   - photos already taken are forced to weight 0 and the rows are
           renormalized over the rest; used at generation/evaluation time.
  oracle - probability rows are one-hot at caller-provided indices.

Every model function takes album rows (A, n, k); one album's (n, k) features
become one row only at `generate`, its wrappers and `variant_log_prob`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from types import SimpleNamespace

import numpy as np

from .data import BOS_ID, EOS_ID, Story
from .errors import ConfigurationError, ContractError, DimensionError, HatstoryError, check_int
from .layers import GruParams, MlpParams
from .tensor import (
    Tensor,
    attention,
    concat,
    gru_sequence,
    gru_stack,
    gru_step_array,
    log_softmax_array,
    matmul,
    relu,
    row,
    seeded_init,
    sentence_log_prob,
    soft_select,
    tile_rows,
    zeros,
)

SELECTION_MODES = ("soft", "hard", "oracle")
VARIANTS = ("hier", "enc_dec", "enc_attn_dec")


def from_json_object(cls, raw, where, error):
    """`cls(**raw)` for a parsed JSON object keyed by `cls`'s fields. A
    non-object, an unknown or missing key and the dataclass's own
    ConfigurationError all raise `error`, prefixed by `where`."""
    if not isinstance(raw, dict):
        raise error(f"{where} must be a JSON object")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    for problem, keys in (("unknown", set(raw) - {f.name for f in fields(cls)}),
                          ("missing", required - set(raw))):
        if keys:
            raise error(f"{where}: {problem} keys {sorted(keys)}")
    try:
        return cls(**raw)
    except ConfigurationError as e:
        raise error(f"{where}: {e}") from None


@dataclass
class ModelDims:
    k: int  # photo feature width; the album encoder preserves it
    d_s: int  # selector GRU state width
    d_g: int  # story decoder state width
    d_w: int  # word embedding width
    vocab_size: int
    t_steps: int = 5  # summary photos per album == sentences per story

    def __post_init__(self):
        for name in ("k", "d_s", "d_g", "d_w", "t_steps"):
            check_int(name, getattr(self, name), 1)
        check_int("vocab_size", self.vocab_size, EOS_ID + 1)  # room for EOS
        if self.k % 2 != 0:
            raise ConfigurationError(
                f"k must be even to split across the two GRU directions, got {self.k}"
            )


@dataclass
class ModelParams:
    """Every trainable tensor of the full model plus the baseline heads."""

    dims: ModelDims
    enc_fwd: GruParams
    enc_bwd: GruParams
    sel_gru: GruParams
    sel_mlp: MlpParams
    gen_gru: GruParams
    embedding: Tensor  # (vocab, d_w) word vectors
    proj_w: Tensor  # (d_g, vocab)
    proj_b: Tensor  # (vocab,)
    encdec_w: Tensor  # (k, k): flat baseline's projection of the final encoder state
    encdec_b: Tensor  # (k,)
    attn_mlp: MlpParams  # attention baseline scorer over [decoder state, v_i]
    carry_state: bool = True  # keep decoder state across sentence boundaries

    def named_tensors(self):
        out = []
        for prefix, grp in (
            ("enc_fwd", self.enc_fwd),
            ("enc_bwd", self.enc_bwd),
            ("sel_gru", self.sel_gru),
            ("gen_gru", self.gen_gru),
        ):
            out.extend((f"{prefix}.{n}", t) for n, t in grp.named())
        out.extend((f"sel_mlp.{n}", t) for n, t in self.sel_mlp.named())
        out.append(("embedding.table", self.embedding))
        out.append(("proj.w", self.proj_w))
        out.append(("proj.b", self.proj_b))
        out.append(("encdec.w", self.encdec_w))
        out.append(("encdec.b", self.encdec_b))
        out.extend((f"attn_mlp.{n}", t) for n, t in self.attn_mlp.named())
        return out

    @staticmethod
    def layout(dims):
        """Every tensor's name and shape in `named_tensors` order, from the dims
        alone: the model is built of shape-only stand-ins, so nothing is allocated."""
        model = build_model(dims, lambda _, shape: SimpleNamespace(shape=shape, ndim=len(shape)))
        return [(name, t.shape) for name, t in model.named_tensors()]

    def trainable(self, variant):
        """Named tensors that participate in one model variant's loss."""
        names = {
            "hier": ("enc_fwd", "enc_bwd", "sel_gru", "sel_mlp", "gen_gru",
                     "embedding", "proj"),
            "enc_dec": ("enc_fwd", "enc_bwd", "gen_gru", "embedding", "proj", "encdec"),
            "enc_attn_dec": ("enc_fwd", "enc_bwd", "attn_mlp", "gen_gru",
                             "embedding", "proj"),
        }.get(variant)
        if names is None:
            raise ConfigurationError(f"unknown model variant {variant!r}")
        return [(n, t) for n, t in self.named_tensors() if n.split(".")[0] in names]


def build_model(dims, make, carry_state=True):
    """The model whose tensors `make(name, shape)` gives, named as in
    `named_tensors` and asked for in one fixed order, the one `init_model`
    draws in."""
    k = dims.k

    def gru(name, d_in, d_h):
        shapes = {"w": (d_in, d_h), "u": (d_h, d_h), "b": (d_h,)}
        return GruParams(**{f"{m}_{x}": make(f"{name}.{m}_{x}", shapes[m])
                            for m in "wub" for x in "zrh"})

    def head(name, d):  # sizes [d, d, 1]
        return MlpParams([(make(f"{name}.0.w", (d, d)), make(f"{name}.0.b", (d,))),
                          (make(f"{name}.1.w", (d, 1)), make(f"{name}.1.b", (1,)))])

    return ModelParams(
        dims=dims,
        enc_fwd=gru("enc_fwd", k, k // 2),
        enc_bwd=gru("enc_bwd", k, k // 2),
        sel_gru=gru("sel_gru", k, dims.d_s),
        sel_mlp=head("sel_mlp", dims.d_s + k),
        gen_gru=gru("gen_gru", dims.d_w + k, dims.d_g),
        embedding=make("embedding.table", (dims.vocab_size, dims.d_w)),
        proj_w=make("proj.w", (dims.d_g, dims.vocab_size)),
        proj_b=make("proj.b", (dims.vocab_size,)),
        encdec_w=make("encdec.w", (k, k)),
        encdec_b=make("encdec.b", (k,)),
        attn_mlp=head("attn_mlp", dims.d_g + k),
        carry_state=carry_state,
    )


def init_model(dims, rng, carry_state=True, enc_init_gain=1.0):
    """Build a model with xavier weights and zero biases; the draw order is
    fixed so one seed always produces the same model.

    `enc_init_gain` scales the album-encoder GRU weights after the xavier
    draw. Values below 1 start the encoder near-transparent (photo
    representations close to relu(f_i)), which makes the raw photo signal
    dominate early selection learning; 1.0 leaves the draw untouched. The
    rng consumption is identical for every gain, so models with different
    gains share all other initial weights. A model too large for numpy to
    allocate is a ConfigurationError naming its dims and weight count.
    """
    if enc_init_gain <= 0:
        raise ConfigurationError("init_model: enc_init_gain must be positive")

    def make(name, shape):
        if name.split(".")[-1].startswith("b"):
            return zeros(shape, requires_grad=True)
        t = seeded_init(rng, shape)
        if name.split(".")[0] in ("enc_fwd", "enc_bwd"):
            t.data *= enc_init_gain
        return t

    try:
        return build_model(dims, make, carry_state)
    except HatstoryError:
        raise
    except (MemoryError, ValueError) as e:  # numpy refused the shape or its bytes
        count = sum(math.prod(shape) for _, shape in ModelParams.layout(dims))
        raise ConfigurationError(f"model {dims} has {count:,} weights, "
                                 f"more than can be allocated ({e})") from None


# ---------------------------------------------------------------------------
# album encoding


@dataclass
class AlbumEncoding:
    v: Tensor  # (A, n, k) photo representations
    fwd: Tensor  # the forward GRU's states, (A, n, k/2)
    bwd: Tensor  # the backward GRU's states, in photo order
    n = property(lambda self: self.v.shape[1])  # photos per album

    @functools.cached_property
    def final_state(self):
        """(A, k): both directions' terminal states, concatenated."""
        return concat([row(self.fwd, self.n - 1, axis=1), row(self.bwd, 0, axis=1)], axis=1)


def _album_rows(params, features):
    """The float64 features of A albums with the same photo count, (A, n, k),
    checked against the model."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or features.shape[2] != params.dims.k:
        raise DimensionError(f"encode_album: features must be (A, n, k={params.dims.k}) rows, "
                             f"got {features.shape}")
    if features.shape[1] < 1:
        raise ContractError("encode_album: album has no photos")
    return features


def album_row(params, features):
    """One album's (n, k) features as one album row (1, n, k), checked
    against the model: how every single-album entry point starts."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.dims.k:
        raise DimensionError(f"album features must be (n, k={params.dims.k}), got {features.shape}")
    return _album_rows(params, features[None])


def group_by_photo_count(params, album_features_list):
    """The albums of a list as row batches: one (indices, (A, n, k)
    features) entry per photo count n, in first-seen order. Every album is
    checked against the model before any is stacked."""
    albums = [album_row(params, f) for f in album_features_list]
    groups = {}
    for i, features in enumerate(albums):
        groups.setdefault(features.shape[1], []).append(i)
    return [(rows, np.concatenate([albums[i] for i in rows])) for rows in groups.values()]


def encode_album(params, features):
    """v_i = relu([f_i; b_i] + x_i) over (A, n, k) album rows: f_i and b_i
    are the forward and backward GRU states at photo i, one op each."""
    xs = Tensor(_album_rows(params, features))
    start = zeros((xs.shape[0], params.dims.k // 2))
    fwd = gru_sequence(xs, start, params.enc_fwd)
    bwd = gru_sequence(xs, start, params.enc_bwd, reverse=True)
    return AlbumEncoding(v=relu(concat([fwd, bwd], axis=-1) + xs), fwd=fwd, bwd=bwd)


# ---------------------------------------------------------------------------
# summary-photo selection


@dataclass
class SelectionResult:
    probs: Tensor  # (A, T, n); each album's step t sums to 1
    g: list  # T summaries, each (A, k): summary t of album a is probs[a, t] @ V[a]
    indices: list  # the T chosen photo indices of each album row


def select_summary(params, enc, mode, oracle_indices=None):
    """Run T selection steps over the album rows in one of the three modes.

    Soft and hard mode are one `soft_select` op: the first step attends
    from the mean photo representation and afterwards the attended summary
    g_t feeds the next step. Its picks, greedily distinct, are the indices;
    in hard mode the photos picked before a step also get probability 0 in
    it. Oracle mode reads the given photos of every row.
    """
    if mode not in SELECTION_MODES:
        raise ContractError(f"select_summary: unknown mode {mode!r}")
    t_steps = params.dims.t_steps
    albums, n = enc.v.shape[:2]
    if mode == "oracle":
        idx = list(oracle_indices or [])
        if len(idx) != t_steps or len(set(idx)) != t_steps:
            raise ContractError(
                f"select_summary: oracle needs {t_steps} distinct indices, got {idx}"
            )
        if any(not 0 <= i < n for i in idx):
            raise ContractError(f"select_summary: oracle index out of range for n={n}")
        one_hot = np.zeros((albums, t_steps, n))
        one_hot[:, np.arange(t_steps), idx] = 1.0
        return SelectionResult(probs=Tensor(one_hot), g=[row(enc.v, i, axis=1) for i in idx],
                               indices=[idx] * albums)
    if mode == "hard" and n < t_steps:
        raise ContractError(
            f"select_summary: hard mode needs at least {t_steps} photos, album has {n}"
        )
    g, probs, picks = soft_select(enc.v, params.sel_gru, params.sel_mlp, t_steps, mode == "hard")
    return SelectionResult(probs=Tensor(probs), g=[row(g, t, axis=1) for t in range(t_steps)],
                           indices=picks)


# ---------------------------------------------------------------------------
# per-sentence conditioning: the one place the variants differ


def enc_dec_visual(params, enc):
    """The flat baseline's constant per-sentence visual input: one affine
    map of each album row's final encoder state, (A, k)."""
    state = enc.final_state
    return matmul(state, params.encdec_w) + tile_rows(params.encdec_b, state.shape[0])


def conditioner(params, enc, variant, mode="soft", oracle_indices=None):
    """One variant's per-sentence visual input over an album encoding.

    Returns (condition, decided). `condition(t, h)` gives sentence t's
    (A, k) Tensor from the (A, d_g) decoder states h at the sentence start:
      hier         - summary t that `select_summary` picks in `mode`;
                     `decided` is that SelectionResult. The T summaries
                     are made once, for every story scored against them.
      enc_dec      - one projection of each album's final encoder state,
                     the same for every sentence; `decided` is None.
      enc_attn_dec - one `attention` op over the photos from h; `decided`
                     collects each call's (A, n) weights.
    Oracle selection exists only for the full model.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if variant == "hier":
        sel = select_summary(params, enc, mode, oracle_indices)
        return (lambda t, h: sel.g[t]), sel
    if mode == "oracle":
        raise ConfigurationError("oracle selection only applies to the full model")
    if variant == "enc_dec":
        vis = enc_dec_visual(params, enc)
        return (lambda t, h: vis), None
    weights = []

    def attend(t, h):
        vis, alpha = attention(h, enc.v, params.attn_mlp)
        weights.append(alpha)
        return vis

    return attend, weights


# ---------------------------------------------------------------------------
# word-level decoding


def story_log_prob(params, condition, story):
    """Teacher-forced log p(story | album) under one variant's conditioner.

    `condition(t, h)` gives sentence t's visual input from the decoder
    states h at the sentence start (see `conditioner`). `story` is a list
    of Stories, one per album row, giving (A,) log-probs, or a (stories,
    negatives) pair of such lists, decoded in one pass on a leading pair
    axis and giving (2, A). Each sentence starts at BOS and must end at EOS,
    so none is empty; it is one `sentence_log_prob` op over the rows (and
    halves), and hands its state on unless carry_state is off."""
    paired = isinstance(story, tuple)
    stories = [*story[0], *story[1]] if paired else story
    t_steps = params.dims.t_steps
    counts = {len(s.sentences) for s in stories} - {t_steps}
    if counts:
        raise ContractError(f"story has {counts.pop()} sentences, model expects {t_steps}")
    empty = next(((i, t) for i, s in enumerate(stories) for t, sentence in enumerate(s.sentences)
                  if not sentence), None)
    if empty:
        raise ContractError("story_log_prob: story {} has an empty sentence {}".format(*empty))
    shape = ((2, len(story[0])) if paired else (len(stories),)) + (params.dims.d_g,)
    shared = all(s is stories[0] for s in stories)  # then every row reads one sentence
    total, h = None, zeros(shape)
    for t in range(t_steps):
        if not params.carry_state:
            h = zeros(shape)
        targets = [s.sentences[t] for s in stories[:1 if shared else None]]
        words = [[BOS_ID, *sentence[:-1]] for sentence in targets]
        total, h = sentence_log_prob(
            total, h, condition(t, h), words[0] if shared else words,
            targets[0] if shared else targets,
            params.embedding, params.gen_gru, params.proj_w, params.proj_b,
        )
    return total


def variant_log_prob(params, features, story, variant="hier"):
    """Teacher-forced log-probability of `story`, as `story_log_prob` takes
    it, under one model variant, from one encoding and conditioning of the
    (A, n, k) album rows; the full model selects softly, as in training and
    retrieval. Given one Story, `features` is one (n, k) album, scored as
    one row, and the log-probability is 0-d."""
    if isinstance(story, Story):
        return row(variant_log_prob(params, album_row(params, features), [story], variant), 0)
    condition, _ = conditioner(params, encode_album(params, features), variant)
    return story_log_prob(params, condition, story)


# ---------------------------------------------------------------------------
# beam search and story generation


def _top_k(scores, k):
    """The indices of the k largest flat scores, best first, ties to the
    lower index, and their values: the first k of a stable argsort of
    -scores. Each is an argmax over the scores not yet taken; the sort stays
    for k >= scores.size and when a pick is not finite (argmax takes a NaN
    first, and an -inf ties the -inf that masks a taken score)."""
    if k < scores.size:
        rest, picked, values = scores.copy(), [], []
        for _ in range(k):
            picked.append(int(rest.argmax()))
            values.append(float(rest[picked[-1]]))
            rest[picked[-1]] = -np.inf
        if all(map(math.isfinite, values)):
            return picked, values
    order = (-scores).argsort(kind="stable")[:k]
    return order.tolist(), scores[order].tolist()


def _beam_search(params, g, beam, max_len, h0=None):
    """Length-capped beam search for one sentence, without the tape.

    g is the sentence's (k,) conditioning array and h0 the (d_g,) decoder
    state it starts from (zeros when None). The live hypotheses are rows:
    each step runs one GRU update and one output projection over all of
    them, adds each row's log-prob to its (V,) word log-probs, and keeps
    the best `beam` of the rows x V extensions (`_top_k`). Ties go to the
    earliest creation: an earlier step, then a lower live row, then a lower
    token id. Within a step that is the order of the flat index row * V +
    token, which `_top_k` keeps. A survivor ending in EOS is finished, and at
    the length cap every survivor is. Returns (tokens, state) of the best
    finished hypothesis under the same order. No length normalization.
    """
    if beam < 1:
        raise ContractError("beam search: beam must be >= 1")
    if max_len < 1:
        raise ContractError("beam search: max_len must be >= 1")
    d_g, vocab = params.dims.d_g, params.dims.vocab_size
    table = params.embedding.data
    d_w = table.shape[1]
    gen = [t.data for _, t in params.gen_gru.named()]
    w_in, cell = np.stack(gen[:3])[:, None], gru_stack(*gen[3:], 3)  # one input product a step
    proj_w, proj_b = params.proj_w.data, params.proj_b.data
    # Rows are kept as (1, d) matrices: numpy then makes each row's products
    # as one vector-matrix product, which rounds exactly as a single
    # hypothesis's would; one (rows, d) matrix product rounds differently.
    h = np.zeros((1, 1, d_g)) if h0 is None else np.reshape(h0, (1, 1, d_g))
    x = np.empty((0, 1, d_w + g.shape[0]))  # the live rows' inputs [table[prev], g]
    prev = [BOS_ID]
    logp = np.zeros((1, 1, 1))
    paths = [()]
    best = None  # (log-prob, tokens, state) of the best finished hypothesis
    for step in range(max_len):
        last = step == max_len - 1
        if len(prev) > len(x):  # room for every row the next step can keep
            x = np.empty((min(beam, len(prev) * vocab),) + x.shape[1:])
            x[..., d_w:] = g
        x[:len(prev), 0, :d_w] = table[prev]
        h2 = gru_step_array(x[:len(prev)] @ w_in, h, cell)[2]
        scores = (logp + log_softmax_array(h2 @ proj_w + proj_b)).ravel()
        rows, prev, live_logp = [], [], []
        for flat, lp in zip(*_top_k(scores, beam)):
            r, tok = divmod(flat, vocab)
            if tok != EOS_ID and not last:
                rows.append(r)
                prev.append(tok)
                live_logp.append(lp)
            elif best is None or lp > best[0]:  # an earlier finish wins a tie
                best = (lp, paths[r] + (tok,), h2[r, 0])
        if not rows:
            break
        paths = [paths[r] + (tok,) for r, tok in zip(rows, prev)]
        h = h2[rows]
        logp = np.array(live_logp).reshape(-1, 1, 1)
    return best[1], best[2]


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
    return list(_beam_search(params, g, beam, max_len, h0)[0])


def generate(params, features, variant, beam, max_len, oracle_indices=None):
    """Encode one (n, k) album as one row and beam-decode one sentence per
    summary step from the variant's conditioner; the winner's final state
    starts the next sentence unless carry_state is off. The full model
    selects in hard mode, or in oracle mode when indices are given (a
    ConfigurationError for the baselines). Returns (story, decided),
    `decided` as `conditioner` gives it for that one row."""
    enc = encode_album(params, album_row(params, features))
    mode = "hard" if oracle_indices is None else "oracle"
    condition, decided = conditioner(params, enc, variant, mode, oracle_indices)
    start = np.zeros(params.dims.d_g)
    h = start
    sentences = []
    for t in range(params.dims.t_steps):
        if not params.carry_state:
            h = start
        tokens, h = _beam_search(params, condition(t, Tensor(h[None])).data[0], beam, max_len, h)
        sentences.append(list(tokens))
    return Story(sentences=sentences), decided


def generate_story(params, features, beam, max_len, oracle_indices=None):
    """The full model's story, under hard (or oracle) selection."""
    return generate(params, features, "hier", beam, max_len, oracle_indices)[0]


def enc_attn_dec_generate(params, features, beam, max_len):
    """The attention baseline's story and its (T, n) attention."""
    story, weights = generate(params, features, "enc_attn_dec", beam, max_len)
    return story, np.concatenate(weights)
