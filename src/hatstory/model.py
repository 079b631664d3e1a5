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
import itertools
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from .data import BOS_ID, EOS_ID, Story
from .errors import ConfigurationError, ContractError, DimensionError, check_int
from .layers import GATES, GruParams, MlpParams, gate_shapes
from .tensor import (
    Tensor,
    attention,
    concat,
    gru_sequence,
    gru_step_array,
    log_softmax_array,
    matmul,
    relu,
    reshape,
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
    """Every trainable tensor of the full model plus the baseline heads, side
    by side in one flat float64 `store` in `named_tensors` order. The album
    encoder's two directions are the two cells of one GRU layer, `enc`."""

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
    store: np.ndarray = field(default=None, repr=False)

    def named_tensors(self):
        """Every Tensor in the store's order: the GRU layers' blocks first."""
        layers = [("enc", self.enc_fwd), ("sel_gru", self.sel_gru), ("gen_gru", self.gen_gru)]
        return ([(f"{prefix}.{n}", t) for prefix, cell in layers for n, t in cell.named()]
                + self._others())

    def _others(self):
        return ([(f"sel_mlp.{n}", t) for n, t in self.sel_mlp.named()]
                + [("embedding.table", self.embedding), ("proj.w", self.proj_w),
                   ("proj.b", self.proj_b), ("encdec.w", self.encdec_w), ("encdec.b", self.encdec_b)]
                + [(f"attn_mlp.{n}", t) for n, t in self.attn_mlp.named()])

    def _grus(self):
        return [("enc_fwd", self.enc_fwd), ("enc_bwd", self.enc_bwd), ("sel_gru", self.sel_gru),
                ("gen_gru", self.gen_gru)]

    def manifest(self):
        """(name, view) of every weight in the checkpoint's order: each GRU's
        nine gates (`GruParams.gates`), then the other tensors."""
        return ([(f"{name}.{gate}", view) for name, cell in self._grus()
                 for gate, view in cell.gates().items()]
                + [(name, t.data) for name, t in self._others()])

    @staticmethod
    def layout(dims):
        """Every weight's name and shape in `manifest` order, from the dims
        alone: the model is built of shape-only stand-ins, so nothing is allocated."""
        model = _assemble(dims, _stand_in)
        return ([(f"{name}.{gate}", shape) for name, cell in model._grus() for gate, shape
                 in zip(GATES, gate_shapes(cell.w.shape[1] - 1, cell.u_h.shape[2]))]
                + [(name, t.shape) for name, t in model._others()])

    def trainable(self, variant):
        """Named tensors that participate in one model variant's loss."""
        names = {
            "hier": ("enc", "sel_gru", "sel_mlp", "gen_gru", "embedding", "proj"),
            "enc_dec": ("enc", "gen_gru", "embedding", "proj", "encdec"),
            "enc_attn_dec": ("enc", "attn_mlp", "gen_gru", "embedding", "proj"),
        }.get(variant)
        if names is None:
            raise ConfigurationError(f"unknown model variant {variant!r}")
        return [(n, t) for n, t in self.named_tensors() if n.split(".")[0] in names]

    def store_runs(self, variant):
        """Views of the store, one per run of the variant's trainable tensors
        in `named_tensors`, in order: the weights that training updates."""
        names, tensors = dict(self.trainable(variant)), self.named_tensors()
        ends = list(itertools.accumulate((t.size for _, t in tensors), initial=0))
        inside = [False] + [name in names for name, _ in tensors] + [False]
        edges = [ends[i] for i in range(len(tensors) + 1) if inside[i] != inside[i + 1]]
        return [self.store[lo:hi] for lo, hi in zip(edges[::2], edges[1::2])]


def flat_views(flat, layout):
    """{name: view} of the 1-D array `flat`, one view per (name, shape) of
    `layout`, side by side in its order."""
    ends = list(itertools.accumulate((math.prod(shape) for _, shape in layout), initial=0))
    return {name: flat[a:b].reshape(shape) for (name, shape), a, b in zip(layout, ends, ends[1:])}


def physical_memory():
    """Bytes of physical memory: the bound on a model's training state."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _stand_in(_, shape):
    return SimpleNamespace(shape=shape, ndim=len(shape))


def build_model(dims, error, carry_state=True):
    """The model over a new zeroed store, cut by `flat_views`. `error` when
    its W weights, their gradients and Adam's moments (4 W float64s) would
    exceed physical memory, raised before allocating."""
    layout = [(name, t.shape) for name, t in _assemble(dims, _stand_in).named_tensors()]
    count = sum(math.prod(shape) for _, shape in layout)
    if 32 * count > physical_memory():
        raise error(f"model {dims} has {count:,} weights, more than can be allocated "
                    f"({32 * count:,} bytes with their gradients and Adam's moments, "
                    f"{physical_memory():,} bytes of physical memory)")
    store = np.zeros(count)
    views = flat_views(store, layout)
    return _assemble(dims, lambda n, _: Tensor(views[n], requires_grad=True), carry_state, store)


def _assemble(dims, make, carry_state=True, store=None):
    """The model whose tensors `make(name, shape)` gives; the D cells of a
    GRU layer share its three blocks."""
    k = dims.k

    def gru(name, d_in, d_h, cells=1):
        blocks = [make(f"{name}.{b}", (cells,) + shape) for b, shape in
                  (("w", (d_in + 1, 3 * d_h)), ("u_zr", (d_h, 2 * d_h)), ("u_h", (d_h, d_h)))]
        return [GruParams(*blocks, cell) for cell in range(cells)]

    def head(name, d):  # sizes [d, d, 1]
        return MlpParams([(make(f"{name}.0.w", (d, d)), make(f"{name}.0.b", (d,))),
                          (make(f"{name}.1.w", (d, 1)), make(f"{name}.1.b", (1,)))])

    enc_fwd, enc_bwd = gru("enc", k, k // 2, 2)
    return ModelParams(
        dims=dims,
        enc_fwd=enc_fwd,
        enc_bwd=enc_bwd,
        sel_gru=gru("sel_gru", k, dims.d_s)[0],
        sel_mlp=head("sel_mlp", dims.d_s + k),
        gen_gru=gru("gen_gru", dims.d_w + k, dims.d_g)[0],
        embedding=make("embedding.table", (dims.vocab_size, dims.d_w)),
        proj_w=make("proj.w", (dims.d_g, dims.vocab_size)),
        proj_b=make("proj.b", (dims.vocab_size,)),
        encdec_w=make("encdec.w", (k, k)),
        encdec_b=make("encdec.b", (k,)),
        attn_mlp=head("attn_mlp", dims.d_g + k),
        carry_state=carry_state,
        store=store,
    )


def init_model(dims, rng, carry_state=True, enc_init_gain=1.0):
    """Build a model with xavier weights and zero biases; the draw order is
    fixed so one seed always produces the same model: each of `manifest`'s
    weights in turn, but the selector's MLP before the decoder's GRU.

    `enc_init_gain` scales the album-encoder GRU weights after the xavier
    draw. Values below 1 start the encoder near-transparent (photo
    representations close to relu(f_i)), which makes the raw photo signal
    dominate early selection learning; 1.0 leaves the draw untouched. The
    rng consumption is identical for every gain, so models with different
    gains share all other initial weights. A model too large for memory
    (`build_model`) is a ConfigurationError.
    """
    if enc_init_gain <= 0:
        raise ConfigurationError("init_model: enc_init_gain must be positive")
    params = build_model(dims, ConfigurationError, carry_state)
    for name, view in sorted(params.manifest(), key=lambda e: e[0][:4] not in ("enc_", "sel_")):
        if name.split(".")[-1].startswith("b"):  # biases stay zero
            continue
        view[...] = seeded_init(rng, view.shape).data
        if name.split(".")[0] in ("enc_fwd", "enc_bwd"):
            view *= enc_init_gain
    return params


# ---------------------------------------------------------------------------
# album encoding


@dataclass
class AlbumEncoding:
    v: Tensor  # (A, n, k) photo representations
    states: Tensor  # (A, n, k): [f_i; b_i], the forward and backward GRU states at photo i
    n = property(lambda self: self.v.shape[1])  # photos per album

    @functools.cached_property
    def final_state(self):
        """(A, k): both directions' terminal states, [f_{n-1}; b_0]."""
        half = self.states.shape[2] // 2
        return concat([row(row(self.states, self.n - 1, axis=1), slice(None, half), axis=1),
                       row(row(self.states, 0, axis=1), slice(half, None), axis=1)], axis=1)


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
    are the forward and backward GRU states at photo i, one op for both."""
    xs = Tensor(_album_rows(params, features))
    states = gru_sequence(xs, zeros((xs.shape[0], params.dims.k // 2)), params.enc_fwd,
                          params.enc_bwd)
    return AlbumEncoding(v=relu(states + xs), states=states)


# ---------------------------------------------------------------------------
# summary-photo selection


@dataclass
class SelectionResult:
    probs: Tensor  # (A, T, n); each album's step t sums to 1
    summaries: Tensor  # (A, T, k): summary t of album a is probs[a, t] @ V[a]
    indices: list  # the T chosen photo indices of each album row

    @property
    def g(self):
        """The T summaries, each (A, k), as fresh `row` reads of `summaries`."""
        return [row(self.summaries, t, axis=1) for t in range(self.summaries.shape[1])]


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
        picked = concat([row(enc.v, slice(i, i + 1), axis=1) for i in idx], axis=1)
        return SelectionResult(probs=Tensor(one_hot), summaries=picked, indices=[idx] * albums)
    if mode == "hard" and n < t_steps:
        raise ContractError(
            f"select_summary: hard mode needs at least {t_steps} photos, album has {n}"
        )
    g, probs, picks = soft_select(enc.v, params.sel_gru, params.sel_mlp, t_steps, mode == "hard")
    return SelectionResult(probs=Tensor(probs), summaries=g, indices=picks)


# ---------------------------------------------------------------------------
# per-sentence conditioning: the one place the variants differ


def enc_dec_visual(params, enc):
    """The flat baseline's constant per-sentence visual input: one affine
    map of each album row's final encoder state, (A, k)."""
    state = enc.final_state
    return matmul(state, params.encdec_w) + tile_rows(params.encdec_b, state.shape[0])


def conditioner(params, enc, variant, mode="soft", oracle_indices=None):
    """One variant's per-sentence visual input over an album encoding.

    Returns (condition, decided). A condition known before decoding is an
    (A, S, k) Tensor, sentence t reading [:, t], or [:, 0] when S is 1; one
    that reads the decoder is a function from the (A, d_g) states h at a
    sentence start to that sentence's (A, 1, k) Tensor:
      hier         - the T summaries that `select_summary` picks in `mode`;
                     `decided` is that SelectionResult. They are made once,
                     for every story scored against them.
      enc_dec      - one projection of each album's final encoder state,
                     read by every sentence; `decided` is None.
      enc_attn_dec - a function: one `attention` op over the photos from
                     h; `decided` collects each call's (A, n) weights.
    Oracle selection exists only for the full model.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}")
    if variant == "hier":
        sel = select_summary(params, enc, mode, oracle_indices)
        return sel.summaries, sel
    if mode == "oracle":
        raise ConfigurationError("oracle selection only applies to the full model")
    if variant == "enc_dec":
        vis = enc_dec_visual(params, enc)
        return reshape(vis, (vis.shape[0], 1, vis.shape[1])), None
    weights = []

    def attend(h):
        vis, alpha = attention(h, enc.v, params.attn_mlp)
        weights.append(alpha)
        return vis

    return attend, weights


# ---------------------------------------------------------------------------
# word-level decoding


def sentence_condition(condition, t, h):
    """Sentence t's (A, 1, k) visual input from a variant's condition (see
    `conditioner`): [:, t] of a Tensor known before decoding, or [:, 0] when
    S is 1, or a function's read of the decoder states h at the sentence
    start."""
    if callable(condition):
        return condition(h)
    return condition if condition.shape[-2] == 1 else row(condition, slice(t, t + 1), axis=-2)


def story_log_prob(params, condition, story):
    """Teacher-forced log p(story | album) under one variant's conditioner.

    `condition` is the variant's visual input (see `conditioner`): a Tensor
    known before decoding, or a function of the decoder states h at a
    sentence start. `story` is a list of Stories, one per album row, giving
    (A,) log-probs, or a (stories, negatives) pair of such lists, decoded
    in one pass on a leading pair axis and giving (2, A). Each sentence
    starts at BOS and must end at EOS, so none is empty. With a known
    condition and carry_state on, the whole story is one `sentence_log_prob`
    op over the rows (and halves); otherwise each sentence is one, from the
    last one's state unless carry_state is off."""
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
    shared = all(s is stories[0] for s in stories)  # then every row reads one story
    whole = isinstance(condition, Tensor) and params.carry_state  # the story is one op
    total, h = None, zeros(shape)
    for t in range(0, t_steps, t_steps if whole else 1):
        if not params.carry_state:
            h = zeros(shape)
        g = condition if whole else sentence_condition(condition, t, h)
        targets = [s.sentences[t:t_steps if whole else t + 1]
                   for s in stories[:1 if shared else None]]
        words = [[[BOS_ID, *sentence[:-1]] for sentence in story] for story in targets]
        total, h = sentence_log_prob(
            total, h, g, words[0] if shared else words, targets[0] if shared else targets,
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
    w_in, u_zr, u_h = params.gen_gru.sides()
    proj_w, proj_b = params.proj_w.data, params.proj_b.data
    # Rows are kept as (1, d) matrices: numpy then makes each row's products
    # as one vector-matrix product, which rounds exactly as a single
    # hypothesis's would; one (rows, d) matrix product rounds differently.
    h = np.zeros((1, 1, d_g)) if h0 is None else np.reshape(h0, (1, 1, d_g))
    x = np.empty((0, 1, d_w + g.shape[0] + 1))  # the live rows' inputs [table[prev], g, 1]
    prev = [BOS_ID]
    logp = np.zeros((1, 1, 1))
    paths = [()]
    best = None  # (log-prob, tokens, state) of the best finished hypothesis
    for step in range(max_len):
        last = step == max_len - 1
        if len(prev) > len(x):  # room for every row the next step can keep
            x = np.empty((min(beam, len(prev) * vocab),) + x.shape[1:])
            x[..., d_w:-1], x[..., -1] = g, 1.0
        x[:len(prev), 0, :d_w] = table[prev]
        h2 = gru_step_array(x[:len(prev)] @ w_in, h, u_zr, u_h)[2]
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
    h = start = np.zeros(params.dims.d_g)
    sentences = []
    for t in range(params.dims.t_steps):
        if not params.carry_state:
            h = start
        g = sentence_condition(condition, t, Tensor(h[None])).data[0, 0]
        tokens, h = _beam_search(params, g, beam, max_len, h)
        sentences.append(list(tokens))
    return Story(sentences=sentences), decided


def generate_story(params, features, beam, max_len, oracle_indices=None):
    """The full model's story, under hard (or oracle) selection."""
    return generate(params, features, "hier", beam, max_len, oracle_indices)[0]


def enc_attn_dec_generate(params, features, beam, max_len):
    """The attention baseline's story and its (T, n) attention."""
    story, weights = generate(params, features, "enc_attn_dec", beam, max_len)
    return story, np.concatenate(weights)
