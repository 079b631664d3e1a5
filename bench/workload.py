"""One benchmark workload, run in one process as a closed loop with one caller.

A run:

1. sets up several times: builds, writes and loads the training set and the
   held-out set, initialises the model, saves and reloads its checkpoint;
2. trains once with the workload's config, as the ``train`` command does;
3. in rounds, generates a story for every held-out album at beam 1 and at
   beam 3, as ``generate`` does, then scores each of the first held-out
   stories against the first held-out albums, as ``eval-retrieval`` does;
4. selects each training album's summary photos, as ``eval-summ`` does.

The training job is fixed: its data and config use TRAIN_SEED, the seed of
the acceptance tests' fixture, so the final loss, the trained model and the
summary precision are the same in every run and move only when the program
does. The workload seed draws the held-out albums that step 3 uses.

The program is reached only through its public functions, and sees only the
dataset files. Every output is checked; an operation that raises or fails a
check counts as failed. Run ``python3 bench/run.py``, which starts this file
with one BLAS thread, rather than this file directly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import TENSOR_OPS, NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

try:
    import hatstory
except ImportError:
    hatstory = None
else:
    import hatstory.checkpoint
    import hatstory.data
    import hatstory.metrics
    import hatstory.model
    import hatstory.training


class _Api:
    """hatstory's public names, looked up at every use.

    A name is found in whichever package module binds it, so the benchmark
    survives functions moving between modules, and a traced run calls the
    tracer's wrappers."""

    def __getattr__(self, name):
        for mod in (hatstory, hatstory.model, hatstory.training, hatstory.metrics,
                    hatstory.data, hatstory.checkpoint):
            if hasattr(mod, name):
                return getattr(mod, name)
        raise AttributeError(f"hatstory has no public name {name!r}")


api = _Api()

# Seed of the training data and config in every run: the acceptance tests' fixture.
TRAIN_SEED = 7

# Relative tolerance between a retrieval score and a direct likelihood call.
SCORE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # SynthSpec fields except seed
    config: dict  # TrainConfig fields except k and seed
    decode_trained: bool  # False: generate and retrieve on the initial weights
    heldout_albums: int = 200


# Held-out albums in the retrieval pool, one query each, as eval-retrieval scores them.
POOL = 20

# Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5


# The acceptance tests' training config.
_ACCEPTANCE_SPEC = {"albums": 20, "n": 10, "k": 16, "classes": 5}
_ACCEPTANCE_TRAIN = {"learning_rate": 3e-3, "batch_size": 5, "enc_init_gain": 0.5, "epochs": 30}

# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's setting: tiny ops, so per-op dispatch dominates, and each
        # ranked example encodes and selects twice.
        Workload(
            name="acceptance",
            spec=_ACCEPTANCE_SPEC,
            config={"variant": "hier", "rank_weight": 3.0, **_ACCEPTANCE_TRAIN},
            decode_trained=True,
        ),
        # Large matmuls and beams over 145 words; no ranking pass. Decoding on
        # the initial weights runs every sentence to the length cap.
        Workload(
            name="wide",
            spec={"albums": 40, "n": 30, "k": 256, "classes": 200},
            config={"variant": "hier", "rank_weight": 0.0, **_ACCEPTANCE_TRAIN, "epochs": 8},
            decode_trained=False,
            heldout_albums=100,
        ),
        # The attention baseline's own sentence loop over the shared decoder,
        # trained as run_latent_selection_experiment.py --with-baselines does.
        Workload(
            name="attn-baseline",
            spec=_ACCEPTANCE_SPEC,
            config={"variant": "enc_attn_dec", "rank_weight": 0.0, **_ACCEPTANCE_TRAIN},
            decode_trained=True,
        ),
    )
}


def heldout_seed(seed):
    """The held-out set's seed, derived from the workload seed."""
    digest = hashlib.sha256(f"hatstory-bench-heldout-{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


# ---------------------------------------------------------------------------
# failure counting


@dataclass
class Tally:
    """Attempted and failed operations of one phase, with the first few
    reasons for failure."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def __add__(self, other):
        return Tally(self.attempted + other.attempted, self.failed + other.failed,
                     (self.errors + other.errors)[:5])

    @property
    def succeeded(self):
        return self.attempted - self.failed

    def add(self, count, problem=None):
        """Count `count` operations, all failed when `problem` is set."""
        self.attempted += count
        if problem:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(problem)
        return not problem


def timed_call(fn):
    """(result, seconds, error); an exception is caught and returned, since
    a failed operation is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - any failure of the program counts
        return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - t0, None


# ---------------------------------------------------------------------------
# machine speed

# Nominal time of the calibration kernel; times are reported at this speed.
REF_S = 1e-3


def _kernel(w, x0, iters=300):
    """Seconds one pass of a calibration kernel over matrix `w` takes now:
    small numpy calls with Python object churn, as the tape's dispatch makes."""
    t0 = time.perf_counter()
    x, kept, carry = x0, [], w.shape[0] - w.shape[1]
    for i in range(iters):
        h = np.tanh(x @ w)
        kept.append((h, i, {"i": i}))
        x = np.concatenate([h, x[:carry]])
    return time.perf_counter() - t0


class Clock:
    """Times operations at a fixed reference machine speed.

    Shared hosts drift: the same code runs up to 1.7x slower for tens of
    seconds at a time while other tenants load the cores, which swamps any
    change this benchmark should detect. A fixed calibration kernel slows by
    the same factor, to within a few percent. It runs after every measured
    operation, outside the timed span, and each raw time is scaled by REF_S
    over the mean of the kernel times on either side of it. A reported time
    is thus what the operation takes when the kernel takes REF_S. Raw times
    are printed alongside.

    Operations are bracketed by a kernel over decoder-sized (48, 32)
    matrices. Training epochs are bracketed by one shaped like the album
    encoder's GRU weights for feature width k: on wide albums an epoch is
    mostly BLAS work on those matrices, which contention slows by another
    factor than it slows Python dispatch.
    """

    def __init__(self, k):
        rng = np.random.default_rng(0)
        half = max(k // 2, 1)
        self._ops = (rng.normal(size=(48, 32)), rng.normal(size=48))
        self._epochs = (rng.normal(size=(3 * half, half)), rng.normal(size=3 * half))
        self.last = self.kernel()

    def kernel(self):
        """Seconds one pass of the operations' kernel takes now."""
        return _kernel(*self._ops)

    @staticmethod
    def scale(raw, kernel_before, kernel_after):
        return raw * 2.0 * REF_S / (kernel_before + kernel_after)

    def measure(self, fn):
        """(result, raw seconds, reference seconds, error) of one call."""
        before = self.last
        out, raw, error = timed_call(fn)
        self.last = self.kernel()
        return out, raw, self.scale(raw, before, self.last), error

    def train(self, params, albums, cfg):
        """Train once, running the epochs' kernel between epochs through
        train's early_stop hook; returns (curve, [(raw s, reference s) per
        epoch], error)."""
        epochs = []
        before = _kernel(*self._epochs)
        started = time.perf_counter()

        def between_epochs(_row):
            nonlocal before, started
            ended = time.perf_counter()
            after = _kernel(*self._epochs)
            epochs.append((ended - started, self.scale(ended - started, before, after)))
            before, started = after, time.perf_counter()
            return False

        curve, _, error = timed_call(
            lambda: api.train(params, albums, cfg, early_stop=between_epochs)
        )
        self.last = self.kernel()
        return curve, epochs, error


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is correct, else a reason


def check_losses(curve, epochs):
    if len(curve) != epochs:
        return f"{len(curve)} epochs trained, {epochs} configured"
    for row in curve:
        if not math.isfinite(row["mean_loss"]):
            return f"epoch {row['epoch']}: non-finite loss {row['mean_loss']!r}"
    return None


def check_story(story, vocab_size, max_len, sentences=5):
    if len(story.sentences) != sentences:
        return f"{len(story.sentences)} sentences, want {sentences}"
    for i, sent in enumerate(story.sentences):
        if not sent or len(sent) > max_len:
            return f"sentence {i} has {len(sent)} tokens, want 1..{max_len}"
        if any(not (isinstance(t, (int, np.integer)) and 0 <= t < vocab_size) for t in sent):
            return f"sentence {i} has a token id outside the vocabulary of {vocab_size}"
        if api.EOS_ID in sent[:-1]:
            return f"sentence {i} continues after EOS"
        if sent[-1] != api.EOS_ID and len(sent) != max_len:
            return f"sentence {i} stops at {len(sent)} tokens without EOS"
    return None


def check_selection(photo_ids, album, count=5):
    if len(photo_ids) != count or len(set(photo_ids)) != count:
        return f"selection {photo_ids} is not {count} distinct photos"
    if not set(photo_ids) <= set(album.photo_ids):
        return f"selection {photo_ids} names photos outside album {album.album_id}"
    return None


def check_scores(scores, pool_size, true_index, direct):
    """`direct` is the true album's score from one likelihood call."""
    if len(scores) != pool_size:
        return f"{len(scores)} scores for a pool of {pool_size}"
    if not all(isinstance(s, float) and math.isfinite(s) for s in scores):
        return "non-finite retrieval score"
    if abs(scores[true_index] - direct) > SCORE_RTOL * abs(direct):
        return f"true album scored {scores[true_index]!r}, direct call gives {direct!r}"
    return None


# ---------------------------------------------------------------------------
# the workload


@dataclass
class Inputs:
    albums: list
    vocab: object
    heldout: list
    config: object
    params: object  # as init_model returned them; training updates them in place
    initial: object  # the same weights, reloaded from their checkpoint


def set_up(wl, seed, workdir):
    """Build, write and load both datasets, initialise the model, and save
    and reload its checkpoint."""
    workdir.mkdir(parents=True, exist_ok=True)
    spec = api.SynthSpec(seed=TRAIN_SEED, **wl.spec)
    train_path = workdir / "train.jsonl"
    api.save_dataset(api.synth_generate(spec)[0], spec.k, train_path)
    albums, vocab = api.load_dataset(train_path)
    held_spec = api.SynthSpec(**{**wl.spec, "albums": wl.heldout_albums, "seed": heldout_seed(seed)})
    held_path = workdir / "heldout.jsonl"
    api.save_dataset(api.synth_generate(held_spec)[0], held_spec.k, held_path)
    heldout, _ = api.load_dataset(held_path, vocab=vocab)
    cfg = api.TrainConfig(k=spec.k, seed=TRAIN_SEED, **wl.config)
    dims = api.ModelDims(k=cfg.k, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    params = api.init_model(
        dims, api.Rng(cfg.seed), carry_state=cfg.carry_state, enc_init_gain=cfg.enc_init_gain
    )
    ckpt = workdir / "initial.hat"
    api.save_checkpoint(params, vocab, cfg.to_dict(), ckpt)
    initial = api.load_checkpoint(ckpt).params
    return Inputs(albums, vocab, heldout, cfg, params, initial)


def generate(params, variant, features, beam, max_len):
    """One story under the model variant, as `generate` does."""
    if variant == "enc_attn_dec":
        return api.enc_attn_dec_generate(params, features, beam, max_len)[0]
    return api.generate_story(params, features, beam, max_len)


def summarize(params, cfg, album):
    """The album's five summary photo ids, as eval-summ picks them: hard
    selection, or the attention baseline's top 5 aggregated attention."""
    if cfg.variant == "enc_attn_dec":
        _, attention = api.enc_attn_dec_generate(
            params, album.features, cfg.beam_size, cfg.max_sentence_len
        )
        return [album.photo_ids[i] for i in api.attention_aggregate_topk(attention, 5)]
    return api.hard_selection_ids(params, album)


def words(vocab, story):
    return vocab.decode([t for s in story.sentences for t in s]).split()


@dataclass
class Run:
    """Everything one run measured. Times are (raw seconds, reference
    seconds) pairs, one per operation or, for training, per epoch, keyed by
    phase."""

    times: dict
    train_examples: int
    final_loss: float
    tokens: dict  # beam -> tokens generated per held-out album
    precision: float
    cider: float  # of the first round's beam-3 stories, as eval-gen scores them
    bleu3: float
    tallies: dict
    fingerprint: str  # digest of the losses and stories, equal traced or not


def run_workload(wl, seed, workdir, seconds=0.0, rounds=None, setups=SETUP_REPEATS, tracer=None):
    """Run the workload once; see the module docstring for its phases."""
    tracer = tracer or NullTracer()
    clock = Clock(wl.spec["k"])
    tallies = {p: Tally() for p in ("train", "generate", "summarize", "retrieve")}
    times = {p: [] for p in ("setup", "train", "generate.beam1", "generate.beam3", "retrieve")}
    digest = hashlib.sha256()

    for _ in range(setups):
        with tracer.operation("setup"):
            inputs, raw, ref, error = clock.measure(lambda: set_up(wl, seed, workdir))
        if error:
            raise RuntimeError(f"set-up failed: {error}")
        times["setup"].append((raw, ref))
    cfg = inputs.config

    examples = cfg.epochs * sum(len(a.stories) for a in inputs.albums)
    measured_from = time.perf_counter()
    with tracer.operation("train"):
        curve, epoch_times, error = clock.train(inputs.params, inputs.albums, cfg)
    if tallies["train"].add(examples, error or check_losses(curve, cfg.epochs)):
        times["train"] = epoch_times
    final_loss = curve[-1]["mean_loss"] if curve else float("nan")
    digest.update(repr([row["mean_loss"] for row in curve or []]).encode())

    if wl.decode_trained:
        ckpt = workdir / "trained.hat"
        with tracer.operation("checkpoint"):
            api.save_checkpoint(inputs.params, inputs.vocab, cfg.to_dict(), ckpt)
            model = api.load_checkpoint(ckpt).params
    else:
        model = inputs.initial

    # One round generates every held-out album at beam 1, then at beam 3, then
    # runs every retrieval query. The first round always completes; further
    # rounds repeat the same operations until `seconds` have passed since
    # training began, or exactly `rounds` whole rounds when that is given.
    schedule = [("generate", beam, j) for beam in (1, 3) for j in range(len(inputs.heldout))]
    pool = inputs.heldout[:POOL]
    schedule += [("retrieve", None, i) for i in range(len(pool))]
    features = [a.features for a in pool]
    deadline = measured_from + seconds
    tokens, first_stories, hyps, refs = {1: [], 3: []}, {}, [], []
    done = 0
    while (done < rounds * len(schedule)) if rounds is not None else (
        done < len(schedule) or time.perf_counter() < deadline
    ):
        kind, beam, j = schedule[done % len(schedule)]
        first_round = done < len(schedule)
        done += 1
        if kind == "retrieve":
            story = pool[j].stories[0]
            with tracer.operation("retrieve"):
                scores, raw, ref, error = clock.measure(
                    lambda: api.retrieval_scores(model, story, features, cfg.variant)
                )
            if not error:
                with tracer.operation("check"):
                    direct = api.variant_log_prob(model, pool[j].features, story, cfg.variant)
                error = check_scores(scores, len(pool), j, float(direct.data))
            if tallies["retrieve"].add(1, error):
                times["retrieve"].append((raw, ref))
            continue
        album = inputs.heldout[j]
        phase = f"generate.beam{beam}"
        with tracer.operation(phase):
            story, raw, ref, error = clock.measure(
                lambda: generate(model, cfg.variant, album.features, beam, cfg.max_sentence_len)
            )
        error = error or check_story(story, inputs.vocab.size, cfg.max_sentence_len)
        if not error and first_stories.get((beam, j), story.sentences) != story.sentences:
            error = f"album {album.album_id} beam {beam}: story differs from the first round"
        if not tallies["generate"].add(1, error):
            continue
        times[phase].append((raw, ref))
        if not first_round:
            continue
        first_stories[(beam, j)] = story.sentences
        tokens[beam].append(sum(len(s) for s in story.sentences))
        digest.update(repr(story.sentences).encode())
        if beam == 3:
            hyps.append(words(inputs.vocab, story))
            refs.append([words(inputs.vocab, s) for s in album.stories])

    # Summaries of the training albums by the trained model, as eval-summ
    # gives them on the training file: the fixed training job makes the
    # precision exact.
    precisions = []
    for album in inputs.albums:
        with tracer.operation("summarize"):
            picked, _, error = timed_call(lambda: summarize(inputs.params, cfg, album))
        if tallies["summarize"].add(1, error or check_selection(picked, album)):
            precisions.append(api.summary_precision_recall(picked, album.gt_summaries)[0])

    return Run(
        times=times,
        train_examples=examples,
        final_loss=final_loss,
        tokens=tokens,
        precision=_mean(precisions),
        cider=api.cider(hyps, refs) if hyps else float("nan"),
        bleu3=api.bleu_n(hyps, refs, 3) if hyps else float("nan"),
        tallies=tallies,
        fingerprint=digest.hexdigest(),
    )


# ---------------------------------------------------------------------------
# metrics

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train.examples_per_s": ("1/s", "higher"),
    "train.final_loss": ("nats", "lower"),
    "generate.beam1.ms_p50": ("ms", "lower"),
    "generate.beam1.ms_p90": ("ms", "lower"),
    "generate.beam3.ms_p50": ("ms", "lower"),
    "generate.beam3.ms_p90": ("ms", "lower"),
    "retrieve.ms_p50": ("ms", "lower"),
    "summ.precision": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}

# Tensor ops reported one by one; no model code calls log or exp.
REPORTED_OPS = tuple(op for op in TENSOR_OPS if op not in ("log", "exp"))

# Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "tensor.records_per_example": ("count", "lower"),
    **{f"tensor.records_per_example.{op}": ("count", "lower") for op in REPORTED_OPS},
    "tensor.backward.ms_per_example": ("ms", "lower"),
    "tensor.op_calls_per_album.beam1": ("count", "lower"),
    "tensor.op_calls_per_album.beam3": ("count", "lower"),
    "tensor.us_per_op": ("us", "lower"),
    "layers.gru_step.calls_per_example": ("count", "lower"),
    "layers.gru_step.ms_per_example": ("ms", "lower"),
    "layers.gru_step.calls_per_album.beam1": ("count", "lower"),
    "layers.gru_step.calls_per_album.beam3": ("count", "lower"),
    "layers.mlp.ms_per_example": ("ms", "lower"),
    "layers.bi_gru.ms_per_example": ("ms", "lower"),
    "model.encode_album.calls_per_example": ("count", "lower"),
    "model.encode_album.ms_per_example": ("ms", "lower"),
    "model.select_summary.calls_per_example": ("count", "lower"),
    "model.log_prob.ms_per_example": ("ms", "lower"),
    "model.decode_word_step.calls_per_album.beam1": ("count", "lower"),
    "model.decode_word_step.calls_per_album.beam3": ("count", "lower"),
    "model.decode_word_step.ms_per_album.beam1": ("ms", "lower"),
    "model.decode_word_step.ms_per_album.beam3": ("ms", "lower"),
    "model.generate.self_ms_per_album.beam3": ("ms", "lower"),
    "model.tokens_per_album.beam1": ("count", "lower"),
    "model.tokens_per_album.beam3": ("count", "lower"),
    "training.forward.ms_per_example": ("ms", "lower"),
    "training.adam_step.ms_per_batch": ("ms", "lower"),
    "training.make_negative.calls_per_example": ("count", "lower"),
    "metrics.retrieval_scores.ms_per_story": ("ms", "lower"),
    "metrics.variant_log_prob.calls_per_story": ("count", "lower"),
    "data.synth_generate.ms": ("ms", "lower"),
    "data.save_dataset.ms": ("ms", "lower"),
    "data.load_dataset.ms": ("ms", "lower"),
    "checkpoint.save.ms": ("ms", "lower"),
    "checkpoint.load.ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# (metric, phase, percentile) of the latency metrics, in milliseconds
_PERCENTILES = (
    ("generate.beam1.ms_p50", "generate.beam1", 50),
    ("generate.beam1.ms_p90", "generate.beam1", 90),
    ("generate.beam3.ms_p50", "generate.beam3", 50),
    ("generate.beam3.ms_p90", "generate.beam3", 90),
    ("retrieve.ms_p50", "retrieve", 50),
)

# A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def highest_percentile(count):
    """The highest percentile the latency metrics use with at least ten of
    `count` samples beyond it, or None when even the median has fewer."""
    supported = [p for p in (50, 90) if count * (100 - p) / 100 >= MIN_SAMPLES_BEYOND]
    return max(supported, default=None)


def _percentile(values, p):
    """numpy's percentile; nan when every operation of the phase failed."""
    return float(np.percentile(values, p)) if values else float("nan")


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def _per(total, calls):
    """Per-call figure of a traced function; 0 when the program no longer
    has it, so a refactor shows up as absent rather than failing the run."""
    return total / calls if calls else 0.0


def end_to_end(run, peak_rss_mb):
    """({metric: value}, [(name, value, unit)] of raw times reported only,
    [problems that make the values unusable])."""
    attempted = sum(t.attempted for t in run.tallies.values())
    failed = sum(t.failed for t in run.tallies.values())
    times = run.times

    def column(phase, which, scale=1.0):
        return [pair[which] * scale for pair in times[phase]]

    def rate(which):
        """Training examples per second, the median over epochs: each epoch
        does the same work, and the median ignores an epoch the host stalled."""
        per_epoch = run.train_examples / max(len(times["train"]), 1)
        return _percentile([per_epoch / seconds for seconds in column("train", which)], 50)

    metrics = {
        "setup_s": _percentile(column("setup", 1), 50),
        "train.examples_per_s": rate(1),
        "train.final_loss": run.final_loss,
        "summ.precision": run.precision,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    info = [
        ("generate.cider", run.cider, "score"),
        ("generate.bleu_3", run.bleu3, "score"),
        ("raw.setup_s", _percentile(column("setup", 0), 50), "s"),
        ("raw.train.examples_per_s", rate(0), "1/s"),
    ]
    problems = []
    for name, phase, p in _PERCENTILES:
        samples = column(phase, 1, 1e3)
        if p > (highest_percentile(len(samples)) or 0):
            problems.append(f"{name}: {len(samples)} samples cannot support p{p}")
        metrics[name] = _percentile(samples, p)
        info.append((f"raw.{name}", _percentile(column(phase, 0, 1e3), p), "ms"))
    return metrics, info, problems


def raw_seconds(run):
    """Raw time of all of a run's measured operations."""
    return sum(raw for pairs in run.times.values() for raw, _ in pairs)


def per_layer(run, summary, op_counts, overhead_ratio):
    """Per-layer metrics from a traced run's spans."""
    s = summary
    examples = run.train_examples
    albums = {beam: op_counts[f"generate.beam{beam}"] for beam in (1, 3)}
    stories = op_counts["retrieve"]
    setups = op_counts["setup"]
    ops = [f"tensor.{op}" for op in TENSOR_OPS]

    def ms(span, phase):
        return 1e3 * s.seconds_in(span, phase)

    m = {}
    m["tensor.records_per_example"] = sum(s.taped_in(o, "train") for o in ops) / examples
    for op in REPORTED_OPS:
        m[f"tensor.records_per_example.{op}"] = s.taped_in(f"tensor.{op}", "train") / examples
    m["tensor.backward.ms_per_example"] = ms("tensor.backward", "train") / examples
    for beam in (1, 3):
        phase = f"generate.beam{beam}"
        m[f"tensor.op_calls_per_album.beam{beam}"] = (
            sum(s.calls_in(o, phase) for o in ops) / albums[beam]
        )
        m[f"layers.gru_step.calls_per_album.beam{beam}"] = (
            s.calls_in("layers.gru_step", phase) / albums[beam]
        )
        m[f"model.decode_word_step.calls_per_album.beam{beam}"] = (
            s.calls_in("model.decode_word_step", phase) / albums[beam]
        )
        m[f"model.decode_word_step.ms_per_album.beam{beam}"] = (
            ms("model.decode_word_step", phase) / albums[beam]
        )
        m[f"model.tokens_per_album.beam{beam}"] = _mean(run.tokens[beam])
    m["tensor.us_per_op"] = 1e6 * _per(
        sum(s.self_seconds_in(o, "train") for o in ops), sum(s.calls_in(o, "train") for o in ops)
    )
    m["layers.gru_step.calls_per_example"] = s.calls_in("layers.gru_step", "train") / examples
    for span in ("layers.gru_step", "layers.mlp", "layers.bi_gru", "model.encode_album"):
        m[f"{span}.ms_per_example"] = ms(span, "train") / examples
    for span in ("model.encode_album", "model.select_summary", "training.make_negative"):
        m[f"{span}.calls_per_example"] = s.calls_in(span, "train") / examples
    # The variant's teacher-forced story likelihood: one of the two runs.
    m["model.log_prob.ms_per_example"] = (
        ms("model.story_log_prob", "train") + ms("model.enc_attn_dec_log_prob", "train")
    ) / examples
    m["model.generate.self_ms_per_album.beam3"] = 1e3 * (
        s.self_seconds_in("model.generate_story", "generate.beam3")
        + s.self_seconds_in("model.enc_attn_dec_generate", "generate.beam3")
    ) / albums[3]
    m["training.forward.ms_per_example"] = ms("training.combined_loss", "train") / examples
    m["training.adam_step.ms_per_batch"] = _per(
        ms("training.adam_step", "train"), s.calls_in("training.adam_step", "train")
    )
    m["metrics.retrieval_scores.ms_per_story"] = ms("metrics.retrieval_scores", "retrieve") / stories
    m["metrics.variant_log_prob.calls_per_story"] = (
        s.calls_in("training.variant_log_prob", "retrieve") / stories
    )
    for fn in ("synth_generate", "save_dataset", "load_dataset"):
        m[f"data.{fn}.ms"] = ms(f"data.{fn}", "setup") / setups
    for fn in ("save", "load"):
        m[f"checkpoint.{fn}.ms"] = ms(f"checkpoint.{fn}_checkpoint", "setup") / setups
    m["trace.overhead_ratio"] = overhead_ratio
    return m


# ---------------------------------------------------------------------------
# the process

WORK = ROOT / "bench" / ".work"

# Set by run.py in the environment of each workload process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def source_problem():
    """Why the program under test cannot be used, or None."""
    if hatstory is None:
        return f"cannot import hatstory; expected its source under {SRC}"
    found = Path(hatstory.__file__).resolve().parent
    if found != (SRC / "hatstory").resolve():
        return f"imported hatstory from {found}, not from {SRC / 'hatstory'}"
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


def report(workload, metrics, units, tallies, problems, info=()):
    """Print the human-readable table and return the result object. `info`
    holds (name, value, unit) figures printed but not part of the result."""
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    for name, tally in tallies.items():
        ratio = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"{workload} ops.{name}: attempted={tally.attempted} "
              f"succeeded={tally.succeeded} failed={tally.failed} failed_ratio={ratio}")
        for error in tally.errors:
            print(f"{workload} ops.{name} failure: {error}")
    print(f"{workload} failed_ratio: {failed / attempted if attempted else 0.0} ratio")
    for name, value in metrics.items():
        print(f"{workload} {name}: {value} {units[name][0]}")
    for name, value, unit in info:
        print(f"{workload} {name}: {value} {unit} (reported only)")
    problems = problems + [f"{n} is not a finite number" for n, v in metrics.items()
                           if not _finite(v)]
    for problem in problems:
        print(f"{workload} problem: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if _finite(value) else None, "unit": units[name][0]}
            for name, value in metrics.items()
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    problem = source_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    try:
        if not args.trace:
            run = run_workload(wl, args.seed, work, seconds=args.seconds)
            metrics, info, problems = end_to_end(run, peak_rss_mb())
            result = report(wl.name, metrics, END_TO_END, run.tallies, problems, info)
        else:
            # Untraced, then traced, each with one set-up and one whole round
            # whatever --seconds says: the two passes run the same operations,
            # and every count repeats exactly from run to run.
            run = run_workload(wl, args.seed, work, rounds=1, setups=1)
            tracer = Tracer()
            with tracer:
                traced = run_workload(wl, args.seed, work, rounds=1, setups=1, tracer=tracer)
            trace_path = WORK / f"trace-{wl.name}.npz"
            tracer.save(trace_path)
            print(f"{wl.name} trace: {len(tracer.phases)} operations written to {trace_path}")
            if tracer.absent:
                print(f"{wl.name} trace: absent from the program: {', '.join(tracer.absent)}")
            counts = Counter(tracer.phases)
            overhead = raw_seconds(traced) / raw_seconds(run)
            metrics = per_layer(traced, tracer.summary(), counts, overhead)
            problems = []
            if traced.fingerprint != run.fingerprint:
                problems.append("traced losses or stories differ from the untraced run's")
            tallies = {k: run.tallies[k] + traced.tallies[k] for k in run.tallies}
            result = report(wl.name, metrics, PER_LAYER, tallies, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
