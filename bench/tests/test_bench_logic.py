"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hatstory  # noqa: E402
import hatstory.layers  # noqa: E402
import hatstory.model  # noqa: E402
import spans  # noqa: E402
import workload as W  # noqa: E402
from hatstory.tensor import Rng, Tape, backward  # noqa: E402
from hatstory.training import combined_loss, make_negative  # noqa: E402

TINY = W.Workload(
    name="tiny",
    spec={"albums": 4, "n": 6, "k": 8, "classes": 3},
    config={"variant": "hier", "rank_weight": 1.0, "epochs": 2, "batch_size": 2},
    decode_trained=True,
    heldout_albums=3,
)


# -- percentiles ---------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(9, None), (19, None), (20, 50), (99, 50), (100, 90), (10000, 90)],
)
def test_highest_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert W.highest_percentile(count) == expected


def test_end_to_end_flags_a_percentile_the_samples_cannot_support():
    ms = (1e-3, 1e-3)
    run = W.Run(
        times={"setup": [(1.0, 1.0)], "train": [(1.0, 1.0)], "generate.beam1": [ms] * 100,
               "generate.beam3": [ms] * 99, "retrieve": [ms] * 20},
        train_examples=1, final_loss=1.0, tokens={1: [], 3: []}, precision=1.0, cider=1.0, bleu3=1.0,
        tallies={"train": W.Tally()}, fingerprint="",
    )
    run.tallies["train"].add(1)
    metrics, _, problems = W.end_to_end(run, 1.0)
    assert problems == ["generate.beam3.ms_p90: 99 samples cannot support p90"]
    assert metrics["retrieve.ms_p50"] == 1.0
    assert set(metrics) == set(W.END_TO_END)


def test_clock_scales_raw_times_to_the_reference_kernel_speed():
    class FakeClock(W.Clock):
        kernels = iter([0.002, 0.004])

        def kernel(self):
            return next(self.kernels)

    out, raw, ref, error = FakeClock(16).measure(lambda: 42)
    assert (out, error) == (42, None)
    assert ref == pytest.approx(raw * W.REF_S / 0.003)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    #  0 [0, 10]
    #  ├── 1 [1, 4]
    #  │   └── 3 [2, 3]
    #  └── 2 [5, 6]
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    assert spans.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_summary_groups_spans_by_name_and_phase():
    summary = spans.SpanSummary(
        names=["a", "b"], phases=["p", "q"],
        name=np.array([0, 1, 1, 0], dtype=np.int32),
        parent=np.array([-1, 0, -1, -1], dtype=np.int32),
        op=np.array([0, 0, 1, -1], dtype=np.int32),
        start=np.array([0.0, 1.0, 0.0, 0.0]),
        end=np.array([4.0, 2.0, 3.0, 1.0]),
        taped=np.array([1, 0, 1, 1], dtype=np.int8),
    )
    assert summary.calls_in("a", "p") == 1
    assert summary.seconds_in("a", "p") == 4.0
    assert summary.self_seconds_in("a", "p") == 3.0
    assert summary.calls_in("b", "q") == 1
    assert summary.taped_in("b", "p") == 0
    assert summary.calls_in("a", "<none>") == 1
    assert summary.calls_in("a", "unknown phase") == 0


def test_tracer_wraps_a_name_in_every_module_binding_it_and_restores_it():
    original = hatstory.layers.gru_step
    assert hatstory.model.gru_step is original
    with spans.Tracer() as tracer:
        assert hatstory.layers.gru_step is not original
        assert hatstory.model.gru_step is hatstory.layers.gru_step
        assert tracer.absent == []
    assert hatstory.layers.gru_step is original
    assert hatstory.model.gru_step is original


def test_tracer_reports_a_name_the_program_lacks_as_absent(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "layers", ("gru_step", "fused_gru_step"))
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["layers.fused_gru_step"]


def test_tape_records_of_one_ranked_acceptance_example():
    """Album 0 of the seed-7 acceptance set with its shuffled negative."""
    wl = W.WORKLOADS["acceptance"]
    albums, vocab = hatstory.synth_generate(hatstory.SynthSpec(seed=7, **wl.spec))
    cfg = hatstory.TrainConfig(k=16, seed=7, **wl.config)
    dims = hatstory.ModelDims(k=16, d_s=cfg.d_s, d_g=cfg.d_g, d_w=cfg.d_w, vocab_size=vocab.size)
    params = hatstory.init_model(dims, Rng(7), enc_init_gain=cfg.enc_init_gain)
    story = albums[0].stories[0]
    negative = make_negative(story, Rng(7))
    tracer = spans.Tracer()
    with tracer, tracer.operation("train"), Tape() as tape:
        total, _, _ = combined_loss(params, albums[0].features, story, negative, cfg)
        backward(tape, total)
    summary = tracer.summary()
    records = sum(summary.taped_in(f"tensor.{op}", "train") for op in spans.TENSOR_OPS)
    assert records == len(tape) == 2794
    assert summary.taped_in("tensor.add", "train") == 912
    assert summary.taped_in("tensor.vecmat", "train") == 718
    assert summary.calls_in("layers.gru_step", "train") == 108
    assert summary.calls_in("model.encode_album", "train") == 2


# -- the workload ------------------------------------------------------------------


def test_inputs_are_stable_for_a_seed_and_differ_between_seeds(tmp_path):
    files = {}
    for run, seed in (("a", 3), ("b", 3), ("c", 4)):
        W.set_up(TINY, seed, tmp_path / run)
        files[run] = {
            name: (tmp_path / run / name).read_bytes()
            for name in ("train.jsonl", "heldout.jsonl", "initial.hat")
        }
    assert files["a"] == files["b"]
    assert files["a"]["heldout.jsonl"] != files["c"]["heldout.jsonl"]
    assert files["a"]["train.jsonl"] == files["c"]["train.jsonl"]
    assert W.heldout_seed(3) == W.heldout_seed(3) != W.heldout_seed(4)


def test_traced_and_untraced_runs_give_identical_losses_and_stories(tmp_path):
    plain = W.run_workload(TINY, 5, tmp_path / "plain", rounds=1, setups=1)
    with spans.Tracer() as tracer:
        traced = W.run_workload(TINY, 5, tmp_path / "traced", rounds=1, setups=1, tracer=tracer)
    assert traced.final_loss == plain.final_loss
    assert traced.tokens == plain.tokens
    assert traced.fingerprint == plain.fingerprint
    assert sum(t.failed for t in plain.tallies.values()) == 0
    summary = tracer.summary()
    assert summary.calls_in("model.generate_story", "generate.beam3") == 3
    metrics = W.per_layer(traced, summary, Counter(tracer.phases), 1.0)
    assert set(metrics) == set(W.PER_LAYER)
    assert metrics["model.encode_album.calls_per_example"] == 2


def test_a_corrupted_story_counts_as_a_failed_generation(tmp_path, monkeypatch):
    generate = hatstory.model.generate_story

    def corrupt(params, features, beam, max_len, oracle_indices=None):
        story = generate(params, features, beam, max_len, oracle_indices)
        story.sentences[0] = [params.dims.vocab_size] + story.sentences[0]
        return story

    monkeypatch.setattr(hatstory.model, "generate_story", corrupt)
    monkeypatch.setattr(hatstory, "generate_story", corrupt)
    run = W.run_workload(TINY, 5, tmp_path)
    assert run.tallies["generate"].attempted == 6
    assert run.tallies["generate"].failed == 6
    assert run.tallies["retrieve"].failed == 0


def test_a_corrupted_retrieval_score_counts_as_a_failed_query(tmp_path, monkeypatch):
    scores = hatstory.metrics.retrieval_scores

    def corrupt(params, story, pool, variant="hier", per_word=False):
        return [s * (1 + 1e-6) for s in scores(params, story, pool, variant, per_word)]

    monkeypatch.setattr(hatstory.metrics, "retrieval_scores", corrupt)
    run = W.run_workload(TINY, 5, tmp_path)
    assert run.tallies["retrieve"].attempted == 3
    assert run.tallies["retrieve"].failed == 3
    assert run.tallies["generate"].failed == 0


@pytest.mark.parametrize(
    "sentences, problem",
    [
        ([[5, 2]] * 5, None),
        ([[5] * 12] * 5, None),
        ([[5, 2]] * 4, "4 sentences, want 5"),
        ([[5, 2]] * 4 + [[5, 99, 2]], "sentence 4 has a token id outside the vocabulary of 19"),
        ([[5, 2]] * 4 + [[2, 5, 2]], "sentence 4 continues after EOS"),
        ([[5, 2]] * 4 + [[5, 6]], "sentence 4 stops at 2 tokens without EOS"),
        ([[5, 2]] * 4 + [[5] * 13], "sentence 4 has 13 tokens, want 1..12"),
    ],
)
def test_story_check(sentences, problem):
    assert W.check_story(hatstory.Story(sentences), 19, 12) == problem


def test_score_check():
    assert W.check_scores([-3.0, -1.0], 2, 1, -1.0) is None
    assert W.check_scores([-3.0], 2, 1, -1.0) == "1 scores for a pool of 2"
    assert W.check_scores([float("nan"), -1.0], 2, 1, -1.0) == "non-finite retrieval score"
    assert W.check_scores([-3.0, -1.0], 2, 1, -1.1) is not None


# -- the definition ------------------------------------------------------------------


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for key, table in (("end_to_end", W.END_TO_END), ("per_layer", W.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
