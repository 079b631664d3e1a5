"""Command-line surface tests: every subcommand end to end on a tiny
dataset, reproducibility of artifacts, and error exit codes.
"""

import csv
import json
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

import hatstory.cli
import hatstory.metrics
import hatstory.model
from hatstory import tensor
from hatstory.checkpoint import load_checkpoint, save_checkpoint
from hatstory.cli import load_config, main
from hatstory.data import Vocabulary, load_dataset
from hatstory.diagnostics import check_attention, check_selector, check_sequence
from hatstory.errors import ConfigurationError
from hatstory.metrics import hard_selection_ids
from hatstory.model import generate_story
from hatstory.training import TrainConfig

SRC = str(Path(__file__).resolve().parents[1] / "src")

TINY_CONFIG = {
    "k": 6,
    "d_s": 4,
    "d_g": 4,
    "d_w": 3,
    "epochs": 2,
    "batch_size": 2,
    "seed": 0,
    "learning_rate": 0.003,
    "rank_weight": 1.0,
    "max_sentence_len": 8,
}


# Config values of the wrong type or out of range, each with the message that
# names its field. `train --config` and a checkpoint's stored config both
# reject them.
BAD_CONFIG_VALUES = [
    ({"epochs": "3"}, "epochs must be an integer >= 0, got '3'"),
    ({"learning_rate": "0.1"}, "learning_rate must be a finite number > 0, got '0.1'"),
    ({"d_s": "4"}, "d_s must be an integer >= 1, got '4'"),
    ({"max_sentence_len": 12.0}, "max_sentence_len must be an integer >= 1, got 12.0"),
    ({"carry_state": "no"}, "carry_state must be true or false, got 'no'"),
    ({"rank_weight": True}, "rank_weight must be a finite number >= 0, got True"),
    ({"seed": -5}, "seed must be an integer >= 0, got -5"),
    ({"learning_rate": float("nan")}, "learning_rate must be a finite number > 0, got nan"),
]


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = dict(TINY_CONFIG)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def synth(tmp_path, name="data.jsonl", albums=4, photos=6, k=6, seed=1):
    path = tmp_path / name
    code = main([
        "synth", "--albums", str(albums), "--photos", str(photos), "--k", str(k),
        "--classes", "5", "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def train(tmp_path, data, run_name, **overrides):
    cfg = write_config(tmp_path, f"{run_name}.json", **overrides)
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(tmp_path / "runs"), "--run-name", run_name,
    ])
    assert code == 0
    return tmp_path / "runs" / run_name


# ---------------------------------------------------------------------------
# synth


@pytest.mark.parametrize("command", [["synth", "--albums", "2"], ["gradcheck"]])
def test_negative_seed_is_a_one_line_error(tmp_path, capsys, command):
    out = tmp_path / "data.jsonl"
    extra = ["--out", str(out)] if command[0] == "synth" else []
    code = main([*command, "--seed", "-1", *extra])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: Rng: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_noise_sigma_is_a_one_line_error(tmp_path, capsys, sigma):
    out = tmp_path / "data.jsonl"
    code = main(["synth", "--albums", "2", "--noise-sigma", sigma, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: noise_sigma must be a finite number >= 0, got {sigma}\n"
    assert not out.exists()


def test_synth_more_photos_than_a_dataset_holds_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    code = main(["synth", "--albums", "2", "--photos", "51", "--k", "6", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: n must be an integer >= 5 and <= 50, got 51\n"
    assert not out.exists()


def test_synth_features_too_large_to_allocate_are_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code = main(["synth", "--albums", "2", "--photos", "6", "--k", "1000000000000",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: k=1000000000000 features for each of 6 photos are more than")
    assert not out.exists()


def test_synth_features_that_overflow_are_a_one_line_error_and_write_no_file(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code = main(["synth", "--albums", "2", "--photos", "6", "--k", "6", "--classes", "2",
                 "--noise-sigma", "1e308", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith(", not finite\n")
    assert err.startswith("error: save_dataset: album synth-000 photo synth-000-p")
    assert not out.exists()


def test_synth_same_seed_writes_identical_bytes(tmp_path):
    a = synth(tmp_path, "a.jsonl", seed=3)
    b = synth(tmp_path, "b.jsonl", seed=3)
    c = synth(tmp_path, "c.jsonl", seed=4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# train


def test_train_writes_run_artifacts_and_leaves_input_alone(tmp_path):
    data = synth(tmp_path)
    before = data.read_bytes()
    run_dir = train(tmp_path, data, "run-a")
    assert (run_dir / "resolved_config.json").exists()
    assert (run_dir / "loss_curve.csv").exists()
    assert (run_dir / "checkpoint.hat").exists()
    assert data.read_bytes() == before

    resolved = json.loads((run_dir / "resolved_config.json").read_text())
    assert resolved["k"] == 6 and resolved["epochs"] == 2
    curve_lines = (run_dir / "loss_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "epoch,mean_loss,mean_gen_loss,mean_rank_loss"
    assert len(curve_lines) == 3  # header + 2 epochs


def test_train_reruns_are_byte_identical(tmp_path):
    data = synth(tmp_path)
    run_a = train(tmp_path, data, "run-a")
    run_b = train(tmp_path, data, "run-b")
    assert (run_a / "checkpoint.hat").read_bytes() == (run_b / "checkpoint.hat").read_bytes()
    assert (run_a / "loss_curve.csv").read_bytes() == (run_b / "loss_curve.csv").read_bytes()
    assert (run_a / "resolved_config.json").read_bytes() == (
        run_b / "resolved_config.json"
    ).read_bytes()


def test_train_rejects_feature_width_mismatch(tmp_path, capsys):
    data = synth(tmp_path)
    cfg = write_config(tmp_path, k=8)
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(tmp_path / "runs"), "--run-name", "bad",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_on_a_dataset_with_no_albums_is_one_error_line_and_leaves_no_run_directory(
        tmp_path, capsys):
    data = tmp_path / "empty.jsonl"
    data.write_text('{"format": "hatstory-v1", "k": 6}\n', encoding="utf-8")
    cfg = write_config(tmp_path)
    code = main(["train", "--data", str(data), "--config", str(cfg),
                 "--out", str(tmp_path / "runs"), "--run-name", "empty"])
    assert code == 1
    assert capsys.readouterr().err == "error: train: dataset has no stories\n"
    assert not (tmp_path / "runs").exists()


def test_train_names_its_run_directory_only_once_it_exists(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"format": "hatstory-v1", "k": 6}\n', encoding="utf-8")
    args = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "runs")]
    assert main(["train", "--data", str(empty), *args, "--run-name", "empty"]) == 1
    assert "run directory" not in capsys.readouterr().out
    data = synth(tmp_path)
    capsys.readouterr()
    assert main(["train", "--data", str(data), *args, "--run-name", "r"]) == 0
    out, run_dir = capsys.readouterr().out.splitlines(), tmp_path / "runs" / "r"
    assert out[0].startswith("resolved config: {") and out[1].startswith("epoch 0: ")
    assert out[-2:] == [f"run directory: {run_dir}", f"checkpoint: {run_dir / 'checkpoint.hat'}"]


@pytest.mark.parametrize("changes", [{"learning_rate": 1e300, "epochs": 2},
                                     {"margin": 1e308, "rank_weight": 1e308}])
def test_a_failed_training_is_one_error_line_and_leaves_no_run_directory(tmp_path, capsys,
                                                                         changes):
    data = synth(tmp_path, albums=2, photos=10, k=16, seed=0)  # `synth --albums 2`
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(changes), encoding="utf-8")  # defaults otherwise
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise here
        code = main([
            "train", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "runs"), "--run-name", "bad",
        ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("changes, dim", [({"k": 6, "d_s": 10**12}, "d_s=1000000000000"),
                                          ({"k": 6, "d_w": 10**50}, f"d_w={10**50}")])
def test_a_model_too_large_to_allocate_is_one_error_line_and_leaves_no_run_directory(
        tmp_path, capsys, changes, dim):
    data = synth(tmp_path, albums=2, photos=6, k=6, seed=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(changes), encoding="utf-8")  # defaults otherwise
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(tmp_path / "runs"), "--run-name", "big",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: model ModelDims(k=6, ")
    assert dim in err and " weights, more than can be allocated (" in err
    assert not (tmp_path / "runs").exists()


def test_an_interrupted_training_exits_130_with_one_line_and_no_checkpoint(tmp_path):
    data = synth(tmp_path)
    cfg = write_config(tmp_path, epochs=10**6)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hatstory", "train", "--data", str(data), "--config", str(cfg),
         "--out", str(tmp_path / "runs"), "--run-name", "cut"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(60, proc.kill)  # a run that never starts training fails, not hangs
    watchdog.start()
    try:
        for line in proc.stdout:
            if line.startswith("epoch 0:"):  # training is under way
                break
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("raise_it, code", [(lambda: tensor.row(tensor.Tensor([1.0]), 3), 1),
                                            (lambda: [][0], None)])
def test_only_a_deliberate_index_error_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                                           raise_it, code):
    """An out-of-range `row` is the caller's; a bare IndexError is a fault."""
    monkeypatch.setattr(hatstory.cli, "cmd_synth", lambda args: raise_it())
    argv = ["synth", "--albums", "2", "--out", str(tmp_path / "d.jsonl")]
    if code is None:
        with pytest.raises(IndexError):
            main(argv)
        return
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: row index 3 out of range")


# ---------------------------------------------------------------------------
# config file handling


def test_load_config_mirrors_train_config_fields(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert isinstance(cfg, TrainConfig)
    assert cfg.k == 6 and cfg.epochs == 2 and cfg.learning_rate == 0.003


def test_load_config_rejects_unknown_keys_and_non_objects(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 6, "leraning_rate": 0.1}))
    with pytest.raises(ConfigurationError, match="leraning_rate"):
        load_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigurationError, match="object"):
        load_config(path)


def test_load_config_rejects_text_that_is_not_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 6,')
    with pytest.raises(ConfigurationError, match="config: not valid JSON"):
        load_config(path)


def test_load_config_rejects_the_removed_printed_hinge_key(tmp_path):
    path = write_config(tmp_path, printed_hinge=False)
    with pytest.raises(ConfigurationError, match="unknown keys.*printed_hinge"):
        load_config(path)


def test_cli_reports_unknown_config_key_as_exit_one(tmp_path, capsys):
    data = synth(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"wrong_key": 1}))
    code = main([
        "train", "--data", str(data), "--config", str(bad),
        "--out", str(tmp_path / "runs"),
    ])
    assert code == 1
    assert "wrong_key" in capsys.readouterr().err


@pytest.mark.parametrize("changes, match", BAD_CONFIG_VALUES)
def test_bad_config_values_are_one_line_train_errors(tmp_path, capsys, changes, match):
    data = synth(tmp_path)
    cfg = write_config(tmp_path, **changes)
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(tmp_path / "runs"), "--run-name", "bad",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: config: ") and match in err
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------------------
# generation and evaluation commands


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli-pipeline")
    data = synth(tmp_path)
    run_dir = train(tmp_path, data, "run-a")
    return tmp_path, data, run_dir / "checkpoint.hat"


def test_generate_emits_stories_and_selections(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "stories.json"
    code = main(["generate", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "3", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 4
    for rec in records:
        assert set(rec) == {"album_id", "sentences", "token_ids", "selected_photo_ids"}
        assert len(rec["sentences"]) == 5
        assert len(rec["token_ids"]) == 5
        assert len(set(rec["selected_photo_ids"])) == 5
        assert all(pid.startswith(rec["album_id"]) for pid in rec["selected_photo_ids"])


def test_generate_selects_once_and_writes_what_separate_calls_give(pipeline, monkeypatch):
    tmp_path, data, ckpt = pipeline
    calls = []
    for module in (hatstory.model, hatstory.metrics):
        def counted(*args, _select=module.select_summary, **kwargs):
            calls.append(args[2])
            return _select(*args, **kwargs)
        monkeypatch.setattr(module, "select_summary", counted)
    out = tmp_path / "stories.json"
    assert main(["generate", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "3", "--out", str(out)]) == 0
    assert calls == ["hard"] * 4
    monkeypatch.undo()

    ck = load_checkpoint(ckpt)
    albums, _ = load_dataset(data, vocab=ck.vocab)
    expected = []
    for album in albums:
        story = generate_story(ck.params, album.features, 3, TINY_CONFIG["max_sentence_len"])
        expected.append({
            "album_id": album.album_id,
            "sentences": [ck.vocab.decode(s) for s in story.sentences],
            "token_ids": story.sentences,
            "selected_photo_ids": hard_selection_ids(ck.params, album),
        })
    assert out.read_text() == json.dumps(expected, sort_keys=True, indent=2) + "\n"


def test_generate_oracle_selection(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "oracle.json"
    code = main(["generate", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "1", "--oracle-selection", "--out", str(out)])
    assert code == 0
    records = json.loads(out.read_text())
    assert all("selected_photo_ids" not in rec for rec in records)
    # rerun is identical
    out2 = tmp_path / "oracle2.json"
    main(["generate", "--ckpt", str(ckpt), "--data", str(data),
          "--beam", "1", "--oracle-selection", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_generate_rejects_unsupported_beam(pipeline, capsys):
    tmp_path, data, ckpt = pipeline
    for command, out in (("generate", "x.json"), ("eval-gen", "report-x")):
        code = main([command, "--ckpt", str(ckpt), "--data", str(data),
                     "--beam", "0", "--out", str(tmp_path / out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:") and "--beam" in err
        assert not (tmp_path / out).exists()


def test_any_beam_width_of_at_least_one_is_accepted(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "beam2.json"
    code = main(["generate", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "2", "--out", str(out)])
    assert code == 0
    assert len(json.loads(out.read_text())) == 4
    code = main(["eval-gen", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "4", "--out", str(tmp_path / "report-beam4")])
    assert code == 0
    report = json.loads((tmp_path / "report-beam4" / "report_generation.json").read_text())
    assert report["aggregate"]["beam"] == 4


@pytest.mark.parametrize(
    "changes, match",
    [
        ({"max_sentence_len": "x"}, "max_sentence_len must be an integer >= 1, got 'x'"),
        ({"max_sentence_len": 0}, "max_sentence_len must be an integer >= 1, got 0"),
        ({"beam_size": None}, "beam_size must be an integer >= 1, got None"),
        ({"variant": "lstm"}, "unknown variant 'lstm'"),
        *BAD_CONFIG_VALUES,
    ],
)
def test_bad_checkpoint_config_values_are_one_line_errors(pipeline, tmp_path, capsys,
                                                          changes, match):
    _, data, ckpt = pipeline
    ck = load_checkpoint(ckpt)
    bad = tmp_path / "bad.hat"
    save_checkpoint(ck.params, ck.vocab, {**ck.config, **changes}, bad)
    for command in ("generate", "eval-gen", "eval-retrieval"):
        out = tmp_path / f"{command}-out"
        code = main([command, "--ckpt", str(bad), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: checkpoint config: ")
        assert match in err
        assert not out.exists()


def test_vocabulary_that_does_not_fit_the_model_is_a_one_line_error(pipeline, tmp_path,
                                                                     capsys):
    _, data, ckpt = pipeline
    ck = load_checkpoint(ckpt)
    bad = tmp_path / "bad.hat"
    save_checkpoint(ck.params, Vocabulary(ck.vocab.id_to_token[:4]), ck.config, bad)
    for command in ("generate", "eval-gen", "eval-summ", "eval-retrieval"):
        out = tmp_path / f"{command}-out"
        code = main([command, "--ckpt", str(bad), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"vocab.tokens holds 4 tokens, dims.vocab_size is {ck.vocab.size}" in err
        assert not out.exists()


def csv_row_count(path):
    """The rows of a report CSV read back, each as wide as the header."""
    with open(path, newline="", encoding="utf-8") as f:
        widths = [len(row) for row in csv.reader(f)]
    assert widths == [widths[0]] * len(widths)
    return len(widths)


def test_eval_gen_reports_bleu_and_cider(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "report-gen"
    code = main(["eval-gen", "--ckpt", str(ckpt), "--data", str(data),
                 "--beam", "1", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_generation.json").read_text())
    agg = report["aggregate"]
    assert {"bleu_1", "bleu_2", "bleu_3", "cider"} <= set(agg)
    for key in ("bleu_1", "bleu_2", "bleu_3", "cider"):
        assert 0.0 <= agg[key]  # cider is scaled by 10, bleu in [0, 1]
    assert csv_row_count(out / "report_generation.csv") == 6  # header, 4 albums, aggregate
    assert report["fingerprint"]["seed"] == 0
    assert "checkpoint_sha256" in report["fingerprint"]


def test_eval_summ_reports_precision_recall(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "report-summ"
    code = main(["eval-summ", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_summarization.json").read_text())
    agg = report["aggregate"]
    assert {"precision", "recall"} <= set(agg)
    assert 0.0 <= agg["precision"] <= 1.0
    assert 0.0 <= agg["recall"] <= 1.0
    assert agg["method"] == "hard-selection"
    assert len(report["per_item"]) == 4
    assert csv_row_count(out / "report_summarization.csv") == 6  # "predicted" holds commas


def test_eval_summ_attention_aggregation_baseline(pipeline):
    tmp_path, data, _ = pipeline
    ckpt = train(tmp_path, data, "run-attn", variant="enc_attn_dec") / "checkpoint.hat"
    out = tmp_path / "report-summ-attn"
    code = main(["eval-summ", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_summarization.json").read_text())
    assert {"precision", "recall"} <= set(report["aggregate"])
    assert report["aggregate"]["method"] == "attn-agg"


def test_eval_summ_of_the_flat_baseline_is_a_one_line_error(pipeline, capsys):
    tmp_path, data, _ = pipeline
    ckpt = train(tmp_path, data, "run-flat", variant="enc_dec") / "checkpoint.hat"
    out = tmp_path / "report-summ-flat"
    capsys.readouterr()
    code = main(["eval-summ", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "'enc_dec'" in err
    assert not out.exists()


def test_eval_retrieval_reports_recall_and_median(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "report-retr"
    code = main(["eval-retrieval", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_retrieval.json").read_text())
    agg = report["aggregate"]
    assert {"recall_at_1", "recall_at_5", "recall_at_10", "median_rank"} <= set(agg)
    assert agg["median_rank"] >= 1.0
    assert len(report["per_item"]) == 4
    assert csv_row_count(out / "report_retrieval.csv") == 6


def test_eval_retrieval_pool_size_cap(pipeline):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "report-retr-pool"
    code = main(["eval-retrieval", "--ckpt", str(ckpt), "--data", str(data),
                 "--pool-size", "2", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report_retrieval.json").read_text())
    assert len(report["per_item"]) == 2


def test_eval_retrieval_rejects_a_negative_pool_size(pipeline, capsys):
    tmp_path, data, ckpt = pipeline
    out = tmp_path / "report-retr-negative"
    code = main(["eval-retrieval", "--ckpt", str(ckpt), "--data", str(data),
                 "--pool-size", "-3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: --pool-size must be an integer >= 0, got -3\n"
    assert not out.exists()


def test_eval_with_missing_checkpoint_fails_cleanly(pipeline, capsys):
    tmp_path, data, _ = pipeline
    missing = tmp_path / "nope.hat"
    code = main(["eval-gen", "--ckpt", str(missing), "--data", str(data),
                 "--out", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert err.count("\n") == 1  # one line, no traceback


def test_eval_commands_name_a_feature_width_mismatch(pipeline, tmp_path, capsys):
    _, _, ckpt = pipeline
    data = synth(tmp_path, k=16)
    for command in ("generate", "eval-gen", "eval-summ", "eval-retrieval"):
        out = tmp_path / command
        code = main([command, "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: checkpoint k=6 does not match dataset feature width [16]\n", command
        assert not out.exists()


def test_missing_input_files_are_one_line_errors(tmp_path, capsys):
    code = main(["eval-summ", "--ckpt", str(tmp_path / "none.hat"), "--data", "x",
                 "--out", str(tmp_path / "y")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    code = main(["train", "--data", str(tmp_path / "none.jsonl"),
                 "--out", str(tmp_path / "runs"), "--run-name", "r"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "none.jsonl" in err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_command_passes_and_exits_zero(capsys):
    code = main(["gradcheck", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "fail" not in out
    assert "\nselector: " in out and "\nattention: " in out and "recurrent" not in out


@pytest.mark.parametrize("seed", range(10))
def test_selector_and_attention_checks_pass(seed):
    for check in (check_selector, check_attention, check_sequence):
        report = check(seed)
        assert report.passed, (check.__name__, report.per_param)


@pytest.mark.parametrize("helper, checks", [("_head_back", (check_selector, check_attention)),
                                            ("_head_first_back", (check_selector, check_attention)),
                                            ("_gru_back_step", (check_selector, check_sequence))])
def test_selector_and_attention_checks_catch_a_backward_off_by_1e_4(monkeypatch, helper, checks):
    """A backward helper of the fused ops, its result scaled by 1 + 1e-4."""
    exact = getattr(tensor, helper)
    monkeypatch.setattr(tensor, helper, lambda *args: exact(*args) * (1 + 1e-4))
    for check in checks:
        assert not check(0).passed, check.__name__
