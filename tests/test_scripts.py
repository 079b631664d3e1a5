"""The scripts run end to end on tiny synthetic sets."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_latent_selection_experiment_runs_with_baselines(tmp_path):
    proc = run_script("run_latent_selection_experiment.py", "--albums", "6", "--photos", "6",
                      "--epochs", "2", "--with-contrast", "--with-baselines",
                      "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for line in ("[summ] hier rank_weight=3.0", "[retrieval] hier rank_weight=3.0",
                 "[summ] hier rank_weight=0", "[retrieval] hier rank_weight=0",
                 "[retrieval] enc-dec", "[summ] attention-aggregation top-5",
                 "[retrieval] enc-attn-dec"):
        assert line in proc.stdout
    for run, tasks in (("hier-ranked", ("summarization", "retrieval")),
                       ("hier-unranked", ("summarization", "retrieval")),
                       ("enc-dec", ("retrieval",)),
                       ("enc-attn-dec", ("summarization", "retrieval"))):
        assert {p.name for p in (tmp_path / run).glob("report_*")} == {
            f"report_{task}.{ext}" for task in tasks for ext in ("json", "csv")}
        assert (tmp_path / run / "checkpoint.hat").is_file()
    assert not list(tmp_path.rglob("*.tmp"))


def test_overfit_single_album_reproduces_its_story():
    proc = run_script("overfit_single_album.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "greedy decode reproduces the training story: True" in proc.stdout
