"""The experiment script runs end to end on a tiny synthetic set."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_latent_selection_experiment_runs_with_baselines(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_latent_selection_experiment.py"),
         "--albums", "6", "--photos", "6", "--epochs", "2", "--with-baselines",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in ("[summ] hier", "[retrieval] hier", "[retrieval] enc-dec",
                 "[summ] attention-aggregation top-5", "[retrieval] enc-attn-dec"):
        assert line in proc.stdout
