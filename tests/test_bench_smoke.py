"""The benchmark's workloads, once each at their smallest: one set-up and one
round of every phase. A change to the program's init, checkpoint or train
interface that the benchmark cannot run, or that makes an end-to-end metric
non-finite or drops one, fails here, not in a paired run. So does a change
of the values the benchmark checks: each workload's fingerprint (a digest of
its losses and stories), final loss and summary precision are pinned, and
a change that moves them on purpose states it and restates the pins."""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workload

    return workload


# workload: (fingerprint prefix, train.final_loss, summ.precision) at seed 7
PINNED = {
    "acceptance": ("c3c740b6", 17.599422102422047, 0.64),
    "attn-baseline": ("b4082c2e", 15.154477574469263, 0.69),
    "wide": ("124f9898", 86.6995777345621, 0.325),
}


@pytest.mark.parametrize("name", ["acceptance", "attn-baseline", "wide"])
def test_a_benchmark_workload_runs_without_a_failed_operation(workload, tmp_path, name):
    run = workload.run_workload(workload.WORKLOADS[name], 7, tmp_path, rounds=1, setups=1)
    fingerprint, final_loss, precision = PINNED[name]
    assert run.fingerprint.startswith(fingerprint), run.fingerprint
    assert run.final_loss == final_loss  # bitwise: the training job is fixed
    assert run.precision == pytest.approx(precision, abs=1e-12)
    assert set(run.tallies) == {"train", "generate", "summarize", "retrieve"}
    for phase, tally in run.tallies.items():
        assert tally.attempted > 0 and tally.failed == 0, (phase, tally.errors)
    metrics, info, problems = workload.end_to_end(run, workload.peak_rss_mb())
    result = workload.report(name, metrics, workload.END_TO_END, run.tallies, problems, info)
    assert result["correct"], result["metrics"]
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
