"""The benchmark's workloads, once each at their smallest: one set-up and one
round of every phase. A change to the program's init, checkpoint or train
interface that the benchmark cannot run fails here, not in a paired run."""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workload

    return workload


@pytest.mark.parametrize("name", ["acceptance", "attn-baseline", "wide"])
def test_a_benchmark_workload_runs_without_a_failed_operation(workload, tmp_path, name):
    run = workload.run_workload(workload.WORKLOADS[name], 7, tmp_path, rounds=1, setups=1)
    assert set(run.tallies) == {"train", "generate", "summarize", "retrieve"}
    for phase, tally in run.tallies.items():
        assert tally.attempted > 0 and tally.failed == 0, (phase, tally.errors)
