#!/usr/bin/env python3
"""hatstory benchmark: train, generate and retrieve, end to end or traced.

    python3 bench/run.py --workload acceptance --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 7

Run from the root of a source checkout. Each workload runs in its own
process, started with one BLAS thread and with the checkout's ``src`` first
on the import path. The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--workload all``
prints one line per workload and then an object keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workload import SRC, THREAD_ENV, WORKLOADS  # noqa: E402

# A workload process is stopped after this many seconds, inside the 180 s
# that one benchmark run may take. An untraced run measures for --seconds and
# then needs up to about 20 s more on these workloads; a traced run does a
# fixed amount of work, up to about 90 s. Both leave room for the host to run
# twice as slow.
TRACED_TIMEOUT_S = 175
UNTRACED_EXTRA_S = 145


def run_one(name, seed, seconds, trace, capture):
    """Run one workload process; returns (exit code, its stdout or None)."""
    timeout = TRACED_TIMEOUT_S if trace else seconds + UNTRACED_EXTRA_S
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=SRC.parent, timeout=timeout,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} did not finish within {timeout:g} s", file=sys.stderr)
        return 1, None
    if capture and proc.stdout:
        sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hatstory" / "__init__.py").is_file():
        print(f"error: no hatstory source under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace, capture=False)[0]
    results, code = {}, 0
    for name in WORKLOADS:
        rc, out = run_one(name, args.seed, args.seconds, args.trace, capture=True)
        if rc != 0:
            code = rc
            continue
        results[name] = json.loads(out.strip().splitlines()[-1])
    if code:
        return code
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
