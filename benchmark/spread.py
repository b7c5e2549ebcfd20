#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, raw against normalised.

    python3 benchmark/spread.py --workload chain --seeds 1-10

Runs the benchmark once per seed, one run at a time, for the run_seconds
of BENCHMARK.json (the length the bounds there are set for), and prints for each
metric the quartiles over the runs and the spread (third minus first
quartile, over the median), both as reported (normalised by the reference
computation) and raw.  The raw figures are read from the run files in
benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _row(name: str, values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"  {name:<24} q1 {q1:.5g}  median {q2:.5g}  q3 {q3:.5g}  spread {(q3 - q1) / q2:.3f}"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args()
    seconds = run.run_seconds()

    runs = []
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        wall = time.perf_counter() - t0
        result = json.loads(proc.stdout.splitlines()[-1])
        detail = json.loads((HERE / "out" / f"run-{args.workload}-seed{seed}-trace0.json").read_text())
        runs.append((result, detail))
        m = result["metrics"]
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.5g}" for k, v in m.items())
              + f"; {result['attempted']} ops, {result['failed']} failed, {wall:.1f} s wall",
              flush=True)

    print(f"{args.workload}, {len(runs)} runs of {seconds} s")
    for name in runs[0][0]["metrics"]:
        print(_row(name, [r["metrics"][name]["value"] for r, _ in runs]))
    plain = [[op for op in d["ops"] if not op["traced"]] for _, d in runs]
    print(_row("op_s.p50 raw", [statistics.median(op["raw"] for op in ops) for ops in plain]))
    print(_row("setup_s raw", [statistics.median(s["raw"] for s in d["setup"]) for _, d in runs]))
    print(_row("R (reference s)", [statistics.median(op["R"] for op in ops) for ops in plain]))
    shares = {r["failed"] / r["attempted"] for r, _ in runs}
    print(f"  failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
