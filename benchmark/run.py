#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the secwitness analyzer.

    python3 benchmark/run.py --workload bundled|chain|oracle --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the analyzer from src/ and
installs nothing.  One caller runs operations back to back (a closed loop)
for S seconds, checks every output, and prints a summary followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are end to end: set-up time in fresh
interpreters, the median operation time, throughput and the peak heap of
one operation in a fresh interpreter.  With
--trace 1 traced and untraced operations alternate; the metrics are the
per-layer work counts and self times of the traced ones, and the tracing
overhead.  Every time is scaled by R0/R, R being the time of a fixed
pure-Python reference computation run in blocks between the operations
(see reference.py).  Details of each run go to benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_STARTS = 7          # fresh interpreters timed per run, after one warm start
SETUP_REF_PASSES = 8      # reference passes between two fresh starts
REF_SHARE = 0.25          # reference time between operations, per operation time
MIN_REF_PASSES = 4
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("bundled", "chain", "oracle"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    return args


def run_seconds() -> int:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]


def _use_source() -> None:
    """Makes the analyzer importable from this checkout's src/, and from
    nowhere else."""
    if not (SRC / "secwitness" / "cli.py").is_file():
        sys.exit(f"benchmark: no analyzer source at {SRC / 'secwitness'}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _measure_setup(wl, reference) -> tuple[list[float], list[float], float]:
    """Raw set-up times of fresh starts and the reference time R of each,
    from the reference passes just before and after it; and the peak heap
    of one operation in the first start, which may compile byte code and is
    not timed (see setup_child.py)."""
    cmd = [sys.executable, str(HERE / "setup_child.py"), str(SRC), wl.name, *wl.setup_args()]
    raw, refs = [], []
    heap_mb = None
    before = reference.measure(SETUP_REF_PASSES)
    for start in range(SETUP_STARTS + 1):
        proc = subprocess.run(cmd + ([] if start else ["--heap"]), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        after = reference.measure(SETUP_REF_PASSES)
        if proc.returncode != 0:
            sys.exit(f"benchmark: set-up failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if start:
            raw.append(result["setup_s"])
            refs.append(_mean(before + after))
        else:
            heap_mb = result["heap_mb"]
        before = after
    return raw, refs, heap_mb


def _loop(wl, seconds: float, passes: int, reference, outputs: dict,
          tracer=None) -> list[dict]:
    """Runs operations back to back for `seconds`, with a block of reference
    passes between every two; with a tracer, traced and untraced operations
    alternate.  Returns one record per operation: its raw time, the
    reference time R around it and whether it was traced.  `outputs`
    counts the operations that gave each distinct output."""
    ops: list[dict] = []
    before = reference.measure(passes)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.begin_op()
            tracer.install()
        t0 = time.perf_counter()
        out = wl.op()
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
            tracer.end_op()
        outputs[out] = outputs.get(out, 0) + 1
        after = reference.measure(passes)
        ops.append({"raw": t1 - t0, "R": _mean(before + after), "traced": traced})
        before = after
        if time.perf_counter() - start >= seconds and (tracer is None or len(ops) >= 2):
            return ops


def _percentile(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tail(times: list[float]):
    """The highest standard percentile with at least ten samples beyond it,
    or None below forty samples."""
    if len(times) < TAIL_MIN_OPS:
        return None
    ordered = sorted(times)
    best = None
    for p in PERCENTILES:
        if len(ordered) - math.ceil(p / 100 * len(ordered)) >= TAIL_BEYOND:
            best = p
    return best, _percentile(ordered, best)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _args(argv)
    _use_source()
    import reference
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, OUT)

    setup_raw, setup_R, heap_mb = _measure_setup(wl, reference) if not args.trace else ([], [], None)
    wl.prepare()
    outputs: dict[tuple, int] = {}
    for _ in range(2):  # warm-up, checked but not counted
        t0 = time.perf_counter()
        outputs[wl.op()] = 0
        warm = time.perf_counter() - t0
    r_est = min(reference.measure(3))
    passes = max(MIN_REF_PASSES, math.ceil(REF_SHARE * warm / r_est))

    tracer = tracing.Tracer() if args.trace else None
    ops = _loop(wl, args.seconds, passes, reference, outputs, tracer)
    attempted = len(ops)

    # problems of the run as a whole make it incorrect; those of one
    # operation's outputs count that operation as failed
    run_problems = wl.check_run()
    op_problems: list[str] = []
    failed = 0
    for out, count in outputs.items():
        found = wl.check(out)
        if found:
            failed += count
            op_problems += found

    R0 = reference.R0
    plain = [op["raw"] * R0 / op["R"] for op in ops if not op["traced"]]
    metrics: dict[str, dict] = {}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "R0": R0, "reference_passes": passes, "ops": ops,
              "setup": [{"raw": r, "R": ref} for r, ref in zip(setup_raw, setup_R)],
              "attempted": attempted, "failed": failed}
    if tracer is None:
        metrics["setup_s"] = _metric(statistics.median(r * R0 / ref for r, ref in zip(setup_raw, setup_R)), "s")
        metrics["op_s.p50"] = _metric(statistics.median(plain), "s")
        metrics["ops_per_s"] = _metric(len(plain) / sum(plain), "1/s")
        metrics["peak_heap_mb"] = _metric(heap_mb, "MiB")
    else:
        traced = [op for op in ops if op["traced"]]
        counts = [tracing.op_metrics(op) for op in tracer.ops]
        for name, value in counts[0].items():
            metrics[name] = _metric(value, "ratio" if name.endswith("ratio") else "count")
        selfs = [tracing.self_times(op) for op in tracer.ops]
        for name in selfs[0]:
            metrics[name] = _metric(statistics.median(
                s[name] * R0 / op["R"] for s, op in zip(selfs, traced)), "s")
        overhead = statistics.median(op["raw"] * R0 / op["R"] for op in traced) / statistics.median(plain)
        metrics["trace.overhead"] = _metric(overhead, "ratio")
        if any(c != counts[0] for c in counts):
            run_problems.append("work counts differ between traced operations")
        nesting = tracing.check_nesting(tracer)
        if nesting:
            run_problems.append(f"spans do not nest: {nesting}")
        tracer.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    detail["metrics"] = metrics
    detail["problems"] = sorted(set(run_problems + op_problems))
    if detail["problems"]:
        print("problems:", *detail["problems"][:20], sep="\n  ", file=sys.stderr)
    summary = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    tail = _tail(plain) if tracer is None else None
    if tail is not None:
        pct, value = tail
        summary.insert(2, ("op_s.tail", value, f"s (p{pct:g})"))
        detail["op_s.tail"] = {"percentile": pct, "value": value, "unit": "s"}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{tag}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed, "
          f"{passes} reference passes between operations")
    for name, value, unit in summary:
        print(f"  {name:<44} {value:.6g} {unit}")
    print(json.dumps({"correct": not run_problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
