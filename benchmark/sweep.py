#!/usr/bin/env python3
"""How the cost of the n-party chain grows with n (reference figures, not a
workload).

    python3 benchmark/sweep.py

For n = 2 … 10 it runs `analyze --format json-lines` (fmax) once untraced,
for the time, and once traced, for the work counts, and prints a table:
normalised seconds, rows, unify_all calls, distinct (pattern, part) pairs
and the most unifiers found for one pair.
"""

from __future__ import annotations

import sys
import time

import run

MAX_PARTIES = 10


def main() -> int:
    run._use_source()

    import checks
    import reference
    import tracing
    from workloads import Chain

    run.OUT.mkdir(exist_ok=True)
    print(f"{'n':>3} {'seconds':>9} {'rows':>5} {'unify_all':>10} {'pairs':>6} {'max unifiers':>13}")
    for n in range(1, MAX_PARTIES + 1):
        wl = Chain(run.ROOT, run.OUT, max(n, 2))
        wl.prepare()
        if n == 1:  # warm-up: first calls pay for lazy imports and compiled patterns
            wl.op()
            continue
        before = reference.measure(20)
        t0 = time.perf_counter()
        wl.op()
        seconds = time.perf_counter() - t0
        after = reference.measure(20)
        seconds *= reference.R0 / run._mean(before + after)

        tracer = tracing.Tracer()
        tracer.begin_op()
        tracer.install()
        try:
            code, lines, _ = wl.op()[0]
        finally:
            tracer.uninstall()
        tracer.end_op()
        counts = tracing.op_metrics(tracer.ops[0])
        records = checks.parse_json_lines(lines)
        if checks.check_rows(records, code) or len(records) != n * (n + 1) // 2:
            print(f"n={n}: wrong output", file=sys.stderr)
            return 1
        print(f"{n:>3} {seconds:>9.4f} {len(records):>5} {counts['unify.unify_all.calls']:>10} "
              f"{counts['unify.unify_all.distinct_pairs']:>6} "
              f"{counts['unify.unify_all.max_unifiers_per_pair']:>13}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
