"""Runs in a fresh interpreter started by run.py; times the set-up.

    python3 benchmark/setup_child.py SRC WORKLOAD [CHAIN_FILE PARTIES] [--heap]

Only `sys` and `time` are imported before the clock starts, so the
analyzer's own imports (argparse, json, random, re, enum, ...) count in
full.  The set-up is importing `secwitness.cli` and, for `chain`, writing
the generated protocol file; the other workloads read the bundled files.
Prints one JSON line: {"setup_s": seconds}.  With --heap it then runs one
operation of the workload under tracemalloc and adds "heap_mb", the peak
Python heap (MiB) that first operation allocates, caches it fills included.
"""

import sys
import time


def main() -> int:
    args = [a for a in sys.argv[1:] if a != "--heap"]
    src, workload = args[0], args[1]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import secwitness.cli  # noqa: F401

    if workload == "chain":
        import chain

        with open(args[2], "w", encoding="utf-8") as fh:
            fh.write(chain.chain_protocol(int(args[3])))
    elapsed = time.perf_counter() - t0

    import json
    import os
    import tracemalloc
    from pathlib import Path

    if not os.path.realpath(secwitness.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.exit(f"benchmark: imported the analyzer from {secwitness.__file__}")
    result = {"setup_s": elapsed}
    if "--heap" in sys.argv:
        import workloads

        here = Path(__file__).resolve().parent
        wl = workloads.WORKLOADS[workload](here.parent, here / "out")
        wl.prepare()
        tracemalloc.start()
        wl.op()
        result["heap_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
