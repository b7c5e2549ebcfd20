"""A fixed pure-Python computation that measures how fast the interpreter
runs right now.

Shared machines change the interpreter's speed by up to 2x within minutes,
while the ratio of two pure-Python workloads stays within a few percent.
Every time the benchmark reports is therefore scaled by R0/R, where R is
the time of one pass of this computation measured right next to the timed
work.  The speed moves within seconds, so passes are interleaved with the
operations rather than run once before and after a whole run.  It
does the kind of work the analyzer does (small immutable trees, tuple
hashing, dictionary lookups, recursion, string building and sorting) and
imports nothing from the analyzer.
"""

from __future__ import annotations

import time

# Seconds one pass takes on a 2-vCPU x86-64 container at a typical speed;
# normalised times read as if the machine always ran at that speed.
R0 = 0.005


def _tree(i: int, depth: int) -> tuple:
    if depth == 0:
        return ("atom", f"a{i % 17}", i % 3)
    if i % 2:
        return ("enc", _tree(i * 7 + 1, depth - 1), f"k{i % 5}")
    return ("cat", _tree(i * 3 + 1, depth - 1), _tree(i * 5 + 2, depth - 1))


def _leaves(t: tuple) -> frozenset:
    if t[0] == "atom":
        return frozenset((t[1],))
    if t[0] == "enc":
        return _leaves(t[1]) | {t[2]}
    return _leaves(t[1]) | _leaves(t[2])


def _show(t: tuple) -> str:
    if t[0] == "atom":
        return t[1]
    if t[0] == "enc":
        return "{" + _show(t[1]) + "}_" + t[2]
    return _show(t[1]) + "." + _show(t[2])


def compute() -> int:
    """One pass of the reference work; returns a checksum so nothing is
    optimised away."""
    seen: dict[tuple, int] = {}
    total = 0
    for i in range(160):
        t = _tree(i, 5)
        seen[t] = seen.get(t, 0) + 1
        total += len(_leaves(t))
        total += len(sorted(_show(t).split(".")))
    return total + len(seen)


def measure(passes: int) -> list[float]:
    """Times of `passes` passes, in seconds."""
    out = []
    for _ in range(passes):
        t0 = time.perf_counter()
        compute()
        out.append(time.perf_counter() - t0)
    return out
