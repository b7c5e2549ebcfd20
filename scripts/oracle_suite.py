#!/usr/bin/env python3
"""Randomized reliability runs against the bounded attacker model.

For each bound: no message derivable from a random well-protected set may
read below the bound on the set itself.  For each bundled protocol: one
honest session must not put a secret in the clear.  Seeded, so a failing
run can be replayed.
"""

from __future__ import annotations

import argparse

from secwitness.oracle import check_full_invariance, check_non_disclosure
from secwitness.protocols import load_bundled
from secwitness.selection import value_functions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    failed = False
    for name in ("ns", "nsl"):
        protocol = load_bundled(name)
        print(f"== {protocol.name}")
        reports = check_full_invariance(
            value_functions(("fmax", "fek", "fn")),
            protocol.context, trials=args.trials, depth=args.depth, seed=args.seed)
        for fname, rep in reports.items():
            print(f"  full-invariance[{fname}]: {'ok' if rep.ok else 'FAILED'} "
                  f"({rep.trials} trials, {rep.truncated_trials} truncated)")
            for f in rep.failures[:3]:
                print(f"    counterexample: {f.atom} in {f.derived}: {f.detail}")
            failed |= not rep.ok
        session = [s.message for s in protocol.steps]
        rep = check_non_disclosure(session, protocol.context, depth=max(args.depth, 5))
        print(f"  non-disclosure[one honest session]: {'ok' if rep.ok else 'FAILED'}")
        for f in rep.failures[:3]:
            print(f"    disclosed: {f.atom}")
        failed |= not rep.ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
