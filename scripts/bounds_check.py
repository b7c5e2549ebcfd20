#!/usr/bin/env python3
"""Empirical check that the witness value sits between its two bounds.

Draws random small contexts and pattern pools, closes one pattern with a
random ground substitution, and compares the three levels on every queried
data atom.  The substitution draws non-identity data only: binding a
variable to a principal name legitimately widens the witness past the
static lower bound, which is the margin the criterion gives away.
"""

from __future__ import annotations

import argparse
import random
import time

from secwitness.context import geq, make_context
from secwitness.rewrite import check_well_protected
from secwitness.selection import value_function
from secwitness.terms import (
    Atom,
    Sort,
    Substitution,
    atomic,
    atoms,
    concat,
    enc,
    substitute,
    variables_of,
)
from secwitness.witness import lower_bound, upper_bound, witness_value

IDENTITIES = ["A", "B", "C", "D", "S"]
FUNCS = [value_function(n) for n in ("fmax", "fek", "fn")]


def random_setup(rng: random.Random):
    key_pairs = [("k1", "k1-1"), ("k2", "k2-1")]
    levels: dict[str, list[str]] = {}
    floor: set[str] = set()
    for _, inv in key_pairs:
        held = rng.sample(IDENTITIES, rng.randint(1, 3))
        levels[inv] = held
        floor |= set(held)
    data = []
    for name in ("n1", "n2", "n3"):
        extra = {p for p in IDENTITIES if rng.random() < 0.4}
        levels[name] = sorted(floor | extra)
        data.append(Atom(name))
    ctx = make_context(IDENTITIES + ["I"], "I", levels,
                       key_pairs)
    return ctx, data, [Atom(k) for k, _ in key_pairs]


def random_pattern(rng: random.Random, data, keys, variables):
    while True:
        parts = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.4:
                parts.append(atomic(rng.choice(data)))
            elif roll < 0.7:
                parts.append(atomic(Atom(rng.choice(IDENTITIES))))
            else:
                parts.append(atomic(rng.choice(variables)))
        if rng.random() < 0.2:
            parts.append(enc(concat(*parts[:2]) if len(parts) > 1 else parts[0],
                             rng.choice(keys)))
        pat = enc(concat(*parts), rng.choice(keys))
        if len(atoms(pat)) <= 8:
            return pat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=1000,
                        help="closed (pattern, substitution) draws")
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    variables = [Atom(f"V{i}", Sort.VARIABLE) for i in range(3)]
    pairs = checks = violations = 0
    t0 = time.monotonic()
    while pairs < args.instances:
        ctx, data, keys = random_setup(rng)
        pool = [random_pattern(rng, data, keys, variables)
                for _ in range(rng.randint(1, 6))]
        if not check_well_protected(pool, ctx).ok:
            raise AssertionError("generator emitted an unprotected pool")
        sources = [p for p in pool if any(a in data for a in atoms(p))]
        if not sources:
            continue
        source = rng.choice(sources)
        grounds = data + [Atom("m1"), Atom("m2")]
        sigma = Substitution({v: atomic(rng.choice(grounds))
                              for v in variables_of(source)})
        closed = substitute(source, sigma)
        F = FUNCS[pairs % 3]
        pairs += 1
        for alpha in sorted({a for a in atoms(source) if a in data},
                            key=lambda a: a.name):
            w = witness_value(alpha, source, sigma, pool, F, ctx)
            up = upper_bound(alpha, closed, F, ctx)
            low = lower_bound(alpha, source, pool, F, ctx)
            checks += 1
            if not (geq(up, w) and geq(w, low)):
                violations += 1
                print(f"violation: alpha={alpha.display()} source={source} "
                      f"sigma={sigma} upper={up!r} witness={w!r} lower={low!r}")
    elapsed = time.monotonic() - t0
    print(f"{pairs} instances, {checks} atom checks, {violations} violations, "
          f"{elapsed:.2f} s")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
