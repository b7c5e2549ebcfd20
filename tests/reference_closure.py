"""The pass-by-pass attacker closure and a drawn-whole index space, kept
as the reference for `secwitness.oracle`.

This is the straightforward form: every take-apart pass sorts all known
terms by (depth, printed text) and splits or opens each of them again, and
the atom cap walks every candidate term before looking it up.
`take_apart` computes the terms, depths, insertion order and truncation
flag that `secwitness.oracle` computes while splitting and opening each
term at most once per depth; `deduce_closure` here hands them back as the
one there does, in sample order, with the controlled keys.
`recombined_closure` adds the round the oracle once enumerated: every pair
of two non-empty take-apart terms and every non-empty one under every
controlled key, then takes apart again.  Every term the oracle draws lies
in it.

`draw` builds the oracle's whole index space as a list, with the kind of
each term, and shuffles a list of its indices in place, one swap per term
read: the same draw that `secwitness.oracle._draw` makes with a sparse
shuffle and index arithmetic, reading the same random numbers.

`check_full_invariance_alone` is the invariance search for one bound on a
stream of trials of its own, as `check_full_invariance` ran before the
bounds shared one stream.  It reaches the closure and the draw through the
`secwitness.oracle` module, so a test that patches them there patches them
here too.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

import secwitness.oracle
from secwitness.context import (
    SecurityLevel,
    VerificationContext,
    geq,
    intruder_allowed,
    intruder_knowledge,
    inverse_key,
    show,
)
from secwitness.derive import ValueFunction
from secwitness.errors import NotAKey, WellProtectionViolation
from secwitness.oracle import DeductionResult, Failure, PropertyReport, random_well_protected_set
from secwitness.rewrite import normalize
from secwitness.terms import Atom, Concat, Empty, Enc, Message, atoms, concat


def _term_size(m: Message) -> int:
    return len(atoms(m)) + (1 if isinstance(m, (Enc, Concat)) else 0)


def sample_order(terms: Iterable[Message]) -> list[Message]:
    return sorted(terms, key=lambda t: (_term_size(t), str(t)))


def take_apart(M: Iterable[Message], ctx: VerificationContext, depth_budget: int = 5,
               atom_cap: int = 24) -> tuple[dict[Message, int], bool]:
    """The take-apart closure's depth table, in insertion order, and its
    truncation flag."""
    known: dict[Message, int] = {}
    truncated = False

    def add(t: Message, d: int) -> bool:
        nonlocal truncated
        if d > depth_budget:
            return False
        if len(atoms(t)) > atom_cap:
            truncated = True
            return False
        old = known.get(t)
        if old is None or d < old:
            known[t] = d
            return old is None
        return False

    for m in M:
        add(normalize(m, ctx), 0)
    for a in intruder_knowledge(ctx):
        add(a, 0)
    _decompose(known, add, ctx)
    return known, truncated


def _decompose(known: dict[Message, int], add, ctx: VerificationContext) -> None:
    changed = True
    while changed:
        changed = False
        for t, d in sorted(known.items(), key=lambda kv: (kv[1], str(kv[0]))):
            if isinstance(t, Concat):
                for p in t.parts:
                    changed |= add(p, d + 1)
            elif isinstance(t, Enc):
                try:
                    inv = inverse_key(ctx, t.key)
                except NotAKey:
                    continue
                di = known.get(inv)
                if di is not None:
                    changed |= add(t.body, max(d, di) + 1)


def controlled_keys(terms: Iterable[Message], ctx: VerificationContext) -> list[Message]:
    """The keys among the terms whose inverse is among them too, in order."""
    terms = list(terms)
    out = []
    for t in terms:
        if isinstance(t, Atom):
            try:
                inv = inverse_key(ctx, t)
            except NotAKey:
                continue
            if inv in terms:
                out.append(t)
    return out


def recombined_closure(M: Iterable[Message], ctx: VerificationContext, depth_budget: int = 5,
                       atom_cap: int = 24) -> dict[Message, int]:
    """The take-apart closure, one round that pairs every two non-empty
    terms and encrypts every non-empty term under every controlled key,
    then take-apart again: the depth table of everything the oracle may
    draw."""
    known, _ = take_apart(M, ctx, depth_budget, atom_cap)

    def add(t: Message, d: int) -> bool:
        if d > depth_budget or len(atoms(t)) > atom_cap:
            return False
        old = known.get(t)
        if old is None or d < old:
            known[t] = d
            return old is None
        return False

    snapshot = [(t, d) for t, d in known.items() if not isinstance(t, Empty)]
    keys = controlled_keys(known, ctx)
    for a, da in snapshot:
        for b, db in snapshot:
            add(concat(a, b), max(da, db) + 1)
        for k in keys:
            add(Enc(a, k), max(da, known[k]) + 1)
    _decompose(known, add, ctx)
    return known


def deduce_closure(M: Iterable[Message], ctx: VerificationContext,
                   depth_budget: int = 5) -> DeductionResult:
    """The take-apart closure as `secwitness.oracle.deduce_closure` returns
    it, at the oracle module's atom cap."""
    known, truncated = take_apart(M, ctx, depth_budget, secwitness.oracle.ATOM_CAP)
    terms = sample_order(known)
    keys = controlled_keys(terms, ctx)
    return DeductionResult(tuple(terms), tuple(known[t] for t in terms),
                           tuple(terms.index(k) for k in keys), truncated)


def draw_with_kinds(closure: DeductionResult, depth_budget: int,
                    rng: random.Random) -> tuple[list[tuple[Message, str]], bool]:
    """The oracle's draw, each term with its kind ("apart", "pair" or
    "cipher"), at the oracle module's SAMPLE_TERMS and ATOM_CAP."""
    depth = dict(zip(closure.terms, closure.depths))
    space = [(t, "apart", depth[t]) for t in closure.terms]
    parts = [t for t in closure.terms if not isinstance(t, Empty)]
    space += [(concat(a, b), "pair", max(depth[a], depth[b]) + 1) for a in parts for b in parts]
    keys = [closure.terms[i] for i in closure.keys]
    space += [(Enc(a, k), "cipher", max(depth[a], depth[k]) + 1) for a in parts for k in keys]
    shuffled = list(range(len(space)))
    drawn: list[tuple[Message, str]] = []
    truncated = False
    for place in range(len(space)):
        j = rng.randrange(place, len(space))
        shuffled[place], shuffled[j] = shuffled[j], shuffled[place]
        t, kind, d = space[shuffled[place]]
        if d > depth_budget:
            continue
        if len(atoms(t)) > secwitness.oracle.ATOM_CAP:
            truncated = True
            continue
        if t in [u for u, _ in drawn]:
            continue
        drawn.append((t, kind))
        if len(drawn) == secwitness.oracle.SAMPLE_TERMS:
            break
    return drawn, truncated


def draw(closure: DeductionResult, depth_budget: int,
         rng: random.Random) -> tuple[list[Message], bool]:
    drawn, truncated = draw_with_kinds(closure, depth_budget, rng)
    return [t for t, _ in drawn], truncated


def check_full_invariance_alone(func: ValueFunction, ctx: VerificationContext,
                                trials: int = 500, depth: int = 4, seed: int = 0,
                                rng: Optional[random.Random] = None) -> PropertyReport:
    """Randomized search for a derivable message on which the bound reads
    lower than on the originating set, on trials drawn for this bound
    alone."""
    rng = rng or random.Random(seed)
    failures: list[Failure] = []
    truncated = 0
    for _ in range(trials):
        M = random_well_protected_set(rng, ctx)
        closure = secwitness.oracle.deduce_closure(M, ctx, depth_budget=depth)
        terms, cut = secwitness.oracle._draw(closure, depth, rng)
        if closure.truncated or cut:
            truncated += 1
        base_cache: dict[Atom, SecurityLevel] = {}
        for t in terms:
            for a in sorted(atoms(t), key=lambda x: x.display()):
                if intruder_allowed(ctx, a):
                    continue
                try:
                    on_derived = func(a, t, ctx)
                    if a not in base_cache:
                        base_cache[a] = func(a, M, ctx)
                    on_base = base_cache[a]
                except WellProtectionViolation as err:
                    failures.append(Failure(
                        str(t), a.display(),
                        f"protection violated on derived term: {err}"))
                    continue
                if not geq(on_derived, on_base):
                    failures.append(Failure(
                        str(t), a.display(),
                        f"derived value {show(on_derived)} below base value {show(on_base)}"))
        if failures:
            break
    return PropertyReport(not failures, trials, tuple(failures), (), truncated)
