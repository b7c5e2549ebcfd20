"""The pass-by-pass attacker closure, kept as the reference for the one in
`secwitness.oracle`.

This is the straightforward form: every take-apart pass sorts all known
terms by (depth, printed text) and splits or opens each of them again, the
atom cap walks every candidate term before looking it up, and the
recombination round sorts by a size that walks each term once more.
`secwitness.oracle.deduce_closure` computes the same terms, depths,
insertion order and truncation flag while walking, printing and splitting
each term at most once per depth; the tests check the two against each
other.  `sample_order` is the order `check_full_invariance` used to sort a
closure in before it sampled from it.

`check_full_invariance_alone` is the invariance search for one bound on a
stream of trials of its own, as `check_full_invariance` ran before the
bounds shared one stream.  It reaches the closure through the
`secwitness.oracle` module, so a test that patches `deduce_closure` there
patches it here too.
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


def deduce_closure_with_depths(M: Iterable[Message], ctx: VerificationContext,
                               depth_budget: int = 5, atom_cap: int = 24,
                               round_cap: int = 1500) -> tuple[dict[Message, int], bool]:
    """The reference closure's depth table, in insertion order, and its
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

    def decompose() -> None:
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

    decompose()

    snapshot = sorted(known.items(), key=lambda kv: (_term_size(kv[0]), str(kv[0])))
    enc_keys = []
    for t, _ in snapshot:
        if isinstance(t, Atom) and t.name in ctx.keys:
            try:
                inv = inverse_key(ctx, t)
            except NotAKey:
                continue
            if inv in known:
                enc_keys.append(t)
    fresh = 0
    for a, da in snapshot:
        if fresh > round_cap:
            truncated = True
            break
        for b, db in snapshot:
            if fresh > round_cap:
                truncated = True
                break
            if isinstance(a, Empty) or isinstance(b, Empty):
                continue
            if add(concat(a, b), max(da, db) + 1):
                fresh += 1
        for k in enc_keys:
            if isinstance(a, Empty):
                continue
            dk = known[k]
            if add(Enc(a, k), max(da, dk) + 1):
                fresh += 1

    decompose()
    return known, truncated


def deduce_closure(M: Iterable[Message], ctx: VerificationContext,
                   depth_budget: int = 5, round_cap: int = 1500) -> DeductionResult:
    known, truncated = deduce_closure_with_depths(M, ctx, depth_budget, round_cap=round_cap)
    terms = frozenset(known)
    return DeductionResult(terms, truncated, tuple(sample_order(terms)))


def check_full_invariance_alone(func: ValueFunction, ctx: VerificationContext,
                                trials: int = 500, depth: int = 4, seed: int = 0,
                                rng: Optional[random.Random] = None) -> PropertyReport:
    """Randomized search for a derivable message on which the bound reads
    lower than on the originating set, on trials drawn for this bound
    alone.  It samples as many derived terms as the oracle module's
    SAMPLE_TERMS says."""
    rng = rng or random.Random(seed)
    failures: list[Failure] = []
    truncated = 0
    for _ in range(trials):
        M = random_well_protected_set(rng, ctx)
        closure = secwitness.oracle.deduce_closure(M, ctx, depth_budget=depth, round_cap=400)
        if closure.truncated:
            truncated += 1
        terms = closure.sample_order
        sample_terms = secwitness.oracle.SAMPLE_TERMS
        if len(terms) > sample_terms:
            terms = rng.sample(terms, sample_terms)
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
