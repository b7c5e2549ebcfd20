"""Normalization, key-guard analysis and the well-protection check.

The equational theory is encryption/decryption cancellation: encrypting under
a key and then under its inverse (in either order) is the identity.  In the
free algebra "decrypt with k" is written as encryption with k's inverse, so
the cancellation redex is a double encryption whose keys are mutually
inverse.  User-supplied rules extend the system and must pass the
keys-monotonicity validator: a rewrite may strip guards that the inverse key
already discharges, but may never invent new ones on the right-hand side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

from .context import VerificationContext, geq, inverse_key, level_of
from .errors import AnalyzerError, NonTermination, NotAKey, UnboundRuleVariable
from .terms import (
    Atom,
    Atomic,
    Concat,
    Empty,
    Enc,
    Message,
    Sort,
    atoms,
    concat,
    flatten,
    members,
    print_message,
    substitute,
)

KeySetFamily = frozenset  # of frozenset[Atom]


def family(*inner: Iterable[Atom]) -> KeySetFamily:
    return frozenset(frozenset(s) for s in inner)


EMPTY_FAMILY: KeySetFamily = frozenset()


@dataclass(frozen=True)
class RewriteRule:
    """lhs -> rhs over rule metavariables.

    Variable-sorted atoms match whole submessages, Parameter-sorted atoms
    match single atoms (keys included).  Two key metavariables named n and
    n-1 are constrained to be mutually inverse in the target context.
    """

    lhs: Message
    rhs: Message
    name: str = ""

    def __post_init__(self) -> None:
        def metavars(m: Message) -> frozenset[Atom]:
            return frozenset(a for a in atoms(m) if a.sort is not Sort.CONSTANT)

        if not metavars(self.rhs) <= metavars(self.lhs):
            raise UnboundRuleVariable(self.name or print_message(self.lhs))


_CANCEL_M = Atom("M", Sort.VARIABLE)
_CANCEL_K = Atom("k", Sort.PARAMETER)
_CANCEL_KINV = Atom("k-1", Sort.PARAMETER)
_DEFAULT_RULES = (
    RewriteRule(Enc(Enc(Atomic(_CANCEL_M), _CANCEL_KINV), _CANCEL_K), Atomic(_CANCEL_M),
                name="cancel-enc-dec"),
)


def default_rules() -> tuple[RewriteRule, ...]:
    """The built-in cancellation rule; always active."""
    return _DEFAULT_RULES


def _inverse_pairs(bindings: dict[Atom, Message]) -> Iterable[tuple[Atom, Atom]]:
    by_name = {a.name: a for a in bindings}
    for name, a in by_name.items():
        partner = by_name.get(name + "-1")
        if partner is not None:
            yield a, partner


def _match(pattern: Message, term: Message, ctx: VerificationContext,
           bindings: dict[Atom, Message]) -> Optional[dict[Atom, Message]]:
    """One-way structural matching of a rule pattern against a term."""
    if isinstance(pattern, Atomic):
        a = pattern.atom
        if a.sort is Sort.CONSTANT:
            return bindings if term == pattern else None
        if a.sort is Sort.PARAMETER and not (isinstance(term, Atomic)):
            return None
        bound = bindings.get(a)
        if bound is not None:
            return bindings if bound == term else None
        out = dict(bindings)
        out[a] = term
        return out
    if isinstance(pattern, Enc):
        if not isinstance(term, Enc):
            return None
        b = _match(Atomic(pattern.key), Atomic(term.key), ctx, bindings)
        if b is None:
            return None
        return _match(pattern.body, term.body, ctx, b)
    if isinstance(pattern, Concat):
        if not isinstance(term, Concat):
            return None
        return _match_lists(list(pattern.parts), list(term.parts), ctx, bindings)
    if isinstance(pattern, Empty):
        return bindings if isinstance(term, Empty) else None
    return None


def _match_lists(ps: list[Message], ts: list[Message], ctx: VerificationContext,
                 bindings: dict[Atom, Message]) -> Optional[dict[Atom, Message]]:
    if not ps:
        return bindings if not ts else None
    head = ps[0]
    if isinstance(head, Atomic) and head.atom.sort is Sort.VARIABLE:
        bound = bindings.get(head.atom)
        if bound is not None:
            k = len(flatten(bound))
            if len(ts) >= k and concat(*ts[:k]) == bound:
                return _match_lists(ps[1:], ts[k:], ctx, bindings)
            return None
        # a variable metavariable may absorb one or more consecutive parts
        for k in range(1, len(ts) - len(ps) + 2):
            out = dict(bindings)
            out[head.atom] = concat(*ts[:k])
            res = _match_lists(ps[1:], ts[k:], ctx, out)
            if res is not None:
                return res
        return None
    if not ts:
        return None
    b = _match(head, ts[0], ctx, bindings)
    if b is None:
        return None
    return _match_lists(ps[1:], ts[1:], ctx, b)


def _try_rule(rule: RewriteRule, term: Message, ctx: VerificationContext) -> Optional[Message]:
    b = _match(rule.lhs, term, ctx, {})
    if b is None:
        return None
    for a, partner in _inverse_pairs(b):
        ia, ip = b[a], b[partner]
        if not (isinstance(ia, Atomic) and isinstance(ip, Atomic)):
            return None
        try:
            if inverse_key(ctx, ia.atom) != ip.atom:
                return None
        except NotAKey:
            return None
    return substitute(rule.rhs, b)


def normalize(m: Message, ctx: VerificationContext, budget: int = 10_000) -> Message:
    """Leftmost-innermost normal form under the default rule plus the
    context's extra rules; deterministic; raises NonTermination past the
    step budget."""
    rules = default_rules() + tuple(ctx.rewrite_rules)
    steps = [0]

    def norm(t: Message) -> Message:
        while True:
            if isinstance(t, Concat):
                t = concat(*(norm(p) for p in t.parts))
            elif isinstance(t, Enc):
                t = Enc(norm(t.body), t.key, t.mode)
            for rule in rules:
                reduced = _try_rule(rule, t, ctx)
                if reduced is not None:
                    steps[0] += 1
                    if steps[0] > budget:
                        raise NonTermination(budget)
                    t = reduced
                    break
            else:
                return t

    try:
        return norm(m)
    except RecursionError:
        # runaway nesting from a growing rule set; same diagnosis as the
        # step budget, reached through depth instead of count
        raise NonTermination(budget) from None


# ---------------------------------------------------------------------------
# Guard families


def keys_of(alpha: Atom, m: Union[Message, Iterable[Message]]) -> KeySetFamily:
    """For every occurrence of alpha, the set of keys wrapped around it;
    key positions themselves are not occurrences."""
    out = EMPTY_FAMILY
    for t in members(m):
        if isinstance(t, Atomic) and t.atom == alpha:
            out |= family(())
        elif isinstance(t, Concat):
            out |= keys_of(alpha, t.parts)
        elif isinstance(t, Enc):
            out |= frozenset(s | {t.key} for s in keys_of(alpha, t.body))
    return out


def access(alpha: Atom, m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> KeySetFamily:
    """Like keys_of but over the inverse keys needed to reach alpha, computed
    on the normal form."""

    def go(t: Message) -> KeySetFamily:
        if isinstance(t, Atomic):
            return family(()) if t.atom == alpha else EMPTY_FAMILY
        if isinstance(t, Concat):
            out = EMPTY_FAMILY
            for p in t.parts:
                out |= go(p)
            return out
        if isinstance(t, Enc):
            inner = go(t.body)
            return frozenset(s | {inverse_key(ctx, t.key)} for s in inner)
        return EMPTY_FAMILY

    out = EMPTY_FAMILY
    for t in members(m):
        out |= go(normalize(t, ctx))
    return out


def clear_atoms(m: Union[Message, Iterable[Message]], ctx: VerificationContext) -> frozenset[Atom]:
    """Atoms reachable without any key."""
    out: set[Atom] = set()
    for t in members(m):
        out.update(a for a in atoms(t) if frozenset() in access(a, t, ctx))
    return frozenset(out)


@dataclass(frozen=True)
class WellProtectedReport:
    ok: bool
    violations: tuple[tuple[Atom, Message, frozenset], ...]  # atom, message, offending key set

    def __bool__(self) -> bool:
        return self.ok


def check_well_protected(target: Union[Message, Iterable[Message]],
                         ctx: VerificationContext) -> WellProtectedReport:
    """Every occurrence of a non-public atom must sit under at least one key
    whose level dominates the atom's.  Variables are exempt (their treatment
    belongs to the criterion layer)."""
    violations: list[tuple[Atom, Message, frozenset]] = []
    for m in members(target):
        for a in atoms(m):
            if a.sort is Sort.VARIABLE:
                continue
            lvl = level_of(ctx, a)
            if lvl.is_bottom:
                continue
            for keyset in access(a, m, ctx):
                if not any(geq(level_of(ctx, k), lvl) for k in keyset):
                    violations.append((a, m, keyset))
    return WellProtectedReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Rule validation


@dataclass(frozen=True)
class RuleFinding:
    rule: RewriteRule
    keys_monotone: bool
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[RuleFinding, ...]

    @property
    def ok(self) -> bool:
        return all(f.keys_monotone for f in self.findings)


def _family_shrinks(after: KeySetFamily, before: KeySetFamily) -> bool:
    """Every guard set of the result must be contained in some guard set the
    redex already had: rewriting may remove keys, never add them."""
    return all(any(sa <= sb for sb in before) for sa in after)


def _count_enc(m: Message) -> int:
    from .terms import subterms

    return sum(1 for t in subterms(m) if isinstance(t, Enc))


def validate_rewrite_system(rules: Sequence[RewriteRule],
                            sample_atoms: Sequence[Atom] = (),
                            selection: Optional[Callable[[Atom, Message], Iterable[Atom]]] = None,
                            ) -> ValidationReport:
    """Checks each rule's keys-monotonicity by probing every metavariable
    with a fresh constant; optionally compares a selection on sample
    instantiations (its result on the rhs must not exceed the lhs)."""
    findings = []
    for rule in rules:
        metas = sorted(
            {a for a in atoms(rule.lhs) | atoms(rule.rhs) if a.sort is not Sort.CONSTANT},
            key=lambda a: a.name,
        )
        probes = {a: Atom(f"probe-{i}") for i, a in enumerate(metas)}
        inst = {a: Atomic(p) for a, p in probes.items()}
        lhs_i = substitute(rule.lhs, inst)
        rhs_i = substitute(rule.rhs, inst)
        monotone = True
        notes: list[str] = []
        for probe in list(probes.values()) + [a for a in atoms(rule.lhs) if a.sort is Sort.CONSTANT]:
            if not _family_shrinks(keys_of(probe, rhs_i), keys_of(probe, lhs_i)):
                monotone = False
                notes.append(f"guard family grows for {probe.display()}")
                break
        if monotone and _count_enc(rule.rhs) > _count_enc(rule.lhs):
            notes.append("selection review: right-hand side splits or multiplies encryptions")
        if monotone and selection is not None and sample_atoms:
            for combo in itertools.islice(itertools.product(sample_atoms, repeat=len(metas)), 16):
                smap = {a: Atomic(c) for a, c in zip(metas, combo)}
                l_s = substitute(rule.lhs, smap)
                r_s = substitute(rule.rhs, smap)
                for probe in combo:
                    try:
                        sel_r = set(selection(probe, r_s))
                        sel_l = set(selection(probe, l_s))
                    except AnalyzerError:
                        continue
                    if not sel_r <= sel_l:
                        notes.append(f"selection grows for {probe.display()}")
                        break
        findings.append(RuleFinding(rule, monotone, tuple(notes)))
    return ValidationReport(tuple(findings))
