"""Normalization, key-guard analysis and the well-protection check.

The equational theory is encryption/decryption cancellation: encrypting under
a key and then under its inverse (in either order) is the identity.  In the
free algebra "decrypt with k" is written as encryption with k's inverse, so
the cancellation redex is a double encryption whose keys are mutually
inverse.  User-supplied rules extend the system and must pass the
keys-monotonicity check: a rewrite may strip guards that the inverse key
already discharges, but may never invent new ones on the right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .context import VerificationContext, geq, inverse_key, level_of
from .errors import NonTermination, NotAKey, UnboundRuleVariable
from .terms import (
    Atom,
    Concat,
    Empty,
    Enc,
    Message,
    Sort,
    atoms,
    concat,
    flatten,
    members,
    occurrences,
    print_message,
    substitute,
)

KeySetFamily = frozenset  # of frozenset[Atom]

# Rewrite steps one normal form may take before NonTermination
NORMALIZE_BUDGET = 10_000


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
    RewriteRule(Enc(Enc(_CANCEL_M, _CANCEL_KINV), _CANCEL_K), _CANCEL_M, name="cancel-enc-dec"),
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


def _match(pattern: Message, term: Message,
           bindings: dict[Atom, Message]) -> Optional[dict[Atom, Message]]:
    """One-way structural matching of a rule pattern against a term."""
    if isinstance(pattern, Atom):
        if pattern.sort is Sort.CONSTANT:
            return bindings if term == pattern else None
        if pattern.sort is Sort.PARAMETER and not isinstance(term, Atom):
            return None
        bound = bindings.get(pattern)
        if bound is not None:
            return bindings if bound == term else None
        out = dict(bindings)
        out[pattern] = term
        return out
    if isinstance(pattern, Enc):
        if not isinstance(term, Enc):
            return None
        b = _match(pattern.key, term.key, bindings)
        if b is None:
            return None
        return _match(pattern.body, term.body, b)
    if isinstance(pattern, Concat):
        if not isinstance(term, Concat):
            return None
        return _match_lists(list(pattern.parts), list(term.parts), bindings)
    if isinstance(pattern, Empty):
        return bindings if isinstance(term, Empty) else None
    return None


def _match_lists(ps: list[Message], ts: list[Message],
                 bindings: dict[Atom, Message]) -> Optional[dict[Atom, Message]]:
    if not ps:
        return bindings if not ts else None
    head = ps[0]
    if isinstance(head, Atom) and head.sort is Sort.VARIABLE:
        bound = bindings.get(head)
        if bound is not None:
            k = len(flatten(bound))
            if len(ts) >= k and concat(*ts[:k]) == bound:
                return _match_lists(ps[1:], ts[k:], bindings)
            return None
        # a variable metavariable may absorb one or more consecutive parts
        for k in range(1, len(ts) - len(ps) + 2):
            out = dict(bindings)
            out[head] = concat(*ts[:k])
            res = _match_lists(ps[1:], ts[k:], out)
            if res is not None:
                return res
        return None
    if not ts:
        return None
    b = _match(head, ts[0], bindings)
    if b is None:
        return None
    return _match_lists(ps[1:], ts[1:], b)


def _try_rule(rule: RewriteRule, term: Message, ctx: VerificationContext) -> Optional[Message]:
    b = _match(rule.lhs, term, {})
    if b is None:
        return None
    for a, partner in _inverse_pairs(b):
        ia, ip = b[a], b[partner]
        if not (isinstance(ia, Atom) and isinstance(ip, Atom)):
            return None
        try:
            if inverse_key(ctx, ia) != ip:
                return None
        except NotAKey:
            return None
    return substitute(rule.rhs, b)


def normalize(m: Message, ctx: VerificationContext) -> Message:
    """Leftmost-innermost normal form under the default rule plus the
    context's extra rules; deterministic; raises NonTermination past
    NORMALIZE_BUDGET steps."""
    rules = default_rules() + tuple(ctx.rewrite_rules)
    try:
        return _norm(m, rules, ctx, [0])
    except RecursionError:
        # runaway nesting from a growing rule set; same diagnosis as the
        # step budget, reached through depth instead of count
        raise NonTermination(NORMALIZE_BUDGET) from None


def _norm(t: Message, rules: tuple, ctx: VerificationContext, steps: list[int]) -> Message:
    # module level: a nested function that calls itself is a reference
    # cycle, which every call would leave behind for the collector
    while True:
        if isinstance(t, Concat):
            t = concat(*(_norm(p, rules, ctx, steps) for p in t.parts))
        elif isinstance(t, Enc):
            t = Enc(_norm(t.body, rules, ctx, steps), t.key)
        for rule in rules:
            reduced = _try_rule(rule, t, ctx)
            if reduced is not None:
                steps[0] += 1
                if steps[0] > NORMALIZE_BUDGET:
                    raise NonTermination(NORMALIZE_BUDGET)
                t = reduced
                break
        else:
            return t


# ---------------------------------------------------------------------------
# Guard families


def keys_of(alpha: Atom, m: Union[Message, Iterable[Message]]) -> KeySetFamily:
    """For every occurrence of alpha, the set of keys wrapped around it;
    key positions themselves are not occurrences."""
    return frozenset(frozenset(e.key for e in around)
                     for t in members(m) for a, around in occurrences(t) if a == alpha)


def access(alpha: Atom, m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> KeySetFamily:
    """Like keys_of but over the inverse keys needed to reach alpha, computed
    on the normal form."""
    return frozenset(frozenset(inverse_key(ctx, e.key) for e in around)
                     for t in members(m)
                     for a, around in occurrences(normalize(t, ctx)) if a == alpha)


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
    belongs to the criterion layer).  The atoms of each member as written are
    checked on its normal form; violations come in occurrence order, one per
    distinct (atom, inverse-key set) of a member."""
    violations: list[tuple[Atom, Message, frozenset]] = []
    for m in members(target):
        levels = {a: lvl for a in atoms(m) if a.sort is not Sort.VARIABLE
                  and not (lvl := level_of(ctx, a)).is_bottom}
        if not levels:
            continue
        seen: set[tuple[Atom, frozenset]] = set()
        for a, around in occurrences(normalize(m, ctx)):
            lvl = levels.get(a)
            if lvl is None:
                continue
            keyset = frozenset(inverse_key(ctx, e.key) for e in around)
            if (a, keyset) in seen:
                continue
            seen.add((a, keyset))
            if not any(geq(level_of(ctx, k), lvl) for k in keyset):
                violations.append((a, m, keyset))
    return WellProtectedReport(not violations, tuple(violations))


# ---------------------------------------------------------------------------
# Rule validation


def keys_monotone(rule: RewriteRule) -> bool:
    """Probes every metavariable with a fresh constant: each guard set the
    result gives an atom of the redex must be contained in one the redex
    already gave it, since rewriting may remove keys, never add them."""
    metas = sorted({a for a in atoms(rule.lhs) if a.sort is not Sort.CONSTANT},
                   key=lambda a: a.name)
    inst = {a: Atom(f"probe-{i}") for i, a in enumerate(metas)}
    lhs, rhs = substitute(rule.lhs, inst), substitute(rule.rhs, inst)
    for probe in atoms(lhs):
        before = keys_of(probe, lhs)
        if not all(any(sa <= sb for sb in before) for sa in keys_of(probe, rhs)):
            return False
    return True
