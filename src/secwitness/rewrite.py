"""Normalization, key-guard analysis and the well-protection check.

The equational theory is encryption/decryption cancellation: encrypting under
a key and then under its inverse (in either order) is the identity.  In the
free algebra "decrypt with k" is written as encryption with k's inverse, so
the cancellation redex is a double encryption whose keys are mutually
inverse; normalization reduces it directly.  User-supplied rules extend the
system and must pass the keys-monotonicity check: a rewrite may strip guards
that the inverse key already discharges, but may never invent new ones on
the right-hand side.  A declared name in a rule matches the name and its
indexed copies, so a rule fires on role views and the pattern space as on
the steps; a metavariable's name carries no meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not
from typing import Iterable, Optional, Union

from .context import VerificationContext, geq, inverse_key, level_of
from .errors import ContextError, NonTermination, NotAKey
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
    """lhs -> rhs over rule metavariables and declared names.

    Variable-sorted atoms match whole submessages, Parameter-sorted atoms
    match single atoms (keys included).  A declared name (a constant)
    matches itself and its indexed copies, and the right-hand side gets back
    the copy it matched.  A metavariable's name only tells its occurrences
    apart: no two are tied together by their spelling.
    """

    lhs: Message
    rhs: Message

    def __post_init__(self) -> None:
        def metavars(m: Message) -> frozenset[Atom]:
            return frozenset(a for a in atoms(m) if a.sort is not Sort.CONSTANT)

        if not metavars(self.rhs) <= metavars(self.lhs):
            raise ContextError(f"rule {print_message(self.lhs)}: rhs introduces metavariables")


def _match(pattern: Message, term: Message,
           bindings: dict[Atom, Message]) -> Optional[dict[Atom, Message]]:
    """One-way structural matching of a rule pattern against a term.  A
    rule constant matches any non-variable atom with its name (the declared
    name itself, or a role view's indexed copy of it) and binds to it like a
    parameter, so its repeated occurrences must meet the same atom."""
    if isinstance(pattern, Atom):
        if pattern.sort is not Sort.VARIABLE and not isinstance(term, Atom):
            return None
        if pattern.sort is Sort.CONSTANT and (term.sort is Sort.VARIABLE
                                              or term.name != pattern.name):
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


def normalize(m: Message, ctx: VerificationContext) -> Message:
    """Leftmost-innermost normal form: at each position cancellation is
    tried first, then the context's rules in order; deterministic; raises
    NonTermination past NORMALIZE_BUDGET steps.  A subterm that no step
    changes comes back as the same object, m itself when m is in normal
    form."""
    try:
        return _norm(m, ctx, [0])
    except RecursionError:
        # runaway nesting from a growing rule set; same diagnosis as the
        # step budget, reached through depth instead of count
        raise NonTermination(NORMALIZE_BUDGET) from None


def _cancel(t: Message, ctx: VerificationContext) -> Optional[Message]:
    """m for {{m}_k'}_k when k' is k's inverse; None when t is no such redex."""
    if isinstance(t, Enc) and isinstance(t.body, Enc):
        try:
            if inverse_key(ctx, t.key) == t.body.key:
                return t.body.body
        except NotAKey:
            pass
    return None


def _norm(t: Message, ctx: VerificationContext, steps: list[int]) -> Message:
    # module level: a nested function that calls itself is a reference
    # cycle, which every call would leave behind for the collector.  A node
    # whose parts or body come back as the same objects is kept, not rebuilt
    while True:
        if isinstance(t, Concat):
            parts = [_norm(p, ctx, steps) for p in t.parts]
            if any(map(is_not, parts, t.parts)):
                t = concat(*parts)
        elif isinstance(t, Enc):
            body = _norm(t.body, ctx, steps)
            if body is not t.body:
                t = Enc(body, t.key)
        reduced = _cancel(t, ctx)
        if reduced is None:
            for rule in ctx.rewrite_rules:
                b = _match(rule.lhs, t, {})
                if b is not None:
                    reduced = substitute(rule.rhs, b)
                    break
            else:
                return t
        steps[0] += 1
        if steps[0] > NORMALIZE_BUDGET:
            raise NonTermination(NORMALIZE_BUDGET)
        t = reduced


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
    """Each guard set the result gives an atom of the left-hand side as
    written, metavariables included, must be contained in one the left-hand
    side already gave it: rewriting may remove keys, never add them.  A
    metavariable's sort keeps it apart from any declared name."""
    return all(all(any(sa <= sb for sb in keys_of(a, rule.lhs)) for sa in keys_of(a, rule.rhs))
               for a in atoms(rule.lhs))
