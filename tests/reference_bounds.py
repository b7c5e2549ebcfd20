"""The per-atom candidate search, kept as the reference for the shared one.

This is the straightforward form of the sent-side bound: for every atom on
its own, every protecting part of the send is unified with every pattern of
the pool, duplicates among the unifiers are dropped by a linear scan, and
each unifier is valued for that atom alone.  `secwitness.witness` computes
the same bounds for all atoms of a send in one pass; the tests check the
two against each other.
"""

from __future__ import annotations

from typing import Optional, Sequence

from secwitness.context import SecurityLevel, VerificationContext, level_of, meet_all
from secwitness.derive import ValueFunction, derive
from secwitness.errors import NoProtectivePattern
from secwitness.terms import (
    Atom,
    Message,
    Sort,
    Substitution,
    atoms,
    flatten,
    print_message,
    substitute,
    variables_of,
)
from secwitness.unify import _close, _unify


def derive_all(m: Message) -> Message:
    """Erase every variable."""
    return derive(m, variables_of(m))


def unify_all(pattern: Message, target: Message) -> list[Substitution]:
    seen = []
    for b in _unify(pattern, target, {}):
        s = _close(b)
        if s not in seen:
            seen.append(s)
    return seen


def contribution_of(F: ValueFunction, alpha: Atom, source: Message,
                    sigma: Substitution, ctx: VerificationContext) -> Optional[SecurityLevel]:
    param_only = {a: m for a, m in sigma.items() if a.sort is Sort.PARAMETER}
    inst = substitute(source, param_only)
    values: list[SecurityLevel] = []
    probe = alpha
    if alpha.sort is not Sort.VARIABLE:
        image = sigma.get(alpha)
        if isinstance(image, Atom):
            probe = image
    static_view = derive_all(inst)
    if probe in atoms(static_view):
        values.append(F(probe, static_view, ctx))
    for var in sorted(variables_of(source), key=lambda a: a.name):
        image = sigma.get(var)
        if image is None:
            continue
        if alpha in atoms(image):
            values.append(F(var, derive(inst, variables_of(inst) - {var}), ctx))
    if not values:
        return None
    return meet_all(values)


def candidate_values(target: Message, pool: Sequence[Message], ctx: VerificationContext,
                     alpha: Atom, F: ValueFunction) -> list[SecurityLevel]:
    values = []
    for pattern in pool:
        for sigma in unify_all(pattern, target):
            v = contribution_of(F, alpha, pattern, sigma, ctx)
            if v is not None:
                values.append(v)
    return values


def lower_bound(alpha: Atom, sent: Message, pool: Sequence[Message],
                F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    values: list[SecurityLevel] = []
    for part in flatten(sent):
        if isinstance(part, Atom):
            if part != alpha:
                continue
            if alpha.sort is Sort.VARIABLE or not level_of(ctx, alpha).is_bottom:
                raise NoProtectivePattern(alpha.display(), print_message(sent))
            continue
        if alpha not in atoms(part):
            continue
        values.extend(candidate_values(part, pool, ctx, alpha, F))
    return meet_all(values)


def lower_bound_or_none(alpha: Atom, sent: Message, pool: Sequence[Message],
                        F: ValueFunction, ctx: VerificationContext) -> Optional[SecurityLevel]:
    """The reference bound, with None where no pattern protects the atom."""
    try:
        return lower_bound(alpha, sent, pool, F, ctx)
    except NoProtectivePattern:
        return None
