"""Variable pruning and the closed/abstract valuation of a matched source.

Pruning erases chosen variables from a message (encryption keys are never
variables, so structure above survives).  The valuation of a candidate match
looks at the source two ways: with the queried atom fixed and every variable
erased, and once per source variable whose image contains the queried atom,
with that one variable kept.  The two views overlap by meet, so adding a
view can only tighten the answer.  The matches arrive as facts: the
parameter bindings of each, and the atoms of each source variable's image.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from .context import TOP, SecurityLevel, VerificationContext, meet
from .terms import (
    EMPTY,
    Atom,
    Message,
    Sort,
    Substitution,
    atoms,
    map_atoms,
    substitute,
    variables_of,
)

ValueFunction = Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]


def derive(m: Message, remove: Iterable[Atom]) -> Message:
    """Erase the given variables; other sorts are untouched."""
    gone = {a for a in remove if a.sort is Sort.VARIABLE}
    if not gone:
        return m
    return map_atoms(m, lambda a: EMPTY if a in gone else None)


def derive_all(m: Message) -> Message:
    """Erase every variable."""
    return derive(m, variables_of(m))


def derive_keeping(m: Message, keep: Atom) -> Message:
    """Erase every variable except the given one."""
    return derive(m, variables_of(m) - {keep})


Params = frozenset  # of (parameter, atom image), closed
Carried = tuple[Params, Atom, frozenset[Atom]]


def unifier_facts(source: Message, sigmas: Iterable[Substitution]) -> tuple[list[Params], list[Carried]]:
    """The facts of listed unifiers of the source, in the form
    `unify.linear_facts` gives: their distinct parameter bindings, and the
    distinct (bindings, source variable, atoms of the variable's image)."""
    finals: dict[Params, None] = {}
    carried: dict[Carried, None] = {}
    variables = variables_of(source)
    for sigma in sigmas:
        params = frozenset((a, m) for a, m in sigma.items() if a.sort is Sort.PARAMETER)
        finals[params] = None
        for var in variables:
            image = sigma.get(var)
            if image is not None:
                carried[(params, var, atoms(image))] = None
    return list(finals), list(carried)


def _view(source: Message, params: Params, memo: dict) -> tuple:
    """The source under a match's parameter bindings: the instance, its
    static view, the static view's atoms and a memo of levels, made once
    per bindings and kept in `memo`."""
    entry = memo.get(params)
    if entry is None:
        inst = substitute(source, dict(params))
        static_view = derive_all(inst)
        entry = memo[params] = (inst, static_view, atoms(static_view), {})
    return entry


def _level(F: ValueFunction, entry: tuple, a: Atom, ctx: VerificationContext) -> SecurityLevel:
    """The bound of one atom in the instance pruned down to it; keeping a
    non-variable erases every variable, which is the static view."""
    inst, static_view, _, levels = entry
    value = levels.get(a)
    if value is None:
        view = derive_keeping(inst, a) if a.sort is Sort.VARIABLE else static_view
        value = levels[a] = F(a, view, ctx)
    return value


def fact_levels(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                finals: Iterable[Params], carried: Iterable[Carried],
                ctx: VerificationContext) -> dict[Atom, SecurityLevel]:
    """The level that the matches of the source give each queried atom they
    say something about, read off the facts of those matches (from
    `unify.linear_facts` or `unifier_facts`) and met as each arrives.

    `finals` holds the parameter bindings of the matches; each gives the
    static view, which counts when the queried atom, or the source atom it
    was matched to, survives in the pruned instance.  `carried` holds
    (bindings, source variable, atoms of the variable's image) and gives
    the variable's dynamic view for every queried atom in that image.  Both
    views depend only on the bindings and one atom of the instance, so each
    such level is computed once for the source.
    """
    memo: dict[Params, tuple] = {}
    found: dict[Atom, SecurityLevel] = {}
    for params in finals:
        entry = _view(source, params, memo)
        images = dict(params)
        for alpha in alphas:
            # A fixed queried atom may have been matched by one of the
            # source's own names; the source then speaks about it under that
            # name.  A queried variable gets no such transfer: renaming it
            # tells us nothing about what it carries, only the dynamic view
            # does.
            probe = alpha if alpha.sort is Sort.VARIABLE else images.get(alpha, alpha)
            if probe in entry[2]:
                found[alpha] = meet(found.get(alpha, TOP), _level(F, entry, probe, ctx))
    for params, var, inside in carried:
        entry = _view(source, params, memo)
        for alpha in alphas:
            if alpha in inside:
                found[alpha] = meet(found.get(alpha, TOP), _level(F, entry, var, ctx))
    return found


def contribution_of(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                    sigma: Substitution, ctx: VerificationContext) -> Optional[dict[Atom, SecurityLevel]]:
    """The one-unifier case of `fact_levels`: the candidate's value for each
    queried atom it says something about, or None when it says nothing
    about any of them."""
    return fact_levels(F, alphas, source, *unifier_facts(source, [sigma]), ctx) or None
