"""Variable pruning and the closed/abstract valuation of a matched source.

Pruning erases chosen variables from a message (encryption keys are never
variables, so structure above survives).  The valuation of a candidate match
looks at the source two ways: with the queried atom fixed and every variable
erased, and once per source variable whose image contains the queried atom,
with that one variable kept.  The two views overlap by meet, so adding a
view can only tighten the answer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from .context import SecurityLevel, VerificationContext, meet_all
from .terms import (
    EMPTY,
    Atom,
    Atomic,
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


def _view(source: Message, params: frozenset, views: dict) -> tuple:
    """The source under a unifier's parameter bindings, given as a frozenset
    of (parameter, atomic image) pairs: the instance, its static view, the
    static view's atoms and a memo of levels, made once per bindings and
    kept in `views`."""
    entry = views.get(params)
    if entry is None:
        inst = substitute(source, dict(params))
        static_view = derive_all(inst)
        entry = views[params] = (inst, static_view, atoms(static_view), {})
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
                finals: Iterable[frozenset], carried: Iterable[tuple[frozenset, Atom, frozenset[Atom]]],
                ctx: VerificationContext, views: dict) -> dict[Atom, list[SecurityLevel]]:
    """The levels that matches of the source give each queried atom, read
    off the facts of those matches rather than the matches themselves.

    `finals` holds the parameter bindings of the matches; each gives the
    static view, which counts when the queried atom, or the source atom it
    was matched to, survives in the pruned instance.  `carried` holds
    (bindings, source variable, atoms of the variable's image) and gives
    the variable's dynamic view for every queried atom in that image.
    """
    found: dict[Atom, list[SecurityLevel]] = {alpha: [] for alpha in alphas}
    for params in finals:
        entry = _view(source, params, views)
        images = dict(params)
        for alpha in alphas:
            # A fixed queried atom may have been matched by one of the
            # source's own names; the source then speaks about it under that
            # name.  A queried variable gets no such transfer: renaming it
            # tells us nothing about what it carries, only the dynamic view
            # does.
            probe = alpha
            if alpha.sort is not Sort.VARIABLE:
                image = images.get(alpha)
                if isinstance(image, Atomic):
                    probe = image.atom
            if probe in entry[2]:
                found[alpha].append(_level(F, entry, probe, ctx))
    for params, var, inside in carried:
        entry = _view(source, params, views)
        for alpha in alphas:
            if alpha in inside:
                found[alpha].append(_level(F, entry, var, ctx))
    return found


def contribution_of(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                    sigma: Substitution, ctx: VerificationContext,
                    views: Optional[dict] = None) -> Optional[dict[Atom, SecurityLevel]]:
    """The candidate's value for each queried atom it says something about,
    or None when it says nothing about any of them.

    Static view: parameters of the source take their matched images (atomic
    images only ever arise there); all variables are erased; if the queried
    atom, or the source atom it was matched to, survives, the bound of that
    atom in the pruned source counts.  Dynamic view: each source variable
    whose image contains the queried atom contributes the bound of the
    variable in the source pruned down to it.

    Both views depend only on the unifier's parameter bindings and one atom
    of the instance, not on the queried atom.  A caller valuing several
    unifiers of the same source passes one `views` dict to all of them, so
    that each such level is computed once for the source.
    """
    params = frozenset((a, m) for a, m in sigma.items() if a.sort is Sort.PARAMETER)
    carried = []
    for var in sorted(variables_of(source), key=lambda a: a.name):
        image = sigma.image_of(var)
        if image is not None:
            carried.append((params, var, atoms(image)))
    levels = fact_levels(F, alphas, source, [params], carried, ctx, {} if views is None else views)
    found = {alpha: meet_all(values) for alpha, values in levels.items() if values}
    return found or None
