"""Variable pruning and the closed/abstract valuation of a matched source.

Pruning erases every variable of a message but at most one kept (encryption
keys are never variables, so structure above survives); `view` is the one
eraser, and substitutes parameter bindings in the same pass.  The valuation
of a candidate match looks at the source two ways: with the queried atom
fixed and every variable erased, and once per source variable whose image
contains the queried atom, with that one variable kept; variables whose
kept views read alike are valued through one of them.  The two views
overlap by meet, so adding a view can only tighten the answer.  The matches
arrive as facts, one map from each distinct set of parameter bindings to
the atoms that each source variable's images cover under it; the bound asks
no more of them.
"""

from __future__ import annotations

from typing import Callable, Container, Iterable, Optional, Sequence, Union

from .context import TOP, SecurityLevel, VerificationContext, level_of, meet
from .terms import (
    EMPTY,
    Atom,
    Message,
    Sort,
    Substitution,
    atoms,
    flatten,
    map_atoms,
    occurrences,
    variables_of,
)

ValueFunction = Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]


Params = frozenset  # of (parameter, atom image), closed
Facts = dict[Params, dict[Atom, set[Atom]]]


def unifier_facts(source: Message, sigmas: Iterable[Substitution]) -> Facts:
    """The facts of listed unifiers of the source, in the form
    `unify.linear_facts` gives: each distinct set of parameter bindings,
    mapped to the atoms that each source variable's images cover under
    those bindings."""
    facts: Facts = {}
    variables = variables_of(source)
    for sigma in sigmas:
        covered = facts.setdefault(
            frozenset((a, m) for a, m in sigma.items() if a.sort is Sort.PARAMETER), {})
        for var in variables:
            image = sigma.get(var)
            if image is not None:
                covered.setdefault(var, set()).update(atoms(image))
    return facts


def view(source: Message, images: dict[Atom, Atom], keep: Optional[Atom] = None) -> Message:
    """The source's instance under the parameter bindings, with every
    variable but `keep` erased, made in one pass: a parameter's image is a
    non-variable atom, so the instance has the source's variables, and
    erasing them from the instance is erasing them while substituting.
    With no bindings it is the pruning alone."""
    return map_atoms(source, lambda a: images.get(a) if a.sort is not Sort.VARIABLE
                     else None if a == keep else EMPTY)


def variable_groups(source: Message, ctx: VerificationContext) -> dict[Atom, object]:
    """Each variable of the source, in source order, mapped to its group.
    Where the context declares no rule, the source is flat (no encryption
    has another in its body) and each variable occurs once in it, the
    variables that sit in one top-level part and share a level form a
    group; in any other source each variable is its own group.
    `fact_levels` says why the members of a group share their level."""
    parts = flatten(source)
    if not ctx.rewrite_rules and all(isinstance(part, Atom) or all(
            isinstance(a, Atom) for a in flatten(part.body)) for part in parts):
        spots = [(i, a) for i, part in enumerate(parts)
                 for a in ((part,) if isinstance(part, Atom) else flatten(part.body))
                 if a.sort is Sort.VARIABLE]
        if len({a for _, a in spots}) == len(spots):
            return {a: (i, level_of(ctx, a)) for i, a in spots}
    return {a: a for a, _ in occurrences(source) if a.sort is Sort.VARIABLE}


def group_members(groups: dict[Atom, object],
                  variables: Container[Atom]) -> dict[Atom, list[Atom]]:
    """The given variables by their group in `groups`: the first of each
    group in source order, mapped to all of them."""
    members: dict[Atom, list[Atom]] = {}
    first: dict[object, Atom] = {}
    for var, group in groups.items():
        if var in variables:
            members.setdefault(first.setdefault(group, var), []).append(var)
    return members


def fact_levels(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                facts: Facts, ctx: VerificationContext) -> dict[Atom, SecurityLevel]:
    """The level that the matches of the source give each queried atom they
    say something about, read off the facts of those matches (from
    `unify.linear_facts` or `unifier_facts`) and met as each arrives.

    Each parameter bindings gives the static view, which counts when the
    queried atom, or the source atom it was matched to, survives in the
    pruned instance; and each source variable gives its dynamic view for
    every queried atom its images cover.  Both views depend only on the
    bindings and one atom of the instance, so each level is computed once
    per bindings, and each view is made from the source in one pass.

    `F` is a selection valuation, so where a bindings covers queried atoms
    through two or more variables, each group of `variable_groups` among
    them is valued once, through the view of its first such variable in
    source order, and that level is met into every queried atom the group
    covers.  The members of a group share their level.  Parameters bind
    only to atoms, so the instance of a flat source is flat too: no
    cancellation redex can form, and with no rule declared `normalize`
    leaves each view as it is.  Variables are never keys or principal
    names, so erasing one removes no encryption and no name from the body
    around another.  The selection of a variable that occurs once is then
    fixed by the one encryption around it (whether its inverse key reads
    the variable's level), that key and the names in its body, which are
    the same for every variable of that level there; a bare variable
    stands alone in its part, and reads bottom.

    Nested sources and rules are why the grouping stops there.  Under NS
    keys and fmax, Y in {Y.{X.B}_ka-1}_ka reads {A,B} in its view, and so
    does X in the instance, but X reads bottom in its own view, where
    erasing Y leaves the cancellation redex {{X.B}_ka-1}_ka.  A rule can
    fire on one view and not on another: with {P.Q.R}_kb -> {P}_kb.{Q.R}_kb,
    X in {X.A.B.Y}_kb reads top under fn and Y reads {B}.
    """
    found: dict[Atom, SecurityLevel] = {}
    groups: Optional[dict[Atom, object]] = None
    for params, covered in facts.items():
        images = dict(params)
        static_view = view(source, images)
        present = atoms(static_view)
        levels: dict[Atom, SecurityLevel] = {}
        for alpha in alphas:
            # A fixed queried atom may have been matched by one of the
            # source's own names; the source then speaks about it under that
            # name.  A queried variable gets no such transfer: renaming it
            # tells us nothing about what it carries, only the dynamic view
            # does.
            probe = alpha if alpha.sort is Sort.VARIABLE else images.get(alpha, alpha)
            if probe in present:
                if probe not in levels:
                    levels[probe] = F(probe, static_view, ctx)
                found[alpha] = meet(found.get(alpha, TOP), levels[probe])
        hits: dict[Atom, list[Atom]] = {}
        for var, inside in covered.items():
            hit = [alpha for alpha in alphas if alpha in inside]
            if hit:
                hits[var] = hit
        if len(hits) > 1:
            if groups is None:
                groups = variable_groups(source, ctx)
            hits = {member: list(dict.fromkeys(alpha for var in group for alpha in hits[var]))
                    for member, group in group_members(groups, hits).items()}
        for var, hit in hits.items():
            level = F(var, view(source, images, var), ctx)
            for alpha in hit:
                found[alpha] = meet(found.get(alpha, TOP), level)
    return found


def contribution_of(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                    sigma: Substitution, ctx: VerificationContext) -> Optional[dict[Atom, SecurityLevel]]:
    """The one-unifier case of `fact_levels`: the candidate's value for each
    queried atom it says something about, or None when it says nothing
    about any of them."""
    return fact_levels(F, alphas, source, unifier_facts(source, [sigma]), ctx) or None
