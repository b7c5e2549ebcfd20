"""Variable pruning and the closed/abstract valuation of a matched source.

Pruning erases every variable of a message but at most one kept (encryption
keys are never variables, so structure above survives); `view` is the one
eraser, and substitutes parameter bindings in the same pass.  The valuation
of a candidate match looks at the source two ways: with the queried atom
fixed and every variable erased, and once per source variable whose image
contains the queried atom, with that one variable kept under the name
`KEPT`, so that variables whose views differ only by that name ask the
value function the same question.  The two views overlap by meet, so adding
a view can only tighten the answer.  The matches arrive as facts, one map
from each distinct set of parameter bindings to the atoms that each source
variable's images cover under it; the bound asks no more of them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .context import TOP, SecurityLevel, VerificationContext, meet
from .terms import (
    EMPTY,
    PARAMETER,
    VARIABLE,
    Atom,
    Message,
    atoms,
    map_atoms,
    variables_of,
)

ValueFunction = Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]


Params = frozenset  # of (parameter, atom image), closed
Facts = dict[Params, dict[Atom, set[Atom]]]

# The one name a kept variable takes in its view.  A selection reads a
# variable only by equality with the queried atom, by its level (bottom for
# every variable) and by the encryptions around its occurrences; no variable
# is a key or a principal name, and rules match variables by structure only.
# `?` is no identifier, so no input holds KEPT and renaming a kept variable
# to it changes no level: a variable's level is that of KEPT in its view.
KEPT = Atom("?", VARIABLE)


def unifier_facts(source: Message, sigmas: Iterable[Mapping[Atom, Message]]) -> Facts:
    """The facts of listed unifiers of the source, each a closed map, in
    the form `unify.linear_facts` gives: each distinct set of parameter
    bindings, mapped to the atoms that each source variable's images cover
    under those bindings."""
    facts: Facts = {}
    variables = variables_of(source)
    for sigma in sigmas:
        covered = facts.setdefault(
            frozenset((a, m) for a, m in sigma.items() if a.sort is PARAMETER), {})
        for var in variables:
            image = sigma.get(var)
            if image is not None:
                covered.setdefault(var, set()).update(atoms(image))
    return facts


def view(source: Message, images: dict[Atom, Atom], keep: Optional[Atom] = None) -> Message:
    """The source's instance under the parameter bindings, with every
    variable but `keep` erased and `keep` renamed to `KEPT`, made in one
    pass: a parameter's image is a non-variable atom, so the instance has
    the source's variables, and erasing them from the instance is erasing
    them while substituting.  With no bindings it is the pruning alone."""
    return map_atoms(source, lambda a: images.get(a) if a.sort is not VARIABLE
                     else KEPT if a == keep else EMPTY)


def fact_levels(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                facts: Facts, ctx: VerificationContext) -> dict[Atom, SecurityLevel]:
    """The level that the matches of the source give each queried atom they
    say something about, read off the facts of those matches (from
    `unify.linear_facts` or `unifier_facts`) and met as each arrives.

    Each parameter bindings gives the static view, which counts when the
    queried atom, or the source atom it was matched to, survives in the
    pruned instance; and each source variable gives its dynamic view for
    every queried atom its images cover, valued as the level of `KEPT`.
    Each view is made from the source in one pass.
    """
    found: dict[Atom, SecurityLevel] = {}
    for params, covered in facts.items():
        images = dict(params)
        static_view = view(source, images)
        present = atoms(static_view)
        for alpha in alphas:
            # A fixed queried atom may have been matched by one of the
            # source's own names; the source then speaks about it under that
            # name.  A queried variable gets no such transfer: the bindings
            # hold parameters only and the static view no variable, so only
            # its dynamic views value it.
            probe = images.get(alpha, alpha)
            if probe in present:
                found[alpha] = meet(found.get(alpha, TOP), F(probe, static_view, ctx))
        for var, inside in covered.items():
            hit = [alpha for alpha in alphas if alpha in inside]
            if hit:
                level = F(KEPT, view(source, images, var), ctx)
                for alpha in hit:
                    found[alpha] = meet(found.get(alpha, TOP), level)
    return found


def contribution_of(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                    sigma: Mapping[Atom, Message], ctx: VerificationContext) -> Optional[dict[Atom, SecurityLevel]]:
    """The one-unifier case of `fact_levels`: the candidate's value for each
    queried atom it says something about, or None when it says nothing
    about any of them."""
    return fact_levels(F, alphas, source, unifier_facts(source, [sigma]), ctx) or None
