"""Candidate selection and its valuation.

For each occurrence of a queried atom in the normal form, the selector looks
at the encryptions around it outside-in and stops at the first whose inverse
key is strong enough to read the queried atom's level.  What it keeps from
that spot is the instance's policy: the broad instance keeps the principal
names beside the atom plus the inverse key, the key-only instance keeps just
the inverse key, the neighbor instance keeps just the principal names.  A
selection is a set of atoms, or None where the queried atom stands alone or
unprotected, as a level's members are None at bottom.  The valuation maps a
selection to a level: None to bottom, the empty set to top, and otherwise
names stand for themselves, other atoms for their declared level, and
choices combine by meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .context import (
    BOTTOM,
    SecurityLevel,
    VerificationContext,
    finite,
    geq,
    inverse_key,
    is_identity,
    level_of,
    meet_all,
)
from .errors import WellProtectionViolation
from .rewrite import normalize
from .terms import Atom, Message, Sort, atoms, members, occurrences


@dataclass(frozen=True)
class SelectionInstance:
    """What a selection keeps at the protective encryption: the principal
    names in its body, its inverse key, or both; never the queried atom."""

    name: str
    names: bool
    key: bool


BROAD = SelectionInstance("fmax", names=True, key=True)
KEY_ONLY = SelectionInstance("fek", names=False, key=True)
NEIGHBORS = SelectionInstance("fn", names=True, key=False)

INSTANCES: dict[str, SelectionInstance] = {i.name: i for i in (BROAD, KEY_ONLY, NEIGHBORS)}


def select(inst: SelectionInstance, alpha: Atom,
           m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> Optional[frozenset[Atom]]:
    """Selection for one occurrence-carrying message or a set (union, in
    which None absorbs).  Each occurrence of alpha selects at its outermost
    protective encryption; key-position occurrences select nothing."""
    alpha_level = level_of(ctx, alpha)
    selected: set[Atom] = set()
    everything = False
    for t in members(m):
        t = normalize(t, ctx)
        if t == alpha:
            everything = True
            continue
        for a, around in occurrences(t):
            if a != alpha:
                continue
            for e in around:
                inv = inverse_key(ctx, e.key)
                if geq(level_of(ctx, inv), alpha_level):
                    if inst.key:
                        selected.add(inv)
                    if inst.names:
                        selected.update(a for a in atoms(e.body) if is_identity(ctx, a))
                    break
            else:
                if alpha.sort is not Sort.VARIABLE and not alpha_level.is_bottom:
                    raise WellProtectionViolation(alpha.display(), alpha.display())
                everything = True
    return None if everything else frozenset(selected - {alpha})


def psi(ctx: VerificationContext, selected: Optional[frozenset[Atom]]) -> SecurityLevel:
    """Valuation: None reads as bottom, the empty set as top; a principal
    name denotes itself, any other atom its declared level."""
    if selected is None:
        return BOTTOM
    return meet_all(finite([a.display()]) if is_identity(ctx, a) else level_of(ctx, a)
                    for a in selected)


def interpret(inst: SelectionInstance, alpha: Atom,
              m: Union[Message, Iterable[Message]],
              ctx: VerificationContext) -> SecurityLevel:
    """The composed bound: valuation of the selection.  A set's selection
    is the union of its members', whose valuation is the meet of theirs."""
    return psi(ctx, select(inst, alpha, m, ctx))


def value_function(name: str) -> Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]:
    """A named bound as a plain callable (atom, messages, ctx) -> level."""
    try:
        inst = INSTANCES[name]
    except KeyError:
        raise KeyError(f"unknown selection instance {name!r}; choose from {sorted(INSTANCES)}")

    def F(alpha: Atom, m: Union[Message, Iterable[Message]], ctx: VerificationContext) -> SecurityLevel:
        return interpret(inst, alpha, m, ctx)

    F.__name__ = f"F_{name}"
    return F
