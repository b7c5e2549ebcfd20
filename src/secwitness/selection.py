"""Candidate selection and its valuation.

For each occurrence of a queried atom in the normal form, the selector looks
at the encryptions around it outside-in and stops at the first whose inverse
key is strong enough to read the queried atom's level.  What it keeps from
that spot is the instance's policy: the broad instance keeps the principal
names beside the atom plus the inverse key, the key-only instance keeps just
the inverse key, the neighbor instance keeps just the principal names.  The
valuation maps a selection to a level: names stand for themselves, other
atoms stand for their declared level, and choices combine by meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .context import (
    BOTTOM,
    TOP,
    SecurityLevel,
    VerificationContext,
    finite,
    geq,
    inverse_key,
    is_identity,
    level_of,
    meet_all,
)
from .errors import NotAKey, UnleveledKey, WellProtectionViolation
from .rewrite import normalize
from .terms import Atom, Atomic, Message, Sort, atoms, members, occurrences

CandidateFilter = Callable[[Atom, frozenset, Atom, VerificationContext], frozenset]


@dataclass(frozen=True)
class SelectionResult:
    """Either the distinguished everything-selection or a finite atom set."""

    all_atoms: bool = False
    members: frozenset = frozenset()

    def __or__(self, other: "SelectionResult") -> "SelectionResult":
        if self.all_atoms or other.all_atoms:
            return ALL_ATOMS
        return SelectionResult(False, self.members | other.members)


ALL_ATOMS = SelectionResult(all_atoms=True)
NO_ATOMS = SelectionResult()


def finite_selection(members: Iterable[Atom]) -> SelectionResult:
    return SelectionResult(False, frozenset(members))


@dataclass(frozen=True)
class SelectionInstance:
    """Policy applied at the protective encryption; the filter receives the
    queried atom, its sibling atoms under the key, and the inverse key, and
    whatever it returns is clipped back into that candidate pool."""

    name: str
    candidate_filter: CandidateFilter


def _identities(ctx: VerificationContext, pool: Iterable[Atom]) -> frozenset:
    return frozenset(a for a in pool if is_identity(ctx, a))


BROAD = SelectionInstance(
    "fmax", lambda alpha, neighbors, inv, ctx: _identities(ctx, neighbors) | {inv})
KEY_ONLY = SelectionInstance(
    "fek", lambda alpha, neighbors, inv, ctx: frozenset({inv}))
NEIGHBORS = SelectionInstance(
    "fn", lambda alpha, neighbors, inv, ctx: _identities(ctx, neighbors))

INSTANCES: dict[str, SelectionInstance] = {i.name: i for i in (BROAD, KEY_ONLY, NEIGHBORS)}


def instance(name: str) -> SelectionInstance:
    try:
        return INSTANCES[name]
    except KeyError:
        raise KeyError(f"unknown selection instance {name!r}; choose from {sorted(INSTANCES)}")


def select(inst: SelectionInstance, alpha: Atom,
           m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> SelectionResult:
    """Selection for one occurrence-carrying message or a set (union).  Each
    occurrence of alpha selects at its outermost protective encryption;
    key-position occurrences select nothing."""
    alpha_level = level_of(ctx, alpha)
    out = NO_ATOMS
    for t in members(m):
        t = normalize(t, ctx)
        if isinstance(t, Atomic) and t.atom == alpha:
            out = ALL_ATOMS
            continue
        for a, around in occurrences(t):
            if a != alpha:
                continue
            for e in around:
                try:
                    inv = inverse_key(ctx, e.key)
                except NotAKey:
                    raise UnleveledKey(e.key.display())
                if geq(level_of(ctx, inv), alpha_level):
                    neighbors = atoms(e.body) - {alpha}
                    chosen = inst.candidate_filter(alpha, neighbors, inv, ctx)
                    out = out | finite_selection(frozenset(chosen) & (neighbors | {inv}) - {alpha})
                    break
            else:
                if alpha.sort is not Sort.VARIABLE and not alpha_level.is_bottom:
                    raise WellProtectionViolation(alpha.display(), alpha.display())
                out = ALL_ATOMS
    return out


def psi(ctx: VerificationContext, result: SelectionResult) -> SecurityLevel:
    """Valuation: everything selected reads as public, nothing as top; a
    principal name denotes itself, any other atom its declared level."""
    if result.all_atoms:
        return BOTTOM
    values = []
    for a in sorted(result.members, key=lambda x: x.display()):
        if is_identity(ctx, a):
            values.append(finite([a.display()]))
        else:
            values.append(level_of(ctx, a))
    return meet_all(values) if values else TOP


def interpret(inst: SelectionInstance, alpha: Atom,
              m: Union[Message, Iterable[Message]],
              ctx: VerificationContext) -> SecurityLevel:
    """The composed bound: valuation of the selection.  A set's selection
    is the union of its members', whose valuation is the meet of theirs."""
    return psi(ctx, select(inst, alpha, m, ctx))


def value_function(name: str) -> Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]:
    """A named bound as a plain callable (atom, messages, ctx) -> level."""
    inst = instance(name)

    def F(alpha: Atom, m: Union[Message, Iterable[Message]], ctx: VerificationContext) -> SecurityLevel:
        return interpret(inst, alpha, m, ctx)

    F.__name__ = f"F_{name}"
    return F
