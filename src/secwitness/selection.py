"""Candidate selection and its valuation.

For each occurrence of a queried atom in the normal form, the selector looks
at the encryptions around it outside-in and stops at the first whose inverse
key is strong enough to read the queried atom's level.  One walk keeps two
sides from that spot: the inverse key, and the principal names in the
encryption's body; the queried atom itself is on neither side.  A selection
is the pair of sides, or None where the queried atom stands alone or
unprotected, as a level is None at bottom.  The valuation maps a side to a
level: the empty set to top, and otherwise names stand for themselves,
other atoms for their declared level, and choices combine by meet.  `fek`
values the key side, `fn` the names side and `fmax` both, so that
F_fmax(α, M) = F_fek(α, M) ⊓ F_fn(α, M).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .context import (
    SecurityLevel,
    VerificationContext,
    geq,
    inverse_key,
    is_identity,
    level_of,
    meet_all,
)
from .errors import WellProtectionViolation
from .rewrite import normalize
from .terms import Atom, Message, atoms, members, occurrences

# function name -> the sides of the selection it reads: 0 keys, 1 names
SIDES: dict[str, tuple[int, ...]] = {"fmax": (0, 1), "fek": (0,), "fn": (1,)}


def select(alpha: Atom, m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> Optional[tuple[frozenset[Atom], frozenset[Atom]]]:
    """(inverse keys, principal names) for one occurrence-carrying message
    or a set (union, in which None absorbs).  Each occurrence of alpha
    selects at its outermost protective encryption; key-position
    occurrences select nothing."""
    alpha_level = level_of(ctx, alpha)
    keys: set[Atom] = set()
    names: set[Atom] = set()
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
                    keys.add(inv)
                    names.update(b for b in atoms(e.body) if is_identity(ctx, b))
                    break
            else:
                if alpha_level is not None:
                    raise WellProtectionViolation(alpha.display(), alpha.display())
                everything = True
    return None if everything else (frozenset(keys - {alpha}), frozenset(names - {alpha}))


def psi(ctx: VerificationContext, selected: frozenset[Atom]) -> SecurityLevel:
    """Valuation of one side: the empty set reads as top; a principal name
    denotes itself, any other atom its declared level."""
    return meet_all(frozenset([a.display()]) if is_identity(ctx, a) else level_of(ctx, a)
                    for a in selected)


def interpret(function: str, alpha: Atom,
              m: Union[Message, Iterable[Message]],
              ctx: VerificationContext) -> SecurityLevel:
    """The named bound: bottom where nothing protects alpha, else the meet of
    the valuations of the sides the function reads."""
    selected = select(alpha, m, ctx)
    if selected is None:
        return None
    return meet_all(psi(ctx, selected[side]) for side in SIDES[function])


def value_function(name: str) -> Callable[[Atom, Union[Message, Iterable[Message]], VerificationContext], SecurityLevel]:
    """A named bound as a plain callable (atom, messages, ctx) -> level."""
    if name not in SIDES:
        raise KeyError(f"unknown selection instance {name!r}; choose from {sorted(SIDES)}")

    def F(alpha: Atom, m: Union[Message, Iterable[Message]], ctx: VerificationContext) -> SecurityLevel:
        return interpret(name, alpha, m, ctx)

    return F
