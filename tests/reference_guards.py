"""The guard-family walkers as they were before one occurrence walk
(`secwitness.terms.occurrences`) replaced them, kept as the reference for
`secwitness.rewrite` and `secwitness.selection`.

Each function walks the message tree itself.  `check_well_protected` runs
`access`, and so a fresh normal form, once per atom of a member, iterating
the member's atoms as a frozenset, so its violations come in set order,
which changes from one process to the next.  `select` tests `alpha in atoms(...)`,
which counts an atom in a key position as an occurrence; on query atoms that
never occur as keys it agrees with the walk it was replaced by.  The tests
compare the two on random messages.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from message_helpers import EMPTY_FAMILY, family
from secwitness.context import VerificationContext, geq, inverse_key, is_identity, level_of
from secwitness.errors import WellProtectionViolation
from secwitness.rewrite import KeySetFamily, WellProtectedReport, normalize
from secwitness.selection import SelectionInstance
from secwitness.terms import Atom, Concat, Enc, Message, Sort, atoms, members


def keys_of(alpha: Atom, m: Union[Message, Iterable[Message]]) -> KeySetFamily:
    """For every occurrence of alpha, the set of keys wrapped around it;
    key positions themselves are not occurrences."""
    out = EMPTY_FAMILY
    for t in members(m):
        if isinstance(t, Atom) and t == alpha:
            out |= family(())
        elif isinstance(t, Concat):
            out |= keys_of(alpha, t.parts)
        elif isinstance(t, Enc):
            out |= frozenset(s | {t.key} for s in keys_of(alpha, t.body))
    return out


def access(alpha: Atom, m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> KeySetFamily:
    """Like keys_of but over the inverse keys needed to reach alpha, computed
    on the normal form."""

    def go(t: Message) -> KeySetFamily:
        if isinstance(t, Atom):
            return family(()) if t == alpha else EMPTY_FAMILY
        if isinstance(t, Concat):
            out = EMPTY_FAMILY
            for p in t.parts:
                out |= go(p)
            return out
        if isinstance(t, Enc):
            inner = go(t.body)
            return frozenset(s | {inverse_key(ctx, t.key)} for s in inner)
        return EMPTY_FAMILY

    out = EMPTY_FAMILY
    for t in members(m):
        out |= go(normalize(t, ctx))
    return out


def check_well_protected(target: Union[Message, Iterable[Message]],
                         ctx: VerificationContext) -> WellProtectedReport:
    """Every occurrence of a non-public atom must sit under at least one key
    whose level dominates the atom's.  Variables are exempt (their treatment
    belongs to the criterion layer)."""
    violations: list[tuple[Atom, Message, frozenset]] = []
    for m in members(target):
        for a in atoms(m):
            if a.sort is Sort.VARIABLE:
                continue
            lvl = level_of(ctx, a)
            if lvl.is_bottom:
                continue
            for keyset in access(a, m, ctx):
                if not any(geq(level_of(ctx, k), lvl) for k in keyset):
                    violations.append((a, m, keyset))
    return WellProtectedReport(not violations, tuple(violations))


def select(inst: SelectionInstance, alpha: Atom,
           m: Union[Message, Iterable[Message]],
           ctx: VerificationContext) -> Optional[frozenset[Atom]]:
    """Selection for one occurrence-carrying message or a set (union, in
    which None, everything, absorbs)."""
    alpha_level = level_of(ctx, alpha)

    def protective(key: Atom) -> bool:
        return geq(level_of(ctx, inverse_key(ctx, key)), alpha_level)

    def union(a: Optional[frozenset], b: Optional[frozenset]) -> Optional[frozenset]:
        return None if a is None or b is None else a | b

    def walk(t: Message) -> Optional[frozenset[Atom]]:
        if isinstance(t, Atom):
            if t != alpha:
                return frozenset()
            if alpha.sort is not Sort.VARIABLE and not alpha_level.is_bottom:
                raise WellProtectionViolation(alpha.display(), str(t))
            return None
        if isinstance(t, Concat):
            out: Optional[frozenset[Atom]] = frozenset()
            for p in t.parts:
                if alpha in atoms(p):
                    out = union(out, walk(p))
            return out
        if isinstance(t, Enc):
            in_body = alpha in atoms(t.body)
            if not in_body:
                return frozenset()  # key-position occurrences select nothing
            if protective(t.key):
                inv = inverse_key(ctx, t.key)
                chosen = set()
                if inst.names:
                    chosen |= {a for a in atoms(t.body) if is_identity(ctx, a)}
                if inst.key:
                    chosen.add(inv)
                return frozenset(chosen - {alpha})
            return walk(t.body)
        return frozenset()

    out: Optional[frozenset[Atom]] = frozenset()
    for t in members(m):
        t = normalize(t, ctx)
        if isinstance(t, Atom) and t == alpha:
            out = None
        elif alpha in atoms(t):
            out = union(out, walk(t))
    return out


def body_atoms_in_order(m: Message) -> list[Atom]:
    """Atoms in first-occurrence order, skipping key positions."""
    seen: list[Atom] = []

    def walk(t: Message) -> None:
        if isinstance(t, Atom):
            if t not in seen:
                seen.append(t)
        elif isinstance(t, Concat):
            for p in t.parts:
                walk(p)
        elif isinstance(t, Enc):
            walk(t.body)

    walk(m)
    return seen
