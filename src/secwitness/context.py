"""Security lattice and verification context.

The lattice is the powerset of principals ordered by reverse inclusion:
the more principals may read an atom, the lower its level.  A level is the
frozenset of names that may read a value, top the empty set and bottom None
rather than "all principals", because indexed stand-in identities (A_3 and
friends) enter the universe during analysis and must compare below every set.
Levels carry principal NAMES, not atom objects, so an identity reached as a
parameter and the same identity declared as a constant agree.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ContextError, NotAKey
from .terms import VARIABLE, Atom


SecurityLevel = Optional[frozenset]
TOP: SecurityLevel = frozenset()


def show(level: SecurityLevel) -> str:
    """⊥, ⊤, or the sorted names in braces."""
    if level is None:
        return "⊥"
    if not level:
        return "⊤"
    return "{" + ",".join(sorted(level)) + "}"


def geq(a: SecurityLevel, b: SecurityLevel) -> bool:
    """a dominates b: a's reader set is contained in b's."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def meet(a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
    if a is None or b is None:
        return None
    return a | b


def join(a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def meet_all(levels: Iterable[SecurityLevel]) -> SecurityLevel:
    out = TOP
    for lv in levels:
        out = meet(out, lv)
    return out


class VerificationContext(NamedTuple):
    principals: tuple[Atom, ...]
    intruder: Atom
    levels: Mapping[str, SecurityLevel]
    keys: Mapping[str, str]  # each key name to its inverse's, both ways round
    rewrite_rules: tuple
    principal_names: frozenset[str]


def make_context(
    principals: Sequence[str],
    intruder: str,
    levels: Mapping[str, Iterable[str]],
    keys: Sequence[tuple[str, str]] = (),
    rewrite_rules: tuple = (),
) -> VerificationContext:
    """The only builder of a context, used by tests and the protocol loader;
    keys are (name, inverse) pairs, a symmetric key being its own inverse.
    A name paired with two different partners, an intruder that is not a
    principal and a key pair with no declared level on either side are each
    a ContextError; a repeated pair is read once."""
    atoms = tuple(Atom(p) for p in principals)
    key_index: dict[str, str] = {}
    for name, inverse in keys:
        for a, b in ((name, inverse), (inverse, name)):
            bound = key_index.setdefault(a, b)
            if bound != b:
                raise ContextError(f"key {a} is declared with two inverses, {bound} and {b}")
    lvls = {name: frozenset(members) for name, members in levels.items()}
    names = frozenset(principals)
    if intruder not in names:
        raise ContextError("intruder must be one of the principals")
    for name, inverse in key_index.items():
        if name not in lvls and inverse not in lvls:
            raise ContextError(f"key pair {name}/{inverse} has no declared level on either side")
    return VerificationContext(atoms, Atom(intruder), lvls, key_index, rewrite_rules, names)


def level_of(ctx: VerificationContext, a: Atom) -> SecurityLevel:
    """Declared level, or the public default.

    An atom is looked up by its name; its index and session tag are not
    part of its name.  Variables have no declared level, whatever their
    name, and read bottom; the selection and criterion layers give them
    their own treatment, and bottom here is what makes every key protective
    for them.
    """
    return None if a.sort is VARIABLE else ctx.levels.get(a.name)


def may_read(ctx: VerificationContext, name: str, a: Atom) -> bool:
    """Whether the named principal is among the atom's readers."""
    lv = level_of(ctx, a)
    return lv is None or name in lv


def intruder_allowed(ctx: VerificationContext, a: Atom) -> bool:
    return may_read(ctx, ctx.intruder.name, a)


def inverse_key(ctx: VerificationContext, k: Atom) -> Atom:
    """Involutive inverse; an indexed copy keeps its index (kb_1 -> kb-1_1)."""
    inverse = ctx.keys.get(k.name)
    if inverse is None:
        raise NotAKey(k.display())
    return Atom(inverse, k.sort, k.session_tag, k.index)


def is_identity(ctx: VerificationContext, a: Atom) -> bool:
    """True for principal identities, including indexed copies (A_3)."""
    return a.sort is not VARIABLE and a.name in ctx.principal_names


def intruder_knowledge(ctx: VerificationContext) -> frozenset[Atom]:
    """K(I): every declared atomic name the intruder is allowed to read,
    identities included."""
    named = map(Atom, ctx.principal_names | set(ctx.levels) | set(ctx.keys))
    return frozenset(a for a in named if intruder_allowed(ctx, a))
