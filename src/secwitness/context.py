"""Security lattice and verification context.

The lattice is the powerset of principals ordered by reverse inclusion:
the more principals may read an atom, the lower its level.  Bottom (public,
readable by everyone) is kept symbolic instead of materializing "all
principals", because indexed stand-in identities (A_3 and friends) enter the
universe during analysis and must compare below every finite level.
Levels carry principal NAMES, not atom objects, so an identity reached as a
parameter and the same identity declared as a constant agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ContextError, MismatchedUniverse, NotAKey
from .terms import Atom, Sort


@dataclass(frozen=True)
class SecurityLevel:
    """members=None encodes bottom (every principal); frozenset() is top."""

    members: Optional[frozenset[str]] = None

    @property
    def is_bottom(self) -> bool:
        return self.members is None

    @property
    def is_top(self) -> bool:
        return self.members is not None and not self.members

    def __repr__(self) -> str:
        if self.is_bottom:
            return "⊥"
        if self.is_top:
            return "⊤"
        return "{" + ",".join(sorted(self.members)) + "}"


BOTTOM = SecurityLevel(None)
TOP = SecurityLevel(frozenset())


def finite(names: Iterable[str]) -> SecurityLevel:
    return SecurityLevel(frozenset(names))


def _require_level(x) -> None:
    if not isinstance(x, SecurityLevel):
        raise MismatchedUniverse(f"not a security level: {x!r}")


def geq(a: SecurityLevel, b: SecurityLevel) -> bool:
    """a dominates b: a's reader set is contained in b's."""
    _require_level(a)
    _require_level(b)
    if b.is_bottom:
        return True
    if a.is_bottom:
        return False
    return a.members <= b.members


def meet(a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
    _require_level(a)
    _require_level(b)
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    return SecurityLevel(a.members | b.members)


def join(a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
    _require_level(a)
    _require_level(b)
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    return SecurityLevel(a.members & b.members)


def meet_all(levels: Iterable[SecurityLevel]) -> SecurityLevel:
    out = TOP
    for lv in levels:
        out = meet(out, lv)
    return out


@dataclass(frozen=True)
class VerificationContext:
    principals: tuple[Atom, ...]
    intruder: Atom
    levels: Mapping[str, SecurityLevel]
    keys: Mapping[str, str]  # each key name to its inverse's, both ways round
    rewrite_rules: tuple = ()
    principal_names: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = frozenset(p.name for p in self.principals)
        object.__setattr__(self, "principal_names", names)
        if self.intruder.name not in names:
            raise ContextError("intruder must be one of the principals")
        for name, inverse in self.keys.items():
            if name not in self.levels and inverse not in self.levels:
                raise ContextError(
                    f"key pair {name}/{inverse} has no declared level on either side"
                )


def make_context(
    principals: Sequence[str],
    intruder: str,
    levels: Mapping[str, Iterable[str]],
    keys: Sequence[tuple[str, str]] = (),
    rewrite_rules: tuple = (),
) -> VerificationContext:
    """Convenience builder used by tests and the protocol loader; keys are
    (name, inverse) pairs, a symmetric key being its own inverse.  A name
    paired with two different partners is a ContextError; a repeated pair
    is read once."""
    atoms = tuple(Atom(p) for p in principals)
    key_index: dict[str, str] = {}
    for name, inverse in keys:
        for a, b in ((name, inverse), (inverse, name)):
            bound = key_index.setdefault(a, b)
            if bound != b:
                raise ContextError(f"key {a} is declared with two inverses, {bound} and {b}")
    lvls = {name: finite(members) for name, members in levels.items()}
    return VerificationContext(
        principals=atoms,
        intruder=Atom(intruder),
        levels=lvls,
        keys=key_index,
        rewrite_rules=rewrite_rules,
    )


def level_of(ctx: VerificationContext, a: Atom) -> SecurityLevel:
    """Declared level, or the public default.

    An atom is looked up by its name; its index and session tag are not
    part of its name.  Variables have no declared level; the selection and
    criterion layers give them their own treatment, and the public default
    here is what makes every key protective for them.
    """
    return ctx.levels.get(a.name, BOTTOM)


def may_read(ctx: VerificationContext, name: str, a: Atom) -> bool:
    """Whether the named principal is among the atom's readers."""
    lv = level_of(ctx, a)
    return lv.is_bottom or name in lv.members


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
    return a.sort is not Sort.VARIABLE and a.name in ctx.principal_names


def intruder_knowledge(ctx: VerificationContext) -> frozenset[Atom]:
    """K(I): every declared atomic name the intruder is allowed to read,
    identities included."""
    named = map(Atom, ctx.principal_names | set(ctx.levels) | set(ctx.keys))
    return frozenset(a for a in named if intruder_allowed(ctx, a))
