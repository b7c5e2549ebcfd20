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

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

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

    def __post_init__(self) -> None:
        names = {p.name for p in self.principals}
        if self.intruder.name not in names:
            raise ContextError("intruder must be one of the principals")
        for name, inverse in self.keys.items():
            if name not in self.levels and inverse not in self.levels:
                raise ContextError(
                    f"key pair {name}/{inverse} has no declared level on either side"
                )

    @property
    def principal_names(self) -> frozenset[str]:
        return frozenset(p.name for p in self.principals)


def make_context(
    principals: Sequence[str],
    intruder: str,
    levels: Mapping[str, Iterable[str]],
    keys: Sequence[tuple[str, str]] = (),
    rewrite_rules: tuple = (),
) -> VerificationContext:
    """Convenience builder used by tests and the protocol loader; keys are
    (name, inverse) pairs, a symmetric key being its own inverse."""
    atoms = tuple(Atom(p) for p in principals)
    key_index: dict[str, str] = {}
    for name, inverse in keys:
        key_index[name] = inverse
        key_index[inverse] = name
    lvls = {name: finite(members) for name, members in levels.items()}
    return VerificationContext(
        principals=atoms,
        intruder=Atom(intruder),
        levels=lvls,
        keys=key_index,
        rewrite_rules=rewrite_rules,
    )


def _name_chain(name: str) -> tuple[str, str, str]:
    """Lookup candidates for a written name: as-is, tag stripped, index
    stripped."""
    base = name.split("^", 1)[0]
    return name, base, Atom(base).base_name


def level_of(ctx: VerificationContext, x: Union[Atom, str]) -> SecurityLevel:
    """Declared level, or the public default.

    An atom is looked up by its name, then by its name with the index
    stripped; its session tag is not part of its name.  Variables have no
    declared level; the selection and criterion layers give them their own
    treatment, and the public default here is what makes every key protective
    for them.
    """
    levels = ctx.levels
    if isinstance(x, Atom):
        if x.name in levels:
            return levels[x.name]
        base = x.base_name
        return levels[base] if base in levels else BOTTOM
    for name in _name_chain(x):
        if name in levels:
            return levels[name]
    return BOTTOM


def may_read(ctx: VerificationContext, name: str, x: Union[Atom, str]) -> bool:
    """Whether the named principal is among the atom's readers."""
    lv = level_of(ctx, x)
    return lv.is_bottom or name in lv.members


def intruder_allowed(ctx: VerificationContext, x: Union[Atom, str]) -> bool:
    return may_read(ctx, ctx.intruder.name, x)


def inverse_key(ctx: VerificationContext, k: Atom) -> Atom:
    """Involutive inverse; an indexed copy keeps its index (kb_1 -> kb-1_1)."""
    base = k.base_name
    inverse = ctx.keys.get(base)
    if inverse is None:
        raise NotAKey(k.display())
    inv_name = inverse if k.index is None else f"{inverse}_{k.index}"
    return Atom(inv_name, k.sort, k.session_tag)


def is_identity(ctx: VerificationContext, a: Atom) -> bool:
    """True for principal identities, including indexed copies (A_3)."""
    return a.sort is not Sort.VARIABLE and a.base_name in ctx.principal_names


def intruder_knowledge(ctx: VerificationContext) -> frozenset[Atom]:
    """K(I): every declared atomic name the intruder is allowed to read,
    identities included."""
    named = ctx.principal_names | set(ctx.levels) | set(ctx.keys)
    return frozenset(Atom(name) for name in named if intruder_allowed(ctx, name))
