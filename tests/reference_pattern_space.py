"""The pattern space as it was first written, kept as the reference.

Each pattern's atoms are sorted, every distinct owner and variable base
name is bumped in that order, and the renamed atoms are collected in a map
before the pattern is rebuilt.  Duplicates are found by comparing a tuple
built by a dedicated tree walk.  `secwitness.roles` renumbers in one pass
and compares patterns by a canonical message; the tests check the two
against each other.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from secwitness.context import VerificationContext
from secwitness.roles import GeneralizedRole, _owner
from secwitness.terms import PARAMETER, VARIABLE, Atom, Concat, Enc, Message, atoms, map_atoms, subterms


def _shape(m: Message, var_order: dict[Atom, int]) -> tuple:
    if isinstance(m, Atom):
        a = m
        if a.sort is VARIABLE:
            return ("V", var_order.setdefault(a, len(var_order)))
        if a.sort is PARAMETER:
            return ("P", a.name)
        return ("C", a.name, a.session_tag, a.index)
    if isinstance(m, Concat):
        return ("cat",) + tuple(_shape(p, var_order) for p in m.parts)
    if isinstance(m, Enc):
        return ("enc", _shape(m.body, var_order), _shape(m.key, var_order))
    return ("eps",)


def pattern_shape(m: Message) -> tuple:
    return _shape(m, {})


def generalized_message_space(roles: Sequence[GeneralizedRole],
                              ctx: VerificationContext,
                              fresh_owners: Optional[Mapping[str, str]] = None,
                              ) -> list[Message]:
    fresh_owners = fresh_owners or {}
    fullest: dict[str, GeneralizedRole] = {}
    order: list[str] = []
    for r in roles:
        key = r.agent.name
        if key not in fullest:
            order.append(key)
        if key not in fullest or len(r.steps) > len(fullest[key].steps):
            fullest[key] = r

    raw: list[Message] = []
    for agent_name in order:
        for st in fullest[agent_name].steps:
            for t in subterms(st.message):
                if isinstance(t, Enc):
                    raw.append(t)

    owner_counts: dict[str, int] = {}
    var_counts: dict[str, int] = {}
    space: list[Message] = []
    for pat in raw:
        pat_atoms = sorted(atoms(pat), key=lambda a: (a.name, a.display()))
        bumped: list[str] = []
        for a in pat_atoms:
            if a.sort is VARIABLE:
                continue
            o = _owner(a, ctx, fresh_owners)
            if o not in bumped:
                bumped.append(o)
                owner_counts[o] = owner_counts.get(o, 0) + 1
        vbumped: list[str] = []
        for a in pat_atoms:
            if a.sort is VARIABLE and a.name not in vbumped:
                vbumped.append(a.name)
                var_counts[a.name] = var_counts.get(a.name, 0) + 1
        pick: dict[Atom, Atom] = {}
        for a in pat_atoms:
            if a.sort is VARIABLE:
                pick[a] = Atom(a.name, VARIABLE, index=var_counts[a.name])
            else:
                o = _owner(a, ctx, fresh_owners)
                pick[a] = Atom(a.name, PARAMETER, index=owner_counts[o])
        space.append(map_atoms(pat, lambda a: pick[a]))

    seen: set[tuple] = set()
    final: list[Message] = []
    for pat in space:
        shape = pattern_shape(pat)
        if shape not in seen:
            seen.add(shape)
            final.append(pat)
    return final
