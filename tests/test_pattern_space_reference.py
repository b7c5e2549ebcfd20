"""The one-pass pattern space against the reference it replaced.

`roles.generalized_message_space` renumbers each pattern in one pass and
deduplicates by `pattern_shape`, a canonical message.
`reference_pattern_space` sorts each pattern's atoms, bumps in that order
and deduplicates by a tuple walk.  The two must give the same space on the
bundled handshakes, on n-party chains and on random role lists, and the
two shapes must call the same pairs of messages equal.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_pattern_space as reference
from secwitness.protocols import load_bundled
from secwitness.roles import (
    extract_generalized_roles,
    generalized_message_space,
    parse_protocol,
    pattern_shape,
    roles_for,
)
from secwitness.terms import CONSTANT, PARAMETER, VARIABLE, Atom, Enc, concat, map_atoms
from test_shared_search import chain_text

SUBJECTS = ["ns", "nsl"] + [f"chain{n}" for n in range(2, 9)]


def _protocol(name: str):
    if name.startswith("chain"):
        return parse_protocol(chain_text(int(name[len("chain"):])))
    return load_bundled(name)


@pytest.mark.parametrize("name", SUBJECTS)
def test_space_matches_the_reference(name):
    p = _protocol(name)
    for roles in (roles_for(p), extract_generalized_roles(p)):
        new = generalized_message_space(roles, p.context, p.fresh_owners)
        old = reference.generalized_message_space(roles, p.context, p.fresh_owners)
        assert new == old
        assert [str(m) for m in new] == [str(m) for m in old]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(SUBJECTS[:6]), st.data())
def test_space_of_random_role_lists_matches_the_reference(name, data):
    # any selection, order and repetition of the declared and computed views
    p = _protocol(name)
    views = list(p.declared_roles) + list(extract_generalized_roles(p))
    roles = data.draw(st.lists(st.sampled_from(views), max_size=8))
    new = generalized_message_space(roles, p.context, p.fresh_owners)
    assert new == reference.generalized_message_space(roles, p.context, p.fresh_owners)


ATOMS = [Atom(n, sort, tag, index)
         for n, index in (("A", None), ("A", 1), ("A", 2), ("Na", None), ("v0", None), ("v1", 3))
         for sort in (CONSTANT, PARAMETER, VARIABLE) for tag in (None, "i")]
KEYS = [a for a in ATOMS if a.sort is not VARIABLE]
MESSAGES = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: concat(*ps)),
        st.tuples(inner, st.sampled_from(KEYS)).map(lambda t: Enc(*t))),
    max_leaves=6)


@st.composite
def message_pairs(draw):
    """A random message, and either another one or a copy with its atoms
    renamed: parameters to another index, variables to any variable."""
    m = draw(MESSAGES)
    if draw(st.booleans()):
        return m, draw(MESSAGES)
    rename = {}
    for a in ATOMS:
        if a.sort is PARAMETER:
            rename[a] = Atom(a.name, PARAMETER, index=draw(st.integers(1, 3)))
        elif a.sort is VARIABLE:
            rename[a] = draw(st.sampled_from([b for b in ATOMS if b.sort is VARIABLE]))
    return m, map_atoms(m, rename.get)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(message_pairs())
def test_shapes_agree_with_the_reference(pair):
    m1, m2 = pair
    same = reference.pattern_shape(m1) == reference.pattern_shape(m2)
    assert (pattern_shape(m1) == pattern_shape(m2)) == same
