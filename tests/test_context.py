"""Security lattice and context lookup."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secwitness.context import (
    TOP,
    geq,
    intruder_allowed,
    intruder_knowledge,
    is_identity,
    join,
    level_of,
    make_context,
    may_read,
    meet,
    meet_all,
    show,
)
from secwitness.errors import ContextError
from secwitness.terms import CONSTANT, PARAMETER, VARIABLE, Atom

NAMES = ["A", "B", "C", "D", "S"]

levels = st.one_of(
    st.just(None),
    st.frozensets(st.sampled_from(NAMES), max_size=5),
)


@pytest.fixture(scope="module")
def ctx():
    return make_context(
        principals=["A", "B", "I"],
        intruder="I",
        levels={"Na": ["A", "B"], "ka-1": ["A"], "kb-1": ["B"],
                "pub": ["A", "B", "I"]},
        keys=[("ka", "ka-1"), ("kb", "kb-1")],
    )


def test_level_of_declared(ctx):
    assert level_of(ctx, Atom("Na")) == frozenset(["A", "B"])


def test_level_of_identity_is_public(ctx):
    assert level_of(ctx, Atom("A")) is None
    assert level_of(ctx, Atom("A", session_tag="i")) is None


def test_level_of_undeclared_constant_is_public(ctx):
    assert level_of(ctx, Atom("D")) is None


def test_level_of_matches_the_name_chain_lookup(ctx):
    # a level is found by the atom's name alone: session tag and index never
    # change it, and a name that merely looks indexed is a plain name; a
    # variable has no declared level, whatever its name, and reads bottom
    indexed = make_context(principals=["A", "I"], intruder="I",
                           levels={"Na_2": ["A"], "Nb": ["A", "I"], "kb-1": ["A"]},
                           keys=[("kb", "kb-1")])
    names = ["Na", "Na_2", "Nb", "kb-1", "ka-1", "A", "pub", "Q"]
    for c in (ctx, indexed):
        for name in names:
            for a in (Atom(name, sort, tag, index) for sort in (CONSTANT, PARAMETER, VARIABLE)
                      for tag in (None, "i", "G1") for index in (None, 0, 2, 5)):
                want = None if a.sort is VARIABLE else c.levels.get(name)
                assert level_of(c, a) == want, a
    assert level_of(indexed, Atom("Na", index=2)) is None
    assert level_of(indexed, Atom("Na_2", session_tag="i")) == frozenset(["A"])


def test_level_of_strips_index_and_tag(ctx):
    assert level_of(ctx, Atom("Na", PARAMETER, index=3)) == frozenset(["A", "B"])
    assert level_of(ctx, Atom("Na", session_tag="i")) == frozenset(["A", "B"])


def test_geq_reflexive_example():
    assert geq(frozenset(["A", "B"]), frozenset(["A", "B"]))


def test_meet_is_union():
    assert meet(frozenset(["A", "B"]), frozenset(["A"])) == frozenset(["A", "B"])


def test_geq_fails_on_extra_member():
    assert not geq(frozenset(["A", "B", "A_3"]), frozenset(["A", "B"]))


def test_meet_all_empty_is_top():
    assert meet_all([]) == TOP


def test_show():
    assert show(None) == "⊥"
    assert show(frozenset()) == "⊤" and show(TOP) == "⊤"
    assert show(frozenset(["B", "A_3", "A"])) == "{A,A_3,B}"


def test_intruder_allowed(ctx):
    assert not intruder_allowed(ctx, Atom("Na"))
    assert intruder_allowed(ctx, Atom("D"))          # public by default
    assert intruder_allowed(ctx, Atom("pub"))        # I is a member


def test_may_read(ctx):
    assert may_read(ctx, "A", Atom("ka-1")) and not may_read(ctx, "B", Atom("ka-1"))
    assert may_read(ctx, "B", Atom("Na", PARAMETER, "i", 3))  # index and tag ignored
    assert may_read(ctx, "C", Atom("D"))                           # public by default
    for name in ("Na", "ka-1", "kb-1", "D", "pub"):
        assert may_read(ctx, "I", Atom(name)) == intruder_allowed(ctx, Atom(name))


def test_intruder_must_be_principal():
    with pytest.raises(ContextError):
        make_context(["A", "B"], "I", {}, [])


def test_key_pair_needs_a_level():
    with pytest.raises(ContextError):
        make_context(["A", "I"], "I", {}, [("ka", "ka-1")])


@pytest.mark.parametrize("second", [("ka-1", "kb"), ("kb", "ka-1"), ("ka", "ka"), ("kb", "ka")])
def test_a_key_has_one_inverse(second):
    with pytest.raises(ContextError, match="two inverses"):
        make_context(["A", "I"], "I", {"ka-1": ["A"], "kb": ["A"]},
                     [("ka", "ka-1"), second])


def test_a_repeated_key_pair_is_read_once():
    levels = {"ka-1": ["A"], "k": ["A"]}
    once = make_context(["A", "I"], "I", levels, [("ka", "ka-1"), ("k", "k")])
    again = make_context(["A", "I"], "I", levels,
                         [("ka", "ka-1"), ("k", "k"), ("ka-1", "ka"), ("ka", "ka-1"), ("k", "k")])
    assert again.keys == once.keys == {"ka": "ka-1", "ka-1": "ka", "k": "k"}


def test_inverse_key_preserves_index(ctx):
    from secwitness.context import inverse_key
    assert inverse_key(ctx, Atom("kb", PARAMETER, index=1)) == Atom("kb-1", PARAMETER, index=1)


def test_is_identity(ctx):
    assert is_identity(ctx, Atom("A"))
    assert is_identity(ctx, Atom("A", PARAMETER, "i", 3))    # index and tag ignored
    assert not is_identity(ctx, Atom("A_3"))                     # a plain name
    assert not is_identity(ctx, Atom("Na"))
    assert not is_identity(ctx, Atom("A", VARIABLE))


def test_intruder_knowledge(ctx):
    known = {a.name for a in intruder_knowledge(ctx)}
    assert {"A", "B", "I", "pub"} <= known
    assert "Na" not in known and "ka-1" not in known


# --- lattice laws ---------------------------------------------------------


@given(levels)
def test_order_reflexive_and_bounded(a):
    assert geq(a, a)
    assert geq(a, None)
    assert geq(TOP, a)


@given(levels, levels)
def test_order_antisymmetric(a, b):
    if geq(a, b) and geq(b, a):
        assert a == b


@given(levels, levels, levels)
def test_order_transitive(a, b, c):
    if geq(a, b) and geq(b, c):
        assert geq(a, c)


@given(levels, levels)
def test_meet_is_lower_bound(a, b):
    m = meet(a, b)
    assert geq(a, m) and geq(b, m)


@given(levels, levels, levels)
def test_meet_is_greatest_lower_bound(a, b, c):
    if geq(a, c) and geq(b, c):
        assert geq(meet(a, b), c)


@given(levels, levels)
def test_meet_join_laws(a, b):
    assert meet(a, b) == meet(b, a)
    assert meet(a, a) == a
    assert join(a, meet(a, b)) == a          # absorption
    assert meet(a, join(a, b)) == a


@given(levels)
def test_meet_with_extremes(a):
    assert meet(a, TOP) == a
    assert meet(a, None) is None


@given(levels)
def test_top_and_bottom_stay_apart(a):
    # both are falsy, so a level is tested with `is None`, never for truth
    assert geq(TOP, a)
    assert geq(a, None)
    assert meet(a, None) is None
    assert join(a, None) == a
    assert (show(a) == "⊥") == (a is None)
    assert (show(a) == "⊤") == (a == TOP)
