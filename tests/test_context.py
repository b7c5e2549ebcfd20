"""Security lattice and context lookup."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from secwitness.context import (
    BOTTOM,
    TOP,
    finite,
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
)
from secwitness.errors import ContextError, MismatchedUniverse
from secwitness.terms import Atom, Sort

NAMES = ["A", "B", "C", "D", "S"]

levels = st.one_of(
    st.just(BOTTOM),
    st.frozensets(st.sampled_from(NAMES), max_size=5).map(finite),
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
    assert level_of(ctx, Atom("Na")) == finite(["A", "B"])


def test_level_of_identity_is_public(ctx):
    assert level_of(ctx, Atom("A")) == BOTTOM
    assert level_of(ctx, Atom("A", session_tag="i")) == BOTTOM


def test_level_of_undeclared_constant_is_public(ctx):
    assert level_of(ctx, Atom("D")) == BOTTOM


def _level_by_name_chain(ctx, x):
    """level_of as it looked names up before atoms took a direct path."""
    if isinstance(x, Atom):
        chain = [x.name, x.base_name]
    else:
        base = x.split("^", 1)[0]
        chain = [x, base]
        stripped = Atom(base).base_name
        chain.append(stripped)
    out = []
    for c in chain:
        if c not in out:
            out.append(c)
    for name in out:
        if name in ctx.levels:
            return ctx.levels[name]
    return BOTTOM


def test_level_of_matches_the_name_chain_lookup(ctx):
    indexed = make_context(principals=["A", "I"], intruder="I",
                           levels={"Na_2": ["A"], "Nb": ["A", "I"], "kb-1": ["A"]},
                           keys=[("kb", "kb-1")])
    names = ["Na", "Na_3", "Na_2", "Na_2_5", "Nb_7", "kb-1", "kb-1_4", "ka-1_0", "A", "A_3",
             "pub", "Q", "Q_1", "_2"]
    atoms_ = [Atom(n, sort, tag) for n in names
              for sort in (Sort.CONSTANT, Sort.PARAMETER, Sort.VARIABLE)
              for tag in (None, "i", "G1")]
    strings = names + [f"{n}^{t}" for n in names for t in ("i", "G1", "")] + ["Na^i^j"]
    for c in (ctx, indexed):
        for x in atoms_ + strings:
            assert level_of(c, x) == _level_by_name_chain(c, x), x
    assert level_of(indexed, Atom("Na_2", session_tag="i")) == finite(["A"])
    assert level_of(indexed, "Na_2^i") == finite(["A"])


def test_level_of_strips_index_and_tag(ctx):
    assert level_of(ctx, Atom("Na_3", Sort.PARAMETER)) == finite(["A", "B"])
    assert level_of(ctx, Atom("Na", session_tag="i")) == finite(["A", "B"])


def test_geq_reflexive_example():
    assert geq(finite(["A", "B"]), finite(["A", "B"]))


def test_meet_is_union():
    assert meet(finite(["A", "B"]), finite(["A"])) == finite(["A", "B"])


def test_geq_fails_on_extra_member():
    assert not geq(finite(["A", "B", "A_3"]), finite(["A", "B"]))


def test_meet_all_empty_is_top():
    assert meet_all([]) == TOP


def test_intruder_allowed(ctx):
    assert not intruder_allowed(ctx, Atom("Na"))
    assert intruder_allowed(ctx, Atom("D"))          # public by default
    assert intruder_allowed(ctx, Atom("pub"))        # I is a member


def test_may_read(ctx):
    assert may_read(ctx, "A", Atom("ka-1")) and not may_read(ctx, "B", Atom("ka-1"))
    assert may_read(ctx, "B", Atom("Na_3", Sort.PARAMETER, "i"))   # index and tag ignored
    assert may_read(ctx, "C", Atom("D"))                           # public by default
    for name in ("Na", "ka-1", "kb-1", "D", "pub"):
        assert may_read(ctx, "I", name) == intruder_allowed(ctx, name)


def test_mismatched_operand():
    with pytest.raises(MismatchedUniverse):
        geq(finite(["A"]), "not a level")
    with pytest.raises(MismatchedUniverse):
        meet(finite(["A"]), None)


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
    assert inverse_key(ctx, Atom("kb_1", Sort.PARAMETER)) == Atom("kb-1_1", Sort.PARAMETER)


def test_is_identity(ctx):
    assert is_identity(ctx, Atom("A"))
    assert is_identity(ctx, Atom("A_3", Sort.PARAMETER))
    assert not is_identity(ctx, Atom("Na"))
    assert not is_identity(ctx, Atom("A", Sort.VARIABLE))


def test_intruder_knowledge(ctx):
    known = {a.name for a in intruder_knowledge(ctx)}
    assert {"A", "B", "I", "pub"} <= known
    assert "Na" not in known and "ka-1" not in known


# --- lattice laws ---------------------------------------------------------


@given(levels)
def test_order_reflexive_and_bounded(a):
    assert geq(a, a)
    assert geq(a, BOTTOM)
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
    assert meet(a, BOTTOM) == BOTTOM
