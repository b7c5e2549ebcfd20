"""`unify.unify_all` against the plain engine kept in `reference_bounds`.

The engine under test sends every pair that is neither two atoms, an atom
and a compound, nor two encryptions to the part-list matcher, the empty
message included; the reference keeps a case of its own for the empty
message.  Both must list the same unifiers in the same order, each with its
bindings in the same order, on random pairs: the empty message, nested
encryptions, parameter keys, and variables shared across the two sides, so
that the occurs check and chased bindings are reached.  Each listed
unifier must also make the two sides equal and be idempotent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds
from secwitness.terms import EMPTY, PARAMETER, VARIABLE, Atom, Enc, Message, concat, substitute, variables_of
from secwitness.unify import unify_all


def _p(name: str, index=None) -> Atom:
    return Atom(name, PARAMETER, index=index)


PARAMETERS = [_p("A"), _p("B"), _p("A", 1), _p("Na"), _p("kb")]
CONSTANTS = [Atom("I"), Atom("A"), Atom("kb")]
VARIABLES = [Atom(n, VARIABLE) for n in ("X", "Y", "Z")]
KEYS = [_p("kb"), _p("kb", 1), _p("ka"), Atom("kb")]

# both sides draw on the same three variables, so a variable is often
# shared between them
messages = st.recursive(
    st.sampled_from(PARAMETERS + CONSTANTS + VARIABLES + [EMPTY]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: concat(*parts)),
        st.builds(Enc, inner, st.sampled_from(KEYS))),
    max_leaves=8)


@st.composite
def instances(draw) -> tuple[Message, Message]:
    """A pattern and an instance of it, each variable replaced by a run of
    one to three messages and some parameters by other atoms, so that most
    pairs unify, and those with adjacent variables in several ways."""
    pattern = draw(messages)
    runs = st.lists(messages, min_size=1, max_size=3).map(lambda parts: concat(*parts))
    sigma = {v: draw(runs) for v in sorted(variables_of(pattern), key=lambda a: a.name)}
    sigma.update(draw(st.dictionaries(st.sampled_from(PARAMETERS), st.sampled_from(PARAMETERS + CONSTANTS))))
    return pattern, substitute(pattern, sigma)


def _flat(leaves: list[Atom], sizes: tuple[int, int]):
    """Encryptions whose bodies are runs of the given leaves."""
    bodies = st.integers(*sizes).flatmap(
        lambda n: st.lists(st.sampled_from(leaves), min_size=n, max_size=n))
    return st.builds(Enc, bodies.map(lambda parts: concat(*parts)), st.sampled_from(KEYS))


# a short body, mostly variables, against a longer one: the variables share
# out the longer side's parts, so a pair often has several unifiers
short_flat = _flat(VARIABLES + PARAMETERS[:2], (1, 4))
long_flat = _flat(PARAMETERS + CONSTANTS + VARIABLES, (2, 6))


def _listed(unifiers) -> list[list]:
    return [list(s.items()) for s in unifiers]


def _assert_same_unifiers(pattern: Message, target: Message) -> None:
    for x, y in ((pattern, target), (target, pattern)):
        unifiers = unify_all(x, y)
        assert _listed(unifiers) == _listed(reference_bounds.unify_all(x, y)), (x, y)
        for sigma in unifiers:
            # each unifier makes the two sides equal, and its bindings are
            # closed: no image holds a bound atom, so applying it is idempotent
            assert substitute(x, sigma) == substitute(y, sigma), (x, y, sigma)
            for image in sigma.values():
                assert substitute(image, sigma) == image, (x, y, sigma)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(messages, messages)
def test_random_pairs_list_the_reference_unifiers(pattern, target):
    _assert_same_unifiers(pattern, target)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(short_flat, long_flat)
def test_flat_pairs_list_the_reference_unifiers(pattern, target):
    _assert_same_unifiers(pattern, target)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(instances())
def test_pattern_and_instance_list_the_reference_unifiers(pair):
    _assert_same_unifiers(*pair)


def test_the_empty_message_unifies_only_with_itself_or_a_variable():
    X, Y = VARIABLES[:2]
    enc = Enc(concat(X, _p("A")), _p("kb"))
    assert _listed(unify_all(EMPTY, EMPTY)) == [[]]
    assert unify_all(EMPTY, enc) == unify_all(enc, EMPTY) == []
    assert unify_all(EMPTY, concat(X, Y)) == unify_all(concat(X, Y), EMPTY) == []
    assert _listed(unify_all(X, EMPTY)) == [[(X, EMPTY)]]
    assert _listed(unify_all(Enc(EMPTY, _p("kb")), Enc(X, Atom("kb")))) == [[(_p("kb"), Atom("kb")), (X, EMPTY)]]
    for pair in ((EMPTY, EMPTY), (EMPTY, enc), (EMPTY, concat(X, Y)), (X, EMPTY)):
        _assert_same_unifiers(*pair)


def test_a_variable_bound_to_the_empty_message_leaves_the_next_part_chased():
    X, Y = VARIABLES[:2]
    A, B, NA, KB = _p("A"), _p("B"), _p("Na"), _p("kb")
    left = concat(Enc(X, KB), Enc(Y, KB), Enc(concat(X, Y, A), KB))
    right = concat(Enc(EMPTY, KB), Enc(concat(B, NA), KB), Enc(concat(B, NA, A), KB))
    assert _listed(unify_all(left, right)) == [[(X, EMPTY), (Y, concat(B, NA))]]
    _assert_same_unifiers(left, right)
