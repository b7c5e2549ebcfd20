"""`rewrite._match` against the generate-and-test first match in
`reference_match`.

The left sides are rules' left sides: variable metavariables that repeat
(`{X}_kb.X`), a parameter in a key position that comes back in a message
position, and declared names, which match their indexed and session-tagged
copies but not a variable of their name.  Each term is an instance of the
left side, an instance with one atom swapped, or an instance of another left
side, so that both matches and misses are reached.

`_match_lists` backtracks over the runs of the list it walks, but takes the
first match an encryption's body gives and does not come back to it.  So
when a body holds two variable metavariables, a later part that needs
another split of that body is not matched: the first-match comparison
covers left sides without such a body, the soundness check covers every
left side, and the missed split is pinned below.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_match import first_match
from secwitness.rewrite import _match
from secwitness.terms import PARAMETER, VARIABLE, Atom, Concat, Enc, Message, atoms, concat, map_atoms, substitute

X, Y, Z = (Atom(n, VARIABLE) for n in "XYZ")
P, K = Atom("P", PARAMETER), Atom("K", PARAMETER)
A, NA, KB = Atom("A"), Atom("Na"), Atom("kb")
a, b, c, ka = Atom("a"), Atom("b"), Atom("c"), Atom("ka")

# what each left-side atom may stand for in a term
COPIES = {
    A: [A, Atom("A", index=3), Atom("A", session_tag="i")],
    NA: [NA, Atom("Na", index=2), Atom("Na", PARAMETER, "i")],
    KB: [KB, Atom("kb", index=1)],
    P: [a, b, NA, Atom("V", VARIABLE)],
    K: [ka, KB, Atom("kb", index=1)],
}
GROUND = [a, b, c, NA, Atom("Na", VARIABLE), Atom("Na", index=2), Enc(a, KB)]

atom_part = st.sampled_from([X, Y, Z, P, A, NA])
# a run of variable metavariables is where a list has more than one split
variable_run = st.lists(st.sampled_from([X, Y, Z]), min_size=2, max_size=3).map(
    lambda parts: concat(*parts))
enc = st.builds(lambda parts, key: Enc(concat(*parts), key),
                st.lists(st.one_of(atom_part, variable_run,
                                   st.builds(Enc, atom_part, st.sampled_from([KB, K]))),
                         min_size=1, max_size=3),
                st.sampled_from([KB, K]))
left_sides = st.lists(st.one_of(atom_part, variable_run, enc, st.just(K)),
                      min_size=1, max_size=4).map(lambda parts: concat(*parts))


def _atoms(m: Message) -> list[Atom]:
    return sorted(set(atoms(m)), key=Atom.display)


@st.composite
def instances(draw, lhs: Message) -> Message:
    """An instance of the left side, or one that misses it."""
    images = {}
    for v in _atoms(lhs):
        if v.sort is VARIABLE:
            images[v] = concat(*draw(st.lists(st.sampled_from(GROUND), min_size=1, max_size=3)))
        else:
            images[v] = draw(st.sampled_from(COPIES[v]))
    term = substitute(lhs, images)
    how = draw(st.sampled_from(["instance", "instance", "swap", "other"]))
    if how == "swap":
        old = draw(st.sampled_from(_atoms(term)))
        new = draw(st.sampled_from([a, c, ka, Atom("A", index=3)]))
        term = map_atoms(term, {old: new}.get)
    elif how == "other":
        term = draw(instances(draw(left_sides)))
    return term


def _splits_inside(m: Message) -> bool:
    """Whether some encryption's body holds two variable metavariables."""
    if isinstance(m, Enc):
        names = {v for v in _atoms(m.body) if v.sort is VARIABLE}
        return len(names) > 1 or _splits_inside(m.body)
    return isinstance(m, Concat) and any(map(_splits_inside, m.parts))


pairs = left_sides.flatmap(lambda lhs: st.tuples(st.just(lhs), instances(lhs)))

REPEATED = concat(Enc(X, KB), X)
KEYED = concat(Enc(concat(X, P), K), K)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pairs.filter(lambda pair: not _splits_inside(pair[0])))
@example((REPEATED, concat(Enc(concat(a, b), KB), a, b)))
@example((REPEATED, concat(Enc(concat(a, b), KB), a)))
@example((KEYED, concat(Enc(concat(a, b, c), Atom("kb", index=1)), Atom("kb", index=1))))
@example((KEYED, concat(Enc(concat(a, b), KB), ka)))
@example((concat(X, Enc(concat(NA, Y), KB), Y),
          concat(a, b, Enc(concat(Atom("Na", index=2), c, a), Atom("kb", index=1)), c, a)))
@example((concat(NA, X), concat(Atom("Na", VARIABLE), a)))
def test_first_match_is_the_reference_first_match(pair):
    lhs, term = pair
    assert _match(lhs, term, {}) == first_match(lhs, term)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs)
def test_a_match_is_an_instance_and_a_miss_has_none(pair):
    lhs, term = pair
    got = _match(lhs, term, {})
    if got is None:
        return
    assert substitute(lhs, got) == term
    assert first_match(lhs, term) is not None


@pytest.mark.xfail(strict=True, reason="the split of an encryption's body is not retried")
def test_a_later_part_may_need_another_split_of_a_body():
    lhs = concat(Enc(concat(X, Y), KB), X)
    term = concat(Enc(concat(a, b, c), KB), a, b)
    assert first_match(lhs, term) == {KB: KB, X: concat(a, b), Y: c}
    assert _match(lhs, term, {}) == first_match(lhs, term)
