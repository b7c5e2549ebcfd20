"""Unification over the three-sorted message algebra and source search."""

from __future__ import annotations

import itertools
import random

import reference_bounds

from secwitness.context import meet_all
from secwitness.selection import value_function
from secwitness.terms import (
    EMPTY,
    Atom,
    Enc,
    Sort,
    atoms,
    concat,
    substitute,
    variables_of,
)
from secwitness.derive import contribution_of
from secwitness.unify import candidate_values, unify_all

FMAX = value_function("fmax")


def _pattern(pool, text):
    return {str(m): m for m in pool}[text]


def _send(roles, role_id, index):
    return next(r for r in roles if r.role_id == role_id).steps[index].message


def _sources(target, pool, ctx, alpha=None):
    """(pattern, unifier) pairs in pool order; with a queried atom, only the
    pairs that say something about it."""
    return [(m, s) for m in pool for s in unify_all(m, target)
            if alpha is None or contribution_of(FMAX, [alpha], m, s, ctx) is not None]


def test_initial_pattern_binding(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{A_1.Na_1}_kb_1")
    target = _send(ns_roles, "A_G1", 0)               # {A.Na^i}_kb
    sigma = unify_all(source, target)[0]
    assert sigma.get(Atom("A", Sort.PARAMETER, index=1)) == Atom("A", Sort.PARAMETER)
    assert sigma.get(Atom("Na", Sort.PARAMETER, index=1)) == Atom("Na", Sort.PARAMETER, session_tag="i")
    assert sigma.get(Atom("kb", Sort.PARAMETER, index=1)) == Atom("kb", Sort.PARAMETER)
    assert substitute(source, sigma) == substitute(target, sigma)


def test_unify_identical_terms(ns, ns_pool):
    m = ns_pool[0]
    sigma = unify_all(m, m)[0]
    assert not list(sigma.items())


def test_variable_absorbs_segments(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{X_2}_kb_3")
    target = _send(ns_roles, "B_G1", 1)               # {Y.Nb^i.B}_ka
    sigma = unify_all(source, target)[0]
    x2 = next(iter(variables_of(source)))
    image = sigma.get(x2)
    assert image == concat(Atom("Y", Sort.VARIABLE),
                           Atom("Nb", Sort.PARAMETER, session_tag="i"),
                           Atom("B", Sort.PARAMETER))
    assert substitute(source, sigma) == substitute(target, sigma)


def test_constant_keys_clash(ns):
    a, na = Atom("A"), Atom("Na")
    m1 = Enc(concat(a, na), Atom("kb"))
    m2 = Enc(concat(a, na), Atom("kc"))
    assert unify_all(m1, m2) == []


def test_occurs_check():
    x = Atom("X", Sort.VARIABLE)
    assert unify_all(x, Enc(x, Atom("k"))) == []
    assert unify_all(x, concat(x, Atom("A"))) == []


def test_parameters_take_single_segments():
    p, q = Atom("P", Sort.PARAMETER), Atom("Q", Sort.PARAMETER)
    a, b, c = (Atom(n) for n in "abc")
    assert unify_all(concat(p, q), concat(a, b, c)) == []


def test_absorption_enumerates_segmentations():
    v, w = Atom("V", Sort.VARIABLE), Atom("W", Sort.VARIABLE)
    a, b, c = (Atom(n) for n in "abc")
    found = unify_all(concat(v, w), concat(a, b, c))
    images = {(str(s.get(v)), str(s.get(w))) for s in found}
    assert images == {("a", "b.c"), ("a.b", "c")}


def test_a_part_after_a_variable_bound_to_the_empty_message_is_chased():
    # X is bound to ε by the first part, so Y stands first in the third
    # part's list and must be read as B.C there
    x, y = Atom("X", Sort.VARIABLE), Atom("Y", Sort.VARIABLE)
    a, b, c, k = Atom("A"), Atom("B"), Atom("C"), Atom("k")
    left = concat(Enc(x, k), Enc(y, k), Enc(concat(x, y, a), k))
    right = concat(Enc(EMPTY, k), Enc(concat(b, c), k), Enc(concat(b, c, a), k))
    found = unify_all(left, right)
    assert [dict(s) for s in found] == [{x: EMPTY, y: concat(b, c)}]
    assert substitute(left, found[0]) == right


def test_a_parameter_meets_a_compound_that_comes_to_one_atom():
    # Y is bound to ε by the first part, so X.Y is X alone in the second,
    # and the parameter A meets a variable there
    x, y = Atom("X", Sort.VARIABLE), Atom("Y", Sort.VARIABLE)
    a, k = Atom("A", Sort.PARAMETER), Atom("k")
    left = concat(Enc(y, k), Enc(a, k))
    right = concat(Enc(EMPTY, k), Enc(concat(x, y), k))
    found = unify_all(left, right)
    assert [dict(s) for s in found] == [{y: EMPTY, x: a}]
    assert substitute(left, found[0]) == substitute(right, found[0])
    assert found == reference_bounds.unify_all(left, right)


def test_soundness_of_all_unifiers():
    v = Atom("V", Sort.VARIABLE)
    p = Atom("P", Sort.PARAMETER)
    a, b = Atom("a"), Atom("b")
    left = Enc(concat(v, p), Atom("k"))
    right = Enc(concat(a, b, a), Atom("k"))
    for sigma in unify_all(left, right):
        assert substitute(left, sigma) == substitute(right, sigma)


# brute-force check that returned unifiers are most general: every ground
# unifier over a tiny universe must factor through the computed one
def test_mgu_factoring_small_universe():
    rng = random.Random(3)
    ca, cb = Atom("a"), Atom("b")
    grounds = [ca, cb, concat(ca, cb)]
    v1, v2 = Atom("V1", Sort.VARIABLE), Atom("V2", Sort.VARIABLE)
    p1, p2 = Atom("P1", Sort.PARAMETER), Atom("P2", Sort.PARAMETER)

    def random_side(vars_, depth=2):
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            return rng.choice(vars_ + [ca, cb])
        if roll < 0.7:
            return Enc(random_side(vars_, depth - 1), Atom("k"))
        return concat(*(random_side(vars_, depth - 1) for _ in range(2)))

    checked = 0
    for _ in range(400):
        left = random_side([v1, p1])
        right = random_side([v2, p2])
        found = unify_all(left, right)
        if not found:
            continue
        sigma = found[0]
        bindable = [x for x in (atoms(left) | atoms(right))
                    if x.sort is not Sort.CONSTANT]
        choices = [grounds if x.sort is Sort.VARIABLE else grounds[:2]
                   for x in bindable]
        for images in itertools.product(*choices):
            from secwitness.terms import Substitution
            tau = Substitution(dict(zip(bindable, images)))
            if substitute(left, tau) != substitute(right, tau):
                continue
            checked += 1
            for side in (left, right):
                assert substitute(substitute(side, sigma), tau) == substitute(side, tau)
    assert checked > 50


def test_candidate_search_stable_across_calls(ns, ns_roles, ns_pool):
    target = _send(ns_roles, "A_G1", 0)
    first = _sources(target, ns_pool, ns.context)
    second = _sources(target, ns_pool, ns.context)
    assert [(str(m), sorted((a.display(), str(v)) for a, v in s.items()))
            for m, s in first] == \
           [(str(m), sorted((a.display(), str(v)) for a, v in s.items()))
            for m, s in second]


def test_candidates_for_first_send(ns, ns_roles, ns_pool):
    target = _send(ns_roles, "A_G1", 0)               # {A.Na^i}_kb
    alpha = next(a for a in atoms(target) if a.name == "Na")
    got = _sources(target, ns_pool, ns.context, alpha)
    assert [str(m) for m, _ in got] == ["{A_1.Na_1}_kb_1", "{X_2}_kb_3", "{A_3.Y_1}_kb_4"]


def test_candidates_for_forwarded_variable(ns, ns_roles, ns_pool):
    target = _send(ns_roles, "A_G2", 2)               # {X}_kb
    alpha = next(iter(variables_of(target)))
    got = _sources(target, ns_pool, ns.context, alpha)
    assert [str(m) for m, _ in got] == ["{X_2}_kb_3"]


def test_no_candidates_for_foreign_constant_key(ns):
    ground_pool = [Enc(concat(Atom("A"), Atom("Na")), Atom("kb"))]
    target = Enc(concat(Atom("A"), Atom("Na")), Atom("kc"))
    assert _sources(target, ground_pool, ns.context) == []


def test_candidate_values_match_contributions(ns, ns_roles, ns_pool):
    # the meet of the contributions of every (pattern, unifier) pair, from
    # the same value-function calls
    target = _send(ns_roles, "A_G1", 0)
    alpha = next(a for a in atoms(target) if a.name == "Na")
    calls: list[set] = [set(), set()]

    def recording(k):
        def G(a, m, ctx):
            calls[k].add((a, m))
            return FMAX(a, m, ctx)
        return G

    values = candidate_values(target, ns_pool, ns.context, [alpha], recording(0))
    pairs = _sources(target, ns_pool, ns.context, alpha)
    assert pairs
    assert values == {alpha: meet_all(contribution_of(recording(1), [alpha], m, s, ns.context)[alpha]
                                      for m, s in pairs)}
    assert calls[0] == calls[1]
