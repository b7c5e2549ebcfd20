"""Unification over the three-sorted message algebra and source search."""

from __future__ import annotations

import itertools
import random

from secwitness.selection import value_function
from secwitness.terms import (
    Atom,
    Sort,
    atomic,
    atoms,
    concat,
    enc,
    substitute,
    variables_of,
)
from secwitness.derive import contribution_of
from secwitness.unify import candidate_values, unify, unify_all

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
    sigma = unify(source, target)
    assert sigma is not None
    assert sigma.image_of(Atom("A_1", Sort.PARAMETER)) == atomic(Atom("A", Sort.PARAMETER))
    assert sigma.image_of(Atom("Na_1", Sort.PARAMETER)) == atomic(
        Atom("Na", Sort.PARAMETER, session_tag="i"))
    assert sigma.image_of(Atom("kb_1", Sort.PARAMETER)) == atomic(Atom("kb", Sort.PARAMETER))
    assert substitute(source, sigma) == substitute(target, sigma)


def test_unify_identical_terms(ns, ns_pool):
    m = ns_pool[0]
    sigma = unify(m, m)
    assert sigma is not None and not list(sigma.items())


def test_variable_absorbs_segments(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{X_2}_kb_3")
    target = _send(ns_roles, "B_G1", 1)               # {Y.Nb^i.B}_ka
    sigma = unify(source, target)
    assert sigma is not None
    x2 = next(iter(variables_of(source)))
    image = sigma.image_of(x2)
    assert image == concat(atomic(Atom("Y", Sort.VARIABLE)),
                           atomic(Atom("Nb", Sort.PARAMETER, session_tag="i")),
                           atomic(Atom("B", Sort.PARAMETER)))
    assert substitute(source, sigma) == substitute(target, sigma)


def test_constant_keys_clash(ns):
    a, na = Atom("A"), Atom("Na")
    m1 = enc(concat(atomic(a), atomic(na)), Atom("kb"))
    m2 = enc(concat(atomic(a), atomic(na)), Atom("kc"))
    assert unify(m1, m2) is None


def test_occurs_check():
    x = Atom("X", Sort.VARIABLE)
    assert unify(atomic(x), enc(atomic(x), Atom("k"))) is None
    assert unify(atomic(x), concat(atomic(x), atomic(Atom("A")))) is None


def test_parameters_take_single_segments():
    p, q = Atom("P", Sort.PARAMETER), Atom("Q", Sort.PARAMETER)
    a, b, c = (atomic(Atom(n)) for n in "abc")
    assert unify(concat(atomic(p), atomic(q)), concat(a, b, c)) is None


def test_absorption_enumerates_segmentations():
    v, w = Atom("V", Sort.VARIABLE), Atom("W", Sort.VARIABLE)
    a, b, c = (atomic(Atom(n)) for n in "abc")
    found = unify_all(concat(atomic(v), atomic(w)), concat(a, b, c))
    images = {(str(s.image_of(v)), str(s.image_of(w))) for s in found}
    assert images == {("a", "b.c"), ("a.b", "c")}


def test_soundness_of_all_unifiers():
    v = Atom("V", Sort.VARIABLE)
    p = Atom("P", Sort.PARAMETER)
    a, b = atomic(Atom("a")), atomic(Atom("b"))
    left = enc(concat(atomic(v), atomic(p)), Atom("k"))
    right = enc(concat(a, b, a), Atom("k"))
    for sigma in unify_all(left, right):
        assert substitute(left, sigma) == substitute(right, sigma)


# brute-force check that returned unifiers are most general: every ground
# unifier over a tiny universe must factor through the computed one
def test_mgu_factoring_small_universe():
    rng = random.Random(3)
    ca, cb = Atom("a"), Atom("b")
    grounds = [atomic(ca), atomic(cb), concat(atomic(ca), atomic(cb))]
    v1, v2 = Atom("V1", Sort.VARIABLE), Atom("V2", Sort.VARIABLE)
    p1, p2 = Atom("P1", Sort.PARAMETER), Atom("P2", Sort.PARAMETER)

    def random_side(vars_, depth=2):
        roll = rng.random()
        if depth == 0 or roll < 0.45:
            return atomic(rng.choice(vars_ + [ca, cb]))
        if roll < 0.7:
            return enc(random_side(vars_, depth - 1), Atom("k"))
        return concat(*(random_side(vars_, depth - 1) for _ in range(2)))

    checked = 0
    for _ in range(400):
        left = random_side([v1, p1])
        right = random_side([v2, p2])
        sigma = unify(left, right)
        if sigma is None:
            continue
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
    alpha = next(a for a in atoms(target) if a.base_name == "Na")
    got = _sources(target, ns_pool, ns.context, alpha)
    assert [str(m) for m, _ in got] == ["{A_1.Na_1}_kb_1", "{X_2}_kb_3", "{A_3.Y_1}_kb_4"]


def test_candidates_for_forwarded_variable(ns, ns_roles, ns_pool):
    target = _send(ns_roles, "A_G2", 2)               # {X}_kb
    alpha = next(iter(variables_of(target)))
    got = _sources(target, ns_pool, ns.context, alpha)
    assert [str(m) for m, _ in got] == ["{X_2}_kb_3"]


def test_no_candidates_for_foreign_constant_key(ns):
    ground_pool = [enc(concat(atomic(Atom("A")), atomic(Atom("Na"))), Atom("kb"))]
    target = enc(concat(atomic(Atom("A")), atomic(Atom("Na"))), Atom("kc"))
    assert _sources(target, ground_pool, ns.context) == []


def test_candidate_values_match_contributions(ns, ns_roles, ns_pool):
    target = _send(ns_roles, "A_G1", 0)
    alpha = next(a for a in atoms(target) if a.base_name == "Na")
    values = candidate_values(target, ns_pool, ns.context, [alpha], FMAX)
    pairs = _sources(target, ns_pool, ns.context, alpha)
    assert values == {alpha: [contribution_of(FMAX, [alpha], m, s, ns.context)[alpha]
                              for m, s in pairs]}
