"""The fact search of linear flat pairs against the unifiers it replaces.

`unify.linear_facts` reads the distinct parameter bindings of the unifiers
of a linear flat pair, and the atoms that each pattern variable's images
cover under each, off a walk over match states instead of listing the
unifiers.  These tests draw random linear flat pairs and check that map
against the one `derive.unifier_facts` and a plain loop read off
`unify_all`, and the level `candidate_values` gives each atom against the
meet of what `contribution_of` gives each unifier of `unify_all` and
against the per-view valuation of `reference_bounds.fact_levels`, whose
value-function calls, with each kept variable renamed to `derive.KEPT`,
include those of both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds
from secwitness.context import meet_all
from secwitness.derive import contribution_of, unifier_facts
from secwitness.errors import AnalyzerError
from secwitness.protocols import load_bundled
from secwitness.selection import SIDES, value_function
from secwitness.terms import (
    PARAMETER,
    VARIABLE,
    Atom,
    Enc,
    atoms,
    concat,
    flatten,
    substitute,
    variables_of,
)
from secwitness.unify import _edges, candidate_values, linear_facts, unify_all

NS = load_bundled("ns")


def _p(name: str, tag=None, index=None) -> Atom:
    return Atom(name, PARAMETER, tag, index)


# names of the NS pattern space and role views, a few constants among them;
# keys are drawn from KEYS and may also stand in a body
PARAMETERS = [_p("A"), _p("B"), _p("A", index=1), _p("A", index=3), _p("B", index=2),
              _p("Na", "i"), _p("Na", index=1), _p("Nb", "i"), _p("Nb", index=5)]
CONSTANTS = [Atom("I"), Atom("A"), Atom("Na")]
KEYS = [_p("kb"), _p("kb", index=1), _p("kb", index=3), _p("ka"), Atom("kb"), Atom("ki")]
RAISED = frozenset(["<raised>"])


def total(F):
    """The value function, with a marker level where it refuses an instance:
    random pairs bind keys to non-keys and leave atoms unprotected."""
    def G(a, m, ctx):
        try:
            return F(a, m, ctx)
        except AnalyzerError:
            return RAISED
    return G


def facts_of_unifiers(pattern, target):
    """The facts `linear_facts` stands for, read off every unifier: the
    union of each (bindings, pattern variable)'s image atoms."""
    facts = {}
    for sigma in unify_all(pattern, target):
        params = frozenset((a, m) for a, m in sigma.items() if a.sort is PARAMETER)
        covered = facts.setdefault(params, {})
        for var in variables_of(pattern):
            image = sigma.get(var)
            if image is not None:
                covered[var] = covered.get(var, set()) | atoms(image)
    return facts


def _atom(draw, kinds: list[str], variable: Atom) -> Atom:
    kind = draw(st.sampled_from(kinds))
    if kind == "variable":
        return variable
    return draw(st.sampled_from({"parameter": PARAMETERS, "constant": CONSTANTS, "key": KEYS}[kind]))


@st.composite
def sides(draw, prefix: str):
    """An encryption whose body is atoms only, with variables of its own."""
    kinds = ["parameter", "parameter", "constant", "key", "variable", "variable"]
    body = [_atom(draw, kinds, Atom(f"{prefix}{i}", VARIABLE))
            for i in range(draw(st.integers(1, 7)))]
    return Enc(concat(*body), draw(st.sampled_from(KEYS)))


@st.composite
def near_instances(draw, pattern):
    """A target made from the pattern, so that most pairs unify, often in
    several ways: a pattern variable becomes a run of one to three atoms,
    a run of one or more parts becomes a target variable, and any other
    atom is kept or swapped for another."""
    body: list[Atom] = []
    for a in flatten(pattern.body):
        if a.sort is VARIABLE:
            body += [_atom(draw, ["parameter", "constant", "key"], a)
                     for _ in range(draw(st.integers(1, 3)))]
        else:
            body.append(a if draw(st.booleans()) else _atom(draw, ["parameter", "key"], a))
    out: list[Atom] = []
    while body:
        k = draw(st.integers(0, min(3, len(body))))
        out.append(Atom(f"W{len(out)}", VARIABLE) if k else body[0])
        body = body[max(k, 1):]
    key = pattern.key if draw(st.booleans()) else draw(st.sampled_from(KEYS))
    return Enc(concat(*out), key)


@st.composite
def pairs(draw):
    pattern = draw(sides("X"))
    target = draw(sides("W")) if draw(st.booleans()) else draw(near_instances(pattern))
    return pattern, target


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pairs(), st.sampled_from(sorted(SIDES)))
def test_facts_and_levels_match_the_unifiers(pair, function):
    pattern, target = pair
    facts = linear_facts(pattern, target)
    assert facts is not None
    assert facts == unifier_facts(pattern, unify_all(pattern, target)) == facts_of_unifiers(pattern, target)

    F = total(value_function(function))
    alphas = sorted(atoms(pattern.body) | atoms(target.body) | {pattern.key, target.key},
                    key=repr)
    calls: list[set] = [set(), set(), set()]

    def recording(k):
        def G(a, m, ctx):
            calls[k].add((a, m))
            return F(a, m, ctx)
        return G

    got = candidate_values(target, [pattern], NS.context, alphas, recording(0))
    per_unifier = [contribution_of(recording(1), alphas, pattern, sigma, NS.context)
                   for sigma in unify_all(pattern, target)]
    # the merged facts and one unifier's facts make only calls that the
    # per-view valuation of the merged facts makes, once its kept variables
    # are renamed, and get its levels
    per_view = reference_bounds.fact_levels(recording(2), alphas, pattern, facts, NS.context)
    kept = reference_bounds.renamed(calls[2])
    assert calls[0] <= kept and calls[1] <= kept
    assert got == per_view
    for alpha in alphas:
        want = reference_bounds.candidate_values(target, [pattern], NS.context, alpha, F)
        assert (alpha in got) == bool(want), alpha
        if want:
            assert got[alpha] == meet_all(want), alpha
            assert got[alpha] == meet_all(c[alpha] for c in per_unifier if c and alpha in c), alpha


def test_shapes_other_than_linear_flat_pairs_fall_back():
    x, y = Atom("X", VARIABLE), Atom("Y", VARIABLE)
    a, k = _p("A"), _p("kb")
    linear = Enc(concat(x, a), k)
    assert linear_facts(linear, Enc(concat(a, y), k)) is not None
    assert linear_facts(linear, Enc(concat(a, x), k)) is None              # X twice
    assert linear_facts(Enc(concat(x, x), k), Enc(a, k)) is None
    assert linear_facts(linear, Enc(concat(a, Enc(a, k)), k)) is None      # nested
    assert linear_facts(linear, concat(a, a)) is None                      # not encrypted


def test_a_variable_absorbs_only_where_the_lengths_leave_room():
    # {X.a.b}_k and {c.d.e.W}_k unify under X -> c.d.e, W -> a.b, but a
    # pattern variable at the head takes at most (4 - 3) + 1 = 2 target parts
    # and the target variable is not at the head, so no unifier is listed;
    # the fact search follows the same ranges
    x, w = Atom("X", VARIABLE), Atom("W", VARIABLE)
    a, b, c, d, e = (Atom(n) for n in "abcde")
    k = Atom("k")
    pattern = Enc(concat(x, a, b), k)
    target = Enc(concat(c, d, e, w), k)
    sigma = {x: concat(c, d, e), w: concat(a, b)}
    assert substitute(pattern, sigma) == substitute(target, sigma)
    assert unify_all(pattern, target) == []
    assert linear_facts(pattern, target) == {}


def test_a_state_with_one_edge_shares_the_final_bindings_of_its_successor():
    # {c.X.'P.Y}_k against {c.'Q.'R.'S.'T}_k: the start state has one edge,
    # c to c, and the state after it reaches two final bindings, P -> R
    # (X takes Q) and P -> S (X takes Q.R); the start state shares that
    # state's set of them, and both sets of facts come out whole
    x, y = Atom("X", VARIABLE), Atom("Y", VARIABLE)
    p, q, r, s, t = (_p(n) for n in "PQRST")
    c, k = Atom("c"), Atom("k")
    pattern = Enc(concat(c, x, p, y), k)
    target = Enc(concat(c, q, r, s, t), k)
    xs, ys = tuple(flatten(pattern.body)), tuple(flatten(target.body))
    assert [nxt for nxt, _, _ in _edges(xs, ys, (0, 0, frozenset()), {})] == [(1, 1, frozenset())]
    want = {frozenset([(p, r)]): {x: {q}, y: {s, t}},
            frozenset([(p, s)]): {x: {q, r}, y: {t}}}
    assert linear_facts(pattern, target) == want
    assert unifier_facts(pattern, unify_all(pattern, target)) == want


def test_a_variable_covers_the_atoms_of_all_its_runs():
    # {X.Y}_k and {a.b.c}_k unify under X -> a, Y -> b.c and X -> a.b,
    # Y -> c; both have the same (empty) bindings, so each variable has one
    # fact, the union of the runs it absorbs
    x, y = Atom("X", VARIABLE), Atom("Y", VARIABLE)
    a, b, c = (Atom(n) for n in "abc")
    k = Atom("k")
    pattern = Enc(concat(x, y), k)
    target = Enc(concat(a, b, c), k)
    want = {frozenset(): {x: {a, b}, y: {b, c}}}
    assert linear_facts(pattern, target) == want
    assert unifier_facts(pattern, unify_all(pattern, target)) == want
