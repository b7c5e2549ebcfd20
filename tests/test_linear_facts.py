"""The fact search of linear flat pairs against the unifiers it replaces.

`unify.linear_facts` reads the distinct parameter bindings of the unifiers
of a linear flat pair, and the atoms of each pattern variable's image, off
a walk over match states instead of listing the unifiers.  These tests draw
random linear flat pairs and check those facts against the ones read off
`unify_all`, and the level `candidate_values` gives each atom, and the
value-function calls it makes, against the meet of what `contribution_of`
gives each unifier of `unify_all`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds
from secwitness.context import finite, meet_all
from secwitness.derive import contribution_of
from secwitness.errors import AnalyzerError
from secwitness.protocols import load_bundled
from secwitness.selection import INSTANCES, value_function
from secwitness.terms import (
    Atom,
    Enc,
    Sort,
    atoms,
    concat,
    flatten,
    substitute,
    variables_of,
)
from secwitness.unify import candidate_values, linear_facts, unify_all

NS = load_bundled("ns")


def _p(name: str, tag=None, index=None) -> Atom:
    return Atom(name, Sort.PARAMETER, tag, index)


# names of the NS pattern space and role views, a few constants among them;
# keys are drawn from KEYS and may also stand in a body
PARAMETERS = [_p("A"), _p("B"), _p("A", index=1), _p("A", index=3), _p("B", index=2),
              _p("Na", "i"), _p("Na", index=1), _p("Nb", "i"), _p("Nb", index=5)]
CONSTANTS = [Atom("I"), Atom("A"), Atom("Na")]
KEYS = [_p("kb"), _p("kb", index=1), _p("kb", index=3), _p("ka"), Atom("kb"), Atom("ki")]
RAISED = finite(["<raised>"])


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
    """The facts `linear_facts` stands for, read off every unifier."""
    finals, carried = set(), set()
    for sigma in unify_all(pattern, target):
        params = frozenset((a, m) for a, m in sigma.items() if a.sort is Sort.PARAMETER)
        finals.add(params)
        for var in variables_of(pattern):
            image = sigma.get(var)
            if image is not None:
                carried.add((params, var, atoms(image)))
    return finals, carried


def _atom(draw, kinds: list[str], variable: Atom) -> Atom:
    kind = draw(st.sampled_from(kinds))
    if kind == "variable":
        return variable
    return draw(st.sampled_from({"parameter": PARAMETERS, "constant": CONSTANTS, "key": KEYS}[kind]))


@st.composite
def sides(draw, prefix: str):
    """An encryption whose body is atoms only, with variables of its own."""
    kinds = ["parameter", "parameter", "constant", "key", "variable", "variable"]
    body = [_atom(draw, kinds, Atom(f"{prefix}{i}", Sort.VARIABLE))
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
        if a.sort is Sort.VARIABLE:
            body += [_atom(draw, ["parameter", "constant", "key"], a)
                     for _ in range(draw(st.integers(1, 3)))]
        else:
            body.append(a if draw(st.booleans()) else _atom(draw, ["parameter", "key"], a))
    out: list[Atom] = []
    while body:
        k = draw(st.integers(0, min(3, len(body))))
        out.append(Atom(f"W{len(out)}", Sort.VARIABLE) if k else body[0])
        body = body[max(k, 1):]
    key = pattern.key if draw(st.booleans()) else draw(st.sampled_from(KEYS))
    return Enc(concat(*out), key)


@st.composite
def pairs(draw):
    pattern = draw(sides("X"))
    target = draw(sides("W")) if draw(st.booleans()) else draw(near_instances(pattern))
    return pattern, target


@settings(derandomize=True, max_examples=400, deadline=None)
@given(pairs(), st.sampled_from(sorted(INSTANCES)))
def test_facts_and_levels_match_the_unifiers(pair, function):
    pattern, target = pair
    facts = linear_facts(pattern, target)
    assert facts is not None
    finals, carried = facts
    assert len(set(finals)) == len(finals) and len(set(carried)) == len(carried)
    assert (set(finals), set(carried)) == facts_of_unifiers(pattern, target)

    F = total(value_function(function))
    alphas = sorted(atoms(pattern.body) | atoms(target.body) | {pattern.key, target.key},
                    key=repr)
    calls: list[set] = [set(), set()]

    def recording(k):
        def G(a, m, ctx):
            calls[k].add((a, m))
            return F(a, m, ctx)
        return G

    got = candidate_values(target, [pattern], NS.context, alphas, recording(0))
    per_unifier = [contribution_of(recording(1), alphas, pattern, sigma, NS.context)
                   for sigma in unify_all(pattern, target)]
    assert calls[0] == calls[1]
    for alpha in alphas:
        want = reference_bounds.candidate_values(target, [pattern], NS.context, alpha, F)
        assert (alpha in got) == bool(want), alpha
        if want:
            assert got[alpha] == meet_all(want), alpha
            assert got[alpha] == meet_all(c[alpha] for c in per_unifier if c and alpha in c), alpha


def test_shapes_other_than_linear_flat_pairs_fall_back():
    x, y = Atom("X", Sort.VARIABLE), Atom("Y", Sort.VARIABLE)
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
    x, w = Atom("X", Sort.VARIABLE), Atom("W", Sort.VARIABLE)
    a, b, c, d, e = (Atom(n) for n in "abcde")
    k = Atom("k")
    pattern = Enc(concat(x, a, b), k)
    target = Enc(concat(c, d, e, w), k)
    sigma = {x: concat(c, d, e), w: concat(a, b)}
    assert substitute(pattern, sigma) == substitute(target, sigma)
    assert unify_all(pattern, target) == []
    assert linear_facts(pattern, target) == ([], [])
