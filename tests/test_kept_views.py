"""Renamed kept-variable views against the per-view valuation they replace.

`derive.fact_levels` and `witness.reception_estimate` value each variable
in its kept-variable view with that variable renamed to `derive.KEPT`, so
that two variables whose views differ only by their names ask the value
function one question.  These tests check both against
`reference_bounds.fact_levels` and `reference_bounds.reception_estimate`,
which value every variable in its own view under its own name, on random
sources (flat, with several variables per encryption and several
encryptions, and nested, with bare and repeated variables), under `fmax`,
`fek` and `fn`, with and without a declared rule.  They also pin a flat body
whose variables ask one question, and a nested source and a source under a
rule whose variables' views stay apart and read different levels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds
from secwitness.context import TOP
from secwitness.derive import KEPT, fact_levels, view
from secwitness.errors import AnalyzerError
from secwitness.protocols import bundled, load_bundled
from secwitness.roles import parse_protocol
from secwitness.selection import SIDES, value_function
from secwitness.terms import PARAMETER, VARIABLE, Atom, Enc, SymbolTable, atoms, concat, parse_message
from secwitness.witness import reception_estimate

NS = load_bundled("ns").context
SPLIT = "rule {P.Q.R}_kb -> {P}_kb.{Q.R}_kb;\n"
SPLITTING = parse_protocol(bundled("ns") + SPLIT).context
RAISED = frozenset(["<raised>"])


def _p(name: str, index=None) -> Atom:
    return Atom(name, PARAMETER, None, index)


def _v(name: str) -> Atom:
    return Atom(name, VARIABLE)


PARAMETERS = [_p("A"), _p("B"), _p("A", 3), _p("Na"), _p("Nb", 1), _p("kb"), _p("ka", 2)]
CONSTANTS = [Atom("A"), Atom("B"), Atom("I"), Atom("Na"), Atom("Nb")]
# declared keys and their inverses, and one name that is not a key
KEYS = [Atom("ka"), Atom("kb"), Atom("ka-1"), Atom("kb-1"), Atom("ki"), _p("kb"), _p("ka", 2),
        Atom("k0")]
# every variable reads bottom, also the ones spelled like the declared Na
# and kb-1, so those names carry nothing into a variable's level
VARIABLES = [_v("X"), _v("Y"), _v("Z"), _v("Na"), _v("kb-1")]
NAMES = PARAMETERS + CONSTANTS


def total(F):
    """The value function, with a marker level where it refuses a view:
    random sources put atoms under names that are not keys and leave
    atoms unprotected."""
    def G(a, m, ctx):
        try:
            return F(a, m, ctx)
        except AnalyzerError:
            return RAISED
    return G


def recording(F, calls: set):
    def G(a, m, ctx):
        calls.add((a, m))
        return F(a, m, ctx)
    return G


@st.composite
def flat_sources(draw):
    """Bare atoms and encryptions of atoms, several variables to a body;
    the variables are distinct, or drawn with repeats from three."""
    repeat = draw(st.booleans())
    pool = VARIABLES[:3] if repeat else list(VARIABLES)

    def leaf():
        if pool and draw(st.integers(0, 2)):
            var = draw(st.sampled_from(pool))
            if not repeat:
                pool.remove(var)
            return var
        return draw(st.sampled_from(NAMES))

    parts = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 3)):
            body = concat(*[leaf() for _ in range(draw(st.integers(1, 5)))])
            parts.append(Enc(body, draw(st.sampled_from(KEYS))))
        else:
            parts.append(leaf())
    return concat(*parts)


nested_sources = st.recursive(
    st.sampled_from(NAMES + VARIABLES),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: concat(*parts)),
        st.builds(Enc, inner, st.sampled_from(KEYS))),
    max_leaves=10)

sources = st.one_of(flat_sources(), flat_sources(), nested_sources)
contexts = st.sampled_from([NS, NS, SPLITTING])
functions = st.sampled_from(sorted(SIDES))
QUERIED = CONSTANTS + PARAMETERS[:4] + VARIABLES[:2]


@st.composite
def facts_of(draw, source):
    """One to three parameter bindings of the source, each to a non-variable
    atom, with the queried atoms each variable's images cover under them."""
    params = sorted((a for a in atoms(source) if a.sort is PARAMETER), key=repr)
    variables = sorted((a for a in atoms(source) if a.sort is VARIABLE), key=repr)
    facts = {}
    for _ in range(draw(st.integers(1, 3))):
        images = frozenset((a, draw(st.sampled_from(NAMES))) for a in params
                           if draw(st.booleans()))
        covered = facts.setdefault(images, {})
        for var in variables:
            if draw(st.integers(0, 3)):
                covered[var] = set(draw(st.lists(st.sampled_from(QUERIED), min_size=1,
                                                 max_size=4)))
    return facts


@settings(max_examples=600, deadline=None)
@given(st.data(), sources, contexts, functions)
def test_fact_levels_match_the_per_view_valuation(data, source, ctx, function):
    facts = data.draw(facts_of(source))
    alphas = data.draw(st.lists(st.sampled_from(QUERIED), min_size=1, max_size=6, unique=True))
    F = total(value_function(function))
    kept: set = set()
    per_view: set = set()
    got = fact_levels(recording(F, kept), alphas, source, facts, ctx)
    assert got == reference_bounds.fact_levels(recording(F, per_view), alphas, source, facts, ctx)
    assert kept == reference_bounds.renamed(per_view)


@settings(max_examples=400, deadline=None)
@given(st.lists(sources, min_size=1, max_size=3), st.sampled_from(QUERIED + VARIABLES),
       contexts, functions)
def test_reception_estimate_matches_the_per_view_valuation(received, alpha, ctx, function):
    F = total(value_function(function))
    assert (reception_estimate(alpha, received, F, ctx)
            == reference_bounds.reception_estimate(alpha, received, F, ctx))


X, Y = _v("X"), _v("Y")
SYMS = SymbolTable({**{n: Atom(n) for n in ("A", "B", "Na", "Nb", "ka", "kb", "ka-1")},
                    "X": X, "Y": Y})
NA, NB = Atom("Na"), Atom("Nb")


def _levels(function, source, ctx):
    """What Na, covered by X, and Nb, covered by Y, read, with the calls
    made for them."""
    calls: set = set()
    F = recording(value_function(function), calls)
    facts = {frozenset(): {X: {NA}, Y: {NB}}}
    got = fact_levels(F, [NA, NB], source, facts, ctx)
    assert got == reference_bounds.fact_levels(value_function(function), [NA, NB], source,
                                               facts, ctx)
    return got, calls


def test_a_flat_body_asks_one_question():
    source = parse_message("{A.X.Y}_kb", SYMS)
    assert view(source, {}, X) == view(source, {}, Y)
    got, calls = _levels("fmax", source, NS)
    assert got == {NA: frozenset(["A", "B"]), NB: frozenset(["A", "B"])}
    assert calls == {(KEPT, view(source, {}, X))}


@pytest.mark.parametrize("function, instance, alone", [
    ("fmax", frozenset(["A", "B"]), frozenset(["A", "B"])),
    ("fek", frozenset(["A"]), frozenset(["A"])),
    ("fn", frozenset(["B"]), frozenset(["B"])),
])
def test_a_nested_source_values_each_variable_in_its_own_view(function, instance, alone):
    # erasing Y leaves {{X.B}_ka-1}_ka, which cancels and leaves X bare:
    # X reads bottom in its view, and Y's level in the instance
    source = parse_message("{Y.{X.B}_ka-1}_ka", SYMS)
    F = value_function(function)
    assert F(X, source, NS) == instance
    assert F(KEPT, view(source, {}, X), NS) is None
    got, calls = _levels(function, source, NS)
    assert got == {NA: None, NB: alone}
    assert calls == {(KEPT, view(source, {}, X)), (KEPT, view(source, {}, Y))}


@pytest.mark.parametrize("text, function, instance, want", [
    # erasing Y leaves two parts, so the rule no longer fires
    ("{A.X.Y}_kb", "fmax", frozenset(["B"]), {NA: frozenset(["A", "B"]), NB: frozenset(["A", "B"])}),
    ("{A.X.Y}_kb", "fn", TOP, {NA: frozenset(["A"]), NB: frozenset(["A"])}),
    # the rule splits both views, X from the names and Y beside B: the
    # two views stay apart and read different levels
    ("{X.A.B.Y}_kb", "fn", TOP, {NA: TOP, NB: frozenset(["B"])}),
])
def test_a_rule_values_each_variable_in_its_own_view(text, function, instance, want):
    source = parse_message(text, SYMS)
    assert value_function(function)(X, source, SPLITTING) == instance
    got, calls = _levels(function, source, SPLITTING)
    assert got == want
    assert calls == {(KEPT, view(source, {}, X)), (KEPT, view(source, {}, Y))}
