"""The one-pass views of a matched source against substitute-then-erase.

`derive.fact_levels` values a source under each set of parameter bindings
through two kinds of view: the static one, every variable erased, and one
per variable, that variable kept.  It makes each in one pass over the
source.  These tests check each view against the instance made by
`substitute` and then pruned by `derive_all` or `derive_keeping` (the kept
variable then renamed to `derive.KEPT`), on random
sources, nested and with repeated variables among them, and on every fact
map that the candidate search finds for the protecting parts of the
subjects' sends.  That the two agree rests on every parameter image being a
non-variable atom, which the subjects' fact maps are checked for too.
They also check that the renaming changes no level: a variable reads in
its kept view under its own name what `KEPT` reads in the renamed one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_bounds import derive_all, derive_keeping
from secwitness.derive import KEPT, unifier_facts, view
from secwitness.selection import INSTANCES, value_function
from secwitness.terms import Atom, Enc, Message, Sort, concat, flatten, substitute, variables_of
from secwitness.unify import linear_facts, unify_all
from test_kept_views import NS, SPLITTING, total
from test_shared_search import subject


def _p(name: str, tag=None, index=None) -> Atom:
    return Atom(name, Sort.PARAMETER, tag, index)


PARAMETERS = [_p("A"), _p("B"), _p("A", index=3), _p("Na", "i"), _p("Nb", index=1), _p("kb")]
CONSTANTS = [Atom("I"), Atom("A"), Atom("Na"), Atom("kb")]
VARIABLES = [Atom(n, Sort.VARIABLE) for n in ("X", "Y", "Z")]
KEYS = [_p("kb"), _p("ka", index=1), Atom("kb"), Atom("ki")]

# three variables among up to twelve leaves: most sources repeat one
sources = st.recursive(
    st.sampled_from(PARAMETERS + CONSTANTS + VARIABLES),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda parts: concat(*parts)),
        st.builds(Enc, inner, st.sampled_from(KEYS))),
    max_leaves=12)
bindings = st.dictionaries(st.sampled_from(PARAMETERS), st.sampled_from(PARAMETERS + CONSTANTS))


def _assert_views_match(source: Message, images: dict[Atom, Atom]) -> None:
    inst = substitute(source, images)
    assert view(source, images) == derive_all(inst)
    for var in variables_of(source):
        assert view(source, images, var) == substitute(derive_keeping(inst, var), {var: KEPT}), var


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sources, bindings)
def test_random_sources_match_substitute_then_erase(source, images):
    _assert_views_match(source, images)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(sources, bindings, st.sampled_from([NS, SPLITTING]), st.sampled_from(sorted(INSTANCES)))
def test_a_kept_variable_reads_as_kept_does(source, images, ctx, function):
    F = total(value_function(function))
    inst = substitute(source, images)
    for var in variables_of(source):
        assert F(var, derive_keeping(inst, var), ctx) == F(KEPT, view(source, images, var), ctx), var


@pytest.mark.parametrize("name", ["ns", "nsl", "ns3", "ns-echo"] + [f"chain{n}" for n in range(2, 9)])
def test_every_fact_map_of_the_subjects_matches_substitute_then_erase(name):
    _, pool, sends = subject(name)
    targets = {p: None for sent in sends for p in flatten(sent) if not isinstance(p, Atom)}
    seen = 0
    for target in targets:
        for pattern in pool:
            facts = linear_facts(pattern, target)
            if facts is None:
                facts = unifier_facts(pattern, unify_all(pattern, target))
            for params, covered in facts.items():
                for param, image in params:
                    assert isinstance(image, Atom) and image.sort is not Sort.VARIABLE, (param, image)
                assert set(covered) <= variables_of(pattern)
                _assert_views_match(pattern, dict(params))
                seen += 1
    assert seen
