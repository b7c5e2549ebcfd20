"""The row walk of linear flat pairs against its stack-and-sort reference.

`unify.linear_facts` walks the match states of a linear flat pair row by
row: every edge raises the pattern position, so a row is complete once the
rows before it are walked, and the final bindings are filled in by rows in
reverse.  `reference_bounds.linear_facts` walks the same edges depth first
from a stack and fills the final bindings in by decreasing i + j.  These
tests check that both give the same facts, with the final bindings in the
same order, on random pairs and on every linear flat pair that `analyze`
searches on the shared-search subjects.  The variables of one bindings may
come in another order than the reference's: the row walk meets them, and
lists them, in the order they stand in the pattern.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import reference_bounds
import secwitness.unify
from secwitness.terms import flatten
from secwitness.unify import linear_facts
from secwitness.witness import analyze
from test_linear_facts import pairs
from test_shared_search import SUBJECTS, subject


def assert_same_facts(pattern, target):
    got = linear_facts(pattern, target)
    want = reference_bounds.linear_facts(pattern, target)
    assert got == want
    if want is not None:
        assert list(got) == list(want)  # the final bindings, in order
        for covered in got.values():
            assert list(covered) == [x for x in flatten(pattern.body) if x in covered]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(pairs())
def test_random_pairs_give_the_reference_facts(pair):
    assert_same_facts(*pair)


@pytest.mark.parametrize("name", SUBJECTS)
def test_every_pair_analyze_searches_gives_the_reference_facts(name, monkeypatch):
    protocol, _, _ = subject(name)
    searched = {}
    original = secwitness.unify.linear_facts

    def recording(pattern, target):
        searched[pattern, target] = None
        return original(pattern, target)

    monkeypatch.setattr(secwitness.unify, "linear_facts", recording)
    analyze(protocol, "fmax")
    linear = [pair for pair in searched if reference_bounds.linear_facts(*pair) is not None]
    assert linear or name.startswith("nchain")
    for pair in linear:
        assert_same_facts(*pair)
