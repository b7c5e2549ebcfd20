"""A set of messages folds over its members: selections and guard families
by union, bounds by meet."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings, strategies as st

from message_helpers import random_message
from secwitness.context import make_context, meet
from secwitness.errors import WellProtectionViolation
from secwitness.rewrite import access, keys_of
from secwitness.selection import BROAD, KEY_ONLY, NEIGHBORS, interpret, psi, select, value_function
from secwitness.terms import Atom, Sort
from secwitness.witness import upper_bound

CTX = make_context(
    ["A", "B", "I"], "I",
    {"alpha": ["A", "B"], "ka-1": ["A"], "kab": ["A", "B"]},
    [("ka", "ka-1"), ("kab", "kab")],
)
POOL = [Atom("A"), Atom("B"), Atom("alpha"), Atom("X", Sort.VARIABLE)]
KEYS = [Atom("ka"), Atom("ka-1"), Atom("kab")]


def _outcome(thunk):
    try:
        return thunk()
    except WellProtectionViolation:
        return WellProtectionViolation


def _union(s1, s2):
    """Selections combine by union, in which None (everything) absorbs."""
    return None if s1 is None or s2 is None else s1 | s2


def _folds(f, combine, m1, m2):
    """f on the pair equals f on each member combined, or both raise."""
    assert _outcome(lambda: f([m1, m2])) == _outcome(lambda: combine(f(m1), f(m2)))


@pytest.mark.parametrize("inst", [BROAD, KEY_ONLY, NEIGHBORS], ids=lambda i: i.name)
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_set_arguments_fold_over_members(inst, rng):
    m1, m2 = (random_message(rng, POOL, KEYS, max_depth=3) for _ in range(2))
    F = value_function(inst.name)
    for a in POOL:
        _folds(lambda m: select(inst, a, m, CTX), _union, m1, m2)
        _folds(lambda m: keys_of(a, m), operator.or_, m1, m2)
        _folds(lambda m: access(a, m, CTX), operator.or_, m1, m2)
        _folds(lambda m: upper_bound(a, m, F, CTX), meet, m1, m2)
        _folds(lambda m: interpret(inst, a, m, CTX), meet, m1, m2)
        assert (_outcome(lambda: interpret(inst, a, [m1, m2], CTX))
                == _outcome(lambda: psi(CTX, select(inst, a, [m1, m2], CTX))))
