"""A set of messages folds over its members: selections and guard families
by union, bounds by meet.  And `fmax` is the meet of `fek` and `fn` at
every atom and argument."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings, strategies as st

from message_helpers import random_message
from secwitness.context import make_context, meet
from secwitness.errors import WellProtectionViolation
from secwitness.rewrite import access, keys_of
from secwitness.selection import SIDES, interpret, psi, select, value_function
from secwitness.terms import VARIABLE, Atom
from secwitness.witness import upper_bound

CTX = make_context(
    ["A", "B", "I"], "I",
    {"alpha": ["A", "B"], "ka-1": ["A"], "kab": ["A", "B"]},
    [("ka", "ka-1"), ("kab", "kab")],
)
POOL = [Atom("A"), Atom("B"), Atom("alpha"), Atom("X", VARIABLE)]
KEYS = [Atom("ka"), Atom("ka-1"), Atom("kab")]


def _outcome(thunk):
    try:
        return thunk()
    except WellProtectionViolation:
        return WellProtectionViolation


def _union(s1, s2):
    """Selections combine by union, in which None (everything) absorbs."""
    return None if s1 is None or s2 is None else s1 | s2


def _read(function, selected):
    """The union of the sides of a selection that the function reads."""
    return None if selected is None else frozenset().union(*(selected[i] for i in SIDES[function]))


def _folds(f, combine, m1, m2):
    """f on the pair equals f on each member combined, or both raise."""
    assert _outcome(lambda: f([m1, m2])) == _outcome(lambda: combine(f(m1), f(m2)))


@pytest.mark.parametrize("function", ["fmax", "fek", "fn"])
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_set_arguments_fold_over_members(function, rng):
    m1, m2 = (random_message(rng, POOL, KEYS, max_depth=3) for _ in range(2))
    F = value_function(function)
    for a in POOL:
        _folds(lambda m: _read(function, select(a, m, CTX)), _union, m1, m2)
        _folds(lambda m: keys_of(a, m), operator.or_, m1, m2)
        _folds(lambda m: access(a, m, CTX), operator.or_, m1, m2)
        _folds(lambda m: upper_bound(a, m, F, CTX), meet, m1, m2)
        _folds(lambda m: interpret(function, a, m, CTX), meet, m1, m2)
        selected = _outcome(lambda: _read(function, select(a, [m1, m2], CTX)))
        assert (_outcome(lambda: interpret(function, a, [m1, m2], CTX))
                == (selected if selected in (None, WellProtectionViolation) else psi(CTX, selected)))


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_fmax_is_the_meet_of_fek_and_fn(rng):
    ms = [random_message(rng, POOL, KEYS, max_depth=3) for _ in range(rng.randint(1, 3))]
    functions = [value_function(name) for name in ("fmax", "fek", "fn")]
    for arg in (ms[0], ms):
        for a in POOL:
            both, key, names = (_outcome(lambda: F(a, arg, CTX)) for F in functions)
            if WellProtectionViolation in (both, key, names):
                assert both is key is names is WellProtectionViolation
            else:
                assert both == meet(key, names)
