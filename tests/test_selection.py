"""Protective-key selection instances and their level interpretation."""

from __future__ import annotations

import random

import pytest

from secwitness.context import BOTTOM, TOP, finite, make_context, meet
from secwitness.errors import NotAKey, WellProtectionViolation
from secwitness.oracle import random_well_protected_set
from secwitness.rewrite import normalize
from secwitness.selection import (
    BROAD,
    INSTANCES,
    KEY_ONLY,
    NEIGHBORS,
    interpret,
    psi,
    select,
    value_function,
)
from secwitness.terms import Atom, Enc, Sort, atoms, concat, parse_message

ALPHA = Atom("alpha")


def test_nested_example_broad(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    got = select(BROAD, ALPHA, m, selection_ctx)
    assert got == {Atom("E"), Atom("F"), Atom("kac-1")}


def test_nested_example_key_only(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    assert select(KEY_ONLY, ALPHA, m, selection_ctx) == {Atom("kac-1")}


def test_nested_example_neighbors(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    assert select(NEIGHBORS, ALPHA, m, selection_ctx) == {Atom("E"), Atom("F")}


def test_absent_atom_selects_nothing(selection_ctx, selection_symbols):
    m = parse_message("{A.B}_kac", selection_symbols)
    assert select(BROAD, ALPHA, m, selection_ctx) == frozenset()
    assert interpret(BROAD, ALPHA, m, selection_ctx) == TOP


def test_root_occurrence_selects_everything(selection_ctx):
    assert select(BROAD, ALPHA, ALPHA, selection_ctx) is None
    assert psi(selection_ctx, None) == BOTTOM


def test_selection_normalizes_first(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    wrapped = parse_message("{{{{{alpha.E}_kab.F}_kac.D}_kad}_kab}_kab-1",
                            selection_symbols)
    assert select(BROAD, ALPHA, wrapped, selection_ctx) == select(BROAD, ALPHA, m, selection_ctx)


def test_psi_mixes_identities_and_key_levels(valuation_ctx):
    r = frozenset([Atom("A"), Atom("C"), Atom("D"), Atom("kab-1")])
    assert psi(valuation_ctx, r) == finite(["A", "B", "C", "D", "S"])


def test_psi_empty_is_top(valuation_ctx):
    assert psi(valuation_ctx, frozenset()) == TOP


def test_value_functions_flat_example(valuation_ctx, valuation_symbols):
    m = parse_message("{A.C.alpha.D}_kab", valuation_symbols)
    assert value_function("fmax")(ALPHA, m, valuation_ctx) == finite(["A", "B", "C", "D", "S"])
    assert value_function("fek")(ALPHA, m, valuation_ctx) == finite(["A", "B", "S"])
    assert value_function("fn")(ALPHA, m, valuation_ctx) == finite(["A", "C", "D"])


def test_value_on_empty_set_is_top(valuation_ctx):
    assert value_function("fmax")(ALPHA, [], valuation_ctx) == TOP


def test_unregistered_protective_key(selection_ctx):
    m = Enc(ALPHA, Atom("kzz"))
    with pytest.raises(NotAKey):
        select(BROAD, ALPHA, m, selection_ctx)


def test_unprotected_secret_occurrence(selection_ctx, selection_symbols):
    # alpha bare beside a ciphertext: no key guards it
    m = parse_message("alpha.{A}_kac", selection_symbols)
    with pytest.raises(WellProtectionViolation):
        select(BROAD, ALPHA, m, selection_ctx)


def test_variables_not_selectable_as_neighbors(selection_ctx):
    x = Atom("X", Sort.VARIABLE)
    m = Enc(concat(ALPHA, x), Atom("kac"))
    assert select(BROAD, ALPHA, m, selection_ctx) == {Atom("kac-1")}
    assert select(NEIGHBORS, ALPHA, m, selection_ctx) == frozenset()


def test_variable_alpha_any_key_protects():
    ctx = make_context(["A", "B", "I"], "I", {"kb-1": ["B"]},
                       [("kb", "kb-1")])
    x = Atom("X", Sort.VARIABLE)
    assert value_function("fmax")(x, Enc(x, Atom("kb")), ctx) == finite(["B"])


def test_key_positions_are_not_occurrences():
    ka, kb = Atom("ka"), Atom("kb")
    ctx = make_context(["A", "B", "I"], "I", {"ka-1": ["A"], "kb-1": ["B"]},
                       [("ka", "ka-1"), ("kb", "kb-1")])
    nested_key = Enc(concat(Enc(Atom("A"), ka), Atom("B")), kb)
    assert select(BROAD, ka, nested_key, ctx) == frozenset()
    assert interpret(BROAD, ka, nested_key, ctx) == TOP
    # the outer encryption is under a non-key, but ka is not below it
    under_non_key = Enc(Enc(Atom("A"), ka), Atom("kzz"))
    assert select(BROAD, ka, under_non_key, ctx) == frozenset()


def test_instance_lookup():
    assert INSTANCES == {"fmax": BROAD, "fek": KEY_ONLY, "fn": NEIGHBORS}
    with pytest.raises(KeyError, match="unknown selection instance 'fzz'"):
        value_function("fzz")


# --- well-formedness and structural laws ----------------------------------


def _sets(ctx, seed, n):
    rng = random.Random(seed)
    return [random_well_protected_set(rng, ctx, max_messages=3) for _ in range(n)]


@pytest.mark.parametrize("fname", ["fmax", "fek", "fn"])
def test_self_value_is_bottom(access_ctx, fname):
    F = value_function(fname)
    assert F(ALPHA, ALPHA, access_ctx) == BOTTOM
    assert F(ALPHA, [ALPHA], access_ctx) == BOTTOM


@pytest.mark.parametrize("fname", ["fmax", "fek", "fn"])
def test_union_law(access_ctx, fname):
    F = value_function(fname)
    for i, (m1, m2) in enumerate(zip(_sets(access_ctx, 5, 30), _sets(access_ctx, 6, 30))):
        for a in (ALPHA,):
            lhs = F(a, list(m1) + list(m2), access_ctx)
            rhs = meet(F(a, m1, access_ctx), F(a, m2, access_ctx))
            assert lhs == rhs, (i, m1, m2)


@pytest.mark.parametrize("fname", ["fmax", "fek", "fn"])
def test_absent_atom_is_top(access_ctx, fname):
    F = value_function(fname)
    ghost = Atom("zz")
    for m in _sets(access_ctx, 9, 30):
        if all(ghost not in atoms(x) for x in m):
            assert F(ghost, m, access_ctx) == TOP


def test_candidate_members_stay_inside_message(access_ctx):
    rng = random.Random(11)
    inverses = {Atom("kab-1"), Atom("kac-1"), Atom("kef-1")}
    for _ in range(60):
        for m in random_well_protected_set(rng, access_ctx, max_messages=2):
            r = select(BROAD, ALPHA, m, access_ctx)
            if r is None or ALPHA not in atoms(m):
                continue
            assert ALPHA not in r
            assert r <= (atoms(m) | inverses)


def test_selection_agrees_after_normalization(access_ctx):
    rng = random.Random(17)
    for _ in range(60):
        for m in random_well_protected_set(rng, access_ctx, max_messages=2):
            n = normalize(m, access_ctx)
            for inst in (BROAD, KEY_ONLY, NEIGHBORS):
                assert select(inst, ALPHA, m, access_ctx) == select(inst, ALPHA, n, access_ctx)
