"""Protective-key selection, its two sides and their level interpretation."""

from __future__ import annotations

import random

import pytest

from secwitness.context import TOP, make_context, meet
from secwitness.errors import NotAKey, WellProtectionViolation
from secwitness.oracle import random_well_protected_set
from secwitness.rewrite import normalize
from secwitness.selection import SIDES, interpret, psi, select, value_function
from secwitness.terms import VARIABLE, Atom, Enc, atoms, concat, parse_message

ALPHA = Atom("alpha")


def test_nested_example_broad(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    keys, names = select(ALPHA, m, selection_ctx)
    assert keys | names == {Atom("E"), Atom("F"), Atom("kac-1")}


def test_nested_example_key_only(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    keys, _ = select(ALPHA, m, selection_ctx)
    assert keys == {Atom("kac-1")}


def test_nested_example_neighbors(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    _, names = select(ALPHA, m, selection_ctx)
    assert names == {Atom("E"), Atom("F")}


def test_absent_atom_selects_nothing(selection_ctx, selection_symbols):
    m = parse_message("{A.B}_kac", selection_symbols)
    assert select(ALPHA, m, selection_ctx) == (frozenset(), frozenset())
    assert interpret("fmax", ALPHA, m, selection_ctx) == TOP


def test_root_occurrence_selects_everything(selection_ctx):
    assert select(ALPHA, ALPHA, selection_ctx) is None
    assert interpret("fmax", ALPHA, ALPHA, selection_ctx) is None


def test_selection_normalizes_first(selection_ctx, selection_symbols):
    m = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", selection_symbols)
    wrapped = parse_message("{{{{{alpha.E}_kab.F}_kac.D}_kad}_kab}_kab-1",
                            selection_symbols)
    assert select(ALPHA, wrapped, selection_ctx) == select(ALPHA, m, selection_ctx)


def test_psi_mixes_identities_and_key_levels(valuation_ctx):
    r = frozenset([Atom("A"), Atom("C"), Atom("D"), Atom("kab-1")])
    assert psi(valuation_ctx, r) == frozenset(["A", "B", "C", "D", "S"])


def test_psi_empty_is_top(valuation_ctx):
    assert psi(valuation_ctx, frozenset()) == TOP


def test_value_functions_flat_example(valuation_ctx, valuation_symbols):
    m = parse_message("{A.C.alpha.D}_kab", valuation_symbols)
    assert value_function("fmax")(ALPHA, m, valuation_ctx) == frozenset(["A", "B", "C", "D", "S"])
    assert value_function("fek")(ALPHA, m, valuation_ctx) == frozenset(["A", "B", "S"])
    assert value_function("fn")(ALPHA, m, valuation_ctx) == frozenset(["A", "C", "D"])


def test_value_on_empty_set_is_top(valuation_ctx):
    assert value_function("fmax")(ALPHA, [], valuation_ctx) == TOP


def test_unregistered_protective_key(selection_ctx):
    m = Enc(ALPHA, Atom("kzz"))
    with pytest.raises(NotAKey):
        select(ALPHA, m, selection_ctx)


def test_unprotected_secret_occurrence(selection_ctx, selection_symbols):
    # alpha bare beside a ciphertext: no key guards it
    m = parse_message("alpha.{A}_kac", selection_symbols)
    with pytest.raises(WellProtectionViolation):
        select(ALPHA, m, selection_ctx)


def test_variables_not_selectable_as_neighbors(selection_ctx):
    x = Atom("X", VARIABLE)
    m = Enc(concat(ALPHA, x), Atom("kac"))
    keys, names = select(ALPHA, m, selection_ctx)
    assert keys | names == {Atom("kac-1")}
    assert names == frozenset()


def test_variable_alpha_any_key_protects():
    ctx = make_context(["A", "B", "I"], "I", {"kb-1": ["B"]},
                       [("kb", "kb-1")])
    x = Atom("X", VARIABLE)
    assert value_function("fmax")(x, Enc(x, Atom("kb")), ctx) == frozenset(["B"])


def test_key_positions_are_not_occurrences():
    ka, kb = Atom("ka"), Atom("kb")
    ctx = make_context(["A", "B", "I"], "I", {"ka-1": ["A"], "kb-1": ["B"]},
                       [("ka", "ka-1"), ("kb", "kb-1")])
    nested_key = Enc(concat(Enc(Atom("A"), ka), Atom("B")), kb)
    assert select(ka, nested_key, ctx) == (frozenset(), frozenset())
    assert interpret("fmax", ka, nested_key, ctx) == TOP
    # the outer encryption is under a non-key, but ka is not below it
    under_non_key = Enc(Enc(Atom("A"), ka), Atom("kzz"))
    assert select(ka, under_non_key, ctx) == (frozenset(), frozenset())


def test_instance_lookup():
    assert SIDES == {"fmax": (0, 1), "fek": (0,), "fn": (1,)}
    with pytest.raises(KeyError, match="unknown selection instance 'fzz'"):
        value_function("fzz")


# --- well-formedness and structural laws ----------------------------------


def _sets(ctx, seed, n):
    # sets of at most three messages, smaller than the oracle draws by default
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("secwitness.oracle.MAX_MESSAGES", 3)
        return [random_well_protected_set(rng, ctx) for _ in range(n)]


@pytest.mark.parametrize("fname", ["fmax", "fek", "fn"])
def test_self_value_is_bottom(access_ctx, fname):
    F = value_function(fname)
    assert F(ALPHA, ALPHA, access_ctx) is None
    assert F(ALPHA, [ALPHA], access_ctx) is None


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


def test_candidate_members_stay_inside_message(access_ctx, monkeypatch):
    monkeypatch.setattr("secwitness.oracle.MAX_MESSAGES", 2)
    rng = random.Random(11)
    inverses = {Atom("kab-1"), Atom("kac-1"), Atom("kef-1")}
    for _ in range(60):
        for m in random_well_protected_set(rng, access_ctx):
            selected = select(ALPHA, m, access_ctx)
            if selected is None or ALPHA not in atoms(m):
                continue
            r = selected[0] | selected[1]
            assert ALPHA not in r
            assert r <= (atoms(m) | inverses)


def test_selection_agrees_after_normalization(access_ctx, monkeypatch):
    monkeypatch.setattr("secwitness.oracle.MAX_MESSAGES", 2)
    rng = random.Random(17)
    for _ in range(60):
        for m in random_well_protected_set(rng, access_ctx):
            n = normalize(m, access_ctx)
            assert select(ALPHA, m, access_ctx) == select(ALPHA, n, access_ctx)
