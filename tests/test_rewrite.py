"""Normalization, guard families, protection checks, keys-monotonicity."""

from __future__ import annotations

import random

import pytest

from message_helpers import EMPTY_FAMILY, family, random_message
from secwitness.context import make_context
from secwitness.errors import NonTermination, UnboundRuleVariable
from secwitness.rewrite import (
    RewriteRule,
    access,
    check_well_protected,
    default_rules,
    keys_monotone,
    keys_of,
    normalize,
)
from secwitness.terms import Atom, Enc, Sort, concat, parse_message


@pytest.fixture(scope="module")
def simple_ctx():
    return make_context(
        ["A", "B", "I"], "I",
        {"alpha": ["A", "B"], "ka-1": ["A"], "kab": ["A", "B"]},
        [("ka", "ka-1"), ("kab", "kab")],
    )


@pytest.fixture(scope="module")
def simple_syms():
    from secwitness.terms import SymbolTable
    names = [Atom("A"), Atom("B"), Atom("I"), Atom("alpha"),
             Atom("ka"), Atom("ka-1"), Atom("kab")]
    return SymbolTable({a.name: a for a in names})


def test_normalize_dec_form(simple_ctx, simple_syms):
    m = parse_message("{d(ka-1, alpha)}_ka", simple_syms, allow_dec=True)
    assert normalize(m, simple_ctx) == Atom("alpha")


def test_normalize_enc_then_dec(simple_ctx, simple_syms):
    m = parse_message("{{A.alpha}_ka}_ka-1", simple_syms)
    assert normalize(m, simple_ctx) == parse_message("A.alpha", simple_syms)


def test_normalize_symmetric_pair(simple_ctx, simple_syms):
    m = parse_message("{{alpha}_kab}_kab", simple_syms)
    assert normalize(m, simple_ctx) == Atom("alpha")


def test_normalize_no_redex(simple_ctx, simple_syms):
    m = parse_message("{A.alpha}_ka", simple_syms)
    assert normalize(m, simple_ctx) == m


def test_normalize_inner_position(simple_ctx, simple_syms):
    m = parse_message("B.{{alpha}_ka}_ka-1.A", simple_syms)
    assert normalize(m, simple_ctx) == parse_message("B.alpha.A", simple_syms)


def test_normalize_unrelated_keys_stay(simple_ctx, simple_syms):
    # ka under kab is not a cancelling pair
    m = parse_message("{{alpha}_ka}_kab", simple_syms)
    assert normalize(m, simple_ctx) == m


def test_non_termination(simple_ctx):
    mv = Atom("M", Sort.VARIABLE)
    grow = RewriteRule(mv, concat(mv, mv), name="grow")
    ctx = make_context(
        ["A", "B", "I"], "I", {"alpha": ["A", "B"], "ka-1": ["A"]},
        [("ka", "ka-1")], rewrite_rules=(grow,))
    with pytest.raises(NonTermination):
        normalize(Atom("alpha"), ctx)


def test_normalize_idempotent_on_random_terms(simple_ctx):
    rng = random.Random(7)
    pool = [Atom("A"), Atom("B"), Atom("alpha")]
    keys = [Atom("ka"), Atom("ka-1"), Atom("kab")]
    for _ in range(300):
        m = random_message(rng, pool, keys, max_depth=4)
        n = normalize(m, simple_ctx)
        assert normalize(n, simple_ctx) == n


def test_rule_rejects_unbound_rhs_metavariable():
    mv = Atom("M", Sort.VARIABLE)
    nv = Atom("N", Sort.VARIABLE)
    with pytest.raises(UnboundRuleVariable):
        RewriteRule(mv, nv)


def test_validator_accepts_default_rules():
    assert all(keys_monotone(rule) for rule in default_rules())


def test_default_rules_are_built_once():
    assert default_rules() is default_rules()


def test_validator_rejects_key_adding_rule():
    mv = Atom("M", Sort.VARIABLE)
    wrap = RewriteRule(mv, Enc(mv, Atom("k")), name="wrap")
    assert not keys_monotone(wrap)


def test_validator_flags_split_rule_for_selection_review():
    # splitting one encryption into two keeps every guard set: monotone
    av, bv = Atom("a", Sort.VARIABLE), Atom("b", Sort.VARIABLE)
    kp = Atom("k", Sort.PARAMETER)
    split = RewriteRule(
        Enc(concat(av, bv), kp),
        concat(Enc(av, kp), Enc(bv, kp)), name="split")
    assert keys_monotone(split)


# --- guard families -------------------------------------------------------

ALPHA = Atom("alpha")
BETA = Atom("B")


def test_keys_of_self():
    assert keys_of(ALPHA, ALPHA) == family(())


def test_keys_of_other_atom():
    assert keys_of(ALPHA, BETA) == EMPTY_FAMILY


def test_keys_of_one_level():
    m = Enc(ALPHA, Atom("k"))
    assert keys_of(ALPHA, m) == family((Atom("k"),))


def test_keys_of_ignores_key_positions():
    m = Enc(BETA, ALPHA)
    assert keys_of(ALPHA, m) == EMPTY_FAMILY


def test_access_worked_example(access_ctx, access_symbols):
    m = parse_message("{{A.D.alpha}_kab.alpha.{A.E.{C.alpha}_kef}_kab}_kac",
                      access_symbols)
    got = access(Atom("alpha"), m, access_ctx)
    assert got == family(
        (Atom("kac-1"), Atom("kab-1")),
        (Atom("kac-1"),),
        (Atom("kac-1"), Atom("kab-1"), Atom("kef-1")),
    )


def test_access_self(access_ctx):
    assert access(Atom("alpha"), Atom("alpha"), access_ctx) == family(())


def test_access_normalizes_first(simple_ctx, simple_syms):
    m = parse_message("{{alpha}_ka}_ka-1", simple_syms)
    assert access(Atom("alpha"), m, simple_ctx) == family(())


def test_access_on_sets_unions(access_ctx, access_symbols):
    m1 = parse_message("{alpha}_kab", access_symbols)
    m2 = parse_message("{alpha}_kac", access_symbols)
    got = access(Atom("alpha"), [m1, m2], access_ctx)
    assert got == family((Atom("kab-1"),), (Atom("kac-1"),))


def test_well_protected_single_level(simple_ctx, simple_syms):
    m = parse_message("{alpha}_kab", simple_syms)
    assert check_well_protected(m, simple_ctx).ok


def test_well_protected_bare_secret_fails(simple_ctx):
    report = check_well_protected(Atom("alpha"), simple_ctx)
    assert not report.ok
    assert report.violations[0][0] == Atom("alpha")


def test_well_protected_weak_key_fails(access_ctx, access_symbols):
    # kef-1 is held by E,F which does not dominate alpha's {A,C}
    m = parse_message("{alpha}_kef", access_symbols)
    assert not check_well_protected(m, access_ctx).ok


def test_well_protected_ns_pattern_space(ns, ns_pool):
    assert check_well_protected(ns_pool, ns.context).ok


def test_access_invariant_under_normalization(simple_ctx):
    rng = random.Random(13)
    pool = [Atom("A"), Atom("B"), Atom("alpha")]
    keys = [Atom("ka"), Atom("ka-1"), Atom("kab")]
    for _ in range(200):
        m = random_message(rng, pool, keys, max_depth=4)
        for a in pool:
            assert access(a, m, simple_ctx) == access(a, normalize(m, simple_ctx), simple_ctx)


def test_normalization_only_removes_guards(simple_ctx):
    # every guard set after normalization is contained in one from before
    rng = random.Random(29)
    pool = [Atom("A"), Atom("B"), Atom("alpha")]
    keys = [Atom("ka"), Atom("ka-1"), Atom("kab")]
    for _ in range(200):
        m = random_message(rng, pool, keys, max_depth=4)
        n = normalize(m, simple_ctx)
        for a in pool:
            before = keys_of(a, m)
            after = keys_of(a, n)
            assert all(any(sa <= sb for sb in before) for sa in after)
