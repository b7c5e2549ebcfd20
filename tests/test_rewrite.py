"""Normalization, guard families, protection checks, keys-monotonicity."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_normalize
from message_helpers import EMPTY_FAMILY, family, random_message
from secwitness.context import make_context
from secwitness.errors import ContextError, NonTermination
from secwitness.protocols import bundled
from secwitness.rewrite import (
    RewriteRule,
    access,
    check_well_protected,
    keys_monotone,
    keys_of,
    normalize,
)
from secwitness.roles import parse_protocol
from secwitness.terms import PARAMETER, VARIABLE, Atom, Enc, concat, parse_message


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


def test_normalize_cancels_copies_with_one_index(simple_ctx):
    # an indexed copy's inverse keeps its index, so only copies of one
    # index cancel
    alpha = Atom("alpha")

    def key(name, index):
        return Atom(name, PARAMETER, index=index)

    assert normalize(Enc(Enc(alpha, key("ka-1", 2)), key("ka", 2)), simple_ctx) == alpha
    kept = Enc(Enc(alpha, key("ka-1", 1)), key("ka", 2))
    assert normalize(kept, simple_ctx) == kept


def test_a_rule_names_no_inverse_pair_by_spelling():
    # q and q-1 are two unrelated metavariables: the rule strips any two keys
    mv = Atom("M", VARIABLE)
    q, qinv = Atom("q", PARAMETER), Atom("q-1", PARAMETER)
    ctx = make_context(
        ["A", "B", "I"], "I", {"alpha": ["A", "B"], "ka-1": ["A"], "kb-1": ["B"]},
        [("ka", "ka-1"), ("kb", "kb-1")], rewrite_rules=(RewriteRule(Enc(Enc(mv, qinv), q), mv),))
    assert normalize(Enc(Enc(Atom("alpha"), Atom("kb")), Atom("ka")), ctx) == Atom("alpha")


def test_normalize_unrelated_keys_stay(simple_ctx, simple_syms):
    # ka under kab is not a cancelling pair
    m = parse_message("{{alpha}_ka}_kab", simple_syms)
    assert normalize(m, simple_ctx) == m


def test_non_termination(simple_ctx):
    mv = Atom("M", VARIABLE)
    grow = RewriteRule(mv, concat(mv, mv))
    ctx = make_context(
        ["A", "B", "I"], "I", {"alpha": ["A", "B"], "ka-1": ["A"]},
        [("ka", "ka-1")], rewrite_rules=(grow,))
    with pytest.raises(NonTermination):
        normalize(Atom("alpha"), ctx)


def test_a_rule_constant_matches_the_copies_of_its_name():
    # a declared name in a rule binds to the non-variable atom of that name
    # it meets; a repeated one must meet the same atom, and the right-hand
    # side gets that atom back
    mv, alpha = Atom("M", VARIABLE), Atom("alpha")
    ka, kab = Atom("ka"), Atom("kab")
    split = RewriteRule(Enc(concat(mv, kab), ka), concat(Enc(mv, ka), kab))
    opened = RewriteRule(concat(Enc(mv, kab), kab), mv)
    ctx = make_context(
        ["A", "B", "I"], "I", {"alpha": ["A", "B"], "ka-1": ["A"], "kab": ["A", "B"]},
        [("ka", "ka-1"), ("kab", "kab")], rewrite_rules=(split, opened))
    ka1 = Atom("ka", PARAMETER, index=1)
    kab2, kab3 = (Atom("kab", PARAMETER, index=i) for i in (2, 3))
    assert normalize(Enc(concat(alpha, kab2), ka1), ctx) == concat(Enc(alpha, ka1), kab2)
    assert normalize(Enc(concat(alpha, kab), ka), ctx) == concat(Enc(alpha, ka), kab)
    assert normalize(concat(Enc(alpha, kab2), kab2), ctx) == alpha
    assert normalize(concat(Enc(alpha, kab2), kab3), ctx) == concat(Enc(alpha, kab2), kab3)
    # a variable is not a copy of a declared name
    x = Atom("kab", VARIABLE)
    assert normalize(Enc(concat(alpha, x), ka), ctx) == Enc(concat(alpha, x), ka)


def test_normalize_idempotent_on_random_terms(simple_ctx):
    rng = random.Random(7)
    pool = [Atom("A"), Atom("B"), Atom("alpha")]
    keys = [Atom("ka"), Atom("ka-1"), Atom("kab")]
    for _ in range(300):
        m = random_message(rng, pool, keys, max_depth=4)
        n = normalize(m, simple_ctx)
        assert normalize(n, simple_ctx) == n


# Inverse-key pairs, an indexed copy of kc, and one keys-monotone rule
# that moves a kc-ciphertext at the head of a pair to its end: a pair of
# kc-ciphertexts only, and nothing else, rotates until the step budget ends
_KC, _X, _Y = Atom("kc"), Atom("X", VARIABLE), Atom("Y", VARIABLE)
_ROTATE = RewriteRule(concat(Enc(_X, _KC), _Y), concat(_Y, Enc(_X, _KC)))
_ROTATE_CTX = make_context(
    ["A", "B", "I"], "I", {"alpha": ["A", "B"], "ka-1": ["A"], "kb-1": ["B"], "kc-1": ["A"]},
    [("ka", "ka-1"), ("kb", "kb-1"), ("kc", "kc-1")], rewrite_rules=(_ROTATE,))
_ROTATE_POOL = [Atom("A"), Atom("B"), Atom("alpha"), _X]
_ROTATE_KEYS = [Atom(n) for n in ("ka", "ka-1", "kb", "kb-1", "kc", "kc-1")] + [
    Atom("kc", PARAMETER, index=1), Atom("kc-1", PARAMETER, index=1)]


def _normal_form_or_none(normalise, m):
    try:
        return normalise(m, _ROTATE_CTX)
    except NonTermination:
        return None


# a rotation runs 10,000 steps before NonTermination, past the deadline;
# seed 47 with its head under kc rotates forever
@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(seed=47, head_under_kc=True)
def test_normalize_matches_the_rebuilding_reference(seed, head_under_kc):
    assert keys_monotone(_ROTATE)
    rng = random.Random(seed)
    parts = [random_message(rng, _ROTATE_POOL, _ROTATE_KEYS, max_depth=3)
             for _ in range(rng.randint(1, 3))]
    if head_under_kc:
        parts[0] = Enc(parts[0], _KC)
    m = concat(*parts)
    n = _normal_form_or_none(normalize, m)
    assert n == _normal_form_or_none(reference_normalize.normalize, m)
    if n is not None:
        assert normalize(n, _ROTATE_CTX) is n


def test_normalize_returns_a_term_in_normal_form_itself(simple_ctx, simple_syms):
    m = parse_message("B.{A.{alpha}_ka}_kab.A", simple_syms)
    assert normalize(m, simple_ctx) is m
    reduced = parse_message("B.{{alpha}_ka}_ka-1.{A}_kab", simple_syms)
    n = normalize(reduced, simple_ctx)
    assert n == parse_message("B.alpha.{A}_kab", simple_syms)
    assert n.parts[2] is reduced.parts[2]


def test_rule_rejects_unbound_rhs_metavariable():
    # M and N are undeclared, so the rule reads both as metavariables, and
    # its left side never binds N
    with pytest.raises(ContextError, match="^rule M: rhs introduces metavariables$"):
        parse_protocol(bundled("ns") + "rule M -> N;\n")


def test_validator_accepts_default_rules():
    # the built-in cancellation, written as a rule
    mv = Atom("M", VARIABLE)
    k, kinv = Atom("k", PARAMETER), Atom("k-1", PARAMETER)
    assert keys_monotone(RewriteRule(Enc(Enc(mv, kinv), k), mv))


def test_validator_keeps_metavariables_apart_from_declared_names():
    # a declared name spelled like a metavariable is still another atom:
    # the rule moves kb from X onto the declared name
    xv, kb = Atom("X", VARIABLE), Atom("kb")
    for name in ("probe-0", "X"):
        declared = Atom(name)
        moved = RewriteRule(concat(Enc(xv, kb), declared), concat(xv, Enc(declared, kb)))
        assert not keys_monotone(moved)


def test_validator_rejects_key_adding_rule():
    mv = Atom("M", VARIABLE)
    wrap = RewriteRule(mv, Enc(mv, Atom("k")))
    assert not keys_monotone(wrap)


def test_validator_flags_split_rule_for_selection_review():
    # splitting one encryption into two keeps every guard set: monotone
    av, bv = Atom("a", VARIABLE), Atom("b", VARIABLE)
    kp = Atom("k", PARAMETER)
    split = RewriteRule(
        Enc(concat(av, bv), kp),
        concat(Enc(av, kp), Enc(bv, kp)))
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
