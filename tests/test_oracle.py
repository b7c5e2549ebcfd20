"""Bounded attacker model and the randomized reliability checks."""

from __future__ import annotations

import random

import secwitness.selection
from secwitness.context import intruder_knowledge, is_identity, make_context
import secwitness.oracle
from secwitness.oracle import (
    _draw,
    check_full_invariance,
    check_non_disclosure,
    deduce_closure,
    random_well_protected_set,
)
from secwitness.protocols import load_bundled
from secwitness.rewrite import check_well_protected
from secwitness.selection import SIDES, value_function, value_functions
from secwitness.terms import Atom, Enc, Message, atoms, parse_message

FMAX = value_function("fmax")


def test_closure_decrypts_with_the_inverse_key(valuation_ctx, valuation_symbols):
    M = [parse_message("{C.alpha}_kab", valuation_symbols),
         parse_message("kab-1", valuation_symbols)]
    closure = deduce_closure(M, valuation_ctx)
    assert Atom("alpha") in closure.terms
    assert Atom("C") in closure.terms


def test_encryption_needs_the_key(valuation_ctx, valuation_symbols):
    M = [parse_message("A", valuation_symbols)]
    closure = deduce_closure(M, valuation_ctx)
    target = parse_message("{A}_kab-1", valuation_symbols)
    assert Atom("kab-1") not in closure.terms
    assert target not in closure.terms


def test_secret_stays_put_without_the_inverse(valuation_ctx, valuation_symbols):
    M = [parse_message("{alpha}_kab", valuation_symbols)]
    for budget in range(7):
        closure = deduce_closure(M, valuation_ctx, depth_budget=budget)
        assert Atom("alpha") not in closure.terms


def test_closure_normalizes_on_insert(valuation_ctx, valuation_symbols):
    inner = Enc(parse_message("alpha", valuation_symbols), Atom("kab-1"))
    M = [Enc(inner, Atom("kab"))]
    closure = deduce_closure(M, valuation_ctx)
    assert Atom("alpha") in closure.terms


def test_closure_starts_from_intruder_knowledge(valuation_ctx):
    closure = deduce_closure([], valuation_ctx)
    assert Atom("I") in closure.terms


def test_closure_monotone_in_budget(valuation_ctx, valuation_symbols):
    M = [parse_message("{C.alpha}_kab.kab-1", valuation_symbols)]
    runs = [deduce_closure(M, valuation_ctx, depth_budget=b) for b in (2, 3, 4)]
    assert not any(r.truncated for r in runs)
    assert set(runs[0].terms) <= set(runs[1].terms) <= set(runs[2].terms)


def test_closure_monotone_in_the_set(valuation_ctx, valuation_symbols):
    m1 = parse_message("{C.alpha}_kab", valuation_symbols)
    m2 = parse_message("kab-1", valuation_symbols)
    small = deduce_closure([m1], valuation_ctx)
    large = deduce_closure([m1, m2], valuation_ctx)
    assert not small.truncated and not large.truncated
    assert set(small.terms) <= set(large.terms)


def test_truncation_is_flagged(valuation_ctx, valuation_symbols, monkeypatch):
    # the message holds seven atoms: at a cap of six it is left out, at
    # seven it is kept, and the draw passes over its pairs and ciphertexts
    M = [parse_message("A.B.C.D.S.{C.alpha}_kab", valuation_symbols)]
    monkeypatch.setattr(secwitness.oracle, "ATOM_CAP", 6)
    capped = deduce_closure(M, valuation_ctx)
    assert capped.truncated
    assert M[0] not in capped.terms
    monkeypatch.setattr(secwitness.oracle, "ATOM_CAP", 7)
    monkeypatch.setattr(secwitness.oracle, "SAMPLE_TERMS", 10**6)
    kept = deduce_closure(M, valuation_ctx, depth_budget=2)
    assert not kept.truncated and M[0] in kept.terms
    drawn, cut = _draw(kept, 2, random.Random(0))
    assert cut
    assert all(len(atoms(t)) <= 7 for t in drawn)
    assert M[0] in drawn


def test_a_trial_whose_draw_is_cut_counts_as_truncated(monkeypatch):
    # no closure of this run holds a term of more than four atoms, but
    # pairs of their terms do
    closures = []

    def deduce(*args, **kwargs):
        closures.append(deduce_closure(*args, **kwargs))
        return closures[-1]

    monkeypatch.setattr(secwitness.oracle, "ATOM_CAP", 4)
    monkeypatch.setattr(secwitness.oracle, "deduce_closure", deduce)
    ctx = load_bundled("ns").context
    report = check_full_invariance({"fmax": FMAX}, ctx, trials=10, depth=4, seed=0)["fmax"]
    assert len(closures) == 10 and not any(c.truncated for c in closures)
    assert report.ok
    assert 0 < report.truncated_trials < 10


def test_random_sets_come_out_well_protected(ns):
    rng = random.Random(0)
    for _ in range(30):
        M = random_well_protected_set(rng, ns.context)
        assert check_well_protected(M, ns.context).ok
        assert 1 <= len(M) <= 5


def test_random_sets_keep_a_hidden_principal_out_of_the_clear():
    # A's declared level hides its name from I, so A may only appear
    # under a key whose inverse A or B holds
    ctx = make_context(["A", "B", "I"], "I", {"A": ["A", "B"], "kb-1": ["B"]},
                       [("kb", "kb-1")])
    rng = random.Random(0)
    for _ in range(30):
        M = random_well_protected_set(rng, ctx)
        assert check_well_protected(M, ctx).ok
    assert Atom("A") not in intruder_knowledge(ctx)


def test_bound_survives_deduction_small_run(ns):
    report = check_full_invariance({"fmax": FMAX}, ns.context, trials=40, depth=4, seed=0)["fmax"]
    assert report.ok
    assert report.failures == ()
    assert report.trials == 40


def test_zero_trials_pass_vacuously(ns):
    assert check_full_invariance({"fmax": FMAX}, ns.context, trials=0)["fmax"].ok


def test_leaky_selection_is_caught(ns):
    # reads identities from anywhere in the term, ignoring the protective
    # key; pairing a ciphertext with a foreign identity shifts its value
    def leaky(alpha, m, ctx):
        ms = [m] if isinstance(m, Message) else list(m)
        names = set()
        for mm in ms:
            for a in atoms(mm):
                if is_identity(ctx, a) and a != alpha:
                    names.add(a.display())
        return frozenset(names)

    report = check_full_invariance({"leaky": leaky}, ns.context, trials=500, depth=4, seed=1)["leaky"]
    assert not report.ok
    assert report.failures


def test_non_disclosure_on_honest_sessions(ns, nsl):
    for p in (ns, nsl):
        session = [s.message for s in p.steps]
        report = check_non_disclosure(session, p.context, depth=5)
        assert report.ok, report.failures


def test_non_disclosure_guards_its_precondition(valuation_ctx, valuation_symbols):
    M = [parse_message("alpha", valuation_symbols)]
    report = check_non_disclosure(M, valuation_ctx)
    assert not report.ok
    assert report.trials == 0
    assert report.precondition_failures
    assert report.failures == ()


def test_non_disclosure_of_nothing(valuation_ctx):
    assert check_non_disclosure([], valuation_ctx).ok


def test_random_sets_vary_and_reseed(ns):
    a = random_well_protected_set(random.Random(5), ns.context)
    b = random_well_protected_set(random.Random(5), ns.context)
    c = [random_well_protected_set(random.Random(s), ns.context) for s in range(8)]
    assert a == b
    assert len({tuple(str(m) for m in M) for M in c}) > 1


def test_the_bounds_of_a_run_select_each_question_once(monkeypatch):
    # asked bound by bound, every question is selected once per bound:
    # 165 selections for the three bounds on this run
    calls = []
    select = secwitness.selection.select

    def counting(alpha, m, ctx):
        calls.append((alpha, m if isinstance(m, Message) else tuple(m)))
        return select(alpha, m, ctx)

    monkeypatch.setattr(secwitness.selection, "select", counting)
    ctx = load_bundled("ns").context
    kw = dict(trials=10, depth=4, seed=0)
    check_full_invariance({"fek": value_function("fek")}, ctx, **kw)
    alone = calls[:]
    calls.clear()
    check_full_invariance(value_functions(sorted(SIDES)), ctx, **kw)
    assert calls == alone
    assert len(calls) == 55
