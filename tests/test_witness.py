"""Per-send bounds, the witness value between them, and the full criterion."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from secwitness.context import TOP, geq, meet
from secwitness.derive import contribution_of
from secwitness.errors import NoProtectivePattern
from secwitness.protocols import parse_protocol
from secwitness.selection import value_function
from secwitness.terms import (
    CONSTANT,
    VARIABLE,
    Atom,
    atoms,
    parse_message,
    substitute,
    variables_of,
)
from secwitness.unify import unify_all
from secwitness.witness import (
    analyze,
    lower_bound,
    reception_estimate,
    render_table,
    row_record,
    to_json_lines,
    upper_bound,
    witness_value,
)

FMAX = value_function("fmax")


def _role(roles, role_id):
    return next(r for r in roles if r.role_id == role_id)


def _named(m, base):
    return next(a for a in atoms(m) if a.name == base)


# --- lower bound -----------------------------------------------------------


def test_lower_bound_first_nonce(ns, ns_roles, ns_pool):
    sent = _role(ns_roles, "A_G1").steps[0].message
    got = lower_bound(_named(sent, "Na"), sent, ns_pool, FMAX, ns.context)
    assert got == frozenset(["A", "B"])


def test_lower_bound_sent_variable(ns, ns_roles, ns_pool):
    sent = _role(ns_roles, "A_G2").steps[2].message
    x = next(iter(variables_of(sent)))
    assert lower_bound(x, sent, ns_pool, FMAX, ns.context) == frozenset(["B"])


def test_lower_bound_replied_nonce(ns, ns_roles, ns_pool):
    sent = _role(ns_roles, "B_G1").steps[1].message
    got = lower_bound(_named(sent, "Nb"), sent, ns_pool, FMAX, ns.context)
    assert got == frozenset(["A", "B", "A_3"])


def test_lower_bound_clear_secret_raises(witness_ctx, witness_symbols, witness_pool):
    m = parse_message("alpha.{A.Z}_kbc", witness_symbols)
    with pytest.raises(NoProtectivePattern):
        lower_bound(Atom("alpha"), m, witness_pool, FMAX, witness_ctx)


def test_lower_bound_clear_variable_raises(witness_ctx, witness_symbols, witness_pool):
    m = parse_message("X.{A.Z}_kbc", witness_symbols)
    x = Atom("X", VARIABLE)
    with pytest.raises(NoProtectivePattern):
        lower_bound(x, m, witness_pool, FMAX, witness_ctx)


# --- upper bound and reception estimate ------------------------------------


def test_upper_bound_variable_reception(ns, ns_roles):
    received = _role(ns_roles, "A_G2").steps[1].message   # {Na^i.X.B}_ka
    x = next(iter(variables_of(received)))
    assert upper_bound(x, received, FMAX, ns.context) == frozenset(["A", "B"])


def test_upper_bound_absent_atom_is_top(ns, ns_roles):
    received = _role(ns_roles, "B_G1").steps[0].message   # {A.Y}_kb
    nb = _named(_role(ns_roles, "B_G1").steps[1].message, "Nb")
    assert upper_bound(nb, received, FMAX, ns.context) == TOP


def test_reception_estimate_empty_is_top(ns):
    assert reception_estimate(Atom("Na"), [], FMAX, ns.context) == TOP


def test_reception_estimate_tightens_by_received_variables(ns, ns_roles):
    # the fixed nonce is absent from the reception, but the variable the
    # reception carries still caps who could have authored it
    role = _role(ns_roles, "B_G1")
    received = [role.steps[0].message]
    nb = _named(role.steps[1].message, "Nb")
    assert upper_bound(nb, received[0], FMAX, ns.context) == TOP
    assert reception_estimate(nb, received, FMAX, ns.context) == frozenset(["A", "B"])


def test_upper_bound_over_a_set_meets(ns, ns_roles):
    m1 = _role(ns_roles, "B_G1").steps[0].message
    m2 = _role(ns_roles, "A_G2").steps[1].message
    x = next(iter(variables_of(m2)))
    single = upper_bound(x, m2, FMAX, ns.context)
    both = upper_bound(x, [m1, m2], FMAX, ns.context)
    assert geq(single, both)


# --- witness value ---------------------------------------------------------


def test_witness_three_pattern_example(witness_ctx, witness_symbols, witness_pool):
    m1 = parse_message("{alpha.B.C}_kad", witness_symbols)
    got = witness_value(Atom("alpha"), m1, {}, witness_pool, FMAX, witness_ctx)
    assert got == frozenset(["B", "A", "D", "C"])


def test_witness_singleton_pool_is_the_derivative(witness_ctx, witness_symbols, witness_pool):
    m1 = parse_message("{alpha.B.C}_kad", witness_symbols)
    pool = witness_pool[:1]
    sigma = unify_all(pool[0], m1)[0]
    want = contribution_of(FMAX, [Atom("alpha")], pool[0], sigma, witness_ctx)[Atom("alpha")]
    got = witness_value(Atom("alpha"), m1, {}, pool, FMAX, witness_ctx)
    assert got == want


def test_witness_sits_between_the_bounds(ns, ns_roles, ns_pool):
    role = _role(ns_roles, "B_G1")
    sent = role.steps[1].message
    nb = _named(sent, "Nb")
    y = next(iter(variables_of(sent)))
    low = lower_bound(nb, sent, ns_pool, FMAX, ns.context)
    rng = random.Random(7)
    for ground in ("Na", "Nb", "A", "B"):
        tag = rng.choice(["i", "j", None])
        sigma = {y: Atom(ground, CONSTANT, session_tag=tag)}
        w = witness_value(nb, sent, sigma, ns_pool, FMAX, ns.context)
        up = upper_bound(nb, substitute(sent, sigma), FMAX, ns.context)
        assert geq(up, w)
        if ground not in ("A", "B"):
            # identity instances can widen the witness past the static lower
            # bound, which is why bound checks draw non-identity data
            assert geq(w, low)


def test_witness_identity_instance_escapes_lower_bound(ns, ns_roles, ns_pool):
    role = _role(ns_roles, "B_G1")
    sent = role.steps[1].message
    nb = _named(sent, "Nb")
    y = next(iter(variables_of(sent)))
    sigma = {y: Atom("I")}
    w = witness_value(nb, sent, sigma, ns_pool, FMAX, ns.context)
    low = lower_bound(nb, sent, ns_pool, FMAX, ns.context)
    up = upper_bound(nb, substitute(sent, sigma), FMAX, ns.context)
    assert w == frozenset(["A", "B", "I"])
    assert geq(up, w)
    assert not geq(w, low)


# --- the criterion over whole protocols ------------------------------------


def test_analyze_ns_rows(ns):
    report = analyze(ns)
    assert not report.fulfilled
    assert [r.atom.display() for r in report.rows] == ["Na^i", "X", "Y", "Nb^i"]
    assert [r.role_id for r in report.rows] == ["A_G1", "A_G2", "B_G1", "B_G1"]
    assert [r.step for r in report.rows] == [1, 3, 2, 2]
    assert [r.lower for r in report.rows] == [
        frozenset(["A", "B"]), frozenset(["B"]), frozenset(["A", "B"]), frozenset(["A", "B", "A_3"]),
    ]
    assert [r.estimate for r in report.rows] == [
        TOP, frozenset(["A", "B"]), frozenset(["A", "B"]), frozenset(["A", "B"]),
    ]
    assert [r.fulfilled for r in report.rows] == [True, True, True, False]
    assert report.rows[0].atom_level == frozenset(["A", "B"])
    assert report.rows[1].atom_level is None
    assert report.rows[3].blame == frozenset({"A_3"})


def test_analyze_nsl_all_fulfilled(nsl):
    report = analyze(nsl)
    assert report.fulfilled
    assert len(report.rows) == 4
    assert all(r.fulfilled for r in report.rows)
    nb = next(r for r in report.rows if r.atom.name == "Nb")
    assert nb.lower == frozenset(["A", "B"])
    assert all(r.blame == frozenset() for r in report.rows)


def test_analyze_empty_protocol():
    p = parse_protocol("protocol Quiet;\nprincipal A, B;\nintruder I;\n")
    report = analyze(p)
    assert report.fulfilled
    assert report.rows == ()


def test_analyze_bare_secret_is_not_fulfilled():
    p = parse_protocol(
        "protocol Leak;\n"
        "principal A, B;\n"
        "intruder I;\n"
        "fresh Na by A;\n"
        "level Na = {A, B};\n"
        "step 1: A -> B : Na;\n"
    )
    report = analyze(p)
    assert not report.fulfilled
    (row,) = report.rows
    assert row.lower is None
    assert row.blame == {row.atom.display()}


LEAK2 = ("protocol Leak2; principal A, B; intruder I; fresh Na by B; fresh Nb by A; "
         "level Na = {B}; level Nb = {A,B}; step 1: B -> A : Na; step 2: A -> B : Nb;")


def test_a_bare_atom_fails_even_when_its_estimate_reads_bottom():
    # A receives Na bare, so its estimate for Nb reads ⊥ and the requirement
    # meet({A,B}, ⊥) is ⊥, which the ⊥ bound dominates: only the bare send
    # itself makes the row fail.
    report = analyze(parse_protocol(LEAK2))
    rows = {r.role_id: r for r in report.rows}
    nb, na = rows["A_G1"], rows["B_G1"]
    assert nb.atom.display() == "Nb^i" and nb.received == (Atom("X", VARIABLE),)
    assert (nb.lower, nb.atom_level, nb.estimate) == (None, frozenset({"A", "B"}), None)
    assert not nb.fulfilled and nb.blame == {"Nb^i"}
    assert na.atom.display() == "Na^i" and not na.fulfilled and na.blame == {"Na^i"}
    assert not report.fulfilled
    table = render_table(report).splitlines()
    assert table[2].split() == ["Nb^i", "A_G1", "X", "Nb^i", "⊥", "{A,B}", "⊥", "NotFulfilled"]


def test_blame_exactly_when_not_fulfilled(ns, nsl):
    for p in (ns, nsl):
        for r in analyze(p).rows:
            assert bool(r.blame) == (not r.fulfilled)


# --- rendering and records -------------------------------------------------


def test_render_table_ns(ns):
    text = render_table(analyze(ns))
    assert "⊤" in text
    assert "∀X" in text and "∀Y" in text
    assert "NotFulfilled" in text
    assert "unjustified on Nb^i (B_G1): A_3" in text


def test_render_table_nsl_has_no_complaint(nsl):
    text = render_table(analyze(nsl))
    assert "unjustified" not in text
    assert "NotFulfilled" not in text


def test_row_record_round_trip(ns, nsl):
    # A row record is made of JSON values only, so it survives a dump and load unchanged.
    for p in (ns, nsl):
        for r in analyze(p).rows:
            rec = row_record(r)
            assert json.loads(json.dumps(rec)) == rec


def test_json_lines_round_trip(ns, nsl):
    for p in (ns, nsl):
        report = analyze(p)
        text = to_json_lines(report)
        records = [json.loads(line) for line in text.splitlines()]
        assert records == [row_record(r) for r in report.rows]
    bad = next(rec for rec in map(json.loads, to_json_lines(analyze(ns)).splitlines())
               if rec["verdict"] == "NotFulfilled")
    assert bad["blame"] == ["A_3"]
    assert bad["lowerBound"] == {"members": ["A", "A_3", "B"]}


# --- properties ------------------------------------------------------------

names = st.sets(st.sampled_from(["A", "B", "C", "D", "S"]), max_size=5)


@given(low=names, extra=names, required=names)
def test_widening_the_lower_bound_never_restores_fulfilment(low, extra, required):
    before = geq(frozenset(low), frozenset(required))
    after = geq(frozenset(low | extra), frozenset(required))
    if not before:
        assert not after


@given(level=names, estimate=names)
def test_requirement_is_the_meet(level, estimate):
    req = meet(frozenset(level), frozenset(estimate))
    assert req == frozenset(level | estimate)
