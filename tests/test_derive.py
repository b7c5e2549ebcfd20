"""Variable erasure and source valuation through it."""

from __future__ import annotations

from reference_bounds import derive_all
from secwitness.context import finite
from secwitness.derive import contribution_of, derive, derive_keeping
from secwitness.selection import value_function
from secwitness.terms import (
    Atom,
    Sort,
    Substitution,
    SymbolTable,
    atoms,
    concat,
    parse_message,
    variables_of,
)
from secwitness.unify import unify_all

FMAX = value_function("fmax")

X = Atom("X", Sort.VARIABLE)
Y = Atom("Y", Sort.VARIABLE)
SYMS = SymbolTable({**{n: Atom(n) for n in ("A", "B", "Na", "ka", "kb")}, "X": X, "Y": Y})


def _pattern(pool, text):
    by_str = {str(m): m for m in pool}
    return by_str[text]


def _role_send(roles, role_id, index):
    role = next(r for r in roles if r.role_id == role_id)
    return role.steps[index].message


def test_derive_removes_listed_variable():
    m = parse_message("{Na.X.B}_ka", SYMS)
    assert derive(m, {X}) == parse_message("{Na.B}_ka", SYMS)


def test_derive_ground_noop():
    m = parse_message("{A.Na}_kb", SYMS)
    assert derive(m, {X, Y}) == m


def test_derive_keeping():
    m = parse_message("{Na.X.B}_ka", SYMS)
    assert derive_keeping(m, X) == m
    assert derive_all(m) == parse_message("{Na.B}_ka", SYMS)


def test_derive_empty_set_noop():
    m = parse_message("{Na.X.B}_ka", SYMS)
    assert derive(m, set()) == m


def test_derive_order_free():
    m = concat(X, parse_message("{Na.X.B}_ka", SYMS), Y)
    assert derive(m, {X, Y}) == derive(derive(m, {Y}), {X})
    assert variables_of(derive(m, {X, Y})) == set()


def test_derive_idempotent_per_variable():
    m = parse_message("{Na.X.B}_ka", SYMS)
    assert derive(derive(m, {X}), {X}) == derive(m, {X})


# --- valuation on sources --------------------------------------------------


def test_static_case_initial_pattern(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{A_1.Na_1}_kb_1")
    target = _role_send(ns_roles, "A_G1", 0)           # {A.Na^i}_kb
    alpha = next(a for a in atoms(target) if a.name == "Na")
    sigma = unify_all(source, target)[0]
    assert contribution_of(FMAX, [alpha], source, sigma, ns.context)[alpha] == finite(["A", "B"])


def test_dynamic_case_own_variable(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{X_2}_kb_3")
    target = _role_send(ns_roles, "A_G2", 2)           # {X}_kb
    alpha = next(iter(variables_of(target)))
    sigma = unify_all(source, target)[0]
    assert contribution_of(FMAX, [alpha], source, sigma, ns.context)[alpha] == finite(["B"])


def test_dynamic_case_absorbed_occurrence(ns, ns_roles, ns_pool):
    # the queried nonce rides inside an absorbing variable of the source
    source = _pattern(ns_pool, "{A_3.Y_1}_kb_4")
    target = _role_send(ns_roles, "B_G1", 1)           # {Y.Nb^i.B}_ka
    alpha = next(a for a in atoms(target) if a.name == "Nb")
    sigma = unify_all(source, target)[0]
    got = contribution_of(FMAX, [alpha], source, sigma, ns.context)[alpha]
    assert got == finite(["A", "A_3"])


def test_value_ignores_variable_bindings(ns, ns_roles, ns_pool):
    source = _pattern(ns_pool, "{X_2}_kb_3")
    target = _role_send(ns_roles, "A_G2", 2)
    alpha = next(iter(variables_of(target)))
    sigma = unify_all(source, target)[0]
    x2 = next(iter(variables_of(source)))
    resigned = Substitution({
        **{a: m for a, m in sigma.items() if a != x2},
        x2: concat(alpha, Atom("C")),
    })
    assert (contribution_of(FMAX, [alpha], source, resigned, ns.context)[alpha]
            == contribution_of(FMAX, [alpha], source, sigma, ns.context)[alpha])


def test_no_contribution_is_none(ns, ns_roles, ns_pool):
    # {A_1.Na_1}_kb_1 says nothing about the content of a sent variable
    source = _pattern(ns_pool, "{A_1.Na_1}_kb_1")
    target = _role_send(ns_roles, "A_G2", 2)           # {X}_kb
    alpha = next(iter(variables_of(target)))
    sigma = unify_all(source, target)[0]
    assert contribution_of(FMAX, [alpha], source, sigma, ns.context) is None


def test_renaming_a_queried_variable_is_no_claim(ns, ns_roles, ns_pool):
    # {Nb_6}_kb_6 unifies with {X}_kb by renaming X; that gives no view on X
    source = _pattern(ns_pool, "{Nb_6}_kb_6")
    target = _role_send(ns_roles, "A_G2", 2)
    alpha = next(iter(variables_of(target)))
    sigma = unify_all(source, target)[0]
    assert contribution_of(FMAX, [alpha], source, sigma, ns.context) is None


def test_overlapping_occurrences_meet(witness_ctx, witness_pool):
    # alpha occurs statically and inside the bound variable: both views count
    source = witness_pool[0]                           # {alpha.B.X}_kad
    alpha = Atom("alpha")
    x = next(iter(variables_of(source)))
    sigma = Substitution({x: concat(alpha, Atom("B"))})
    static_only = FMAX(alpha, derive_all(source), witness_ctx)
    dynamic_only = FMAX(x, source, witness_ctx)
    got = contribution_of(FMAX, [alpha], source, sigma, witness_ctx)[alpha]
    from secwitness.context import meet
    assert got == meet(static_only, dynamic_only)
