"""End-to-end gate: the eleven headline checks, one verdict line each."""

from __future__ import annotations

import contextlib
import io
import random
import runpy
import time
from pathlib import Path

from message_helpers import family, random_message
from secwitness.cli import EXIT_OK, main
from secwitness.context import (
    TOP,
    is_identity,
    make_context,
    meet,
    show,
)
from secwitness.oracle import (
    check_full_invariance,
    check_non_disclosure,
    random_well_protected_set,
)
from secwitness.protocols import bundled, load_bundled
from secwitness.rewrite import (
    RewriteRule,
    access,
    keys_monotone,
    normalize,
)
from secwitness.roles import extract_generalized_roles, pattern_space, roles_for
from secwitness.selection import select, value_function
from secwitness.terms import (
    PARAMETER,
    VARIABLE,
    Atom,
    Enc,
    Message,
    SymbolTable,
    atoms,
    parse_message,
)
from secwitness.witness import analyze, witness_value

FUNCS = [value_function(n) for n in ("fmax", "fek", "fn")]


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _symbols(*names: str) -> SymbolTable:
    return SymbolTable({n: Atom(n) for n in names})


# The bounds-ordering experiment and its generator: a fresh small context
# whose data atoms are coverable by every key, so any encryption pattern over
# it is well protected by construction.
BOUNDS_CHECK = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "bounds_check.py"))


def test_criterion_01_ns_table():
    t0 = time.monotonic()
    report = analyze(load_bundled("ns"))
    elapsed = time.monotonic() - t0
    rows = report.rows
    ok = (
        not report.fulfilled
        and [r.atom.display() for r in rows] == ["Na^i", "X", "Y", "Nb^i"]
        and [(r.role_id, r.step) for r in rows] == [("A_G1", 1), ("A_G2", 3), ("B_G1", 2), ("B_G1", 2)]
        and [r.lower for r in rows] == [frozenset("AB"), frozenset("B"), frozenset("AB"), frozenset(["A", "B", "A_3"])]
        and [r.estimate for r in rows] == [TOP, frozenset("AB"), frozenset("AB"), frozenset("AB")]
        and [r.fulfilled for r in rows] == [True, True, True, False]
        and rows[3].blame == frozenset({"A_3"})
        and elapsed < 1.0
    )
    _verdict(1, ok, f"four rows exact, blame {{A_3}}, {elapsed * 1000:.0f} ms")


def test_criterion_02_nsl_table(tmp_path):
    t0 = time.monotonic()
    report = analyze(load_bundled("nsl"))
    elapsed = time.monotonic() - t0
    rows = report.rows
    proto = tmp_path / "nsl.proto"
    proto.write_text(bundled("nsl"), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = main(["analyze", str(proto)])
    ok = (
        report.fulfilled
        and [r.atom.display() for r in rows] == ["Na^i", "X", "Y", "Nb^i"]
        and [r.lower for r in rows] == [frozenset("AB"), frozenset("B"), frozenset("AB"), frozenset("AB")]
        and [r.estimate for r in rows] == [TOP, frozenset("AB"), frozenset("AB"), frozenset("AB")]
        and all(r.fulfilled for r in rows)
        and exit_code == EXIT_OK
        and elapsed < 1.0
    )
    _verdict(2, ok, f"four rows exact, exit {exit_code}, {elapsed * 1000:.0f} ms")


def test_criterion_03_access_example():
    ctx = make_context(
        ["A", "B", "C", "D", "E", "F", "S", "I"], "I",
        {"alpha": ["A", "C"], "kab-1": ["A", "B"], "kac-1": ["A", "C"], "kef-1": ["E", "F"]},
        [("kab", "kab-1"), ("kac", "kac-1"),
         ("kef", "kef-1")],
    )
    symbols = _symbols("A", "B", "C", "D", "E", "F", "S", "I", "alpha",
                       "kab", "kab-1", "kac", "kac-1", "kef", "kef-1")
    m = parse_message("{{A.D.alpha}_kab.alpha.{A.E.{C.alpha}_kef}_kab}_kac", symbols)
    got = access(Atom("alpha"), m, ctx)
    want = family(
        (Atom("kac-1"), Atom("kab-1")),
        (Atom("kac-1"),),
        (Atom("kac-1"), Atom("kab-1"), Atom("kef-1")),
    )
    _verdict(3, got == want, "three guard sets exact")


def test_criterion_04_selection_and_value_examples():
    nested_ctx = make_context(
        ["A", "B", "C", "D", "E", "F", "S", "I"], "I",
        {"alpha": ["A", "C"], "kab-1": ["A", "B"], "kac-1": ["A", "C"],
         "kad-1": ["A", "D"], "kef-1": ["E", "F"]},
        [("kab", "kab-1"), ("kac", "kac-1"),
         ("kad", "kad-1"), ("kef", "kef-1")],
    )
    nested_syms = _symbols("A", "B", "C", "D", "E", "F", "S", "I", "alpha",
                           "kab", "kab-1", "kac", "kac-1", "kad", "kad-1", "kef", "kef-1")
    nested = parse_message("{{{alpha.E}_kab.F}_kac.D}_kad", nested_syms)
    alpha = Atom("alpha")
    keys, names = select(alpha, nested, nested_ctx)
    s_got = [keys | names, keys, names]
    s_want = [
        frozenset({Atom("E"), Atom("F"), Atom("kac-1")}),
        frozenset({Atom("kac-1")}),
        frozenset({Atom("E"), Atom("F")}),
    ]

    flat_ctx = make_context(
        ["A", "B", "C", "D", "S", "I"], "I",
        {"alpha": ["A", "B", "S"], "kab-1": ["A", "B", "S"]},
        [("kab", "kab-1")],
    )
    flat_syms = _symbols("A", "B", "C", "D", "S", "I", "alpha", "kab", "kab-1")
    flat = parse_message("{A.C.alpha.D}_kab", flat_syms)
    f_got = [F(alpha, flat, flat_ctx) for F in FUNCS]
    f_want = [frozenset("ACDBS"), frozenset("ABS"), frozenset("ACD")]
    _verdict(4, s_got == s_want and f_got == f_want, "three selections and three values exact")


def test_criterion_05_witness_example():
    ctx = make_context(
        ["A", "B", "C", "D", "I"], "I",
        {"alpha": ["A", "D"], "kad-1": ["A", "D"], "kbc-1": ["B", "C"]},
        [("kad", "kad-1"), ("kbc", "kbc-1")],
    )
    symbols = SymbolTable({**{n: Atom(n) for n in
                              ("A", "B", "C", "D", "I", "alpha", "kad", "kad-1", "kbc", "kbc-1")},
                           **{n: Atom(n, VARIABLE) for n in ("X", "Y", "Z")}})
    pool = [parse_message(t, symbols)
            for t in ("{alpha.B.X}_kad", "{alpha.Y.C}_kad", "{A.Z}_kbc")]
    m1 = parse_message("{alpha.B.C}_kad", symbols)
    got = witness_value(Atom("alpha"), m1, {}, pool, FUNCS[0], ctx)
    _verdict(5, got == frozenset("BADC"), f"witness value {show(got)}")


def test_criterion_06_bounds_ordering():
    t0 = time.monotonic()
    pairs, checks, violations = BOUNDS_CHECK["run"](1000, 2026)
    elapsed = time.monotonic() - t0
    ok = pairs >= 1000 and checks >= 1000 and not violations and elapsed < 30.0
    _verdict(6, ok, f"{pairs} instances, {checks} atom checks, "
                    f"{len(violations)} violations, {elapsed:.1f} s")


def test_criterion_07_well_formedness_laws(monkeypatch):
    bad_self = bad_union = bad_absent = 0

    rng = random.Random(7)
    for i in range(500):
        ctx, data, _ = BOUNDS_CHECK["random_setup"](rng)
        s = rng.choice(data)
        F = FUNCS[i % 3]
        if F(s, s, ctx) is not None or F(s, [s], ctx) is not None:
            bad_self += 1

    # smaller random sets than the oracle draws by default
    monkeypatch.setattr("secwitness.oracle.MAX_MESSAGES", 3)
    rng = random.Random(8)
    for i in range(500):
        ctx, data, _ = BOUNDS_CHECK["random_setup"](rng)
        m1 = random_well_protected_set(rng, ctx)
        m2 = random_well_protected_set(rng, ctx)
        alpha = rng.choice(data)
        F = FUNCS[i % 3]
        if F(alpha, m1 + m2, ctx) != meet(F(alpha, m1, ctx), F(alpha, m2, ctx)):
            bad_union += 1

    monkeypatch.setattr("secwitness.oracle.MAX_MESSAGES", 4)
    rng = random.Random(9)
    for i in range(500):
        ctx, data, _ = BOUNDS_CHECK["random_setup"](rng)
        alpha = rng.choice(data)
        M = [m for m in random_well_protected_set(rng, ctx)
             if alpha not in atoms(m)]
        F = FUNCS[i % 3]
        if F(alpha, M, ctx) != TOP:
            bad_absent += 1

    ok = bad_self == bad_union == bad_absent == 0
    _verdict(7, ok, f"500 cases per law, violations {bad_self}/{bad_union}/{bad_absent}")


def test_criterion_08_full_invariance():
    ctx = load_bundled("ns").context
    t0 = time.monotonic()
    reports = check_full_invariance({n: value_function(n) for n in ("fmax", "fek", "fn")},
                                    ctx, trials=500, depth=4, seed=0)

    def leaky(alpha, m, c):
        ms = [m] if isinstance(m, Message) else list(m)
        names = set()
        for mm in ms:
            for a in atoms(mm):
                if is_identity(c, a) and a != alpha:
                    names.add(a.display())
        return frozenset(names)

    caught = not check_full_invariance({"leaky": leaky}, ctx, trials=500, depth=4, seed=1)["leaky"].ok
    elapsed = time.monotonic() - t0
    ok = all(r.ok and not r.failures for r in reports.values()) and caught and elapsed < 60.0
    _verdict(8, ok, f"3x500 trials clean, leaky mutant caught, {elapsed:.1f} s")


def test_criterion_09_non_disclosure():
    t0 = time.monotonic()
    honest_ok = True
    for name in ("ns", "nsl"):
        p = load_bundled(name)
        session = [s.message for s in p.steps]
        honest_ok &= check_non_disclosure(session, p.context, depth=5).ok

    rng = random.Random(12)
    random_ok = True
    contexts = [load_bundled("ns").context, load_bundled("nsl").context]
    for i in range(60):
        ctx = contexts[i % 2]
        M = random_well_protected_set(rng, ctx)
        random_ok &= check_non_disclosure(M, ctx, depth=5).ok
    elapsed = time.monotonic() - t0
    ok = honest_ok and random_ok and elapsed < 60.0
    _verdict(9, ok, f"two honest sessions and 60 random sets clean, {elapsed:.1f} s")


def test_criterion_10_role_extraction():
    counts = {}
    agree = True
    for name, want in (("ns", 6), ("nsl", 7)):
        p = load_bundled(name)
        auto = extract_generalized_roles(p)
        manual = roles_for(p, "manual")
        agree &= (
            [(r.role_id, tuple((s.direction, str(s.message)) for s in r.steps)) for r in auto]
            == [(r.role_id, tuple((s.direction, str(s.message)) for s in r.steps)) for r in manual]
        )
        counts[name] = len(pattern_space(p, auto))
        agree &= counts[name] == want
    _verdict(10, agree, f"computed roles match declared, pool sizes {counts['ns']}/{counts['nsl']}")


def test_criterion_11_rewriting():
    ctx = make_context(
        ["A", "B", "I"], "I",
        {"alpha": ["A", "B"], "ka-1": ["A"], "kab": ["A", "B"]},
        [("ka", "ka-1"), ("kab", "kab")],
    )
    symbols = _symbols("A", "B", "I", "alpha", "ka", "ka-1", "kab")
    cancel = parse_message("{d(ka-1, alpha)}_ka", symbols, allow_dec=True)
    cancels = normalize(cancel, ctx) == Atom("alpha")

    rng = random.Random(31)
    pool = [Atom("A"), Atom("B"), Atom("alpha")]
    keys = [Atom("ka"), Atom("ka-1"), Atom("kab")]
    idempotent = all(
        (lambda n: normalize(n, ctx) == n)(normalize(random_message(rng, pool, keys, 4), ctx))
        for _ in range(1000)
    )

    mv = Atom("M", VARIABLE)
    k, kinv = Atom("k", PARAMETER), Atom("k-1", PARAMETER)
    accepts = keys_monotone(RewriteRule(Enc(Enc(mv, kinv), k), mv))
    rejects = not keys_monotone(RewriteRule(mv, Enc(mv, Atom("k"))))
    ok = cancels and idempotent and accepts and rejects
    _verdict(11, ok, "cancellation, idempotence on 1000 terms, keys-monotonicity verdicts")
