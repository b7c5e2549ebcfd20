"""The attacker closure and its draw against the pass-by-pass reference.

`oracle.deduce_closure` splits and opens a term again only when that can
change something, and walks and prints each term once.  These tests check
that it finds the same terms at the same depths, in the same order, with
the same truncation flag, sample order and controlled keys as
`reference_closure`, on well-protected sets and on sets that are not, and
that the property checks built on it report the same.  They check that
`oracle._draw` draws what the reference draws from its whole index space,
and only terms of the closure the oracle once enumerated.  They also check
that the bounds, reading one shared stream of trials, report what each
would on a stream of its own.
"""

from __future__ import annotations

import itertools
import random

import pytest

import reference_closure
import secwitness.oracle
from secwitness.context import TOP, is_identity, make_context
from secwitness.errors import WellProtectionViolation
from secwitness.oracle import (
    _deduce,
    _draw,
    check_full_invariance,
    check_non_disclosure,
    deduce_closure,
    random_well_protected_set,
)
from secwitness.protocols import load_bundled
from secwitness.roles import parse_protocol
from secwitness.selection import SIDES, value_function, value_functions
from message_helpers import random_message
from test_shared_search import subject_text
from secwitness.terms import (
    PARAMETER,
    EMPTY,
    Atom,
    Enc,
    Message,
    SymbolTable,
    atoms,
    concat,
    parse_message,
)

PROTOCOLS = ("ns", "nsl")
ATOM_CAPS = (6, 24)


def assert_same_closure(M, ctx, depth_budget, atom_cap) -> None:
    ref_known, ref_truncated = reference_closure.take_apart(
        M, ctx, depth_budget=depth_budget, atom_cap=atom_cap)
    # the closure reads its atom cap from the module, which no caller sets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secwitness.oracle, "ATOM_CAP", atom_cap)
        terms, depth, closure = _deduce(M, ctx, depth_budget)
        result = deduce_closure(M, ctx, depth_budget=depth_budget)
        reference = reference_closure.deduce_closure(M, ctx, depth_budget=depth_budget)
    assert list(zip(terms, depth)) == list(ref_known.items())
    assert closure.truncated == ref_truncated
    assert list(closure.terms) == reference_closure.sample_order(ref_known)
    assert closure == result == reference


# chain6 truncates at the oracle's own caps, where NS and NSL never do
@pytest.mark.parametrize("protocol", PROTOCOLS + ("chain6",))
@pytest.mark.parametrize("depth_budget", [2, 3, 4, 5])
def test_seeded_sets_match_the_reference(protocol, depth_budget):
    ctx = parse_protocol(subject_text(protocol)).context
    rng = random.Random(depth_budget)
    for atom_cap in ATOM_CAPS:
        for _ in range(15):
            M = random_well_protected_set(rng, ctx)
            assert_same_closure(M, ctx, depth_budget, atom_cap)


# Keys in the clear and secrets outside any encryption: the closure opens
# ciphertexts under both keys of a pair and finds pairs deep inside them
# that a drawn pair makes again at a smaller depth.  The intruder holds
# kp-1.
_WIDE_KEYS = [("ka", "ka-1"), ("kb", "kb-1"), ("kab", "kab"), ("kp", "kp-1")]
_WIDE_CTX = make_context(
    principals=["A", "B", "I"], intruder="I",
    levels={"na": ["A", "B"], "nb": ["A", "B"], "ka-1": ["A"], "kb-1": ["B"],
            "kab": ["A", "B"], "kp-1": ["A", "B", "I"]},
    keys=_WIDE_KEYS,
)
_WIDE_POOL = [Atom(n) for n in ("A", "B", "I", "na", "nb", "ka", "ka-1", "kb", "kb-1", "kab")]
_WIDE_KEY_ATOMS = [Atom(n) for pair in _WIDE_KEYS for n in pair]
_WIDE_INVERSE = {a: b for k, k_inverse in _WIDE_KEYS for a, b in ((k, k_inverse), (k_inverse, k))}


def _nested(rng: random.Random) -> Message:
    """{p.{m}_k}_k' or {{m}_k.p}_k' for a key k and its inverse k', either
    way round: a ciphertext under each key of one pair, the inner one not
    directly under the outer, so normalisation leaves both."""
    k, k_inverse = rng.choice((("ka", "ka-1"), ("kb", "kb-1")))
    if rng.random() < 0.5:
        k, k_inverse = k_inverse, k
    inner = Enc(random_message(rng, _WIDE_POOL, _WIDE_KEY_ATOMS, 2), Atom(k))
    other = random_message(rng, _WIDE_POOL, _WIDE_KEY_ATOMS, 1)
    parts = (other, inner) if rng.random() < 0.5 else (inner, other)
    return Enc(concat(*parts), Atom(k_inverse))


def _buried_pair(rng: random.Random) -> list[Message]:
    """Two atoms given in the clear, and their pair only inside one or two
    layers of encryption: taking apart finds the pair at depth 2 or more,
    and pairing the atoms makes it at depth 1."""
    x, y = rng.sample(_WIDE_POOL, 2)
    buried = concat(x, y)
    for _ in range(rng.randint(1, 2)):
        buried = concat(Enc(buried, Atom(rng.choice(("ka", "kb", "kab")))), Atom("A"))
    return [x, y, buried]


def _key_chain(rng: random.Random) -> list[Message]:
    """The inverse of k1 in a pair, {i2}_k1, {i3.x}_k2, {i3.x}_kp in a pair
    and {y}_k3, for three keys k1, k2, k3 with inverses i1, i2, i3, printed
    in the order the chain unrolls.  A take-apart pass finds i3.x through
    the chain first and through kp later, at a smaller depth, sometimes
    after its last split; splitting it again lowers i3, and opening {y}_k3
    again lowers y."""
    while True:
        k1, k2, k3 = rng.sample(["ka", "kb", "kab", "ka-1", "kb-1"], 3)
        i2, i3 = Atom(_WIDE_INVERSE[k2]), Atom(_WIDE_INVERSE[k3])
        x, y = rng.sample(_WIDE_POOL, 2)
        chain = [Enc(i2, Atom(k1)), Enc(concat(i3, x), Atom(k2)), Enc(y, Atom(k3))]
        if str(chain[0]) < str(chain[1]) < str(chain[2]):
            break
    return chain + [concat(Atom(_WIDE_INVERSE[k1]), rng.choice(_WIDE_POOL)),
                    concat(Enc(concat(i3, x), Atom(rng.choice(("kp", "kp-1")))),
                           rng.choice(_WIDE_POOL))]


def _wide_sets(seed: int, count: int) -> list[list[Message]]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        M = [random_message(rng, _WIDE_POOL, _WIDE_KEY_ATOMS, 3)
             for _ in range(rng.randint(0, 3))]
        M.append(_nested(rng))
        if rng.random() < 0.5:
            M += _buried_pair(rng)
        if rng.random() < 0.5:
            M += _key_chain(rng)
        rng.shuffle(M)
        out.append(M)
    return out


@pytest.mark.parametrize("depth_budget", [2, 3, 4, 5])
def test_sets_that_are_not_well_protected_match_the_reference(depth_budget):
    for atom_cap in ATOM_CAPS:
        for M in _wide_sets(100 * depth_budget + atom_cap, 30):
            assert_same_closure(M, _WIDE_CTX, depth_budget, atom_cap)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_honest_sessions_match_the_reference(protocol):
    p = load_bundled(protocol)
    M = [s.message for s in p.steps]
    for depth_budget in range(6):
        assert_same_closure(M, p.context, depth_budget, 24)


def test_terms_that_print_alike_keep_the_order_they_were_found(valuation_ctx, valuation_symbols):
    # a constant and a parameter of the same name print alike
    body = parse_message("C.alpha", valuation_symbols)
    M = [Enc(body, Atom("kab")), parse_message("kab-1", valuation_symbols),
         Atom("C", PARAMETER)]
    for depth_budget in (1, 2, 3, 4):
        assert_same_closure(M, valuation_ctx, depth_budget, 24)
    closure = deduce_closure(M, valuation_ctx, depth_budget=3)
    texts = [str(t) for t in closure.terms]
    assert len(set(texts)) < len(texts)


def test_depths_that_fall_are_split_and_opened_again():
    # pass 1 finds k4-1.x1 at depth 3, through k1-1 and k2-1; pass 2 finds
    # it again at depth 2 before it is split, so pass 3 splits it again and
    # k4-1 falls from 4 to 3, and pass 4 opens {y}_k4 again, giving y
    # depth 4 instead of 5
    ctx = make_context(
        principals=["A", "B", "I"], intruder="I",
        levels={"k1-1": ["A"], "k2-1": ["A"], "k3-1": ["A", "B", "I"], "k4-1": ["A"],
                "x1": ["A"], "y": ["A"]},
        keys=[(f"k{i}", f"k{i}-1") for i in range(1, 5)],
    )
    names = ["A", "B", "I", "x1", "y"] + [f"k{i}{s}" for i in range(1, 5) for s in ("", "-1")]
    symbols = SymbolTable({n: Atom(n) for n in names})
    M = [parse_message(m, symbols)
         for m in ("k1-1.A", "{k2-1}_k1", "{k4-1.x1}_k2", "{k4-1.x1}_k3.B", "{y}_k4")]
    terms, depth, _ = _deduce(M, ctx, 6)
    known = dict(zip(terms, depth))
    assert known[Atom("k4-1")] == 3
    assert known[Atom("y")] == 4
    for depth_budget in range(3, 8):
        assert_same_closure(M, ctx, depth_budget, 24)


class _CountingRandom(random.Random):
    """Records the end of every range it draws from."""

    def __init__(self, seed):
        super().__init__(seed)
        self.stops = []

    def randrange(self, start, stop=None, step=1):
        self.stops.append(stop)
        return super().randrange(start, stop, step)


def _assert_same_draw(closure, depth_budget, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    drawn, cut = _draw(closure, depth_budget, rng)
    ref_drawn, ref_cut = reference_closure.draw_with_kinds(closure, depth_budget, ref_rng)
    assert drawn == [t for t, _ in ref_drawn]
    assert cut == ref_cut
    assert rng.getstate() == ref_rng.getstate()
    return ref_drawn


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_the_golden_runs_draw_each_kind_from_the_enumerated_closure(protocol, monkeypatch):
    # the run of tests/golden/oracle-<protocol>.stdout, each trial's draw
    # against the reference's and inside the closure the oracle once
    # enumerated at the same depth budget
    sets, draws = [], []

    def deduce(M, ctx, depth_budget):
        sets.append(M)
        return deduce_closure(M, ctx, depth_budget)

    def draw(closure, depth_budget, rng):
        ref_rng = random.Random()
        ref_rng.setstate(rng.getstate())
        out = _draw(closure, depth_budget, rng)
        ref_drawn, ref_cut = reference_closure.draw_with_kinds(closure, depth_budget, ref_rng)
        assert out == ([t for t, _ in ref_drawn], ref_cut)
        assert rng.getstate() == ref_rng.getstate()
        draws.append(ref_drawn)
        return out

    monkeypatch.setattr(secwitness.oracle, "deduce_closure", deduce)
    monkeypatch.setattr(secwitness.oracle, "_draw", draw)
    ctx = load_bundled(protocol).context
    reports = check_full_invariance(value_functions(sorted(SIDES)), ctx,
                                    trials=10, depth=4, seed=0)
    assert all(r.ok and r.truncated_trials == 0 for r in reports.values())
    assert len(sets) == len(draws) == 10
    kinds = set()
    for M, drawn in zip(sets, draws):
        assert len(drawn) == secwitness.oracle.SAMPLE_TERMS
        known = reference_closure.recombined_closure(M, ctx, depth_budget=4)
        assert all(t in known for t, _ in drawn)
        kinds |= {kind for _, kind in drawn}
    assert kinds == {"apart", "pair", "cipher"}


def _small_sets():
    """NS and NSL sets, sets that are not well protected, and sets with the
    empty message, each with a context."""
    cases = []
    for protocol in PROTOCOLS:
        ctx = load_bundled(protocol).context
        rng = random.Random(5)
        cases += [(random_well_protected_set(rng, ctx), ctx) for _ in range(4)]
    cases += [(M, _WIDE_CTX) for M in _wide_sets(3, 4)]
    ns = load_bundled("ns").context
    cases += [([EMPTY], ns), ([EMPTY, Enc(Atom("Na"), Atom("ki")), Atom("ki-1")], ns)]
    return cases


@pytest.mark.parametrize("depth_budget", [0, 1, 2, 3])
def test_a_space_drawn_whole_gives_each_eligible_term_once(depth_budget, monkeypatch):
    # every term within the caps that a pair or a ciphertext of closure
    # terms makes is in the enumerated closure, and every enumerated term
    # is a closure term, a pair or a ciphertext: the two sets agree.  With
    # SAMPLE_TERMS at their number the draw stops at the last of them, and
    # with one more it stops when the space runs out
    for seed, (M, ctx) in enumerate(_small_sets()):
        known = reference_closure.recombined_closure(M, ctx, depth_budget=depth_budget)
        closure = deduce_closure(M, ctx, depth_budget)
        monkeypatch.setattr(secwitness.oracle, "SAMPLE_TERMS", len(known) + seed % 2)
        drawn = [t for t, _ in _assert_same_draw(closure, depth_budget, seed)]
        assert len(drawn) == len(set(drawn)) == len(known)
        assert set(drawn) == set(known)


def test_the_empty_message_is_never_paired_or_encrypted(monkeypatch):
    # four closure terms besides the empty message, two of them the keys
    # of a pair: a space of 5 + 4·4 + 4·2 indices, every one of them read
    monkeypatch.setattr(secwitness.oracle, "SAMPLE_TERMS", 100)
    ctx = make_context(["A", "I"], "I", {"k-1": ["A"]}, [("k", "k-1")])
    M = [EMPTY, Atom("k-1")]
    closure = deduce_closure(M, ctx, depth_budget=3)
    assert closure.terms == (EMPTY, Atom("A"), Atom("I"), Atom("k"), Atom("k-1"))
    assert closure.keys == (3, 4)
    rng = _CountingRandom(0)
    drawn, _ = _draw(closure, 3, rng)
    assert rng.stops == [29] * 29
    assert EMPTY in drawn
    assert not any(type(t) is Enc and t.body == EMPTY for t in drawn)
    assert set(drawn) == set(reference_closure.recombined_closure(M, ctx, depth_budget=3))


@pytest.fixture()
def reference_oracle(monkeypatch):
    """Runs the property checks on the reference closure and draw."""

    def use_reference():
        monkeypatch.setattr(secwitness.oracle, "deduce_closure", reference_closure.deduce_closure)
        monkeypatch.setattr(secwitness.oracle, "_draw", reference_closure.draw)

    return use_reference


def _leaky(alpha, m, ctx):
    ms = [m] if isinstance(m, Message) else list(m)
    names = set()
    for mm in ms:
        for a in atoms(mm):
            if is_identity(ctx, a) and a != alpha:
                names.add(a.display())
    return frozenset(names)


FUNCTIONS = [(name, value_function(name)) for name in sorted(SIDES)] + [("leaky", _leaky)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name,func", FUNCTIONS, ids=[f for f, _ in FUNCTIONS])
def test_full_invariance_reports_match_the_reference(protocol, name, func, reference_oracle,
                                                     monkeypatch):
    ctx = load_bundled(protocol).context
    # each run with the number of derived terms a trial draws
    runs = [(dict(trials=30, depth=4, seed=0), 40), (dict(trials=15, depth=3, seed=7), 10)]
    if name == "leaky":
        runs = [(dict(trials=500, depth=4, seed=1), 40)]

    def reports():
        out = []
        for kw, sample_terms in runs:
            monkeypatch.setattr(secwitness.oracle, "SAMPLE_TERMS", sample_terms)
            out.append(check_full_invariance({name: func}, ctx, **kw)[name])
        return out

    new = reports()
    reference_oracle()
    old = reports()
    assert new == old
    if name == "leaky" and protocol == "ns":
        assert new[0].failures


def _bounds(leaky_first: bool) -> dict:
    bounds = {name: value_function(name) for name in sorted(SIDES)}
    return {"leaky": _leaky, **bounds} if leaky_first else {**bounds, "leaky": _leaky}


def _alone(funcs, ctx, **kw) -> dict:
    return {name: reference_closure.check_full_invariance_alone(func, ctx, **kw)
            for name, func in funcs.items()}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("leaky_first", [True, False], ids=["leaky-first", "leaky-last"])
def test_shared_stream_reports_match_each_bound_alone(protocol, leaky_first, monkeypatch):
    # the leaky bound fails within the first three trials and drops out,
    # while fek, fmax and fn read every trial
    ctx = load_bundled(protocol).context
    funcs = _bounds(leaky_first)
    for seed in (0, 7):
        for sample_terms in (40, 10):
            monkeypatch.setattr(secwitness.oracle, "SAMPLE_TERMS", sample_terms)
            kw = dict(trials=20, depth=4, seed=seed)
            shared = check_full_invariance(funcs, ctx, **kw)
            assert list(shared) == list(funcs)
            assert shared == _alone(funcs, ctx, **kw)
            assert not shared["leaky"].ok
            assert all(shared[name].ok for name in SIDES)


def _raises_on_derived(alpha, m, ctx):
    """fek, with a violation on every derived term of more than three atoms."""
    if isinstance(m, Message) and len(atoms(m)) > 3:
        raise WellProtectionViolation(alpha.display(), str(m))
    return value_function("fek")(alpha, m, ctx)


def _raises_on_base(alpha, m, ctx):
    """Top on a derived term, a violation on the base set."""
    if isinstance(m, Message):
        return TOP
    raise WellProtectionViolation(alpha.display(), "the base set")


# the three named bounds with bounds of their own before, between or after
# them, which fail in the first trials and drop out
ORDERS = {
    "custom-first": ["leaky", "raises-on-derived", "raises-on-base", "fek", "fmax", "fn"],
    "interleaved": ["fek", "leaky", "fmax", "raises-on-derived", "fn", "raises-on-base"],
    "custom-last": ["fek", "fmax", "fn", "leaky", "raises-on-derived", "raises-on-base"],
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("order", ORDERS.values(), ids=list(ORDERS))
def test_shared_bounds_report_as_each_bound_alone(protocol, order):
    ctx = load_bundled(protocol).context
    for seed in range(5):
        every = {**value_functions(sorted(SIDES)), "leaky": _leaky,
                 "raises-on-derived": _raises_on_derived, "raises-on-base": _raises_on_base}
        funcs = {name: every[name] for name in order}
        kw = dict(trials=10, depth=4, seed=seed)
        reports = check_full_invariance(funcs, ctx, **kw)
        assert list(reports) == order
        assert reports == _alone(funcs, ctx, **kw)
        assert all(reports[name].ok for name in SIDES)
        assert not reports["raises-on-derived"].ok and not reports["raises-on-base"].ok


def test_shared_stream_counts_truncation_per_bound(monkeypatch):
    # NS never truncates at this depth, so every other closure is marked
    # truncated; the leaky bound stops after three trials, one of them marked
    def truncate_every_other():
        closures = itertools.count()

        def deduce(*args, **kwargs):
            result = deduce_closure(*args, **kwargs)
            odd = next(closures) % 2 == 1
            return result._replace(truncated=result.truncated or odd)

        monkeypatch.setattr(secwitness.oracle, "deduce_closure", deduce)

    ctx = load_bundled("ns").context
    funcs = _bounds(leaky_first=False)
    kw = dict(trials=20, depth=4, seed=7)
    truncate_every_other()
    shared = check_full_invariance(funcs, ctx, **kw)
    alone = {}
    for name, func in funcs.items():
        truncate_every_other()
        alone |= _alone({name: func}, ctx, **kw)
    assert shared == alone
    assert shared["leaky"].truncated_trials == 1
    assert all(shared[name].truncated_trials == 10 for name in SIDES)


def test_non_disclosure_reports_match_the_reference(ns, nsl, valuation_ctx, valuation_symbols,
                                                    reference_oracle):
    cases = [([s.message for s in p.steps], p.context, depth) for p in (ns, nsl)
             for depth in (3, 5)]
    rng = random.Random(11)
    cases += [(random_well_protected_set(rng, p.context), p.context, 4)
              for p in (ns, nsl) for _ in range(5)]
    cases.append(([parse_message("alpha", valuation_symbols)], valuation_ctx, 5))
    new = [check_non_disclosure(M, ctx, depth=depth) for M, ctx, depth in cases]
    reference_oracle()
    old = [check_non_disclosure(M, ctx, depth=depth) for M, ctx, depth in cases]
    assert new == old
    assert not new[-1].ok and new[-1].precondition_failures
