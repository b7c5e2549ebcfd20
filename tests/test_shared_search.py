"""The shared per-send candidate search against the per-atom reference.

`witness.lower_bounds` values all atoms of a send together: one search
per (pattern, protecting part) and one valuation of the facts it finds.
These tests check it against `reference_bounds`, the per-atom loop it
replaced, on the bundled handshakes, on n-party chains, on subjects whose
pairs go to the `unify_all` fallback and on random pools and sends, and
count the unifications it makes.
"""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_bounds
import secwitness.derive
import secwitness.unify
import secwitness.witness
from secwitness.protocols import bundled
from secwitness.roles import SEND, parse_protocol, pattern_space, roles_for
from secwitness.selection import SIDES, value_function
from secwitness.terms import Atom, atoms, concat, flatten
from secwitness.witness import _eligible, _guarded, analyze, lower_bounds, render_table

FUNCTIONS = sorted(SIDES)


def chain_text(n: int) -> str:
    """Step i sends every nonce so far and the sender's name to the next
    party, under the next party's key; the last step goes back to P1."""
    parties = [f"P{i}" for i in range(1, n + 1)]
    lines = [f"protocol CHAIN{n};", f"principal {', '.join(parties)};", "intruder I;"]
    lines += [f"key k{i} inv k{i}-1;" for i in range(1, n + 1)] + ["key ki inv ki-1;"]
    lines += [f"fresh N{i} by P{i};" for i in range(1, n + 1)]
    lines += [f"level N{i} = {{{','.join(parties)}}};" for i in range(1, n + 1)]
    lines += [f"level k{i}-1 = {{P{i}}};" for i in range(1, n + 1)] + ["level ki-1 = {I};"]
    for i in range(1, n + 1):
        nxt = i % n + 1
        body = ".".join([f"N{j}" for j in range(1, i + 1)] + [f"P{i}"])
        lines.append(f"step {i}: P{i} -> P{nxt} : {{{body}}}_k{nxt};")
    return "\n".join(lines) + "\n"


def nested_chain_text(n: int) -> str:
    """The n-party chain with each sender's name encrypted under its own
    key, `{N1.{P1}_k1}_k2` for the first step: linear but not flat, so its
    pairs go to the `unify_all` fallback."""
    lines = chain_text(n).splitlines()
    for i in range(1, n + 1):
        step = next(k for k, line in enumerate(lines) if line.startswith(f"step {i}:"))
        lines[step] = lines[step].replace(f".P{i}}}", f".{{P{i}}}_k{i}}}")
    return "\n".join(lines) + "\n"


# Three parties: A sends B's part through S, which forwards it unread.
NS3 = """protocol NS3;
principal A, B, S;
intruder I;
key ka inv ka-1;
key kb inv kb-1;
key ks inv ks-1;
key ki inv ki-1;
fresh Na by A;
fresh Nb by B;
level Na = {A,B};
level Nb = {A,B};
level ka-1 = {A};
level kb-1 = {B};
level ks-1 = {S};
level ki-1 = {I};
step 1: A -> S : {A.{Na.A}_kb}_ks;
step 2: S -> B : {Na.A}_kb;
step 3: B -> A : {Na.Nb.B}_ka;
step 4: A -> B : {Nb}_kb;
"""

# Symmetric keys only, server-distributed: S hands B the session key kab.
SYM = """protocol SYM;
principal A, B, S;
intruder I;
key kas sym;
key kbs sym;
key kab sym;
key ki inv ki-1;
fresh Na by A;
fresh Nb by B;
var X, Y;
level kas = {A,S};
level kbs = {B,S};
level kab = {A,B,S};
level Na = {A,B,S};
level Nb = {A,B,S};
level ki-1 = {I};
step 1: A -> S : {A.B.Na}_kas;
step 2: S -> B : {A.kab.Na}_kbs;
step 3: B -> A : {Na.Nb}_kab;
step 4: A -> B : {Nb}_kab;
"""


def subject_text(name: str) -> str:
    """The protocol file of a named subject: a bundled handshake, `chain<n>`,
    `nchain<n>` (nested), `ns3`, `sym` (symmetric keys only), `ns-secret-a`,
    NS with A's name readable by A and B only, or `ns-echo`, NS with the
    initiator's nonce echoed twice in step 2 and computed role views, so
    that B sends `{Y.Nb^i.Y.B}_ka` with Y twice."""
    if name.startswith("chain"):
        return chain_text(int(name[len("chain"):]))
    if name.startswith("nchain"):
        return nested_chain_text(int(name[len("nchain"):]))
    if name == "ns3":
        return NS3
    if name == "sym":
        return SYM
    if name == "ns-secret-a":
        return bundled("ns").replace("level ki-1 = {I};", "level ki-1 = {I};\nlevel A = {A,B};")
    if name == "ns-echo":
        declared = bundled("ns").split("\nrole ")[0]
        return declared.replace("{Na.Nb.B}_ka", "{Na.Nb.Na.B}_ka")
    return bundled(name)


@functools.lru_cache(maxsize=None)
def subject(name: str):
    """The protocol, its computed role views' pattern space and the
    distinct messages those views send."""
    protocol = parse_protocol(subject_text(name))
    roles = roles_for(protocol)
    pool = pattern_space(protocol, roles)
    sends = list(dict.fromkeys(s.message for r in roles for s in r.steps if s.direction == SEND))
    return protocol, pool, sends


# subjects that reach the `unify_all` fallback, and all of them
FALLBACK = ["ns3", "ns-echo"] + [f"nchain{n}" for n in range(2, 7)]
SUBJECTS = ["ns", "nsl"] + [f"chain{n}" for n in range(2, 7)] + FALLBACK


@st.composite
def cases(draw):
    """A random pool drawn from a subject's pattern space, in random order,
    and a send made of one or two of its sends' parts, with some of its
    guarded atoms also put bare among the parts."""
    name = draw(st.sampled_from(SUBJECTS))
    protocol, pool, sends = subject(name)
    ctx = protocol.context
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sub_pool = rng.sample(pool, rng.randint(0, len(pool)))
    parts = [p for sent in rng.sample(sends, rng.randint(1, min(2, len(sends))))
             for p in flatten(sent)]
    guarded = sorted({a for p in parts for a in atoms(p) if _guarded(a, ctx)},
                     key=lambda a: a.display())
    for a in rng.sample(guarded, rng.randint(0, min(2, len(guarded)))):
        parts.insert(rng.randint(0, len(parts)), a)
    if parts and rng.random() < 0.3:
        parts.append(rng.choice(parts))  # a repeated part
    function = draw(st.sampled_from(FUNCTIONS))
    return ctx, sub_pool, concat(*parts), value_function(function)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_random_pools_and_sends_match_the_per_atom_reference(case):
    ctx, pool, sent, F = case
    alphas = _eligible(sent, ctx)
    got = lower_bounds(sent, alphas, pool, F, ctx)
    assert list(got) == alphas
    for alpha in alphas:
        assert got[alpha] == reference_bounds.lower_bound_or_none(alpha, sent, pool, F, ctx), alpha


def test_a_bare_guarded_atom_has_no_protective_pattern(ns):
    roles = roles_for(ns, "manual")
    pool = pattern_space(ns, roles)
    sent = roles[0].steps[0].message                       # {A.Na^i}_kb
    na = next(a for a in atoms(sent) if a.name == "Na")
    F = value_function("fmax")
    for bare_first in (True, False):
        parts = [na, sent] if bare_first else [sent, na]
        got = lower_bounds(concat(*parts), [na], pool, F, ns.context)
        want = reference_bounds.lower_bound_or_none(na, concat(*parts), pool, F, ns.context)
        assert got[na] is want is None
    assert lower_bounds(sent, [na], pool, F, ns.context)[na] is not None


@pytest.mark.parametrize("function", FUNCTIONS)
@pytest.mark.parametrize("name", SUBJECTS)
def test_every_row_matches_the_per_atom_reference(name, function):
    # the rows cover every guarded atom of every send of the role views
    protocol, pool, _ = subject(name)
    F = value_function(function)
    report = analyze(protocol, function)
    for row in report.rows:
        want = reference_bounds.lower_bound_or_none(row.atom, row.sent, pool, F, protocol.context)
        if want is None:
            assert row.lower is None and not row.fulfilled
        else:
            assert row.lower == want


def test_unify_all_matches_the_linear_scan():
    for name in SUBJECTS:
        _, pool, sends = subject(name)
        for sent in sends:
            for part in flatten(sent):
                for pattern in pool:
                    got = secwitness.unify.unify_all(pattern, part)
                    want = reference_bounds.unify_all(pattern, part)
                    assert [dict(s) for s in got] == [dict(s) for s in want]


@pytest.mark.parametrize("name", SUBJECTS)
def test_unify_all_runs_once_per_distinct_pair_of_each_send(name, monkeypatch):
    # Each distinct (pattern, protecting part) pair of a send is searched
    # once, by `linear_facts`; only a pair it turns down goes on to
    # `unify_all`, once.  The name is kept from when every pair went there.
    protocol, pool, _ = subject(name)
    per_send: list[tuple[object, list, Counter, Counter]] = []
    original_linear_facts = secwitness.unify.linear_facts
    original_unify_all = secwitness.unify.unify_all
    original_lower_bounds = secwitness.witness.lower_bounds

    def counting_linear_facts(pattern, target):
        per_send[-1][2][(pattern, target)] += 1
        return original_linear_facts(pattern, target)

    def counting_unify_all(pattern, target):
        per_send[-1][3][(pattern, target)] += 1
        return original_unify_all(pattern, target)

    def recording_lower_bounds(sent, alphas, *rest):
        per_send.append((sent, list(alphas), Counter(), Counter()))
        return original_lower_bounds(sent, alphas, *rest)

    monkeypatch.setattr(secwitness.unify, "linear_facts", counting_linear_facts)
    monkeypatch.setattr(secwitness.unify, "unify_all", counting_unify_all)
    monkeypatch.setattr(secwitness.witness, "lower_bounds", recording_lower_bounds)
    analyze(protocol, "fmax")
    assert per_send
    for sent, alphas, searched, unified in per_send:
        parts = {p for p in flatten(sent)
                 if not isinstance(p, Atom) and any(a in atoms(p) for a in alphas)}
        assert set(searched) == {(pattern, p) for pattern in pool for p in parts}
        if not parts:  # every queried atom stands bare, as S's forwarded Z in ns3
            continue
        assert set(searched.values()) == {1}
        assert set(unified) == {pair for pair in searched if original_linear_facts(*pair) is None}
        assert set(unified.values()) <= {1}
    if name == "chain6":
        assert sum(sum(c.values()) for _, _, c, _ in per_send) == 6 * len(pool)


@pytest.mark.parametrize("name", ["ns", "nsl"] + [f"chain{n}" for n in range(2, 13)])
def test_analyze_never_falls_back_to_unify_all(name, monkeypatch):
    # every pair these protocols search is a linear flat pair
    protocol, _, _ = subject(name)
    calls = []

    def counting_unify_all(pattern, target):
        calls.append((pattern, target))
        return []

    monkeypatch.setattr(secwitness.unify, "unify_all", counting_unify_all)
    analyze(protocol, "fmax")
    assert calls == []


@pytest.mark.parametrize("name", FALLBACK)
def test_the_fallback_subjects_reach_unify_all(name, monkeypatch):
    protocol, _, _ = subject(name)
    calls = []
    original_unify_all = secwitness.unify.unify_all

    def counting_unify_all(pattern, target):
        calls.append((pattern, target))
        return original_unify_all(pattern, target)

    monkeypatch.setattr(secwitness.unify, "unify_all", counting_unify_all)
    analyze(protocol, "fmax")
    assert calls


@pytest.mark.parametrize("function", FUNCTIONS)
@pytest.mark.parametrize("name", FALLBACK)
def test_every_pair_is_valued_once_through_its_facts(name, function, monkeypatch):
    # linear or not, each (pattern, protecting part) pair is valued by one
    # `fact_levels` call and `contribution_of` is not used; the tables stay
    # the pinned ones
    protocol, pool, _ = subject(name)
    valued: list[Counter] = []
    original_contribution_of = secwitness.derive.contribution_of
    original_candidate_values = secwitness.unify.candidate_values
    original_fact_levels = secwitness.unify.fact_levels

    def refusing_contribution_of(*args):
        raise AssertionError("analyze called contribution_of")

    def recording_candidate_values(*args):
        valued.append(Counter())
        return original_candidate_values(*args)

    def counting_fact_levels(F, alphas, source, *rest):
        valued[-1][source] += 1
        return original_fact_levels(F, alphas, source, *rest)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "secwitness"]:
        if getattr(module, "contribution_of", None) is original_contribution_of:
            monkeypatch.setattr(module, "contribution_of", refusing_contribution_of)
    monkeypatch.setattr(secwitness.witness, "candidate_values", recording_candidate_values)
    monkeypatch.setattr(secwitness.unify, "fact_levels", counting_fact_levels)
    report = analyze(protocol, function)
    golden = Path(__file__).parent / "golden" / f"{name}-{function}-table.stdout"
    table = f"protocol {report.protocol} / function {function}\n{render_table(report)}\n"
    assert table == golden.read_text(encoding="utf-8")
    assert valued and all(counts == Counter(pool) for counts in valued)
