"""The shared per-send candidate search against the per-atom reference.

`witness.lower_bounds` values all atoms of a send together: one
unification per (pattern, protecting part) and one valuation per unifier.
These tests check it against `reference_bounds`, the per-atom loop it
replaced, on the bundled handshakes, on n-party chains and on random pools
and sends, and count the unifications it makes.
"""

from __future__ import annotations

import functools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_bounds
import secwitness.unify
import secwitness.witness
from secwitness.context import BOTTOM
from secwitness.protocols import load_bundled
from secwitness.roles import SEND, parse_protocol, pattern_space, roles_for
from secwitness.selection import INSTANCES, value_function
from secwitness.terms import Atomic, atoms, concat, flatten
from secwitness.witness import _eligible, _guarded, analyze, lower_bounds

FUNCTIONS = sorted(INSTANCES)


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


@functools.lru_cache(maxsize=None)
def subject(name: str):
    """The protocol, its computed role views' pattern space and the
    distinct messages those views send."""
    if name.startswith("chain"):
        protocol = parse_protocol(chain_text(int(name[len("chain"):])))
    else:
        protocol = load_bundled(name)
    roles = roles_for(protocol)
    pool = pattern_space(protocol, roles)
    sends = list(dict.fromkeys(s.message for r in roles for s in r.steps if s.direction is SEND))
    return protocol, pool, sends


SUBJECTS = ["ns", "nsl"] + [f"chain{n}" for n in range(2, 7)]


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
        parts.insert(rng.randint(0, len(parts)), Atomic(a))
    if parts and rng.random() < 0.3:
        parts.append(rng.choice(parts))  # a repeated part
    function = draw(st.sampled_from(FUNCTIONS))
    return ctx, sub_pool, concat(*parts), value_function(function)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
    na = next(a for a in atoms(sent) if a.base_name == "Na")
    F = value_function("fmax")
    for bare_first in (True, False):
        parts = [Atomic(na), sent] if bare_first else [sent, Atomic(na)]
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
            assert row.lower == BOTTOM and not row.fulfilled
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
    protocol, pool, _ = subject(name)
    per_send: list[tuple[object, list, Counter]] = []
    original_unify_all = secwitness.unify.unify_all
    original_lower_bounds = secwitness.witness.lower_bounds

    def counting_unify_all(pattern, target):
        per_send[-1][2][(pattern, target)] += 1
        return original_unify_all(pattern, target)

    def recording_lower_bounds(sent, alphas, *rest):
        per_send.append((sent, list(alphas), Counter()))
        return original_lower_bounds(sent, alphas, *rest)

    monkeypatch.setattr(secwitness.unify, "unify_all", counting_unify_all)
    monkeypatch.setattr(secwitness.witness, "lower_bounds", recording_lower_bounds)
    analyze(protocol, "fmax")
    assert per_send
    for sent, alphas, calls in per_send:
        parts = {p for p in flatten(sent)
                 if not isinstance(p, Atomic) and any(a in atoms(p) for a in alphas)}
        assert set(calls) == {(pattern, p) for pattern in pool for p in parts}
        assert set(calls.values()) == {1}
    if name == "chain6":
        assert sum(sum(c.values()) for _, _, c in per_send) == 6 * len(pool)
