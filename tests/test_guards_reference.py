"""The guard families, the well-protection check and the selection against
the walkers they were rebuilt from.

`rewrite.keys_of`, `rewrite.access`, `rewrite.check_well_protected`,
`selection.select` and `terms.body_atoms_in_order` all read
`terms.occurrences`.  `reference_guards` keeps the walkers each of them had
before.  On random messages and sets the two must give equal results or raise
the same error class; the selection is compared on query atoms that do not
occur as keys, since the reference counted a key position as an occurrence,
and its key side, names side and their union against the reference's `fek`,
`fn` and `fmax` selections.
The well-protection check must give the same verdict, the same violations
with the same multiplicity, and normalize the same members.
"""

from __future__ import annotations

from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from message_helpers import random_message
import reference_guards
import secwitness.rewrite
from secwitness.context import make_context
from secwitness.errors import AnalyzerError
from secwitness.rewrite import RewriteRule, access, check_well_protected, keys_of
from secwitness.selection import select
from secwitness.terms import VARIABLE, Atom, Enc, body_atoms_in_order, concat, subterms

KEYS = [Atom("ka"), Atom("ka-1"), Atom("kb"), Atom("kab"), Atom("kc")]
NON_KEY = Atom("kzz")
POOL = [Atom("A"), Atom("B"), Atom("alpha"), Atom("beta"), Atom("ka-1"),
        Atom("X", VARIABLE)]


def _context(*rules: RewriteRule):
    return make_context(
        ["A", "B", "I"], "I",
        {"alpha": ["A", "B"], "beta": ["A"], "ka-1": ["A"], "kb-1": ["B"],
         "kab": ["A", "B"], "kc-1": ["A", "B"]},
        [("ka", "ka-1"), ("kb", "kb-1"),
         ("kab", "kab"), ("kc", "kc-1")],
        rewrite_rules=rules,
    )


# the second context's rule opens kc and leaves beta beside the body, so a
# normal form can hold a secret that the member as written does not
_M = Atom("M", VARIABLE)
CONTEXTS = [
    _context(),
    _context(RewriteRule(Enc(_M, Atom("kc")), concat(_M, Atom("beta")))),
]


def _outcome(thunk):
    try:
        return thunk()
    except AnalyzerError as e:
        return type(e)


def _key_atoms(ms) -> set:
    return {t.key for m in ms for t in subterms(m) if isinstance(t, Enc)}


@given(rng=st.randoms(use_true_random=False), ctx=st.sampled_from(CONTEXTS),
       with_non_key=st.booleans())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_single_message_functions_match_reference(rng, ctx, with_non_key):
    keys = KEYS + [NON_KEY] if with_non_key else KEYS
    ms = [random_message(rng, POOL, keys, max_depth=4) for _ in range(rng.randint(1, 3))]
    for m in ms:
        assert body_atoms_in_order(m) == reference_guards.body_atoms_in_order(m)
    for arg in (ms[0], ms):
        for a in POOL + keys:
            assert keys_of(a, arg) == reference_guards.keys_of(a, arg)
            assert (_outcome(lambda: access(a, arg, ctx))
                    == _outcome(lambda: reference_guards.access(a, arg, ctx)))
        key_atoms = _key_atoms([ms[0]] if arg is ms[0] else ms)
        for a in POOL:
            if a in key_atoms:
                continue
            got = _outcome(lambda: select(a, arg, ctx))
            want = {f: _outcome(lambda: reference_guards.select(f, a, arg, ctx))
                    for f in ("fmax", "fek", "fn")}
            if got is None or isinstance(got, type):
                # None and the error class fall in the same places
                assert want == dict.fromkeys(want, got)
            else:
                key_side, names_side = got
                assert ((key_side, names_side, key_side | names_side)
                        == (want["fek"], want["fn"], want["fmax"]))


def _well_protected(module, target, ctx):
    """(ok, violations as a multiset) or the error class, and the members
    the check normalized."""
    normalized = set()
    real = secwitness.rewrite.normalize

    def recording(t, c, *args, **kwargs):
        normalized.add(t)
        return real(t, c, *args, **kwargs)

    with mock.patch.object(module, "normalize", recording):
        try:
            report = module.check_well_protected(target, ctx)
            outcome = (report.ok, Counter(report.violations))
        except AnalyzerError as e:
            outcome = type(e)
    return outcome, normalized


@given(rng=st.randoms(use_true_random=False), ctx=st.sampled_from(CONTEXTS),
       with_non_key=st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_well_protection_matches_reference(rng, ctx, with_non_key):
    keys = KEYS + [NON_KEY] if with_non_key else KEYS
    ms = [random_message(rng, POOL, keys, max_depth=4) for _ in range(rng.randint(1, 3))]
    got, got_normalized = _well_protected(secwitness.rewrite, ms, ctx)
    want, want_normalized = _well_protected(reference_guards, ms, ctx)
    assert got == want
    # a member without a non-variable, non-public atom is never normalized
    assert got_normalized == want_normalized


def test_well_protection_checks_the_atoms_as_written():
    # beta appears bare in the normal form of {A}_kc, but not in the member
    # itself, so only the member that names beta is reported
    ctx = CONTEXTS[1]
    quiet = Enc(Atom("A"), Atom("kc"))
    loud = Enc(Atom("beta"), Atom("kc"))
    assert check_well_protected(quiet, ctx).ok
    report = check_well_protected([quiet, loud], ctx)
    assert report.violations == ((Atom("beta"), loud, frozenset()),)
    assert report.violations == reference_guards.check_well_protected([quiet, loud], ctx).violations
