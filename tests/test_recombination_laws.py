"""What the intruder builds reads no lower than what it was built from.

The union axiom gives the value over a union as the meet of the values
over its parts.  Two lemmas follow for the bundled bounds:

- F(α, a.b) = F(α, a) ⊓ F(α, b);
- F(α, {a}_k) = F(α, a′) when the intruder holds k and its inverse, where
  a′ is a itself, or, where {a}_k cancels, the body it cancels to.

Both are pinned here on normal forms over the NS and NSL names, under
`fmax`, `fek` and `fn`.  Two cases fall outside them:

- a′ (or a or b) that is α itself: a bare α reads ⊥, while the same α in
  the clear inside a pair is a `WellProtectionViolation` when α is secret;
- an α that the intruder may read: a key whose inverse the intruder holds
  protects it, so {a}_k reads the level of that inverse where a′ may read
  ⊥.  An invariance trial asks only about the atoms it may not read.

Neither case reaches an invariance trial that a bound passes, since a bare
secret among the take-apart terms already reads ⊥.  So the lemmas are why
a trial may draw the pairs and ciphertexts it reads instead of enumerating
them: a bound that holds on the take-apart terms, which the cancelled
bodies are among, holds on every pair and ciphertext the intruder builds
from them, and on those built from these in turn.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from message_helpers import random_message
from secwitness.context import intruder_allowed, inverse_key, meet
from secwitness.errors import WellProtectionViolation
from secwitness.protocols import load_bundled
from secwitness.rewrite import normalize
from secwitness.selection import value_function
from secwitness.terms import Atom, Enc, concat

PROTOCOLS = ("ns", "nsl")
FUNCTIONS = ("fmax", "fek", "fn")


@functools.lru_cache(maxsize=None)
def _subject(protocol: str):
    """The context, its names, its keys and the keys the intruder holds
    with their inverses."""
    ctx = load_bundled(protocol).context
    names = [Atom(n) for n in sorted(ctx.principal_names | set(ctx.levels) | set(ctx.keys))]
    keys = [Atom(n) for n in sorted(ctx.keys)]
    held = [k for k in keys if intruder_allowed(ctx, k) and intruder_allowed(ctx, inverse_key(ctx, k))]
    return ctx, names, keys, held


def _outcome(thunk):
    try:
        return thunk()
    except WellProtectionViolation:
        return WellProtectionViolation


def _normal_forms(rng, protocol: str, count: int):
    ctx, names, keys, _ = _subject(protocol)
    return [normalize(random_message(rng, names, keys, max_depth=3), ctx) for _ in range(count)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("function", FUNCTIONS)
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_pair_reads_the_meet_of_its_halves(protocol, function, rng):
    ctx, names, _, _ = _subject(protocol)
    F = value_function(function)
    a, b = _normal_forms(rng, protocol, 2)
    for alpha in names:
        if alpha in (a, b):
            continue
        assert (_outcome(lambda: F(alpha, concat(a, b), ctx))
                == _outcome(lambda: meet(F(alpha, a, ctx), F(alpha, b, ctx))))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("function", FUNCTIONS)
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_a_ciphertext_under_a_held_key_reads_as_its_body(protocol, function, rng):
    ctx, names, keys, held = _subject(protocol)
    assert held
    F = value_function(function)
    [a] = _normal_forms(rng, protocol, 1)
    # half the bodies are ciphertexts under the inverse of a held key, so
    # that the ciphertext built around them cancels
    if rng.random() < 0.5:
        a = normalize(Enc(a, inverse_key(ctx, rng.choice(held))), ctx)
    for k in held:
        body = a.body if type(a) is Enc and a.key == inverse_key(ctx, k) else a
        for alpha in names:
            if alpha == body or intruder_allowed(ctx, alpha):
                continue
            assert (_outcome(lambda: F(alpha, Enc(a, k), ctx))
                    == _outcome(lambda: F(alpha, body, ctx)))
