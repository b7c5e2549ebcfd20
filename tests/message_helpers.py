"""Builders the tests share: unconstrained random messages for the algebra
laws, and guard families (`secwitness.rewrite.KeySetFamily`) written out."""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from secwitness.terms import Atom, Enc, Message, concat

EMPTY_FAMILY: frozenset = frozenset()


def family(*inner: Iterable[Atom]) -> frozenset:
    """The guard family with the given key sets."""
    return frozenset(frozenset(s) for s in inner)


def random_message(rng: random.Random, pool: Sequence[Atom], keys: Sequence[Atom],
                   max_depth: int = 3) -> Message:
    """Unconstrained random message over the given atoms; for algebra laws,
    not for protection-sensitive checks."""
    if max_depth <= 0 or rng.random() < 0.4:
        return rng.choice(list(pool))
    if rng.random() < 0.5 and keys:
        return Enc(random_message(rng, pool, keys, max_depth - 1), rng.choice(list(keys)))
    parts = [random_message(rng, pool, keys, max_depth - 1) for _ in range(rng.randint(2, 3))]
    return concat(*parts)
