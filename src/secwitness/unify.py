"""Two-sorted unification over the message algebra and candidate matching.

Parameters stand for single atoms and variables stand for whole submessages;
inside a concatenation a variable may absorb any run of one or more adjacent
parts, so a pair of messages can unify in several inequivalent ways and all
of them are enumerated.  Binding orientation is fixed: variables bind before
parameters, parameters before constants, and on sort ties the left
(pattern-side) symbol binds to the right (target-side) one.  That keeps the
abstract side's names in the unifier whenever a concrete name could have
been chosen instead, which is what lets a mismatched identity surface in the
final bound.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .context import SecurityLevel, VerificationContext
from .derive import ValueFunction, contribution_of
from .terms import (
    Atom,
    Atomic,
    Concat,
    Empty,
    Enc,
    Message,
    Sort,
    Substitution,
    atoms,
    concat,
    flatten,
    map_atoms,
)

Bindings = dict[Atom, Message]


def _chase(m: Message, b: Bindings) -> Message:
    while isinstance(m, Atomic) and m.atom in b:
        m = b[m.atom]
    return m


def _resolve(m: Message, b: Bindings) -> Message:
    return map_atoms(m, lambda a: _resolve(b[a], b) if a in b else None)


def _occurs(a: Atom, m: Message, b: Bindings) -> bool:
    return a in atoms(_resolve(m, b))


def _bind(a: Atom, m: Message, b: Bindings) -> Optional[Bindings]:
    if isinstance(m, Atomic) and m.atom == a:
        return b
    if _occurs(a, m, b):
        return None
    out = dict(b)
    out[a] = m
    return out


def _rank(sort: Sort) -> int:
    # by identity: a dict keyed by Sort would hash the member on every call
    return 2 if sort is Sort.VARIABLE else 1 if sort is Sort.PARAMETER else 0


def _unify_atoms(x: Atom, y: Atom, b: Bindings) -> Iterator[Bindings]:
    if x == y:
        yield b
        return
    rx, ry = _rank(x.sort), _rank(y.sort)
    if rx == 0 and ry == 0:
        return
    if rx >= ry:
        out = _bind(x, Atomic(y), b)
    else:
        out = _bind(y, Atomic(x), b)
    if out is not None:
        yield out


def _unify(x: Message, y: Message, b: Bindings) -> Iterator[Bindings]:
    x = _chase(x, b)
    y = _chase(y, b)
    if isinstance(x, Atomic) and isinstance(y, Atomic):
        yield from _unify_atoms(x.atom, y.atom, b)
        return
    if isinstance(x, Atomic):
        if x.atom.sort is Sort.VARIABLE:
            out = _bind(x.atom, _resolve(y, b), b)
            if out is not None:
                yield out
        return
    if isinstance(y, Atomic):
        if y.atom.sort is Sort.VARIABLE:
            out = _bind(y.atom, _resolve(x, b), b)
            if out is not None:
                yield out
        return
    if isinstance(x, Empty) or isinstance(y, Empty):
        if isinstance(x, Empty) and isinstance(y, Empty):
            yield b
        return
    if isinstance(x, Enc) and isinstance(y, Enc):
        if x.mode is not y.mode:
            return
        for b1 in _unify_atoms(_key_atom(x, b), _key_atom(y, b), b):
            yield from _unify(x.body, y.body, b1)
        return
    if isinstance(x, Concat) or isinstance(y, Concat):
        yield from _unify_lists(list(flatten(x)), list(flatten(y)), b)
        return


def _key_atom(e: Enc, b: Bindings) -> Atom:
    resolved = _chase(Atomic(e.key), b)
    assert isinstance(resolved, Atomic), "keys are atomic"
    return resolved.atom


def _expand_head(parts: list[Message], b: Bindings) -> list[Message]:
    if not parts:
        return parts
    head = _chase(parts[0], b)
    if isinstance(head, Concat):
        return list(head.parts) + parts[1:]
    if isinstance(head, Empty):
        return parts[1:]
    return [head] + parts[1:]


def _unify_lists(xs: list[Message], ys: list[Message], b: Bindings) -> Iterator[Bindings]:
    xs = _expand_head(xs, b)
    ys = _expand_head(ys, b)
    if not xs or not ys:
        if not xs and not ys:
            yield b
        return

    x0, y0 = xs[0], ys[0]
    # one-segment alignment first, then widening absorptions
    for b1 in _unify(x0, y0, b):
        yield from _unify_lists(xs[1:], ys[1:], b1)
    if isinstance(x0, Atomic) and x0.atom.sort is Sort.VARIABLE and x0.atom not in b:
        for k in range(2, len(ys) - len(xs) + 2):
            out = _bind(x0.atom, _resolve(concat(*ys[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[1:], ys[k:], out)
    if isinstance(y0, Atomic) and y0.atom.sort is Sort.VARIABLE and y0.atom not in b:
        for k in range(2, len(xs) - len(ys) + 2):
            out = _bind(y0.atom, _resolve(concat(*xs[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[k:], ys[1:], out)


def _close(b: Bindings) -> Substitution:
    closed: Bindings = {}
    for a in b:
        closed[a] = _resolve(Atomic(a), b)
    return Substitution(closed)


def unify_all(pattern: Message, target: Message) -> list[Substitution]:
    """Every unifier, one per inequivalent segmentation, in a deterministic
    order; duplicates collapsed."""
    seen: set[frozenset] = set()
    out = []
    for b in _unify(pattern, target, {}):
        s = _close(b)
        key = frozenset(s.items())
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def unify(pattern: Message, target: Message) -> Optional[Substitution]:
    """First unifier or None."""
    for b in _unify(pattern, target, {}):
        return _close(b)
    return None


def candidate_values(target: Message, pool: Sequence[Message],
                     ctx: VerificationContext, alphas: Sequence[Atom],
                     F: ValueFunction) -> dict[Atom, list[SecurityLevel]]:
    """The contributions themselves, for folding by meet: for each queried
    atom, in pool and unifier order.  Each pattern is unified with the
    target once, and each unifier valued once for all the atoms."""
    values: dict[Atom, list[SecurityLevel]] = {alpha: [] for alpha in alphas}
    for pattern in pool:
        views: dict = {}
        for sigma in unify_all(pattern, target):
            found = contribution_of(F, alphas, pattern, sigma, ctx, views)
            if found is not None:
                for alpha, v in found.items():
                    values[alpha].append(v)
    return values
