"""Two-sorted unification over the message algebra and candidate matching.

Parameters stand for single atoms and variables stand for whole submessages;
inside a concatenation a variable may absorb any run of one or more adjacent
parts, so a pair of messages can unify in several inequivalent ways and all
of them are enumerated.  The sorts are the ordered constants CONSTANT <
PARAMETER < VARIABLE, and binding orientation follows that order: the
higher sort binds to the lower, and on a tie the left (pattern-side) symbol
binds to the right (target-side) one.  That keeps the abstract side's names
in the unifier whenever a concrete name could have been chosen instead,
which is what lets a mismatched identity surface in the final bound.

The candidate search does not list the unifiers where it can avoid it: for
a linear flat pair, `linear_facts` reads what the bound needs off the match
states in polynomial time, as one map from each distinct set of parameter
bindings to the atoms each pattern variable's images cover under it.
`unify_all` is the fallback for every other pair, and
`derive.unifier_facts` turns its unifiers into the same map.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .context import TOP, SecurityLevel, VerificationContext, meet
from .derive import Facts, Params, ValueFunction, fact_levels, unifier_facts
from .terms import (
    CONSTANT,
    VARIABLE,
    Atom,
    Concat,
    Empty,
    Enc,
    Message,
    atoms,
    concat,
    flatten,
    substitute,
)

Bindings = dict[Atom, Message]


def _bind(a: Atom, m: Message, b: Bindings) -> Optional[Bindings]:
    """The closed bindings b after the unbound atom a binds to m, which b
    already leaves unchanged: each image that holds a is rewritten, and
    a ↦ m is added last.  b itself when m is a; None when a occurs in m."""
    if m == a:
        return b
    if not isinstance(m, Atom) and a in atoms(m):
        return None
    out = {}
    for p, image in b.items():
        if image == a:
            image = m
        elif not isinstance(image, Atom) and a in atoms(image):
            image = substitute(image, {a: m})
        out[p] = image
    out[a] = m
    return out


def _unify_atoms(x: Atom, y: Atom) -> Optional[tuple[Atom, Atom]]:
    """The one binding, (atom, image), that unifies two distinct unbound
    atoms: the higher sort binds, the left atom on a tie; None when both
    are constants.  No occurs check is needed, since one atom cannot occur
    in another."""
    rx, ry = x.sort, y.sort
    if rx >= ry:
        return None if rx is CONSTANT else (x, y)
    return y, x


def _unify(x: Message, y: Message, b: Bindings) -> Iterator[Bindings]:
    x = b.get(x, x)
    y = b.get(y, y)
    if isinstance(x, Atom) is not isinstance(y, Atom):
        # a compound may come to one atom, or none, under the bindings
        x, y = substitute(x, b), substitute(y, b)
    if isinstance(x, Atom) and isinstance(y, Atom):
        if x == y:
            yield b
            return
        bound = _unify_atoms(x, y)
        if bound is not None:
            yield _bind(*bound, b)
        return
    if isinstance(x, Atom) or isinstance(y, Atom):
        a, m = (x, y) if isinstance(x, Atom) else (y, x)
        if a.sort is VARIABLE:
            out = _bind(a, m, b)
            if out is not None:
                yield out
        return
    if isinstance(x, Enc) and isinstance(y, Enc):
        for b1 in _unify(x.key, y.key, b):
            yield from _unify(x.body, y.body, b1)
    else:
        # the empty message has no parts, and no parts match only no parts
        yield from _unify_lists(list(flatten(x)), list(flatten(y)), b)


def _expand_head(parts: list[Message], b: Bindings) -> list[Message]:
    while parts:
        head = b.get(parts[0], parts[0])
        if isinstance(head, Concat):
            parts = list(head.parts) + parts[1:]
        elif isinstance(head, Empty):
            parts = parts[1:]
        else:
            return [head] + parts[1:]
    return parts


def _unify_lists(xs: list[Message], ys: list[Message], b: Bindings) -> Iterator[Bindings]:
    xs = _expand_head(xs, b)
    ys = _expand_head(ys, b)
    if not xs or not ys:
        if not xs and not ys:
            yield b
        return

    x0, y0 = xs[0], ys[0]
    # one-segment alignment first, then widening absorptions; a head is
    # never a bound atom
    for b1 in _unify(x0, y0, b):
        yield from _unify_lists(xs[1:], ys[1:], b1)
    if isinstance(x0, Atom) and x0.sort is VARIABLE:
        for k in range(2, len(ys) - len(xs) + 2):
            out = _bind(x0, substitute(concat(*ys[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[1:], ys[k:], out)
    if isinstance(y0, Atom) and y0.sort is VARIABLE:
        for k in range(2, len(xs) - len(ys) + 2):
            out = _bind(y0, substitute(concat(*xs[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[k:], ys[1:], out)


def unify_all(pattern: Message, target: Message) -> list[Bindings]:
    """Every unifier, one per inequivalent segmentation, in a deterministic
    order; duplicates collapsed, the first kept.  Each is the closed dict
    `_bind` builds: applying it twice equals applying it once."""
    found: dict[frozenset, Bindings] = {}
    for b in _unify(pattern, target, {}):
        found.setdefault(frozenset(b.items()), b)
    return list(found.values())


# ---------------------------------------------------------------------------
# Facts of a linear flat pair

State = tuple[int, int, Params]


def _edges(xs: tuple[Atom, ...], ys: tuple[Atom, ...], state: State,
           images: dict[Atom, Atom]) -> list[tuple[State, Optional[Atom], tuple[Atom, ...]]]:
    """The branches of `_unify_lists` from a state, in its order: (next
    state, the pattern variable bound on the way or None, the target run
    it takes).  `images` is the state's bindings as a map, from each bound
    parameter to its root; an atom it does not hold is its own root."""
    i, j, pi = state
    m, n = len(xs), len(ys)
    if i == m or j == n:
        return []
    x, y = images.get(xs[i], xs[i]), images.get(ys[j], ys[j])
    var = x if x.sort is VARIABLE else None
    out = []
    if var is not None or y.sort is VARIABLE:
        # a variable binds, the pattern's first when both are variables
        out.append(((i + 1, j + 1, pi), var, ys[j:j + 1]))
    elif x == y:
        out.append(((i + 1, j + 1, pi), None, ()))
    else:
        bound = _unify_atoms(x, y)
        if bound is not None:
            out.append(((i + 1, j + 1, frozenset(_bind(*bound, images).items())), None, ()))
    if var is not None:
        for k in range(2, (n - j) - (m - i) + 2):
            out.append(((i + 1, j + k, pi), var, ys[j:j + k]))
    if y.sort is VARIABLE:
        for k in range(2, (m - i) - (n - j) + 2):
            out.append(((i + k, j + 1, pi), None, ()))
    return out


def linear_facts(pattern: Message, target: Message) -> Optional[Facts]:
    """What the bound needs of the unifiers `unify_all` would list, without
    listing them: each distinct set of their closed parameter bindings,
    mapped to the atoms that each pattern variable's images cover under
    those bindings.  None when the pair is not a linear flat pair: two
    encryptions whose bodies are atoms only, with no variable twice across
    the two bodies.

    Such a pair is unified by a walk over states (i, j, bindings), i parts
    of the pattern and j of the target matched: variables are bound once
    and never read again, and parameters only ever bind to atoms.  Every
    edge raises i, so the states are collected forwards row by row, row i
    complete once the rows before it are done, each distinct bindings made
    into a map once.  Then, row by row in reverse, each state gets the
    final bindings reachable from it, a state with one edge sharing its
    successor's, and a pattern variable bound to a run on the way from s
    to s2 covers that run's atoms under each of those of s2.
    """
    if not isinstance(pattern, Enc) or not isinstance(target, Enc):
        return None
    xs, ys = flatten(pattern.body), flatten(target.body)
    if not xs or not ys or not all(isinstance(p, Atom) for p in xs + ys):
        return None
    variables = [a for a in xs + ys if a.sort is VARIABLE]
    if len(variables) != len(set(variables)):
        return None
    if pattern.key == target.key:
        first: State = (0, 0, frozenset())
    else:
        bound = _unify_atoms(pattern.key, target.key)
        if bound is None:
            return {}
        first = (0, 0, frozenset([bound]))
    # row i: each state (i, j, bindings) in the order found, to its edges
    rows: list[dict[State, Optional[list]]] = [{first: None}] + [{} for _ in xs]
    maps: dict[Params, dict[Atom, Atom]] = {}  # each distinct bindings as a map, built once
    for row in rows:
        for state in row:
            images = maps.get(state[2])
            if images is None:
                images = maps[state[2]] = dict(state[2])
            row[state] = out = _edges(xs, ys, state, images)
            for nxt, _, _ in out:
                rows[nxt[0]][nxt] = None
    end = (len(xs), len(ys))
    finals: dict[State, dict[Params, None]] = {}
    for row in reversed(rows):
        for state, out in row.items():
            if len(out) == 1:
                # shared with the one successor; no set is changed once made
                finals[state] = finals[out[0][0]]
                continue
            reached = {state[2]: None} if state[:2] == end else {}
            for nxt, _, _ in out:
                reached.update(finals[nxt])
            finals[state] = reached

    facts: Facts = {pi: {} for pi in finals[first]}
    for row in rows:
        for out in row.values():
            for nxt, var, run in out:
                if var is not None:
                    for pi in finals[nxt]:
                        images = maps[pi]  # every final bindings is some state's
                        facts[pi].setdefault(var, set()).update([images.get(a, a) for a in run])
    return facts


def candidate_values(target: Message, pool: Sequence[Message],
                     ctx: VerificationContext, alphas: Sequence[Atom],
                     F: ValueFunction) -> dict[Atom, SecurityLevel]:
    """The meet of what the pool's patterns say about each queried atom
    that any of them says something about.  Each pattern is valued once,
    from the facts of its matches against the target: `linear_facts` for
    a linear flat pair, the unifiers of `unify_all` for any other pair."""
    values: dict[Atom, SecurityLevel] = {}
    for pattern in pool:
        facts = linear_facts(pattern, target)
        if facts is None:
            facts = unifier_facts(pattern, unify_all(pattern, target))
        for alpha, level in fact_levels(F, alphas, pattern, facts, ctx).items():
            values[alpha] = meet(values.get(alpha, TOP), level)
    return values
