"""The per-atom candidate search, kept as the reference for the shared one.

This is the straightforward form of the sent-side bound: for every atom on
its own, every protecting part of the send is unified with every pattern of
the pool, duplicates among the unifiers are dropped by a linear scan, and
each unifier is valued for that atom alone.  `secwitness.witness` computes
the same bounds for all atoms of a send in one pass; the tests check the
two against each other.

It keeps its own copies of the pruning (`derive`, `derive_keeping`,
`derive_all`) and of the unification engine in its plain form, with a case
for the empty message of its own, so that a change to the engine under test
is checked against these rather than against itself.  It also keeps the
per-view valuation (`fact_levels`, `reception_estimate`): one kept-variable
view, and one value-function call, for every variable, asked about that
variable by its own name, where `secwitness.derive.fact_levels` and
`secwitness.witness.reception_estimate` rename the kept variable to
`secwitness.derive.KEPT`; `renamed` maps the reference's calls to theirs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from secwitness.context import TOP, SecurityLevel, VerificationContext, level_of, meet, meet_all
from secwitness.derive import KEPT, Facts, ValueFunction
from secwitness.errors import NoProtectivePattern
from secwitness.terms import (
    EMPTY,
    Atom,
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
    print_message,
    substitute,
    variables_of,
)


def derive(m: Message, remove: Iterable[Atom]) -> Message:
    """Erase the given variables; other sorts are untouched."""
    gone = {a for a in remove if a.sort is Sort.VARIABLE}
    if not gone:
        return m
    return map_atoms(m, lambda a: EMPTY if a in gone else None)


def derive_keeping(m: Message, keep: Atom) -> Message:
    """Erase every variable except the given one."""
    return derive(m, variables_of(m) - {keep})


def derive_all(m: Message) -> Message:
    """Erase every variable."""
    return derive(m, variables_of(m))


# ---------------------------------------------------------------------------
# The unification engine: bindings are chased, and closed at the end

Bindings = dict[Atom, Message]


def _chase(m: Message, b: Bindings) -> Message:
    while isinstance(m, Atom) and m in b:
        m = b[m]
    return m


def _resolve(m: Message, b: Bindings) -> Message:
    return map_atoms(m, lambda a: _resolve(b[a], b) if a in b else None)


def _occurs(a: Atom, m: Message, b: Bindings) -> bool:
    return a in atoms(_resolve(m, b))


def _bind(a: Atom, m: Message, b: Bindings) -> Optional[Bindings]:
    if m == a:
        return b
    if _occurs(a, m, b):
        return None
    out = dict(b)
    out[a] = m
    return out


def _rank(sort: Sort) -> int:
    return 2 if sort is Sort.VARIABLE else 1 if sort is Sort.PARAMETER else 0


def _unify_atoms(x: Atom, y: Atom) -> Optional[tuple[Atom, Atom]]:
    rx, ry = _rank(x.sort), _rank(y.sort)
    if rx >= ry:
        return None if rx == 0 else (x, y)
    return y, x


def _unify(x: Message, y: Message, b: Bindings) -> Iterator[Bindings]:
    x = _chase(x, b)
    y = _chase(y, b)
    if isinstance(x, Atom) != isinstance(y, Atom):
        # a compound may come to one atom, or none, under the bindings
        x, y = _resolve(x, b), _resolve(y, b)
    if isinstance(x, Atom) and isinstance(y, Atom):
        if x == y:
            yield b
            return
        bound = _unify_atoms(x, y)
        if bound is not None:
            yield {**b, bound[0]: bound[1]}
        return
    if isinstance(x, Atom):
        if x.sort is Sort.VARIABLE:
            out = _bind(x, y, b)
            if out is not None:
                yield out
        return
    if isinstance(y, Atom):
        if y.sort is Sort.VARIABLE:
            out = _bind(y, x, b)
            if out is not None:
                yield out
        return
    if isinstance(x, Empty) or isinstance(y, Empty):
        if isinstance(x, Empty) and isinstance(y, Empty):
            yield b
        return
    if isinstance(x, Enc) and isinstance(y, Enc):
        for b1 in _unify(x.key, y.key, b):
            yield from _unify(x.body, y.body, b1)
        return
    if isinstance(x, Concat) or isinstance(y, Concat):
        yield from _unify_lists(list(flatten(x)), list(flatten(y)), b)


def _expand_head(parts: list[Message], b: Bindings) -> list[Message]:
    while parts:
        head = _chase(parts[0], b)
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
    # one-segment alignment first, then widening absorptions
    for b1 in _unify(x0, y0, b):
        yield from _unify_lists(xs[1:], ys[1:], b1)
    if isinstance(x0, Atom) and x0.sort is Sort.VARIABLE and x0 not in b:
        for k in range(2, len(ys) - len(xs) + 2):
            out = _bind(x0, _resolve(concat(*ys[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[1:], ys[k:], out)
    if isinstance(y0, Atom) and y0.sort is Sort.VARIABLE and y0 not in b:
        for k in range(2, len(xs) - len(ys) + 2):
            out = _bind(y0, _resolve(concat(*xs[:k]), b), b)
            if out is not None:
                yield from _unify_lists(xs[k:], ys[1:], out)


def _close(b: Bindings) -> Substitution:
    return Substitution({a: _resolve(a, b) for a in b})


# ---------------------------------------------------------------------------
# The per-atom bound


def unify_all(pattern: Message, target: Message) -> list[Substitution]:
    seen = []
    for b in _unify(pattern, target, {}):
        s = _close(b)
        if s not in seen:
            seen.append(s)
    return seen


def contribution_of(F: ValueFunction, alpha: Atom, source: Message,
                    sigma: Substitution, ctx: VerificationContext) -> Optional[SecurityLevel]:
    param_only = {a: m for a, m in sigma.items() if a.sort is Sort.PARAMETER}
    inst = substitute(source, param_only)
    values: list[SecurityLevel] = []
    probe = alpha
    if alpha.sort is not Sort.VARIABLE:
        image = sigma.get(alpha)
        if isinstance(image, Atom):
            probe = image
    static_view = derive_all(inst)
    if probe in atoms(static_view):
        values.append(F(probe, static_view, ctx))
    for var in sorted(variables_of(source), key=lambda a: a.name):
        image = sigma.get(var)
        if image is None:
            continue
        if alpha in atoms(image):
            values.append(F(var, derive(inst, variables_of(inst) - {var}), ctx))
    if not values:
        return None
    return meet_all(values)


def candidate_values(target: Message, pool: Sequence[Message], ctx: VerificationContext,
                     alpha: Atom, F: ValueFunction) -> list[SecurityLevel]:
    values = []
    for pattern in pool:
        for sigma in unify_all(pattern, target):
            v = contribution_of(F, alpha, pattern, sigma, ctx)
            if v is not None:
                values.append(v)
    return values


def lower_bound(alpha: Atom, sent: Message, pool: Sequence[Message],
                F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    values: list[SecurityLevel] = []
    for part in flatten(sent):
        if isinstance(part, Atom):
            if part != alpha:
                continue
            if alpha.sort is Sort.VARIABLE or not level_of(ctx, alpha).is_bottom:
                raise NoProtectivePattern(alpha.display(), print_message(sent))
            continue
        if alpha not in atoms(part):
            continue
        values.extend(candidate_values(part, pool, ctx, alpha, F))
    return meet_all(values)


def lower_bound_or_none(alpha: Atom, sent: Message, pool: Sequence[Message],
                        F: ValueFunction, ctx: VerificationContext) -> Optional[SecurityLevel]:
    """The reference bound, with None where no pattern protects the atom."""
    try:
        return lower_bound(alpha, sent, pool, F, ctx)
    except NoProtectivePattern:
        return None


# ---------------------------------------------------------------------------
# The per-view valuation


def fact_levels(F: ValueFunction, alphas: Sequence[Atom], source: Message,
                facts: Facts, ctx: VerificationContext) -> dict[Atom, SecurityLevel]:
    """`secwitness.derive.fact_levels` with one kept-variable view per
    covered variable: the instance under each bindings, pruned once with
    every variable erased and once per variable with that one kept."""
    found: dict[Atom, SecurityLevel] = {}
    for params, covered in facts.items():
        images = dict(params)
        inst = substitute(source, images)
        static_view = derive_all(inst)
        present = atoms(static_view)
        for alpha in alphas:
            probe = alpha if alpha.sort is Sort.VARIABLE else images.get(alpha, alpha)
            if probe in present:
                found[alpha] = meet(found.get(alpha, TOP), F(probe, static_view, ctx))
        for var, inside in covered.items():
            hit = [alpha for alpha in alphas if alpha in inside]
            if hit:
                level = F(var, derive_keeping(inst, var), ctx)
                for alpha in hit:
                    found[alpha] = meet(found.get(alpha, TOP), level)
    return found


def reception_estimate(alpha: Atom, received: Sequence[Message],
                       F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    """`secwitness.witness.reception_estimate` with every variable of a
    reception valued in its own kept-variable view."""
    if not received:
        return TOP
    values: list[SecurityLevel] = []
    for m in received:
        values.append(F(alpha, derive_keeping(m, alpha), ctx))
        if alpha.sort is not Sort.VARIABLE:
            for var in sorted(variables_of(m), key=Atom.display):
                values.append(F(var, derive_keeping(m, var), ctx))
    return meet_all(values)


def renamed(calls: Iterable[tuple[Atom, Message]]) -> set[tuple[Atom, Message]]:
    """Value-function calls of the per-view valuation as the renaming makes
    them: a call about a variable asks about `KEPT` in the view where that
    variable is renamed to it."""
    return {(KEPT, substitute(m, {a: KEPT})) if a.sort is Sort.VARIABLE else (a, m)
            for a, m in calls}
