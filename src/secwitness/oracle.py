"""An independent attacker model used to sanity-check the bounds.

The closure of a message set is what an eavesdropper could take apart from
it: split concatenations and strip encryptions whose inverse key is in
reach, to a fixpoint.  The closure is depth-bounded and size-capped; caps
mark the result truncated rather than pretending completeness.  What the
intruder could build from it, pairs of its terms and their encryptions
under the keys it fully controls, is not enumerated: an invariance trial
draws a few such terms at random.

Against that model two statements are tested by randomized search: a bound
evaluated on anything derivable never reads below the bound on the original
set, and a well-protected set never puts a non-public atom in the clear.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .context import (
    SecurityLevel,
    VerificationContext,
    geq,
    intruder_allowed,
    intruder_knowledge,
    inverse_key,
    level_of,
    show,
)
from .derive import ValueFunction
from .errors import NotAKey, NoWellProtectedSample, WellProtectionViolation
from .rewrite import check_well_protected, normalize
from .terms import (
    Atom,
    Concat,
    Empty,
    Enc,
    Message,
    atoms,
    concat,
    print_message,
)


# Sizes no caller sets: the most atoms a closure term may hold, the most
# messages and the deepest nesting of a random well-protected set, and the
# most derived terms an invariance trial draws.
ATOM_CAP = 24
MAX_MESSAGES = 5
MAX_DEPTH = 3
SAMPLE_TERMS = 40


class DeductionResult(NamedTuple):
    """A take-apart closure.  `terms` are its terms by size (atoms, plus one
    for a pair or a ciphertext), then by printed text, ties in the order
    the closure found them; so the empty message, the one term of size 0,
    comes first when it is there.  `depths` holds each term's depth, the
    fewest take-apart steps that reach it, where opening a ciphertext is
    one step past the deeper of it and its inverse key.  `keys` are the
    places in `terms` of the keys the intruder controls, those whose
    inverse is in `terms` too, in the same order.  `truncated` says that a
    term over `ATOM_CAP` was left out."""
    terms: tuple[Message, ...]
    depths: tuple[int, ...]
    keys: tuple[int, ...]
    truncated: bool


def deduce_closure(M: Iterable[Message], ctx: VerificationContext,
                   depth_budget: int = 5) -> DeductionResult:
    """What the intruder takes apart from M and its own knowledge within
    `depth_budget` steps: pairs split and ciphertexts opened under a known
    inverse key, to a fixpoint.  Nothing is recombined."""
    return _deduce(M, ctx, depth_budget)[2]


def _deduce(M: Iterable[Message], ctx: VerificationContext,
            depth_budget: int) -> tuple[list[Message], list[int], DeductionResult]:
    """The closure's terms and their depths, in lists by id, and the
    closure as `deduce_closure` returns it.

    Each term gets an id, its place in the order found.  Its depth, text and
    size are kept in lists by id, and the passes queue and sort ids, so a
    term is hashed once each time a step finds it.  Each pass visits terms
    by (depth, text), ties in the order they were found, but only those
    whose visit can still change something: a pair is split again only when
    its depth fell since it was last split, and a ciphertext is opened again
    only when that would give its body a smaller depth.  A repeated split or
    opening would add nothing, so the passes add the same terms at the same
    depths, in the same order, as visiting every term on every pass.  A
    term is walked for its atom count and printed once, when it is first
    found."""
    index: dict[Message, int] = {}     # term -> id, in the order found
    terms: list[Message] = []          # id -> term
    depth: list[int] = []              # id -> depth
    text: list[str] = []               # id -> printed form
    size: list[int] = []               # id -> atoms, plus one for a pair or a ciphertext
    ciphers: list[int] = []            # ids of the ciphertexts
    pending: set[int] = set()          # ids of pairs not split at their current depth
    opened: dict[int, int] = {}        # ciphertext id -> body depth it was last opened for
    inverses: dict[Atom, Optional[Atom]] = {}     # key -> its inverse, None if not a key
    truncated = False

    def add(t: Message, d: int) -> bool:
        """Records t at depth d, queues a pair to be split at its new
        depth, and says whether t is new."""
        nonlocal truncated
        # a term that its walk finds over the cap leaves again, so index
        # holds known terms only, and a new term gets its id with the one
        # hash of t the lookup takes
        if d > depth_budget:
            return False
        i = index.setdefault(t, len(terms))
        new = i == len(terms)
        if new:
            n = len(atoms(t))
            if n > ATOM_CAP:
                del index[t]
                truncated = True
                return False
            terms.append(t)
            depth.append(d)
            text.append(print_message(t))
            size.append(n + (type(t) is Concat or type(t) is Enc))
            if type(t) is Enc:
                ciphers.append(i)
        elif d >= depth[i]:
            return False
        else:
            depth[i] = d
        if type(t) is Concat:
            pending.add(i)
        return new

    def inverse_of(k: Atom) -> Optional[Atom]:
        inv = inverses.get(k, False)
        if inv is False:
            try:
                inv = inverse_key(ctx, k)
            except NotAKey:
                inv = None
            inverses[k] = inv
        return inv

    for m in M:
        add(normalize(m, ctx), 0)
    for a in intruder_knowledge(ctx):
        add(a, 0)

    changed = True
    while changed:
        changed = False
        batch = sorted(pending.union(ciphers))
        batch.sort(key=text.__getitem__)
        batch.sort(key=depth.__getitem__)
        pending.clear()
        for i, d in [(i, depth[i]) for i in batch]:
            t = terms[i]
            if type(t) is Concat:
                for p in t.parts:
                    changed |= add(p, d + 1)
                continue
            inv = inverse_of(t.key)
            j = None if inv is None else index.get(inv)
            if j is None:
                continue
            di = depth[j]
            e = (d if d > di else di) + 1
            if opened.get(i) != e:
                opened[i] = e
                changed |= add(t.body, e)

    order = list(range(len(terms)))
    order.sort(key=text.__getitem__)
    order.sort(key=size.__getitem__)
    keys = []
    for place, i in enumerate(order):
        t = terms[i]
        if type(t) is Atom and t.name in ctx.keys:
            inv = inverse_of(t)
            if inv is not None and inv in index:
                keys.append(place)
    closure = DeductionResult(tuple(map(terms.__getitem__, order)),
                              tuple(map(depth.__getitem__, order)), tuple(keys), truncated)
    return terms, depth, closure


def _draw(closure: DeductionResult, depth_budget: int,
          rng: random.Random) -> tuple[list[Message], bool]:
    """Up to `SAMPLE_TERMS` distinct terms derivable from a closure, drawn
    at random, and whether a term over `ATOM_CAP` was passed over.

    With n terms in the closure, p of them not the empty message, and k
    keys the intruder controls, the draw reads an index space of
    n + p·p + p·k terms: the closure's terms, in their order; then each
    ordered pair a.b of two non-empty terms; then each non-empty term a
    encrypted under each controlled key, {a}_k, left as built, not
    normalised.  A pair or a ciphertext has depth max(d₁, d₂) + 1 from its
    two halves' depths.  Indices are drawn uniformly without replacement,
    by a Fisher–Yates shuffle done as far as it is read.  An index whose
    term is deeper than `depth_budget` is passed over; so is one whose term
    holds more than `ATOM_CAP` atoms, and that marks the draw truncated.  A
    term equal to one drawn already counts once.  The draw stops at
    `SAMPLE_TERMS` terms or when the space runs out.  So every order of the
    space is equally likely, and the draw is the first `SAMPLE_TERMS`
    distinct terms within both caps in that order; a space with fewer is
    drawn whole."""
    terms, depths, keys = closure.terms, closure.depths, closure.keys
    n = len(terms)
    # the empty message, of size 0, is first in sample order when it is there
    first = 1 if n and type(terms[0]) is Empty else 0
    p = n - first
    pairs = n + p * p
    space = pairs + p * len(keys)
    swapped: dict[int, int] = {}    # place -> the index the shuffle moved there
    drawn: list[Message] = []
    seen: set[Message] = set()
    truncated = False
    for place in range(space):
        j = rng.randrange(place, space)
        x = swapped.get(j, j)
        swapped[j] = swapped.get(place, place)
        if x < n:
            t = terms[x]
        else:
            if x < pairs:
                a, b = divmod(x - n, p)
                b += first
            else:
                a, b = divmod(x - pairs, len(keys))
                b = keys[b]
            a += first
            if max(depths[a], depths[b]) + 1 > depth_budget:
                continue
            t = concat(terms[a], terms[b]) if x < pairs else Enc(terms[a], terms[b])
            if len(atoms(t)) > ATOM_CAP:
                truncated = True
                continue
        if t not in seen:
            seen.add(t)
            drawn.append(t)
            if len(drawn) == SAMPLE_TERMS:
                break
    return drawn, truncated


# ---------------------------------------------------------------------------
# Random well-protected material


def _classify(ctx: VerificationContext) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """(public atoms, secret atoms, encryption keys with known inverses);
    a principal whose declared level hides it from the intruder is secret."""
    public = [p for p in ctx.principals if intruder_allowed(ctx, p)]
    secret: list[Atom] = []
    enc_keys: list[Atom] = []
    named = set(ctx.levels) | set(ctx.keys)
    for name in sorted(named):
        a = Atom(name)
        if name in ctx.keys:
            enc_keys.append(a)
        if not intruder_allowed(ctx, a):
            secret.append(a)
        elif name not in ctx.principal_names:
            public.append(a)
    return public, secret, enc_keys


def _build(rng: random.Random, ctx: VerificationContext, pools: tuple[list[Atom], ...],
           depth: int, guards: tuple[SecurityLevel, ...]) -> Message:
    # module level: a nested function that calls itself is a reference
    # cycle, which every call would leave behind for the collector
    public, secret, enc_keys = pools
    roll = rng.random()
    allowed_secrets = [s for s in secret if any(geq(g, level_of(ctx, s)) for g in guards)]
    if depth <= 0 or roll < 0.35:
        if allowed_secrets and rng.random() < 0.5:
            return rng.choice(allowed_secrets)
        return rng.choice(public)
    if roll < 0.7 and enc_keys:
        k = rng.choice(enc_keys)
        guards += (level_of(ctx, inverse_key(ctx, k)),)
        return Enc(_build(rng, ctx, pools, depth - 1, guards), k)
    parts = [_build(rng, ctx, pools, depth - 1, guards) for _ in range(rng.randint(2, 3))]
    return concat(*parts)


def random_well_protected_set(rng: random.Random, ctx: VerificationContext) -> list[Message]:
    """Random message sets with every non-public atom under a key strong
    enough for it; checked, not merely constructed."""
    pools = _classify(ctx)
    if not pools[0]:
        raise NoWellProtectedSample()
    for _ in range(64):
        out: list[Message] = []
        for _ in range(rng.randint(1, MAX_MESSAGES)):
            m = _build(rng, ctx, pools, rng.randint(1, MAX_DEPTH), ())
            if m not in out:
                out.append(m)
        if check_well_protected(out, ctx).ok:
            return out
    raise NoWellProtectedSample()


# ---------------------------------------------------------------------------
# Property checks


class Failure(NamedTuple):
    derived: str
    atom: str
    detail: str


class PropertyReport(NamedTuple):
    ok: bool
    trials: int
    failures: tuple[Failure, ...] = ()
    precondition_failures: tuple[str, ...] = ()
    truncated_trials: int = 0


def check_full_invariance(funcs: Mapping[str, ValueFunction], ctx: VerificationContext,
                          trials: int = 500, depth: int = 4, seed: int = 0,
                          ) -> dict[str, PropertyReport]:
    """Randomized search, for each bound, for a derivable message on which
    the bound reads lower than on the originating set.  Each trial takes a
    random well-protected set apart (`deduce_closure`) and reads the terms
    `_draw` draws from the closure and what it builds, seeded by the run's
    seed; a trial whose closure or draw passed over a term for `ATOM_CAP`
    counts as truncated.

    The bounds share one stream of trials: each random set, its closure and
    its draw are made once and read by every bound that has not failed
    yet.  A bound drops out after the trial it failed in.  The stream does
    not depend on the bounds, so each report is the one a run of that bound
    alone would give.  Reports come in the mapping's order.  Each (term,
    atom) question is asked of every running bound in turn, and then each
    bound that answered reads its base value, so bounds that share a
    selection (`selection.value_functions`) make it once per question."""
    rng = random.Random(seed)
    failures: dict[str, list[Failure]] = {name: [] for name in funcs}
    truncated = dict.fromkeys(funcs, 0)
    running = list(funcs)
    allowed: dict[Atom, bool] = {}  # intruder_allowed of each atom met in the run
    for _ in range(trials):
        if not running:
            break
        M = random_well_protected_set(rng, ctx)
        closure = deduce_closure(M, ctx, depth_budget=depth)
        terms, cut = _draw(closure, depth, rng)
        # each drawn term with its secret atoms, in printed order; the
        # sort is stable, so sorting after the filter keeps ties in place
        secrets = []
        for t in terms:
            secret = []
            for a in atoms(t):
                public = allowed.get(a)
                if public is None:
                    public = allowed[a] = intruder_allowed(ctx, a)
                if not public:
                    secret.append(a)
            secret.sort(key=Atom.display)
            secrets.append((t, secret))
        base_cache: dict[str, dict[Atom, SecurityLevel]] = {name: {} for name in running}
        for name in running:
            truncated[name] += closure.truncated or cut
        for t, secret in secrets:
            for a in secret:
                answered = []
                for name in running:
                    try:
                        answered.append((name, funcs[name](a, t, ctx)))
                    except WellProtectionViolation as err:
                        failures[name].append(Failure(
                            str(t), a.display(), f"protection violated on derived term: {err}"))
                for name, on_derived in answered:
                    base = base_cache[name]
                    try:
                        if a not in base:
                            base[a] = funcs[name](a, M, ctx)
                        on_base = base[a]
                    except WellProtectionViolation as err:
                        failures[name].append(Failure(
                            str(t), a.display(), f"protection violated on derived term: {err}"))
                        continue
                    if not geq(on_derived, on_base):
                        failures[name].append(Failure(
                            str(t), a.display(),
                            f"derived value {show(on_derived)} below base value {show(on_base)}"))
        running = [name for name in running if not failures[name]]
    return {name: PropertyReport(not failures[name], trials, tuple(failures[name]), (), truncated[name])
            for name in funcs}


def check_non_disclosure(M: Sequence[Message], ctx: VerificationContext,
                         depth: int = 5) -> PropertyReport:
    """A well-protected set must not make any non-public atom derivable;
    an ill-protected input is a precondition failure, not a refutation."""
    wp = check_well_protected(M, ctx)
    if not wp.ok:
        pre = tuple(f"{a.display()} unprotected in {m}" for a, m, _ in wp.violations)
        return PropertyReport(False, 0, (), pre, 0)
    closure = deduce_closure(M, ctx, depth_budget=depth)
    disclosed = [t for t in closure.terms
                 if isinstance(t, Atom) and not intruder_allowed(ctx, t)]
    failures = [Failure(str(t), t.display(), "secret atom in the clear")
                for t in sorted(disclosed, key=str)]
    return PropertyReport(not failures, 1, tuple(failures), (), 1 if closure.truncated else 0)
