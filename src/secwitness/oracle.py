"""An independent attacker model used to sanity-check the bounds.

The closure of a message set is what an eavesdropper could compute from it:
split concatenations, strip encryptions whose inverse key is in reach, and
recombine what it has by pairing and by encrypting under keys it fully
controls (both halves of the pair derivable).  The closure is depth-bounded
and size-capped; caps mark the result truncated rather than pretending
completeness.

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
    flatten,
    print_message,
)


# Sizes no caller sets: the most atoms a closure term may hold, the most
# messages and the deepest nesting of a random well-protected set, and the
# most derived terms an invariance trial samples from a closure.
ATOM_CAP = 24
MAX_MESSAGES = 5
MAX_DEPTH = 3
SAMPLE_TERMS = 40


class DeductionResult(NamedTuple):
    # the terms by size (atoms, plus one for a pair or a ciphertext), then
    # by printed text, ties in the order the closure found them
    terms: tuple[Message, ...]
    truncated: bool


def deduce_closure(M: Iterable[Message], ctx: VerificationContext,
                   depth_budget: int = 5, round_cap: int = 1500) -> DeductionResult:
    """Depth-tagged closure: a full take-apart pass to a fixpoint, one
    recombination round over what that produced, then take-apart again."""
    _, _, order, truncated = _deduce(M, ctx, depth_budget, round_cap)
    return DeductionResult(order, truncated)


def _deduce(M: Iterable[Message], ctx: VerificationContext, depth_budget: int,
            round_cap: int) -> tuple[list[Message], list[int], tuple[Message, ...], bool]:
    """The closure's terms and their depths, in lists by id; the terms in
    sample order; and whether a cap cut it short.

    Each term gets an id, its place in the order found.  Its depth, text and
    size are kept in lists by id, and the passes queue and sort ids, so a
    term is hashed once each time a step finds it.  Each take-apart pass
    visits terms by (depth, text), ties in the order they were found, but
    only those whose visit can still change something: a pair is split again
    only when its depth fell since it was last split, and a ciphertext is
    opened again only when that would give its body a smaller depth.  A
    repeated split or opening would add nothing, so the passes add the same
    terms at the same depths, in the same order, as visiting every term on
    every pass.  A term is walked for its atom count and printed once, when
    it is first found; recombined terms take both from their halves, and a
    recombined pair is built once, from its halves' top-level parts, without
    the flatness check (`Concat._of_flat`): each half is `flatten` of a term
    that is not the empty message.

    A term that the recombination round makes or lowers counts as taken
    apart at its depth.  A recombined pair a.b has depth d = max(da, db) + 1
    and its parts are the top-level parts of a and of b.  Each of them is
    known at depth da + 1 or db + 1 at most, so below d + 1, once a and b
    are split at their depths; a half that the first pass left pending has
    a smaller depth than the pair, so the second pass splits it before it
    comes to the pair.  A recombined ciphertext {a}_k has depth
    d = max(da, dk) + 1, and opening it gives a depth of d + 1 or more to a,
    which is known at da.  Splitting or opening either adds no term and
    lowers no depth, so the second pass visits only the pairs the first
    left pending, the ciphertexts there before recombination and the terms
    it finds or lowers itself."""
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

    def add(t: Message, d: int, n: int = -1, txt: str = "", recombined: bool = False) -> bool:
        """Records t at depth d and says whether t is new.  A caller that
        knows t's atom count n and its text passes them.  A pair is queued
        to be split at its new depth, and a ciphertext is opened when a
        pass comes to it, unless recombination made t: then both count as
        done at d."""
        nonlocal truncated
        # no known term is deeper than the budget or holds more atoms than
        # the cap, so both checks can come before the lookup, which gives
        # a new term its id with the one hash of t it takes; a term that its
        # walk finds over the cap leaves again, so index holds known terms only
        if d > depth_budget:
            return False
        if n > ATOM_CAP:
            truncated = True
            return False
        i = index.setdefault(t, len(terms))
        new = i == len(terms)
        if new:
            if n < 0:
                n = len(atoms(t))
                if n > ATOM_CAP:
                    del index[t]
                    truncated = True
                    return False
            terms.append(t)
            depth.append(d)
            text.append(txt or print_message(t))
            size.append(n + (type(t) is Concat or type(t) is Enc))
            if type(t) is Enc:
                ciphers.append(i)
        elif d >= depth[i]:
            return False
        else:
            depth[i] = d
        if not recombined:
            if type(t) is Concat:
                pending.add(i)
        elif type(t) is Enc:
            di = depth[index[inverses[t.key]]]
            opened[i] = (d if d > di else di) + 1
        return new

    def inverse_of(k: Atom) -> Optional[Atom]:
        if k not in inverses:
            try:
                inverses[k] = inverse_key(ctx, k)
            except NotAKey:
                inverses[k] = None
        return inverses[k]

    for m in M:
        add(normalize(m, ctx), 0)
    for a in intruder_knowledge(ctx):
        add(a, 0)

    def decompose() -> None:
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

    def by_size() -> list[int]:
        order = list(range(len(terms)))
        order.sort(key=text.__getitem__)
        order.sort(key=size.__getitem__)
        return order

    decompose()

    order = by_size()
    bits: dict[Atom, int] = {}

    def mask(t: Message) -> int:
        out = 0
        for a in atoms(t):
            b = bits.get(a)
            if b is None:
                b = bits[a] = 1 << len(bits)
            out |= b
        return out

    # (term, depth, top-level parts or None for the empty message, atom mask, text)
    snapshot = []
    for i in order:
        t = terms[i]
        snapshot.append((t, depth[i], None if type(t) is Empty else flatten(t), mask(t), text[i]))
    enc_keys = []
    for i in order:
        t = terms[i]
        if type(t) is Atom and t.name in ctx.keys:
            inv = inverse_of(t)
            if inv is not None and inv in index:
                enc_keys.append((t, i, bits[t], "}_" + t.display()))
    fresh = 0
    for a, da, pa, ma, ta in snapshot:
        if fresh > round_cap:
            truncated = True
            break
        for b, db, pb, mb, tb in snapshot:
            if fresh > round_cap:
                truncated = True
                break
            if pa is None or pb is None:
                continue
            d = (da if da > db else db) + 1
            if d <= depth_budget and add(Concat._of_flat(pa + pb), d, (ma | mb).bit_count(),
                                         ta + "." + tb, True):
                fresh += 1
        if pa is None:
            continue
        for k, ki, kb, suffix in enc_keys:
            dk = depth[ki]
            d = (da if da > dk else dk) + 1
            if d <= depth_budget and add(Enc(a, k), d, (ma | kb).bit_count(),
                                         "{" + ta + suffix, True):
                fresh += 1

    decompose()
    return terms, depth, tuple(map(terms.__getitem__, by_size())), truncated


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
    the bound reads lower than on the originating set.  Derived terms are
    sampled when the closure is large; the sampling is seeded and reported.

    The bounds share one stream of trials: each random set, its closure and
    its sample are made once and read by every bound that has not failed
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
        closure = deduce_closure(M, ctx, depth_budget=depth, round_cap=400)
        terms = closure.terms
        if len(terms) > SAMPLE_TERMS:
            terms = rng.sample(terms, SAMPLE_TERMS)
        # each sampled term with its secret atoms, in printed order; the
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
            truncated[name] += closure.truncated
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
