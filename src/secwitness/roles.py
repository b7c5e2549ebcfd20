"""Protocol descriptions, role projection and the abstract message space.

A protocol file declares the principals, keys, level assignments and
numbered steps, and may pin down the per-agent role views explicitly.  When
it does not, the views are computed: each agent keeps its own steps, and
every received part it cannot recognize (no inverse key, not its own fresh
value, not a name or a held key) collapses to a variable, consistently, so
an echo of an opaque value reuses the variable that stands for it.

Each agent then contributes one view per send step (the history up to and
including that send) plus, when its last step is a receive, the whole
projection, which is what carries the final reception into the space of
patterns.  The pattern space itself is the set of encrypted subterms of
those views, with names and variables renumbered per originating party so
that distinct sessions cannot be conflated by accident.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .context import (
    VerificationContext,
    inverse_key,
    is_identity,
    level_of,
    make_context,
)
from .errors import AnalyzerError, ContextError, MessageSyntaxError, UndeclaredIdentifier
from .rewrite import RewriteRule
from .terms import (
    Atom,
    Atomic,
    Concat,
    Enc,
    Message,
    Mode,
    Sort,
    SymbolTable,
    atoms,
    concat,
    map_atoms,
    parse_message,
    subterms,
)


class Direction(Enum):
    SEND = "send"
    RECV = "recv"


SEND = Direction.SEND
RECV = Direction.RECV


@dataclass(frozen=True)
class Step:
    """One numbered line of the protocol narration."""

    step_id: int
    sender: Atom
    receiver: Atom
    message: Message


@dataclass(frozen=True)
class RoleStep:
    direction: Direction
    message: Message
    peer: Optional[Atom] = None
    step_id: Optional[int] = None


@dataclass(frozen=True)
class GeneralizedRole:
    role_id: str
    agent: Atom
    steps: tuple[RoleStep, ...]

    def received_before(self, index: int) -> tuple[Message, ...]:
        return tuple(s.message for s in self.steps[:index] if s.direction is RECV)

    @property
    def sends(self) -> tuple[tuple[int, RoleStep], ...]:
        return tuple((i, s) for i, s in enumerate(self.steps) if s.direction is SEND)


@dataclass(frozen=True)
class Protocol:
    name: str
    context: VerificationContext
    steps: tuple[Step, ...]
    fresh_owners: Mapping[str, str]
    declared_roles: tuple[GeneralizedRole, ...] = ()
    symbols: SymbolTable = field(default_factory=lambda: SymbolTable({}))


# ---------------------------------------------------------------------------
# File parsing

_STEP_RE = re.compile(
    r"^step\s+(\d+)\s*:\s*([A-Za-z][A-Za-z0-9_^-]*)\s*->\s*([A-Za-z][A-Za-z0-9_^-]*)\s*:\s*(.*)$",
    re.S,
)
_LEVEL_RE = re.compile(r"^level\s+([A-Za-z][A-Za-z0-9_^-]*)\s*=\s*\{([^}]*)\}$", re.S)
_KEY_RE = re.compile(
    r"^key\s+([A-Za-z][A-Za-z0-9_^-]*)\s*(?:inv\s+([A-Za-z][A-Za-z0-9_^-]*))?\s*(sym|asym)?$",
    re.S,
)
_ROLE_RE = re.compile(r"^role\s+([A-Za-z][A-Za-z0-9_^-]*)\s+(\d+)\s*:\s*(.*)$", re.S)
_INTRUDER_RE = re.compile(r"^intruder\s+([A-Za-z][A-Za-z0-9_^-]*)$", re.S)


class _RuleSymbols(SymbolTable):
    """Rule bodies may use undeclared names as metavariables: message
    positions make them variables, key positions make them parameters."""

    def __init__(self, base: SymbolTable):
        super().__init__({})
        self._base = base
        self._meta: dict[str, Atom] = {}

    def resolve(self, ident: str) -> Atom:
        try:
            return self._base.resolve(ident)
        except UndeclaredIdentifier:
            if ident not in self._meta:
                self._meta[ident] = Atom(ident, Sort.VARIABLE)
            return self._meta[ident]

    def resolve_key(self, ident: str) -> Atom:
        try:
            return self._base.resolve(ident)
        except UndeclaredIdentifier:
            cached = self._meta.get(ident)
            if cached is None:
                cached = self._meta[ident] = Atom(ident, Sort.PARAMETER)
            return cached


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _names(csv: str) -> list[str]:
    return [n.strip() for n in csv.split(",") if n.strip()]


def _to_role_view(m: Message, agent: Atom, fresh_owners: Mapping[str, str]) -> Message:
    """Names in a role view are placeholders, and the agent's own fresh
    values carry the session mark."""

    def gen_atom(a: Atom) -> Atom:
        if a.sort is Sort.VARIABLE:
            return a
        tag = a.session_tag
        if fresh_owners.get(a.base_name) == agent.name:
            tag = tag or "i"
        return Atom(a.name, Sort.PARAMETER, tag)

    return map_atoms(m, lambda a: Atomic(gen_atom(a)))


def parse_protocol(text: str) -> Protocol:
    """Parses a whole protocol description; raises MessageSyntaxError or
    ContextError with the offending statement."""
    name = ""
    principal_names: list[str] = []
    intruder_name: Optional[str] = None
    key_decls: list[tuple[str, str, Mode]] = []
    levels: dict[str, frozenset] = {}
    fresh_owners: dict[str, str] = {}
    var_names: list[str] = []
    rule_specs: list[tuple[str, str]] = []
    step_specs: list[tuple[int, str, str, str]] = []
    role_specs: list[tuple[str, int, str]] = []

    for raw_stmt in _strip_comments(text).split(";"):
        stmt = raw_stmt.strip()
        if not stmt:
            continue
        head = stmt.split(None, 1)[0]
        rest = stmt[len(head):].strip()
        if head == "protocol":
            name = rest
        elif head == "principal":
            principal_names.extend(_names(rest))
        elif head == "intruder":
            m = _INTRUDER_RE.match(stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "intruder declaration")
            intruder_name = m.group(1)
            if intruder_name not in principal_names:
                principal_names.append(intruder_name)
        elif head == "key":
            m = _KEY_RE.match(stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "key declaration")
            key, inv, mode = m.group(1), m.group(2), m.group(3)
            if inv is None:
                if mode != "sym":
                    raise MessageSyntaxError(stmt, 0, "inverse key or 'sym'")
                key_decls.append((key, key, Mode.SYMMETRIC))
            else:
                key_decls.append((key, inv, Mode.SYMMETRIC if mode == "sym" else Mode.ASYMMETRIC))
        elif head == "fresh":
            m = re.match(r"^fresh\s+([A-Za-z][A-Za-z0-9_^-]*)\s+by\s+([A-Za-z][A-Za-z0-9_^-]*)$", stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "fresh declaration")
            fresh_owners[m.group(1)] = m.group(2)
        elif head == "var":
            var_names.extend(_names(rest))
        elif head == "level":
            m = _LEVEL_RE.match(stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "level declaration")
            levels[m.group(1)] = frozenset(_names(m.group(2)))
        elif head == "rule":
            if "->" not in rest:
                raise MessageSyntaxError(stmt, 0, "'->' in rule")
            lhs_text, rhs_text = rest.split("->", 1)
            rule_specs.append((lhs_text.strip(), rhs_text.strip()))
        elif head == "step":
            m = _STEP_RE.match(stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "step declaration")
            step_specs.append((int(m.group(1)), m.group(2), m.group(3), m.group(4).strip()))
        elif head == "role":
            m = _ROLE_RE.match(stmt)
            if m is None:
                raise MessageSyntaxError(stmt, 0, "role declaration")
            role_specs.append((m.group(1), int(m.group(2)), m.group(3)))
        else:
            raise MessageSyntaxError(stmt, 0, "statement keyword")

    if intruder_name is None:
        raise ContextError("no intruder declared")

    named: dict[str, Atom] = {}
    for n in principal_names:
        named[n] = Atom(n)
    for key, inv, _mode in key_decls:
        named.setdefault(key, Atom(key))
        named.setdefault(inv, Atom(inv))
    for n in fresh_owners:
        named.setdefault(n, Atom(n))
    for n in levels:
        named.setdefault(n, Atom(n))
    for v in var_names:
        if v in named:
            raise ContextError(f"{v} declared both as a name and a variable")
        named[v] = Atom(v, Sort.VARIABLE)

    symbols = SymbolTable({n: a for n, a in named.items()})

    parsed_rules: list[RewriteRule] = []
    for lhs_text, rhs_text in rule_specs:
        rsyms = _RuleSymbols(symbols)
        lhs = parse_message(lhs_text, rsyms, allow_dec=True)
        rhs = parse_message(rhs_text, rsyms, allow_dec=True)
        parsed_rules.append(RewriteRule(lhs, rhs))

    ctx = make_context(
        principals=principal_names,
        intruder=intruder_name,
        levels=levels,
        keys=key_decls,
        rewrite_rules=tuple(parsed_rules),
    )

    steps = []
    for sid, snd, rcv, mtext in sorted(step_specs, key=lambda s: s[0]):
        if steps and sid <= steps[-1].step_id:
            raise MessageSyntaxError(f"step {sid}", 0, "a strictly increasing step id")
        if snd not in named or rcv not in named:
            raise UndeclaredIdentifier(snd if snd not in named else rcv)
        steps.append(Step(sid, named[snd], named[rcv], parse_message(mtext, symbols)))

    declared: list[GeneralizedRole] = []
    for agent_name, num, body in role_specs:
        if agent_name not in named:
            raise UndeclaredIdentifier(agent_name)
        agent = named[agent_name]
        role_steps: list[RoleStep] = []
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            kind, _, mtext = item.partition(" ")
            if kind not in ("send", "recv"):
                raise MessageSyntaxError(item, 0, "'send' or 'recv'")
            msg = _to_role_view(parse_message(mtext.strip(), symbols), agent, fresh_owners)
            role_steps.append(RoleStep(SEND if kind == "send" else RECV, msg))
        declared.append(GeneralizedRole(f"{agent_name}_G{num}", agent, tuple(role_steps)))

    return Protocol(
        name=name,
        context=ctx,
        steps=tuple(steps),
        fresh_owners=fresh_owners,
        declared_roles=tuple(declared),
        symbols=symbols,
    )


def load_protocol(path) -> Protocol:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_protocol(fh.read())


# ---------------------------------------------------------------------------
# Role computation


def _var_name_stream() -> Iterable[str]:
    for n in ("X", "Y", "Z", "W", "V"):
        yield n
    for i in itertools.count(2):
        for n in ("X", "Y", "Z", "W", "V"):
            yield f"{n}{i}"


def _holds_key(ctx: VerificationContext, agent: Atom, key: Atom) -> bool:
    lvl = level_of(ctx, key)
    return lvl.is_bottom or agent.name in (lvl.members or frozenset())


def _knows(p: Protocol, agent: Atom, a: Atom) -> bool:
    ctx = p.context
    if is_identity(ctx, a):
        return True
    if p.fresh_owners.get(a.base_name) == agent.name:
        return True
    if a.base_name in ctx.keys:
        return _holds_key(ctx, agent, a)
    return level_of(ctx, a).is_bottom


def extract_generalized_roles(p: Protocol) -> tuple[GeneralizedRole, ...]:
    """The computed per-agent views; deterministic in declaration order."""
    ctx = p.context
    agents = [
        a for a in ctx.principals
        if any(a in (s.sender, s.receiver) for s in p.steps)
    ]
    fresh_vars = _var_name_stream().__iter__()
    roles: list[GeneralizedRole] = []

    for agent in agents:
        submap: dict[Message, Message] = {}

        def opaque(t: Message) -> Message:
            if t not in submap:
                submap[t] = Atomic(Atom(next(fresh_vars), Sort.VARIABLE))
            return submap[t]

        def read(t: Message) -> Message:
            if t in submap:
                return submap[t]
            if isinstance(t, Atomic):
                return t if _knows(p, agent, t.atom) else opaque(t)
            if isinstance(t, Concat):
                return concat(*(read(part) for part in t.parts))
            if isinstance(t, Enc):
                if _holds_key(ctx, agent, inverse_key(ctx, t.key)):
                    return Enc(read(t.body), t.key, t.mode)
                return opaque(t)
            return t

        def echo(t: Message) -> Message:
            if t in submap:
                return submap[t]
            if isinstance(t, Concat):
                return concat(*(echo(part) for part in t.parts))
            if isinstance(t, Enc):
                return Enc(echo(t.body), t.key, t.mode)
            return t

        steps: list[RoleStep] = []
        for s in p.steps:
            if s.sender == agent:
                msg = _to_role_view(echo(s.message), agent, p.fresh_owners)
                steps.append(RoleStep(SEND, msg, peer=s.receiver, step_id=s.step_id))
            elif s.receiver == agent:
                msg = _to_role_view(read(s.message), agent, p.fresh_owners)
                steps.append(RoleStep(RECV, msg, peer=s.sender, step_id=s.step_id))

        views: list[tuple[RoleStep, ...]] = []
        for i, st in enumerate(steps):
            if st.direction is SEND:
                views.append(tuple(steps[: i + 1]))
        # the trailing reception matters only for a party that speaks at all
        if views and steps[-1].direction is RECV:
            views.append(tuple(steps))
        for n, chunk in enumerate(views, 1):
            roles.append(GeneralizedRole(f"{agent.name}_G{n}", agent, chunk))

    return tuple(roles)


def roles_for(p: Protocol, mode: Optional[str] = None) -> tuple[GeneralizedRole, ...]:
    """mode 'manual' demands declared roles, 'auto' always computes; the
    default takes declared roles when the file has them."""
    if mode == "manual":
        if not p.declared_roles:
            raise AnalyzerError(f"protocol {p.name or '?'} declares no roles")
        return p.declared_roles
    if mode == "auto":
        return extract_generalized_roles(p)
    return p.declared_roles or extract_generalized_roles(p)


def check_role_variables(role: GeneralizedRole) -> bool:
    """Every variable must enter through a receive before any send uses it."""
    seen: set[Atom] = set()
    for st in role.steps:
        vs = {a for a in atoms(st.message) if a.sort is Sort.VARIABLE}
        if st.direction is SEND and not vs <= seen:
            return False
        seen |= vs
    return True


# ---------------------------------------------------------------------------
# The abstract pattern space


def _owner(a: Atom, ctx: VerificationContext, fresh_owners: Mapping[str, str]) -> str:
    base = a.base_name
    if base in fresh_owners:
        return fresh_owners[base]
    if is_identity(ctx, a):
        return base
    decl = ctx.keys.get(base)
    if decl is not None:
        own = level_of(ctx, Atom(base)).members
        if own and len(own) == 1:
            return next(iter(own))
        inv = level_of(ctx, Atom(decl.inverse if decl.name == base else decl.name)).members
        if inv and len(inv) == 1:
            return next(iter(inv))
    return base


def _shape(m: Message, var_order: dict[str, int]) -> tuple:
    if isinstance(m, Atomic):
        a = m.atom
        if a.sort is Sort.VARIABLE:
            return ("V", var_order.setdefault(a.name, len(var_order)))
        if a.sort is Sort.PARAMETER:
            return ("P", a.base_name)
        return ("C", a.name, a.session_tag)
    if isinstance(m, Concat):
        return ("cat",) + tuple(_shape(p, var_order) for p in m.parts)
    if isinstance(m, Enc):
        return ("enc", _shape(m.body, var_order), _shape(Atomic(m.key), var_order))
    return ("eps",)


def pattern_shape(m: Message) -> tuple:
    """Structural identity modulo numbering: parameters by base name,
    variables by position of first appearance."""
    return _shape(m, {})


def generalized_message_space(roles: Sequence[GeneralizedRole],
                              ctx: VerificationContext,
                              fresh_owners: Optional[Mapping[str, str]] = None,
                              ) -> list[Message]:
    """Encrypted subterms of the full per-agent views, renumbered so that
    every originating party's names advance together, then deduplicated by
    shape keeping the first."""
    fresh_owners = fresh_owners or {}
    fullest: dict[str, GeneralizedRole] = {}
    order: list[str] = []
    for r in roles:
        key = r.agent.name
        if key not in fullest:
            order.append(key)
        if key not in fullest or len(r.steps) > len(fullest[key].steps):
            fullest[key] = r

    raw: list[Message] = []
    for agent_name in order:
        for st in fullest[agent_name].steps:
            for t in subterms(st.message):
                if isinstance(t, Enc):
                    raw.append(t)

    owner_counts: dict[str, int] = {}
    var_counts: dict[str, int] = {}
    space: list[Message] = []
    for pat in raw:
        pat_atoms = sorted(atoms(pat), key=lambda a: (a.base_name, a.name))
        bumped: list[str] = []
        for a in pat_atoms:
            if a.sort is Sort.VARIABLE:
                continue
            o = _owner(a, ctx, fresh_owners)
            if o not in bumped:
                bumped.append(o)
                owner_counts[o] = owner_counts.get(o, 0) + 1
        vbumped: list[str] = []
        for a in pat_atoms:
            if a.sort is Sort.VARIABLE and a.base_name not in vbumped:
                vbumped.append(a.base_name)
                var_counts[a.base_name] = var_counts.get(a.base_name, 0) + 1
        pick: dict[Atom, Atom] = {}
        for a in pat_atoms:
            if a.sort is Sort.VARIABLE:
                pick[a] = Atom(f"{a.base_name}_{var_counts[a.base_name]}", Sort.VARIABLE)
            else:
                o = _owner(a, ctx, fresh_owners)
                pick[a] = Atom(f"{a.base_name}_{owner_counts[o]}", Sort.PARAMETER)
        space.append(map_atoms(pat, lambda a: Atomic(pick[a])))

    seen: set[tuple] = set()
    final: list[Message] = []
    for pat in space:
        shape = pattern_shape(pat)
        if shape not in seen:
            seen.add(shape)
            final.append(pat)
    return final


def pattern_space(p: Protocol, roles: Optional[Sequence[GeneralizedRole]] = None) -> list[Message]:
    if roles is None:
        roles = roles_for(p)
    return generalized_message_space(roles, p.context, p.fresh_owners)
