"""The message algebra: atoms, concatenation, encryption, parsing and printing.

Messages are immutable trees.  Concatenation is stored flattened (n-ary,
never nested, never containing the empty message), which makes structural
equality insensitive to parse shape and makes "the parts beside an atom"
well defined.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    MessageSyntaxError,
    NotAKey,
    SubstitutedIntoKeyPosition,
    UndeclaredIdentifier,
    VariableInKeyPosition,
)


# the three sorts, in binding order: a higher sort binds to a lower one
CONSTANT, PARAMETER, VARIABLE = 0, 1, 2


class Message:
    """Base class; concrete nodes are Atom, Concat, Enc and Empty.

    Nodes are slotted and immutable, and carry their structural hash,
    computed once at construction from the children's hashes.  Two nodes
    are equal when they have one type, one hash and equal constructor
    arguments, which each node gives by `_args`."""

    __slots__ = ("_h",)

    def __eq__(self, other: object) -> bool:
        return (self is other or type(other) is type(self) and self._h == other._h
                and self._args() == other._args())

    def __hash__(self) -> int:
        return self._h

    def __reduce__(self):
        # pickled and copied as a constructor call, so the receiving process
        # recomputes the cached hash; string hashes differ between processes
        return type(self), self._args()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: a message is immutable")

    __delattr__ = __setattr__

    def __str__(self) -> str:
        return print_message(self)


# the nodes' constructors set their fields past the refusing __setattr__
_init = object.__setattr__


class Atom(Message):
    """An atomic name, and the message made of it alone.  (name, sort,
    session_tag, index) identifies the atom; sort is fixed at construction
    and never changes.  index numbers the analyzer's stand-in copies of a
    name (A_3 is copy 3 of A); levels, keys and identities are looked up by
    name alone."""

    __slots__ = ("name", "sort", "session_tag", "index")

    def __init__(self, name: str, sort: int = CONSTANT, session_tag: Optional[str] = None,
                 index: Optional[int] = None) -> None:
        if not name:
            raise ValueError("atom name must be non-empty")
        _init(self, "name", name)
        _init(self, "sort", sort)
        _init(self, "session_tag", session_tag)
        _init(self, "index", index)
        # an absent tag or index hashes as "" or -1: hash(None) follows the
        # object's address before Python 3.12, and sets of atoms would then
        # iterate in a different order in every process, whatever the seed
        _init(self, "_h", hash((name, sort, "" if session_tag is None else session_tag,
                                -1 if index is None else index)))

    def _args(self) -> tuple:
        return self.name, self.sort, self.session_tag, self.index

    def __eq__(self, other: object) -> bool:
        # Message.__eq__ with the fields read in place: the most frequent
        # comparison, and an oracle run takes 2% less time without _args
        return (self is other or type(other) is Atom and self._h == other._h
                and self.name == other.name and self.sort == other.sort
                and self.session_tag == other.session_tag and self.index == other.index)

    __hash__ = Message.__hash__

    def display(self) -> str:
        """The written form: name, then _index, then ^tag."""
        return (self.name + ("" if self.index is None else f"_{self.index}")
                + (f"^{self.session_tag}" if self.session_tag else ""))

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return ("", "'", "?")[self.sort] + self.display()


class Concat(Message):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Message, ...]) -> None:
        if len(parts) < 2:
            raise ValueError("Concat needs at least two parts; use concat()")
        for p in parts:
            if isinstance(p, (Concat, Empty)):
                raise ValueError("Concat parts must be flattened and non-empty")
        _init(self, "parts", parts)
        # hash(parts) reads each part's cached hash; a generator expression
        # here kept the collector's count climbing and raised the peak heap
        _init(self, "_h", hash(parts))

    def _args(self) -> tuple:
        return (self.parts,)

    def __repr__(self) -> str:
        return f"Concat({', '.join(map(repr, self.parts))})"


class Enc(Message):
    __slots__ = ("body", "key")

    def __init__(self, body: Message, key: Atom) -> None:
        if key.sort is VARIABLE:
            raise VariableInKeyPosition(key.display())
        _init(self, "body", body)
        _init(self, "key", key)
        _init(self, "_h", hash((body._h, key._h)))

    def _args(self) -> tuple:
        return self.body, self.key

    def __repr__(self) -> str:
        return f"Enc({self.body!r}, {self.key!r})"


class Empty(Message):
    __slots__ = ()

    def __init__(self) -> None:
        _init(self, "_h", hash(()))

    def _args(self) -> tuple:
        return ()

    def __repr__(self) -> str:
        return "Empty()"


EMPTY = Empty()


def concat(*messages: Message) -> Message:
    """Smart constructor: flattens nested concatenations and drops the empty
    message, returning the neutral element when nothing remains."""
    parts: list[Message] = []
    for m in messages:
        if isinstance(m, Empty):
            continue
        if isinstance(m, Concat):
            parts.extend(m.parts)
        else:
            parts.append(m)
    if not parts:
        return EMPTY
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def flatten(m: Message) -> tuple[Message, ...]:
    """Top-level parts of a message: the concatenation's parts, or the message
    itself; the empty message has no parts."""
    if isinstance(m, Concat):
        return m.parts
    if isinstance(m, Empty):
        return ()
    return (m,)


def subterms(m: Message) -> Iterator[Message]:
    """Pre-order traversal, outermost first, left to right."""
    yield m
    if isinstance(m, Concat):
        for p in m.parts:
            yield from subterms(p)
    elif isinstance(m, Enc):
        yield from subterms(m.body)


def atoms(m: Message) -> frozenset[Atom]:
    """Every atom of the tree, encryption keys included."""
    out: set[Atom] = set()
    stack = [m]
    while stack:
        t = stack.pop()
        if isinstance(t, Atom):
            out.add(t)
        elif isinstance(t, Concat):
            stack.extend(t.parts)
        elif isinstance(t, Enc):
            out.add(t.key)
            stack.append(t.body)
    return frozenset(out)


def members(m: Union[Message, Iterable[Message]]) -> Iterable[Message]:
    """One message read as a one-element set; a set of messages unchanged."""
    return (m,) if isinstance(m, Message) else m


def occurrences(m: Message) -> Iterator[tuple[Atom, tuple[Enc, ...]]]:
    """Each atom occurrence outside key positions, left to right, with the
    encryptions around it, outermost first."""
    stack: list[tuple[Message, tuple[Enc, ...]]] = [(m, ())]
    while stack:
        t, around = stack.pop()
        if isinstance(t, Atom):
            yield t, around
        elif isinstance(t, Concat):
            stack.extend((p, around) for p in reversed(t.parts))
        elif isinstance(t, Enc):
            stack.append((t.body, around + (t,)))


def body_atoms_in_order(m: Message) -> list[Atom]:
    """Atoms in first-occurrence order, skipping key positions."""
    return list(dict.fromkeys(a for a, _ in occurrences(m)))


def variables_of(m: Message) -> frozenset[Atom]:
    return frozenset(a for a in atoms(m) if a.sort is VARIABLE)


def map_atoms(m: Message, f: Callable[[Atom], Optional[Message]]) -> Message:
    """Rebuilds the message through the smart constructors, replacing each
    atom occurrence by f(atom); None keeps the occurrence.  A key's image
    must be a non-variable atom."""
    if isinstance(m, Atom):
        image = f(m)
        return m if image is None else image
    if isinstance(m, Concat):
        parts = []
        for p in m.parts:
            if isinstance(p, Atom):
                image = f(p)
                parts.append(p if image is None else image)
            else:
                parts.append(map_atoms(p, f))
        return concat(*parts)
    if isinstance(m, Enc):
        key = m.key
        image = f(key)
        if image is not None:
            if not isinstance(image, Atom) or image.sort is VARIABLE:
                raise SubstitutedIntoKeyPosition(key.display(), print_message(image))
            key = image
        return Enc(map_atoms(m.body, f), key)
    return m


def substitute(m: Message, sigma: Mapping[Atom, Message]) -> Message:
    """Simultaneous replacement; empty parts vanish and concatenations stay
    flat."""
    return map_atoms(m, sigma.get)


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   msg  := part ("." part)*
#   part := IDENT | "{" msg "}" "_" key
#   key  := IDENT | "{" IDENT "}"
#
# A message is read from one token list: each token is an identifier or any
# other single character that is not a blank (" \t\r\n"), and blanks only
# separate tokens.  Identifiers match IDENT, so ka-1, Na^i and A_3 are single
# tokens.  A session tag is written with ^ and split off during resolution.
# Protocol statements name principals, keys and variables with the same
# pattern.

IDENT = r"[A-Za-z][A-Za-z0-9_^-]*"
_TOKEN_RE = re.compile(rf"{IDENT}|[^ \t\r\n]")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

# Deepest nesting of {...} or d(...) the parser accepts; every bundled
# protocol nests one level, and the bound keeps deeper input from
# exhausting the interpreter's stack.
MAX_NESTING = 100


class SymbolTable:
    """Declared names available to the message parser.

    Maps a base name to its Atom prototype; resolution strips a ^tag suffix
    and re-attaches it to the prototype.  key says the name stands in a key
    position: a table given the declared key names rejects any other name
    that is not a variable there, and a table that accepts undeclared names
    makes a parameter of one.
    """

    def __init__(self, atoms_by_name: Mapping[str, Atom],
                 keys: Optional[Iterable[str]] = None):
        self._by_name = dict(atoms_by_name)
        self._keys = None if keys is None else frozenset(keys)

    def resolve(self, ident: str, key: bool = False) -> Atom:
        a = self._by_name.get(ident)
        if a is None:
            base, hat, tag = ident.partition("^")
            if not hat or base not in self._by_name:
                raise UndeclaredIdentifier(ident)
            proto = self._by_name[base]
            a = Atom(proto.name, proto.sort, tag)
        if (key and self._keys is not None and a.sort is not VARIABLE
                and a.name not in self._keys):
            raise NotAKey(ident)
        return a


# The parsing functions take the text, its unread tokens (last first, so
# that reading a token pops it), the symbols, whether d(k, m) is allowed and
# the nesting depth.  They are module-level: nested recursive functions
# would leave a reference cycle behind on every call.

def _syntax_error(text: str, toks: list[str], expected: str,
                  after_opener: bool = False) -> MessageSyntaxError:
    """The error at the first unread token (the end of the text when none
    is left), or just after the last token read."""
    spans = [m.span() for m in _TOKEN_RE.finditer(text)]
    read = len(spans) - len(toks)
    if after_opener:
        return MessageSyntaxError(text, spans[read - 1][1], expected)
    return MessageSyntaxError(text, spans[read][0] if toks else len(text), expected)


def _expect(text: str, toks: list[str], token: str) -> None:
    if not toks or toks[-1] != token:
        raise _syntax_error(text, toks, repr(token))
    toks.pop()


def _ident(text: str, toks: list[str]) -> str:
    if not toks or toks[-1][0] not in _IDENT_START:
        raise _syntax_error(text, toks, "identifier")
    return toks.pop()


def _part(text: str, toks: list[str], symbols: SymbolTable, allow_dec: bool,
          depth: int) -> Message:
    if toks and toks[-1] == "{":
        toks.pop()
        body = _msg(text, toks, symbols, allow_dec, depth + 1)
        _expect(text, toks, "}")
        _expect(text, toks, "_")
        if toks and toks[-1] == "{":
            toks.pop()
            key = _ident(text, toks)
            _expect(text, toks, "}")
        else:
            key = _ident(text, toks)
        return Enc(body, symbols.resolve(key, key=True))
    name = _ident(text, toks)
    if allow_dec and name == "d" and toks and toks[-1] == "(":
        # d(k, m) abbreviates {m}_k: decryption is encryption with the
        # inverse key in this algebra.  Only rule declarations use it.
        toks.pop()
        key = _ident(text, toks)
        _expect(text, toks, ",")
        body = _msg(text, toks, symbols, allow_dec, depth + 1)
        _expect(text, toks, ")")
        return Enc(body, symbols.resolve(key, key=True))
    return symbols.resolve(name)


def _msg(text: str, toks: list[str], symbols: SymbolTable, allow_dec: bool,
         depth: int) -> Message:
    if depth > MAX_NESTING:
        raise _syntax_error(text, toks, f"at most {MAX_NESTING} nested levels", after_opener=True)
    parts = [_part(text, toks, symbols, allow_dec, depth)]
    while toks and toks[-1] == ".":
        toks.pop()
        parts.append(_part(text, toks, symbols, allow_dec, depth))
    return concat(*parts)


def parse_message(text: str, symbols: SymbolTable, allow_dec: bool = False) -> Message:
    toks = _TOKEN_RE.findall(text)
    toks.reverse()
    m = _msg(text, toks, symbols, allow_dec, 0)
    if toks:
        raise _syntax_error(text, toks, "end of message")
    return m


def print_message(m: Message) -> str:
    if isinstance(m, Empty):
        return "ε"
    if isinstance(m, Atom):
        return m.display()
    if isinstance(m, Concat):
        return ".".join(print_message(p) for p in m.parts)
    if isinstance(m, Enc):
        return "{" + print_message(m.body) + "}_" + m.key.display()
    raise TypeError(f"not a message: {m!r}")
