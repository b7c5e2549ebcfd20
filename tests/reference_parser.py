"""The message parser as it was before it read one token list per message,
kept as the reference for `secwitness.terms.parse_message`.

A cursor walks the text character by character: it skips the blanks
" \t\r\n" before each token, and each parsing function takes the next
character, identifier or nested message at the cursor.  The one change from
that parser is the call that resolves a key, which goes through
`SymbolTable.resolve(name, key=True)`.  The tests check that the two give
the same message, or the same exception type and text, on every text.
"""

from __future__ import annotations

import re

from secwitness.errors import MessageSyntaxError, UndeclaredIdentifier
from secwitness.terms import IDENT, MAX_NESTING, Atom, Enc, Message, SymbolTable, concat

_IDENT_RE = re.compile(IDENT)


class _Cursor:
    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise MessageSyntaxError(self.text, self.pos, repr(ch))
        self.pos += len(ch)

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise MessageSyntaxError(self.text, self.pos, "identifier")
        self.pos = m.end()
        return m.group(0)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_key(cur: _Cursor, symbols: SymbolTable) -> Atom:
    if cur.peek() == "{":
        cur.expect("{")
        name = cur.ident()
        cur.expect("}")
    else:
        name = cur.ident()
    return symbols.resolve(name, key=True)


def _parse_nested(cur: _Cursor, symbols: SymbolTable, allow_dec: bool) -> Message:
    if cur.depth == MAX_NESTING:
        raise MessageSyntaxError(cur.text, cur.pos, f"at most {MAX_NESTING} nested levels")
    cur.depth += 1
    body = _parse_msg(cur, symbols, allow_dec)
    cur.depth -= 1
    return body


def _parse_part(cur: _Cursor, symbols: SymbolTable, allow_dec: bool) -> Message:
    if cur.peek() == "{":
        cur.expect("{")
        body = _parse_nested(cur, symbols, allow_dec)
        cur.expect("}")
        cur.expect("_")
        return Enc(body, _parse_key(cur, symbols))
    start = cur.pos
    name = cur.ident()
    if allow_dec and name == "d" and cur.peek() == "(":
        # d(k, m) abbreviates {m}_k: decryption is encryption with the
        # inverse key in this algebra.  Only rule declarations use it.
        cur.expect("(")
        key_name = cur.ident()
        cur.expect(",")
        body = _parse_nested(cur, symbols, allow_dec)
        cur.expect(")")
        return Enc(body, symbols.resolve(key_name, key=True))
    try:
        return symbols.resolve(name)
    except UndeclaredIdentifier:
        cur.pos = start
        raise


def _parse_msg(cur: _Cursor, symbols: SymbolTable, allow_dec: bool) -> Message:
    parts = [_parse_part(cur, symbols, allow_dec)]
    while cur.peek() == ".":
        cur.expect(".")
        parts.append(_parse_part(cur, symbols, allow_dec))
    return concat(*parts)


def parse_message(text: str, symbols: SymbolTable, allow_dec: bool = False) -> Message:
    cur = _Cursor(text)
    m = _parse_msg(cur, symbols, allow_dec)
    if not cur.at_end():
        raise MessageSyntaxError(text, cur.pos, "end of message")
    return m
