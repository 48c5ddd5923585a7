"""Recursive-descent parser for the polynomial text grammar.

    expr     := ["-"] term (("+"|"-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" uint)?
    base     := rational | var | "(" expr ")"
    rational := int ("/" uint)?
    var      := letter (letter|digit|"_")*

Whitespace-insensitive.  `parse(format(f)) == f` for normalized f.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .poly import Polynomial, Registry

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+\-*/^()]))")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Syntax or lookup error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].strip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", self.pos)
            return None, self.pos
        return m, m.start(m.lastindex)

    def next(self):
        m, where = self.peek()
        if m is not None:
            self.pos = m.end()
        return m, where


def _parse_expr(tk: _Tokens, reg: Registry) -> Polynomial:
    m, _ = tk.peek()
    negate = False
    if m is not None and m.group(3) == "-":
        tk.next()
        negate = True
    result = _parse_term(tk, reg)
    if negate:
        result = -result
    while True:
        m, _ = tk.peek()
        if m is None or m.group(3) not in ("+", "-"):
            return result
        tk.next()
        rhs = _parse_term(tk, reg)
        result = result + rhs if m.group(3) == "+" else result - rhs


def _parse_term(tk: _Tokens, reg: Registry) -> Polynomial:
    result = _parse_factor(tk, reg)
    while True:
        m, _ = tk.peek()
        if m is None or m.group(3) != "*":
            return result
        tk.next()
        result = result * _parse_factor(tk, reg)


def _parse_factor(tk: _Tokens, reg: Registry) -> Polynomial:
    base = _parse_base(tk, reg)
    m, _ = tk.peek()
    if m is not None and m.group(3) == "^":
        tk.next()
        m, where = tk.next()
        if m is None or m.group(1) is None:
            raise ParseError("expected a non-negative integer exponent", where)
        return base ** int(m.group(1))
    return base


def _parse_base(tk: _Tokens, reg: Registry) -> Polynomial:
    m, where = tk.next()
    if m is None:
        raise ParseError("unexpected end of expression", where)
    if m.group(1) is not None:
        value = Fraction(int(m.group(1)))
        m2, _ = tk.peek()
        if m2 is not None and m2.group(3) == "/":
            tk.next()
            m3, w3 = tk.next()
            if m3 is None or m3.group(1) is None:
                raise ParseError("expected an integer denominator", w3)
            den = int(m3.group(1))
            if den == 0:
                raise ParseError("zero denominator", w3)
            value /= den
        return reg.const(value)
    if m.group(2) is not None:
        name = m.group(2)
        try:
            return reg.var(name)
        except KeyError:
            raise ParseError(f"unknown variable {name!r}", where) from None
    if m.group(3) == "(":
        inner = _parse_expr(tk, reg)
        m2, w2 = tk.next()
        if m2 is None or m2.group(3) != ")":
            raise ParseError("expected ')'", w2)
        return inner
    raise ParseError(f"unexpected token {m.group(3)!r}", where)


def infer_registry(texts: Iterable[str]) -> Registry:
    """The identifiers of `texts` in order of first appearance, all tagged as coordinates."""
    names = dict.fromkeys(m.group(0) for text in texts for m in _IDENT.finditer(text))
    return Registry([(n, "coordinate") for n in names])


def parse(text: str, registry: Registry | None = None) -> Polynomial:
    """Parse `text` over `registry`.

    Without a registry, one is inferred from the identifiers in order of
    first appearance (all tagged as coordinates).
    """
    if registry is None:
        registry = infer_registry([text])
    tk = _Tokens(text)
    result = _parse_expr(tk, registry)
    m, where = tk.peek()
    if m is not None:
        raise ParseError("trailing input", where)
    return result
