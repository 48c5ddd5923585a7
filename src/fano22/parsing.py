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

import math
import re
import sys
from fractions import Fraction
from typing import Iterable

from .poly import Polynomial, Registry

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+\-*/^()]))")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

#: deepest parenthesis nesting parsed; at four stack frames a level, this leaves
#: headroom under the recursion limit for callers deep in a suite or a test run
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or lookup error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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


def _integer(m: re.Match, where: int) -> int:
    try:
        return int(m.group(1))
    except ValueError:  # only the int-from-str digit limit refuses a string of digits
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"integer literal longer than {limit} digits", where) from None


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
        n, limit = _integer(m, where), sys.get_int_max_str_digits()
        if limit and not base.is_zero():
            # lex order on exponents is a monomial order, so the greatest and the least
            # term of base^n are those of base to the n-th: c^n is a coefficient for
            # either's c, and |c|^n >= 2^(n*(bits - 1))
            terms = base.terms
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                       for c in (terms[max(terms)], terms[min(terms)]))
            # for sigma in {1, -1}^k, base(sigma)^n is a signed sum of the at most m
            # coefficients of base^n, so one is at least |s|^n / m >= 2^(n*e/16 - bits(m)),
            # e = floor(16*log2|s|); |s| is the largest |base(sigma)| at (1, ..., 1) and at
            # the points with one coordinate -1
            names = base.variables()
            s = max(abs(sum(-c if i is not None and ex[i] % 2 else c for ex, c in terms.items()))
                    for i in (None, *map(reg.index, names)))
            e = (s.numerator ** 16 // s.denominator ** 16).bit_length() - 1
            k = len(names)
            m = math.comb(n * base.total_degree() + k, k)
            # 2^(10/3) > 10: either coefficient passes 10^limit, so it is unprintable
            if 3 * max(n * (bits - 1), n * e // 16 - m.bit_length()) >= 10 * limit:
                what = "constant power" if base.is_constant() else "coefficient of a power"
                raise ParseError(f"{what} longer than {limit} digits", where)
        return base ** n
    return base


def _parse_base(tk: _Tokens, reg: Registry) -> Polynomial:
    m, where = tk.next()
    if m is None:
        raise ParseError("unexpected end of expression", where)
    if m.group(1) is not None:
        value = Fraction(_integer(m, where))
        m2, _ = tk.peek()
        if m2 is not None and m2.group(3) == "/":
            tk.next()
            m3, w3 = tk.next()
            if m3 is None or m3.group(1) is None:
                raise ParseError("expected an integer denominator", w3)
            den = _integer(m3, w3)
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
        if tk.depth == MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", where)
        tk.depth += 1
        inner = _parse_expr(tk, reg)
        tk.depth -= 1
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
