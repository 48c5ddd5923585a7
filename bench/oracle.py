"""Checks made apart from the program: plain `Fraction` arithmetic only.

Nothing here imports `fano22`.  Program outputs reach these functions as
text in the package's documented canonical form (`format_poly`), or as
plain rationals, so a change of the program's internal representation
cannot change what is checked.  Every checker raises `Mismatch` with a
short reason when the output is wrong.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


class Mismatch(Exception):
    """A program output disagrees with the independent computation."""


class _Evaluator:
    """Recursive descent over the polynomial grammar, evaluating at a point."""

    def __init__(self, text: str, values: Mapping[str, Fraction]):
        self.tokens = []
        pos = 0
        text = text.rstrip()
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"cannot read {text[pos:pos + 10]!r}")
            self.tokens.append((m.group(1), m.group(2), m.group(3)))
            pos = m.end()
        self.i = 0
        self.values = values

    def _peek_op(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i][2]
        return None

    def expr(self) -> Fraction:
        sign = 1
        if self._peek_op() == "-":
            self.i += 1
            sign = -1
        acc = sign * self.term()
        while self._peek_op() in ("+", "-"):
            op = self.tokens[self.i][2]
            self.i += 1
            acc = acc + self.term() if op == "+" else acc - self.term()
        return acc

    def term(self) -> Fraction:
        acc = self.factor()
        while self._peek_op() == "*":
            self.i += 1
            acc *= self.factor()
        return acc

    def factor(self) -> Fraction:
        base = self.base()
        if self._peek_op() == "^":
            self.i += 1
            num, _, _ = self.tokens[self.i]
            self.i += 1
            return base ** int(num)
        return base

    def base(self) -> Fraction:
        num, name, op = self.tokens[self.i]
        self.i += 1
        if num is not None:
            value = Fraction(int(num))
            if self._peek_op() == "/":
                self.i += 1
                value /= int(self.tokens[self.i][0])
                self.i += 1
            return value
        if name is not None:
            return self.values[name]
        if op == "(":
            inner = self.expr()
            self.i += 1  # ")"
            return inner
        raise ValueError(f"unexpected token {op!r}")


def evaluate(text: str, values: Mapping[str, Fraction] | None = None) -> Fraction:
    """Value of a polynomial written in the grammar at a rational point."""
    ev = _Evaluator(text, values or {})
    out = ev.expr()
    if ev.i != len(ev.tokens):
        raise ValueError("trailing input")
    return out


def random_point(rng, names: Sequence[str]) -> dict[str, Fraction]:
    """A rational point with large, seeded coordinates (Schwartz-Zippel)."""
    return {n: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for n in names}


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by plain Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


# -- checkers --------------------------------------------------------------


def check_product(f: str, g: str, product: str, points) -> None:
    for p in points:
        if evaluate(f, p) * evaluate(g, p) != evaluate(product, p):
            raise Mismatch("product disagrees with f*g at a random point")


def check_substitution(f: str, images: Mapping[str, str], result: str, points) -> None:
    for p in points:
        moved = dict(p)
        moved.update({n: evaluate(img, p) for n, img in images.items()})
        if evaluate(f, moved) != evaluate(result, p):
            raise Mismatch("substitution disagrees with evaluation at a random point")


def check_quotient(f: str, g: str, quotient: str | None, points) -> None:
    if quotient is None:
        raise Mismatch("exact division of an exact multiple returned no quotient")
    for p in points:
        if evaluate(quotient, p) * evaluate(g, p) != evaluate(f, p):
            raise Mismatch("quotient times divisor disagrees with the dividend")


def check_kernel(rows: Sequence[Sequence[str]], kernel: Sequence[Sequence[str]],
                 program_rank: int, points: Sequence[Mapping[str, Fraction]]) -> None:
    """Kernel and rank of a matrix of polynomial texts.

    Over Q pass one empty point.  Over Q[v] pass more points than the
    degree in v of any entry of M*k: an identity of that degree vanishing
    at all of them vanishes identically, and the largest rank over the
    specializations is the generic rank (with the seeded points, exactly
    so for every matrix the benchmark draws).
    """
    ncols = len(rows[0])
    independent_rank = 0
    for p in points:
        m = [[evaluate(x, p) for x in row] for row in rows]
        independent_rank = max(independent_rank, rank(m))
        vecs = [[evaluate(x, p) for x in vec] for vec in kernel]
        for vec in vecs:
            if len(vec) != ncols:
                raise Mismatch("kernel vector has the wrong length")
            for row in m:
                if sum(a * b for a, b in zip(row, vec)) != 0:
                    raise Mismatch("kernel vector is not annihilated")
    if program_rank != independent_rank:
        raise Mismatch(f"rank {program_rank} != independent rank {independent_rank}")
    if program_rank + len(kernel) != ncols:
        raise Mismatch("rank plus nullity differs from the number of columns")
    generic = points[-1]
    if kernel and rank([[evaluate(x, generic) for x in vec] for vec in kernel]) != len(kernel):
        raise Mismatch("kernel vectors are linearly dependent")


def check_section_basis(basis: Sequence[str], degree: tuple[int, int], rng) -> None:
    """A basis of H^0(F3, O(d1, d2)) in x0, x1 (weight (1,0)), y0 ((-3,1)), y1 ((0,1))."""
    d1, d2 = degree
    expected = sum(d1 + 3 * i + 1 for i in range(d2 + 1))
    if len(basis) != expected:
        raise Mismatch(f"section space has dimension {len(basis)}, expected {expected}")
    if len(set(basis)) != len(basis):
        raise Mismatch("section basis repeats an element")
    p = random_point(rng, ("x0", "x1", "y0", "y1"))
    s, t = Fraction(rng.randint(2, 97), rng.randint(1, 89)), Fraction(rng.randint(2, 97), 7)
    scaled = {"x0": p["x0"] * s, "x1": p["x1"] * s,
              "y0": p["y0"] * t / s ** 3, "y1": p["y1"] * t}
    for b in basis:
        if evaluate(b, scaled) != s ** d1 * t ** d2 * evaluate(b, p):
            raise Mismatch(f"basis element {b} is not of bidegree {degree}")


def check_paper_identities(raw: Mapping[str, str], rng, npoints: int = 4) -> None:
    """Re-derive three of the paper's identities from the constants table.

    - the unipotent part of the F3 action moves y1 by P*y0 with
      4*x0*P - (x1 + a*x0)^4 = -x1^4, so 4*x0*y1 - x1^4*y0 is semi-invariant;
    - acting twice equals acting once by the composed parameters
      (a'', lam'') = (a + lam*a2, lam*lam2), projectively on each factor;
    - the quadric involution j = [f2 : c*f3 : c^2*f40 : c*f5 : f6] squares
      to the identity on the quadric f_c = c^2*f40 - f41.
    """
    coords = ("x0", "x1", "y0", "y1")
    for _ in range(npoints):
        p = random_point(rng, coords + ("a", "lam", "a2", "lam2"))
        unipotent = dict(p, y0=Fraction(1), y1=Fraction(0))
        shift = evaluate(raw["f3_action.y1"], unipotent)
        if 4 * p["x0"] * shift - (p["x1"] + p["a"] * p["x0"]) ** 4 != -p["x1"] ** 4:
            raise Mismatch("4*x0*P - (x1 + a*x0)^4 != -x1^4")

        def act(point, a, lam):
            values = dict(point, a=a, lam=lam)
            return {n: evaluate(raw[f"f3_action.{n}"], values) for n in coords}

        twice = act(act(p, p["a"], p["lam"]), p["a2"], p["lam2"])
        law = {k: evaluate(raw[f"group_law.{k}"], p) for k in ("a", "lam")}
        once = act(p, law["a"], law["lam"])
        for u, w in (("x0", "x1"), ("y0", "y1")):
            if twice[u] * once[w] != twice[w] * once[u]:
                raise Mismatch("acting twice differs from the group law")

        q = random_point(rng, ("w0", "w1", "w2", "w3", "c"))
        c = q["c"]

        def gens(w):
            return {k: evaluate(raw[f"quartic_ideal.{k}"], w)
                    for k in ("f2", "f3", "f40", "f41", "f5", "f6")}

        def quadric(w):
            g = gens(w)
            return c * c * g["f40"] - g["f41"]

        at0, at1 = quadric(dict(q, w4=Fraction(0))), quadric(dict(q, w4=Fraction(1)))
        w = dict(q, w4=-at0 / (at1 - at0))
        if quadric(w) != 0:
            raise Mismatch("the family quadric is not affine in w4")
        names = ("w0", "w1", "w2", "w3", "w4")

        def j(point):
            g = gens(dict(point, c=c))
            return dict(zip(names, (g["f2"], c * g["f3"], c * c * g["f40"],
                                    c * g["f5"], g["f6"])))

        back = j(j(w))
        if all(back[n] == 0 for n in names):
            raise Mismatch("j o j vanishes at a point of the quadric")
        for a_ in names:
            for b_ in names:
                if back[a_] * w[b_] != back[b_] * w[a_]:
                    raise Mismatch("j o j is not proportional to the identity on f_c")
