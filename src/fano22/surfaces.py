"""Exact intersection theory of divisor classes on Hirzebruch surfaces.

Classes are written a*s_e + b*f with s_e the negative section
(s_e^2 = -e) and f the fiber.
"""

from __future__ import annotations

from fractions import Fraction


class DivisorClass:
    """a*s_e + b*f on the Hirzebruch surface F_e."""

    __slots__ = ("e", "a", "b")

    def __init__(self, e: int, a: int, b: int):
        if not all(isinstance(k, int) for k in (e, a, b)):
            raise TypeError("divisor class coefficients must be int")
        if e < 0:
            raise ValueError("surface index must be non-negative")
        self.e, self.a, self.b = e, a, b

    def _check(self, other: "DivisorClass") -> None:
        if self.e != other.e:
            raise ValueError("divisor classes live on different surfaces")


def intersect(D1: DivisorClass, D2: DivisorClass) -> int:
    """Intersection number on F_e: a1*a2*(-e) + a1*b2 + a2*b1."""
    D1._check(D2)
    return D1.a * D2.a * (-D1.e) + D1.a * D2.b + D2.a * D1.b


def canonical_class(e: int) -> DivisorClass:
    """K = -2*s_e - (e+2)*f."""
    return DivisorClass(e, -2, -(e + 2))


def adjunction_genus(D: DivisorClass) -> Fraction:
    """Arithmetic genus 1 + (D^2 + D.K)/2."""
    K = canonical_class(D.e)
    return 1 + Fraction(intersect(D, D) + intersect(D, K), 2)


def is_irreducible_class(D: DivisorClass) -> bool:
    """Standard irreducible-curve cone on F_e.

    Fibers (0,1) and the negative section (1,0) are irreducible; for
    a >= 1 any other irreducible class needs b >= a*e; a multiple class
    like 5f is not integral as a single irreducible curve.
    """
    if D.a < 0 or D.b < 0:
        return False
    if D.a == 0:
        return D.b == 1
    if (D.a, D.b) == (1, 0):
        return True
    return D.b >= D.a * D.e


def genus_zero_classes_with_pairing(total: int) -> list[tuple[int, int]]:
    """Irreducible genus-0 classes (a, b) on F_3 with (a*s+b*f).(s+4f) = total.

    On F_3, (a*s + b*f).(s + 4f) = a*(-3 + 4) + b = a + b, so the search
    walks that line.
    """
    out = []
    for a in range(total + 1):
        b = total - a
        D = DivisorClass(3, a, b)
        if is_irreducible_class(D) and adjunction_genus(D) == 0:
            out.append((a, b))
    return out
