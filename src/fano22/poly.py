"""Sparse multivariate polynomials over exact rationals.

Coefficients are `fractions.Fraction` (always reduced, positive
denominator), monomials are exponent tuples indexed by a fixed variable
registry.  The monomial order is graded lexicographic with respect to the
registry order; it drives exact division and the canonical text form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

#: variable role tags
ROLES = ("coordinate", "group-parameter", "family-parameter",
         "curve-parameter", "infinitesimal")


class RegistryMismatch(ValueError):
    """Two operands live over different variable registries."""


class Registry:
    """An ordered, immutable list of named variables with role tags.

    The order is fixed for the registry's lifetime and determines the
    graded-lexicographic monomial order used everywhere downstream.
    """

    __slots__ = ("names", "roles", "_index")

    def __init__(self, variables: Iterable[tuple[str, str]]):
        names = []
        roles = []
        for name, role in variables:
            if role not in ROLES:
                raise ValueError(f"unknown variable role {role!r}")
            names.append(name)
            roles.append(role)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.names: tuple[str, ...] = tuple(names)
        self.roles: tuple[str, ...] = tuple(roles)
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def role(self, name: str) -> str:
        return self.roles[self.index(name)]

    def var(self, name: str) -> "Polynomial":
        """The variable `name` as a degree-1 polynomial."""
        i = self.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return Polynomial(self, {expo: Fraction(1)})

    def const(self, value: Scalar) -> "Polynomial":
        c = _scalar(value)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * len(self.names): c})

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def __repr__(self) -> str:
        return f"Registry({', '.join(self.names)})"


def _scalar(value: Scalar) -> Fraction:
    """The exact scalar `value` as a Fraction; floats and the like are refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalars must be int or Fraction, not {type(value).__name__}")
    return Fraction(value)


def _grlex_key(expo: tuple[int, ...]) -> tuple:
    return (sum(expo), expo)


class Polynomial:
    """Immutable sparse polynomial: map exponent tuple -> nonzero Fraction."""

    __slots__ = ("registry", "terms")

    def __init__(self, registry: Registry,
                 terms: Mapping[tuple[int, ...], Fraction]):
        if float in map(type, terms.values()):
            raise TypeError("coefficients must be int or Fraction, not float")
        self.registry = registry
        self.terms: dict[tuple[int, ...], Fraction] = {
            e: c for e, c in terms.items() if c != 0
        }

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def variables(self) -> tuple[str, ...]:
        """Names of variables actually occurring, in registry order."""
        seen = [False] * len(self.registry.names)
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    seen[i] = True
        return tuple(n for n, s in zip(self.registry.names, seen) if s)

    def total_degree(self) -> int:
        if self.is_zero():
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if self.is_zero():
            return -1
        i = self.registry.index(name)
        return max(e[i] for e in self.terms)

    def min_degree_in(self, name: str) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no minimal degree")
        i = self.registry.index(name)
        return min(e[i] for e in self.terms)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) under graded lex order."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.registry is not other.registry:
            raise RegistryMismatch("operands use different registries")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(self.registry, terms)

    def __neg__(self):
        return Polynomial(self.registry, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(self.registry, terms)

    __rmul__ = __mul__

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.registry.one
        base = self
        while n > 0:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, r: Scalar) -> "Polynomial":
        r = _scalar(r)
        if r == 0:
            return self.registry.zero
        return Polynomial(self.registry, {e: c * r for e, c in self.terms.items()})

    def _coerce(self, other) -> "Polynomial":
        return other if isinstance(other, Polynomial) else self.registry.const(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.registry.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.registry), frozenset(self.terms.items())))

    # -- structural operations ----------------------------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism replacing variables by polynomials.

        Unassigned variables map to themselves.  All images must share
        this polynomial's registry.
        """
        reg = self.registry
        images: dict[int, Polynomial] = {}
        for name, img in assignment.items():
            if isinstance(img, (int, Fraction)):
                img = reg.const(img)
            if img.registry is not reg:
                raise RegistryMismatch("substitution image uses a different registry")
            images[reg.index(name)] = img
        # cache powers of each image
        powers: dict[int, list[Polynomial]] = {i: [reg.one] for i in images}
        result = reg.zero
        for e, c in self.terms.items():
            term = reg.const(c)
            residual = list(e)
            for i, k in enumerate(e):
                if k and i in images:
                    cache = powers[i]
                    while len(cache) <= k:
                        cache.append(cache[-1] * images[i])
                    term = term * cache[k]
                    residual[i] = 0
            if any(residual):
                term = term * Polynomial(reg, {tuple(residual): Fraction(1)})
            result = result + term
        return result

    def exact_divide(self, g: "Polynomial") -> "Polynomial | None":
        """Quotient q with self = q*g, or None when g does not divide exactly.

        Multivariate long division cancelling leading terms under the
        graded lex order; since the order is multiplicative, division of an
        exact multiple never gets stuck.
        """
        self._check(g)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        reg = self.registry
        ge, gc = g.leading()
        remainder = self
        qterms: dict[tuple[int, ...], Fraction] = {}
        while not remainder.is_zero():
            re, rc = remainder.leading()
            qe = tuple(a - b for a, b in zip(re, ge))
            if any(k < 0 for k in qe):
                return None
            qc = rc / gc
            qterms[qe] = qc
            remainder = remainder - Polynomial(reg, {qe: qc}) * g
        return Polynomial(reg, qterms)

    def coefficient_of(self, name: str, k: int) -> "Polynomial":
        """The coefficient of name**k, as a polynomial not involving name."""
        i = self.registry.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        return Polynomial(self.registry, terms)

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 0 for the zero polynomial."""
        if self.is_zero():
            return Fraction(0)
        from math import gcd
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_normal(self) -> "Polynomial":
        """Divide out rational content and fix the leading sign to +."""
        if self.is_zero():
            return self
        c = self.content()
        _, lead = self.leading()
        if lead < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    def strip_variable_factor(self, name: str) -> "Polynomial":
        """Divide out the largest power of `name` dividing every term."""
        if self.is_zero():
            return self
        k = self.min_degree_in(name)
        if k == 0:
            return self
        i = self.registry.index(name)
        terms = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i] -= k
            terms[tuple(e2)] = c
        return Polynomial(self.registry, terms)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


class Derivation:
    """A k-linear derivation given by its images on variables.

    Variables absent from the image map are sent to 0; the extension to
    the whole ring is by the Leibniz rule.
    """

    __slots__ = ("registry", "images")

    def __init__(self, registry: Registry, images: Mapping[str, Polynomial]):
        for name, img in images.items():
            registry.index(name)
            if img.registry is not registry:
                raise RegistryMismatch("derivation image uses a different registry")
        self.registry = registry
        self.images = dict(images)

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.registry is not self.registry:
            raise RegistryMismatch("derivation applied across registries")
        reg = self.registry
        result = reg.zero
        for e, c in f.terms.items():
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = reg.names[i]
                img = self.images.get(name)
                if img is None or img.is_zero():
                    continue
                e2 = list(e)
                e2[i] -= 1
                partial = Polynomial(reg, {tuple(e2): c * k})
                result = result + partial * img
        return result

    def is_zero(self) -> bool:
        return all(img.is_zero() for img in self.images.values())


# -- text form -----------------------------------------------------------


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_poly(f: Polynomial) -> str:
    """Canonical text form: monomials in descending graded lex order.

    Emits "p/q" rationals, "^" powers and "*" products; round-trips
    through `parse` for normalized polynomials.
    """
    if f.is_zero():
        return "0"
    reg = f.registry
    parts = []
    for e in sorted(f.terms, key=_grlex_key, reverse=True):
        c = f.terms[e]
        factors = []
        for name, k in zip(reg.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        mag = abs(c)
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            coeff = _format_coeff(mag)
            if mag.denominator != 1:
                coeff = f"({coeff})"
            body = f"{coeff}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
