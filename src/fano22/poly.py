"""Sparse multivariate polynomials over exact rationals.

A monomial is one `int`, its key: the top field holds the total degree
and below it comes one `FIELD_BITS`-wide field per variable, the
registry's first variable highest.  Integer order on keys is then the
graded lexicographic order with respect to the registry order, the
product of two monomials is the sum of their keys, and m divides n
exactly when n - m is non-negative with no guard bit (the top bit of a
variable field) set.  Total degrees stay below 2**(FIELD_BITS - 1): a
product, power, substitution or derivation that reaches it raises
`OverflowError` instead of carrying into the neighbouring field.

A polynomial stores a dict key -> nonzero integer numerator and one
positive denominator with gcd(denominator, numerators) = 1.  That form
is canonical, so equal polynomials have equal dicts.  Sums, products,
p*q - r*s (`cross`), substitutions and derivations accumulate into one
dict, every term-pair product through `_addmul`; exact division is
heap-ordered long division over the integers (Johnson 1974; Monagan–Pearce
2007).  A zero substitution image drops terms, a one-term image moves keys
and scales numerators; only images of two or more terms are multiplied
out.  `Polynomial.terms` decodes the keys into a fresh read-only map to
`Fraction`s on every call.

A product of at least `PACK_PAIRS` term pairs, with both operands longer
than one term and dense in the last variable (`_fills_slices`), is formed
by `_mul_packed`, a Kronecker substitution in the last variable
(Kronecker 1882; Fateman 2005).

`_pack_matrix` packs a matrix of integral polynomials into `int`s by
Kronecker substitution in every occurring variable, so that `linalg`
reduces polynomial and constant matrices in one integer loop; each
distinct monomial's shift is computed once per matrix.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]

#: variable role tags
ROLES = ("coordinate", "group-parameter", "family-parameter", "curve-parameter")

#: bits per exponent field of a monomial key
FIELD_BITS = 16
_MASK = (1 << FIELD_BITS) - 1

#: term pairs (45 x 45) from which a product packs the last variable into
#: big integers.  Packing wins on dense operands from a few hundred pairs,
#: and loses 1.2-3x on operands with about one term per slice, and far
#: more on sparse slices (`_fills_slices`); every product the paper's
#: suites make has fewer than 500 pairs.
PACK_PAIRS = 2025
#: a packed operand fills at least 1 / PACK_DENSITY of its slices' digits
PACK_DENSITY = 4


class RegistryMismatch(ValueError):
    """Two operands live over different variable registries."""


class _Index(dict):
    """Variable name -> position; an unknown name raises KeyError naming it."""

    def __missing__(self, name):
        raise KeyError(f"unknown variable {name!r}")


class Registry:
    """An ordered, immutable list of named variables with role tags.

    The order is fixed for the registry's lifetime and determines the
    graded-lexicographic monomial order used everywhere downstream, and
    the layout of monomial keys.  Every variable but the group and family
    parameters, curve parameters included, is a coordinate.
    """

    __slots__ = ("names", "roles", "_index", "_shifts", "_units", "_top",
                 "_limit", "_guard", "_parameters", "_coordinates")

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
        self._index = _Index((n, i) for i, n in enumerate(names))
        n = len(names)
        #: bit offset of the total-degree field
        self._top = n * FIELD_BITS
        #: bit offset of each variable's field
        self._shifts = tuple((n - 1 - i) * FIELD_BITS for i in range(n))
        #: key of each variable
        self._units = tuple((1 << s) + (1 << self._top) for s in self._shifts)
        #: smallest key of total degree 2**(FIELD_BITS - 1)
        self._limit = 1 << (self._top + FIELD_BITS - 1)
        self._guard = sum(1 << (s + FIELD_BITS - 1) for s in self._shifts)
        #: the fields of the parameters (group and family) and of the coordinates
        self._parameters = sum(_MASK << s for r, s in zip(roles, self._shifts)
                               if r in ("group-parameter", "family-parameter"))
        self._coordinates = sum(_MASK << s for s in self._shifts) - self._parameters

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def role(self, name: str) -> str:
        return self.roles[self.index(name)]

    def var(self, name: str) -> "Polynomial":
        """The variable `name` as a degree-1 polynomial."""
        return _make(self, {self._units[self.index(name)]: 1}, 1)

    def const(self, value: Scalar) -> "Polynomial":
        c = _scalar(value)
        return _make(self, {0: c.numerator} if c else {}, c.denominator)

    @property
    def zero(self) -> "Polynomial":
        return _make(self, {}, 1)

    @property
    def one(self) -> "Polynomial":
        return _make(self, {0: 1}, 1)

    def _key(self, expo: Sequence[int]) -> int:
        """The key of an exponent tuple."""
        if len(expo) != len(self.names) or (expo and min(expo) < 0):
            raise ValueError(f"exponent {tuple(expo)!r} does not fit {self!r}")
        key = sum(map(mul, expo, self._units))
        if key >= self._limit:
            raise OverflowError(f"total degree of {tuple(expo)!r} reaches 2**{FIELD_BITS - 1}")
        return key

    def _expo(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key."""
        return tuple([(key >> s) & _MASK for s in self._shifts])

    def __repr__(self) -> str:
        return f"Registry({', '.join(self.names)})"


def _scalar(value: Scalar) -> Fraction:
    """The exact scalar `value` as a Fraction; floats and the like are refused."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"scalars must be int or Fraction, not {type(value).__name__}")
    return Fraction(value)


def _overflow(reg: Registry) -> OverflowError:
    return OverflowError(f"total degree reaches 2**{FIELD_BITS - 1} over {reg!r}")


class Polynomial:
    """Immutable sparse polynomial over the rationals.

    Built from a map exponent tuple -> int or Fraction; read back through
    the `terms` map.
    """

    __slots__ = ("registry", "_terms", "_den")

    def __init__(self, registry: Registry,
                 terms: Mapping[tuple[int, ...], Scalar]):
        values = terms.values()
        if float in map(type, values):
            raise TypeError("coefficients must be int or Fraction, not float")
        try:
            den = lcm(*[c.denominator for c in values])
            nums = {registry._key(e): c.numerator * (den // c.denominator)
                    for e, c in terms.items() if c}
        except AttributeError:
            raise TypeError("coefficients must be int or Fraction") from None
        self.registry = registry
        # reduced fractions over the lcm of their denominators are canonical
        self._terms: dict[int, int] = nums
        self._den: int = den if nums else 1

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map: exponent tuple -> nonzero Fraction coefficient."""
        expo, den = self.registry._expo, self._den
        return MappingProxyType({expo(k): Fraction(v, den) for k, v in self._terms.items()})

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        t = self._terms
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._terms.get(0, 0), self._den)

    def variables(self) -> tuple[str, ...]:
        """Names of variables actually occurring, in registry order."""
        seen = 0
        for k in self._terms:
            seen |= k
        reg = self.registry
        return tuple(n for n, s in zip(reg.names, reg._shifts) if (seen >> s) & _MASK)

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(self._terms) >> self.registry._top

    def degree_in(self, name: str) -> int:
        if not self._terms:
            return -1
        s = self.registry._shifts[self.registry.index(name)]
        return max((k >> s) & _MASK for k in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.registry is not other.registry:
            raise RegistryMismatch("operands use different registries")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return _add(self, other, 1)

    def __neg__(self):
        return _make(self.registry, {k: -v for k, v in self._terms.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return _add(self, other, -1)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        reg = self.registry
        a, b = self._terms, other._terms
        if not a or not b:
            return reg.zero
        if max(a) + max(b) >= reg._limit:
            raise _overflow(reg)
        return _canon(reg, _mul_terms(reg, a, b), self._den * other._den)

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
        n = r.numerator
        return _canon(self.registry, {k: v * n for k, v in self._terms.items()},
                      self._den * r.denominator)

    def _coerce(self, other) -> "Polynomial":
        return other if isinstance(other, Polynomial) else self.registry.const(other)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self._den == other.denominator and self._terms == ({0: n} if n else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.registry is other.registry and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((frozenset(self._terms.items()), self._den))

    # -- structural operations ----------------------------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism replacing variables by polynomials, all at once.

        Unassigned variables map to themselves.  All images must share
        this polynomial's registry.  A zero image drops the terms that
        involve its variable.  An image of one term (a constant or a
        scalar times a monomial) maps each term to one term: its key
        moves by e * (image key - variable key), and its numerator is
        multiplied by the image numerator to the e, unless that is 1.
        Only images of two or more terms take part in products: terms are
        grouped by their exponents in those variables, each group's
        product of image powers is formed once, and `_addmul` accumulates
        its members, after the one-term images, against it into one dict.
        When no image has two or more terms, one loop moves each term and
        accumulates it at once.  Every image exponent is read from the
        original key, so the images never see one another.

        The output's total degree is at most deg(self) * max(1, largest image
        degree); only when that bound reaches 2**(FIELD_BITS - 1) are products
        and output checked against the limit, so a true output below it never raises.
        """
        reg = self.registry
        t = self._terms
        seen = 0
        for k in t:
            seen |= k
        # per occurring variable with an image of two or more terms:
        # (shift, key of the variable, image numerators, image denominator, top);
        # with one term: (shift, image key - variable key, numerator, denominator, top);
        # with none, its field in `kill`.  top, the highest exponent, is needed
        # (and computed) only when the denominator is not 1.
        multi, single = [], []
        kill = multi_mask = 0
        degree = 1  # max(1, the largest image degree)
        den = self._den
        shifts, units, top_bit = reg._shifts, reg._units, reg._top
        for name, img in assignment.items():
            if not isinstance(img, Polynomial):
                img = reg.const(img)
            elif img.registry is not reg:
                raise RegistryMismatch("substitution image uses a different registry")
            i = reg._index[name]
            s = shifts[i]
            if not (seen >> s) & _MASK:
                continue
            it, d = img._terms, img._den
            if not it:
                kill |= _MASK << s
                continue
            top = 0
            if d != 1:
                top = max((k >> s) & _MASK for k in t)
                den *= d ** top
            if len(it) > 1:
                ik = max(it)
                multi.append((s, units[i], it, d, top))
                multi_mask |= _MASK << s
            else:
                ((ik, n),) = it.items()
                single.append((s, ik - units[i], n, d, top))
            if ik >> top_bit > degree:
                degree = ik >> top_bit
        if not (multi or single or kill):
            return self
        limit = reg._limit
        checked = degree > 1 and (max(t) >> top_bit) * degree >= 1 << (FIELD_BITS - 1)
        acc: dict[int, int] = {}
        get = acc.get
        # each term after the one-term images; without multi-term images it is
        # accumulated at once, else kept in its group for the products below
        groups: dict[int, list[tuple[int, int]]] = {}
        for k, c in t.items():
            if k & kill:
                continue
            rest = k
            for s, delta, n, d, top in single:
                e = (k >> s) & _MASK
                if e:
                    rest += e * delta
                    if n != 1:
                        c *= n ** e
                if d != 1:
                    c *= d ** (top - e)
            if multi:
                groups.setdefault(k & multi_mask, []).append((rest, c))
            else:
                acc[rest] = get(rest, 0) + c
        if multi:
            # powers[j][e]: numerators of multi-term image j to the power e, over d_j**e
            powers = [[{0: 1}, it] for _, _, it, _, _ in multi]
            for part, members in groups.items():
                product = None
                scale = 1
                mono = 0
                for (s, unit, it, d, top), cache in zip(multi, powers):
                    e = (part >> s) & _MASK
                    if d != 1:
                        scale *= d ** (top - e)
                    if not e:
                        continue
                    mono += e * unit
                    while len(cache) <= e:
                        prev = cache[-1]
                        if checked and max(prev) + max(it) >= limit:
                            raise _overflow(reg)
                        cache.append(_mul_terms(reg, prev, it))
                    power = cache[e]
                    if product is None:
                        product = power
                        continue
                    if checked and max(product) + max(power) >= limit:
                        raise _overflow(reg)
                    product = _mul_terms(reg, product, power)
                # the members' keys still hold the group monomial, the product's lose it
                _addmul(acc, members, [(0, scale)] if product is None
                        else [(pk - mono, pv * scale) for pk, pv in product.items()])
        # a key of total degree 2**(FIELD_BITS - 1) or more is at least the
        # limit whatever its fields carried, so one look at the largest suffices
        if checked and acc and max(acc) >= limit:
            raise _overflow(reg)
        return _canon(reg, _nonzero(acc), den)

    def exact_divide(self, g: "Polynomial") -> "Polynomial | None":
        """Quotient q with self = q*g, or None when g does not divide exactly.

        Multivariate long division cancelling leading terms under the
        graded lex order; since the order is multiplicative, division of an
        exact multiple never gets stuck.  The remainder is a dict with a
        max-heap of its keys, and each step subtracts only the non-leading
        terms of g.  It runs over the integers: g is made primitive, and
        by Gauss's lemma the quotient of an integral polynomial by a
        primitive one is integral, so a quotient coefficient that is not
        an integer already shows that g does not divide.
        """
        self._check(g)
        gt = g._terms
        if not gt:
            raise ZeroDivisionError("division by the zero polynomial")
        reg = self.registry
        content = gcd(*gt.values())
        glead = max(gt)
        h = gt[glead] // content
        rest = [(k, v // content) for k, v in gt.items() if k != glead]
        guard = reg._guard
        remainder = dict(self._terms)
        get = remainder.get
        heap = [-k for k in remainder]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        quotient: dict[int, int] = {}
        while heap:
            key = -pop(heap)
            c = remainder.pop(key, 0)
            if not c:
                continue
            qk = key - glead
            if qk < 0 or qk & guard:
                return None
            q, r = divmod(c, h)
            if r:
                return None
            quotient[qk] = q
            for k, v in rest:
                nk = qk + k
                old = get(nk)
                if old is None:
                    remainder[nk] = -q * v
                    push(heap, -nk)
                elif old == q * v:
                    del remainder[nk]
                else:
                    remainder[nk] = old - q * v
        # self / g = quotient * g._den / (self._den * content)
        dg = g._den
        return _canon(reg, {k: v * dg for k, v in quotient.items()}, self._den * content)

    def coefficient_of(self, name: str, k: int) -> "Polynomial":
        """The coefficient of name**k, as a polynomial not involving name."""
        reg = self.registry
        i = reg._index[name]
        s, drop = reg._shifts[i], k * reg._units[i]
        terms = {key - drop: v for key, v in self._terms.items() if (key >> s) & _MASK == k}
        return _canon(reg, terms, self._den)

    def primitive_normal(self) -> "Polynomial":
        """Divide out rational content and fix the leading sign to +."""
        t = self._terms
        if not t:
            return self
        c = gcd(*t.values())
        if t[max(t)] < 0:
            c = -c
        return _make(self.registry, {k: v // c for k, v in t.items()}, 1)

    def strip_variable_factor(self, name: str) -> "Polynomial":
        """Divide out the largest power of `name` dividing every term."""
        if not self._terms:
            return self
        i = self.registry.index(name)
        s = self.registry._shifts[i]
        k = min((key >> s) & _MASK for key in self._terms)
        if k == 0:
            return self
        drop = k * self.registry._units[i]
        return _make(self.registry, {key - drop: v for key, v in self._terms.items()},
                     self._den)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


_new = object.__new__


def _make(reg: Registry, terms: dict[int, int], den: int) -> Polynomial:
    """A polynomial from numerators and a denominator already in canonical form."""
    p = _new(Polynomial)
    p.registry = reg
    p._terms = terms
    p._den = den
    return p


def _canon(reg: Registry, terms: dict[int, int], den: int) -> Polynomial:
    """A polynomial from nonzero numerators over a positive denominator."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
    return _make(reg, terms, den)


def _mul_terms(reg: Registry, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two nonzero numerator dicts over `reg`.

    `Polynomial.__mul__` (and so `__pow__`), `substitute` and `cross`
    multiply here, each after its degree check or bound, so no product key
    reaches the limit.  A single-term operand shifts the other's keys.
    From `PACK_PAIRS` term pairs on, when both operands fill their slices
    (`_fills_slices`), `_mul_packed` multiplies by Kronecker substitution
    in the last variable; otherwise `_addmul` accumulates every term pair
    into one dict.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ka, ca),) = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    if len(a) * len(b) >= PACK_PAIRS:
        unit = reg._units[-1]
        if _fills_slices(unit, a) and _fills_slices(unit, b):
            return _mul_packed(unit, a, b)
    return _nonzero(_addmul({}, a.items(), list(b.items())))


def _addmul(acc: dict[int, int], a: Iterable[tuple[int, int]],
            b: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Add into acc the product of every (key, numerator) pair of a with every pair of b.

    Keys add and numerators multiply, in one pass (Monagan–Pearce 2007); b must
    be re-iterable.  Returns acc, with cancelled numerators left as 0 (`_nonzero`).
    """
    get = acc.get
    for ka, ca in a:
        for kb, cb in b:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _nonzero(acc: dict[int, int]) -> dict[int, int]:
    """acc without its zero numerators, copied only when one occurs."""
    return {k: v for k, v in acc.items() if v} if 0 in acc.values() else acc


def _fills_slices(unit: int, terms: dict[int, int]) -> bool:
    """Whether the terms fill at least 1 / PACK_DENSITY of the digits `_pack` makes.

    `_pack` makes one int per slice, of 1 + e digits, where e is the
    largest exponent of the last variable (key `unit`), so the terms fill
    len(terms) of slices * (1 + e) digits.  The big-int products cost
    with the digits, the dict loop with the terms, so a sparse operand
    makes packing slower: two 46-term operands in x, y, z, w with
    w-exponents from {0, 1, 16000} fill under 0.001 and took 0.44 s packed
    against 0.5 ms in the dict loop, and random 60-term operands with
    exponents up to 6 fill 0.16 and took 3x the dict loop (2-vCPU VM,
    Python 3.11).  A polynomial with every monomial of total degree <= d
    in n variables fills (d + n) / (n * (d + 1)) > 1/n, so dense operands
    in up to four variables still pack (the benchmark's 210-term operands
    fill 0.36).
    """
    top = 0
    slices = set()
    for k in terms:
        e = k & _MASK
        if e > top:
            top = e
        slices.add(k - e * unit)
    return PACK_DENSITY * len(terms) >= len(slices) * (1 + top)


def _mul_packed(unit: int, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two numerator dicts by Kronecker substitution in the last variable.

    `unit` is the key of the last variable.  Each operand becomes a dict
    slice key -> one int: a slice key is a term's key less e * unit,
    where e is the term's exponent in the last variable, and the slice
    holds sum c * 2**(width * e) over its terms.  The slices are
    multiplied pairwise by CPython's big-int product and accumulated by
    slice-key sum, and each sum is read back as signed width-bit digits.
    Slices accumulate, so `width` bounds a whole output coefficient: no
    more than min(len(a), len(b)) term pairs meet in one monomial, each
    at most max|a| * max|b| in absolute value.
    """
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    width = bound.bit_length() + 2
    acc = _addmul({}, _pack(unit, width, a).items(), list(_pack(unit, width, b).items()))
    out: dict[int, int] = {}
    for key, v in acc.items():
        for e, d in _signed_digits(v, width):
            out[key + e * unit] = d
    return out


def _signed_digits(v: int, width: int) -> Iterator[tuple[int, int]]:
    """The nonzero digits of v in base 2**width, lowest first, as (position, digit).

    Digits are signed, in [-2**(width - 1), 2**(width - 1)), so every
    sum of d * 2**(width * position) with such digits is read back
    exactly.  A run of zero digits is jumped at once: a gap in the
    exponents must not cost one big shift per digit.
    """
    full = 1 << width
    half, low = full >> 1, full - 1
    pos = 0
    while v:
        d = v & low
        if not d:
            z = ((v & -v).bit_length() - 1) // width
            v >>= z * width
            pos += z
            continue
        v >>= width
        if d >= half:
            d -= full
            v += 1
        yield pos, d
        pos += 1


def _pack(unit: int, width: int, terms: dict[int, int]) -> dict[int, int]:
    """Slices of `terms` for `_mul_packed`: slice key -> sum c * 2**(width * e)."""
    slices: dict[int, int] = {}
    get = slices.get
    for k, c in terms.items():
        e = k & _MASK
        s = k - e * unit
        slices[s] = get(s, 0) + (c << width * e)
    return slices


def _pack_matrix(reg: Registry, nums: Sequence[list], seen: int
                 ) -> tuple[list[list[int]], Callable[[int], dict[int, int]]]:
    """Each entry of an integral matrix as one int, and the way back.

    `nums` holds the rows and `seen` is the bitwise or of every entry's
    keys.  When it is 0 the entries are ints already, the numerators of
    constants, and only the list of rows is copied.  Otherwise each
    entry is an integral numerator dict, and every occurring variable x
    maps to 2**(width * weight_x), a ring homomorphism from the integral
    polynomials to the integers (Kronecker substitution).  The weights
    are mixed-radix places: the radix of x is 1 + the sum over rows of
    the row's largest degree in x, and width = bit_length(B) + 2, B the
    product over rows of max(1, row 1-norm).  Every minor of the matrix
    has degree in x below its radix (it takes one entry per row) and
    coefficients at most B in absolute value (its 1-norm is at most the
    product of the row 1-norms), so the map is injective on minors and
    `unpack`, which reads the signed width-bit digits of a minor's image,
    returns the minor's numerator dict.  Each distinct monomial's image
    exponent, its shift, is computed once per call.  Raises
    OverflowError when a minor's total degree could reach
    2**(FIELD_BITS - 1).
    """
    if not seen:
        return list(nums), _unpack_constant
    fields = [(s, u) for s, u in zip(reg._shifts, reg._units) if (seen >> s) & _MASK]
    bound = 1
    radices = [1] * len(fields)
    total = 0
    monomials: set[int] = set()
    for row in nums:
        bound *= max(1, sum(sum(map(abs, t.values())) for t in row))
        keys = [k for t in row for k in t]
        if keys:
            monomials.update(keys)
            total += max(keys) >> reg._top
            for i, (s, _) in enumerate(fields):
                radices[i] += max((k >> s) & _MASK for k in keys)
    if total >= 1 << (FIELD_BITS - 1):
        raise _overflow(reg)
    width = bound.bit_length() + 2
    places = []
    weight = 1
    for (s, _), radix in zip(fields, radices):
        places.append((s, width * weight))
        weight *= radix
    shift = {k: sum(((k >> s) & _MASK) * w for s, w in places) for k in monomials}
    packed = [[sum([v << shift[k] for k, v in t.items()]) for t in row] for row in nums]
    steps = [(u, radix) for (_, u), radix in zip(fields, radices)]

    def unpack(v: int) -> dict[int, int]:
        out = {}
        for pos, d in _signed_digits(v, width):
            key = 0
            for unit, radix in steps:
                pos, e = divmod(pos, radix)
                key += e * unit
            out[key] = d
        return out

    return packed, unpack


def _unpack_constant(v: int) -> dict[int, int]:
    return {0: v} if v else {}


def _add(f: Polynomial, g: Polynomial, sign: int) -> Polynomial:
    """f + sign*g, accumulated into a copy of the longer operand."""
    df, dg = f._den, g._den
    den = df if df == dg else lcm(df, dg)
    mf, mg = den // df, sign * (den // dg)
    big, mb, small, ms = f._terms, mf, g._terms, mg
    if len(small) > len(big):
        big, mb, small, ms = small, mg, big, mf
    acc = dict(big) if mb == 1 else {k: v * mb for k, v in big.items()}
    get = acc.get
    for k, v in small.items():
        s = get(k, 0) + v * ms
        if s:
            acc[k] = s
        else:
            del acc[k]
    return _canon(f.registry, acc, den)


def cross(p: Polynomial, q: Polynomial, r: Polynomial, s: Polynomial) -> Polynomial:
    """p*q - r*s, both products accumulated by `_addmul` into one dict over a common denominator.

    Raises `RegistryMismatch` and `OverflowError` exactly when p*q - r*s would.  A
    product of at least `PACK_PAIRS` term pairs is formed by `_mul_terms`, which may pack it.
    """
    for f, g in ((p, q), (r, s)):
        f._check(g)
        if f._terms and g._terms and max(f._terms) + max(g._terms) >= f.registry._limit:
            raise _overflow(f.registry)
    p._check(r)
    dpq, drs = p._den * q._den, r._den * s._den
    den = dpq if dpq == drs else lcm(dpq, drs)
    acc: dict[int, int] = {}
    for a, b, m in ((p._terms, q._terms, den // dpq), (r._terms, s._terms, -(den // drs))):
        if len(a) > len(b):
            a, b = b, a
        if not a:
            continue
        if len(a) * len(b) >= PACK_PAIRS:
            a, b = {0: 1}, _mul_terms(p.registry, a, b)
        _addmul(acc, a.items(),
                [(kb, cb * m) for kb, cb in b.items()] if m != 1 else list(b.items()))
    return _canon(p.registry, _nonzero(acc), den)


def poly_sum(registry: Registry, polys: Iterable[Polynomial | Scalar]) -> Polynomial:
    """The sum of `polys` (or scalars), accumulated into one dict over a common denominator."""
    polys = [p if isinstance(p, Polynomial) else registry.const(p) for p in polys]
    for p in polys:
        if p.registry is not registry:
            raise RegistryMismatch("summands use different registries")
    den = lcm(*[p._den for p in polys])
    acc: dict[int, int] = {}
    get = acc.get
    for p in polys:
        m = den // p._den
        for k, v in p._terms.items():
            acc[k] = get(k, 0) + v * m
    return _canon(registry, _nonzero(acc), den)


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
        """sum over variables x of D(x) * df/dx: one `_addmul` per x into one dict."""
        if f.registry is not self.registry:
            raise RegistryMismatch("derivation applied across registries")
        reg = self.registry
        t = f._terms
        active = [(name, img) for name, img in self.images.items() if img._terms]
        if not t or not active:
            return reg.zero
        den = lcm(*[img._den for _, img in active])
        acc: dict[int, int] = {}
        for name, img in active:
            i = reg._index[name]
            s, unit = reg._shifts[i], reg._units[i]
            # df/dx lowers the total degree by one
            if max(t) + max(img._terms) - (1 << reg._top) >= reg._limit:
                raise _overflow(reg)
            m = den // img._den
            partial = [(key - unit, c * e) for key, c in t.items() if (e := (key >> s) & _MASK)]
            _addmul(acc, partial, [(k, v * m) for k, v in img._terms.items()])
        return _canon(reg, _nonzero(acc), f._den * den)


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
    for key in sorted(f._terms, reverse=True):
        c = Fraction(f._terms[key], f._den)
        factors = []
        for name, k in zip(reg.names, reg._expo(key)):
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
