"""The table of explicit constants the verification suites consume.

Every polynomial constant is stored as parseable text so that suites can
be re-run against perturbed tables (mutation robustness).  Composite
objects (the quadric involution, the family quadric) are derived from
the stored generators rather than duplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .actions import GroupLaw, ParametricAction
from .maps import ParamCurve, RationalMap
from .parsing import parse
from .poly import Derivation, Polynomial, Registry
from .sections import Grading, SectionSpace

#: default polynomial constants; keys are stable identifiers
DEFAULT_RAW: dict[str, str] = {
    # weight basis of the 7-dimensional module on P^1 x P^1
    "w_basis.e0": "x1^5*x2",
    "w_basis.e1": "x1^4*y1*x2 + (1/5)*x1^5*y2",
    "w_basis.e2": "x1^3*y1^2*x2 + (1/2)*x1^4*y1*y2",
    "w_basis.e3": "x1^2*y1^3*x2 + x1^3*y1^2*y2",
    "w_basis.e4": "(1/2)*x1*y1^4*x2 + x1^2*y1^3*y2",
    "w_basis.e5": "(1/5)*y1^5*x2 + x1*y1^4*y2",
    "w_basis.e6": "y1^5*y2",
    # solvable group action on the Hirzebruch surface F_3
    "f3_action.x0": "lam*x0",
    "f3_action.x1": "x1 + a*x0",
    "f3_action.y0": "lam*y0",
    "f3_action.y1": "y1 + (a*x1^3 + (3/2)*a^2*x0*x1^2 + a^3*x0^2*x1 + (1/4)*a^4*x0^3)*y0",
    "group_law.a": "a + lam*a2",
    "group_law.lam": "lam*lam2",
    # distinguished curves in |s0 + 4f0|
    "upsilon_p": "4*x0*y1 - x1^4*y0",
    "upsilon_t": "v*x0*y1 + x1^4*y0",
    "upsilon_a": "4*x0*y1 - x1^4*y0 + v*x0^4*y0",
    # parametrizations ([x0:x1] -> second factor)
    "upsilon_p_param.y0": "4*x0",
    "upsilon_p_param.y1": "x1^4",
    "upsilon_t_param.y0": "-v*x0",
    "upsilon_t_param.y1": "x1^4",
    # normalization morphism F_3 -> P^5 and the invariant subspace
    "psi.w0": "x1*y1",
    "psi.w1": "(4/5)*(x0*y1 + x1^4*y0)",
    "psi.w2": "x0*x1^3*y0",
    "psi.w3": "x0^2*x1^2*y0",
    "psi.w4": "x0^3*x1*y0",
    "psi.w5": "x0^4*y0",
    "wprime.0": "x1*y1",
    "wprime.1": "x0*y1 + x1^4*y0",
    "wprime.2": "x0*x1^3*y0",
    "wprime.3": "x0^2*x1^2*y0",
    "wprime.4": "x0^3*x1*y0",
    "wprime.5": "x0^4*y0",
    # ideal of the rational normal quartic in P^4
    "quartic_ideal.f2": "w0*w2 - w1^2",
    "quartic_ideal.f3": "w0*w3 - w1*w2",
    "quartic_ideal.f40": "w0*w4 - w2^2",
    "quartic_ideal.f41": "w1*w3 - w2^2",
    "quartic_ideal.f5": "w1*w4 - w2*w3",
    "quartic_ideal.f6": "w2*w4 - w3^2",
    # quartic curve parametrization and auxiliary maps
    "gamma4.w0": "t1^4",
    "gamma4.w1": "t1^3*t0",
    "gamma4.w2": "t1^2*t0^2",
    "gamma4.w3": "t1*t0^3",
    "gamma4.w4": "t0^4",
    "reversal.w0": "w4",
    "reversal.w1": "w3",
    "reversal.w2": "w2",
    "reversal.w3": "w1",
    "reversal.w4": "w0",
    "alpha.w0": "u0^3",
    "alpha.w1": "u0^2*u1",
    "alpha.w2": "u0*u1^2",
    "alpha.w3": "(1 - c^2)*u1^3",
    "alpha.w4": "0",
    # the P^1 involution alpha intertwines, denominators cleared by (1-c^2)
    "iota_c.u0": "(1 - c^2)*u1",
    "iota_c.u1": "c*u0",
    # reparametrization of the torus family onto the classical parameter
    "mobius.num": "v",
    "mobius.den": "v + 4",
}


def _registry_w() -> Registry:
    return Registry(
        [("x1", "coordinate"), ("y1", "coordinate"),
         ("x2", "coordinate"), ("y2", "coordinate")]
    )


def _registry_f3() -> Registry:
    return Registry(
        [("x0", "coordinate"), ("x1", "coordinate"),
         ("y0", "coordinate"), ("y1", "coordinate"),
         ("w0", "coordinate"), ("w1", "coordinate"), ("w2", "coordinate"),
         ("w3", "coordinate"), ("w4", "coordinate"), ("w5", "coordinate"),
         ("a", "group-parameter"), ("lam", "group-parameter"),
         ("a2", "group-parameter"), ("lam2", "group-parameter"),
         ("v", "family-parameter"),
         ("eps", "infinitesimal")]
    )


def _registry_quadric() -> Registry:
    return Registry(
        [("w0", "coordinate"), ("w1", "coordinate"), ("w2", "coordinate"),
         ("w3", "coordinate"), ("w4", "coordinate"),
         ("c", "family-parameter"),
         ("lam", "group-parameter"), ("lam_inv", "group-parameter"),
         ("t0", "curve-parameter"), ("t1", "curve-parameter"),
         ("u0", "curve-parameter"), ("u1", "curve-parameter"),
         ("eps", "infinitesimal")]
    )


@dataclass
class PaperConstants:
    """All constants, parsed over three fixed registries.

    `raw` may be a perturbed copy of `DEFAULT_RAW`; derived objects are
    rebuilt from it so a single perturbation propagates everywhere.
    """

    raw: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_RAW))

    def __post_init__(self):
        self.reg_w = _registry_w()
        self.reg_f3 = _registry_f3()
        self.reg_q = _registry_quadric()
        self._parsed: dict[tuple[str, int], Polynomial] = {}
        self._o11: SectionSpace | None = None
        self._f3_action: ParametricAction | None = None

    # -- parsing helpers ---------------------------------------------------

    def poly_w(self, key: str) -> Polynomial:
        return self._get(key, self.reg_w)

    def poly_f3(self, key: str) -> Polynomial:
        return self._get(key, self.reg_f3)

    def poly_q(self, key: str) -> Polynomial:
        return self._get(key, self.reg_q)

    def _get(self, key: str, reg: Registry) -> Polynomial:
        cache_key = (key, id(reg))
        if cache_key not in self._parsed:
            self._parsed[cache_key] = parse(self.raw[key], reg)
        return self._parsed[cache_key]

    # -- the seven-dimensional module ---------------------------------------

    def w_basis(self) -> list[Polynomial]:
        return [self.poly_w(f"w_basis.e{i}") for i in range(7)]

    def w_grading(self) -> Grading:
        return Grading(
            self.reg_w,
            {"x1": (1, 0), "y1": (1, 0), "x2": (0, 1), "y2": (0, 1)},
        )

    def w_space(self) -> SectionSpace:
        return SectionSpace(self.reg_w, self.w_basis(), (5, 1), self.w_grading())

    def sl2_raising(self) -> Derivation:
        """E = x1 d/dy1 + x2 d/dy2 (kills the highest-weight vector)."""
        reg = self.reg_w
        return Derivation(reg, {"y1": reg.var("x1"), "y2": reg.var("x2")})

    def sl2_lowering(self) -> Derivation:
        """F = y1 d/dx1 + y2 d/dx2."""
        reg = self.reg_w
        return Derivation(reg, {"x1": reg.var("y1"), "x2": reg.var("y2")})

    def w_torus_derivation(self) -> Derivation:
        reg = self.reg_w
        return Derivation(reg, {"x1": reg.var("x1"), "x2": reg.var("x2")})

    # -- the Hirzebruch surface side -----------------------------------------

    def f3_grading(self) -> Grading:
        return Grading(
            self.reg_f3,
            {"x0": (1, 0), "x1": (1, 0), "y0": (-3, 1), "y1": (0, 1)},
        )

    def f3_action(self) -> ParametricAction:
        """The action on F3, built once per table.

        A build that fails is not kept, so every call on a table whose
        action does not fix the coordinates at the identity raises again.
        """
        if self._f3_action is None:
            self._f3_action = ParametricAction(
                registry=self.reg_f3,
                params=("a", "lam"),
                images={
                    "x0": self.poly_f3("f3_action.x0"),
                    "x1": self.poly_f3("f3_action.x1"),
                    "y0": self.poly_f3("f3_action.y0"),
                    "y1": self.poly_f3("f3_action.y1"),
                },
                factors=(("x0", "x1"), ("y0", "y1")),
                identity={"a": Fraction(0), "lam": Fraction(1)},
            )
        return self._f3_action

    def group_law(self) -> GroupLaw:
        return GroupLaw(
            rule={
                "a": self.poly_f3("group_law.a"),
                "lam": self.poly_f3("group_law.lam"),
            },
            primed={"a": "a2", "lam": "lam2"},
        )

    def wrong_group_law(self) -> GroupLaw:
        """Deliberately wrong composition (a + a', lam * lam')."""
        reg = self.reg_f3
        return GroupLaw(
            rule={"a": reg.var("a") + reg.var("a2"),
                  "lam": reg.var("lam") * reg.var("lam2")},
            primed={"a": "a2", "lam": "lam2"},
        )

    def o11_space(self) -> SectionSpace:
        """H^0(O(1,1)) on F3, built once per table: it reads no constant."""
        if self._o11 is None:
            from .sections import monomial_basis

            basis = monomial_basis(
                self.reg_f3, self.f3_grading(), (1, 1), ["x0", "x1", "y0", "y1"]
            )
            self._o11 = SectionSpace(self.reg_f3, basis, (1, 1), self.f3_grading())
        return self._o11

    def upsilon_p(self) -> Polynomial:
        return self.poly_f3("upsilon_p")

    def upsilon_t(self, value: Fraction | None = None) -> Polynomial:
        f = self.poly_f3("upsilon_t")
        if value is not None:
            f = f.substitute({"v": self.reg_f3.const(value)})
        return f

    def upsilon_a(self, value: Fraction | None = None) -> Polynomial:
        f = self.poly_f3("upsilon_a")
        if value is not None:
            f = f.substitute({"v": self.reg_f3.const(value)})
        return f

    def upsilon_p_parametrization(self) -> dict[str, Polynomial]:
        return {
            "y0": self.poly_f3("upsilon_p_param.y0"),
            "y1": self.poly_f3("upsilon_p_param.y1"),
        }

    def upsilon_t_parametrization(self, value: Fraction | None = None) -> dict[str, Polynomial]:
        sub = {
            "y0": self.poly_f3("upsilon_t_param.y0"),
            "y1": self.poly_f3("upsilon_t_param.y1"),
        }
        if value is not None:
            vconst = self.reg_f3.const(value)
            sub = {k: p.substitute({"v": vconst}) for k, p in sub.items()}
        return sub

    def psi(self) -> RationalMap:
        return RationalMap(
            registry=self.reg_f3,
            source_vars=("x0", "x1", "y0", "y1"),
            target_vars=("w0", "w1", "w2", "w3", "w4", "w5"),
            components=tuple(self.poly_f3(f"psi.w{i}") for i in range(6)),
        )

    def wprime_space(self) -> SectionSpace:
        basis = [self.poly_f3(f"wprime.{i}") for i in range(6)]
        return SectionSpace(self.reg_f3, basis, (1, 1), self.f3_grading())

    # -- the quadric threefold side -------------------------------------------

    def quartic_generators(self) -> list[Polynomial]:
        return [
            self.poly_q(f"quartic_ideal.{k}")
            for k in ("f2", "f3", "f40", "f41", "f5", "f6")
        ]

    def family_quadric(self) -> Polynomial:
        """f_c = c^2 * f40 - f41, the T-stable quadric with c^2 = a/b."""
        c = self.reg_q.var("c")
        return c * c * self.poly_q("quartic_ideal.f40") - self.poly_q("quartic_ideal.f41")

    def quadric_involution(self) -> RationalMap:
        """j_Q = [f2 : c*f3 : c^2*f40 : c*f5 : f6] on the family quadric."""
        c = self.reg_q.var("c")
        comps = (
            self.poly_q("quartic_ideal.f2"),
            c * self.poly_q("quartic_ideal.f3"),
            c * c * self.poly_q("quartic_ideal.f40"),
            c * self.poly_q("quartic_ideal.f5"),
            self.poly_q("quartic_ideal.f6"),
        )
        wvars = ("w0", "w1", "w2", "w3", "w4")
        return RationalMap(self.reg_q, wvars, wvars, comps, self.family_quadric())

    def reversal(self) -> RationalMap:
        wvars = ("w0", "w1", "w2", "w3", "w4")
        comps = tuple(self.poly_q(f"reversal.{w}") for w in wvars)
        return RationalMap(self.reg_q, wvars, wvars, comps, self.family_quadric())

    def gamma4(self) -> ParamCurve:
        return ParamCurve(
            self.reg_q,
            ("t0", "t1"),
            tuple(self.poly_q(f"gamma4.w{i}") for i in range(5)),
        )

    def alpha_curve(self) -> ParamCurve:
        return ParamCurve(
            self.reg_q,
            ("u0", "u1"),
            tuple(self.poly_q(f"alpha.w{i}") for i in range(5)),
        )

    def iota_c(self) -> RationalMap:
        return RationalMap(
            self.reg_q,
            ("u0", "u1"),
            ("u0", "u1"),
            (self.poly_q("iota_c.u0"), self.poly_q("iota_c.u1")),
        )

    def quadric_torus_images(self) -> dict[str, Polynomial]:
        """Torus scaling w_i -> lam^i * w_i induced by the quartic parametrization."""
        reg = self.reg_q
        lam = reg.var("lam")
        return {f"w{i}": (lam ** i) * reg.var(f"w{i}") for i in range(5)}

    def mobius(self) -> tuple[Polynomial, Polynomial]:
        return self.poly_f3("mobius.num"), self.poly_f3("mobius.den")


def mobius_projective(
    num: Polynomial, den: Polynomial, var: str, point: tuple[Fraction, Fraction]
) -> tuple[Fraction, Fraction]:
    """Evaluate the affine fractional map projectively at [p : q].

    Homogenizes num/den to the common degree d in `var`; q = 0 is the
    point at infinity, where the coefficients of var^d are the values.
    The result is (a/b, 1) for a finite image and (1, 0) for the point
    at infinity.
    """
    p, q = Fraction(point[0]), Fraction(point[1])
    if p == 0 and q == 0:
        raise ValueError("not a projective point")
    if q != 0:
        # the common factor q^d of the homogenized values cancels in a/b
        x = {var: num.registry.const(p / q)}
        a, b = num.substitute(x), den.substitute(x)
    else:
        d = max(num.degree_in(var), den.degree_in(var))
        a, b = num.coefficient_of(var, d), den.coefficient_of(var, d)
    a, b = a.constant_value(), b.constant_value()
    if a == 0 and b == 0:
        raise ValueError("map is undefined at the point")
    if b != 0:
        return (a / b, Fraction(1))
    return (Fraction(1), Fraction(0))


# -- mutation support (tampering detection) --------------------------------

#: variable pool available to each constant, keyed by identifier prefix
_MUTATION_POOLS: dict[str, tuple[str, ...]] = {
    "w_basis": ("x1", "y1", "x2", "y2"),
    "f3_action": ("x0", "x1", "y0", "y1", "a", "lam"),
    "group_law": ("a", "lam", "a2", "lam2"),
    "upsilon": ("x0", "x1", "y0", "y1", "v"),
    "psi": ("x0", "x1", "y0", "y1"),
    "wprime": ("x0", "x1", "y0", "y1"),
    "mobius": ("v",),
    "quartic_ideal": ("w0", "w1", "w2", "w3", "w4"),
    "gamma4": ("t0", "t1", "c"),
    "reversal": ("w0", "w1", "w2", "w3", "w4"),
    "alpha": ("u0", "u1", "c"),
    "iota_c": ("u0", "u1", "c"),
}


def _pool_for(key: str) -> tuple[str, ...]:
    for prefix, pool in _MUTATION_POOLS.items():
        if key.startswith(prefix):
            return pool
    raise KeyError(f"no variable pool for constant {key!r}")


def random_mutation(rng, raw: dict[str, str] | None = None) -> tuple[str, dict[str, str]]:
    """Perturb one randomly chosen constant by one random monomial.

    Returns (mutated key, new raw table).  The perturbation draws a
    nonzero rational coefficient and a small random monomial over the
    variables available to that constant.
    """
    base = dict(DEFAULT_RAW if raw is None else raw)
    key = rng.choice(sorted(base))
    pool = _pool_for(key)
    nvars = rng.randint(1, min(3, len(pool)))
    names = rng.sample(sorted(pool), nvars)
    factors = [f"{n}^{rng.randint(1, 4)}" for n in names]
    num = rng.choice([n for n in range(-5, 6) if n != 0])
    den = rng.randint(1, 3)
    sign = "-" if num < 0 else "+"
    base[key] = f"({base[key]}) {sign} {abs(num)}/{den}*" + "*".join(factors)
    return key, base
