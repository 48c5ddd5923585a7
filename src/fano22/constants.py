"""The table of explicit constants the verification suites consume.

Every polynomial constant is stored as parseable text so that suites can
be re-run against perturbed tables (mutation robustness).  Composite
objects (the quadric involution, the family quadric) are derived from
the stored generators rather than duplicated.

Everything built from a table goes through one memo, `_derived`: a key's
parse, the table's derived objects and the suites' set-up values.  Each
build is kept per table with the keys it read, and also per process when
every one of those keys has the paper's text; a later table takes the
shared result only after re-reading those keys through its own `raw`.
Every call records the keys into the reads of the running step (a
build, or a suite run), so a recording `raw` still sees every read and a
mutant of one key rebuilds exactly what read that key.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .actions import GroupLaw, ParametricAction
from .maps import ParamCurve, RationalMap
from .parsing import parse
from .poly import Derivation, Polynomial, Registry
from .sections import Grading, SectionSpace, monomial_basis

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


#: the three fixed registries: P^1 x P^1 of the seven-dimensional module,
#: the Hirzebruch surface F_3 with P^5, and P^4 with its curve parameters
REG_W = Registry(
    [("x1", "coordinate"), ("y1", "coordinate"),
     ("x2", "coordinate"), ("y2", "coordinate")]
)
REG_F3 = Registry(
    [("x0", "coordinate"), ("x1", "coordinate"),
     ("y0", "coordinate"), ("y1", "coordinate"),
     ("w0", "coordinate"), ("w1", "coordinate"), ("w2", "coordinate"),
     ("w3", "coordinate"), ("w4", "coordinate"), ("w5", "coordinate"),
     ("a", "group-parameter"), ("lam", "group-parameter"),
     ("a2", "group-parameter"), ("lam2", "group-parameter"),
     ("v", "family-parameter")]
)
REG_Q = Registry(
    [("w0", "coordinate"), ("w1", "coordinate"), ("w2", "coordinate"),
     ("w3", "coordinate"), ("w4", "coordinate"),
     ("c", "family-parameter"),
     ("lam", "group-parameter"),
     ("t0", "curve-parameter"), ("t1", "curve-parameter"),
     ("u0", "curve-parameter"), ("u1", "curve-parameter")]
)

W_GRADING = Grading(REG_W, {"x1": (1, 0), "y1": (1, 0), "x2": (0, 1), "y2": (0, 1)})
F3_GRADING = Grading(REG_F3, {"x0": (1, 0), "x1": (1, 0), "y0": (-3, 1), "y1": (0, 1)})

#: the sl2 raising operator E = x1 d/dy1 + x2 d/dy2 (kills the highest-weight vector)
SL2_RAISING = Derivation(REG_W, {"y1": REG_W.var("x1"), "y2": REG_W.var("x2")})
#: the sl2 lowering operator F = y1 d/dx1 + y2 d/dx2
SL2_LOWERING = Derivation(REG_W, {"x1": REG_W.var("y1"), "x2": REG_W.var("y2")})
#: the torus derivation x1 d/dx1 + x2 d/dx2 of the seven-dimensional module
W_TORUS = Derivation(REG_W, {"x1": REG_W.var("x1"), "x2": REG_W.var("x2")})
#: a deliberately wrong composition (a + a', lam * lam') of the group on F_3
WRONG_GROUP_LAW = GroupLaw(
    rule={"a": REG_F3.var("a") + REG_F3.var("a2"),
          "lam": REG_F3.var("lam") * REG_F3.var("lam2")},
    primed={"a": "a2", "lam": "lam2"},
)

#: key prefix -> (registry the constant parses over, variables a random
#: mutation may add to it); the first prefix that a key starts with wins
KEY_FAMILIES: dict[str, tuple[Registry, tuple[str, ...]]] = {
    "w_basis": (REG_W, ("x1", "y1", "x2", "y2")),
    "f3_action": (REG_F3, ("x0", "x1", "y0", "y1", "a", "lam")),
    "group_law": (REG_F3, ("a", "lam", "a2", "lam2")),
    "upsilon": (REG_F3, ("x0", "x1", "y0", "y1", "v")),
    "psi": (REG_F3, ("x0", "x1", "y0", "y1")),
    "wprime": (REG_F3, ("x0", "x1", "y0", "y1")),
    "mobius": (REG_F3, ("v",)),
    "quartic_ideal": (REG_Q, ("w0", "w1", "w2", "w3", "w4")),
    "gamma4": (REG_Q, ("t0", "t1", "c")),
    "reversal": (REG_Q, ("w0", "w1", "w2", "w3", "w4")),
    "alpha": (REG_Q, ("u0", "u1", "c")),
    "iota_c": (REG_Q, ("u0", "u1", "c")),
}


def _family(key: str) -> tuple[Registry, tuple[str, ...]]:
    for prefix, family in KEY_FAMILIES.items():
        if key.startswith(prefix):
            return family
    raise KeyError(f"no variable pool for constant {key!r}")


#: (builder, *args) -> (the object built from the paper's text, the keys it read)
_shared: dict[object, tuple[object, dict[str, None]]] = {}


def _derived(build):
    """Keep `build(table, *args)` with the keys it read; a raise is not kept.

    `build` is a method of `PaperConstants` or a suite's set-up value in
    `suites`, whose result no caller mutates.  Both memos are keyed by
    (build, *args).  Every call records the keys into the caller's reads.
    """

    @functools.wraps(build)
    def method(self, *args):
        task = (build, *args)
        kept = self._built.get(task)
        if kept is None:
            kept = _shared.get(task)
            if kept is None or not self._keeps_paper_text(kept[1]):
                kept = self._reading(lambda: build(self, *args))
                if task not in _shared and self._keeps_paper_text(kept[1]):
                    _shared[task] = kept
            self._built[task] = kept
        self._reads.update(kept[1])
        return kept[0]

    return method


def _at_v(p: Polynomial, value: Fraction | None) -> Polynomial:
    """p with the family parameter v set to `value`, or p itself for None."""
    return p if value is None else p.substitute({"v": REG_F3.const(value)})


class PaperConstants:
    """All constants of one table, each parsed over its key family's registry.

    `raw` is a copy of `DEFAULT_RAW` by default; a given `raw`, such as a
    perturbed copy, is kept itself.  The `_derived` methods, a key's parse
    (`poly`) among them, are kept per table and per process by the keys
    they read, so a single perturbation propagates everywhere.  Objects
    that read no constant are module constants: the registries (also
    readable as `reg_w`, `reg_f3`, `reg_q`), the gradings, the sl2 and
    torus derivations and the wrong group law.
    """

    __slots__ = ("raw", "_built", "_reads")

    reg_w = REG_W
    reg_f3 = REG_F3
    reg_q = REG_Q

    def __init__(self, raw: dict[str, str] | None = None):
        self.raw = dict(DEFAULT_RAW) if raw is None else raw
        self.__post_init__()

    def __post_init__(self):
        # (builder, *args) -> (object, keys it read), as in `_shared`
        self._built: dict[object, tuple[object, dict[str, None]]] = {}
        # the keys read by the running step, in order of first read
        self._reads: dict[str, None] = {}

    @_derived
    def poly(self, key: str) -> Polynomial:
        """The constant `key`, parsed over the registry of its key family."""
        self._reads[key] = None
        return parse(self.raw[key], _family(key)[0])

    def _reading(self, step) -> tuple[object, dict[str, None]]:
        """(step(), the keys it read), recorded into the caller's reads too, even on a raise."""
        outer = self._reads
        self._reads = {}
        try:
            return step(), self._reads
        finally:
            outer.update(self._reads)
            self._reads = outer

    def _keeps_paper_text(self, keys) -> bool:
        """Whether each key, read through `raw` in order up to the first that differs, has
        the paper's text; a key missing from `raw` is a difference."""
        try:
            return all(self.raw[key] == DEFAULT_RAW.get(key) for key in keys)
        except KeyError:
            return False

    # -- the seven-dimensional module ---------------------------------------

    def w_basis(self) -> list[Polynomial]:
        return [self.poly(f"w_basis.e{i}") for i in range(7)]

    @_derived
    def w_space(self) -> SectionSpace:
        return SectionSpace(REG_W, self.w_basis(), (5, 1), W_GRADING)

    # -- the Hirzebruch surface side -----------------------------------------

    @_derived
    def f3_action(self) -> ParametricAction:
        """The action on F3; every call raises again if its build fails."""
        return ParametricAction(
            registry=REG_F3,
            params=("a", "lam"),
            images={n: self.poly(f"f3_action.{n}") for n in ("x0", "x1", "y0", "y1")},
            factors=(("x0", "x1"), ("y0", "y1")),
            identity={"a": Fraction(0), "lam": Fraction(1)},
        )

    @_derived
    def group_law(self) -> GroupLaw:
        return GroupLaw(
            rule={"a": self.poly("group_law.a"), "lam": self.poly("group_law.lam")},
            primed={"a": "a2", "lam": "lam2"},
        )

    @_derived
    def o11_space(self) -> SectionSpace:
        """H^0(O(1,1)) on F3, shared by every table: it reads no constant."""
        basis = monomial_basis(REG_F3, F3_GRADING, (1, 1), ["x0", "x1", "y0", "y1"])
        return SectionSpace(REG_F3, basis, (1, 1), F3_GRADING)

    def upsilon_p(self) -> Polynomial:
        return self.poly("upsilon_p")

    def upsilon_t(self, value: Fraction | None = None) -> Polynomial:
        return _at_v(self.poly("upsilon_t"), value)

    def upsilon_a(self, value: Fraction | None = None) -> Polynomial:
        return _at_v(self.poly("upsilon_a"), value)

    def upsilon_p_parametrization(self) -> dict[str, Polynomial]:
        return {n: self.poly(f"upsilon_p_param.{n}") for n in ("y0", "y1")}

    def upsilon_t_parametrization(self, value: Fraction | None = None) -> dict[str, Polynomial]:
        return {n: _at_v(self.poly(f"upsilon_t_param.{n}"), value) for n in ("y0", "y1")}

    @_derived
    def psi(self) -> RationalMap:
        return RationalMap(
            registry=REG_F3,
            source_vars=("x0", "x1", "y0", "y1"),
            target_vars=("w0", "w1", "w2", "w3", "w4", "w5"),
            components=tuple(self.poly(f"psi.w{i}") for i in range(6)),
        )

    @_derived
    def wprime_space(self) -> SectionSpace:
        basis = [self.poly(f"wprime.{i}") for i in range(6)]
        return SectionSpace(REG_F3, basis, (1, 1), F3_GRADING)

    # -- the quadric threefold side -------------------------------------------

    def quartic_generators(self) -> list[Polynomial]:
        return [
            self.poly(f"quartic_ideal.{k}")
            for k in ("f2", "f3", "f40", "f41", "f5", "f6")
        ]

    @_derived
    def family_quadric(self) -> Polynomial:
        """f_c = c^2 * f40 - f41, the T-stable quadric with c^2 = a/b."""
        c = REG_Q.var("c")
        return c * c * self.poly("quartic_ideal.f40") - self.poly("quartic_ideal.f41")

    @_derived
    def quadric_involution(self) -> RationalMap:
        """j_Q = [f2 : c*f3 : c^2*f40 : c*f5 : f6] on the family quadric."""
        c = REG_Q.var("c")
        comps = (
            self.poly("quartic_ideal.f2"),
            c * self.poly("quartic_ideal.f3"),
            c * c * self.poly("quartic_ideal.f40"),
            c * self.poly("quartic_ideal.f5"),
            self.poly("quartic_ideal.f6"),
        )
        wvars = ("w0", "w1", "w2", "w3", "w4")
        return RationalMap(REG_Q, wvars, wvars, comps, self.family_quadric())

    @_derived
    def reversal(self) -> RationalMap:
        wvars = ("w0", "w1", "w2", "w3", "w4")
        comps = tuple(self.poly(f"reversal.{w}") for w in wvars)
        return RationalMap(REG_Q, wvars, wvars, comps, self.family_quadric())

    @_derived
    def gamma4(self) -> ParamCurve:
        return ParamCurve(REG_Q, ("t0", "t1"), tuple(self.poly(f"gamma4.w{i}") for i in range(5)))

    @_derived
    def alpha_curve(self) -> ParamCurve:
        return ParamCurve(REG_Q, ("u0", "u1"), tuple(self.poly(f"alpha.w{i}") for i in range(5)))

    @_derived
    def iota_c(self) -> RationalMap:
        return RationalMap(
            REG_Q, ("u0", "u1"), ("u0", "u1"),
            (self.poly("iota_c.u0"), self.poly("iota_c.u1")),
        )

    def mobius(self) -> list[list[Fraction]] | str:
        """The matrix [[a, b], [c, d]] of num/den = (a*v + b)/(c*v + d), or why there is none.

        Both keys are read before either is judged.
        """
        pair = self.poly("mobius.num"), self.poly("mobius.den")
        matrix = []
        for key, f in zip(("mobius.num", "mobius.den"), pair):
            others = [n for n in f.variables() if n != "v"]
            if others:
                return f"{key} involves {', '.join(others)}, so a coefficient is not rational"
            if f.degree_in("v") > 1:
                return f"{key} has degree {f.degree_in('v')} in v, above 1"
            matrix.append([f.coefficient_of("v", k).constant_value() for k in (1, 0)])
        return matrix


# -- mutation support (tampering detection) --------------------------------


def random_mutation(rng) -> tuple[str, dict[str, str]]:
    """Perturb one randomly chosen constant of `DEFAULT_RAW` by one random monomial.

    Returns (mutated key, new raw table).  The perturbation draws a
    nonzero rational coefficient and a small random monomial over the
    variables available to that constant.
    """
    base = dict(DEFAULT_RAW)
    key = rng.choice(sorted(base))
    pool = _family(key)[1]
    nvars = rng.randint(1, min(3, len(pool)))
    names = rng.sample(sorted(pool), nvars)
    factors = [f"{n}^{rng.randint(1, 4)}" for n in names]
    num = rng.choice([n for n in range(-5, 6) if n != 0])
    den = rng.randint(1, 3)
    sign = "-" if num < 0 else "+"
    base[key] = f"({base[key]}) {sign} {abs(num)}/{den}*" + "*".join(factors)
    return key, base
