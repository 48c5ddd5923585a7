"""Named verification suites producing structured check reports.

Each suite rebuilds its inputs from the constants table, runs a fixed
ordered list of exact checks, and records pass/fail/error with an
optional polynomial witness and per-check timing.  Reports serialize to
JSON as {suite, checks: [{id, status, statement, witness?, ms}]}.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .actions import (
    conditions_equal_principal,
    action_preserves_space,
    lie_derivation,
    semi_invariant_lines,
    stabilizer_conditions,
    verify_group_law,
)
from .constants import (
    F3_GRADING,
    REG_F3,
    SL2_LOWERING,
    SL2_RAISING,
    W_GRADING,
    W_TORUS,
    WRONG_GROUP_LAW,
    PaperConstants,
    mobius_projective,
)
from .linalg import coefficient_matrix, combine
from .maps import (
    INFINITY,
    ParamCurve,
    RationalMap,
    TangentDirection,
    affine_jet,
    compose,
    equivariance_up_to_scalar,
    image_in_hypersurface,
    is_rational_normal_curve,
    proportional_mod,
    tangent_parameter,
)
from .poly import Polynomial, format_poly
from .sections import SectionSpace, restricted_order_subspace
from .surfaces import (
    DivisorClass,
    adjunction_genus,
    genus_zero_classes_with_pairing,
    intersect,
)


class UnknownSuite(ValueError):
    pass


@dataclass
class Check:
    id: str
    status: str  # pass | fail | error
    statement: str
    witness: str | None
    ms: float

    def to_dict(self) -> dict:
        out = {"id": self.id, "status": self.status,
               "statement": self.statement, "ms": round(self.ms, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class CheckReport:
    suite: str
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "checks": [c.to_dict() for c in self.checks]}


@dataclass
class SuiteConfig:
    constants: PaperConstants = field(default_factory=PaperConstants)
    v_specializations: tuple[Fraction, ...] = (
        Fraction(2), Fraction(3), Fraction(-1), Fraction(-4), Fraction(0)
    )


class _Recorder:
    def __init__(self):
        self.checks: list[Check] = []

    def run(self, check_id: str, statement: str, fn: Callable):
        start = time.perf_counter()
        witness = None
        try:
            result = fn()
        except Exception as exc:  # error status carries the exception text
            status = "error"
            witness = f"{type(exc).__name__}: {exc}"
        else:
            if isinstance(result, tuple):
                ok, witness = result
            else:
                ok = result
            if ok:
                status, witness = "pass", None
            else:
                status = "fail"
                if witness is None:
                    witness = "condition evaluated false"
        if isinstance(witness, Polynomial):
            witness = format_poly(witness)
        ms = (time.perf_counter() - start) * 1000
        self.checks.append(Check(check_id, status, statement, witness, ms))


def _same_line(p: Polynomial, q: Polynomial) -> bool:
    """Projective equality of the spanned lines (rational coefficients)."""
    if p.is_zero() or q.is_zero():
        return False
    return p.primitive_normal() == q.primitive_normal()


# -- S1: the seven-dimensional sl2 module ----------------------------------


def _suite_w_module(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    basis = c.w_basis()

    rec.run(
        "s1.homogeneous",
        "all seven basis vectors are bihomogeneous of degree (5,1)",
        lambda: all(W_GRADING.multidegree(b) == (5, 1) for b in basis),
    )
    rec.run(
        "s1.independent",
        "the seven basis vectors are linearly independent",
        lambda: c.w_space().dim == 7,
    )

    def weights_consecutive():
        weights = []
        for b in basis:
            img = W_TORUS(b)
            q = img.exact_divide(b)
            if q is None or not q.is_constant():
                return False, img
            weights.append(q.constant_value())
        diffs = {weights[i + 1] - weights[i] for i in range(6)}
        consecutive = diffs in ({Fraction(1)}, {Fraction(-1)})
        return consecutive and len(set(weights)) == 7, None

    rec.run(
        "s1.weights-consecutive",
        "torus weights are 7 consecutive integers, strictly monotone in the index",
        weights_consecutive,
    )
    rec.run("s1.highest-killed", "the raising operator kills the first basis vector",
            lambda: (SL2_RAISING(basis[0]).is_zero(), SL2_RAISING(basis[0])))
    rec.run("s1.lowest-killed", "the lowering operator kills the last basis vector",
            lambda: (SL2_LOWERING(basis[6]).is_zero(), SL2_LOWERING(basis[6])))

    def chain(op, pairs):
        for i, j in pairs:
            q = op(basis[i]).exact_divide(basis[j])
            if q is None or not q.is_constant() or q.is_zero():
                return False, op(basis[i])
        return True, None

    rec.run("s1.lowering-chain",
            "lowering sends each basis vector to a nonzero multiple of the next",
            lambda: chain(SL2_LOWERING, zip(range(6), range(1, 7))))
    rec.run("s1.raising-chain",
            "raising sends each basis vector to a nonzero multiple of the previous",
            lambda: chain(SL2_RAISING, zip(range(1, 7), range(6))))


# -- S2: the unique Borel-stable line ---------------------------------------


def _suite_borel_line(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    space = c.w_space()
    lines = semi_invariant_lines(space, W_TORUS, SL2_RAISING)
    rec.run("s2.unique-line",
            "the module has exactly one Borel-semi-invariant line",
            lambda: (len(lines) == 1, f"found {len(lines)} lines"))
    rec.run("s2.line-is-e0",
            "the Borel-semi-invariant line is spanned by the first basis vector",
            lambda: len(lines) == 1 and _same_line(lines[0], c.w_basis()[0]))


# -- S3: the solvable group action ------------------------------------------


def _suite_g_action(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_f3
    action = c.f3_action()

    rec.run("s3.group-law", "the substitution rule composes by the stated group law",
            lambda: verify_group_law(action, c.group_law()))

    def wrong_law_fails():
        ok, witness = verify_group_law(action, WRONG_GROUP_LAW)
        return not ok and witness is not None and not witness.is_zero()

    rec.run("s3.wrong-law-fails",
            "a deliberately wrong group law fails with a nonzero witness",
            wrong_law_fails)

    def scalar_stable(name: str):
        g = action.act_on_section(reg.var(name))
        q = g.exact_divide(reg.var(name))
        return q is not None and not q.is_zero() and all(
            reg.role(n) == "group-parameter" for n in q.variables()
        )

    rec.run("s3.negative-section-stable",
            "the negative section {y0=0} is stable under the full group",
            lambda: scalar_stable("y0"))
    rec.run("s3.fixed-fiber-stable",
            "the fiber {x0=0} is stable under the full group",
            lambda: scalar_stable("x0"))

    def torus_only(name: str):
        torus_image = action.images[name].substitute({"a": reg.zero})
        q = torus_image.exact_divide(reg.var(name))
        torus_stable = q is not None and not q.is_zero()
        full = action.act_on_section(reg.var(name))
        not_full_stable = full.exact_divide(reg.var(name)) is None
        return torus_stable and not_full_stable

    rec.run("s3.infinity-section-torus-only",
            "the section {y1=0} is torus-stable but not stable under the unipotent part",
            lambda: torus_only("y1"))
    rec.run("s3.infinity-fiber-torus-only",
            "the fiber {x1=0} is torus-stable but not stable under the unipotent part",
            lambda: torus_only("x1"))


# -- S4: semi-invariant lines in H^0(O(1,1)) ---------------------------------


def _suite_semi_invariants(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    action = c.f3_action()
    space = c.o11_space()
    d_torus = lie_derivation(action, "lam")
    d_unipotent = lie_derivation(action, "a")

    rec.run("s4.space-dimension",
            "the bidegree-(1,1) section space has dimension 7",
            lambda: (space.dim == 7, f"dim = {space.dim}"))

    lines = semi_invariant_lines(space, d_torus, d_unipotent)
    expected = [c.reg_f3.var("x0") ** 4 * c.reg_f3.var("y0"), c.upsilon_p()]

    rec.run("s4.two-lines",
            "there are exactly two semi-invariant lines",
            lambda: (len(lines) == 2, f"found {len(lines)} lines"))
    rec.run("s4.lines-identified",
            "the semi-invariant lines are the fourfold fiber section and the "
            "distinguished curve 4*x0*y1 - x1^4*y0",
            lambda: all(any(_same_line(li, e) for li in lines) for e in expected))


# -- S5: stabilizer condition ideals -----------------------------------------


def _suite_stabilizers(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_f3
    action = c.f3_action()
    space = c.o11_space()
    unit = ("lam",)
    a, lam, v = reg.var("a"), reg.var("lam"), reg.var("v")

    # (family, curve, generic generator, v where the curve is fully stable,
    # generator at every other v)
    families = (
        ("torus", c.upsilon_t, (a * (v + 4), "a*(v+4)"), -4, (a, "a")),
        ("additive", c.upsilon_a, (v * (lam ** 4 - 1), "v*(lam^4 - 1)"), 0,
         (lam ** 4 - 1, "lam^4 - 1")),
    )

    def ideal_is(curve, generator):
        """The stabilizer ideal of `curve` is (generator), or empty for None."""
        conds = stabilizer_conditions(curve, action, space, unit)
        return not conds if generator is None else conditions_equal_principal(
            conds, generator, unit)

    for name, curve, (generic, text), _, _ in families:
        rec.run(f"s5.{name}-family-generic",
                f"stabilizer ideal of the {name} family is principal with generator {text}",
                lambda: ideal_is(curve(), generic))
    # a value given twice would repeat its check ids
    for val in dict.fromkeys(cfg.v_specializations):
        for name, curve, _, stable_at, (generator, text) in families:
            if val == stable_at:
                generator, outcome = None, "fully stable (empty condition ideal)"
            else:
                outcome = f"stabilizer ideal is principal with generator {text}"
            rec.run(f"s5.{name}-family-v={val}", f"{name} family at v={val}: {outcome}",
                    lambda: ideal_is(curve(val), generator))


# -- S6: the normalization morphism -------------------------------------------


#: the restrictions to the negative section and to the fixed fiber, which
#: identify both lines with one projective line (coordinates w0, w1)
_TO_SECTION = {"y0": REG_F3.zero, "y1": REG_F3.one,
               "x0": REG_F3.var("w0"), "x1": REG_F3.var("w1")}
_TO_FIBER = {"x0": REG_F3.zero, "x1": REG_F3.one,
             "y0": REG_F3.var("w0"), "y1": REG_F3.var("w1")}


def _equalizer_kernel(c: PaperConstants) -> SectionSpace:
    """Sections of O(1,1) restricting equally to the two glued lines.

    The kernel of the difference of the two restrictions is the subspace
    descending to the glued surface.
    """
    reg = c.reg_f3
    basis = c.o11_space().basis
    diffs = [b.substitute(_TO_SECTION) - b.substitute(_TO_FIBER) for b in basis]
    kernel = coefficient_matrix(reg, diffs)[1].kernel()
    combos = [combine(reg, vec, basis) for vec in kernel]
    return SectionSpace(reg, combos, (1, 1), F3_GRADING)


def _psi_image(psi: RationalMap, sub: dict[str, Polynomial]) -> ParamCurve:
    """The image under the morphism of the curve [x0:x1] -> (x0, x1, sub)."""
    return ParamCurve(psi.registry, ("x0", "x1"),
                      tuple(comp.substitute(sub) for comp in psi.components))


def _suite_normalization(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_f3
    kernel_space = _equalizer_kernel(c)
    wprime = c.wprime_space()
    psi = c.psi()

    rec.run("s6.kernel-dimension",
            "the equalizer kernel has dimension 6",
            lambda: (kernel_space.dim == 6, f"dim = {kernel_space.dim}"))
    rec.run("s6.kernel-identified",
            "the equalizer kernel equals the stated 6-dimensional subspace",
            lambda: kernel_space.same_span(wprime))
    rec.run("s6.subspace-stable",
            "the 6-dimensional subspace is stable under the group action",
            lambda: action_preserves_space(c.f3_action(), wprime))
    rec.run("s6.map-components-span",
            "the components of the morphism span the 6-dimensional subspace",
            lambda: SectionSpace(reg, list(psi.components), (1, 1),
                                 F3_GRADING).same_span(wprime))

    def restriction(sub):
        return [comp.substitute(sub) for comp in psi.components]

    def restricted_line(sub):
        comps = restriction(sub)
        if any(not comp.is_zero() for comp in comps[2:]):
            return False, next(c2 for c2 in comps[2:] if not c2.is_zero())
        return coefficient_matrix(reg, comps[:2])[1].rank() == 2, None

    rec.run("s6.section-restriction-injective",
            "the morphism embeds the negative section into the plane "
            "{w2=w3=w4=w5=0} with full rank",
            lambda: restricted_line(_TO_SECTION))
    rec.run("s6.fiber-restriction-injective",
            "the morphism embeds the fixed fiber into the plane "
            "{w2=w3=w4=w5=0} with full rank",
            lambda: restricted_line(_TO_FIBER))

    def base_point_image():
        vals = psi((Fraction(0), Fraction(1), Fraction(0), Fraction(1)))
        return vals[0] != 0 and all(x == 0 for x in vals[1:])

    rec.run("s6.fixed-point-image",
            "the fixed point maps to [1:0:0:0:0:0]",
            base_point_image)

    rec.run("s6.distinguished-curve-quintic",
            "the distinguished curve maps to a rational normal quintic",
            lambda: is_rational_normal_curve(
                _psi_image(psi, c.upsilon_p_parametrization())))


# -- S7: tangent directions at the fixed point ---------------------------------


def _suite_tangent_directions(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_f3
    v = reg.var("v")

    rec.run("s7.distinguished-curve",
            "the distinguished curve has tangent parameter -4",
            lambda: tangent_parameter(c.upsilon_p()) == -4)
    rec.run("s7.torus-family",
            "the torus family has tangent parameter v",
            lambda: tangent_parameter(c.upsilon_t()) == v)
    rec.run("s7.additive-family-generic",
            "the additive family has tangent parameter -4 for every v",
            lambda: tangent_parameter(c.upsilon_a()) == -4)
    for val in (Fraction(0), Fraction(1), Fraction(2)):
        rec.run(f"s7.additive-family-v={val}",
                f"the additive family at v={val} has tangent parameter -4",
                lambda val=val: tangent_parameter(c.upsilon_a(val)) == -4)

    def blow_down_kernel():
        """Tangent direction killed by the differential of the morphism."""
        dehom = {"x1": reg.one, "y1": reg.one}
        # at the fixed point only the first component is nonzero; the
        # differential there is carried by the remaining components
        jets = [affine_jet(comp.substitute(dehom), "x0", "y0")
                for comp in c.psi().components[1:]]
        if any(not const.is_zero() for const, _, _ in jets):
            return None
        nonzero = [(al, be) for _, al, be in jets
                   if not (al.is_zero() and be.is_zero())]
        if len(nonzero) != 1:
            return None
        return TangentDirection(*nonzero[0])

    def quadruple():
        q_section = tangent_parameter(reg.var("y0"))
        q_fiber = tangent_parameter(reg.var("x0"))
        delta = blow_down_kernel()
        gamma = tangent_parameter(c.upsilon_p())
        ok = (q_section == 0 and q_fiber == INFINITY
              and delta is not None and delta == 1 and gamma == -4)
        return ok, None if ok else f"({q_section}, {q_fiber}, {delta}, {gamma})"

    rec.run("s7.chart-quadruple",
            "the affine-chart quadruple (section, fiber, blow-down kernel, "
            "distinguished curve) equals (0, inf, 1, -4)",
            quadruple)

    psi = c.psi()

    def image_curve(val: Fraction):
        return _psi_image(psi, c.upsilon_t_parametrization(val))

    rec.run("s7.degenerate-at-one",
            "the torus-family image degenerates exactly at v=1",
            lambda: not is_rational_normal_curve(image_curve(Fraction(1))))
    for val in (Fraction(2), Fraction(3), Fraction(-1)):
        rec.run(f"s7.quintic-at-v={val}",
                f"the torus-family image at v={val} is a rational normal quintic",
                lambda val=val: is_rational_normal_curve(image_curve(val)))


# -- S8: the two pencils and divisor-class bookkeeping -------------------------


def _suite_pencils(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_f3
    space = c.o11_space()
    curve = c.upsilon_p_parametrization()
    upsilon = c.upsilon_p()
    fiber_power = reg.var("x0") ** 4 * reg.var("y0")
    cross = reg.var("x0") * reg.var("y1")

    total_contact = restricted_order_subspace(
        space, curve, [((Fraction(0), Fraction(1)), 5)], ("x0", "x1")
    )
    rec.run("s8.total-contact-dimension",
            "the pencil with full contact at the fixed point is 2-dimensional",
            lambda: (total_contact.dim == 2, f"dim = {total_contact.dim}"))
    rec.run("s8.total-contact-members",
            "that pencil contains the distinguished curve and x0^4*y0",
            lambda: total_contact.contains(upsilon)
            and total_contact.contains(fiber_power))

    split_contact = restricted_order_subspace(
        space, curve,
        [((Fraction(1), Fraction(0)), 4), ((Fraction(0), Fraction(1)), 1)],
        ("x0", "x1"),
    )
    rec.run("s8.split-contact-dimension",
            "the pencil with contact orders (4,1) is 2-dimensional",
            lambda: (split_contact.dim == 2, f"dim = {split_contact.dim}"))
    rec.run("s8.split-contact-members",
            "that pencil contains the distinguished curve and x0*y1",
            lambda: split_contact.contains(upsilon)
            and split_contact.contains(cross))

    D = DivisorClass(3, 1, 4)
    rec.run("s8.self-intersection",
            "(s + 4f)^2 = 5 on the Hirzebruch surface of index 3",
            lambda: (intersect(D, D) == 5, str(intersect(D, D))))
    rec.run("s8.genus",
            "the class s + 4f has adjunction genus 0",
            lambda: (adjunction_genus(D) == 0, str(adjunction_genus(D))))
    rec.run("s8.contact-with-infinity-section",
            "the class s + 4f meets the infinity section s + 3f in 4 points",
            lambda: (intersect(D, DivisorClass(3, 1, 3)) == 4,
                     str(intersect(D, DivisorClass(3, 1, 3)))))
    rec.run("s8.class-elimination",
            "the only irreducible genus-0 class of pairing 5 is (a,b) = (1,4)",
            lambda: (genus_zero_classes_with_pairing(5) == [(1, 4)],
                     str(genus_zero_classes_with_pairing(5))))


# -- S9: the quadric involution -------------------------------------------------


def _suite_quadric_involution(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    reg = c.reg_q
    wnames = ("w0", "w1", "w2", "w3", "w4")
    generators = c.quartic_generators()
    gamma = c.gamma4()
    f_c = c.family_quadric()
    jq = c.quadric_involution()
    rev = c.reversal()
    lam = reg.var("lam")
    # the torus w_i -> lam^i * w_i of the quartic parametrization, and its
    # inverse, projectively w_i -> lam^-i * w_i, cleared of denominators
    torus = {n: lam ** i * reg.var(n) for i, n in enumerate(wnames)}
    inverse = {n: lam ** (4 - i) * reg.var(n) for i, n in enumerate(wnames)}

    def vanish_on(curve, polys):
        """Every poly pulls back to 0 along the curve; else False and the first nonzero pullback."""
        sub = curve.substitution(wnames)
        for p in polys:
            pulled = p.substitute(sub)
            if not pulled.is_zero():
                return False, pulled
        return True, None

    rec.run("s9.generators-vanish-on-quartic",
            "all six quadratic generators vanish on the quartic curve",
            lambda: vanish_on(gamma, generators))
    rec.run("s9.image-in-quadric",
            "the involution maps the family quadric into itself",
            lambda: image_in_hypersurface(jq, f_c))

    identity_tuple = [reg.var(n) for n in wnames]
    rec.run("s9.involution",
            "the map squares to the identity modulo the family quadric",
            lambda: proportional_mod(
                compose(jq, jq).components, identity_tuple, f_c))
    rec.run("s9.commutes-with-reversal",
            "the map commutes with coordinate reversal modulo the family quadric",
            lambda: proportional_mod(
                compose(rev, jq).components, compose(jq, rev).components, f_c))

    def torus_scalar():
        ok, scalar = equivariance_up_to_scalar(jq, torus, torus)
        if not ok:
            return False, scalar
        return scalar is not None and scalar == lam ** 2, scalar

    rec.run("s9.torus-equivariance",
            "the involution is torus-equivariant with scalar lam^2",
            torus_scalar)

    def semi_commutation():
        iota = compose(rev, jq)
        ok, scalar = equivariance_up_to_scalar(iota, torus, inverse)
        if not ok:
            return False, scalar
        return scalar is not None and not scalar.is_zero(), scalar

    rec.run("s9.semi-commutation",
            "the composed involution conjugates the torus to its inverse",
            semi_commutation)

    alpha = c.alpha_curve()

    rec.run("s9.cubic-on-quadric",
            "the cubic curve lies on the family quadric",
            lambda: vanish_on(alpha, [f_c]))

    def alpha_intertwines():
        iota = compose(rev, jq)
        through_quadric = [comp.substitute(alpha.substitution(wnames))
                           for comp in iota.components]
        iota_c = c.iota_c()
        through_line = [comp.substitute(
            dict(zip(("u0", "u1"), iota_c.components)))
            for comp in alpha.components]
        return proportional_mod(through_quadric, through_line, None)

    rec.run("s9.cubic-intertwines",
            "the involution restricted to the cubic matches the stated "
            "involution of its parameter line",
            alpha_intertwines)

    def line_on_quadric():
        sub = {"w1": reg.zero, "w2": reg.zero, "w4": reg.zero}
        return (f_c.substitute(sub).is_zero()
                and generators[0].substitute(sub).is_zero())

    rec.run("s9.line-on-quadric",
            "the line {w1=w2=w4=0} lies on the family quadric and on w0*w2-w1^2",
            line_on_quadric)
    rec.run("s9.degree-bookkeeping",
            "degrees add up: line (1) + cubic (3) = quartic (4)",
            lambda: 1 + alpha.degree() == gamma.degree())


# -- S10: the boundary reparametrization ----------------------------------------


def _suite_reparam(cfg: SuiteConfig, rec: _Recorder):
    c = cfg.constants
    num, den = c.mobius()

    table = [
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        ((Fraction(1), Fraction(1)), (Fraction(1, 5), Fraction(1))),
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))),
        ((Fraction(-4), Fraction(1)), (Fraction(1), Fraction(0))),
    ]
    for point, expected in table:
        label = "inf" if point[1] == 0 else str(point[0])
        target = "inf" if expected[1] == 0 else str(expected[0])
        rec.run(f"s10.boundary-{label}",
                f"the reparametrization sends {label} to {target}",
                lambda point=point, expected=expected:
                mobius_projective(num, den, "v", point) == expected)

    def injective_sample():
        rng = random.Random(2026)
        points = set()
        while len(points) < 10:
            points.add(Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        images = [mobius_projective(num, den, "v", (p, Fraction(1)))
                  for p in sorted(points)]
        return len(set(images)) == 10, f"{len(set(images))} distinct images"

    rec.run("s10.injective-sample",
            "the reparametrization is injective on 10 random rational points",
            injective_sample)


# -- public runners ---------------------------------------------------------------


_SUITES: dict[str, Callable[[SuiteConfig, _Recorder], None]] = {
    "w-module": _suite_w_module,
    "borel-line": _suite_borel_line,
    "g-action": _suite_g_action,
    "semi-invariants-11": _suite_semi_invariants,
    "stabilizers": _suite_stabilizers,
    "normalization": _suite_normalization,
    "tangent-directions": _suite_tangent_directions,
    "pencils": _suite_pencils,
    "quadric-involution": _suite_quadric_involution,
    "reparam": _suite_reparam,
}

SUITE_ORDER = tuple(_SUITES)


def run_suite(name: str, config: SuiteConfig | None = None) -> CheckReport:
    if name not in _SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)}")
    config = config if config is not None else SuiteConfig()
    rec = _Recorder()
    try:
        _SUITES[name](config, rec)
    except Exception as exc:  # a broken constants table may fail suite setup
        rec.checks.append(Check(
            f"{name}.setup", "error", "suite inputs construct successfully",
            f"{type(exc).__name__}: {exc}", 0.0,
        ))
    return CheckReport(name, rec.checks)


def run_all(config: SuiteConfig | None = None,
            names: tuple[str, ...] | None = None) -> list[CheckReport]:
    """Run the named suites (all of them by default) in fixed order.

    Every suite reads one configuration, so each constant of its table is
    parsed at most once and the table's derived objects are built once.
    """
    selected = SUITE_ORDER if names is None else tuple(names)
    config = config if config is not None else SuiteConfig()
    return [run_suite(name, config) for name in selected]


def render_text(reports: list[CheckReport]) -> str:
    lines = []
    passed = failed = 0
    for report in reports:
        for check in report.checks:
            lines.append(
                f"{report.suite}/{check.id}: {check.status.upper()} "
                f"{check.statement}"
                + (f" [witness: {check.witness}]" if check.witness else "")
            )
            if check.status == "pass":
                passed += 1
            else:
                failed += 1
    lines.append(f"{passed} passed, {failed} failed")
    return "\n".join(lines)


def reports_to_json(reports: list[CheckReport]) -> list[dict]:
    return [r.to_dict() for r in reports]
