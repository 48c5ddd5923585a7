import itertools
import random
from fractions import Fraction

import pytest

from fano22.constants import F3_GRADING, PaperConstants
from fano22.linalg import combine
from fano22.poly import Polynomial, Registry, RegistryMismatch
from fano22.sections import (
    Grading,
    SectionSpace,
    UnboundedDegreeCone,
    coords_in_space,
    monomial_basis,
    restricted_order_subspace,
)


@pytest.fixture
def consts():
    return PaperConstants()


def test_multidegree(consts):
    reg = consts.reg_f3
    assert F3_GRADING.multidegree(consts.upsilon_p()) == (1, 1)
    assert F3_GRADING.multidegree(reg.var("x0") + reg.var("y0")) is None
    assert F3_GRADING.multidegree(reg.zero) is None


def test_non_integral_weights_are_refused():
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    with pytest.raises(TypeError, match="weights must be int"):
        Grading(reg, {"x": (0.5,), "y": (1,)})
    with pytest.raises(TypeError, match="weights must be int"):
        Grading(reg, {"x": (1, Fraction(1, 2)), "y": (1, 0)})


def test_bidegree_11_basis_has_7_monomials(consts):
    basis = monomial_basis(
        consts.reg_f3, F3_GRADING, (1, 1), ["x0", "x1", "y0", "y1"]
    )
    assert len(basis) == 7
    assert all(F3_GRADING.multidegree(m) == (1, 1) for m in basis)


def test_unbounded_cone_detected():
    reg = Registry([("x", "coordinate"), ("y", "coordinate")])
    grading = Grading(reg, {"x": (1,), "y": (-1,)})
    with pytest.raises(UnboundedDegreeCone):
        monomial_basis(reg, grading, (0,))


@pytest.mark.parametrize("weights, degree, expected", [
    ({"p": (1, -13), "q": (-1, 14)}, (1, 1), "p^15*q^14"),
    ({"p": (1, -1, 0), "q": (-1, 2, 0), "r": (0, 0, 1)}, (1, 0, 2), "p^2*q*r^2"),
])
def test_bounded_cone_without_small_functional(weights, degree, expected):
    """Bounded cones whose positive functionals, (27, 2) and (3, 2, 1), lie
    outside any small grid of candidates."""
    reg = Registry([(n, "coordinate") for n in weights])
    basis = monomial_basis(reg, Grading(reg, weights), degree)
    assert [str(m) for m in basis] == [expected]


def _brute_force_basis(weights, degree, psi):
    """Exponent tuples of the given multidegree, in descending graded lex order.

    `psi` is a functional with psi . w >= 1 for every weight w, so no
    exponent exceeds psi . degree / psi . w.
    """
    vecs = list(weights.values())
    budget = sum(map(int.__mul__, psi, degree))
    ranges = [range(budget // sum(map(int.__mul__, psi, w)) + 1) for w in vecs]
    found = [e for e in itertools.product(*ranges)
             if all(sum(k * w[c] for k, w in zip(e, vecs)) == d for c, d in enumerate(degree))]
    return sorted(found, key=lambda e: (sum(e), e), reverse=True)


def _random_grading(rng):
    """(weights in -2..2, a multidegree, a functional psi with psi . w >= 1 for each weight)."""
    ncomp, nvars = rng.randint(2, 3), rng.randint(1, 4)
    psi = tuple(rng.randint(1, 2) for _ in range(ncomp))
    weights = {}
    while len(weights) < nvars:
        w = tuple(rng.randint(-2, 2) for _ in range(ncomp))
        if sum(map(int.__mul__, psi, w)) >= 1:
            weights[f"t{len(weights)}"] = w
    if rng.random() < 0.8:
        ks = [rng.randint(0, 2) for _ in weights]
        degree = tuple(sum(k * w[c] for k, w in zip(ks, weights.values()))
                       for c in range(ncomp))
    else:
        degree = tuple(rng.randint(-2, 4) for _ in range(ncomp))
    return weights, degree, psi


def test_monomial_basis_matches_brute_force():
    rng = random.Random(20261018)
    # a degree on the ray opposite to the only weight has no monomial
    cases = [({"t0": (1, -1)}, (-2, 2), (1, 0))]
    cases += [_random_grading(rng) for _ in range(40)]
    sizes = []
    for weights, degree, psi in cases:
        expected = _brute_force_basis(weights, degree, psi)
        reg = Registry([(n, "coordinate") for n in weights])
        basis = monomial_basis(reg, Grading(reg, weights), degree)
        assert [m.exponents() for m in basis] == [[e] for e in expected]
        assert all(m.leading()[1] == 1 for m in basis)
        sizes.append(len(basis))
    assert max(sizes) > 1 and 0 in sizes


@pytest.mark.parametrize("weights", [
    {"x": (2, 0), "y": (0, 3)},
    {"x": (2, 0), "y": (0, 3), "z": (2, 3)},
])
def test_monomial_basis_with_non_integral_functional(weights):
    """The functional found, (1/2, 1/3), is scaled to (3, 2)."""
    reg = Registry([(n, "coordinate") for n in weights])
    grading = Grading(reg, weights)
    for degree in itertools.product(range(0, 9), range(0, 13)):
        basis = monomial_basis(reg, grading, degree)
        expected = _brute_force_basis(weights, degree, (3, 2))
        assert [m.exponents() for m in basis] == [[e] for e in expected]


def test_section_space_coords_and_contains(consts):
    space = consts.o11_space()
    u = consts.upsilon_p()
    coords = coords_in_space(u, space)
    assert coords is not None
    assert combine(space.registry, coords, space.basis) == u
    assert not space.contains(consts.reg_f3.var("x0"))


def test_coords_of_a_section_over_another_registry_rejected(consts):
    space = consts.o11_space()
    other = Registry([(n, "coordinate") for n in space.registry.names])
    # a basis element, and a monomial outside the basis support
    for f in (Polynomial(other, dict(space.basis[0].terms)), other.var("x0") * other.var("y0")):
        with pytest.raises(RegistryMismatch):
            coords_in_space(f, space)


def test_coords_with_parameter_coefficients(consts):
    space = consts.o11_space()
    coords = coords_in_space(consts.upsilon_t(), space)
    assert coords is not None
    v = consts.reg_f3.var("v")
    assert any(c == v for c in coords)


def test_coordinates_are_the_registry_coordinate_variables(consts):
    # the coordinate fields come from the registry's roles, not from the
    # variables the basis happens to use: x1 and w0 are coordinates
    reg = consts.reg_f3
    x0, x1, y1, w0, v, a = (reg.var(n) for n in ("x0", "x1", "y1", "w0", "v", "a"))
    space = SectionSpace(reg, [x0 * y1])
    assert coords_in_space(x0 * x1 * y1, space) is None
    assert not space.contains(x0 * y1 * w0)
    assert coords_in_space(v * x0 * y1, space) == [v]
    for basis in ([x0 * y1, v * x0 * y1], [a * x0 * y1]):
        with pytest.raises(ValueError, match="group or family parameters"):
            SectionSpace(reg, basis)


def test_dependent_basis_rejected(consts):
    reg = consts.reg_f3
    with pytest.raises(ValueError):
        SectionSpace(reg, [reg.var("x0"), reg.var("x0").scale(2)])


def test_inhomogeneous_basis_rejected(consts):
    reg = consts.reg_f3
    with pytest.raises(ValueError):
        SectionSpace(reg, [reg.var("x0") + reg.var("y0")], (1, 0),
                     F3_GRADING)


def test_restricted_order_subspace_simple():
    reg = Registry([("t0", "curve-parameter"), ("t1", "curve-parameter")])
    t0, t1 = reg.var("t0"), reg.var("t1")
    space = SectionSpace(reg, [t0 ** 2, t0 * t1, t1 ** 2])
    sub = restricted_order_subspace(
        space, {}, [((Fraction(0), Fraction(1)), 1)], ("t0", "t1")
    )
    # vanishing at [0:1] kills the pure t1^2 direction
    assert sub.dim == 2
    assert sub.contains(t0 ** 2) and sub.contains(t0 * t1)
    assert not sub.contains(t1 ** 2)


def test_restricted_order_general_point():
    reg = Registry([("t0", "curve-parameter"), ("t1", "curve-parameter")])
    t0, t1 = reg.var("t0"), reg.var("t1")
    space = SectionSpace(reg, [t0 ** 2, t0 * t1, t1 ** 2])
    sub = restricted_order_subspace(
        space, {}, [((Fraction(1), Fraction(1)), 2)], ("t0", "t1")
    )
    # double vanishing at [1:1] leaves the square (t1 - t0)^2
    assert sub.dim == 1
    assert sub.contains((t1 - t0) ** 2)


def test_restricted_order_without_conditions_keeps_the_space():
    reg = Registry([("t0", "curve-parameter"), ("t1", "curve-parameter")])
    t0, t1 = reg.var("t0"), reg.var("t1")
    space = SectionSpace(reg, [t0 ** 2, t0 * t1, t1 ** 2])
    for conditions in ([], [((Fraction(0), Fraction(1)), 0)],
                       [((Fraction(2), Fraction(-1)), 0)]):
        sub = restricted_order_subspace(space, {}, conditions, ("t0", "t1"))
        assert sub.same_span(space)


def test_restrictions_must_be_binary_forms_of_one_degree():
    reg = Registry([("t0", "curve-parameter"), ("t1", "curve-parameter"),
                    ("s", "coordinate")])
    t0, t1, s = reg.var("t0"), reg.var("t1"), reg.var("s")
    point = [((Fraction(0), Fraction(1)), 1)]
    for basis, message in (([t0 ** 2, t0 * s], "not a binary form"),
                           ([t0 ** 2, t1], "inconsistent restricted degrees")):
        with pytest.raises(ValueError, match=message):
            restricted_order_subspace(SectionSpace(reg, basis), {}, point, ("t0", "t1"))


def _vanishing_case(rng):
    """(degree d, points [alpha:beta] with [0:1] first, orders summing to <= d + 1)."""
    d = rng.randint(1, 6)
    points = [(Fraction(0), Fraction(1))]
    ratios = set()
    count = rng.randint(1, 4)
    while len(points) < count:
        alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        beta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if beta / alpha not in ratios:
            ratios.add(beta / alpha)
            points.append((alpha, beta))
    orders = [0] * count
    for _ in range(rng.randint(0, d + 1)):
        orders[rng.randrange(count)] += 1
    return d, points, orders


def test_vanishing_orders_on_all_binary_forms():
    # the binary d-forms vanishing to order k_i at distinct points [alpha_i:beta_i]
    # are the multiples of the product of (beta_i*t0 - alpha_i*t1)^k_i
    reg = Registry([("t0", "curve-parameter"), ("t1", "curve-parameter")])
    t0, t1 = reg.var("t0"), reg.var("t1")
    rng = random.Random(1019)
    cases = [(5, [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(3)),
                  (Fraction(2), Fraction(-1))], [2, 1, 2])]
    cases += [_vanishing_case(rng) for _ in range(40)]
    for d, points, orders in cases:
        space = SectionSpace(reg, [t0 ** (d - j) * t1 ** j for j in range(d + 1)])
        conditions = list(zip(points, orders))
        sub = restricted_order_subspace(space, {}, conditions, ("t0", "t1"))
        assert sub.dim == d + 1 - sum(orders), (d, conditions)
        for b in sub.basis:
            assert space.contains(b)
            for (alpha, beta), k in conditions:
                factor = (t0.scale(beta) - t1.scale(alpha)) ** k
                assert b.exact_divide(factor) is not None, (d, conditions, b)
