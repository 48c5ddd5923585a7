import itertools
import random
from fractions import Fraction

import pytest

from fano22.constants import PaperConstants
from fano22.linalg import combine
from fano22.poly import Registry
from fano22.sections import (
    Grading,
    SectionSpace,
    UnboundedDegreeCone,
    monomial_basis,
    restricted_order_subspace,
)


@pytest.fixture
def consts():
    return PaperConstants()


def test_multidegree(consts):
    grading = consts.f3_grading()
    reg = consts.reg_f3
    assert grading.multidegree(consts.upsilon_p()) == (1, 1)
    assert grading.multidegree(reg.var("x0") + reg.var("y0")) is None
    assert grading.multidegree(reg.zero) is None


def test_bidegree_11_basis_has_7_monomials(consts):
    basis = monomial_basis(
        consts.reg_f3, consts.f3_grading(), (1, 1), ["x0", "x1", "y0", "y1"]
    )
    assert len(basis) == 7
    grading = consts.f3_grading()
    assert all(grading.multidegree(m) == (1, 1) for m in basis)


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
    coords = space.coords(u)
    assert coords is not None
    assert combine(space.registry, coords, space.basis) == u
    assert not space.contains(consts.reg_f3.var("x0"))


def test_coords_with_parameter_coefficients(consts):
    space = consts.o11_space()
    coords = space.coords(consts.upsilon_t())
    assert coords is not None
    v = consts.reg_f3.var("v")
    assert any(c == v for c in coords)


def test_dependent_basis_rejected(consts):
    reg = consts.reg_f3
    with pytest.raises(ValueError):
        SectionSpace(reg, [reg.var("x0"), reg.var("x0").scale(2)])


def test_inhomogeneous_basis_rejected(consts):
    reg = consts.reg_f3
    with pytest.raises(ValueError):
        SectionSpace(reg, [reg.var("x0") + reg.var("y0")], (1, 0),
                     consts.f3_grading())


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
