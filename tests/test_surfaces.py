from fractions import Fraction

import pytest

from fano22.surfaces import (
    DivisorClass,
    adjunction_genus,
    canonical_class,
    genus_zero_classes_with_pairing,
    intersect,
    is_irreducible_class,
)


def test_intersection_numbers():
    s = DivisorClass(3, 1, 0)
    f = DivisorClass(3, 0, 1)
    assert intersect(s, s) == -3
    assert intersect(f, f) == 0
    assert intersect(s, f) == 1
    assert intersect(DivisorClass(3, 1, 4), DivisorClass(3, 1, 4)) == 5


def test_canonical_and_genus():
    K = canonical_class(3)
    assert (K.a, K.b) == (-2, -5)
    assert adjunction_genus(DivisorClass(3, 0, 1)) == 0  # fiber
    assert adjunction_genus(DivisorClass(3, 1, 0)) == 0  # negative section
    assert adjunction_genus(DivisorClass(3, 1, 4)) == 0
    assert adjunction_genus(DivisorClass(3, 2, 6)) == Fraction(2)


def test_irreducibility_cone():
    assert is_irreducible_class(DivisorClass(3, 0, 1))
    assert is_irreducible_class(DivisorClass(3, 1, 0))
    assert is_irreducible_class(DivisorClass(3, 1, 4))
    assert not is_irreducible_class(DivisorClass(3, 0, 5))
    assert not is_irreducible_class(DivisorClass(3, 2, 3))
    assert not is_irreducible_class(DivisorClass(3, -1, 2))


def test_degree_pairing_collapses():
    for a in range(4):
        for b in range(6):
            assert intersect(DivisorClass(3, a, b), DivisorClass(3, 1, 4)) == a + b


def test_class_elimination():
    assert genus_zero_classes_with_pairing(5) == [(1, 4)]
    # against a brute-force search of a box that holds every class of the
    # pairing (a + b on F_3, so 3*total + 3 is far beyond the line)
    section = DivisorClass(3, 1, 4)
    for total in range(9):
        bound = 3 * total + 3
        classes = [DivisorClass(3, a, b)
                   for a in range(bound + 1) for b in range(bound + 1)]
        brute = [(D.a, D.b) for D in classes
                 if intersect(D, section) == total
                 and is_irreducible_class(D) and adjunction_genus(D) == 0]
        assert genus_zero_classes_with_pairing(total) == brute, total


def test_mismatch_and_validation():
    D = DivisorClass(3, 1, 4)
    with pytest.raises(ValueError):
        intersect(D, DivisorClass(2, 1, 0))
    with pytest.raises(ValueError):
        DivisorClass(-1, 0, 0)


def test_non_integral_coefficients_are_refused():
    for args in ((3, 1.5, 4), (3, 1, Fraction(1, 2)), (3.0, 1, 4)):
        with pytest.raises(TypeError, match="must be int"):
            DivisorClass(*args)


def test_divisor_class_construction_by_keyword():
    for D in (DivisorClass(3, 1, 4), DivisorClass(e=3, a=1, b=4)):
        assert (D.e, D.a, D.b) == (3, 1, 4)
    with pytest.raises(ValueError, match="surface index must be non-negative"):
        DivisorClass(e=-1, a=0, b=0)
    with pytest.raises(TypeError, match="divisor class coefficients must be int"):
        DivisorClass(e=3, a=1, b=None)
