from fractions import Fraction

import pytest

from fano22.surfaces import (
    DivisorClass,
    adjunction_genus,
    canonical_class,
    degree_pairing,
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
            assert degree_pairing(a, b) == a + b


def test_class_elimination():
    assert genus_zero_classes_with_pairing(5) == [(1, 4)]


def test_mismatch_and_validation():
    D = DivisorClass(3, 1, 4)
    with pytest.raises(ValueError):
        intersect(D, DivisorClass(2, 1, 0))
    with pytest.raises(ValueError):
        DivisorClass(-1, 0, 0)
