"""Acceptance gate: every verification suite passes its exact checks
within its runtime bound, single-constant tampering is always detected,
and the algebra core survives a large randomized property battery.

All arithmetic is exact rational; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from fano22 import (
    PaperConstants,
    SuiteConfig,
    random_mutation,
    run_all,
    run_suite,
)
from fano22.linalg import ExactMatrix
from fano22.poly import Derivation, Polynomial, Registry


def _timed_suite(name: str, bound_seconds: float):
    start = time.perf_counter()
    report = run_suite(name)
    elapsed = time.perf_counter() - start
    failures = [(c.id, c.status, c.witness) for c in report.checks
                if c.status != "pass"]
    assert not failures, f"{name} failures: {failures}"
    assert elapsed < bound_seconds, f"{name} took {elapsed:.2f}s"
    return report


def test_criterion_01_w_module():
    report = _timed_suite("w-module", 1.0)
    assert len(report.checks) == 7


def test_criterion_02_borel_line():
    _timed_suite("borel-line", 1.0)


def test_criterion_03_group_law():
    report = _timed_suite("g-action", 1.0)
    assert any(c.id == "s3.wrong-law-fails" for c in report.checks)


def test_criterion_04_semi_invariant_lines():
    _timed_suite("semi-invariants-11", 1.0)


def test_criterion_05_stabilizer_ideals():
    report = _timed_suite("stabilizers", 2.0)
    # generic checks plus two per default specialization v in {2,3,-1,-4,0}
    assert len(report.checks) == 12


def test_criterion_06_normalization():
    _timed_suite("normalization", 2.0)


def test_criterion_07_tangent_directions():
    _timed_suite("tangent-directions", 1.0)


def test_criterion_08_pencils():
    _timed_suite("pencils", 1.0)


def test_criterion_09_quadric_involution():
    _timed_suite("quadric-involution", 5.0)


def test_criterion_10_reparametrization():
    _timed_suite("reparam", 1.0)


def test_criterion_11_mutation_robustness():
    """Each of 20 seeded random single-constant mutations is detected.

    Every mutant must parse: a kill by a ParseError shows nothing about
    the mathematics.
    """
    start = time.perf_counter()
    rng = random.Random(20260823)
    for i in range(20):
        key, raw = random_mutation(rng)
        config = SuiteConfig(constants=PaperConstants(raw=raw))
        reports = run_all(config)
        checks = [c for r in reports for c in r.checks]
        parse_errors = [c.id for c in checks
                        if (c.witness or "").startswith("ParseError")]
        assert not parse_errors, f"mutation #{i} of {key!r} does not parse"
        detected = any(c.status != "pass" for c in checks)
        assert detected, f"mutation #{i} of {key!r} went undetected"
    assert time.perf_counter() - start < 60.0


def test_criterion_12_randomized_property_battery():
    """>= 1000 randomized small instances of the core algebra properties."""
    reg = Registry([("x", "coordinate"), ("y", "coordinate"),
                    ("z", "coordinate")])
    rng = random.Random(1729)

    def rand_fraction():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def rand_poly(max_terms=4):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[e] = rand_fraction()
        return Polynomial(reg, terms)

    start = time.perf_counter()
    instances = 0
    for _ in range(250):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        # ring axioms
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        instances += 1
        # substitution homomorphism
        sub = {"x": rand_poly(2), "y": rand_poly(2)}
        assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)
        assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
        instances += 1
        # division round-trip
        if not g.is_zero():
            assert (f * g).exact_divide(g) == f
        instances += 1
        # Leibniz rule
        D = Derivation(reg, {"x": rand_poly(2), "y": rand_poly(2)})
        assert D(f * g) == D(f) * g + f * D(g)
        instances += 1
        # rank-nullity on a random rational matrix
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        m = ExactMatrix(reg, [[rand_fraction() for _ in range(ncols)]
                              for _ in range(nrows)])
        kern = m.kernel()
        assert m.rank() + len(kern) == m.ncols
        for vec in kern:
            assert all(e.is_zero() for e in m.mul_vector(vec))
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances >= 1000
    assert elapsed < 30.0, f"battery took {elapsed:.2f}s"
