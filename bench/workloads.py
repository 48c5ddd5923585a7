"""The three workloads: inputs drawn from the seed, one op, and its checks.

Each workload object is built by its constructor (that is the set-up the
benchmark times), then driven as

    arg = w.prepare(i)        # untimed: the i-th op's input
    steps = w.steps(arg)      # the op: zero-argument calls into fano22's API,
    out = [s() for s in steps]  # each timed between two reference runs
    w.check(arg, out)         # untimed: raises oracle.Mismatch if wrong

`w.warmup()` runs before timing starts and `w.final_check()` once after
the timed loop.  An op is one whole
unit of work, and `round_size` ops make one round; a run stops only at a
round boundary, so every run attempts the same mix of operations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import fano22
from fano22 import (
    DEFAULT_RAW,
    SUITE_ORDER,
    ExactMatrix,
    Grading,
    PaperConstants,
    Polynomial,
    Registry,
    SectionSpace,
    SuiteConfig,
    format_poly,
    run_all,
    run_suite,
)

import oracle
from oracle import Mismatch


def check_paper_report(reports) -> int:
    """Every suite reported in order, no setup error, every check passed.

    Returns the number of checks, which the cold CLI run must match.
    """
    if [r.suite for r in reports] != list(SUITE_ORDER):
        raise Mismatch(f"suites reported {[r.suite for r in reports]}")
    for r in reports:
        if not r.checks:
            raise Mismatch(f"suite {r.suite} reported no checks")
        for c in r.checks:
            if c.id.endswith(".setup"):
                raise Mismatch(f"{r.suite}: setup error {c.witness}")
            if c.status != "pass":
                raise Mismatch(f"{r.suite}/{c.id}: {c.status} {c.witness}")
    return sum(len(r.checks) for r in reports)


def signature(report) -> tuple:
    """Everything a report says except the timings."""
    return tuple((c.id, c.status, c.statement, c.witness) for c in report.checks)


def check_mutant_report(reports, baseline, reads, key) -> None:
    """Every suite that reads no mutated constant reports as on the paper's table."""
    if [r.suite for r in reports] != list(SUITE_ORDER):
        raise Mismatch(f"suites reported {[r.suite for r in reports]}")
    for r in reports:
        if key not in reads[r.suite] and signature(r) != baseline[r.suite]:
            raise Mismatch(f"{r.suite} reads no {key!r} but its report changed")


class PaperVerify:
    """`run_all()` with default arguments: what a reader of the paper runs."""

    name = "paper-verify"
    round_size = 1
    reference = "sparse"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self, i):
        return None

    def warmup(self) -> None:
        self.check(None, [run_all()])

    def steps(self, arg):
        return [run_all]

    def check(self, arg, out) -> None:
        check_paper_report(out[0])

    def final_check(self) -> None:
        oracle.check_paper_identities(DEFAULT_RAW, self.rng)


class _RecordingTable(dict):
    """A constants table that records which keys are looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


#: variables each constant may be perturbed in, by key prefix; the same
#: pools as the program's own `random_mutation`
MUTATION_POOLS = {
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

#: registry (attribute of PaperConstants) each constant is parsed over
_QUADRIC_PREFIXES = ("quartic_ideal", "gamma4", "reversal", "alpha", "iota_c")


def _prefix(key: str) -> str:
    return next(p for p in MUTATION_POOLS if key.startswith(p))


def mutation_term(rng: random.Random, key: str) -> str:
    """One random monomial with the distribution of `random_mutation`.

    A negative coefficient is written `- p/q*m`, which the grammar accepts.
    """
    pool = MUTATION_POOLS[_prefix(key)]
    nvars = rng.randint(1, min(3, len(pool)))
    names = rng.sample(sorted(pool), nvars)
    factors = [f"{n}^{rng.randint(1, 4)}" for n in names]
    num = rng.choice([n for n in range(-5, 6) if n != 0])
    den = rng.randint(1, 3)
    sign = "-" if num < 0 else "+"
    return f"{sign} {abs(num)}/{den}*" + "*".join(factors)


def mutant_stream(seed: int):
    """Endless (key, mutant table) stream, one round per pass over the keys.

    Each round perturbs every constant once, in a seeded order, so the
    keys are uniform like `random_mutation`'s and every round has the same
    key mix; only the order and the monomials depend on the seed.
    """
    rng = random.Random(seed)
    keys = sorted(DEFAULT_RAW)
    while True:
        order = keys[:]
        rng.shuffle(order)
        for key in order:
            raw = dict(DEFAULT_RAW)
            raw[key] = f"({raw[key]}) {mutation_term(rng, key)}"
            yield key, raw


class MutationCampaign:
    """`run_all` on a seeded stream of single-constant mutant tables."""

    name = "mutation-campaign"
    round_size = len(DEFAULT_RAW)
    reference = "sparse"

    def __init__(self, seed: int):
        for key in DEFAULT_RAW:
            _prefix(key)  # every constant has a pool
        self.reads: dict[str, set[str]] = {}
        self.baseline: dict[str, tuple] = {}
        for suite in SUITE_ORDER:
            table = _RecordingTable(DEFAULT_RAW)
            report = run_suite(suite, SuiteConfig(constants=PaperConstants(raw=table)))
            self.reads[suite] = table.read
            self.baseline[suite] = signature(report)
        self.stream = mutant_stream(seed)
        paper = PaperConstants()
        self.registries = {p: paper.reg_q for p in _QUADRIC_PREFIXES}
        self.registries["w_basis"] = paper.reg_w
        self.default_registry = paper.reg_f3
        self.outcomes = {"killed_by_fail": 0, "error_only": 0, "missed": 0}

    def prepare(self, i):
        key, raw = next(self.stream)
        registry = self.registries.get(_prefix(key), self.default_registry)
        try:
            fano22.parse(raw[key], registry)
        except fano22.ParseError as exc:
            raise Mismatch(f"mutant of {key!r} does not parse: {exc}") from None
        return key, raw

    def warmup(self) -> None:
        """Nothing to do: the set-up has already run every suite."""

    def steps(self, arg):
        key, raw = arg
        return [lambda: run_all(SuiteConfig(constants=PaperConstants(raw=raw)))]

    def check(self, arg, out) -> None:
        key, _ = arg
        reports = out[0]
        check_mutant_report(reports, self.baseline, self.reads, key)
        statuses = {c.status for r in reports for c in r.checks}
        if "fail" in statuses:
            self.outcomes["killed_by_fail"] += 1
        elif "error" in statuses:
            self.outcomes["error_only"] += 1
        else:
            self.outcomes["missed"] += 1

    def final_check(self) -> None:
        pass


#: F3 = P(O + O(-3)): x0, x1 of weight (1,0), y0 of (-3,1), y1 of (0,1)
F3_WEIGHTS = {"x0": (1, 0), "x1": (1, 0), "y0": (-3, 1), "y1": (0, 1)}
SECTION_DEGREE = (2, 3)


class CoreScale:
    """One round over fixed, seeded inputs big enough to show the core layers.

    Sizes: a 210 x 210-term product, a substitution into a 1001-term
    polynomial, an exact division with a 495-term quotient, rank and
    kernel of a 12 x 15 matrix over Q and of a 6 x 8 matrix over Q[v]
    (entries linear in v), and the 30-monomial section space of
    bidegree (2, 3) on F3.
    """

    name = "core-scale"
    round_size = 1
    reference = "core"
    #: points for the Q[v] checks: more than deg_v(M*k) <= 1 + 6
    QV_POINTS = 9

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.rng = rng
        reg = Registry([(n, "coordinate") for n in ("x", "y", "z", "w")])

        def coeff():
            return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 4))

        def dense(degree):
            return Polynomial(reg, {e: coeff() for e in itertools.product(range(degree + 1), repeat=4)
                                    if sum(e) <= degree})

        x, y, z, w = (reg.var(n) for n in "xyzw")
        self.f, self.g = dense(6), dense(6)
        self.h = dense(10)
        self.images = {"x": x + coeff(), "y": y + z.scale(coeff())}
        quotient = dense(8)
        self.divisor = (x * y).scale(coeff()) + y.scale(coeff()) - z * w \
            + w.scale(coeff()) + reg.const(coeff()) + x.scale(coeff())
        self.dividend = quotient * self.divisor
        self.q_rows = [[Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(15)]
                       for _ in range(12)]
        self.q_matrix = ExactMatrix(reg, self.q_rows)
        self.reg_v = Registry([("v", "family-parameter")])
        v = self.reg_v.var("v")
        self.qv_rows = [[v.scale(coeff()) + coeff() for _ in range(8)] for _ in range(6)]
        self.qv_matrix = ExactMatrix(self.reg_v, self.qv_rows)
        self.reg_f3 = Registry([(n, "coordinate") for n in F3_WEIGHTS])
        self.grading = Grading(self.reg_f3, F3_WEIGHTS)
        self.expected = None

    def prepare(self, i):
        return None

    def _sections(self):
        basis = fano22.monomial_basis(self.reg_f3, self.grading, SECTION_DEGREE, list(F3_WEIGHTS))
        return SectionSpace(self.reg_f3, basis, SECTION_DEGREE, self.grading).basis

    def steps(self, arg):
        """One call per kind, in the order of STEPS."""
        return [
            lambda: self.f * self.g,
            lambda: self.h.substitute(self.images),
            lambda: self.dividend.exact_divide(self.divisor),
            self.q_matrix.rank,
            self.q_matrix.kernel,
            self.qv_matrix.rank,
            self.qv_matrix.kernel,
            self._sections,
        ]

    STEPS = ("product", "substituted", "quotient", "q_rank", "q_kernel",
             "qv_rank", "qv_kernel", "sections")

    @classmethod
    def as_text(cls, out) -> dict:
        def text(value):
            if isinstance(value, list):
                return [text(v) for v in value]
            return value if value is None or isinstance(value, int) else format_poly(value)

        return {name: text(value) for name, value in zip(cls.STEPS, out)}

    def warmup(self) -> None:
        self.check(None, [step() for step in self.steps(None)])

    def check(self, arg, out) -> None:
        text = self.as_text(out)
        if self.expected is None:
            self.check_outputs(text)
            self.expected = text
        elif text != self.expected:
            raise Mismatch("a round's outputs differ from the first round's")

    def check_outputs(self, text) -> None:
        rng = self.rng
        fmt = format_poly
        points = [oracle.random_point(rng, "xyzw") for _ in range(3)]
        oracle.check_product(fmt(self.f), fmt(self.g), text["product"], points)
        oracle.check_substitution(fmt(self.h), {n: fmt(p) for n, p in self.images.items()},
                                  text["substituted"], points)
        oracle.check_quotient(fmt(self.dividend), fmt(self.divisor), text["quotient"], points)
        q_rows = [[str(e) for e in row] for row in self.q_rows]
        oracle.check_kernel(q_rows, text["q_kernel"], text["q_rank"], [{}])
        qv_rows = [[fmt(e) for e in row] for row in self.qv_rows]
        qv_points = [oracle.random_point(rng, "v") for _ in range(self.QV_POINTS)]
        oracle.check_kernel(qv_rows, text["qv_kernel"], text["qv_rank"], qv_points)
        oracle.check_section_basis(text["sections"], SECTION_DEGREE, rng)

    def final_check(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperVerify, MutationCampaign, CoreScale)}
