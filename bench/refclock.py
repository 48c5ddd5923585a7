"""The reference computations that put every benchmark time at reference speed.

On a shared virtual CPU each core can run up to about 2x slower for long
stretches, so raw times from two runs of the same code can differ by far
more than any bound worth gating.  Each timed step is therefore run
between two runs of a fixed computation, and scaled by

    nominal time / mean of the two measured reference times.

The computations use only the standard library and share no code with
`fano22`, so a change to the program cannot change them.  `sparse` is a
product of two fixed polynomials with `Fraction` coefficients, accumulated
with the get / add / pop-on-zero dict churn of the program's own multiply,
then a dict-copying sum like its `substitute`: the mix of the suites.
`core` adds big-integer elimination and accumulator copies, the mix of
large-input work, which slows less than small-object churn on a loaded
host.

A fresh process does not slow down like a warm one: interpreter start,
imports and first-touch page faults scale less than warm arithmetic.  So
a time measured from outside a fresh process (a cold CLI start, a set-up)
is paired instead with reference spawns, fresh interpreters running the
sparse computation, and scaled by NOMINAL_SPAWN_MS over their wall time.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: median time of `reference_work()` on a quiet 2-vCPU x86-64 VM
#: (Python 3.11.7); the unit every scaled time is expressed in
NOMINAL_MS = 3.55

#: nominal time of `core_work()`: its median over the median of
#: `reference_work()`, measured interleaved, times NOMINAL_MS
NOMINAL_CORE_MS = 7.9

#: runs of the computation in a reference spawn: a fresh interpreter that
#: imports this module and calls `spawn_work()`
SPAWN_REPS = 4

#: nominal wall time of a reference spawn: like NOMINAL_MS it fixes the
#: unit; about the quiet-VM time, extrapolated from loaded periods
NOMINAL_SPAWN_MS = 70.0

_ZERO = Fraction(0)


def _fixed_poly(rng: random.Random, nterms: int, nvars: int, maxdeg: int) -> dict:
    terms: dict[tuple[int, ...], Fraction] = {}
    while len(terms) < nterms:
        expo = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        terms[expo] = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 12))
    return terms


_RNG = random.Random(0x5EED)
_LEFT = _fixed_poly(_RNG, 27, 5, 4)
_RIGHT = _fixed_poly(_RNG, 27, 5, 4)


def reference_work() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    product: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = product.get(e, _ZERO) + c1 * c2
            if s:
                product[e] = s
            else:
                product.pop(e, None)
    total: dict[tuple[int, ...], Fraction] = {}
    for e, c in product.items():
        total = dict(total) if len(total) < 64 else total
        total[e] = total.get(e, _ZERO) + c
    return len(product) + len(total)


_MATRIX = [[Fraction(_RNG.randint(-20, 20), _RNG.randint(1, 6)) + (60 if i == j else 0)
            for j in range(9)] for i in range(9)]


def _bareiss_det() -> Fraction:
    """Fraction-free elimination on a fixed 9 x 9 rational matrix (big integers)."""
    m = [row[:] for row in _MATRIX]
    prev = Fraction(1)
    for k in range(len(m) - 1):
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return m[-1][-1]


def _copying_sum() -> int:
    """A sum that copies its accumulator once per term, like `result = result + term`."""
    total: dict[tuple[int, ...], Fraction] = {}
    for e1 in _LEFT:
        for e2 in list(_RIGHT)[:14]:
            total = dict(total)
            e = tuple(a + b for a, b in zip(e1, e2))
            total[e] = total.get(e, _ZERO) + _LEFT[e1]
    return len(total)


def core_work() -> int:
    """Reference for large-input work: the mix of the core-scale round.

    About half sparse products, a third big-integer elimination and the
    rest accumulator copies, like the round's self times by layer.
    """
    return (reference_work() + sum(_bareiss_det().numerator % 7 for _ in range(3))
            + _copying_sum())


def spawn_work() -> None:
    """The work of a reference spawn, after its interpreter has started."""
    for _ in range(SPAWN_REPS):
        reference_work()


#: reference computation and its nominal time, by name
REFERENCES = {"sparse": (reference_work, NOMINAL_MS), "core": (core_work, NOMINAL_CORE_MS)}


def reference_ms(kind: str = "sparse") -> float:
    """Wall time of one run of a reference computation, in ms."""
    work = REFERENCES[kind][0]
    start = time.perf_counter()
    work()
    return (time.perf_counter() - start) * 1000.0


def speed_scale(samples: list[float], kind: str = "sparse") -> float:
    """Factor taking a raw time measured next to `samples` to reference speed."""
    return REFERENCES[kind][1] / statistics.median(samples)
