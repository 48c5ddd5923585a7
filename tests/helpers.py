"""Helpers that several test modules share.

A test module imports these from here and never from another test
module, so that an import error in one test module cannot stop another
from being collected.
"""

from math import lcm

from fano22.poly import Polynomial, _canon


class RecordingRaw(dict):
    """A raw table that records every key read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def solution(matrix, rhs):
    """The x with matrix x = rhs and free unknowns 0, through `ExactMatrix._solve`, or None.

    rhs holds scalars or polynomials; their numerators go in over their
    common denominator, and x_c comes back over it times the pivot d.
    """
    reg = matrix.registry
    polys = [p if isinstance(p, Polynomial) else reg.const(p) for p in rhs]
    den = lcm(*[p._den for p in polys])
    pairs = matrix._solve([{k: v * (den // p._den) for k, v in p._terms.items()}
                           for p in polys])
    if pairs is None:
        return None
    x = [reg.zero] * matrix.ncols
    for c, numerators in pairs:
        if numerators:
            x[c] = _canon(reg, numerators, den * matrix._augmented()[2])
    return x


def near_monomial_shapes(rng, entry, zero):
    """Near-monomial matrices of `entry()`s, about one nonzero per row: the
    shapes where a pivot step of the elimination skips most rows, and rows
    wait at an earlier pivot until they are updated or become pivot rows."""
    def dense(nrows, ncols):
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]

    def permutation_diagonal(n):
        perm = rng.sample(range(n), n)
        return [[entry() if j == perm[i] else zero for j in range(n)] for i in range(n)]

    def one_per_column(nrows, ncols):
        rows = [[zero] * ncols for _ in range(nrows)]
        for j in range(ncols):
            rows[rng.randrange(nrows)][j] = entry()
        return rows

    def block_diagonal(*blocks):
        ncols = sum(len(b[0]) for b in blocks)
        rows, left = [], 0
        for b in blocks:
            width = len(b[0])
            rows += [[zero] * left + row + [zero] * (ncols - left - width) for row in b]
            left += width
        return rows

    def staircase(n, offsets):
        """Row i nonzero in column i + o for each o: a row waits between its nonzeros."""
        return [[entry() if j - i in offsets else zero for j in range(n)] for i in range(n)]

    cases = [permutation_diagonal(n) for n in (1, 4, 6, 7)]
    # tall, one nonzero per column, in the paper's shapes: 12 x 7, 7 x 6, 5 x 7
    cases += [one_per_column(12, 7), one_per_column(7, 6), one_per_column(5, 7),
              one_per_column(6, 3)]
    # the rows of the later blocks keep zero heads through the earlier blocks' steps
    cases.append(block_diagonal(dense(3, 3), permutation_diagonal(3)))
    cases.append(block_diagonal(permutation_diagonal(2), dense(3, 4), one_per_column(3, 2)))
    cases.append(block_diagonal(dense(2, 3), dense(3, 2), dense(2, 2)))
    cases += [staircase(6, (0, 2)), staircase(6, (-2, 0)), staircase(7, (-3, 0, 1, 3))]
    # rank-deficient: a zero row, a repeated row, a repeated and a zero column
    square = permutation_diagonal(5)
    cases.append([square[0], [zero] * 5, square[2], square[0], square[4]])
    cases.append([row[:2] + [row[1]] + [zero] + row[3:] for row in staircase(5, (0, 1))])
    cases.append(block_diagonal(dense(2, 3), [[zero, zero]], permutation_diagonal(2)))
    # sparse random: one or two nonzeros per row
    for _ in range(12):
        nrows, ncols = rng.randint(2, 9), rng.randint(2, 9)
        rows = [[zero] * ncols for _ in range(nrows)]
        for row in rows:
            for j in rng.sample(range(ncols), rng.randint(1, min(2, ncols))):
                row[j] = entry()
        cases.append(rows)
    return cases


def check_reduced_pivot_rows(matrix):
    """After the Gauss–Jordan reduction every pivot row's pivot entry is the last
    pivot d and its other pivot columns are 0; so for the augmented one."""
    for augment in (False, True) if matrix._seen == 0 else (False,):
        m, pivots, d, _, _ = matrix._reduce(back=True, augment=augment)
        assert pivots == matrix._reduce(back=False)[1]
        for k, c in enumerate(pivots):
            assert [m[k][j] for j in pivots] == [d if j == c else 0 for j in pivots]
