"""Exact determinants and the nullspace solver."""

import random
from fractions import Fraction

import pytest

from mbethe.linalg import det, identity, kron, mat_eq, mat_mul, nullspace_vector
from mbethe.scalars import Rat


def naive_det(m):
    n = len(m)
    if n == 0:
        return Rat(1)
    if n == 1:
        return m[0][0]
    total = Rat(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += Rat(-1) ** j * m[0][j] * naive_det(minor)
    return total


def test_empty_and_small():
    assert det([]) == 1
    assert det([[Rat(3, 4)]]) == Rat(3, 4)
    assert det([[1, 2], [3, 4]]) == -2


def test_matches_cofactor_expansion():
    rng = random.Random(5)
    for trial in range(15):
        n = rng.randint(1, 5)
        m = [[Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
             for _ in range(n)]
        assert det(m) == naive_det(m)


def test_singular():
    m = [[Rat(1), Rat(2)], [Rat(2), Rat(4)]]
    assert det(m) == 0


def test_pivot_swap_path():
    m = [[Rat(0), Rat(1)], [Rat(1), Rat(0)]]
    assert det(m) == -1


def test_non_square_is_value_error():
    # an assert would vanish under python -O and leave the 2x2 block's -3
    for matrix in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]):
        with pytest.raises(ValueError):
            det(matrix)


def test_kron_det():
    a = [[Rat(2), Rat(1)], [Rat(0), Rat(3)]]
    b = [[Rat(1), Rat(1)], [Rat(1), Rat(2)]]
    assert det(kron(a, b)) == det(a) ** 2 * det(b) ** 2


def test_nullspace_vector():
    m = [[Rat(1), Rat(2), Rat(3)], [Rat(2), Rat(4), Rat(6)]]
    vec = nullspace_vector(m, 3)
    assert vec is not None and any(x != 0 for x in vec)
    for row in m:
        assert sum(a * b for a, b in zip(row, vec)) == 0
    assert nullspace_vector(identity(3), 3) is None


def reference_nullspace_vector(matrix, ncols):
    """Gauss-Jordan elimination on Fractions: the first free column is 1,
    the bound entries are back-substituted."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
        if r == len(rows):
            break
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(ncols) if c not in pivot_cols), None)
    if free is None:
        return None
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for r, col in pivots:
        vec[col] = -rows[r][free]
    return vec


def nullspace_cases(rng):
    """Random, rank-deficient, zero-row, wide and tall matrices."""
    for trial in range(400):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        kind = trial % 5
        if kind == 3:
            nrows = rng.randint(0, max(0, ncols - 1))       # wide
        elif kind == 4:
            nrows = rng.randint(ncols, ncols + 4)            # tall
        m = sparse_matrix(rng, nrows, ncols, (0.0, 0.3, 0.6)[trial % 3])
        if kind == 1 and nrows > 1:                          # rank-deficient
            for i in range(1, nrows):
                a, b = rng.randrange(i), rng.randrange(i)
                k = Rat(rng.randint(-3, 3), rng.randint(1, 3))
                m[i] = [k * x + y for x, y in zip(m[a], m[b])]
        if kind == 2 and nrows:                              # zero rows
            for i in rng.sample(range(nrows), rng.randint(1, nrows)):
                m[i] = [Rat(0)] * ncols
        yield m, ncols


def test_nullspace_matches_reference():
    rng = random.Random(13)
    seen = set()
    for m, ncols in nullspace_cases(rng):
        got = nullspace_vector(m, ncols)
        want = reference_nullspace_vector(m, ncols)
        seen.add(want is None)
        if want is None:
            assert got is None
            continue
        assert [(type(x), x.numerator, x.denominator) for x in got] == [
            (type(x), x.numerator, x.denominator) for x in want]
        for row in m:
            assert sum(a * b for a, b in zip(row, got)) == 0
    assert seen == {True, False}


def test_nullspace_interpolation_system():
    """The shape rational_interpolate solves: powers of the sample points
    beside the samples times those powers."""
    for degree in (2, 3, 6):
        rows = []
        for t in range(2 * degree + 3):
            x = Rat(1, 997 + t)
            y = (3 * x * x - x + 2) / (x + Rat(5, 7))
            powers = [x ** k for k in range(degree + 1)]
            rows.append(powers + [-y * p for p in powers])
        got = nullspace_vector(rows, 2 * degree + 2)
        want = reference_nullspace_vector(rows, 2 * degree + 2)
        assert [(x.numerator, x.denominator) for x in got] == [
            (x.numerator, x.denominator) for x in want]


def test_mat_mul_identity():
    rng = random.Random(9)
    m = [[Rat(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
    assert mat_eq(mat_mul(m, identity(4)), m)


def reference_mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Rat(0))
             for j in range(cols)] for i in range(len(a))]


def sparse_matrix(rng, rows, cols, zero_share):
    return [[Rat(0) if rng.random() < zero_share
             else Rat(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(cols)] for _ in range(rows)]


def test_mat_mul_matches_triple_loop():
    rng = random.Random(11)
    for trial in range(60):
        n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)
        share = (0.0, 0.5, 0.8, 0.95, 1.0)[trial % 5]
        a = sparse_matrix(rng, n, k, share)
        b = sparse_matrix(rng, k, m, share)
        got = mat_mul(a, b)
        want = reference_mat_mul(a, b)
        assert got == want
        assert all(type(x) is Rat for row in got for x in row)


def test_mat_mul_all_zero_and_empty():
    rng = random.Random(12)
    zero = [[Rat(0)] * 3 for _ in range(2)]
    b = sparse_matrix(rng, 3, 4, 0.3)
    assert mat_mul(zero, b) == [[Rat(0)] * 4 for _ in range(2)]
    assert mat_mul(b, [[Rat(0)] * 2 for _ in range(4)]) == [[Rat(0)] * 2] * 3
    # a right factor with no rows carries no column count
    assert mat_mul([[]], []) == reference_mat_mul([[]], []) == [[]]
    assert mat_mul([], b) == []
