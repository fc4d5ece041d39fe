"""Exact determinants and the nullspace solver."""

import random

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
