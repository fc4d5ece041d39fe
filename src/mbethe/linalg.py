"""Exact dense linear algebra over the rationals.

Matrices are plain lists of lists of rationals. Determinants run through
fraction-free Bareiss elimination on integer rows (`det_int`), which bounds
intermediate entry growth; pivoting picks the first nonzero entry, so results
are bit-for-bit deterministic. `det` clears a rational matrix into integer
rows with `clear_denominators`; `izergin.DetTables` assembles its rows as
integers and calls `det_int` directly. `principal_minors` tabulates the 2^n
principal minors of an integer matrix, for the expansion of a determinant
by multilinearity in its rows (`izergin._KBlocks`).

Matrix products run on integers: `int_mat_mul` is Gustavson's row-wise
product, and `mat_mul` clears a rational product's rows and columns into
it. `clear_matrix` and `rat_matrix` move a matrix to integers over one
denominator and back, which is how the dense operator checks keep every
product of monodromy blocks on integers.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .scalars import ZERO, Rat


def det(matrix) -> Rat:
    """Determinant of a square matrix of rationals or ints; the 0x0
    determinant is 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"det needs a square matrix, got {n} rows of lengths "
                         f"{sorted({len(row) for row in matrix})}")
    rows, dens = clear_denominators(matrix)
    return Rat(det_int(rows), prod(dens))


def clear_denominators(matrix):
    """Each row of a rational matrix as integers over the lcm of the row's
    denominators: returns (integer rows, row denominators). Entries may be
    rationals or ints; only their numerator and denominator are read."""
    rows, dens = [], []
    for row in matrix:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
        dens.append(lcm)
    return rows, dens


def det_int(rows):
    """Determinant of a square integer matrix given as a list of rows.

    Fraction-free Bareiss elimination: every division is exact, so entries
    stay integers whose size grows linearly with the step. The rows are
    overwritten. The 0x0 determinant is 1.
    """
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        rk = rows[k]
        if rk[k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
            rk = rows[k]
        pivot = rk[k]
        rest = range(k + 1, n)
        for i in rest:
            ri = rows[i]
            lead = ri[k]
            if prev == 1:
                for j in rest:
                    ri[j] = pivot * ri[j] - lead * rk[j]
            else:
                for j in rest:
                    ri[j] = (pivot * ri[j] - lead * rk[j]) // prev
            ri[k] = 0
        prev = pivot
    return sign * rows[n - 1][n - 1]


def principal_minors(rows) -> list:
    """The 2^n principal minors of a square integer matrix, indexed by the
    bitmask of the rows (and columns) kept; the empty minor is 1."""
    n = len(rows)
    minors = []
    for mask in range(1 << n):
        kept = [k for k in range(n) if mask >> k & 1]
        minors.append(det_int([[rows[i][k] for k in kept] for i in kept]))
    return minors


def clear_matrix(matrix):
    """A rational matrix as integer rows over one denominator, the lcm of
    its rows' denominators: returns (integer rows, denominator)."""
    rows, dens = clear_denominators(matrix)
    den = lcm(*dens)
    return [[x * (den // d) for x in row] for row, d in zip(rows, dens)], den


def rat_matrix(rows, den):
    """The integer rows over `den` as a rational matrix, one rational built
    per nonzero entry."""
    return [[Rat(x, den) if x else ZERO for x in row] for row in rows]


def int_mat_mul(a, b):
    """Exact product a b of integer matrices: Gustavson's row-wise product.

    The nonzero entries of a row of a meet only the nonzero entries of the
    matching rows of b, so a zero in either factor costs nothing. A right
    factor with no rows has no column count, so its product has no columns.
    """
    cols = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for arow in a:
        acc = [0] * cols
        for x, brow in zip(arow, nonzero, strict=True):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    """Exact product a b of rational matrices, through `int_mat_mul`.

    Each row of a is cleared to integers over the lcm of its denominators,
    and each column of b over its own, and one rational is built per
    nonzero entry of the integer product.
    """
    arows, row_dens = clear_denominators(a)
    col_dens = [lcm(*(x.denominator for x in col)) for col in zip(*b)]
    brows = [[x.numerator * (d // x.denominator) for x, d in zip(row, col_dens)]
             for row in b]
    return [[Rat(s, row_den * d) if s else ZERO for s, d in zip(row, col_dens)]
            for row, row_den in zip(int_mat_mul(arows, brows), row_dens)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(s, a):
    s = Rat(s)
    return [[s * x for x in row] for row in a]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_vec(a, v):
    return [sum((row[k] * v[k] for k in range(len(v))), Rat(0)) for row in a]


def identity(n):
    return [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]


def zeros(rows, cols=None):
    cols = rows if cols is None else cols
    return [[Rat(0) for _ in range(cols)] for _ in range(rows)]


def kron(a, b):
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = zeros(ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            aij = a[i][j]
            if aij == 0:
                continue
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p][j * cb + q] = aij * b[p][q]
    return out


def nullspace_vector(matrix, ncols):
    """One deterministic nonzero kernel vector of a rational matrix, or None.

    The vector is the one the reduced echelon form fixes under
    first-nonzero pivoting: its first free column f is 1, every other free
    column 0, and each bound entry -R[r][f]. Columns 0..f-1 all hold pivots,
    so elimination stops at f. It runs fraction-free on integer rows
    (Gauss-Jordan with Bareiss' exact division by the previous pivot):
    after each step every pivot equals the latest one, p, so R[r][f] is the
    integer entry at (r, f) over p, and each entry of the vector is built as
    one rational.
    """
    rows, _ = clear_denominators(matrix)
    nrows = len(rows)
    prev = 1
    for col in range(ncols):
        # rows 0..col-1 hold the pivots of columns 0..col-1
        piv = next((i for i in range(col, nrows) if rows[i][col]), None)
        if piv is None:
            break
        rows[col], rows[piv] = rows[piv], rows[col]
        pivot_row = rows[col]
        pivot = pivot_row[col]
        rest = range(col + 1, ncols)
        for i, row in enumerate(rows):
            if i != col:
                lead = row[col]
                for j in rest:
                    row[j] = (pivot * row[j] - lead * pivot_row[j]) // prev
                row[col] = 0
        prev = pivot
    else:
        return None
    vec = [Rat(0)] * ncols
    vec[col] = Rat(1)
    for r in range(col):
        vec[r] = Rat(-rows[r][col], prev)
    return vec
