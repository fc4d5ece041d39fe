"""Exact dense linear algebra over the rationals.

Matrices are plain lists of lists of rationals. Determinants run through
fraction-free Bareiss elimination on integer rows (`det_int`), which bounds
intermediate entry growth; pivoting picks the first nonzero entry, so results
are bit-for-bit deterministic. `det` clears a rational matrix into integer
rows with `clear_denominators`; `izergin.DetTables` assembles its rows as
integers and calls `det_int` directly. `principal_minors` tabulates the 2^n
principal minors of an integer matrix, for the expansion of a determinant
by multilinearity in its rows (`izergin._KBlocks`).
"""

from __future__ import annotations

from math import gcd, prod

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


def mat_mul(a, b):
    """Exact product a b: Gustavson's row-wise product on integers.

    Each row of a is cleared to integers over the lcm of its denominators,
    and each column of b over its own. The nonzero entries of a row of a
    then meet only the nonzero entries of the matching rows of b, so a zero
    in either factor costs nothing, and one rational is built per nonzero
    entry of the product. A right factor with no rows has no column count,
    so its product has no columns.
    """
    cols = len(b[0]) if b else 0
    bcols, col_dens = clear_denominators(list(zip(*b)))
    nonzero = [[(j, col[k]) for j, col in enumerate(bcols) if col[k]]
               for k in range(len(b))]
    arows, row_dens = clear_denominators(a)
    out = []
    for arow, row_den in zip(arows, row_dens):
        acc = [0] * cols
        for x, brow in zip(arow, nonzero, strict=True):
            if x:
                for j, y in brow:
                    acc[j] += x * y
        out.append([Rat(s, row_den * d) if s else ZERO
                    for s, d in zip(acc, col_dens)])
    return out


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
