"""Deformed Izergin determinants, their partition-sum expansions, and the
residue machinery.

Each determinant K^(z)(u|v) exists in two printed representations: one of
size #v (total in z) and one of size #u carrying a (1-z)^(m-n) prefactor that
is undefined at z = 1 unless the cardinalities match. The conjugated variant
equals the plain one with c negated but is computed from its own determinant,
so the two routes stay independent and can be checked against each other.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .errors import CardinalityError, DegenerateError, PoleError, VariantUndefined
# det is no longer called here, but stays bound as izergin.det: the tracer
# in perfbench/ wraps it under this name.
from .linalg import clear_denominators, det, det_int  # noqa: F401
from .partitions import bits_of, split_sum
from .ratfunc import rational_interpolate
from .scalars import (Rat, SpectralSet, f_pair, h_pair, is_generic, kernel_f,
                      set_product)

__all__ = [
    "mod_izergin", "conj_mod_izergin", "ordinary_izergin",
    "izergin_partition_sum", "izergin_convolution", "izergin_deformation_sum",
    "residue_check", "rational_interpolate", "rat_pow", "DetTables", "FTable",
]


def rat_pow(base, exp: int) -> Rat:
    """base**exp for integer exp; 0**0 = 1, negative powers of 0 raise."""
    base = Rat(base)
    if exp == 0:
        return Rat(1)
    if base == 0 and exp < 0:
        raise ZeroDivisionError("negative power of zero")
    return base ** exp


# The direct determinants below assemble their rows in integers. Each value
# is read once as a (value, numerator, denominator) triple; every kernel is
# an unreduced integer pair from f_pair or h_pair; and a row is written as
# integers over one row denominator, so each determinant builds one rational.

def _parts(values) -> list:
    """Each value with its numerator and denominator, read once."""
    return [(x, x.numerator, x.denominator) for x in values]


def _f_prod(pairs, cn, cd) -> tuple:
    """Product of f(a, b) over pairs of triples, as an integer pair reduced
    by one gcd; PoleError("f", a, b) at the first pair with a = b."""
    num = den = 1
    for (a, an, ad), (b, bn, bd) in pairs:
        pn, pd = f_pair(an * bd - bn * ad, ad * bd, cn, cd)
        if not pd:
            raise PoleError("f", a, b)
        num *= pn
        den *= pd
    g = gcd(num, den)
    return num // g, den // g


def _inv_h_pair(left, right, cn, cd) -> tuple:
    """1 / h(a, b) for two triples as an integer pair; PoleError("1/h", a, b)
    where h = 0."""
    a, an, ad = left
    b, bn, bd = right
    hn, hd = h_pair(an * bd - bn * ad, ad * bd, cn, cd)
    if not hn:
        raise PoleError("1/h", a, b)
    return hd, hn


def _inv_h(a, b, c) -> Rat:
    """1 / h(a, b); raises PoleError where h = 0 (a - b = -c)."""
    left, right = _parts((a, b))
    return Rat(*_inv_h_pair(left, right, c.numerator, c.denominator))


def _row(scale, diag, inv_h, j) -> tuple:
    """The row scale * inv_h[k], plus diag at k = j, as integers over one
    denominator: returns (row, denominator). Every argument is an integer
    pair; inv_h[j] is (1, 1)."""
    sn, sd = scale
    tn, td = diag
    common = lcm(td, *[d for _, d in inv_h])
    row = [sn * n * (common // d) for n, d in inv_h]
    row[j] += tn * sd * (common // td)
    return row, sd * common


def _u_side_prefactor(zn, zd, n, m) -> tuple:
    """(1 - z)^(m-n) as an integer pair; VariantUndefined at z = 1 when the
    cardinalities differ."""
    if zn == zd and m != n:
        raise VariantUndefined(
            "u-side representation carries (1-z)^(m-n) and is undefined "
            f"at z=1 with m={m}, n={n}; use the v-side")
    num, den = zd - zn, zd
    if m < n:
        num, den = den, num
    return num ** abs(m - n), den ** abs(m - n)


def mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                variant: str = "v-side") -> Rat:
    """Deformed Izergin determinant K^(z)(u_set | v_set).

    variant 'v-side' is the #v-sized determinant, defined for every z;
    'u-side' is the #u-sized determinant with the (1-z)^(m-n) prefactor and
    raises VariantUndefined at z = 1 when the cardinalities differ.
    """
    z, c = Rat(z), Rat(c)
    zn, zd, cn, cd = z.numerator, z.denominator, c.numerator, c.denominator
    u, v = _parts(u_set.values), _parts(v_set.values)
    rows, den = [], 1
    if variant == "v-side":
        for j, vj in enumerate(v):
            base = _f_prod([(a, vj) for a in u]
                           + [(vj, b) for t, b in enumerate(v) if t != j], cn, cd)
            inv_h = [(1, 1) if k == j else _inv_h_pair(vj, vk, cn, cd)
                     for k, vk in enumerate(v)]
            row, row_den = _row(base, (-zn, zd), inv_h, j)
            rows.append(row)
            den *= row_den
        return Rat(det_int(rows), den)
    if variant == "u-side":
        num, den = _u_side_prefactor(zn, zd, len(u), len(v))
        for j, uj in enumerate(u):
            diag = _f_prod([(uj, b) for b in v], cn, cd)
            off_n, off_d = _f_prod([(uj, a) for t, a in enumerate(u) if t != j],
                                   cn, cd)
            inv_h = [(1, 1) if k == j else _inv_h_pair(uj, uk, cn, cd)
                     for k, uk in enumerate(u)]
            row, row_den = _row((-zn * off_n, zd * off_d), diag, inv_h, j)
            rows.append(row)
            den *= row_den
        return Rat(num * det_int(rows), den)
    raise ValueError(f"unknown variant {variant!r}")


def conj_mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                     variant: str = "v-side") -> Rat:
    """Conjugated deformed Izergin determinant (equals mod_izergin with c -> -c).

    Computed from its own determinant representation rather than by negating
    c, so the defining relation stays a checkable identity.
    """
    z, c = Rat(z), Rat(c)
    zn, zd, cn, cd = z.numerator, z.denominator, c.numerator, c.denominator
    u, v = _parts(u_set.values), _parts(v_set.values)
    rows, den = [], 1
    if variant == "v-side":
        for j, vj in enumerate(v):
            base = _f_prod([(vj, a) for a in u]
                           + [(b, vj) for t, b in enumerate(v) if t != j], cn, cd)
            inv_h = [(1, 1) if k == j else _inv_h_pair(vk, vj, cn, cd)
                     for k, vk in enumerate(v)]
            row, row_den = _row(base, (-zn, zd), inv_h, j)
            rows.append(row)
            den *= row_den
        return Rat(det_int(rows), den)
    if variant == "u-side":
        num, den = _u_side_prefactor(zn, zd, len(u), len(v))
        for j, uj in enumerate(u):
            diag = _f_prod([(b, uj) for b in v], cn, cd)
            off_n, off_d = _f_prod([(a, uj) for t, a in enumerate(u) if t != j],
                                   cn, cd)
            inv_h = [(1, 1) if k == j else _inv_h_pair(uk, uj, cn, cd)
                     for k, uk in enumerate(u)]
            row, row_den = _row((-zn * off_n, zd * off_d), diag, inv_h, j)
            rows.append(row)
            den *= row_den
        return Rat(num * det_int(rows), den)
    raise ValueError(f"unknown variant {variant!r}")


def ordinary_izergin(u_set: SpectralSet, v_set: SpectralSet, c,
                     conjugated: bool = False) -> Rat:
    """Undeformed Izergin determinant; requires equal cardinalities."""
    if len(u_set) != len(v_set):
        raise CardinalityError(
            f"ordinary determinant needs #u = #v, got {len(u_set)} and {len(v_set)}")
    fn = conj_mod_izergin if conjugated else mod_izergin
    return fn(Rat(1), u_set, v_set, c, variant="v-side")


def _term(zn, zd, k, *pairs) -> Rat:
    """(zn/zd)**k times the product of integer (numerator, denominator)
    pairs, as one rational."""
    num, den = zn ** k, zd ** k
    for a, b in pairs:
        num *= a
        den *= b
    return Rat(num, den)


def izergin_partition_sum(z, u_set: SpectralSet, v_set: SpectralSet, c,
                          side: str = "v-partitions",
                          conjugated: bool = False) -> Rat:
    """Sum-over-partitions expansion equal to the corresponding determinant.

    'v-partitions' splits v_set; 'u-partitions' splits u_set and carries the
    (1-z)^(m-n) prefactor (undefined at z=1 when cardinalities differ, like
    the u-side determinant). The f weights come from kernel tables built
    once per sum.
    """
    z, c = Rat(z), Rat(c)
    u, v = u_set.values, v_set.values
    n, m = len(u), len(v)
    zn, zd = -z.numerator, z.denominator
    if side == "v-partitions":
        within = FTable(c, v)
        if conjugated:
            across = FTable(c, v, u)   # f(v1, u) f(v2, v1)

            def v_term(mask1, mask2):
                v1, v2 = list(bits_of(mask1)), list(bits_of(mask2))
                return _term(zn, zd, len(v2), across.pair(v1, range(n)),
                             within.pair(v2, v1))
        else:
            across = FTable(c, u, v)   # f(u, v1) f(v1, v2)

            def v_term(mask1, mask2):
                v1, v2 = list(bits_of(mask1)), list(bits_of(mask2))
                return _term(zn, zd, len(v2), across.pair(range(n), v1),
                             within.pair(v1, v2))

        return split_sum(m, 2, v_term)
    if side == "u-partitions":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-partition expansion carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}")
        within = FTable(c, u)
        if conjugated:
            across = FTable(c, v, u)   # f(v, u2) f(u2, u1)

            def u_term(mask1, mask2):
                u1, u2 = list(bits_of(mask1)), list(bits_of(mask2))
                return _term(zn, zd, len(u1), across.pair(range(m), u2),
                             within.pair(u2, u1))
        else:
            across = FTable(c, u, v)   # f(u2, v) f(u1, u2)

            def u_term(mask1, mask2):
                u1, u2 = list(bits_of(mask1)), list(bits_of(mask2))
                return _term(zn, zd, len(u1), across.pair(u2, range(m)),
                             within.pair(u1, u2))

        return rat_pow(1 - z, m - n) * split_sum(n, 2, u_term)
    raise ValueError(f"unknown side {side!r}")


def izergin_convolution(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                        xi_set: SpectralSet, c, conjugated: bool = False) -> Rat:
    """Convolution sum over splits of xi_set pairing two determinants.

    Contract: equals the single determinant at deformation z1*z2 on the merged
    left set {u_set, v_set}. The determinants and f weights of each term come
    from unshifted DetTables, so the sum never calls the direct determinant.
    """
    z1, z2 = Rat(z1), Rat(z2)
    left = DetTables(u_set.values, xi_set.values, c, shift=0)
    right = DetTables(v_set.values, xi_set.values, c, shift=0)
    if conjugated:
        k_left, k_right = left.k_minus_conj_pair, right.k_minus_conj_pair
    else:
        k_left, k_right = left.k_plus_pair, right.k_plus_pair

    def conv_term(mask1, mask2):
        x1, x2 = list(bits_of(mask1)), list(bits_of(mask2))
        if conjugated:   # f(x1, x2) f(x2, u)
            weights = left.f_between_pair(x1, x2), left.f_u_conj_pair(x2)
        else:            # f(x2, x1) f(u, x2)
            weights = left.f_between_pair(x2, x1), left.f_u_pair(x2)
        return _term(z2.numerator, z2.denominator, len(x1), k_left(z1, x1),
                     k_right(z2, x2), *weights)

    return split_sum(len(xi_set), 2, conv_term)


def izergin_deformation_sum(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                            c, conjugated: bool = False) -> Rat:
    """Deformation-shifting sum over splits of v_set.

    Contract: equals the determinant at deformation z2 - z1. The
    determinants and f weights come from unshifted DetTables.
    """
    z1, z2 = Rat(z1), Rat(z2)
    tables = DetTables(u_set.values, v_set.values, c, shift=0)
    k = tables.k_minus_conj_pair if conjugated else tables.k_plus_pair

    def shift_term(mask1, mask2):
        v1, v2 = list(bits_of(mask1)), list(bits_of(mask2))
        weight = (tables.f_between_pair(v2, v1) if conjugated
                  else tables.f_between_pair(v1, v2))
        return _term(z1.numerator, z1.denominator, len(v2), k(z2, v1), weight)

    return split_sum(len(v_set), 2, shift_term)


def residue_check(z, u_set: SpectralSet, v_set: SpectralSet, c,
                  conjugated: bool = False):
    """Exactly extract the residue of K^(z) at the collision u_n -> v_m.

    Sets u_n = v_m + eps, interpolates eps -> (eps/c) * K^(z) (analytic at 0
    for a simple pole), evaluates the interpolant at 0, and compares with the
    predicted product f(u-rest, v_m) * f(v_m, v-rest) * K^(z) on the reduced
    sets. Returns (limit_value, predicted_value); equality is the test.

    The conjugated flag runs the identical procedure with c negated, which is
    the conjugated-determinant residue statement.
    """
    n, m = len(u_set), len(v_set)
    if n < 1 or m < 1:
        raise CardinalityError("residue check needs nonempty sets on both sides")
    c_eff = -Rat(c) if conjugated else Rat(c)
    u_rest = SpectralSet(u_set.values[:-1], u_set.label)
    v_m = v_set[m - 1]
    v_rest = v_set.without(m - 1)

    degree = 2 * (n + m)
    fit_count, holdout_count = 4 * (n + m) + 3, 3
    samples = []
    t = 0
    while len(samples) < fit_count + holdout_count:
        t += 1
        if t > 40 * (fit_count + holdout_count):
            raise DegenerateError("could not find enough generic sample offsets")
        eps = Rat(1, 997 + t)
        u_probe = (v_m + eps,)
        if not is_generic(c_eff, u_rest, u_probe, v_set):
            continue
        u_full = SpectralSet(u_rest.values + u_probe)
        samples.append((eps, eps / c_eff * mod_izergin(z, u_full, v_set, c_eff)))

    fn = rational_interpolate(samples[:fit_count], degree)
    for x, y in samples[fit_count:]:
        if fn(x) != y:
            raise DegenerateError("held-out sample not reproduced by the interpolant")
    try:
        limit_value = fn(0)
    except PoleError as exc:
        raise DegenerateError(
            "interpolant has a pole at 0; the collision is not a simple pole "
            "(remaining parameters are non-generic)") from exc

    predicted = (set_product("f", u_rest, v_m, c_eff)
                 * set_product("f", v_m, v_rest, c_eff)
                 * mod_izergin(z, u_rest, v_rest, c_eff))
    return limit_value, predicted


class FTable:
    """f(a, b) for a in `left` and b in `right`, read through kernel_f once
    and kept as integer numerator and denominator tables, one row per a.

    With `right` omitted the pairs are those of `left` with itself, and the
    diagonal, where f has its pole, is 1. Products over index lists are
    plain integer products, so a partition sum can multiply a whole term in
    integers and build one rational per term.
    """

    def __init__(self, c, left, right=None):
        same = right is None
        right = left if same else right
        one = Rat(1)
        self.num, self.den = _ints(
            [[one if same and i == j else kernel_f(a, b, c)
              for j, b in enumerate(right)] for i, a in enumerate(left)])

    def pair(self, rows, cols) -> tuple:
        """Product of f over rows x cols (index lists) as an unreduced
        (numerator, denominator) pair."""
        num = den = 1
        for i in rows:
            fn, fd = self.num[i], self.den[i]
            for j in cols:
                num *= fn[j]
                den *= fd[j]
        return num, den


class _Side:
    """Integer kernel tables behind one of the two determinants of DetTables.

    Every kernel value is stored as the numerator and denominator of its
    reduced fraction, so products over a subset are plain integer products.
    Index j runs over the ground set and i over the left set u; for the
    conjugated side every table is transposed, so that both determinants
    share one row assembly.
    """

    def __init__(self, fu, fpair, h, uoff):
        self.fu_num, self.fu_den = fu      # f(u_i, xi_t + s) or f(xi_t - s, u_i)
        self.f_num, self.f_den = fpair     # f(xi_j, xi_t); 1 at t = j
        # the row factor f(u-set, xi_j + s), or f(xi_j - s, u-set)
        self.row_num, self.row_den = [], []
        for j in range(len(fpair[0])):
            num = den = 1
            for fn, fd in zip(*fu):
                num *= fn[j]
                den *= fd[j]
            g = gcd(num, den)
            self.row_num.append(num // g)
            self.row_den.append(den // g)
        self.h_rows, self.h_den = h  # 1/h(xi_j, xi_k), or its transpose
        self.uoff = uoff  # u-indexed off-diagonal parts, or None
        self.zcache: dict = {}

    def scaled_off(self, z):
        """z * uoff as integer rows and row denominators, plus the
        numerator and denominator of 1 - z; cached per deformation value."""
        key = (z.numerator, z.denominator)
        hit = self.zcache.get(key)
        if hit is None:
            off = clear_denominators([[z * x for x in row] for row in self.uoff])
            hit = (*off, z.denominator - z.numerator, z.denominator)
            self.zcache[key] = hit
        return hit

    def row_pair(self, idx) -> tuple:
        """Product of the row factors over idx, as an unreduced pair."""
        num = den = 1
        for j in idx:
            num *= self.row_num[j]
            den *= self.row_den[j]
        return num, den


def _ints(table):
    """Numerators and denominators of a table of rationals, as two tables."""
    return ([[x.numerator for x in row] for row in table],
            [[x.denominator for x in row] for row in table])


def _transposed(pair):
    """Both tables of a (numerators, denominators) pair, transposed."""
    return tuple([list(col) for col in zip(*table)] for table in pair)


class DetTables:
    """Cached pairwise kernels for repeated determinant evaluation on subsets.

    Fixes a left set u, a ground list of values xi and a shift s once, then
    evaluates K^(z)(u | xi_S + s) and its conjugate K-bar^(z)(u | xi_S - s)
    for many subsets S without recomputing pairwise kernels. The shift is c
    unless given: s = c gives the SPfin determinants, and s = 0 the
    unshifted determinants of the convolution and deformation sums. The
    kernels of shifted pairs reduce to unshifted ones because f and h depend
    only on argument differences.

    The kernels are kept as integer (numerator, denominator) tables. Each
    determinant row is assembled from them directly as integers over one
    denominator per row, with no gcd per entry, and the integer matrix goes
    to `linalg.det_int`. The `*_pair` methods return the unreduced
    (numerator, denominator) of a value, so that a partition sum can multiply
    a whole term in integers and build one rational per term; `k_plus`,
    `k_minus_conj` and `f_between` return the reduced rational.
    """

    def __init__(self, u_values, ground_values, c, shift=None):
        self.c = Rat(c)
        self._u = [Rat(x) for x in u_values]
        self._g = [Rat(x) for x in ground_values]
        self._s = self.c if shift is None else Rat(shift)
        self.size = len(self._g)
        self.n_left = len(self._u)
        self._f = FTable(self.c, self._g)
        hinv = [[_inv_h(a, b, self.c) for b in self._g] for a in self._g]
        # 1/h(xi_j, xi_k) as integer rows over one denominator per row, for
        # each half (the conjugated half reads the transpose)
        self._h = (clear_denominators(hinv),
                   clear_denominators(list(zip(*hinv))))

    def __getstate__(self):
        """Both halves are built before pickling, so that each pool worker
        receives the tables instead of building its own."""
        _ = self._plus, self._minus
        return self.__dict__

    # Each determinant's tables are built on its first use: a sum that
    # needs only K or only K-bar builds only that half.

    @cached_property
    def _plus(self) -> _Side:
        fu = FTable(self.c, self._u, [x + self._s for x in self._g])
        return _Side((fu.num, fu.den), (self._f.num, self._f.den), self._h[0],
                     self._u_off(conjugated=False))

    @cached_property
    def _minus(self) -> _Side:
        fu = FTable(self.c, [x - self._s for x in self._g], self._u)
        return _Side(_transposed((fu.num, fu.den)),
                     _transposed((self._f.num, self._f.den)), self._h[1],
                     self._u_off(conjugated=True))

    def _u_off(self, conjugated: bool):
        """The u-indexed off-diagonal parts f(u_j, u-rest) / h(u_j, u_k), or
        their conjugates; None where two values of u collide (f or 1/h has a
        pole between them), since only the ground-indexed rows are defined
        there."""
        c, u = self.c, self._u

        def oriented(a, b):
            return (b, a) if conjugated else (a, b)

        rows = []
        try:
            for j, uj in enumerate(u):
                comp = Rat(1)
                for t, ut in enumerate(u):
                    if t != j:
                        comp *= kernel_f(*oriented(uj, ut), c)
                rows.append([comp * _inv_h(*oriented(uj, uk), c) for uk in u])
        except PoleError:
            return None
        return rows

    def _k_pair(self, side: _Side, z, idx):
        """(numerator, denominator) of the determinant over the subset idx.

        Each row is its rational row times one integer, the product of the
        subset product's denominator and a fixed row denominator. Only the
        subset product is reduced, by one gcd per row; that keeps the
        entries small for the elimination without a gcd per entry.
        """
        n = self.n_left
        s = len(idx)
        rows = []
        if s > n and z != 1 and side.uoff is not None:
            # u-indexed representation: fixed size n, cheaper for large S
            off, off_den, pre_num, pre_den = side.scaled_off(z)
            num, den = pre_num ** (s - n), pre_den ** (s - n)
            for j in range(n):
                dn = dd = 1
                fn, fd = side.fu_num[j], side.fu_den[j]
                for t in idx:
                    dn *= fn[t]
                    dd *= fd[t]
                g = gcd(dn, dd)
                dn //= g
                dd //= g
                row = [-dd * x for x in off[j]]
                row[j] += dn * off_den[j]
                rows.append(row)
                den *= dd * off_den[j]
            return num * det_int(rows), den
        zn, zd = z.numerator, z.denominator
        den = 1
        for pos, j in enumerate(idx):
            bn, bd = side.row_num[j], side.row_den[j]
            fn, fd = side.f_num[j], side.f_den[j]
            for t in idx:
                bn *= fn[t]
                bd *= fd[t]
            g = gcd(bn, bd)
            bn = bn // g * zd
            bd //= g
            hrow, hden = side.h_rows[j], side.h_den[j]
            row = [bn * hrow[k] for k in idx]
            row[pos] -= zn * bd * hden
            rows.append(row)
            den *= zd * bd * hden
        return det_int(rows), den

    def k_plus_pair(self, z, idx):
        """K^(z)(u | xi_S + s) as an unreduced (numerator, denominator) pair,
        for the subset S given as a list of ground indices."""
        return self._k_pair(self._plus, Rat(z), idx)

    def k_minus_conj_pair(self, z, idx):
        """Conjugated K-bar^(z)(u | xi_S - s) as an unreduced pair."""
        return self._k_pair(self._minus, Rat(z), idx)

    def f_between_pair(self, idx_left, idx_right):
        """f(xi_L, xi_R) as an unreduced (numerator, denominator) pair."""
        return self._f.pair(idx_left, idx_right)

    def f_u_pair(self, idx):
        """f(u, xi_S + s) as an unreduced pair."""
        return self._plus.row_pair(idx)

    def f_u_conj_pair(self, idx):
        """f(xi_S - s, u) as an unreduced pair."""
        return self._minus.row_pair(idx)

    def k_plus(self, z, mask: int) -> Rat:
        """K^(z)(u | xi_S + s) for the subset S given as a bitmask."""
        return Rat(*self.k_plus_pair(z, list(bits_of(mask))))

    def k_minus_conj(self, z, mask: int) -> Rat:
        """Conjugated K-bar^(z)(u | xi_S - s) for the subset S."""
        return Rat(*self.k_minus_conj_pair(z, list(bits_of(mask))))

    def f_between(self, mask_left: int, mask_right: int) -> Rat:
        """f(xi_L, xi_R) for two disjoint subset masks (shift-invariant)."""
        return Rat(*self.f_between_pair(list(bits_of(mask_left)),
                                        list(bits_of(mask_right))))
