"""Deformed Izergin determinants, their partition-sum expansions, and the
residue machinery.

Each determinant K^(z)(u|v) exists in two printed representations: one of
size #v (total in z) and one of size #u carrying a (1-z)^(m-n) prefactor that
is undefined at z = 1 unless the cardinalities match. The conjugated variant
equals the plain one with c negated but is computed from its own determinant,
so the two routes stay independent and can be checked against each other.

Since f(a, b; -c) = f(b, a; c) and h(a, b; -c) = h(b, a; c), the conjugated
determinant reads every kernel with its arguments reversed. That orientation
is one switch, set once per determinant, sum or table: the `conjugated` flag
of the row assemblies (`_v_side`, `_u_side`), of `FTable` and of
`DetTables.side`. So each formula, sum and action term is written once.

A partition-sum term reads every product over a split part by bitmask from
an `FTable` (or those inside `DetTables`) and returns the unreduced integer
pair of their product (`term_pair`); `partitions.split_sum` adds the pairs
and builds one rational per sum.

`DetTables` has two routes to a determinant over a subset mask. `k_pair`
assembles that one determinant from the ground-indexed rows; the block
tables of `_KBlocks` sum the u-indexed expansion over every subset at
once. A sum over splits takes one reader per determinant
(`_Side.reader`), which reads the blocks at z != 1 and `k_pair` where the
expansion does not apply or does not pay (`_Side.k_blocks`).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from math import gcd, lcm, prod

from .errors import CardinalityError, DegenerateError, PoleError, VariantUndefined
# det is no longer called here, but stays bound as izergin.det: the tracer
# in perfbench/ wraps it under this name.
from .linalg import (clear_denominators, det, det_int,  # noqa: F401
                     principal_minors)
from .partitions import split_sum
from .ratfunc import rational_interpolate
from .scalars import (Rat, SpectralSet, f_pair, h_pair, is_generic, kernel_f,
                      set_product)

__all__ = [
    "mod_izergin", "conj_mod_izergin", "ordinary_izergin",
    "izergin_partition_sum", "izergin_convolution", "izergin_deformation_sum",
    "residue_check", "rat_pow", "by_popcount", "term_pair", "DetTables",
    "FTable",
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
# A helper's `conjugated` flag reads f(b, a) and h(b, a) for f(a, b) and
# h(a, b) by flipping the sign of the difference, d = b - a.

def _parts(values) -> list:
    """Each value with its numerator and denominator, read once."""
    return [(x, x.numerator, x.denominator) for x in values]


def _f_prod(pairs, cn, cd, conjugated) -> tuple:
    """Product of f(a, b) over pairs of triples, or of f(b, a) when
    conjugated, as an integer pair reduced by one gcd; PoleError("f") at the
    first pair with a = b, naming it in the order read."""
    num = den = 1
    for (a, an, ad), (b, bn, bd) in pairs:
        dn = bn * ad - an * bd if conjugated else an * bd - bn * ad
        pn, pd = f_pair(dn, ad * bd, cn, cd)
        if not pd:
            raise PoleError("f", *((b, a) if conjugated else (a, b)))
        num *= pn
        den *= pd
    g = gcd(num, den)
    return num // g, den // g


def _inv_h_pair(left, right, cn, cd, conjugated) -> tuple:
    """1 / h(a, b) for two triples, or 1 / h(b, a) when conjugated, as an
    integer pair; PoleError("1/h") where h = 0, naming the pair in the
    order read."""
    a, an, ad = left
    b, bn, bd = right
    dn = bn * ad - an * bd if conjugated else an * bd - bn * ad
    hn, hd = h_pair(dn, ad * bd, cn, cd)
    if not hn:
        raise PoleError("1/h", *((b, a) if conjugated else (a, b)))
    return hd, hn


def _inv_h(a, b, c, conjugated=False) -> Rat:
    """1 / h(a, b), or 1 / h(b, a) when conjugated; raises PoleError where
    h = 0."""
    left, right = _parts((a, b))
    return Rat(*_inv_h_pair(left, right, c.numerator, c.denominator,
                            conjugated))


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


def _v_side(zn, zd, u, v, cn, cd, conjugated) -> tuple:
    """The #v-sized determinant as an integer pair: row j is
    f(u, v_j) f(v_j, v-rest) / h(v_j, v_k), minus z at k = j."""
    rows, den = [], 1
    for j, vj in enumerate(v):
        base = _f_prod([(a, vj) for a in u]
                       + [(vj, b) for t, b in enumerate(v) if t != j],
                       cn, cd, conjugated)
        inv_h = [(1, 1) if k == j else _inv_h_pair(vj, vk, cn, cd, conjugated)
                 for k, vk in enumerate(v)]
        row, row_den = _row(base, (-zn, zd), inv_h, j)
        rows.append(row)
        den *= row_den
    return det_int(rows), den


def _u_side(zn, zd, u, v, cn, cd, conjugated) -> tuple:
    """The #u-sized determinant with its (1-z)^(m-n) prefactor as an integer
    pair: row j is -z f(u_j, u-rest) / h(u_j, u_k), plus f(u_j, v) at
    k = j."""
    num, den = _u_side_prefactor(zn, zd, len(u), len(v))
    rows = []
    for j, uj in enumerate(u):
        diag = _f_prod([(uj, b) for b in v], cn, cd, conjugated)
        off_n, off_d = _f_prod([(uj, a) for t, a in enumerate(u) if t != j],
                               cn, cd, conjugated)
        inv_h = [(1, 1) if k == j else _inv_h_pair(uj, uk, cn, cd, conjugated)
                 for k, uk in enumerate(u)]
        row, row_den = _row((-zn * off_n, zd * off_d), diag, inv_h, j)
        rows.append(row)
        den *= row_den
    return num * det_int(rows), den


_VARIANTS = {"v-side": _v_side, "u-side": _u_side}


def _izergin(z, u_set: SpectralSet, v_set: SpectralSet, c, variant: str,
             conjugated: bool) -> Rat:
    """The determinant of one variant, with every kernel read in the
    orientation of `conjugated`."""
    z, c = Rat(z), Rat(c)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return Rat(*_VARIANTS[variant](z.numerator, z.denominator,
                                   _parts(u_set.values), _parts(v_set.values),
                                   c.numerator, c.denominator, conjugated))


def mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                variant: str = "v-side") -> Rat:
    """Deformed Izergin determinant K^(z)(u_set | v_set).

    variant 'v-side' is the #v-sized determinant, defined for every z;
    'u-side' is the #u-sized determinant with the (1-z)^(m-n) prefactor and
    raises VariantUndefined at z = 1 when the cardinalities differ.
    """
    return _izergin(z, u_set, v_set, c, variant, conjugated=False)


def conj_mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                     variant: str = "v-side") -> Rat:
    """Conjugated deformed Izergin determinant (equals mod_izergin with c -> -c).

    Computed from its own rows, each kernel read with its arguments
    reversed, rather than by negating c, so the defining relation stays a
    checkable identity.
    """
    return _izergin(z, u_set, v_set, c, variant, conjugated=True)


def ordinary_izergin(u_set: SpectralSet, v_set: SpectralSet, c,
                     conjugated: bool = False) -> Rat:
    """Undeformed Izergin determinant; requires equal cardinalities."""
    if len(u_set) != len(v_set):
        raise CardinalityError(
            f"ordinary determinant needs #u = #v, got {len(u_set)} and {len(v_set)}")
    fn = conj_mod_izergin if conjugated else mod_izergin
    return fn(Rat(1), u_set, v_set, c, variant="v-side")


def term_pair(*pairs) -> tuple:
    """The product of integer (numerator, denominator) pairs, as one
    unreduced pair: how every table-driven partition-sum term is built."""
    num = den = 1
    for a, b in pairs:
        num *= a
        den *= b
    return num, den


def by_popcount(weight, top: int) -> list:
    """weight(k) for k = 0..top as integer (numerator, denominator) pairs,
    so that a term reads the weight of a part by the part's popcount."""
    return [(w.numerator, w.denominator) for w in map(weight, range(top + 1))]


def izergin_partition_sum(z, u_set: SpectralSet, v_set: SpectralSet, c,
                          side: str = "v-partitions",
                          conjugated: bool = False) -> Rat:
    """Sum-over-partitions expansion equal to the corresponding determinant.

    'v-partitions' splits v_set; 'u-partitions' splits u_set and carries the
    (1-z)^(m-n) prefactor (undefined at z=1 when cardinalities differ, like
    the u-side determinant). The f weights come from kernel tables built
    once per sum, each in the orientation of `conjugated`.
    """
    z, c = Rat(z), Rat(c)
    u, v = u_set.values, v_set.values
    n, m = len(u), len(v)
    all_u, all_v = (1 << n) - 1, (1 << m) - 1
    power = by_popcount(lambda k: rat_pow(-z, k), max(n, m))
    if side == "v-partitions":
        within = FTable(c, v, None, conjugated)
        across = FTable(c, u, v, conjugated)

        def v_term(mask1, mask2):   # f(u, v1) f(v1, v2)
            return term_pair(power[mask2.bit_count()],
                             across.pair(all_u, mask1),
                             within.pair(mask1, mask2))

        return split_sum(m, 2, v_term)
    if side == "u-partitions":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-partition expansion carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}")
        within = FTable(c, u, None, conjugated)
        across = FTable(c, u, v, conjugated)

        def u_term(mask1, mask2):   # f(u2, v) f(u1, u2)
            return term_pair(power[mask1.bit_count()],
                             across.pair(mask2, all_v),
                             within.pair(mask1, mask2))

        return rat_pow(1 - z, m - n) * split_sum(n, 2, u_term)
    raise ValueError(f"unknown side {side!r}")


def izergin_convolution(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                        xi_set: SpectralSet, c, conjugated: bool = False) -> Rat:
    """Convolution sum over splits of xi_set pairing two determinants.

    Contract: equals the single determinant at deformation z1*z2 on the merged
    left set {u_set, v_set}. The determinants and f weights of each term come
    from one half of unshifted DetTables, each determinant through one
    reader per sum (block tables at z != 1), so the sum never calls the
    direct determinant.
    """
    z1, z2 = Rat(z1), Rat(z2)
    left = DetTables(u_set.values, xi_set.values, c, shift=0).side(conjugated)
    right = DetTables(v_set.values, xi_set.values, c, shift=0).side(conjugated)
    power = by_popcount(lambda k: rat_pow(z2, k), len(xi_set))
    k_left, k_right = left.reader(z1), right.reader(z2)

    def conv_term(mask1, mask2):   # f(x2, x1) f(u, x2)
        return term_pair(power[mask1.bit_count()], k_left(mask1),
                         k_right(mask2), left.pair(mask2, mask1),
                         left.factors.row(0, mask2))

    return split_sum(len(xi_set), 2, conv_term)


def izergin_deformation_sum(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                            c, conjugated: bool = False) -> Rat:
    """Deformation-shifting sum over splits of v_set.

    Contract: equals the determinant at deformation z2 - z1. The
    determinants (through one reader at z2) and f weights come from one
    half of unshifted DetTables.
    """
    z1, z2 = Rat(z1), Rat(z2)
    half = DetTables(u_set.values, v_set.values, c, shift=0).side(conjugated)
    power = by_popcount(lambda k: rat_pow(z1, k), len(v_set))
    k = half.reader(z2)

    def shift_term(mask1, mask2):   # f(v1, v2)
        return term_pair(power[mask2.bit_count()], k(mask1),
                         half.pair(mask1, mask2))

    return split_sum(len(v_set), 2, shift_term)


def residue_check(z, u_set: SpectralSet, v_set: SpectralSet, c,
                  conjugated: bool = False):
    """Exactly extract the residue of K^(z) at the collision u_n -> v_m.

    Sets u_n = v_m + eps, interpolates eps -> (eps/c) * K^(z) (analytic at 0
    for a simple pole), evaluates the interpolant at 0, and compares with the
    predicted product f(u-rest, v_m) * f(v_m, v-rest) * K^(z) on the reduced
    sets. Returns (limit_value, predicted_value); equality is the test.

    Conjugated, the same statement for K-bar^(z), whose residue scale is
    -c: the samples and the prediction read `conj_mod_izergin` at c, and the
    f products with their arguments reversed (f(a, b; -c) = f(b, a; c)).
    """
    n, m = len(u_set), len(v_set)
    if n < 1 or m < 1:
        raise CardinalityError("residue check needs nonempty sets on both sides")
    c = Rat(c)
    scale = -c if conjugated else c
    izergin = conj_mod_izergin if conjugated else mod_izergin

    def f(a, b):
        return set_product("f", b, a, c) if conjugated else set_product("f", a, b, c)

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
        if not is_generic(c, u_rest, u_probe, v_set):
            continue
        u_full = SpectralSet(u_rest.values + u_probe)
        samples.append((eps, eps / scale * izergin(z, u_full, v_set, c)))

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

    predicted = f(u_rest, v_m) * f(v_m, v_rest) * izergin(z, u_rest, v_rest, c)
    return limit_value, predicted


@lru_cache(maxsize=None)
def _index_halves(size: int) -> tuple:
    """(low mask, half, low, high): the indices of a mask S of range(size)
    are low[S & low mask] + high[S >> half], with half = size // 2."""
    half = size // 2
    out = []
    for bits in (range(half), range(half, size)):
        lists = [()]
        for b in bits:
            lists += [x + (b,) for x in lists]
        out.append(tuple(lists))
    return ((1 << half) - 1, half, *out)


def _indices(halves, mask: int) -> tuple:
    """The indices in the mask, ascending, from `_index_halves`."""
    low_mask, half, low, high = halves
    return low[mask & low_mask] + high[mask >> half]


def _products(factors) -> list:
    """The product over every subset of factors, indexed by the subset's
    bitmask."""
    out = [1]
    for x in factors:
        out += [y * x for y in out]
    return out


def _f_ints(c, left, right=None, conjugated=False) -> tuple:
    """f(a, b) for a in `left` and b in `right`, or f(b, a) when conjugated
    (with `right` omitted, the pairs within `left`, 1 on the diagonal) read
    through kernel_f, as integer numerator and denominator tables, one row
    per a."""
    same = right is None
    right = left if same else right
    one = Rat(1)
    return _ints([[one if same and i == j
                   else kernel_f(b, a, c) if conjugated else kernel_f(a, b, c)
                   for j, b in enumerate(right)] for i, a in enumerate(left)])


class FTable:
    """Rows of integer (numerator, denominator) factors, read by bitmasks.

    `FTable(c, left, right, conjugated)` holds the f table of `_f_ints`,
    whose row i and column j read f(left_i, right_j), or f(right_j, left_i)
    when conjugated (the row count stays #left either way); `of_ints`
    takes integer rows as they are (vacuum weights, row factors). Each row
    keeps its products over every subset of the low half of its columns
    and over every subset of the high half (2 * 2^(p/2) entries), so its
    product over a column mask is one lookup pair and one multiplication:
    the integers a loop over the mask gives, unreduced, so that a partition
    sum multiplies a whole term in integers (`term_pair`).
    """

    def __init__(self, c, left, right=None, conjugated=False):
        self._set(*_f_ints(c, left, right, conjugated))

    @classmethod
    def of_ints(cls, num, den) -> "FTable":
        """The table with factors num[i][j] / den[i][j]."""
        table = cls.__new__(cls)
        table._set(num, den)
        return table

    def _set(self, num, den):
        self.num, self.den = num, den
        half = len(num[0]) // 2 if num else 0
        self._half, self._low = half, (1 << half) - 1
        self._rows = _index_halves(len(num))
        self._subsets = [(_products(n[:half]), _products(n[half:]),
                          _products(d[:half]), _products(d[half:]))
                         for n, d in zip(num, den)]

    def row(self, i: int, cols: int) -> tuple:
        """Product of row i over the column mask, as an unreduced pair."""
        ln, hn, ld, hd = self._subsets[i]
        lo, hi = cols & self._low, cols >> self._half
        return ln[lo] * hn[hi], ld[lo] * hd[hi]

    def pair(self, rows: int, cols: int) -> tuple:
        """Product over the row mask times the column mask, as an unreduced
        (numerator, denominator) pair."""
        lo, hi = cols & self._low, cols >> self._half
        sub = self._subsets
        num = den = 1
        for i in _indices(self._rows, rows):
            ln, hn, ld, hd = sub[i]
            num *= ln[lo] * hn[hi]
            den *= ld[lo] * hd[hi]
        return num, den


class _Side(FTable):
    """One half of DetTables: K, or K-bar when `conjugated`, as the FTable
    of its rows, every kernel read in that half's orientation.

    Row j < p (the ground size) is f(xi_j, xi_t) over t, 1 at t = j; row
    p + i is the u-indexed row f(u_i, xi_t + s). On the conjugated half
    every kernel has its arguments reversed: f(xi_t, xi_j) and
    f(xi_t - s, u_i). So a caller reads the same methods on either half:
    `pair(L, R)` is f(xi_L, xi_R), or f(xi_R, xi_L); `factors.row(0, S)` is
    f(u, xi_S + s), or f(xi_S - s, u); `k_pair` and `reader` give K or
    K-bar. With the row factors and the 1/h rows, `k_pair` assembles the
    ground-indexed representation of one subset from its own subset
    products; `_KBlocks` reads the u-indexed rows, with the u-indexed
    off-diagonal parts (`uoff`), for every subset at once. Those parts are
    built on first use: sums at z = 1 never build them.
    """

    def __init__(self, u, c, conjugated, f, fu, h):
        self.u, self.c, self.conjugated = u, c, conjugated
        self.size, self.n_left = len(f[0]), len(u)
        self._set(f[0] + fu[0], f[1] + fu[1])
        # the row factor f(u-set, xi_j + s), or f(xi_j - s, u-set)
        self.row_num, self.row_den = [], []
        for j in range(self.size):
            num = den = 1
            for fn, fd in zip(*fu):
                num *= fn[j]
                den *= fd[j]
            g = gcd(num, den)
            self.row_num.append(num // g)
            self.row_den.append(den // g)
        self.h_rows, self.h_den = h  # 1/h(xi_j, xi_k), or its transpose
        self._ground = _index_halves(self.size)

    @cached_property
    def factors(self) -> FTable:
        """The row factors, as a one-row table."""
        return FTable.of_ints([self.row_num], [self.row_den])

    @cached_property
    def uoff(self):
        """The u-indexed off-diagonal parts f(u_j, u-rest) / h(u_j, u_k), or
        their conjugates; None where two values of u collide (f or 1/h has a
        pole between them), since only the ground-indexed rows are defined
        there."""
        c, conj, u = self.c, self.conjugated, _parts(self.u)
        rows = []
        try:
            for j, uj in enumerate(u):
                rest = [(uj, ut) for t, ut in enumerate(u) if t != j]
                comp = Rat(*_f_prod(rest, c.numerator, c.denominator, conj))
                rows.append([comp * _inv_h(uj[0], uk[0], c, conj) for uk in u])
        except PoleError:
            return None
        return rows

    def k_pair(self, z, mask: int):
        """(numerator, denominator) of the determinant over the subset mask,
        from its ground-indexed rows (size #S, defined at every z).

        Row j is the row of xi_j times its row factor. Its subset product
        is reduced by one gcd, which keeps the integers small without a gcd
        per entry; the row is then its rational row times one integer, the
        product of that reduced denominator and a fixed row denominator.
        """
        sub = self._subsets
        lo, hi = mask & self._low, mask >> self._half
        zn, zd = z.numerator, z.denominator
        idx = _indices(self._ground, mask)
        rows = []
        den = 1
        for pos, j in enumerate(idx):
            ln, hn, ld, hd = sub[j]
            bn = self.row_num[j] * ln[lo] * hn[hi]
            bd = self.row_den[j] * ld[lo] * hd[hi]
            g = gcd(bn, bd)
            bn = bn // g * zd
            bd //= g
            hrow, hden = self.h_rows[j], self.h_den[j]
            row = [bn * hrow[k] for k in idx]
            row[pos] -= zn * bd * hden
            rows.append(row)
            den *= zd * bd * hden
        return det_int(rows), den

    def k_blocks(self, z) -> _KBlocks | None:
        """The determinant at deformation z over every subset, as a block
        table (`_KBlocks`); None where the u-indexed expansion does not
        apply (at z = 1, or where two values of u collide) or does not pay:
        on a ground set no larger than u, `k_pair` assembles at most #u
        rows per subset and never builds the 2^#u principal minors that
        the table needs."""
        if z == 1 or self.size <= self.n_left or self.uoff is None:
            return None
        return _KBlocks(self, z)

    def reader(self, z):
        """mask -> the unreduced pair of the determinant at deformation z:
        the block table's `pair` where it applies, else `k_pair` at z."""
        blocks = self.k_blocks(z)
        return partial(self.k_pair, z) if blocks is None else blocks.pair


def _fold_rows(tables, num, den) -> list:
    """Each table times num, then each times den, entry by entry: doubles a
    list of tables indexed by a mask of rows, the new row the highest bit."""
    return ([[x * y for x, y in zip(t, num)] for t in tables]
            + [[x * y for x, y in zip(t, den)] for t in tables])


class _KBlocks:
    """The determinant of one `_Side` at one deformation z != 1, over every
    subset mask of the ground set, from the u-indexed representation.

    Row j of that representation is a_j e_j + b_j A_j with a_j(S) = od_j
    prod_{t in S} fn_jt and b_j(S) = prod_{t in S} fd_jt. Here the rows of
    z times the u-indexed off-diagonal parts (`_Side.uoff`) are cleared to
    integer rows over their denominators od_j, A is minus those integer
    rows, and fn/fd are the u-indexed rows of the table. By multilinearity in the rows its
    determinant is the sum over kept rows K of M[K] prod_{j in K} b_j
    prod_{j not in K} a_j, with M the principal minors of A. Swapping the
    sum over K with the products over S gives

        K(S) = (1-z)^(#S-n) sum_K M[K] prod_{j not in K} od_j prod_{t in S} g_K(t)

    over prod_j od_j prod_{t in S} prod_j fd_jt, with g_K(t) = prod_{j in K}
    fd_jt prod_{j not in K} fn_jt. It holds at every #S, since (1-z)^(#S-n)
    is defined for z != 1; the factor (1-z) per element of S is folded into
    g_K and the denominators. Every factor is multiplicative over S, so the
    masks that share a high half form a block: the sum over K of a constant
    times the low-half subset products of g_K. A block is built when a mask
    outside the block last read is read, in the process that reads it, and
    only that block is kept: a sum over splits in rank order reads each
    side's blocks one after another, so it builds each once, and holds
    2^(p/2) entries per side instead of 2^p. No block is pickled.
    """

    def __init__(self, side: _Side, z):
        self.side, self.z = side, z
        self._half, self._low = side._half, side._low
        self._hi, self._block = None, None

    def __reduce__(self):
        return _KBlocks, (self.side, self.z)

    @cached_property
    def _factors(self) -> tuple:
        """For each K with a nonzero minor: its constant and the subset
        products of g_K over the low and the high half of the ground set;
        then the denominator's constant and subset products. Those of g_K
        are folded from the u-indexed rows' own subset products, one row at
        a time (bit j of K: row j kept). The principal minors are computed
        here, once per table."""
        side, half, z = self.side, self._half, self.z
        n, p = side.n_left, side.size
        rows, od = clear_denominators([[z * x for x in row] for row in side.uoff])
        minors = principal_minors([[-x for x in row] for row in rows])
        wn, wd = z.denominator - z.numerator, z.denominator  # 1 - z = wn / wd
        coefs = [wd ** n]
        low, high = [_products([wn] * half)], [_products([wn] * (p - half))]
        den_low, den_high = _products([wd] * half), _products([wd] * (p - half))
        for (ln, hn, ld, hd), o in zip(side._subsets[p:], od):
            coefs = [k * o for k in coefs] + coefs
            low = _fold_rows(low, ln, ld)
            high = _fold_rows(high, hn, hd)
            den_low = [x * y for x, y in zip(den_low, ld)]
            den_high = [x * y for x, y in zip(den_high, hd)]
        terms = [(minor * k, lo, hi) for minor, k, lo, hi
                 in zip(minors, coefs, low, high) if minor]
        return terms, prod(od) * wn ** n, den_low, den_high

    def _build(self, hi: int) -> list:
        """The (numerator, denominator) pairs of the masks with high half
        hi, indexed by their low half."""
        terms, den, den_low, den_high = self._factors
        nums = [0] * len(den_low)
        for coef, low, high in terms:
            scale = coef * high[hi]
            nums = [v + scale * x for v, x in zip(nums, low)]
        scale = den * den_high[hi]
        return list(zip(nums, [scale * x for x in den_low]))

    def pair(self, mask: int) -> tuple:
        """The determinant over the subset mask as an unreduced pair, equal
        as a rational to `_Side.k_pair`."""
        hi = mask >> self._half
        if hi != self._hi:
            self._hi, self._block = hi, self._build(hi)
        return self._block[mask & self._low]


def _reduced(num, den) -> tuple:
    """num / den in lowest terms with a positive denominator, the numerator
    and denominator a rational would hold."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _cleared(rows):
    """Rows of reduced integer pairs as integer rows over one denominator
    per row, the lcm of the row's denominators (as clear_denominators)."""
    out, dens = [], []
    for row in rows:
        common = lcm(*[d for _, d in row])
        out.append([n * (common // d) for n, d in row])
        dens.append(common)
    return out, dens


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

    Subsets are bitmasks over the ground set, and every product over one
    is read from an `FTable`. Each determinant is one half, the FTable of
    its rows (`_Side`), taken by `side(conjugated)`: its `pair(L, R)` is
    f(xi_L, xi_R) on K's half and f(xi_R, xi_L) on K-bar's, and its row
    factors f(u, xi_S + s), or f(xi_S - s, u), are the one-row table
    `factors`. A caller picks the half once, and a term reads the same
    methods on either. They return unreduced (numerator, denominator)
    pairs for `term_pair`; `k_plus`, `k_minus_conj` and `f_between` return
    rationals. The deformation z is an int or a rational, built once by
    the caller.

    A determinant has two routes. `_Side.k_pair` assembles the
    ground-indexed rows of one subset, as integers over one denominator
    per row, and eliminates them with `linalg.det_int`: the route of the
    sums at z = 1 (the actions, SCe, the shifted-unit sum). A sum at
    z != 1 takes one reader per determinant (`_Side.reader`), which, with
    u free of collisions and a ground set larger than u, expands the
    u-indexed representation over every subset at once, one block of
    masks per high half (`_KBlocks`); otherwise it reads the
    ground-indexed rows.
    """

    def __init__(self, u_values, ground_values, c, shift=None):
        self.c = Rat(c)
        self._u = [Rat(x) for x in u_values]
        self._g = [Rat(x) for x in ground_values]
        self._s = self.c if shift is None else Rat(shift)
        self._f = _f_ints(self.c, self._g)
        g, cn, cd = _parts(self._g), self.c.numerator, self.c.denominator
        hinv = [[_reduced(*_inv_h_pair(a, b, cn, cd, False)) for b in g]
                for a in g]
        # 1/h(xi_j, xi_k) as integer rows over one denominator per row, for
        # each half (the conjugated half reads the transpose)
        self._h = _cleared(hinv), _cleared(list(zip(*hinv)))

    def __getstate__(self):
        """Both halves are built before pickling, so that a pickled copy
        carries their tables instead of building its own; the u-indexed
        off-diagonal parts, and the block tables read from them, are built
        where first used. (The forked children of `split_sum` inherit the
        tables and pickle nothing.)"""
        _ = self._plus, self._minus
        return self.__dict__

    # Each determinant's tables are built on its first use: a sum that
    # needs only K, or only K-bar, builds only that half.

    @cached_property
    def _plus(self) -> _Side:
        fu = _f_ints(self.c, self._u, [x + self._s for x in self._g])
        return _Side(self._u, self.c, False, self._f, fu, self._h[0])

    @cached_property
    def _minus(self) -> _Side:
        fu = _f_ints(self.c, self._u, [x - self._s for x in self._g], True)
        return _Side(self._u, self.c, True, _transposed(self._f), fu,
                     self._h[1])

    def side(self, conjugated: bool) -> _Side:
        """The half of K^(z)(u | xi_S + s), or conjugated of
        K-bar^(z)(u | xi_S - s); only that half is built."""
        return self._minus if conjugated else self._plus

    # perfbench/tracing.py wraps the three rational forms below by name.

    def k_plus(self, z, mask: int) -> Rat:
        """K^(z)(u | xi_S + s) for the subset S given as a bitmask."""
        return Rat(*self._plus.k_pair(z, mask))

    def k_minus_conj(self, z, mask: int) -> Rat:
        """Conjugated K-bar^(z)(u | xi_S - s) for the subset S."""
        return Rat(*self._minus.k_pair(z, mask))

    def f_between(self, mask_left: int, mask_right: int) -> Rat:
        """f(xi_L, xi_R) for two disjoint subset masks (shift-invariant)."""
        return Rat(*self._plus.pair(mask_left, mask_right))
