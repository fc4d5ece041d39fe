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

A row assembly keeps the z-free parts of its integer rows and returns a
reader of z (`izergin_reader`), so one (u, v) read at several z is
assembled once. Its rows, and those of `_Side.uoff`, come from one row pass
(`_row`), which reads each pair's difference once and keeps a row over the
product of its h numerators; `DetTables` reads its f and 1/h tables in one
pass too. Every f of the row pass and the tables comes from `f_pair`,
every row factor f(u, v_j) from `kernel_product`, and every h from
`h_pair`.

A partition-sum term returns the unreduced integer pair of its product
(`term_pair`); `partitions.split_sum` adds the pairs and builds one rational
per sum. The table-driven terms read a part's power weight by popcount
from an integer geometric sequence (`geometric`), and every product over a
split part by bitmask from an `FTable` (or those inside `DetTables`); the
independent-partition forms of `actions` assemble each split's
determinants with `_v_side` instead.

`DetTables` has two routes to a determinant over a subset mask. `k_pair`
assembles that one determinant from the ground-indexed rows; the block
tables of `_KBlocks` sum the u-indexed expansion over every subset at
once. A sum over splits takes one reader per determinant
(`_Side.reader`), which reads the blocks at z != 1 and `k_pair` where the
expansion does not apply or does not pay (`_Side.k_blocks`). A reader can
carry a one-row weight table, which the blocks fold into their own
tables, so that a term reads the determinant and the weight as one pair.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from .errors import CardinalityError, DegenerateError, PoleError, VariantUndefined
from .linalg import det, det_int, principal_minors
from .partitions import split_sum
from .ratfunc import rational_interpolate
from .scalars import (Rat, SpectralSet, _parts, _rat, diff_pair, f_pair,
                      g_pair, h_pair, is_generic, kernel_product, set_product)

__all__ = [
    "mod_izergin", "conj_mod_izergin", "izergin_reader", "ordinary_izergin",
    "izergin_partition_sum", "izergin_convolution", "izergin_deformation_sum",
    "residue_check", "geometric", "term_pair", "DetTables",
    "FTable",
]


# The direct determinants below assemble their rows in integers. Each value
# is read once as a (value, numerator, denominator) triple (`_parts`). The
# row pass reads f and h from f_pair and h_pair, one difference per pair;
# each row factor f(u, v_j) is one `kernel_product`. A row is written as
# integers over one row denominator, so each determinant builds one
# rational. A helper's `conjugated` flag reads f(b, a) and h(b, a) for
# f(a, b) and h(a, b): the row pass flips the sign of the difference,
# d = b - a, and the row factors pass each pair as (b, a).

def _row(values, j, cn, cd, conjugated) -> tuple:
    """Row j of f(x_j, x-rest) / h(x_j, x_k), 1/h read as 1 at k = j, over
    the triples x (every kernel reversed when conjugated), as (fn, fd, row,
    hden): fn / fd times row / hden, hden the product of the h numerators.
    Each pair's difference is read once; the first f pole is raised, else
    the first 1/h pole."""
    a, an, ad = values[j]
    fn = fd = hden = 1
    hs, h_pole = [], None
    for t, (b, bn, bd) in enumerate(values):
        if t == j:
            continue
        dn = bn * ad - an * bd if conjugated else an * bd - bn * ad
        dd = ad * bd
        pn, pd = f_pair(dn, dd, cn, cd)
        if not pd:
            raise PoleError("f", *((b, a) if conjugated else (a, b)))
        hn, hd = h_pair(dn, dd, cn, cd)
        if not hn and h_pole is None:
            h_pole = PoleError("1/h", *((b, a) if conjugated else (a, b)))
        fn *= pn
        fd *= pd
        hden *= hn
        hs.append((hn, hd))
    if h_pole is not None:
        raise h_pole
    row = [hd * (hden // hn) for hn, hd in hs]
    row.insert(j, hden)
    g = gcd(fn, fd)
    return fn // g, fd // g, row, hden


def _det_at(rows, p, q) -> int:
    """The determinant of the rows p * a + q * b e_j, for the z-free parts
    (a, b) of row j. At p = 1 (the v-side at integer z) a is copied as it
    is."""
    out = []
    for j, (a, b) in enumerate(rows):
        row = a[:] if p == 1 else [p * x for x in a]
        row[j] += q * b
        out.append(row)
    return det_int(out)


def _check_u_side(zn, zd, n, m):
    """VariantUndefined at z = 1 when the cardinalities differ."""
    if zn == zd and m != n:
        raise VariantUndefined(
            "u-side representation carries (1-z)^(m-n) and is undefined "
            f"at z=1 with m={m}, n={n}; use the v-side")


# Each representation is assembled in two steps. The assembly reads every
# kernel once and keeps the z-free parts of each row, as integers over one
# row denominator: the row a_j and the weight b_j of z's term on the
# diagonal. The reader it returns, (zn, zd) -> integer pair, applies z and
# eliminates. Kernels are read, and poles raised, in the order of the rows.

def _v_side(u, v, cn, cd, conjugated):
    """The #v-sized determinant: row j is f(u, v_j) f(v_j, v-rest) /
    h(v_j, v_k), minus z at k = j. With f(u, v_j) = sn / sd and the row
    pass (fn, fd, row, hden) of v_j, row j over zd * sd * fd * hden is
    zd * a_j - zn * b_j e_j, with a_j = sn * fn * row and
    b_j = sd * fd * hden."""
    rows, den = [], 1
    for j, vj in enumerate(v):
        pairs = product([vj], u) if conjugated else product(u, [vj])
        sn, sd = _reduced(*kernel_product("f", pairs, cn, cd))
        fn, fd, row, hden = _row(v, j, cn, cd, conjugated)
        sn *= fn
        sd *= fd * hden
        rows.append(([sn * x for x in row], sd))
        den *= sd

    def at(zn, zd):
        return _det_at(rows, zd, -zn), zd ** len(rows) * den

    return at


def _u_side(u, v, cn, cd, conjugated):
    """The #u-sized determinant with its (1-z)^(m-n) prefactor: row j is
    -z f(u_j, u-rest) / h(u_j, u_k), plus f(u_j, v) = dn / dd at k = j.
    With the row pass (fn, fd, row, hden) of u_j, row j over
    zd * dd * fd * hden is -zn * a_j + zd * b_j e_j, with
    a_j = dd * fn * row and b_j = dn * fd * hden."""
    n, m = len(u), len(v)
    rows, den = [], 1
    for j, uj in enumerate(u):
        pairs = product(v, [uj]) if conjugated else product([uj], v)
        dn, dd = _reduced(*kernel_product("f", pairs, cn, cd))
        fn, fd, row, hden = _row(u, j, cn, cd, conjugated)
        fn *= dd
        fd *= hden
        rows.append(([fn * x for x in row], dn * fd))
        den *= dd * fd

    def at(zn, zd):
        _check_u_side(zn, zd, n, m)
        num, pre = zd - zn, zd   # (1 - z)^(m-n)
        if m < n:
            num, pre = pre, num
        return (num ** abs(m - n) * _det_at(rows, -zn, zd),
                pre ** abs(m - n) * zd ** n * den)

    return at


_VARIANTS = {"v-side": _v_side, "u-side": _u_side}


def izergin_reader(u_set: SpectralSet, v_set: SpectralSet, c,
                   variant: str = "v-side", conjugated: bool = False):
    """z -> K^(z)(u_set | v_set) of one variant, or K-bar^(z) when
    conjugated, as a rational, for z an int or a rational.

    The z-free parts of the rows are assembled here, once, and each read
    applies z and eliminates, so one (u, v) read at several z pays for one
    assembly. The assembly raises the PoleError of the first pole in the
    rows; a u-side read at z = 1 with #u != #v raises VariantUndefined.
    """
    c = _rat(c)
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    at = _VARIANTS[variant](_parts(u_set.values), _parts(v_set.values),
                            c.numerator, c.denominator, conjugated)
    return lambda z: Rat(*at(z.numerator, z.denominator))


def _izergin(z, u_set: SpectralSet, v_set: SpectralSet, c, variant: str,
             conjugated: bool) -> Rat:
    """The determinant of one variant at one z, with every kernel read in
    the orientation of `conjugated`."""
    z = _rat(z)
    if variant == "u-side":   # VariantUndefined comes before any pole
        _check_u_side(z.numerator, z.denominator, len(u_set), len(v_set))
    return izergin_reader(u_set, v_set, c, variant, conjugated)(z)


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
    """Undeformed Izergin determinant in the Izergin-Korepin form (Izergin
    1987), prod_{j<k} g(u_j, u_k) g(v_k, v_j) prod h(u, v)
    det[g(u_j, v_k) / h(u_j, v_k)], its own route beside K^(1); requires
    equal cardinalities. A pole of g or of 1/h raises PoleError.

    Conjugated, every kernel is read with its arguments reversed, which is
    the same form with u and v swapped (the determinant transposes).
    """
    n = len(u_set)
    if n != len(v_set):
        raise CardinalityError(
            f"ordinary determinant needs #u = #v, got {n} and {len(v_set)}")
    u, v = (v_set, u_set) if conjugated else (u_set, v_set)
    c = Rat(c)
    cn, cd = c.numerator, c.denominator

    def g_over_h(a, b):
        d = diff_pair(a, b)
        (gn, gd), (hn, hd) = g_pair(*d, cn, cd), h_pair(*d, cn, cd)
        if not gd or not hn:
            raise PoleError("g" if not gd else "1/h", a, b)
        return Rat(gn * hd, gd * hn)

    up, vp = _parts(u.values), _parts(v.values)
    g_pairs = []  # g(u_j, u_k) and g(v_k, v_j) for j < k
    for j in range(n):
        g_pairs += [(up[j], a) for a in up[j + 1:]]
        g_pairs += [(b, vp[j]) for b in vp[j + 1:]]
    pre = term_pair(kernel_product("h", product(up, vp), cn, cd),
                    kernel_product("g", g_pairs, cn, cd))
    return Rat(*pre) * det([[g_over_h(a, b) for b in v] for a in u])


def term_pair(*pairs) -> tuple:
    """The product of integer (numerator, denominator) pairs, as one
    unreduced pair: how every table-driven partition-sum term is built."""
    num = den = 1
    for a, b in pairs:
        num *= a
        den *= b
    return num, den


def geometric(first, ratio, top: int) -> list:
    """first * ratio**k for k = 0..top, for integer pairs first and ratio
    with nonzero denominators, as integer pairs in lowest terms with
    positive denominators (the pairs a rational holds), each reduced once:
    a term reads the weight of a part by the part's popcount."""
    (fn, fd), (rn, rd) = first, ratio
    return [_reduced(fn * rn ** k, fd * rd ** k) for k in range(top + 1)]


def izergin_partition_sum(z, u_set: SpectralSet, v_set: SpectralSet, c,
                          side: str = "v-partitions",
                          conjugated: bool = False) -> Rat:
    """Sum-over-partitions expansion equal to the corresponding determinant.

    'v-partitions' splits v_set; 'u-partitions' splits u_set and carries the
    (1-z)^(m-n) prefactor (undefined at z=1 when cardinalities differ, like
    the u-side determinant). The f weights come from kernel tables built
    once per sum, each in the orientation of `conjugated`.
    """
    z = _rat(z)
    u, v = u_set.values, v_set.values
    n, m = len(u), len(v)
    all_u, all_v = (1 << n) - 1, (1 << m) - 1
    power = geometric((1, 1), (-z.numerator, z.denominator), max(n, m))
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

        return split_sum(n, 2, u_term) * (1 - z) ** (m - n)
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
    z1, z2 = _rat(z1), _rat(z2)
    left = DetTables(u_set.values, xi_set.values, c, shift=0).side(conjugated)
    right = DetTables(v_set.values, xi_set.values, c, shift=0).side(conjugated)
    power = geometric((1, 1), (z2.numerator, z2.denominator), len(xi_set))
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
    z1, z2 = _rat(z1), _rat(z2)
    half = DetTables(u_set.values, v_set.values, c, shift=0).side(conjugated)
    power = geometric((1, 1), (z1.numerator, z1.denominator), len(v_set))
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


def _f_ints(c, left, right=None, conjugated=False, inv_h=False) -> tuple:
    """f(a, b) for a in `left` and b in `right`, or f(b, a) when conjugated
    (with `right` omitted, the pairs within `left`, 1 on the diagonal), as
    integer numerator and denominator tables in lowest terms, one row per a;
    PoleError("f") at the first pole in row-major order. With `inv_h`, also
    the rows of 1/h(a, b), or 1/h(b, a), as reduced pairs from the same
    differences; their first pole in row-major order raises PoleError("1/h")
    once every f is read."""
    c, same = _rat(c), right is None
    cn, cd = c.numerator, c.denominator
    left = _parts(left)
    right = left if same else _parts(right)
    num, den, hinv, h_pole = [], [], [], None
    for i, (a, an, ad) in enumerate(left):
        nrow, drow, hrow = [], [], []
        for j, (b, bn, bd) in enumerate(right):
            dn = bn * ad - an * bd if conjugated else an * bd - bn * ad
            fn, fd = (1, 1) if same and i == j else f_pair(dn, ad * bd, cn, cd)
            if not fd:
                raise PoleError("f", *((b, a) if conjugated else (a, b)))
            fn, fd = _reduced(fn, fd)
            nrow.append(fn)
            drow.append(fd)
            if inv_h:
                hn, hd = h_pair(dn, ad * bd, cn, cd)
                if not hn and h_pole is None:
                    h_pole = PoleError(
                        "1/h", *((b, a) if conjugated else (a, b)))
                hrow.append(_reduced(hd, hn) if hn else None)
        num.append(nrow)
        den.append(drow)
        hinv.append(hrow)
    if h_pole is not None:
        raise h_pole
    return (num, den, hinv) if inv_h else (num, den)


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
        # the row factor f(u-set, xi_j + s), or f(xi_j - s, u-set): column
        # j of the u-indexed rows
        u_rows = ((1 << self.n_left) - 1) << self.size
        factors = [_reduced(*self.pair(u_rows, 1 << j))
                   for j in range(self.size)]
        self.row_num = [num for num, _ in factors]
        self.row_den = [den for _, den in factors]
        self.h_rows, self.h_den = h  # 1/h(xi_j, xi_k), or its transpose
        self._ground = _index_halves(self.size)

    @cached_property
    def factors(self) -> FTable:
        """The row factors, as a one-row table."""
        return FTable.of_ints([self.row_num], [self.row_den])

    @cached_property
    def uoff(self):
        """The u-indexed off-diagonal parts f(u_j, u-rest) / h(u_j, u_k), or
        their conjugates, from the row pass, as (integer rows, row
        denominators), each row over its least positive denominator; None
        where two values of u collide (f or 1/h has a pole between them),
        since only the ground-indexed rows are defined there."""
        cn, cd, conj = self.c.numerator, self.c.denominator, self.conjugated
        u = _parts(self.u)
        rows, dens = [], []
        try:
            for j in range(len(u)):
                fn, fd, row, hden = _row(u, j, cn, cd, conj)
                row, den = [fn * x for x in row], fd * hden
                g = gcd(den, *row) if den > 0 else -gcd(den, *row)
                rows.append([x // g for x in row])
                dens.append(den // g)
        except PoleError:
            return None
        return rows, dens

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

    def k_blocks(self, z, weight: FTable | None = None) -> _KBlocks | None:
        """The determinant at deformation z over every subset, times the
        one-row table `weight` if given, as a block table (`_KBlocks`);
        None where the u-indexed expansion does not apply (at z = 1, or
        where two values of u collide) or does not pay: on a ground set no
        larger than u, `k_pair` assembles at most #u rows per subset and
        never builds the 2^#u principal minors that the table needs."""
        if z == 1 or self.size <= self.n_left or self.uoff is None:
            return None
        return _KBlocks(self, z, weight)

    def reader(self, z, weight: FTable | None = None):
        """mask -> the unreduced pair of the determinant at deformation z,
        times weight.row(0, mask) when a one-row table `weight` is given:
        the block table's `pair` where it applies, which folds the weight
        into its tables, else `k_pair` at z times the weight's row."""
        blocks = self.k_blocks(z, weight)
        if blocks is not None:
            return blocks.pair
        if weight is None:
            return partial(self.k_pair, z)

        def weighted(mask):
            (kn, kd), (wn, wd) = self.k_pair(z, mask), weight.row(0, mask)
            return kn * wn, kd * wd

        return weighted


def _fold_columns(columns, num, den) -> list:
    """Each column times num[i], then times den[i], i its index: doubles
    columns indexed by a mask of rows, the new row the highest bit."""
    return [[x * a for x in col] + [x * b for x in col]
            for col, a, b in zip(columns, num, den)]


def _nonzero(col) -> tuple:
    """The positions of the column's nonzero entries, ascending, and those
    entries."""
    idx = [k for k, x in enumerate(col) if x]
    return idx, [col[k] for k in idx]


def _strip(columns, dens, kept, weight) -> list:
    """Keep the entries `kept` of each column and divide the column by its
    content, in place. Returns, per column, its content times the weight's
    entry and its denominator times the weight's denominator, both divided
    by their gcd (`weight` is a pair of lists of numerators and
    denominators, or None for 1)."""
    parts = []
    for i, col in enumerate(columns):
        col = [col[k] for k in kept]
        g = gcd(*col) or 1
        columns[i] = [x // g for x in col]
        den = dens[i]
        if weight is not None:
            g *= weight[0][i]
            den *= weight[1][i]
        r = gcd(g, den)
        parts.append((g // r, den // r))
    return parts


class _KBlocks:
    """The determinant of one `_Side` at one deformation z != 1, over every
    subset mask of the ground set, from the u-indexed representation; with
    a one-row `FTable` `weight`, each determinant times that weight's
    product over the mask.

    Row j of that representation is a_j e_j + b_j A_j with a_j(S) = od_j
    prod_{t in S} fn_jt and b_j(S) = prod_{t in S} fd_jt. Here the rows of
    z times the u-indexed off-diagonal parts (`_Side.uoff`) are cleared to
    integer rows over their denominators od_j, A is minus those integer
    rows, and fn/fd are the u-indexed rows of the table. By multilinearity
    in the rows its determinant is the sum over kept rows K of M[K]
    prod_{j in K} b_j prod_{j not in K} a_j, with M the principal minors of
    A. Swapping the sum over K with the products over S gives

        K(S) = (1-z)^(#S-n) sum_K M[K] prod_{j not in K} od_j prod_{t in S} g_K(t)

    over prod_j od_j prod_{t in S} prod_j fd_jt, with g_K(t) = prod_{j in K}
    fd_jt prod_{j not in K} fn_jt. It holds at every #S, since (1-z)^(#S-n)
    is defined for z != 1; the factor (1-z) per element of S is folded into
    g_K and the denominators. Every factor is multiplicative over S, so the
    masks that share a high half form a block: the sum over K of a
    coefficient times the subset products of g_K over the high half and
    over the low half.

    The integers are kept small once per table. The coefficients are
    divided by their gcd with the constant denominator. The subset products
    over one half mask, read across every K with a nonzero minor, form a
    column, and each column is divided by its content (the gcd of its
    entries). That content, times the weight's product over the half mask,
    is reduced against the half mask's denominator and multiplied back once
    per entry. The low-half columns are stored by low half, so each entry
    of a block is one dot product with the block's scales, and each keeps
    only its nonzero entries, with their positions among the coefficients,
    so that the dot product runs over those alone. On SPfin's tables most
    are 0: the ground set holds u itself at shift c, f(u_j, u_j + c) = 0,
    and so g_K over a low half mask vanishes where K misses a u index of
    that mask (76% of the low-half entries at n = m = 5, 90% at
    n + m = 16). The zeros are found in the columns, not from that rule,
    so the dense tables of shift 0 take the same form.

    A block is built when a mask outside the block last read is read, and
    only that block is kept: a sum over splits in rank order reads each
    side's blocks one after another, so it builds each once, and holds
    2^(p/2) entries per side instead of 2^p. The factors are computed in
    `__init__`, so a forked child of `split_sum` inherits them and builds
    only the blocks of its own rank range.
    """

    def __init__(self, side: _Side, z, weight: FTable | None = None):
        half = self._half = side._half
        self._low = side._low
        self._hi, self._block = None, None
        n, p = side.n_left, side.size
        zn, zd = z.numerator, z.denominator
        rows, od = [], []
        for row, o in zip(*side.uoff):
            # z times the row over its least denominator: zn and zd share
            # no factor, nor do the row's content and o
            g = gcd(zd, *row) * gcd(o, zn)
            rows.append([-zn * x // g for x in row])
            od.append(zd * o // g)
        minors = principal_minors(rows)
        wn, wd = zd - zn, zd  # 1 - z = wn / wd
        coefs = [wd ** n]
        low = [[x] for x in _products([wn] * half)]
        high = [[x] for x in _products([wn] * (p - half))]
        den_low, den_high = _products([wd] * half), _products([wd] * (p - half))
        for (ln, hn, ld, hd), o in zip(side._subsets[p:], od):
            coefs = [k * o for k in coefs] + coefs
            low = _fold_columns(low, ln, ld)
            high = _fold_columns(high, hn, hd)
            den_low = [x * y for x, y in zip(den_low, ld)]
            den_high = [x * y for x, y in zip(den_high, hd)]
        kept = [k for k, minor in enumerate(minors) if minor]
        coefs = [minors[k] * coefs[k] for k in kept]
        den = prod(od) * wn ** n
        g = gcd(den, *coefs)
        self._coefs, self._den = [k // g for k in coefs], den // g
        w_low = w_high = None
        if weight is not None:
            ln, hn, ld, hd = weight._subsets[0]
            w_low, w_high = (ln, ld), (hn, hd)
        self._low_parts = _strip(low, den_low, kept, w_low)
        self._high_parts = _strip(high, den_high, kept, w_high)
        self._low_cols = [_nonzero(col) for col in low]
        self._high_cols = high

    def _build(self, hi: int) -> list:
        """The (numerator, denominator) pairs of the masks with high half
        hi, indexed by their low half."""
        scale = list(map(mul, self._coefs, self._high_cols[hi])).__getitem__
        content, den = self._high_parts[hi]
        den *= self._den
        return [(k * content * sum(map(mul, map(scale, idx), vals)), d * den)
                for (k, d), (idx, vals) in zip(self._low_parts, self._low_cols)]

    def pair(self, mask: int) -> tuple:
        """The determinant over the subset mask, times the weight, as an
        unreduced pair, equal as a rational to `_Side.k_pair` times the
        weight's `row(0, mask)`."""
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
        self.c = _rat(c)
        self._u = [_rat(x) for x in u_values]
        self._g = [_rat(x) for x in ground_values]
        self._s = self.c if shift is None else shift
        # f(xi_j, xi_k) and 1/h(xi_j, xi_k) from one difference per pair
        fnum, fden, hinv = _f_ints(self.c, self._g, inv_h=True)
        self._f = fnum, fden
        # 1/h(xi_j, xi_k) as integer rows over one denominator per row, for
        # each half (the conjugated half reads the transpose)
        self._h = _cleared(hinv), _cleared(list(zip(*hinv)))

    # Each determinant's tables are built on its first use: a sum that
    # needs only K, or only K-bar, builds only that half.

    @cached_property
    def _plus(self) -> _Side:
        fu = _f_ints(self.c, self._u, self._shifted(self._s))
        return _Side(self._u, self.c, False, self._f, fu, self._h[0])

    @cached_property
    def _minus(self) -> _Side:
        fu = _f_ints(self.c, self._u, self._shifted(-self._s), True)
        return _Side(self._u, self.c, True, _transposed(self._f), fu,
                     self._h[1])

    def _shifted(self, s) -> list:
        """The ground values plus s; unshifted tables reuse the ground."""
        return [x + s for x in self._g] if s else self._g

    def side(self, conjugated: bool) -> _Side:
        """The half of K^(z)(u | xi_S + s), or conjugated of
        K-bar^(z)(u | xi_S - s); only that half is built."""
        return self._minus if conjugated else self._plus

    # The three rational forms below have no caller in the package: the
    # tests read them, and perfbench/tracing.py wraps them by name.

    def k_plus(self, z, mask: int) -> Rat:
        """K^(z)(u | xi_S + s) for the subset S given as a bitmask."""
        return Rat(*self._plus.k_pair(z, mask))

    def k_minus_conj(self, z, mask: int) -> Rat:
        """Conjugated K-bar^(z)(u | xi_S - s) for the subset S."""
        return Rat(*self._minus.k_pair(z, mask))

    def f_between(self, mask_left: int, mask_right: int) -> Rat:
        """f(xi_L, xi_R) for two disjoint subset masks (shift-invariant)."""
        return Rat(*self._plus.pair(mask_left, mask_right))
