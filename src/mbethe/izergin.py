"""Deformed Izergin determinants, their partition-sum expansions, and the
residue machinery.

Each determinant K^(z)(u|v) exists in two printed representations: one of
size #v (total in z) and one of size #u carrying a (1-z)^(m-n) prefactor that
is undefined at z = 1 unless the cardinalities match. The conjugated variant
equals the plain one with c negated but is computed from its own determinant,
so the two routes stay independent and can be checked against each other.
"""

from __future__ import annotations

from math import gcd

from .errors import CardinalityError, DegenerateError, PoleError, VariantUndefined
from .linalg import clear_denominators, det, det_int
from .partitions import bits_of, mask_values, split_sum
from .ratfunc import rational_interpolate
from .scalars import (Rat, SpectralSet, diff_pair, h_pair, is_generic, kernel_f,
                      set_product)

__all__ = [
    "mod_izergin", "conj_mod_izergin", "ordinary_izergin",
    "izergin_partition_sum", "izergin_convolution", "izergin_deformation_sum",
    "residue_check", "rational_interpolate", "rat_pow", "DetTables",
]


def rat_pow(base, exp: int) -> Rat:
    """base**exp for integer exp; 0**0 = 1, negative powers of 0 raise."""
    base = Rat(base)
    if exp == 0:
        return Rat(1)
    if base == 0 and exp < 0:
        raise ZeroDivisionError("negative power of zero")
    return base ** exp


def _inv_h(a, b, c) -> Rat:
    """1 / h(a, b); raises PoleError where h = 0 (a - b = -c)."""
    num, den = h_pair(*diff_pair(a, b), c.numerator, c.denominator)
    if not num:
        raise PoleError("1/h", a, b)
    return Rat(den, num)


def mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                variant: str = "v-side") -> Rat:
    """Deformed Izergin determinant K^(z)(u_set | v_set).

    variant 'v-side' is the #v-sized determinant, defined for every z;
    'u-side' is the #u-sized determinant with the (1-z)^(m-n) prefactor and
    raises VariantUndefined at z = 1 when the cardinalities differ.
    """
    z, c = Rat(z), Rat(c)
    u, v = u_set.values, v_set.values
    n, m = len(u), len(v)
    if variant == "v-side":
        rows = []
        for j, vj in enumerate(v):
            base = set_product("f", u, vj, c)
            for t, vt in enumerate(v):
                if t != j:
                    base *= kernel_f(vj, vt, c)
            rows.append([base - z if j == k else base * _inv_h(vj, vk, c)
                         for k, vk in enumerate(v)])
        return det(rows)
    if variant == "u-side":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-side representation carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}; use the v-side")
        rows = []
        for j, uj in enumerate(u):
            diag = set_product("f", uj, v, c)
            off = -z
            for t, ut in enumerate(u):
                if t != j:
                    off *= kernel_f(uj, ut, c)
            rows.append([diag + off if j == k else off * _inv_h(uj, uk, c)
                         for k, uk in enumerate(u)])
        return rat_pow(1 - z, m - n) * det(rows)
    raise ValueError(f"unknown variant {variant!r}")


def conj_mod_izergin(z, u_set: SpectralSet, v_set: SpectralSet, c,
                     variant: str = "v-side") -> Rat:
    """Conjugated deformed Izergin determinant (equals mod_izergin with c -> -c).

    Computed from its own determinant representation rather than by negating
    c, so the defining relation stays a checkable identity.
    """
    z, c = Rat(z), Rat(c)
    u, v = u_set.values, v_set.values
    n, m = len(u), len(v)
    if variant == "v-side":
        rows = []
        for j, vj in enumerate(v):
            base = set_product("f", vj, u, c)
            for t, vt in enumerate(v):
                if t != j:
                    base *= kernel_f(vt, vj, c)
            rows.append([base - z if j == k else base * _inv_h(vk, vj, c)
                         for k, vk in enumerate(v)])
        return det(rows)
    if variant == "u-side":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-side representation carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}; use the v-side")
        rows = []
        for j, uj in enumerate(u):
            diag = set_product("f", v, uj, c)
            off = -z
            for t, ut in enumerate(u):
                if t != j:
                    off *= kernel_f(ut, uj, c)
            rows.append([diag + off if j == k else off * _inv_h(uk, uj, c)
                         for k, uk in enumerate(u)])
        return rat_pow(1 - z, m - n) * det(rows)
    raise ValueError(f"unknown variant {variant!r}")


def ordinary_izergin(u_set: SpectralSet, v_set: SpectralSet, c,
                     conjugated: bool = False) -> Rat:
    """Undeformed Izergin determinant; requires equal cardinalities."""
    if len(u_set) != len(v_set):
        raise CardinalityError(
            f"ordinary determinant needs #u = #v, got {len(u_set)} and {len(v_set)}")
    fn = conj_mod_izergin if conjugated else mod_izergin
    return fn(Rat(1), u_set, v_set, c, variant="v-side")


def izergin_partition_sum(z, u_set: SpectralSet, v_set: SpectralSet, c,
                          side: str = "v-partitions",
                          conjugated: bool = False) -> Rat:
    """Sum-over-partitions expansion equal to the corresponding determinant.

    'v-partitions' splits v_set; 'u-partitions' splits u_set and carries the
    (1-z)^(m-n) prefactor (undefined at z=1 when cardinalities differ, like
    the u-side determinant).
    """
    z, c = Rat(z), Rat(c)
    n, m = len(u_set), len(v_set)
    if side == "v-partitions":
        def v_term(mask1, mask2):
            v1 = mask_values(v_set.values, mask1)
            v2 = mask_values(v_set.values, mask2)
            term = rat_pow(-z, len(v2))
            if conjugated:
                term *= set_product("f", v1, u_set, c) * set_product("f", v2, v1, c)
            else:
                term *= set_product("f", u_set, v1, c) * set_product("f", v1, v2, c)
            return term

        return split_sum(m, 2, v_term)
    if side == "u-partitions":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-partition expansion carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}")

        def u_term(mask1, mask2):
            u1 = mask_values(u_set.values, mask1)
            u2 = mask_values(u_set.values, mask2)
            term = rat_pow(-z, len(u1))
            if conjugated:
                term *= set_product("f", v_set, u2, c) * set_product("f", u2, u1, c)
            else:
                term *= set_product("f", u2, v_set, c) * set_product("f", u1, u2, c)
            return term

        return rat_pow(1 - z, m - n) * split_sum(n, 2, u_term)
    raise ValueError(f"unknown side {side!r}")


def izergin_convolution(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                        xi_set: SpectralSet, c, conjugated: bool = False) -> Rat:
    """Convolution sum over splits of xi_set pairing two determinants.

    Contract: equals the single determinant at deformation z1*z2 on the merged
    left set {u_set, v_set}.
    """
    z2 = Rat(z2)
    fn = conj_mod_izergin if conjugated else mod_izergin

    def conv_term(mask1, mask2):
        x1 = SpectralSet(mask_values(xi_set.values, mask1))
        x2 = SpectralSet(mask_values(xi_set.values, mask2))
        term = rat_pow(z2, len(x1))
        term *= fn(z1, u_set, x1, c) * fn(z2, v_set, x2, c)
        if conjugated:
            term *= set_product("f", x1, x2, c) * set_product("f", x2, u_set, c)
        else:
            term *= set_product("f", x2, x1, c) * set_product("f", u_set, x2, c)
        return term

    return split_sum(len(xi_set), 2, conv_term)


def izergin_deformation_sum(z1, z2, u_set: SpectralSet, v_set: SpectralSet,
                            c, conjugated: bool = False) -> Rat:
    """Deformation-shifting sum over splits of v_set.

    Contract: equals the determinant at deformation z2 - z1.
    """
    z1 = Rat(z1)
    fn = conj_mod_izergin if conjugated else mod_izergin

    def shift_term(mask1, mask2):
        v1 = SpectralSet(mask_values(v_set.values, mask1))
        v2 = mask_values(v_set.values, mask2)
        term = rat_pow(z1, len(v2)) * fn(z2, u_set, v1, c)
        if conjugated:
            term *= set_product("f", v2, v1, c)
        else:
            term *= set_product("f", v1, v2, c)
        return term

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


class _Side:
    """Integer kernel tables behind one of the two determinants of DetTables.

    Every kernel value is stored as the numerator and denominator of its
    reduced fraction, so products over a subset are plain integer products.
    Index j runs over the ground set and i over the left set u; for the
    conjugated side every table is transposed, so that both determinants
    share one row assembly.
    """

    def __init__(self, row, fpair, hinv, fu, uoff):
        self.row_num = [x.numerator for x in row]  # f(u-set, xi_j +- c)
        self.row_den = [x.denominator for x in row]
        self.f_num, self.f_den = _ints(fpair)      # f(xi_j, xi_t); 1 at t = j
        self.fu_num, self.fu_den = _ints(fu)       # f(u_i, xi_t +- c)
        # 1/h(xi_j, xi_k) as integer rows over one denominator per row
        self.h_rows, self.h_den = clear_denominators(hinv)
        self.uoff = uoff  # split-independent u-indexed off-diagonal parts
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


def _ints(table):
    """Numerators and denominators of a table of rationals, as two tables."""
    return ([[x.numerator for x in row] for row in table],
            [[x.denominator for x in row] for row in table])


class DetTables:
    """Cached pairwise kernels for repeated determinant evaluation on subsets.

    Fixes a left set u and a ground list of values xi once, then evaluates
    K^(z)(u | xi_S + c) and its conjugate K-bar^(z)(u | xi_S - c) for many
    subsets S without recomputing pairwise kernels. The kernels of shifted
    pairs reduce to unshifted ones because f and h depend only on argument
    differences.

    The kernels are kept as integer (numerator, denominator) tables. Each
    determinant row is assembled from them directly as integers over one
    denominator per row, with no gcd per entry, and the integer matrix goes
    to `linalg.det_int`. The `*_pair` methods return the unreduced
    (numerator, denominator) of a value, so that a partition sum can multiply
    a whole term in integers and build one rational per term; `k_plus`,
    `k_minus_conj` and `f_between` return the reduced rational.
    """

    def __init__(self, u_values, ground_values, c):
        self.c = Rat(c)
        u = [Rat(x) for x in u_values]
        g = [Rat(x) for x in ground_values]
        self.size = len(g)
        self.n_left = len(u)
        c = self.c
        one = Rat(1)
        fu_plus = [[kernel_f(ui, gj + c, c) for gj in g] for ui in u]
        fu_minus = [[kernel_f(gj - c, ui, c) for gj in g] for ui in u]
        fpair = [[kernel_f(a, b, c) if i != j else one
                  for j, b in enumerate(g)] for i, a in enumerate(g)]
        hinv = [[_inv_h(a, b, c) for b in g] for a in g]
        row_plus, row_minus = [], []
        for j in range(len(g)):
            rp = rm = one
            for i in range(len(u)):
                rp *= fu_plus[i][j]
                rm *= fu_minus[i][j]
            row_plus.append(rp)
            row_minus.append(rm)
        uoff_plus, uoff_minus = [], []
        for j, uj in enumerate(u):
            comp_p = comp_m = one
            for t, ut in enumerate(u):
                if t != j:
                    comp_p *= kernel_f(uj, ut, c)
                    comp_m *= kernel_f(ut, uj, c)
            uoff_plus.append([comp_p * _inv_h(uj, uk, c) for uk in u])
            uoff_minus.append([comp_m * _inv_h(uk, uj, c) for uk in u])
        self._plus = _Side(row_plus, fpair, hinv, fu_plus, uoff_plus)
        self._minus = _Side(row_minus, list(zip(*fpair)), list(zip(*hinv)),
                            fu_minus, uoff_minus)

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
        if s > n and z != 1:
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
        """K^(z)(u | xi_S + c) as an unreduced (numerator, denominator) pair,
        for the subset S given as a list of ground indices."""
        return self._k_pair(self._plus, Rat(z), idx)

    def k_minus_conj_pair(self, z, idx):
        """Conjugated K-bar^(z)(u | xi_S - c) as an unreduced pair."""
        return self._k_pair(self._minus, Rat(z), idx)

    def f_between_pair(self, idx_left, idx_right):
        """f(xi_L, xi_R) as an unreduced (numerator, denominator) pair."""
        num = den = 1
        side = self._plus
        for i in idx_left:
            fn, fd = side.f_num[i], side.f_den[i]
            for j in idx_right:
                num *= fn[j]
                den *= fd[j]
        return num, den

    def k_plus(self, z, mask: int) -> Rat:
        """K^(z)(u | xi_S + c) for the subset S given as a bitmask."""
        return Rat(*self.k_plus_pair(z, list(bits_of(mask))))

    def k_minus_conj(self, z, mask: int) -> Rat:
        """Conjugated K-bar^(z)(u | xi_S - c) for the subset S."""
        return Rat(*self.k_minus_conj_pair(z, list(bits_of(mask))))

    def f_between(self, mask_left: int, mask_right: int) -> Rat:
        """f(xi_L, xi_R) for two disjoint subset masks (shift-invariant)."""
        return Rat(*self.f_between_pair(list(bits_of(mask_left)),
                                        list(bits_of(mask_right))))
