"""The integer rows of the direct determinants and the table-driven partition
sums (the Izergin sums, the action terms, SCe and the vacuum average), bit
for bit against plain-Fraction copies of the code they replaced; and the
FTable and DetTables pairs against copies of the loops they replaced.

The references below build one Fraction per kernel value and per entry, take
determinants by Fraction elimination, and sum partitions over the direct
determinants. Results must agree in type, numerator and denominator, and at
a collision the same PoleError (kind and pair) must be raised.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from mbethe import suites
from mbethe.actions import (WeightOracle, eval_action, eval_scalar,
                            eval_vacuum_average)
from mbethe.errors import PoleError, VariantUndefined
from mbethe.izergin import (DetTables, FTable, conj_mod_izergin,
                            izergin_convolution, izergin_deformation_sum,
                            izergin_partition_sum, mod_izergin)
from mbethe.linalg import clear_denominators, det_int
from mbethe.partitions import (CoefficientMap, bits_of, enumerate_splits,
                               mask_values)
from mbethe.scalars import (Rat, SpectralSet, sample_generic, sample_twist,
                            with_shifts)

CONSTANTS = [Rat(1), Rat(-3, 2)]


# ---------------------------------------------------------------------------
# Plain-Fraction reference copies
# ---------------------------------------------------------------------------

def ref_f(a, b, c):
    if a == b:
        raise PoleError("f", a, b)
    return (a - b + c) / (a - b)


def ref_inv_h(a, b, c):
    h = (a - b + c) / c
    if h == 0:
        raise PoleError("1/h", a, b)
    return 1 / h


def ref_fprod(left, right, c):
    out = Fraction(1)
    for a in left:
        for b in right:
            out *= ref_f(a, b, c)
    return out


def ref_det(matrix):
    rows = [list(row) for row in matrix]
    out = Fraction(1)
    for i in range(len(rows)):
        piv = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if piv is None:
            return Fraction(0)
        if piv != i:
            rows[i], rows[piv] = rows[piv], rows[i]
            out = -out
        out *= rows[i][i]
        for r in range(i + 1, len(rows)):
            factor = rows[r][i] / rows[i][i]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[i])]
    return out


def ref_pow(base, exp):
    return Fraction(1) if exp == 0 else Fraction(base) ** exp


def ref_mod_izergin(z, u, v, c, variant="v-side"):
    z, c = Fraction(z), Fraction(c)
    n, m = len(u), len(v)
    if variant == "v-side":
        rows = []
        for j, vj in enumerate(v):
            base = ref_fprod(u, [vj], c)
            for t, vt in enumerate(v):
                if t != j:
                    base *= ref_f(vj, vt, c)
            rows.append([base - z if j == k else base * ref_inv_h(vj, vk, c)
                         for k, vk in enumerate(v)])
        return ref_det(rows)
    if variant == "u-side":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-side representation carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}; use the v-side")
        rows = []
        for j, uj in enumerate(u):
            diag = ref_fprod([uj], v, c)
            off = -z
            for t, ut in enumerate(u):
                if t != j:
                    off *= ref_f(uj, ut, c)
            rows.append([diag + off if j == k else off * ref_inv_h(uj, uk, c)
                         for k, uk in enumerate(u)])
        return ref_pow(1 - z, m - n) * ref_det(rows)
    raise ValueError(f"unknown variant {variant!r}")


def ref_conj_mod_izergin(z, u, v, c, variant="v-side"):
    z, c = Fraction(z), Fraction(c)
    n, m = len(u), len(v)
    if variant == "v-side":
        rows = []
        for j, vj in enumerate(v):
            base = ref_fprod([vj], u, c)
            for t, vt in enumerate(v):
                if t != j:
                    base *= ref_f(vt, vj, c)
            rows.append([base - z if j == k else base * ref_inv_h(vk, vj, c)
                         for k, vk in enumerate(v)])
        return ref_det(rows)
    if variant == "u-side":
        if z == 1 and m != n:
            raise VariantUndefined(
                "u-side representation carries (1-z)^(m-n) and is undefined "
                f"at z=1 with m={m}, n={n}; use the v-side")
        rows = []
        for j, uj in enumerate(u):
            diag = ref_fprod(v, [uj], c)
            off = -z
            for t, ut in enumerate(u):
                if t != j:
                    off *= ref_f(ut, uj, c)
            rows.append([diag + off if j == k else off * ref_inv_h(uk, uj, c)
                         for k, uk in enumerate(u)])
        return ref_pow(1 - z, m - n) * ref_det(rows)
    raise ValueError(f"unknown variant {variant!r}")


def ref_split_sum(p, term, cards=None):
    total = Fraction(0)
    for m1, m2 in enumerate_splits(p, 2, cards):
        total += term(m1, m2)
    return total


def ref_partition_sum(z, u, v, c, side, conjugated):
    z, c = Fraction(z), Fraction(c)
    n, m = len(u), len(v)
    if side == "v-partitions":
        def v_term(mask1, mask2):
            v1, v2 = mask_values(v, mask1), mask_values(v, mask2)
            term = ref_pow(-z, len(v2))
            if conjugated:
                return term * ref_fprod(v1, u, c) * ref_fprod(v2, v1, c)
            return term * ref_fprod(u, v1, c) * ref_fprod(v1, v2, c)
        return ref_split_sum(m, v_term)
    if z == 1 and m != n:
        raise VariantUndefined(
            "u-partition expansion carries (1-z)^(m-n) and is undefined "
            f"at z=1 with m={m}, n={n}")

    def u_term(mask1, mask2):
        u1, u2 = mask_values(u, mask1), mask_values(u, mask2)
        term = ref_pow(-z, len(u1))
        if conjugated:
            return term * ref_fprod(v, u2, c) * ref_fprod(u2, u1, c)
        return term * ref_fprod(u2, v, c) * ref_fprod(u1, u2, c)
    return ref_pow(1 - z, m - n) * ref_split_sum(n, u_term)


def ref_convolution(z1, z2, u, v, xi, c, conjugated):
    z2 = Fraction(z2)
    fn = ref_conj_mod_izergin if conjugated else ref_mod_izergin

    def term(mask1, mask2):
        x1, x2 = mask_values(xi, mask1), mask_values(xi, mask2)
        out = ref_pow(z2, len(x1)) * fn(z1, u, x1, c) * fn(z2, v, x2, c)
        if conjugated:
            return out * ref_fprod(x1, x2, c) * ref_fprod(x2, u, c)
        return out * ref_fprod(x2, x1, c) * ref_fprod(u, x2, c)
    return ref_split_sum(len(xi), term)


def ref_deformation_sum(z1, z2, u, v, c, conjugated):
    z1 = Fraction(z1)
    fn = ref_conj_mod_izergin if conjugated else ref_mod_izergin

    def term(mask1, mask2):
        v1, v2 = mask_values(v, mask1), mask_values(v, mask2)
        out = ref_pow(z1, len(v2)) * fn(z2, u, v1, c)
        if conjugated:
            return out * ref_fprod(v2, v1, c)
        return out * ref_fprod(v1, v2, c)
    return ref_split_sum(len(v), term)


def ref_shifted_unit_sum(u, v, xi, c, conjugated):
    def term(mask1, mask2):
        x1, x2 = mask_values(xi, mask1), mask_values(xi, mask2)
        if conjugated:
            return (ref_conj_mod_izergin(1, u, [x - c for x in x1], c)
                    * ref_conj_mod_izergin(1, v, [x - c for x in x2], c)
                    * ref_fprod(x1, x2, c) / ref_fprod(u, x2, c))
        return (ref_mod_izergin(1, u, [x + c for x in x1], c)
                * ref_mod_izergin(1, v, [x + c for x in x2], c)
                * ref_fprod(x2, x1, c) / ref_fprod(x2, u, c))
    return ref_split_sum(len(xi), term)


def ref_binomial_sums(xs, c):
    p = len(xs)

    def f21(m1, m2):
        return ref_fprod(mask_values(xs, m2), mask_values(xs, m1), c)

    out = []
    for k in range(p + 1):
        out.append(ref_split_sum(p, f21, (k, p - k)))
        out.append(ref_split_sum(p, lambda m1, m2: f21(m2, m1), (k, p - k)))
    out.append(ref_split_sum(p, lambda m1, m2: ref_pow(-1, bin(m2).count("1"))
                             * f21(m1, m2)))
    return out


class RefTerms:
    """The factors of the action, SCe and vacuum-average terms over subsets
    (bitmasks) of `values`, from the Fraction references above: K^(1)(u |
    x_S + c), K-bar^(1)(u | x_S - c) and f(x_L, x_R), each memoised per
    mask."""

    def __init__(self, u, values, c):
        self.u, self.values, self.c = list(u), list(values), Fraction(c)
        self.memo = {}

    def _get(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def k_plus(self, mask):
        part = [x + self.c for x in mask_values(self.values, mask)]
        return self._get(("k", mask),
                         lambda: ref_mod_izergin(1, self.u, part, self.c))

    def k_minus_conj(self, mask):
        part = [x - self.c for x in mask_values(self.values, mask)]
        return self._get(("kbar", mask),
                         lambda: ref_conj_mod_izergin(1, self.u, part, self.c))

    def f(self, left, right):
        return self._get(("f", left, right), lambda: ref_fprod(
            mask_values(self.values, left), mask_values(self.values, right),
            self.c))


def ref_keyed_sum(p, parts, term, cards=None):
    out = CoefficientMap()
    for split in enumerate_splits(p, parts, cards):
        out.add(split[-1], term(*split))
    return out


def ref_action(kind, u, v, oracle, twist, c):
    """The per-bit terms of eval_action for the six kinds on DetTables."""
    values = list(u) + list(v)
    n, m = len(u), len(v)
    p = n + m
    lam1 = [oracle.lambda1(x) for x in values]
    lam2 = [oracle.lambda2(x) for x in values]
    terms = RefTerms(u, values, c)
    if kind in ("t11", "t22", "nu11", "nu22"):
        diagonal_one = kind in ("t11", "nu11")
        twisted = kind.startswith("nu")
        beta = twist.beta2 if diagonal_one else twist.beta1

        def diagonal_term(mask1, mask2):
            if twisted:
                term = ref_pow(beta, n) * ref_pow(-beta, -bin(mask1).count("1"))
            else:
                term = ref_pow(-1, n)
            if diagonal_one:
                term *= terms.k_minus_conj(mask1) * terms.f(mask2, mask1)
                wvals = lam1
            else:
                term *= terms.k_plus(mask1) * terms.f(mask1, mask2)
                wvals = lam2
            for i in bits_of(mask1):
                term *= wvals[i]
            return term

        return ref_keyed_sum(p, 2, diagonal_term,
                             None if twisted else (n, p - n))
    twisted = kind == "nu21"
    if not twisted and m < n:
        return CoefficientMap()

    def annihilation_term(mask1, mask2, mask3):
        term = terms.k_plus(mask1) * terms.k_minus_conj(mask2)
        term *= (terms.f(mask1, mask2) * terms.f(mask1, mask3)
                 * terms.f(mask3, mask2))
        if twisted:
            term *= (ref_pow(-twist.beta1, n - bin(mask1).count("1"))
                     * ref_pow(-twist.beta2, n - bin(mask2).count("1")))
        for i in bits_of(mask1):
            term *= lam2[i]
        for i in bits_of(mask2):
            term *= lam1[i]
        return term

    return ref_keyed_sum(p, 3, annihilation_term,
                         None if twisted else (n, n, p - 2 * n))


def ref_sce(u, v, oracle, c):
    values = list(u) + list(v)
    l1v = [oracle.lambda1(x) for x in values]
    l2v = [oracle.lambda2(x) for x in values]
    terms = RefTerms(u, values, c)

    def sce_term(mask1, mask2):
        term = terms.k_plus(mask1) * terms.k_minus_conj(mask2)
        term *= terms.f(mask1, mask2)
        for i in bits_of(mask1):
            term *= l2v[i]
        for i in bits_of(mask2):
            term *= l1v[i]
        return term

    return ref_split_sum(2 * len(u), sce_term, (len(u), len(u)))


def ref_vacuum_average(w, oracle, twist, c):
    p = len(w)
    lam1 = [oracle.lambda1(x) for x in w]
    lam2 = [oracle.lambda2(x) for x in w]

    def average_term(mask1, mask2):
        term = (ref_pow(-twist.beta2, -bin(mask2).count("1"))
                * ref_pow(-twist.beta1, -bin(mask1).count("1")))
        for i in bits_of(mask1):
            term *= lam2[i]
        for i in bits_of(mask2):
            term *= lam1[i]
        term *= ref_fprod(mask_values(w, mask1), mask_values(w, mask2), c)
        return term

    return ref_pow(1 - twist.mu, p) * ref_split_sum(p, average_term)


class LoopFTable:
    """A copy of the FTable that products over index lists read: one
    Fraction per entry, read in row-major order (so the first pole met is
    the one raised), and products multiplied out factor by factor."""

    def __init__(self, c, left, right=None):
        same = right is None
        right = left if same else right
        self.table = [[Fraction(1) if same and i == j else ref_f(a, b, c)
                       for j, b in enumerate(right)]
                      for i, a in enumerate(left)]

    def pair(self, rows, cols):
        num = den = 1
        for i in rows:
            for j in cols:
                num *= self.table[i][j].numerator
                den *= self.table[i][j].denominator
        return num, den


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

class LoopTables:
    """A copy of the loop-based DetTables pair assembly: every product over
    a subset is multiplied out factor by factor, and every determinant is
    eliminated by det_int. The kernel values come from the Fraction
    references above, as reduced numerator and denominator. For the
    conjugated side every table is the transposed one."""

    def __init__(self, u, g, c, s, conjugated):
        def o(a, b):
            return (b, a) if conjugated else (a, b)

        shifted = [x - s if conjugated else x + s for x in g]
        self.fu = [[ref_f(*o(a, b), c) for b in shifted] for a in u]
        self.f = [[Fraction(1) if j == t else ref_f(*o(a, b), c)
                   for t, b in enumerate(g)] for j, a in enumerate(g)]
        self.h_rows, self.h_den = clear_denominators(
            [[ref_inv_h(*o(a, b), c) for b in g] for a in g])
        self.row = []
        for j in range(len(g)):
            value = Fraction(1)
            for fu_i in self.fu:
                value *= fu_i[j]
            self.row.append(value)

    def k_pair(self, z, mask):
        idx = list(bits_of(mask))
        zn, zd = z.numerator, z.denominator
        rows, den = [], 1
        for pos, j in enumerate(idx):
            bn, bd = self.row[j].numerator, self.row[j].denominator
            for t in idx:
                bn *= self.f[j][t].numerator
                bd *= self.f[j][t].denominator
            g = gcd(bn, bd)
            bn = bn // g * zd
            bd //= g
            row = [bn * self.h_rows[j][k] for k in idx]
            row[pos] -= zn * bd * self.h_den[j]
            rows.append(row)
            den *= zd * bd * self.h_den[j]
        return det_int(rows), den

    def row_pair(self, mask):
        num = den = 1
        for j in bits_of(mask):
            num *= self.row[j].numerator
            den *= self.row[j].denominator
        return num, den

    def pair(self, left, right):
        num = den = 1
        for i in bits_of(left):
            for j in bits_of(right):
                num *= self.f[i][j].numerator
                den *= self.f[i][j].denominator
        return num, den


def outcome(fn, *args, **kwargs):
    """A comparable record of a call: its exact value, or its error."""
    try:
        value = fn(*args, **kwargs)
    except PoleError as err:
        return ("PoleError", err.kind, err.left, err.right)
    except (VariantUndefined, ValueError) as err:
        return (type(err).__name__, str(err))
    return ("value", type(value), value.numerator, value.denominator)


def same_outcome(fast, reference, *args, **kwargs):
    got = outcome(fast, *args, **kwargs)
    want = outcome(reference, *args, **kwargs)
    assert got == want, (args, kwargs)
    return got


def generic_sets(seed, counts, c):
    out, context = [], ()
    for i, count in enumerate(counts):
        s = sample_generic(count, context=context, seed=seed * 31 + i, c=c,
                           bound=30)
        out.append(s)
        context = context + with_shifts(c, s)
    return out


def deformations(rng):
    return [Rat(0), Rat(1), Rat(2),
            Rat(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(2, 9))]


# A small pool with many differences of 0, c and -c for both constants, so
# that random draws from it collide often and in every way.
POOL = [Rat(x, 2) for x in range(-6, 7)]

DIRECT = [(mod_izergin, ref_mod_izergin),
          (conj_mod_izergin, ref_conj_mod_izergin)]


class TestIntegerRowsMatchReference:
    @pytest.mark.parametrize("c", CONSTANTS)
    @pytest.mark.parametrize("fast,reference", DIRECT)
    def test_generic_points(self, c, fast, reference):
        rng = random.Random(41)
        for n in range(6):
            for m in range(6):
                us, vs = generic_sets(rng.getrandbits(32), [n, m], c)
                for z in deformations(rng):
                    for variant in ("v-side", "u-side"):
                        got = same_outcome(fast, reference, z, us, vs, c,
                                           variant=variant)
                        assert got[0] == "value" or (z == 1 and n != m)

    @pytest.mark.parametrize("c", CONSTANTS)
    @pytest.mark.parametrize("fast,reference", DIRECT)
    def test_collisions(self, c, fast, reference):
        """Values drawn from a small pool: the same value or the same
        PoleError, with the same pair, as the reference."""
        rng = random.Random(42)
        poles = set()
        for trial in range(400):
            n, m = rng.randint(0, 5), rng.randint(0, 5)
            us = SpectralSet(tuple(rng.choice(POOL) for _ in range(n)))
            vs = SpectralSet(tuple(rng.choice(POOL) for _ in range(m)))
            z = rng.choice(deformations(rng))
            for variant in ("v-side", "u-side"):
                got = same_outcome(fast, reference, z, us, vs, c,
                                   variant=variant)
                poles.add(got[1] if got[0] == "PoleError" else None)
        assert {"f", "1/h"} <= poles

    def test_errors(self):
        us, vs = generic_sets(3, [2, 3], Rat(1))
        for fast, reference in DIRECT:
            got = same_outcome(fast, reference, 1, us, vs, 1, variant="u-side")
            assert got[0] == "VariantUndefined"
            got = same_outcome(fast, reference, 2, us, vs, 1, variant="w-side")
            assert got[0] == "ValueError"


class TestTableSumsMatchReference:
    @pytest.mark.parametrize("c", CONSTANTS)
    def test_partition_sums(self, c):
        rng = random.Random(43)
        for n in range(6):
            for m in range(6):
                us, vs = generic_sets(rng.getrandbits(32), [n, m], c)
                for z in deformations(rng):
                    for side in ("v-partitions", "u-partitions"):
                        for conj in (False, True):
                            same_outcome(izergin_partition_sum, ref_partition_sum,
                                         z, us, vs, c, side=side,
                                         conjugated=conj)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_convolution(self, c):
        rng = random.Random(44)
        for n in range(4):
            for m in range(4):
                for l in range(5):
                    us, vs, xs = generic_sets(rng.getrandbits(32), [n, m, l], c)
                    z1, z2 = rng.sample(deformations(rng), 2)
                    for conj in (False, True):
                        same_outcome(izergin_convolution, ref_convolution, z1, z2,
                                     us, vs, xs, c, conjugated=conj)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_deformation_sum(self, c):
        rng = random.Random(45)
        for n in range(6):
            for m in range(6):
                us, vs = generic_sets(rng.getrandbits(32), [n, m], c)
                z1, z2 = rng.sample(deformations(rng), 2)
                for conj in (False, True):
                    same_outcome(izergin_deformation_sum, ref_deformation_sum,
                                 z1, z2, us, vs, c, conjugated=conj)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_shifted_unit_sum(self, c):
        rng = random.Random(46)
        for n in range(4):
            for m in range(4):
                for l in range(5):
                    us, vs, xs = generic_sets(rng.getrandbits(32), [n, m, l], c)
                    for conj in (False, True):
                        same_outcome(suites.shifted_unit_sum, ref_shifted_unit_sum,
                                     us, vs, xs, c, conjugated=conj)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_binomial_sums(self, c):
        # the private helpers are read here, so that renaming one fails this
        # test alone instead of the whole module's collection
        ctx = suites.Context(c, 30, 1, {"max_size": 7}, 0, 47)
        _, lhs, _, ok = suites._binomial_sums(
            ctx, random.Random(47), top=lambda sizes: sizes["max_size"])
        assert ok
        rng = random.Random(47)  # the draws of _binomial_sums
        want = []
        for p in range(1, 8):
            xs, = suites._spectra(ctx, rng.getrandbits(48), [p], ["x"])
            want += ref_binomial_sums(xs.values, c)
        assert [(type(x), x.numerator, x.denominator) for x in lhs] == [
            (type(x), x.numerator, x.denominator) for x in want]

    def test_collisions(self):
        """One colliding pair: the same outcome as the reference. A pair
        within v (or xi), or between u and v, is a pole of both routes. A
        pair within u is a pole only of the u-indexed rows, which the tables
        then leave unused, so the deformation and convolution sums keep
        their values."""
        c = Rat(1)
        rng = random.Random(48)
        us, vs, xs = generic_sets(49, [2, 2, 3], c)
        cases = [
            (us, SpectralSet((us[1],) + vs.values[1:]), "PoleError"),   # f(u, v)
            (us, SpectralSet((vs[0], vs[1], vs[0])), "PoleError"),      # f(v, v)
            (us, SpectralSet((vs[0], vs[1], vs[0] + c)), "PoleError"),  # 1/h(v, v)
            (SpectralSet((us[0], us[0])), vs, "value"),                 # f(u, u)
            (SpectralSet((us[0], us[0] + c)), vs, "value"),             # 1/h(u, u)
        ]
        for u, v, kind in cases:
            z1, z2 = rng.sample(deformations(rng), 2)
            for conj in (False, True):
                for left, right in ((u, v), (v, u)):
                    for side in ("v-partitions", "u-partitions"):
                        same_outcome(izergin_partition_sum, ref_partition_sum,
                                     z2, left, right, c, side=side,
                                     conjugated=conj)
                got = same_outcome(izergin_deformation_sum, ref_deformation_sum,
                                   z1, z2, u, v, c, conjugated=conj)
                assert got[0] == kind
                got = same_outcome(izergin_convolution, ref_convolution, z1, z2,
                                   u, SpectralSet(xs.values[:1]), v, c,
                                   conjugated=conj)
                assert got[0] == kind


class TestDetTablesMatchLoops:
    """Every pair of DetTables, read from subset-product tables: the same
    numerator and denominator as the loop-based assembly of the
    ground-indexed rows."""

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_generic_points(self, c):
        rng = random.Random(43)
        for n, size in ((0, 4), (2, 5), (3, 6), (4, 7)):
            us, xs = generic_sets(rng.getrandbits(32), [n, size], c)
            u, g = list(us.values), list(xs.values)
            for s in (Rat(0), c, -c):
                tables = DetTables(u, g, c, shift=s)
                plus = LoopTables(u, g, c, s, conjugated=False)
                minus = LoopTables(u, g, c, s, conjugated=True)
                for z in deformations(rng):
                    for mask in range(1 << size):
                        assert (tables.side(False).k_pair(z, mask)
                                == plus.k_pair(z, mask))
                        assert (tables.side(True).k_pair(z, mask)
                                == minus.k_pair(z, mask))
                for mask in range(1 << size):
                    assert (tables.side(False).factors.row(0, mask)
                            == plus.row_pair(mask))
                    assert (tables.side(True).factors.row(0, mask)
                            == minus.row_pair(mask))
                for _, left, right in enumerate_splits(size, 3):
                    assert (tables.side(False).pair(left, right)
                            == plus.pair(left, right))

    def test_colliding_left_set(self):
        """Two values of u with f or 1/h at a pole between them."""
        c = Rat(1)
        _, xs = generic_sets(44, [0, 5], c)
        g = list(xs.values)
        for u in ([Rat(1, 3), Rat(1, 3), Rat(5, 7)], [Rat(1, 3), Rat(4, 3)]):
            tables = DetTables(u, g, c)
            plus = LoopTables(u, g, c, c, conjugated=False)
            minus = LoopTables(u, g, c, c, conjugated=True)
            assert tables._plus.uoff is None and tables._minus.uoff is None
            for z in (Rat(0), Rat(-7, 4)):
                for mask in range(1 << len(g)):
                    assert (tables.side(False).k_pair(z, mask)
                            == plus.k_pair(z, mask))
                    assert (tables.side(True).k_pair(z, mask)
                            == minus.k_pair(z, mask))


def typed(pair):
    return [(type(x), x) for x in pair]


class TestFTableMatchesLoops:
    """Every read of FTable against the loop over the index lists of its
    masks: the same integers, unreduced."""

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_every_mask(self, c):
        rng = random.Random(50)
        for rows in range(8):
            for cols in range(8):
                left, right = generic_sets(rng.getrandbits(32), [rows, cols], c)
                cases = [(FTable(c, left.values, right.values),
                          LoopFTable(c, left.values, right.values), cols)]
                if rows == cols:  # right omitted: the pairs within left
                    cases.append((FTable(c, left.values),
                                  LoopFTable(c, left.values), rows))
                for table, loop, width in cases:
                    for rm in range(1 << rows):
                        r = list(bits_of(rm))
                        for cm in range(1 << width):
                            k = list(bits_of(cm))
                            assert typed(table.pair(rm, cm)) == typed(loop.pair(r, k))
                    for i in range(rows):
                        for cm in range(1 << width):
                            assert (typed(table.row(i, cm))
                                    == typed(loop.pair([i], list(bits_of(cm)))))

    def test_integer_rows(self):
        """FTable.of_ints, with zero and negative factors, one row and many."""
        rng = random.Random(51)
        for rows in (1, 3):
            for cols in range(8):
                num = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
                den = [[rng.randint(1, 9) for _ in range(cols)] for _ in range(rows)]
                table = FTable.of_ints(num, den)
                for rm in range(1 << rows):
                    for cm in range(1 << cols):
                        want = [1, 1]
                        for i in bits_of(rm):
                            for j in bits_of(cm):
                                want[0] *= num[i][j]
                                want[1] *= den[i][j]
                        assert typed(table.pair(rm, cm)) == typed(want)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_collisions(self, c):
        """Values from a small pool: the same PoleError (kind and pair) as
        the loop table, or the same products."""
        rng = random.Random(52)
        poles = 0
        for trial in range(300):
            left = [rng.choice(POOL) for _ in range(rng.randint(0, 5))]
            right = (None if trial % 3 == 0 else
                     [rng.choice(POOL) for _ in range(rng.randint(0, 5))])
            got = want = None
            try:
                loop = LoopFTable(c, left, right)
            except PoleError as err:
                want = (err.kind, err.left, err.right)
            try:
                table = FTable(c, left, right)
            except PoleError as err:
                got = (err.kind, err.left, err.right)
            assert got == want, (left, right)
            if want is not None:
                poles += 1
                continue
            width = len(left if right is None else right)
            for rm in range(1 << len(left)):
                assert table.pair(rm, (1 << width) - 1) == loop.pair(
                    list(bits_of(rm)), range(width))
        assert poles > 0


def coefficients(result):
    return [(k, type(v), v.numerator, v.denominator) for k, v in result.items()]


def exact(value):
    return type(value), value.numerator, value.denominator


class TestActionTermsMatchReference:
    """The action, SCe and vacuum-average sums against the per-bit Fraction
    terms they replaced, with Fraction determinants: every coefficient has
    the same type, numerator and denominator."""

    @pytest.mark.parametrize("c", CONSTANTS)
    @pytest.mark.parametrize("kind", ["t11", "t22", "nu11", "nu22", "t21", "nu21"])
    def test_actions(self, c, kind):
        rng = random.Random(53)
        for n in range(6):
            for m in range(6 - n):
                us, vs = generic_sets(rng.getrandbits(32), [n, m], c)
                oracle = WeightOracle.random_seeded(rng.getrandbits(16))
                twist = sample_twist(rng.getrandbits(32), c)
                got = eval_action(kind, us, vs, oracle, twist, c).coefficients
                want = ref_action(kind, us.values, vs.values, oracle, twist, c)
                assert coefficients(got) == coefficients(want), (n, m)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_sce(self, c):
        rng = random.Random(54)
        for n in range(3):
            us, vs = generic_sets(rng.getrandbits(32), [n, n], c)
            oracle = WeightOracle.random_seeded(rng.getrandbits(16))
            assert (exact(eval_scalar("SCe", us, vs, oracle, None, c))
                    == exact(ref_sce(us.values, vs.values, oracle, c)))

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_vacuum_average(self, c):
        rng = random.Random(55)
        for p in range(6):
            ws, = generic_sets(rng.getrandbits(32), [p], c)
            oracle = WeightOracle.random_seeded(rng.getrandbits(16))
            twist = sample_twist(rng.getrandbits(32), c)
            assert (exact(eval_vacuum_average(ws, oracle, twist, c))
                    == exact(ref_vacuum_average(ws.values, oracle, twist, c)))
