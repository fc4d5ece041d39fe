"""The integer rows of the direct determinants and the table-driven partition
sums, bit for bit against plain-Fraction copies of the code they replaced.

The references below build one Fraction per kernel value and per entry, take
determinants by Fraction elimination, and sum partitions over the direct
determinants. Results must agree in type, numerator and denominator, and at
a collision the same PoleError (kind and pair) must be raised.
"""

import random
from fractions import Fraction

import pytest

from mbethe.errors import PoleError, VariantUndefined
from mbethe.izergin import (conj_mod_izergin, izergin_convolution,
                            izergin_deformation_sum, izergin_partition_sum,
                            mod_izergin)
from mbethe.partitions import enumerate_splits, mask_values
from mbethe.scalars import Rat, SpectralSet, sample_generic, with_shifts
from mbethe.suites import _binomial_check, _spectra, shifted_unit_sum

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


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

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
                        same_outcome(shifted_unit_sum, ref_shifted_unit_sum,
                                     us, vs, xs, c, conjugated=conj)

    @pytest.mark.parametrize("c", CONSTANTS)
    def test_binomial_sums(self, c):
        _, lhs, _, ok = _binomial_check(47, c, 30, 7)
        assert ok
        rng = random.Random(47)  # the draws of _binomial_check
        want = []
        for p in range(1, 8):
            xs, = _spectra(rng.getrandbits(48), c, 30, [p], ["x"])
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
