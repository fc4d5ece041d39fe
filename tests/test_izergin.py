"""Deformed determinants: closed forms, representation equivalence, the full
law suite at small sizes, and the residue machinery."""

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbethe import izergin
from mbethe.errors import CardinalityError, PoleError, VariantUndefined
from mbethe.izergin import (DetTables, FTable, _KBlocks, _Side,
                            conj_mod_izergin,
                            izergin_convolution, izergin_deformation_sum,
                            izergin_partition_sum, mod_izergin,
                            ordinary_izergin, residue_check)
from mbethe.partitions import enumerate_splits, mask_values, split_sum
from mbethe.scalars import (Rat, SpectralSet, kernel_g, sample_generic,
                            sample_twist, set_product, with_shifts)

C = Rat(1)


def spectra(seed, counts, c=C, bound=30):
    out = []
    context = ()
    for i, count in enumerate(counts):
        s = sample_generic(count, context=context, seed=seed * 31 + i, c=c,
                           bound=bound)
        out.append(s)
        context = context + with_shifts(c, s)
    return out


class TestClosedForms:
    def test_empty_sets(self):
        us, = spectra(1, [3])
        empty = SpectralSet(())
        for z in (Rat(0), Rat(2), Rat(-7, 3)):
            assert mod_izergin(z, us, empty, C) == 1
            assert conj_mod_izergin(z, us, empty, C) == 1
            assert mod_izergin(z, empty, us, C) == (1 - z) ** 3
            assert conj_mod_izergin(z, empty, us, C) == (1 - z) ** 3

    def test_one_by_one(self):
        u = SpectralSet([2])
        v = SpectralSet([0])
        assert mod_izergin(3, u, v, C) == Rat(-3, 2)  # f(2,0) - 3
        # conjugated single pair: f(v,u) - z at z=0
        assert conj_mod_izergin(0, u, v, C) == Rat(1, 2)

    def test_single_row_and_column(self):
        us, vs = spectra(2, [4, 1])
        single, many = spectra(3, [1, 4])
        z = Rat(5, 3)
        assert mod_izergin(z, us, vs, C) == set_product("f", us, vs[0], C) - z
        assert conj_mod_izergin(z, us, vs, C) == set_product("f", vs[0], us, C) - z
        lhs = mod_izergin(z, single, many, C)
        assert lhs == (1 - z) ** 3 * (set_product("f", single[0], many, C) - z)
        lhs = conj_mod_izergin(z, single, many, C)
        assert lhs == (1 - z) ** 3 * (set_product("f", many, single[0], C) - z)

    def test_unit_deformation_vanishes_above(self):
        us, vs = spectra(4, [1, 2])
        assert mod_izergin(1, us, vs, C) == 0
        assert conj_mod_izergin(1, us, vs, C) == 0
        us, vs = spectra(5, [2, 4])
        assert mod_izergin(1, us, vs, C) == 0

    def test_ordinary_limit(self):
        us, vs = spectra(6, [1, 1])
        assert ordinary_izergin(us, vs, C) == kernel_g(us[0], vs[0], C)
        for n in (0, 2, 3, 4, 5):
            us, vs = spectra(6 + n, [n, n])
            assert ordinary_izergin(us, vs, C) == mod_izergin(1, us, vs, C)
            assert (ordinary_izergin(us, vs, C, conjugated=True)
                    == conj_mod_izergin(1, us, vs, C))

    def test_ordinary_needs_equal_cardinalities(self):
        us, vs = spectra(7, [2, 3])
        with pytest.raises(CardinalityError):
            ordinary_izergin(us, vs, C)


class TestRepresentations:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 4)])
    def test_two_sides_agree(self, n, m):
        for trial in range(5):
            us, vs = spectra(50 + 10 * n + m + trial, [n, m])
            for z in (Rat(0), Rat(2), Rat(-5, 7)):
                assert (mod_izergin(z, us, vs, C)
                        == mod_izergin(z, us, vs, C, variant="u-side"))
                assert (conj_mod_izergin(z, us, vs, C)
                        == conj_mod_izergin(z, us, vs, C, variant="u-side"))

    def test_u_side_undefined_at_unit_z(self):
        us, vs = spectra(8, [2, 3])
        with pytest.raises(VariantUndefined):
            mod_izergin(1, us, vs, C, variant="u-side")
        with pytest.raises(VariantUndefined):
            conj_mod_izergin(1, us, vs, C, variant="u-side")
        # equal cardinalities stay defined at z = 1
        us, vs = spectra(9, [2, 2])
        assert (mod_izergin(1, us, vs, C, variant="u-side")
                == mod_izergin(1, us, vs, C))

    def test_conjugate_is_negated_c(self):
        for n, m in ((1, 1), (2, 3), (3, 2)):
            us, vs = spectra(60 + n + 5 * m, [n, m])
            z = Rat(4, 7)
            assert conj_mod_izergin(z, us, vs, C) == mod_izergin(z, us, vs, -C)


class TestLaws:
    def test_shift_transfer(self):
        for n, m in ((1, 2), (3, 3), (2, 4)):
            us, vs = spectra(70 + n + 7 * m, [n, m])
            z = Rat(3, 5)
            assert (mod_izergin(z, us.shifted(-C), vs, C)
                    == mod_izergin(z, us, vs.shifted(C), C))
            assert (conj_mod_izergin(z, us.shifted(-C), vs, C)
                    == conj_mod_izergin(z, us, vs.shifted(C), C))

    def test_negation_conjugation(self):
        for n, m in ((1, 1), (2, 3)):
            us, vs = spectra(80 + n + 3 * m, [n, m])
            z = Rat(-2, 3)
            assert (mod_izergin(z, us.negated(), vs.negated(), C)
                    == conj_mod_izergin(z, us, vs, C))

    def test_paired_argument_reduction(self):
        us, vs, ws = spectra(11, [2, 2, 1])
        w = ws[0]
        z = Rat(7, 2)
        grown_u = SpectralSet(us.values + (w - C,))
        grown_v = SpectralSet(vs.values + (w,))
        assert mod_izergin(z, grown_u, grown_v, C) == -z * mod_izergin(z, us, vs, C)
        grown_u = SpectralSet(us.values + (w + C,))
        assert (conj_mod_izergin(z, grown_u, grown_v, C)
                == -z * conj_mod_izergin(z, us, vs, C))

    def test_transposition(self):
        for n, m in ((2, 2), (1, 3), (3, 1)):
            us, vs = spectra(90 + n + 11 * m, [n, m])
            z = Rat(5, 4)
            assert (conj_mod_izergin(z, us, vs, C)
                    == Rat(1 - z) ** (m - n) * mod_izergin(z, vs, us, C))

    def test_inversion(self):
        for n, m in ((1, 2), (2, 2), (3, 2)):
            us, vs = spectra(100 + n + 13 * m, [n, m])
            z = Rat(2, 7)
            scale = Rat(-z) ** n * Rat(1 - z) ** (m - n)
            assert (mod_izergin(z, us, vs.shifted(C), C)
                    == scale / set_product("f", vs, us, C)
                    * mod_izergin(1 / z, vs, us, C))
            assert (conj_mod_izergin(z, us, vs.shifted(-C), C)
                    == scale / set_product("f", us, vs, C)
                    * conj_mod_izergin(1 / z, vs, us, C))


class TestPartitionSums:
    def test_empty_right_set(self):
        us, = spectra(12, [2])
        assert izergin_partition_sum(Rat(3), us, SpectralSet(()), C) == 1

    def test_zero_deformation_collapse(self):
        us, vs = spectra(13, [2, 3])
        assert izergin_partition_sum(0, us, vs, C) == set_product("f", us, vs, C)

    @pytest.mark.parametrize("side", ["v-partitions", "u-partitions"])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_expansion_equals_determinant(self, side, conjugated):
        fn = conj_mod_izergin if conjugated else mod_izergin
        for n, m in ((1, 1), (2, 3), (3, 2), (4, 4)):
            us, vs = spectra(110 + n + 17 * m, [n, m])
            z = Rat(9, 5)
            assert (izergin_partition_sum(z, us, vs, C, side=side,
                                          conjugated=conjugated)
                    == fn(z, us, vs, C))

    def test_u_side_sum_undefined_at_unit_z(self):
        us, vs = spectra(14, [2, 3])
        with pytest.raises(VariantUndefined):
            izergin_partition_sum(1, us, vs, C, side="u-partitions")


class TestConvolutionAndDeformation:
    def test_empty_xi(self):
        us, vs = spectra(15, [1, 2])
        assert izergin_convolution(2, 3, us, vs, SpectralSet(()), C) == 1

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_convolution_merges_determinants(self, conjugated):
        fn = conj_mod_izergin if conjugated else mod_izergin
        for n, m, l in ((1, 1, 2), (2, 1, 3), (1, 2, 3)):
            us, vs, xs = spectra(120 + n + 3 * m + 7 * l, [n, m, l])
            z1, z2 = Rat(2), Rat(5, 3)
            assert (izergin_convolution(z1, z2, us, vs, xs, C,
                                        conjugated=conjugated)
                    == fn(z1 * z2, us.union(vs), xs, C))

    def test_shifted_unit_convolution(self):
        from mbethe.partitions import enumerate_splits
        us, vs, xs = spectra(16, [2, 1, 3])
        merged = us.union(vs)
        plain = minus = Rat(0)
        for m1, m2 in enumerate_splits(len(xs), 2):
            x1 = SpectralSet(mask_values(xs.values, m1))
            x2 = SpectralSet(mask_values(xs.values, m2))
            plain += (mod_izergin(1, us, x1.shifted(C), C)
                      * mod_izergin(1, vs, x2.shifted(C), C)
                      * set_product("f", x2, x1, C) / set_product("f", x2, us, C))
            minus += (conj_mod_izergin(1, us, x1.shifted(-C), C)
                      * conj_mod_izergin(1, vs, x2.shifted(-C), C)
                      * set_product("f", x1, x2, C) / set_product("f", us, x2, C))
        assert plain == mod_izergin(1, merged, xs.shifted(C), C)
        assert minus == conj_mod_izergin(1, merged, xs.shifted(-C), C)

    def test_deformation_zero_shift(self):
        us, vs = spectra(17, [2, 3])
        z2 = Rat(4, 3)
        assert (izergin_deformation_sum(0, z2, us, vs, C)
                == mod_izergin(z2, us, vs, C))

    def test_deformation_equal_parameters(self):
        us, vs = spectra(18, [2, 3])
        z = Rat(7, 5)
        assert (izergin_deformation_sum(z, z, us, vs, C)
                == set_product("f", us, vs, C))

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_deformation_difference(self, conjugated):
        fn = conj_mod_izergin if conjugated else mod_izergin
        us, vs = spectra(19, [2, 3])
        z1, z2 = Rat(2), Rat(5)
        assert (izergin_deformation_sum(z1, z2, us, vs, C,
                                        conjugated=conjugated)
                == fn(z2 - z1, us, vs, C))


class TestResidue:
    def test_one_by_one_closed_form(self):
        us, vs = spectra(20, [1, 1])
        for z in (Rat(0), Rat(2), Rat(-3, 4)):
            limit, predicted = residue_check(z, us, vs, C)
            assert limit == predicted == 1

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_general_residue(self, conjugated):
        for n, m in ((2, 2), (1, 3), (3, 2), (3, 3)):
            us, vs = spectra(130 + n + 19 * m, [n, m])
            limit, predicted = residue_check(Rat(2), us, vs, C,
                                             conjugated=conjugated)
            assert limit == predicted

    def test_rejects_empty(self):
        us, = spectra(21, [2])
        with pytest.raises(CardinalityError):
            residue_check(1, us, SpectralSet(()), C)

    def test_conjugated_reads_the_conjugated_determinant(self, monkeypatch):
        """K-bar's residue samples and prediction come from
        `conj_mod_izergin` at c, never from `mod_izergin` at -c, and give the
        pair of the plain residue at -c."""
        us, vs = spectra(150, [2, 3])
        want = residue_check(Rat(2), us, vs, -C)
        calls = Counter()
        for name in ("mod_izergin", "conj_mod_izergin"):
            def spy(*args, _name=name, _fn=getattr(izergin, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(izergin, name, spy)
        assert residue_check(Rat(2), us, vs, C, conjugated=True) == want
        assert calls["mod_izergin"] == 0
        assert calls["conj_mod_izergin"] > 0


def assert_matches_direct(tables, us, xs, z):
    """K and K-bar over every mask of the ground set against the direct
    determinants: through `k_plus` and `k_minus_conj` (the ground-indexed
    rows) at z = 1, and through the block tables of the two readers at
    z != 1."""
    if z == 1:
        plus, minus = partial(tables.k_plus, z), partial(tables.k_minus_conj, z)
    else:
        readers = tables.side(False).reader(z), tables.side(True).reader(z)
        assert all(isinstance(read.__self__, _KBlocks) for read in readers)
        plus, minus = [lambda mask, read=read: Rat(*read(mask))
                       for read in readers]
    for mask in range(1 << len(xs)):
        sub = SpectralSet(mask_values(xs.values, mask))
        assert plus(mask) == mod_izergin(z, us, sub.shifted(C), C)
        assert minus(mask) == conj_mod_izergin(z, us, sub.shifted(-C), C)


class TestDetTables:
    def test_matches_direct_determinants(self):
        # every mask, so that subsets smaller than, as large as and larger
        # than the left set are read: the block tables at z != 1, the
        # ground-indexed rows at z = 1
        for seed, n_left, size in [(22, 2, 4), (30, 0, 8), (31, 1, 8),
                                   (32, 2, 8), (33, 3, 8), (34, 4, 8)]:
            us, xs = spectra(seed, [n_left, size])
            mu = sample_twist(seed, C).mu
            tables = DetTables(us.values, xs.values, C)
            for z in (Rat(1), Rat(0), Rat(7, 4), mu):
                assert_matches_direct(tables, us, xs, z)

    def test_spfin_shape(self):
        """Five left values over a ground set of ten at shift c, the shape of
        the SPfin sums at n + m = 10: every mask read from the block tables
        at z != 1, and from the ground-indexed rows at z = 1."""
        us, xs = spectra(37, [5, 10])
        mu = sample_twist(37, C).mu
        tables = DetTables(us.values, xs.values, C)
        for z in (mu, Rat(0), Rat(1), Rat(7, 4), Rat(-7, 4)):
            assert_matches_direct(tables, us, xs, z)

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_every_shift(self, c):
        """K(u | xi_S + s), K-bar(u | xi_S - s), f(u, xi_S + s) and
        f(xi_S - s, u) at s in {0, c, -c}, against the direct routes."""
        us, xs = spectra(35, [2, 5], c=c)
        for s in (Rat(0), c, -c):
            tables = DetTables(us.values, xs.values, c, shift=s)
            for mask in range(1 << len(xs)):
                sub = SpectralSet(mask_values(xs.values, mask))
                for z in (Rat(1), Rat(-7, 4)):
                    assert tables.k_plus(z, mask) == mod_izergin(
                        z, us, sub.shifted(s), c)
                    assert tables.k_minus_conj(z, mask) == conj_mod_izergin(
                        z, us, sub.shifted(-s), c)
                assert Rat(*tables.side(False).factors.row(0, mask)) == (
                    set_product("f", us, sub.shifted(s), c))
                assert Rat(*tables.side(True).factors.row(0, mask)) == (
                    set_product("f", sub.shifted(-s), us, c))

    @pytest.mark.parametrize("u_values", [(Rat(1, 3), Rat(1, 3)),
                                          (Rat(1, 3), Rat(4, 3))])
    def test_colliding_left_set(self, u_values):
        """Two values of u with f or 1/h at a pole between them: every
        subset takes the ground-indexed rows, the only ones defined."""
        _, xs = spectra(36, [0, 5])
        us = SpectralSet(u_values)
        tables = DetTables(us.values, xs.values, C)
        for mask in range(1 << len(xs)):
            sub = SpectralSet(mask_values(xs.values, mask))
            for z in (Rat(1), Rat(-7, 4)):
                assert tables.k_plus(z, mask) == mod_izergin(
                    z, us, sub.shifted(C), C)
                assert tables.k_minus_conj(z, mask) == conj_mod_izergin(
                    z, us, sub.shifted(-C), C)

    def test_f_between(self):
        for size in (4, 8):
            us, xs = spectra(23, [1, size])
            tables = DetTables(us.values, xs.values, C)
            for _, left_mask, right_mask in enumerate_splits(size, 3):
                left = SpectralSet(mask_values(xs.values, left_mask))
                right = SpectralSet(mask_values(xs.values, right_mask))
                assert (tables.f_between(left_mask, right_mask)
                        == set_product("f", left, right, C))


class TestOrientation:
    """The conjugated half reads every kernel with its arguments reversed:
    the same methods on either half of DetTables, and on FTable, give the
    plain products or the reversed ones."""

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_conjugated_half(self, c):
        us, xs = spectra(60, [2, 6], c=c)
        for s in (Rat(0), c):
            tables = DetTables(us.values, xs.values, c, shift=s)
            plus, minus = tables.side(False), tables.side(True)
            for left, right, _ in enumerate_splits(6, 3):
                want = set_product("f", mask_values(xs.values, right),
                                   mask_values(xs.values, left), c)
                assert Rat(*minus.pair(left, right)) == want
                assert minus.pair(left, right) == plus.pair(right, left)
            for mask in range(1 << 6):
                sub = SpectralSet(mask_values(xs.values, mask))
                assert Rat(*minus.factors.row(0, mask)) == set_product(
                    "f", sub.shifted(-s), us, c)

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_conjugated_ftable(self, c):
        for n_left, n_right in ((0, 4), (1, 4), (2, 4), (3, 4), (3, 0)):
            left, right = spectra(61 + n_left, [n_left, n_right], c=c)
            table = FTable(c, left.values, right.values, conjugated=True)
            plain = FTable(c, right.values, left.values)
            for a in range(1 << n_left):
                for b in range(1 << n_right):
                    assert Rat(*table.pair(a, b)) == set_product(
                        "f", mask_values(right.values, b),
                        mask_values(left.values, a), c)
                    assert table.pair(a, b) == plain.pair(b, a)
        xs, = spectra(65, [4], c=c)
        within = FTable(c, xs.values, conjugated=True)
        for a, b, _ in enumerate_splits(4, 3):
            assert within.pair(a, b) == FTable(c, xs.values).pair(b, a)

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    @pytest.mark.parametrize("conjugated", [False, True])
    def test_pole_names_pair_in_read_order(self, c, conjugated):
        """At a collision the PoleError names the pair (a, b) whose kernel
        was read: f(a, b) or h(a, b) vanishes or is singular there."""
        fn = conj_mod_izergin if conjugated else mod_izergin
        a, b = Rat(1, 3), Rat(1, 3) + c   # h(a, b) = 0 and h(b, a) != 0
        one = SpectralSet((Rat(5, 7),))
        for us, vs, variant in ((one, SpectralSet((a, b)), "v-side"),
                                (one, SpectralSet((b, a)), "v-side"),
                                (SpectralSet((a, b)), one, "u-side"),
                                (SpectralSet((b, a)), one, "u-side")):
            with pytest.raises(PoleError) as err:
                fn(Rat(2), us, vs, c, variant=variant)
            assert err.value.kind == "1/h"
            assert (err.value.left, err.value.right) == (a, b)
        with pytest.raises(PoleError) as err:
            FTable(c, [a], [b, a], conjugated)
        assert (err.value.kind, err.value.left, err.value.right) == ("f", a, a)

    def test_conjugated_sums_build_only_their_half(self, monkeypatch):
        """A sum of K-bar alone never builds K's half of its DetTables."""
        us, vs, xs = spectra(62, [2, 1, 4])
        z1, z2 = Rat(2), Rat(-3, 5)
        ys = xs.shifted(-C)  # the ground of the shifted-unit convolution

        def refuse(tables):
            raise AssertionError("built the plain half")

        monkeypatch.setattr(DetTables, "_plus", property(refuse))
        for x1, x2 in ((z1, z2), (Rat(1), Rat(1))):
            assert (izergin_convolution(x1, x2, us, vs, xs, C, conjugated=True)
                    == conj_mod_izergin(x1 * x2, us.union(vs), xs, C))
            assert (izergin_deformation_sum(x1, x2, us, xs, C,
                                            conjugated=True)
                    == conj_mod_izergin(x2 - x1, us, xs, C))
        assert (izergin_convolution(1, 1, us, vs, ys, C, conjugated=True)
                == conj_mod_izergin(1, us.union(vs), ys, C))


class TestKBlocks:
    """The block tables of the u-indexed expansion against `k_pair`, as
    rationals, and the cases that read `k_pair` instead."""

    def test_every_mask_matches_k_pair(self):
        # masks with #S < n, #S = n and #S > n; the expansion holds at
        # p <= n too, where k_blocks leaves the sum to k_pair
        for n in range(6):
            for p in range(1, 11):
                us, xs = spectra(40 + 10 * n + p, [n, p])
                tables = DetTables(us.values, xs.values, C)
                mu = sample_twist(n * 11 + p, C).mu
                for z in (mu, Rat(0), Rat(-7, 4)):
                    for side in (tables._plus, tables._minus):
                        assert (side.k_blocks(z) is None) == (p <= n)
                        read = _KBlocks(side, z).pair
                        for mask in range(1 << p):
                            assert (Rat(*read(mask))
                                    == Rat(*side.k_pair(z, mask)))

    @pytest.mark.parametrize("n,p", [(0, 5), (2, 5), (3, 8), (5, 10)])
    def test_tables_hold_no_content(self, n, p):
        """Every stored column of subset products has content 1, the
        coefficients share no factor with the constant denominator, and
        each half mask's content shares none with that half mask's
        denominator."""
        us, xs = spectra(60 + n + p, [n, p])
        tables = DetTables(us.values, xs.values, C)
        for side in (tables._plus, tables._minus):
            blocks = _KBlocks(side, Rat(-7, 4))
            assert gcd(blocks._den, *blocks._coefs) == 1
            size = len(blocks._coefs)
            assert len(blocks._low_cols) == len(blocks._low_parts) > 1
            for idx, vals in blocks._low_cols:
                # positions into the coefficients, strictly increasing
                assert len(idx) == len(vals)
                assert all(a < b for a, b in zip([-1, *idx], [*idx, size]))
                assert gcd(*vals) == 1
            assert len(blocks._high_cols) == len(blocks._high_parts) > 1
            for col in blocks._high_cols:
                assert len(col) == size
                assert gcd(*col) == 1
            for content, den in blocks._low_parts + blocks._high_parts:
                assert gcd(content, den) == 1

    @pytest.mark.parametrize("shape", ["spfin", "shift-0"])
    def test_sparse_build_matches_dense(self, shape, monkeypatch):
        """Every block equals, integer for integer, the dense dot products
        over full low-half columns, which a table that keeps every entry
        holds; no stored low-half entry is 0. SPfin's tables (ground u + v
        at shift c) hold u at u + c, where f vanishes, so fewer than half
        of their low-half entries are stored; the shift-0 tables of the
        convolution and deformation sums are dense."""
        n, m = 5, 5
        us, vs = spectra(70, [n, m])
        if shape == "spfin":
            tables = DetTables(us.values, us.values + vs.values, C)
        else:
            tables = DetTables(us.values, vs.values, C, shift=0)
        p = len(tables._g)

        def keep_all(col):
            return list(range(len(col))), col

        for side in (tables._plus, tables._minus):
            sparse = _KBlocks(side, Rat(-7, 4))
            with monkeypatch.context() as patch:
                patch.setattr(izergin, "_nonzero", keep_all)
                dense = _KBlocks(side, Rat(-7, 4))
            stored = 0
            for (idx, vals), (_, col) in zip(sparse._low_cols,
                                             dense._low_cols):
                assert all(vals)
                assert [col[k] for k in idx] == vals
                assert sum(map(bool, col)) == len(vals)
                stored += len(vals)
            if shape == "spfin":
                assert stored < (1 << n) * (1 << (p // 2)) // 2
            for hi in range(len(sparse._high_cols)):
                scales = list(map(mul, dense._coefs, dense._high_cols[hi]))
                content, den = dense._high_parts[hi]
                want = [(k * content * sum(map(mul, scales, col)),
                         d * den * dense._den)
                        for (k, d), (_, col) in zip(dense._low_parts,
                                                    dense._low_cols)]
                assert sparse._build(hi) == want

    def test_unit_deformation_reads_k_pair(self):
        us, xs = spectra(41, [3, 6])
        tables = DetTables(us.values, xs.values, C)
        readers = [tables.side(conj).reader(Rat(1)) for conj in (False, True)]
        for side, reader in zip((tables._plus, tables._minus), readers):
            assert side.k_blocks(Rat(1)) is None
            assert reader.func == side.k_pair
            for mask in range(1 << 6):
                assert reader(mask) == side.k_pair(Rat(1), mask)

    @pytest.mark.parametrize("u_values", [(Rat(1, 3), Rat(1, 3)),
                                          (Rat(1, 3), Rat(4, 3))])
    def test_colliding_left_set_reads_k_pair(self, u_values):
        _, xs = spectra(36, [0, 5])
        tables = DetTables(u_values, xs.values, C)
        z = Rat(-7, 4)
        readers = tables.side(False).reader(z), tables.side(True).reader(z)
        for side, reader in zip((tables._plus, tables._minus), readers):
            assert side.k_blocks(z) is None
            assert reader.func == side.k_pair
            for mask in range(1 << 5):
                assert reader(mask) == side.k_pair(z, mask)

    @pytest.mark.parametrize("conjugated", [False, True])
    def test_sums_read_blocks(self, conjugated, monkeypatch):
        """At z != 1, with u free of collisions, the convolution and
        deformation sums read K from the block tables: `k_pair` is never
        asked for a subset larger than u."""
        k_pair = _Side.k_pair

        def ground_only(side, z, mask):
            if mask.bit_count() > side.n_left:
                raise AssertionError(f"k_pair read the mask {mask:b}")
            return k_pair(side, z, mask)

        monkeypatch.setattr(_Side, "k_pair", ground_only)
        fn = conj_mod_izergin if conjugated else mod_izergin
        us, vs, xs = spectra(43, [2, 1, 4])
        z1, z2 = Rat(2), Rat(-3, 5)
        assert (izergin_convolution(z1, z2, us, vs, xs, C,
                                    conjugated=conjugated)
                == fn(z1 * z2, us.union(vs), xs, C))
        assert (izergin_deformation_sum(z1, z2, us, xs, C,
                                        conjugated=conjugated)
                == fn(z2 - z1, us, xs, C))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_empty_ground(self, n):
        us, = spectra(42, [n])
        tables = DetTables(us.values, (), C)
        empty = SpectralSet(())
        for z in (Rat(1), Rat(0), Rat(-7, 4)):
            plus, minus = [tables.side(conj).reader(z) for conj in (False, True)]
            assert tables._plus.k_blocks(z) is None
            assert Rat(*plus(0)) == mod_izergin(z, us, empty, C)
            assert Rat(*minus(0)) == conj_mod_izergin(z, us, empty, C)


class TestIndependentRoutesAgree:
    """The v-side and u-side determinants, both partition expansions, the
    integer tables of DetTables and the conjugated determinant are separate
    code; at generic points they must give the same value."""

    @given(n=st.integers(0, 4), m=st.integers(0, 4), seed=st.integers(0, 2**20),
           c=st.sampled_from([Rat(1), Rat(-1), Rat(2, 3), Rat(-5, 2)]),
           z=st.sampled_from([Rat(0), Rat(1), Rat(-7, 5)]))
    @settings(max_examples=200, deadline=None)
    def test_routes_agree(self, n, m, seed, c, z):
        us, vs = spectra(seed, [n, m], c=c)
        want = mod_izergin(z, us, vs, c)
        want_conj = conj_mod_izergin(z, us, vs, c)
        if z == 1 and m != n:
            for fn in (mod_izergin, conj_mod_izergin):
                with pytest.raises(VariantUndefined):
                    fn(z, us, vs, c, variant="u-side")
            with pytest.raises(VariantUndefined):
                izergin_partition_sum(z, us, vs, c, side="u-partitions")
        else:
            assert mod_izergin(z, us, vs, c, variant="u-side") == want
            assert conj_mod_izergin(z, us, vs, c, variant="u-side") == want_conj
            for conj, value in ((False, want), (True, want_conj)):
                assert izergin_partition_sum(z, us, vs, c, side="u-partitions",
                                             conjugated=conj) == value
        for conj, value in ((False, want), (True, want_conj)):
            assert izergin_partition_sum(z, us, vs, c, side="v-partitions",
                                         conjugated=conj) == value
        assert want_conj == mod_izergin(z, us, vs, -c)
        plus = DetTables(us.values, vs.shifted(-c).values, c)
        minus = DetTables(us.values, vs.shifted(c).values, c)
        full = (1 << m) - 1
        assert plus.k_plus(z, full) == want
        assert minus.k_minus_conj(z, full) == want_conj


@contextmanager
def counted_fractions():
    """Every Fraction built inside the block, in the order built."""
    original = Fraction.__dict__["__new__"]
    built = []

    def counting(cls, *args, **kwargs):
        value = original(cls, *args, **kwargs)
        built.append(value)
        return value

    Fraction.__new__ = counting
    try:
        yield built
    finally:
        Fraction.__new__ = original


class TestIntegerSetUp:
    """The determinant rows and the popcount tables are set up in integers:
    a direct determinant on rational inputs builds one Fraction, its value,
    and an Izergin sum builds none before `split_sum` returns its one."""

    def test_direct_determinant_builds_its_value(self):
        us, vs = spectra(61, [3, 4])
        for fn in (mod_izergin, conj_mod_izergin):
            for variant in ("v-side", "u-side"):
                for z in (Rat(0), Rat(2), Rat(1, 3)):
                    with counted_fractions() as built:
                        value = fn(z, us, vs, C, variant)
                    assert len(built) == 1 and built[0] is value

    def test_sums_build_only_their_result(self, monkeypatch):
        us, vs, xs = spectra(62, [2, 3, 3])
        calls = []
        built = []

        def recorded(*args, **kwargs):
            before = len(built)
            result = split_sum(*args, **kwargs)
            calls.append((before, len(built) - before))
            return result

        monkeypatch.setattr(izergin, "split_sum", recorded)
        sums = []
        for conj in (False, True):
            for z in (Rat(0), Rat(2), Rat(1, 3)):
                for side in ("v-partitions", "u-partitions"):
                    sums.append(partial(izergin_partition_sum, z, us, vs, C,
                                        side, conj))
            for z1, z2 in ((Rat(2), Rat(1, 3)), (Rat(1), Rat(0)),
                           (Rat(-1, 2), Rat(1))):
                sums.append(partial(izergin_convolution, z1, z2, us, vs, xs,
                                    C, conj))
                sums.append(partial(izergin_deformation_sum, z1, z2, us, vs,
                                    C, conj))
        for run in sums:
            calls.clear()
            with counted_fractions() as built:
                run()
            assert calls == [(0, 1)], run
