"""Deformed determinants: closed forms, representation equivalence, the full
law suite at small sizes, and the residue machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbethe.errors import CardinalityError, VariantUndefined
from mbethe.izergin import (DetTables, conj_mod_izergin, izergin_convolution,
                            izergin_deformation_sum, izergin_partition_sum,
                            mod_izergin, ordinary_izergin, rat_pow,
                            residue_check)
from mbethe.partitions import bits_of, enumerate_splits, mask_values
from mbethe.scalars import (Rat, SpectralSet, kernel_g, sample_generic,
                            set_product, with_shifts)

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
        for n in (2, 3, 4, 5):
            us, vs = spectra(6 + n, [n, n])
            assert ordinary_izergin(us, vs, C) == mod_izergin(1, us, vs, C)

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
                    == rat_pow(1 - z, m - n) * mod_izergin(z, vs, us, C))

    def test_inversion(self):
        for n, m in ((1, 2), (2, 2), (3, 2)):
            us, vs = spectra(100 + n + 13 * m, [n, m])
            z = Rat(2, 7)
            scale = rat_pow(-z, n) * rat_pow(1 - z, m - n)
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


class TestDetTables:
    def test_matches_direct_determinants(self):
        # every mask, so subsets larger than the left set take the u-indexed
        # rows at z != 1 and the ground-indexed rows at z = 1
        for seed, n_left, size in [(22, 2, 4), (30, 0, 8), (31, 1, 8),
                                   (32, 2, 8), (33, 3, 8), (34, 4, 8)]:
            us, xs = spectra(seed, [n_left, size])
            tables = DetTables(us.values, xs.values, C)
            for z in (Rat(1), Rat(0), Rat(7, 4)):
                for mask in range(1 << size):
                    sub = SpectralSet(mask_values(xs.values, mask))
                    assert tables.k_plus(z, mask) == mod_izergin(
                        z, us, sub.shifted(C), C)
                    assert tables.k_minus_conj(z, mask) == conj_mod_izergin(
                        z, us, sub.shifted(-C), C)

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_every_shift(self, c):
        """K(u | xi_S + s), K-bar(u | xi_S - s), f(u, xi_S + s) and
        f(xi_S - s, u) at s in {0, c, -c}, against the direct routes."""
        us, xs = spectra(35, [2, 5], c=c)
        for s in (Rat(0), c, -c):
            tables = DetTables(us.values, xs.values, c, shift=s)
            for mask in range(1 << len(xs)):
                sub = SpectralSet(mask_values(xs.values, mask))
                idx = list(bits_of(mask))
                for z in (Rat(1), Rat(-7, 4)):
                    assert tables.k_plus(z, mask) == mod_izergin(
                        z, us, sub.shifted(s), c)
                    assert tables.k_minus_conj(z, mask) == conj_mod_izergin(
                        z, us, sub.shifted(-s), c)
                assert Rat(*tables.f_u_pair(idx)) == set_product(
                    "f", us, sub.shifted(s), c)
                assert Rat(*tables.f_u_conj_pair(idx)) == set_product(
                    "f", sub.shifted(-s), us, c)

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
