"""Spin-chain oracle: R-matrix structure, monodromy, twist, states, pairings."""

import random
from collections import Counter

import pytest

from mbethe import chain as chain_module
from mbethe.chain import (UNIT_ROWS, ChainSpec, apply_entry_product, apply_nu,
                          apply_t, bethe_state, build_monodromy,
                          direct_scalar, embed_two, entry_product_states,
                          gl2_random_matrix, modified_entry,
                          monodromy_columns, monodromy_ints, r_matrix,
                          twist_pair,
                          vacuum_state, vacuum_weights)
from mbethe.errors import DomainError
from mbethe.linalg import (identity, kron, mat_add, mat_eq, mat_mul,
                           mat_scale, mat_vec, zeros)
from mbethe.scalars import (ModelParams, Rat, SpectralSet, kernel_g, kernel_h,
                            sample_generic, with_shifts)

C = Rat(1)


def chain(sites, seed, c=C):
    theta = sample_generic(sites, seed=seed, c=c, bound=30, label="theta")
    return ChainSpec(sites, theta, c)


def points(spec, count, seed):
    return sample_generic(count, context=with_shifts(spec.c, spec.theta),
                          seed=seed, c=spec.c, bound=30)


TWIST = ModelParams(C, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))


# Plain-Fraction reference for the auxiliary-space sweep: every local unit
# matrix E_pq is applied as its own full-length vector, and each site update
# is done in rationals.

def _e_apply_ref(vec, site, p, q, dim):
    out = [Rat(0)] * dim
    bit = 1 << site
    for b in range(dim):
        if b & bit == (q - 1) * bit and vec[b] != 0:
            out[(b & ~bit) | (p - 1) * bit] = vec[b]
    return out


def reference_columns(spec, u, psi, aux_col):
    dim = spec.dim
    w1 = list(psi) if aux_col == 1 else [Rat(0)] * dim
    w2 = list(psi) if aux_col == 2 else [Rat(0)] * dim
    for site in range(spec.sites):
        ratio = (Rat(u) - spec.theta[site]) / spec.c
        e11w1 = _e_apply_ref(w1, site, 1, 1, dim)
        e21w2 = _e_apply_ref(w2, site, 2, 1, dim)
        e12w1 = _e_apply_ref(w1, site, 1, 2, dim)
        e22w2 = _e_apply_ref(w2, site, 2, 2, dim)
        w1, w2 = ([ratio * a + b + cc for a, b, cc in zip(w1, e11w1, e21w2)],
                  [ratio * a + b + cc for a, b, cc in zip(w2, e12w1, e22w2)])
    return w1, w2


def reference_blocks(spec, u):
    dim = spec.dim
    blocks = [[zeros(dim) for _ in range(2)] for _ in range(2)]
    for b in range(dim):
        basis = [Rat(int(r == b)) for r in range(dim)]
        for j in (1, 2):
            for i, col in enumerate(reference_columns(spec, u, basis, j)):
                for r in range(dim):
                    blocks[i][j - 1][r][b] = col[r]
    return blocks


def reference_nu(spec, params, u):
    """Dense mu * A0 T(u) B0 from the reference blocks, entry by entry."""
    pair = twist_pair(params)
    t = reference_blocks(spec, u)
    out = [[zeros(spec.dim) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for a in range(2):
                for b in range(2):
                    weight = pair.mu * pair.a0[i][a] * pair.b0[b][j]
                    out[i][j] = mat_add(out[i][j], mat_scale(weight, t[a][b]))
    return out


def mixed_state(rng, dim):
    """Mostly zeros; the rest with denominators from 1 to 12 and both signs."""
    return [Rat(0) if rng.random() < 0.6
            else Rat(rng.randint(-9, 9), rng.randint(1, 12))
            for _ in range(dim)]


def same_bits(got, want):
    return (len(got) == len(want)
            and all(type(x) is Rat and x.numerator == y.numerator
                    and x.denominator == y.denominator
                    for x, y in zip(got, want)))


class TestRMatrix:
    def test_zero_is_permutation(self):
        perm = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert r_matrix(0, C) == [[Rat(x) for x in row] for row in perm]

    def test_yang_baxter(self):
        for seed in range(20):
            pts = sample_generic(3, seed=seed, c=C, bound=30)
            u, v, w = pts.values
            r12 = embed_two(r_matrix(u - v, C), [2, 2, 2], 0, 1)
            r13 = embed_two(r_matrix(u - w, C), [2, 2, 2], 0, 2)
            r23 = embed_two(r_matrix(v - w, C), [2, 2, 2], 1, 2)
            assert mat_eq(mat_mul(mat_mul(r12, r13), r23),
                          mat_mul(mat_mul(r23, r13), r12))

    def test_gl2_invariance(self):
        rng = random.Random(3)
        for trial in range(20):
            u = sample_generic(1, seed=trial + 100, c=C, bound=30)[0]
            K = gl2_random_matrix(rng)
            R = r_matrix(u, C)
            KK = kron(K, K)
            S = mat_add(kron(K, identity(2)), kron(identity(2), K))
            assert mat_eq(mat_mul(R, KK), mat_mul(KK, R))
            assert mat_eq(mat_mul(R, S), mat_mul(S, R))


class TestMonodromy:
    def test_single_site_closed_form(self):
        spec = chain(1, 5)
        u = points(spec, 1, 6)[0]
        t = build_monodromy(spec, u)
        vac = vacuum_state(spec)
        th = spec.theta[0]
        assert mat_vec(t[0][0], vac) == [kernel_h(u, th, C) * x for x in vac]
        assert mat_vec(t[1][1], vac) == [(u - th) / C * x for x in vac]
        assert all(x == 0 for x in mat_vec(t[1][0], vac))

    def test_highest_weight_vector(self):
        for sites in (1, 2, 3, 4):
            spec = chain(sites, 10 + sites)
            u = points(spec, 1, 20 + sites)[0]
            vac = vacuum_state(spec)
            assert all(x == 0 for x in apply_t(spec, 2, 1, u, vac))
            lam1, lam2 = vacuum_weights(spec, u)
            assert apply_t(spec, 1, 1, u, vac) == [lam1 * x for x in vac]
            assert apply_t(spec, 2, 2, u, vac) == [lam2 * x for x in vac]

    def test_dual_highest_weight(self):
        spec = chain(3, 7)
        u = points(spec, 1, 8)[0]
        t = build_monodromy(spec, u)
        lam1, lam2 = vacuum_weights(spec, u)
        dim = spec.dim
        e0 = [Rat(1)] + [Rat(0)] * (dim - 1)
        # <0| O is row 0 of the dense block
        assert t[0][1][0] == [Rat(0)] * dim  # <0| t12 = 0
        assert t[0][0][0] == [lam1 * x for x in e0]
        assert t[1][1][0] == [lam2 * x for x in e0]

    def test_vacuum_weights_example(self):
        spec = ChainSpec(1, SpectralSet([0], "theta"), C)
        assert vacuum_weights(spec, 2) == (Rat(3), Rat(2))

    def test_weight_product_reduction(self):
        # lam1 * lam2 equals the product form entering the creation reduction
        spec = chain(3, 9)
        u = points(spec, 1, 11)[0]
        lam1, lam2 = vacuum_weights(spec, u)
        product = Rat(1)
        for th in spec.theta:
            product *= kernel_h(u, th, C) / kernel_g(u, th, C)
        assert lam1 * lam2 == product

    @pytest.mark.parametrize("c", [C, Rat(-1), Rat(3, 2)])
    def test_integer_weights_match_fraction_products(self, c):
        # the closed form, multiplied in Fractions one kernel at a time
        for sites in range(1, 6):
            spec = chain(sites, 140 + sites, c)
            for u in points(spec, 3, 150 + sites).values + spec.theta.values:
                lam1, lam2 = Rat(1), Rat(1)
                for th in spec.theta:
                    lam1 *= kernel_h(u, th, c)
                    lam2 *= (u - th) / c
                got = vacuum_weights(spec, u)
                assert same_bits(got, (lam1, lam2))
                if u in spec.theta.values:
                    assert got[1] == 0

    def test_rtt_relation(self):
        for sites in (1, 2, 3):
            spec = chain(sites, 30 + sites)
            uv = points(spec, 2, 40 + sites)
            u, v = uv.values
            dim = spec.dim
            t_u, t_v = build_monodromy(spec, u), build_monodromy(spec, v)

            def embed(blocks, which):
                out = None
                for i in range(2):
                    for j in range(2):
                        e = [[Rat(1) if (r, s) == (i, j) else Rat(0)
                              for s in range(2)] for r in range(2)]
                        aux = kron(e, identity(2)) if which == "a" else kron(identity(2), e)
                        piece = kron(aux, blocks[i][j])
                        out = piece if out is None else mat_add(out, piece)
                return out

            ta, tb = embed(t_u, "a"), embed(t_v, "b")
            rab = kron(r_matrix(u - v, C), identity(dim))
            assert mat_eq(mat_mul(rab, mat_mul(ta, tb)),
                          mat_mul(mat_mul(tb, ta), rab))

    def test_dense_matches_sweep(self):
        spec = chain(2, 13)
        u = points(spec, 1, 14)[0]
        t = build_monodromy(spec, u)
        rng = random.Random(1)
        state = [Rat(rng.randint(-5, 5), rng.randint(1, 5))
                 for _ in range(spec.dim)]
        for i in (1, 2):
            for j in (1, 2):
                assert mat_vec(t[i - 1][j - 1], state) == apply_t(spec, i, j, u, state)


class TestSweepMatchesReference:
    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_unit_columns(self, c):
        rng = random.Random(17)
        for sites in range(1, 7):
            spec = chain(sites, 70 + sites, c)
            for trial in range(3):
                u = points(spec, 1, 80 + 10 * sites + trial)[0]
                psi = mixed_state(rng, spec.dim)
                for aux_col in (1, 2):
                    got = monodromy_columns(spec, u, psi, UNIT_ROWS[aux_col - 1],
                                            UNIT_ROWS)
                    want = reference_columns(spec, u, psi, aux_col)
                    assert len(got) == 2
                    assert all(same_bits(g, w) for g, w in zip(got, want))

    def test_single_entries(self):
        rng = random.Random(18)
        for sites in (1, 3, 6):
            spec = chain(sites, 90 + sites)
            u = points(spec, 1, 95 + sites)[0]
            psi = mixed_state(rng, spec.dim)
            for i in (1, 2):
                for j in (1, 2):
                    want = reference_columns(spec, u, psi, j)[i - 1]
                    assert same_bits(apply_t(spec, i, j, u, psi), want)

    @pytest.mark.parametrize("c", [C, Rat(-3, 2)])
    def test_twisted_entries_match_dense(self, c):
        rng = random.Random(19)
        params = ModelParams(c, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))
        for sites in (1, 2, 3):
            spec = chain(sites, 100 + sites, c)
            u = points(spec, 1, 110 + sites)[0]
            dense = reference_nu(spec, params, u)
            psi = mixed_state(rng, spec.dim)
            blocks = build_monodromy(spec, u, params)
            for i in (1, 2):
                for j in (1, 2):
                    want = mat_vec(dense[i - 1][j - 1], psi)
                    assert same_bits(apply_nu(spec, params, i, j, u, psi), want)
                    assert mat_eq(blocks[i - 1][j - 1], dense[i - 1][j - 1])

    def test_dense_monodromy(self):
        for sites in (1, 2, 3):
            spec = chain(sites, 120 + sites)
            u = points(spec, 1, 125 + sites)[0]
            assert build_monodromy(spec, u) == reference_blocks(spec, u)

    @pytest.mark.parametrize("c", [C, Rat(-1), Rat(3, 2)])
    def test_integer_blocks(self, c):
        """Each integer block over the common denominator, plain and
        twisted, against the Fraction reference entry by entry."""
        params = ModelParams(c, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))
        for sites in range(1, 6):
            spec = chain(sites, 190 + sites, c)
            u = points(spec, 1, 195 + sites)[0]
            for twist, want in ((None, reference_blocks(spec, u)),
                                (params, reference_nu(spec, params, u))):
                blocks, den = monodromy_ints(spec, u, twist)
                assert type(den) is int and den > 0
                for i in (0, 1):
                    for j in (0, 1):
                        assert len(blocks[i][j]) == spec.dim
                        for got, ref in zip(blocks[i][j], want[i][j]):
                            assert all(type(x) is int for x in got)
                            assert same_bits([Rat(x, den) for x in got], ref)


class TestBadInput:
    def test_state_too_long(self):
        spec = chain(2, 130)
        with pytest.raises(DomainError, match=r"t11 .*length 5, expected 4"):
            apply_t(spec, 1, 1, Rat(1, 3), [Rat(1)] * 5)

    def test_state_too_short(self):
        spec = chain(2, 131)
        with pytest.raises(DomainError, match=r"nu12 .*length 3, expected 4"):
            apply_nu(spec, TWIST, 1, 2, Rat(1, 3), [Rat(1)] * 3)

    def test_unknown_entry(self):
        spec = chain(2, 132)
        empty = SpectralSet(())
        with pytest.raises(DomainError, match="'t13'"):
            direct_scalar(spec, None, "t13", empty, "t12", empty)

    def test_r_matrix_zero_c(self):
        with pytest.raises(DomainError, match="nonzero c"):
            r_matrix(Rat(1, 2), 0)


class TestTwist:
    def test_untwisted_pair(self):
        pair = twist_pair(ModelParams(C))
        assert pair.a0 == ((Rat(1), Rat(0)), (Rat(0), Rat(1)))
        assert pair.b0 == pair.a0
        assert pair.mu == 1

    def test_mu_example(self):
        assert ModelParams(C, 1, 2, 2, 3).mu == Rat(3, 2)

    def test_invertibility(self):
        pair = twist_pair(TWIST)
        assert pair.det_a0 != 0 and pair.det_b0 != 0

    def test_single_actions(self):
        spec = chain(2, 15)
        u = points(spec, 1, 16)[0]
        vac = vacuum_state(spec)
        lam1, lam2 = vacuum_weights(spec, u)
        b1, b2 = TWIST.beta1, TWIST.beta2
        nu12 = apply_nu(spec, TWIST, 1, 2, u, vac)
        assert apply_nu(spec, TWIST, 1, 1, u, vac) == [
            lam1 * a + b2 * b for a, b in zip(vac, nu12)]
        assert apply_nu(spec, TWIST, 2, 2, u, vac) == [
            lam2 * a + b1 * b for a, b in zip(vac, nu12)]
        assert apply_nu(spec, TWIST, 2, 1, u, vac) == [
            (b1 * lam1 + b2 * lam2) * a + b1 * b2 * b
            for a, b in zip(vac, nu12)]

    def test_identity_twist_reduces(self):
        spec = chain(2, 17)
        u = points(spec, 1, 18)[0]
        ident = ModelParams(C)
        vac = vacuum_state(spec)
        for i in (1, 2):
            for j in (1, 2):
                assert (apply_nu(spec, ident, i, j, u, vac)
                        == apply_t(spec, i, j, u, vac))

    def test_dense_modified_entry(self):
        spec = chain(2, 19)
        u = points(spec, 1, 21)[0]
        vac = vacuum_state(spec)
        for i in (1, 2):
            for j in (1, 2):
                dense = modified_entry(spec, TWIST, i, j, u)
                assert mat_vec(dense, vac) == apply_nu(spec, TWIST, i, j, u, vac)


class TestStates:
    def test_empty_is_vacuum(self):
        spec = chain(3, 23)
        assert bethe_state(spec, None, "t12", SpectralSet(())) == vacuum_state(spec)

    @pytest.mark.parametrize("kind", ["t12", "nu12"])
    def test_order_independence(self, kind):
        rng = random.Random(2)
        for sites in (2, 3, 4):
            spec = chain(sites, 50 + sites)
            vs = points(spec, 3, 60 + sites)
            params = TWIST if kind == "nu12" else None
            base = bethe_state(spec, params, kind, vs)
            shuffled = list(vs.values)
            rng.shuffle(shuffled)
            assert base == bethe_state(spec, params, kind,
                                       SpectralSet(tuple(shuffled)))

    def test_bethe_state_kinds(self):
        spec = chain(2, 25)
        vs = points(spec, 1, 26)
        with pytest.raises(DomainError):
            bethe_state(spec, None, "t21", vs)
        with pytest.raises(DomainError):
            bethe_state(spec, None, "nu12", vs)  # twist data missing


class TestEntryProductStates:
    """The shared-sweep states against one `apply_entry_product` per mask."""

    @staticmethod
    def _tails(masks):
        """Every nonzero mask reached by dropping lowest bits from `masks`."""
        out = set()
        for mask in masks:
            while mask:
                out.add(mask)
                mask &= mask - 1
        return out

    @pytest.mark.parametrize("kind", ["t12", "nu12"])
    def test_every_mask_matches_apply_entry_product(self, kind):
        params = TWIST if kind == "nu12" else None
        for sites in range(1, 6):
            spec = chain(sites, 160 + sites)
            values = points(spec, 4, 170 + sites).values
            masks = range(1 << len(values))
            states = entry_product_states(spec, params, kind, values, masks)
            assert list(states) == list(masks)
            for mask in masks:
                args = SpectralSet(tuple(x for i, x in enumerate(values)
                                         if mask >> i & 1))
                want = apply_entry_product(spec, params, kind, args,
                                           vacuum_state(spec))
                assert same_bits(states[mask], want)

    def test_one_sweep_per_tail(self, monkeypatch):
        spec = chain(3, 180)
        values = points(spec, 5, 181).values
        masks = [0b10110, 0b11110, 0b00111, 0b10100, 0b10110, 0b00001]
        swept = []
        sweep = chain_module.monodromy_columns

        def counted(spec, u, psi, aux, rows):
            swept.append(u)
            return sweep(spec, u, psi, aux, rows)

        monkeypatch.setattr(chain_module, "monodromy_columns", counted)
        entry_product_states(spec, TWIST, "nu12", values, masks)
        tails = self._tails(masks)
        assert len(swept) == len(tails) == 10
        lowest = Counter(values[(t & -t).bit_length() - 1] for t in tails)
        assert Counter(swept) == lowest

    def test_empty_masks(self):
        spec = chain(2, 182)
        assert entry_product_states(spec, None, "t12", (), []) == {}
        assert entry_product_states(spec, None, "t12", (), [0]) == {
            0: vacuum_state(spec)}

    @pytest.mark.parametrize("kind, params", [("t13", None), ("nu12", None)])
    def test_same_errors_as_apply_entry_product(self, kind, params):
        spec = chain(2, 183)
        values = points(spec, 2, 184).values
        with pytest.raises(DomainError) as want:
            apply_entry_product(spec, params, kind, SpectralSet(values),
                                vacuum_state(spec))
        with pytest.raises(DomainError) as got:
            entry_product_states(spec, params, kind, values, [0b11])
        assert str(got.value) == str(want.value)


class TestDirectScalar:
    def test_vacuum_norm(self):
        spec = chain(2, 27)
        empty = SpectralSet(())
        assert direct_scalar(spec, None, "t21", empty, "t12", empty) == 1

    def test_single_pair_closed_form(self):
        # <0| t21(u) t12(v) |0> from the exchange algebra at one site
        spec = chain(1, 29)
        uv = points(spec, 2, 31)
        u, v = uv.values
        got = direct_scalar(spec, None, "t21", SpectralSet([u]),
                            "t12", SpectralSet([v]))
        l1u, l2u = vacuum_weights(spec, u)
        l1v, l2v = vacuum_weights(spec, v)
        expected = kernel_g(u, v, C) * (l1v * l2u - l1u * l2v)
        assert got == expected

    def test_twisted_creation_average(self):
        spec = chain(2, 33)
        u = points(spec, 1, 34)[0]
        lam1, lam2 = vacuum_weights(spec, u)
        b1, b2 = TWIST.beta1, TWIST.beta2
        nu12_avg = direct_scalar(spec, TWIST, "nu12", SpectralSet([u]),
                                 "nu12", SpectralSet(()))
        got = direct_scalar(spec, TWIST, "nu21", SpectralSet([u]),
                            "nu12", SpectralSet(()))
        assert got == b1 * lam1 + b2 * lam2 + b1 * b2 * nu12_avg


class TestChainSpecValidation:
    def test_bad_sites(self):
        with pytest.raises(DomainError):
            ChainSpec(0, SpectralSet(()), C)
        with pytest.raises(DomainError):
            ChainSpec(11, SpectralSet(range(11)), C)

    def test_theta_count_mismatch(self):
        with pytest.raises(DomainError):
            ChainSpec(2, SpectralSet([1]), C)

    def test_zero_c(self):
        with pytest.raises(DomainError):
            ChainSpec(1, SpectralSet([1]), 0)
