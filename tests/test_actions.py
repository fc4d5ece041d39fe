"""Multiple-action and scalar-product evaluators against the chain oracle."""

import os
import random
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbethe import actions, izergin, partitions
from mbethe.actions import (ActionRequest, WeightOracle, _independent_weights,
                            eval_action, eval_request, eval_scalar,
                            eval_vacuum_average, phi_transform, scalar_cost)
from mbethe.chain import (ChainSpec, apply_entry_product, direct_scalar,
                          vacuum_state)
from mbethe.errors import (CapabilityError, CardinalityError,
                           ConstraintError, DomainError)
from mbethe.izergin import DetTables, _KBlocks, _SplitTerms, term_pair
from mbethe.partitions import count_splits, enumerate_splits, mask_values
from mbethe.scalars import (ModelParams, Rat, SpectralSet, TwistData,
                            kernel_h, prod_over, sample_generic, with_shifts)

C = Rat(1)
TWIST = ModelParams(C, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))


def chain(sites, seed):
    theta = sample_generic(sites, seed=seed, c=C, bound=30, label="theta")
    return ChainSpec(sites, theta, C)


def spectra(spec, counts, seed, labels=("u", "v")):
    out = []
    context = with_shifts(C, spec.theta)
    for count, label in zip(counts, labels):
        s = sample_generic(count, context=context, seed=seed, c=C, bound=30,
                           label=label)
        out.append(s)
        context = context + with_shifts(C, s)
        seed += 1
    return out


def uv_parts(us, vs, mask):
    """The u- and v-values of a subset of u∪v, whose low bits index u."""
    n = len(us)
    return (mask_values(us.values, mask & ((1 << n) - 1)),
            mask_values(vs.values, mask >> n))


def oracle_state(spec, params, kind, us, vs):
    family = "t12" if kind.startswith("t") else "nu12"
    state = apply_entry_product(spec, params, family, vs, vacuum_state(spec))
    return apply_entry_product(spec, params, kind, us, state)


class TestActionExamples:
    def test_diagonal_one_point(self):
        spec = chain(2, 1)
        us, vs = spectra(spec, [1, 0], 2)
        oracle = WeightOracle.fundamental(spec)
        result = eval_action("t11", us, vs, oracle, None, C)
        assert result.coefficients.items() == [(0, oracle.lambda1(us[0]))]

    def test_twisted_lower_one_point(self):
        spec = chain(2, 3)
        us, vs = spectra(spec, [1, 0], 4)
        oracle = WeightOracle.fundamental(spec)
        result = eval_action("nu21", us, vs, oracle, TWIST, C)
        u = us[0]
        b1, b2 = TWIST.beta1, TWIST.beta2
        expected_empty = b1 * oracle.lambda1(u) + b2 * oracle.lambda2(u)
        assert result.coefficients[0] == expected_empty
        assert result.coefficients[1] == b1 * b2

    @pytest.mark.parametrize("kind", ["t11", "t22", "t21"])
    def test_plain_kinds_match_oracle(self, kind):
        for sites, n, m, seed in ((3, 1, 2, 10), (4, 2, 2, 11), (2, 2, 3, 12)):
            spec = chain(sites, seed)
            us, vs = spectra(spec, [n, m], seed + 100)
            oracle = WeightOracle.fundamental(spec)
            result = eval_action(kind, us, vs, oracle, None, C)
            assert result.materialize(spec, None) == oracle_state(
                spec, None, kind, us, vs)

    @pytest.mark.parametrize("kind", ["nu11", "nu22", "nu21"])
    def test_twisted_kinds_match_oracle(self, kind):
        for sites, n, m, seed in ((3, 1, 2, 20), (4, 2, 2, 21), (2, 2, 1, 22)):
            spec = chain(sites, seed)
            us, vs = spectra(spec, [n, m], seed + 100)
            oracle = WeightOracle.fundamental(spec)
            result = eval_action(kind, us, vs, oracle, TWIST, C)
            assert result.materialize(spec, TWIST) == oracle_state(
                spec, TWIST, kind, us, vs)

    def test_creation_reduction_matches_oracle(self):
        for sites, n, m, seed in ((2, 1, 2, 30), (2, 2, 2, 31),
                                  (3, 1, 2, 32), (3, 2, 2, 33)):
            spec = chain(sites, seed)
            us, vs = spectra(spec, [n, m], seed + 100)
            oracle = WeightOracle.fundamental(spec)
            result = eval_action("nu12", us, vs, oracle, TWIST, C)
            assert result.materialize(spec, TWIST) == oracle_state(
                spec, TWIST, "nu12", us, vs)

    def test_creation_reduction_boundary(self):
        # #u + #v equal to the reduction order: the single empty-first split
        spec = chain(3, 34)
        us, vs = spectra(spec, [1, 2], 35)
        oracle = WeightOracle.fundamental(spec)
        result = eval_action("nu12", us, vs, oracle, TWIST, C)
        assert result.coefficients.items() == [((1 << 3) - 1, Rat(1))]

    def test_creation_reduction_requirements(self):
        spec = chain(3, 36)
        us, vs = spectra(spec, [1, 1], 37)
        oracle = WeightOracle.fundamental(spec)
        with pytest.raises(DomainError):
            eval_action("nu12", us, vs, oracle, TWIST, C)  # n + m < order
        bare = WeightOracle(oracle.lambda1, oracle.lambda2)
        us, vs = spectra(spec, [2, 2], 38)
        with pytest.raises(CapabilityError):
            eval_action("nu12", us, vs, bare, TWIST, C)

    def test_twisted_kinds_require_nonzero_betas(self):
        spec = chain(2, 39)
        us, vs = spectra(spec, [1, 1], 40)
        oracle = WeightOracle.fundamental(spec)
        degenerate = TwistData(Rat(0), Rat(1, 2), Rat(1))
        with pytest.raises(DomainError):
            eval_action("nu22", us, vs, oracle, degenerate, C)
        with pytest.raises(DomainError):
            eval_action("nu21", us, vs, oracle, degenerate, C)

    def test_zero_beta_raises_before_any_table(self, monkeypatch):
        """A zero beta raises _require_twist's DomainError before any
        popcount table or DetTables is built."""
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(actions, "geometric", refuse)
        monkeypatch.setattr(actions, "DetTables", refuse)
        spec = chain(2, 39)
        us, vs = spectra(spec, [1, 1], 40)
        oracle = WeightOracle.fundamental(spec)
        zero_one = TwistData(Rat(0), Rat(1, 2), Rat(3))
        zero_two = TwistData(Rat(1, 2), Rat(0), Rat(3))
        for kind, twist in (("nu22", zero_one), ("nu11", zero_two),
                            ("nu21", zero_one), ("nu21", zero_two)):
            with pytest.raises(DomainError):
                eval_action(kind, us, vs, oracle, twist, C)
        for form in ("SPfin", "SPfinIK"):
            for twist in (zero_one, zero_two):
                with pytest.raises(DomainError):
                    eval_scalar(form, us, vs, oracle, twist, C)

    def test_annihilation_excess_gives_zero(self, monkeypatch):
        """A plain t21 with #v < #u has no split, and builds no table."""
        def refuse(*args):
            raise AssertionError("a table was built")

        spec = chain(3, 41)
        us, vs = spectra(spec, [2, 1], 42)
        oracle = WeightOracle.fundamental(spec)
        monkeypatch.setattr(actions, "DetTables", refuse)
        result = eval_action("t21", us, vs, oracle, None, C)
        assert len(result.coefficients) == 0
        assert result.materialize(spec, None) == [Rat(0)] * spec.dim

    def test_truncation_of_large_subsets(self):
        # unit-deformation determinants kill splits consuming more than #u
        spec = chain(3, 43)
        us, vs = spectra(spec, [1, 3], 44)
        oracle = WeightOracle.fundamental(spec)
        for kind in ("nu11", "nu22"):
            result = eval_action(kind, us, vs, oracle, TWIST, C)
            from mbethe.izergin import DetTables
            tables = DetTables(us.values, us.values + vs.values, C)
            for mask1, _ in enumerate_splits(4, 2):
                if bin(mask1).count("1") > 1:
                    assert tables.k_plus(1, mask1) == 0
                    assert tables.k_minus_conj(1, mask1) == 0


class TestScalarForms:
    def test_all_forms_empty(self):
        spec = chain(2, 50)
        oracle = WeightOracle.fundamental(spec)
        empty = SpectralSet(())
        assert eval_scalar("SCe", empty, empty, oracle, None, C) == 1
        assert eval_scalar("SCbe", empty, empty, oracle, None, C) == 1
        assert eval_scalar("SPfin", empty, empty, oracle, TWIST, C) == 1
        assert eval_scalar("SPfinIK", empty, empty, oracle, TWIST, C) == 1

    def test_plain_forms_match_oracle_and_each_other(self):
        for n, seed in ((1, 51), (2, 52), (3, 53)):
            spec = chain(min(n + 1, 4), seed)
            us, vs = spectra(spec, [n, n], seed + 100)
            oracle = WeightOracle.fundamental(spec)
            want = direct_scalar(spec, None, "t21", us, "t12", vs)
            assert eval_scalar("SCe", us, vs, oracle, None, C) == want
            assert eval_scalar("SCbe", us, vs, oracle, None, C) == want

    def test_plain_forms_random_weights(self):
        oracle = WeightOracle.random_seeded(99)
        for n in (1, 2, 3):
            us = sample_generic(n, seed=60 + n, c=C, bound=30, label="u")
            vs = sample_generic(n, context=with_shifts(C, us), seed=70 + n,
                                c=C, bound=30, label="v")
            assert (eval_scalar("SCe", us, vs, oracle, None, C)
                    == eval_scalar("SCbe", us, vs, oracle, None, C))

    def test_cardinality_guard(self):
        spec = chain(2, 54)
        us, vs = spectra(spec, [1, 2], 55)
        oracle = WeightOracle.fundamental(spec)
        with pytest.raises(CardinalityError):
            eval_scalar("SCe", us, vs, oracle, None, C)

    def test_twisted_form_matches_oracle(self):
        for sites, n, m, seed in ((2, 1, 1, 56), (3, 2, 1, 57), (4, 1, 3, 58),
                                  (5, 2, 3, 59), (3, 0, 2, 60), (3, 2, 0, 61)):
            spec = chain(sites, seed)
            us, vs = spectra(spec, [n, m], seed + 200)
            oracle = WeightOracle.fundamental(spec)
            got = eval_scalar("SPfin", us, vs, oracle, TWIST, C)
            assert got == direct_scalar(spec, TWIST, "nu21", us, "nu12", vs)

    def test_independent_form_agrees(self):
        oracle = WeightOracle.random_seeded(7)
        for n, m, seed in ((1, 1, 62), (2, 1, 63), (1, 3, 64), (2, 2, 65)):
            us = sample_generic(n, seed=seed, c=C, bound=30, label="u")
            vs = sample_generic(m, context=with_shifts(C, us), seed=seed + 1,
                                c=C, bound=30, label="v")
            assert (eval_scalar("SPfin", us, vs, oracle, TWIST, C)
                    == eval_scalar("SPfinIK", us, vs, oracle, TWIST, C))

    def test_independent_weights_match_prod_over(self):
        # the SCbe / SPfinIK weight pair read from tables, against the
        # products over u1, v2 (lambda2) and u2, v1 (lambda1) of each term
        spec = chain(3, 68)
        for oracle in (WeightOracle.fundamental(spec),
                       WeightOracle.random_seeded(10)):
            for n in range(4):
                for m in range(4):
                    us, vs = spectra(spec, [n, m], 69 + 4 * n + m)
                    weights = _independent_weights(us, vs, oracle)
                    top = (1 << (n + m)) - 1
                    for mask1 in range(top + 1):
                        rest = top ^ mask1
                        for mask2 in range(rest + 1):
                            if mask2 & ~rest:
                                continue
                            u1, v1 = uv_parts(us, vs, mask1)
                            u2, v2 = uv_parts(us, vs, mask2)
                            want = (prod_over(oracle.lambda2, u1)
                                    * prod_over(oracle.lambda2, v2)
                                    * prod_over(oracle.lambda1, u2)
                                    * prod_over(oracle.lambda1, v1))
                            assert Rat(*weights(mask1, mask2)) == want

    def test_independent_form_domain(self):
        oracle = WeightOracle.random_seeded(8)
        us = sample_generic(1, seed=66, c=C, bound=30, label="u")
        vs = sample_generic(2, context=with_shifts(C, us), seed=67, c=C,
                            bound=30, label="v")
        unit_mu = TwistData(Rat(1, 2), Rat(1, 3), Rat(1))
        with pytest.raises(DomainError):
            eval_scalar("SPfinIK", us, vs, oracle, unit_mu, C)
        zero_mu = TwistData(Rat(1, 2), Rat(1, 3), Rat(0))
        with pytest.raises(DomainError):
            eval_scalar("SPfinIK", us, vs, oracle, zero_mu, C)

    def test_unit_twist_reduces_to_plain(self):
        oracle = WeightOracle.random_seeded(9)
        for n in (1, 2, 3):
            us = sample_generic(n, seed=80 + n, c=C, bound=30, label="u")
            vs = sample_generic(n, context=with_shifts(C, us), seed=90 + n,
                                c=C, bound=30, label="v")
            twist = TwistData(Rat(3, 4), Rat(-2, 5), Rat(1))
            assert (eval_scalar("SPfin", us, vs, oracle, twist, C)
                    == eval_scalar("SCe", us, vs, oracle, None, C))

    def test_parallel_reduction_identical(self, fork_from_1024):
        assert count_splits(10, 2) >= partitions.MIN_POOL_SPLITS
        spec = chain(3, 68)
        us, vs = spectra(spec, [5, 5], 69)
        oracle = WeightOracle.fundamental(spec)
        serial = eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=1)
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=2) == serial
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=5) == serial

    def test_too_many_jobs_is_constraint_error(self, monkeypatch):
        """A library call asking for more than MAX_JOBS workers on a sum
        large enough to fork raises in the caller and starts no process."""
        def refuse(*args, **kwargs):
            raise AssertionError("reached the fork context")

        monkeypatch.setattr(partitions.multiprocessing, "get_context", refuse)
        spec = chain(3, 68)
        us, vs = spectra(spec, [6, 6], 69)
        assert count_splits(12, 2) >= partitions.MIN_POOL_SPLITS
        oracle = WeightOracle.fundamental(spec)
        with pytest.raises(ConstraintError):
            eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=500)

    def test_parallel_reduction_under_spawn(self, run_script):
        # a script that makes spawn the default start method still gets the
        # serial value: split_sum names fork, so the children inherit the
        # SPfin term
        done = run_script("""
import multiprocessing

from mbethe import partitions
from mbethe.actions import WeightOracle, eval_scalar
from mbethe.chain import ChainSpec
from mbethe.partitions import count_splits
from mbethe.scalars import ModelParams, Rat, sample_generic, with_shifts

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    partitions.MIN_POOL_SPLITS = 1024
    assert count_splits(10, 2) >= partitions.MIN_POOL_SPLITS
    c = Rat(1)
    theta = sample_generic(3, seed=68, c=c, bound=30, label="theta")
    oracle = WeightOracle.fundamental(ChainSpec(3, theta, c))
    us = sample_generic(5, context=with_shifts(c, theta), seed=69, c=c,
                        bound=30, label="u")
    vs = sample_generic(5, context=with_shifts(c, theta, us), seed=70, c=c,
                        bound=30, label="v")
    twist = ModelParams(c, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))
    serial = eval_scalar("SPfin", us, vs, oracle, twist, c, jobs=1)
    pooled = eval_scalar("SPfin", us, vs, oracle, twist, c, jobs=2)
    print(serial != 0, (pooled.numerator, pooled.denominator)
          == (serial.numerator, serial.denominator))
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "True"]


class TestIndependentRoute:
    """SCbe and SPfinIK read no determinant tables: each split they evaluate
    assembles its own two direct determinants, K^(z)(v2 | u2) and
    K-bar^(z)(v1 | u1)."""

    def test_two_direct_determinants_per_split(self, monkeypatch):
        oracle = WeightOracle.random_seeded(12)
        cases = []
        for n, m in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (2, 0)):
            us = sample_generic(n, seed=100 + n, c=C, bound=30, label="u")
            vs = sample_generic(m, context=with_shifts(C, us), seed=110 + m,
                                c=C, bound=30, label="v")
            cases.append((us, vs, eval_scalar("SPfin", us, vs, oracle, TWIST, C),
                          eval_scalar("SCe", us, vs, oracle, None, C)
                          if n == m else None))

        def refuse(*args, **kwargs):
            raise AssertionError("the independent forms read no tables")

        for owner in (actions, izergin):
            monkeypatch.setattr(owner, "DetTables", refuse)
        monkeypatch.setattr(_KBlocks, "__init__", refuse)
        assembled = []
        true_v_side = actions._v_side

        def counted(u, v, cn, cd, conjugated):
            assembled.append(conjugated)
            return true_v_side(u, v, cn, cd, conjugated)

        monkeypatch.setattr(actions, "_v_side", counted)
        for us, vs, spfin, sce in cases:
            n, m = len(us), len(vs)
            assembled.clear()
            assert eval_scalar("SPfinIK", us, vs, oracle, TWIST, C) == spfin
            assert assembled.count(False) == assembled.count(True) == 2 ** (n + m)
            if sce is not None:
                # SCbe evaluates the splits with #u1 = #v1: comb(2n, n) of them
                assembled.clear()
                assert eval_scalar("SCbe", us, vs, oracle, None, C) == sce
                assert (assembled.count(False) == assembled.count(True)
                        == comb(2 * n, n))


nonzero_rats = st.builds(Rat, st.integers(-9, 9).filter(bool),
                         st.integers(1, 9))


class TestScalarCost:
    """`scalar_cost` counts what each form builds: the splits it sums plus
    the determinant entries it assembles per split, or SPfin's block-table
    entries, which it bounds."""

    @pytest.mark.parametrize("n,m", [(0, 3), (2, 2), (3, 1), (2, 4)])
    def test_assembled_entries(self, n, m, monkeypatch):
        spec = chain(2, 130 + n)
        us, vs = spectra(spec, [n, m], 131 + m)
        oracle = WeightOracle.random_seeded(132)
        rows = []
        true_v_side, true_k_pair = actions._v_side, izergin._Side.k_pair

        def v_side(u, v, cn, cd, conjugated):
            rows.append(len(v))
            return true_v_side(u, v, cn, cd, conjugated)

        def k_pair(self, z, mask):
            rows.append(mask.bit_count())
            return true_k_pair(self, z, mask)

        monkeypatch.setattr(actions, "_v_side", v_side)
        monkeypatch.setattr(izergin._Side, "k_pair", k_pair)
        forms = ["SPfinIK"] + (["SCbe", "SCe"] if n == m else [])
        for form in forms:
            rows.clear()
            eval_scalar(form, us, vs, oracle, TWIST, C)
            splits = (count_splits(2 * n, 3, (n, n, 0)) if form == "SCe"
                      else count_splits(n + m, 2))
            assert (scalar_cost(form, n, m)
                    == splits + sum(k * k for k in rows)), form

    @pytest.mark.parametrize("n,m", [(0, 4), (3, 2), (5, 5), (6, 3)])
    def test_spfin_bounds_its_block_tables(self, n, m):
        us, vs = spectra(chain(2, 133), [n, m], 134)
        tables = DetTables(us.values, us.values + vs.values, C)
        entries = 0
        for conj in (False, True):
            blocks = tables.side(conj).k_blocks(TWIST.mu)
            entries += len(blocks._coefs) * (len(blocks._low_cols)
                                             + len(blocks._high_cols))
        assert count_splits(n + m, 2) + entries <= scalar_cost("SPfin", n, m)


class TestScalarFormsProperty:
    # rho1, rho2 != 0 keeps mu away from 1, where SPfinIK is undefined;
    # rho1 + rho2 != 0 keeps beta1 != -beta2, where the product can vanish
    # A single pairing can still vanish at a drawn point: at n = 1, m = 0 the
    # product is mu (beta1 lam1(u) + beta2 lam2(u)), which is exactly 0 at the
    # pinned example (u = 5/2). Such a pairing is still compared, but only
    # nonzero pairings count towards the bound, so the test cannot pass as
    # 0 == 0.
    @given(sites=st.integers(1, 4), seed=st.integers(0, 2**20),
           c=nonzero_rats, rho1=nonzero_rats, rho2=nonzero_rats,
           kappa_plus=nonzero_rats, kappa_minus=nonzero_rats)
    @example(sites=2, seed=661, c=Rat(-1), rho1=Rat(-7, 8), rho2=Rat(-1, 2),
             kappa_plus=Rat(1), kappa_minus=Rat(1))
    @settings(max_examples=6, deadline=None)
    def test_forms_agree_with_oracle(self, sites, seed, c, rho1, rho2,
                                     kappa_plus, kappa_minus):
        assume(rho1 * rho2 != kappa_plus * kappa_minus and rho1 + rho2 != 0)
        params = ModelParams(c, rho1, rho2, kappa_plus, kappa_minus)
        theta = sample_generic(sites, seed=seed, c=c, bound=30, label="theta")
        spec = ChainSpec(sites, theta, c)
        oracle = WeightOracle.fundamental(spec)
        context = with_shifts(c, theta)
        pairings = nonzero = 0
        for n in range(7):
            us = sample_generic(n, context=context, seed=seed + 1, c=c,
                                bound=30, label="u")
            for m in range(7 - n):
                vs = sample_generic(m, context=context + with_shifts(c, us),
                                    seed=seed + 2 + m, c=c, bound=30, label="v")
                direct = direct_scalar(spec, params, "nu21", us, "nu12", vs)
                assert eval_scalar("SPfin", us, vs, oracle, params, c) == direct
                assert eval_scalar("SPfinIK", us, vs, oracle, params, c) == direct
                pairings += 1
                nonzero += direct != 0
        assert pairings == 28
        assert nonzero >= pairings - 2

    def test_routes_agree_at_five_and_five(self):
        # 2^10 splits, the size of one spfin-sum draw
        spec = chain(3, 90)
        us, vs = spectra(spec, [5, 5], 91)
        oracle = WeightOracle.fundamental(spec)
        direct = direct_scalar(spec, TWIST, "nu21", us, "nu12", vs)
        assert direct != 0
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C) == direct
        assert eval_scalar("SPfinIK", us, vs, oracle, TWIST, C) == direct

    def test_routes_agree_at_six_and_six(self):
        # 2^12 splits on 2 sites
        spec = chain(2, 92)
        us, vs = spectra(spec, [6, 6], 93)
        oracle = WeightOracle.fundamental(spec)
        direct = direct_scalar(spec, TWIST, "nu21", us, "nu12", vs)
        assert direct != 0
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C) == direct
        assert eval_scalar("SPfinIK", us, vs, oracle, TWIST, C) == direct


def spfin_reference(tables, twist, weights, n, m):
    """SPfin's term as one product per split: the beta power by popcount,
    f(S1, S2) from K's half, each determinant from its reader
    (`_Side.reader`), K at S1 and K-bar at S2, and the product of each
    weight row over its part, w+ over S1 and w- over S2. `weights` holds
    the lambda2 and lambda1 values of the ground set."""
    plus, minus = tables.side(False), tables.side(True)
    k_plus, k_minus = plus.reader(twist.mu), minus.reader(twist.mu)
    beta_pow = actions._beta_powers(twist, n, m)

    def weight(row, mask):
        out = prod(mask_values(row, mask), start=Rat(1))
        return out.numerator, out.denominator

    def spfin_term(mask1, mask2):
        return term_pair(beta_pow[mask1.bit_count()],
                         plus.pair(mask1, mask2), k_plus(mask1),
                         weight(weights[0], mask1), k_minus(mask2),
                         weight(weights[1], mask2))

    return spfin_term


def spfin_table(tables, twist, weights, n, m):
    """SPfin's term table, built as `eval_scalar` builds it."""
    first, ratio = actions._beta_sequence(twist, n, m)
    return tables.split_terms(
        twist.mu, (actions._weight_table(weights[0], ratio),
                   actions._weight_table(weights[1])), first)


def assert_table_matches(tables, twist, weights, n, m, order=None):
    """Every mask's table entry equals the reference term, as a rational,
    and at least one is nonzero; masks read in `order`, or descending as
    `split_sum` reads them."""
    p = len(tables._g)
    full = (1 << p) - 1
    term = spfin_reference(tables, twist, weights, n, m)
    table = spfin_table(tables, twist, weights, n, m)
    nonzero = False
    for mask1 in order or range(full, -1, -1):
        want = Rat(*term(mask1, full ^ mask1))
        assert Rat(*table.pair(mask1, full ^ mask1)) == want, (n, m, mask1)
        nonzero = nonzero or want != 0
    assert nonzero


class TestSplitTerms:
    """SPfin's term table (`izergin._SplitTerms`) against the per-split
    product it replaced, mask by mask."""

    TWISTS = (TWIST.twist(), TwistData(Rat(-3, 7), Rat(5, 2), Rat(-4, 9)))

    def test_every_size(self):
        rng = random.Random(94)
        for p in range(13):
            for n in sorted({p // 2, (p + 1) // 2 if p < 9 else p // 2}):
                us, vs = [sample_generic(k, seed=rng.getrandbits(32), c=C,
                                         bound=30, label=label)
                          for k, label in ((n, "u"), (p - n, "v"))]
                ground = us.values + vs.values
                oracle = WeightOracle.random_seeded(rng.getrandbits(32))
                weights = ([oracle.lambda2(x) for x in ground],
                           [oracle.lambda1(x) for x in ground])
                tables = DetTables(us.values, ground, C)
                for twist in self.TWISTS[:1 if p > 9 else 2]:
                    assert_table_matches(tables, twist, weights, n, p - n)

    def test_read_in_any_order(self):
        us, vs = spectra(chain(3, 95), [3, 4], 96)
        ground = us.values + vs.values
        weights = [[Rat(k + 2, 3 - 2 * k) for k in range(7)]] * 2
        order = list(range(1 << 7))
        random.Random(97).shuffle(order)
        assert_table_matches(DetTables(us.values, ground, C), TWIST.twist(),
                             weights, 3, 4, order)

    @staticmethod
    def route(case):
        """(twist, u, ground) of a route case: "blocks" takes both block
        tables, the rest each take `k_pair` on both halves, but "no-u",
        which takes block tables with no u-indexed rows."""
        us, vs = spectra(chain(3, 98), [3, 4], 99)
        twist, u, ground = TWIST.twist(), us.values, us.values + vs.values
        if case == "mu-one":
            # K^(1)(u | S + c) vanishes at #S > #u, so a ground of more
            # than 2 #u points would make every term 0
            twist = TwistData(twist.beta1, twist.beta2, Rat(1))
            ground = us.values + vs.values[:len(u)]
        elif case == "no-u":
            u, ground = (), vs.values
        elif case == "no-v":
            ground = us.values
        elif case == "collision":
            # f(u_0, u_1) and 1/h(u_1, u_0) have poles; v is the ground
            u, ground = (Rat(1, 3), Rat(1, 3) + C, Rat(5, 7)), vs.values
        tables = DetTables(u, ground, C)
        blocks = [tables.side(conj).k_blocks(twist.mu) for conj in (0, 1)]
        assert (blocks == [None, None]) == (case not in ("blocks", "no-u"))
        return twist, tables, len(u), len(ground) - len(u)

    @pytest.mark.parametrize("case", ["mu-one", "no-u", "no-v", "collision"])
    def test_reader_routes(self, case):
        """Where a half has no block table, its entries come from `k_pair`:
        at mu = 1, on a ground set no larger than u, and where two values
        of u collide; u empty takes the block tables with no u-indexed
        rows."""
        twist, tables, n, m = self.route(case)
        weights = [[Rat(2 * k - 5, k + 1) for k in range(n + m)]] * 2
        assert_table_matches(tables, twist, weights, n, m)

    @pytest.mark.parametrize("case", ["blocks", "mu-one", "collision"])
    def test_zero_and_negative_weights(self, case):
        """A weight row with a zero entry and negative ones, on either side
        and with its zero in either half of the ground set, on the block
        tables and on `k_pair`; the other side's row is generic."""
        twist, tables, n, m = self.route(case)
        p = n + m
        generic = [Rat((7 * t + 3) % 11 + 1, (5 * t) % 7 + 2) for t in range(p)]
        signed = [Rat(0) if t == 1 else Rat((-1) ** (t + 1) * (t + 2), 3)
                  for t in range(p)]
        for row in (signed, signed[::-1]):
            for weights in ((row, generic), (generic, row)):
                assert_table_matches(tables, twist, weights, n, m)


class TestSPfinBlocks:
    """The SPfin term table is built block by block in the process that
    reads it: each forked child builds only the blocks of its own rank
    range, the caller those of the first, and a serial sum builds each
    block once."""

    def test_workers_build_only_their_blocks(self, fork_from_1024,
                                             monkeypatch, tmp_path):
        spec = chain(3, 90)
        us, vs = spectra(spec, [5, 5], 91)
        oracle = WeightOracle.fundamental(spec)
        direct = direct_scalar(spec, TWIST, "nu21", us, "nu12", vs)
        p = len(us) + len(vs)
        count, full, half = count_splits(p, 2), (1 << p) - 1, p // 2
        assert count >= partitions.MIN_POOL_SPLITS
        log = tmp_path / "builds"
        build = _SplitTerms._build

        def counted(table, hi):
            with open(log, "a") as fh:  # one line per build, from any process
                fh.write(f"{os.getpid()} {hi}\n")
            return build(table, hi)

        monkeypatch.setattr(_SplitTerms, "_build", counted)
        for jobs in (2, 1):
            log.write_text("")
            assert eval_scalar("SPfin", us, vs, oracle, TWIST, C,
                               jobs=jobs) == direct
            built = {}
            for pid, hi in zip(*[iter(map(int, log.read_text().split()))] * 2):
                built.setdefault(pid, []).append(hi)
            # split rank r reads mask1 = full ^ r, whose high half is its
            # block; the caller sums the first range
            bounds = [count * k // jobs for k in range(jobs + 1)]
            want = [list(dict.fromkeys((full ^ r) >> half
                                       for r in range(lo, hi)))
                    for lo, hi in zip(bounds, bounds[1:])]
            assert len(built) == jobs
            assert built.pop(os.getpid()) == want[0]
            assert list(built.values()) == want[1:]

    def test_children_inherit_the_factors(self, fork_from_1024, monkeypatch):
        """The block tables compute their factors before the sum forks, so
        no forked child computes principal minors."""
        spec = chain(3, 92)
        us, vs = spectra(spec, [5, 5], 93)
        oracle = WeightOracle.fundamental(spec)
        assert count_splits(len(us) + len(vs), 2) >= partitions.MIN_POOL_SPLITS
        own, minors = os.getpid(), izergin.principal_minors

        def parent_only(rows):
            if os.getpid() != own:
                raise AssertionError("a forked child computed minors")
            return minors(rows)

        monkeypatch.setattr(izergin, "principal_minors", parent_only)
        assert (eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=2)
                == direct_scalar(spec, TWIST, "nu21", us, "nu12", vs))


class TestVacuumAverage:
    def test_empty(self):
        oracle = WeightOracle.random_seeded(10)
        assert eval_vacuum_average(SpectralSet(()), oracle, TWIST, C) == 1

    def test_single_point_closed_form(self):
        spec = chain(2, 70)
        ws, = spectra(spec, [1], 71, labels=("w",))
        oracle = WeightOracle.fundamental(spec)
        w = ws[0]
        b1, b2 = TWIST.beta1, TWIST.beta2
        expected = (1 - TWIST.mu) * (-oracle.lambda2(w) / b1
                                     - oracle.lambda1(w) / b2)
        assert eval_vacuum_average(ws, oracle, TWIST, C) == expected

    def test_matches_oracle(self):
        for sites, p, seed in ((2, 1, 72), (3, 2, 73), (4, 3, 74), (3, 4, 75)):
            spec = chain(sites, seed)
            ws, = spectra(spec, [p], seed + 100, labels=("w",))
            oracle = WeightOracle.fundamental(spec)
            got = eval_vacuum_average(ws, oracle, TWIST, C)
            want = direct_scalar(spec, TWIST, "nu12", ws, "nu12",
                                 SpectralSet(()))
            assert got == want

    def test_unit_mu_kills_positive_sizes(self):
        oracle = WeightOracle.random_seeded(11)
        twist = TwistData(Rat(1, 2), Rat(1, 3), Rat(1))
        ws = sample_generic(2, seed=76, c=C, bound=30, label="w")
        assert eval_vacuum_average(ws, oracle, twist, C) == 0


class TestPhiTransform:
    def test_involution(self):
        oracle = WeightOracle.random_seeded(13)
        us = sample_generic(2, seed=78, c=C, bound=30, label="u")
        vs = sample_generic(2, context=with_shifts(C, us), seed=79, c=C,
                            bound=30, label="v")
        request = ActionRequest("nu11", us, vs, oracle, TWIST.twist(), C)
        twice = phi_transform(phi_transform(request))
        assert twice.kind == request.kind
        assert twice.u_set.values == request.u_set.values
        assert twice.v_set.values == request.v_set.values
        assert twice.twist == request.twist
        probe = Rat(5, 9)
        assert twice.oracle.lambda1(probe) == request.oracle.lambda1(probe)

    @pytest.mark.parametrize("kind", ["nu11", "t11"])
    def test_transposition_reproduces_partner(self, kind):
        oracle = WeightOracle.random_seeded(14)
        twist = TWIST.twist() if kind.startswith("nu") else None
        for n, m, seed in ((1, 1, 81), (2, 2, 82), (2, 1, 83), (0, 2, 84)):
            us = sample_generic(n, seed=seed, c=C, bound=30, label="u")
            vs = sample_generic(m, context=with_shifts(C, us), seed=seed + 1,
                                c=C, bound=30, label="v")
            request = ActionRequest(kind, us, vs, oracle, twist, C)
            direct = eval_request(request)
            mirrored = eval_request(phi_transform(request))
            assert direct.coefficients == mirrored.coefficients

    def test_transposed_oracle_swaps_weights(self):
        oracle = WeightOracle.random_seeded(15)
        probe = Rat(2, 7)
        flipped = oracle.transposed()
        assert flipped.lambda1(probe) == oracle.lambda2(-probe)
        assert flipped.lambda2(probe) == oracle.lambda1(-probe)


class TestWeightOracle:
    def test_fundamental_consistency(self):
        spec = chain(3, 85)
        oracle = WeightOracle.fundamental(spec)
        assert oracle.reduction_order == 3
        u = Rat(7, 5)
        assert oracle.reduction_weight(u) == oracle.lambda1(u) * oracle.lambda2(u)
        lam1 = Rat(1)
        for th in spec.theta:
            lam1 *= kernel_h(u, th, C)
        assert oracle.lambda1(u) == lam1

    def test_random_weights_are_pure_and_nonzero(self):
        oracle = WeightOracle.random_seeded(16)
        pts = [Rat(1, 3), Rat(-4, 7), Rat(0)]
        for x in pts:
            assert oracle.lambda1(x) == oracle.lambda1(x) != 0
            assert oracle.lambda2(x) != 0
        other = WeightOracle.random_seeded(17)
        assert any(oracle.lambda1(x) != other.lambda1(x) for x in pts)
