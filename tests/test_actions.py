"""Multiple-action and scalar-product evaluators against the chain oracle."""

import pickle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mbethe.actions import (ActionRequest, WeightOracle, _SPfinTerm,
                            eval_action, eval_request, eval_scalar,
                            eval_vacuum_average, phi_transform)
from mbethe.chain import (ChainSpec, apply_entry_product, direct_scalar,
                          vacuum_state)
from mbethe.errors import (CapabilityError, CardinalityError, DomainError)
from mbethe.izergin import _KBlocks
from mbethe.partitions import (MIN_POOL_SPLITS, _range_sum, bits_of,
                               count_splits, enumerate_splits)
from mbethe.scalars import (ModelParams, Rat, SpectralSet, TwistData,
                            kernel_h, sample_generic, with_shifts)

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

    def test_annihilation_excess_gives_zero(self):
        spec = chain(3, 41)
        us, vs = spectra(spec, [2, 1], 42)
        oracle = WeightOracle.fundamental(spec)
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

    def test_parallel_reduction_identical(self):
        assert count_splits(10, 2) >= MIN_POOL_SPLITS
        spec = chain(3, 68)
        us, vs = spectra(spec, [5, 5], 69)
        oracle = WeightOracle.fundamental(spec)
        serial = eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=1)
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=2) == serial
        assert eval_scalar("SPfin", us, vs, oracle, TWIST, C, jobs=5) == serial

    def test_parallel_reduction_under_spawn(self, run_script):
        # a script that makes spawn the default start method still gets the
        # serial value: split_sum names fork, so the children inherit the
        # SPfin term
        assert count_splits(10, 2) >= MIN_POOL_SPLITS
        done = run_script("""
import multiprocessing

from mbethe.actions import WeightOracle, eval_scalar
from mbethe.chain import ChainSpec
from mbethe.scalars import ModelParams, Rat, sample_generic, with_shifts

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
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


nonzero_rats = st.builds(Rat, st.integers(-9, 9).filter(bool),
                         st.integers(1, 9))


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


class TestSPfinBlocks:
    """The SPfin term reads K and K-bar from block tables built in the
    process that reads them: a worker builds only the blocks of its own
    rank range, and a pickled term carries none."""

    def test_workers_build_only_their_blocks(self, monkeypatch):
        spec = chain(3, 90)
        us, vs = spectra(spec, [5, 5], 91)
        oracle = WeightOracle.fundamental(spec)
        values = us.values + vs.values
        term = _SPfinTerm(us.values, values, C, TWIST.twist(),
                          [oracle.lambda1(x) for x in values],
                          [oracle.lambda2(x) for x in values])
        copy = pickle.loads(pickle.dumps(term))
        assert copy.k_plus.__self__._block is None
        assert copy.k_minus.__self__._block is None
        built = []
        build = _KBlocks._build

        def counted(blocks, hi):
            built.append((blocks, hi))
            return build(blocks, hi)

        monkeypatch.setattr(_KBlocks, "_build", counted)
        p, half = len(values), 1 << (len(values) - 1)
        first = _range_sum(p, 2, term, None, False, 0, half)
        second = _range_sum(p, 2, copy, None, False, half, None)
        for done in (term, copy):
            for reader in (done.k_plus, done.k_minus):
                his = [hi for blocks, hi in built if blocks is reader.__self__]
                assert len(his) == len(set(his))
                assert 0 < len(his) <= (1 << (p - p // 2)) // 2 + 1
        used = pickle.loads(pickle.dumps(term))
        assert used.k_plus.__self__._block is None
        assert used.k_minus.__self__._block is None
        assert first + second == direct_scalar(spec, TWIST, "nu21", us,
                                               "nu12", vs)


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

    def test_consistency_with_empty_left_scalar(self):
        # the twisted scalar product with no left operators is the average
        oracle = WeightOracle.random_seeded(12)
        ws = sample_generic(3, seed=77, c=C, bound=30, label="v")
        got = eval_scalar("SPfin", SpectralSet((), "u"), ws, oracle, TWIST, C)
        assert got == eval_vacuum_average(ws, oracle, TWIST, C)


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
