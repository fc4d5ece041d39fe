"""Split enumeration, the partition-sum engine, coefficient maps, and the
closed proof-step sums."""

import multiprocessing
import pickle
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mbethe import partitions
from mbethe.errors import ConstraintError, MbetheError, PoleError
from mbethe.partitions import (MAX_JOBS, MIN_POOL_SPLITS, CoefficientMap,
                               GroundSet,
                               _add_term, bits_of, count_splits, enumerate_splits,
                               mask_values, split_sum)
from mbethe.scalars import (Rat, SpectralSet, prod_over, sample_generic,
                            set_product)
from mbethe.suites import pole_extraction_sum, single_extraction_sum


class MaskTerm:
    """A term whose value differs from split to split."""

    def __call__(self, *split):
        num = sum((k + 2) * mask for k, mask in enumerate(split))
        return Rat(num + 1, split[-1] + 3)


class PairTerm:
    """A term returning unreduced integer pairs: common factors, negative
    denominators and a zero numerator."""

    def __call__(self, *split):
        num = sum((k + 2) * mask for k, mask in enumerate(split))
        sign = -1 if split[0] % 3 else 1
        return 6 * (num % 11), sign * 4 * (split[-1] % 5 + 1)


class AlternatingTerm:
    """(-1)^#(middle part) / 3 as an unreduced pair: keyed by the last part,
    the terms cancel under every key but the full mask."""

    def __call__(self, mask1, mask2, mask3):
        return (1, -3) if mask2.bit_count() % 2 else (2, 6)


class TestEnumeration:
    def test_single_element_two_parts(self):
        assert list(enumerate_splits(1, 2)) == [(1, 0), (0, 1)]

    def test_counts(self):
        assert len(list(enumerate_splits(4, 2, cards=(2, 2)))) == 6
        assert len(list(enumerate_splits(3, 3))) == 27
        assert len(list(enumerate_splits(5, 2))) == 32
        assert len(list(enumerate_splits(5, 3, cards=(2, 2, 1)))) == comb(5, 2) * comb(3, 2)

    def test_each_exactly_once_and_disjoint(self):
        seen = set()
        for split in enumerate_splits(4, 3):
            assert split not in seen
            seen.add(split)
            m1, m2, m3 = split
            assert m1 | m2 | m3 == 0b1111
            assert m1 & m2 == m1 & m3 == m2 & m3 == 0
        assert len(seen) == 81

    def test_deterministic_stream(self):
        assert list(enumerate_splits(6, 2)) == list(enumerate_splits(6, 2))
        a = list(enumerate_splits(6, 3, cards=(2, 2, 2)))
        assert a == list(enumerate_splits(6, 3, cards=(2, 2, 2)))

    def test_constraint_errors(self):
        with pytest.raises(ConstraintError):
            list(enumerate_splits(4, 2, cards=(1, 2)))
        with pytest.raises(ConstraintError):
            list(enumerate_splits(4, 4))
        with pytest.raises(ConstraintError):
            list(enumerate_splits(4, 2, cards=(1, 2, 1)))

    def test_emission_order(self):
        # ascending in the second mask, then in the third
        for n in range(6):
            full = (1 << n) - 1
            assert list(enumerate_splits(n, 2)) == [(full ^ m2, m2)
                                                    for m2 in range(full + 1)]
            ranks = sorted((m2, m3) for m2 in range(full + 1)
                           for m3 in range(full + 1) if m2 & m3 == 0)
            assert list(enumerate_splits(n, 3)) == [(full ^ m2 ^ m3, m2, m3)
                                                    for m2, m3 in ranks]

    @given(n=st.integers(0, 7), k=st.integers(0, 7))
    @settings(max_examples=40)
    def test_constrained_count(self, n, k):
        if k > n:
            with pytest.raises(ConstraintError):
                list(enumerate_splits(n, 2, cards=(k, n - k)))
            return
        splits = list(enumerate_splits(n, 2, cards=(k, n - k)))
        assert len(splits) == comb(n, k) == count_splits(n, 2, (k, n - k))
        assert all(bin(m1).count("1") == k for m1, _ in splits)


class TestSplitSum:
    CASES = [(5, 2, None), (5, 2, (2, 3)), (4, 3, None), (5, 3, (1, 2, 2))]

    @pytest.mark.parametrize("p, parts, cards", CASES)
    def test_matches_plain_loop(self, p, parts, cards):
        term = MaskTerm()
        total, keyed = Rat(0), CoefficientMap()
        for split in enumerate_splits(p, parts, cards):
            total += term(*split)
            keyed.add(split[-1], term(*split))
        assert len(keyed) > 1
        assert split_sum(p, parts, term, cards) == total
        assert split_sum(p, parts, term, cards, keyed=True) == keyed

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bad_shape_is_constraint_error(self, jobs):
        for parts, cards in ((2, (-1, 5)), (2, (1, 2)), (4, None)):
            with pytest.raises(ConstraintError):
                split_sum(4, parts, MaskTerm(), cards, jobs=jobs)

    @pytest.mark.parametrize("p, parts, cards",
                             [(10, 2, None), (7, 3, None), (13, 2, (6, 7))])
    def test_jobs_bit_identical(self, fork_from_1024, p, parts, cards):
        # a lambda cannot be pickled: the forked children inherit the term
        assert count_splits(p, parts, cards) >= partitions.MIN_POOL_SPLITS
        mask_term = MaskTerm()
        for term in (mask_term, lambda *split: mask_term(*split)):
            serial = split_sum(p, parts, term, cards)
            keyed = split_sum(p, parts, term, cards, keyed=True)
            for jobs in (2, 3):
                pooled = split_sum(p, parts, term, cards, jobs=jobs)
                assert ((pooled.numerator, pooled.denominator)
                        == (serial.numerator, serial.denominator))
                assert split_sum(p, parts, term, cards, jobs=jobs,
                                 keyed=True).items() == keyed.items()

    def test_worker_error_reaches_the_parent(self, run_script):
        # the split with second mask 600 has rank 600 of 1024, so it lies in
        # the range of the forked child
        done = run_script("""
from mbethe import partitions
from mbethe.errors import PoleError
from mbethe.partitions import count_splits, split_sum


class PoleTerm:
    def __call__(self, mask1, mask2):
        if mask2 == 600:
            raise PoleError("f", mask1, mask2)
        return 1


if __name__ == "__main__":
    partitions.MIN_POOL_SPLITS = 1024
    assert count_splits(10, 2) >= partitions.MIN_POOL_SPLITS
    try:
        split_sum(10, 2, PoleTerm(), jobs=2)
    except PoleError as exc:
        print("raised", exc.kind, exc.left, exc.right)
""", timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "raised f 423 600"

    # The outcomes of forked ranges: the script's term tells the caller's
    # range (by its pid) from a child's, and the script prints what the
    # caller saw and how many children are left; a hang is a timeout.
    FORKED = """
import multiprocessing
import os
import time

from mbethe import partitions
from mbethe.errors import PoleError, WorkerExitError
from mbethe.partitions import count_splits, split_sum


class ForkedTerm:
    def __init__(self, in_caller, in_child):
        self.caller = os.getpid()
        self.in_caller, self.in_child = in_caller, in_child

    def __call__(self, mask1, mask2):
        action = self.in_caller if os.getpid() == self.caller else self.in_child
        return action(mask2)


def one(mask2):
    return 1


def leave(mask2):
    os._exit(3)


def pole(mask2):
    raise PoleError("f", 1023 ^ mask2, mask2)


def fail(mask2):
    raise ValueError(f"caller range at {mask2}")


def stall(mask2):
    time.sleep(90)  # longer than the 60 s timeout of run_script
    return 1


if __name__ == "__main__":
    partitions.MIN_POOL_SPLITS = 1024
    assert count_splits(10, 2) >= partitions.MIN_POOL_SPLITS
    try:
        print("sum", split_sum(10, 2, ForkedTerm(%s, %s), jobs=%d))
    except WorkerExitError as exc:
        print("exit", exc.exitcode)
    except PoleError as exc:
        print("pole", exc.kind, exc.left, exc.right)
    except ValueError as exc:
        print("error", exc)
    print("left", len(multiprocessing.active_children()))
"""

    @pytest.mark.parametrize("in_caller, in_child, jobs, want", [
        ("one", "one", 2, "sum 1024"),
        ("one", "one", 3, "sum 1024"),
        ("one", "leave", 2, "exit 3"),
        ("one", "leave", 3, "exit 3"),
        ("one", "pole", 2, "pole f 511 512"),
        ("fail", "stall", 2, "error caller range at 0"),
        ("fail", "stall", 3, "error caller range at 0"),
    ])
    def test_forked_ranges(self, run_script, in_caller, in_child, jobs, want):
        done = run_script(self.FORKED % (in_caller, in_child, jobs), timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [want, "left 0"]

    def test_forks_from_the_threshold(self, monkeypatch):
        # no 2- or 3-part shape has exactly MIN_POOL_SPLITS - 1 = 4095
        # splits; C(30, 3) = 4060 is the largest count below 4096 that any
        # shape up to MAX_GROUND gives
        fork = multiprocessing.get_context("fork").Process
        started, start = [], fork.start

        def counted(child):
            started.append(child)
            start(child)

        monkeypatch.setattr(fork, "start", counted)
        p = MIN_POOL_SPLITS.bit_length() - 1
        assert count_splits(p, 2) == MIN_POOL_SPLITS
        below = [(p - 1, None), (30, (27, 3))]
        for n, cards in below:
            assert count_splits(n, 2, cards) < MIN_POOL_SPLITS
            assert split_sum(n, 2, lambda *split: 1, cards,
                             jobs=2) == count_splits(n, 2, cards)
        assert started == []
        assert split_sum(p, 2, lambda *split: 1, jobs=2) == MIN_POOL_SPLITS
        assert len(started) == 1

    def test_too_many_jobs_is_constraint_error(self, monkeypatch):
        """More than MAX_JOBS workers raise in the caller, before any fork
        and any term, on a sum large enough to fork."""
        def refuse(*args, **kwargs):
            raise AssertionError("reached the fork context")

        monkeypatch.setattr(partitions.multiprocessing, "get_context", refuse)
        p = MIN_POOL_SPLITS.bit_length() - 1
        for jobs in (MAX_JOBS + 1, 500):
            with pytest.raises(ConstraintError, match=f"got {jobs}"):
                split_sum(p, 2, refuse, jobs=jobs)


big = st.integers(-10**220, 10**220)
numerators = st.one_of(st.just(0), st.integers(-30, 30), big)
denominators = st.one_of(st.sampled_from([1, -1, 6, -6, 10**200 + 3, -10**201]),
                         st.integers(-30, 30).filter(bool), big.filter(bool))
pair_lists = st.integers(0, 4).flatmap(
    lambda p: st.lists(st.tuples(numerators, denominators),
                       min_size=1 << p, max_size=1 << p))


class TestPairAccumulator:
    """split_sum adds integer-pair terms into one exact rational."""

    @given(pairs=pair_lists)
    @example(pairs=[(0, -6), (10**205 + 1, -6), (-3, 10**200 + 3),
                    (7, 10**200 + 3)])
    @example(pairs=[(5, -10), (-1, 2)])
    @settings(max_examples=60, deadline=None)
    def test_same_rational_as_fraction_sum(self, pairs):
        p = len(pairs).bit_length() - 1
        want = sum((Fraction(n, d) for n, d in pairs), Fraction(0))
        got = split_sum(p, 2, lambda mask1, mask2: pairs[mask2])
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)
        keyed = split_sum(p, 2, lambda mask1, mask2: pairs[mask2], keyed=True)
        assert keyed.items() == [(k, Fraction(n, d))
                                 for k, (n, d) in enumerate(pairs) if n]

    @given(pairs=pair_lists)
    @settings(max_examples=60, deadline=None)
    def test_running_denominator_is_lcm_of_reduced(self, pairs):
        # the denominator grows only by what a term's reduced denominator
        # brings, however the terms share factors
        total, want, dens = (0, 1), Fraction(0), 1
        for n, d in pairs:
            total = _add_term(total, (n, d))
            want += Fraction(n, d)
            dens = lcm(dens, Fraction(n, d).denominator)
            assert total[1] == dens
            assert Fraction(*total) == want

    def test_mixed_pair_and_rational_terms(self):
        def term(mask1, mask2):
            return (mask2, -4) if mask2 % 2 else Rat(1, mask2 + 1)

        want = sum((Fraction(m, -4) if m % 2 else Fraction(1, m + 1)
                    for m in range(32)), Fraction(0))
        got = split_sum(5, 2, term)
        assert (got.numerator, got.denominator) == (want.numerator,
                                                    want.denominator)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_keyed_cancellation_drops_the_key(self, fork_from_1024, jobs):
        assert count_splits(7, 3) >= partitions.MIN_POOL_SPLITS
        keyed = split_sum(7, 3, AlternatingTerm(), jobs=jobs, keyed=True)
        assert keyed.items() == [(0b1111111, Rat(1, 3))]
        assert len(keyed) == 1
        assert split_sum(7, 3, AlternatingTerm(), jobs=jobs) == Rat(1, 3)

    @pytest.mark.parametrize("p, parts", [(10, 2), (7, 3)])
    def test_pair_terms_same_at_every_job_count(self, fork_from_1024, p,
                                                parts):
        assert count_splits(p, parts) >= partitions.MIN_POOL_SPLITS
        term = PairTerm()
        want = sum((Fraction(*term(*split))
                    for split in enumerate_splits(p, parts)), Fraction(0))
        sums = [split_sum(p, parts, term, jobs=jobs) for jobs in (1, 2, 3)]
        assert {(s.numerator, s.denominator) for s in sums} == {
            (want.numerator, want.denominator)}
        maps = [split_sum(p, parts, term, jobs=jobs, keyed=True).items()
                for jobs in (1, 2, 3)]
        assert maps[0] == maps[1] == maps[2]
        assert sum((v for _, v in maps[0]), Fraction(0)) == want

    @pytest.mark.parametrize("keyed", [False, True])
    def test_zero_denominator_raises_like_fraction(self, keyed):
        with pytest.raises(Exception) as fraction_error:
            Fraction(3, 0)
        for bad in ((3, 0), (0, 0)):
            for where in (0, 2):   # the first term, and a later one
                def term(mask1, mask2):
                    return bad if mask2 == where else (1, 2)

                with pytest.raises(fraction_error.type):
                    split_sum(2, 2, term, keyed=keyed)


def _error_types(base=MbetheError):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_types(sub)


@pytest.mark.parametrize("kind", list(_error_types()), ids=lambda k: k.__name__)
def test_errors_survive_pickling(kind):
    exc = PoleError("f", Rat(1, 2), 3) if kind is PoleError else kind("message")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is kind
    assert str(copy) == str(exc)
    assert vars(copy) == vars(exc)


class TestSplitElements:
    def test_empty_part(self):
        s = SpectralSet([1, 2], "u")
        assert mask_values(s.values, 0) == ()

    def test_multi_source_resolution(self):
        # A ground set from (u, v) indexes u's values, then v's.
        u = SpectralSet([10, 11], "u")
        v = SpectralSet([20, 21], "v")
        ground = GroundSet.from_sets(u, v)
        split = (0b0001, 0b1110)
        assert ground.tags(split[1]) == ["u[1]", "v[0]", "v[1]"]
        got = mask_values(u.union(v).values, split[1])
        assert got == (Rat(11), Rat(20), Rat(21))

    def test_round_trip(self):
        u = SpectralSet([3, 5, 8], "u")
        ground = GroundSet.from_sets(u)
        seen = 0
        for split in enumerate_splits(ground, 2):
            merged = []
            for mask in split:
                merged.extend(mask_values(u.values, mask))
            assert sorted(merged) == sorted(u.values)
            seen += 1
        assert seen == 8

    def test_tags(self):
        u = SpectralSet([10, 11], "u")
        v = SpectralSet([20], "v")
        ground = GroundSet.from_sets(u, v)
        assert ground.tags(0b101) == ["u[0]", "v[0]"]


class TestCoefficientMap:
    def test_absent_is_zero(self):
        m = CoefficientMap()
        assert m[5] == 0

    def test_exact_merge_and_zero_drop(self):
        m = CoefficientMap()
        m.add(3, Rat(1, 3))
        m.add(3, Rat(2, 3))
        m.add(7, Rat(1, 2))
        m.add(7, Rat(-1, 2))
        assert m[3] == 1
        assert len(m) == 1  # the exactly-cancelled key is dropped

    def test_equality_ignores_zeros(self):
        a = CoefficientMap({1: Rat(2)})
        b = CoefficientMap({1: Rat(2)})
        b.add(4, Rat(1))
        b.add(4, Rat(-1))
        assert a == b


class TestClosedSums:
    def test_binomial_partition_sum(self):
        c = Rat(1)
        for p in range(1, 8):
            xs = sample_generic(p, seed=100 + p, c=c, bound=40)
            for k in range(p + 1):
                total_a = total_b = Rat(0)
                for m1, m2 in enumerate_splits(p, 2, cards=(k, p - k)):
                    x1 = mask_values(xs.values, m1)
                    x2 = mask_values(xs.values, m2)
                    total_a += set_product("f", x2, x1, c)
                    total_b += set_product("f", x1, x2, c)
                assert total_a == comb(p, k)
                assert total_b == comb(p, k)

    def test_alternating_sum_vanishes(self):
        c = Rat(3, 2)
        for p in range(1, 7):
            xs = sample_generic(p, seed=200 + p, c=c, bound=40)
            total = Rat(0)
            for m1, m2 in enumerate_splits(p, 2):
                x1 = mask_values(xs.values, m1)
                x2 = mask_values(xs.values, m2)
                total += Rat(-1) ** len(x2) * set_product("f", x2, x1, c)
            assert total == 0

    def test_single_extraction_sum(self):
        c = Rat(1)
        for p in range(1, 9):
            ws = sample_generic(p, seed=300 + p, c=c, bound=40)
            assert single_extraction_sum(ws[0], ws, c) == 1

    def test_single_extraction_pole_names_the_pair(self):
        # h(0, 1) = (0 - 1 + 1) / 1 = 0
        with pytest.raises(PoleError) as err:
            single_extraction_sum(0, SpectralSet((1, 5)), 1)
        assert (err.value.kind, err.value.left, err.value.right) == ("1/h", 0, 1)

    def test_pole_extraction_sum(self):
        c = Rat(2)
        for p in range(1, 9):
            ws = sample_generic(p, seed=400 + p, c=c, bound=40)
            assert pole_extraction_sum(ws, ws[p // 2], c) == 1

    @pytest.mark.parametrize("c", [Rat(1), Rat(-3, 2)])
    def test_extraction_sums_match_loops(self, c):
        """Off the identity (u and the pivot outside the set), both sums
        equal their loops over singleton extractions on rationals."""
        def single_loop(u, vals):
            return sum((set_product("f", vals[:k] + vals[k + 1:], x, c)
                        / set_product("h", u, x, c)
                        for k, x in enumerate(vals)), Rat(0))

        def pole_loop(vals, pivot):
            return sum((set_product("g", vals[:k] + vals[k + 1:], x, c)
                        * prod_over(lambda y: (y - pivot) / c,
                                    vals[:k] + vals[k + 1:])
                        for k, x in enumerate(vals)), Rat(0))

        for p in range(1, 7):
            ws = sample_generic(p + 1, seed=500 + p, c=c, bound=40)
            vals, outside = ws.values[:p], ws[p]
            assert (single_extraction_sum(outside, SpectralSet(vals), c)
                    == single_loop(outside, vals))
            assert (pole_extraction_sum(SpectralSet(vals), outside, c)
                    == pole_loop(vals, outside))

    def test_bits_helpers(self):
        assert list(bits_of(0b1011)) == [0, 1, 3]
        assert mask_values((10, 11, 12, 13), 0b1010) == (11, 13)
