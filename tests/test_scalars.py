"""Kernel functions, set products, twist parameters, and generic sampling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbethe.chain import ChainSpec
from mbethe.errors import DomainError, ExhaustionError, PoleError
from mbethe.izergin import h_pair
from mbethe.scalars import (ModelParams, Rat, SpectralSet, TwistData,
                            diff_pair, is_generic, kernel_f, kernel_g,
                            kernel_h, rat_str, sample_generic, sample_nonzero,
                            set_product, with_shifts)
from mbethe.suites import Context, _spectra

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12).map(Rat)
constants = st.fractions(min_value=-6, max_value=6, max_denominator=6).map(Rat).filter(lambda x: x != 0)


class TestRationalScalar:
    def test_lowest_terms_positive_denominator(self):
        x = Rat(-6, 8)
        assert (x.numerator, x.denominator) == (-3, 4)
        assert Rat(0, 5) == 0 and Rat(0, 5).denominator == 1

    def test_serialization(self):
        assert rat_str(Rat(3, 4)) == "3/4"
        assert rat_str(Rat(8, 4)) == "2"
        assert rat_str(Rat(-3, 9)) == "-1/3"
        assert rat_str(-4) == "-4" and rat_str("6/4") == "3/2"

    def test_exact_field_ops(self):
        a, b = Rat("2/3"), Rat("-7/5")
        assert a + b == Rat(-11, 15)
        assert a * b == Rat(-14, 15)
        assert a / b == Rat(-10, 21)
        assert a - a == 0


class TestKernels:
    def test_g_values(self):
        assert kernel_g(3, 1, 1) == Rat(1, 2)
        assert kernel_g(0, -2, 2) == 1

    def test_g_pole(self):
        with pytest.raises(PoleError) as err:
            kernel_g(2, 2, 1)
        assert err.value.kind == "g"

    def test_f_h_values(self):
        assert kernel_f(2, 1, 1) == 2
        assert kernel_h(2, 1, 1) == 2
        assert kernel_f(3, 2, 1) == 2
        assert 1 / kernel_f(1, 3, 1) == 2

    def test_f_pole(self):
        with pytest.raises(PoleError):
            kernel_f(Rat(1, 2), Rat(1, 2), 1)

    def test_h_total(self):
        assert kernel_h(5, 5, 3) == 1

    def test_shift_inversions(self):
        # g(u, v-c) = 1/h(u, v); h(u, v+c) = 1/g(u, v); f(u, v+c) = 1/f(v, u)
        u, v, c = Rat(5), Rat(1), Rat(1)
        assert kernel_g(u, v - c, c) == 1 / kernel_h(u, v, c)
        assert kernel_h(u, v + c, c) * kernel_g(u, v, c) == 1
        assert kernel_f(u, v + c, c) == 1 / kernel_f(v, u, c)

    @given(u=rationals, v=rationals, c=constants)
    @settings(max_examples=120)
    def test_symmetries(self, u, v, c):
        if u - v in (Rat(0), c, -c):
            return
        for fn in (kernel_g, kernel_f, kernel_h):
            assert fn(-u, -v, c) == fn(v, u, c)
            assert fn(u - c, v, c) == fn(u, v + c, c)
            # negating c swaps the arguments
            assert fn(u, v, -c) == fn(v, u, c)

    @given(u=rationals, v=rationals, c=constants)
    @settings(max_examples=120)
    def test_interrelations(self, u, v, c):
        if u == v:
            return
        g, f, h = kernel_g(u, v, c), kernel_f(u, v, c), kernel_h(u, v, c)
        assert f == 1 + g
        assert h == f / g


class TestSetProduct:
    def test_empty_conventions(self):
        assert set_product("f", Rat(7), (), 1) == 1
        assert set_product("f", (), (), 1) == 1
        assert set_product("g", (), SpectralSet([1, 2]), 1) == 1

    def test_double_product(self):
        assert set_product("f", (3, 5), (0,), 1) == Rat(8, 5)

    def test_complement_convention(self):
        bar_u = SpectralSet([1, 2, 4], "u")
        rest = bar_u.without(1)
        assert rest.values == (Rat(1), Rat(4))
        assert set_product("f", rest, bar_u[1], 1) == 0  # f(1,2) = 0 at c=1

    def test_singleton_matches_kernel(self):
        assert set_product("h", 5, 1, 2) == kernel_h(5, 1, 2)

    def test_permutation_invariance(self):
        a = SpectralSet([Rat(1, 2), 3, Rat(-7, 3)])
        b = SpectralSet([3, Rat(-7, 3), Rat(1, 2)])
        w = SpectralSet([9, Rat(5, 4)])
        assert set_product("f", a, w, 1) == set_product("f", b, w, 1)

    def test_pole_identifies_pair(self):
        with pytest.raises(PoleError) as err:
            set_product("f", (1, 5), (5, 7), 1)
        assert (err.value.left, err.value.right) == (Rat(5), Rat(5))


class TestModelParams:
    def test_derived_values(self):
        p = ModelParams(1, 1, 2, 2, 3)
        assert p.mu == Rat(3, 2)
        assert p.beta1 == Rat(1, 2)
        assert p.beta2 == 1

    def test_untwisted(self):
        p = ModelParams(1)
        assert p.mu == 1 and p.beta1 == 0 and p.beta2 == 0

    def test_invalid(self):
        with pytest.raises(DomainError):
            ModelParams(1, 1, 1, kappa_plus=0)
        with pytest.raises(DomainError):
            ModelParams(1, 2, 3, 2, 3)  # rho1*rho2 == kp*km
        with pytest.raises(DomainError):
            ModelParams(0)

    def test_twist_data_swap(self):
        t = TwistData(Rat(1, 3), Rat(2, 5), Rat(7, 4))
        assert t.swapped() == TwistData(Rat(2, 5), Rat(1, 3), Rat(7, 4))
        assert t.swapped().swapped() == t


class TestSampling:
    def test_empty(self):
        assert len(sample_generic(0, seed=1)) == 0

    def test_deterministic(self):
        a = sample_generic(3, seed=7, bound=50)
        b = sample_generic(3, seed=7, bound=50)
        assert a.values == b.values

    def test_genericity_scan(self):
        c = Rat(2, 3)
        ctx = sample_generic(4, seed=1, c=c, bound=20)
        extra = sample_generic(5, context=with_shifts(c, ctx), seed=2, c=c,
                               bound=20)
        joint = list(ctx.values) + list(extra.values)
        bad = {Rat(0), c, -c}
        for i in range(len(joint)):
            for j in range(i + 1, len(joint)):
                assert joint[i] - joint[j] not in bad
        assert is_generic(c, ctx, extra)

    def test_exhaustion(self):
        with pytest.raises(ExhaustionError):
            sample_generic(40, seed=3, bound=1, c=1)

    def test_bad_bound(self):
        with pytest.raises(DomainError):
            sample_generic(1, bound=0)


# ---------------------------------------------------------------------------
# The integer kernels against plain-Fraction reference formulas
# ---------------------------------------------------------------------------

def ref_g(u, v, c):
    d = Fraction(u) - Fraction(v)
    if d == 0:
        raise PoleError("g", u, v)
    return Fraction(c) / d


def ref_f(u, v, c):
    d = Fraction(u) - Fraction(v)
    if d == 0:
        raise PoleError("f", u, v)
    return (d + Fraction(c)) / d


def ref_h(u, v, c):
    return (Fraction(u) - Fraction(v) + Fraction(c)) / Fraction(c)


def ref_inv_h(a, b, c):
    hv = ref_h(a, b, c)
    if hv == 0:
        raise PoleError("1/h", a, b)
    return 1 / hv


def inv_h(a, b, c):
    """1 / h(a, b) from the integer pair of `izergin.h_pair`, as a
    rational."""
    hn, hd = h_pair(*diff_pair(a, b), c.numerator, c.denominator)
    if not hn:
        raise PoleError("1/h", a, b)
    return Rat(hd, hn)


REFERENCE = {"f": ref_f, "g": ref_g, "h": ref_h}
FAST = {"f": kernel_f, "g": kernel_g, "h": kernel_h}


def ref_values(side):
    if side is None:
        return ()
    if isinstance(side, (SpectralSet, tuple, list)):
        return tuple(Fraction(v) for v in side)
    return (Fraction(side),)


def ref_set_product(kind, left, right, c):
    out = Fraction(1)
    for a in ref_values(left):
        for b in ref_values(right):
            out *= REFERENCE[kind](a, b, c)
    return out


def outcome(fn, *args):
    """A value as its exact (numerator, denominator), or a pole as its kind
    and pair: equal outcomes mean the same value bit for bit or the same error."""
    try:
        value = fn(*args)
    except PoleError as exc:
        return ("pole", exc.kind, exc.left, exc.right)
    return ("value", type(value), value.numerator, value.denominator)


# A small pool, so that u = v and u - v = -c come up often.
POOL = [Fraction(x) for x in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 3),
                              Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(7, 3))]
pool_values = st.sampled_from(POOL)
pool_constants = st.sampled_from([Fraction(x) for x in (
    1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-5, 6))])


def as_form(x, form):
    """x as a Rat, an int (when integral) or a 'p/q' string."""
    if form == "int" and x.denominator == 1:
        return int(x)
    if form == "str":
        return f"{x.numerator}/{x.denominator}"
    return Rat(x)


forms = st.sampled_from(["rat", "int", "str"])


@st.composite
def sides(draw):
    """One side of a set product in each accepted shape."""
    shape = draw(st.sampled_from(["scalar", "tuple", "list", "set", "none",
                                  "empty"]))
    if shape == "none":
        return None
    if shape == "empty":
        return draw(st.sampled_from([(), [], SpectralSet(())]))
    if shape == "scalar":
        return as_form(draw(pool_values), draw(forms))
    values = draw(st.lists(pool_values, max_size=4))
    if shape == "set":
        return SpectralSet(tuple(Rat(v) for v in values))
    out = [as_form(v, draw(forms)) for v in values]
    return tuple(out) if shape == "tuple" else out


class TestIntegerKernelsMatchReference:
    @given(u=pool_values, v=pool_values, c=pool_constants,
           uf=forms, vf=forms, cf=forms, kind=st.sampled_from("fgh"))
    @settings(max_examples=400, deadline=None)
    def test_kernels(self, u, v, c, uf, vf, cf, kind):
        args = (as_form(u, uf), as_form(v, vf), as_form(c, cf))
        assert outcome(FAST[kind], *args) == outcome(REFERENCE[kind], *args)

    @given(left=sides(), right=sides(), c=pool_constants, cf=forms,
           kind=st.sampled_from("fgh"))
    @settings(max_examples=400, deadline=None)
    def test_set_products(self, left, right, c, cf, kind):
        c = as_form(c, cf)
        assert (outcome(set_product, kind, left, right, c)
                == outcome(ref_set_product, kind, left, right, c))

    @given(a=pool_values, b=pool_values, c=pool_constants)
    @settings(max_examples=200, deadline=None)
    def test_inverse_h(self, a, b, c):
        a, b, c = Rat(a), Rat(b), Rat(c)
        assert outcome(inv_h, a, b, c) == outcome(ref_inv_h, a, b, c)

    @pytest.mark.parametrize("kind", ["f", "g"])
    def test_pole_names_the_pair(self, kind):
        for u, v in ((2, 2), ("1/2", "1/2"), (Rat(-7, 3), Rat(-7, 3))):
            with pytest.raises(PoleError) as err:
                FAST[kind](u, v, 1)
            assert (err.value.kind, err.value.left, err.value.right) == (kind, u, v)
        with pytest.raises(PoleError) as err:
            set_product(kind, [1, "5"], (Rat(7), 5), "-3/2")
        assert (err.value.kind, err.value.left, err.value.right) == (kind, 5, 5)

    def test_inverse_h_pole(self):
        c = Rat(-3, 2)
        with pytest.raises(PoleError) as err:
            inv_h(Rat(1, 3), Rat(1, 3) + c, c)
        assert (err.value.kind, err.value.left, err.value.right) == (
            "1/h", Rat(1, 3), Rat(1, 3) + c)

    def test_f_vanishes_at_minus_c(self):
        for c in (Rat(1), Rat(-2, 3)):
            u = Rat(5, 4)
            assert kernel_f(u, u + c, c) == 0
            assert set_product("f", (u, 3), u + c, c) == 0
            assert outcome(kernel_f, u, u + c, c) == ("value", Rat, 0, 1)


def ref_sample_generic(count, context, seed, bound, c):
    """The rejection loop of sample_generic, on Fractions."""
    c = Fraction(c)
    rng = random.Random(seed)
    ctx = [Fraction(v) for item in context for v in item]
    bad = {0, c, -c}
    picked = []
    for _ in range(2000):
        if len(picked) == count:
            return picked
        cand = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if all(cand - other not in bad for other in ctx + picked):
            picked.append(cand)
    if len(picked) == count:
        return picked
    raise ExhaustionError("reference exhausted")


def ref_is_generic(c, values):
    bad = {0, Fraction(c), -Fraction(c)}
    return all(a - b not in bad
               for i, a in enumerate(values) for b in values[i + 1:])


class TestSamplingMatchesReference:
    @given(seed=st.integers(0, 2**32), count=st.integers(0, 6),
           bound=st.integers(1, 12), c=pool_constants,
           ctx_seed=st.integers(0, 2**16), ctx_size=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_same_draws(self, seed, count, bound, c, ctx_seed, ctx_size):
        base = sample_generic(ctx_size, seed=ctx_seed, bound=9, c=c)
        context = with_shifts(c, base)
        try:
            want = ref_sample_generic(count, context, seed, bound, c)
        except ExhaustionError:
            with pytest.raises(ExhaustionError):
                sample_generic(count, context=context, seed=seed, bound=bound, c=c)
            return
        got = sample_generic(count, context=context, seed=seed, bound=bound, c=c)
        assert [(v.numerator, v.denominator) for v in got] == [
            (v.numerator, v.denominator) for v in want]

    @given(values=st.lists(pool_values, max_size=6), c=pool_constants,
           split=st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_genericity_scan(self, values, c, split):
        sets = (SpectralSet(tuple(values[:split])), tuple(values[split:]))
        assert is_generic(c, *sets) == ref_is_generic(c, values)


def fraction_spectra(c, bound, seed, counts, labels, chain=None):
    """The sets `_spectra` draws, by the route through Fraction contexts:
    `sample_generic` on `with_shifts` of the sets drawn before."""
    out = []
    context = [] if chain is None else list(with_shifts(c, chain.theta))
    rng = random.Random(seed)
    for count, label in zip(counts, labels):
        s = sample_generic(count, context=tuple(context),
                           seed=rng.getrandbits(48), bound=bound, c=c,
                           label=label)
        out.append(s)
        context.extend(with_shifts(c, s))
    return out


def ref_sample_nonzero(seed, bound, exclude):
    """The loop of sample_nonzero, on Fractions."""
    rng = random.Random(seed)
    banned = {Fraction(x) for x in exclude} | {Fraction(0)}
    for _ in range(2000):
        cand = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if cand not in banned:
            return cand
    raise ExhaustionError("reference exhausted")


def drawn(fn, *args):
    """The sets a sampler draws, as typed exact values with their labels,
    or its ExhaustionError."""
    try:
        sets = fn(*args)
    except ExhaustionError:
        return "exhausted"
    return [(s.label, [(type(v), v.numerator, v.denominator) for v in s])
            for s in sets]


class TestIntegerSamplingMatchesFractions:
    """The integer-pair contexts of `_spectra` and the integer draws of
    `sample_nonzero` against the Fraction routes they replaced."""

    @given(seed=st.integers(0, 2**32), c=pool_constants,
           counts=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           bound=st.integers(1, 30), sites=st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_spectra(self, seed, c, counts, bound, sites):
        labels = [f"s{i}" for i in range(len(counts))]
        ctx = Context(Rat(c), bound, 1, {}, 0, seed)
        chains = [None]
        if sites:
            theta = sample_generic(sites, seed=seed + 1, bound=30, c=c)
            chains.append(ChainSpec(sites, theta, Rat(c)))
        for chain in chains:
            assert (drawn(_spectra, ctx, seed, counts, labels, chain)
                    == drawn(fraction_spectra, Rat(c), bound, seed, counts,
                             labels, chain))

    @given(seed=st.integers(0, 2**32), bound=st.integers(1, 12),
           exclude=st.lists(st.sampled_from(POOL + [0, 1, -1, 2]), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_sample_nonzero(self, seed, bound, exclude):
        try:
            want = ref_sample_nonzero(seed, bound, exclude)
        except ExhaustionError:
            with pytest.raises(ExhaustionError):
                sample_nonzero(seed, bound, exclude)
            return
        got = sample_nonzero(seed, bound, exclude)
        assert (type(got), got.numerator, got.denominator) == (
            Rat, want.numerator, want.denominator)
