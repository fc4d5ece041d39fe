"""Exact rational scalars, the g/f/h kernels, and generic parameter sampling.

Everything downstream works over the rational field: every identity in this
package is an identity of rational functions, so exact equality at generic
rational sample points is the verification contract. Floating point is never
used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from fractions import Fraction as Rat
from math import gcd
from typing import Callable, Sequence

from .errors import DomainError, ExhaustionError, PoleError

ZERO = Rat(0)
ONE = Rat(1)


def rat_str(value) -> str:
    """Serialize a rational as 'p/q', omitting '/q' when the denominator is 1."""
    if type(value) is not Rat:
        value = Rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Rational kernels
# ---------------------------------------------------------------------------

def _rat(x) -> Rat:
    return x if isinstance(x, Rat) else Rat(x)


def diff_pair(u, v) -> tuple:
    """u - v as an unreduced integer pair (numerator, positive denominator)."""
    u, v = _rat(u), _rat(v)
    return (u.numerator * v.denominator - v.numerator * u.denominator,
            u.denominator * v.denominator)


# Each kernel's formula, on d = u - v = dn/dd and c = cn/cd (dd, cd > 0), as
# an unreduced (numerator, denominator) pair. f and g have a pole at d = 0,
# where the denominator is 0; h is a polynomial in d.

def f_pair(dn, dd, cn, cd) -> tuple:
    """f = (d + c) / d."""
    return dn * cd + cn * dd, dn * cd


def g_pair(dn, dd, cn, cd) -> tuple:
    """g = c / d."""
    return cn * dd, cd * dn


def h_pair(dn, dd, cn, cd) -> tuple:
    """h = (d + c) / c."""
    return dn * cd + cn * dd, dd * cn


def _kernel(kind: str, u, v, c) -> Rat:
    c = _rat(c)
    num, den = _PAIRS[kind](*diff_pair(u, v), c.numerator, c.denominator)
    if not den and kind != "h":
        raise PoleError(kind, u, v)
    return Rat(num, den)


def kernel_g(u, v, c) -> Rat:
    """c / (u - v); raises PoleError when u = v."""
    return _kernel("g", u, v, c)


def kernel_f(u, v, c) -> Rat:
    """(u - v + c) / (u - v); raises PoleError when u = v."""
    return _kernel("f", u, v, c)


def kernel_h(u, v, c) -> Rat:
    """(u - v + c) / c; total (no pole in u, v)."""
    return _kernel("h", u, v, c)


_PAIRS: dict[str, Callable] = {"g": g_pair, "f": f_pair, "h": h_pair}
_KERNELS: dict[str, Callable] = {"g": kernel_g, "f": kernel_f, "h": kernel_h}


# ---------------------------------------------------------------------------
# Spectral sets and product conventions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralSet:
    """Ordered finite set of rational spectral parameters.

    Element order matters only for indexing; every set-level product computed
    from a SpectralSet is invariant under permutations of the elements.
    """

    values: tuple = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(
            v if isinstance(v, Rat) else Rat(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def without(self, index: int) -> "SpectralSet":
        """Complement of the element at ``index`` within this set."""
        vals = self.values[:index] + self.values[index + 1:]
        return SpectralSet(vals, self.label)

    def shifted(self, delta) -> "SpectralSet":
        return SpectralSet(tuple(v + Rat(delta) for v in self.values), self.label)

    def negated(self) -> "SpectralSet":
        return SpectralSet(tuple(-v for v in self.values), self.label)

    def union(self, other: "SpectralSet", label: str = "") -> "SpectralSet":
        return SpectralSet(self.values + other.values, label or self.label)


def _as_values(side) -> tuple:
    if side is None:
        return ()
    if isinstance(side, SpectralSet):
        return side.values
    if isinstance(side, (tuple, list)):
        return tuple(v if isinstance(v, Rat) else Rat(v) for v in side)
    return (_rat(side),)


def _parts(values) -> list:
    """Each value with its numerator and denominator, read once."""
    return [(x, x.numerator, x.denominator) for x in values]


def kernel_product(kind: str, pairs, cn, cd) -> tuple:
    """Product of one kernel over an iterable of pairs of (value, numerator,
    denominator) triples, each pair (a, b) read at a - b, for c = cn/cd, as
    an unreduced integer pair; PoleError(kind, a, b) at the first pole.
    Every product of a kernel over a list of pairs is taken here."""
    pair = _PAIRS[kind]
    num = den = 1
    for (a, an, ad), (b, bn, bd) in pairs:
        pn, pd = pair(an * bd - bn * ad, ad * bd, cn, cd)
        if not pd:
            raise PoleError(kind, a, b)
        num *= pn
        den *= pd
    return num, den


def set_product(kind: str, left, right, c) -> Rat:
    """Product of a rational kernel over all pairs drawn from two sides.

    Either side may be a scalar, a SpectralSet, a tuple, or None/empty. The
    product over an empty side is 1 (so a double product with one empty set is
    1). A PoleError identifies the offending pair. The kernel products are
    taken on integer numerators and denominators (`kernel_product`), with
    one rational built for the result. Products of operator entries over a
    set live with the chain module (apply_entry_product), which extends the
    same convention.
    """
    c = _rat(c)
    pairs = product(_parts(_as_values(left)), _parts(_as_values(right)))
    return Rat(*kernel_product(kind, pairs, c.numerator, c.denominator))


def prod_over(fn: Callable, values) -> Rat:
    """Product of a one-argument function over a set; empty set gives 1."""
    out = ONE
    for v in _as_values(values):
        out *= fn(v)
    return out


# ---------------------------------------------------------------------------
# Twist parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistData:
    """The three scalars every twisted formula actually consumes.

    Use ModelParams for a consistent parametrization; TwistData also allows
    formula-level evaluation at points that no ModelParams can reach (for
    example mu = 1 with both betas nonzero).
    """

    beta1: Rat
    beta2: Rat
    mu: Rat

    def __post_init__(self):
        object.__setattr__(self, "beta1", Rat(self.beta1))
        object.__setattr__(self, "beta2", Rat(self.beta2))
        object.__setattr__(self, "mu", Rat(self.mu))

    def swapped(self) -> "TwistData":
        return TwistData(self.beta2, self.beta1, self.mu)


@dataclass(frozen=True)
class ModelParams:
    """Twist data (c, rho1, rho2, kappa_plus, kappa_minus) with derived scalars.

    beta1, beta2, mu are always recomputed from the stored fields, never
    cached, so they cannot drift out of sync.
    """

    c: Rat
    rho1: Rat = ZERO
    rho2: Rat = ZERO
    kappa_plus: Rat = ONE
    kappa_minus: Rat = ONE

    def __post_init__(self):
        for name in ("c", "rho1", "rho2", "kappa_plus", "kappa_minus"):
            object.__setattr__(self, name, Rat(getattr(self, name)))
        if self.c == 0:
            raise DomainError("c must be nonzero")
        if self.kappa_plus == 0 or self.kappa_minus == 0:
            raise DomainError("kappa_plus and kappa_minus must be nonzero")
        if self.rho1 * self.rho2 == self.kappa_plus * self.kappa_minus:
            raise DomainError("rho1*rho2 = kappa_plus*kappa_minus makes mu singular")

    @property
    def beta1(self) -> Rat:
        return self.rho1 / self.kappa_plus

    @property
    def beta2(self) -> Rat:
        return self.rho2 / self.kappa_plus

    @property
    def mu(self) -> Rat:
        return 1 / (1 - self.rho1 * self.rho2 / (self.kappa_plus * self.kappa_minus))

    def twist(self) -> TwistData:
        return TwistData(self.beta1, self.beta2, self.mu)

    def swapped(self) -> "ModelParams":
        """Exchange rho1 and rho2 (hence beta1 and beta2); mu is unchanged."""
        return ModelParams(self.c, self.rho2, self.rho1,
                           self.kappa_plus, self.kappa_minus)


def sample_twist(seed: int, c, bound: int = 9) -> ModelParams:
    """Random twist with nonzero rho's and finite, non-unit mu."""
    rng = random.Random(seed)
    while True:
        vals = [Rat(rng.choice([-1, 1]) * rng.randint(1, bound),
                    rng.randint(1, bound)) for _ in range(4)]
        rho1, rho2, kp, km = vals
        if rho1 * rho2 != kp * km:
            return ModelParams(c, rho1, rho2, kp, km)


# ---------------------------------------------------------------------------
# Genericity and sampling
# ---------------------------------------------------------------------------

def _flatten_context(context) -> list:
    out = []
    for item in context or ():
        out.extend(_as_values(item))
    return out


def _separated(values, p, q, cn, cd) -> bool:
    """True when p/q (q > 0) differs from each (numerator, denominator) pair
    in `values` by neither 0 nor +-c, where |c| = cn/cd."""
    for vn, vd in values:
        dn = abs(p * vd - vn * q)
        if not dn or dn * cd == cn * q * vd:
            return False
    return True


def is_generic(c, *sets) -> bool:
    """True when no two parameters across all sets differ by 0, +c, or -c."""
    c = _rat(c)
    cn, cd = abs(c.numerator), c.denominator
    seen: list = []
    for s in sets:
        for v in _as_values(s):
            p, q = v.numerator, v.denominator
            if not _separated(seen, p, q, cn, cd):
                return False
            seen.append((p, q))
    return True


def with_shifts(c, *sets) -> tuple:
    """Context enlarged with +c and -c copies of every set.

    Formulas that feed shifted sets into the kernels enlarge the genericity
    context this way, so that a 'difference not in {0, +-c}' scan against the
    enlarged context also excludes differences of +-2c between originals.
    """
    c = Rat(c)
    out = []
    for s in sets:
        vals = _as_values(s)
        out.append(vals)
        out.append(tuple(v + c for v in vals))
        out.append(tuple(v - c for v in vals))
    return tuple(out)


_RETRY_BUDGET = 2000


def _shift_pairs(pairs, c) -> list:
    """Integer (p, q) pairs (q > 0), each followed by its +c and -c copies
    (p*cd +- cn*q, q*cd) for c = cn/cd, left unreduced: the integer form of
    a `with_shifts` context, which `_separated` reads by cross-multiplying."""
    cn, cd = c.numerator, c.denominator
    out = []
    for p, q in pairs:
        out += [(p, q), (p * cd + cn * q, q * cd), (p * cd - cn * q, q * cd)]
    return out


def _generic_pairs(count: int, taken, seed: int, bound: int, c) -> list:
    """The rejection loop of `sample_generic` on integer pairs: `count`
    pairs (p, q) with |p| <= bound and 1 <= q <= bound, as drawn
    (unreduced), each differing from every pair in `taken` and from the
    pairs picked before it by neither 0 nor +-c. Deterministic for a fixed
    seed; ExhaustionError when the retry budget runs out."""
    if bound < 1:
        raise DomainError("bound must be >= 1")
    cn, cd = abs(c.numerator), c.denominator
    rng = random.Random(seed)
    picked: list = []
    attempts = 0
    while len(picked) < count:
        if attempts >= _RETRY_BUDGET:
            raise ExhaustionError(
                f"could not sample {count} generic rationals within "
                f"{_RETRY_BUDGET} attempts (bound={bound})")
        attempts += 1
        p, q = rng.randint(-bound, bound), rng.randint(1, bound)
        if _separated(taken, p, q, cn, cd) and _separated(picked, p, q, cn, cd):
            picked.append((p, q))
    return picked


def sample_generic(count: int, context=None, seed: int = 0,
                   bound: int = 50, c=1, label: str = "") -> SpectralSet:
    """Draw `count` rationals, generic against `context` and each other;
    `context` is None or a sequence of sets, as `with_shifts` returns.

    Numerators and denominators are bounded by `bound`; the draw is
    deterministic for a fixed seed. Raises ExhaustionError if the genericity
    requirement cannot be met within a fixed retry budget.
    """
    taken = [(v.numerator, v.denominator) for v in _flatten_context(context)]
    picked = _generic_pairs(count, taken, seed, bound, _rat(c))
    return SpectralSet(tuple(Rat(p, q) for p, q in picked), label)


def sample_nonzero(seed: int, bound: int = 50, exclude: Sequence = ()) -> Rat:
    """One nonzero bounded rational avoiding the `exclude` values; deterministic."""
    rng = random.Random(seed)
    banned = {(x.numerator, x.denominator) for x in map(Rat, exclude)}
    for _ in range(_RETRY_BUDGET):
        p, q = rng.randint(-bound, bound), rng.randint(1, bound)
        g = gcd(p, q)
        if p and (p // g, q // g) not in banned:
            return Rat(p, q)
    raise ExhaustionError("could not sample a nonzero rational")
