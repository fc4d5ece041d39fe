"""Partition-sum evaluators for the multiple-action and scalar-product
formulas, plus the diagonal-transposition symmetry on evaluation requests.

Evaluators return coefficient maps over surviving subsets (or plain scalars),
so formula-to-formula comparisons never pay the 2^N materialization cost;
materializing against the chain oracle is an explicit separate step.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from .chain import ChainSpec, apply_entry_product, vacuum_state
from .errors import CapabilityError, CardinalityError, DomainError
from .izergin import (DetTables, FTable, by_popcount, conj_mod_izergin,
                      mod_izergin, rat_pow, term_pair)
from .partitions import (CoefficientMap, GroundSet, bits_of, mask_values,
                         split_sum)
from .scalars import (ModelParams, Rat, SpectralSet, TwistData, kernel_h,
                      prod_over, rat_str, set_product)

DIAGONAL_TRANSPOSE = {
    "t11": "t22", "t22": "t11", "t12": "t12", "t21": "t21",
    "nu11": "nu22", "nu22": "nu11", "nu12": "nu12", "nu21": "nu21",
}


# ---------------------------------------------------------------------------
# Weight oracles (all callables are picklable classes, safe for workers)
# ---------------------------------------------------------------------------

class FundamentalWeight:
    """Closed-form vacuum weight of the inhomogeneous fundamental chain."""

    def __init__(self, theta, c, kind: str):
        self.theta = tuple(Rat(t) for t in theta)
        self.c = Rat(c)
        self.kind = kind

    def __call__(self, u) -> Rat:
        u = Rat(u)
        out = Rat(1)
        for th in self.theta:
            if self.kind in ("lam1", "product"):
                out *= kernel_h(u, th, self.c)
            if self.kind in ("lam2", "product"):
                out *= (u - th) / self.c
        return out


class HashRational:
    """Pure pseudo-random nonzero rational of a spectral point.

    Deterministic across processes and sessions (keyed hashing, not Python's
    salted hash), so formula-level tests can use independent weight values at
    every spectral point without storing a table.
    """

    def __init__(self, seed: int, salt: str, bound: int = 40):
        self.seed = seed
        self.salt = salt
        self.bound = bound

    def __call__(self, u) -> Rat:
        u = Rat(u)
        digest = hashlib.sha256(
            f"{self.seed}|{self.salt}|{u.numerator}|{u.denominator}".encode()
        ).digest()
        big = int.from_bytes(digest, "big")
        num = 1 + big % self.bound
        den = 1 + (big >> 64) % self.bound
        sign = -1 if (big >> 128) & 1 else 1
        return Rat(sign * num, den)


class NegatedArgWeight:
    """w(-u) for a wrapped weight function; involutive."""

    def __init__(self, inner: Callable):
        self.inner = inner

    def __call__(self, u) -> Rat:
        return self.inner(-Rat(u))


@dataclass(frozen=True)
class WeightOracle:
    """Vacuum weight functions, with optional creation-reduction data.

    reduction_weight and reduction_order are only needed for the repeated
    creation-operator formula; for the fundamental representation the weight
    is the product of the two vacuum weights and the order is the site count
    (checked at construction).
    """

    lambda1: Callable
    lambda2: Callable
    reduction_weight: Optional[Callable] = None
    reduction_order: Optional[int] = None

    @classmethod
    def fundamental(cls, spec: ChainSpec) -> "WeightOracle":
        oracle = cls(FundamentalWeight(spec.theta, spec.c, "lam1"),
                     FundamentalWeight(spec.theta, spec.c, "lam2"),
                     FundamentalWeight(spec.theta, spec.c, "product"),
                     spec.sites)
        for probe in (Rat(1, 3), Rat(5, 7)):
            expected = oracle.lambda1(probe) * oracle.lambda2(probe)
            if oracle.reduction_weight(probe) != expected:
                raise CapabilityError("fundamental reduction weight must equal "
                                      "the product of the vacuum weights")
        return oracle

    @classmethod
    def random_seeded(cls, seed: int, bound: int = 40) -> "WeightOracle":
        return cls(HashRational(seed, "lam1", bound),
                   HashRational(seed, "lam2", bound))

    def transposed(self) -> "WeightOracle":
        """Swap the two weights and negate their arguments (involutive)."""
        new_red = (NegatedArgWeight(self.reduction_weight)
                   if self.reduction_weight is not None else None)
        return WeightOracle(NegatedArgWeight(self.lambda2),
                            NegatedArgWeight(self.lambda1),
                            new_red, self.reduction_order)


def _require_twist(params, formula: str,
                   betas: tuple = ("beta1", "beta2")) -> TwistData:
    """The twist scalars of `params` (a TwistData or a ModelParams), or a
    DomainError naming the formula and the missing twist or the zero beta
    among `betas`."""
    if params is None:
        raise DomainError(f"{formula} requires twist parameters")
    if isinstance(params, ModelParams):
        params = params.twist()
    elif not isinstance(params, TwistData):
        raise DomainError(f"unsupported twist parameter object {type(params)!r}")
    zero = [name for name in betas if getattr(params, name) == 0]
    if zero:
        raise DomainError(f"{formula} needs a nonzero {' and '.join(zero)}")
    return params


# ---------------------------------------------------------------------------
# Evaluation requests and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionRequest:
    kind: str
    u_set: SpectralSet
    v_set: SpectralSet
    oracle: WeightOracle
    twist: Optional[TwistData]
    c: Rat


@dataclass(frozen=True)
class ActionResult:
    """Coefficients over surviving subsets of the ground set {u_set, v_set}."""

    kind: str
    coefficients: CoefficientMap
    ground: GroundSet
    values: tuple
    c: Rat

    def survivor_family(self) -> str:
        return "t12" if self.kind.startswith("t") else "nu12"

    def coeff_table(self) -> list:
        """Coefficients keyed by sorted origin tags, the report serialization."""
        return [(self.ground.tags(mask), rat_str(value))
                for mask, value in self.coefficients.items()]

    def materialize(self, spec: ChainSpec, params: Optional[ModelParams]) -> list:
        """Apply the surviving creation products to the vacuum and sum."""
        out = [Rat(0)] * spec.dim
        family = self.survivor_family()
        for mask, coeff in self.coefficients.items():
            args = SpectralSet(mask_values(self.values, mask))
            state = apply_entry_product(spec, params, family, args,
                                        vacuum_state(spec))
            for i, x in enumerate(state):
                if x != 0:
                    out[i] += coeff * x
        return out


def phi_transform(request: ActionRequest) -> ActionRequest:
    """Diagonal-transposition symmetry composed with spectral negation.

    Swaps the diagonal kinds (and the two weights / the two twist scalars) and
    negates all spectral parameters. Applying it twice returns the original
    request, and evaluation commutes with it coefficient-by-coefficient.
    """
    return ActionRequest(
        kind=DIAGONAL_TRANSPOSE[request.kind],
        u_set=request.u_set.negated(),
        v_set=request.v_set.negated(),
        oracle=request.oracle.transposed(),
        twist=request.twist.swapped() if request.twist is not None else None,
        c=request.c,
    )


def eval_request(request: ActionRequest) -> ActionResult:
    return eval_action(request.kind, request.u_set, request.v_set,
                       request.oracle, request.twist, request.c)


def eval_action(kind: str, u_set: SpectralSet, v_set: SpectralSet,
                oracle: WeightOracle, params, c) -> ActionResult:
    """Coefficient map of one multiple-action formula.

    kinds t11/t22/t21 are the plain-family actions (cardinality-constrained
    splits, undeformed determinants); nu11/nu22/nu21 are their twisted
    counterparts (unconstrained splits, unit-deformation determinants with
    twist-power weights); nu12 is the creation-reduction formula and needs the
    oracle's reduction data.
    """
    c = Rat(c)
    u_set = SpectralSet(u_set.values, "u")
    v_set = SpectralSet(v_set.values, "v")
    ground = GroundSet.from_sets(u_set, v_set)
    values = u_set.values + v_set.values
    n, m = len(u_set), len(v_set)
    p = n + m
    lam1 = [oracle.lambda1(x) for x in values]
    lam2 = [oracle.lambda2(x) for x in values]

    def result(coeffs):
        return ActionResult(kind, coeffs, ground, values, c)

    if kind in ("t11", "t22", "nu11", "nu22"):
        diagonal_one = kind in ("t11", "nu11")
        # K-bar and f(x2, x1) for t11 / nu11, K and f(x1, x2) for t22 / nu22
        half = DetTables(u_set.values, values, c).side(diagonal_one)
        twisted = kind.startswith("nu")
        sign = by_popcount(lambda k: rat_pow(-1, n), p)
        if twisted:
            beta_name = "beta2" if diagonal_one else "beta1"
            beta = getattr(_require_twist(params, kind, (beta_name,)), beta_name)
            sign = by_popcount(lambda k: rat_pow(beta, n) * rat_pow(-beta, -k), p)
        weight = _weight_table(lam1 if diagonal_one else lam2)

        def diagonal_term(mask1, mask2):
            return term_pair(sign[mask1.bit_count()], weight.row(0, mask1),
                             half.k_pair(1, mask1), half.pair(mask1, mask2))

        return result(split_sum(p, 2, diagonal_term,
                                None if twisted else (n, p - n), keyed=True))

    if kind in ("t21", "nu21"):
        tables = DetTables(u_set.values, values, c)
        plus, minus = tables.side(False), tables.side(True)
        twisted = kind == "nu21"
        power1 = power2 = [(1, 1)] * (p + 1)
        if twisted:
            twist = _require_twist(params, kind)
            power1 = by_popcount(lambda k: rat_pow(-twist.beta1, n - k), p)
            power2 = by_popcount(lambda k: rat_pow(-twist.beta2, n - k), p)
        elif m < n:
            return result(CoefficientMap())
        weight1, weight2 = _weight_table(lam1), _weight_table(lam2)

        def annihilation_term(mask1, mask2, mask3):
            return term_pair(plus.k_pair(1, mask1), minus.k_pair(1, mask2),
                             plus.pair(mask1, mask2), plus.pair(mask1, mask3),
                             plus.pair(mask3, mask2),
                             power1[mask1.bit_count()], power2[mask2.bit_count()],
                             weight2.row(0, mask1), weight1.row(0, mask2))

        return result(split_sum(p, 3, annihilation_term,
                                None if twisted else (n, n, p - 2 * n), keyed=True))

    if kind == "nu12":
        twist = _require_twist(params, kind)
        if oracle.reduction_weight is None or oracle.reduction_order is None:
            raise CapabilityError(
                "nu12 needs the oracle's reduction weight and reduction order")
        order = oracle.reduction_order
        if p < order:
            raise DomainError(
                f"nu12 reduction applies only when #u + #v >= {order}, got {p}")
        red = [oracle.reduction_weight(x) for x in values]
        prefactor = rat_pow(
            (twist.mu - 1) * (twist.beta1 + twist.beta2)
            / (twist.beta1 * twist.beta2), p - order)

        def reduction_term(mask1, mask2):
            term = prefactor
            for i in bits_of(mask1):
                term *= red[i]
            term *= set_product("g", mask_values(values, mask1),
                                mask_values(values, mask2), c)
            return term

        return result(split_sum(p, 2, reduction_term, (p - order, order),
                                keyed=True))

    raise ValueError(f"unknown action kind {kind!r}")


# ---------------------------------------------------------------------------
# Scalar products
# ---------------------------------------------------------------------------

def eval_scalar(form: str, u_set: SpectralSet, v_set: SpectralSet,
                oracle: WeightOracle, params, c, jobs: int = 1) -> Rat:
    """Closed scalar-product formulas as exact partition sums.

    SCe / SCbe are the plain-family forms (equal cardinalities); SPfin is the
    twisted form over unconstrained splits of the merged set; SPfinIK is its
    rearrangement into independent splits of the two sets. SCbe and SPfinIK
    sum over splits of the merged set u∪v too, each split of it being a pair
    of splits of u and of v. Every form is one `split_sum`. Only SPfin honors
    `jobs` (its split count is 2^(n+m); the others stay serial).
    """
    c = Rat(c)
    n, m = len(u_set), len(v_set)
    lam1 = oracle.lambda1
    lam2 = oracle.lambda2

    if form in ("SCe", "SCbe"):
        if n != m:
            raise CardinalityError(f"{form} needs #u = #v, got {n} and {m}")
    if form == "SCe":
        values = u_set.values + v_set.values
        tables = DetTables(u_set.values, values, c)
        plus, minus = tables.side(False), tables.side(True)
        weight1 = _weight_table([lam1(x) for x in values])
        weight2 = _weight_table([lam2(x) for x in values])

        def sce_term(mask1, mask2):
            return term_pair(plus.k_pair(1, mask1), minus.k_pair(1, mask2),
                             plus.pair(mask1, mask2),
                             weight2.row(0, mask1), weight1.row(0, mask2))

        return split_sum(2 * n, 2, sce_term, (n, n))

    if form == "SCbe":
        low = (1 << n) - 1

        def scbe_term(mask1, mask2):
            if (mask1 & low).bit_count() != (mask1 >> n).bit_count():
                return Rat(0)
            return _independent_term(1, *_uv_parts(u_set, v_set, mask1),
                                     *_uv_parts(u_set, v_set, mask2), oracle, c)

        return split_sum(2 * n, 2, scbe_term)

    if form == "SPfin":
        twist = _require_twist(params, "SPfin")
        values = u_set.values + v_set.values
        term = _SPfinTerm(u_set.values, values, c, twist,
                          [lam1(x) for x in values], [lam2(x) for x in values])
        return split_sum(len(values), 2, term, jobs=jobs)

    if form == "SPfinIK":
        mu = _require_twist(params, "SPfinIK", betas=()).mu
        if mu == 0:
            raise DomainError("SPfinIK needs mu != 0 (it deforms by 1/mu)")
        if mu == 1 and m != n:
            raise DomainError(
                "SPfinIK carries the prefactor (1-mu)^(m-n), which is 0 or "
                f"singular at mu=1 with n={n}, m={m}; use SPfin instead")
        twist = _require_twist(params, "SPfinIK")
        inv_mu = 1 / mu
        prefactor = rat_pow(mu, 2 * n) * rat_pow(1 - mu, m - n)

        def spfinik_term(mask1, mask2):
            u1, v1 = _uv_parts(u_set, v_set, mask1)
            u2, v2 = _uv_parts(u_set, v_set, mask2)
            term = (rat_pow(-twist.beta1, len(u2) - len(v2))
                    * rat_pow(-twist.beta2, len(u1) - len(v1)))
            return term * _independent_term(inv_mu, u1, v1, u2, v2, oracle, c)

        return prefactor * split_sum(n + m, 2, spfinik_term)

    raise ValueError(f"unknown scalar form {form!r}")


def _uv_parts(u_set: SpectralSet, v_set: SpectralSet, mask: int) -> tuple:
    """The u- and v-parts of a subset of the merged set u∪v, whose low bits
    index u."""
    n = len(u_set)
    return (SpectralSet(mask_values(u_set.values, mask & ((1 << n) - 1))),
            SpectralSet(mask_values(v_set.values, mask >> n)))


def _independent_term(z, u1, v1, u2, v2, oracle: WeightOracle, c) -> Rat:
    """Weights, f-products and the two z-deformed determinants of one term of
    the independent-partition forms SCbe (z = 1) and SPfinIK (z = 1/mu)."""
    term = prod_over(oracle.lambda2, u1) * prod_over(oracle.lambda2, v2)
    term *= prod_over(oracle.lambda1, u2) * prod_over(oracle.lambda1, v1)
    term *= set_product("f", u1, u2, c) * set_product("f", v2, v1, c)
    term *= mod_izergin(z, v2, u2, c)
    term *= conj_mod_izergin(z, v1, u1, c)
    return term


def _weight_table(weights) -> FTable:
    """Vacuum weights as a one-row table, read by mask in one lookup pair."""
    return FTable.of_ints([[w.numerator for w in weights]],
                          [[w.denominator for w in weights]])


class _SPfinTerm:
    """One term of the SPfin sum, for the split (mask1, mask2) of the merged
    set. The term is multiplied out as an unreduced integer numerator and
    denominator, which `split_sum` adds without building a rational; the
    weight products over a part are read from one-row tables, K and K-bar
    through the readers of the two halves of one `DetTables` (block tables,
    or `k_pair` where those do not apply), and f(x1, x2) from K's half. A
    forked child of `split_sum` inherits the term, and builds the blocks of
    its own rank range; the term is a module-level class, so that it also
    pickles.
    """

    def __init__(self, u_values, values, c, twist: TwistData, lam1, lam2):
        tables = DetTables(u_values, values, c)
        plus, minus = tables.side(False), tables.side(True)
        self.k_plus = plus.reader(twist.mu)
        self.k_minus = minus.reader(twist.mu)
        self.f_between = plus.pair
        n, p = len(u_values), len(values)
        self.beta_pow = by_popcount(
            lambda l1: (rat_pow(-twist.beta1, n - l1)
                        * rat_pow(-twist.beta2, n - p + l1)), p)
        self.lam1, self.lam2 = _weight_table(lam1), _weight_table(lam2)

    def __call__(self, mask1: int, mask2: int) -> tuple:
        return term_pair(self.beta_pow[mask1.bit_count()],
                         self.lam2.row(0, mask1), self.lam1.row(0, mask2),
                         self.f_between(mask1, mask2),
                         self.k_plus(mask1), self.k_minus(mask2))


def eval_vacuum_average(w_set: SpectralSet, oracle: WeightOracle,
                        params, c) -> Rat:
    """Vacuum expectation of a product of twisted creation operators."""
    twist = _require_twist(params, "the vacuum average")
    c = Rat(c)
    p = len(w_set)
    values = w_set.values
    power1 = by_popcount(lambda k: rat_pow(-twist.beta1, -k), p)
    power2 = by_popcount(lambda k: rat_pow(-twist.beta2, -k), p)
    weight1 = _weight_table([oracle.lambda1(x) for x in values])
    weight2 = _weight_table([oracle.lambda2(x) for x in values])
    f = FTable(c, values)

    def average_term(mask1, mask2):
        return term_pair(power2[mask2.bit_count()], power1[mask1.bit_count()],
                         weight2.row(0, mask1), weight1.row(0, mask2),
                         f.pair(mask1, mask2))

    return rat_pow(1 - twist.mu, p) * split_sum(p, 2, average_term)
