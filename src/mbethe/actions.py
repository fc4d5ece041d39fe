"""Partition-sum evaluators for the multiple-action and scalar-product
formulas, plus the diagonal-transposition symmetry on evaluation requests.

Evaluators return coefficient maps over surviving subsets (or plain scalars),
so formula-to-formula comparisons never pay the 2^N materialization cost;
materializing against the chain oracle is an explicit separate step.

Each formula is written once. The specialised forms call the formula they
specialise: SCe is the t21 action's coefficient of the empty survivor at
#u = #v, and the twisted vacuum average is SPfin with no u.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable, Optional

from .chain import ChainSpec, entry_product_states, vacuum_weights
from .errors import CapabilityError, CardinalityError, DomainError
from .izergin import DetTables, FTable, _reduced, _v_side, geometric, term_pair
from .partitions import CoefficientMap, GroundSet, mask_values, split_sum
from .scalars import (ModelParams, Rat, SpectralSet, TwistData, _parts,
                      kernel_product, rat_str)

DIAGONAL_TRANSPOSE = {
    "t11": "t22", "t22": "t11", "t12": "t12", "t21": "t21",
    "nu11": "nu22", "nu22": "nu11", "nu12": "nu12", "nu21": "nu21",
}


# ---------------------------------------------------------------------------
# Weight oracles
# ---------------------------------------------------------------------------

def hash_rational(seed: int, salt: str) -> Callable:
    """Pure pseudo-random nonzero rational of a spectral point.

    Deterministic across processes and sessions (keyed hashing, not Python's
    salted hash), so formula-level tests can use independent weight values at
    every spectral point without storing a table. Numerator and denominator
    lie in 1..40.
    """
    def weight(u) -> Rat:
        u = Rat(u)
        digest = hashlib.sha256(
            f"{seed}|{salt}|{u.numerator}|{u.denominator}".encode()).digest()
        big = int.from_bytes(digest, "big")
        num = 1 + big % 40
        den = 1 + (big >> 64) % 40
        sign = -1 if (big >> 128) & 1 else 1
        return Rat(sign * num, den)
    return weight


def negated_arg(inner: Callable) -> Callable:
    """u -> inner(-u); involutive."""
    return lambda u: inner(-Rat(u))


@dataclass(frozen=True)
class WeightOracle:
    """Vacuum weight functions, with optional creation-reduction data.

    reduction_weight and reduction_order are only needed for the repeated
    creation-operator formula; for the fundamental representation the weight
    is the product of the two vacuum weights and the order is the site count.
    """

    lambda1: Callable
    lambda2: Callable
    reduction_weight: Optional[Callable] = None
    reduction_order: Optional[int] = None

    @classmethod
    def fundamental(cls, spec: ChainSpec) -> "WeightOracle":
        return cls(lambda u: vacuum_weights(spec, u)[0],
                   lambda u: vacuum_weights(spec, u)[1],
                   lambda u: prod(vacuum_weights(spec, u)),
                   spec.sites)

    @classmethod
    def random_seeded(cls, seed: int) -> "WeightOracle":
        return cls(hash_rational(seed, "lam1"), hash_rational(seed, "lam2"))

    def transposed(self) -> "WeightOracle":
        """Swap the two weights and negate their arguments (involutive)."""
        new_red = (negated_arg(self.reduction_weight)
                   if self.reduction_weight is not None else None)
        return WeightOracle(negated_arg(self.lambda2), negated_arg(self.lambda1),
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
        """Apply the surviving creation products to the vacuum and sum.

        The products come from `entry_product_states`, so survivors that
        share a tail of their mask share its sweeps.
        """
        out = [Rat(0)] * spec.dim
        states = entry_product_states(spec, params, self.survivor_family(),
                                      self.values, self.coefficients)
        for mask, coeff in self.coefficients.items():
            for i, x in enumerate(states[mask]):
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
        twisted = kind.startswith("nu")
        if twisted:
            beta_name = "beta2" if diagonal_one else "beta1"
            beta = getattr(_require_twist(params, kind, (beta_name,)), beta_name)
            bn, bd = beta.numerator, beta.denominator
            # beta^n (-beta)^-k
            sign = geometric((bn ** n, bd ** n), (-bd, bn), p)
        else:
            sign = geometric(((-1) ** n, 1), (1, 1), p)
        # K-bar and f(x2, x1) for t11 / nu11, K and f(x1, x2) for t22 / nu22
        half = DetTables(u_set.values, values, c).side(diagonal_one)
        weight = _weight_table(lam1 if diagonal_one else lam2)

        def diagonal_term(mask1, mask2):
            return term_pair(sign[mask1.bit_count()], weight.row(0, mask1),
                             half.k_pair(1, mask1), half.pair(mask1, mask2))

        return result(split_sum(p, 2, diagonal_term,
                                None if twisted else (n, p - n), keyed=True))

    if kind in ("t21", "nu21"):
        twisted = kind == "nu21"
        power1 = power2 = [(1, 1)] * (p + 1)
        if twisted:
            twist = _require_twist(params, kind)
            power1, power2 = (
                geometric(((-b.numerator) ** n, b.denominator ** n),
                          (-b.denominator, b.numerator), p)   # (-beta)^(n-k)
                for b in (twist.beta1, twist.beta2))
        if not twisted and m < n:
            return result(CoefficientMap())
        tables = DetTables(u_set.values, values, c)
        plus, minus = tables.side(False), tables.side(True)
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
        red = _weight_table([oracle.reduction_weight(x) for x in values])
        pre = ((twist.mu - 1) * (twist.beta1 + twist.beta2)
               / (twist.beta1 * twist.beta2)) ** (p - order)
        prefactor = pre.numerator, pre.denominator
        parts = _parts(values)
        cn, cd = c.numerator, c.denominator

        def reduction_term(mask1, mask2):
            pairs = product(mask_values(parts, mask1),
                            mask_values(parts, mask2))
            return term_pair(prefactor, red.row(0, mask1),
                             kernel_product("g", pairs, cn, cd))

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
    of splits of u and of v. SCe is not written out: at #u = #v the t21
    action's only survivor is the empty set, and its coefficient is SCe's
    sum, term for term. Every other form is one `split_sum`. Only SPfin
    honors `jobs` (its split count is 2^(n+m); the others stay serial).
    """
    c = Rat(c)
    n, m = len(u_set), len(v_set)
    lam1 = oracle.lambda1
    lam2 = oracle.lambda2

    if form in ("SCe", "SCbe"):
        if n != m:
            raise CardinalityError(f"{form} needs #u = #v, got {n} and {m}")
    if form == "SCe":
        return eval_action("t21", u_set, v_set, oracle, None, c).coefficients[0]

    if form == "SCbe":
        low = (1 << n) - 1
        term = _independent_pairs(u_set, v_set, oracle, 1, c)

        def scbe_term(mask1, mask2):
            if (mask1 & low).bit_count() != (mask1 >> n).bit_count():
                return 0, 1
            return term(mask1, mask2)

        return split_sum(2 * n, 2, scbe_term)

    if form == "SPfin":
        twist = _require_twist(params, "SPfin")
        values = u_set.values + v_set.values
        p = n + m
        tables = DetTables(u_set.values, values, c)
        plus, minus = tables.side(False), tables.side(True)
        # lambda2 over the first part rides on K, lambda1 over the second
        # on K-bar: the block tables fold each weight into their contents
        k_plus = plus.reader(twist.mu, _weight_table([lam2(x) for x in values]))
        k_minus = minus.reader(twist.mu,
                               _weight_table([lam1(x) for x in values]))
        beta_pow = _beta_powers(twist, n, m)

        def spfin_term(mask1, mask2):
            return term_pair(beta_pow[mask1.bit_count()],
                             plus.pair(mask1, mask2), k_plus(mask1),
                             k_minus(mask2))

        return split_sum(p, 2, spfin_term, jobs=jobs)

    if form == "SPfinIK":
        mu = _require_twist(params, "SPfinIK", betas=()).mu
        if mu == 0:
            raise DomainError("SPfinIK needs mu != 0 (it deforms by 1/mu)")
        if mu == 1 and m != n:
            raise DomainError(
                "SPfinIK carries the prefactor (1-mu)^(m-n), which is 0 or "
                f"singular at mu=1 with n={n}, m={m}; use SPfin instead")
        twist = _require_twist(params, "SPfinIK")
        prefactor = mu ** (2 * n) * (1 - mu) ** (m - n)
        term = _independent_pairs(u_set, v_set, oracle, 1 / mu, c)
        # -beta1 to the #u2 - #v2 and -beta2 to the #u1 - #v1, by the size
        # #u1 + #v2 of lambda2's part
        beta_pow = _beta_powers(twist, n, m)
        low = (1 << n) - 1

        def spfinik_term(mask1, mask2):
            k = (mask1 & low).bit_count() + (mask2 >> n).bit_count()
            return term_pair(beta_pow[k], term(mask1, mask2))

        return prefactor * split_sum(n + m, 2, spfinik_term)

    raise ValueError(f"unknown scalar form {form!r}")


def _beta_powers(twist: TwistData, n: int, m: int) -> list:
    """(-beta1)^(n-k) (-beta2)^(k-m) for k = 0..n+m, as integer pairs."""
    an, ad = twist.beta1.numerator, twist.beta1.denominator
    bn, bd = twist.beta2.numerator, twist.beta2.denominator
    return geometric(((-an) ** n * bd ** m, ad ** n * (-bn) ** m),
                     (bn * ad, bd * an), n + m)


def _independent_weights(u_set: SpectralSet, v_set: SpectralSet,
                         oracle: WeightOracle) -> Callable:
    """(mask1, mask2) -> lambda2 over u1∪v2 times lambda1 over u2∪v1, as an
    unreduced integer pair, for the splits mask1 = u1∪v1 and mask2 = u2∪v2
    of u∪v (low bits index u). Each weight is read once per element of u∪v,
    not once per term."""
    values = u_set.values + v_set.values
    weight1 = _weight_table([oracle.lambda1(x) for x in values])
    weight2 = _weight_table([oracle.lambda2(x) for x in values])
    low = (1 << len(u_set)) - 1

    def weights(mask1, mask2):
        return term_pair(weight2.row(0, (mask1 & low) | (mask2 & ~low)),
                         weight1.row(0, (mask2 & low) | (mask1 & ~low)))

    return weights


def _independent_pairs(u_set: SpectralSet, v_set: SpectralSet,
                       oracle: WeightOracle, z, c) -> Callable:
    """(mask1, mask2) -> one term of the independent-partition forms SCbe
    (z = 1) and SPfinIK (z = 1/mu), less SPfinIK's beta powers, as an
    unreduced integer pair, for the splits mask1 = u1∪v1 and
    mask2 = u2∪v2 of u∪v (low bits index u): the weight pair of
    `_independent_weights`, f(u1, u2) f(v2, v1), and the z-deformed
    K^(z)(v2 | u2) and K-bar^(z)(v1 | u1). The f products are one
    `kernel_product` over the values' triples, and both determinants are
    assembled for each split by the v-side row assembly
    (`izergin._v_side`), never from block tables: this is the route that
    checks them."""
    n = len(u_set)
    low = (1 << n) - 1
    us, vs = _parts(u_set.values), _parts(v_set.values)
    z = Rat(z)
    zn, zd, cn, cd = z.numerator, z.denominator, c.numerator, c.denominator
    weights = _independent_weights(u_set, v_set, oracle)

    def term(mask1, mask2):
        u1, v1 = mask_values(us, mask1 & low), mask_values(vs, mask1 >> n)
        u2, v2 = mask_values(us, mask2 & low), mask_values(vs, mask2 >> n)
        return term_pair(weights(mask1, mask2),
                         _reduced(*kernel_product(
                             "f", [*product(u1, u2), *product(v2, v1)],
                             cn, cd)),
                         _v_side(v2, u2, cn, cd, False)(zn, zd),
                         _v_side(v1, u1, cn, cd, True)(zn, zd))

    return term


def _weight_table(weights) -> FTable:
    """Vacuum weights as a one-row table, read by mask in one lookup pair."""
    return FTable.of_ints([[w.numerator for w in weights]],
                          [[w.denominator for w in weights]])


def eval_vacuum_average(w_set: SpectralSet, oracle: WeightOracle,
                        params, c) -> Rat:
    """Vacuum expectation of a product of twisted creation operators: SPfin
    with no u, where K^(mu)(empty | x) = (1-mu)^#x."""
    _require_twist(params, "the vacuum average")
    return eval_scalar("SPfin", SpectralSet(()), w_set, oracle, params, c)
