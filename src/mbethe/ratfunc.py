"""Exact univariate rational-function interpolation.

Supports the residue checks on the deformed determinants: values of an
analytic-at-zero rational function are sampled at distinct rational points,
the function is recovered exactly by solving a homogeneous linear system for
numerator and denominator coefficients, and evaluation at new points (in
particular 0) is again exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateError, PoleError
from .linalg import nullspace_vector
from .scalars import Rat


def poly_eval(coeffs, x) -> Rat:
    acc = Rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    quot = [Rat(0)] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    inv_lead = 1 / b[-1]
    while len(rem) >= len(b):
        factor = rem[-1] * inv_lead
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, bc in enumerate(b):
            rem[shift + i] -= factor * bc
        rem = poly_trim(rem)
        if not rem:
            break
    return quot, rem


def _poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


@dataclass(frozen=True)
class RationalFunction:
    """p(x)/q(x) with exact rational coefficients, gcd-reduced, q normalized monic."""

    num: tuple
    den: tuple

    def __call__(self, x) -> Rat:
        x = Rat(x)
        d = poly_eval(self.den, x)
        if d == 0:
            raise PoleError("rational-function", x, x)
        return poly_eval(self.num, x) / d


def rational_interpolate(samples, degree_bound: int) -> RationalFunction:
    """Recover p/q with deg p, deg q <= degree_bound from exact samples.

    Requires more than 2*degree_bound + 1 samples at pairwise distinct points.
    Raises DegenerateError when the sample count is insufficient, when no
    rational function of the declared degree passes through the samples, or
    when the fit fails to reproduce one of them (inconsistent degree bound).
    """
    pts = [(Rat(x), Rat(y)) for x, y in samples]
    if len({x for x, _ in pts}) != len(pts):
        raise DegenerateError("sample points must be pairwise distinct")
    if len(pts) <= 2 * degree_bound + 1:
        raise DegenerateError(
            f"need more than {2 * degree_bound + 1} samples for degree bound "
            f"{degree_bound}, got {len(pts)}")
    ncoef = degree_bound + 1
    system = []
    for x, y in pts:
        powers = [Rat(1)]
        for _ in range(degree_bound):
            powers.append(powers[-1] * x)
        system.append(powers + [-y * p for p in powers])
    vec = nullspace_vector(system, 2 * ncoef)
    if vec is None:
        raise DegenerateError("no rational function of the declared degree fits")
    num = poly_trim(vec[:ncoef])
    den = poly_trim(vec[ncoef:])
    if not den:
        if num:
            raise DegenerateError("fit produced an identically zero denominator")
        num, den = [], [Rat(1)]
    g = _poly_gcd(num, den) if num else []
    if len(g) > 1:
        num, _ = _poly_divmod(num, g)
        den, _ = _poly_divmod(den, g)
    lead = den[-1]
    den = [c / lead for c in den]
    num = [c / lead for c in num]
    fn = RationalFunction(tuple(num), tuple(den))
    for x, y in pts:
        if poly_eval(den, x) == 0 or fn(x) != y:
            raise DegenerateError(
                "interpolant does not reproduce the samples; "
                "degree bound is inconsistent with the data")
    return fn
