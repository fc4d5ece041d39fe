"""Brute-force spin-chain oracle: explicit monodromy matrices, twisted
operators, and Bethe-type states as exact dense linear algebra on the
2^N-dimensional chain space.

Basis convention: basis index b has bit k (0-based) equal to 0 when site k+1
is up; the vacuum (all up) is index 0. The monodromy is the ordered
auxiliary-space product with the highest site leftmost, so every oracle value
is reproducible bit for bit.

Dense operators are built only where an operator-level identity is checked
(small N). State-level work goes through an auxiliary-space sweep that applies
a monodromy entry to a vector in O(N * 2^N) scalar operations, which is what
makes vector and scalar-product comparisons cheap at N = 5, 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .linalg import zeros
from .scalars import ModelParams, Rat, SpectralSet, kernel_h

MAX_SITES = 10


@dataclass(frozen=True)
class ChainSpec:
    """Inhomogeneous spin-1/2 chain: site count, inhomogeneities, kernel constant."""

    sites: int
    theta: SpectralSet
    c: Rat

    def __post_init__(self):
        object.__setattr__(self, "c", Rat(self.c))
        if not 1 <= self.sites <= MAX_SITES:
            raise DomainError(f"site count must be in 1..{MAX_SITES}")
        if len(self.theta) != self.sites:
            raise DomainError("need one inhomogeneity per site")
        if self.c == 0:
            raise DomainError("c must be nonzero")

    @property
    def dim(self) -> int:
        return 1 << self.sites


def vacuum_state(spec: ChainSpec) -> list:
    vec = [Rat(0)] * spec.dim
    vec[0] = Rat(1)
    return vec


def r_matrix(u, c):
    """4x4 R-matrix (u/c) * identity + permutation on C^2 (x) C^2."""
    x = Rat(u) / Rat(c)
    r = [[Rat(0)] * 4 for _ in range(4)]
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    for i in range(4):
        r[i][i] += x
        r[perm[i]][i] += 1
    return r


def embed_two(mat4, dims, a, b):
    """Place a 4x4 two-space operator on factors a, b of a product space."""
    total = 1
    for d in dims:
        total *= d
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    out = zeros(total)
    for row in range(total):
        digits = [(row // strides[k]) % dims[k] for k in range(len(dims))]
        ra, rb = digits[a], digits[b]
        for ca in range(2):
            for cb in range(2):
                val = mat4[ra * 2 + rb][ca * 2 + cb]
                if val == 0:
                    continue
                digits2 = list(digits)
                digits2[a], digits2[b] = ca, cb
                col = sum(digits2[k] * strides[k] for k in range(len(dims)))
                out[row][col] += val
    return out


# ---------------------------------------------------------------------------
# Monodromy entries via the auxiliary-space sweep
# ---------------------------------------------------------------------------

def _e_apply(vec, site: int, p: int, q: int, dim: int) -> list:
    """Apply the local unit matrix E_pq (1 = up, 2 = down) at a site."""
    out = [Rat(0)] * dim
    bit = 1 << site
    want = (q - 1) * bit
    put = (p - 1) * bit
    for b in range(dim):
        if b & bit == want and vec[b] != 0:
            out[(b & ~bit) | put] = vec[b]
    return out


def monodromy_columns(spec: ChainSpec, u, psi, aux_col: int) -> tuple[list, list]:
    """(T_1j psi, T_2j psi) for the auxiliary column j in {1, 2}.

    The site factor at spectral offset x contributes (x/c) * id + permutation,
    which in auxiliary components reads W'_1 = (x/c) W_1 + E11 W_1 + E21 W_2
    and W'_2 = (x/c) W_2 + E12 W_1 + E22 W_2.
    """
    dim = spec.dim
    w1 = list(psi) if aux_col == 1 else [Rat(0)] * dim
    w2 = list(psi) if aux_col == 2 else [Rat(0)] * dim
    u = Rat(u)
    for site in range(spec.sites):
        ratio = (u - spec.theta[site]) / spec.c
        e11w1 = _e_apply(w1, site, 1, 1, dim)
        e21w2 = _e_apply(w2, site, 2, 1, dim)
        e12w1 = _e_apply(w1, site, 1, 2, dim)
        e22w2 = _e_apply(w2, site, 2, 2, dim)
        w1, w2 = ([ratio * a + b + cc for a, b, cc in zip(w1, e11w1, e21w2)],
                  [ratio * a + b + cc for a, b, cc in zip(w2, e12w1, e22w2)])
    return w1, w2


def apply_t(spec: ChainSpec, i: int, j: int, u, psi) -> list:
    """t_ij(u) applied to a state, matrix-free."""
    return monodromy_columns(spec, u, psi, j)[i - 1]


def apply_nu(spec: ChainSpec, params: ModelParams, i: int, j: int, u, psi) -> list:
    """Twisted entry nu_ij(u) = mu * (A0 T(u) B0)_ij applied to a state."""
    pair = twist_pair(params)
    a0, b0, mu = pair.a0, pair.b0, pair.mu
    cols = {}
    for col in (1, 2):
        if b0[col - 1][j - 1] != 0:
            t1, t2 = monodromy_columns(spec, u, psi, col)
            cols[col] = (t1, t2)
    out = [Rat(0)] * spec.dim
    for bcol, (t1, t2) in cols.items():
        wb = b0[bcol - 1][j - 1]
        for arow, tvec in ((1, t1), (2, t2)):
            weight = mu * a0[i - 1][arow - 1] * wb
            if weight == 0:
                continue
            for idx, val in enumerate(tvec):
                if val != 0:
                    out[idx] += weight * val
    return out


def build_monodromy(spec: ChainSpec, u):
    """Dense 2x2 block decomposition [[t11, t12], [t21, t22]] of T(u)."""
    dim = spec.dim
    blocks = [[zeros(dim) for _ in range(2)] for _ in range(2)]
    for b in range(dim):
        basis = [Rat(0)] * dim
        basis[b] = Rat(1)
        for j in (1, 2):
            rows = monodromy_columns(spec, u, basis, j)
            for i in (1, 2):
                col = rows[i - 1]
                for r in range(dim):
                    blocks[i - 1][j - 1][r][b] = col[r]
    return blocks


def vacuum_weights(spec: ChainSpec, u) -> tuple[Rat, Rat]:
    """Vacuum eigenvalues of the diagonal entries, in closed form."""
    u = Rat(u)
    lam1 = Rat(1)
    lam2 = Rat(1)
    for th in spec.theta:
        lam1 *= kernel_h(u, th, spec.c)
        lam2 *= (u - th) / spec.c
    return lam1, lam2


# ---------------------------------------------------------------------------
# Twist
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwistPair:
    """The two 2x2 twist factors with the sqrt(mu) prefactors stripped.

    Every twisted entry carries exactly one left and one right factor, so the
    two square roots recombine into the single rational factor mu and all
    arithmetic stays in the rational field.
    """

    a0: tuple
    b0: tuple
    mu: Rat

    @property
    def det_a0(self) -> Rat:
        return self.a0[0][0] * self.a0[1][1] - self.a0[0][1] * self.a0[1][0]

    @property
    def det_b0(self) -> Rat:
        return self.b0[0][0] * self.b0[1][1] - self.b0[0][1] * self.b0[1][0]


def twist_pair(params: ModelParams) -> TwistPair:
    one = Rat(1)
    a0 = ((one, params.rho2 / params.kappa_minus),
          (params.rho1 / params.kappa_plus, one))
    b0 = ((one, params.rho1 / params.kappa_minus),
          (params.rho2 / params.kappa_plus, one))
    return TwistPair(a0, b0, params.mu)


def modified_entry(spec: ChainSpec, params: ModelParams, i: int, j: int, u):
    """Dense nu_ij(u) = mu * (A0 T(u) B0)_ij."""
    pair = twist_pair(params)
    t = build_monodromy(spec, u)
    dim = spec.dim
    out = zeros(dim)
    for a in range(2):
        for b in range(2):
            weight = pair.mu * pair.a0[i - 1][a] * pair.b0[b][j - 1]
            if weight == 0:
                continue
            block = t[a][b]
            for r in range(dim):
                row = block[r]
                orow = out[r]
                for cidx in range(dim):
                    if row[cidx] != 0:
                        orow[cidx] += weight * row[cidx]
    return out


# ---------------------------------------------------------------------------
# States and scalar products
# ---------------------------------------------------------------------------

_APPLIERS = {
    "t11": lambda spec, params, u, psi: apply_t(spec, 1, 1, u, psi),
    "t12": lambda spec, params, u, psi: apply_t(spec, 1, 2, u, psi),
    "t21": lambda spec, params, u, psi: apply_t(spec, 2, 1, u, psi),
    "t22": lambda spec, params, u, psi: apply_t(spec, 2, 2, u, psi),
    "nu11": lambda spec, params, u, psi: apply_nu(spec, params, 1, 1, u, psi),
    "nu12": lambda spec, params, u, psi: apply_nu(spec, params, 1, 2, u, psi),
    "nu21": lambda spec, params, u, psi: apply_nu(spec, params, 2, 1, u, psi),
    "nu22": lambda spec, params, u, psi: apply_nu(spec, params, 2, 2, u, psi),
}


def apply_entry_product(spec: ChainSpec, params: ModelParams | None, kind: str,
                        args: SpectralSet, psi) -> list:
    """Apply the product of one monodromy entry over a parameter set."""
    if kind.startswith("nu") and params is None:
        raise DomainError(f"{kind} requires twist parameters")
    fn = _APPLIERS[kind]
    out = psi
    for w in reversed(args.values):
        out = fn(spec, params, w, out)
    return out


def bethe_state(spec: ChainSpec, params: ModelParams | None, kind: str,
                v_set: SpectralSet) -> list:
    """Creation-operator product state over v_set applied to the vacuum."""
    if kind not in ("t12", "nu12"):
        raise DomainError("bethe_state builds t12 or nu12 products")
    return apply_entry_product(spec, params, kind, v_set, vacuum_state(spec))


def direct_scalar(spec: ChainSpec, params: ModelParams | None,
                  left_kind: str, u_set: SpectralSet,
                  right_kind: str, v_set: SpectralSet) -> Rat:
    """Ground-truth pairing <0| left(u_set) right(v_set) |0>.

    The dual vacuum is the plain transpose basis row, so the pairing is the
    vacuum component of the ket obtained by applying everything to |0>.
    """
    psi = apply_entry_product(spec, params, right_kind, v_set, vacuum_state(spec))
    psi = apply_entry_product(spec, params, left_kind, u_set, psi)
    return psi[0]


def dual_pairing(spec: ChainSpec, operator, state=None) -> Rat | list:
    """<0| O or <0| O |0> for a dense operator (row 0 of the matrix)."""
    row = operator[0]
    if state is None:
        return list(row)
    return sum((row[k] * state[k] for k in range(len(state))), Rat(0))


def gl2_random_matrix(rng) -> list:
    return [[Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            for _ in range(2)]
