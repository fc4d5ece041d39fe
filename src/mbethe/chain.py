"""Brute-force spin-chain oracle: explicit monodromy matrices, twisted
operators, and Bethe-type states as exact dense linear algebra on the
2^N-dimensional chain space.

Basis convention: basis index b has bit k (0-based) equal to 0 when site k+1
is up; the vacuum (all up) is index 0. The monodromy is the ordered
auxiliary-space product with the highest site leftmost, so every oracle value
is reproducible bit for bit.

State-level work goes through an auxiliary-space sweep that applies a
monodromy entry to a vector in O(N * 2^N) integer operations, which is what
makes vector and scalar-product comparisons cheap at N = 5, 6. The sweep
clears the state to integers over one denominator, reads each site's offset
(u - theta)/c as an integer pair, updates each pair of basis states that
differ at one site in place, and builds one rational per entry at the end. A
twisted entry nu_ij is one sweep started from the auxiliary vector B0 e_j and
read out along the row mu * e_i^T A0.

Dense operators are built only where an operator-level identity is checked
(small N). `monodromy_ints` runs the same sweep once over every basis column
and returns the four blocks as integer matrices over one denominator, so the
operator checks multiply integers; `build_monodromy` reads its rationals from
it.

Materializing a multiple action needs one creation product per surviving
subset. `entry_product_states` builds them in one call, where each subset's
state is one sweep on the state of the subset without its lowest element, so
subsets that share a tail share its sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .linalg import clear_denominators, clear_matrix, rat_matrix, zeros
from .scalars import ZERO, ModelParams, Rat, SpectralSet, diff_pair, h_pair

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
    if Rat(c) == 0:
        raise DomainError(f"r_matrix needs a nonzero c, got c = {c}")
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

UNIT_ROWS = ((1, 0), (0, 1))
_KINDS = tuple(f"{family}{i}{j}" for family in ("t", "nu")
              for i in (1, 2) for j in (1, 2))


def _entry(kind: str) -> tuple[str, int, int]:
    """(family, i, j) of a monodromy entry name such as 't12' or 'nu21'."""
    if kind not in _KINDS:
        raise DomainError(f"unknown monodromy entry {kind!r}; "
                          f"expected one of {', '.join(_KINDS)}")
    return kind[:-2], int(kind[-2]), int(kind[-1])


def _check_state(spec: ChainSpec, kind: str, psi) -> None:
    if len(psi) != spec.dim:
        raise DomainError(f"{kind} got a state of length {len(psi)}, expected "
                          f"{spec.dim} for a {spec.sites}-site chain")


def _offsets(spec: ChainSpec, u) -> list:
    """The site offsets (u - theta_k)/c = p/q of a spectral point, one
    unreduced integer pair (p, q) with q > 0 per site."""
    cn, cd = spec.c.numerator, spec.c.denominator
    if cn < 0:
        cn, cd = -cn, -cd
    return [(dn * cd, dd * cn)
            for dn, dd in (diff_pair(u, th) for th in spec.theta)]


def _sweep(offsets, w1, w2) -> int:
    """Apply the site factors of T(u), lowest site first, in place to the
    integer auxiliary components w1, w2, and return the denominator the
    sweep adds, the product of the q.

    The site factor at offset x = p/q contributes x * id + permutation,
    which in auxiliary components reads W1' = x W1 + E11 W1 + E21 W2 and
    W2' = x W2 + E12 W1 + E22 W2; multiplied through by q,
    W1' = p W1 + q (E11 W1 + E21 W2), and the same for W2. The components
    may hold several chain vectors back to back, each of the chain's
    dimension: a site pairs basis states within each vector.
    """
    size = len(w1)
    den = 1
    for site, (p, q) in enumerate(offsets):
        pq = p + q
        bit = 1 << site
        # lo has this site's spin up and hi = lo | bit has it down: E11 and
        # E22 keep the spin, E21 lowers it and E12 raises it
        for base in range(0, size, bit << 1):
            for lo in range(base, base + bit):
                hi = lo | bit
                x1, x2, y1, y2 = w1[lo], w2[lo], w1[hi], w2[hi]
                w1[lo] = pq * x1
                w1[hi] = p * y1 + q * x2
                w2[lo] = p * x2 + q * y1
                w2[hi] = pq * y2
        den *= q
    return den


def monodromy_columns(spec: ChainSpec, u, psi, aux, rows) -> list:
    """Auxiliary components of T(u) applied to aux (x) psi, one per row.

    The sweep starts from the auxiliary vector aux = (a1, a2), so it yields
    W_i = sum_j T_ij(u) a_j psi, and each row (r1, r2) gives the chain vector
    r1 W1 + r2 W2. With aux the j-th unit vector and rows UNIT_ROWS this is
    (T_1j psi, T_2j psi). W1 and W2 are kept as integers over one
    denominator, and one rational is built per returned entry, at the end.
    """
    (start, (a1, a2)), (den, aux_den) = clear_denominators([psi, aux])
    w1 = [a1 * x for x in start]
    w2 = [a2 * x for x in start]
    den *= aux_den * _sweep(_offsets(spec, u), w1, w2)
    out = []
    for (r1, r2), row_den in zip(*clear_denominators(rows)):
        total = den * row_den
        sums = [r1 * x + r2 * y for x, y in zip(w1, w2)]
        out.append([Rat(s, total) if s else ZERO for s in sums])
    return out


def monodromy_ints(spec: ChainSpec, u, params: ModelParams | None = None):
    """The 2x2 blocks of T(u), or with twist params those of
    mu * A0 T(u) B0, as dim x dim integer matrices over one denominator:
    returns (blocks, den), the block (i+1, j+1) being blocks[i][j] / den.

    One sweep builds every column: the components hold, for each auxiliary
    column j and chain basis vector b, the vector aux_j (x) e_b, cleared
    over the lcm of the auxiliary columns' denominators. The rows are read
    out over the lcm of theirs, so den is the sweep's product of q times
    both lcms.
    """
    aux, rows = UNIT_ROWS, UNIT_ROWS
    if params is not None:
        aux, rows = _twisted_frame(params)
    aux, aux_den = clear_matrix(aux)
    rows, row_den = clear_matrix(rows)
    dim = spec.dim
    size = 2 * dim * dim
    w1, w2 = [0] * size, [0] * size
    for j, (a1, a2) in enumerate(aux):
        for b in range(dim):
            at = (j * dim + b) * dim + b
            w1[at], w2[at] = a1, a2
    den = _sweep(_offsets(spec, u), w1, w2) * aux_den * row_den
    blocks = []
    for r1, r2 in rows:
        # column b of block (i, j) is the vector at (j * dim + b) * dim, so
        # its row r is every dim-th entry from j * dim * dim + r
        out = [r1 * x + r2 * y for x, y in zip(w1, w2)]
        blocks.append([[out[j + r:j + dim * dim:dim] for r in range(dim)]
                       for j in (0, dim * dim)])
    return blocks, den


def _twisted_frame(params: ModelParams) -> tuple:
    """(columns of B0, rows of mu * A0): the auxiliary vectors and rows of
    the twisted entries."""
    pair = twist_pair(params)
    return (tuple(zip(*pair.b0)),
            tuple(tuple(pair.mu * a for a in row) for row in pair.a0))


def _frame(spec: ChainSpec, params, kind: str, psi) -> tuple:
    """The auxiliary vector and the read-out row of the entry `kind`, once
    the name, the twist and the state length are checked."""
    family, i, j = _entry(kind)
    if family == "nu":
        if params is None:
            raise DomainError(f"{kind} requires twist parameters")
        aux, rows = _twisted_frame(params)
    else:
        aux, rows = UNIT_ROWS, UNIT_ROWS
    _check_state(spec, kind, psi)
    return aux[j - 1], (rows[i - 1],)


def apply_t(spec: ChainSpec, i: int, j: int, u, psi) -> list:
    """t_ij(u) applied to a state, matrix-free."""
    aux, row = _frame(spec, None, f"t{i}{j}", psi)
    return monodromy_columns(spec, u, psi, aux, row)[0]


def apply_nu(spec: ChainSpec, params: ModelParams, i: int, j: int, u, psi) -> list:
    """Twisted entry nu_ij(u) = mu * (A0 T(u) B0)_ij applied to a state.

    T(u) is linear in the auxiliary vector, so one sweep from B0 e_j, read
    out along the row mu * e_i^T A0, gives the entry.
    """
    aux, row = _frame(spec, params, f"nu{i}{j}", psi)
    return monodromy_columns(spec, u, psi, aux, row)[0]


def build_monodromy(spec: ChainSpec, u, params: ModelParams | None = None):
    """Dense 2x2 block decomposition [[t11, t12], [t21, t22]] of T(u); with
    twist params, of mu * A0 T(u) B0, that is [[nu11, nu12], [nu21, nu22]]."""
    blocks, den = monodromy_ints(spec, u, params)
    return [[rat_matrix(block, den) for block in pair] for pair in blocks]


def vacuum_weights(spec: ChainSpec, u) -> tuple[Rat, Rat]:
    """Vacuum eigenvalues of the diagonal entries, in closed form: lam1 is
    the product of h(u, theta_k) and lam2 that of (u - theta_k) / c. Each
    product is kept as an unreduced integer pair and reduced once."""
    u = Rat(u)
    cn, cd = spec.c.numerator, spec.c.denominator
    n1 = d1 = n2 = d2 = 1
    for th in spec.theta:
        dn, dd = diff_pair(u, th)
        hn, hd = h_pair(dn, dd, cn, cd)
        n1, d1 = n1 * hn, d1 * hd
        n2, d2 = n2 * dn * cd, d2 * dd * cn
    return Rat(n1, d1), Rat(n2, d2)


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
    return build_monodromy(spec, u, params)[i - 1][j - 1]


# ---------------------------------------------------------------------------
# States and scalar products
# ---------------------------------------------------------------------------

def apply_entry_product(spec: ChainSpec, params: ModelParams | None, kind: str,
                        args: SpectralSet, psi) -> list:
    """Apply the product of one monodromy entry over a parameter set; the
    entry's frame is derived once, and each factor is one sweep."""
    aux, row = _frame(spec, params, kind, psi)
    out = psi
    for w in reversed(args.values):
        out = monodromy_columns(spec, w, out, aux, row)[0]
    return out


def entry_product_states(spec: ChainSpec, params: ModelParams | None,
                         kind: str, values, masks) -> dict:
    """{mask: the product of `kind` over the values the mask selects,
    applied to the vacuum}, for each mask of `masks`.

    The product runs its factors from the highest bit down, as
    `apply_entry_product` does on `mask_values(values, mask)`. So a mask's
    state is one sweep of its lowest bit's value on the state of the rest
    of the mask, and masks that share a tail share its sweeps. The frame is
    checked once per call, and the states live only for the call.
    """
    vacuum = vacuum_state(spec)
    aux, row = _frame(spec, params, kind, vacuum)
    states = {0: vacuum}

    def state(mask):
        if mask not in states:
            low = mask & -mask
            states[mask] = monodromy_columns(
                spec, values[low.bit_length() - 1], state(mask ^ low), aux,
                row)[0]
        return states[mask]

    return {mask: state(mask) for mask in masks}


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


def gl2_random_matrix(rng) -> list:
    return [[Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            for _ in range(2)]
