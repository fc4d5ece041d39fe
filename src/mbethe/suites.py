"""Registered identity suites for the batch verifier.

Each suite covers one cluster of laws: determinant laws, exchange-algebra
structure, plain-family multiple actions, twisted-family multiple actions,
scalar products, the diagonal-transposition symmetry, and the closed
proof-step sums. Every check draws its parameters from a seed derived from
(master seed, suite, identity, trial), so a run is reproducible record by
record.

A check is a module-level function `check(ctx, rng)` of a `Context` and a
`random.Random` seeded with the check's seed, returning (params_digest, lhs,
rhs, ok). `CHECKS` declares every check once: per suite, ordered groups of
(trial-count size key, rows), each row (identity, record sizes, check). A
group runs trial by trial, so a one-row group runs its identity's trials
back to back. `run_check` runs any one check by name; `run_suite` runs a
suite's checks in declared order through it.

Most checks are a law on one of two runners. `_grid` takes a law's draw
shapes, a function from the suite sizes to count lists, and its z salts:
at each count list it draws one generic set per count and one deformation
per salt, and the law yields the (lhs, rhs) pairs it compares there.
`_chain_grid` draws, at each count list, a chain, its twist, its weight
oracle and the sets from one sub-seed (`_on_chain`), and the law gives the
formula and the chain oracle's value. Every partition sum written here is a
`split_sum` term: the shifted-unit convolution, the binomial sums and the
two proof-step extraction sums over (p-1, 1) splits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import product
from typing import NamedTuple

from .actions import (ActionRequest, WeightOracle, eval_action, eval_request,
                      eval_scalar, eval_vacuum_average, phi_transform)
from .chain import (MAX_SITES, ChainSpec, apply_entry_product, apply_nu,
                    direct_scalar, embed_two, gl2_random_matrix,
                    monodromy_ints, r_matrix, vacuum_state, vacuum_weights)
from .errors import ConfigError, PoleError
from .izergin import (DetTables, FTable, conj_mod_izergin, geometric,
                      izergin_convolution, izergin_deformation_sum,
                      izergin_partition_sum, izergin_reader, mod_izergin,
                      ordinary_izergin, residue_check, term_pair)
from .linalg import (clear_denominators, clear_matrix, identity, int_mat_mul,
                     kron, mat_add, mat_eq, mat_mul, rat_matrix)
from .partitions import MAX_JOBS, enumerate_splits, mask_values, split_sum
from .report import CheckRecord, Recorder, digest
from .scalars import (Rat, SpectralSet, TwistData, _generic_pairs, _parts,
                      _shift_pairs, diff_pair, h_pair, kernel_f, kernel_g,
                      kernel_product, rat_str, sample_nonzero, sample_twist,
                      set_product)

DEFAULT_SIZES = {
    "izergin-laws": {
        "max_n": 5, "max_m": 5, "samples": 20,
        "equiv_max": 6, "equiv_samples": 50,
        "residue_max": 3, "residue_samples": 3,
        "conv_max": 2, "conv_len": 4,
    },
    "yangian-structure": {
        "sites": 3, "samples": 20, "struct_samples": 5, "mcr_max": 2,
        "mcr_samples": 3,
    },
    "aba-actions": {
        "sites": 5, "max_n": 2, "max_m": 3, "draws": 10, "scalar_max": 3,
    },
    "maba-actions": {
        "sites": 5, "max_n": 2, "max_m": 3, "draws": 10,
    },
    "scalar-products": {
        "sites": 5, "total_max": 5, "draws": 10, "avg_max": 4, "red_max": 3,
    },
    "phi-symmetry": {"max_n": 2, "max_m": 2, "draws": 5},
    "proof-steps": {"max_size": 8, "samples": 20},
}


def config_number(parse, value, name: str):
    """`value` from a flag or a config file, read by `parse` (int or Rat);
    a ConfigError naming it when it is not such a number. JSON booleans are
    not numbers here, and a float is one only when the parse gives the
    rational its shortest repr denotes: 0.5 reads as 1/2, but 0.1, whose
    binary value is not 1/10, and 2.5 for an integer are rejected."""
    try:
        number = parse(value)
        if isinstance(value, float) and number != Rat(repr(value)):
            number = None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        kind = "an integer" if parse is int else "a rational p/q"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return number


@dataclass
class RunConfig:
    """Batch-run configuration; `sizes` holds per-suite overrides."""

    suites: tuple = tuple(DEFAULT_SIZES)
    seed: int = 0
    c: Rat = Rat(1)
    bound: int = 30
    sizes: dict = field(default_factory=dict)
    jobs: int = 1
    report_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.suites, (list, tuple)):
            raise ConfigError(f"suites must be a list, got {self.suites!r}")
        self.suites = tuple(self.suites)
        self.seed = config_number(int, self.seed, "seed")
        self.c = config_number(Rat, self.c, "c")
        self.bound = config_number(int, self.bound, "bound")
        self.jobs = config_number(int, self.jobs, "jobs")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}; "
                              f"registered: {sorted(SUITES)}")
        if self.c == 0:
            raise ConfigError("c must be nonzero")
        if self.bound < 1:
            raise ConfigError("bound must be >= 1")
        if not 1 <= self.jobs <= MAX_JOBS:
            raise ConfigError(
                f"jobs must lie in 1..{MAX_JOBS}, got {self.jobs}")
        if not isinstance(self.report_path, (str, type(None))):
            raise ConfigError(
                f"report_path must be a path, got {self.report_path!r}")
        if not isinstance(self.sizes, dict):
            raise ConfigError("sizes must map suite names to size overrides")
        for suite, overrides in self.sizes.items():
            if suite not in DEFAULT_SIZES:
                raise ConfigError(f"size overrides for unknown suite {suite!r}")
            if not isinstance(overrides, dict):
                raise ConfigError(f"size overrides for {suite} must be an object")
            bad = set(overrides) - set(DEFAULT_SIZES[suite])
            if bad:
                raise ConfigError(f"unknown size keys for {suite}: {sorted(bad)}")
            values = {key: config_number(int, v, f"sizes.{suite}.{key}")
                      for key, v in overrides.items()}
            if any(v < 1 for v in values.values()):
                raise ConfigError("size overrides must be positive")
            if values.get("sites", 1) > MAX_SITES:
                raise ConfigError(f"sizes.{suite}.sites must be at most "
                                  f"{MAX_SITES}, got {values['sites']}")

    def suite_sizes(self, suite: str) -> dict:
        merged = dict(DEFAULT_SIZES[suite])
        merged.update({k: int(v) for k, v in self.sizes.get(suite, {}).items()})
        return merged

    def to_json(self) -> dict:
        return {
            "suites": list(self.suites),
            "seed": self.seed,
            "c": rat_str(self.c),
            "bound": self.bound,
            "sizes": self.sizes,
            "parallelism": self.jobs,
            "report_path": self.report_path,
        }


class Context(NamedTuple):
    """What a check reads besides its random draws: the run's kernel
    constant, sampling bound and worker count, its suite's merged sizes,
    and its trial and derived seed."""

    c: Rat
    bound: int
    jobs: int
    sizes: dict
    trial: int
    seed: int


# ---------------------------------------------------------------------------
# Shared sampling helpers
# ---------------------------------------------------------------------------

def _spectra(ctx, seed, counts, labels, chain=None):
    """Jointly generic sets drawn one after another, each apart (with +-c
    shifts) from the sets before it and from the sites of `chain`: the sets
    `sample_generic` draws from `with_shifts` contexts, with the context
    kept as integer pairs throughout."""
    out = []
    context = [] if chain is None else _shift_pairs(
        [(x.numerator, x.denominator) for x in chain.theta], ctx.c)
    rng = random.Random(seed)
    for count, label in zip(counts, labels):
        picked = _generic_pairs(count, context, rng.getrandbits(48), ctx.bound,
                                ctx.c)
        out.append(SpectralSet(tuple(Rat(p, q) for p, q in picked), label))
        context += _shift_pairs(picked, ctx.c)
    return out


def _chain(ctx, seed, sites) -> ChainSpec:
    theta, = _spectra(ctx, seed, [sites], ["theta"])
    return ChainSpec(sites, theta, ctx.c)


def _cycle_sites(max_sites: int, idx: int) -> int:
    return max_sites - (idx % max_sites)


def _on_chain(ctx, seed, sites, counts, salt):
    """A chain of `sites` sites, its twist (drawn at seed ^ salt; None
    without a salt), its fundamental weight oracle, and sets of the given
    counts apart from its sites: all drawn from one sub-seed."""
    spec = _chain(ctx, seed, sites)
    params = None if salt is None else sample_twist(seed ^ salt, ctx.c)
    sets = _spectra(ctx, seed ^ 0xACE, counts, "uv", chain=spec)
    return spec, params, WeightOracle.fundamental(spec), *sets


def _chain_grid(ctx, rng, law, shapes, salt=0x7157):
    """One trial of a law against the chain oracle, on a chain whose length
    cycles with the trial: for each count list of `shapes(sizes)`, one draw
    of `_on_chain` from its own sub-seed, and the (lhs, rhs) pair that the
    law gives there."""
    sites = _cycle_sites(ctx.sizes["sites"], ctx.trial)
    lhs, rhs = zip(*(
        law(ctx, *_on_chain(ctx, rng.getrandbits(48), sites, counts, salt))
        for counts in shapes(ctx.sizes)))
    return digest(ctx.seed, sites), lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Suite: izergin-laws
# ---------------------------------------------------------------------------

def _equivalence(ctx, rng):
    c, top = ctx.c, ctx.sizes["equiv_max"]
    lhs, rhs, params = [], [], []
    for n in range(1, top + 1):
        for m in range(1, top + 1):
            us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"])
            params.append((us, vs))
            # one assembly per orientation and variant, read at every z
            readers = [(izergin_reader(us, vs, c, "v-side", conj),
                        izergin_reader(us, vs, c, "u-side", conj))
                       for conj in (False, True)]
            for z in (sample_nonzero(rng.getrandbits(48), 9, exclude=(1,)),
                      Rat(0), Rat(2)):
                for v_side, u_side in readers:
                    lhs.append(v_side(z))
                    rhs.append(u_side(z))
    return digest(params), lhs, rhs, lhs == rhs


def _upto(*keys, low=0):
    """The draw shapes of every count list from `low` up to the sizes named
    by `keys`, the last key varying fastest."""
    return lambda sz: product(*(range(low, sz[key] + 1) for key in keys))


def _grid(ctx, rng, law, shapes=_upto("max_n", "max_m"), salts=(0,),
          exclude=(), point=False):
    """Check a law at every draw shape: for each count list of
    `shapes(sizes)`, draw one set per count, then one z per salt (xored into
    its seed) avoiding `exclude`; with `point`, the last set is its one
    value. The law yields the (lhs, rhs) pairs it compares there."""
    lhs, rhs, params = [], [], []
    for counts in shapes(ctx.sizes):
        sets = _spectra(ctx, rng.getrandbits(48), counts, "uvwx")
        if point:
            sets[-1] = sets[-1][0]
        zs = [sample_nonzero(rng.getrandbits(48) ^ salt, 9, exclude=exclude)
              for salt in salts]
        params.append((*sets, *zs))
        for left, right in law(ctx.c, *sets, *zs):
            lhs.append(left)
            rhs.append(right)
    return digest(params), lhs, rhs, lhs == rhs


def _conj_is_negated_c(c, us, vs, z):
    yield conj_mod_izergin(z, us, vs, c), mod_izergin(z, us, vs, -c)


def _shift_transfer(c, us, vs, z):
    for fn in (mod_izergin, conj_mod_izergin):
        yield fn(z, us.shifted(-c), vs, c), fn(z, us, vs.shifted(c), c)


def _negation(c, us, vs, z):
    yield (mod_izergin(z, us.negated(), vs.negated(), c),
           conj_mod_izergin(z, us, vs, c))


def _pair_reduction(c, us, vs, w, z):
    for fn, shift in ((mod_izergin, -c), (conj_mod_izergin, c)):
        yield (fn(z, SpectralSet(us.values + (w + shift,)),
                  SpectralSet(vs.values + (w,)), c),
               -z * fn(z, us, vs, c))


def _transposition(c, us, vs, z):
    yield (conj_mod_izergin(z, us, vs, c),
           (1 - z) ** (len(vs) - len(us)) * mod_izergin(z, vs, us, c))


def _inversion(c, us, vs, z):
    scale = (-z) ** len(us) * (1 - z) ** (len(vs) - len(us))
    yield (mod_izergin(z, us, vs.shifted(c), c),
           scale / set_product("f", vs, us, c) * mod_izergin(1 / z, vs, us, c))
    yield (conj_mod_izergin(z, us, vs.shifted(-c), c),
           scale / set_product("f", us, vs, c)
           * conj_mod_izergin(1 / z, vs, us, c))


def _partition_expansion(c, us, vs, z):
    for fn, conj in ((mod_izergin, False), (conj_mod_izergin, True)):
        want = fn(z, us, vs, c)
        for side in ("v-partitions", "u-partitions"):
            yield (izergin_partition_sum(z, us, vs, c, side=side,
                                         conjugated=conj), want)


def _residue(c, us, vs, z):
    for conj in (False, True):
        yield residue_check(z, us, vs, c, conjugated=conj)


def _empty_set_values(ctx, rng):
    c = ctx.c
    z = sample_nonzero(rng.getrandbits(48), 9)
    lhs, rhs = [], []
    for n in range(0, ctx.sizes["max_n"] + 1):
        us, = _spectra(ctx, rng.getrandbits(48), [n], ["u"])
        empty = SpectralSet((), "v")
        lhs += [mod_izergin(z, us, empty, c), conj_mod_izergin(z, us, empty, c),
                mod_izergin(z, empty, us, c), conj_mod_izergin(z, empty, us, c)]
        rhs += [Rat(1), Rat(1), (1 - z) ** n, (1 - z) ** n]
    return digest(z), lhs, rhs, lhs == rhs


def _single_row_forms(c, us, vs, single_u, ws, z):
    k, u1 = len(us), single_u[0]
    yield (mod_izergin(z, single_u, ws, c),
           (1 - z) ** (k - 1) * (set_product("f", u1, ws, c) - z))
    yield mod_izergin(z, us, vs, c), set_product("f", us, vs[0], c) - z
    yield (conj_mod_izergin(z, single_u, ws, c),
           (1 - z) ** (k - 1) * (set_product("f", ws, u1, c) - z))
    yield conj_mod_izergin(z, us, vs, c), set_product("f", vs[0], us, c) - z


def _unit_vanishing(ctx, rng):
    c, lhs = ctx.c, []
    for n in range(1, ctx.sizes["max_n"] + 1):
        for m in range(n + 1, ctx.sizes["max_m"] + 2):
            us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"])
            lhs += [mod_izergin(1, us, vs, c), conj_mod_izergin(1, us, vs, c)]
    rhs = [Rat(0)] * len(lhs)
    return digest(len(lhs)), lhs, rhs, lhs == rhs


def _ordinary_limit(c, us, vs):
    yield ordinary_izergin(us, vs, c), mod_izergin(1, us, vs, c)
    yield (ordinary_izergin(us, vs, c, conjugated=True),
           conj_mod_izergin(1, us, vs, c))


def _convolution(c, us, vs, xs, z1, z2):
    for fn, conj in ((mod_izergin, False), (conj_mod_izergin, True)):
        yield (izergin_convolution(z1, z2, us, vs, xs, c, conjugated=conj),
               fn(z1 * z2, us.union(vs), xs, c))


def _shifted_unit_convolution(c, us, vs, xs):
    for fn, conj, shift in ((mod_izergin, False, c), (conj_mod_izergin, True, -c)):
        yield (shifted_unit_sum(us, vs, xs, c, conjugated=conj),
               fn(1, us.union(vs), xs.shifted(shift), c))


def _deformation_sum(c, us, vs, z1, z2):
    for fn, conj in ((mod_izergin, False), (conj_mod_izergin, True)):
        yield (izergin_deformation_sum(z1, z2, us, vs, c, conjugated=conj),
               fn(z2 - z1, us, vs, c))


def shifted_unit_sum(us, vs, xs, c, conjugated: bool = False) -> Rat:
    """Sum over splits of xs of K^(1)(us | x1 + c) K^(1)(vs | x2 + c)
    f(x2, x1) / f(x2, us); conjugated, of K-bar^(1)(us | x1 - c)
    K-bar^(1)(vs | x2 - c) f(x1, x2) / f(us, x2). Either equals the same
    determinant on the merged set {us, vs}. The determinants and f weights
    come from one half of DetTables each, in the orientation of
    `conjugated`: 1 / f(x2, us) is the row factor f(us, x2 + c), and
    1 / f(us, x2) the conjugated row factor f(x2 - c, us)."""
    left = DetTables(us.values, xs.values, c).side(conjugated)
    right = DetTables(vs.values, xs.values, c).side(conjugated)

    def term(m1, m2):
        return term_pair(left.k_pair(1, m1), right.k_pair(1, m2),
                         left.pair(m2, m1), left.factors.row(0, m2))

    return split_sum(len(xs), 2, term)


def _binomial_sums(ctx, rng, top):
    """Constrained sums of f weights count subsets; alternating sums vanish.
    The ground sets run up to `top(sizes)` points. The f weights of each
    ground set come from one kernel table."""
    from math import comb
    lhs, rhs, params = [], [], []
    for p in range(1, top(ctx.sizes) + 1):
        xs, = _spectra(ctx, rng.getrandbits(48), [p], ["x"])
        params.append(xs)
        table = FTable(ctx.c, xs.values)
        sign = geometric((1, 1), (-1, 1), p)

        def f21(m1, m2):
            return table.pair(m2, m1)

        def f12(m1, m2):
            return f21(m2, m1)

        def alternating(m1, m2):
            return term_pair(sign[m2.bit_count()], table.pair(m2, m1))

        for k in range(p + 1):
            lhs += [split_sum(p, 2, f21, (k, p - k)),
                    split_sum(p, 2, f12, (k, p - k))]
            rhs += [Rat(comb(p, k))] * 2
        lhs.append(split_sum(p, 2, alternating))
        rhs.append(Rat(0))
    return digest(params), lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Suite: yangian-structure
# ---------------------------------------------------------------------------

def _yang_baxter(ctx, rng):
    c = ctx.c
    pts, = _spectra(ctx, ctx.seed, [3], ["uvw"])
    u, v, w = pts.values
    r12 = embed_two(r_matrix(u - v, c), [2, 2, 2], 0, 1)
    r13 = embed_two(r_matrix(u - w, c), [2, 2, 2], 0, 2)
    r23 = embed_two(r_matrix(v - w, c), [2, 2, 2], 1, 2)
    lhs = mat_mul(mat_mul(r12, r13), r23)
    rhs = mat_mul(mat_mul(r23, r13), r12)
    return digest(pts), lhs, rhs, mat_eq(lhs, rhs)


def _gl2_invariance(ctx, rng, summed):
    """R(u) commutes with K (x) K for a random K in GL(2), and, `summed`,
    with K (x) 1 + 1 (x) K."""
    u, = _spectra(ctx, rng.getrandbits(48), [1], ["u"])
    K = gl2_random_matrix(rng)
    R = r_matrix(u[0], ctx.c)
    S = (mat_add(kron(K, identity(2)), kron(identity(2), K)) if summed
         else kron(K, K))
    lhs = mat_mul(R, S)
    rhs = mat_mul(S, R)
    return digest(u, K), lhs, rhs, mat_eq(lhs, rhs)


def _rtt(ctx, rng):
    """R(u - v) T_a(u) T_b(v) = T_b(v) T_a(u) R(u - v), on integer matrices:
    both sides carry the denominators of R and of the two monodromies, and
    are reported as rationals."""
    lhs_all, rhs_all, ok = [], [], True
    for sites in range(1, ctx.sizes["sites"] + 1):
        spec = _chain(ctx, rng.getrandbits(48), sites)
        uv, = _spectra(ctx, rng.getrandbits(48) ^ 1, [2], ["uv"], chain=spec)
        u, v = uv.values
        (t_u, du), (t_v, dv) = monodromy_ints(spec, u), monodromy_ints(spec, v)
        dim = spec.dim
        ta = _aux_embed(t_u, dim, "a")
        tb = _aux_embed(t_v, dim, "b")
        r, dr = clear_matrix(r_matrix(u - v, ctx.c))
        # R (x) 1 on the chain
        rab = [[x if p == q else 0 for x in row for q in range(dim)]
               for row in r for p in range(dim)]
        lhs = int_mat_mul(rab, int_mat_mul(ta, tb))
        rhs = int_mat_mul(int_mat_mul(tb, ta), rab)
        ok = ok and lhs == rhs
        lhs_all.append(rat_matrix(lhs, dr * du * dv))
        rhs_all.append(rat_matrix(rhs, dr * du * dv))
    return digest(ctx.seed), lhs_all, rhs_all, ok


def _vanishes(terms) -> bool:
    """Whether the sum of r * P over the (r, P) of `terms` is 0, for
    rationals r and integer matrices P over one shared denominator.

    The r are brought to the lcm of their denominators once, so a relation
    L = g R with g = gn/gd is checked as gd L - gn R = 0 on integers.
    """
    (ks,), _ = clear_denominators([[r for r, _ in terms]])
    return not any(sum(k * x for k, x in zip(ks, xs))
                   for rows in zip(*(p for _, p in terms)) for xs in zip(*rows))


def _monodromy_pairs(ctx, rng):
    """For the plain family "t", then the twisted family "nu": a chain, a
    twist and two generic points u, v, drawn in that order; yields the
    family, u, v and the integer monodromy blocks of T(u), T(v) of that
    family. Each product of a u-block and a v-block carries the same
    denominator, so the relations never read it."""
    for family in ("t", "nu"):
        spec = _chain(ctx, rng.getrandbits(48), ctx.sizes["sites"])
        params = sample_twist(rng.getrandbits(48), ctx.c)
        uv, = _spectra(ctx, rng.getrandbits(48) ^ 1, [2], ["uv"], chain=spec)
        u, v = uv.values
        twist = params if family == "nu" else None
        yield family, u, v, *(monodromy_ints(spec, x, twist)[0] for x in (u, v))


def _exchange(ctx, rng):
    ok = True
    collected = []
    mm = int_mat_mul
    for family, u, v, mu_, mv_ in _monodromy_pairs(ctx, rng):
        g = kernel_g(u, v, ctx.c)
        for i, j, k, l in product(range(2), repeat=4):
            ok = ok and _vanishes([(1, mm(mu_[i][j], mv_[k][l])),
                                   (-1, mm(mv_[k][l], mu_[i][j])),
                                   (-g, mm(mv_[k][j], mu_[i][l])),
                                   (g, mm(mu_[k][j], mv_[i][l]))])
            collected.append((family, i, j, k, l))
    return digest(ctx.seed), collected, collected, ok


def _triangular(ctx, rng):
    ok = True
    c = ctx.c
    mm = int_mat_mul
    for _, u, v, A, B in _monodromy_pairs(ctx, rng):
        fvu, fuv = kernel_f(v, u, c), kernel_f(u, v, c)
        guv, gvu = kernel_g(u, v, c), kernel_g(v, u, c)
        # same-entry commutativity
        for i, j in product(range(2), repeat=2):
            ok = ok and _vanishes([(1, mm(A[i][j], B[i][j])),
                                   (-1, mm(B[i][j], A[i][j]))])
        # diagonal-by-creation exchange, both diagonal entries
        ok = ok and _vanishes([(1, mm(A[0][0], B[0][1])),
                               (-fvu, mm(B[0][1], A[0][0])),
                               (-guv, mm(A[0][1], B[0][0]))])
        ok = ok and _vanishes([(1, mm(A[1][1], B[0][1])),
                               (-fuv, mm(B[0][1], A[1][1])),
                               (-gvu, mm(A[0][1], B[1][1]))])
        # annihilation-by-creation commutator
        ok = ok and _vanishes([(1, mm(A[1][0], B[0][1])),
                               (-1, mm(B[0][1], A[1][0])),
                               (-guv, mm(B[0][0], A[1][1])),
                               (guv, mm(A[0][0], B[1][1]))])
    return digest(ctx.seed), "all-relations", "all-relations", ok


def _multiple_exchange(ctx, rng):
    """Both lines of the multiple exchange relation on integer monodromy
    blocks: every product on either side runs over u and v once each, so
    all carry the same denominator, and the Izergin-f coefficients are
    brought to their lcm once per relation."""
    c, sz = ctx.c, ctx.sizes
    ok = True
    for family in ("t", "nu"):
        spec = _chain(ctx, rng.getrandbits(48), sz["sites"])
        params = sample_twist(rng.getrandbits(48), c)
        twist = params if family == "nu" else None
        blocks = {}   # one integer monodromy per spectral point

        def prodop(i, j, vals):
            for x in vals:
                if x not in blocks:
                    blocks[x] = monodromy_ints(spec, x, twist)[0]
            return reduce(int_mat_mul, (blocks[x][i - 1][j - 1] for x in vals))

        for n in range(1, sz["mcr_max"] + 1):
            for m in range(1, sz["mcr_max"] + 1):
                us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"],
                                  chain=spec)
                wall = us.union(vs, "w")
                creation = prodop(1, 2, vs.values)
                line11 = [(1, int_mat_mul(prodop(1, 1, us.values), creation))]
                line22 = [(1, int_mat_mul(prodop(2, 2, us.values), creation))]
                sign = (-1) ** n
                for m1, m2 in enumerate_splits(n + m, 2, cards=(n, m)):
                    w1 = SpectralSet(mask_values(wall.values, m1))
                    w2 = mask_values(wall.values, m2)
                    k11 = (conj_mod_izergin(1, us, w1.shifted(-c), c)
                           * set_product("f", w2, w1, c))
                    k22 = (mod_izergin(1, us, w1.shifted(c), c)
                           * set_product("f", w1, w2, c))
                    op12 = prodop(1, 2, w2)
                    line11.append((-sign * k11,
                                   int_mat_mul(op12, prodop(1, 1, w1.values))))
                    line22.append((-sign * k22,
                                   int_mat_mul(op12, prodop(2, 2, w1.values))))
                ok = ok and _vanishes(line11) and _vanishes(line22)
    return digest(ctx.seed), "both-lines", "both-lines", ok


def _aux_embed(blocks, dim: int, which: str):
    """The integer monodromy blocks placed on C^2 (x) C^2 (x) chain, acting
    on the first auxiliary space ("a") or the second ("b")."""
    out = [[0] * (4 * dim) for _ in range(4 * dim)]
    for i, j, s in product(range(2), repeat=3):
        row, col = (2 * i + s, 2 * j + s) if which == "a" else (2 * s + i, 2 * s + j)
        for r, vals in enumerate(blocks[i][j]):
            out[row * dim + r][col * dim:(col + 1) * dim] = vals
    return out


# ---------------------------------------------------------------------------
# Suites: aba-actions and maba-actions
# ---------------------------------------------------------------------------

def _action_vs_oracle(ctx, spec, params, oracle, us, vs, kind: str):
    """Materialized formula state vs direct operator application."""
    result = eval_action(kind, us, vs, oracle, params, ctx.c)
    formula_state = result.materialize(spec, params)
    family = "t12" if kind.startswith("t") else "nu12"
    direct = apply_entry_product(spec, params, family, vs, vacuum_state(spec))
    return formula_state, apply_entry_product(spec, params, kind, us, direct)


def _action_grid(ctx, rng, kind: str):
    """One trial of an action: every (n, m) up to the maxima vs the oracle;
    only the twisted family draws a twist."""
    return _chain_grid(ctx, rng, partial(_action_vs_oracle, kind=kind),
                       _upto("max_n", "max_m"),
                       0x5EED if kind.startswith("nu") else None)


def _creation_merge(ctx, rng):
    spec = _chain(ctx, rng.getrandbits(48), ctx.sizes["sites"])
    us, vs = _spectra(ctx, rng.getrandbits(48) ^ 1, [2, 2], ["u", "v"], chain=spec)
    vac = vacuum_state(spec)
    merged = apply_entry_product(spec, None, "t12", us.union(vs), vac)
    stepwise = apply_entry_product(spec, None, "t12", vs, vac)
    stepwise = apply_entry_product(spec, None, "t12", us, stepwise)
    shuffled = list(us.union(vs).values)
    rng.shuffle(shuffled)
    permuted = apply_entry_product(spec, None, "t12",
                                   SpectralSet(tuple(shuffled)), vac)
    ok = merged == stepwise and merged == permuted
    return digest(spec.theta, us, vs), merged, stepwise, ok


def _plain_scalar(ctx, rng):
    c, sz = ctx.c, ctx.sizes
    lhs, rhs = [], []
    for n in range(0, sz["scalar_max"] + 1):
        sites = _cycle_sites(sz["sites"], n)
        spec = _chain(ctx, rng.getrandbits(48), sites)
        oracle = WeightOracle.fundamental(spec)
        us, vs = _spectra(ctx, rng.getrandbits(48) ^ 2, [n, n], ["u", "v"],
                          chain=spec)
        want = direct_scalar(spec, None, "t21", us, "t12", vs)
        lhs += [eval_scalar("SCe", us, vs, oracle, None, c),
                eval_scalar("SCbe", us, vs, oracle, None, c)]
        rhs += [want, want]
    return digest(ctx.seed), lhs, rhs, lhs == rhs


def _scalar_forms_random_weights(ctx, rng):
    oracle = WeightOracle.random_seeded(rng.getrandbits(32))
    lhs, rhs = [], []
    for n in range(0, ctx.sizes["scalar_max"] + 1):
        us, vs = _spectra(ctx, rng.getrandbits(48), [n, n], ["u", "v"])
        lhs.append(eval_scalar("SCe", us, vs, oracle, None, ctx.c))
        rhs.append(eval_scalar("SCbe", us, vs, oracle, None, ctx.c))
    return digest(ctx.seed), lhs, rhs, lhs == rhs


def _single_actions(ctx, rng):
    spec = _chain(ctx, rng.getrandbits(48), ctx.sizes["sites"])
    params = sample_twist(rng.getrandbits(48), ctx.c)
    u, = _spectra(ctx, rng.getrandbits(48) ^ 1, [1], ["u"], chain=spec)
    point = u[0]
    vac = vacuum_state(spec)
    lam1, lam2 = vacuum_weights(spec, point)
    nu12 = apply_nu(spec, params, 1, 2, point, vac)
    b1, b2 = params.beta1, params.beta2
    checks = [
        (apply_nu(spec, params, 1, 1, point, vac),
         [lam1 * a + b2 * b for a, b in zip(vac, nu12)]),
        (apply_nu(spec, params, 2, 2, point, vac),
         [lam2 * a + b1 * b for a, b in zip(vac, nu12)]),
        (apply_nu(spec, params, 2, 1, point, vac),
         [(b1 * lam1 + b2 * lam2) * a + b1 * b2 * b
          for a, b in zip(vac, nu12)]),
    ]
    ok = all(got == want for got, want in checks)
    return (digest(spec.theta, point), [g for g, _ in checks],
            [w for _, w in checks], ok)


def _truncation(ctx, rng):
    """Terms whose consumed subset exceeds the action size vanish exactly."""
    n, m = ctx.sizes["max_n"], ctx.sizes["max_m"]
    us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"])
    tables = DetTables(us.values, us.values + vs.values, ctx.c)
    halves = [tables.side(conjugated) for conjugated in (True, False)]
    lhs = [Rat(*half.k_pair(1, mask1))
           for mask1, _ in enumerate_splits(n + m, 2) if mask1.bit_count() > n
           for half in halves]
    rhs = [Rat(0)] * len(lhs)
    return digest(us, vs), lhs, rhs, lhs == rhs


def _creation_reduction(ctx, rng):
    lhs, rhs = zip(*(
        _action_vs_oracle(ctx, *_on_chain(ctx, rng.getrandbits(48), sites,
                                          [n, m], 0x5EED), kind="nu12")
        for sites, n, m in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2))))
    return digest(ctx.seed), lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Suite: scalar-products
# ---------------------------------------------------------------------------

def _twisted_scalar(ctx, spec, params, oracle, us, vs):
    return (eval_scalar("SPfin", us, vs, oracle, params, ctx.c, jobs=ctx.jobs),
            direct_scalar(spec, params, "nu21", us, "nu12", vs))


def _independent_form(ctx, rng):
    c = ctx.c
    oracle = WeightOracle.random_seeded(rng.getrandbits(32))
    params = sample_twist(rng.getrandbits(48), c)
    lhs, rhs = [], []
    for total in range(0, ctx.sizes["total_max"] + 1):
        for n in range(0, total + 1):
            us, vs = _spectra(ctx, rng.getrandbits(48), [n, total - n], ["u", "v"])
            lhs.append(eval_scalar("SPfin", us, vs, oracle, params, c))
            rhs.append(eval_scalar("SPfinIK", us, vs, oracle, params, c))
    return digest(ctx.seed), lhs, rhs, lhs == rhs


def _vacuum_average(ctx, spec, params, oracle, ws):
    return (eval_vacuum_average(ws, oracle, params, ctx.c),
            direct_scalar(spec, params, "nu12", ws, "nu12", SpectralSet((), "v")))


def _unit_twist_reduction(ctx, rng):
    oracle = WeightOracle.random_seeded(rng.getrandbits(32))
    lhs, rhs = [], []
    for n in range(0, ctx.sizes["red_max"] + 1):
        us, vs = _spectra(ctx, rng.getrandbits(48), [n, n], ["u", "v"])
        beta1 = sample_nonzero(rng.getrandbits(48), 9)
        beta2 = sample_nonzero(rng.getrandbits(48) ^ 1, 9)
        twist = TwistData(beta1, beta2, Rat(1))
        lhs.append(eval_scalar("SPfin", us, vs, oracle, twist, ctx.c))
        rhs.append(eval_scalar("SCe", us, vs, oracle, None, ctx.c))
    return digest(ctx.seed), lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# Suite: phi-symmetry
# ---------------------------------------------------------------------------

def _phi_transposition(ctx, rng, kind: str):
    oracle = WeightOracle.random_seeded(rng.getrandbits(32))
    twist = (sample_twist(rng.getrandbits(48), ctx.c).twist()
             if kind.startswith("nu") else None)
    lhs, rhs, ok = [], [], True
    for n in range(0, ctx.sizes["max_n"] + 1):
        for m in range(0, ctx.sizes["max_m"] + 1):
            us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"])
            request = ActionRequest(kind, us, vs, oracle, twist, ctx.c)
            direct = eval_request(request)
            mirrored = eval_request(phi_transform(request))
            lhs.append(direct.coeff_table())
            rhs.append(mirrored.coeff_table())
            ok = ok and direct.coefficients == mirrored.coefficients
    return digest(ctx.seed), lhs, rhs, ok


def _involution(ctx, rng):
    oracle = WeightOracle.random_seeded(rng.getrandbits(32))
    twist = sample_twist(rng.getrandbits(48), ctx.c).twist()
    us, vs = _spectra(ctx, rng.getrandbits(48), [2, 2], ["u", "v"])
    request = ActionRequest("nu11", us, vs, oracle, twist, ctx.c)
    twice = phi_transform(phi_transform(request))
    probe = Rat(3, 7)
    ok = (twice.kind == request.kind
          and twice.u_set.values == request.u_set.values
          and twice.v_set.values == request.v_set.values
          and twice.twist == request.twist
          and twice.oracle.lambda1(probe) == request.oracle.lambda1(probe)
          and twice.oracle.lambda2(probe) == request.oracle.lambda2(probe))
    return digest(ctx.seed), "phi^2", "identity", ok


# ---------------------------------------------------------------------------
# Suite: proof-steps
# ---------------------------------------------------------------------------

def single_extraction_sum(u, wset: SpectralSet, c) -> Rat:
    """Sum over the (p-1, 1) splits (rest, {x}) of wset of
    f(rest, x) / h(u, x); equals 1 for u in wset. Raises PoleError where
    h(u, x) = 0 (u - x = -c). The f weights come from one kernel table, and
    1/h from a one-row table."""
    c = Rat(c)
    hs = []
    for x in wset.values:
        hn, hd = h_pair(*diff_pair(u, x), c.numerator, c.denominator)
        if not hn:
            raise PoleError("1/h", u, x)
        hs.append((hn, hd))
    within = FTable(c, wset.values)
    inv_h = FTable.of_ints([[hd for _, hd in hs]], [[hn for hn, _ in hs]])

    def term(rest, single):
        return term_pair(within.pair(rest, single), inv_h.row(0, single))

    return split_sum(len(wset), 2, term, (len(wset) - 1, 1))


def pole_extraction_sum(wset: SpectralSet, pivot, c) -> Rat:
    """Sum over the (p-1, 1) splits (rest, {x}) of wset of
    g(rest, x) / g(rest, pivot); equals 1 for pivot in wset.

    1/g(y, pivot) is read from a one-row table of the polynomial
    (y - pivot)/c, so splits that keep the pivot in the rest contribute
    exactly 0 instead of tripping a pole.
    """
    c = Rat(c)
    cn, cd = c.numerator, c.denominator
    values = _parts(wset.values)
    steps = [diff_pair(y, pivot) for y in wset.values]
    inv_g = FTable.of_ints([[dn * cd for dn, _ in steps]],
                           [[dd * cn for _, dd in steps]])

    def term(rest, single):
        x, = mask_values(values, single)
        g = kernel_product("g", ((y, x) for y in mask_values(values, rest)),
                           cn, cd)
        return term_pair(g, inv_g.row(0, rest))

    return split_sum(len(wset), 2, term, (len(wset) - 1, 1))


def _extraction(ctx, rng, pole: bool):
    """Each extraction sum over a drawn set and a random pivot in it is 1."""
    lhs = []
    for p in range(1, ctx.sizes["max_size"] + 1):
        ws, = _spectra(ctx, rng.getrandbits(48), [p], ["w"])
        x = ws[rng.randrange(p)]
        lhs.append(pole_extraction_sum(ws, x, ctx.c) if pole
                   else single_extraction_sum(x, ws, ctx.c))
    rhs = [Rat(1)] * len(lhs)
    return digest(ctx.seed), lhs, rhs, lhs == rhs


# ---------------------------------------------------------------------------
# The check table and its runner
# ---------------------------------------------------------------------------

def _sizes(*same, **renamed) -> dict:
    """Record sizes: record key -> suite size key."""
    return {**{key: key for key in same}, **renamed}


def _each(count: str, rows: list) -> list:
    """One group per row, so each identity runs all its trials in turn."""
    return [(count, [row]) for row in rows]


_NM = _sizes("max_n", "max_m")
_ACTION = _sizes("sites", "max_n", "max_m")
_SITES = _sizes("sites")
_PROOF = _sizes("max_size")

CHECKS = {
    "izergin-laws": [
        ("equiv_samples", [("izergin/representation-equivalence",
                            _sizes(max_n="equiv_max", max_m="equiv_max"),
                            _equivalence)]),
        *_each("samples", [
            ("izergin/conjugate-is-negated-c", _NM,
             partial(_grid, law=_conj_is_negated_c)),
            ("izergin/empty-set-values", _NM, _empty_set_values),
            ("izergin/single-row-closed-forms", _NM, partial(
                _grid, law=_single_row_forms, shapes=lambda sz: [
                    (k, 1, 1, k)
                    for k in range(1, max(sz["max_n"], sz["max_m"]) + 1)])),
            ("izergin/unit-deformation-vanishing", _NM, _unit_vanishing),
            ("izergin/ordinary-limit", _NM, partial(
                _grid, law=_ordinary_limit, salts=(), shapes=lambda sz: [
                    (n, n) for n in range(1, sz["max_n"] + 1)])),
            ("izergin/shift-transfer", _NM, partial(_grid, law=_shift_transfer)),
            ("izergin/negation-conjugation", _NM, partial(_grid, law=_negation)),
            ("izergin/paired-argument-reduction", _NM,
             partial(_grid, law=_pair_reduction, point=True, shapes=lambda sz: [
                 (n, m, 1) for n, m in _upto("max_n", "max_m")(sz)])),
            ("izergin/transposition", _NM,
             partial(_grid, law=_transposition, exclude=(1,))),
            ("izergin/inversion", _NM, partial(_grid, law=_inversion, exclude=(1,))),
            ("izergin/partition-sum-expansion", _NM,
             partial(_grid, law=_partition_expansion, exclude=(1,))),
            ("izergin/product-convolution", _NM, partial(
                _grid, law=_convolution, salts=(0, 3),
                shapes=_upto("conv_max", "conv_max", "conv_len"))),
            ("izergin/shifted-unit-convolution", _NM, partial(
                _grid, law=_shifted_unit_convolution, salts=(),
                shapes=lambda sz: [(n, m, sz["conv_len"]) for n, m
                                   in _upto("conv_max", "conv_max")(sz)])),
            ("izergin/deformation-difference-sum", _NM,
             partial(_grid, law=_deformation_sum, salts=(0, 5))),
            ("izergin/binomial-partition-sums", _NM, partial(
                _binomial_sums, top=lambda sz: max(sz["max_n"], sz["max_m"]) + 3)),
        ]),
        ("residue_samples", [("izergin/residue-at-collision",
                              _sizes(max_n="residue_max", max_m="residue_max"),
                              partial(_grid, law=_residue, shapes=_upto(
                                  "residue_max", "residue_max", low=1)))]),
    ],
    "yangian-structure": [
        ("samples", [("yangian/yang-baxter", {}, _yang_baxter),
                     ("yangian/gl2-invariance-product", {},
                      partial(_gl2_invariance, summed=False)),
                     ("yangian/gl2-invariance-sum", {},
                      partial(_gl2_invariance, summed=True))]),
        ("struct_samples", [("yangian/rtt", _SITES, _rtt),
                            ("yangian/exchange-relations", _SITES, _exchange),
                            ("yangian/triangular-exchange", _SITES, _triangular)]),
        ("mcr_samples", [("yangian/multiple-exchange",
                          _sizes("sites", max_n="mcr_max", max_m="mcr_max"),
                          _multiple_exchange)]),
    ],
    "aba-actions": [
        *_each("draws", [(ident, _ACTION, partial(_action_grid, kind=kind))
                         for kind, ident in (("t11", "actions/diagonal-action-one"),
                                             ("t22", "actions/diagonal-action-two"),
                                             ("t21", "actions/annihilation-action"))]),
        ("draws", [("actions/creation-merge", _SITES, _creation_merge),
                   ("actions/plain-scalar-product", _sizes(max_n="scalar_max"),
                    _plain_scalar),
                   ("actions/scalar-forms-random-weights",
                    _sizes(max_n="scalar_max"), _scalar_forms_random_weights)]),
    ],
    "maba-actions": [
        *_each("draws", [("actions/single-twisted-actions", _SITES, _single_actions)]
               + [(ident, _ACTION, partial(_action_grid, kind=kind))
                  for kind, ident in (("nu11", "actions/twisted-diagonal-one"),
                                      ("nu22", "actions/twisted-diagonal-two"),
                                      ("nu21", "actions/twisted-annihilation"))]),
        ("draws", [("actions/cardinality-truncation", _NM, _truncation),
                   ("actions/creation-reduction", {}, _creation_reduction)]),
    ],
    "scalar-products": [
        ("draws", [("scalar/twisted-scalar-product", _sizes("sites", "total_max"),
                    partial(_chain_grid, law=_twisted_scalar, shapes=lambda sz: [
                        (n, total - n) for total in range(sz["total_max"] + 1)
                        for n in range(total + 1)])),
                   ("scalar/independent-partition-form", _sizes("total_max"),
                    _independent_form),
                   ("scalar/twisted-vacuum-average",
                    _sizes("sites", max_p="avg_max"),
                    partial(_chain_grid, law=_vacuum_average,
                            shapes=_upto("avg_max"))),
                   ("scalar/unit-twist-reduction", _sizes(max_n="red_max"),
                    _unit_twist_reduction)]),
    ],
    "phi-symmetry": [
        ("draws", [("phi/twisted-diagonal-transposition", _NM,
                    partial(_phi_transposition, kind="nu11")),
                   ("phi/plain-diagonal-transposition", _NM,
                    partial(_phi_transposition, kind="t11")),
                   ("phi/involution", {}, _involution)]),
    ],
    "proof-steps": [
        ("samples", [("proof/single-extraction-sum", _PROOF,
                      partial(_extraction, pole=False)),
                     ("proof/pole-extraction-sum", _PROOF,
                      partial(_extraction, pole=True)),
                     ("proof/binomial-partition-sums", _PROOF,
                      partial(_binomial_sums, top=lambda sz: sz["max_size"]))]),
    ],
}


def run_check(cfg: RunConfig, suite: str, identity: str, trial: int) -> CheckRecord:
    """Run one declared check and return its record, the one `verify` gives
    it; a ConfigError names an unknown suite or identity, or a trial out of
    range."""
    if suite not in CHECKS:
        raise ConfigError(f"unknown suite {suite!r}; registered: {sorted(CHECKS)}")
    found = [(count, sizes, check) for count, rows in CHECKS[suite]
             for ident, sizes, check in rows if ident == identity]
    if not found:
        raise ConfigError(f"unknown identity {identity!r} in suite {suite}")
    (count, sizes, check), = found
    sz = cfg.suite_sizes(suite)
    if trial not in range(sz[count]):
        raise ConfigError(f"trial {trial!r} of {suite}/{identity} is out of "
                          f"range: {count} is {sz[count]}")
    return Recorder(suite, cfg.seed).run(
        identity, trial, {key: sz[name] for key, name in sizes.items()},
        lambda seed: check(Context(cfg.c, cfg.bound, cfg.jobs, sz, trial, seed),
                           random.Random(seed)))


def run_suite(suite: str, cfg: RunConfig) -> list:
    """Every check of `suite`, group by group and, within a group, trial by
    trial in row order."""
    sz = cfg.suite_sizes(suite)
    return [run_check(cfg, suite, identity, trial)
            for count, rows in CHECKS[suite] for trial in range(sz[count])
            for identity, _, _ in rows]


SUITES = {name: partial(run_suite, name) for name in CHECKS}
(run_izergin_laws, run_yangian_structure, run_aba_actions, run_maba_actions,
 run_scalar_products, run_phi_symmetry, run_proof_steps) = SUITES.values()


def run_suites(cfg: RunConfig) -> list:
    return [record for name in cfg.suites for record in SUITES[name](cfg)]
