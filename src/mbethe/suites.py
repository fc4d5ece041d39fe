"""Registered identity suites for the batch verifier.

Each suite covers one cluster of laws: determinant laws, exchange-algebra
structure, plain-family multiple actions, twisted-family multiple actions,
scalar products, the diagonal-transposition symmetry, and the closed
proof-step sums. Every check draws its parameters from a seed derived from
(master seed, suite, identity, trial), so a run is reproducible record by
record.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .actions import (ActionRequest, WeightOracle, eval_action, eval_request,
                      eval_scalar, eval_vacuum_average, phi_transform)
from .chain import (ChainSpec, apply_entry_product, apply_nu,
                    build_monodromy, direct_scalar, embed_two,
                    gl2_random_matrix, r_matrix,
                    vacuum_state, vacuum_weights)
from .errors import ConfigError
from .izergin import (DetTables, FTable, by_popcount, conj_mod_izergin,
                      izergin_convolution, izergin_deformation_sum,
                      izergin_partition_sum, mod_izergin, ordinary_izergin,
                      rat_pow, residue_check, term_pair)
from .linalg import identity, kron, mat_add, mat_eq, mat_mul, mat_scale, mat_sub
from .partitions import (enumerate_splits, mask_values,
                         pole_extraction_sum, single_extraction_sum, split_sum)
from .report import Recorder, digest
from .scalars import (Rat, SpectralSet, TwistData, kernel_f,
                      kernel_g, rat, rat_str, sample_generic,
                      sample_nonzero, sample_twist, set_product, with_shifts)

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
    """`value` from a flag or a config file, read by `parse` (int or rat);
    a ConfigError naming it when it is not such a number. JSON booleans,
    and floats that the parse would round, are not numbers here."""
    try:
        number = parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        number = None
    if (number is None or isinstance(value, bool)
            or isinstance(value, float) and number != value):
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
        self.c = config_number(rat, self.c, "c")
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
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
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
            if any(config_number(int, v, f"sizes.{suite}.{key}") < 1
                   for key, v in overrides.items()):
                raise ConfigError("size overrides must be positive")

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


# ---------------------------------------------------------------------------
# Shared sampling helpers
# ---------------------------------------------------------------------------

def _spectra(seed, c, bound, counts, labels, extra_context=()):
    """Jointly generic sets (with +-c shifts in context) drawn one after another."""
    out = []
    context = list(extra_context)
    rng = random.Random(seed)
    for count, label in zip(counts, labels):
        s = sample_generic(count, context=tuple(context), seed=rng.getrandbits(48),
                           bound=bound, c=c, label=label)
        out.append(s)
        context.extend(with_shifts(c, s))
    return out


def _chain(seed, c, bound, sites) -> ChainSpec:
    theta, = _spectra(seed, c, bound, [sites], ["theta"])
    return ChainSpec(sites, theta, c)


def _cycle_sites(max_sites: int, idx: int) -> int:
    return max_sites - (idx % max_sites)


# ---------------------------------------------------------------------------
# Suite: izergin-laws
# ---------------------------------------------------------------------------

def run_izergin_laws(cfg: RunConfig) -> list:
    rec = Recorder("izergin-laws", cfg.seed)
    sz = cfg.suite_sizes("izergin-laws")
    c = cfg.c
    nmax, mmax, samples = sz["max_n"], sz["max_m"], sz["samples"]

    def equivalence(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for n in range(1, sz["equiv_max"] + 1):
            for m in range(1, sz["equiv_max"] + 1):
                us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                  [n, m], ["u", "v"])
                params.append((us, vs))
                for z in (sample_nonzero(rng.getrandbits(48), 9, exclude=(1,)),
                          Rat(0), Rat(2)):
                    for fn in (mod_izergin, conj_mod_izergin):
                        lhs.append(fn(z, us, vs, c, variant="v-side"))
                        rhs.append(fn(z, us, vs, c, variant="u-side"))
        return digest(params), lhs, rhs, lhs == rhs

    for trial in range(sz["equiv_samples"]):
        rec.run("izergin/representation-equivalence", trial,
                {"max_n": sz["equiv_max"], "max_m": sz["equiv_max"]}, equivalence)

    def grid(law, exclude=(), extra=False, low=0, high=(nmax, mmax)):
        """Check a law at every (n, m) in low..high: draw u, v (and, with
        `extra`, one more value w), then z avoiding `exclude`; the law
        yields the (lhs, rhs) pairs it compares there."""
        def check(seed):
            rng = random.Random(seed)
            lhs, rhs, params = [], [], []
            for n in range(low, high[0] + 1):
                for m in range(low, high[1] + 1):
                    sets = _spectra(rng.getrandbits(48), c, cfg.bound,
                                    [n, m, 1] if extra else [n, m],
                                    ["u", "v", "w"])
                    if extra:
                        sets[2] = sets[2][0]
                    z = sample_nonzero(rng.getrandbits(48), 9, exclude=exclude)
                    params.append((*sets, z))
                    for left, right in law(*sets, z):
                        lhs.append(left)
                        rhs.append(right)
            return digest(params), lhs, rhs, lhs == rhs
        return check

    def conj_is_negated_c(us, vs, z):
        yield conj_mod_izergin(z, us, vs, c), mod_izergin(z, us, vs, -c)

    def empty_set_values(seed):
        rng = random.Random(seed)
        z = sample_nonzero(rng.getrandbits(48), 9)
        lhs, rhs = [], []
        for n in range(0, nmax + 1):
            us, = _spectra(rng.getrandbits(48), c, cfg.bound, [n], ["u"])
            empty = SpectralSet((), "v")
            lhs += [mod_izergin(z, us, empty, c), conj_mod_izergin(z, us, empty, c),
                    mod_izergin(z, empty, us, c), conj_mod_izergin(z, empty, us, c)]
            rhs += [Rat(1), Rat(1), rat_pow(1 - z, n), rat_pow(1 - z, n)]
        return digest(z), lhs, rhs, lhs == rhs

    def single_row_forms(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for k in range(1, max(nmax, mmax) + 1):
            us, vs, single_u, ws = _spectra(
                rng.getrandbits(48), c, cfg.bound, [k, 1, 1, k],
                ["u", "v", "u2", "v2"])
            z = sample_nonzero(rng.getrandbits(48), 9)
            params.append((us, vs, single_u, ws, z))
            u1 = single_u[0]
            lhs += [mod_izergin(z, single_u, ws, c),
                    mod_izergin(z, us, vs, c),
                    conj_mod_izergin(z, single_u, ws, c),
                    conj_mod_izergin(z, us, vs, c)]
            rhs += [rat_pow(1 - z, k - 1) * (set_product("f", u1, ws, c) - z),
                    set_product("f", us, vs[0], c) - z,
                    rat_pow(1 - z, k - 1) * (set_product("f", ws, u1, c) - z),
                    set_product("f", vs[0], us, c) - z]
        return digest(params), lhs, rhs, lhs == rhs

    def unit_vanishing(seed):
        rng = random.Random(seed)
        lhs = []
        for n in range(1, nmax + 1):
            for m in range(n + 1, mmax + 2):
                us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                  [n, m], ["u", "v"])
                lhs += [mod_izergin(1, us, vs, c), conj_mod_izergin(1, us, vs, c)]
        rhs = [Rat(0)] * len(lhs)
        return digest(len(lhs)), lhs, rhs, lhs == rhs

    def ordinary_limit(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for n in range(1, nmax + 1):
            us, vs = _spectra(rng.getrandbits(48), c, cfg.bound, [n, n], ["u", "v"])
            params.append((us, vs))
            lhs.append(ordinary_izergin(us, vs, c))
            rhs.append(mod_izergin(1, us, vs, c))
            lhs.append(ordinary_izergin(us, vs, c, conjugated=True))
            rhs.append(conj_mod_izergin(1, us, vs, c))
        return digest(params), lhs, rhs, lhs == rhs

    def shift_transfer(us, vs, z):
        for fn in (mod_izergin, conj_mod_izergin):
            yield fn(z, us.shifted(-c), vs, c), fn(z, us, vs.shifted(c), c)

    def negation(us, vs, z):
        yield (mod_izergin(z, us.negated(), vs.negated(), c),
               conj_mod_izergin(z, us, vs, c))

    def pair_reduction(us, vs, w, z):
        for fn, shift in ((mod_izergin, -c), (conj_mod_izergin, c)):
            yield (fn(z, SpectralSet(us.values + (w + shift,)),
                      SpectralSet(vs.values + (w,)), c),
                   -z * fn(z, us, vs, c))

    def transposition(us, vs, z):
        yield (conj_mod_izergin(z, us, vs, c),
               rat_pow(1 - z, len(vs) - len(us)) * mod_izergin(z, vs, us, c))

    def inversion(us, vs, z):
        scale = rat_pow(-z, len(us)) * rat_pow(1 - z, len(vs) - len(us))
        yield (mod_izergin(z, us, vs.shifted(c), c),
               scale / set_product("f", vs, us, c) * mod_izergin(1 / z, vs, us, c))
        yield (conj_mod_izergin(z, us, vs.shifted(-c), c),
               scale / set_product("f", us, vs, c)
               * conj_mod_izergin(1 / z, vs, us, c))

    def partition_expansion(us, vs, z):
        for fn, conj in ((mod_izergin, False), (conj_mod_izergin, True)):
            want = fn(z, us, vs, c)
            for side in ("v-partitions", "u-partitions"):
                yield (izergin_partition_sum(z, us, vs, c, side=side,
                                             conjugated=conj), want)

    def residue(us, vs, z):
        for conj in (False, True):
            yield residue_check(z, us, vs, c, conjugated=conj)

    def convolution(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for n in range(0, sz["conv_max"] + 1):
            for m in range(0, sz["conv_max"] + 1):
                for l in range(0, sz["conv_len"] + 1):
                    us, vs, xs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                          [n, m, l], ["u", "v", "xi"])
                    z1 = sample_nonzero(rng.getrandbits(48), 9)
                    z2 = sample_nonzero(rng.getrandbits(48) ^ 3, 9)
                    params.append((us, vs, xs, z1, z2))
                    merged = us.union(vs, "uv")
                    for conj in (False, True):
                        fn = conj_mod_izergin if conj else mod_izergin
                        lhs.append(izergin_convolution(z1, z2, us, vs, xs, c,
                                                       conjugated=conj))
                        rhs.append(fn(z1 * z2, merged, xs, c))
        return digest(params), lhs, rhs, lhs == rhs

    def shifted_unit_convolution(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for n in range(0, sz["conv_max"] + 1):
            for m in range(0, sz["conv_max"] + 1):
                us, vs, xs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                      [n, m, sz["conv_len"]], ["u", "v", "xi"])
                params.append((us, vs, xs))
                merged = us.union(vs, "uv")
                lhs += [shifted_unit_sum(us, vs, xs, c),
                        shifted_unit_sum(us, vs, xs, c, conjugated=True)]
                rhs += [mod_izergin(1, merged, xs.shifted(c), c),
                        conj_mod_izergin(1, merged, xs.shifted(-c), c)]
        return digest(params), lhs, rhs, lhs == rhs

    def deformation_sum(seed):
        rng = random.Random(seed)
        lhs, rhs, params = [], [], []
        for n in range(0, nmax + 1):
            for m in range(0, mmax + 1):
                us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                  [n, m], ["u", "v"])
                z1 = sample_nonzero(rng.getrandbits(48), 9)
                z2 = sample_nonzero(rng.getrandbits(48) ^ 5, 9)
                params.append((us, vs, z1, z2))
                for conj in (False, True):
                    fn = conj_mod_izergin if conj else mod_izergin
                    lhs.append(izergin_deformation_sum(z1, z2, us, vs, c,
                                                       conjugated=conj))
                    rhs.append(fn(z2 - z1, us, vs, c))
        return digest(params), lhs, rhs, lhs == rhs

    def binomial_sums(seed):
        return _binomial_check(seed, c, cfg.bound, max(nmax, mmax) + 3)

    named = [
        ("izergin/conjugate-is-negated-c", grid(conj_is_negated_c)),
        ("izergin/empty-set-values", empty_set_values),
        ("izergin/single-row-closed-forms", single_row_forms),
        ("izergin/unit-deformation-vanishing", unit_vanishing),
        ("izergin/ordinary-limit", ordinary_limit),
        ("izergin/shift-transfer", grid(shift_transfer)),
        ("izergin/negation-conjugation", grid(negation)),
        ("izergin/paired-argument-reduction", grid(pair_reduction, extra=True)),
        ("izergin/transposition", grid(transposition, exclude=(1,))),
        ("izergin/inversion", grid(inversion, exclude=(1,))),
        ("izergin/partition-sum-expansion",
         grid(partition_expansion, exclude=(1,))),
        ("izergin/product-convolution", convolution),
        ("izergin/shifted-unit-convolution", shifted_unit_convolution),
        ("izergin/deformation-difference-sum", deformation_sum),
        ("izergin/binomial-partition-sums", binomial_sums),
    ]
    for ident, fn in named:
        for trial in range(samples):
            rec.run(ident, trial, {"max_n": nmax, "max_m": mmax}, fn)
    rmax = sz["residue_max"]
    for trial in range(sz["residue_samples"]):
        rec.run("izergin/residue-at-collision", trial,
                {"max_n": rmax, "max_m": rmax},
                grid(residue, low=1, high=(rmax, rmax)))
    return rec.records


def shifted_unit_sum(us, vs, xs, c, conjugated: bool = False) -> Rat:
    """Sum over splits of xs of K^(1)(us | x1 + c) K^(1)(vs | x2 + c)
    f(x2, x1) / f(x2, us); conjugated, of K-bar^(1)(us | x1 - c)
    K-bar^(1)(vs | x2 - c) f(x1, x2) / f(us, x2). Either equals the same
    determinant on the merged set {us, vs}. The determinants come from one
    half of DetTables and the f weights from kernel tables, built once per
    sum in the orientation of `conjugated`."""
    left = DetTables(us.values, xs.values, c).side(conjugated)
    right = DetTables(vs.values, xs.values, c).side(conjugated)
    to_u = FTable(c, xs.values, us.values, conjugated)
    all_u = (1 << len(us)) - 1

    def term(m1, m2):   # the reversed pair is 1 / f(x2, us), or 1 / f(us, x2)
        return term_pair(left.k_pair(1, m1), right.k_pair(1, m2),
                         left.pair(m2, m1), to_u.pair(m2, all_u)[::-1])

    return split_sum(len(xs), 2, term)


def _binomial_check(seed, c, bound, max_size):
    """Constrained sums of f weights count subsets; alternating sums vanish.
    The f weights of each ground set come from one kernel table."""
    from math import comb
    rng = random.Random(seed)
    lhs, rhs, params = [], [], []
    for p in range(1, max_size + 1):
        xs, = _spectra(rng.getrandbits(48), c, bound, [p], ["x"])
        params.append(xs)
        table = FTable(c, xs.values)
        sign = by_popcount(lambda k: Rat(-1) ** k, p)

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

def run_yangian_structure(cfg: RunConfig) -> list:
    rec = Recorder("yangian-structure", cfg.seed)
    sz = cfg.suite_sizes("yangian-structure")
    c = cfg.c

    def yang_baxter(seed):
        pts, = _spectra(seed, c, cfg.bound, [3], ["uvw"])
        u, v, w = pts.values
        r12 = embed_two(r_matrix(u - v, c), [2, 2, 2], 0, 1)
        r13 = embed_two(r_matrix(u - w, c), [2, 2, 2], 0, 2)
        r23 = embed_two(r_matrix(v - w, c), [2, 2, 2], 1, 2)
        lhs = mat_mul(mat_mul(r12, r13), r23)
        rhs = mat_mul(mat_mul(r23, r13), r12)
        return digest(pts), lhs, rhs, mat_eq(lhs, rhs)

    def gl2_product(seed):
        rng = random.Random(seed)
        u, = _spectra(rng.getrandbits(48), c, cfg.bound, [1], ["u"])
        K = gl2_random_matrix(rng)
        R = r_matrix(u[0], c)
        KK = kron(K, K)
        lhs = mat_mul(R, KK)
        rhs = mat_mul(KK, R)
        return digest(u, K), lhs, rhs, mat_eq(lhs, rhs)

    def gl2_sum(seed):
        rng = random.Random(seed)
        u, = _spectra(rng.getrandbits(48), c, cfg.bound, [1], ["u"])
        K = gl2_random_matrix(rng)
        R = r_matrix(u[0], c)
        S = mat_add(kron(K, identity(2)), kron(identity(2), K))
        lhs = mat_mul(R, S)
        rhs = mat_mul(S, R)
        return digest(u, K), lhs, rhs, mat_eq(lhs, rhs)

    def rtt(seed):
        rng = random.Random(seed)
        lhs_all, rhs_all, ok = [], [], True
        for sites in range(1, sz["sites"] + 1):
            spec = _chain(rng.getrandbits(48), c, cfg.bound, sites)
            uv, = _spectra(rng.getrandbits(48) ^ 1, c, cfg.bound, [2], ["uv"],
                           extra_context=with_shifts(c, spec.theta))
            u, v = uv.values
            t_u = build_monodromy(spec, u)
            t_v = build_monodromy(spec, v)
            dim = spec.dim
            ta = _aux_embed(t_u, dim, "a")
            tb = _aux_embed(t_v, dim, "b")
            rab = kron(r_matrix(u - v, c), identity(dim))
            lhs = mat_mul(rab, mat_mul(ta, tb))
            rhs = mat_mul(mat_mul(tb, ta), rab)
            ok = ok and mat_eq(lhs, rhs)
            lhs_all.append(lhs)
            rhs_all.append(rhs)
        return digest(seed), lhs_all, rhs_all, ok

    def exchange(seed):
        rng = random.Random(seed)
        ok = True
        collected = []
        for family in ("t", "nu"):
            sites = sz["sites"]
            spec = _chain(rng.getrandbits(48), c, cfg.bound, sites)
            params = sample_twist(rng.getrandbits(48), c)
            uv, = _spectra(rng.getrandbits(48) ^ 1, c, cfg.bound, [2], ["uv"],
                           extra_context=with_shifts(c, spec.theta))
            u, v = uv.values
            twist = params if family == "nu" else None
            mu_ = build_monodromy(spec, u, twist)
            mv_ = build_monodromy(spec, v, twist)
            g = kernel_g(u, v, c)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            lhs = mat_sub(mat_mul(mu_[i][j], mv_[k][l]),
                                          mat_mul(mv_[k][l], mu_[i][j]))
                            rhs = mat_scale(g, mat_sub(
                                mat_mul(mv_[k][j], mu_[i][l]),
                                mat_mul(mu_[k][j], mv_[i][l])))
                            ok = ok and mat_eq(lhs, rhs)
                            collected.append((family, i, j, k, l))
        return digest(seed), collected, collected, ok

    def triangular(seed):
        rng = random.Random(seed)
        ok = True
        for family in ("t", "nu"):
            spec = _chain(rng.getrandbits(48), c, cfg.bound, sz["sites"])
            params = sample_twist(rng.getrandbits(48), c)
            uv, = _spectra(rng.getrandbits(48) ^ 1, c, cfg.bound, [2], ["uv"],
                           extra_context=with_shifts(c, spec.theta))
            u, v = uv.values
            twist = params if family == "nu" else None
            A, B = build_monodromy(spec, u, twist), build_monodromy(spec, v, twist)
            fvu = kernel_f(v, u, c)
            fuv = kernel_f(u, v, c)
            guv = kernel_g(u, v, c)
            gvu = kernel_g(v, u, c)
            # same-entry commutativity
            for i in range(2):
                for j in range(2):
                    ok = ok and mat_eq(mat_mul(A[i][j], B[i][j]),
                                       mat_mul(B[i][j], A[i][j]))
            # diagonal-by-creation exchange, both diagonal entries
            lhs = mat_mul(A[0][0], B[0][1])
            rhs = mat_add(mat_scale(fvu, mat_mul(B[0][1], A[0][0])),
                          mat_scale(guv, mat_mul(A[0][1], B[0][0])))
            ok = ok and mat_eq(lhs, rhs)
            lhs = mat_mul(A[1][1], B[0][1])
            rhs = mat_add(mat_scale(fuv, mat_mul(B[0][1], A[1][1])),
                          mat_scale(gvu, mat_mul(A[0][1], B[1][1])))
            ok = ok and mat_eq(lhs, rhs)
            # annihilation-by-creation commutator
            lhs = mat_sub(mat_mul(A[1][0], B[0][1]), mat_mul(B[0][1], A[1][0]))
            rhs = mat_scale(guv, mat_sub(mat_mul(B[0][0], A[1][1]),
                                         mat_mul(A[0][0], B[1][1])))
            ok = ok and mat_eq(lhs, rhs)
        return digest(seed), "all-relations", "all-relations", ok

    def multiple_exchange(seed):
        rng = random.Random(seed)
        ok = True
        for family in ("t", "nu"):
            spec = _chain(rng.getrandbits(48), c, cfg.bound, sz["sites"])
            params = sample_twist(rng.getrandbits(48), c)
            dim = spec.dim
            twist = params if family == "nu" else None
            blocks = {}   # one dense monodromy per spectral point

            def entry(i, j, x):
                if x not in blocks:
                    blocks[x] = build_monodromy(spec, x, twist)
                return blocks[x][i - 1][j - 1]

            def prodop(i, j, vals):
                out = identity(dim)
                for x in vals:
                    out = mat_mul(out, entry(i, j, x))
                return out

            for n in range(1, sz["mcr_max"] + 1):
                for m in range(1, sz["mcr_max"] + 1):
                    us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                      [n, m], ["u", "v"],
                                      extra_context=with_shifts(c, spec.theta))
                    wall = us.union(vs, "w")
                    lhs11 = mat_mul(prodop(1, 1, us.values),
                                    prodop(1, 2, vs.values))
                    lhs22 = mat_mul(prodop(2, 2, us.values),
                                    prodop(1, 2, vs.values))
                    acc11 = acc22 = None
                    for m1, m2 in enumerate_splits(n + m, 2, cards=(n, m)):
                        w1 = SpectralSet(mask_values(wall.values, m1))
                        w2 = mask_values(wall.values, m2)
                        k11 = (conj_mod_izergin(1, us, w1.shifted(-c), c)
                               * set_product("f", w2, w1, c))
                        k22 = (mod_izergin(1, us, w1.shifted(c), c)
                               * set_product("f", w1, w2, c))
                        op12 = prodop(1, 2, w2)
                        term11 = mat_scale(k11, mat_mul(op12, prodop(1, 1, w1.values)))
                        term22 = mat_scale(k22, mat_mul(op12, prodop(2, 2, w1.values)))
                        acc11 = term11 if acc11 is None else mat_add(acc11, term11)
                        acc22 = term22 if acc22 is None else mat_add(acc22, term22)
                    sign = rat_pow(-1, n)
                    ok = ok and mat_eq(lhs11, mat_scale(sign, acc11))
                    ok = ok and mat_eq(lhs22, mat_scale(sign, acc22))
        return digest(seed), "both-lines", "both-lines", ok

    for trial in range(sz["samples"]):
        rec.run("yangian/yang-baxter", trial, {}, yang_baxter)
        rec.run("yangian/gl2-invariance-product", trial, {}, gl2_product)
        rec.run("yangian/gl2-invariance-sum", trial, {}, gl2_sum)
    for trial in range(sz["struct_samples"]):
        rec.run("yangian/rtt", trial, {"sites": sz["sites"]}, rtt)
        rec.run("yangian/exchange-relations", trial, {"sites": sz["sites"]},
                exchange)
        rec.run("yangian/triangular-exchange", trial, {"sites": sz["sites"]},
                triangular)
    for trial in range(sz["mcr_samples"]):
        rec.run("yangian/multiple-exchange", trial,
                {"sites": sz["sites"], "max_n": sz["mcr_max"],
                 "max_m": sz["mcr_max"]}, multiple_exchange)
    return rec.records


def _aux_embed(blocks, dim: int, which: str):
    out = None
    for i in range(2):
        for j in range(2):
            e = [[Rat(1) if (r, s) == (i, j) else Rat(0) for s in range(2)]
                 for r in range(2)]
            if which == "a":
                piece = kron(kron(e, identity(2)), blocks[i][j])
            else:
                piece = kron(kron(identity(2), e), blocks[i][j])
            out = piece if out is None else mat_add(out, piece)
    return out


# ---------------------------------------------------------------------------
# Suites: aba-actions and maba-actions
# ---------------------------------------------------------------------------

def _action_vs_oracle(seed, cfg, kind: str, sites: int, n: int, m: int):
    """Materialized formula state vs direct operator application."""
    c = cfg.c
    spec = _chain(seed, c, cfg.bound, sites)
    params = sample_twist(seed ^ 0x5EED, c) if kind.startswith("nu") else None
    oracle = WeightOracle.fundamental(spec)
    us, vs = _spectra(seed ^ 0xACE, c, cfg.bound, [n, m], ["u", "v"],
                      extra_context=with_shifts(c, spec.theta))
    result = eval_action(kind, us, vs, oracle, params, c)
    formula_state = result.materialize(spec, params)
    family = "t12" if kind.startswith("t") else "nu12"
    direct = apply_entry_product(spec, params, family, vs, vacuum_state(spec))
    return formula_state, apply_entry_product(spec, params, kind, us, direct)


def _action_check(cfg, sz, kind: str, trial: int):
    """One trial of an action suite: every (n, m) up to the maxima vs the oracle."""
    def fn(seed):
        sites = _cycle_sites(sz["sites"], trial)
        rng = random.Random(seed)
        lhs, rhs = zip(*(
            _action_vs_oracle(rng.getrandbits(48), cfg, kind, sites, n, m)
            for n in range(0, sz["max_n"] + 1) for m in range(0, sz["max_m"] + 1)))
        return digest(seed, sites), lhs, rhs, lhs == rhs
    return fn


def run_aba_actions(cfg: RunConfig) -> list:
    rec = Recorder("aba-actions", cfg.seed)
    sz = cfg.suite_sizes("aba-actions")
    c = cfg.c

    def creation_merge(seed):
        rng = random.Random(seed)
        spec = _chain(rng.getrandbits(48), c, cfg.bound, sz["sites"])
        us, vs = _spectra(rng.getrandbits(48) ^ 1, c, cfg.bound,
                          [2, 2], ["u", "v"],
                          extra_context=with_shifts(c, spec.theta))
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

    def plain_scalar(seed):
        rng = random.Random(seed)
        lhs, rhs = [], []
        for n in range(0, sz["scalar_max"] + 1):
            sites = _cycle_sites(sz["sites"], n)
            spec = _chain(rng.getrandbits(48), c, cfg.bound, sites)
            oracle = WeightOracle.fundamental(spec)
            us, vs = _spectra(rng.getrandbits(48) ^ 2, c, cfg.bound,
                              [n, n], ["u", "v"],
                              extra_context=with_shifts(c, spec.theta))
            want = direct_scalar(spec, None, "t21", us, "t12", vs)
            lhs += [eval_scalar("SCe", us, vs, oracle, None, c),
                    eval_scalar("SCbe", us, vs, oracle, None, c)]
            rhs += [want, want]
        return digest(seed), lhs, rhs, lhs == rhs

    def scalar_forms_random_weights(seed):
        rng = random.Random(seed)
        oracle = WeightOracle.random_seeded(rng.getrandbits(32))
        lhs, rhs = [], []
        for n in range(0, sz["scalar_max"] + 1):
            us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                              [n, n], ["u", "v"])
            lhs.append(eval_scalar("SCe", us, vs, oracle, None, c))
            rhs.append(eval_scalar("SCbe", us, vs, oracle, None, c))
        return digest(seed), lhs, rhs, lhs == rhs

    for kind, ident in (("t11", "actions/diagonal-action-one"),
                        ("t22", "actions/diagonal-action-two"),
                        ("t21", "actions/annihilation-action")):
        for trial in range(sz["draws"]):
            rec.run(ident, trial,
                    {"sites": sz["sites"], "max_n": sz["max_n"],
                     "max_m": sz["max_m"]}, _action_check(cfg, sz, kind, trial))
    for trial in range(sz["draws"]):
        rec.run("actions/creation-merge", trial, {"sites": sz["sites"]},
                creation_merge)
        rec.run("actions/plain-scalar-product", trial,
                {"max_n": sz["scalar_max"]}, plain_scalar)
        rec.run("actions/scalar-forms-random-weights", trial,
                {"max_n": sz["scalar_max"]}, scalar_forms_random_weights)
    return rec.records


def run_maba_actions(cfg: RunConfig) -> list:
    rec = Recorder("maba-actions", cfg.seed)
    sz = cfg.suite_sizes("maba-actions")
    c = cfg.c

    def single_actions(seed):
        rng = random.Random(seed)
        spec = _chain(rng.getrandbits(48), c, cfg.bound, sz["sites"])
        params = sample_twist(rng.getrandbits(48), c)
        u, = _spectra(rng.getrandbits(48) ^ 1, c, cfg.bound, [1], ["u"],
                      extra_context=with_shifts(c, spec.theta))
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

    def truncation(seed):
        """Terms whose consumed subset exceeds the action size vanish exactly."""
        rng = random.Random(seed)
        n, m = sz["max_n"], sz["max_m"]
        us, vs = _spectra(rng.getrandbits(48), c, cfg.bound, [n, m], ["u", "v"])
        values = us.values + vs.values
        tables = DetTables(us.values, values, c)
        lhs = []
        for mask1, _ in enumerate_splits(n + m, 2):
            if mask1.bit_count() > n:
                lhs.append(tables.k_minus_conj(1, mask1))
                lhs.append(tables.k_plus(1, mask1))
        rhs = [Rat(0)] * len(lhs)
        return digest(us, vs), lhs, rhs, lhs == rhs

    def creation_reduction(seed):
        rng = random.Random(seed)
        lhs, rhs = zip(*(
            _action_vs_oracle(rng.getrandbits(48), cfg, "nu12", sites, n, m)
            for sites, n, m in ((2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2))))
        return digest(seed), lhs, rhs, lhs == rhs

    for trial in range(sz["draws"]):
        rec.run("actions/single-twisted-actions", trial,
                {"sites": sz["sites"]}, single_actions)
    for kind, ident in (("nu11", "actions/twisted-diagonal-one"),
                        ("nu22", "actions/twisted-diagonal-two"),
                        ("nu21", "actions/twisted-annihilation")):
        for trial in range(sz["draws"]):
            rec.run(ident, trial,
                    {"sites": sz["sites"], "max_n": sz["max_n"],
                     "max_m": sz["max_m"]}, _action_check(cfg, sz, kind, trial))
    for trial in range(sz["draws"]):
        rec.run("actions/cardinality-truncation", trial,
                {"max_n": sz["max_n"], "max_m": sz["max_m"]}, truncation)
        rec.run("actions/creation-reduction", trial, {}, creation_reduction)
    return rec.records


# ---------------------------------------------------------------------------
# Suite: scalar-products
# ---------------------------------------------------------------------------

def run_scalar_products(cfg: RunConfig) -> list:
    rec = Recorder("scalar-products", cfg.seed)
    sz = cfg.suite_sizes("scalar-products")
    c = cfg.c

    def make_twisted(trial):
        def twisted(seed):
            rng = random.Random(seed)
            sites = _cycle_sites(sz["sites"], trial)
            lhs, rhs = [], []
            for total in range(0, sz["total_max"] + 1):
                for n in range(0, total + 1):
                    m = total - n
                    sub = rng.getrandbits(48)
                    spec = _chain(sub, c, cfg.bound, sites)
                    params = sample_twist(sub ^ 0x7157, c)
                    oracle = WeightOracle.fundamental(spec)
                    us, vs = _spectra(sub ^ 0xACE, c, cfg.bound, [n, m],
                                      ["u", "v"],
                                      extra_context=with_shifts(c, spec.theta))
                    lhs.append(eval_scalar("SPfin", us, vs, oracle, params, c,
                                           jobs=cfg.jobs))
                    rhs.append(direct_scalar(spec, params, "nu21", us, "nu12", vs))
            return digest(seed, sites), lhs, rhs, lhs == rhs
        return twisted

    def independent_form(seed):
        rng = random.Random(seed)
        oracle = WeightOracle.random_seeded(rng.getrandbits(32))
        params = sample_twist(rng.getrandbits(48), c)
        lhs, rhs = [], []
        for total in range(0, sz["total_max"] + 1):
            for n in range(0, total + 1):
                m = total - n
                us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                  [n, m], ["u", "v"])
                lhs.append(eval_scalar("SPfin", us, vs, oracle, params, c))
                rhs.append(eval_scalar("SPfinIK", us, vs, oracle, params, c))
        return digest(seed), lhs, rhs, lhs == rhs

    def make_vacuum_average(trial):
        def vacuum_average(seed):
            rng = random.Random(seed)
            sites = _cycle_sites(sz["sites"], trial)
            lhs, rhs = [], []
            for p in range(0, sz["avg_max"] + 1):
                sub = rng.getrandbits(48)
                spec = _chain(sub, c, cfg.bound, sites)
                params = sample_twist(sub ^ 0x7157, c)
                oracle = WeightOracle.fundamental(spec)
                ws, = _spectra(sub ^ 0xACE, c, cfg.bound, [p], ["w"],
                               extra_context=with_shifts(c, spec.theta))
                lhs.append(eval_vacuum_average(ws, oracle, params, c))
                rhs.append(direct_scalar(spec, params, "nu12", ws, "nu12",
                                         SpectralSet((), "v")))
            return digest(seed, sites), lhs, rhs, lhs == rhs
        return vacuum_average

    def unit_twist_reduction(seed):
        rng = random.Random(seed)
        oracle = WeightOracle.random_seeded(rng.getrandbits(32))
        lhs, rhs = [], []
        for n in range(0, sz["red_max"] + 1):
            us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                              [n, n], ["u", "v"])
            beta1 = sample_nonzero(rng.getrandbits(48), 9)
            beta2 = sample_nonzero(rng.getrandbits(48) ^ 1, 9)
            twist = TwistData(beta1, beta2, Rat(1))
            lhs.append(eval_scalar("SPfin", us, vs, oracle, twist, c))
            rhs.append(eval_scalar("SCe", us, vs, oracle, None, c))
        return digest(seed), lhs, rhs, lhs == rhs

    for trial in range(sz["draws"]):
        rec.run("scalar/twisted-scalar-product", trial,
                {"sites": sz["sites"], "total_max": sz["total_max"]},
                make_twisted(trial))
        rec.run("scalar/independent-partition-form", trial,
                {"total_max": sz["total_max"]}, independent_form)
        rec.run("scalar/twisted-vacuum-average", trial,
                {"sites": sz["sites"], "max_p": sz["avg_max"]},
                make_vacuum_average(trial))
        rec.run("scalar/unit-twist-reduction", trial,
                {"max_n": sz["red_max"]}, unit_twist_reduction)
    return rec.records


# ---------------------------------------------------------------------------
# Suite: phi-symmetry
# ---------------------------------------------------------------------------

def run_phi_symmetry(cfg: RunConfig) -> list:
    rec = Recorder("phi-symmetry", cfg.seed)
    sz = cfg.suite_sizes("phi-symmetry")
    c = cfg.c

    def make_check(kind):
        def check(seed):
            rng = random.Random(seed)
            oracle = WeightOracle.random_seeded(rng.getrandbits(32))
            twist = (sample_twist(rng.getrandbits(48), c).twist()
                     if kind.startswith("nu") else None)
            lhs, rhs, ok = [], [], True
            for n in range(0, sz["max_n"] + 1):
                for m in range(0, sz["max_m"] + 1):
                    us, vs = _spectra(rng.getrandbits(48), c, cfg.bound,
                                      [n, m], ["u", "v"])
                    request = ActionRequest(kind, us, vs, oracle, twist, c)
                    direct = eval_request(request)
                    mirrored = eval_request(phi_transform(request))
                    lhs.append(direct.coeff_table())
                    rhs.append(mirrored.coeff_table())
                    ok = ok and direct.coefficients == mirrored.coefficients
            return digest(seed), lhs, rhs, ok
        return check

    def involution(seed):
        rng = random.Random(seed)
        oracle = WeightOracle.random_seeded(rng.getrandbits(32))
        twist = sample_twist(rng.getrandbits(48), c).twist()
        us, vs = _spectra(rng.getrandbits(48), c, cfg.bound, [2, 2], ["u", "v"])
        request = ActionRequest("nu11", us, vs, oracle, twist, c)
        twice = phi_transform(phi_transform(request))
        probe = Rat(3, 7)
        ok = (twice.kind == request.kind
              and twice.u_set.values == request.u_set.values
              and twice.v_set.values == request.v_set.values
              and twice.twist == request.twist
              and twice.oracle.lambda1(probe) == request.oracle.lambda1(probe)
              and twice.oracle.lambda2(probe) == request.oracle.lambda2(probe))
        return digest(seed), "phi^2", "identity", ok

    for trial in range(sz["draws"]):
        rec.run("phi/twisted-diagonal-transposition", trial,
                {"max_n": sz["max_n"], "max_m": sz["max_m"]},
                make_check("nu11"))
        rec.run("phi/plain-diagonal-transposition", trial,
                {"max_n": sz["max_n"], "max_m": sz["max_m"]},
                make_check("t11"))
        rec.run("phi/involution", trial, {}, involution)
    return rec.records


# ---------------------------------------------------------------------------
# Suite: proof-steps
# ---------------------------------------------------------------------------

def run_proof_steps(cfg: RunConfig) -> list:
    rec = Recorder("proof-steps", cfg.seed)
    sz = cfg.suite_sizes("proof-steps")
    c = cfg.c

    def extraction(total):
        """Each extraction sum over a drawn set and a random pivot in it is 1."""
        def check(seed):
            rng = random.Random(seed)
            lhs = []
            for p in range(1, sz["max_size"] + 1):
                ws, = _spectra(rng.getrandbits(48), c, cfg.bound, [p], ["w"])
                lhs.append(total(ws, ws[rng.randrange(p)]))
            rhs = [Rat(1)] * len(lhs)
            return digest(seed), lhs, rhs, lhs == rhs
        return check

    def binomial(seed):
        return _binomial_check(seed, c, cfg.bound, sz["max_size"])

    for trial in range(sz["samples"]):
        rec.run("proof/single-extraction-sum", trial,
                {"max_size": sz["max_size"]},
                extraction(lambda ws, x: single_extraction_sum(x, ws, c)))
        rec.run("proof/pole-extraction-sum", trial,
                {"max_size": sz["max_size"]},
                extraction(lambda ws, x: pole_extraction_sum(ws, x, c)))
        rec.run("proof/binomial-partition-sums", trial,
                {"max_size": sz["max_size"]}, binomial)
    return rec.records


SUITES = {
    "izergin-laws": run_izergin_laws,
    "yangian-structure": run_yangian_structure,
    "aba-actions": run_aba_actions,
    "maba-actions": run_maba_actions,
    "scalar-products": run_scalar_products,
    "phi-symmetry": run_phi_symmetry,
    "proof-steps": run_proof_steps,
}


def run_suites(cfg: RunConfig) -> list:
    records = []
    for name in cfg.suites:
        records.extend(SUITES[name](cfg))
    return records
