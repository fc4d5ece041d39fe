"""The dense operator checks of yangian-structure: the integer route against
a Fraction-route copy of each check, record for record, and tampered
kernels that each check must catch."""

import dataclasses
from itertools import product

import pytest

from mbethe import suites
from mbethe.chain import build_monodromy, r_matrix
from mbethe.izergin import conj_mod_izergin, mod_izergin
from mbethe.linalg import (identity, kron, mat_add, mat_eq, mat_mul,
                           mat_scale, mat_sub)
from mbethe.partitions import enumerate_splits, mask_values
from mbethe.report import digest
from mbethe.scalars import (Rat, SpectralSet, kernel_f, kernel_g,
                            sample_twist, set_product)
from mbethe.suites import CHECKS, RunConfig, _chain, _spectra, run_check

SUITE = "yangian-structure"

# Fraction-route copies of the checks as they stood before they moved to
# integer blocks: dense rational blocks from `build_monodromy`, multiplied,
# scaled and compared entry by entry.


def ref_aux_embed(blocks, dim, which):
    out = None
    for i, j in product(range(2), repeat=2):
        e = [[Rat(1) if (r, s) == (i, j) else Rat(0) for s in range(2)]
             for r in range(2)]
        if which == "a":
            piece = kron(kron(e, identity(2)), blocks[i][j])
        else:
            piece = kron(kron(identity(2), e), blocks[i][j])
        out = piece if out is None else mat_add(out, piece)
    return out


def ref_rtt(ctx, rng):
    lhs_all, rhs_all, ok = [], [], True
    for sites in range(1, ctx.sizes["sites"] + 1):
        spec = _chain(ctx, rng.getrandbits(48), sites)
        uv, = _spectra(ctx, rng.getrandbits(48) ^ 1, [2], ["uv"], chain=spec)
        u, v = uv.values
        dim = spec.dim
        ta = ref_aux_embed(build_monodromy(spec, u), dim, "a")
        tb = ref_aux_embed(build_monodromy(spec, v), dim, "b")
        rab = kron(suites.r_matrix(u - v, ctx.c), identity(dim))
        lhs = mat_mul(rab, mat_mul(ta, tb))
        rhs = mat_mul(mat_mul(tb, ta), rab)
        ok = ok and mat_eq(lhs, rhs)
        lhs_all.append(lhs)
        rhs_all.append(rhs)
    return digest(ctx.seed), lhs_all, rhs_all, ok


def ref_monodromy_pairs(ctx, rng):
    for family in ("t", "nu"):
        spec = _chain(ctx, rng.getrandbits(48), ctx.sizes["sites"])
        params = sample_twist(rng.getrandbits(48), ctx.c)
        uv, = _spectra(ctx, rng.getrandbits(48) ^ 1, [2], ["uv"], chain=spec)
        u, v = uv.values
        twist = params if family == "nu" else None
        yield family, u, v, *(build_monodromy(spec, x, twist) for x in (u, v))


def ref_exchange(ctx, rng):
    ok = True
    collected = []
    for family, u, v, mu_, mv_ in ref_monodromy_pairs(ctx, rng):
        g = suites.kernel_g(u, v, ctx.c)
        for i, j, k, l in product(range(2), repeat=4):
            lhs = mat_sub(mat_mul(mu_[i][j], mv_[k][l]),
                          mat_mul(mv_[k][l], mu_[i][j]))
            rhs = mat_scale(g, mat_sub(mat_mul(mv_[k][j], mu_[i][l]),
                                       mat_mul(mu_[k][j], mv_[i][l])))
            ok = ok and mat_eq(lhs, rhs)
            collected.append((family, i, j, k, l))
    return digest(ctx.seed), collected, collected, ok


def ref_triangular(ctx, rng):
    ok = True
    c = ctx.c
    for _, u, v, A, B in ref_monodromy_pairs(ctx, rng):
        fvu, fuv = suites.kernel_f(v, u, c), suites.kernel_f(u, v, c)
        guv, gvu = suites.kernel_g(u, v, c), suites.kernel_g(v, u, c)
        for i, j in product(range(2), repeat=2):
            ok = ok and mat_eq(mat_mul(A[i][j], B[i][j]),
                               mat_mul(B[i][j], A[i][j]))
        lhs = mat_mul(A[0][0], B[0][1])
        rhs = mat_add(mat_scale(fvu, mat_mul(B[0][1], A[0][0])),
                      mat_scale(guv, mat_mul(A[0][1], B[0][0])))
        ok = ok and mat_eq(lhs, rhs)
        lhs = mat_mul(A[1][1], B[0][1])
        rhs = mat_add(mat_scale(fuv, mat_mul(B[0][1], A[1][1])),
                      mat_scale(gvu, mat_mul(A[0][1], B[1][1])))
        ok = ok and mat_eq(lhs, rhs)
        lhs = mat_sub(mat_mul(A[1][0], B[0][1]), mat_mul(B[0][1], A[1][0]))
        rhs = mat_scale(guv, mat_sub(mat_mul(B[0][0], A[1][1]),
                                     mat_mul(A[0][0], B[1][1])))
        ok = ok and mat_eq(lhs, rhs)
    return digest(ctx.seed), "all-relations", "all-relations", ok


def ref_multiple_exchange(ctx, rng):
    c, sz = ctx.c, ctx.sizes
    ok = True
    for family in ("t", "nu"):
        spec = _chain(ctx, rng.getrandbits(48), sz["sites"])
        params = sample_twist(rng.getrandbits(48), c)
        dim = spec.dim
        twist = params if family == "nu" else None
        blocks = {}

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
                us, vs = _spectra(ctx, rng.getrandbits(48), [n, m], ["u", "v"],
                                  chain=spec)
                wall = us.union(vs, "w")
                lhs11 = mat_mul(prodop(1, 1, us.values),
                                prodop(1, 2, vs.values))
                lhs22 = mat_mul(prodop(2, 2, us.values),
                                prodop(1, 2, vs.values))
                acc11 = acc22 = None
                for m1, m2 in enumerate_splits(n + m, 2, cards=(n, m)):
                    w1 = SpectralSet(mask_values(wall.values, m1))
                    w2 = mask_values(wall.values, m2)
                    k11 = (suites.conj_mod_izergin(1, us, w1.shifted(-c), c)
                           * set_product("f", w2, w1, c))
                    k22 = (suites.mod_izergin(1, us, w1.shifted(c), c)
                           * set_product("f", w1, w2, c))
                    op12 = prodop(1, 2, w2)
                    term11 = mat_scale(k11, mat_mul(op12, prodop(1, 1, w1.values)))
                    term22 = mat_scale(k22, mat_mul(op12, prodop(2, 2, w1.values)))
                    acc11 = term11 if acc11 is None else mat_add(acc11, term11)
                    acc22 = term22 if acc22 is None else mat_add(acc22, term22)
                sign = Rat(-1) ** n
                ok = ok and mat_eq(lhs11, mat_scale(sign, acc11))
                ok = ok and mat_eq(lhs22, mat_scale(sign, acc22))
    return digest(ctx.seed), "both-lines", "both-lines", ok


REFERENCE = {"yangian/rtt": ref_rtt,
             "yangian/exchange-relations": ref_exchange,
             "yangian/triangular-exchange": ref_triangular,
             "yangian/multiple-exchange": ref_multiple_exchange}


def untimed(record):
    return dataclasses.replace(record, elapsed=0.0)


def reference_record(monkeypatch, cfg, identity, trial=0):
    """The record `run_check` gives when the table holds the Fraction-route
    copy of `identity` in place of its check."""
    table = [(count, [(ident, sizes,
                       REFERENCE[ident] if ident == identity else check)
                      for ident, sizes, check in rows])
             for count, rows in CHECKS[SUITE]]
    with monkeypatch.context() as patch:
        patch.setitem(CHECKS, SUITE, table)
        return run_check(cfg, SUITE, identity, trial)


def config(seed, sites, c=1):
    return RunConfig(seed=seed, c=c, suites=[SUITE], sizes={SUITE: {
        "sites": sites, "struct_samples": 1, "mcr_samples": 1,
        "mcr_max": 2 if sites <= 2 else 1}})


@pytest.mark.parametrize("identity", sorted(REFERENCE))
@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_integer_route_matches_fraction_route(monkeypatch, identity, sites):
    for seed, c in ((0, 1), (1, Rat(-3, 2)), (7, Rat(2))):
        cfg = config(seed, sites, c)
        got = run_check(cfg, SUITE, identity, 0)
        want = reference_record(monkeypatch, cfg, identity)
        assert got.status == "pass"
        assert untimed(got) == untimed(want)


# Each tamper names the identities it must make fail. The label-only
# identities compute their `ok` inside the check, so a relation that
# cross-multiplies into 0 == 0 would pass under every one of these.

def negate_g(u, v, c):
    return -kernel_g(u, v, c)


def swap_f(u, v, c):
    return kernel_f(v, u, c)


def double_conj_izergin(*args, **kwargs):
    return 2 * conj_mod_izergin(*args, **kwargs)


def double_izergin(*args, **kwargs):
    return 2 * mod_izergin(*args, **kwargs)


def reversed_r(u, c):
    return r_matrix(-u, c)


TAMPERS = [
    ("kernel_g", negate_g, ["yangian/exchange-relations",
                            "yangian/triangular-exchange"]),
    ("kernel_f", swap_f, ["yangian/triangular-exchange"]),
    ("conj_mod_izergin", double_conj_izergin, ["yangian/multiple-exchange"]),
    ("mod_izergin", double_izergin, ["yangian/multiple-exchange"]),
    ("r_matrix", reversed_r, ["yangian/rtt"]),
]


@pytest.mark.parametrize("name, tamper, identities", TAMPERS,
                         ids=[t[0] for t in TAMPERS])
def test_tampered_relation_fails(monkeypatch, name, tamper, identities):
    cfg = config(3, 2)
    for identity in identities:
        assert run_check(cfg, SUITE, identity, 0).status == "pass"
    monkeypatch.setattr(suites, name, tamper)
    for identity in identities:
        got = run_check(cfg, SUITE, identity, 0)
        assert got.status == "fail", identity
        assert not got.lhs.startswith("error"), got.lhs
        assert untimed(got) == untimed(reference_record(monkeypatch, cfg,
                                                        identity))
