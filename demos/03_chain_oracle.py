"""The brute-force spin-chain oracle.

Builds the inhomogeneous monodromy matrix explicitly on the 2^N chain space,
checks the structural relations (Yang-Baxter, RTT, the exchange algebra), and
shows how the non-diagonal twist changes the vacuum actions while leaving
the algebra untouched.
"""

from mbethe import (ChainSpec, ModelParams, Rat, build_monodromy, r_matrix,
                    rat_str, sample_generic, twist_pair, vacuum_state,
                    vacuum_weights)
from mbethe.chain import apply_nu, apply_t
from mbethe.linalg import identity, kron, mat_add, mat_eq, mat_mul
from mbethe.scalars import with_shifts

c = Rat(1)

print("== R-matrix ==")
print("R(0) is the permutation:", r_matrix(0, c)[1][2] == 1)
u, v, w = sample_generic(3, seed=1, c=c, bound=20).values
# R12 = R (x) 1 and R23 = 1 (x) R; R13 conjugates R (x) 1 by the swap P23
one, p23 = identity(2), kron(identity(2), r_matrix(0, c))
r12 = kron(r_matrix(u - v, c), one)
r13 = mat_mul(mat_mul(p23, kron(r_matrix(u - w, c), one)), p23)
r23 = kron(one, r_matrix(v - w, c))
print("Yang-Baxter on C^8  :",
      mat_eq(mat_mul(mat_mul(r12, r13), r23), mat_mul(mat_mul(r23, r13), r12)))

print("\n== monodromy at N = 3 ==")
theta = sample_generic(3, seed=2, c=c, bound=20, label="theta")
spec = ChainSpec(3, theta, c)
x = sample_generic(1, context=with_shifts(c, theta), seed=3, c=c, bound=20)[0]
vac = vacuum_state(spec)
lam1, lam2 = vacuum_weights(spec, x)
print(f"vacuum eigenvalues at u = {rat_str(x)}: "
      f"lambda1 = {rat_str(lam1)}, lambda2 = {rat_str(lam2)}")
print("t21 annihilates |0> :", all(e == 0 for e in apply_t(spec, 2, 1, x, vac)))
print("t11 |0> = lambda1|0>:",
      apply_t(spec, 1, 1, x, vac) == [lam1 * e for e in vac])

t_u = build_monodromy(spec, u)
t_v = build_monodromy(spec, v)


def embed(blocks, which):
    out = None
    for i in range(2):
        for j in range(2):
            e = [[Rat(1) if (r, s) == (i, j) else Rat(0) for s in range(2)]
                 for r in range(2)]
            aux = kron(e, identity(2)) if which == "a" else kron(identity(2), e)
            piece = kron(aux, blocks[i][j])
            out = piece if out is None else mat_add(out, piece)
    return out


rab = kron(r_matrix(u - v, c), identity(spec.dim))
ta, tb = embed(t_u, "a"), embed(t_v, "b")
print("RTT exchange holds  :",
      mat_eq(mat_mul(rab, mat_mul(ta, tb)), mat_mul(mat_mul(tb, ta), rab)))

print("\n== twisted operators ==")
params = ModelParams(c, rho1=Rat(1, 2), rho2=Rat(2, 3),
                     kappa_plus=Rat(3), kappa_minus=Rat(5, 2))
pair = twist_pair(params)
print(f"mu = {rat_str(pair.mu)}, det A0 = {rat_str(pair.det_a0)}, "
      f"det B0 = {rat_str(pair.det_b0)}")
b1, b2 = params.beta1, params.beta2
nu12 = apply_nu(spec, params, 1, 2, x, vac)
nu11 = apply_nu(spec, params, 1, 1, x, vac)
print("nu11|0> = lambda1|0> + beta2 nu12|0>:",
      nu11 == [lam1 * a + b2 * b for a, b in zip(vac, nu12)])
nu21 = apply_nu(spec, params, 2, 1, x, vac)
print("nu21|0> picks up both weights      :",
      nu21 == [(b1 * lam1 + b2 * lam2) * a + b1 * b2 * b
               for a, b in zip(vac, nu12)])
print("the twist changes vacuum actions but not the exchange algebra.")
