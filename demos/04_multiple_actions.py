"""Multiple-action formulas against the oracle.

Every action of a product of monodromy entries on a Bethe-type state is a
sum over splits of the merged parameter set, weighted by vacuum weights,
kernel products, and (deformed) determinants. The evaluators return those
coefficient maps; materializing them on the chain must reproduce the direct
operator application exactly.
"""

from mbethe import (ChainSpec, ModelParams, Rat, WeightOracle, eval_action,
                    sample_generic, vacuum_state)
from mbethe.chain import apply_entry_product
from mbethe.scalars import with_shifts

c = Rat(1)
theta = sample_generic(3, seed=21, c=c, bound=20, label="theta")
spec = ChainSpec(3, theta, c)
oracle = WeightOracle.fundamental(spec)
params = ModelParams(c, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))

us = sample_generic(2, context=with_shifts(c, theta), seed=22, c=c, bound=20,
                    label="u")
vs = sample_generic(2, context=with_shifts(c, theta, us), seed=23, c=c,
                    bound=20, label="v")

print("== coefficient map of a twisted diagonal action ==")
result = eval_action("nu11", us, vs, oracle, params, c)
for tags, value in result.coeff_table():
    print(f"  survivors {tags}: {value}")
print("splits whose consumed part exceeds #u vanish through the determinant.")

print("\n== materialization equals direct operator application ==")
for kind in ("t11", "t22", "t21", "nu11", "nu22", "nu21"):
    twist = params if kind.startswith("nu") else None
    res = eval_action(kind, us, vs, oracle, twist, c)
    family = "t12" if kind.startswith("t") else "nu12"
    direct = apply_entry_product(spec, twist, family, vs, vacuum_state(spec))
    direct = apply_entry_product(spec, twist, kind, us, direct)
    print(f"  {kind}: {res.materialize(spec, twist) == direct}")

print("\n== creation reduction in a finite-dimensional representation ==")
# with #u + #v past the reduction order, products of creation operators
# collapse to exactly order-many of them
res = eval_action("nu12", us, vs, oracle, params, c)
print(f"reduction order S = {oracle.reduction_order}, #u + #v = 4")
print(f"surviving subsets all have size {oracle.reduction_order}:",
      all(len(tags) == oracle.reduction_order
          for tags, _ in res.coeff_table()))
direct = apply_entry_product(spec, params, "nu12", vs, vacuum_state(spec))
direct = apply_entry_product(spec, params, "nu12", us, direct)
print("matches the oracle:", res.materialize(spec, params) == direct)
