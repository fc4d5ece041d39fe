"""Deterministic parallel evaluation of a large partition sum.

The twisted scalar-product formula at n + m = 12 sums 4096 split terms. The
split stream is range-partitioned by rank: the caller sums the first range,
and one forked child per other range sums that range and sends its partial
back through a pipe. Because exact rational addition is associative and
commutative, every worker count yields the bit-identical total. Throughput
is reported per split.
"""

import time

from mbethe import (ChainSpec, ModelParams, Rat, WeightOracle, eval_scalar,
                    rat_str, sample_generic)
from mbethe.scalars import with_shifts

c = Rat(1)
theta = sample_generic(3, seed=41, c=c, bound=20, label="theta")
spec = ChainSpec(3, theta, c)
oracle = WeightOracle.fundamental(spec)
params = ModelParams(c, Rat(1, 2), Rat(2, 3), Rat(3), Rat(5, 2))

size = 12
n = size // 2
us = sample_generic(n, context=with_shifts(c, theta), seed=42, c=c, bound=20,
                    label="u")
vs = sample_generic(size - n, context=with_shifts(c, theta, us), seed=43, c=c,
                    bound=20, label="v")

print(f"twisted scalar product at n + m = {size}: {1 << size} splits")
reference = None
for jobs in (1, 2, 4):
    start = time.perf_counter()
    value = eval_scalar("SPfin", us, vs, oracle, params, c, jobs=jobs)
    elapsed = time.perf_counter() - start
    if reference is None:
        reference = value
    print(f"  jobs={jobs}: {elapsed:6.2f}s, {(1 << size) / elapsed:8.0f} "
          f"splits/s, identical to serial: {value == reference}")

digits = len(str(reference.numerator)) + len(str(reference.denominator))
print(f"\nexact value has {digits} digits across numerator and denominator;")
print(f"leading part: {rat_str(reference)[:60]}...")
