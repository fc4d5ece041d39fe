"""Timing harness for the twisted scalar-product partition sum.

Times the formula only, sweeping worker counts; exact rational reduction
makes the result bit-identical at every parallelism level, which the harness
asserts and records. Each size's value is also compared, untimed, with the
chain oracle on the 3-site chain, and a value of 0 is flagged, so that a
timing row cannot stand for a wrong or vacuous sum.
"""

from __future__ import annotations

import time

from .actions import WeightOracle, eval_scalar
from .chain import ChainSpec, direct_scalar
from .report import digest
from .scalars import Rat, sample_generic, sample_twist, with_shifts


def bench_sizes(max_size: int) -> list:
    if max_size >= 10:
        return list(range(10, max_size + 1))
    return [max_size]


def jobs_sweep(max_jobs: int) -> list:
    out = [1]
    while out[-1] * 2 <= max_jobs:
        out.append(out[-1] * 2)
    if out[-1] != max_jobs:
        out.append(max_jobs)
    return out


def run_bench(sizes, jobs_list, seed: int = 0) -> dict:
    """Time the twisted scalar product at each size for each worker count,
    and check each value against the chain oracle. The coupling is c = 1 and
    sampled parameters have numerators and denominators bounded by 30."""
    c, bound = Rat(1), 30
    rows = []
    consistent = True
    for size in sizes:
        theta = sample_generic(3, seed=seed ^ size, bound=bound, c=c,
                               label="theta")
        spec = ChainSpec(3, theta, c)
        oracle = WeightOracle.fundamental(spec)
        params = sample_twist(seed ^ size ^ 0x7157, c)
        n = size // 2
        us = sample_generic(n, context=with_shifts(c, theta), seed=seed + 1,
                            bound=bound, c=c, label="u")
        vs = sample_generic(size - n, context=with_shifts(c, theta, us),
                            seed=seed + 2, bound=bound, c=c, label="v")
        splits = 1 << size
        want = direct_scalar(spec, params, "nu21", us, "nu12", vs)
        reference = None
        base_seconds = None
        for jobs in jobs_list:
            start = time.perf_counter()
            value = eval_scalar("SPfin", us, vs, oracle, params, c, jobs=jobs)
            seconds = time.perf_counter() - start
            if reference is None:
                reference = value
                base_seconds = seconds
            elif value != reference:
                consistent = False
            rows.append({
                "size": size,
                "splits": splits,
                "jobs": jobs,
                "seconds": round(seconds, 4),
                "splits_per_sec": round(splits / seconds, 1),
                "speedup": round(base_seconds / seconds, 3),
                "value_digest": digest(value),
                "identical_to_serial": value == reference,
                "oracle_match": value == want,
                "value_is_zero": value == 0,
            })
    return {"rows": rows, "consistent": consistent}
