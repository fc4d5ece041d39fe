"""Command-line batch harness.

Subcommands:
  verify  run registered identity suites with seeded sampling, emit a JSON
          report; exit 0 when every check passes, 1 on any failure, 2 on
          invalid configuration.
  scalar  evaluate one scalar product by a chosen closed formula and by the
          brute-force chain oracle, print both and the verdict.
  bench   time the twisted scalar-product partition sum over a size range and
          a worker-count sweep.

`verify` also accepts a JSON config file mirroring the run-configuration
fields; explicit command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import bench_sizes, jobs_sweep, run_bench
from .chain import MAX_SITES, ChainSpec, direct_scalar, twist_pair
from .actions import WeightOracle, eval_scalar
from .errors import CardinalityError, ConfigError, DomainError, MbetheError
from .partitions import MAX_GROUND, MAX_JOBS
from .report import ERROR_DIGEST, build_report, machine_facts, write_report
from .scalars import ModelParams, Rat, rat_str, sample_generic, with_shifts
from .suites import SUITES, RunConfig, config_number, run_suites

SCALAR_FORMS = ("SCe", "SCbe", "SPfin", "SPfinIK")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbethe",
        description="exact verification of twisted-chain Bethe-vector identities")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run identity suites")
    ver.add_argument("--suite", action="append", dest="suites",
                     metavar="NAME", help="suite to run (repeatable); "
                     f"default: all of {', '.join(SUITES)}")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--c", default=None, metavar="P/Q",
                     help="kernel constant (default 1)")
    ver.add_argument("--bound", type=int, default=None,
                     help="numerator/denominator bound for sampled rationals")
    ver.add_argument("--jobs", type=int, default=None)
    ver.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON report here")
    ver.add_argument("--config", default=None, metavar="PATH",
                     help="JSON config file; flags override its values")

    sca = sub.add_parser("scalar", help="one scalar product, formula vs oracle")
    sca.add_argument("--n", type=int, required=True)
    sca.add_argument("--m", type=int, required=True)
    sca.add_argument("--sites", type=int, required=True)
    sca.add_argument("--form", choices=SCALAR_FORMS, default="SPfin")
    sca.add_argument("--rho1", default="1/2")
    sca.add_argument("--rho2", default="2/3")
    sca.add_argument("--kp", default="3")
    sca.add_argument("--km", default="5/2")
    sca.add_argument("--seed", type=int, default=0)
    sca.add_argument("--c", default="1")
    sca.add_argument("--bound", type=int, default=30)
    sca.add_argument("--report", default=None, metavar="PATH")

    ben = sub.add_parser("bench", help="time the twisted scalar-product sum")
    ben.add_argument("--max-size", type=int, default=16,
                     help="largest n+m (sizes run from 10 up)")
    ben.add_argument("--size", type=int, action="append", dest="exact_sizes",
                     help="exact size to run (repeatable; overrides --max-size)")
    ben.add_argument("--jobs", type=int, default=8,
                     help="largest worker count in the sweep")
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--report", default=None, metavar="PATH")
    return parser


def cmd_verify(args) -> int:
    values = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(values, dict):
            raise ConfigError("config file must hold one JSON object")
        unknown = set(values) - set(RunConfig().to_json())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = {"suites": args.suites, "seed": args.seed, "c": args.c,
             "bound": args.bound, "parallelism": args.jobs,
             "report_path": args.report}
    values.update({key: v for key, v in flags.items() if v is not None})
    if "parallelism" in values:
        values["jobs"] = values.pop("parallelism")
    cfg = RunConfig(**values)
    records = run_suites(cfg)
    report = build_report(cfg.to_json(), records)
    if cfg.report_path:
        write_report(report, cfg.report_path)
    failures = [r for r in records if r.status == "fail"]
    by_suite = report["summary"]["suites"]
    for suite in cfg.suites:
        stats = by_suite.get(suite, {"passed": 0, "failed": 0})
        print(f"{suite}: {stats['passed']} passed, {stats['failed']} failed")
    for rec in failures:
        detail = (rec.lhs if rec.params_digest == ERROR_DIGEST
                  else f"lhs={rec.lhs} rhs={rec.rhs}")
        print(f"FAIL {rec.suite}/{rec.identity} trial={rec.trial} "
              f"seed={rec.seed}: {detail}", file=sys.stderr)
    total = report["summary"]
    print(f"total: {total['passed']}/{total['total']} passed")
    return 0 if not failures else 1


def cmd_scalar(args) -> int:
    if args.n < 0 or args.m < 0:
        raise ConfigError("--n and --m must be nonnegative")
    if args.n + args.m > MAX_GROUND:
        raise ConfigError(f"--n plus --m must be at most {MAX_GROUND}, "
                          f"got {args.n + args.m}")
    if not 1 <= args.sites <= MAX_SITES:
        raise ConfigError(f"--sites must lie in 1..{MAX_SITES}, got {args.sites}")
    c, rho1, rho2, kp, km = (config_number(Rat, getattr(args, key), f"--{key}")
                             for key in ("c", "rho1", "rho2", "kp", "km"))
    theta = sample_generic(args.sites, seed=args.seed ^ 0x7E7A, bound=args.bound,
                           c=c, label="theta")
    spec = ChainSpec(args.sites, theta, c)
    params = ModelParams(c, rho1, rho2, kp, km)
    oracle = WeightOracle.fundamental(spec)
    us = sample_generic(args.n, context=with_shifts(c, theta),
                        seed=args.seed + 1, bound=args.bound, c=c, label="u")
    vs = sample_generic(args.m, context=with_shifts(c, theta, us),
                        seed=args.seed + 2, bound=args.bound, c=c, label="v")
    try:
        if args.form in ("SCe", "SCbe"):
            formula = eval_scalar(args.form, us, vs, oracle, None, c)
            oracle_value = direct_scalar(spec, None, "t21", us, "t12", vs)
        else:
            formula = eval_scalar(args.form, us, vs, oracle, params, c)
            oracle_value = direct_scalar(spec, params, "nu21", us, "nu12", vs)
    except CardinalityError as exc:
        raise ConfigError(str(exc))
    verdict = "PASS" if formula == oracle_value else "FAIL"
    print(f"form     : {args.form}  (n={args.n}, m={args.m}, sites={args.sites})")
    print(f"twist    : mu={rat_str(params.mu)} beta1={rat_str(params.beta1)} "
          f"beta2={rat_str(params.beta2)}")
    print(f"formula  : {rat_str(formula)}")
    print(f"oracle   : {rat_str(oracle_value)}")
    print(f"verdict  : {rat_str(formula)} = {rat_str(oracle_value)}, {verdict}"
          if verdict == "PASS" else f"verdict  : mismatch, {verdict}")
    if args.report:
        record = {
            "command": "scalar",
            "form": args.form,
            "sizes": {"n": args.n, "m": args.m, "sites": args.sites},
            "seed": args.seed,
            "c": rat_str(c),
            "twist": {"rho1": rat_str(params.rho1), "rho2": rat_str(params.rho2),
                      "kappa_plus": rat_str(params.kappa_plus),
                      "kappa_minus": rat_str(params.kappa_minus),
                      "mu": rat_str(params.mu),
                      "det_a0": rat_str(twist_pair(params).det_a0),
                      "det_b0": rat_str(twist_pair(params).det_b0)},
            "formula": rat_str(formula),
            "oracle": rat_str(oracle_value),
            "status": "pass" if verdict == "PASS" else "fail",
            "machine": machine_facts(),
        }
        write_report(record, args.report)
    return 0 if verdict == "PASS" else 1


def cmd_bench(args) -> int:
    sizes = args.exact_sizes if args.exact_sizes else bench_sizes(args.max_size)
    if not 1 <= args.jobs <= MAX_JOBS:
        raise ConfigError(f"--jobs must lie in 1..{MAX_JOBS}, got {args.jobs}")
    bad = [size for size in sizes if not 0 <= size <= MAX_GROUND]
    if bad:
        raise ConfigError(f"bench sizes must lie in 0..{MAX_GROUND}, got {bad}")
    sweep = jobs_sweep(args.jobs)
    result = run_bench(sizes, sweep, seed=args.seed)
    print(f"{'size':>4} {'splits':>7} {'jobs':>4} {'seconds':>9} "
          f"{'splits/s':>10} {'speedup':>8}  identical  oracle  zero")
    for row in result["rows"]:
        print(f"{row['size']:>4} {row['splits']:>7} {row['jobs']:>4} "
              f"{row['seconds']:>9.3f} {row['splits_per_sec']:>10.1f} "
              f"{row['speedup']:>8.3f}  {str(row['identical_to_serial']):<9}  "
              f"{str(row['oracle_match']):<6}  {row['value_is_zero']}")
    print(f"consistent across worker counts: {result['consistent']}")
    matched = all(row["oracle_match"] for row in result["rows"])
    print(f"every value matches the chain oracle: {matched}")
    if args.report:
        write_report({"command": "bench", "jobs_sweep": sweep,
                      "sizes": list(sizes), **result,
                      "machine": machine_facts()}, args.report)
    return 0 if result["consistent"] and matched else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "scalar":
            return cmd_scalar(args)
        return cmd_bench(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MbetheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
