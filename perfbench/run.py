"""Benchmark for mbethe: three seeded workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload spfin-sum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each workload is a closed loop: one client runs one pass at a time on the
same seeded inputs until the run length is used up, and every pass checks
its outputs. `--trace 0` prints the end-to-end metrics, with times rescaled
to a fixed machine speed by a reference kernel timed between units (see
REF_SECONDS), and `--trace 1` the per-layer metrics of `tracing.py`. The
program is imported from `src/` of the checkout and driven only through its
public functions. The last line of standard output is one JSON object; the
exit code is 0 only when every check passed. See `perfbench/README.md` for
what each workload stresses.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402

WORKLOADS = ("spfin-sum", "laws", "oracle")
SETUP_REPEATS = 5
MIN_PASSES = 3
JOBS = 2

# spfin-sum: SPfin sums over all 2^SPFIN_SIZE splits on a 3-site chain, one
# per draw. The cost of one sum varies by up to 15% from draw to draw, so a
# pass sums SPFIN_DRAWS draws to keep that out of the run-to-run spread.
SPFIN_SIZE = 10
SPFIN_DRAWS = 8
SPFIN_SITES = 3
SPECTRAL_BOUND = 30
TWIST_BOUND = 9

# Pass sizes for the suite workloads: every identity runs, mostly at its
# default maximum size, with fewer trials than `mbethe verify`. The cost of
# one trial varies from seed to seed; a few trials average that.
SUITE_PASSES = {
    "laws": {
        "izergin-laws": {"samples": 3, "equiv_samples": 3, "residue_samples": 2,
                         "residue_max": 2},
        "proof-steps": {"samples": 3},
    },
    "oracle": {
        "yangian-structure": {"samples": 3, "struct_samples": 2,
                              "mcr_samples": 2, "mcr_max": 1},
        "aba-actions": {"draws": 2, "sites": 4},
        "maba-actions": {"draws": 2, "sites": 4},
        "scalar-products": {"draws": 3},
        "phi-symmetry": {"draws": 3},
    },
}

# The reference kernel: exact Gaussian elimination on a fixed matrix of
# fractions, in the benchmark's own code, so no change to the program moves
# it. It runs between the units of a pass, for about REF_SHARE of the unit's
# time, and around each set-up, and the times of a run are rescaled to the
# machine speed at which one run of the kernel takes REF_SECONDS (its
# typical time on an idle 2-vCPU Xeon VM). Other tenants of a shared machine
# slow everything down by up to a factor of two for minutes at a time; the
# kernel slows down in step with the program, so the rescaled times leave
# that out.
REF_SIZE = 7
REF_REPS = 8
REF_SECONDS = 0.004
REF_SHARE = 0.05
REF_SETUP_RUNS = 5
REF_MATRIX = [[Fraction((7 * i + 3 * j * j + 1) % 61 - 30, (5 * i + j) % 29 + 1)
               for j in range(REF_SIZE)] for i in range(REF_SIZE)]

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "work_per_s": "1/s"}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import mbethe afresh from this checkout's `src/` and return it."""
    if not (SRC / "mbethe" / "__init__.py").is_file():
        raise ProgramMissing(f"no mbethe package under {SRC}")
    for key in [k for k in sys.modules if k == "mbethe" or k.startswith("mbethe.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mbethe
    import mbethe.report
    import mbethe.suites
    if Path(mbethe.__file__).resolve().parent != (SRC / "mbethe").resolve():
        raise ProgramMissing(f"mbethe was imported from {mbethe.__file__}")
    return mbethe


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def git_commit() -> str:
    """The checked-out commit, read from `.git` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SpfinSum:
    """Twisted scalar products SPfin, each at jobs=1 and then at jobs=2."""

    name = "spfin-sum"

    def __init__(self, size: int = SPFIN_SIZE, draws: int = SPFIN_DRAWS):
        self.size = size
        self.draws = draws
        self.splits = draws << size

    def setup(self, mb, seed: int) -> None:
        self.mb = mb
        self.rejected = Counter()
        self.inputs = []
        for k in range(self.draws):
            inputs, rejected = draw_spfin(mb, f"{seed}/{k}", self.size)
            self.inputs.append(inputs)
            self.rejected.update(rejected)

    def facts(self) -> dict:
        return {"n_plus_m": self.size, "sites": SPFIN_SITES, "draws": self.draws,
                "splits": self.splits, "rejected_draws": dict(self.rejected),
                "value_digits": [len(str(x["want"])) for x in self.inputs]}

    def run_pass(self, tracer, calibrate: bool = False) -> dict:
        eval_scalar, direct_scalar = self.mb.eval_scalar, self.mb.direct_scalar
        args = [(x["u"], x["v"], x["oracle"], x["params"], x["c"])
                for x in self.inputs]
        pause = tracer.paused() if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        units = Units(calibrate)
        serial = [units.call(eval_scalar, "SPfin", *a, jobs=1) for a in args]
        with pause:  # the parent only waits here; workers are not traced
            pooled = [units.call(eval_scalar, "SPfin", *a, jobs=JOBS)
                      for a in args]
        wanted = [units.call(direct_scalar, x["spec"], x["params"],
                             "nu21", x["u"], "nu12", x["v"]) for x in self.inputs]
        t1 = time.perf_counter()
        walls = [w for w, _, _ in units.rows]
        failed = 0
        for v1, v2, want in zip(serial, pooled, wanted):
            failed += int(v1 != want or want == 0)
            failed += int((v2.numerator, v2.denominator)
                          != (v1.numerator, v1.denominator))
        return {"wall": t1 - t0, "attempted": 2 * self.draws, "failed": failed,
                "jobs1_s": sum(walls[:self.draws]),
                "jobs2_s": sum(walls[self.draws:2 * self.draws]), **units.result()}


def reference_det() -> Fraction:
    """Determinant of REF_MATRIX by exact elimination."""
    rows = [row[:] for row in REF_MATRIX]
    det = Fraction(1)
    for i in range(REF_SIZE):
        pivot = next(r for r in range(i, REF_SIZE) if rows[r][i])
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, REF_SIZE):
            factor = rows[r][i] / rows[i][i]
            for k in range(i, REF_SIZE):
                rows[r][k] -= factor * rows[i][k]
    return det


def reference_seconds(runs: int = 1) -> float:
    """Mean wall seconds of one run of the reference kernel, over `runs`.

    The garbage collector is off meanwhile, so that the objects the program
    keeps alive do not change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(runs * REF_REPS):
            reference_det()
        return (time.perf_counter() - t0) / runs
    finally:
        if enabled:
            gc.enable()


class Units:
    """Wall and CPU seconds of each unit of work of one pass, in order.

    With `calibrate`, the reference kernel runs before the first unit and
    after each unit, outside the units' own times; `speed_scale` uses it.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.ref0 = reference_seconds(REF_SETUP_RUNS) if calibrate else 0.0
        self.rows = []  # (wall, cpu, kernel seconds right after the unit)

    def call(self, fn, *args, **kwargs):
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args, **kwargs)
        finally:
            wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
            runs = max(1, round(REF_SHARE * wall / REF_SECONDS))
            ref = reference_seconds(runs) if self.calibrate else 0.0
            self.rows.append((wall, cpu, ref))

    @contextlib.contextmanager
    def checks(self, report):
        """Make every check run inside the block a unit."""
        original = report.Recorder.run

        @functools.wraps(original)
        def run(recorder, *args, **kwargs):
            return self.call(original, recorder, *args, **kwargs)

        report.Recorder.run = run
        try:
            yield
        finally:
            report.Recorder.run = original

    def result(self) -> dict:
        return {"units": self.rows, "ref0": self.ref0}


def speed_scale(result: dict) -> float:
    """The factor that takes a calibrated pass's times to the reference speed.

    Each unit's share of the pass weights the mean of the kernel times taken
    just before and just after it.
    """
    rows = result["units"]
    refs = [result["ref0"]] + [ref for _, _, ref in rows]
    wall = sum(w for w, _, _ in rows)
    ref = sum(w * (a + b) / 2 for (w, _, _), a, b in zip(rows, refs, refs[1:])) / wall
    return REF_SECONDS / ref


def draw_spfin(mb, seed, size: int):
    """Seeded SPfin inputs on which the sum is nonzero.

    Rejects twists with beta1 + beta2 = 0 or mu = 1, and any draw whose
    oracle value is 0, so no pass can check 0 against 0. Returns the inputs
    and the number of rejected draws by reason.
    """
    Rat, c = mb.Rat, mb.Rat(1)
    with_shifts = mb.scalars.with_shifts
    rng = random.Random(f"spfin-sum:{seed}")
    rejected = Counter()
    while True:
        theta = mb.sample_generic(SPFIN_SITES, seed=rng.getrandbits(48),
                                  bound=SPECTRAL_BOUND, c=c, label="theta")
        rho1, rho2, kp, km = (Rat(rng.choice((-1, 1)) * rng.randint(1, TWIST_BOUND),
                                  rng.randint(1, TWIST_BOUND)) for _ in range(4))
        if rho1 * rho2 == kp * km:
            rejected["mu-singular"] += 1
            continue
        params = mb.ModelParams(c, rho1, rho2, kp, km)
        if params.beta1 + params.beta2 == 0:
            rejected["beta1+beta2=0"] += 1
            continue
        if params.mu == 1:
            rejected["mu=1"] += 1
            continue
        n = size // 2
        u = mb.sample_generic(n, context=with_shifts(c, theta),
                              seed=rng.getrandbits(48), bound=SPECTRAL_BOUND,
                              c=c, label="u")
        v = mb.sample_generic(size - n, context=with_shifts(c, theta, u),
                              seed=rng.getrandbits(48), bound=SPECTRAL_BOUND,
                              c=c, label="v")
        spec = mb.ChainSpec(SPFIN_SITES, theta, c)
        oracle = mb.WeightOracle.fundamental(spec)
        want = mb.direct_scalar(spec, params, "nu21", u, "nu12", v)
        if want == 0:
            rejected["zero-value"] += 1
            continue
        inputs = {"c": c, "spec": spec, "params": params, "oracle": oracle,
                  "u": u, "v": v, "want": want}
        return inputs, rejected


class SuitePass:
    """`run_suites` over a fixed set of suites, with jobs=2."""

    def __init__(self, name: str, sizes: dict | None = None):
        self.name = name
        self.sizes = SUITE_PASSES[name] if sizes is None else sizes

    def setup(self, mb, seed: int) -> None:
        self.mb = mb
        self.cfg = mb.suites.RunConfig(suites=tuple(self.sizes), seed=seed,
                                       sizes=self.sizes, jobs=JOBS)
        self.digest = None

    def facts(self) -> dict:
        return {"suites": list(self.sizes), "sizes": self.sizes}

    def run_pass(self, tracer, calibrate: bool = False) -> dict:
        report = self.mb.report
        t0 = time.perf_counter()
        units = Units(calibrate)
        with units.checks(report):
            records = self.mb.suites.run_suites(self.cfg)
        wall = time.perf_counter() - t0
        stripped = report.strip_timing(report.build_report(self.cfg.to_json(), records))
        digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
        self.digest = self.digest or digest
        failed = sum(r.status != "pass" for r in records)
        if digest != self.digest:
            failed = len(records)
        return {"wall": wall, "attempted": len(records), "failed": failed,
                "digest": digest[:16], **units.result()}


def make_workload(name: str):
    return SpfinSum() if name == "spfin-sum" else SuitePass(name)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def set_up(workload, seed: int):
    """Import, draw inputs and build the oracle SETUP_REPEATS times.

    Returns the program and the time of each set-up, rescaled to the
    reference speed by the kernel times taken just before and after it.
    """
    times = []
    before = reference_seconds(REF_SETUP_RUNS)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mb = import_program()
        workload.setup(mb, seed)
        wall = time.perf_counter() - t0
        after = reference_seconds(REF_SETUP_RUNS)
        times.append(wall * REF_SECONDS / ((before + after) / 2))
        before = after
    return mb, times


def run_passes(workload, seconds: float, tracer=None, min_passes=MIN_PASSES,
               calibrate=False):
    """Run passes until the next one would end past `seconds`.

    With a tracer, each pass starts from reset totals and its per-layer
    metrics are kept with it. With `calibrate`, the reference kernel runs
    between the units of each pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        c0 = cpu_seconds()
        try:
            result = workload.run_pass(tracer, calibrate)
        except Exception as exc:  # a crash is a failed pass, reported below
            print(f"pass failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            passes.append({"crashed": True, "attempted": 1, "failed": 1})
            return passes
        result["cpu"] = cpu_seconds() - c0
        if passes and len(result["units"]) != len(passes[0]["units"]):
            print("pass ran a different number of units", file=sys.stderr)
            result["failed"] += 1
        if tracer:
            result["layers"] = tracer.layer_metrics()
        passes.append(result)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def run_traced(workload, seconds: float, tracer):
    """Traced passes alternating with untraced ones, T P T P T ...

    At least two traced passes, so that counts can be compared, and one
    untraced pass between them, so that a drift in machine speed cancels out
    of the tracing overhead.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        with tracer.installed():
            traced += run_passes(workload, 0, tracer, min_passes=1)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.get("wall", 0.0) for p in traced)
        if traced[-1].get("crashed") or (
                len(traced) >= 2 and elapsed + 2 * typical > seconds):
            return plain, traced
        plain += run_passes(workload, 0, min_passes=1)
        if plain[-1].get("crashed"):
            return plain, traced


def end_to_end(workload, passes, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(contract metrics, every end-to-end metric with its unit).

    A pass is a fixed sequence of units (checks, or SPfin sums and their
    oracle values). Times are medians over the passes, each pass's times
    rescaled to the reference speed; `pass_s_raw` and `cpu_s_raw` are the
    medians of whole passes as measured.
    """
    med = statistics.median
    for p in passes:
        p["scale"] = speed_scale(p)
        p["units_wall"] = p["scale"] * sum(w for w, _, _ in p["units"])
        p["units_cpu"] = p["scale"] * sum(c for _, c, _ in p["units"])
    pass_s = med(p["units_wall"] for p in passes)
    cpu_s = med(p["units_cpu"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    shown = {"setup_s": (setup_s, "s"), "pass_s": (pass_s, "s"),
             "cpu_s": (cpu_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
             "fail_frac": (failed / attempted, "ratio"),
             "pass_s_raw": (med(p["wall"] for p in passes), "s"),
             "cpu_s_raw": (med(p["cpu"] for p in passes), "s"),
             "ref_ms": (1e3 * med(r for p in passes for _, _, r in p["units"]), "ms")}
    if isinstance(workload, SpfinSum):
        splits = workload.splits
        shown["splits_per_s"] = (
            med(splits / (p["scale"] * p["jobs1_s"]) for p in passes), "1/s")
        shown["splits_per_s_jobs2"] = (
            med(splits / (p["scale"] * p["jobs2_s"]) for p in passes), "1/s")
        shown["speedup_jobs2"] = (med(p["jobs1_s"] / p["jobs2_s"] for p in passes), "x")
        work = shown["splits_per_s"][0]
    else:
        latencies = [p["scale"] * w for p in passes for w, _, _ in p["units"]]
        shown["checks_per_s"] = (med(p["attempted"] / p["units_wall"] for p in passes),
                                 "1/s")
        p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18]
        shown["check_p50_ms"] = (1e3 * med(latencies), "ms")
        shown["check_p95_ms"] = (1e3 * p95, "ms")
        work = shown["checks_per_s"][0]
    contract = {name: shown[name][0] for name in ("setup_s", "pass_s", "cpu_s",
                                                  "peak_rss_mb")}
    contract["work_per_s"] = work
    return contract, shown


def per_layer(workload, plain, traced) -> tuple[dict, int]:
    """Per-layer metrics of the traced passes, and how many counts differ.

    Counts must repeat exactly from pass to pass; times are medians.
    """
    first = traced[0]["layers"]
    mismatches = sum(1 for p in traced[1:] for name, value in first.items()
                     if isinstance(value, int) and p["layers"][name] != value)
    metrics = {}
    for name, value in first.items():
        if isinstance(value, int):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
    if isinstance(workload, SpfinSum):
        metrics["actions.pool_overhead_s"] = statistics.median(
            p["jobs2_s"] - p["jobs1_s"] / JOBS for p in plain)
    else:
        metrics["actions.pool_overhead_s"] = 0.0
    metrics["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in plain))
    return metrics, mismatches


def machine_facts(mb, workload, seed: int, trace: int) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "rational_backend": mb.scalars.Rat.__module__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "commit": git_commit(),
        "jobs": JOBS,
        **workload.facts(),
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    workload = make_workload(name)
    try:
        mb, setup_times = set_up(workload, seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts(mb, workload, seed, trace)
    OUT.mkdir(exist_ok=True)
    metrics, shown, mismatches = {}, {}, 0
    if trace:
        tracer = Tracer()
        plain, traced = run_traced(workload, seconds, tracer)
        passes = plain + traced
        if not any(p.get("crashed") for p in passes):
            metrics, mismatches = per_layer(workload, plain, traced)
            shown = {k: (v, unit_of(k)) for k, v in metrics.items()}
        facts["count_mismatches"] = mismatches
        facts["traced_passes"] = len(traced)
        trace_file = OUT / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps(tracer.dump(), indent=1) + "\n")
        facts["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        passes = run_passes(workload, seconds, calibrate=True)
        rss_mb = peak_rss_mb()
        # Set up again after the passes, so that the median spans the run.
        setup_times += set_up(workload, seed)[1]
        if not any(p.get("crashed") for p in passes):
            metrics, shown = end_to_end(workload, passes,
                                        statistics.median(setup_times), rss_mb)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + mismatches
    facts["passes"] = len(passes)
    facts["setup_repeats"] = len(setup_times)
    if "digest" in passes[0]:
        facts["report_digest"] = passes[0]["digest"]

    print(f"# perfbench {name} seed={seed} trace={trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    for metric, (value, unit) in shown.items():
        print(f"{metric:40s} {value:14.6f} {unit}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in metrics.items()}}
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"facts": facts, "shown": shown, "result": result,
                    "passes": [{k: v for k, v in p.items() if k != "layers"}
                               for p in passes]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
