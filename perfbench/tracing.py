"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces public functions of `mbethe` with wrappers at every name
where callers look them up: module globals that hold the function (for
example `mbethe.izergin.det`, which `DetTables` calls), module-level dicts
that hold it as a value (`mbethe.scalars._KERNELS`, `mbethe.suites.SUITES`),
and class attributes (`mbethe.izergin.DetTables.k_plus`). Nothing under
`src/` changes; `installed()` puts every original back on exit.

A span is one call of a wrapped function. Spans nest: a span's self time is
its duration minus the time covered by the spans it caused. Each call of
`Recorder.run` is a request span and its check id (suite/identity#trial) is
the identifier that every span inside it shares. Spans stay in memory as
per-layer totals and per-request totals, and `dump()` writes them out.

Work inside pool worker processes is not traced: a forked worker inherits
the wrappers, but its totals die with it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, layer) for every timed span. Several functions
# may share one layer; their calls, busy time and self time add up.
SPANS = [
    ("scalars", "set_product", "scalars.set_product"),
    ("scalars", "sample_generic", "scalars.sample_generic"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "kron", "linalg.kron"),
    ("izergin", "DetTables.__init__", "izergin.DetTables.init"),
    ("izergin", "DetTables.k_plus", "izergin.DetTables.rows"),
    ("izergin", "DetTables.k_minus_conj", "izergin.DetTables.rows"),
    ("izergin", "DetTables.f_between", "izergin.DetTables.f_between"),
    ("izergin", "mod_izergin", "izergin.direct_det"),
    ("izergin", "conj_mod_izergin", "izergin.direct_det"),
    ("izergin", "izergin_partition_sum", "izergin.partition_sums"),
    ("izergin", "izergin_convolution", "izergin.partition_sums"),
    ("izergin", "izergin_deformation_sum", "izergin.partition_sums"),
    ("izergin", "residue_check", "izergin.residue_check"),
    ("ratfunc", "rational_interpolate", "ratfunc.rational_interpolate"),
    ("chain", "monodromy_columns", "chain.monodromy_columns"),
    ("chain", "apply_entry_product", "chain.apply_entry_product"),
    ("chain", "build_monodromy", "chain.build_monodromy"),
    ("chain", "direct_scalar", "chain.direct_scalar"),
    ("actions", "eval_scalar", "actions.eval_scalar"),
    ("actions", "eval_action", "actions.eval_action"),
    ("actions", "ActionResult.materialize", "actions.materialize"),
    ("report", "digest", "report.digest"),
    ("suites", "run_izergin_laws", "suites.suite"),
    ("suites", "run_yangian_structure", "suites.suite"),
    ("suites", "run_aba_actions", "suites.suite"),
    ("suites", "run_maba_actions", "suites.suite"),
    ("suites", "run_scalar_products", "suites.suite"),
    ("suites", "run_phi_symmetry", "suites.suite"),
    ("suites", "run_proof_steps", "suites.suite"),
]

# Functions that are only counted: they are called millions of times, and a
# span each would cost more than the work it measures.
COUNTED = [
    ("scalars", "kernel_f", "scalars.kernel"),
    ("scalars", "kernel_g", "scalars.kernel"),
    ("scalars", "kernel_h", "scalars.kernel"),
]

# Wrapped specially: determinants are a span counted by matrix size, split
# enumeration is a generator and only counted, and each check is a request.
DET = ("linalg", "det")
DET_SIZES = range(1, 9)
SPLITS = ("partitions", "enumerate_splits")
REQUEST = ("report", "Recorder.run", "report.checks")


def _resolve(module: str, path: str):
    owner = sys.modules[f"mbethe.{module}"]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Span and count totals for one traced stretch of work."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.requests: list = []
        self._stack: list = []      # child time covered, one cell per open span
        self._depth: Counter = Counter()
        self._request = None
        self._paused = 0

    def reset(self) -> None:
        """Forget all totals; wrappers keep recording into the same tracer."""
        for totals in (self.calls, self.busy, self.self_time, self.counts,
                       self.requests):
            totals.clear()

    # -- recording -------------------------------------------------------

    def _enter(self, layer):
        self._depth[layer] += 1
        self._stack.append([0.0])
        return time.perf_counter()

    def _exit(self, layer, start):
        elapsed = time.perf_counter() - start
        covered = self._stack.pop()[0]
        self._depth[layer] -= 1
        self.calls[layer] += 1
        self.self_time[layer] += elapsed - covered
        if self._depth[layer] == 0:   # count a recursive layer once
            self.busy[layer] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed
        if self._request is not None:
            self._request["layers"][layer] += elapsed - covered
        return elapsed

    def span(self, layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            start = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(layer, start)
        return wrapper

    def request_span(self, layer, fn):
        tracer = self

        def wrapper(recorder, identity, trial, *args, **kwargs):
            if tracer._paused:
                return fn(recorder, identity, trial, *args, **kwargs)
            outer = tracer._request
            tracer._request = {"id": f"{recorder.suite}/{identity}#{trial}",
                               "layers": defaultdict(float)}
            start = tracer._enter(layer)
            try:
                return fn(recorder, identity, trial, *args, **kwargs)
            finally:
                request = tracer._request
                request["start"] = start
                request["end"] = start + tracer._exit(layer, start)
                tracer.requests.append(request)
                tracer._request = outer
        return wrapper

    def counted(self, name, fn):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not tracer._paused:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_det(self, fn):
        span = self.span("linalg.det", fn)
        counts = self.counts

        def wrapper(matrix):
            if not self._paused:
                counts[f"linalg.det.n{len(matrix)}"] += 1
            return span(matrix)
        return wrapper

    def counted_splits(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                yield from fn(*args, **kwargs)
                return
            tracer.counts["partitions.enumerate_splits.calls"] += 1
            for split in fn(*args, **kwargs):
                tracer.counts["partitions.splits"] += 1
                yield split
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the parent waits on a pool."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installation ----------------------------------------------------

    def _wrappers(self):
        """(owner, attribute, original, wrapper) for everything traced."""
        makers = [(m, p, functools.partial(self.span, layer)) for m, p, layer in SPANS]
        makers += [(m, p, functools.partial(self.counted, n)) for m, p, n in COUNTED]
        makers += [(*DET, self.counted_det), (*SPLITS, self.counted_splits),
                   (*REQUEST[:2], functools.partial(self.request_span, REQUEST[2]))]
        for module, path, make in makers:
            owner, name = _resolve(module, path)
            original = getattr(owner, name)
            yield owner, name, original, make(original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever mbethe looks it up."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "mbethe" or key.startswith("mbethe.")]
        undo = []

        def replace(container, key, new):
            if isinstance(container, dict):
                undo.append((container.__setitem__, key, container[key]))
                container[key] = new
            else:
                undo.append((functools.partial(setattr, container), key,
                             getattr(container, key)))
                setattr(container, key, new)

        try:
            for owner, name, original, wrapper in list(self._wrappers()):
                if isinstance(owner, type):
                    replace(owner, name, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            replace(module, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    replace(value, k, wrapper)
            yield self
        finally:
            for setter, key, original in reversed(undo):
                setter(key, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy times and self times for one pass."""
        c, b, s, n = self.calls, self.busy, self.self_time, self.counts
        out = {
            "scalars.kernel.calls": n["scalars.kernel"],
            "scalars.set_product.calls": c["scalars.set_product"],
            "scalars.set_product.self_s": s["scalars.set_product"],
            "scalars.sample_generic.busy_s": b["scalars.sample_generic"],
            "linalg.det.calls": c["linalg.det"],
            "linalg.det.busy_s": b["linalg.det"],
        }
        for size in DET_SIZES:
            out[f"linalg.det.n{size}"] = n[f"linalg.det.n{size}"]
        out.update({
            "linalg.mat_mul.busy_s": b["linalg.mat_mul"],
            "linalg.kron.busy_s": b["linalg.kron"],
            "izergin.DetTables.init_s": b["izergin.DetTables.init"],
            "izergin.DetTables.k.calls": c["izergin.DetTables.rows"],
            "izergin.DetTables.rows_self_s": s["izergin.DetTables.rows"],
            "izergin.DetTables.f_between.busy_s": b["izergin.DetTables.f_between"],
            "izergin.direct_det.calls": c["izergin.direct_det"],
            "izergin.direct_det.self_s": s["izergin.direct_det"],
            "izergin.partition_sums.busy_s": b["izergin.partition_sums"],
            "izergin.residue_check.busy_s": b["izergin.residue_check"],
            "ratfunc.rational_interpolate.calls": c["ratfunc.rational_interpolate"],
            "ratfunc.rational_interpolate.busy_s": b["ratfunc.rational_interpolate"],
            "partitions.enumerate_splits.calls": n["partitions.enumerate_splits.calls"],
            "partitions.splits": n["partitions.splits"],
            "chain.monodromy_columns.calls": c["chain.monodromy_columns"],
            "chain.monodromy_columns.busy_s": b["chain.monodromy_columns"],
            "chain.apply_entry_product.busy_s": b["chain.apply_entry_product"],
            "chain.build_monodromy.busy_s": b["chain.build_monodromy"],
            "chain.direct_scalar.busy_s": b["chain.direct_scalar"],
            "actions.eval_scalar.self_s": s["actions.eval_scalar"],
            "actions.eval_action.self_s": s["actions.eval_action"],
            "actions.materialize.busy_s": b["actions.materialize"],
            "report.checks": c["report.checks"],
            "report.digest.busy_s": b["report.digest"],
            "suites.glue_self_s": s["suites.suite"] + s["report.checks"],
        })
        return out

    def dump(self) -> dict:
        """Everything recorded, for writing to a trace file."""
        layers = sorted(set(self.calls) | set(self.counts))
        return {
            "layers": {name: {"calls": self.calls[name] or self.counts[name],
                              "busy_s": self.busy.get(name, 0.0),
                              "self_s": self.self_time.get(name, 0.0)}
                       for name in layers},
            "requests": [{"id": r["id"], "start": r["start"], "end": r["end"],
                          "self_s": dict(r["layers"])} for r in self.requests],
        }
