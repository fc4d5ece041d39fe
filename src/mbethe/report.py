"""Machine-readable run reports.

A report is one JSON object with a `records` array (append-ordered
deterministically by suite, identity, trial), a `summary` object and a
`machine` block naming the rational backend, Python version and core count
the run used. Rationals serialize as 'p/q' strings; larger objects (vectors,
coefficient maps, value grids) appear as sha256 digests of their canonical
serialization.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass

from .scalars import Rat, SpectralSet, rat_str


def canonical(obj) -> str:
    """Deterministic string form used for digests."""
    if isinstance(obj, Rat):
        return rat_str(obj)
    if isinstance(obj, SpectralSet):
        return "[" + ",".join(rat_str(v) for v in obj.values) + "]"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), canonical(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, bool) or obj is None:
        return str(obj)
    if isinstance(obj, (int, str)):
        return str(obj)
    if hasattr(obj, "items"):
        return canonical(dict(obj.items()))
    return repr(obj)


def digest(*objs) -> str:
    h = hashlib.sha256("|".join(canonical(o) for o in objs).encode())
    return "sha256:" + h.hexdigest()[:16]


def render_value(value) -> str:
    """Scalar rationals inline; everything else digested."""
    if isinstance(value, (Rat, int)):
        return rat_str(value)
    if isinstance(value, str):
        return value
    return digest(value)


# The params digest of a check that raised; its lhs then holds the error.
ERROR_DIGEST = "sha256:error"


def derive_seed(master: int, suite: str, identity: str, trial: int) -> int:
    h = hashlib.sha256(f"{master}:{suite}:{identity}:{trial}".encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


@dataclass
class CheckRecord:
    suite: str
    identity: str
    sizes: dict
    trial: int
    seed: int
    params_digest: str
    status: str
    lhs: str
    rhs: str
    elapsed: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class Recorder:
    """Runs the checks of one suite, each with its derived seed."""

    suite: str
    master_seed: int

    def run(self, identity: str, trial: int, sizes: dict, fn) -> CheckRecord:
        """Execute one check; fn(seed) -> (params_digest, lhs, rhs, ok)."""
        seed = derive_seed(self.master_seed, self.suite, identity, trial)
        start = time.perf_counter()
        try:
            params_digest, lhs, rhs, ok = fn(seed)
        except Exception as exc:  # an identity check must never crash the run
            params_digest = ERROR_DIGEST
            lhs, rhs = f"error: {type(exc).__name__}: {exc}", ""
            ok = False
        elapsed = time.perf_counter() - start
        return CheckRecord(self.suite, identity, sizes, trial, seed,
                           params_digest, "pass" if ok else "fail",
                           render_value(lhs), render_value(rhs),
                           round(elapsed, 6))


def machine_facts() -> dict:
    """The machine facts a run's timings depend on: the module that provides
    `Rat`, the Python version and the number of usable cores."""
    if hasattr(os, "sched_getaffinity"):
        nproc = len(os.sched_getaffinity(0))
    else:
        nproc = os.cpu_count()
    return {"rational_backend": Rat.__module__,
            "python": platform.python_version(),
            "nproc": nproc}


def build_report(config_json: dict, records: list) -> dict:
    summary_suites: dict = {}
    passed = failed = 0
    for rec in records:
        bucket = summary_suites.setdefault(rec.suite, {"passed": 0, "failed": 0})
        if rec.status == "pass":
            bucket["passed"] += 1
            passed += 1
        else:
            bucket["failed"] += 1
            failed += 1
    return {
        "config": config_json,
        "records": [r.to_json() for r in records],
        "summary": {
            "total": passed + failed,
            "passed": passed,
            "failed": failed,
            "suites": summary_suites,
            "exit_code": 0 if failed == 0 else 1,
        },
        "machine": machine_facts(),
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def strip_timing(report: dict) -> dict:
    """Copy of a report with elapsed fields zeroed and the machine block
    dropped, since both depend on the machine (reproducibility compares)."""
    clone = json.loads(json.dumps(report))
    clone.pop("machine", None)
    for rec in clone.get("records", []):
        rec["elapsed"] = 0.0
    return clone
