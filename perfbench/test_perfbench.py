"""Tests of the benchmark itself: steady traced counts, the SPfin input
generator, wrapper removal, and refusal to run without the program.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "spfin-sum": lambda: run.SpfinSum(size=7, draws=2),
    "laws": lambda: run.SuitePass("laws", {
        "izergin-laws": {"samples": 1, "equiv_samples": 1, "residue_samples": 1,
                         "max_n": 2, "max_m": 2, "equiv_max": 3, "residue_max": 1,
                         "conv_len": 2},
        "proof-steps": {"samples": 1, "max_size": 4}}),
    "oracle": lambda: run.SuitePass("oracle", {
        "yangian-structure": {"samples": 1, "struct_samples": 1,
                              "mcr_samples": 1, "mcr_max": 1, "sites": 2},
        "scalar-products": {"draws": 1, "sites": 2, "total_max": 3,
                            "avg_max": 2, "red_max": 2},
        "phi-symmetry": {"draws": 1}}),
}


def traced_counts(workload) -> dict:
    """Per-layer counts of one traced pass, after a fresh set-up."""
    run.set_up(workload, seed=3)
    tracer = Tracer()
    with tracer.installed():
        result = workload.run_pass(tracer)
    assert result["failed"] == 0
    layers = tracer.layer_metrics()
    return {k: v for k, v in layers.items() if isinstance(v, int)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name):
    first = traced_counts(SMALL[name]())
    second = traced_counts(SMALL[name]())
    assert first == second
    assert sum(first.values()) > 0


def test_wrappers_are_removed():
    workload = SMALL["spfin-sum"]()
    mb, _ = run.set_up(workload, seed=3)
    originals = (mb.izergin.det, mb.izergin.DetTables.k_plus,
                 mb.scalars._KERNELS["f"], mb.suites.SUITES["proof-steps"])
    with Tracer().installed():
        assert mb.izergin.det is not originals[0]
        assert mb.scalars._KERNELS["f"] is not originals[2]
    assert (mb.izergin.det, mb.izergin.DetTables.k_plus,
            mb.scalars._KERNELS["f"], mb.suites.SUITES["proof-steps"]) == originals


def test_spfin_draws_avoid_degenerate_twists():
    mb = run.import_program()
    rejected = 0
    for seed in range(120):
        inputs, reasons = run.draw_spfin(mb, seed, size=4)
        twist = inputs["params"]
        assert twist.beta1 + twist.beta2 != 0
        assert twist.mu != 1
        assert inputs["want"] != 0
        rejected += sum(reasons.values())
    assert rejected > 0


def test_refuses_to_run_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "laws",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_scale_weights_units_by_time():
    # The kernel took twice its reference time before and after a 9 s unit,
    # then its reference time after a 1 s unit: the long unit ran at half
    # speed, the short one at two thirds.
    ref = run.REF_SECONDS
    result = {"ref0": 2 * ref, "units": [(9.0, 9.0, 2 * ref), (1.0, 1.0, ref)]}
    assert run.speed_scale(result) == pytest.approx(1 / (0.9 * 2 + 0.1 * 1.5))


def test_calibrated_pass_keeps_its_checks():
    workload = SMALL["laws"]()
    run.set_up(workload, seed=3)
    plain = workload.run_pass(None)
    calibrated = workload.run_pass(None, calibrate=True)
    assert plain["failed"] == calibrated["failed"] == 0
    assert plain["digest"] == calibrated["digest"]
    assert len(calibrated["units"]) == calibrated["attempted"]
    assert all(ref > 0 for _, _, ref in calibrated["units"])
    assert 0 < run.speed_scale(calibrated) < 10
