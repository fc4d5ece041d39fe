"""CLI behavior: exit codes, reports, determinism, and a mutation smoke test."""

import hashlib
import json
import platform
import subprocess
import sys

import pytest

import mbethe.bench
import mbethe.cli
import mbethe.izergin
import mbethe.report
from mbethe.chain import MAX_SITES
from mbethe.cli import main
from mbethe.partitions import MAX_JOBS
from mbethe.report import strip_timing
from mbethe.scalars import Rat
from mbethe.suites import SUITES, RunConfig

SMALL_SIZES = {
    "izergin-laws": {"max_n": 2, "max_m": 2, "samples": 1, "equiv_max": 2,
                     "equiv_samples": 1, "residue_max": 1, "residue_samples": 1,
                     "conv_max": 1, "conv_len": 2},
    "proof-steps": {"max_size": 3, "samples": 2},
    "phi-symmetry": {"max_n": 1, "max_m": 1, "draws": 1},
}


# Every suite at sizes that still run SCbe, SPfinIK, nu12, nu21, the vacuum
# average and the three izergin partition sums.
PINNED_SIZES = {
    "izergin-laws": {"max_n": 3, "max_m": 3, "samples": 2, "equiv_max": 3,
                     "equiv_samples": 1, "residue_max": 2, "residue_samples": 1,
                     "conv_max": 2, "conv_len": 3},
    "yangian-structure": {"sites": 2, "samples": 1, "struct_samples": 1,
                          "mcr_max": 2, "mcr_samples": 1},
    "aba-actions": {"sites": 3, "max_n": 2, "max_m": 3, "draws": 2,
                    "scalar_max": 3},
    "maba-actions": {"sites": 3, "max_n": 2, "max_m": 3, "draws": 2},
    "scalar-products": {"sites": 3, "total_max": 4, "draws": 2, "avg_max": 3,
                        "red_max": 3},
    "phi-symmetry": {"max_n": 2, "max_m": 2, "draws": 2},
    "proof-steps": {"max_size": 6, "samples": 2},
}
# sha256 of json.dumps(strip_timing(report), sort_keys=True) for that run at
# seed 0, with report_path set to null; taken at commit 0926cdb, before the
# partition sums moved onto partitions.split_sum.
PINNED_REPORT_SHA256 = (
    "9ea8ed42bf2679dce086983f869ae90bb6810dacbb225b396faf406890d3c38e")


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs))
    return str(path)


def negate_f(monkeypatch):
    """Make every f that izergin reads, in the direct determinants (row
    pass and row factors) and in the f tables, come out negated."""
    true_f = mbethe.izergin.f_pair
    true_product = mbethe.izergin.kernel_product

    def skewed(dn, dd, cn, cd):
        num, den = true_f(dn, dd, cn, cd)
        return -num, den

    def skewed_product(kind, pairs, cn, cd):
        pairs = list(pairs)
        num, den = true_product(kind, pairs, cn, cd)
        return (-num if kind == "f" and len(pairs) % 2 else num), den

    monkeypatch.setattr(mbethe.izergin, "f_pair", skewed)
    monkeypatch.setattr(mbethe.izergin, "kernel_product", skewed_product)


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        cfg = write_config(tmp_path, suites=["proof-steps"], seed=3,
                           sizes={"proof-steps": SMALL_SIZES["proof-steps"]})
        rc = main(["verify", "--config", cfg, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["summary"]["failed"] == 0
        assert report["summary"]["exit_code"] == 0
        rec = report["records"][0]
        assert set(rec) == {"suite", "identity", "sizes", "trial", "seed",
                            "params_digest", "status", "lhs", "rhs", "elapsed"}
        out = capsys.readouterr().out
        assert "proof-steps" in out

    def test_report_is_pinned(self, tmp_path):
        report_path = tmp_path / "report.json"
        cfg = write_config(tmp_path, seed=0, sizes=PINNED_SIZES)
        assert main(["verify", "--config", cfg, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["config"]["suites"] == list(SUITES)
        report["config"]["report_path"] = None
        text = json.dumps(strip_timing(report), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256

    def test_deterministic_records(self, tmp_path):
        cfg = write_config(tmp_path, suites=["proof-steps", "phi-symmetry"],
                           seed=11, sizes={k: SMALL_SIZES[k]
                                           for k in ("proof-steps", "phi-symmetry")})
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["verify", "--config", cfg, "--report", str(path)]) == 0
            reports.append(json.loads(path.read_text()))
        for report in reports:
            for rec in report["records"]:
                rec["elapsed"] = 0.0
        assert reports[0]["records"] == reports[1]["records"]
        assert reports[0]["summary"] == reports[1]["summary"]

    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path, suites=["izergin-laws"], seed=1,
                           sizes=SMALL_SIZES)
        path = tmp_path / "r.json"
        rc = main(["verify", "--config", cfg, "--suite", "proof-steps",
                   "--seed", "9", "--report", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["config"]["suites"] == ["proof-steps"]
        assert report["config"]["seed"] == 9

    def test_config_file_reproduces_its_run_config(self, tmp_path):
        # every key of a non-default config, read back as RunConfig wrote it
        path = tmp_path / "r.json"
        want = RunConfig(suites=("proof-steps",), seed=4, c=Rat(3, 2), bound=17,
                         sizes={"proof-steps": SMALL_SIZES["proof-steps"]},
                         jobs=2, report_path=str(path)).to_json()
        assert all(value != RunConfig().to_json()[key]
                   for key, value in want.items())
        cfg = write_config(tmp_path, **want)
        assert main(["verify", "--config", cfg]) == 0
        assert json.loads(path.read_text())["config"] == want
        assert main(["verify", "--config", cfg, "--jobs", "1", "--seed", "6"]) == 0
        got = json.loads(path.read_text())["config"]
        assert got == {**want, "parallelism": 1, "seed": 6}

    def test_unknown_suite_is_config_error(self):
        assert main(["verify", "--suite", "no-such-suite"]) == 2

    def test_bad_config_keys(self, tmp_path):
        cfg = write_config(tmp_path, suites=["proof-steps"], nonsense=1)
        assert main(["verify", "--config", cfg]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["verify", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("argv", [
        ["--c", "abc"],
        ["--c", "1/0"],
    ])
    def test_malformed_flag_is_config_error(self, argv, capsys):
        assert main(["verify", "--suite", "proof-steps", *argv]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        {"seed": "abc"},
        {"seed": 2.7},
        {"bound": True},
        {"c": "2/x"},
        {"c": 0.1},
        {"report_path": 7},
        {"sizes": {"proof-steps": {"samples": "x"}}},
        {"sizes": {"proof-steps": [1]}},
        {"sizes": [1]},
        {"suites": "proof-steps"},
        {"parallelism": MAX_JOBS + 1},
    ])
    def test_malformed_config_is_config_error(self, values, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"suites": ["proof-steps"], **values})
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "unknown suites" not in captured.err  # not read letter by letter
        assert "passed" not in captured.out

    def test_tampered_kernel_fails_with_named_identity(self, tmp_path,
                                                       monkeypatch, capsys):
        negate_f(monkeypatch)
        cfg = write_config(tmp_path, suites=["izergin-laws"],
                           sizes={"izergin-laws": SMALL_SIZES["izergin-laws"]})
        path = tmp_path / "bad.json"
        rc = main(["verify", "--config", cfg, "--report", str(path)])
        assert rc == 1
        report = json.loads(path.read_text())
        failing = {r["identity"] for r in report["records"]
                   if r["status"] == "fail"}
        assert failing  # named identities survive into the report
        assert any(ident.startswith("izergin/") for ident in failing)
        assert "FAIL" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["yangian-structure", "aba-actions",
                                       "maba-actions", "scalar-products"])
    def test_oversized_chain_is_config_error(self, suite, tmp_path,
                                             monkeypatch, capsys):
        """A `sites` override above MAX_SITES fails before any check runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(mbethe.report.Recorder, "run", refuse)
        RunConfig(suites=[suite], sizes={suite: {"sites": MAX_SITES}})
        cfg = write_config(tmp_path, suites=[suite],
                           sizes={suite: {"sites": MAX_SITES + 1}})
        assert main(["verify", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert (f"sizes.{suite}.sites must be at most {MAX_SITES}, "
                f"got {MAX_SITES + 1}") in captured.err
        assert "FAIL" not in captured.err
        assert "passed" not in captured.out

    def test_fail_line_shows_both_sides(self, tmp_path, monkeypatch, capsys):
        negate_f(monkeypatch)
        cfg = write_config(tmp_path, suites=["izergin-laws"],
                           sizes={"izergin-laws": SMALL_SIZES["izergin-laws"]})
        path = tmp_path / "bad.json"
        assert main(["verify", "--config", cfg, "--report", str(path)]) == 1
        err = capsys.readouterr().err
        failing = [r for r in json.loads(path.read_text())["records"]
                   if r["status"] == "fail"]
        mismatches = [r for r in failing if r["params_digest"] != "sha256:error"]
        assert mismatches
        for r in mismatches:
            assert (f"FAIL {r['suite']}/{r['identity']} trial={r['trial']} "
                    f"seed={r['seed']}: lhs={r['lhs']} rhs={r['rhs']}\n") in err

    def test_fail_line_names_the_error(self, tmp_path, monkeypatch, capsys):
        def pole(dn, dd, cn, cd):
            return dn * cd + cn * dd, 0

        monkeypatch.setattr(mbethe.izergin, "f_pair", pole)
        cfg = write_config(tmp_path, suites=["proof-steps"],
                           sizes={"proof-steps": SMALL_SIZES["proof-steps"]})
        path = tmp_path / "bad.json"
        assert main(["verify", "--config", cfg, "--report", str(path)]) == 1
        err = capsys.readouterr().err
        crashed = [r for r in json.loads(path.read_text())["records"]
                   if r["params_digest"] == "sha256:error"]
        assert {r["identity"] for r in crashed} == {
            "proof/binomial-partition-sums", "proof/single-extraction-sum"}
        for r in crashed:
            assert r["lhs"].startswith("error: PoleError: pole of f at (")
            assert (f"FAIL {r['suite']}/{r['identity']} trial={r['trial']} "
                    f"seed={r['seed']}: {r['lhs']}\n") in err


class TestScalar:
    def test_trivial_pair(self, capsys):
        rc = main(["scalar", "--n", "0", "--m", "0", "--sites", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 = 1, PASS" in out

    @pytest.mark.parametrize("form", ["SCe", "SCbe", "SPfin", "SPfinIK"])
    def test_forms_pass(self, form, capsys, tmp_path):
        report = tmp_path / "scalar.json"
        rc = main(["scalar", "--n", "1", "--m", "1", "--sites", "2",
                   "--form", form, "--seed", "4", "--report", str(report)])
        assert rc == 0
        record = json.loads(report.read_text())
        assert record["status"] == "pass"
        assert record["formula"] == record["oracle"]

    def test_unequal_cardinalities_for_plain_form(self):
        assert main(["scalar", "--n", "1", "--m", "2", "--sites", "2",
                     "--form", "SCe"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--c", "abc"],
        ["--c", "1/0"],
        ["--rho1", "x"],
        ["--km", "3/0"],
    ])
    def test_malformed_number_is_config_error(self, argv, capsys):
        assert main(["scalar", "--n", "1", "--m", "1", "--sites", "1",
                     *argv]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("n,m", [(32, 32), (35, 35), (64, 0), (0, 64)])
    def test_oversized_input_is_config_error(self, n, m, monkeypatch, capsys):
        """n + m above the bitmask cap fails before any value is sampled or
        any subset table is built: both raise here if reached."""
        def refuse(*args, **kwargs):
            raise AssertionError("reached sampling or table building")

        monkeypatch.setattr(mbethe.cli, "sample_generic", refuse)
        monkeypatch.setattr(mbethe.izergin, "_index_halves", refuse)
        assert main(["scalar", "--n", str(n), "--m", str(m),
                     "--sites", "1"]) == 2
        captured = capsys.readouterr()
        assert "at most 63" in captured.err
        assert "verdict" not in captured.out

    @pytest.mark.parametrize("sites", [0, MAX_SITES + 1, 3000])
    def test_bad_site_count_is_config_error(self, sites, monkeypatch, capsys):
        """A site count outside 1..MAX_SITES fails before any value is
        sampled: sampling raises here if reached."""
        def refuse(*args, **kwargs):
            raise AssertionError("reached sampling")

        monkeypatch.setattr(mbethe.cli, "sample_generic", refuse)
        assert main(["scalar", "--n", "1", "--m", "1",
                     "--sites", str(sites)]) == 2
        captured = capsys.readouterr()
        assert f"--sites must lie in 1..{MAX_SITES}" in captured.err
        assert "verdict" not in captured.out

    def test_singular_prefactor_is_domain_error(self, capsys):
        rc = main(["scalar", "--n", "1", "--m", "2", "--sites", "2",
                   "--form", "SPfinIK", "--rho1", "0"])
        assert rc == 2
        assert "prefactor" in capsys.readouterr().err


class TestBench:
    def test_small_bench(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        rc = main(["bench", "--size", "8", "--jobs", "2", "--seed", "2",
                   "--report", str(report)])
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["consistent"] is True
        rows = data["rows"]
        assert [r["jobs"] for r in rows] == [1, 2]
        assert all(r["splits"] == 256 for r in rows)
        digests = {r["value_digest"] for r in rows}
        assert len(digests) == 1
        assert all(r["identical_to_serial"] for r in rows)
        assert all(r["oracle_match"] is True for r in rows)
        assert all(r["value_is_zero"] is False for r in rows)

    def test_value_off_the_oracle_fails(self, monkeypatch, capsys):
        true_eval = mbethe.bench.eval_scalar

        def off_by_one(*args, **kwargs):
            return true_eval(*args, **kwargs) + 1

        monkeypatch.setattr(mbethe.bench, "eval_scalar", off_by_one)
        result = mbethe.bench.run_bench([6], [1])
        assert [r["oracle_match"] for r in result["rows"]] == [False]
        assert main(["bench", "--size", "6", "--jobs", "1"]) == 1
        assert "matches the chain oracle: False" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--size", "4", "--jobs", "-3"],
        ["--size", "4", "--jobs", "0"],
        ["--size", "-1"],
        ["--size", "4", "--size", "64"],
        ["--max-size", "64"],
        ["--size", "4", "--jobs", str(MAX_JOBS + 1)],
    ])
    def test_bad_input_is_config_error(self, argv, capsys):
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "speedup" not in captured.out


class TestMachineBlock:
    def expect_machine(self, block):
        assert block["rational_backend"] == "fractions"
        assert block["python"] == platform.python_version()
        assert isinstance(block["nproc"], int) and block["nproc"] >= 1

    def test_every_report_names_the_backend(self, tmp_path):
        verify = tmp_path / "verify.json"
        cfg = write_config(tmp_path, suites=["proof-steps"],
                           sizes={"proof-steps": SMALL_SIZES["proof-steps"]})
        assert main(["verify", "--config", cfg, "--report", str(verify)]) == 0
        scalar = tmp_path / "scalar.json"
        assert main(["scalar", "--n", "1", "--m", "1", "--sites", "1",
                     "--report", str(scalar)]) == 0
        bench = tmp_path / "bench.json"
        assert main(["bench", "--size", "4", "--jobs", "1",
                     "--report", str(bench)]) == 0
        for path in (verify, scalar, bench):
            self.expect_machine(json.loads(path.read_text())["machine"])
        report = json.loads(verify.read_text())
        assert "machine" not in strip_timing(report)
        assert "machine" in report  # strip_timing works on a copy


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "mbethe.cli", "scalar", "--n", "0", "--m", "1",
         "--sites", "1", "--seed", "8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
