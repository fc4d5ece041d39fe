"""The check table: every record of a run is the record of `run_check` for
its (suite, identity, trial), and a check out of the table is a ConfigError."""

import dataclasses

import pytest

from mbethe.errors import ConfigError
from mbethe.scalars import Rat
from mbethe.suites import CHECKS, SUITES, RunConfig, run_check, run_suites

# Every suite, at sizes where the action and scalar suites run two trials, so
# that the chain length cycles with the trial.
TINY_SIZES = {
    "izergin-laws": {"max_n": 2, "max_m": 2, "samples": 1, "equiv_max": 2,
                     "equiv_samples": 1, "residue_max": 1, "residue_samples": 1,
                     "conv_max": 1, "conv_len": 2},
    "yangian-structure": {"sites": 2, "samples": 1, "struct_samples": 1,
                          "mcr_max": 1, "mcr_samples": 1},
    "aba-actions": {"sites": 2, "max_n": 1, "max_m": 1, "draws": 2,
                    "scalar_max": 1},
    "maba-actions": {"sites": 2, "max_n": 1, "max_m": 2, "draws": 2},
    "scalar-products": {"sites": 2, "total_max": 2, "draws": 2, "avg_max": 1,
                        "red_max": 1},
    "phi-symmetry": {"max_n": 1, "max_m": 1, "draws": 2},
    "proof-steps": {"max_size": 3, "samples": 2},
}


def untimed(record):
    return dataclasses.replace(record, elapsed=0.0)


def test_every_record_is_its_run_check():
    cfg = RunConfig(seed=5, sizes=TINY_SIZES)
    records = run_suites(cfg)
    assert {r.suite for r in records} == set(SUITES)
    assert all(r.status == "pass" for r in records)
    for record in records:
        alone = run_check(cfg, record.suite, record.identity, record.trial)
        assert untimed(alone) == untimed(record)


def test_identities_are_unique_within_each_suite():
    for suite, groups in CHECKS.items():
        identities = [identity for _, rows in groups for identity, _, _ in rows]
        assert len(identities) == len(set(identities)), suite


@pytest.mark.parametrize("suite,identity,trial,named", [
    ("no-such-suite", "proof/pole-extraction-sum", 0, "no-such-suite"),
    ("proof-steps", "proof/no-such-identity", 0, "proof/no-such-identity"),
    ("proof-steps", "izergin/transposition", 0, "izergin/transposition"),
    ("proof-steps", "proof/pole-extraction-sum", 2, "trial 2"),
    ("proof-steps", "proof/pole-extraction-sum", -1, "trial -1"),
    ("izergin-laws", "izergin/residue-at-collision", 1, "trial 1"),
])
def test_check_outside_the_table_is_config_error(suite, identity, trial, named):
    cfg = RunConfig(sizes={"proof-steps": {"samples": 2},
                           "izergin-laws": {"residue_samples": 1}})
    with pytest.raises(ConfigError, match=named):
        run_check(cfg, suite, identity, trial)


def test_a_float_coupling_is_read_as_written():
    """A config file's float is the rational its repr denotes, or an error
    naming the key: 0.1 is not exactly 1/10 in binary."""
    assert RunConfig(c=0.5).c == Rat(1, 2)
    with pytest.raises(ConfigError, match="^c must"):
        RunConfig(c=0.1)
    with pytest.raises(ConfigError, match="^seed must"):
        RunConfig(seed=2.5)
