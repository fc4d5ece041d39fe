"""Tampered kernels and determinant routes that named checks must catch.

Each row patches one function or method and names the (suite, identity)
checks that must then fail at trial 0, seed 0, default sizes; each of those
checks passes untampered. A failure must be a value mismatch, not an error.
The rows cover the routes the specialised scalar forms now go through: SCe
reads K's half of the t21 action (`_Side.k_pair`), the twisted vacuum
average reads SPfin's block tables (`_KBlocks.pair`), and the ordinary
determinant has its own Izergin-Korepin form beside K^(1), which reads
`izergin.f_pair`.
"""

import pytest

from mbethe import izergin
from mbethe.izergin import _KBlocks, _Side
from mbethe.suites import RunConfig, run_check

TRUE_F_PAIR = izergin.f_pair
TRUE_K_PAIR = _Side.k_pair
TRUE_BLOCK_PAIR = _KBlocks.pair


def f_at_twice_c(dn, dd, cn, cd):
    return TRUE_F_PAIR(dn, dd, 2 * cn, cd)


def k_doubled_on_k_half(self, z, mask):
    num, den = TRUE_K_PAIR(self, z, mask)
    return (2 * num if mask and not self.conjugated else num), den


def block_doubled(self, mask):
    num, den = TRUE_BLOCK_PAIR(self, mask)
    return (2 * num if mask else num), den


TAMPERS = [
    ("f_pair", izergin, "f_pair", f_at_twice_c,
     [("izergin-laws", "izergin/ordinary-limit")]),
    ("k_pair", _Side, "k_pair", k_doubled_on_k_half,
     [("aba-actions", "actions/plain-scalar-product"),
      ("aba-actions", "actions/scalar-forms-random-weights")]),
    ("block_pair", _KBlocks, "pair", block_doubled,
     [("scalar-products", "scalar/twisted-vacuum-average")]),
]


@pytest.mark.parametrize("owner, name, tamper, checks",
                         [t[1:] for t in TAMPERS], ids=[t[0] for t in TAMPERS])
def test_tamper_fails_its_checks(monkeypatch, owner, name, tamper, checks):
    cfg = RunConfig()
    for suite, identity in checks:
        assert run_check(cfg, suite, identity, 0).status == "pass", identity
    monkeypatch.setattr(owner, name, tamper)
    for suite, identity in checks:
        got = run_check(cfg, suite, identity, 0)
        assert got.status == "fail", identity
        assert not got.lhs.startswith("error"), got.lhs
