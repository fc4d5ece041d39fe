"""Tampered kernels and determinant routes that named checks must catch.

Each row patches one function or method and names the (suite, identity)
checks that must then fail at trial 0, seed 0, default sizes; each of those
checks passes untampered. A failure must be a value mismatch, not an error.
The rows cover the routes the specialised scalar forms now go through: SCe
reads K's half of the t21 action (`_Side.k_pair`), the twisted vacuum
average reads SPfin's block tables (`_KBlocks.pair`), and the ordinary
determinant has its own Izergin-Korepin form beside K^(1), whose row pass
reads `izergin.f_pair`. SCbe and SPfinIK assemble their two determinants
per split (`actions._v_side`). Every product of one kernel over a list of
pairs is `scalars.kernel_product`: bound in `izergin` it gives the row
factors f(u, v_j) of the direct determinants, and bound in `actions` the
f products of the independent-partition forms and the g products of the
nu12 reduction. Every 1/h of the determinant rows and tables comes from
`izergin.h_pair`, and every popcount weight table from `geometric` (bound
by name in `izergin` and in `actions`). The proof-step extraction sums
hold at every c, so each row there tampers one factor only: the 1/h table
of the single extraction (`suites.h_pair`) or the g products of the pole
extraction (`suites.kernel_product`).
"""

import pytest

from mbethe import actions, izergin, suites
from mbethe.izergin import _KBlocks, _Side
from mbethe.suites import RunConfig, run_check

TRUE_F_PAIR = izergin.f_pair
TRUE_K_PAIR = _Side.k_pair
TRUE_BLOCK_PAIR = _KBlocks.pair
TRUE_V_SIDE = actions._v_side
TRUE_KERNEL_PRODUCT = izergin.kernel_product
TRUE_H_PAIR = izergin.h_pair
TRUE_GEOMETRIC = izergin.geometric


def f_at_twice_c(dn, dd, cn, cd):
    return TRUE_F_PAIR(dn, dd, 2 * cn, cd)


def k_doubled_on_k_half(self, z, mask):
    num, den = TRUE_K_PAIR(self, z, mask)
    return (2 * num if mask and not self.conjugated else num), den


def block_doubled(self, mask):
    num, den = TRUE_BLOCK_PAIR(self, mask)
    return (2 * num if mask else num), den


def v_side_doubled_on_conjugated(u, v, cn, cd, conjugated):
    at = TRUE_V_SIDE(u, v, cn, cd, conjugated)
    if not (conjugated and v):
        return at

    def doubled(zn, zd):
        num, den = at(zn, zd)
        return 2 * num, den

    return doubled


def kernel_product_at_twice_c(tampered):
    """kernel_product read at 2c for the kernel `tampered`."""
    def product(kind, pairs, cn, cd):
        return TRUE_KERNEL_PRODUCT(kind, pairs,
                                   2 * cn if kind == tampered else cn, cd)
    return product


def h_at_twice_c(dn, dd, cn, cd):
    return TRUE_H_PAIR(dn, dd, 2 * cn, cd)


def geometric_ratio_inverted(first, ratio, top):
    return TRUE_GEOMETRIC(first, ratio[::-1], top)


TAMPERS = [
    ("f_pair", izergin, "f_pair", f_at_twice_c,
     [("izergin-laws", "izergin/ordinary-limit")]),
    ("k_pair", _Side, "k_pair", k_doubled_on_k_half,
     [("aba-actions", "actions/plain-scalar-product"),
      ("aba-actions", "actions/scalar-forms-random-weights")]),
    ("block_pair", _KBlocks, "pair", block_doubled,
     [("scalar-products", "scalar/twisted-vacuum-average")]),
    ("independent_det", actions, "_v_side", v_side_doubled_on_conjugated,
     [("scalar-products", "scalar/independent-partition-form"),
      ("aba-actions", "actions/scalar-forms-random-weights")]),
    ("reduction_g", actions, "kernel_product", kernel_product_at_twice_c("g"),
     [("maba-actions", "actions/creation-reduction")]),
    ("row_factor_f", izergin, "kernel_product", kernel_product_at_twice_c("f"),
     [("izergin-laws", "izergin/ordinary-limit"),
      ("izergin-laws", "izergin/representation-equivalence"),
      ("scalar-products", "scalar/independent-partition-form")]),
    ("h_pair", izergin, "h_pair", h_at_twice_c,
     [("izergin-laws", "izergin/partition-sum-expansion"),
      ("izergin-laws", "izergin/unit-deformation-vanishing"),
      ("aba-actions", "actions/plain-scalar-product"),
      ("scalar-products", "scalar/twisted-scalar-product")]),
    ("geometric_izergin", izergin, "geometric", geometric_ratio_inverted,
     [("izergin-laws", "izergin/partition-sum-expansion"),
      ("izergin-laws", "izergin/product-convolution"),
      ("izergin-laws", "izergin/deformation-difference-sum")]),
    ("extraction_h", suites, "h_pair", h_at_twice_c,
     [("proof-steps", "proof/single-extraction-sum")]),
    ("extraction_g", suites, "kernel_product", kernel_product_at_twice_c("g"),
     [("proof-steps", "proof/pole-extraction-sum")]),
    ("geometric_actions", actions, "geometric", geometric_ratio_inverted,
     [("maba-actions", "actions/twisted-diagonal-one"),
      ("maba-actions", "actions/twisted-annihilation"),
      ("scalar-products", "scalar/twisted-scalar-product"),
      ("scalar-products", "scalar/twisted-vacuum-average")]),
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
