"""Tampered kernels and determinant routes that named checks must catch.

Each row patches one function or method and names the (suite, identity)
checks that must then fail at trial 0, seed 0, default sizes; each of those
checks passes untampered. A failure must be a value mismatch, not an error.
The rows cover the routes the specialised scalar forms now go through: SCe
reads K's half of the t21 action (`_Side.k_pair`), the twisted vacuum
average is SPfin with no u, and the ordinary determinant has its own
Izergin-Korepin form beside K^(1), whose row pass reads `izergin.f_pair`.
SPfin reads each split's term from one table (`izergin._SplitTerms`), which
multiplies a per-block f factor (`_f_block`) with the dot products of the
two block tables and folds in the vacuum weights, w+ at S and w- at the
complement S'; the convolution and deformation sums read the block tables'
entries (`_KBlocks.pair`), and the shifted-unit convolution is the
convolution at z = 1, on `_Side.k_pair`. Every block table folds its
u-indexed rows into its columns (`_fold_columns`), and SPfin's beta powers
are one constant and one ratio per element (`actions._beta_sequence`). SCbe
and SPfinIK assemble their two determinants per split (`actions._v_side`).
Every product of one kernel over a list of pairs is `scalars.kernel_product`:
bound in `izergin` it gives the row factors f(u, v_j) of the direct
determinants, and bound in `actions` the f products of the
independent-partition forms and the g products of the nu12 reduction. Every
1/h of the determinant rows and tables comes from `izergin.h_pair`, and
every other popcount weight table from `geometric` (bound by name in
`izergin` and in `actions`). The proof-step extraction sums hold at every c,
so each row there tampers one factor only: the 1/h table of the single
extraction (`suites.h_pair`) or the g products of the pole extraction
(`suites.kernel_product`). The yangian-structure rows tamper the kernels,
determinants and R-matrix as bound in `suites`; `tests/test_yangian.py`
reruns them against the Fraction-route copies of its checks.
"""

import copy

import pytest

from mbethe import actions, izergin, suites
from mbethe.chain import r_matrix
from mbethe.izergin import (_KBlocks, _Side, _SplitTerms, conj_mod_izergin,
                            mod_izergin)
from mbethe.scalars import kernel_f, kernel_g
from mbethe.suites import RunConfig, run_check

TRUE_F_PAIR = izergin.f_pair
TRUE_K_PAIR = _Side.k_pair
TRUE_BLOCK_PAIR = _KBlocks.pair
TRUE_V_SIDE = actions._v_side
TRUE_KERNEL_PRODUCT = izergin.kernel_product
TRUE_H_PAIR = izergin.h_pair
TRUE_GEOMETRIC = izergin.geometric
TRUE_F_BLOCK = _SplitTerms._f_block
TRUE_SPLIT_TERMS = _SplitTerms.__init__
TRUE_FOLD_COLUMNS = izergin._fold_columns
TRUE_BETA_SEQUENCE = actions._beta_sequence


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


def f_block_doubled(self, hi):
    """The f factor of every block of SPfin's term table but the first,
    doubled."""
    block = TRUE_F_BLOCK(self, hi)
    return [(2 * num, den) for num, den in block] if hi else block


def minus_weight_at_s(self, plus, minus, z, weights, scale):
    """SPfin's term table with w- read at S instead of S': the table reads
    w-'s subset products over each half reversed, so reversing them first
    reads them at the half masks of S."""
    flipped = copy.copy(weights[1])
    flipped._subsets = [tuple(t[::-1] for t in weights[1]._subsets[0])]
    TRUE_SPLIT_TERMS(self, plus, minus, z, (weights[0], flipped), scale)


def fold_columns_swapped(columns, num, den):
    return TRUE_FOLD_COLUMNS(columns, den, num)


def beta_ratio_inverted(twist, n, m):
    first, ratio = TRUE_BETA_SEQUENCE(twist, n, m)
    return first, ratio[::-1]


def negate_g(u, v, c):
    return -kernel_g(u, v, c)


def swap_f(u, v, c):
    return kernel_f(v, u, c)


def double_conj_izergin(*args, **kwargs):
    return 2 * conj_mod_izergin(*args, **kwargs)


def double_izergin(*args, **kwargs):
    return 2 * mod_izergin(*args, **kwargs)


def reversed_r(u, c):
    return r_matrix(-u, c)


TAMPERS = [
    ("f_pair", izergin, "f_pair", f_at_twice_c,
     [("izergin-laws", "izergin/ordinary-limit")]),
    ("k_pair", _Side, "k_pair", k_doubled_on_k_half,
     [("izergin-laws", "izergin/shifted-unit-convolution"),
      ("aba-actions", "actions/plain-scalar-product"),
      ("aba-actions", "actions/scalar-forms-random-weights")]),
    ("block_pair", _KBlocks, "pair", block_doubled,
     [("izergin-laws", "izergin/product-convolution"),
      ("izergin-laws", "izergin/deformation-difference-sum")]),
    ("split_f_block", _SplitTerms, "_f_block", f_block_doubled,
     [("scalar-products", "scalar/twisted-scalar-product"),
      ("scalar-products", "scalar/independent-partition-form"),
      ("scalar-products", "scalar/twisted-vacuum-average"),
      ("scalar-products", "scalar/unit-twist-reduction")]),
    ("split_weight_at_s", _SplitTerms, "__init__", minus_weight_at_s,
     [("scalar-products", "scalar/twisted-scalar-product"),
      ("scalar-products", "scalar/independent-partition-form"),
      ("scalar-products", "scalar/twisted-vacuum-average"),
      ("scalar-products", "scalar/unit-twist-reduction")]),
    ("fold_columns", izergin, "_fold_columns", fold_columns_swapped,
     [("izergin-laws", "izergin/product-convolution"),
      ("izergin-laws", "izergin/deformation-difference-sum"),
      ("scalar-products", "scalar/twisted-scalar-product"),
      ("scalar-products", "scalar/independent-partition-form")]),
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
      ("maba-actions", "actions/twisted-annihilation")]),
    ("beta_sequence", actions, "_beta_sequence", beta_ratio_inverted,
     [("scalar-products", "scalar/twisted-scalar-product"),
      ("scalar-products", "scalar/twisted-vacuum-average"),
      ("scalar-products", "scalar/unit-twist-reduction")]),
    # the label-only yangian identities compute their `ok` inside the
    # check, so a relation that cross-multiplies into 0 == 0 would pass
    # under every one of these
    ("kernel_g", suites, "kernel_g", negate_g,
     [("yangian-structure", "yangian/exchange-relations"),
      ("yangian-structure", "yangian/triangular-exchange")]),
    ("kernel_f", suites, "kernel_f", swap_f,
     [("yangian-structure", "yangian/triangular-exchange")]),
    ("conj_mod_izergin", suites, "conj_mod_izergin", double_conj_izergin,
     [("yangian-structure", "yangian/multiple-exchange")]),
    ("mod_izergin", suites, "mod_izergin", double_izergin,
     [("yangian-structure", "yangian/multiple-exchange")]),
    ("r_matrix", suites, "r_matrix", reversed_r,
     [("yangian-structure", "yangian/rtt")]),
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
