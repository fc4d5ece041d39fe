"""Exact-arithmetic toolkit for modified algebraic Bethe ansatz identities.

Every identity is verified over the rational field: deformed Izergin
determinants, multiple-action formulas of (twisted) monodromy entries on
(modified) Bethe vectors, and the closed scalar-product formulas, each checked
against a brute-force spin-chain oracle.
"""

from .actions import (ActionRequest, ActionResult, WeightOracle, eval_action,
                      eval_request, eval_scalar, eval_vacuum_average,
                      phi_transform)
from .chain import (ChainSpec, TwistPair, bethe_state, build_monodromy,
                    direct_scalar, modified_entry, r_matrix, twist_pair,
                    vacuum_state, vacuum_weights)
from .errors import (CapabilityError, CardinalityError, ConfigError,
                     ConstraintError, DegenerateError, DomainError,
                     ExhaustionError, MbetheError, PoleError, VariantUndefined,
                     WorkerExitError)
from .izergin import (conj_mod_izergin, izergin_convolution,
                      izergin_deformation_sum, izergin_partition_sum,
                      mod_izergin, ordinary_izergin, residue_check)
from .partitions import CoefficientMap, GroundSet, enumerate_splits
from .ratfunc import RationalFunction, rational_interpolate
from .scalars import (ModelParams, Rat, SpectralSet, TwistData, kernel_f,
                      kernel_g, kernel_h, rat, rat_str, sample_generic,
                      set_product)

__version__ = "0.1.0"
