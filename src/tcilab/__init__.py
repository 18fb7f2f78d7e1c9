"""Transport-entropy inequalities on the real line: criteria and verifiers.

The package decides, for a one-dimensional measure and an even cost profile,
whether a strong transportation-cost inequality holds, assembles explicit
constants when it does, and stress-tests the claim numerically (dual
potentials, ray integrability, product tensorization, Monte Carlo
concentration, modified log-Sobolev).
"""

from .costs import (CostFunction, builtin_cost, conjugate, cost_from_table,
                    validate_admissible)
from .criteria import (DEFAULT_KAPPA, K_moment, assemble_rate,
                       decide_strong_tci_lip, decide_strong_tci_logconcave,
                       int_equiv_ratio, lipschitz_check, lsi_tilde_potential,
                       muckenhoupt, omega_bounds, rearrangement,
                       skewed_cost, suff_condition)
from .measures import (DiscreteMeasure, Measure1D, is_log_concave,
                       make_builtin, make_from_potential, make_from_table,
                       quantile_discretize, residual, sample,
                       stochastically_dominated)
from .transport import (GridFunction, TransportPlan, cost_lp, cost_matrix,
                        cost_monotone, cost_monotone_discrete,
                        dual_lower_bound, inf_convolution_exact,
                        northwest_plan, relative_entropy)
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict
from .verify import (ConcentrationReport, DualTestReport, concentration_mc,
                     dual_check_strong, integrability_check, lsi_check,
                     marton_bound_check, tci_to_strong_cost, tensor_check)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # measures
    "Measure1D", "DiscreteMeasure", "make_builtin", "make_from_potential",
    "make_from_table", "residual", "stochastically_dominated",
    "is_log_concave", "sample", "quantile_discretize",
    # costs
    "CostFunction", "builtin_cost", "cost_from_table", "validate_admissible",
    "conjugate",
    # transport
    "GridFunction", "TransportPlan", "cost_monotone",
    "cost_monotone_discrete", "northwest_plan", "cost_matrix", "cost_lp",
    "relative_entropy", "inf_convolution_exact",
    "dual_lower_bound",
    # criteria
    "rearrangement", "omega_bounds", "lipschitz_check", "muckenhoupt",
    "K_moment", "assemble_rate", "decide_strong_tci_lip",
    "decide_strong_tci_logconcave", "suff_condition", "int_equiv_ratio",
    "lsi_tilde_potential", "skewed_cost", "DEFAULT_KAPPA",
    # verify
    "DualTestReport", "ConcentrationReport", "dual_check_strong",
    "integrability_check", "marton_bound_check", "tensor_check",
    "concentration_mc", "lsi_check", "tci_to_strong_cost",
    # verdict
    "Verdict", "HOLDS", "FAILS", "INCONCLUSIVE",
]
