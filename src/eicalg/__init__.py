"""Exact operator algebra for influence-curve calculus on finite spaces.

The package models square-integrable random variables concretely as exact
rational vectors over finite probability spaces, derives efficient influence
curves of moment functionals symbolically, verifies the commutator identities
that govern that calculus (both symbolically and by exhaustive exact
evaluation), and ships a seeded Monte Carlo harness demonstrating the
variance bound the gradients encode.
"""

__version__ = "0.1.0"

from .brackets import (
    bracket_P_prod,
    bracket_prod_T,
    bracket_T_P,
    corollary_cov,
    corollary_leibniz,
    jacobi_sum,
    nested_P_prod_T,
    nested_T_P_prod,
    nested_prod_T_P,
    symbolic_identity_suite,
)
from .canon import (
    CanonForm,
    canonicalize_func,
    canonicalize_rv,
    normalize_functional,
)
from .eic import (
    EicResult,
    PathSpec,
    certify_eic,
    derive_eic,
    pathwise_derivative_exact,
)
from .estimate import (
    CompiledEstimand,
    Dataset,
    eic_standard_error,
    empirical_space,
    normal_quantile,
    onestep_estimate,
    plugin_estimate,
    read_delimited,
    wald_ci,
)
from .expr import E, evaluate_func, evaluate_rv, inv, var
from .mc import McConfig, McReport, run_mc
from .measure import (
    Decomposition,
    FiniteProbSpace,
    RandVar,
    center,
    covariance,
    decompose,
    embed,
    expectation,
    inner,
    pointwise_product,
)
from .parser import parse_expression

__all__ = [
    "__version__",
    "FiniteProbSpace",
    "RandVar",
    "Decomposition",
    "expectation",
    "embed",
    "center",
    "pointwise_product",
    "inner",
    "decompose",
    "covariance",
    "var",
    "E",
    "inv",
    "evaluate_rv",
    "evaluate_func",
    "CanonForm",
    "canonicalize_rv",
    "canonicalize_func",
    "normalize_functional",
    "EicResult",
    "PathSpec",
    "derive_eic",
    "pathwise_derivative_exact",
    "certify_eic",
    "bracket_P_prod",
    "bracket_prod_T",
    "bracket_T_P",
    "nested_T_P_prod",
    "nested_P_prod_T",
    "nested_prod_T_P",
    "jacobi_sum",
    "corollary_leibniz",
    "corollary_cov",
    "symbolic_identity_suite",
    "Dataset",
    "CompiledEstimand",
    "read_delimited",
    "empirical_space",
    "plugin_estimate",
    "eic_standard_error",
    "onestep_estimate",
    "normal_quantile",
    "wald_ci",
    "McConfig",
    "McReport",
    "run_mc",
    "parse_expression",
]
