"""Exact operator algebra for influence-curve calculus on finite spaces.

The package models square-integrable random variables concretely as exact
rational vectors over finite probability spaces, derives efficient influence
curves of moment functionals symbolically, verifies the commutator identities
that govern that calculus (both symbolically and by exhaustive exact
evaluation), and ships a seeded Monte Carlo harness demonstrating the
variance bound the gradients encode.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it gives the package; a name's
# submodule is imported when the name is first used (PEP 562), so importing
# the package loads none of them
_EXPORTS = {
    "measure": (
        "FiniteProbSpace", "RandVar", "Decomposition", "expectation", "embed", "center",
        "pointwise_product", "inner", "decompose", "covariance",
    ),
    "expr": ("var", "E", "inv", "evaluate_rv", "evaluate_func"),
    "canon": ("CanonForm", "canonicalize_rv", "canonicalize_func", "normalize_functional"),
    "eic": ("EicResult", "PathSpec", "derive_eic", "pathwise_derivative_exact", "certify_eic"),
    "brackets": (
        "bracket_P_prod", "bracket_prod_T", "bracket_T_P", "nested_T_P_prod",
        "nested_P_prod_T", "nested_prod_T_P", "jacobi_sum", "corollary_leibniz",
        "corollary_cov", "symbolic_identity_suite",
    ),
    "estimate": (
        "Dataset", "CompiledEstimand", "read_delimited", "empirical_space", "plugin_estimate",
        "eic_standard_error", "onestep_estimate", "normal_quantile", "wald_ci",
    ),
    "mc": ("McConfig", "McReport", "run_mc"),
    "parser": ("parse_expression",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
