"""Commutator brackets of expectation, product, and centering operators.

Three elementary brackets measure, respectively, the defect of
multiplicativity of expectation (which is the covariance), the difference
between multiply-then-center and center-then-multiply, and centering applied
to coordinatewise expectations.  Nesting them cyclically yields three
composite brackets whose sum vanishes identically (a Jacobi identity).

Each identity is implemented twice: as exact operator arithmetic on a
finite space, and as a symbolic identity over abstract variables decided by
canonical-form equality.  Centering applied to a scalar-valued expression is
read as the gradient of the parameter the scalar denotes, which is the only
reading under which the composite brackets type-check; those terms route
through :func:`eicalg.eic.derive_eic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import CanonForm, canonicalize_rv
from .eic import derive_eic
from .expr import E, evaluate_rv, rv_embed, var
from .measure import (
    FiniteProbSpace,
    RandVar,
    center,
    covariance,
    embed,
    expectation,
    pointwise_product,
)

__all__ = [
    "bracket_P_prod",
    "bracket_prod_T",
    "bracket_T_P",
    "nested_T_P_prod",
    "nested_P_prod_T",
    "nested_prod_T_P",
    "jacobi_sum",
    "corollary_leibniz",
    "corollary_cov",
    "IdentityRecord",
    "symbolic_identity_suite",
]

# the two-variable functionals whose gradients the composite brackets need
_X, _Y = var("X"), var("Y")
_COV_FUNC = E(_X * _Y) - E(_X) * E(_Y)
_MEAN_PROD_FUNC = E(_X * _Y)
_PROD_MEANS_FUNC = E(_X) * E(_Y)

_EIC_COV = derive_eic(_COV_FUNC).eic
_EIC_MEAN_PROD = derive_eic(_MEAN_PROD_FUNC).eic
_EIC_PROD_MEANS = derive_eic(_PROD_MEANS_FUNC).eic


def bracket_P_prod(space: FiniteProbSpace, x: RandVar, y: RandVar) -> Fraction:
    """Expectation-product bracket: E[xy] - E[x]E[y], i.e. the covariance."""
    return expectation(space, pointwise_product(x, y)) - expectation(
        space, x
    ) * expectation(space, y)


def bracket_prod_T(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Product-centering bracket: (Tx)(Ty) - T(xy)."""
    return pointwise_product(center(space, x), center(space, y)) - center(
        space, pointwise_product(x, y)
    )


def bracket_T_P(
    space: FiniteProbSpace, x: RandVar, y: RandVar
) -> tuple[RandVar, RandVar]:
    """Centering-expectation bracket: the pair of centered coordinates."""
    return (center(space, x), center(space, y))


def nested_T_P_prod(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Centering applied to the covariance, minus the covariance of centerings."""
    gradient = evaluate_rv(_EIC_COV, space, {"X": x, "Y": y})
    return gradient - embed(
        covariance(space, center(space, x), center(space, y)), space
    )


def nested_P_prod_T(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Covariance minus the centered product, plus the product-of-means gradient."""
    prod_means_gradient = evaluate_rv(_EIC_PROD_MEANS, space, {"X": x, "Y": y})
    return (
        embed(bracket_P_prod(space, x, y), space)
        - pointwise_product(center(space, x), center(space, y))
        + prod_means_gradient
    )


def nested_prod_T_P(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Product of centerings minus the gradient of the product's mean."""
    mean_prod_gradient = evaluate_rv(_EIC_MEAN_PROD, space, {"X": x, "Y": y})
    return (
        pointwise_product(center(space, x), center(space, y))
        - mean_prod_gradient
    )


def jacobi_sum(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Cyclic sum of the three composite brackets; identically zero."""
    return (
        nested_T_P_prod(space, x, y)
        + nested_P_prod_T(space, x, y)
        + nested_prod_T_P(space, x, y)
    )


def corollary_leibniz(
    space: FiniteProbSpace, x: RandVar, y: RandVar
) -> tuple[RandVar, RandVar]:
    """(Tx)(Ty) + gradient of E[x]E[y]  versus  gradient of E[xy] + Cov."""
    binding = {"X": x, "Y": y}
    lhs = pointwise_product(
        center(space, x), center(space, y)
    ) + evaluate_rv(_EIC_PROD_MEANS, space, binding)
    rhs = evaluate_rv(_EIC_MEAN_PROD, space, binding) + embed(
        bracket_P_prod(space, x, y), space
    )
    return lhs, rhs


def corollary_cov(
    space: FiniteProbSpace, x: RandVar, y: RandVar
) -> tuple[RandVar, RandVar]:
    """(Tx)(Ty)  versus  gradient of the covariance + Cov."""
    binding = {"X": x, "Y": y}
    lhs = pointwise_product(center(space, x), center(space, y))
    rhs = evaluate_rv(_EIC_COV, space, binding) + embed(
        bracket_P_prod(space, x, y), space
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# symbolic suite


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    statement: str
    mode: str
    passed: bool
    counterexample: str | None = None


def _canon_equal_record(name: str, statement: str, lhs, rhs) -> IdentityRecord:
    left = lhs if isinstance(lhs, CanonForm) else canonicalize_rv(lhs)
    right = rhs if isinstance(rhs, CanonForm) else canonicalize_rv(rhs)
    passed = left == right
    detail = None if passed else f"lhs={left} rhs={right}"
    return IdentityRecord(name, statement, "symbolic", passed, detail)


def symbolic_identity_suite() -> list[IdentityRecord]:
    """Prove every bracket identity at the canonical-form level."""
    x, y = _X, _Y
    tx = x - E(x)  # centered coordinate, written out literally
    ty = y - E(y)
    cov = rv_embed(_COV_FUNC)
    mean_xy = rv_embed(_MEAN_PROD_FUNC)
    # the three composite brackets, as nested_T_P_prod etc. compute them
    t_p_prod = _EIC_COV - cov
    p_prod_t = cov - tx * ty + _EIC_PROD_MEANS
    prod_t_p = tx * ty - _EIC_MEAN_PROD
    # expected covariance polynomial built directly from moment atoms
    atom_xy = CanonForm.from_atom(("m", (("X", 1), ("Y", 1))))
    atom_x = CanonForm.from_atom(("m", (("X", 1),)))
    atom_y = CanonForm.from_atom(("m", (("Y", 1),)))

    records = [
        _canon_equal_record(
            "covariance-bracket",
            "expectation of product minus product of expectations is the covariance",
            rv_embed(E(x * y) - E(x) * E(y)),
            atom_xy - atom_x * atom_y,
        ),
        _canon_equal_record(
            "covariance-centering-invariance",
            "the covariance of the centered coordinates is the covariance",
            rv_embed(E(tx * ty) - E(tx) * E(ty)),
            atom_xy - atom_x * atom_y,
        ),
        _canon_equal_record(
            "product-centering-bracket",
            "(TX)(TY) - T(XY) written via gradients equals its closed form",
            tx * ty - _EIC_MEAN_PROD,
            tx * ty - (x * y - mean_xy),
        ),
        _canon_equal_record(
            "centering-expectation-bracket-first",
            "gradient of E[X] equals the centered coordinate",
            derive_eic(E(x)).eic,
            tx,
        ),
        _canon_equal_record(
            "centering-expectation-bracket-second",
            "gradient of E[Y] equals the centered coordinate",
            derive_eic(E(y)).eic,
            ty,
        ),
        _canon_equal_record(
            "corollary-product-of-gradients",
            "T(PX)T(PY) + T(PX*PY) equals T(P(XY)) + Cov",
            derive_eic(E(x)).eic * derive_eic(E(y)).eic + _EIC_PROD_MEANS,
            _EIC_MEAN_PROD + cov,
        ),
        _canon_equal_record(
            "corollary-covariance-gradient",
            "T(PX)T(PY) equals T(Cov) + Cov",
            derive_eic(E(x)).eic * derive_eic(E(y)).eic,
            _EIC_COV + cov,
        ),
        _canon_equal_record(
            "lemma-piece-center-of-covariance",
            "first composite bracket equals (TX)(TY) - 2 Cov",
            t_p_prod,
            tx * ty - rv_embed(_COV_FUNC) - rv_embed(_COV_FUNC),
        ),
        _canon_equal_record(
            "lemma-piece-expectation-of-product-centering",
            "second composite bracket equals Cov - (TX)(TY) + Leibniz expansion",
            p_prod_t,
            cov - tx * ty + (tx * rv_embed(E(y)) + rv_embed(E(x)) * ty),
        ),
        _canon_equal_record(
            "lemma-piece-product-of-centered-means",
            "third composite bracket equals (TX)(TY) - (XY - E[XY])",
            prod_t_p,
            tx * ty - (x * y - mean_xy),
        ),
        _canon_equal_record(
            "jacobi-identity",
            "the cyclic sum of the three composite brackets is zero",
            t_p_prod + p_prod_t + prod_t_p,
            CanonForm.zero(),
        ),
    ]
    return records
