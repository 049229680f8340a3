"""Gradient calculus for scalar functionals of a law.

``derive_eic`` turns a functional of moments into its canonical gradient by
structural recursion: the base rule sends a moment to its centered argument,
and sums, products, powers, reciprocals, and registered smooth functions are
handled by linearity, the Leibniz rule, and the chain rule.  The result is
always exactly mean-zero.

The independent certificate values a rational functional of moments by the
valuation walk with ``Dual.mean`` as its moment rule: each subexpression is
a :class:`~eicalg.measure.Dual`, its value with its influence vector, and a
correct gradient must equal the influence vector at every outcome, with no
tolerance.  That is the tilt derivative along every mean-zero score at once
(``pathwise_derivative_exact`` takes one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import CanonForm, expectation_of_form, normalize_functional
from .errors import ExactModeError, SpaceMismatchError, UsageError
from .expr import (
    FuncConst,
    FuncExpr,
    FuncPower,
    FuncProduct,
    FuncSum,
    Moment,
    Reciprocal,
    RvConst,
    RvExpr,
    Smooth,
    SMOOTH_TABLE,
    _checked_mode,
    _value,
    evaluate_rv,
    f_pow,
    f_recip,
    func_base_vars,
    render_func,
    rv_embed,
    rv_pow,
    rv_product,
    rv_sum,
)
from .measure import Dual, FiniteProbSpace, RandVar, embed, expectation, inner
from .numerals import setting
from .sampling import check_instances, draws, format_values

__all__ = [
    "EicResult",
    "PathSpec",
    "derive_eic",
    "pathwise_derivative_exact",
    "certify_eic",
    "CertifyReport",
]


@dataclass(frozen=True)
class EicResult:
    """A derived gradient with its normalized estimand and rule trace."""

    estimand: FuncExpr
    eic: RvExpr
    trace: tuple[tuple[str, str], ...]


def derive_eic(psi: FuncExpr, mode: str = "exact") -> EicResult:
    """Derive the canonical gradient of a functional of moments.

    The functional is normalized first, so the only place randomness enters
    the recursion is the moment base rule.  In exact mode smooth nodes are
    rejected; in float mode the chain rule applies their registered
    derivative.
    """
    mode = _checked_mode(mode)
    normalized = normalize_functional(psi)
    trace: list[tuple[str, str]] = []
    eic = _gradient(normalized, trace, mode)
    return EicResult(estimand=normalized, eic=eic, trace=tuple(trace))


def _gradient(f: FuncExpr, trace: list, mode: str) -> RvExpr:
    if isinstance(f, FuncConst):
        trace.append(("constant", render_func(f)))
        return RvConst(Fraction(0))
    if isinstance(f, Moment):
        trace.append(("moment", render_func(f)))
        return rv_sum(f.arg, rv_product(RvConst(Fraction(-1)), rv_embed(f)))
    if isinstance(f, FuncSum):
        trace.append(("linearity", render_func(f)))
        return rv_sum(*(_gradient(t, trace, mode) for t in f.terms))
    if isinstance(f, FuncProduct):
        trace.append(("product-rule", render_func(f)))
        terms = []
        for i, factor in enumerate(f.factors):
            if isinstance(factor, FuncConst):
                continue  # constant factor: gradient term vanishes
            pieces: list[RvExpr] = []
            for j, other in enumerate(f.factors):
                if j == i:
                    pieces.append(_gradient(factor, trace, mode))
                else:
                    pieces.append(rv_embed(other))
            terms.append(rv_product(*pieces))
        return rv_sum(*terms)
    if isinstance(f, FuncPower):
        trace.append(("power-rule", render_func(f)))
        return rv_product(
            RvConst(Fraction(f.exponent)),
            rv_pow(rv_embed(f.base), f.exponent - 1),
            _gradient(f.base, trace, mode),
        )
    if isinstance(f, Reciprocal):
        trace.append(("reciprocal-rule", render_func(f)))
        return rv_product(
            RvConst(Fraction(-1)),
            rv_embed(f_pow(f_recip(f.arg), 2)),
            _gradient(f.arg, trace, mode),
        )
    if isinstance(f, Smooth):
        if mode != "float":
            raise ExactModeError(
                f"smooth functional {f.tag!r} requires float mode"
            )
        trace.append(("chain-rule", render_func(f)))
        derivative = SMOOTH_TABLE[f.tag].derivative(f.arg)
        return rv_product(rv_embed(derivative), _gradient(f.arg, trace, mode))
    raise TypeError(f"not a functional expression: {f!r}")


# ---------------------------------------------------------------------------
# paths and pathwise derivatives


@dataclass(frozen=True)
class PathSpec:
    """A one-dimensional tilt of a finite law along a mean-zero score.

    The tilted weights are w_i * (1 + eps * s_i), which stay exactly
    normalized because the score has mean zero.
    """

    space: FiniteProbSpace
    score: RandVar

    def __post_init__(self):
        if self.score.space != self.space:
            raise SpaceMismatchError("score does not live on the path's space")
        if expectation(self.space, self.score) != 0:
            raise UsageError("path score must have expectation exactly zero")


def pathwise_derivative_exact(
    psi: FuncExpr, path: PathSpec, binding: dict[str, RandVar]
) -> Fraction:
    """d/deps of psi at the tilted law, evaluated exactly at eps = 0: the
    inner product of psi's influence vector with the score."""
    dual = _influence(normalize_functional(psi), path.space, binding)
    return inner(path.space, dual.influence, path.score)


def _influence(f: FuncExpr, space: FiniteProbSpace, binding: dict) -> Dual:
    """A normalized functional on one instance as a :class:`Dual`: the
    valuation walk with ``Dual.mean`` as its moment rule.  Normalized, each
    moment argument is a polynomial in base variables, so no vector meets a
    Dual; a constant has the zero vector."""
    value = _value(f, ({}, space, binding, "exact", Dual.mean))
    return value if isinstance(value, Dual) else Dual(value, embed(0, space))


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyReport:
    estimand: str
    trials: int
    checked: int
    passed: bool
    counterexample: str | None


def certificate(psi: FuncExpr, candidate: RvExpr | None = None):
    """The variables of ``psi`` in name order, and the check of one instance
    (a space and those variables) against the (derived or supplied)
    gradient: evaluated on the instance, it must equal psi's influence
    vector at every outcome.  On a fully supported finite law the gradient
    is the one mean-zero vector whose inner product with every score is the
    tilt derivative along that score, and the influence vector is mean-zero
    with exactly that inner product, so equality at every outcome is the
    mean-zero check and the pathwise identity along every score at once.
    A zero denominator raises :class:`EvaluationError`."""
    if candidate is None:
        derived = derive_eic(psi)
        normalized, eic = derived.estimand, derived.eic
    else:
        normalized, eic = normalize_functional(psi), candidate
    names = sorted(func_base_vars(psi))

    def check(space, *variables):
        binding = dict(zip(names, variables))
        gradient = evaluate_rv(eic, space, binding)
        influence = _influence(normalized, space, binding).influence
        if gradient != influence:
            return f"gradient={format_values(gradient)} influence={format_values(influence)}"
        return None

    return names, check


def certify_eic(
    psi: FuncExpr,
    trials: int,
    seed: int,
    candidate: RvExpr | None = None,
    max_outcomes: int = 8,
) -> CertifyReport:
    """Compare the gradient with psi's influence vector at every outcome,
    as :func:`certificate` does, on seeded random instances (no score is
    drawn), through :func:`~eicalg.sampling.check_instances`: a degenerate
    draw is skipped, ``checked`` counts the trials actually checked, and too
    few of them fail the report.  Failures are reported, not raised.
    ``trials``, ``seed`` and ``max_outcomes`` are read as
    :func:`~eicalg.sampling.draws` reads them."""
    names, check = certificate(psi, candidate)
    instances = draws(names, trials, seed, max_outcomes)
    [(checked, counterexample)] = check_instances([check], instances)
    return CertifyReport(
        estimand=render_func(psi),
        trials=setting("--trials", trials),
        checked=checked,
        passed=counterexample is None,
        counterexample=counterexample,
    )


def mean_zero_certificate(form: CanonForm) -> bool:
    """Symbolic check that a gradient, given by its canonical form, has
    expectation zero."""
    return expectation_of_form(form).is_zero
