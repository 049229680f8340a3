"""Gradient calculus for scalar functionals of a law.

``derive_eic`` turns a functional of moments into its canonical gradient by
structural recursion: the base rule sends a moment to its centered argument,
and sums, products, powers, reciprocals, and registered smooth functions are
handled by linearity, the Leibniz rule, and the chain rule.  The result is
always exactly mean-zero.

``pathwise_derivative_exact`` is the independent certificate: it tilts the
weights along a mean-zero score direction and carries each subexpression of a
rational functional of moments as an exact dual number (value, slope) over
the rationals, so the derivative at zero comes out exactly.  For a correct
gradient this must equal the inner product of the gradient with the score,
with no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canon import CanonForm, expectation_of_form, normalize_functional
from .errors import EvaluationError, ExactModeError, SpaceMismatchError, UsageError
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
from .measure import FiniteProbSpace, RandVar, expectation, inner
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
    """d/deps of psi at the tilted law, evaluated exactly at eps = 0."""
    return _tilt(normalize_functional(psi), path, binding)[1]


def _tilt(f: FuncExpr, path: PathSpec, binding: dict[str, RandVar]):
    """(value, slope) at eps = 0 of a normalized functional along the tilt.

    Forward-mode dual numbers over Q: along the linear tilt a moment E[v] is
    affine in eps with slope <v, s>, and sums, products, powers and
    reciprocals carry the slope by their first-order rules.
    """
    if isinstance(f, FuncConst):
        return f.value, Fraction(0)
    if isinstance(f, Moment):
        values = evaluate_rv(f.arg, path.space, binding)
        return expectation(path.space, values), inner(path.space, values, path.score)
    if isinstance(f, FuncSum):
        parts = [_tilt(t, path, binding) for t in f.terms]
        return sum(v for v, _ in parts), sum(d for _, d in parts)
    if isinstance(f, FuncProduct):
        value, slope = Fraction(1), Fraction(0)
        for x in f.factors:
            v, d = _tilt(x, path, binding)
            value, slope = value * v, slope * v + value * d
        return value, slope
    if isinstance(f, FuncPower):
        v, d = _tilt(f.base, path, binding)
        return v**f.exponent, f.exponent * v ** (f.exponent - 1) * d
    if isinstance(f, Reciprocal):
        v, d = _tilt(f.arg, path, binding)
        if v == 0:
            raise EvaluationError("reciprocal of a functional evaluating to zero")
        return 1 / v, -d / v**2
    if isinstance(f, Smooth):
        raise ExactModeError(f"no exact tilt slope for smooth functional {f.tag!r}")
    raise TypeError(f"not a functional expression: {f!r}")


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
    (a space, those variables, a score) against the (derived or supplied)
    gradient: it must have mean exactly zero under the instance's law, and
    the exact tilt derivative must equal its inner product with the score.
    The mean-zero check matters: scores are orthogonal to constants, so the
    derivative identity alone cannot see a missing centering.  A zero
    denominator raises :class:`EvaluationError`."""
    if candidate is None:
        derived = derive_eic(psi)
        normalized, eic = derived.estimand, derived.eic
    else:
        normalized, eic = normalize_functional(psi), candidate
    names = sorted(func_base_vars(psi))

    def check(space, *drawn):
        binding, score = dict(zip(names, drawn[:-1])), drawn[-1]
        eic_values = evaluate_rv(eic, space, binding)
        path_side = _tilt(normalized, PathSpec(space, score), binding)[1]
        eic_mean = expectation(space, eic_values)
        if eic_mean != 0:
            return f"gradient mean {eic_mean} is not zero"
        gradient_side = inner(space, eic_values, score)
        if path_side != gradient_side:
            return (
                f"score={format_values(score)}"
                f" path-derivative={path_side} inner-product={gradient_side}"
            )
        return None

    return names, check


def certify_eic(
    psi: FuncExpr,
    trials: int,
    seed: int,
    candidate: RvExpr | None = None,
    max_outcomes: int = 8,
) -> CertifyReport:
    """Check the pathwise-derivative identity of :func:`certificate` on
    seeded random instances, through :func:`~eicalg.sampling.check_instances`:
    a degenerate draw is skipped, ``checked`` counts the trials actually
    checked, and too few of them fail the report.  Failures are reported,
    not raised.  ``trials``, ``seed`` and ``max_outcomes`` are read as
    :func:`~eicalg.sampling.draws` reads them.
    """
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
