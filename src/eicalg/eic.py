"""Gradient calculus for scalar functionals of a law.

``derive_eic`` turns a functional of moments into its canonical gradient by
structural recursion: the base rule sends a moment to its centered argument,
and sums, products, powers, reciprocals, and registered smooth functions are
handled by linearity, the Leibniz rule, and the chain rule.  The result is
always exactly mean-zero.

The independent certificate values a rational functional of moments by a
compiled run of ``expr`` with ``Dual.mean`` as its moment rule: each
subexpression is a :class:`~eicalg.measure.Dual`, its value with its
influence vector, and a correct gradient must equal the influence vector at
every outcome, with no tolerance.  That is the tilt derivative along every
mean-zero score at once (``pathwise_derivative_exact`` takes one).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import is_

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
    _compiled,
    _raised,
    _run,
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
    """A normalized functional on one instance as a :class:`Dual`."""
    return _raised(_influences(_compiled([f]), space, binding)[0])


def _influences(program, space: FiniteProbSpace, binding: dict) -> list:
    """Each root of a program of normalized functionals on one instance as a
    :class:`Dual`, or the error its walk meets: a run with ``Dual.mean`` as
    its moment rule.  Normalized, each moment argument is a polynomial in
    base variables, so no vector meets a Dual; a constant has the zero vector."""
    values = _run(program, space, binding, "exact", Dual.mean)
    return [v if isinstance(v, (Dual, Exception)) else Dual(v, embed(0, space)) for v in values]


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CertifyReport:
    estimand: str
    trials: int
    checked: int
    passed: bool
    counterexample: str | None


def certificate(catalog):
    """The variables of the estimands of ``catalog``, pairs of psi and a
    supplied gradient (None for the derived one), in name order, and the
    check of each on one instance (a space and those variables): evaluated
    on the instance, the gradient must equal psi's influence vector at every
    outcome.  On a fully supported finite law the gradient is the one
    mean-zero vector whose inner product with every score is the tilt
    derivative along that score, and the influence vector is mean-zero with
    exactly that inner product, so equality at every outcome is the
    mean-zero check and the pathwise identity along every score at once.
    The gradients are one program and the normalized psi another, each run
    once per instance for every check.  A zero denominator raises
    :class:`EvaluationError` in its own estimand's check."""
    derived = [derive_eic(psi) if candidate is None else
               EicResult(normalize_functional(psi), candidate, ()) for psi, candidate in catalog]
    names = sorted(set().union(*(func_base_vars(psi) for psi, _ in catalog)))
    programs = _compiled([d.eic for d in derived]), _compiled([d.estimand for d in derived])
    runs = [None]  # both runs of the instance last checked, its space and its variables

    def check(k, space, *variables):
        if runs[0] is None or not all(map(is_, runs[1:], (space, *variables))):
            binding = dict(zip(names, variables))
            gradients = _run(programs[0], space, binding, "exact", expectation)
            runs[:] = (gradients, _influences(programs[1], space, binding)), space, *variables
        gradient = _raised(runs[0][0][k])
        gradient = gradient if isinstance(gradient, RandVar) else embed(gradient, space)
        influence = _raised(runs[0][1][k]).influence
        if gradient != influence:
            return f"gradient={format_values(gradient)} influence={format_values(influence)}"
        return None

    return names, [partial(check, k) for k in range(len(catalog))]


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
    names, [check] = certificate([(psi, candidate)])
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
