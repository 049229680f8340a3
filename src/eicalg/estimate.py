"""Estimation from data: empirical measures, plug-in and one-step estimators.

Data cells are parsed exactly (a decimal literal is a ratio over a power of
ten), duplicate rows merge into a single outcome with summed weight, and all
plug-in evaluation happens on the resulting finite space with exact
arithmetic.  In particular the empirical mean of a plug-in gradient is
exactly zero, not zero up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .eic import derive_eic
from .errors import DataError
from .expr import (
    BaseVar,
    EmbedFunc,
    FuncExpr,
    IntPower,
    RvConst,
    RvExpr,
    RvProduct,
    RvSum,
    evaluate_func,
    evaluate_rv,
    rv_pow,
    rv_product,
    rv_sum,
)
from .measure import FiniteProbSpace, RandVar, expectation, inner
from .numerals import is_decimal_literal

__all__ = [
    "Dataset",
    "read_delimited",
    "empirical_space",
    "plugin_estimate",
    "eic_standard_error",
    "onestep_estimate",
    "bind_moments",
    "normal_quantile",
    "wald_ci",
]


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric data with named columns."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(set(self.columns)) != len(self.columns):
            raise DataError("column names must be distinct")
        if not self.rows:
            raise DataError("at least one row required")
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise DataError("ragged row")

    @property
    def n(self) -> int:
        return len(self.rows)

    def subset(self, start: int, stop: int) -> "Dataset":
        return Dataset(self.columns, self.rows[start:stop])


def _parse_cell(text: str) -> Fraction:
    text = text.strip()
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if not is_decimal_literal(body):
        raise DataError(f"non-numeric cell {text!r}")
    value = Fraction(body)
    return -value if negative else value


def read_delimited(text: str) -> Dataset:
    """Parse comma-separated data: header line, decimal numerals, no quoting."""
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if len(lines) < 2:
        raise DataError("need a header line and at least one data row")
    if any(ch in text for ch in ('"', "'", "\\")):
        raise DataError("quoting and escapes are not supported")
    columns = tuple(name.strip() for name in lines[0].split(","))
    if any(not name for name in columns):
        raise DataError("empty column name")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise DataError("ragged row")
        rows.append(tuple(_parse_cell(cell) for cell in cells))
    return Dataset(columns, tuple(rows))


def empirical_space(data: Dataset) -> tuple[FiniteProbSpace, dict[str, RandVar]]:
    """Empirical measure as a finite space; duplicate rows merge.

    Outcome labels follow first appearance, so row order only affects
    labeling, never any evaluation.
    """
    counts: dict[tuple[Fraction, ...], int] = {}
    for row in data.rows:
        counts[row] = counts.get(row, 0) + 1
    distinct = list(counts)
    n = data.n
    space = FiniteProbSpace(
        tuple(f"r{i}" for i in range(len(distinct))),
        tuple(Fraction(counts[row], n) for row in distinct),
    )
    binding = {
        name: RandVar(space, tuple(row[j] for row in distinct))
        for j, name in enumerate(data.columns)
    }
    return space, binding


def plugin_estimate(psi: FuncExpr, data: Dataset, mode: str = "exact"):
    """Functional evaluated at the empirical measure."""
    space, binding = empirical_space(data)
    return evaluate_func(psi, space, binding, mode)


def bind_moments(e: RvExpr, space: FiniteProbSpace, binding) -> RvExpr:
    """Replace embedded functionals by their values under the given law.

    The result is free of embedded moments and can be evaluated pointwise
    under any other law, which is what the one-step correction needs.
    """
    if isinstance(e, (BaseVar, RvConst)):
        return e
    if isinstance(e, RvSum):
        return rv_sum(*(bind_moments(t, space, binding) for t in e.terms))
    if isinstance(e, RvProduct):
        return rv_product(*(bind_moments(f, space, binding) for f in e.factors))
    if isinstance(e, IntPower):
        return rv_pow(bind_moments(e.base, space, binding), e.exponent)
    if isinstance(e, EmbedFunc):
        return RvConst(evaluate_func(e.func, space, binding, "exact"))
    raise TypeError(f"not a random-variable expression: {e!r}")


def eic_variance(
    eic: RvExpr, space: FiniteProbSpace, binding, mode: str = "exact"
) -> Fraction:
    """Variance of a gradient under the law its moments are plugged into.

    Computed as the second moment minus the squared mean.  The plug-in
    gradient is exactly mean-zero in exact mode, but in float mode every
    embedded functional (moments included) is rounded to a float, so its
    mean need not vanish and is subtracted.
    """
    values = evaluate_rv(eic, space, binding, mode)
    mean = expectation(space, values)
    return inner(space, values, values) - mean * mean


def eic_standard_error(psi: FuncExpr, data: Dataset, mode: str = "exact") -> float:
    """Standard error sqrt(Var_hat(gradient)/n) at the empirical measure."""
    space, binding = empirical_space(data)
    eic = derive_eic(psi, mode=mode).eic
    return math.sqrt(eic_variance(eic, space, binding, mode) / data.n)


def onestep_estimate(
    psi: FuncExpr, data: Dataset, split_ratio: Fraction = Fraction(1, 2)
) -> Fraction:
    """Sample-split one-step estimator.

    The functional and its gradient are fitted on the first fold; the
    correction is the held-out average of the fitted gradient.  With
    ``split_ratio`` equal to one there is no held-out fold and the plug-in
    estimate is returned unchanged (its own gradient mean is exactly zero).
    """
    ratio = Fraction(split_ratio)
    if not 0 < ratio <= 1:
        raise ValueError("split ratio must lie in (0, 1]")
    n = data.n
    k = int(ratio * n)
    if ratio == 1:
        return plugin_estimate(psi, data)
    if k < 1 or k >= n:
        raise ValueError("fold too small to evaluate the functional")
    fit, held = data.subset(0, k), data.subset(k, n)
    fit_space, fit_binding = empirical_space(fit)
    estimate = evaluate_func(psi, fit_space, fit_binding, "exact")
    fitted_eic = bind_moments(derive_eic(psi).eic, fit_space, fit_binding)
    held_space, held_binding = empirical_space(held)
    correction = expectation(
        held_space, evaluate_rv(fitted_eic, held_space, held_binding)
    )
    return estimate + correction


# ---------------------------------------------------------------------------
# normal quantile and Wald intervals


def normal_quantile(p: float) -> float:
    """Standard normal quantile via Acklam's rational approximation.

    Piecewise rational minimax approximation (relative error below 1.2e-9)
    followed by one Halley refinement against the complementary error
    function, giving accuracy near machine precision and comfortably within
    1e-8.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    a = (
        -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
        1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
        6.680131188771972e01, -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
        -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    elif p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
        )
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    # Halley refinement on Phi(x) - p = 0
    err = 0.5 * math.erfc(-x / math.sqrt(2)) - p
    u = err * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    x = x - u / (1 + x * u / 2)
    return x


def wald_ci(estimate: float, se: float, level: float) -> tuple[float, float]:
    """estimate +/- z * se at the given two-sided confidence level."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if se < 0:
        raise ValueError("standard error must be nonnegative")
    z = normal_quantile((1 + level) / 2)
    return (estimate - z * se, estimate + z * se)
