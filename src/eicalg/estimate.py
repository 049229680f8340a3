"""Estimation from data: empirical measures, plug-in and one-step estimators.

Data cells are parsed exactly (a decimal literal is a ratio over a power of
ten).  A plug-in functional of moments and its gradient are rational in
primitive moments E[X^a Y^b], so each estimator compiles the functional
once (:class:`CompiledEstimand`) and values it on a :class:`MomentTable`,
whose primitive moments are integer sums over columns scaled to integers.
Results are exact; the empirical mean of a plug-in gradient is exactly
zero.  Float mode rounds every embedded functional to a float as pointwise
evaluation does, so both modes give the same numbers as evaluating row by
row on :func:`empirical_space`, which stays as the independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from statistics import NormalDist

from .canon import canonicalize_rv, expectation_of_form
from .eic import derive_eic
from .errors import DataError, EvaluationError
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
    evaluate_func_with,
    evaluate_rv,
    func_base_vars,
    rv_pow,
    rv_product,
    rv_sum,
    to_float,
)
from .measure import FiniteProbSpace, RandVar, expectation, inner
from .numerals import is_decimal_literal

__all__ = [
    "Dataset",
    "MomentTable",
    "CompiledEstimand",
    "read_delimited",
    "empirical_space",
    "plugin_estimate",
    "eic_standard_error",
    "onestep_estimate",
    "bind_moments",
    "standard_error",
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
    whole, _, frac = body.partition(".")
    value = Fraction(int(whole + frac), 10 ** len(frac))
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


class MomentTable:
    """Exact primitive moments of a finite law given by columns and counts.

    The law puts mass ``counts[i] / total`` on row ``i``.  Column ``j`` is
    scaled once to Python ints ``x_ij = D_j * value_ij``, with ``D_j`` the
    lcm of its denominators, so a primitive moment E[prod_j X_j^a_j] is the
    single integer sum ``sum_i c_i prod_j x_ij^a_j`` divided by
    ``total * prod_j D_j^a_j``.  Each moment is computed on first use and
    cached.
    """

    def __init__(self, columns: dict, counts, total: int):
        self._columns = {}
        for name, values in columns.items():
            scale = math.lcm(*{v.denominator for v in values})
            ints = [v.numerator * (scale // v.denominator) for v in values]
            self._columns[name] = (scale, ints)
        self._counts = list(counts)
        self._total = total
        self._moments: dict = {}

    def moment(self, mono) -> Fraction:
        """E[prod X^a] of a base monomial ((name, exponent), ...)."""
        value = self._moments.get(mono)
        if value is None:
            terms, scale = self._counts, self._total
            for name, exponent in mono:
                column_scale, column = self._columns[name]
                terms = [t * x**exponent for t, x in zip(terms, column)]
                scale *= column_scale**exponent
            value = self._moments[mono] = Fraction(sum(terms), scale)
        return value

    def value(self, poly, scalars: dict) -> Fraction:
        """A polynomial over moment and opaque atoms, as one integer sum."""
        num, den = 0, 1
        for mono, coeff in poly.items():
            n, d = coeff.numerator, coeff.denominator
            for (kind, key), exp in mono:
                x = self.moment(key) if kind == "m" else scalars[key[0]]
                n, d = n * x.numerator**exp, d * x.denominator**exp
            g = math.gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den // g * d
        return Fraction(num, den)


class CompiledEstimand:
    """An estimand compiled once and valued on many laws (moment tables).

    Each moment argument, and the gradient, is canonicalized once to a form
    P whose embedded functionals are opaque atoms, so E[P] (and E[P^2]) is
    a fixed polynomial in primitive moments and those atoms.  A law values
    every atom met, cancelled or not, by the tree walk, as pointwise
    evaluation does, and substitutes: one rational function, same values.
    """

    def __init__(self, psi: FuncExpr, mode: str = "exact"):
        self.psi, self.mode, self._forms = psi, mode, {}

    @cached_property
    def eic(self) -> RvExpr:
        return derive_eic(self.psi, mode=self.mode).eic

    def value(self, table: MomentTable, f: FuncExpr | None = None):
        """The estimand, or ``f``, under the table's law; as evaluate_func."""
        expect = lambda arg: self.means(arg, table)[0]  # noqa: E731
        return evaluate_func_with(f or self.psi, expect, self.mode)

    def variance(self, table: MomentTable) -> Fraction:
        """E[g^2] - E[g]^2 of the gradient g; as :func:`eic_variance`."""
        mean, square = self.means(self.eic, table, square=True)
        return square - mean * mean

    def means(self, e: RvExpr, table, fit=None, square=False) -> list:
        """E[e], and E[e^2] if ``square``, with moments under ``table`` and
        embedded functionals under ``fit`` (by default ``table``)."""
        if (e, square) not in self._forms:
            atoms: dict = {}
            form = canonicalize_rv(e, atoms)
            forms = [form, form * form] if square else [form]
            self._forms[e, square] = atoms, [expectation_of_form(f).num for f in forms]
        atoms, polys = self._forms[e, square]
        scalars = {k: Fraction(self.value(fit or table, f)) for k, f in atoms.items()}
        return [table.value(poly, scalars) for poly in polys]


def _data_table(psi: FuncExpr, data: Dataset) -> MomentTable:
    """Moment table of the empirical law over the columns ``psi`` uses.

    Every row counts one over n, so duplicate rows need no merging.  The
    variables are checked before anything is expanded: expansion may cancel
    a variable (``E[X + Z - Z]``) that the data still has to provide.
    """
    used = func_base_vars(psi)
    missing = used - set(data.columns)
    if missing:
        raise EvaluationError(f"unbound variable {min(missing)!r}")
    columns = {
        name: values
        for name, values in zip(data.columns, zip(*data.rows))
        if name in used
    }
    return MomentTable(columns, [1] * data.n, data.n)


def plugin_estimate(psi: FuncExpr, data: Dataset, mode: str = "exact"):
    """Functional evaluated at the empirical measure."""
    return CompiledEstimand(psi, mode).value(_data_table(psi, data))


def _bind_embedded(e: RvExpr, value_of) -> RvExpr:
    """Replace each embedded functional ``f`` by the constant ``value_of(f)``."""
    if isinstance(e, (BaseVar, RvConst)):
        return e
    if isinstance(e, RvSum):
        return rv_sum(*(_bind_embedded(t, value_of) for t in e.terms))
    if isinstance(e, RvProduct):
        return rv_product(*(_bind_embedded(f, value_of) for f in e.factors))
    if isinstance(e, IntPower):
        return rv_pow(_bind_embedded(e.base, value_of), e.exponent)
    if isinstance(e, EmbedFunc):
        return RvConst(value_of(e.func))
    raise TypeError(f"not a random-variable expression: {e!r}")


def bind_moments(e: RvExpr, space: FiniteProbSpace, binding) -> RvExpr:
    """Replace embedded functionals by their values under the given law.

    The result is free of embedded moments and can be evaluated pointwise
    under any other law, which is what the one-step correction needs.
    """
    return _bind_embedded(e, lambda f: evaluate_func(f, space, binding, "exact"))


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


def standard_error(variance: Fraction, n: int) -> float:
    """sqrt(variance / n) as a float; beyond the float range it raises
    :class:`EvaluationError`."""
    return math.sqrt(to_float(variance / n))


def eic_standard_error(psi: FuncExpr, data: Dataset, mode: str = "exact") -> float:
    """Standard error sqrt(Var_hat(gradient)/n) at the empirical measure."""
    variance = CompiledEstimand(psi, mode).variance(_data_table(psi, data))
    return standard_error(variance, data.n)


def onestep_estimate(
    psi: FuncExpr, data: Dataset, split_ratio: Fraction = Fraction(1, 2)
) -> Fraction:
    """Sample-split one-step estimator.

    The functional and its gradient are fitted on the first fold; the
    correction is the held-out average of the fitted gradient, a polynomial
    in held-out moments whose coefficients are fitted moments.  With
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
    fit = _data_table(psi, data.subset(0, k))
    held = _data_table(psi, data.subset(k, n))
    compiled = CompiledEstimand(psi)
    return compiled.value(fit) + compiled.means(compiled.eic, held, fit)[0]


# ---------------------------------------------------------------------------
# normal quantile and Wald intervals


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by Wichura's AS241 algorithm in the
    standard library (``statistics.NormalDist().inv_cdf``)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie in (0, 1)")
    return NormalDist().inv_cdf(p)


def wald_ci(estimate: float, se: float, level: float) -> tuple[float, float]:
    """estimate +/- z * se at the given two-sided confidence level."""
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if se < 0:
        raise ValueError("standard error must be nonnegative")
    z = normal_quantile((1 + level) / 2)
    return (estimate - z * se, estimate + z * se)
