"""Estimation from data: empirical laws, plug-in and one-step estimators.

A law is a :class:`Dataset`: columns of Python ints over one scale each,
with a count per row.  A data cell is parsed exactly, as an integer over a
power of ten, and each column is kept over the largest power of ten of its
cells, so no cell is ever a binary float or a ``Fraction``.  A plug-in
functional of moments and its gradient are rational in primitive moments
E[X^a Y^b]: a call compiles the estimand once, in one mode, as a
:class:`CompiledEstimand`, and each estimator runs one flat program over
integer (numerator, denominator) pairs: one step per distinct node, one
``Fraction`` per result, power columns shared by a study's replicates.
Results are exact; the empirical mean of a plug-in gradient is exactly
zero.  Float mode rounds every embedded functional to a float as pointwise
evaluation does, so both modes give the same numbers as evaluating row by
row on :func:`empirical_space`, the independent route, which shares no
evaluator with the programs.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import repeat
from operator import mul
from fractions import Fraction
from statistics import NormalDist

from .canon import canonicalize_rv, expectation_of_form
from .eic import derive_eic
from .errors import DataError, EicalgError, EvaluationError, ExactModeError, UsageError
from .expr import (
    SMOOTH_TABLE, FuncConst, FuncExpr, FuncPower, FuncProduct, FuncSum, Moment, Reciprocal,
    RvExpr, Smooth, _checked_mode, bounded_exponent, evaluate_rv, func_base_vars, to_float,
)
from .measure import FiniteProbSpace, RandVar, expectation, inner
from .numerals import digit_limit, setting

__all__ = [
    "Dataset",
    "CompiledEstimand",
    "read_delimited",
    "empirical_space",
    "plugin_estimate",
    "eic_standard_error",
    "onestep_estimate",
    "standard_error",
    "normal_quantile",
    "wald_ci",
]


class Dataset:
    """A finite law over named columns, with its primitive moments.

    ``columns`` maps each name to ``(scale, ints)``: row ``i`` holds the
    value ``ints[i] / scale``.  The law puts mass ``counts[i] / total`` on
    row ``i`` (data rows count one each, a Monte Carlo replicate counts its
    draws) and ``n`` is the total, so a primitive moment E[prod_j X_j^a_j]
    is the single integer sum ``sum_i c_i prod_j x_ij^a_j`` divided by
    ``total * prod_j scale_j^a_j``.  The law decides once whether every
    count is 1, and keeps each moment it has valued as a pair, so
    estimators valued on it share one pass per moment.
    """

    def __init__(self, columns: dict, counts, total: int):
        self._columns, self._counts, self.n = columns, list(counts), total
        self._unit = self._counts.count(1) == len(self._counts)
        self._pairs, self._powers = {}, None
        if not self._counts:
            raise DataError("at least one row required")
        if any(len(ints) != len(self._counts) for _, ints in columns.values()):
            raise DataError("each column needs one value per row")

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The exact rows, each repeated by its count."""
        values = zip(*(
            [Fraction(x, scale) for x in ints] for scale, ints in self._columns.values()
        ))
        return tuple(row for row, c in zip(values, self._counts) for _ in range(c))

    def subset(self, start: int, stop: int) -> "Dataset":
        """The law of rows ``start`` to ``stop``, on the same scales."""
        counts = self._counts[start:stop]
        columns = {
            name: (scale, ints[start:stop])
            for name, (scale, ints) in self._columns.items()
        }
        return Dataset(columns, counts, sum(counts))

    def recount(self, counts, total: int) -> "Dataset":
        """The law of these rows counted by ``counts`` over ``total``; it
        and this law share their power columns."""
        law = Dataset(self._columns, counts, total)
        law._powers = self._powers = {} if self._powers is None else self._powers
        return law

    def moment(self, mono) -> Fraction:
        """E[prod X^a] of a base monomial ((name, exponent), ...), by one
        lazy integer pass over the rows that builds no list but the power
        columns that recounted laws share; the counts are multiplied in only
        when one of them is not 1."""
        terms, scale = None if self._unit else self._counts, self.n
        for name, exponent in mono:
            column_scale, column = self._columns[name]
            factor = column if exponent == 1 else map(pow, column, repeat(exponent))
            if exponent > 1 and self._powers is not None:
                key = name, exponent
                factor = self._powers[key] = self._powers.get(key) or [*factor]
            terms = factor if terms is None else map(mul, terms, factor)
            scale *= column_scale**exponent
        return Fraction(sum(self._counts if terms is None else terms), scale)

    def pair(self, mono) -> tuple[int, int]:
        """E[prod X^a] as (numerator, denominator), valued once per law."""
        if mono not in self._pairs:
            self._pairs[mono] = self.moment(mono).as_integer_ratio()
        return self._pairs[mono]


# A cell is the expression grammar's numeral with an optional sign, between
# optional whitespace (``\s`` is exactly ``str.isspace``): the integer with
# its sign, and the digits after the point.
_CELL = re.compile(r"\s*(-?[0-9]+)(?:\.([0-9]+))?\s*")
# The same with a fixed point part (``{}``), padded only by what ``int()``
# strips: every ``\s`` but the unit separator.
_FIXED = r"[^\S\x1f]*-?[0-9]+{}[^\S\x1f]*"
_CHUNK = 1024  # rows converted at a time, so few cells are alive at once


def read_delimited(text: str) -> Dataset:
    """Parse comma-separated data: header line, decimal numerals, no quoting.

    Rows are validated before they are converted.  If every row matches one
    pattern of k cells with the first row's places, a column is the ints of
    its cells without their points.  Otherwise each cell is read on its own,
    and the first ragged row or bad cell raises.
    """
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if len(lines) < 2:
        raise DataError("need a header line and at least one data row")
    if any(ch in text for ch in ('"', "'", "\\")):
        raise DataError("quoting and escapes are not supported")
    names = [name.strip() for name in lines[0].split(",")]
    if any(not name for name in names):
        raise DataError("empty column name")
    rows, k = lines[1:], len(names)
    first = [len(cell.strip().partition(".")[2]) for cell in rows[0].split(",")]
    fixed = ",".join(_FIXED.format(rf"\.[0-9]{{{p}}}" if p else "") for p in first)
    try:
        if len(first) == k and all(map(re.compile(fixed).fullmatch, rows)):
            columns = [(10**p, []) for p in first]
            for start in range(0, len(rows), _CHUNK):
                cells = ",".join(rows[start : start + _CHUNK]).replace(".", "").split(",")
                for j, (_, ints) in enumerate(columns):
                    ints.extend(map(int, cells[j::k]))
        else:
            columns = _cell_by_cell(rows, k)
    except DataError:
        raise
    except ValueError:  # int() of a valid cell: too many digits
        raise DataError(digit_limit("data cell") + " for an integer") from None
    if len(set(names)) != len(names):
        raise DataError("column names must be distinct")
    return Dataset(dict(zip(names, columns)), [1] * len(rows), len(rows))


def _cell_by_cell(rows: list[str], k: int) -> list:
    """The k columns of ``rows``, each over the largest power of ten of its
    cells; the first ragged row or bad cell, in row order, raises."""
    values, digits = [[] for _ in range(k)], [[] for _ in range(k)]
    fullmatch = _CELL.fullmatch
    for line in rows:
        cells = line.split(",")
        if len(cells) != k:
            raise DataError("ragged row")
        for cell, column, places in zip(cells, values, digits):
            m = fullmatch(cell)
            if m is None:
                raise DataError(f"non-numeric cell {cell.strip()!r}")
            whole, frac = m.groups("")
            column.append(int(whole + frac))
            places.append(len(frac))
    columns = []
    for column, places in zip(values, digits):
        top = max(places)
        columns.append((10**top, [v * 10 ** (top - d) for v, d in zip(column, places)]))
    return columns


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


class _Program:
    """Steps over integer (numerator, denominator) pairs, compiled from
    functionals in the order the valuation walk meets their nodes, one step
    per distinct node: a sum of terms (numerator, denominator, ((step,
    exponent), ...)), a primitive moment of a law, a reciprocal checked for
    zero, a float (rounded, or through a smooth function), or an error the
    walk meets before reading data, which ends the steps."""

    def __init__(self, mode: str, forms: dict):
        self.steps, self.known, self.terms, self.forms = [], {}, {}, forms
        self.float = mode == "float"

    def add(self, kind: str, arg) -> int:
        """The index of the step (kind, arg), appended the first time."""
        if (kind, arg) not in self.known:
            self.known[kind, arg] = len(self.steps)
            self.steps.append((kind, arg))
        return self.known[kind, arg]

    def at(self, terms: list) -> int:
        """The index of a step valued as the sum of ``terms``."""
        if len(terms) == 1 and terms[0][:2] == (1, 1) and [e for _, e in terms[0][2]] == [1]:
            return terms[0][2][0][0]
        return self.add("sum", tuple(terms))

    def func(self, f) -> tuple:
        """Functional ``f`` as one term, its parts compiled first."""
        if f in self.terms:
            return self.terms[f]
        if isinstance(f, FuncConst):
            term = (*f.value.as_integer_ratio(), ())
        elif isinstance(f, (FuncSum, Moment)):
            terms = self.expect(f.arg, 0)[0] if isinstance(f, Moment) else map(self.func, f.terms)
            term = (1, 1, ((self.at([*terms]), 1),))
        elif isinstance(f, (FuncProduct, FuncPower)):
            n, d, atoms = 1, 1, ()
            for p, q, more in map(self.func, f.factors if isinstance(f, FuncProduct) else [f.base]):
                n, d, atoms = n * p, d * q, atoms + more
            k = bounded_exponent(f.exponent) if isinstance(f, FuncPower) else 1
            term = (n**k, d**k, tuple((i, e * k) for i, e in atoms))
        elif isinstance(f, Reciprocal) or isinstance(f, Smooth) and self.float:
            arg = self.at([self.func(f.arg)])
            kind = ("inv", arg) if isinstance(f, Reciprocal) else ("float", (f.tag, arg))
            term = (1, 1, ((self.add(*kind), 1),))
        else:
            raise ExactModeError(f"smooth functional {f.tag!r} requires float mode")
        self.terms[f] = term
        return term

    def embedded(self, f) -> int:
        """The step of an embedded functional: in float mode, rounded."""
        index = self.at([self.func(f)])
        return self.add("float", (None, index)) if self.float else index

    def expect(self, e, law: int, square=False) -> list:
        """The terms of E[e], and of E[e^2] if ``square``, over primitive
        moments of ``laws[law]`` and e's embedded functionals, compiled
        first in walk order, cancelled or not."""
        if (e, square) not in self.forms:
            atoms: dict = {}
            form = canonicalize_rv(e, atoms)
            forms = [form, form * form] if square else [form]
            self.forms[e, square] = atoms, [expectation_of_form(f).num for f in forms]
        atoms, polys = self.forms[e, square]
        index = {("s", (key, f)): self.embedded(f) for key, f in atoms.items()}
        for mono in sorted({k for poly in polys for m in poly for (t, k), _ in m if t == "m"}):
            index["m", mono] = self.add("moment", (law, mono))
        return [  # sorted, so that no step follows the iteration order of a set
            sorted((*c.as_integer_ratio(), tuple(sorted((index[a], x) for a, x in m)))
                   for m, c in poly.items())
            for poly in polys
        ]

    def run(self, laws) -> list:
        """The value of every step under ``laws``, as integer pairs."""
        values = []
        for kind, arg in self.steps:
            if kind == "sum":
                num, den = 0, 1
                for n, d, atoms in arg:
                    for index, exponent in atoms:
                        p, q = values[index]
                        n, d = n * p**exponent, d * q**exponent
                    g = math.gcd(den, d)
                    num, den = num * (d // g) + n * (den // g), den // g * d
                values.append((num, den))
            elif kind == "moment":
                values.append(laws[arg[0]].pair(arg[1]))
            elif kind == "inv":
                p, q = values[arg]
                if p == 0:
                    raise EvaluationError("reciprocal of a functional evaluating to zero")
                values.append((q, p) if p > 0 else (-q, -p))
            elif kind == "float":
                x = to_float(Fraction(*values[arg[1]]))
                values.append((SMOOTH_TABLE[arg[0]].at(x) if arg[0] else x).as_integer_ratio())
            else:
                raise arg.with_traceback(None)
        return values


class CompiledEstimand:
    """An estimand compiled once and valued on many laws.

    On first use each estimator compiles into a :class:`_Program`: the
    estimand, the gradient g's E[g^2] - E[g]^2, or the estimand with g's
    held-out mean.  Each moment argument, and g, is canonicalized once with
    its embedded functionals as opaque atoms, each valued, cancelled or
    not, as pointwise evaluation does.  A run takes one step per distinct
    node and builds one ``Fraction`` per result; a study's replicates share
    power columns (:meth:`Dataset.recount`).
    """

    def __init__(self, psi: FuncExpr, mode: str = "exact"):
        self.psi, self.mode = psi, _checked_mode(mode)
        self._forms, self._programs = {}, {}
        # from psi as written: expansion may cancel a variable (E[X + Z - Z])
        # that a law still has to provide
        self._names = frozenset(func_base_vars(psi))

    @cached_property
    def eic(self) -> RvExpr:
        return derive_eic(self.psi, mode=self.mode).eic

    def value(self, table: Dataset):
        """The estimand under the law ``table``; a float in float mode."""
        return self.run("value", table)

    def variance(self, table: Dataset) -> Fraction:
        """E[g^2] - E[g]^2 of the gradient g; as :func:`eic_variance`."""
        return self.run("variance", table)

    def run(self, target: str, *laws):
        """The ``value`` or ``variance`` under a law, or the ``onestep``
        estimate under a fitted and a held-out law: the fitted estimand (in
        float mode, its float) plus the held-out mean of its gradient.  A
        law without a column of psi raises :class:`EvaluationError` first."""
        for law in laws:
            if not self._names <= law._columns.keys():
                missing = self._names - law._columns.keys()
                raise EvaluationError(f"unbound variable {min(missing)!r}")
        if target not in self._programs:
            program = _Program(self.mode, self._forms)
            try:
                if target == "variance":
                    mean, square = program.expect(self.eic, 0, square=True)
                    result = program.at(square + [(-1, 1, ((program.at(mean), 2),))])
                elif target == "onestep":
                    fitted = (1, 1, ((program.embedded(self.psi), 1),))
                    result = program.at([fitted, *program.expect(self.eic, 1)[0]])
                else:
                    result = program.at([program.func(self.psi)])
            except EicalgError as exc:
                result = program.add("raise", exc)
            self._programs[target] = program, result
        program, result = self._programs[target]
        value = Fraction(*program.run(laws)[result])
        return to_float(value) if self.mode == "float" and target != "variance" else value


def plugin_estimate(estimand: CompiledEstimand, data: Dataset):
    """The estimand evaluated at the empirical measure."""
    return estimand.value(data)


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


def eic_standard_error(estimand: CompiledEstimand, data: Dataset) -> float:
    """Standard error sqrt(Var_hat(gradient)/n) at the empirical measure."""
    return standard_error(estimand.variance(data), data.n)


def onestep_estimate(
    estimand: CompiledEstimand, data: Dataset, split_ratio=Fraction(1, 2)
):
    """Sample-split one-step estimator.

    The functional and its gradient are fitted on the first fold of rows;
    the correction is the held-out average of the fitted gradient, a
    polynomial in held-out moments whose coefficients are fitted moments.
    With ``split_ratio`` equal to one there is no held-out fold and the
    plug-in estimate is returned unchanged (its own gradient mean is exactly
    zero).  Float mode rounds the fitted estimate and every fitted embedded
    functional to a float, as :func:`plugin_estimate` does, and returns the
    float nearest their exact combination.  ``split_ratio`` is the setting
    ``--split`` of :func:`~eicalg.numerals.setting`, a rational in (0, 1].
    """
    ratio = setting("--split", split_ratio)
    n = data.n
    k = int(ratio * n)
    if ratio == 1:
        return plugin_estimate(estimand, data)
    if k < 1 or k >= n:
        raise UsageError("fold too small to evaluate the functional")
    return estimand.run("onestep", data.subset(0, k), data.subset(k, n))


# ---------------------------------------------------------------------------
# normal quantile and Wald intervals


def normal_quantile(p: float) -> float:
    """Standard normal quantile, by Wichura's AS241 algorithm in the
    standard library (``statistics.NormalDist().inv_cdf``)."""
    if not 0.0 < p < 1.0:
        raise UsageError("quantile argument must lie in (0, 1)")
    return NormalDist().inv_cdf(p)


def wald_ci(estimate: float, se: float, level: float) -> tuple[float, float]:
    """estimate +/- z * se at the given two-sided confidence level, the
    setting ``level`` of :func:`~eicalg.numerals.setting`."""
    level = setting("level", level)
    if se < 0:
        raise UsageError("standard error must be nonnegative")
    z = normal_quantile((1 + level) / 2)
    return (estimate - z * se, estimate + z * se)
