"""The scalar tilt walk of the certificate, kept verbatim as an oracle.

``_tilt`` below is the walk ``pathwise_derivative_exact`` used before it
carried influence vectors: it takes each subexpression of a normalized
functional to a (value, slope) pair along one score.  The shipped walk
carries each subexpression as a :class:`~eicalg.measure.Dual` and takes the
slope as the inner product of the influence vector with the score.  Both are
exact, so on every seeded draw they must give the same rational, or both
find a zero denominator.
"""

from fractions import Fraction

import pytest

from eicalg.canon import normalize_functional
from eicalg.eic import PathSpec, pathwise_derivative_exact
from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import (
    E,
    FuncConst,
    FuncExpr,
    FuncPower,
    FuncProduct,
    FuncSum,
    Moment,
    Reciprocal,
    Smooth,
    evaluate_rv,
    func_base_vars,
    inv,
    var,
)
from eicalg.measure import RandVar, expectation, inner
from eicalg.parser import parse_expression
from eicalg.sampling import random_binding, random_score, random_space, trial_rng
from workloads import derive_corpus


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


X, Y = var("X"), var("Y")
VARIANCE = E(X**2) - E(X) ** 2
COVARIANCE = E(X * Y) - E(X) * E(Y)
# the estimands of the eic-certificates suite, then four with reciprocals
CATALOG = [E(X), E(X**2), VARIANCE, COVARIANCE, E(X) * E(Y)]
RECIPROCALS = [
    E(X * Y) * inv(E(Y)),
    COVARIANCE * inv(VARIANCE),
    COVARIANCE**2 * inv(VARIANCE * (E(Y**2) - E(Y) ** 2)),
    E((X - E(X)) ** 4) * inv(VARIANCE**2),
]


def compared_draws(psi, seed, draws, max_outcomes=8):
    """The number of seeded draws on which both walks are defined; on each
    they agree, and on every other draw both raise ``EvaluationError``."""
    normalized, names = normalize_functional(psi), sorted(func_base_vars(psi))
    compared = 0
    for index in range(draws):
        rng = trial_rng(seed, index)
        space = random_space(rng, max_outcomes)
        binding = random_binding(rng, space, names)
        path = PathSpec(space, random_score(rng, space))
        try:
            want = _tilt(normalized, path, binding)[1]
        except EvaluationError:
            with pytest.raises(EvaluationError):
                pathwise_derivative_exact(psi, path, binding)
            continue
        assert pathwise_derivative_exact(psi, path, binding) == want, (str(psi), seed, index)
        compared += 1
    return compared


def test_every_derive_corpus_estimand_defined_on_its_draws():
    compared = [compared_draws(parse_expression(text), f"tilt:{i}", 3)
                for i, text in enumerate(derive_corpus())]
    assert all(compared)  # each is defined on at least one of its draws
    assert sum(compared) >= 890


@pytest.mark.parametrize("psi", CATALOG, ids=str)
def test_catalog_estimands(psi):
    assert compared_draws(psi, "tilt-catalog", 200) == 200


@pytest.mark.parametrize("psi", RECIPROCALS, ids=str)
def test_reciprocal_estimands(psi):
    # on two or three outcomes a variance or a mean is sometimes zero: skipped
    assert 0 < compared_draws(psi, "tilt-reciprocal", 100, max_outcomes=3) < 100
