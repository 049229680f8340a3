"""Typed errors of the library's guards: each input raises its documented
exception class with its message."""

from fractions import Fraction

import pytest

from eicalg.canon import CanonForm, expectation_of_form
from eicalg.eic import PathSpec, certify_eic, derive_eic
from eicalg.errors import (
    DataError,
    ExactModeError,
    NormalizationError,
    SpaceMismatchError,
    UsageError,
)
from eicalg.estimate import CompiledEstimand, Dataset, normal_quantile, wald_ci
from eicalg.expr import (
    E,
    FuncPower,
    IntPower,
    Smooth,
    evaluate_func,
    evaluate_rv,
    rv_pow,
    var,
)
from eicalg.mc import resolve_sampler
from eicalg.measure import FiniteProbSpace, RandVar
from eicalg.verify import run_suite

X = var("X")
HALVES = FiniteProbSpace(("a", "b"), (Fraction(1, 2), Fraction(1, 2)))
ON_HALVES = {"X": RandVar(HALVES, [1, 2])}
THIRDS = FiniteProbSpace(("a", "b", "c"), (Fraction(1, 3),) * 3)

CASES = [
    pytest.param(
        lambda: FiniteProbSpace(("a",), ()), UsageError, "one weight per outcome required",
        id="space-weight-missing",
    ),
    pytest.param(
        lambda: FiniteProbSpace((), ()), UsageError, "a space needs at least one outcome",
        id="space-empty",
    ),
    pytest.param(
        lambda: RandVar(HALVES, [1, 2]) ** -1, UsageError, "integer power >= 0 required",
        id="randvar-negative-power",
    ),
    pytest.param(
        lambda: Dataset({}, [], 0), DataError, "at least one row required",
        id="dataset-no-rows",
    ),
    pytest.param(
        lambda: Dataset({"X": (1, [1, 2])}, [1], 1), DataError,
        "each column needs one value per row", id="dataset-ragged",
    ),
    pytest.param(
        lambda: normal_quantile(0.0), UsageError, "quantile argument must lie in (0, 1)",
        id="quantile-at-zero",
    ),
    pytest.param(
        lambda: wald_ci(0.0, -1.0, 0.95), UsageError, "standard error must be nonnegative",
        id="wald-negative-se",
    ),
    pytest.param(
        lambda: resolve_sampler("gaussian-grid", {"mean": 0, "sd": 1, "points": 2}),
        UsageError, "a gaussian grid needs at least three 'points'", id="gaussian-two-points",
    ),
    pytest.param(
        lambda: evaluate_func(E(X), HALVES, {}, "bogus"), UsageError,
        "unknown mode 'bogus'", id="unknown-mode",
    ),
    pytest.param(
        lambda: evaluate_rv(X * 2, HALVES, ON_HALVES, "bogus"), UsageError,
        "unknown mode 'bogus'", id="unknown-mode-without-a-functional",
    ),
    pytest.param(
        lambda: evaluate_func(E(X), HALVES, ON_HALVES, "bogus"), UsageError,
        "unknown mode 'bogus'", id="unknown-mode-pointwise",
    ),
    pytest.param(
        lambda: derive_eic(E(X), mode="bogus"), UsageError, "unknown mode 'bogus'",
        id="unknown-mode-derive",
    ),
    pytest.param(
        lambda: CompiledEstimand(E(X), "bogus"), UsageError, "unknown mode 'bogus'",
        id="unknown-mode-compiled-estimand",
    ),
    pytest.param(
        lambda: evaluate_func(Smooth("exp", E(X)), HALVES, ON_HALVES), ExactModeError,
        "smooth functional 'exp' requires float mode", id="smooth-in-exact-mode",
    ),
    pytest.param(
        lambda: IntPower(X, 0), UsageError, "integer power nodes require exponent >= 1",
        id="intpower-zero",
    ),
    pytest.param(
        lambda: FuncPower(E(X), 0), UsageError, "integer power nodes require exponent >= 1",
        id="funcpower-zero",
    ),
    pytest.param(
        lambda: rv_pow(X, -1), UsageError, "integer power >= 0 required", id="rv-pow-negative",
    ),
    pytest.param(
        lambda: PathSpec(HALVES, RandVar(THIRDS, [1, 0, -1])), SpaceMismatchError,
        "score does not live on the path's space", id="path-score-on-another-space",
    ),
    pytest.param(
        lambda: certify_eic(E(X), 10, 0, max_outcomes=1), UsageError,
        "--max-outcomes must lie in [2, 1000]", id="certify-one-outcome",
    ),
    pytest.param(
        lambda: certify_eic(E(X), 10, 0, max_outcomes=5000), UsageError,
        "--max-outcomes must lie in [2, 1000]", id="certify-outcomes-above-bound",
    ),
    pytest.param(
        lambda: certify_eic(E(X), 0, 0), UsageError, "--trials must be at least 1",
        id="certify-no-trials",
    ),
    pytest.param(
        lambda: run_suite("nonsense", 1, 0, 8), UsageError, "unknown suite 'nonsense'",
        id="unknown-suite",
    ),
    pytest.param(
        lambda: expectation_of_form(CanonForm.from_atom(("v", "X")).reciprocal()),
        NormalizationError, "expectation of a form with base variables in a denominator",
        id="expectation-of-variable-denominator",
    ),
]


@pytest.mark.parametrize("build, error, message", CASES)
def test_typed_error(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_certify_reads_strings_as_flags():
    report = certify_eic(E(X), "10", "0")
    assert report.trials == 10 and type(report.trials) is int
    assert report == certify_eic(E(X), 10, 0)
