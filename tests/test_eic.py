"""Gradient derivation and the pathwise-derivative certificate."""

from fractions import Fraction as Q

import pytest

from eicalg.canon import canonicalize_func, canonicalize_rv
from eicalg.eic import (
    certify_eic,
    derive_eic,
    make_path,
    mean_zero_certificate,
    pathwise_derivative_exact,
    pathwise_derivative_numeric,
)
from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import (
    E,
    FuncConst,
    Moment,
    Smooth,
    evaluate_rv,
    inv,
    var,
)
from eicalg.measure import FiniteProbSpace, expectation, inner
from eicalg.parser import parse_expression
from eicalg.sampling import random_binding, random_score, random_space, trial_rng

X, Y = var("X"), var("Y")
VARIANCE = E(X**2) - E(X) ** 2
COVARIANCE = E(X * Y) - E(X) * E(Y)
VARIANCE_Y = E(Y**2) - E(Y) ** 2
RATIONAL_ESTIMANDS = {
    "ratio-of-means": E(X * Y) * inv(E(Y)),
    "ols-slope": COVARIANCE * inv(VARIANCE),
    "squared-correlation": COVARIANCE**2 * inv(VARIANCE * VARIANCE_Y),
    "kurtosis": E((X - E(X)) ** 4) * inv(VARIANCE**2),
}


def halves():
    return FiniteProbSpace(("a", "b"), (Q(1, 2), Q(1, 2)))


def canon_equal(a, b):
    return canonicalize_rv(a) == canonicalize_rv(b)


class TestDeriveRules:
    def test_mean(self):
        result = derive_eic(E(X))
        assert canon_equal(result.eic, X - E(X))

    def test_variance_matches_centered_form(self):
        result = derive_eic(VARIANCE)
        mu = E(X)
        literal = (X - mu) * (X - mu) - E((X - mu) * (X - mu))
        assert canon_equal(result.eic, literal)

    def test_covariance_matches_centered_form(self):
        result = derive_eic(COVARIANCE)
        literal = (X - E(X)) * (Y - E(Y)) - COVARIANCE
        assert canon_equal(result.eic, literal)

    def test_constant_has_zero_gradient(self):
        result = derive_eic(FuncConst(Q(3)))
        assert canonicalize_rv(result.eic).is_zero

    def test_trace_is_ordered_rule_applications(self):
        result = derive_eic(VARIANCE)
        rules = [rule for rule, _ in result.trace]
        assert rules[0] == "linearity"
        assert "moment" in rules and "power-rule" in rules

    def test_estimand_is_normalized(self):
        result = derive_eic(Moment((X - E(X)) * (X - E(X))))
        assert str(result.estimand) == "E[X^2] - E[X]^2"

    def test_smooth_rejected_in_exact_mode(self):
        with pytest.raises(ExactModeError):
            derive_eic(Smooth("log", E(X)))

    def test_smooth_chain_rule_in_float_mode(self):
        result = derive_eic(Smooth("log", E(X)), mode="float")
        assert canon_equal(result.eic, (X - E(X)) * inv(E(X)))

    def test_reciprocal_rule(self):
        result = derive_eic(inv(E(X)))
        literal = -1 * inv(E(X)) ** 2 * (X - E(X))
        assert canon_equal(result.eic, literal)


class TestGradientAlgebraProperties:
    def test_mean_zero_for_catalog(self):
        for psi in (E(X), E(X**2), VARIANCE, COVARIANCE, E(X) * E(Y)):
            result = derive_eic(psi)
            assert canonicalize_func(Moment(result.eic)).is_zero
            assert mean_zero_certificate(result.eic)

    def test_mean_zero_numerically(self):
        for index in range(25):
            rng = trial_rng(12, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X", "Y"))
            for psi in (VARIANCE, COVARIANCE):
                values = evaluate_rv(derive_eic(psi).eic, space, binding)
                assert expectation(space, values) == 0

    def test_linearity(self):
        a, b = Q(3, 2), Q(-5, 7)
        combined = derive_eic(a * VARIANCE + b * COVARIANCE).eic
        separate = a * derive_eic(VARIANCE).eic + b * derive_eic(COVARIANCE).eic
        assert canon_equal(combined, separate)

    def test_leibniz(self):
        psi1, psi2 = E(X), E(Y)
        combined = derive_eic(psi1 * psi2).eic
        expanded = derive_eic(psi1).eic * psi2 + psi1 * derive_eic(psi2).eic
        assert canon_equal(combined, expanded)

    def test_quotient_reading_gives_identical_gradients(self):
        u = (X - E(X)) * (X - E(X))
        direct = derive_eic(Moment(u))
        through_mean = derive_eic(Moment(rv_embed_of(Moment(u))))
        assert canon_equal(direct.eic, through_mean.eic)


def rv_embed_of(f):
    from eicalg.expr import rv_embed

    return rv_embed(f)


class TestPathwiseDerivative:
    def test_mean_equals_expectation_against_score(self):
        for index in range(20):
            rng = trial_rng(5, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X",))
            score = random_score(rng, space)
            path = make_path(space, score)
            got = pathwise_derivative_exact(E(X), path, binding)
            assert got == inner(space, binding["X"], score)

    def test_constant_has_zero_derivative(self):
        rng = trial_rng(6, 0)
        space = random_space(rng)
        path = make_path(space, random_score(rng, space))
        assert pathwise_derivative_exact(FuncConst(Q(4)), path, {}) == 0

    def test_variance_spec_instance(self):
        space = halves()
        vx = space.variable((0, 1))
        score = space.variable((-1, 1))
        path = make_path(space, score)
        lhs = pathwise_derivative_exact(VARIANCE, path, {"X": vx})
        eic_values = evaluate_rv(derive_eic(VARIANCE).eic, space, {"X": vx})
        assert lhs == inner(space, eic_values, score)

    def test_score_must_be_mean_zero(self):
        space = halves()
        with pytest.raises(ValueError):
            make_path(space, space.variable((1, 2)))

    def test_positivity_guard(self):
        space = halves()
        score = space.variable((-1, 1))
        with pytest.raises(ValueError):
            make_path(space, score, epsilon_bound=Q(2))

    def test_exact_path_quotient_rule(self):
        space = halves()
        vx = space.variable((1, 2))
        score = space.variable((-1, 1))
        path = make_path(space, score)
        got = pathwise_derivative_exact(inv(E(X)), path, {"X": vx})
        mean = expectation(space, vx)
        assert got == -inner(space, vx, score) / mean**2 == Q(-2, 9)

    def test_exact_path_zero_denominator_raises(self):
        space = halves()
        path = make_path(space, space.variable((-1, 1)))
        with pytest.raises(EvaluationError):
            pathwise_derivative_exact(
                inv(E(X)), path, {"X": space.variable((-1, 1))}
            )

    def test_exact_path_rejects_smooth(self):
        space = halves()
        path = make_path(space, space.variable((-1, 1)))
        with pytest.raises(ExactModeError):
            pathwise_derivative_exact(
                Smooth("log", E(X)), path, {"X": space.variable((1, 2))}
            )

    def test_numeric_matches_exact_for_mean(self):
        rng = trial_rng(8, 0)
        space = random_space(rng)
        binding = random_binding(rng, space, ("X",))
        score = random_score(rng, space)
        path = make_path(space, score)
        exact = float(pathwise_derivative_exact(E(X), path, binding))
        numeric = pathwise_derivative_numeric(E(X), path, binding, 1e-6)
        assert numeric == pytest.approx(exact, rel=1e-8, abs=1e-10)

    def test_numeric_matches_exact_for_variance(self):
        for index in range(10):
            rng = trial_rng(9, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X",))
            score = random_score(rng, space)
            path = make_path(space, score)
            exact = float(pathwise_derivative_exact(VARIANCE, path, binding))
            numeric = pathwise_derivative_numeric(VARIANCE, path, binding, 1e-6)
            assert numeric == pytest.approx(exact, rel=1e-6, abs=1e-9)

    def test_numeric_reciprocal_against_gradient(self):
        psi = inv(E(X))
        for index in range(10):
            rng = trial_rng(10, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X",), low=1, high=5)
            score = random_score(rng, space)
            path = make_path(space, score)
            numeric = pathwise_derivative_numeric(psi, path, binding, 1e-6)
            eic_values = evaluate_rv(derive_eic(psi).eic, space, binding)
            gradient_side = float(inner(space, eic_values, score))
            assert numeric == pytest.approx(gradient_side, rel=1e-6, abs=1e-9)


class TestCertify:
    def test_mean_all_pass(self):
        report = certify_eic(E(X), trials=100, seed=42)
        assert report.passed and report.counterexample is None

    def test_variance_all_pass(self):
        report = certify_eic(VARIANCE, trials=100, seed=42)
        assert report.passed

    def test_missing_centering_is_caught(self):
        # a corrupted gradient for the mean: the centering term is dropped
        report = certify_eic(E(X), trials=100, seed=42, candidate=X)
        assert not report.passed
        assert report.counterexample is not None
        assert "trial" in report.counterexample

    def test_float_mode_reciprocal(self):
        report = certify_eic(
            inv(E(X)), trials=50, seed=7, mode="float", positive_vars=True
        )
        assert report.passed

    @pytest.mark.parametrize("name", sorted(RATIONAL_ESTIMANDS))
    def test_rational_estimand_certified_exactly(self, name):
        report = certify_eic(RATIONAL_ESTIMANDS[name], trials=200, seed=3)
        assert report.passed, report.counterexample
        assert 100 <= report.checked <= 200

    def test_wrong_rational_gradient_is_caught(self):
        psi = RATIONAL_ESTIMANDS["ratio-of-means"]
        report = certify_eic(psi, trials=50, seed=3, candidate=derive_eic(E(X * Y)).eic)
        assert not report.passed

    def test_float_mode_skips_degenerate_draws(self):
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        # draws with Var(X) = 0 or Var(Y) = 0 divide by zero; they are skipped
        report = certify_eic(psi, trials=50, seed=7, mode="float", positive_vars=True)
        assert 0 < report.checked < report.trials

    @pytest.mark.parametrize("seed", range(5))
    def test_float_mode_certifies_squared_correlation(self, seed):
        # draws where |corr| = 1 put a double zero of psi - 1 under the
        # central difference; the tolerance's truncation term covers them
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        report = certify_eic(
            psi, trials=50, seed=seed, mode="float", positive_vars=True
        )
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("seed", range(5))
    def test_float_mode_catches_scaled_gradient(self, seed):
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        scaled = Q(11, 10) * derive_eic(psi, mode="float").eic
        report = certify_eic(
            psi, trials=50, seed=seed, mode="float", positive_vars=True,
            candidate=scaled,
        )
        assert not report.passed
        assert "path-derivative" in report.counterexample

    def test_too_few_checked_trials_fail(self):
        # log is undefined on every draw: E[X] <= 5 < 6
        psi = Smooth("log", E(X) - 6)
        report = certify_eic(psi, trials=20, seed=7, mode="float")
        assert report.checked == 0
        assert not report.passed
        assert "0 of 20" in report.counterexample


class TestSmoothInsideMoments:
    def test_exact_mode_still_rejects_smooth_nodes(self):
        psi = parse_expression("E[X*exp(E[Y])]")
        with pytest.raises(ExactModeError):
            derive_eic(psi)
        with pytest.raises(ExactModeError):
            certify_eic(psi, trials=5, seed=0)
        candidate = derive_eic(psi, mode="float").eic
        with pytest.raises(ExactModeError):
            certify_eic(psi, trials=5, seed=0, candidate=candidate)
