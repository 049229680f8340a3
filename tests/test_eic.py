"""Gradient derivation and the pathwise-derivative certificate."""

from fractions import Fraction as Q

import pytest

from eicalg import eic
from eicalg.canon import canonicalize_func, canonicalize_rv
from eicalg.eic import (
    PathSpec,
    certify_eic,
    derive_eic,
    mean_zero_certificate,
    pathwise_derivative_exact,
)
from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import (
    E,
    FuncConst,
    Moment,
    Smooth,
    evaluate_func,
    evaluate_rv,
    inv,
    var,
)
from eicalg.measure import FiniteProbSpace, RandVar, expectation, inner
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


def central_difference(psi, path, binding, h):
    """(psi(h) - psi(-h)) / 2h along the tilt w_i * (1 + eps * s_i), computed
    exactly; it equals the derivative at 0 when psi is at most quadratic in eps."""

    def at(eps):
        space = path.space
        weights = [w * (1 + eps * s) for w, s in zip(space.weights, path.score.values)]
        tilted = FiniteProbSpace(space.outcomes, weights)
        rebased = {name: RandVar(tilted, v.values) for name, v in binding.items()}
        return evaluate_func(psi, tilted, rebased)

    return (at(h) - at(-h)) / (2 * h)


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
        # each registered derivative, pinned by a hand-written gradient
        literals = {
            "exp": Smooth("exp", E(X)) * (X - E(X)),
            "log": (X - E(X)) * inv(E(X)),
            "sqrt": Q(1, 2) * inv(Smooth("sqrt", E(X))) * (X - E(X)),
        }
        for tag, literal in literals.items():
            result = derive_eic(Smooth(tag, E(X)), mode="float")
            assert canon_equal(result.eic, literal), tag

    def test_reciprocal_rule(self):
        result = derive_eic(inv(E(X)))
        literal = -1 * inv(E(X)) ** 2 * (X - E(X))
        assert canon_equal(result.eic, literal)


class TestGradientAlgebraProperties:
    def test_mean_zero_for_catalog(self):
        for psi in (E(X), E(X**2), VARIANCE, COVARIANCE, E(X) * E(Y)):
            result = derive_eic(psi)
            assert canonicalize_func(Moment(result.eic)).is_zero
            assert mean_zero_certificate(canonicalize_rv(result.eic))

    def test_mean_zero_certificate_on_canonical_forms(self):
        """The verdict ``derive`` prints: derived gradients pass, and the
        same gradients without their centering fail."""
        cases = [(psi, "exact") for psi in (E(X), VARIANCE, COVARIANCE, E(X) * E(Y))]
        cases.append((parse_expression("exp(E[X])*E[X*Y]"), "float"))
        for psi, mode in cases:
            gradient = derive_eic(psi, mode=mode).eic
            assert mean_zero_certificate(canonicalize_rv(gradient))
            assert not mean_zero_certificate(canonicalize_rv(gradient + X))
        assert not mean_zero_certificate(canonicalize_rv(X * Y))  # E[X*Y], uncentered
        assert mean_zero_certificate(canonicalize_rv(X * Y - E(X * Y)))

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
            path = PathSpec(space, score)
            got = pathwise_derivative_exact(E(X), path, binding)
            assert got == inner(space, binding["X"], score)

    def test_constant_has_zero_derivative(self):
        rng = trial_rng(6, 0)
        space = random_space(rng)
        path = PathSpec(space, random_score(rng, space))
        assert pathwise_derivative_exact(FuncConst(Q(4)), path, {}) == 0

    def test_variance_spec_instance(self):
        space = halves()
        vx = space.variable((0, 1))
        score = space.variable((-1, 1))
        path = PathSpec(space, score)
        lhs = pathwise_derivative_exact(VARIANCE, path, {"X": vx})
        eic_values = evaluate_rv(derive_eic(VARIANCE).eic, space, {"X": vx})
        assert lhs == inner(space, eic_values, score)

    def test_score_must_be_mean_zero(self):
        space = halves()
        with pytest.raises(ValueError):
            PathSpec(space, space.variable((1, 2)))

    def test_exact_path_quotient_rule(self):
        space = halves()
        vx = space.variable((1, 2))
        score = space.variable((-1, 1))
        path = PathSpec(space, score)
        got = pathwise_derivative_exact(inv(E(X)), path, {"X": vx})
        mean = expectation(space, vx)
        assert got == -inner(space, vx, score) / mean**2 == Q(-2, 9)

    def test_exact_path_zero_denominator_raises(self):
        space = halves()
        path = PathSpec(space, space.variable((-1, 1)))
        with pytest.raises(EvaluationError):
            pathwise_derivative_exact(
                inv(E(X)), path, {"X": space.variable((-1, 1))}
            )

    def test_exact_path_rejects_smooth(self):
        space = halves()
        path = PathSpec(space, space.variable((-1, 1)))
        with pytest.raises(ExactModeError):
            pathwise_derivative_exact(
                Smooth("log", E(X)), path, {"X": space.variable((1, 2))}
            )

    def test_numeric_matches_exact_for_mean(self):
        # E[X] is affine in eps, so the central difference is exact
        rng = trial_rng(8, 0)
        space = random_space(rng)
        binding = random_binding(rng, space, ("X",))
        path = PathSpec(space, random_score(rng, space))
        numeric = central_difference(E(X), path, binding, Q(1, 10**6))
        assert numeric == pathwise_derivative_exact(E(X), path, binding)

    def test_numeric_matches_exact_for_variance(self):
        # Var(X) is quadratic in eps, so the central difference is exact
        for index in range(10):
            rng = trial_rng(9, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X",))
            path = PathSpec(space, random_score(rng, space))
            numeric = central_difference(VARIANCE, path, binding, Q(1, 10**6))
            assert numeric == pathwise_derivative_exact(VARIANCE, path, binding)

    def test_numeric_reciprocal_against_gradient(self):
        psi = inv(E(X))
        for index in range(10):
            rng = trial_rng(10, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X",), low=1, high=5)
            score = random_score(rng, space)
            path = PathSpec(space, score)
            numeric = central_difference(psi, path, binding, Q(1, 10**6))
            eic_values = evaluate_rv(derive_eic(psi).eic, space, binding)
            gradient_side = inner(space, eic_values, score)
            assert float(numeric) == pytest.approx(gradient_side, rel=1e-9, abs=1e-12)


# the first instance of seed 3, as a certificate prints it
INSTANCE_0_SEED_3 = (
    "instance 0: weights=['9/25', '2/25', '6/25', '2/25', '1/5', '1/25']"
    " X=['1', '-1', '-3', '3', '4', '2'] Y=['-4', '2', '5', '-1', '3', '1']; "
)


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
        assert not report.passed and report.checked == 1
        assert report.counterexample == (
            "instance 0: weights=['7/8', '1/8'] X=['-1', '5'];"
            " gradient=['-1', '5'] influence=['-3/4', '21/4']"
        )

    @pytest.mark.parametrize("name", sorted(RATIONAL_ESTIMANDS))
    def test_rational_estimand_certified_exactly(self, name):
        report = certify_eic(RATIONAL_ESTIMANDS[name], trials=200, seed=3)
        assert report.passed, report.counterexample
        assert 100 <= report.checked <= 200

    def test_wrong_rational_gradient_is_caught(self):
        psi = RATIONAL_ESTIMANDS["ratio-of-means"]
        report = certify_eic(psi, trials=50, seed=3, candidate=derive_eic(E(X * Y)).eic)
        assert not report.passed
        assert report.counterexample == INSTANCE_0_SEED_3 + (
            "gradient=['-26/25', '24/25', '-301/25', '-1/25', '374/25', '124/25']"
            " influence=['-1075/18', '775/36', '2375/72', '-1375/72', '1525/24', '1225/72']"
        )

    def test_doubled_gradient_is_caught(self):
        """The instance, the gradient and the influence vector are pinned."""
        doubled = 2 * derive_eic(E(X * Y)).eic
        report = certify_eic(E(X * Y), trials=50, seed=3, candidate=doubled)
        assert not report.passed and report.checked == 1
        assert report.counterexample == INSTANCE_0_SEED_3 + (
            "gradient=['-52/25', '48/25', '-602/25', '-2/25', '748/25', '248/25']"
            " influence=['-26/25', '24/25', '-301/25', '-1/25', '374/25', '124/25']"
        )

    def test_doubled_gradient_on_a_zero_score_draw_is_caught(self):
        """On this draw a centered integer score drawn after X is identically
        zero, so a doubled gradient of E[X] agrees with the influence vector
        along it; the full-vector comparison still sees the factor 2."""
        report = certify_eic(E(X), trials=1, seed=19, max_outcomes=2, candidate=2 * (X - E(X)))
        assert not report.passed and report.checked == 1
        assert report.counterexample == (
            "instance 0: weights=['4/7', '3/7'] X=['-4', '4'];"
            " gradient=['-48/7', '64/7'] influence=['-24/7', '32/7']"
        )

    def test_degenerate_draws_are_skipped(self):
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        # on two outcomes Var(X) = 0 or Var(Y) = 0 is a common draw; it
        # divides by zero and is skipped
        report = certify_eic(psi, trials=50, seed=7, max_outcomes=2)
        assert 0 < report.checked < report.trials

    # the exact certificate judges a gradient derived in float mode: the
    # unscaled one passes and the same one scaled by 1.1 fails
    @pytest.mark.parametrize("seed", range(5))
    def test_float_mode_certifies_squared_correlation(self, seed):
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        candidate = derive_eic(psi, mode="float").eic
        report = certify_eic(psi, trials=50, seed=seed, candidate=candidate)
        assert report.passed, report.counterexample

    @pytest.mark.parametrize("seed", range(5))
    def test_float_mode_catches_scaled_gradient(self, seed):
        psi = RATIONAL_ESTIMANDS["squared-correlation"]
        scaled = Q(11, 10) * derive_eic(psi, mode="float").eic
        report = certify_eic(psi, trials=50, seed=seed, candidate=scaled)
        assert not report.passed and report.checked == 1
        assert report.counterexample.startswith("instance 0: weights=[")
        assert "; gradient=[" in report.counterexample and "] influence=[" in report.counterexample

    def test_too_few_checked_trials_fail(self, monkeypatch):
        """Every draw is degenerate when the moment rule of the gradient's
        run raises, as a zero denominator would."""

        def degenerate(*args, **kwargs):
            raise EvaluationError("every draw is degenerate")

        monkeypatch.setattr(eic, "expectation", degenerate)
        report = certify_eic(E(X), trials=20, seed=7)
        assert report.checked == 0
        assert not report.passed
        assert report.counterexample == (
            "only 0 of 20 trials were checked; the other draws were degenerate"
        )


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
