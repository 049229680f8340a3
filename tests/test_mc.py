"""Monte Carlo harness: samplers, determinism, and bound sanity."""

from dataclasses import replace
from fractions import Fraction as Q

import pytest

from eicalg.expr import E, inv, var
from eicalg.mc import McConfig, resolve_sampler, run_mc

X = var("X")
MEAN = E(X)
VARIANCE = E(X**2) - E(X) ** 2


def bernoulli_config(p="0.5", **overrides):
    base = McConfig(
        family="bernoulli",
        params={"p": p},
        estimand=MEAN,
        n=200,
        replicates=50,
        seed=3,
    )
    return replace(base, **overrides) if overrides else base


class TestSamplers:
    def test_bernoulli(self):
        support, weights = resolve_sampler("bernoulli", {"p": "0.3"})
        assert support == (0, 1)
        assert weights == (Q(7, 10), Q(3, 10))

    def test_discrete(self):
        support, weights = resolve_sampler(
            "discrete", {"support": ["0", "1", "2"], "weights": ["0.25", "0.5", "0.25"]}
        )
        assert support == (0, 1, 2)
        assert sum(weights) == 1

    def test_uniform_grid(self):
        support, weights = resolve_sampler(
            "uniform-grid", {"low": "0", "high": "1", "points": 5}
        )
        assert support == (0, Q(1, 4), Q(1, 2), Q(3, 4), 1)
        assert all(w == Q(1, 5) for w in weights)

    def test_gaussian_grid_normalizes(self):
        support, weights = resolve_sampler(
            "gaussian-grid", {"mean": "0", "sd": "1", "points": 21}
        )
        assert len(support) == 21
        assert sum(weights) == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            resolve_sampler("cauchy", {})

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            resolve_sampler(
                "discrete", {"support": ["0", "1"], "weights": ["0.5", "0.6"]}
            )


class TestRunMc:
    def test_bernoulli_half_bound(self):
        report = run_mc(bernoulli_config())
        assert report.bound_exact == "1/4"

    def test_bernoulli_three_tenths_bound(self):
        report = run_mc(bernoulli_config(p="0.3"))
        assert report.bound_exact == "21/100"
        assert report.truth_exact == "3/10"

    def test_point_mass_degenerate(self):
        config = McConfig(
            family="discrete",
            params={"support": ["2"], "weights": ["1"]},
            estimand=MEAN,
            n=50,
            replicates=20,
            seed=1,
        )
        report = run_mc(config)
        assert report.empirical_variance == 0.0
        assert report.coverage == 1.0
        assert report.truth_exact == "2"

    def test_deterministic_reports(self):
        first = run_mc(bernoulli_config(p="0.3"))
        second = run_mc(bernoulli_config(p="0.3"))
        assert first == second

    def test_variance_bound_on_three_point_law(self):
        config = McConfig(
            family="discrete",
            params={"support": ["0", "1", "2"], "weights": ["0.25", "0.5", "0.25"]},
            estimand=VARIANCE,
            n=100,
            replicates=20,
            seed=5,
        )
        report = run_mc(config)
        # exact finite-space computation: Var((X-1)^2 - 1/2) = 1/4
        assert report.bound_exact == "1/4"
        assert report.truth_exact == "1/2"

    def test_estimand_variables_validated(self):
        config = McConfig(
            family="bernoulli",
            params={"p": "0.5"},
            estimand=E(var("Z")),
            n=10,
            replicates=2,
            seed=0,
        )
        with pytest.raises(ValueError):
            run_mc(config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            bernoulli_config(n=1)
        with pytest.raises(ValueError):
            bernoulli_config(level=1.2)


def _pointwise_study(config: McConfig) -> dict:
    """The study recomputed on one finite space per replicate, evaluated
    pointwise: the independent reference for the moment-table route."""
    import math
    import statistics

    import numpy as np

    from eicalg.eic import derive_eic
    from eicalg.estimate import eic_variance, normal_quantile
    from eicalg.expr import evaluate_func
    from eicalg.measure import FiniteProbSpace, RandVar

    support, weights = resolve_sampler(config.family, config.params)
    truth_space = FiniteProbSpace(tuple(f"s{i}" for i in range(len(support))), weights)
    truth_binding = {config.column: RandVar(truth_space, support)}
    truth = evaluate_func(config.estimand, truth_space, truth_binding)
    eic = derive_eic(config.estimand).eic
    probs = np.array([float(w) for w in weights])
    probs = probs / probs.sum()
    z = normal_quantile((1 + config.level) / 2)
    estimates, covered = [], 0
    for r in range(config.replicates):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.seed, r)))
        )
        counts = rng.multinomial(config.n, probs)
        kept = [(i, int(c)) for i, c in enumerate(counts) if c > 0]
        space = FiniteProbSpace(
            tuple(f"s{i}" for i, _ in kept), tuple(Q(c, config.n) for _, c in kept)
        )
        binding = {config.column: RandVar(space, tuple(support[i] for i, _ in kept))}
        estimate = float(evaluate_func(config.estimand, space, binding))
        estimates.append(estimate)
        se = math.sqrt(eic_variance(eic, space, binding) / config.n)
        covered += abs(estimate - float(truth)) <= z * se
    errors = [math.sqrt(config.n) * (e - float(truth)) for e in estimates]
    return {
        "truth_exact": str(truth),
        "bound_exact": str(eic_variance(eic, truth_space, truth_binding)),
        "empirical_variance": statistics.variance(errors),
        "coverage": covered / config.replicates,
        "estimates_digest": {
            "mean": statistics.fmean(estimates),
            "stdev": statistics.pstdev(estimates),
            "min": min(estimates),
            "max": max(estimates),
        },
    }


# one law per sampler family; gaussian-grid is the benchmark's family, whose
# exact weights (normal densities as floats, over their sum) have 21-digit
# denominators
FAMILY_PARAMS = {
    "bernoulli": {"p": "0.3"},
    "discrete": {"support": ["-1", "0.5", "2.25"], "weights": ["0.2", "0.3", "0.5"]},
    "uniform-grid": {"low": "-1", "high": "2", "points": 7},
    "gaussian-grid": {"mean": "1", "sd": "2", "points": 41},
}


class TestMomentTableAgainstPointwise:
    ESTIMANDS = [MEAN, VARIANCE, E((X - E(X)) ** 3) * inv(E(X**2))]

    def _compare(self, family, estimand):
        config = McConfig(
            family=family,
            params=FAMILY_PARAMS[family],
            estimand=estimand,
            n=25,
            replicates=40,
            seed=9,
        )
        report = run_mc(config)
        for key, expected in _pointwise_study(config).items():
            assert getattr(report, key) == expected, key

    @pytest.mark.parametrize("estimand", ESTIMANDS)
    def test_report_equals_pointwise_recomputation(self, estimand):
        self._compare("discrete", estimand)

    @pytest.mark.parametrize("family", ["bernoulli", "uniform-grid", "gaussian-grid"])
    @pytest.mark.parametrize("estimand", ESTIMANDS)
    def test_every_other_sampler_family(self, estimand, family):
        self._compare(family, estimand)


def _outcome(study):
    """The study's fields, or the type of its error."""
    try:
        return study()
    except ValueError as exc:  # every package error is a ValueError
        return type(exc)


class TestCompiledRouteOnDegenerateReplicates:
    """Small samples from a lopsided law: some replicates have a single
    distinct value, so Var(X) = 0 there and the reciprocal fails.  The
    compiled route and the pointwise recomputation agree on each study,
    on its report or on the error type."""

    FIELDS = (
        "truth_exact", "bound_exact", "empirical_variance", "coverage",
        "estimates_digest",
    )

    @pytest.mark.parametrize(
        "estimand", [E((X - E(X)) ** 4) * inv(VARIANCE**2), E(X) * inv(VARIANCE)]
    )
    def test_report_or_error_equals_pointwise(self, estimand):
        outcomes = []
        for seed in range(12):
            config = McConfig(
                family="discrete",
                params={"support": ["-1", "0.5", "2.25"], "weights": ["0.1", "0.1", "0.8"]},
                estimand=estimand,
                n=6,
                replicates=4,
                seed=seed,
            )
            expected = _outcome(lambda: _pointwise_study(config))
            got = _outcome(
                lambda: {key: getattr(run_mc(config), key) for key in self.FIELDS}
            )
            assert got == expected, seed
            outcomes.append(isinstance(expected, type))
        assert any(outcomes) and not all(outcomes)


class TestCompiledOnce:
    def _canonicalizations(self, monkeypatch, config) -> dict:
        """Calls of the canonicalizers during one study, recursive ones
        included, counted wherever an eicalg module holds them."""
        import sys

        from eicalg import canon

        counts = {}
        for name in ("canonicalize_rv", "canonicalize_func"):
            original = getattr(canon, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("eicalg") and getattr(
                    module, name, None
                ) is original:
                    monkeypatch.setattr(module, name, counted)
        run_mc(config)
        monkeypatch.undo()
        return counts

    def test_canonicalizations_do_not_grow_with_replicates(self, monkeypatch):
        config = McConfig(
            family="discrete",
            params={"support": ["-1", "0.5", "2.25"], "weights": ["0.2", "0.3", "0.5"]},
            estimand=E((X - E(X)) ** 3) * inv(VARIANCE),
            n=25,
            replicates=5,
            seed=9,
        )
        few = self._canonicalizations(monkeypatch, config)
        many = self._canonicalizations(monkeypatch, replace(config, replicates=50))
        assert few == many
        assert few["canonicalize_rv"] > 0 and few["canonicalize_func"] > 0

    def test_four_moment_passes_per_law_for_a_variance(self, monkeypatch):
        """A Var(X) study values E[X], E[X^2], E[X^3] and E[X^4] once per
        law, the true law and each replicate, and expands its estimand and
        gradient a number of times that does not grow with the replicates."""
        from eicalg.estimate import Dataset

        laws, moments = [], []
        original_init, original_moment = Dataset.__init__, Dataset.moment

        def init(self, *args):
            laws.append(self)
            original_init(self, *args)

        def moment(self, mono):
            moments.append((laws.index(self), mono))
            return original_moment(self, mono)

        config = McConfig(
            family="gaussian-grid",
            params=FAMILY_PARAMS["gaussian-grid"],
            estimand=VARIANCE,
            n=100,
            replicates=5,
            seed=9,
        )
        few = self._canonicalizations(monkeypatch, config)
        many = self._canonicalizations(monkeypatch, replace(config, replicates=50))
        assert few == many and few["canonicalize_rv"] > 0
        monkeypatch.setattr(Dataset, "__init__", init)
        monkeypatch.setattr(Dataset, "moment", moment)
        run_mc(config)
        assert len(laws) == 1 + config.replicates
        per_law = [sorted(mono for law, mono in moments if law == i) for i in range(len(laws))]
        powers = [(("X", k),) for k in range(1, 5)]
        assert per_law == [powers] * len(laws)
