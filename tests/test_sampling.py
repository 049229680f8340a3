"""The one seeded trial loop: its draws, its counterexample text, the rule
that a check that checked too few instances fails, and the one pass in
which a verify call runs the checks of all its suites."""

from itertools import count

import pytest

from eicalg import sampling, verify
from eicalg.eic import certify_eic
from eicalg.errors import EvaluationError, ExactModeError, UsageError
from eicalg.expr import E, var
from eicalg.measure import Decomposition
from eicalg.sampling import (
    check_instances,
    draws,
    random_binding,
    random_space,
    trial_rng,
)
from eicalg.verify import SUITES, run_suite


def _recording(seen):
    def check(space, *drawn):
        seen.append((space, drawn))
        return None

    return check


def _skipping(skip):
    """A check that raises EvaluationError on the instances ``skip`` names."""
    calls = count()

    def check(space, *drawn):
        if skip(next(calls)):
            raise EvaluationError("degenerate")
        return None

    return check


class TestDraws:
    @pytest.mark.parametrize("names", [(), ("X",), ("Y", "X"), ("X", "Y", "Z")])
    def test_space_then_variables_in_name_order_then_score(self, names):
        """No score follows the variables: a check receives the space and
        the variables only."""
        seen = []
        assert check_instances([_recording(seen)], draws(names, 6, 11, 5)) == [(6, None)]
        for index, (space, drawn) in enumerate(seen):
            rng = trial_rng(11, index)
            want_space = random_space(rng, max_outcomes=5)
            binding = random_binding(rng, want_space, names)
            assert space == want_space
            assert drawn == tuple(binding.values())
            assert list(binding) == sorted(names)

    def test_no_check_draws_a_score(self, monkeypatch):
        def no_score(*args):
            raise AssertionError("a score was drawn")

        monkeypatch.setattr(sampling, "random_score", no_score)
        assert all(r.passed for r in run_suite("all", 20, 0, 8))
        x = var("X")
        assert certify_eic(E(x**2) - E(x) ** 2, 50, 3).passed

    def test_every_check_sees_the_same_instances(self):
        first, second = [], []
        check_instances([_recording(first), _recording(second)], draws("XY", 8, 2, 8))
        assert first == second and len(first) == 8


class TestCounterexamples:
    def test_format_and_first_failure_only(self):
        calls = []

        def fails_at_two(space, x, y):
            calls.append(x)
            return "two" if len(calls) == 3 else None

        results = check_instances([fails_at_two, _recording([])], draws("XY", 10, 0, 8))
        assert len(calls) == 3  # never called after its counterexample
        assert results[1] == (10, None)
        checked, found = results[0]
        rng = trial_rng(0, 2)
        space = random_space(rng)
        x, y = random_binding(rng, space, "XY").values()
        assert checked == 3
        assert found == (
            f"instance 2: weights={[str(w) for w in space.weights]}"
            f" X={[str(v) for v in x.values]} Y={[str(v) for v in y.values]}; two"
        )

    def test_no_variables(self):
        [(checked, found)] = check_instances([lambda space: "bad"], draws((), 3, 0, 2))
        assert checked == 1
        assert found.startswith("instance 0: weights=[") and found.endswith("]; bad")

    def test_loop_stops_once_every_check_failed(self):
        seen = []

        def fails(space, *drawn):
            seen.append(space)
            return "no"

        assert check_instances([fails], draws("X", 1000, 0, 8))[0][0] == 1
        assert len(seen) == 1

    def test_other_errors_propagate(self):
        def raises(space, *drawn):
            raise ExactModeError("not exact")

        with pytest.raises(ExactModeError):
            check_instances([raises], draws("X", 5, 0, 8))


class TestTooFewChecked:
    def test_every_draw_degenerate(self):
        assert check_instances([_skipping(lambda i: True)], draws("XY", 7, 0, 8)) == [
            (0, "only 0 of 7 trials were checked; the other draws were degenerate")
        ]

    @pytest.mark.parametrize(
        "trials, skipped, passes",
        [(10, 5, True), (10, 6, False), (9, 4, True), (9, 5, False), (1, 0, True)],
    )
    def test_half_of_the_trials_must_be_checked(self, trials, skipped, passes):
        [(checked, found)] = check_instances(
            [_skipping(lambda i: i < skipped)], draws("X", trials, 4, 8)
        )
        assert checked == trials - skipped
        if passes:
            assert found is None
        else:
            assert found == (
                f"only {checked} of {trials} trials were checked;"
                " the other draws were degenerate"
            )


def _counting_spaces(monkeypatch):
    spaces = []
    draw = sampling.random_space
    monkeypatch.setattr(
        sampling, "random_space", lambda *args, **kw: spaces.append(1) or draw(*args, **kw)
    )
    return spaces


def _fields(instances):
    return [
        (index, space, [(n, v.nums, v.den) for n, v in binding.items()])
        for index, space, binding in instances
    ]


class TestCorpus:
    """The instances of :func:`draws`, drawn as a loop reaches them."""

    def test_a_pass_that_stops_early_draws_no_further(self, monkeypatch):
        spaces = _counting_spaces(monkeypatch)
        for index, *_ in draws("XY", 1000, 0, 8):
            if index == 3:
                break
        assert len(spaces) == 4

    @pytest.mark.parametrize(
        "trials, seed, max_outcomes, flag",
        [(0, 0, 8, "--trials"), (5, "x", 8, "--seed"), (5, 0, 1, "--max-outcomes")],
    )
    def test_settings_are_read_at_the_call(self, monkeypatch, trials, seed, max_outcomes, flag):
        spaces = _counting_spaces(monkeypatch)
        with pytest.raises(UsageError, match=flag):
            draws("XY", trials, seed, max_outcomes)
        assert spaces == []

    def test_settings_read_as_their_flags(self):
        assert _fields(draws("XY", "12", "5", "6")) == _fields(draws("XY", 12, 5, 6))

    def test_certify_draws_lazily(self, monkeypatch):
        """A wrong candidate fails at its first instance, and no further
        instance is drawn."""
        spaces = _counting_spaces(monkeypatch)
        x = var("X")
        report = certify_eic(E(x), trials=10_000, seed=0, candidate=x)
        assert not report.passed and report.checked == 1
        assert len(spaces) == 1


class TestSharedDraws:
    @pytest.mark.parametrize("max_outcomes", [2, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_equals_the_suites_one_by_one(self, seed, max_outcomes):
        together = run_suite("all", 25, seed, max_outcomes)
        apart = [r for name in SUITES for r in run_suite(name, 25, seed, max_outcomes)]
        assert together == apart

    def test_a_suite_that_stops_early_leaves_the_rest_their_draws(self, monkeypatch):
        """The first suite's check fails at instance 0 and is called no
        further; the later suites' checks see every instance, as they do
        when run alone."""
        monkeypatch.setattr(verify, "decompose", lambda s, x: Decomposition(1, x))
        together = run_suite("all", 25, 0, 8)
        assert [r.name for r in together if not r.passed] == ["orthogonal-decomposition"]
        assert together == [r for name in SUITES for r in run_suite(name, 25, 0, 8)]
