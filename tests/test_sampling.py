"""The one seeded trial loop: its draws, its counterexample text, and the
rule that a check that checked too few instances fails."""

from itertools import count

import pytest

from eicalg.errors import EvaluationError, ExactModeError
from eicalg.sampling import (
    random_binding,
    random_score,
    random_space,
    run_checks,
    trial_rng,
)


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
        seen = []
        assert run_checks([_recording(seen)], names, 6, 11, 5) == [(6, None)]
        for index, (space, drawn) in enumerate(seen):
            rng = trial_rng(11, index)
            want_space = random_space(rng, max_outcomes=5)
            binding = random_binding(rng, want_space, names)
            assert space == want_space
            assert drawn == (*binding.values(), random_score(rng, want_space))
            assert list(binding) == sorted(names)

    def test_every_check_sees_the_same_instances(self):
        first, second = [], []
        run_checks([_recording(first), _recording(second)], "XY", 8, 2, 8)
        assert first == second and len(first) == 8


class TestCounterexamples:
    def test_format_and_first_failure_only(self):
        calls = []

        def fails_at_two(space, x, y, score):
            calls.append(x)
            return "two" if len(calls) == 3 else None

        results = run_checks([fails_at_two, _recording([])], "XY", 10, 0, 8)
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
        [(checked, found)] = run_checks([lambda space, score: "bad"], (), 3, 0, 2)
        assert checked == 1
        assert found.startswith("instance 0: weights=[") and found.endswith("]; bad")

    def test_loop_stops_once_every_check_failed(self):
        seen = []

        def fails(space, *drawn):
            seen.append(space)
            return "no"

        assert run_checks([fails], "X", 1000, 0, 8)[0][0] == 1
        assert len(seen) == 1

    def test_other_errors_propagate(self):
        def raises(space, *drawn):
            raise ExactModeError("not exact")

        with pytest.raises(ExactModeError):
            run_checks([raises], "X", 5, 0, 8)


class TestTooFewChecked:
    def test_every_draw_degenerate(self):
        assert run_checks([_skipping(lambda i: True)], "XY", 7, 0, 8) == [
            (0, "only 0 of 7 trials were checked; the other draws were degenerate")
        ]

    @pytest.mark.parametrize(
        "trials, skipped, passes",
        [(10, 5, True), (10, 6, False), (9, 4, True), (9, 5, False), (1, 0, True)],
    )
    def test_half_of_the_trials_must_be_checked(self, trials, skipped, passes):
        [(checked, found)] = run_checks(
            [_skipping(lambda i: i < skipped)], "X", trials, 4, 8
        )
        assert checked == trials - skipped
        if passes:
            assert found is None
        else:
            assert found == (
                f"only {checked} of {trials} trials were checked;"
                " the other draws were degenerate"
            )
