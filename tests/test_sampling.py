"""The one seeded trial loop: its draws, its counterexample text, the rule
that a check that checked too few instances fails, and the corpus that one
verify call shares among its suites."""

from itertools import count

import pytest

from eicalg import sampling, verify
from eicalg.eic import certify_eic
from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import E, var
from eicalg.measure import Decomposition
from eicalg.sampling import (
    Corpus,
    check_instances,
    draws,
    random_binding,
    random_score,
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
        seen = []
        assert check_instances([_recording(seen)], draws(names, 6, 11, 5), 6) == [(6, None)]
        for index, (space, drawn) in enumerate(seen):
            rng = trial_rng(11, index)
            want_space = random_space(rng, max_outcomes=5)
            binding = random_binding(rng, want_space, names)
            assert space == want_space
            assert drawn == (*binding.values(), random_score(rng, want_space))
            assert list(binding) == sorted(names)

    def test_every_check_sees_the_same_instances(self):
        first, second = [], []
        check_instances([_recording(first), _recording(second)], draws("XY", 8, 2, 8), 8)
        assert first == second and len(first) == 8


class TestCounterexamples:
    def test_format_and_first_failure_only(self):
        calls = []

        def fails_at_two(space, x, y, score):
            calls.append(x)
            return "two" if len(calls) == 3 else None

        results = check_instances([fails_at_two, _recording([])], draws("XY", 10, 0, 8), 10)
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
        [(checked, found)] = check_instances([lambda space, score: "bad"], draws((), 3, 0, 2), 3)
        assert checked == 1
        assert found.startswith("instance 0: weights=[") and found.endswith("]; bad")

    def test_loop_stops_once_every_check_failed(self):
        seen = []

        def fails(space, *drawn):
            seen.append(space)
            return "no"

        assert check_instances([fails], draws("X", 1000, 0, 8), 1000)[0][0] == 1
        assert len(seen) == 1

    def test_other_errors_propagate(self):
        def raises(space, *drawn):
            raise ExactModeError("not exact")

        with pytest.raises(ExactModeError):
            check_instances([raises], draws("X", 5, 0, 8), 5)


class TestTooFewChecked:
    def test_every_draw_degenerate(self):
        assert check_instances([_skipping(lambda i: True)], draws("XY", 7, 0, 8), 7) == [
            (0, "only 0 of 7 trials were checked; the other draws were degenerate")
        ]

    @pytest.mark.parametrize(
        "trials, skipped, passes",
        [(10, 5, True), (10, 6, False), (9, 4, True), (9, 5, False), (1, 0, True)],
    )
    def test_half_of_the_trials_must_be_checked(self, trials, skipped, passes):
        [(checked, found)] = check_instances(
            [_skipping(lambda i: i < skipped)], draws("X", trials, 4, 8), trials
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
        (index, space, [(n, v.nums, v.den) for n, v in binding.items()], score.nums, score.den)
        for index, space, binding, score in instances
    ]


class TestCorpus:
    def test_every_pass_sees_the_draws(self):
        corpus = Corpus("XY", 12, 5, 6)
        want = _fields(draws("XY", 12, 5, 6))
        assert _fields(corpus) == want and _fields(corpus) == want

    @pytest.mark.parametrize("keep", [0, 10, 10**6])
    def test_kept_outcomes_bounded_and_later_ones_drawn_again(self, monkeypatch, keep):
        monkeypatch.setattr(sampling, "KEEP_OUTCOMES", keep)
        corpus = Corpus("XY", 30, 1, 8)
        first = _fields(corpus)
        kept = sum(space.size for _, space, _, _ in corpus._kept)
        assert kept <= keep
        spaces = _counting_spaces(monkeypatch)
        assert _fields(corpus) == first
        assert len(spaces) == 30 - len(corpus._kept)

    def test_a_pass_that_stops_early_draws_no_further(self, monkeypatch):
        spaces = _counting_spaces(monkeypatch)
        corpus = Corpus("XY", 1000, 0, 8)
        for index, *_ in corpus:
            if index == 3:
                break
        assert len(spaces) == 4
        assert len(list(corpus)) == 1000
        assert len(spaces) == 1000

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
        """The first suite fails at instance 0 and draws no further; the
        later suites draw the rest, as they do when run alone."""
        monkeypatch.setattr(verify, "decompose", lambda s, x: Decomposition(1, x))
        together = run_suite("all", 25, 0, 8)
        assert [r.name for r in together if not r.passed] == ["orthogonal-decomposition"]
        assert together == [r for name in SUITES for r in run_suite(name, 25, 0, 8)]

    def test_kept_instances_do_not_change_the_records(self, monkeypatch):
        want = run_suite("all", 25, 4, 5)
        monkeypatch.setattr(sampling, "KEEP_OUTCOMES", 20)
        assert run_suite("all", 25, 4, 5) == want
