"""Seeded generation of random spaces, variables, and score directions,
and the one loop that runs every seeded check of the package: one verify
call runs all the checks of its suites in a single pass over the draws.

Every fuzz corpus in the package derives per-instance generators
deterministically from a root seed and an instance index, so corpora are
reproducible and instances are independent (safe to evaluate concurrently).
The derivation is ``random.Random(f"{seed}:{index}")``, which seeds from a
hash of the string and is stable across platforms and runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import EvaluationError
from .measure import FiniteProbSpace, RandVar, center
from .numerals import setting

__all__ = [
    "trial_rng",
    "random_space",
    "random_intvec",
    "random_score",
    "random_binding",
    "draws",
    "check_instances",
]


def trial_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def random_space(rng: random.Random, max_outcomes: int = 8) -> FiniteProbSpace:
    """Space with 2..max outcomes and positive rational weights summing to 1."""
    n = rng.randint(2, max_outcomes)
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    weights = tuple(Fraction(r, total) for r in raw)
    return FiniteProbSpace(tuple(f"z{i}" for i in range(n)), weights)


def random_intvec(
    rng: random.Random, space: FiniteProbSpace, low: int = -5, high: int = 5
) -> RandVar:
    return RandVar(space, [rng.randint(low, high) for _ in space.outcomes])


def random_score(rng: random.Random, space: FiniteProbSpace) -> RandVar:
    """Centered integer vector: an exact mean-zero direction."""
    return center(space, random_intvec(rng, space))


def random_binding(
    rng: random.Random,
    space: FiniteProbSpace,
    names,
    low: int = -5,
    high: int = 5,
) -> dict[str, RandVar]:
    return {name: random_intvec(rng, space, low, high) for name in sorted(names)}


def format_values(v: RandVar) -> list[str]:
    return [str(x) for x in v.values]


def draws(names, trials, seed, max_outcomes):
    """Instances ``(index, space, binding, score)`` for ``index`` below
    ``trials``, each drawn when a loop reaches it: instance i draws a space
    from ``trial_rng(seed, i)``, one integer variable per name in name
    order, then a score.  The last three arguments are read as the settings
    of their flags at the call, before anything is drawn."""
    flags = ("--trials", "--seed", "--max-outcomes")
    trials, seed, max_outcomes = map(setting, flags, (trials, seed, max_outcomes))

    def instances():
        for index in range(trials):
            rng = trial_rng(seed, index)
            space = random_space(rng, max_outcomes=max_outcomes)
            binding = random_binding(rng, space, names)
            yield index, space, binding, random_score(rng, space)

    return instances()


def check_instances(checks, instances):
    """``(checked, counterexample)`` of each check, in order, over
    ``instances``.  Each check with no counterexample yet is called as
    ``check(space, *variables, score)`` and returns None or a failure
    message.  One that raises :class:`EvaluationError` skips the
    (degenerate) draw, and one that checked no instance, or fewer than half
    of the instances taken, fails.  No instance is taken once every check
    has failed, so a check still open has seen every instance."""
    checked, found, trials = [0] * len(checks), [None] * len(checks), 0
    for trials, (index, space, binding, score) in enumerate(instances, 1):
        drawn = (*binding.values(), score)
        for k, check in enumerate(checks):
            if found[k]:
                continue
            try:
                failure = check(space, *drawn)
            except EvaluationError:
                continue
            checked[k] += 1
            if failure is not None:
                shown = "".join(f" {n}={format_values(v)}" for n, v in binding.items())
                weights = [str(w) for w in space.weights]
                found[k] = f"instance {index}: weights={weights}{shown}; {failure}"
        if all(found):
            break
    return [
        (n, f if f or (n >= 1 and 2 * n >= trials) else
         f"only {n} of {trials} trials were checked; the other draws were degenerate")
        for n, f in zip(checked, found)
    ]
