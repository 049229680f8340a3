"""Seeded generation of random spaces, variables, and score directions.

Every fuzz corpus in the package derives per-instance generators
deterministically from a root seed and an instance index, so corpora are
reproducible and instances are independent (safe to evaluate concurrently).
The derivation is ``random.Random(f"{seed}:{index}")``, which seeds from a
hash of the string and is stable across platforms and runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measure import FiniteProbSpace, RandVar, center

__all__ = [
    "trial_rng",
    "random_space",
    "random_intvec",
    "random_score",
    "random_binding",
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
