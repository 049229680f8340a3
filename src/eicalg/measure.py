"""Finite probability spaces and exact L2 operator arithmetic.

A finite space with strictly positive rational weights is a concrete,
fully supported model of the Hilbert space of square-integrable random
variables: almost-everywhere equality is plain vector equality, the inner
product is nondegenerate, and every identity can be checked with zero
tolerance.  All arithmetic in this module is exact rational; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpaceMismatchError

__all__ = [
    "FiniteProbSpace",
    "RandVar",
    "Decomposition",
    "expectation",
    "embed",
    "center",
    "pointwise_product",
    "inner",
    "decompose",
    "covariance",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


@dataclass(frozen=True)
class FiniteProbSpace:
    """Finite outcome set with strictly positive weights summing to one.

    Outcome order is part of the space's identity; random variables are
    positional vectors over it.
    """

    outcomes: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(
            self, "weights", tuple(_as_fraction(w) for w in self.weights)
        )
        if len(self.outcomes) != len(self.weights):
            raise ValueError("one weight per outcome required")
        if len(self.outcomes) == 0:
            raise ValueError("a space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum exactly to 1")

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def variable(self, values) -> "RandVar":
        return RandVar(self, tuple(_as_fraction(v) for v in values))


@dataclass(frozen=True)
class RandVar:
    """Exact-rational value vector indexed by the outcomes of its space."""

    space: FiniteProbSpace
    values: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(_as_fraction(v) for v in self.values)
        )
        if len(self.values) != self.space.size:
            raise SpaceMismatchError(
                f"variable has {len(self.values)} values for a space of"
                f" {self.space.size} outcomes"
            )

    def _check_same_space(self, other: "RandVar"):
        if self.space != other.space:
            raise SpaceMismatchError("random variables live on different spaces")

    def __add__(self, other):
        if isinstance(other, RandVar):
            self._check_same_space(other)
            return RandVar(
                self.space, tuple(a + b for a, b in zip(self.values, other.values))
            )
        c = _as_fraction(other)
        return RandVar(self.space, tuple(a + c for a in self.values))

    __radd__ = __add__

    def __neg__(self):
        return RandVar(self.space, tuple(-a for a in self.values))

    def __sub__(self, other):
        return self + (-other if isinstance(other, RandVar) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RandVar):
            self._check_same_space(other)
            return RandVar(
                self.space, tuple(a * b for a, b in zip(self.values, other.values))
            )
        c = _as_fraction(other)
        return RandVar(self.space, tuple(a * c for a in self.values))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("integer power >= 0 required")
        return RandVar(self.space, tuple(a**n for a in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class Decomposition:
    """Split of a variable into a constant and an exactly mean-zero part."""

    constant_part: Fraction
    centered_part: RandVar


def _check_membership(space: FiniteProbSpace, f: RandVar):
    if f.space != space:
        raise SpaceMismatchError("variable does not belong to the given space")


def expectation(space: FiniteProbSpace, f: RandVar) -> Fraction:
    """Weighted sum of values, exact."""
    _check_membership(space, f)
    return sum((w * v for w, v in zip(space.weights, f.values)), Fraction(0))


def embed(a, space: FiniteProbSpace) -> RandVar:
    """Constant function a on every outcome (the scalar embedding)."""
    c = _as_fraction(a)
    return RandVar(space, tuple(c for _ in space.outcomes))


def center(space: FiniteProbSpace, f: RandVar) -> RandVar:
    """Subtract the mean; the result has expectation exactly zero."""
    return f - expectation(space, f)


def pointwise_product(f: RandVar, g: RandVar) -> RandVar:
    return f * g


def inner(space: FiniteProbSpace, f: RandVar, g: RandVar) -> Fraction:
    """Inner product: expectation of the pointwise product."""
    return expectation(space, pointwise_product(f, g))


def decompose(space: FiniteProbSpace, f: RandVar) -> Decomposition:
    """Orthogonal split into constant part and mean-zero part.

    The two parts are orthogonal under the inner product and reconstruct
    the input exactly.
    """
    mean = expectation(space, f)
    return Decomposition(constant_part=mean, centered_part=f - mean)


def covariance(space: FiniteProbSpace, f: RandVar, g: RandVar) -> Fraction:
    """E[fg] - E[f]E[g], exact."""
    return expectation(space, pointwise_product(f, g)) - expectation(
        space, f
    ) * expectation(space, g)
