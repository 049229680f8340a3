"""Finite probability spaces and exact L2 operator arithmetic.

A finite space with strictly positive rational weights is a concrete,
fully supported model of the Hilbert space of square-integrable random
variables: almost-everywhere equality is plain vector equality, the inner
product is nondegenerate, and every identity can be checked with zero
tolerance.  All arithmetic in this module is exact rational; no floats.
Weights and values are integer numerators ``nums`` over one denominator
``den``, so each operation is one integer loop; scalar results are Fractions.
A scalar functional of the law can also be carried with its influence
vector, as a :class:`Dual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul

from .errors import EvaluationError, SpaceMismatchError, UsageError
from .numerals import read_rational

__all__ = [
    "FiniteProbSpace",
    "RandVar",
    "Decomposition",
    "Dual",
    "expectation",
    "embed",
    "center",
    "pointwise_product",
    "inner",
    "decompose",
    "covariance",
]


def _rational(x) -> int | Fraction:
    """An exact rational as an int or a Fraction; a float is refused, and a
    string is read as a setting's rational is, or refused with a
    :class:`UsageError` naming it."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        try:
            return read_rational(x)
        except UsageError as exc:  # its power of ten is past the digit limit
            raise UsageError(f"{x!r}: {exc}") from None
        except (TypeError, ValueError, ZeroDivisionError):
            raise UsageError(f"{x!r} is not a rational number") from None
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def _ratios(values) -> tuple[tuple[int, ...], int]:
    """Numerators over the least common denominator, in lowest terms."""
    xs = [x if type(x) is int else _rational(x) for x in values]
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


@dataclass(frozen=True)
class FiniteProbSpace:
    """Finite outcome set with strictly positive weights summing to one.

    Outcome order is part of the space's identity; random variables are
    positional vectors over it.
    """

    outcomes: tuple[str, ...]
    weights: tuple[Fraction, ...]
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(Fraction(_rational(w)) for w in self.weights)
        nums, den = _ratios(weights)
        self.__dict__.update(
            outcomes=tuple(self.outcomes), weights=weights, nums=nums, den=den
        )
        if len(self.outcomes) != len(weights):
            raise UsageError("one weight per outcome required")
        if len(self.outcomes) == 0:
            raise UsageError("a space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise UsageError("outcome labels must be distinct")
        if any(n <= 0 for n in nums):
            raise UsageError("weights must be strictly positive")
        if sum(nums) != den:
            raise UsageError("weights must sum exactly to 1")

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def variable(self, values) -> "RandVar":
        return RandVar(self, values)


@dataclass(frozen=True, init=False)
class RandVar:
    """Exact-rational value vector indexed by the outcomes of its space, in
    lowest terms (gcd(den, *nums) == 1), so equal vectors have equal fields."""

    space: FiniteProbSpace
    nums: tuple[int, ...]
    den: int

    def __init__(self, space: FiniteProbSpace, values):
        nums, den = _ratios(values)
        if len(nums) != space.size:
            raise SpaceMismatchError(
                f"variable has {len(nums)} values for a space of"
                f" {space.size} outcomes"
            )
        self.__dict__.update(space=space, nums=nums, den=den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def _operand(self, other) -> tuple:
        """(nums, den) of a variable on this space, or of a scalar on each outcome."""
        if not isinstance(other, RandVar):
            c = _rational(other)
            return repeat(c.numerator), c.denominator
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError("random variables live on different spaces")
        return other.nums, other.den

    def __add__(self, other, sign=1):
        """self + sign * other, in one integer loop."""
        nums, e = self._operand(other)
        d = sign * self.den
        return _vector(self.space, [a * e + b * d for a, b in zip(self.nums, nums)], self.den * e)

    __radd__ = __add__

    def __neg__(self):
        return _vector(self.space, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        nums, e = self._operand(other)
        return _vector(self.space, list(map(mul, self.nums, nums)), self.den * e)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("integer power >= 0 required")
        return _vector(self.space, [a**n for a in self.nums], self.den**n)

    def is_zero(self) -> bool:
        return not any(self.nums)


def _vector(space: FiniteProbSpace, nums: list, den: int) -> RandVar:
    """The variable nums / den on ``space`` (den > 0), in lowest terms."""
    g = math.gcd(den, *nums)
    nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
    v = object.__new__(RandVar)
    v.__dict__.update(space=space, nums=nums, den=den // g)
    return v


@dataclass(frozen=True)
class Decomposition:
    """Split of a variable into a constant and an exactly mean-zero part."""

    constant_part: Fraction
    centered_part: RandVar


def expectation(space: FiniteProbSpace, f: RandVar) -> Fraction:
    """Weighted sum of values, exact."""
    if f.space is not space and f.space != space:
        raise SpaceMismatchError("variable does not belong to the given space")
    return Fraction(sum(map(mul, space.nums, f.nums)), space.den * f.den)


def embed(a, space: FiniteProbSpace) -> RandVar:
    """Constant function a on every outcome (the scalar embedding)."""
    c = _rational(a)
    return _vector(space, [c.numerator] * space.size, c.denominator)


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
    """E[(f - E f)(g - E g)], exact: the textbook definition, which shares no
    code with the expectation-product bracket it is checked against."""
    return expectation(space, center(space, f) * center(space, g))


class Dual:
    """A scalar functional of a finite law with its influence vector: the
    derivative of the value as the weights tilt toward each outcome.

    :meth:`mean` gives E[v] as ``Dual(E[v], v - E[v])``.  Sums, differences,
    products and integer powers (a reciprocal is the power -1) combine Duals,
    or a Dual and a rational, by the first-order rules, each applied as the
    Dual is built: a Dual holds its value and its vector, nothing else.
    """

    __slots__ = ("value", "influence")

    def __init__(self, value, influence: RandVar):
        self.value, self.influence = value, influence

    @staticmethod
    def mean(space: FiniteProbSpace, f: RandVar) -> "Dual":
        value = expectation(space, f)
        return Dual(value, f - value)

    def __eq__(self, other):
        if not isinstance(other, Dual):
            return NotImplemented
        return (self.value, self.influence) == (other.value, other.influence)

    __hash__ = None

    def __repr__(self):
        return f"Dual({self.value!r}, {self.influence!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.influence + other.influence)
        return Dual(self.value + other, self.influence)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.value, -self.influence)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            a, b = self.value, other.value
            return Dual(a * b, self.influence * b + other.influence * a)
        return Dual(self.value * other, self.influence * other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0 and self.value == 0:
            raise EvaluationError("reciprocal of a functional evaluating to zero")
        slope = n * self.value ** (n - 1) if n else 0
        return Dual(self.value**n, self.influence * slope)
