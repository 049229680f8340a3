"""Exact operator arithmetic on finite spaces."""

import math
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_rationals, space_and_vars, spaces
from eicalg.errors import EvaluationError, SpaceMismatchError, UsageError
from eicalg.measure import (
    Dual,
    FiniteProbSpace,
    RandVar,
    _rational,
    _vector,
    center,
    covariance,
    decompose,
    embed,
    expectation,
    inner,
    pointwise_product,
)
from eicalg.numerals import setting


def halves():
    return FiniteProbSpace(("a", "b"), (Q(1, 2), Q(1, 2)))


def thirds():
    return FiniteProbSpace(("a", "b"), (Q(1, 3), Q(2, 3)))


class TestSpaceInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "b"), (Q(1, 2), Q(1, 4)))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "b"), (Q(0), Q(1)))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            FiniteProbSpace(("a", "a"), (Q(1, 2), Q(1, 2)))

    def test_variable_length_checked(self):
        with pytest.raises(SpaceMismatchError):
            halves().variable((1, 2, 3))


class TestWrittenExponent:
    """A string is read by the settings' reader, which refuses a written
    exponent whose power of ten has more digits than the digit limit before
    ``Fraction`` computes it; unguarded, each of these runs for minutes."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: embed("1e999999999", halves()),
            lambda: FiniteProbSpace(("a", "b"), ("1e999999999", "1/2")),
            lambda: RandVar(halves(), ["1E-999999999", 1]),
            lambda: RandVar(halves(), [1, 2]) * "2e+0999999999",
        ],
        ids=["embed", "weight", "value", "scalar"],
    )
    def test_refused_at_once(self, build):
        start = time.perf_counter()
        with pytest.raises(UsageError, match="power of ten exceeds the limit of"):
            build()
        assert time.perf_counter() - start < 1

    def test_strings_still_read(self):
        assert embed("2.5e2", halves()).values == (250, 250)
        assert FiniteProbSpace(("a", "b"), ("1/3", "2/3")).weights == (Q(1, 3), Q(2, 3))


class TestRefusedStrings:
    """A string is refused as the setting ``mean`` refuses it, with a
    :class:`UsageError` naming the value: ``Fraction`` alone reads "1_000"
    as 1000 and "٣" as 3."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_000", "'1_000' is not a rational number"),
            ("٣", "'٣' is not a rational number"),
            ("1e999999999", "'1e999999999': its power of ten exceeds the limit of 4300 digits"),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda text: embed(text, halves()),
            lambda text: FiniteProbSpace(("a", "b"), (text, "1/2")),
            lambda text: RandVar(halves(), [text, 1]),
        ],
        ids=["embed", "weight", "value"],
    )
    def test_named_in_the_error(self, build, text, message):
        with pytest.raises(UsageError) as caught:
            build(text)
        assert str(caught.value) == message
        with pytest.raises(UsageError, match="^'mean'"):
            setting("mean", text)


class TestExpectation:
    def test_constant(self):
        sp = halves()
        assert expectation(sp, sp.variable((7, 7))) == 7

    def test_direct_summation(self):
        assert expectation(thirds(), thirds().variable((3, 0))) == 1
        assert expectation(halves(), halves().variable((0, 1))) == Q(1, 2)

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            expectation(halves(), thirds().variable((0, 1)))


class TestEmbed:
    def test_zero_and_one(self):
        sp = halves()
        assert embed(0, sp).values == (0, 0)
        assert expectation(sp, embed(1, sp)) == 1

    def test_expectation_recovers_scalar(self):
        sp = thirds()
        assert expectation(sp, embed(Q(7, 3), sp)) == Q(7, 3)


class TestCenter:
    def test_constant_centers_to_zero(self):
        sp = thirds()
        assert center(sp, embed(Q(5, 2), sp)).is_zero()

    def test_direct_value(self):
        sp = halves()
        assert center(sp, sp.variable((0, 1))).values == (Q(-1, 2), Q(1, 2))

    @given(space_and_vars())
    def test_idempotent(self, sv):
        space, f = sv
        assert center(space, center(space, f)) == center(space, f)

    @given(space_and_vars())
    def test_mean_exactly_zero(self, sv):
        space, f = sv
        assert expectation(space, center(space, f)) == 0


class TestProductAndInner:
    def test_multiplicative_identity(self):
        sp = halves()
        f = sp.variable((2, 3))
        assert pointwise_product(f, embed(1, sp)) == f

    def test_indicator_idempotent(self):
        sp = halves()
        f = sp.variable((0, 1))
        assert pointwise_product(f, f) == f

    def test_elementwise(self):
        sp = halves()
        got = pointwise_product(sp.variable((2, 3)), sp.variable((5, 7)))
        assert got.values == (10, 21)

    def test_inner_direct(self):
        sp = halves()
        f = sp.variable((0, 1))
        assert inner(sp, f, f) == Q(1, 2)

    @given(space_and_vars())
    def test_riesz_representer_is_one(self, sv):
        space, f = sv
        assert inner(space, f, embed(1, space)) == expectation(space, f)

    @given(space_and_vars())
    def test_constant_orthogonal_to_centered(self, sv):
        space, f = sv
        assert inner(space, embed(Q(3, 7), space), center(space, f)) == 0


class TestDecompose:
    def test_constant_input(self):
        sp = halves()
        parts = decompose(sp, embed(Q(4, 3), sp))
        assert parts.constant_part == Q(4, 3)
        assert parts.centered_part.is_zero()

    def test_mean_zero_fixed_point(self):
        sp = halves()
        f = sp.variable((-1, 1))
        parts = decompose(sp, f)
        assert parts.constant_part == 0
        assert parts.centered_part == f

    def test_direct_value(self):
        sp = thirds()
        parts = decompose(sp, sp.variable((3, 0)))
        assert parts.constant_part == 1
        assert parts.centered_part.values == (2, -1)

    @given(space_and_vars())
    def test_reconstruction_and_orthogonality(self, sv):
        space, f = sv
        parts = decompose(space, f)
        assert embed(parts.constant_part, space) + parts.centered_part == f
        assert (
            inner(space, embed(parts.constant_part, space), parts.centered_part)
            == 0
        )


class TestCovariance:
    def test_constants_uncorrelated(self):
        sp = halves()
        assert covariance(sp, sp.variable((1, 4)), embed(Q(9, 5), sp)) == 0

    def test_bernoulli_half(self):
        sp = halves()
        f = sp.variable((0, 1))
        assert covariance(sp, f, f) == Q(1, 4)

    @given(space_and_vars())
    def test_variance_nonnegative(self, sv):
        space, f = sv
        assert covariance(space, f, f) >= 0

    @given(space_and_vars(count=2))
    def test_centering_invariance(self, sv):
        space, f, g = sv
        assert covariance(space, center(space, f), center(space, g)) == covariance(
            space, f, g
        )

    @given(space_and_vars(count=2), small_rationals, small_rationals)
    def test_expectation_linearity(self, sv, a, b):
        space, f, g = sv
        assert expectation(space, a * f + b * g) == a * expectation(
            space, f
        ) + b * expectation(space, g)


# ---------------------------------------------------------------------------
# oracle: each operation elementwise on plain lists of Fractions, read from
# the public weights and values only


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def space_and_rational_vars(draw):
    space = draw(spaces())
    vector = st.lists(rationals, min_size=space.size, max_size=space.size)
    return space, draw(vector), draw(vector)


def lowest_terms(f: RandVar) -> bool:
    return f.den > 0 and math.gcd(f.den, *f.nums) == 1


def mean(weights, values) -> Q:
    return sum((w * v for w, v in zip(weights, values)), Q(0))


class TestDual:
    def test_mean_carries_the_centered_vector(self):
        space = thirds()
        x = space.variable((3, 6))
        assert Dual.mean(space, x) == Dual(Q(5), x - 5)

    def test_rationals_combine_with_the_value_only(self):
        space = halves()
        mean = Dual.mean(space, space.variable((1, 2)))
        assert 1 - 2 * mean + 1 == Dual(Q(-1), -2 * mean.influence)

    @given(space_and_vars(count=3))
    def test_slope_is_the_exact_tilt_derivative(self, sv):
        """E[x]E[y] - E[xy]^2 is quadratic in the tilt, so the central
        difference at any step is its exact derivative."""
        space, x, y, s = sv
        score, h = center(space, s), Q(1, 10**6)

        def value(eps):
            weights = [w * (1 + eps * v) for w, v in zip(space.weights, score.values)]
            tilted = FiniteProbSpace(space.outcomes, weights)
            tx, ty = RandVar(tilted, x.values), RandVar(tilted, y.values)
            return expectation(tilted, tx) * expectation(tilted, ty) - expectation(tilted, tx * ty) ** 2

        dual = Dual.mean(space, x) * Dual.mean(space, y) - Dual.mean(space, x * y) ** 2
        assert dual.value == value(0)
        assert inner(space, dual.influence, score) == (value(h) - value(-h)) / (2 * h)

    def test_reciprocal_is_the_power_minus_one(self):
        space = halves()
        x = space.variable((1, 2))
        inverse = Dual.mean(space, x) ** -1
        assert inverse == Dual(Q(2, 3), (x - Q(3, 2)) * Q(-4, 9))
        with pytest.raises(EvaluationError, match="reciprocal of a functional evaluating to zero"):
            Dual.mean(space, space.variable((-1, 1))) ** -1

    def test_long_chain_reads_without_recursion(self):
        """A sum of many terms reads its influence in a loop, not by
        recursing once per term."""
        space = halves()
        x = space.variable((1, 2))
        total = sum(Dual.mean(space, x) for _ in range(5000))
        assert total == Dual(Q(7500), (x - Q(3, 2)) * 5000)

    def test_zeroth_power_of_a_zero_value_is_one(self):
        space = halves()
        zero = Dual.mean(space, space.variable((-1, 1)))
        assert zero ** 0 == Dual(1, embed(0, space))


class TestIntegerArithmeticOracle:
    @given(space_and_rational_vars(), rationals, st.integers(0, 4))
    def test_pointwise_operations(self, sv, c, n):
        space, a, b = sv
        f, g = RandVar(space, a), RandVar(space, b)
        cases = [
            (f + g, [x + y for x, y in zip(a, b)]),
            (f - g, [x - y for x, y in zip(a, b)]),
            (f * g, [x * y for x, y in zip(a, b)]),
            (pointwise_product(f, g), [x * y for x, y in zip(a, b)]),
            (f**n, [x**n for x in a]),
            (-f, [-x for x in a]),
            (f + c, [x + c for x in a]),
            (c + f, [c + x for x in a]),
            (f - c, [x - c for x in a]),
            (c - f, [c - x for x in a]),
            (f * c, [x * c for x in a]),
            (c * f, [c * x for x in a]),
            (embed(c, space), [c] * space.size),
            (center(space, f), [x - mean(space.weights, a) for x in a]),
        ]
        for got, want in cases:
            assert got.values == tuple(want)
            assert all(type(v) is Q for v in got.values)
            assert lowest_terms(got)
            assert got == RandVar(space, want)
            assert hash(got) == hash(RandVar(space, want))

    @given(space_and_rational_vars())
    def test_scalar_results(self, sv):
        space, a, b = sv
        f, g = RandVar(space, a), RandVar(space, b)
        w = space.weights
        product = [x * y for x, y in zip(a, b)]
        assert expectation(space, f) == mean(w, a)
        assert inner(space, f, g) == mean(w, product)
        assert covariance(space, f, g) == mean(w, product) - mean(w, a) * mean(w, b)
        parts = decompose(space, f)
        assert parts.constant_part == mean(w, a)
        assert parts.centered_part.values == tuple(x - mean(w, a) for x in a)

    @given(space_and_rational_vars())
    def test_weights_in_lowest_terms(self, sv):
        space, _, _ = sv
        assert math.gcd(space.den, *space.nums) == 1
        assert tuple(Q(n, space.den) for n in space.nums) == space.weights


def old_add(self, other):
    """``RandVar.__add__`` as it was, a scalar spread to a list of numerators."""
    if isinstance(other, RandVar):
        nums, e = other.nums, other.den
    else:
        c = _rational(other)
        nums, e = [c.numerator] * len(self.nums), c.denominator
    sums = [a * e + b * self.den for a, b in zip(self.nums, nums)]
    return _vector(self.space, sums, self.den * e)


def old_sub(self, other):
    """``RandVar.__sub__`` as it was: a sum with the negated operand."""
    return old_add(self, -other if isinstance(other, RandVar) else -_rational(other))


scalars = st.one_of(
    st.integers(-10**20, 10**20),
    st.booleans(),
    rationals,
    rationals.map(str),
    st.decimals(-100, 100, places=3, allow_nan=False).map(str),
)


class TestScalarStepOracle:
    """A scalar is added or subtracted in one integer loop, to the same
    (nums, den) as the sum with the negated rational that it replaced."""

    @given(space_and_rational_vars(), scalars)
    def test_sums_and_differences_with_a_scalar(self, sv, c):
        space, a, b = sv
        f, g = RandVar(space, a), RandVar(space, b)
        cases = [
            (f + c, old_add(f, c)),
            (c + f, old_add(f, c)),
            (f - c, old_sub(f, c)),
            (c - f, old_add(-f, c)),
            (f - g, old_sub(f, g)),
        ]
        for got, want in cases:
            assert (got.space, got.nums, got.den) == (want.space, want.nums, want.den)

    def test_a_float_is_refused(self):
        f = halves().variable((1, 2))
        for op in (lambda: f + 0.5, lambda: 0.5 + f, lambda: f - 0.5, lambda: 0.5 - f):
            with pytest.raises(TypeError, match="exact rational expected, got float"):
                op()


class TestIntegerRepresentation:
    def test_equal_values_built_differently_are_equal(self):
        sp = halves()
        routes = [
            sp.variable((Q(2, 2), Q(1, 2))),
            sp.variable((1, Q(1, 2))),
            sp.variable(("2/2", "1/2")),
            sp.variable((2, 1)) * Q(1, 2),
            sp.variable((Q(3, 2), 1)) - Q(1, 2),
        ]
        for f in routes:
            assert f == routes[1]
            assert hash(f) == hash(routes[1])
            assert (f.nums, f.den) == ((2, 1), 2)

    def test_zero_vector_has_denominator_one(self):
        sp = thirds()
        f = sp.variable((Q(1, 3), Q(-5, 7)))
        for zero in (f - f, f * 0, 0 * f, embed(0, sp), center(sp, embed(Q(2, 9), sp))):
            assert zero.is_zero()
            assert (zero.nums, zero.den) == ((0, 0), 1)
            assert zero == sp.variable((0, 0))

    def test_values_are_fractions(self):
        sp = halves()
        assert sp.variable((3, Q(1, 4))).values == (Q(3), Q(1, 4))
        assert all(type(v) is Q for v in sp.variable((3, 4)).values)

    def test_immutable(self):
        f = halves().variable((1, 2))
        with pytest.raises(AttributeError):
            f.den = 3

    def test_foreign_space_rejected(self):
        f, g = halves().variable((1, 2)), thirds().variable((1, 2))
        for op in (
            lambda: f + g,
            lambda: f - g,
            lambda: f * g,
            lambda: inner(halves(), f, g),
            lambda: covariance(halves(), f, g),
            lambda: center(halves(), g),
        ):
            with pytest.raises(SpaceMismatchError):
                op()

    @pytest.mark.parametrize("values", [(1,), (1, 2, 3), ()])
    def test_wrong_length_rejected(self, values):
        with pytest.raises(SpaceMismatchError):
            RandVar(halves(), values)

    def test_float_value_rejected(self):
        with pytest.raises(TypeError):
            halves().variable((0.5, 1))
