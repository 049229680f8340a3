"""Differential oracle for ``expr.evaluate_rv``: the vector-only walk it
replaced, kept verbatim, against seeded expression trees.

The oracle embeds every constant and functional as a vector, starts each
sum from ``embed(0)`` and each product from ``embed(1)``, and values a
moment each time it appears.  The walk under test keeps constant parts as
rationals and values each distinct moment once; it must give equal
``RandVar`` fields, or raise the same error type with the same message."""

import math
import random
from fractions import Fraction

import pytest

from eicalg import brackets, expr, measure
from eicalg.errors import EicalgError, EvaluationError
from eicalg.expr import (
    BaseVar,
    EmbedFunc,
    FuncConst,
    FuncPower,
    FuncProduct,
    FuncSum,
    IntPower,
    Moment,
    Reciprocal,
    RvConst,
    RvProduct,
    RvSum,
    Smooth,
    bounded_exponent,
    evaluate_func_with,
    evaluate_rv,
)
from eicalg.measure import RandVar, embed, expectation
from eicalg.sampling import random_binding, random_space, trial_rng

# ---------------------------------------------------------------------------
# the vector-only walk, as it was


def oracle_evaluate_rv(e, space, binding, mode="exact"):
    if isinstance(e, BaseVar):
        if e.name not in binding:
            raise EvaluationError(f"unbound variable {e.name!r}")
        v = binding[e.name]
        if v.space != space:
            raise EvaluationError(f"binding for {e.name!r} lives on another space")
        return v
    if isinstance(e, RvConst):
        return embed(e.value, space)
    if isinstance(e, RvSum):
        terms = (oracle_evaluate_rv(t, space, binding, mode) for t in e.terms)
        return sum(terms, embed(0, space))
    if isinstance(e, RvProduct):
        factors = (oracle_evaluate_rv(f, space, binding, mode) for f in e.factors)
        return math.prod(factors, start=embed(1, space))
    if isinstance(e, IntPower):
        return oracle_evaluate_rv(e.base, space, binding, mode) ** bounded_exponent(e.exponent)
    if isinstance(e, EmbedFunc):
        value = oracle_evaluate_func(e.func, space, binding, mode)
        if isinstance(value, float):
            value = Fraction(value)
        return embed(value, space)
    raise TypeError(f"not a random-variable expression: {e!r}")


def oracle_evaluate_func(f, space, binding, mode="exact"):
    return evaluate_func_with(
        f, lambda arg: expectation(space, oracle_evaluate_rv(arg, space, binding, mode)), mode
    )


# ---------------------------------------------------------------------------
# seeded trees, built from the node classes so that no constructor folds


CONSTANTS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4), Fraction(5, 3)]


def rv_tree(rng, depth, mode):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            [BaseVar("X"), BaseVar("Y"), BaseVar("X"), BaseVar("Z"), RvConst(rng.choice(CONSTANTS))]
        )
    kind = rng.choice(["sum", "product", "product", "power", "embed", "embed"])
    if kind in ("sum", "product"):
        parts = tuple(rv_tree(rng, depth - 1, mode) for _ in range(rng.randint(1, 3)))
        return RvSum(parts) if kind == "sum" else RvProduct(parts)
    if kind == "power":
        return IntPower(rv_tree(rng, depth - 1, mode), rng.choice([1, 2, 3, 1001]))
    return EmbedFunc(func_tree(rng, depth - 1, mode))


def func_tree(rng, depth, mode):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([FuncConst(rng.choice(CONSTANTS)), Moment(BaseVar("X"))])
    kinds = ["moment", "moment", "sum", "product", "power", "inv"]
    kind = rng.choice(kinds + ["smooth"] * (mode == "float" or rng.random() < 0.1))
    if kind == "moment":
        return Moment(rv_tree(rng, depth - 1, mode))
    if kind in ("sum", "product"):
        parts = tuple(func_tree(rng, depth - 1, mode) for _ in range(rng.randint(1, 3)))
        return FuncSum(parts) if kind == "sum" else FuncProduct(parts)
    if kind == "power":
        return FuncPower(func_tree(rng, depth - 1, mode), rng.choice([1, 2, 3, 1001]))
    if kind == "inv":
        return Reciprocal(func_tree(rng, depth - 1, mode))
    return Smooth(rng.choice(["exp", "log", "sqrt"]), func_tree(rng, depth - 1, mode))


def instance(index):
    """A seeded space with X and Y bound on it; every seventh binds Y on
    another space, and Z is never bound."""
    rng = trial_rng("evaluate-oracle", index)
    space = random_space(rng, max_outcomes=4)
    binding = random_binding(rng, space, "XY")
    if index % 7 == 6:
        other = random_space(rng, max_outcomes=4)
        binding["Y"] = RandVar(other, [1] * other.size)
    return space, binding


def outcome(evaluate, e, space, binding, mode):
    """(space, nums, den) of the value, or (error type, message)."""
    try:
        v = evaluate(e, space, binding, mode)
    except (EicalgError, ArithmeticError) as exc:
        return type(exc), str(exc)
    assert isinstance(v, RandVar)
    return v.space, v.nums, v.den


def agree(e, space, binding, mode):
    got = outcome(evaluate_rv, e, space, binding, mode)
    assert got == outcome(oracle_evaluate_rv, e, space, binding, mode), e
    return got


# ---------------------------------------------------------------------------


class TestAgainstTheVectorWalk:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_seeded_trees(self, mode):
        rng = random.Random(f"evaluate-oracle:{mode}")
        seen = set()
        for index in range(1500):
            space, binding = instance(index)
            got = agree(rv_tree(rng, rng.randint(1, 4), mode), space, binding, mode)
            seen.add(got[1] if isinstance(got[0], type) else "value")
        assert "value" in seen
        for message in (
            "unbound variable 'Z'",
            "reciprocal of a functional evaluating to zero",
            "exponent 1001 above 1000",
            "binding for 'Y' lives on another space",
        ):
            assert message in seen, message

    @pytest.mark.parametrize(
        "e",
        [
            BaseVar("Z"),
            RvSum((BaseVar("X"), EmbedFunc(Reciprocal(Moment(RvConst(Fraction(0))))))),
            IntPower(RvSum((BaseVar("X"), RvConst(Fraction(1)))), 1001),
            IntPower(RvConst(Fraction(2)), 1001),
            RvProduct((RvConst(Fraction(0)), BaseVar("Y"))),
            RvProduct((EmbedFunc(Moment(BaseVar("X"))), RvConst(Fraction(1)), BaseVar("X"))),
            RvSum((RvConst(Fraction(2)), EmbedFunc(FuncConst(Fraction(-2))))),
            RvSum(()),
            RvProduct(()),
            EmbedFunc(Moment(EmbedFunc(Moment(BaseVar("X"))))),
            EmbedFunc(Smooth("log", Moment(RvConst(Fraction(-1))))),
            EmbedFunc(Smooth("exp", FuncConst(Fraction(10**6)))),
        ],
        ids=[
            "unbound", "reciprocal-of-zero", "exponent-bound", "constant-power-bound",
            "zero-factor", "unit-factor", "constant-sum", "empty-sum", "empty-product",
            "nested-moment", "log-of-negative", "exp-overflow",
        ],
    )
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_named_cases(self, e, mode):
        space, binding = instance(0)
        agree(e, space, binding, mode)

    def test_binding_on_another_space(self):
        space, binding = instance(6)
        assert binding["Y"].space != space
        e = RvSum((BaseVar("X"), BaseVar("Y")))
        assert agree(e, space, binding, "exact") == (
            EvaluationError, "binding for 'Y' lives on another space"
        )

    def test_constant_root_is_embedded(self):
        space, binding = instance(1)
        e = RvProduct((RvConst(Fraction(3)), EmbedFunc(Moment(BaseVar("X")))))
        want = embed(3 * expectation(space, binding["X"]), space)
        assert evaluate_rv(e, space, binding) == want


class TestMomentsValuedOnce:
    def test_jacobi_sum_expectation_calls(self, monkeypatch):
        """One cyclic sum values 6 distinct moments; each gradient evaluation
        values its own moments once (there were 22 calls)."""
        calls = []

        def counted(space, f):
            calls.append(f)
            return measure_expectation(space, f)

        measure_expectation = measure.expectation
        for module in (measure, brackets, expr):
            monkeypatch.setattr(module, "expectation", counted)
        rng = trial_rng(0, 0)
        space = random_space(rng)
        x, y = random_binding(rng, space, "XY").values()
        assert brackets.jacobi_sum(space, x, y).is_zero()
        assert len(calls) <= 18

    def test_repeated_moment_valued_once(self, monkeypatch):
        calls = []
        original = expr.expectation
        monkeypatch.setattr(expr, "expectation", lambda s, f: calls.append(f) or original(s, f))
        space, binding = instance(2)
        mean_x = EmbedFunc(Moment(BaseVar("X")))
        e = RvSum((RvProduct((mean_x, BaseVar("X"))), mean_x, IntPower(mean_x, 2)))
        agree(e, space, binding, "exact")
        calls.clear()
        evaluate_rv(e, space, binding)
        assert len(calls) == 1
