"""Differential oracle for the evaluator in ``expr``: the vector-only walk
``evaluate_rv`` replaced, and the functional walk (``_eval_func``) that
valued functionals beside it, both kept verbatim, against seeded expression
trees.

The oracle embeds every constant and functional as a vector, starts each
sum from ``embed(0)`` and each product from ``embed(1)``, and values a
moment each time it appears.  The evaluator under test keeps constant parts
as rationals, values each distinct node once, and values both families in
one program; it must give equal ``RandVar`` fields or equal functional
values, or raise the same error type with the same message.  The one edit
to the copied code is the message for a smooth node in exact mode, which is
now the one ``derive`` gives."""

import math
import random
from fractions import Fraction
from functools import reduce
from operator import add, mul

import pytest

from eicalg import brackets, expr, measure
from eicalg.errors import EicalgError, EvaluationError, ExactModeError, UsageError
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
    SMOOTH_TABLE,
    Smooth,
    bounded_exponent,
    evaluate_func,
    evaluate_rv,
    to_float,
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
    return oracle_evaluate_func_with(f, oracle_expect(space, binding, mode), mode)


def oracle_expect(space, binding, mode):
    return lambda arg: expectation(space, oracle_evaluate_rv(arg, space, binding, mode))


def oracle_evaluate_func_with(f, expect, mode):
    if mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {mode!r}")
    value = _eval_func(f, expect, mode)
    if mode == "float":
        return to_float(value)
    return value


def _eval_func(f, expect, mode):
    if isinstance(f, FuncConst):
        return f.value
    if isinstance(f, Moment):
        return expect(f.arg)
    if isinstance(f, (FuncSum, FuncProduct)):  # folded from the first part
        op, unit, parts = (add, 0, f.terms) if isinstance(f, FuncSum) else (mul, 1, f.factors)
        values = (_eval_func(x, expect, mode) for x in parts)
        first = next(values, None)
        return Fraction(unit) if first is None else reduce(op, values, first)
    if isinstance(f, FuncPower):
        return _eval_func(f.base, expect, mode) ** bounded_exponent(f.exponent)
    if isinstance(f, Reciprocal):
        v = _eval_func(f.arg, expect, mode)
        if v == 0:
            raise EvaluationError("reciprocal of a functional evaluating to zero")
        return 1 / v
    if isinstance(f, Smooth):
        if mode != "float":
            raise ExactModeError(
                f"smooth functional {f.tag!r} requires float mode"
            )
        x = to_float(_eval_func(f.arg, expect, mode))
        try:
            y = SMOOTH_TABLE[f.tag].evaluate(x)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{f.tag}({x}) is undefined or overflows") from exc
        return Fraction(y)
    raise TypeError(f"not a functional expression: {f!r}")


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


def func_outcome(evaluate, *args):
    """("value", type, value) of a functional's value, or (error type, message)."""
    try:
        v = evaluate(*args)
    except (EicalgError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return "value", type(v), v


def agree_func(f, space, binding, mode):
    """evaluate_func against the functional walk."""
    want = func_outcome(oracle_evaluate_func, f, space, binding, mode)
    assert func_outcome(evaluate_func, f, space, binding, mode) == want, f
    return want


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


class TestFunctionalsAgainstTheFunctionalWalk:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_seeded_trees(self, mode):
        rng = random.Random(f"evaluate-oracle-func:{mode}")
        seen = set()
        for index in range(1500):
            space, binding = instance(index)
            got = agree_func(func_tree(rng, rng.randint(1, 4), mode), space, binding, mode)
            seen.add(got[0] if got[0] == "value" else got[1])
        assert "value" in seen
        for message in (
            "unbound variable 'Z'",
            "reciprocal of a functional evaluating to zero",
            "exponent 1001 above 1000",
            "binding for 'Y' lives on another space",
        ):
            assert message in seen, message
        smooth = [m for m in seen if m.startswith("smooth functional")]
        assert bool(smooth) == (mode == "exact")

    @pytest.mark.parametrize(
        "f",
        [
            Moment(BaseVar("Z")),
            FuncSum(()),
            FuncProduct(()),
            FuncProduct((FuncConst(Fraction(0)), Moment(BaseVar("Z")))),
            Reciprocal(FuncSum((FuncConst(Fraction(2)), FuncConst(Fraction(-2))))),
            FuncPower(Moment(BaseVar("X")), 1001),
            FuncPower(FuncConst(Fraction(10**300)), 2),
            Smooth("sqrt", FuncConst(Fraction(-1))),
            Smooth("exp", FuncConst(Fraction(10**6))),
            Moment(EmbedFunc(Smooth("log", Moment(BaseVar("X"))))),
        ],
        ids=[
            "unbound", "empty-sum", "empty-product", "zero-times-unbound", "reciprocal-of-zero",
            "exponent-bound", "float-overflow", "sqrt-of-negative", "exp-overflow",
            "smooth-inside-a-moment",
        ],
    )
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_named_cases(self, f, mode):
        space, binding = instance(0)
        agree_func(f, space, binding, mode)


class TestEntryPoints:
    def test_root_of_the_other_family_is_a_type_error(self):
        space, binding = instance(0)
        with pytest.raises(TypeError, match="not a random-variable expression"):
            evaluate_rv(Moment(BaseVar("X")), space, binding)
        with pytest.raises(TypeError, match="not a functional expression"):
            evaluate_func(BaseVar("X"), space, binding)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_float_mode_rounds_each_embedded_value(self, mode):
        """inv(3) embedded is the rational of its float in float mode."""
        space, binding = instance(0)
        e = EmbedFunc(Reciprocal(FuncConst(Fraction(3))))
        want = Fraction(1, 3) if mode == "exact" else Fraction(1 / 3)
        assert evaluate_rv(e, space, binding, mode) == embed(want, space)


class TestMomentsValuedOnce:
    def test_jacobi_sum_expectation_calls(self, monkeypatch):
        """One cyclic sum values the mean of each distinct vector once (X, Y,
        XY, and the product and the two centerings in the covariance of the
        centerings), and each centering its own: 12 calls (there were 22,
        then 18 while the brackets evaluated derived gradients)."""
        calls = []

        def counted(space, f):
            calls.append(f)
            return measure_expectation(space, f)

        measure_expectation = measure.expectation
        for module in (measure, expr):
            monkeypatch.setattr(module, "expectation", counted)
        rng = trial_rng(0, 0)
        space = random_space(rng)
        x, y = random_binding(rng, space, "XY").values()
        assert brackets.jacobi_sum(space, x, y).is_zero()
        assert len(calls) <= 12

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
