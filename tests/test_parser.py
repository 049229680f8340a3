"""Surface grammar: parsing, sugar, errors, and print/parse round trips."""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SPLICES, spliced_expression
from eicalg.canon import canonicalize_func
from eicalg.cli import main
from eicalg.errors import NormalizationError, ParseError
from eicalg.expr import (
    BaseVar,
    E,
    EmbedFunc,
    FuncConst,
    FuncSum,
    Moment,
    RvConst,
    RvSum,
    Smooth,
    inv,
    render_func,
    rv_embed,
    var,
)
from eicalg.parser import parse_expression

X, Y = var("X"), var("Y")


class TestBasicParses:
    def test_covariance_text(self):
        psi = parse_expression("E[X*Y] - E[X]*E[Y]")
        assert canonicalize_func(psi) == canonicalize_func(E(X * Y) - E(X) * E(Y))

    def test_mean(self):
        assert parse_expression("E[X]") == E(X)

    def test_var_sugar(self):
        sugar = parse_expression("Var(X)")
        desugared = parse_expression("E[X^2] - E[X]^2")
        assert canonicalize_func(sugar) == canonicalize_func(desugared)

    def test_cov_sugar(self):
        sugar = parse_expression("Cov(X,Y)")
        desugared = parse_expression("E[X*Y] - E[X]*E[Y]")
        assert canonicalize_func(sugar) == canonicalize_func(desugared)

    def test_precedence(self):
        psi = parse_expression("E[X] + E[Y]*E[X]^2")
        explicit = parse_expression("E[X] + (E[Y]*(E[X]^2))")
        assert psi == explicit

    def test_numbers_parse_exactly(self):
        from fractions import Fraction

        from eicalg.expr import FuncConst

        assert parse_expression("0.1") == FuncConst(Fraction(1, 10))

    def test_inv(self):
        assert parse_expression("inv(E[X])") == inv(E(X))

    def test_smooth_functions(self):
        assert parse_expression("log(E[X])") == Smooth("log", E(X))

    def test_nested_expectations_accepted(self):
        psi = parse_expression("E[E[X]]")
        assert canonicalize_func(psi) == canonicalize_func(E(X))

    def test_bare_variable_is_its_parameter(self):
        assert canonicalize_func(parse_expression("X")) == canonicalize_func(E(X))
        assert canonicalize_func(parse_expression("X*Y")) == canonicalize_func(
            E(X * Y)
        )

    def test_mixed_sort_expression(self):
        # scalar subexpression embedded in a random-variable context
        psi = parse_expression("E[(X - E[X])^2]")
        assert canonicalize_func(psi) == canonicalize_func(E(X**2) - E(X) ** 2)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        ["E[X", "1 +", "(X", "Var(3)", "Cov(X)", "^2", "1.", "E[]", ""],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_expression(text)

    def test_unknown_function_name(self):
        with pytest.raises(ParseError) as info:
            parse_expression("tanh(E[X])")
        assert "unknown function" in str(info.value)

    def test_error_carries_column(self):
        with pytest.raises(ParseError) as info:
            parse_expression("E[X] @ 2")
        assert info.value.column == 6

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("E[X]^1.5")


@pytest.mark.parametrize(
    "text, tree",
    [
        ("exp(X)", Smooth("exp", E(X))),
        ("inv(X)", inv(E(X))),
        # the operands fold to scalars, so the sum collapses to one embedding
        ("0*X + E[X] + E[Y]", E(rv_embed(E(X) + E(Y)))),
        ("X - E[X]", E(X - E(X))),
        ("E[X*(E[Y])^2]", E(X * rv_embed(E(Y) ** 2))),
    ],
)
def test_tree_shapes(text, tree):
    assert parse_expression(text) == tree


# ---------------------------------------------------------------------------
# round-trip corpus


def test_round_trip_corpus():
    from workloads import grammar_expression

    stable = 0
    for index in range(200):
        rng = random.Random(f"corpus:{index}")
        text = grammar_expression(rng, rng.randint(1, 3))
        parsed = parse_expression(text)
        printed = render_func(parsed)
        reparsed = parse_expression(printed)
        # print-parse is a fixed point and canonical forms are preserved
        assert reparsed == parsed, f"{text!r} -> {printed!r}"
        assert render_func(reparsed) == printed
        assert canonicalize_func(reparsed) == canonicalize_func(parsed)
        stable += 1
    assert stable == 200


F1 = Fraction(1)
EX, EY = Moment(BaseVar("X")), Moment(BaseVar("Y"))


class TestFamilyEdgeCases:
    """A random-variable part with scalar content: ``X^0`` is the random
    variable 1, so its node is an ``RvConst``, and a part it makes constant
    collapses into one embedded functional."""

    @pytest.mark.parametrize(
        "text, tree, rendered",
        [
            ("X^0", Moment(RvConst(F1)), "E[1]"),
            ("2*X^0", Moment(RvConst(Fraction(2))), "E[2]"),
            ("E[X^0]", Moment(RvConst(F1)), "E[1]"),
            ("X^0 + E[Y]", Moment(EmbedFunc(FuncSum((EY, FuncConst(F1))))), "E[E[Y] + 1]"),
            ("(X)^0*E[Y]", Moment(EmbedFunc(EY)), "E[E[Y]]"),
            ("E[Y] + (Z)^0*E[X]", Moment(EmbedFunc(FuncSum((EY, EX)))), "E[E[Y] + E[X]]"),
            ("X*(Y)^0", Moment(BaseVar("X")), "E[X]"),
            ("E[X]*(Y)^0 + X", Moment(RvSum((EmbedFunc(EX), BaseVar("X")))), "E[E[X] + X]"),
            # a negated functional among parts that fold to scalars
            (
                "Cov(X,Y) - E[Z] + Y^0",
                E(rv_embed(E(X * Y) - EX * EY - E(var("Z")) + 1)),
                "E[E[X*Y] - E[X]*E[Y] - E[Z] + 1]",
            ),
            (
                "Var(X) - Z^0 - Var(Y)",
                E(rv_embed(E(X**2) - EX**2 - 1 - (E(Y**2) - EY**2))),
                "E[E[X^2] - E[X]^2 - (E[Y^2] - E[Y]^2) - 1]",
            ),
        ],
    )
    def test_tree_and_rendering(self, text, tree, rendered):
        parsed = parse_expression(text)
        assert parsed == tree
        assert render_func(parsed) == rendered


# ---------------------------------------------------------------------------
# every printed form parses back to its own tree


def _assert_round_trip(text):
    """The printed form of ``text`` parses back to its tree, and
    ``parse-check`` calls it stable."""
    tree = parse_expression(text)
    assert parse_expression(render_func(tree)) == tree, text
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["parse-check", text]) == 0, text


def test_spliced_grammar_round_trips():
    for seed in range(21_000, 23_000):
        text = spliced_expression(seed)
        try:
            parse_expression(text)
        except NormalizationError:  # a reciprocal of a zero constant
            continue
        _assert_round_trip(text)


_LEAVES = ("X", "Y", "Z", "0", "2.5", "E[X]", "E[Y]", "Var(X)", "Cov(X,Y)") + SPLICES

# texts of trees with scalar parts of every shape: functionals, differences
# of them, and random-variable text that folds to a constant
_texts = st.recursive(
    st.sampled_from(_LEAVES),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda text: f"E[{text}]"),
        inner.map(lambda text: f"({text})"),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_texts)
@example("Cov(X,Y) - E[Z] + Y^0")
@example("Var(X) - Z^0 - Var(Y)")
def test_generated_trees_round_trip(text):
    _assert_round_trip(text)
