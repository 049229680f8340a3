"""Command-line surface: outputs, exit codes, determinism, fault injection."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import negate_first_centering
from eicalg import brackets, canon, eic, measure, parser, sampling, verify
from eicalg.canon import CanonForm, canonicalize_rv
from eicalg.cli import MAX_OUTCOMES, main
from eicalg.errors import EvaluationError
from eicalg.expr import (
    E, FuncConst, FuncPower, FuncSum, f_pow, rv_embed, rv_pow, rv_product, var,
)
from eicalg.parser import MAX_EXPONENT, MAX_NESTING, parse_expression
from workloads import grammar_expression

X, Y = var("X"), var("Y")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_structured(out: str) -> dict:
    return json.loads(out)


class TestDerive:
    def test_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", "E[X]"
        )
        assert code == 0
        doc = parse_structured(out)
        result = doc["results"][0]
        assert result["estimand"] == "E[X]"
        assert canonicalize_rv(
            _reparse_rv(result["eic"])
        ) == canonicalize_rv(X - E(X))
        assert result["mean_zero"] is True

    def test_variance_matches_centered_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", "Var(X)"
        )
        assert code == 0
        eic_text = parse_structured(out)["results"][0]["eic"]
        mu = E(X)
        literal = (X - mu) * (X - mu) - E((X - mu) * (X - mu))
        assert canonicalize_rv(_reparse_rv(eic_text)) == canonicalize_rv(literal)

    def test_covariance_matches_centered_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", "Cov(X,Y)"
        )
        assert code == 0
        eic_text = parse_structured(out)["results"][0]["eic"]
        cov = E(X * Y) - E(X) * E(Y)
        literal = (X - E(X)) * (Y - E(Y)) - cov
        assert canonicalize_rv(_reparse_rv(eic_text)) == canonicalize_rv(literal)

    def test_trace_present(self, capsys):
        code, out, _ = run_cli(capsys, "--output", "structured", "derive", "Var(X)")
        trace = parse_structured(out)["results"][0]["trace"]
        assert trace and trace[0][0] == "linearity"

    def test_reciprocal_of_a_reciprocal(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", "inv(inv(E[X]))"
        )
        assert code == 0
        result = parse_structured(out)["results"][0]
        assert (result["estimand"], result["eic"]) == ("E[X]", "X - E[X]")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "derive", "E[X")
        assert code == 2
        assert "column" in err

    def test_float_mode_smooth_estimand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "derive",
            "log(E[X])*Var(X)",
            "--mode",
            "float",
        )
        assert code == 0
        doc = parse_structured(out)
        assert doc["inputs"]["mode"] == "float"
        assert doc["results"][0]["mean_zero"] is True
        assert doc["verdicts"] == ["mean-zero: pass"]

    def test_smooth_estimand_rejected_in_exact_mode(self, capsys):
        code, out, err = run_cli(capsys, "derive", "exp(E[X])")
        assert code == 2
        assert out == ""
        assert "float mode" in err

    @pytest.mark.parametrize("expression", ["sqrt(Var(X))", "sqrt(Var(X))*exp(E[X*Y])"])
    def test_float_mode_skips_degenerate_draws(self, capsys, expression):
        # some draws have Var(X) = 0, where the gradient divides by zero
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", expression, "--mode", "float"
        )
        assert code == 0
        assert parse_structured(out)["verdicts"] == ["mean-zero: pass"]

    def test_float_mode_overflow_ends_with_a_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "derive", "exp((Y*1 + E[X]*X)^3)", "--mode", "float"
        )
        assert code in (0, 1)
        assert out.rstrip().splitlines()[-1].startswith("mean-zero: ")
        assert err == ""


def _reparse_rv(text):
    """Read a printed random-variable expression back through the grammar."""
    from eicalg.expr import Moment

    psi = parse_expression(text)
    assert isinstance(psi, Moment)
    return psi.arg


class TestParseCheck:
    def test_round_trip_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "parse-check", "E[X*Y] - E[X]*E[Y]"
        )
        assert code == 0
        doc = parse_structured(out)
        assert doc["results"][0]["round_trip"] is True

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "parse-check", "Var(3)")
        assert code == 2

    def test_round_trip_compares_trees(self, capsys, monkeypatch):
        """A printed form that parses to another tree with the same
        rendering is unstable."""
        calls = []

        def second_differs(text):
            calls.append(text)
            tree = parse_expression(text)
            return FuncSum((tree,)) if len(calls) == 2 else tree

        monkeypatch.setattr(parser, "parse_expression", second_differs)
        code, out, _ = run_cli(capsys, "parse-check", "E[X]")
        assert calls == ["E[X]", "E[X]"]
        assert code == 1
        assert "parse: unstable" in out

    @pytest.mark.parametrize("text", ["(E[X]^2)^3", "E[(X^2)^3*Y]"])
    def test_power_of_a_power_round_trips(self, capsys, text):
        code, out, _ = run_cli(capsys, "--output", "structured", "parse-check", text)
        assert code == 0
        result = parse_structured(out)["results"][0]
        assert result == {"parsed": text, "round_trip": True}

    @pytest.mark.parametrize("text", ["E[X]^\u0663", "E[X]^\u00b2"])
    def test_non_ascii_digit_is_unexpected_character(self, capsys, text):
        code, _, err = run_cli(capsys, "parse-check", text)
        assert code == 2
        assert f"unexpected character {text[-1]!r} (column 6)" in err


# opener, closer: each repetition nests one bracket deeper
NESTING_SHAPES = {
    "parens": ("(", ")"),
    "expectation": ("E[", "]"),
    "product in expectation": ("E[X*", "]"),
    "power of parens": ("(", ")^1"),
    "inv": ("inv(", ")"),
    "exp": ("exp(", ")"),
}


def nested_text(shape: str, depth: int) -> str:
    opener, closer = NESTING_SHAPES[shape]
    return opener * depth + "X" + closer * depth


class TestNestingBound:
    @pytest.mark.parametrize(
        "shape", ["parens", "expectation", "product in expectation", "power of parens"]
    )
    @pytest.mark.parametrize("command", [["parse-check"], ["derive"]])
    def test_deepest_accepted_input_succeeds(self, capsys, shape, command):
        text = nested_text(shape, MAX_NESTING)
        code, _, err = run_cli(capsys, *command, text)
        assert code == 0, err

    @pytest.mark.parametrize("shape", list(NESTING_SHAPES))
    @pytest.mark.parametrize(
        "command", [["parse-check"], ["derive"], ["derive", "--mode", "float"]]
    )
    def test_one_level_deeper_is_expression_error(self, capsys, shape, command):
        code, _, err = run_cli(capsys, *command, nested_text(shape, MAX_NESTING + 1))
        assert code == 2
        assert f"nested more than {MAX_NESTING} deep" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "{}", "--data", "data.csv"],
            ["estimate", "{}", "--data", "data.csv", "--mode", "float", "--split", "0.5"],
            ["simulate", "--family", "bernoulli", "--p", "0.5", "--n", "20",
             "--replicates", "2", "--estimand", "{}"],
        ],
    )
    def test_deepest_subtree_twice_is_twice_the_subtree(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        """Two equal moments at the deepest nesting meet in one table of
        moments; comparing them walks no deeper than the stack allows."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data.csv").write_text("X\n1\n2\n3\n")
        deep = nested_text("product in expectation", MAX_NESTING)
        docs = []
        for text in (f"{deep} + {deep}", f"2*{deep}"):
            code, out, err = run_cli(
                capsys, "--output", "structured", *(text if a == "{}" else a for a in argv)
            )
            assert code == 0, err
            doc = parse_structured(out)
            docs.append((doc["results"], doc["verdicts"]))
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("shape", list(NESTING_SHAPES))
    def test_very_deep_input_fails_fast(self, capsys, shape):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "derive", nested_text(shape, 3000))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "nested more than" in err


def _capped(monkeypatch, owner, name, cap):
    """The list of calls of ``owner.name`` from now on; a call past ``cap``
    of them raises instead, so a run whose count runs away stops there."""
    calls, call = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        if len(calls) > cap:
            raise AssertionError(f"{name} called more than {cap} times")
        return call(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# (text, column of its exponent): each power above the bound
REFUSED_POWERS = [
    ("E[X]^99999999", 6), ("E[X^20000]", 5), ("E[(X+Y)^1001]", 9), ("inv(E[X])^1001", 11),
]


class TestExponentBound:
    """A power of anything but a number has an exponent of at most
    ``MAX_EXPONENT``; a larger one is an expression error (exit 2) at the
    exponent's column, raised before anything is expanded.  Each wall-clock
    bound has a count twin, which no machine load moves: a refused exponent
    makes no product of canonical polynomials (``canon._p_mul``) and builds
    no vector (``measure._vector``), and a counter's cap stops a run that
    expands the power."""

    @pytest.mark.parametrize("text, column", REFUSED_POWERS)
    @pytest.mark.parametrize("command", [["parse-check"], ["derive"]])
    def test_larger_exponent_fails_fast(self, capsys, command, text, column):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *command, text)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: exponent above {MAX_EXPONENT} (column {column})\n"

    @pytest.mark.parametrize("text, column", REFUSED_POWERS)
    @pytest.mark.parametrize("command", [["parse-check"], ["derive"]])
    def test_larger_exponent_expands_nothing(self, capsys, monkeypatch, command, text, column):
        products = _capped(monkeypatch, canon, "_p_mul", 0)
        vectors = _capped(monkeypatch, measure, "_vector", 0)
        code, out, err = run_cli(capsys, *command, text)
        assert (code, out, products, vectors) == (2, "", [], [])
        assert err == f"error: exponent above {MAX_EXPONENT} (column {column})\n"

    @pytest.mark.parametrize("text", [f"E[X^{MAX_EXPONENT}]", f"E[X]*2^{MAX_EXPONENT + 1}"])
    def test_bound_and_constant_powers_are_accepted(self, capsys, text):
        code, _, err = run_cli(capsys, "derive", text)
        assert code == 0, err

    def test_tree_built_through_the_api(self):
        from eicalg.canon import canonicalize_func
        from eicalg.errors import NormalizationError
        from eicalg.expr import FuncPower

        start = time.perf_counter()
        with pytest.raises(NormalizationError, match="exponent"):
            canonicalize_func(FuncPower(E(X), 99999999))
        assert time.perf_counter() - start < 1

    def test_tree_evaluated_through_the_api(self):
        """Evaluation bounds the exponent as expansion does: the plug-in
        estimate of E[X]^(10^8) ran past a 5 s timeout before."""
        from eicalg.errors import NormalizationError
        from eicalg.estimate import CompiledEstimand, plugin_estimate, read_delimited
        from eicalg.expr import FuncPower, IntPower, evaluate_rv
        from eicalg.measure import FiniteProbSpace, RandVar

        space = FiniteProbSpace(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
        binding = {"X": RandVar(space, (Fraction(1), Fraction(3, 2)))}
        data = read_delimited("X\n1\n2\n")
        start = time.perf_counter()
        with pytest.raises(NormalizationError, match=f"^exponent 100000000 above {MAX_EXPONENT}$"):
            plugin_estimate(CompiledEstimand(FuncPower(E(X), 10**8)), data)
        with pytest.raises(NormalizationError, match="exponent"):
            evaluate_rv(IntPower(X, 10**8), space, binding)
        assert time.perf_counter() - start < 1
        # the bound itself evaluates
        assert plugin_estimate(CompiledEstimand(FuncPower(E(X), MAX_EXPONENT)), data) == (
            Fraction(3, 2) ** MAX_EXPONENT
        )

    def test_tree_built_through_the_api_expands_nothing(self, monkeypatch):
        from eicalg.errors import NormalizationError
        from eicalg.expr import FuncPower

        products = _capped(monkeypatch, canon, "_p_mul", 0)
        with pytest.raises(NormalizationError, match="exponent"):
            canon.canonicalize_func(FuncPower(E(X), 99999999))
        assert products == []

    def test_tree_evaluated_through_the_api_expands_nothing(self, monkeypatch):
        """The plug-in estimate makes one moment pass, for the E[X] it meets
        before the refused power, and none for the E[Y] after it; pointwise
        evaluation builds no vector.  X is 1 and -1 here, so a walk that
        took the power would reach the vector cap at once."""
        from eicalg.errors import NormalizationError
        from eicalg.estimate import CompiledEstimand, Dataset, plugin_estimate, read_delimited
        from eicalg.expr import FuncPower, IntPower, evaluate_rv
        from eicalg.measure import FiniteProbSpace, RandVar

        space = FiniteProbSpace(("a", "b"), (Fraction(1, 3), Fraction(2, 3)))
        binding = {"X": RandVar(space, (1, -1))}
        data = read_delimited("X,Y\n1,2\n2,3\n")
        passes = _capped(monkeypatch, Dataset, "moment", 1)
        vectors = _capped(monkeypatch, measure, "_vector", 0)
        with pytest.raises(NormalizationError, match=f"^exponent 100000000 above {MAX_EXPONENT}$"):
            plugin_estimate(CompiledEstimand(FuncPower(E(X), 10**8) + E(Y)), data)
        with pytest.raises(NormalizationError, match="exponent"):
            evaluate_rv(IntPower(X, 10**8), space, binding)
        assert [mono for _, mono in passes] == [(("X", 1),)]
        assert vectors == []


class TestLongSum:
    def test_polynomial_terms_add_in_one_pass(self, capsys, monkeypatch):
        """A sum of polynomial terms adds their numerators in one pass, with
        no :class:`CanonForm` addition: folding each of the terms E[Xi]*E[Yi],
        i < 1000, into the running sum with its own normalization made one
        addition per term and took 11.4 s."""
        adds, add = [], CanonForm.__add__
        monkeypatch.setattr(CanonForm, "__add__", lambda a, b: adds.append(1) or add(a, b))
        text = "+".join(f"E[X{i}]*E[Y{i}]" for i in range(1000))
        code, out, err = run_cli(capsys, "derive", text)
        assert len(adds) == 0
        assert code == 0, err
        assert "X999*E[Y999] + " in out and "Y999*E[X999] - " in out
        assert "mean-zero: pass" in out


class TestAsciiIdentifiers:
    @pytest.mark.parametrize("text", ["E[X\u00b2]", "E[X\u00e9]"])
    @pytest.mark.parametrize("command", [["derive"], ["parse-check"]])
    def test_non_ascii_letter_or_digit_is_unexpected_character(
        self, capsys, command, text
    ):
        code, out, err = run_cli(capsys, *command, text)
        assert code == 2
        assert out == ""
        assert f"unexpected character {text[3]!r} (column 4)" in err

    def test_ascii_identifier_with_digits_and_underscores(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", "E[_x1*Y_2]"
        )
        assert code == 0
        assert parse_structured(out)["results"][0]["estimand"] == "E[Y_2*_x1]"


class TestSmoothInsideMoments:
    """A smooth functional is a scalar atom of the normal form, so float-mode
    derive certifies every gradient symbolically, as exact mode does."""

    def test_float_derive(self, capsys):
        code, out, err = run_cli(
            capsys, "--output", "structured", "derive", "E[X*exp(E[Y])]",
            "--mode", "float",
        )
        assert code == 0, err
        result = parse_structured(out)["results"][0]
        assert result["estimand"] == "E[X]*exp(E[Y])"
        assert result["mean_zero"] is True

    @pytest.mark.parametrize(
        "expression",
        ["E[X*exp(E[Y])]", "sqrt(Var(X))*exp(E[X*Y])", "E[X*log(E[Y])]*inv(E[Y])",
         "log(E[X])*Var(X)"],
    )
    def test_printed_float_gradient_parses_back(self, capsys, expression):
        from eicalg.eic import derive_eic

        code, out, _ = run_cli(
            capsys, "--output", "structured", "derive", expression, "--mode", "float"
        )
        assert code == 0
        eic = derive_eic(parse_expression(expression), mode="float").eic
        printed = parse_structured(out)["results"][0]["eic"]
        assert canonicalize_rv(_reparse_rv(printed)) == canonicalize_rv(eic)

    def test_reciprocal_of_cancelling_smooth_terms_is_expression_error(self, capsys):
        code, out, err = run_cli(
            capsys, "derive", "inv(exp(E[X]) - exp(E[X]))", "--mode", "float"
        )
        assert code == 2
        assert out == ""
        assert "normalizes to zero" in err

    def test_exact_mode_still_rejects_smooth_nodes(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "derive", "E[X*exp(E[Y])]")
        assert code == 2
        assert out == ""
        assert "requires float mode" in err
        path = tmp_path / "data.csv"
        path.write_text("X,Y\n1,2\n3,5\n")
        code, out, _ = run_cli(capsys, "estimate", "E[X*exp(E[Y])]", "--data", str(path))
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("expression", ["E[X*exp(E[Y])]", "E[X*log(E[Y])]*inv(E[Y])"])
    def test_float_estimate(self, capsys, tmp_path, expression):
        path = tmp_path / "data.csv"
        path.write_text("X,Y\n1,2\n3,5\n4,2.5\n")
        code, out, err = run_cli(
            capsys, "estimate", expression, "--data", str(path), "--mode", "float"
        )
        assert code == 0, err


def _smooth_expression_text(rng, depth):
    """Grammar corpus with exp, log((.)^2 + 1) and sqrt nodes."""
    if depth <= 0:
        return grammar_expression(rng, 0)
    a = _smooth_expression_text(rng, depth - 1)
    kind = rng.randrange(7)
    if kind == 0:
        return f"exp({a})"
    if kind == 1:
        return f"log(({a})^2 + 1)"
    if kind == 2:
        return f"sqrt({a})"
    b = _smooth_expression_text(rng, depth - 1)
    if kind == 3:
        return f"{a}*{b}"
    if kind == 4:
        return f"E[{a}*{b}]"
    if kind == 5:
        return f"{a} - {b}"
    return grammar_expression(rng, depth)


def test_float_verdicts_against_numeric_means(capsys):
    """Independent of the symbolic verdict: every float gradient, evaluated
    pointwise on seeded positive draws, has mean zero up to the float
    rounding of its embedded functionals, on every draw where it is defined."""
    from eicalg.eic import derive_eic
    from eicalg.expr import evaluate_rv, func_base_vars
    from eicalg.errors import EvaluationError
    from eicalg.measure import expectation
    from eicalg.sampling import random_binding, random_space

    rng = random.Random(20250801)
    checked = draws = 0
    for _ in range(150):
        text = _smooth_expression_text(rng, rng.randint(1, 3))
        code, out, err = run_cli(
            capsys, "--output", "structured", "derive", text, "--mode", "float"
        )
        assert code == 0, (text, err)
        assert parse_structured(out)["verdicts"] == ["mean-zero: pass"], text
        psi = parse_expression(text)
        eic = derive_eic(psi, mode="float").eic
        names = sorted(func_base_vars(psi))
        for _ in range(20):
            space = random_space(rng)
            binding = random_binding(rng, space, names, low=1, high=5)
            draws += 1
            try:
                values = evaluate_rv(eic, space, binding, mode="float")
            except EvaluationError:
                continue  # undefined on this draw
            mean = float(expectation(space, values))
            scale = max(1.0, max(abs(float(v)) for v in values.values))
            assert abs(mean) <= 1e-9 * scale, (text, mean)
            checked += 1
    assert 2 * checked >= draws


INSTANCE_0 = (
    "instance 0: weights=['2/27', '5/27', '4/27', '5/27', '1/3', '2/27']"
    " X=['-2', '5', '2', '-3', '-3', '-5'] Y=['3', '1', '-4', '-5', '-5', '5']; "
)
INSTANCE_12 = (
    "instance 12: weights=['7/43', '5/43', '7/43', '4/43', '2/43', '6/43', '7/43',"
    " '5/43'] X=['-2', '-5', '4', '-5', '-1', '-5', '2', '-5']"
    " Y=['5', '-2', '3', '0', '4', '5', '-5', '3']; "
)


def _decomposition(constant_shift, centered_shift):
    def decompose(space, f):
        mean = measure.expectation(space, f)
        return measure.Decomposition(mean + constant_shift, f - mean - centered_shift)

    return decompose


def _numeric_side(name, fault):
    """A patch of the numeric model's side ``name``: its correct value plus
    ``fault(model, x, y)``.  The symbolic model keeps the correct side."""
    side = getattr(brackets.Algebra, name)
    return brackets.Numeric, name, lambda o, x, y: side(o, x, y) + fault(o, x, y)


# the first composite bracket less the covariance, so the cyclic sum is -Cov
FIRST_PIECE_LESS_COV = _numeric_side(
    "nested_T_P_prod", lambda o, x, y: -o.embed(o.bracket_P_prod(x, y))
)

_GRADIENT = eic._gradient


def _power_rule_off_by_one(f, trace, mode):
    """``eic._gradient`` with n + 1 for n as the power rule's coefficient:
    a fault on the certificate's gradient route."""
    if isinstance(f, FuncPower):
        base = _GRADIENT(f.base, trace, mode)
        return rv_product(f.exponent + 1, rv_pow(rv_embed(f.base), f.exponent - 1), base)
    return _GRADIENT(f, trace, mode)


def _half_product_rule(self, other):
    """``Dual.__mul__`` that drops the other factor's influence from the
    product rule: a fault on the certificate's influence route."""
    if isinstance(other, measure.Dual):
        return measure.Dual(self.value * other.value, self.influence * other.value)
    return measure.Dual(self.value * other, self.influence * other)


# (suite, [(module or class, name, replacement)], {failing record: first
# counterexample}) at seed 0 and 20 trials; the faults patch the names the
# bracket functions and checks look up, so the symbolic records still pass,
# and a fault on one certificate route fails only the estimands it touches
INJECTED_FAULTS = [
    pytest.param(
        "decomposition", [(verify, "decompose", _decomposition(1, 0))],
        {"orthogonal-decomposition": INSTANCE_0 + "parts do not reconstruct the input"},
        id="decomposition-not-reconstructing",
    ),
    pytest.param(
        "decomposition", [(verify, "decompose", _decomposition(1, 1))],
        {"orthogonal-decomposition": INSTANCE_0 + "centered part has nonzero mean"},
        id="decomposition-centered-part-shifted",
    ),
    pytest.param(
        "decomposition",
        [(verify, "inner", lambda s, f, g: measure.inner(s, f, g) + (s.size == 8))],
        {"orthogonal-decomposition": INSTANCE_12 + "parts are not orthogonal"},
        id="inner-off-on-eight-outcomes",
    ),
    pytest.param(
        "decomposition", [(verify, "inner", lambda s, f, g: 2 * measure.inner(s, f, g))],
        {
            "orthogonal-decomposition":
                INSTANCE_0 + "inner product against 1 is not the expectation"
        },
        id="inner-doubled",
    ),
    pytest.param(
        "brackets",
        [(brackets, "bracket_P_prod", lambda s, x, y: 2 * measure.covariance(s, x, y))],
        {"covariance-bracket": INSTANCE_0 + "sides=4624/729 closed form=2312/729"},
        id="covariance-doubled",
    ),
    pytest.param(
        "brackets", [(brackets, "pointwise_product", lambda f, g: f * g + f * f)],
        {
            "covariance-bracket": INSTANCE_0 + "lhs=11087/729 rhs=15461/729",
            "product-centering-bracket": INSTANCE_0
            + "got=['10475/729', '30212/729', '18116/729', '2510/729', '2510/729',"
            " '2726/729'] want=['3655/729', '14698/729', '6328/729', '-3068/729',"
            " '-3068/729', '-368/729']",
        },
        id="product-not-symmetric",
    ),
    pytest.param(
        "corollaries", [(brackets, "embed", lambda a, s: measure.embed(a, s) + 1)],
        {
            "corollary-product-of-gradients": INSTANCE_0
            + "lhs=['-5869/729', '2150/729', '-7327/729', '9440/729', '9440/729',"
            " '-19720/729'] rhs=['-5140/729', '2879/729', '-6598/729', '10169/729',"
            " '10169/729', '-18991/729']",
            "corollary-covariance-gradient": INSTANCE_0
            + "lhs=['-4526/729', '14536/729', '-3311/729', '4060/729', '4060/729',"
            " '-22400/729'] rhs=['-3797/729', '15265/729', '-2582/729', '4789/729',"
            " '4789/729', '-21671/729']",
        },
        id="corollary-sides-differ",
    ),
    pytest.param(
        "corollaries", [(brackets, "pointwise_product", lambda f, g: f * g + 1)],
        {
            "corollary-product-of-gradients": INSTANCE_0
            + "sides=['-5140/729', '2879/729', '-6598/729', '10169/729', '10169/729',"
            " '-18991/729'] closed form=['-5869/729', '2150/729', '-7327/729',"
            " '9440/729', '9440/729', '-19720/729']",
            "corollary-covariance-gradient": INSTANCE_0
            + "sides=['-3797/729', '15265/729', '-2582/729', '4789/729', '4789/729',"
            " '-21671/729'] closed form=['-4526/729', '14536/729', '-3311/729',"
            " '4060/729', '4060/729', '-22400/729']",
        },
        id="corollary-sides-off-the-closed-form",
    ),
    pytest.param(
        "lemma", [FIRST_PIECE_LESS_COV],
        {
            "lemma-pieces": INSTANCE_0
            + "first piece got=['-11462/729', '7600/729', '-10247/729', '-2876/729',"
            " '-2876/729', '-29336/729'] want=['-3050/243', '3304/243', '-2645/243',"
            " '-188/243', '-188/243', '-9008/243']"
        },
        id="lemma-first-piece",
    ),
    pytest.param(
        "lemma", [_numeric_side("nested_P_prod_T", lambda o, x, y: 1)],
        {
            "lemma-pieces": INSTANCE_0
            + "second piece got=['6224/729', '-23881/729', '2336/729', '4361/729',"
            " '4361/729', '28121/729'] want=['5495/729', '-24610/729', '1607/729',"
            " '3632/729', '3632/729', '27392/729']"
        },
        id="lemma-second-piece",
    ),
    pytest.param(
        "lemma", [_numeric_side("nested_prod_T_P", lambda o, x, y: 1)],
        {
            "lemma-pieces": INSTANCE_0
            + "third piece got=['4384/729', '15427/729', '7057/729', '-2339/729',"
            " '-2339/729', '361/729'] want=['3655/729', '14698/729', '6328/729',"
            " '-3068/729', '-3068/729', '-368/729']"
        },
        id="lemma-third-piece",
    ),
    pytest.param(
        "jacobi", [FIRST_PIECE_LESS_COV],
        {"jacobi-identity": INSTANCE_0 + f"got={['-2312/729'] * 6} want={['0'] * 6}"},
        id="jacobi-sum-nonzero",
    ),
    pytest.param(
        "eic-certificates", [(eic, "_gradient", _power_rule_off_by_one)],
        {
            "gradient-certificate-variance": INSTANCE_0
            + "gradient=['-2666/243', '6784/243', '-182/243', '-2072/243', '-2072/243',"
            " '574/243'] influence=['-7285/729', '16718/729', '-2317/729', '-4882/729',"
            " '-4882/729', '4298/729']"
        },
        id="gradient-power-rule-off",
    ),
    pytest.param(
        "eic-certificates", [(measure.Dual, "__mul__", _half_product_rule)],
        {
            "gradient-certificate-covariance": INSTANCE_0
            + "gradient=['-6838/729', '12224/729', '-5623/729', '1748/729', '1748/729',"
            " '-24712/729'] influence=['-10196/729', '10108/729', '-4634/729', '3358/729',"
            " '3358/729', '-29312/729']",
            "gradient-certificate-product-of-means": INSTANCE_0
            + "gradient=['-1343/729', '-12386/729', '-4016/729', '5380/729', '5380/729',"
            " '2680/729'] influence=['2015/729', '-10270/729', '-5005/729', '3770/729',"
            " '3770/729', '7280/729']",
        },
        id="influence-product-rule-off",
    ),
]


class TestVerify:
    def test_all_suites_pass_quickly(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "verify",
            "all",
            "--trials",
            "10",
            "--seed",
            "42",
        )
        assert code == 0
        doc = parse_structured(out)
        assert all(r["verdict"] == "pass" for r in doc["results"])

    def test_exit_one_on_failure(self, capsys, monkeypatch):
        negate_first_centering(monkeypatch)
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "verify",
            "jacobi",
            "--trials",
            "50",
            "--seed",
            "42",
        )
        assert code == 1
        doc = parse_structured(out)
        failing = [r for r in doc["results"] if r["verdict"] == "fail"]
        assert failing
        assert "weights=" in failing[0]["counterexample"]

    def test_centering_fault_prints_the_recorded_counterexamples(
        self, capsys, monkeypatch
    ):
        """The counterexample text, rational weights and values included, is
        pinned byte for byte: it is recorded output, not just a verdict."""
        def shifted_mean(space, f):
            value = measure.expectation(space, f)
            return measure.Dual(value, f - value + 1)

        monkeypatch.setattr(measure.Dual, "mean", staticmethod(shifted_mean))
        code, out, _ = run_cli(
            capsys, "--output", "structured", "verify", "brackets", "--trials", "5"
        )
        assert code == 1
        instance = (
            "instance 0: weights=['2/27', '5/27', '4/27', '5/27', '1/3', '2/27']"
            " X=['-2', '5', '2', '-3', '-3', '-5'] Y=['3', '1', '-4', '-5', '-5', '5']; "
        )
        assert [r["counterexample"] for r in parse_structured(out)["results"]] == [
            None,
            instance
            + "got=['6760/729', '21448/729', '7246/729', '-6524/729', '-6524/729',"
            " '2008/729'] want=['3655/729', '14698/729', '6328/729', '-3068/729',"
            " '-3068/729', '-368/729']",
            instance
            + "got=['-4/27', '185/27', '104/27', '-31/27', '-31/27', '-85/27']"
            " want=['-31/27', '158/27', '77/27', '-58/27', '-58/27', '-112/27']",
            None,
            None,
            None,
            None,
            None,
        ]

    @pytest.mark.parametrize("suite, patches, failing", INJECTED_FAULTS)
    def test_injected_fault_prints_its_first_counterexample(
        self, capsys, monkeypatch, suite, patches, failing
    ):
        """One fault per failure message of a check: the exit code, which
        records fail, and each one's first counterexample are pinned."""
        for module, name, replacement in patches:
            monkeypatch.setattr(module, name, replacement)
        code, out, _ = run_cli(
            capsys, "--output", "structured", "verify", suite, "--trials", "20"
        )
        assert code == 1
        results = parse_structured(out)["results"]
        assert {
            r["name"]: r["counterexample"] for r in results if r["verdict"] == "fail"
        } == failing

    def test_one_space_per_trial_of_each_suite(self, capsys, monkeypatch):
        """One verify call draws one space per trial, and all six suites run
        on it in one pass: a budget for keeping instances between passes
        would change nothing."""
        monkeypatch.setattr(sampling, "KEEP_OUTCOMES", 20, raising=False)
        spaces = []
        draw = sampling.random_space
        monkeypatch.setattr(
            sampling, "random_space", lambda *args, **kw: spaces.append(1) or draw(*args, **kw)
        )
        code, _, _ = run_cli(capsys, "verify", "all", "--trials", "100")
        assert code == 0
        assert len(spaces) == 100

    def test_check_that_checked_no_instance_fails(self, capsys, monkeypatch):
        def degenerate(*args):
            raise EvaluationError("every draw is degenerate")

        monkeypatch.setattr(brackets, "jacobi_sum", degenerate)
        code, out, _ = run_cli(
            capsys, "--output", "structured", "verify", "jacobi", "--trials", "20"
        )
        assert code == 1
        assert [
            (r["name"], r["counterexample"])
            for r in parse_structured(out)["results"]
            if r["verdict"] == "fail"
        ] == [
            (
                "jacobi-identity",
                "only 0 of 20 trials were checked; the other draws were degenerate",
            )
        ]

    def test_covariance_does_not_share_the_product_under_test(
        self, capsys, monkeypatch
    ):
        """A pointwise product off by one everywhere it is bound shifts the
        bracket, but not the covariance computed from centered variables."""
        for module in (measure, brackets):
            monkeypatch.setattr(module, "pointwise_product", lambda f, g: f * g + 1)
        code, out, _ = run_cli(
            capsys, "--output", "structured", "verify", "brackets", "--trials", "5"
        )
        assert code == 1
        assert parse_structured(out)["results"][0]["counterexample"] == (
            INSTANCE_0 + "sides=3041/729 closed form=2312/729"
        )

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, "verify", "nonsense")
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "suite, trials", [("all", "0"), ("jacobi", "-3"), ("brackets", "-1")]
    )
    def test_fewer_than_one_trial_is_usage_error(self, capsys, suite, trials):
        code, out, err = run_cli(capsys, "verify", suite, "--trials", trials)
        assert code == 2
        assert out == ""
        assert "--trials" in err

    @pytest.mark.parametrize("max_outcomes", ["1", "0", "-4"])
    def test_max_outcomes_below_two_is_usage_error(self, capsys, max_outcomes):
        code, out, err = run_cli(
            capsys, "verify", "brackets", "--max-outcomes", max_outcomes
        )
        assert code == 2
        assert out == ""
        assert "--max-outcomes" in err

    def test_max_outcomes_above_the_bound_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, _, _ = run_cli(
            capsys, "verify", "jacobi", "--trials", "1",
            "--max-outcomes", str(MAX_OUTCOMES),
        )
        assert code == 0
        for value in (MAX_OUTCOMES + 1, 10**9):
            code, out, err = run_cli(
                capsys, "verify", "jacobi", "--trials", "3",
                "--max-outcomes", str(value),
            )
            assert code == 2
            assert out == ""
            assert "--max-outcomes" in err
        assert time.perf_counter() - start < 1.0


class TestEstimate:
    def test_byte_order_mark_before_the_header(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbfX\n1\n2\n")
        code, out, err = run_cli(
            capsys, "--output", "structured", "estimate", "E[X]", "--data", str(path)
        )
        assert code == 0, err
        assert parse_structured(out)["results"][0]["estimate"] == "3/2"

    def test_data_cells_padded_with_spaces_and_tabs(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(" X ,\tY\n 1 ,\t-2.5\t\n\t3\t, 0.50 \n")
        code, out, err = run_cli(
            capsys, "--output", "structured", "estimate", "E[X*Y]", "--data", str(path)
        )
        assert code == 0, err
        assert parse_structured(out)["results"][0]["estimate"] == "-1/2"

    def test_mean_closed_form(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n0\n1\n")
        code, out, _ = run_cli(
            capsys, "--output", "structured", "estimate", "E[Y]", "--data", str(path)
        )
        assert code == 0
        result = parse_structured(out)["results"][0]
        assert result["estimate"] == "1/2"
        assert result["standard_error"] == pytest.approx(0.3535533905932738)

    def test_variance(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n0\n1\n")
        code, out, _ = run_cli(
            capsys, "--output", "structured", "estimate", "Var(Y)", "--data", str(path)
        )
        assert parse_structured(out)["results"][0]["estimate"] == "1/4"

    def test_constant_expression(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n4\n7\n")
        code, out, _ = run_cli(
            capsys, "--output", "structured", "estimate", "3", "--data", str(path)
        )
        result = parse_structured(out)["results"][0]
        assert result["estimate"] == "3"
        assert result["standard_error"] == 0.0

    def test_onestep_with_split(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n0\n1\n1\n0\n")
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "estimate",
            "E[Y]",
            "--data",
            str(path),
            "--split",
            "0.5",
        )
        assert parse_structured(out)["results"][0]["onestep"] == "1/2"

    def test_missing_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n0\n1\n")
        code, _, err = run_cli(capsys, "estimate", "E[Z]", "--data", str(path))
        assert code == 3

    def test_malformed_data_exit_code(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\nfoo\n")
        code, _, err = run_cli(capsys, "estimate", "E[Y]", "--data", str(path))
        assert code == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--split", "2"], "split ratio must lie in (0, 1]"),
            (["--split", "0"], "split ratio must lie in (0, 1]"),
            (["--level", "1.5"], "confidence level must lie in (0, 1)"),
        ],
    )
    def test_usage_error_wins_over_a_bad_cell(self, capsys, tmp_path, flags, message):
        """--split and --level are checked before the file is read."""
        path = tmp_path / "data.csv"
        path.write_text("Y\n1\nfoo\n")
        code, out, err = run_cli(capsys, "estimate", "E[Y]", "--data", str(path), *flags)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_float_mode_smooth_estimand(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n1\n4\n")
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "estimate",
            "sqrt(E[Y])",
            "--data",
            str(path),
            "--mode",
            "float",
        )
        assert code == 0
        result = parse_structured(out)["results"][0]
        assert result["estimate_float"] == pytest.approx(2.5**0.5)
        # delta-method standard error: |g'(mean)| * sd(Y)/sqrt(n)
        import math

        expected_se = (0.5 / math.sqrt(2.5)) * math.sqrt(2.25 / 2)
        assert result["standard_error"] == pytest.approx(expected_se, rel=1e-9)

    def test_smooth_estimand_rejected_in_exact_mode(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("Y\n1\n4\n")
        code, _, err = run_cli(
            capsys, "estimate", "sqrt(E[Y])", "--data", str(path)
        )
        assert code == 2

    def test_smooth_estimand_message_is_the_one_derive_gives(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("X\n1\n4\n")
        for argv in (["derive", "exp(E[X])"], ["estimate", "exp(E[X])", "--data", str(path)]):
            assert run_cli(capsys, *argv) == (
                2, "", "error: smooth functional 'exp' requires float mode\n"
            )

    def test_float_mode_overflow_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("X\n1000\n2000\n")
        code, out, err = run_cli(
            capsys, "estimate", "exp(E[X])", "--data", str(path), "--mode", "float"
        )
        assert code == 3
        assert out == ""
        assert "exp(1500.0)" in err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_standard_error_overflow_is_data_error(self, capsys, tmp_path, mode):
        path = tmp_path / "data.csv"
        path.write_text("X\n10\n20\n")
        code, out, err = run_cli(
            capsys, "estimate", "E[X^400]", "--data", str(path), "--mode", mode
        )
        assert code == 3
        assert out == ""
        assert "overflows a float" in err

    def test_estimate_overflow_is_data_error(self, capsys, tmp_path):
        # constant data: the standard error is 0, the estimate 10^400
        path = tmp_path / "data.csv"
        path.write_text("X\n10\n10\n")
        code, out, err = run_cli(capsys, "estimate", "E[X^400]", "--data", str(path))
        assert code == 3
        assert out == ""
        assert "overflows a float" in err

    def test_cancelled_variable_must_still_be_a_column(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("X\n1\n2\n")
        code, out, err = run_cli(
            capsys, "estimate", "E[X + Z - Z]", "--data", str(path)
        )
        assert code == 3
        assert out == ""
        assert "unbound variable 'Z'" in err


class TestSimulate:
    def test_bernoulli_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--output",
            "structured",
            "simulate",
            "--family",
            "bernoulli",
            "--p",
            "0.3",
            "--estimand",
            "E[X]",
            "--n",
            "100",
            "--replicates",
            "20",
            "--seed",
            "7",
        )
        assert code == 0
        result = parse_structured(out)["results"][0]
        assert result["bound_exact"] == "21/100"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--support", "-1,0.5,2.25", "--weights", "0.2,0.3,0.5"],
            ["--support", "-.5,1", "--weights", "0.5,0.5"],
        ],
    )
    def test_list_whose_first_value_is_negative(self, capsys, flags):
        """A comma list after --support reads as with --support=..., even
        when it starts with a minus sign."""
        common = ["--output", "structured", "simulate", "--family", "discrete"]
        tail = ["--estimand", "Var(X)", "--n", "50", "--replicates", "5", "--seed", "3"]
        joined = [flags[0] + "=" + flags[1], *flags[2:]]
        code, out, err = run_cli(capsys, *common, *flags, *tail)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, *common, *joined, *tail)

    def test_uniform_grid_of_one_point_is_its_midpoint(self, capsys):
        code, out, err = run_cli(
            capsys, "--output", "structured", *SIMULATE, "--family", "uniform-grid",
            "--low", "0", "--high", "1", "--points", "1",
        )
        assert (code, err) == (0, "")
        result = parse_structured(out)["results"][0]
        assert (result["truth_exact"], result["bound_exact"]) == ("1/2", "0")

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "mc.json"
        config.write_text(
            json.dumps(
                {
                    "family": "discrete",
                    "params": {"support": ["2"], "weights": ["1"]},
                    "estimand": "E[X]",
                    "n": 20,
                    "replicates": 5,
                    "seed": 1,
                }
            )
        )
        code, out, _ = run_cli(
            capsys, "--output", "structured", "simulate", "--config", str(config)
        )
        result = parse_structured(out)["results"][0]
        assert result["empirical_variance"] == 0.0
        assert result["coverage"] == 1.0

    def test_config_file_without_level_and_column(self, capsys, tmp_path):
        """The study's defaults: level 0.95, and the sample's column is X."""
        fields = {
            "family": "bernoulli",
            "params": {"p": "0.5"},
            "estimand": "E[X]",
            "n": 10,
            "replicates": 3,
            "seed": 1,
        }
        outs = []
        for extra in ({}, {"level": 0.95, "column": "X"}):
            config = tmp_path / "mc.json"
            config.write_text(json.dumps({**fields, **extra}))
            code, out, err = run_cli(
                capsys, "--output", "structured", "simulate", "--config", str(config)
            )
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert parse_structured(outs[0])["inputs"]["level"] == 0.95
        config.write_text(json.dumps({**fields, "column": "Y"}))
        assert run_cli(capsys, "simulate", "--config", str(config)) == (
            2, "", "error: estimand uses variables ['X'] but the sampler provides only 'Y'\n"
        )

    def test_config_file_with_byte_order_mark(self, capsys, tmp_path):
        config = tmp_path / "mc.json"
        fields = {
            "family": "bernoulli",
            "params": {"p": "0.5"},
            "estimand": "E[X]",
            "n": 10,
            "replicates": 3,
            "seed": 1,
        }
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps(fields).encode())
        code, out, err = run_cli(
            capsys, "--output", "structured", "simulate", "--config", str(config)
        )
        assert code == 0, err
        assert parse_structured(out)["inputs"]["estimand"] == "E[X]"

    @pytest.mark.parametrize("key", ["estimand", "family", "n", "replicates", "seed"])
    def test_config_missing_key_is_usage_error(self, capsys, tmp_path, key):
        fields = {
            "family": "bernoulli",
            "params": {"p": "0.5"},
            "estimand": "E[X]",
            "n": 20,
            "replicates": 5,
            "seed": 1,
        }
        del fields[key]
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(fields))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert repr(key) in err

    @pytest.mark.parametrize(
        "content", ["5", json.dumps(["estimand", "family", "n", "replicates", "seed"])]
    )
    def test_config_not_an_object_is_usage_error(self, capsys, tmp_path, content):
        config = tmp_path / "mc.json"
        config.write_text(content)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "JSON object" in err

    @pytest.mark.parametrize(
        "family, flags, missing",
        [
            ("bernoulli", [], "p"),
            ("discrete", ["--support", "0,1"], "weights"),
            ("uniform-grid", ["--low", "0", "--high", "1"], "points"),
            ("gaussian-grid", ["--mean", "0"], "sd"),
        ],
    )
    def test_missing_sampler_parameter_is_usage_error(
        self, capsys, family, flags, missing
    ):
        code, out, err = run_cli(
            capsys, "simulate", "--family", family, *flags, "--estimand", "E[X]",
            "--n", "10", "--replicates", "2",
        )
        assert code == 2
        assert out == ""
        assert f"needs the parameter {missing!r}" in err

    def test_config_params_not_an_object_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "mc.json"
        config.write_text(
            json.dumps(
                {
                    "family": "bernoulli",
                    "params": 5,
                    "estimand": "E[X]",
                    "n": 20,
                    "replicates": 5,
                    "seed": 1,
                }
            )
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert "sampler parameters must be a JSON object" in err

    @pytest.mark.parametrize(
        "family, params, changed, key",
        [
            ("discrete", {"support": 5, "weights": ["1"]}, {}, "support"),
            ("discrete", {"support": "12", "weights": ["0.5", "0.5"]}, {}, "support"),
            ("uniform-grid", {"low": "0", "high": "1", "points": [3]}, {}, "points"),
            ("gaussian-grid", {"mean": "0", "sd": "1", "points": {"a": 1}}, {}, "points"),
            ("uniform-grid", {"low": "0", "high": "1", "points": 2.7}, {}, "points"),
            ("bernoulli", {"p": "0.5"}, {"n": [10]}, "n"),
            ("bernoulli", {"p": "0.5"}, {"estimand": 5}, "estimand"),
        ],
    )
    def test_config_value_of_the_wrong_type_is_usage_error(
        self, capsys, tmp_path, family, params, changed, key
    ):
        fields = {
            "family": family,
            "params": params,
            "estimand": "E[X]",
            "n": 20,
            "replicates": 5,
            "seed": 1,
            **changed,
        }
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(fields))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert repr(key) in err


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self):
        argv = [
            sys.executable,
            "-m",
            "eicalg.cli",
            "--output",
            "structured",
            "verify",
            "brackets",
            "--trials",
            "25",
            "--seed",
            "11",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_simulate_deterministic_bytes(self):
        argv = [
            sys.executable,
            "-m",
            "eicalg.cli",
            "--output",
            "structured",
            "simulate",
            "--family",
            "bernoulli",
            "--p",
            "0.5",
            "--estimand",
            "E[X]",
            "--n",
            "500",
            "--replicates",
            "40",
            "--seed",
            "9",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.stdout == second.stdout
        assert first.returncode == 0

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Canonical monomials are sets, iterated in an order that follows
        string hashing; what is printed must not follow it."""
        data = tmp_path / "data.csv"
        data.write_text(FUZZ_DATA)
        script = f"""if True:
            import contextlib, io, random
            from eicalg.cli import main
            from workloads import grammar_expression
            rng = random.Random(20261019)
            calls = [["derive", grammar_expression(rng, rng.randint(1, 3)), "--mode", mode]
                     for _ in range(50) for mode in ("exact", "float")]
            for text in ("exp(E[X])*log(E[Y]^2 + 1)*inv(sqrt(Var(X) + 1))",
                         "E[X*Y]*inv(E[Y]^2 + E[X]) + exp(Cov(X,Y))"):
                calls.append(["derive", text, "--mode", "float"])
            for text in ("Cov(X,Y)*inv(Var(X))", "exp(E[X])*E[X*Y]"):
                for mode in ("exact", "float"):
                    calls.append(["--output", "structured", "estimate", text, "--data",
                                  {str(data)!r}, "--split", "0.5", "--mode", mode])
            calls.append(["--output", "structured", "verify", "brackets", "--trials", "5"])
            for argv in calls:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = main(argv)
                print(argv, code, out.getvalue())
        """
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
        runs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True,
                           env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in ("0", "1")
        ]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout.count(b"error:") < 20 and b"Traceback" not in runs[0].stdout
        assert runs[0].stdout == runs[1].stdout


class TestImport:
    def test_cli_import_leaves_numpy_unloaded(self):
        probe = "import sys, eicalg.cli; print('numpy' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_cli_import_loads_only_the_settings_table(self):
        probe = (
            "import json, sys, eicalg.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('eicalg'))))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == ["eicalg", "eicalg.cli", "eicalg.errors", "eicalg.numerals"]

    def test_derive_imports_no_estimator(self):
        probe = (
            "import contextlib, io, sys\n"
            "from eicalg.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['derive', 'E[X]']) == 0\n"
            "print([m for m in ('eicalg.estimate', 'eicalg.mc', 'statistics') if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_public_names_are_unchanged_and_resolve(self):
        import eicalg
        from eicalg.eic import derive_eic

        assert set(eicalg.__all__) == PUBLIC_NAMES
        assert len(eicalg.__all__) == len(PUBLIC_NAMES)
        for name in eicalg.__all__:
            assert getattr(eicalg, name) is not None
        assert set(eicalg.__all__) <= set(dir(eicalg))
        namespace = {}
        exec("from eicalg import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
        assert eicalg.derive_eic is derive_eic

    def test_unknown_attribute_is_an_attribute_error(self):
        import eicalg

        with pytest.raises(AttributeError, match="no attribute 'derive'"):
            eicalg.derive
        assert not hasattr(eicalg, "MAX_EXPONENT")


# the package's public names, as the eager package exported them
PUBLIC_NAMES = {
    "__version__", "FiniteProbSpace", "RandVar", "Decomposition", "expectation", "embed",
    "center", "pointwise_product", "inner", "decompose", "covariance", "var", "E", "inv",
    "evaluate_rv", "evaluate_func", "CanonForm", "canonicalize_rv", "canonicalize_func",
    "normalize_functional", "EicResult", "PathSpec", "derive_eic", "pathwise_derivative_exact",
    "certify_eic", "bracket_P_prod", "bracket_prod_T", "bracket_T_P", "nested_T_P_prod",
    "nested_P_prod_T", "nested_prod_T_P", "jacobi_sum", "corollary_leibniz", "corollary_cov",
    "symbolic_identity_suite", "Dataset", "CompiledEstimand", "read_delimited",
    "empirical_space", "plugin_estimate", "eic_standard_error", "onestep_estimate",
    "normal_quantile", "wald_ci", "McConfig", "McReport", "run_mc", "parse_expression",
}


class TestDocumentSchema:
    def test_stable_field_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "parse-check", "E[X]"
        )
        doc = parse_structured(out)
        assert list(doc) == [
            "command",
            "inputs",
            "results",
            "verdicts",
            "seed",
            "version",
        ]


class TestSimulateSettings:
    BASE = {
        "family": "bernoulli",
        "params": {"p": "0.5"},
        "estimand": "E[X]",
        "n": 20,
        "replicates": 5,
        "seed": 1,
    }

    @pytest.mark.parametrize(
        "changed, key",
        [
            ({"level": None}, "level"),
            ({"level": True}, "level"),
            ({"level": [0.9]}, "level"),
            ({"seed": -1}, "seed"),
            ({"level": "abc"}, "level"),
            ({"level": 10**400}, "level"),
            ({"levle": 0.5}, "levle"),  # unknown keys are not dropped
            ({"params": {"p": "0.5", "q": 1}}, "q"),
        ],
    )
    def test_config_setting_is_usage_error_naming_the_key(
        self, capsys, tmp_path, changed, key
    ):
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({**self.BASE, **changed}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_numeric_string_level_is_accepted(self, capsys, tmp_path):
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({**self.BASE, "level": "0.9"}))
        code, out, _ = run_cli(
            capsys, "--output", "structured", "simulate", "--config", str(config)
        )
        assert code == 0
        assert parse_structured(out)["inputs"]["level"] == 0.9

    def test_negative_seed_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--family", "bernoulli", "--p", "0.5",
            "--estimand", "E[X]", "--n", "10", "--replicates", "2", "--seed", "-1",
        )
        assert code == 2
        assert out == ""
        assert "'seed'" in err

    @pytest.mark.parametrize("span", ["0", "-1"])
    def test_gaussian_grid_needs_positive_span(self, capsys, span):
        code, out, err = run_cli(
            capsys, "simulate", "--family", "gaussian-grid", "--mean", "0",
            "--sd", "1", "--span", span, "--points", "3", "--estimand", "Var(X)",
        )
        assert code == 2
        assert out == ""
        assert "need positive span" in err


class TestReciprocalOfZeroIsNotCancelled:
    """E[X]*inv(E[X]) has the canonical form 1, but a law with E[X] = 0
    must still fail at the reciprocal, as pointwise evaluation does."""

    def test_estimate(self, capsys, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("X\n1\n-1\n")
        code, out, err = run_cli(
            capsys, "estimate", "E[X]*inv(E[X])", "--data", str(data)
        )
        assert code == 3
        assert out == ""
        assert "reciprocal of a functional evaluating to zero" in err

    def test_simulate(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--family", "bernoulli", "--p", "0.05",
            "--estimand", "E[X]*inv(E[X])", "--n", "2", "--replicates", "20",
        )
        assert code == 3
        assert out == ""
        assert "reciprocal of a functional evaluating to zero" in err

    @pytest.mark.parametrize(
        "argv",
        [("derive", "inv(0)"), ("parse-check", "inv(2-2)"), ("derive", "E[X]*inv(0*E[Y])")],
    )
    def test_zero_constant(self, capsys, argv):
        """A reciprocal whose argument folds to the constant 0 is refused
        while the text is read."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: reciprocal of the zero functional\n")


SIMULATE = ["simulate", "--estimand", "E[X]", "--n", "20", "--replicates", "2"]


class TestTypedExitForBadSettings:
    """Each bad setting ends, within a second, in one ``error:`` line and
    its documented exit code: 2 for a usage error naming the setting, 3 for
    a data error."""

    @pytest.mark.parametrize(
        "argv, code, needle",
        [
            (["estimate", "E[X]", "--split", "1/0"], 2, "'--split'"),
            ([*SIMULATE, "--family", "bernoulli", "--p", "1/0"], 2, "'p'"),
            (
                [*SIMULATE, "--family", "discrete", "--support", "1,1/0",
                 "--weights", "0.5,0.5"],
                2,
                "'support'",
            ),
            (
                [*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "1",
                 "--points", "4", "--span", "1000"],
                2,
                "'span'",
            ),
            (
                [*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "1",
                 "--points", "4", "--span", "1e200"],
                2,
                "'span'",
            ),
            (
                [*SIMULATE, "--family", "bernoulli", "--p", "0.5",
                 "--n", "100000000000000000000"],
                2,
                "'n'",
            ),
            (
                [*SIMULATE, "--family", "uniform-grid", "--low", "0",
                 "--high", "1e400", "--points", "3"],
                3,
                "overflows a float",
            ),
            (
                [*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "1",
                 "--span", "1e400"],
                3,
                "overflows a float",
            ),
            ([*SIMULATE, "--family", "bernoulli", "--p", "0.5", "--mean", "3"], 2, "'mean'"),
            (["parse-check", "E[X] E[Y]"], 2, "trailing input 'E' (column 6)"),
            (["parse-check", "Var(E)"], 2, "base variable (column 5)"),
            (["parse-check", "Cov(X, inv)"], 2, "base variables (column 8)"),
            (["simulate", "--n", "5"], 2, "--config"),
            (
                [*SIMULATE, "--family", "bernoulli", "--p", "0.5", "--replicates", "0"],
                2,
                "at least one replicate",
            ),
            ([*SIMULATE, "--family", "bernoulli", "--p", "1"], 2, "(0, 1)"),
            (
                [*SIMULATE, "--family", "discrete", "--support", "1,2", "--weights", "1"],
                2,
                "equal length",
            ),
            (
                [*SIMULATE, "--family", "discrete", "--support", "1,1",
                 "--weights", "0.5,0.5"],
                2,
                "distinct",
            ),
            (
                [*SIMULATE, "--family", "uniform-grid", "--low", "1", "--high", "0",
                 "--points", "3"],
                2,
                "high > low",
            ),
            ([*SIMULATE, "--family", "gaussian-grid", "--mean", "0", "--sd", "0"], 2, "sd"),
        ],
        ids=[
            "split-zero-denominator", "p-zero-denominator", "support-zero-denominator",
            "gaussian-weights-underflow", "gaussian-square-overflow", "n-above-int64",
            "uniform-grid-overflow", "gaussian-span-overflow", "flag-the-family-does-not-read",
            "two-atoms-without-operator", "var-of-reserved-name", "cov-of-reserved-name",
            "no-config-nor-family", "no-replicates", "bernoulli-p-one",
            "discrete-unequal-lengths", "discrete-repeated-support", "uniform-grid-high-below-low",
            "gaussian-grid-zero-sd",
        ],
    )
    def test_exit_code_and_one_error_line(self, capsys, tmp_path, argv, code, needle):
        path = tmp_path / "data.csv"
        path.write_text("X\n1\n2\n3\n")
        if argv[0] == "estimate":
            argv = [*argv, "--data", str(path)]
        start = time.perf_counter()
        got, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_zero_denominator_in_a_config_file(self, capsys, tmp_path):
        config = tmp_path / "mc.json"
        config.write_text(json.dumps({**TestSimulateSettings.BASE, "params": {"p": "1/0"}}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == "error: 'p' must be a rational number, not '1/0'\n"

    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
    def test_data_file_that_is_not_utf8(self, capsys, tmp_path, prefix):
        """The offset counts from the file's first byte, byte-order mark included."""
        path = tmp_path / "latin1.csv"
        path.write_bytes(prefix + b"X\n1\n\xff\n")
        code, out, err = run_cli(capsys, "estimate", "E[X]", "--data", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}: byte {len(prefix) + 4} is not UTF-8\n"

    @pytest.mark.parametrize("prefix", [b"", b"\xef\xbb\xbf"])
    def test_config_file_that_is_not_utf8(self, capsys, tmp_path, prefix):
        """Read as the data file is: the error names the file and the offset
        of the first bad byte, counted from the file's first byte."""
        path = tmp_path / "mc.json"
        path.write_bytes(prefix + b'{"family": "\xff"}')
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: byte {len(prefix) + 12} is not UTF-8\n"

    def test_config_file_whose_json_does_not_parse(self, capsys, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text('{"family": "bernoulli", }')
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: Expecting property name enclosed in double quotes: "
            "line 1 column 25 (char 24)\n"
        )

    def test_config_file_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "simulate", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    def test_unreadable_config_file_is_data_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "none.json"))
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and "none.json" in err


# Python 3.11 and the 3.10 releases from 3.10.7 refuse to convert an int of
# more than this many digits to or from text; older ones have no limit
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="this Python has no integer digit limit")
class TestDigitLimit:
    """A valid cell with more digits than ``int()`` converts, or an exact
    result with more digits than ``str()`` prints, is a data error (exit 3)
    with one ``error:`` line that names the limit.  On the expression path,
    such a numeral or constant is a usage error (exit 2), named the same way."""

    @pytest.mark.parametrize(
        "text",
        [f"E[X]*10^{DIGIT_LIMIT + 700}", f"E[X]*2^{4 * DIGIT_LIMIT + 3000}"],
        ids=["power-of-ten", "power-of-two"],
    )
    def test_exact_constant_of_an_expression(self, capsys, text):
        code, out, err = run_cli(capsys, "derive", text)
        assert (code, out) == (2, "")
        assert err == (
            f"error: exact value exceeds the limit of {DIGIT_LIMIT} digits"
            " for printing an integer\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["derive", "E[X]*7^9999999"], ["derive", "7^99999999"],
         ["derive", "E[X]*0.5^9999999"], ["parse-check", "7^99999999"]],
    )
    def test_power_of_a_number_is_bounded_before_it_is_computed(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: exact value exceeds the limit of {DIGIT_LIMIT} digits"
            " for printing an integer\n"
        )

    @pytest.mark.parametrize(
        "text",
        ["E[X]*1^99999999", "E[X]*0^99999999", "E[X]*2^20000*0.5^20000",
         "E[X]*1.5^30000*inv(1.5^30000)"],
    )
    def test_power_of_a_number_within_the_bound(self, capsys, text):
        code, _, err = run_cli(capsys, "derive", text)
        assert (code, err) == (0, "")

    def test_power_of_a_number_through_the_api(self):
        with pytest.raises(ValueError, match=f"limit of {DIGIT_LIMIT} digits"):
            f_pow(FuncConst(7), 10**8)

    @pytest.mark.parametrize(
        "template, column",
        [("E[X]*{}", 6), ("E[X]^{}", 6), ("{}.5*E[X]", 1), ("E[X]*0.{}", 6)],
        ids=["factor", "exponent", "integer-part", "decimal-places"],
    )
    def test_numeral(self, capsys, template, column):
        text = template.format("7" * (DIGIT_LIMIT + 700))
        code, out, err = run_cli(capsys, "parse-check", text)
        assert (code, out) == (2, "")
        assert err == (
            f"error: numeral exceeds the limit of {DIGIT_LIMIT} digits (column {column})\n"
        )

    @pytest.mark.parametrize("places", ["", ".5"], ids=["one-pattern", "cell-by-cell"])
    def test_data_cell(self, capsys, tmp_path, places):
        path = tmp_path / "big.csv"
        path.write_text(f"X\n1{places}\n{'2' * (DIGIT_LIMIT + 700)}\n3\n")
        code, out, err = run_cli(capsys, "estimate", "E[X]", "--data", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: data cell exceeds the limit of {DIGIT_LIMIT} digits for an integer\n"

    def test_exact_estimate(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(f"X\n1\n2.{'7' * 2500}\n3\n")
        code, out, err = run_cli(capsys, "estimate", "Var(X)", "--data", str(path))
        assert (code, out) == (3, "")
        assert err == (
            f"error: exact value exceeds the limit of {DIGIT_LIMIT} digits"
            " for printing an integer\n"
        )
        code, out, err = run_cli(capsys, "estimate", "Var(X)", "--data", str(path),
                                 "--mode", "float")
        assert (code, err) == (0, "")

    def test_exact_truth_of_a_study(self, capsys):
        support = f"0.{'3' * 2500},1"
        code, out, err = run_cli(capsys, *SIMULATE, "--family", "discrete", "--support",
                                 support, "--weights", "0.5,0.5")
        assert (code, out) == (3, "")
        assert err.startswith("error: exact value exceeds the limit") and err.count("\n") == 1


FUZZ_DATA = "X,Y\n1,2\n3,5\n4,2.5\n2,0\n"


def _fuzz_expression(rng):
    """A grammar expression of depth 1 to 3, bare or in a smooth wrapper."""
    text = grammar_expression(rng, rng.randint(1, 3))
    wrap = rng.randrange(3)
    if wrap == 1:
        return f"exp({text})"
    if wrap == 2:
        return f"log(({text})^2 + 1)"
    return text


def test_exit_code_fuzz(capsys, tmp_path):
    """Every call through main ends in 0, or in exit 2 or 3 with one
    ``error:`` line and no traceback."""
    data = tmp_path / "data.csv"
    data.write_text(FUZZ_DATA)
    estimate = ["--data", str(data)]
    commands = [
        ["derive"], ["derive", "--mode", "float"], ["estimate", *estimate],
        ["estimate", *estimate, "--split", "0.5"], ["parse-check"],
    ]
    rng = random.Random(20251018)
    codes = set()
    for _ in range(150):
        text = _fuzz_expression(rng)
        for command in commands:
            argv = [command[0], text, *command[1:]]
            code, out, err = run_cli(capsys, *argv)
            codes.add(code)
            if code == 0:
                assert err == "", argv
            else:
                assert code in (2, 3), (argv, code, err)
                assert out == "" and "Traceback" not in err, argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert codes == {0, 2, 3}
