"""Empirical measures, plug-in and one-step estimation, Wald intervals."""

import gc
import json
import math
from fractions import Fraction as Q

import pytest

from eicalg import estimate as estimate_module
from eicalg.cli import main
from eicalg.errors import DataError, EvaluationError
from eicalg.estimate import (
    CompiledEstimand,
    Dataset,
    eic_standard_error,
    eic_variance,
    empirical_space,
    normal_quantile,
    onestep_estimate,
    plugin_estimate,
    read_delimited,
    standard_error,
    wald_ci,
)
from eicalg.eic import derive_eic
from eicalg.expr import (
    BaseVar,
    E,
    EmbedFunc,
    FuncConst,
    IntPower,
    RvConst,
    RvProduct,
    RvSum,
    evaluate_func,
    evaluate_rv,
    rv_pow,
    rv_product,
    rv_sum,
    var,
)
from eicalg.measure import expectation
from eicalg.parser import parse_expression
from eicalg.sampling import trial_rng
from workloads import derive_corpus

X, Y = var("X"), var("Y")


def dataset(columns, exact_rows):
    """The data set of exact rows, each counting once."""
    scaled = {}
    for name, values in zip(columns, zip(*exact_rows)):
        scale = math.lcm(*(Q(v).denominator for v in values))
        scaled[name] = (scale, [int(Q(v) * scale) for v in values])
    return Dataset(scaled, [1] * len(exact_rows), len(exact_rows))


def rows(*values):
    return dataset(("Y",), [(Q(v),) for v in values])


class TestIngestion:
    def test_read_delimited(self):
        data = read_delimited("X,Y\n1,2\n0.5,3\n")
        assert data.columns == ("X", "Y")
        assert data.rows == ((Q(1), Q(2)), (Q(1, 2), Q(3)))

    def test_decimal_cells_are_exact(self):
        data = read_delimited("Y\n0.1\n")
        assert data.rows[0][0] == Q(1, 10)  # not the binary float value

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(DataError):
            read_delimited("Y\nfoo\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(DataError):
            read_delimited("X,Y\n1\n")

    def test_quoting_rejected(self):
        with pytest.raises(DataError):
            read_delimited('Y\n"1"\n')

    def test_negative_decimal(self):
        data = read_delimited("Y\n-2.5\n")
        assert data.rows[0][0] == Q(-5, 2)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("X,X\n1,foo\n", "non-numeric cell 'foo'"),  # the cells are read first
            ("X,X\n1,2\n", "column names must be distinct"),
        ],
    )
    def test_duplicate_column_names(self, text, message):
        with pytest.raises(DataError, match=message):
            read_delimited(text)

    def test_cells_parse_to_the_fraction_of_their_text(self):
        cells = ("0", "007", "0.5", "-0.000", "12.3400", "-3.14159", "100", "-7")
        data = read_delimited("Y\n" + "\n".join(cells) + "\n")
        assert [row[0] for row in data.rows] == [Q(text) for text in cells]


class TestEmpiricalSpace:
    def test_duplicates_merge(self):
        data = rows(1, 1, 3)
        space, binding = empirical_space(data)
        assert space.weights == (Q(2, 3), Q(1, 3))
        assert binding["Y"].values == (Q(1), Q(3))

    def test_single_row_degenerate(self):
        space, _ = empirical_space(rows(5))
        assert space.weights == (Q(1),)

    def test_distinct_rows_uniform(self):
        space, _ = empirical_space(rows(1, 2, 3))
        assert space.weights == (Q(1, 3), Q(1, 3), Q(1, 3))

    def test_row_permutation_invariance(self):
        base = rows(0, 1, 1, 2)
        shuffled = rows(1, 2, 0, 1)
        psi = E(var("Y") ** 2) - E(var("Y")) ** 2
        assert plugin_estimate(CompiledEstimand(psi), base) == plugin_estimate(
            CompiledEstimand(psi), shuffled
        )


class TestPluginEstimate:
    def test_sample_mean(self):
        assert plugin_estimate(CompiledEstimand(E(Y)), rows(0, 1)) == Q(1, 2)

    def test_sample_variance(self):
        psi = E(Y**2) - E(Y) ** 2
        assert plugin_estimate(CompiledEstimand(psi), rows(0, 1)) == Q(1, 4)

    def test_sample_covariance(self):
        data = dataset(("X", "Y"), [(0, 0), (1, 1)])
        psi = E(X * Y) - E(X) * E(Y)
        assert plugin_estimate(CompiledEstimand(psi), data) == Q(1, 4)

    def test_missing_column(self):
        with pytest.raises(EvaluationError):
            plugin_estimate(CompiledEstimand(E(var("Z"))), rows(0, 1))


class TestStandardError:
    def test_mean_closed_form(self):
        # gradient of the mean is Y - 1/2 with variance 1/4 over two rows
        assert eic_standard_error(CompiledEstimand(E(Y)), rows(0, 1)) == pytest.approx(
            math.sqrt(Q(1, 8))
        )

    def test_constant_functional(self):
        assert eic_standard_error(CompiledEstimand(FuncConst(Q(3))), rows(0, 1)) == 0.0

    def test_plugin_gradient_mean_is_exactly_zero(self):
        one_column = (E(Y), E(Y**2), E(Y**2) - E(Y) ** 2)
        for index in range(100):
            rng = trial_rng(2718, index)
            data = rows(*(rng.randint(-5, 5) for _ in range(rng.randint(2, 12))))
            space, binding = empirical_space(data)
            for psi in one_column:
                eic = derive_eic(psi).eic
                assert expectation(space, evaluate_rv(eic, space, binding)) == 0

    def test_plugin_gradient_mean_zero_two_columns(self):
        two_column = (E(X * Y) - E(X) * E(Y), E(X) * E(Y))
        for index in range(50):
            rng = trial_rng(3141, index)
            n = rng.randint(2, 10)
            data = dataset(
                ("X", "Y"), [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(n)]
            )
            space, binding = empirical_space(data)
            for psi in two_column:
                eic = derive_eic(psi).eic
                assert expectation(space, evaluate_rv(eic, space, binding)) == 0


class TestOneStep:
    def test_mean_half_split_equals_full_mean(self):
        assert onestep_estimate(CompiledEstimand(E(Y)), rows(0, 1, 1, 0), Q(1, 2)) == Q(1, 2)

    def test_split_of_one_is_plugin(self):
        psi = E(Y**2) - E(Y) ** 2
        data = rows(0, 1, 2, 1)
        assert onestep_estimate(CompiledEstimand(psi), data, Q(1)) == plugin_estimate(
            CompiledEstimand(psi), data
        )

    def test_two_term_formula(self):
        # fit fold {0,1}: mean 1/2; held fold {1,1}: correction 1/2
        got = onestep_estimate(CompiledEstimand(E(Y)), rows(0, 1, 1, 1), Q(1, 2))
        assert got == Q(1, 2) + Q(1, 2)

    def test_fold_too_small(self):
        with pytest.raises(ValueError):
            onestep_estimate(CompiledEstimand(E(Y)), rows(0, 1), Q(1, 10))

    def test_bind_moments_freezes_the_fitted_law(self):
        data = rows(0, 1)
        space, binding = empirical_space(data)
        frozen = bind_moments(derive_eic(E(Y)).eic, space, binding)
        other_space, other_binding = empirical_space(rows(3, 5))
        values = evaluate_rv(frozen, other_space, other_binding)
        assert values.values == (Q(5, 2), Q(9, 2))  # y - 1/2 at the new rows


# Estimands over the first one, two or three columns (X, Y, W).  Each list
# holds exact estimands; SMOOTH holds float-only ones over X.
ESTIMANDS = (
    ("E[X]", "Var(X)", "E[(X - E[X])^3]", "E[X^2]*inv(1 + E[X]^2)",
     "E[(X - E[X])^4]*inv(Var(X)^2)"),
    ("Cov(X,Y)*inv(Var(X))", "E[X*Y]*inv(E[Y])", "Cov(X,Y)^2*inv(Var(X)*Var(Y))",
     "E[(X - E[Y])^2*inv(E[X^2] + 1)]"),
    ("E[X*Y*W] - E[X]*E[Y*W]", "Cov(X,W)*inv(E[Y^2] + 1)"),
)
SMOOTH = ("sqrt(Var(X))", "exp(E[X]*0.1)*log(E[X^2] + 1)", "sqrt(Var(X))*exp(E[X]*0.1)",
          "log(E[X^2])*E[X]")


def _random_decimal(rng) -> str:
    sign = rng.choice(("", "-"))
    fraction = rng.choice(("", f".{rng.randint(0, 9)}", f".{rng.randint(0, 999):03d}"))
    return f"{sign}{rng.randint(0, 30)}{fraction}"


def _random_data(rng, columns=None) -> Dataset:
    """A few distinct rows, repeated: ``columns``, by default 1-3 columns,
    of signed decimals."""
    columns = columns or ("X", "Y", "W")[: rng.randint(1, 3)]
    pool = [
        ",".join(_random_decimal(rng) for _ in columns)
        for _ in range(rng.randint(1, 5))
    ]
    lines = [rng.choice(pool) for _ in range(rng.randint(2, 12))]
    return read_delimited(",".join(columns) + "\n" + "\n".join(lines) + "\n")


def _outcome(compute):
    """The value, or the type and text of the error: both routes must agree
    on either."""
    try:
        return compute()
    except ValueError as exc:  # every package error is a ValueError
        return type(exc), str(exc)


def _bind_embedded(e, value_of):
    """Replace each embedded functional ``f`` by the constant ``value_of(f)``."""
    if isinstance(e, (BaseVar, RvConst)):
        return e
    if isinstance(e, RvSum):
        return rv_sum(*(_bind_embedded(t, value_of) for t in e.terms))
    if isinstance(e, RvProduct):
        return rv_product(*(_bind_embedded(f, value_of) for f in e.factors))
    if isinstance(e, IntPower):
        return rv_pow(_bind_embedded(e.base, value_of), e.exponent)
    if isinstance(e, EmbedFunc):
        return RvConst(value_of(e.func))
    raise TypeError(f"not a random-variable expression: {e!r}")


def bind_moments(e, space, binding, mode="exact"):
    """Replace embedded functionals by their values under the given law,
    rounded to floats in float mode.

    The result is free of embedded moments and can be evaluated pointwise
    under any other law, which is what the one-step correction needs.
    """
    return _bind_embedded(e, lambda f: Q(evaluate_func(f, space, binding, mode)))


def _pointwise_onestep(psi, data, mode="exact", eic=None):
    """The half-split one-step estimate, row by row on empirical spaces,
    with ``eic`` the gradient of ``psi`` if it is given."""
    k = data.n // 2
    fit_space, fit_binding = empirical_space(data.subset(0, k))
    held_space, held_binding = empirical_space(data.subset(k, data.n))
    eic = derive_eic(psi, mode=mode).eic if eic is None else eic
    fitted = bind_moments(eic, fit_space, fit_binding, mode)
    correction = expectation(
        held_space, evaluate_rv(fitted, held_space, held_binding)
    )
    value = Q(evaluate_func(psi, fit_space, fit_binding, mode)) + correction
    return float(value) if mode == "float" else value


class TestMomentTableAgainstPointwise:
    """The estimators run on a moment table; the pointwise route on the
    empirical space is the independent reference, equal to the bit."""

    def _cases(self, seed):
        for index in range(40):
            data = _random_data(trial_rng(seed, index))
            width = len(data.columns)
            for group in ESTIMANDS[:width]:
                for text in group:
                    yield data, parse_expression(text), ("exact", "float")
            for text in SMOOTH:
                yield data, parse_expression(text), ("float",)

    def test_plugin_and_standard_error(self):
        for data, psi, modes in self._cases(11):
            space, binding = empirical_space(data)
            for mode in modes:
                eic = derive_eic(psi, mode=mode).eic
                assert _outcome(
                    lambda: plugin_estimate(CompiledEstimand(psi, mode), data)
                ) == _outcome(
                    lambda: evaluate_func(psi, space, binding, mode)
                ), (str(psi), mode, data)
                assert _outcome(
                    lambda: eic_standard_error(CompiledEstimand(psi, mode), data)
                ) == _outcome(
                    lambda: math.sqrt(eic_variance(eic, space, binding, mode) / data.n)
                ), (str(psi), mode, data)

    def test_onestep(self):
        for data, psi, modes in self._cases(12):
            for mode in modes:
                assert _outcome(
                    lambda: onestep_estimate(CompiledEstimand(psi, mode), data, Q(1, 2))
                ) == _outcome(lambda: _pointwise_onestep(psi, data, mode)), (
                    str(psi), mode, data
                )

    def test_cases_are_not_all_degenerate(self):
        values = [
            _outcome(lambda: plugin_estimate(CompiledEstimand(psi, modes[0]), data))
            for data, psi, modes in self._cases(11)
        ]
        evaluated = [v for v in values if not isinstance(v, tuple)]
        assert len(evaluated) > len(values) // 2

    def test_derive_corpus(self):
        """The 300 estimands of the derive corpus over X, Y and Z2, each
        compiled once per mode and valued on two seeded laws."""
        evaluated = errors = 0
        for index, text in enumerate(derive_corpus()):
            psi = parse_expression(text)
            for mode in ("exact", "float"):
                estimand = CompiledEstimand(psi, mode)
                eic = _outcome(lambda: derive_eic(psi, mode=mode).eic)
                for law in range(2):
                    data = _random_data(trial_rng(13, 2 * index + law), ("X", "Y", "Z2"))
                    space, binding = empirical_space(data)

                    def gradient():  # derived once per mode, raised again here
                        if isinstance(eic, tuple):
                            raise eic[0](eic[1])
                        return eic

                    routes = (
                        (lambda: plugin_estimate(estimand, data),
                         lambda: evaluate_func(psi, space, binding, mode)),
                        (lambda: eic_standard_error(estimand, data),
                         lambda: standard_error(
                             eic_variance(gradient(), space, binding, mode), data.n)),
                        (lambda: onestep_estimate(estimand, data, Q(1, 2)),
                         lambda: _pointwise_onestep(psi, data, mode, gradient())),
                    )
                    for table, pointwise in routes:
                        got = _outcome(table)
                        assert got == _outcome(pointwise), (text, mode, data)
                        errors += isinstance(got, tuple)
                        evaluated += not isinstance(got, tuple)
        assert evaluated > 3 * errors

    def test_cancelled_reciprocal_is_still_valued(self):
        """inv(E[Y]) cancels in the normal forms of the estimand and of its
        gradient, but both routes value it; E[Y] is 0 on the data and on
        its fitted half."""
        psi = parse_expression("E[X] + inv(E[Y]) - inv(E[Y])")
        data = dataset(("X", "Y"), [(1, -1), (2, 1)] * 2)
        space, binding = empirical_space(data)
        message = "reciprocal of a functional evaluating to zero"
        for mode in ("exact", "float"):
            with pytest.raises(EvaluationError, match=message):
                evaluate_func(psi, space, binding, mode)
            for estimator in (plugin_estimate, eic_standard_error, onestep_estimate):
                with pytest.raises(EvaluationError, match=message):
                    estimator(CompiledEstimand(psi, mode), data)

    def test_cancelled_variable_is_unbound(self):
        psi = parse_expression("E[X + Z - Z]")
        data = dataset(("X",), [(1,), (2,)])
        space, binding = empirical_space(data)
        with pytest.raises(EvaluationError, match="unbound variable 'Z'"):
            evaluate_func(psi, space, binding)
        for estimator in (plugin_estimate, eic_standard_error, onestep_estimate):
            with pytest.raises(EvaluationError, match="unbound variable 'Z'"):
                estimator(CompiledEstimand(psi), data)

    @pytest.mark.parametrize("psi", ["E[Z]", "E[X + Z - Z]", "E[X] * exp(E[Z])"])
    def test_compiled_estimand_checks_its_columns(self, psi):
        """Each entry of a compiled estimand refuses a law without a column
        of psi as written, in either mode, before it values anything."""
        data = read_delimited("X\n1\n2\n")
        for mode in ("exact", "float"):
            estimand = CompiledEstimand(parse_expression(psi), mode)
            for entry in (
                estimand.value,
                estimand.variance,
                lambda law: estimand.run("onestep", law, law),
            ):
                with pytest.raises(EvaluationError, match="^unbound variable 'Z'$"):
                    entry(data)

    def test_standard_error_overflow(self):
        data = dataset(("X",), [(10,), (20,)])
        with pytest.raises(EvaluationError):
            eic_standard_error(CompiledEstimand(parse_expression("E[X^400]")), data)


def _bits(value):
    """A value as its exact bits: a float's hex form, a Fraction's pair."""
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value.numerator, value.denominator


class TestCachesAreSafe:
    """A law keeps the moments it has been valued with.  Valued in turn by
    estimands of both modes, of the same and of other estimands, and again
    by fresh estimands once the earlier ones are dropped and collected, it
    gives every value bit for bit as a fresh law does."""

    TEXT = "X,Y\n1,2\n3,5\n4,2.5\n2,1\n0.5,7\n6,3\n"
    ESTIMANDS = (
        "Var(X)", "Cov(X,Y)*inv(Var(X))", "E[X*Y]^2*inv(E[Y^2])", "E[X]",
        "E[X^2]", "exp(E[X])*Var(Y)",
    )

    def _values(self, estimand, law):
        computations = (
            estimand.value,
            estimand.variance,
            lambda law: onestep_estimate(estimand, law, Q(1, 2)),
        )
        return [_outcome(lambda: _bits(compute(law))) for compute in computations]

    def test_shared_law_equals_fresh_laws(self):
        shared = read_delimited(self.TEXT)
        for _ in range(2):
            for text in self.ESTIMANDS:
                for mode in ("float", "exact"):
                    estimand = CompiledEstimand(parse_expression(text), mode)
                    got = self._values(estimand, shared)
                    fresh = CompiledEstimand(parse_expression(text), mode)
                    assert got == self._values(fresh, read_delimited(self.TEXT)), (text, mode)
                    del estimand, fresh
                    gc.collect()


class TestOneLawPerCall:
    """One ``estimate --split`` call builds the data set and its two folds,
    and computes each primitive moment of the data once, although the
    plug-in and the standard error both use it."""

    def test_three_laws_and_no_moment_computed_twice(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("X,Y\n1,2\n3,5\n4,2.5\n2,1\n0.5,7\n6,3\n")
        laws, computed = [], []
        original_init, original_moment = Dataset.__init__, Dataset.moment

        def init(self, *args):
            laws.append(self)
            original_init(self, *args)

        def moment(self, mono):
            computed.append((laws.index(self), mono))
            return original_moment(self, mono)

        monkeypatch.setattr(Dataset, "__init__", init)
        monkeypatch.setattr(Dataset, "moment", moment)
        argv = ["estimate", "Cov(X,Y)*inv(Var(X))", "--data", str(path), "--split", "0.5"]
        assert main(argv) == 0, capsys.readouterr().err
        assert len(laws) == 3
        data_moments = [mono for law, mono in computed if law == 0]
        assert len(data_moments) == len(set(data_moments)) > 4
        assert {law for law, _ in computed} == {0, 1, 2}

    def test_one_derive_and_six_compile_steps(self, capsys, monkeypatch, tmp_path):
        """The plug-in, the standard error and the one-step estimate share
        one compiled estimand: the gradient is derived once, and each of the
        four moment arguments and the gradient (E[g], and E[g] with E[g^2])
        is expanded once."""
        path = tmp_path / "data.csv"
        path.write_text("X,Y\n1,2\n3,5\n4,2.5\n2,1\n0.5,7\n6,3\n")
        calls = {"derive_eic": 0, "canonicalize_rv": 0}

        def counted(name):
            original = getattr(estimate_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(estimate_module, name, wrapper)

        counted("derive_eic")
        counted("canonicalize_rv")
        argv = ["estimate", "Cov(X,Y)*inv(Var(X))", "--data", str(path), "--split", "0.5"]
        assert main(argv) == 0, capsys.readouterr().err
        assert calls["derive_eic"] == 1
        assert calls["canonicalize_rv"] <= 6

    def test_float_onestep_of_a_smooth_estimand(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("X\n1\n3\n4\n2.5\n")
        argv = ["--output", "structured", "estimate", "exp(E[X])", "--data", str(path),
                "--mode", "float", "--split", "0.5"]
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)["results"][0]
        data = read_delimited(path.read_text())
        expected = _pointwise_onestep(parse_expression("exp(E[X])"), data, "float")
        assert result["onestep_float"] == expected
        assert result["onestep"] == str(expected)


class TestSmoothInsideMoments:
    """A smooth functional inside ``E[...]`` is a scalar of the normal form,
    so float-mode estimates of such estimands run, and the table route
    still equals the pointwise route to the bit."""

    ESTIMANDS = ("E[X*exp(E[Y])]", "E[X*log(E[Y])]*inv(E[Y])")

    def test_plugin_and_standard_error(self):
        evaluated = 0
        for index in range(30):
            rng = trial_rng(14, index)
            lines = [
                f"{_random_decimal(rng)},{rng.randint(1, 9)}.{rng.randint(0, 9)}"
                for _ in range(rng.randint(2, 8))
            ]
            data = read_delimited("X,Y\n" + "\n".join(lines) + "\n")
            space, binding = empirical_space(data)
            for text in self.ESTIMANDS:
                psi = parse_expression(text)
                eic = derive_eic(psi, mode="float").eic
                estimate = plugin_estimate(CompiledEstimand(psi, "float"), data)
                assert estimate == evaluate_func(psi, space, binding, "float")
                se = eic_standard_error(CompiledEstimand(psi, "float"), data)
                variance = eic_variance(eic, space, binding, "float")
                assert se == math.sqrt(variance / data.n), (text, data)
                evaluated += 1
        assert evaluated == 60


def _quantile_by_bisection(p: float) -> float:
    """Independent oracle: bisection on the error-function integral."""

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    low, high = -10.0, 10.0
    for _ in range(200):
        mid = (low + high) / 2
        if cdf(mid) < p:
            low = mid
        else:
            high = mid
    return (low + high) / 2


class TestWald:
    def test_quantile_against_bisection_oracle(self):
        for p in (0.5, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 0.0005):
            assert normal_quantile(p) == pytest.approx(
                _quantile_by_bisection(p), abs=1e-8
            )

    def test_known_value(self):
        assert abs(normal_quantile(0.975) - 1.95996) < 1e-5

    def test_quantile_against_mpmath_to_near_machine_precision(self):
        # Wald intervals read the quantile in the upper tail, at 0.999 and
        # 0.9995 among others; p = 0.5 is left out, its quantile being 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for k in [*range(1, 1000), *range(1001, 2000)]:
                p = k / 2000
                exact = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
                assert abs((normal_quantile(p) - exact) / exact) <= 1e-15, p

    def test_degenerate_interval(self):
        assert wald_ci(2.0, 0.0, 0.95) == (2.0, 2.0)

    def test_widens_with_level(self):
        widths = []
        for level in (0.5, 0.8, 0.9, 0.95, 0.99):
            low, high = wald_ci(0.0, 1.0, level)
            widths.append(high - low)
        assert widths == sorted(widths)
        assert all(w > 0 for w in widths)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            wald_ci(0.0, 1.0, 1.5)
