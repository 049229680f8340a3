"""One reader per setting and one exit-code rule.

Every flag and config key with a kind and a range is read by
``numerals.setting``, so a flag and the same config value give the same
study or the same error; ``main`` maps an error to the exit code its class
carries, and anything else to the internal-error code 4."""

import inspect
import json
import time
from fractions import Fraction

import pytest

from eicalg import cli, errors, numerals
from eicalg.cli import main
from eicalg.errors import EicalgError, ParseError, UsageError
from eicalg.mc import FAMILIES
from eicalg.numerals import MAX_POINTS, SETTINGS, setting
from eicalg.verify import run_suite
from test_cli import _capped

STUDY = {"estimand": "E[X]", "n": "20", "replicates": "2", "seed": "1"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def by_flags(capsys, family, params, **study):
    flags = [f"--{key}={value}" for key, value in {**STUDY, **study, **params}.items()]
    return run_cli(capsys, "--output", "structured", "simulate", "--family", family, *flags)


def by_config(capsys, tmp_path, family, params, **study):
    config = tmp_path / "study.json"
    config.write_text(json.dumps({**STUDY, **study, "family": family, "params": params}))
    return run_cli(capsys, "--output", "structured", "simulate", "--config", str(config))


def study_work(monkeypatch) -> tuple:
    """The replicate generators (``numpy.random.default_rng``) and
    the count products (``numpy.matmul``) made from now on, each capped at
    none, so a run that starts a study stops at its first."""
    import numpy as np

    return _capped(monkeypatch, np.random, "default_rng", 0), _capped(monkeypatch, np, "matmul", 0)


class TestOneReader:
    @pytest.mark.parametrize(
        "key, value",
        [
            *(("n", v) for v in ["30", "1_000", "٣٠", "-5", "1", "abc", " 30", "3.0", ""]),
            *(("replicates", v) for v in ["3", "0", "-1", "2_0", "1e1"]),
            *(("seed", v) for v in ["7", "-1", "٧", "1_0", "0x1"]),
            *(("level", v) for v in ["0.9", "1.5", "abc", "0_9", "nan", "٠.٩", "0"]),
        ],
    )
    def test_flag_and_config_string_agree(self, capsys, tmp_path, key, value):
        """The same string as a flag and as a config value: the same bytes."""
        params = {"p": "1/2"}
        flags = by_flags(capsys, "bernoulli", params, **{key: value})
        assert flags == by_config(capsys, tmp_path, "bernoulli", params, **{key: value})
        assert flags[0] in (0, 2)

    @pytest.mark.parametrize("value", ["1/3", "-1/3", "0.25", "2e-1", "1/0", "1_0/3", "½", "1"])
    def test_sampler_rational_agrees(self, capsys, tmp_path, value):
        params = {"p": value}
        flags = by_flags(capsys, "bernoulli", params)
        assert flags == by_config(capsys, tmp_path, "bernoulli", params)

    @pytest.mark.parametrize("key, value", [("n", 30), ("seed", 7), ("level", 0.9)])
    def test_json_number_reads_as_its_string(self, capsys, tmp_path, key, value):
        flags = by_flags(capsys, "bernoulli", {"p": "1/2"}, **{key: str(value)})
        assert flags[0] == 0
        assert flags == by_config(capsys, tmp_path, "bernoulli", {"p": "1/2"}, **{key: value})

    def test_structured_inputs_stay_numbers(self, capsys):
        code, out, _ = run_cli(
            capsys, "--output", "structured", "verify", "jacobi", "--trials", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["inputs"]["trials"], doc["inputs"]["max_outcomes"], doc["seed"]) == (2, 8, 0)
        code, out, _ = by_flags(capsys, "bernoulli", {"p": "1/2"}, level="0.8")
        inputs = json.loads(out)["inputs"]
        assert (inputs["n"], inputs["replicates"], inputs["level"]) == (20, 2, 0.8)

    @pytest.mark.parametrize("value", ["1_000", "٣", " 3", "3.0", "+3"])
    def test_verify_flag_refuses_what_the_grammar_refuses(self, capsys, value):
        code, out, err = run_cli(capsys, "verify", "jacobi", "--trials", value)
        assert (code, out) == (2, "")
        assert err == "error: '--trials' must be an integer\n"

    def test_verify_takes_any_integer_seed_but_simulate_a_nonnegative_one(self, capsys):
        code, _, err = run_cli(capsys, "verify", "jacobi", "--trials", "3", "--seed", "-1")
        assert (code, err) == (0, "")
        code, out, err = by_flags(capsys, "bernoulli", {"p": "1/2"}, seed="-1")
        assert (code, out, err) == (2, "", "error: 'seed' must be nonnegative\n")

    @pytest.mark.parametrize(
        "kwargs", [{"trials": 0, "max_outcomes": 8}, {"trials": 3, "max_outcomes": 1}]
    )
    def test_run_suite_checks_its_settings(self, kwargs):
        """The library boundary: zero trials never pass, and a space needs
        two outcomes (before, randrange raised a plain ValueError)."""
        with pytest.raises(UsageError):
            run_suite("brackets", seed=0, **kwargs)

    def test_every_sampler_parameter_has_a_table_entry(self):
        assert {p for params in FAMILIES.values() for p in params} <= set(SETTINGS)
        for key in SETTINGS:
            with pytest.raises(UsageError, match=repr(key)):
                setting(key, [])


class TestWrittenExponent:
    """A rational is read with ``Fraction``, which computes ten to a written
    exponent first; one whose power of ten has more digits than the digit
    limit is refused before that, naming the setting (each input below ran
    past a 5 s timeout before)."""

    @staticmethod
    def _runs(tmp_path) -> dict:
        data = tmp_path / "two.csv"
        data.write_text("X\n1\n2\n")
        return {
            "'--split'": ["estimate", "E[X]", "--data", str(data), "--split", "1e-999999999"],
            "'p'": ["simulate", "--family", "bernoulli", "--p", "1e999999999", "--estimand", "E[X]"],
        }

    def test_split_and_sampler_flags(self, capsys, tmp_path):
        for named, argv in self._runs(tmp_path).items():
            start = time.perf_counter()
            code, out, err = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert err == f"error: {named}: its power of ten exceeds the limit of 4300 digits\n"

    def test_config_value(self, capsys, tmp_path):
        start = time.perf_counter()
        code, out, err = by_config(capsys, tmp_path, "bernoulli", {"p": "1e999999999"})
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "'p'" in err and "4300 digits" in err

    # the count twins of the two bounds above: the refused text is never
    # given to ``Fraction``, which would compute its power of ten, and no
    # study starts; a cap of none stops a run that does either at once

    def test_split_and_sampler_flags_compute_nothing(self, capsys, monkeypatch, tmp_path):
        powers = _capped(monkeypatch, numerals, "Fraction", 0)
        work = study_work(monkeypatch)
        for named, argv in self._runs(tmp_path).items():
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, powers, work) == (2, "", [], ([], []))
            assert err == f"error: {named}: its power of ten exceeds the limit of 4300 digits\n"

    def test_config_value_computes_nothing(self, capsys, monkeypatch, tmp_path):
        powers = _capped(monkeypatch, numerals, "Fraction", 0)
        work = study_work(monkeypatch)
        code, out, err = by_config(capsys, tmp_path, "bernoulli", {"p": "1e999999999"})
        assert (code, out, powers, work) == (2, "", [], ([], []))
        assert "'p'" in err and "4300 digits" in err

    @pytest.mark.parametrize("text", ["1e4300", "1E-4300", "2e+04300", "1e" + "9" * 5000])
    def test_power_past_the_limit(self, text):
        with pytest.raises(UsageError, match="^'mean': its power of ten exceeds"):
            setting("mean", text)

    def test_power_within_the_limit(self):
        assert setting("mean", "1e-4299") == Fraction(1, 10**4299)
        assert setting("mean", "-3.5e0") == Fraction(-7, 2)
        assert setting("mean", 1e300) == 10**300

    def test_float_overflow_stays_a_data_error(self, capsys):
        """A written exponent within the limit reads; past the float range
        the study is a data error, as before."""
        code, _, err = by_flags(capsys, "uniform-grid", {"low": "0", "high": "1e400", "points": "3"})
        assert code == 3, err


class TestNegativeFlagValues:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("uniform-grid", ["--low", "-1/3", "--high", "1", "--points", "3"]),
            ("gaussian-grid", ["--mean", "-2e-3", "--sd", "1", "--points", "5"]),
            ("discrete", ["--support", "-1/2,.5", "--weights", "0.5,0.5"]),
        ],
    )
    def test_negative_rational_after_its_flag(self, capsys, family, params):
        argv = ["--output", "structured", "simulate", "--family", family,
                "--estimand", "Var(X)", "--n", "20", "--replicates", "2"]
        code, out, err = run_cli(capsys, *argv, *params)
        assert (code, err) == (0, "")
        joined = [f"{flag}={value}" for flag, value in zip(params[::2], params[1::2])]
        assert run_cli(capsys, *argv, *joined) == (code, out, err)


class TestGridPoints:
    @pytest.mark.parametrize(
        "family, params",
        [
            ("uniform-grid", ["--low", "0", "--high", "1"]),
            ("gaussian-grid", ["--mean", "0", "--sd", "1"]),
        ],
    )
    def test_points_above_the_bound_is_usage_error(self, capsys, family, params):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--family", family, *params, "--points", str(MAX_POINTS + 1),
            "--estimand", "E[X]", "--n", "20", "--replicates", "2",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "'points'" in err

    @pytest.mark.parametrize(
        "family, params",
        [
            ("uniform-grid", ["--low", "0", "--high", "1"]),
            ("gaussian-grid", ["--mean", "0", "--sd", "1"]),
        ],
    )
    def test_points_above_the_bound_start_no_study(self, capsys, monkeypatch, family, params):
        """The count twin of the bound above."""
        work = study_work(monkeypatch)
        code, out, err = run_cli(
            capsys, "simulate", "--family", family, *params, "--points", str(MAX_POINTS + 1),
            "--estimand", "E[X]", "--n", "20", "--replicates", "2",
        )
        assert (code, out, work) == (2, "", ([], []))
        assert "'points'" in err

    def test_points_at_the_bound_runs(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--family", "uniform-grid", "--low", "0", "--high", "1",
            "--points", str(MAX_POINTS), "--estimand", "E[X]", "--n", "20", "--replicates", "2",
        )
        assert (code, err) == (0, "")


def _error_classes():
    return [c for _, c in inspect.getmembers(errors, inspect.isclass) if issubclass(c, EicalgError)]


class TestExitCodeRule:
    @pytest.mark.parametrize("cls", _error_classes(), ids=lambda c: c.__name__)
    def test_each_error_class_exits_with_its_code(self, capsys, monkeypatch, cls):
        exc = cls("boom", 3) if cls is ParseError else cls("boom")

        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_parse_check", handler)
        assert run_cli(capsys, "parse-check", "E[X]") == (cls.exit_code, "", f"error: {exc}\n")
        assert cls.exit_code == (3 if cls in (errors.DataError, errors.EvaluationError) else 2)

    @pytest.mark.parametrize("fault", [RuntimeError, ValueError, OSError, ZeroDivisionError])
    def test_any_other_exception_is_an_internal_error(self, capsys, monkeypatch, fault):
        def handler(args):
            raise fault("boom")

        monkeypatch.setattr(cli, "cmd_parse_check", handler)
        code, out, err = run_cli(capsys, "parse-check", "E[X]")
        assert (code, out) == (4, "")
        assert err.startswith("Traceback") and err.endswith(f"{fault.__name__}: boom\n")

    def test_keyboard_interrupt_passes_through(self, monkeypatch):
        def handler(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_parse_check", handler)
        with pytest.raises(KeyboardInterrupt):
            main(["parse-check", "E[X]"])

    def test_unreadable_input_is_a_data_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        for argv in (["estimate", "E[X]", "--data", str(missing)],
                     ["simulate", "--config", str(missing)]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (3, "")
            assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"

    def test_constant_past_the_digit_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "derive", "E[X]*10^4000*10^4000")
        assert (code, out) == (2, "")
        assert "4300 digits" in err and "Traceback" not in err

    def test_smooth_argument_past_the_float_range_is_data_error(self, capsys, tmp_path):
        """exp(E[X]) with E[X] = 10^400 (a traceback before)."""
        data = tmp_path / "big.csv"
        data.write_text("X\n1" + "0" * 400 + "\n2\n")
        code, out, err = run_cli(
            capsys, "estimate", "exp(E[X])", "--data", str(data), "--mode", "float"
        )
        assert (code, out, err) == (3, "", "error: value overflows a float\n")
