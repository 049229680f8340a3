"""Command-line front end.

Subcommands: ``parse-check``, ``derive``, ``verify``, ``estimate``,
``simulate``.  Output is human-readable text or a structured JSON document
with the stable field order {command, inputs, results, verdicts, seed,
version}; runs with identical inputs (including seeds) produce byte-identical
structured output.

Exit codes: 0 success or all identities pass, 1 verification failure,
2 usage or expression error, 3 data error (each error class carries its
code), 4 internal error.  Setting flags are read as strings, by the same
:func:`~eicalg.numerals.setting` that reads the keys of a config file.

Importing this module loads only the settings table; each subcommand
imports the modules it runs when it runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__
from .errors import DataError, EicalgError, UsageError
from .numerals import FAMILIES, MAX_OUTCOMES, exact_string, setting


def _document(command, inputs, results, verdicts, seed):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "verdicts": verdicts,
        "seed": seed,
        "version": __version__,
    }


def _emit(doc, output):
    if output == "structured":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
        return
    sys.stdout.write(f"command: {doc['command']}\n")
    for key, value in doc["inputs"].items():
        sys.stdout.write(f"  {key}: {value}\n")
    for result in doc["results"]:
        for key, value in result.items():
            sys.stdout.write(f"{key}: {value}\n")
    for verdict in doc["verdicts"]:
        sys.stdout.write(f"{verdict}\n")


def cmd_parse_check(args) -> tuple[int, dict]:
    from .expr import render_func
    from .parser import parse_expression

    printed = render_func(parse_expression(args.expression))
    round_trip = render_func(parse_expression(printed)) == printed
    results = [{"parsed": printed, "round_trip": round_trip}]
    verdict = "parse: ok" if round_trip else "parse: unstable"
    doc = _document("parse-check", {"expression": args.expression}, results, [verdict], None)
    return (0 if round_trip else 1), doc


def cmd_derive(args) -> tuple[int, dict]:
    from .canon import canonicalize_rv, rv_from_form
    from .eic import derive_eic, mean_zero_certificate
    from .expr import render_func
    from .parser import parse_expression

    psi = parse_expression(args.expression)
    result = derive_eic(psi, mode=args.mode)
    form = canonicalize_rv(result.eic)
    mean_zero = mean_zero_certificate(form)
    results = [
        {
            "estimand": render_func(result.estimand),
            "eic": str(rv_from_form(form)),
            "trace": [list(step) for step in result.trace],
            "mean_zero": mean_zero,
        }
    ]
    verdicts = [f"mean-zero: {'pass' if mean_zero else 'fail'}"]
    inputs = {"expression": args.expression, "mode": args.mode}
    doc = _document("derive", inputs, results, verdicts, None)
    return (0 if mean_zero else 1), doc


def cmd_verify(args) -> tuple[int, dict]:
    from .verify import run_suite

    records = run_suite(args.suite, args.trials, args.seed, args.max_outcomes)
    results = [
        {
            "name": r.name,
            "statement": r.statement,
            "mode": r.mode,
            "verdict": "pass" if r.passed else "fail",
            "counterexample": r.counterexample,
        }
        for r in records
    ]
    verdicts = [f"{r.name} [{r.mode}]: {'pass' if r.passed else 'fail'}" for r in records]
    doc = _document(
        "verify",
        {
            "suite": args.suite,
            "trials": setting("--trials", args.trials),
            "max_outcomes": setting("--max-outcomes", args.max_outcomes),
        },
        results,
        verdicts,
        setting("--seed", args.seed),
    )
    return (0 if all(r.passed for r in records) else 1), doc


def _read_input(path: str, error: type[EicalgError]) -> str:
    """The text of an input file, without a leading byte-order mark.  The
    file is decoded whole, so a byte that is not UTF-8 raises ``error``
    naming the file and the byte's offset from the file's first byte; a
    file that cannot be read is a :class:`DataError`."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8") from exc
    except OSError as exc:
        raise DataError(str(exc)) from exc


def cmd_estimate(args) -> tuple[int, dict]:
    from .estimate import (
        CompiledEstimand,
        eic_standard_error,
        onestep_estimate,
        plugin_estimate,
        read_delimited,
        wald_ci,
    )
    from .expr import to_float
    from .parser import parse_expression

    psi = parse_expression(args.expression)
    level = setting("level", args.level)
    split = None if args.split is None else setting("--split", args.split)
    data = read_delimited(_read_input(args.data, DataError))
    estimand = CompiledEstimand(psi, args.mode)
    estimate = plugin_estimate(estimand, data)
    se = eic_standard_error(estimand, data)
    estimate_float = to_float(estimate)
    low, high = wald_ci(estimate_float, se, level)
    result = {
        "estimate": exact_string(estimate),
        "estimate_float": estimate_float,
        "standard_error": se,
        "ci_low": low,
        "ci_high": high,
        "level": level,
        "n": data.n,
    }
    if split is not None:
        onestep = onestep_estimate(estimand, data, split)
        result["onestep"] = exact_string(onestep)
        result["onestep_float"] = to_float(onestep)
    inputs = {"expression": args.expression, "data": args.data, "level": level}
    doc = _document("estimate", inputs, [result], [f"estimate: {estimate_float}"], None)
    return 0, doc


# every parameter some sampler family reads, in the families' order
_SAMPLER_FLAGS = tuple(dict.fromkeys(p for params in FAMILIES.values() for p in params))
_CONFIG_KEYS = ("estimand", "family", "n", "replicates", "seed", "level", "column")
_OPTION, _NEGATIVE = re.compile(r"--[^=]+"), re.compile(r"-[0-9.]")


def _join_values(argv: list[str]) -> list[str]:
    """``--low -1/3`` as ``--low=-1/3``, which argparse reads: every option
    takes a value, and argparse takes only a plain negative number for one."""
    out = []
    for token in argv:
        if out and _OPTION.fullmatch(out[-1]) and _NEGATIVE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _mc_config_from_args(args):
    """Study (an :class:`~eicalg.mc.McConfig`) from a JSON config file, or
    from flags that build the same dict."""
    from .mc import McConfig
    from .parser import parse_expression

    if args.config:
        text = _read_input(args.config, UsageError)
        try:
            raw = json.loads(text)
        # broken JSON, an integer past the digit limit, or too deeply nested
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(raw) - {*_CONFIG_KEYS, "params"})
        if unknown:
            raise UsageError(f"config file has an unknown key {unknown[0]!r}")
    elif not args.family or not args.estimand:
        raise UsageError("either --config or --family and --estimand are required")
    else:
        raw = {key: getattr(args, key) for key in _CONFIG_KEYS}
        raw["params"] = {
            key: [v for v in value.split(",") if v] if key in ("support", "weights") else value
            for key in _SAMPLER_FLAGS
            if (value := getattr(args, key)) is not None
        }
    for key in ("estimand", "family", "n", "replicates", "seed"):
        if key not in raw:
            raise UsageError(f"config file lacks the required key {key!r}")
    for key in ("estimand", "family", "column"):
        if not isinstance(raw.get(key, ""), str):
            raise UsageError(f"{key!r} must be a string")
    return McConfig(**{"params": {}, **raw, "estimand": parse_expression(raw["estimand"])})


def cmd_simulate(args) -> tuple[int, dict]:
    import dataclasses

    from .expr import render_func
    from .mc import run_mc

    config = _mc_config_from_args(args)
    report = run_mc(config)
    result = dataclasses.asdict(report)
    del result["seed"]
    doc = _document(
        "simulate",
        {
            "family": config.family,
            "estimand": render_func(config.estimand),
            "n": config.n,
            "replicates": config.replicates,
            "level": config.level,
        },
        [result],
        [
            f"bound: {report.bound}",
            f"empirical variance: {report.empirical_variance}",
            f"coverage: {report.coverage}",
        ],
        config.seed,
    )
    return 0, doc


def build_parser() -> argparse.ArgumentParser:
    from .verify import available_suites

    parser = argparse.ArgumentParser(
        prog="eicalg",
        description="Derive efficient influence curves, verify the operator "
        "identities behind them, and estimate from data.",
    )
    parser.add_argument(
        "--output",
        choices=("text", "structured"),
        default="text",
        help="human-readable text or a JSON document",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("parse-check", help="parse an expression and round-trip it")
    p.add_argument("expression")
    p.set_defaults(handler=cmd_parse_check)

    p = sub.add_parser("derive", help="derive the gradient of a functional")
    p.add_argument("expression")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("suite", choices=available_suites())
    p.add_argument("--trials", default=200)
    p.add_argument("--seed", default=0)
    p.add_argument("--max-outcomes", default=8, dest="max_outcomes", help=f"2 to {MAX_OUTCOMES}")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("estimate", help="estimate a functional from CSV data")
    p.add_argument("expression")
    p.add_argument("--data", required=True)
    p.add_argument("--level", default=0.95)
    p.add_argument("--split", default=None, help="one-step split ratio, e.g. 0.5")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo study")
    p.add_argument("--config", help="JSON configuration file")
    defaults = {"n": 1000, "replicates": 200, "seed": 0, "level": 0.95, "column": "X"}
    for flag in ("family", "estimand", *defaults, *_SAMPLER_FLAGS):
        p.add_argument(f"--{flag}", default=defaults.get(flag))
    p.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    try:
        code, doc = args.handler(args)
    except EicalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception:  # a fault of the program, not of its input
        import traceback

        traceback.print_exc()
        return 4
    _emit(doc, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
