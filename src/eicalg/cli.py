"""Command-line front end.

Subcommands: ``parse-check``, ``derive``, ``verify``, ``estimate``,
``simulate``.  Output is human-readable text or a structured JSON document
with the stable field order {command, inputs, results, verdicts, seed,
version}; runs with identical inputs (including seeds) produce byte-identical
structured output.

Exit codes: 0 success or all identities pass, 1 verification failure,
2 usage or expression error, 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .canon import canonicalize_rv, rv_from_form
from .eic import derive_eic, mean_zero_certificate
from .errors import DataError, EvaluationError, ExactModeError, NormalizationError
from .estimate import (
    CompiledEstimand,
    check_level,
    checked_split,
    eic_standard_error,
    onestep_estimate,
    plugin_estimate,
    read_delimited,
    wald_ci,
)
from .expr import render_func, to_float
from .mc import FAMILIES, McConfig, integer_setting, run_mc
from .numerals import exact_string
from .parser import parse_expression
from .verify import available_suites, run_suite


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
    psi = parse_expression(args.expression)
    printed = render_func(psi)
    reparsed = parse_expression(printed)
    results = [
        {
            "parsed": printed,
            "round_trip": render_func(reparsed) == printed,
        }
    ]
    verdict = "parse: ok" if results[0]["round_trip"] else "parse: unstable"
    doc = _document(
        "parse-check", {"expression": args.expression}, results, [verdict], None
    )
    return (0 if results[0]["round_trip"] else 1), doc


def cmd_derive(args) -> tuple[int, dict]:
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
    doc = _document(
        "derive",
        {"expression": args.expression, "mode": args.mode},
        results,
        verdicts,
        None,
    )
    return (0 if mean_zero else 1), doc


# each trial's work grows with the size of its random space, so an unbounded
# --max-outcomes lets one small command run for minutes
MAX_OUTCOMES = 1000


def cmd_verify(args) -> tuple[int, dict]:
    # with no trials no instance is checked, so a pass would be vacuous
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.max_outcomes < 2:
        raise ValueError("--max-outcomes must be at least 2")
    if args.max_outcomes > MAX_OUTCOMES:
        raise ValueError(f"--max-outcomes must be at most {MAX_OUTCOMES}")
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
    verdicts = [
        f"{r.name} [{r.mode}]: {'pass' if r.passed else 'fail'}" for r in records
    ]
    all_passed = all(r.passed for r in records)
    doc = _document(
        "verify",
        {
            "suite": args.suite,
            "trials": args.trials,
            "max_outcomes": args.max_outcomes,
        },
        results,
        verdicts,
        args.seed,
    )
    return (0 if all_passed else 1), doc


def _read_input(path: str, error: type[ValueError]) -> str:
    """The text of an input file, without a leading byte-order mark.  The
    file is decoded whole, so a byte that is not UTF-8 raises ``error``
    naming the file and the byte's offset from the file's first byte."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} is not UTF-8") from exc


def cmd_estimate(args) -> tuple[int, dict]:
    psi = parse_expression(args.expression)
    check_level(args.level)
    split = None if args.split is None else checked_split(args.split)
    data = read_delimited(_read_input(args.data, DataError))
    estimand = CompiledEstimand(psi, args.mode)
    estimate = plugin_estimate(estimand, data)
    se = eic_standard_error(estimand, data)
    estimate_float = to_float(estimate)
    low, high = wald_ci(estimate_float, se, args.level)
    result = {
        "estimate": exact_string(estimate),
        "estimate_float": estimate_float,
        "standard_error": se,
        "ci_low": low,
        "ci_high": high,
        "level": args.level,
        "n": data.n,
    }
    if split is not None:
        onestep = onestep_estimate(estimand, data, split)
        result["onestep"] = exact_string(onestep)
        result["onestep_float"] = to_float(onestep)
    doc = _document(
        "estimate",
        {"expression": args.expression, "data": args.data, "level": args.level},
        [result],
        [f"estimate: {estimate_float}"],
        None,
    )
    return 0, doc


# every parameter some sampler family reads, in the families' order
_SAMPLER_FLAGS = tuple(dict.fromkeys(p for params in FAMILIES.values() for p in params))
_CONFIG_KEYS = ("estimand", "family", "n", "replicates", "seed", "level", "column")
_LIST_OPTS, _DIGITS = ("--support", "--weights", "--points"), "0123456789."


def _join_list_values(argv: list[str]) -> list[str]:
    """``--support -1,0.5`` as ``--support=-1,0.5``, which argparse reads."""
    out = []
    for token in argv:
        if out and out[-1] in _LIST_OPTS and token[:1] == "-" and token[1:2] in _DIGITS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _mc_config_from_args(args) -> McConfig:
    """Study from a JSON config file, or from flags that build the same dict."""
    if args.config:
        text = _read_input(args.config, ValueError)
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"{args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - {*_CONFIG_KEYS, "params"})
        if unknown:
            raise ValueError(f"config file has an unknown key {unknown[0]!r}")
    elif not args.family or not args.estimand:
        raise ValueError("either --config or --family and --estimand are required")
    else:
        raw = {key: getattr(args, key) for key in _CONFIG_KEYS}
        flags = {key: getattr(args, key) for key in _SAMPLER_FLAGS}
        params = {key: v for key, v in flags.items() if v is not None}
        for key in ("support", "weights"):
            if key in params:
                params[key] = [v for v in params[key].split(",") if v]
        raw["params"] = params
    for key in ("estimand", "family", "n", "replicates", "seed"):
        if key not in raw:
            raise ValueError(f"config file lacks the required key {key!r}")
    for key in ("estimand", "family", "column"):
        if not isinstance(raw.get(key, ""), str):
            raise ValueError(f"{key!r} must be a string")
    level = raw.get("level", 0.95)
    try:
        if isinstance(level, bool):  # float() would read it as 0 or 1
            raise TypeError
        level = float(level)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("'level' must be a real number or a numeric string") from None
    return McConfig(
        family=raw["family"],
        params=raw.get("params", {}),
        estimand=parse_expression(raw["estimand"]),
        n=integer_setting("n", raw["n"]),
        replicates=integer_setting("replicates", raw["replicates"]),
        seed=integer_setting("seed", raw["seed"]),
        level=level,
        column=raw.get("column", "X"),
    )


def cmd_simulate(args) -> tuple[int, dict]:
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
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-outcomes", type=int, default=8, dest="max_outcomes")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("estimate", help="estimate a functional from CSV data")
    p.add_argument("expression")
    p.add_argument("--data", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--split", default=None, help="one-step split ratio, e.g. 0.5")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo study")
    p.add_argument("--config", default=None, help="JSON configuration file")
    p.add_argument("--family", default=None)
    p.add_argument("--estimand", default=None)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--column", default="X")
    for flag in _SAMPLER_FLAGS:
        p.add_argument(f"--{flag}", default=None)
    p.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
    try:
        code, doc = args.handler(args)
    except (DataError, EvaluationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # ParseError is a ValueError: expression errors are usage errors
    except (NormalizationError, ExactModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
