"""Acceptance suite: one test per criterion, each printing a PASS line.

Every numeric comparison here is exact (zero tolerance) unless the
criterion itself states a tolerance.  Corpus generation is seeded and
deterministic, so this module is reproducible bit for bit.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction as Q

from conftest import negate_first_centering
from eicalg.brackets import (
    jacobi_sum,
    nested_P_prod_T,
    nested_T_P_prod,
    nested_prod_T_P,
    corollary_cov,
    corollary_leibniz,
    symbolic_identity_suite,
)
from eicalg.canon import canonicalize_rv
from eicalg.cli import main
from eicalg.eic import certify_eic
from eicalg.expr import E, inv, render_func, var
from eicalg.measure import (
    covariance,
    decompose,
    embed,
    expectation,
    inner,
)
from eicalg.mc import McConfig, run_mc
from eicalg.parser import parse_expression
from eicalg.sampling import random_intvec, random_space, trial_rng

X, Y = var("X"), var("Y")


def corpus(trials, seed, max_outcomes=8):
    for index in range(trials):
        rng = trial_rng(seed, index)
        space = random_space(rng, max_outcomes=max_outcomes)
        yield space, random_intvec(rng, space), random_intvec(rng, space)


def report(number, label):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_jacobi_identity():
    start = time.perf_counter()
    for space, x, y in corpus(1000, seed=1001):
        assert jacobi_sum(space, x, y).is_zero()
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    assert symbolic["jacobi-identity"].passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"jacobi sum exactly zero on 1000 instances ({elapsed:.1f}s)")


def test_criterion_2_nested_bracket_closed_forms():
    start = time.perf_counter()
    for space, x, y in corpus(1000, seed=1002):
        mx, my = expectation(space, x), expectation(space, y)
        tx, ty = x - mx, y - my
        cov = covariance(space, x, y)
        assert nested_T_P_prod(space, x, y) == tx * ty - 2 * cov
        assert nested_P_prod_T(space, x, y) == embed(cov, space) - tx * ty + (
            tx * my + mx * ty
        )
        assert nested_prod_T_P(space, x, y) == tx * ty - (
            x * y - expectation(space, x * y)
        )
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    for name in (
        "lemma-piece-center-of-covariance",
        "lemma-piece-expectation-of-product-centering",
        "lemma-piece-product-of-centered-means",
    ):
        assert symbolic[name].passed
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"nested brackets match closed forms on 1000 instances ({elapsed:.1f}s)")


def test_criterion_3_corollaries():
    for space, x, y in corpus(500, seed=1003):
        lhs, rhs = corollary_leibniz(space, x, y)
        assert lhs == rhs
        lhs, rhs = corollary_cov(space, x, y)
        assert lhs == rhs
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    assert symbolic["corollary-product-of-gradients"].passed
    assert symbolic["corollary-covariance-gradient"].passed
    report(3, "both corollaries exact on 500 instances and symbolically")


def test_criterion_4_variance_gradient():
    mu = E(X)
    literal = (X - mu) * (X - mu) - E((X - mu) * (X - mu))
    from eicalg.eic import derive_eic

    from_sugar = derive_eic(parse_expression("Var(X)")).eic
    from_expanded = derive_eic(parse_expression("E[X^2]-E[X]^2")).eic
    assert canonicalize_rv(from_sugar) == canonicalize_rv(literal)
    assert canonicalize_rv(from_sugar) == canonicalize_rv(from_expanded)
    report(4, "variance gradient canonical and identical from both writings")


def test_criterion_5_pathwise_certificates():
    start = time.perf_counter()
    catalog = {
        "mean": E(X),
        "second-moment": E(X**2),
        "variance": E(X**2) - E(X) ** 2,
        "covariance": E(X * Y) - E(X) * E(Y),
        "product-of-means": E(X) * E(Y),
        "reciprocal": inv(E(X)),
    }
    for name, psi in catalog.items():
        result = certify_eic(psi, trials=100, seed=1005)
        assert result.passed, f"{name}: {result.counterexample}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"pathwise-derivative certificates pass ({elapsed:.1f}s)")


def test_criterion_6_efficiency_bound_at_desk_scale():
    start = time.perf_counter()
    mean_config = McConfig(
        family="bernoulli",
        params={"p": "0.3"},
        estimand=E(X),
        n=10_000,
        replicates=1000,
        seed=42,
        level=0.95,
    )
    mean_report = run_mc(mean_config)
    assert mean_report.bound_exact == "21/100"
    assert abs(mean_report.empirical_variance - 0.21) <= 0.1 * 0.21
    assert 0.93 <= mean_report.coverage <= 0.97

    variance_config = McConfig(
        family="discrete",
        params={"support": ["0", "1", "2"], "weights": ["0.25", "0.5", "0.25"]},
        estimand=E(X**2) - E(X) ** 2,
        n=10_000,
        replicates=1000,
        seed=42,
        level=0.95,
    )
    variance_report = run_mc(variance_config)
    bound = float(Q(variance_report.bound_exact))
    assert variance_report.bound_exact == "1/4"
    assert abs(variance_report.empirical_variance - bound) <= 0.1 * bound
    assert 0.93 <= variance_report.coverage <= 0.97
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        6,
        "efficiency bound reproduced: "
        f"mean var={mean_report.empirical_variance:.4f}/0.21 "
        f"cover={mean_report.coverage:.3f}; "
        f"variance var={variance_report.empirical_variance:.4f}/0.25 "
        f"cover={variance_report.coverage:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_7_decomposition():
    for index in range(500):
        rng = trial_rng(1007, index)
        space = random_space(rng)
        f = random_intvec(rng, space)
        parts = decompose(space, f)
        assert embed(parts.constant_part, space) + parts.centered_part == f
        assert expectation(space, parts.centered_part) == 0
        assert (
            inner(space, embed(parts.constant_part, space), parts.centered_part) == 0
        )
        assert inner(space, f, embed(1, space)) == expectation(space, f)
    report(7, "decomposition orthogonal and exact on 500 instances")


def test_criterion_8_determinism_and_cli_contracts(capsys, monkeypatch):
    # byte-identical structured reports under a fixed seed
    argv = [
        sys.executable,
        "-m",
        "eicalg.cli",
        "--output",
        "structured",
        "verify",
        "all",
        "--trials",
        "10",
        "--seed",
        "8",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    # print/parse round trip over the 200-expression corpus
    import random

    from workloads import grammar_expression

    for index in range(200):
        rng = random.Random(f"acceptance:{index}")
        text = grammar_expression(rng, rng.randint(1, 3))
        parsed = parse_expression(text)
        printed = render_func(parsed)
        assert parse_expression(printed) == parsed

    # the injected centering fault makes the jacobi suite fail with a
    # concrete counterexample and a nonzero exit status
    negate_first_centering(monkeypatch)
    code = main(
        ["--output", "structured", "verify", "jacobi", "--trials", "50", "--seed", "8"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    failing = [r for r in doc["results"] if r["verdict"] == "fail"]
    assert failing and "weights=" in failing[0]["counterexample"]
    report(8, "deterministic reports, round trips, and fault detection")
