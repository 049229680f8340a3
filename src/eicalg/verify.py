"""Identity-verification suites: brute-force corpora plus symbolic proofs.

Every suite pairs two independent routes to the same statement.  The
numeric route draws seeded random spaces and integer variables and compares
the operator implementation against a closed form computed with direct
vector arithmetic, exactly.  The symbolic route decides the same identity
once at the canonical-form level.  A suite passes only if every instance
and every canonical-form comparison agrees.
"""

from __future__ import annotations

from .brackets import (
    IdentityRecord,
    bracket_P_prod,
    bracket_prod_T,
    bracket_T_P,
    corollary_cov,
    corollary_leibniz,
    jacobi_sum,
    nested_P_prod_T,
    nested_T_P_prod,
    nested_prod_T_P,
    symbolic_identity_suite,
)
from .eic import certify_eic
from .expr import E, var
from .measure import (
    covariance,
    decompose,
    embed,
    expectation,
    inner,
)
from .sampling import random_intvec, random_space, trial_rng

__all__ = ["SUITES", "run_suite", "available_suites"]


def _describe(space, x, y=None) -> str:
    parts = [f"weights={[str(w) for w in space.weights]}"]
    parts.append(f"X={[str(v) for v in x.values]}")
    if y is not None:
        parts.append(f"Y={[str(v) for v in y.values]}")
    return " ".join(parts)


def _fuzz(table, trials, seed, max_outcomes):
    """Run each (name, statement, check) of a table over a seeded corpus of
    two-variable instances; a check returns None or a failure message."""
    records = []
    for name, statement, check in table:
        counterexample = None
        for index in range(trials):
            rng = trial_rng(seed, index)
            space = random_space(rng, max_outcomes=max_outcomes)
            x = random_intvec(rng, space)
            y = random_intvec(rng, space)
            failure = check(space, x, y)
            if failure is not None:
                counterexample = (
                    f"instance {index}: {_describe(space, x, y)}; {failure}"
                )
                break
        passed = counterexample is None
        records.append(IdentityRecord(name, statement, "exact", passed, counterexample))
    return records


def _vec(space, values):
    return [str(v) for v in values.values]


# ---------------------------------------------------------------------------
# suite bodies


def suite_decomposition(trials, seed, max_outcomes, symbolic):
    def check(space, x, y):
        parts = decompose(space, x)
        rebuilt = embed(parts.constant_part, space) + parts.centered_part
        if rebuilt != x:
            return "parts do not reconstruct the input"
        if expectation(space, parts.centered_part) != 0:
            return "centered part has nonzero mean"
        if inner(space, embed(parts.constant_part, space), parts.centered_part) != 0:
            return "parts are not orthogonal"
        if inner(space, x, embed(1, space)) != expectation(space, x):
            return "inner product against 1 is not the expectation"
        return None

    table = [
        (
            "orthogonal-decomposition",
            "constant plus mean-zero parts are orthogonal and reconstruct exactly",
            check,
        )
    ]
    return _fuzz(table, trials, seed, max_outcomes)


def suite_brackets(trials, seed, max_outcomes, symbolic):
    def check_cov(space, x, y):
        got = bracket_P_prod(space, x, y)
        want = covariance(space, x, y)
        if got != want:
            return f"bracket={got} covariance={want}"
        if got != bracket_P_prod(space, y, x):
            return "bracket is not symmetric"
        return None

    def check_prod_center(space, x, y):
        got = bracket_prod_T(space, x, y)
        mx, my = expectation(space, x), expectation(space, y)
        centered = (x - mx) * (y - my)
        want = centered - (x * y - expectation(space, x * y))
        if got != want:
            return f"got={_vec(space, got)} want={_vec(space, want)}"
        if expectation(space, got) != bracket_P_prod(space, x, y):
            return "expectation of the bracket is not the covariance"
        return None

    def check_center_exp(space, x, y):
        first, second = bracket_T_P(space, x, y)
        mx, my = expectation(space, x), expectation(space, y)
        if first != x - mx or second != y - my:
            return "components differ from centered coordinates"
        if expectation(space, first) != 0 or expectation(space, second) != 0:
            return "components are not mean-zero"
        return None

    table = [
        (
            "covariance-bracket",
            "expectation-product bracket equals the covariance and is symmetric",
            check_cov,
        ),
        (
            "product-centering-bracket",
            "(TX)(TY) - T(XY) matches its closed form; its mean is the covariance",
            check_prod_center,
        ),
        (
            "centering-expectation-bracket",
            "the pair bracket returns the centered coordinates, both mean-zero",
            check_center_exp,
        ),
    ]
    return _fuzz(table, trials, seed, max_outcomes) + [
        symbolic["covariance-bracket"],
        symbolic["covariance-centering-invariance"],
        symbolic["product-centering-bracket"],
        symbolic["centering-expectation-bracket-first"],
        symbolic["centering-expectation-bracket-second"],
    ]


def suite_corollaries(trials, seed, max_outcomes, symbolic):
    def check_leibniz(space, x, y):
        lhs, rhs = corollary_leibniz(space, x, y)
        if lhs != rhs:
            return f"lhs={_vec(space, lhs)} rhs={_vec(space, rhs)}"
        mx, my = expectation(space, x), expectation(space, y)
        want = x * y - mx * my
        if lhs != want:
            return f"sides={_vec(space, lhs)} closed form={_vec(space, want)}"
        return None

    def check_cov_gradient(space, x, y):
        lhs, rhs = corollary_cov(space, x, y)
        if lhs != rhs:
            return f"lhs={_vec(space, lhs)} rhs={_vec(space, rhs)}"
        mx, my = expectation(space, x), expectation(space, y)
        want = (x - mx) * (y - my)
        if lhs != want:
            return f"sides={_vec(space, lhs)} closed form={_vec(space, want)}"
        return None

    table = [
        (
            "corollary-product-of-gradients",
            "T(PX)T(PY) + T(PX*PY) equals T(P(XY)) + Cov, both equal XY - PX*PY",
            check_leibniz,
        ),
        (
            "corollary-covariance-gradient",
            "T(PX)T(PY) equals T(Cov) + Cov, both equal (X-PX)(Y-PY)",
            check_cov_gradient,
        ),
    ]
    return _fuzz(table, trials, seed, max_outcomes) + [
        symbolic["corollary-product-of-gradients"],
        symbolic["corollary-covariance-gradient"],
    ]


def suite_lemma(trials, seed, max_outcomes, symbolic):
    def closed_forms(space, x, y):
        mx, my = expectation(space, x), expectation(space, y)
        tx, ty = x - mx, y - my
        cov = covariance(space, x, y)
        first = tx * ty - 2 * cov
        second = embed(cov, space) - tx * ty + (tx * my + mx * ty)
        third = tx * ty - (x * y - expectation(space, x * y))
        return first, second, third

    def check(space, x, y):
        first, second, third = closed_forms(space, x, y)
        got_first = nested_T_P_prod(space, x, y)
        if got_first != first:
            return f"first piece got={_vec(space, got_first)} want={_vec(space, first)}"
        got_second = nested_P_prod_T(space, x, y)
        if got_second != second:
            return f"second piece got={_vec(space, got_second)} want={_vec(space, second)}"
        got_third = nested_prod_T_P(space, x, y)
        if got_third != third:
            return f"third piece got={_vec(space, got_third)} want={_vec(space, third)}"
        return None

    table = [
        (
            "lemma-pieces",
            "each composite bracket equals its closed form",
            check,
        )
    ]
    return _fuzz(table, trials, seed, max_outcomes) + [
        symbolic["lemma-piece-center-of-covariance"],
        symbolic["lemma-piece-expectation-of-product-centering"],
        symbolic["lemma-piece-product-of-centered-means"],
    ]


def suite_jacobi(trials, seed, max_outcomes, symbolic):
    def check(space, x, y):
        total = jacobi_sum(space, x, y)
        if not total.is_zero():
            return f"sum={_vec(space, total)}"
        return None

    table = [
        (
            "jacobi-identity",
            "the cyclic sum of composite brackets is the zero vector",
            check,
        )
    ]
    return _fuzz(table, trials, seed, max_outcomes) + [symbolic["jacobi-identity"]]


def suite_eic_certificates(trials, seed, max_outcomes, symbolic):
    x, y = var("X"), var("Y")
    catalog = [
        ("mean", E(x)),
        ("second-moment", E(x**2)),
        ("variance", E(x**2) - E(x) ** 2),
        ("covariance", E(x * y) - E(x) * E(y)),
        ("product-of-means", E(x) * E(y)),
    ]
    records = []
    for name, psi in catalog:
        report = certify_eic(psi, trials=trials, seed=seed, max_outcomes=max_outcomes)
        records.append(
            IdentityRecord(
                f"gradient-certificate-{name}",
                "exact tilt derivative equals the inner product with the score",
                "exact",
                report.passed,
                report.counterexample,
            )
        )
    return records


SUITES = {
    "decomposition": suite_decomposition,
    "brackets": suite_brackets,
    "corollaries": suite_corollaries,
    "lemma": suite_lemma,
    "jacobi": suite_jacobi,
    "eic-certificates": suite_eic_certificates,
}


def available_suites() -> list[str]:
    return list(SUITES) + ["all"]


def run_suite(name, trials, seed, max_outcomes) -> list[IdentityRecord]:
    """Records of one suite, or of all.  The symbolic identity suite runs once
    per call; each suite takes its records from it by name."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    records = []
    for suite in suites:
        records.extend(suite(trials, seed, max_outcomes, symbolic))
    return records
