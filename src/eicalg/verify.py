"""Identity-verification suites: brute-force corpora plus symbolic proofs.

Every suite pairs two independent routes to the same statement.  The
numeric route draws seeded random spaces and integer variables and compares
the operator implementation against a closed form computed with direct
vector arithmetic, exactly; one call runs every check of its suites in
one pass over the instances, each drawn once.  The symbolic route decides
the same identity once at the canonical-form level.  A suite passes only if
every instance and every canonical-form comparison agrees.
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
    nested_T_P_prod,
    nested_P_prod_T,
    nested_prod_T_P,
    symbolic_identity_suite,
)
from .eic import certificate
from .errors import UsageError
from .expr import E, var
from .measure import covariance, decompose, embed, expectation, inner
from .sampling import check_instances, draws, format_values as _vec

__all__ = ["SUITES", "run_suite", "available_suites"]


# ---------------------------------------------------------------------------
# checks: each compares one operator identity with its closed form


def _decomposition(space, x, y, score):
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


def _covariance_bracket(space, x, y, score):
    got = bracket_P_prod(space, x, y)
    want = covariance(space, x, y)
    if got != want:
        return f"bracket={got} covariance={want}"
    if got != bracket_P_prod(space, y, x):
        return "bracket is not symmetric"
    return None


def _product_centering(space, x, y, score):
    got = bracket_prod_T(space, x, y)
    mx, my = expectation(space, x), expectation(space, y)
    centered = (x - mx) * (y - my)
    want = centered - (x * y - expectation(space, x * y))
    if got != want:
        return f"got={_vec(got)} want={_vec(want)}"
    if expectation(space, got) != bracket_P_prod(space, x, y):
        return "expectation of the bracket is not the covariance"
    return None


def _centering_expectation(space, x, y, score):
    first, second = bracket_T_P(space, x, y)
    mx, my = expectation(space, x), expectation(space, y)
    if first != x - mx or second != y - my:
        return "components differ from centered coordinates"
    if expectation(space, first) != 0 or expectation(space, second) != 0:
        return "components are not mean-zero"
    return None


def _sides(lhs, rhs, want):
    """Failure of a corollary whose two sides must agree with a closed form."""
    if lhs != rhs:
        return f"lhs={_vec(lhs)} rhs={_vec(rhs)}"
    if lhs != want:
        return f"sides={_vec(lhs)} closed form={_vec(want)}"
    return None


def _product_of_gradients(space, x, y, score):
    mx, my = expectation(space, x), expectation(space, y)
    return _sides(*corollary_leibniz(space, x, y), x * y - mx * my)


def _covariance_gradient(space, x, y, score):
    mx, my = expectation(space, x), expectation(space, y)
    return _sides(*corollary_cov(space, x, y), (x - mx) * (y - my))


def _lemma_pieces(space, x, y, score):
    mx, my = expectation(space, x), expectation(space, y)
    tx, ty = x - mx, y - my
    cov = covariance(space, x, y)
    pieces = [
        ("first", nested_T_P_prod, tx * ty - 2 * cov),
        ("second", nested_P_prod_T, embed(cov, space) - tx * ty + (tx * my + mx * ty)),
        ("third", nested_prod_T_P, tx * ty - (x * y - expectation(space, x * y))),
    ]
    for label, piece, want in pieces:
        got = piece(space, x, y)
        if got != want:
            return f"{label} piece got={_vec(got)} want={_vec(want)}"
    return None


def _jacobi(space, x, y, score):
    total = jacobi_sum(space, x, y)
    return None if total.is_zero() else f"sum={_vec(total)}"


# ---------------------------------------------------------------------------
# suites: each returns its table of checks and the names of its symbolic records


def suite_decomposition():
    table = [
        (
            "orthogonal-decomposition",
            "constant plus mean-zero parts are orthogonal and reconstruct exactly",
            _decomposition,
        )
    ]
    return table, ()


def suite_brackets():
    table = [
        (
            "covariance-bracket",
            "expectation-product bracket equals the covariance and is symmetric",
            _covariance_bracket,
        ),
        (
            "product-centering-bracket",
            "(TX)(TY) - T(XY) matches its closed form; its mean is the covariance",
            _product_centering,
        ),
        (
            "centering-expectation-bracket",
            "the pair bracket returns the centered coordinates, both mean-zero",
            _centering_expectation,
        ),
    ]
    return table, (
        "covariance-bracket",
        "covariance-centering-invariance",
        "product-centering-bracket",
        "centering-expectation-bracket-first",
        "centering-expectation-bracket-second",
    )


def suite_corollaries():
    table = [
        (
            "corollary-product-of-gradients",
            "T(PX)T(PY) + T(PX*PY) equals T(P(XY)) + Cov, both equal XY - PX*PY",
            _product_of_gradients,
        ),
        (
            "corollary-covariance-gradient",
            "T(PX)T(PY) equals T(Cov) + Cov, both equal (X-PX)(Y-PY)",
            _covariance_gradient,
        ),
    ]
    return table, ("corollary-product-of-gradients", "corollary-covariance-gradient")


def suite_lemma():
    table = [("lemma-pieces", "each composite bracket equals its closed form", _lemma_pieces)]
    return table, (
        "lemma-piece-center-of-covariance",
        "lemma-piece-expectation-of-product-centering",
        "lemma-piece-product-of-centered-means",
    )


def suite_jacobi():
    table = [
        ("jacobi-identity", "the cyclic sum of composite brackets is the zero vector", _jacobi)
    ]
    return table, ("jacobi-identity",)


def suite_eic_certificates():
    """A certificate check for each estimand of a catalog in X and Y; each
    binds X, or X and Y, of the drawn pair."""
    x, y = var("X"), var("Y")
    catalog = [
        ("mean", E(x)),
        ("second-moment", E(x**2)),
        ("variance", E(x**2) - E(x) ** 2),
        ("covariance", E(x * y) - E(x) * E(y)),
        ("product-of-means", E(x) * E(y)),
    ]
    statement = "exact tilt derivative equals the inner product with the score"
    table = [(f"gradient-certificate-{n}", statement, certificate(psi)[1]) for n, psi in catalog]
    return table, ()


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
    """Records of one suite, or of all in :data:`SUITES` order: each suite's
    checks, then its symbolic records.  One pass over the instances runs
    every check, so each instance is drawn once per call, as the symbolic
    identity suite runs once.  ``trials``, ``seed`` and ``max_outcomes`` are
    read as :func:`~eicalg.sampling.draws` reads them."""
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}")
    instances = draws(("X", "Y"), trials, seed, max_outcomes)
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    suites = [suite() for suite in (SUITES.values() if name == "all" else [SUITES[name]])]
    checks = [check for table, _ in suites for _, _, check in table]
    results = iter(check_instances(checks, instances))
    records = []
    for table, names in suites:
        records += [
            IdentityRecord(label, statement, "exact", found is None, found)
            for (label, statement, _), (_, found) in zip(table, results)
        ]
        records += [symbolic[n] for n in names]
    return records
