"""Identity-verification suites: brute-force corpora plus symbolic proofs.

Every suite pairs two independent routes to the same statement.  The
numeric route draws seeded random spaces and integer variables and compares
the operator implementation against a closed form computed with direct
vector arithmetic, exactly; each trial's instance is drawn once per call
and serves every check of every suite.  The symbolic route decides the
same identity once at the canonical-form level.  A suite passes only if
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
from .sampling import Corpus, check_instances, format_values as _vec

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


def _suite(table, *names):
    """A suite: the records of a check table (or of the table a function
    builds when the suite runs) over a corpus of instances in X and Y, then
    the named symbolic records."""

    def suite(corpus, symbolic):
        rows = table() if callable(table) else table
        results = check_instances([c for _, _, c in rows], corpus, corpus.trials)
        return [
            IdentityRecord(name, statement, "exact", found is None, found)
            for (name, statement, _), (_, found) in zip(rows, results)
        ] + [symbolic[n] for n in names]

    return suite


suite_decomposition = _suite(
    [
        (
            "orthogonal-decomposition",
            "constant plus mean-zero parts are orthogonal and reconstruct exactly",
            _decomposition,
        )
    ]
)

suite_brackets = _suite(
    [
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
    ],
    "covariance-bracket",
    "covariance-centering-invariance",
    "product-centering-bracket",
    "centering-expectation-bracket-first",
    "centering-expectation-bracket-second",
)

suite_corollaries = _suite(
    [
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
    ],
    "corollary-product-of-gradients",
    "corollary-covariance-gradient",
)

suite_lemma = _suite(
    [("lemma-pieces", "each composite bracket equals its closed form", _lemma_pieces)],
    "lemma-piece-center-of-covariance",
    "lemma-piece-expectation-of-product-centering",
    "lemma-piece-product-of-centered-means",
)

suite_jacobi = _suite(
    [
        (
            "jacobi-identity",
            "the cyclic sum of composite brackets is the zero vector",
            _jacobi,
        )
    ],
    "jacobi-identity",
)


def _certificates():
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
    return [(f"gradient-certificate-{n}", statement, certificate(psi)[1]) for n, psi in catalog]


suite_eic_certificates = _suite(_certificates)


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
    """Records of one suite, or of all.  The symbolic identity suite runs
    once per call, and each suite takes its records from it by name; the
    instances are drawn once per call, and every suite runs on them.
    ``trials``, ``seed`` and ``max_outcomes`` are read as the
    :class:`~eicalg.sampling.Corpus` reads them."""
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}")
    corpus = Corpus(("X", "Y"), trials, seed, max_outcomes)
    symbolic = {r.name: r for r in symbolic_identity_suite()}
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    records = []
    for suite in suites:
        records.extend(suite(corpus, symbolic))
    return records
