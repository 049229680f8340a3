"""Identity-verification suites: brute-force corpora plus symbolic proofs.

Every suite pairs two independent routes to the same statement.  The
numeric route draws seeded random spaces and integer variables and compares
each row of :func:`~eicalg.brackets.identities`, its sides computed by the
bracket functions, with its closed form, computed with direct vector
arithmetic, exactly; one call runs every check of its suites in one pass
over the instances, each drawn once, and per instance the bracket functions
share one model and the certificates one run of each route.  The symbolic
route decides each row once at the canonical-form level.  A suite passes
only if every comparison agrees.
"""

from __future__ import annotations

from contextvars import ContextVar, copy_context
from functools import partial

from .brackets import _PASS, BracketFunctions, IdentityRecord, Pieces, _in_pass, identities
from .brackets import symbolic_identity_suite
from .eic import certificate
from .errors import UsageError
from .expr import E, var
from .measure import decompose, embed, expectation, inner
from .sampling import check_instances, draws

__all__ = ["SUITES", "run_suite", "available_suites"]


def _decomposition(space, x, y):
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


# in a verify pass, [the closed forms' pieces of the instance last checked,
# that instance's space, X and Y], kept apart from any model
_PIECES: ContextVar[list | None] = ContextVar("eicalg.verify.pieces", default=None)
_pieces = partial(_in_pass, _PIECES, lambda space, x, y: Pieces(partial(expectation, space), x, y))


def _rows_hold(rows):
    """The check that each row's sides, on an instance, equal its closed form."""

    def check(space, x, y):
        model = BracketFunctions(space)
        pieces = _pieces(space, x, y)
        failures = (row.failure(row.side(model, x, y), row.closed(pieces)) for row in rows)
        return next(filter(None, failures), None)

    return check


def _identity_suite(name):
    checks = [check[1:] for check in identities() if check[0] == name]
    table = [(check, statement, _rows_hold(rows)) for check, statement, rows in checks]
    return table, tuple(row.record for *_, rows in checks for row in rows)


def suite_decomposition():
    statement = "constant plus mean-zero parts are orthogonal and reconstruct exactly"
    return [("orthogonal-decomposition", statement, _decomposition)], ()


suite_brackets = partial(_identity_suite, "brackets")
suite_corollaries = partial(_identity_suite, "corollaries")
suite_lemma = partial(_identity_suite, "lemma")
suite_jacobi = partial(_identity_suite, "jacobi")


def suite_eic_certificates():
    """A certificate check for each estimand of a catalog in X and Y of the draw."""
    x, y = var("X"), var("Y")
    catalog = [
        ("mean", E(x)),
        ("second-moment", E(x**2)),
        ("variance", E(x**2) - E(x) ** 2),
        ("covariance", E(x * y) - E(x) * E(y)),
        ("product-of-means", E(x) * E(y)),
    ]
    statement = "the derived gradient equals psi's influence vector at every outcome"
    _, checks = certificate([(f, None) for _, f in catalog])
    return [(f"gradient-certificate-{n}", statement, c) for (n, _), c in zip(catalog, checks)], ()


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
    checks, then its symbolic records.  One pass over the instances runs every
    check, so each instance is drawn once per call; the symbolic identity suite
    runs once, if a chosen suite reports its records.  ``trials``, ``seed`` and
    ``max_outcomes`` are read as :func:`~eicalg.sampling.draws` reads them."""
    if name != "all" and name not in SUITES:
        raise UsageError(f"unknown suite {name!r}")
    instances = draws(("X", "Y"), trials, seed, max_outcomes)
    suites = [suite() for suite in (SUITES.values() if name == "all" else [SUITES[name]])]
    symbolic = {r.name: r for r in symbolic_identity_suite()} if any(n for _, n in suites) else {}
    checks = [check for table, _ in suites for _, _, check in table]
    context = copy_context()  # in it, one model and one record of pieces per instance
    context.run(_PASS.set, [None])
    context.run(_PIECES.set, [None])
    results = iter(context.run(check_instances, checks, instances))
    records = []
    for table, names in suites:
        records += [IdentityRecord(label, statement, "exact", found is None, found)
                    for (label, statement, _), (_, found) in zip(table, results)]
        records += [symbolic[n] for n in names]
    return records
