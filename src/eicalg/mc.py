"""Monte Carlo demonstration of the efficiency bound.

A sampler draws i.i.d. samples from a finite law (a named family resolved to
exact support points and weights), the plug-in estimator is evaluated on
each replicate's empirical measure, and the report compares the empirical
variance of the root-n scaled error against the gradient's variance under
the true law, together with Wald interval coverage.  The estimand is
compiled once (:class:`~eicalg.estimate.CompiledEstimand`) and the support
scaled to integers once.  The true law is one
:class:`~eicalg.estimate.Dataset` over that column, counted by weight over
the lcm of the weights' denominators.  A replicate's moments are its
multinomial counts times the true law's power columns, over n: a block of
replicates makes one exact integer product, and a replicate is one run of
one program for its estimate and standard error.

Reproducibility contract: replicate ``r`` draws one multinomial count
vector from ``numpy``'s PCG64 generator seeded with ``SeedSequence((seed,
r))``, so a report is a pure function of its configuration.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UsageError
from .estimate import CompiledEstimand, Dataset, normal_quantile
from .expr import FuncExpr, func_base_vars, to_float
from .numerals import FAMILIES, exact_string, setting

__all__ = ["McConfig", "McReport", "resolve_sampler", "run_mc"]

BLOCK_CELLS = 1 << 16  # count cells a block holds: memory does not grow with replicates


@dataclass(frozen=True)
class McConfig:
    """Sampler family, estimand, and experiment sizes for one study; each
    size is read by :func:`~eicalg.numerals.setting`."""

    family: str
    params: dict
    estimand: FuncExpr
    n: int
    replicates: int
    seed: int
    level: float = 0.95
    column: str = "X"

    def __post_init__(self):
        for key in ("n", "replicates", "seed", "level"):
            object.__setattr__(self, key, setting(key, getattr(self, key)))


@dataclass(frozen=True)
class McReport:
    truth: float
    truth_exact: str
    bound: float
    bound_exact: str
    empirical_variance: float
    coverage: float
    n: int
    replicates: int
    seed: int
    level: float
    estimates_digest: dict = field(default_factory=dict)


def resolve_sampler(family: str, params: dict) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Resolve a family name to (support, weights) with exact weights.

    Families: ``bernoulli`` (p), ``discrete`` (support, weights),
    ``uniform-grid`` (low, high, points: equally weighted grid), and
    ``gaussian-grid`` (mean, sd, points, span: grid weighted by the normal
    density, normalized exactly).  ``params`` is a dict (a JSON object); a
    missing or unknown parameter, or a value :func:`~eicalg.numerals.setting`
    refuses, raises :class:`UsageError` naming it.
    """
    if not isinstance(params, dict):
        raise UsageError("sampler parameters must be a JSON object")
    if not isinstance(family, str) or family not in FAMILIES:
        raise UsageError(f"unsupported sampler family {family!r}")
    unknown = sorted(set(params) - set(FAMILIES[family]))
    if unknown:
        raise UsageError(f"the {family} sampler has no parameter {unknown[0]!r}")

    def param(key, default=None):
        if key not in params and default is None:
            raise UsageError(f"the {family} sampler needs the parameter {key!r}")
        value = params.get(key, default)
        if family != "discrete":
            return setting(key, value)
        if not isinstance(value, list):
            raise UsageError(f"the discrete sampler's {key!r} must be a list")
        return tuple(setting(key, v) for v in value)

    if family == "bernoulli":
        p = param("p")
        return (Fraction(0), Fraction(1)), (1 - p, p)
    if family == "discrete":
        support, weights = param("support"), param("weights")
        if len(support) != len(weights):
            raise UsageError("support and weights must have equal length")
        if len(set(support)) != len(support):
            raise UsageError("support points must be distinct")
        if any(w < 0 for w in weights) or sum(weights) != 1:
            raise UsageError("weights must be nonnegative and sum to 1")
        kept = [(v, w) for v, w in zip(support, weights) if w > 0]
        return tuple(v for v, _ in kept), tuple(w for _, w in kept)
    if family == "uniform-grid":
        low, high, points = param("low"), param("high"), param("points")
        if high <= low:
            raise UsageError("need high > low")
        if points == 1:
            return ((low + high) / 2,), (Fraction(1),)
        step = (high - low) / (points - 1)
        support = tuple(low + step * i for i in range(points))
        return support, tuple(Fraction(1, points) for _ in support)
    if family == "gaussian-grid":
        mean, sd, points, span = param("mean"), param("sd"), param("points", 41), param("span", 4)
        if points < 3:
            raise UsageError("a gaussian grid needs at least three 'points'")
        step = 2 * span * sd / (points - 1)
        support = tuple(mean - span * sd + step * i for i in range(points))
        z = [to_float((v - mean) / sd) for v in support]
        # the density underflows to 0.0 well before |z| = 40; z**2 could overflow
        raw = [Fraction(math.exp(-x**2 / 2)) if abs(x) < 40 else Fraction(0) for x in z]
        total = sum(raw)
        if total == 0:
            raise UsageError("every gaussian-grid weight underflows to 0: lower 'span'")
        return support, tuple(w / total for w in raw)


def run_mc(config: McConfig) -> McReport:
    """Run the study; identical configurations give bit-identical reports."""
    import numpy as np  # imported here so that importing eicalg skips numpy

    support, weights = resolve_sampler(config.family, config.params)
    names = func_base_vars(config.estimand)
    if not names <= {config.column}:
        raise UsageError(
            f"estimand uses variables {sorted(names)} but the sampler provides"
            f" only {config.column!r}"
        )
    scale = math.lcm(*(v.denominator for v in support))
    column = {config.column: (scale, [int(v * scale) for v in support])}
    total = math.lcm(*(w.denominator for w in weights))
    truth_law = Dataset(column, [int(w * total) for w in weights], total)
    estimand = CompiledEstimand(config.estimand)
    truth = estimand.value(truth_law)
    bound = estimand.variance(truth_law)

    probs = np.array([to_float(w) for w in weights], dtype=np.float64)
    probs = probs / probs.sum()
    z = normal_quantile((1 + config.level) / 2)
    truth_f = to_float(truth)
    sqrt_n = math.sqrt(config.n)

    # counts are >= 0 and sum to n: int64 sums are exact if n * |power| fits
    monos = estimand.reads()
    powers = [truth_law.powers(mono) for mono in monos]
    table = np.array([[*c] for c, _ in powers], dtype=object).reshape(len(monos), len(support))
    fits = config.n * max(map(abs, table.flat), default=0) <= 2**63 - 1
    matrix = table.T.astype(np.int64 if fits else object)
    dens = [config.n * scale for _, scale in powers]
    rows = max(1, BLOCK_CELLS // len(support))

    estimates, errors, covered = [], [], 0
    for start in range(0, config.replicates, rows):
        block = [np.random.default_rng((config.seed, r)).multinomial(config.n, probs)
                 for r in range(start, min(start + rows, config.replicates))]
        for sums in np.matmul(block, matrix).tolist():
            estimate_f, se = estimand.sampled(dict(zip(monos, zip(sums, dens))), config.n)
            estimates.append(estimate_f)
            errors.append(sqrt_n * (estimate_f - truth_f))
            covered += abs(estimate_f - truth_f) <= z * se

    empirical_variance = statistics.variance(errors) if len(errors) > 1 else 0.0
    digest = {
        "mean": statistics.fmean(estimates),
        "stdev": statistics.pstdev(estimates),
        "min": min(estimates),
        "max": max(estimates),
    }
    return McReport(
        truth=truth_f,
        truth_exact=exact_string(truth),
        bound=to_float(bound),
        bound_exact=exact_string(bound),
        empirical_variance=empirical_variance,
        coverage=covered / config.replicates,
        n=config.n,
        replicates=config.replicates,
        seed=config.seed,
        level=config.level,
        estimates_digest=digest,
    )
