"""Monte Carlo demonstration of the efficiency bound.

A sampler draws i.i.d. samples from a finite law (a named family resolved to
exact support points and weights), the plug-in estimator is evaluated on
each replicate's empirical measure, and the report compares the empirical
variance of the root-n scaled error against the gradient's variance under
the true law, together with Wald interval coverage.  The estimand is
compiled once (:class:`~eicalg.estimate.CompiledEstimand`) and the support
scaled to integers once; the true law and every replicate are then one
:class:`~eicalg.estimate.Dataset` over that column, counted by weight over
the lcm of the weights' denominators (true law) or by multinomial count
over n (replicate), and each moment is one power-sum pass over the support.

Reproducibility contract: replicate ``r`` draws one multinomial count
vector from ``numpy``'s PCG64 generator seeded with ``SeedSequence((seed,
r))``, so a report is a pure function of its configuration.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction

from .estimate import (
    CompiledEstimand, Dataset, check_level, normal_quantile, standard_error
)
from .expr import FuncExpr, func_base_vars, to_float
from .numerals import exact_string, rational_setting

__all__ = ["McConfig", "McReport", "resolve_sampler", "run_mc"]


@dataclass(frozen=True)
class McConfig:
    """Sampler family, estimand, and experiment sizes for one study."""

    family: str
    params: dict
    estimand: FuncExpr
    n: int
    replicates: int
    seed: int
    level: float = 0.95
    column: str = "X"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sample size must be at least 2")
        if self.n > 2**63 - 1:  # numpy's multinomial takes a 64-bit count
            raise ValueError("sample size 'n' must be at most 2**63 - 1")
        if self.replicates < 1:
            raise ValueError("at least one replicate required")
        if self.seed < 0:
            raise ValueError("'seed' must be nonnegative")
        check_level(self.level)


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


def integer_setting(key: str, value) -> int:
    """An int, or a digit string as the flags give it; not a bool or a float."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key!r} must be an integer")
    return value


# the parameters each family reads
FAMILIES = {
    "bernoulli": ("p",),
    "discrete": ("support", "weights"),
    "uniform-grid": ("low", "high", "points"),
    "gaussian-grid": ("mean", "sd", "points", "span"),
}


def resolve_sampler(family: str, params: dict) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Resolve a family name to (support, weights) with exact weights.

    Families: ``bernoulli`` (p), ``discrete`` (support, weights),
    ``uniform-grid`` (low, high, points: equally weighted grid), and
    ``gaussian-grid`` (mean, sd, points, span: grid weighted by the normal
    density, normalized exactly).  ``params`` is a dict (a JSON object); a
    missing, mistyped or unknown parameter raises ``ValueError`` naming it.
    """
    if not isinstance(params, dict):
        raise ValueError("sampler parameters must be a JSON object")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unsupported sampler family {family!r}")
    unknown = sorted(set(params) - set(FAMILIES[family]))
    if unknown:
        raise ValueError(f"the {family} sampler has no parameter {unknown[0]!r}")

    def param(key, default=None):
        if key not in params and default is None:
            raise ValueError(f"the {family} sampler needs the parameter {key!r}")
        return params.get(key, default)

    def rational(key, default=None):
        return rational_setting(key, param(key, default))

    if family == "bernoulli":
        p = rational("p")
        if not 0 < p < 1:
            raise ValueError("bernoulli parameter must lie in (0, 1)")
        return (Fraction(0), Fraction(1)), (1 - p, p)
    if family == "discrete":
        for key in ("support", "weights"):
            if not isinstance(param(key), list):
                raise ValueError(f"the discrete sampler's {key!r} must be a list")
        support = tuple(rational_setting("support", v) for v in param("support"))
        weights = tuple(rational_setting("weights", w) for w in param("weights"))
        if len(support) != len(weights):
            raise ValueError("support and weights must have equal length")
        if len(set(support)) != len(support):
            raise ValueError("support points must be distinct")
        if any(w < 0 for w in weights) or sum(weights) != 1:
            raise ValueError("weights must be nonnegative and sum to 1")
        kept = [(v, w) for v, w in zip(support, weights) if w > 0]
        return tuple(v for v, _ in kept), tuple(w for _, w in kept)
    if family == "uniform-grid":
        low, high = rational("low"), rational("high")
        points = integer_setting("points", param("points"))
        if points < 1 or high <= low:
            raise ValueError("need high > low and at least one grid point")
        if points == 1:
            return ((low + high) / 2,), (Fraction(1),)
        step = (high - low) / (points - 1)
        support = tuple(low + step * i for i in range(points))
        return support, tuple(Fraction(1, points) for _ in support)
    if family == "gaussian-grid":
        mean, sd = rational("mean"), rational("sd")
        points = integer_setting("points", param("points", 41))
        span = rational("span", 4)
        if sd <= 0 or points < 3:
            raise ValueError("need positive sd and at least three grid points")
        if span <= 0:
            raise ValueError("need positive span")
        step = 2 * span * sd / (points - 1)
        support = tuple(mean - span * sd + step * i for i in range(points))
        z = [to_float((v - mean) / sd) for v in support]
        # the density underflows to 0.0 well before |z| = 40; z**2 could overflow
        raw = [Fraction(math.exp(-x**2 / 2)) if abs(x) < 40 else Fraction(0) for x in z]
        total = sum(raw)
        if total == 0:
            raise ValueError("every gaussian-grid weight underflows to 0: lower 'span'")
        return support, tuple(w / total for w in raw)


def run_mc(config: McConfig) -> McReport:
    """Run the study; identical configurations give bit-identical reports."""
    import numpy as np  # imported here so that importing eicalg skips numpy

    support, weights = resolve_sampler(config.family, config.params)
    names = func_base_vars(config.estimand)
    if not names <= {config.column}:
        raise ValueError(
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

    estimates: list[float] = []
    errors: list[float] = []
    covered = 0
    for r in range(config.replicates):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((config.seed, r)))
        )
        counts = rng.multinomial(config.n, probs).tolist()
        law = Dataset(column, counts, config.n)
        estimate_f = to_float(estimand.value(law))
        estimates.append(estimate_f)
        errors.append(sqrt_n * (estimate_f - truth_f))
        se = standard_error(estimand.variance(law), config.n)
        if abs(estimate_f - truth_f) <= z * se:
            covered += 1

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
