"""The recursive influence walk of the certificate, kept verbatim as an oracle.

``_influence`` below is the walk ``eic._influence`` was before it became a
run of ``expr``'s evaluator with ``Dual.mean`` as its moment rule: its own
recursion over a normalized functional, which carries each
subexpression as a :class:`~eicalg.measure.Dual`.  Both are exact, so on
every seeded draw they must give the same whole Dual, value and influence
vector, or both find a zero denominator.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from eicalg import eic
from eicalg.canon import normalize_functional
from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import (
    E,
    FuncConst,
    FuncExpr,
    FuncPower,
    FuncProduct,
    FuncSum,
    Moment,
    Reciprocal,
    Smooth,
    evaluate_rv,
    func_base_vars,
    inv,
    var,
)
from eicalg.measure import Dual, FiniteProbSpace, embed
from eicalg.parser import parse_expression
from eicalg.sampling import random_binding, random_space, trial_rng
from workloads import derive_corpus


def _influence(f: FuncExpr, space: FiniteProbSpace, binding: dict, part=False) -> Dual:
    """A normalized functional on one instance, as a :class:`Dual`.

    A moment E[v] is ``Dual.mean`` of its argument's values; sums, products,
    powers and reciprocals combine their parts, a constant ``part`` as a value.
    """
    if isinstance(f, FuncConst):
        return f.value if part else Dual(f.value, embed(0, space))
    if isinstance(f, Moment):
        return Dual.mean(space, evaluate_rv(f.arg, space, binding))
    if isinstance(f, FuncSum):
        return sum(_influence(t, space, binding, True) for t in f.terms)
    if isinstance(f, FuncProduct):
        return reduce(mul, [_influence(x, space, binding, True) for x in f.factors])
    if isinstance(f, FuncPower):
        return _influence(f.base, space, binding, True) ** f.exponent
    if isinstance(f, Reciprocal):
        return _influence(f.arg, space, binding, True) ** -1
    if isinstance(f, Smooth):
        raise ExactModeError(f"no exact tilt slope for smooth functional {f.tag!r}")
    raise TypeError(f"not a functional expression: {f!r}")


X, Y = var("X"), var("Y")
EDGE_CASES = [E(X) * inv(E(Y)), inv(E(X * E(Y)) + 1) * E(Y), FuncConst(Fraction(7, 3))]


def compared_draws(psi, seed, draws, max_outcomes=8):
    """The number of seeded draws on which both walks are defined; on each
    they give the same Dual, and on every other draw both raise
    ``EvaluationError``."""
    normalized, names = normalize_functional(psi), sorted(func_base_vars(psi))
    compared = 0
    for index in range(draws):
        rng = trial_rng(seed, index)
        space = random_space(rng, max_outcomes)
        binding = random_binding(rng, space, names)
        try:
            want = _influence(normalized, space, binding)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                eic._influence(normalized, space, binding)
            continue
        got = eic._influence(normalized, space, binding)
        assert isinstance(got, Dual) and got == want, (str(psi), seed, index)
        compared += 1
    return compared


def test_every_derive_corpus_estimand_gives_the_oracle_dual():
    compared = [compared_draws(parse_expression(text), f"influence:{i}", 3)
                for i, text in enumerate(derive_corpus())]
    assert all(compared)  # each is defined on at least one of its draws
    assert sum(compared) >= 890


@pytest.mark.parametrize("psi", EDGE_CASES, ids=str)
def test_edge_cases(psi):
    assert compared_draws(psi, "influence-edge", 50) > 0


def test_both_walks_refuse_the_same_zero_denominators():
    # on two outcomes E[Y] is sometimes zero
    assert 0 < compared_draws(EDGE_CASES[0], "influence-zero", 200, max_outcomes=2) < 200


def test_constant_has_the_zero_vector():
    space = random_space(trial_rng("influence-constant", 0), 4)
    got = eic._influence(FuncConst(Fraction(7, 3)), space, {})
    assert got == Dual(Fraction(7, 3), embed(0, space))


def test_smooth_functional_refused_in_exact_mode():
    space = random_space(trial_rng("influence-smooth", 0), 4)
    binding = {"X": space.variable([1] * space.size)}
    with pytest.raises(ExactModeError, match="smooth functional 'exp' requires float mode"):
        eic._influence(normalize_functional(parse_expression("exp(E[X])")), space, binding)
