"""Canonical forms: the symbolic equality oracle and the normalizer.

The soundness fuzz generates expression pairs where one side is an
algebraic rewriting of the other (or an unrelated expression), and checks
that canonical-form equality exactly matches agreement of pointwise
evaluation over random spaces and bindings.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eicalg.canon import (
    CanonForm,
    _atom_key,
    _mono_key,
    canonicalize_func,
    canonicalize_rv,
    normalize_functional,
    rv_from_form,
)
from eicalg.eic import derive_eic
from eicalg.errors import NormalizationError
from eicalg.expr import (
    E,
    EmbedFunc,
    FuncConst,
    Moment,
    RvConst,
    Smooth,
    evaluate_func,
    evaluate_rv,
    inv,
    render_func,
    rv_pow,
    rv_product,
    rv_sum,
    var,
)
from eicalg.parser import parse_expression
from eicalg.sampling import random_binding, random_space, trial_rng

X, Y = var("X"), var("Y")


class TestCanonRv:
    def test_commutativity(self):
        assert canonicalize_rv(X * Y - Y * X).is_zero

    def test_power_is_repeated_product(self):
        assert canonicalize_rv(X**2 - X * X).is_zero

    def test_centered_product_expansion(self):
        lhs = (X - E(X)) * (Y - E(Y))
        rhs = X * Y - X * E(Y) - Y * E(X) + EmbedFunc(E(X)) * EmbedFunc(E(Y))
        assert canonicalize_rv(lhs) == canonicalize_rv(rhs)

    def test_centered_product_against_evaluation(self):
        lhs = (X - E(X)) * (Y - E(Y))
        rhs = X * Y - X * E(Y) - Y * E(X) + EmbedFunc(E(X)) * EmbedFunc(E(Y))
        for index in range(20):
            rng = trial_rng(99, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X", "Y"))
            assert evaluate_rv(lhs, space, binding) == evaluate_rv(
                rhs, space, binding
            )


class TestCanonFunc:
    def test_covariance_polynomial(self):
        form = canonicalize_func(E(X * Y) - E(X) * E(Y))
        assert str(form) == "E[X*Y] - E[X]*E[Y]"

    def test_difference_with_self_is_zero(self):
        psi = E(X * Y) - E(X) * E(Y)
        assert canonicalize_func(psi - psi).is_zero

    def test_reciprocal_times_original_is_one(self):
        psi = E(X)
        assert canonicalize_func(inv(psi) * psi) == CanonForm.one()

    @pytest.mark.parametrize(
        "text, printed",
        [("E[X]*inv(E[X])", "1"), ("E[X*Y]*E[X]*inv(E[X]^2)", "E[X*Y]*inv(E[X])"),
         ("E[X]^2*E[Y]*inv(E[X]*E[Y]^3 + E[X]^3*E[Y])", "E[X]*inv(E[X]^2 + E[Y]^2)")],
    )
    def test_monomial_factor_common_to_num_and_den_cancels(self, text, printed):
        # cross-multiplication cannot see the factor; the printed form can
        assert str(canonicalize_func(parse_expression(text))) == printed

    def test_rational_equality_via_cross_multiplication(self):
        # (E[X]^2 - 1) / (E[X] - 1) equals E[X] + 1 without gcd reduction
        lhs = (E(X) ** 2 - 1) * inv(E(X) - 1)
        rhs = E(X) + 1
        assert canonicalize_func(lhs) == canonicalize_func(rhs)


class TestNormalize:
    def test_variance_rewrites_to_moment_polynomial(self):
        psi = E((X - E(X)) * (X - E(X)))
        assert render_func(normalize_functional(psi)) == "E[X^2] - E[X]^2"

    def test_moment_of_constant(self):
        psi = Moment(RvConst(Q(5, 4)))
        assert normalize_functional(psi) == FuncConst(Q(5, 4))

    def test_scalar_factors_out(self):
        psi = Moment(X * EmbedFunc(E(Y)))
        normalized = normalize_functional(psi)
        assert render_func(normalized) == "E[X]*E[Y]"
        for index in range(10):
            rng = trial_rng(7, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X", "Y"))
            assert evaluate_func(psi, space, binding) == evaluate_func(
                normalized, space, binding
            )

    def test_reciprocal_of_zero_functional(self):
        zero = E(X) - E(X)
        with pytest.raises(NormalizationError):
            normalize_functional(inv(zero))

    def test_quotient_semantics(self):
        # a P-free expression and its mean-embedded representative denote
        # the same parameter and normalize to the identical canonical form
        u = (X - E(X)) * (X - E(X))
        direct = Moment(u)
        embedded = Moment(EmbedFunc(Moment(u)))
        assert canonicalize_func(normalize_functional(direct)) == canonicalize_func(
            normalize_functional(embedded)
        )

    def test_evaluation_commutes_with_normalization(self):
        psi = E((X - E(X)) * (Y - E(Y))) + E(X) * E(Y)
        normalized = normalize_functional(psi)
        for index in range(20):
            rng = trial_rng(3, index)
            space = random_space(rng)
            binding = random_binding(rng, space, ("X", "Y"))
            assert evaluate_func(psi, space, binding) == evaluate_func(
                normalized, space, binding
            )


# ---------------------------------------------------------------------------
# soundness fuzz


def _random_rv(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return X
        if choice < 0.8:
            return Y
        return RvConst(Q(rng.randint(-3, 3)))
    if roll < 0.55:
        return rv_sum(_random_rv(rng, depth - 1), _random_rv(rng, depth - 1))
    if roll < 0.8:
        return rv_product(_random_rv(rng, depth - 1), _random_rv(rng, depth - 1))
    if roll < 0.9:
        return rv_pow(_random_rv(rng, depth - 1), rng.randint(1, 3))
    return EmbedFunc(E(_random_rv(rng, depth - 1)))


def _equivalent_rewrite(rng: random.Random, e):
    """Semantics-preserving transformation chosen at random."""
    kind = rng.randrange(5)
    if kind == 0:
        return rv_sum(e, RvConst(Q(0)))
    if kind == 1:
        return rv_product(RvConst(Q(1)), e)
    if kind == 2:
        return rv_sum(rv_product(RvConst(Q(2)), e), rv_product(RvConst(Q(-1)), e))
    if kind == 3:
        return rv_product(e, RvConst(Q(-1)), RvConst(Q(-1)))
    return rv_pow(e, 1)


def test_canonicalization_soundness_fuzz():
    agreements = disagreements = 0
    for index in range(500):
        rng = trial_rng(20240500, index)
        first = _random_rv(rng, rng.randint(1, 3))
        if rng.random() < 0.5:
            second = _equivalent_rewrite(rng, first)
        else:
            second = _random_rv(rng, rng.randint(1, 3))
        same_form = canonicalize_rv(first) == canonicalize_rv(second)
        evaluations_agree = True
        for jndex in range(20):
            sub_rng = trial_rng(index, jndex)
            space = random_space(sub_rng, max_outcomes=4)
            binding = random_binding(sub_rng, space, ("X", "Y"), low=-3, high=3)
            if evaluate_rv(first, space, binding) != evaluate_rv(
                second, space, binding
            ):
                evaluations_agree = False
                break
        if same_form:
            # identical canonical forms force agreement on every instance
            assert evaluations_agree
            agreements += 1
        if not evaluations_agree:
            # any evaluation disagreement forces distinct canonical forms
            assert not same_form
            disagreements += 1
    assert agreements >= 100
    assert disagreements >= 100


class TestSmoothAtoms:
    """A smooth functional is an opaque scalar atom of the normal form."""

    def test_equal_arguments_give_one_atom(self):
        for text in ("exp(E[X]) - exp(E[X*1])", "exp(E[X]) - exp(E[X + Y] - E[Y])"):
            assert canonicalize_func(parse_expression(text)).is_zero, text

    def test_different_arguments_differ(self):
        form = canonicalize_func(parse_expression("exp(E[X]) - exp(E[Y])"))
        assert not form.is_zero

    def test_smooth_atoms_sort_after_variables_and_moments(self):
        form = canonicalize_rv(EmbedFunc(Smooth("exp", E(X))) + E(X) + X)
        assert str(form) == "X + E[X] + exp(E[X])"

    def test_expectation_factors_a_smooth_atom_out(self):
        psi = normalize_functional(parse_expression("E[X*exp(E[Y] + E[Y])]"))
        assert render_func(psi) == "E[X]*exp(2*E[Y])"


def test_rational_form_string_parses_back_to_an_equal_form():
    form = canonicalize_func(parse_expression("(E[X]^2 - 3*E[Y])*inv(2*E[X] + E[Y]^3)"))
    assert not form.is_polynomial
    assert canonicalize_func(parse_expression(str(form))) == form


@pytest.mark.parametrize(
    "text, mode",
    [("Var(X)", "exact"), ("E[X*Y] - E[X]*E[Y]", "exact"), ("Cov(X,Y)*inv(Var(X))", "exact"),
     ("exp(E[X])", "float"), ("E[X*exp(E[Y])]", "float"), ("log(E[X])*Var(X)", "float")],
)
def test_form_with_opaque_functionals_reads_back_as_the_gradient(text, mode):
    """A gradient with each embedded functional kept whole, as a compiled
    estimand holds it, prints and canonicalizes back to the gradient's form."""
    eic = derive_eic(parse_expression(text), mode=mode).eic
    atoms = {}
    opaque = canonicalize_rv(eic, atoms)
    assert atoms and str(opaque)
    assert canonicalize_rv(rv_from_form(opaque)) == canonicalize_rv(eic)


def test_moment_atom_keeps_its_variables_in_name_order():
    """A monomial is a set, iterated in an order that follows hashing; the
    base monomial of a moment is sorted by name all the same."""
    names = ["Z2", "Y", "X", "W", "D", "C", "B", "A"]
    form = canonicalize_func(E(rv_product(*map(var, names))))
    assert str(form) == "E[A*B*C*D*W*X*Y*Z2]"
    assert form == CanonForm.from_atom(("m", tuple((name, 1) for name in sorted(names))))


# ---------------------------------------------------------------------------
# term order: the graded key against the monomial written out factor by factor


def _flattened_key(mono):
    """The key terms were once sorted by: each atom, in atom order, repeated
    by its exponent."""
    atoms = sorted(mono, key=lambda item: _atom_key(item[0]))
    degree = sum(exp for _, exp in mono)
    return (degree, tuple(_atom_key(atom) for atom, exp in atoms for _ in range(exp)))


_SMOOTH_NODES = [Smooth("exp", E(X)), Smooth("log", E(Y)), Smooth("exp", E(X) + 1)]
_ATOMS = [
    ("v", "X"),
    ("v", "Y"),
    ("v", "Z2"),
    ("m", (("X", 1),)),
    ("m", (("X", 2),)),
    ("m", (("X", 10),)),  # sorts before X^2 as a string
    ("m", (("X", 1), ("Y", 1))),
    ("m", (("Y", 3),)),
    *(("s", (render_func(node), node)) for node in _SMOOTH_NODES),
]
monomials = st.dictionaries(
    st.sampled_from(_ATOMS), st.integers(1, 12), max_size=4
).map(lambda exps: frozenset(exps.items()))


@settings(max_examples=300, deadline=None)
@given(st.lists(monomials, min_size=2, max_size=12))
def test_graded_key_orders_as_the_flattened_key(monos):
    assert sorted(monos, key=_mono_key) == sorted(monos, key=_flattened_key)
