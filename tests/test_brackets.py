"""Bracket operators: frozen instances, properties, and the symbolic suite.

The frozen expected vectors below were computed with the direct brute-force
evaluator (plain vector arithmetic over the finite space), which is the
oracle of record for instance values.
"""

import sys
import threading
from fractions import Fraction as Q

import pytest
from hypothesis import given

from conftest import negate_first_centering, small_rationals, space_and_vars
from eicalg import brackets, measure, verify
from eicalg.brackets import (
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
from eicalg.errors import SpaceMismatchError
from eicalg.measure import FiniteProbSpace, RandVar, covariance, embed, expectation

SP = FiniteProbSpace(("a", "b"), (Q(1, 2), Q(1, 2)))
IND = SP.variable((0, 1))  # indicator of the second outcome
FLIP = SP.variable((1, 0))


class TestElementaryBrackets:
    def test_constant_commutes_with_expectation(self):
        assert bracket_P_prod(SP, embed(Q(7, 2), SP), IND) == 0

    def test_bernoulli_half(self):
        assert bracket_P_prod(SP, IND, IND) == Q(1, 4)

    def test_prod_T_frozen_instance(self):
        # (T ind)^2 = (1/4, 1/4); centered ind^2 = (-1/2, 1/2)
        assert bracket_prod_T(SP, IND, IND).values == (Q(3, 4), Q(-1, 4))

    def test_prod_T_constant_first_argument(self):
        # (T1)(TY) = 0, so the bracket reduces to minus the centered product
        got = bracket_prod_T(SP, embed(1, SP), IND)
        assert got.values == (Q(1, 2), Q(-1, 2))

    def test_T_P_frozen_instance(self):
        first, second = bracket_T_P(SP, IND, FLIP)
        assert first.values == (Q(-1, 2), Q(1, 2))
        assert second.values == (Q(1, 2), Q(-1, 2))

    def test_T_P_constants(self):
        first, second = bracket_T_P(SP, embed(3, SP), embed(Q(-1, 5), SP))
        assert first.is_zero() and second.is_zero()

    @given(space_and_vars(count=2))
    def test_bracket_equals_covariance(self, sv):
        space, x, y = sv
        assert bracket_P_prod(space, x, y) == covariance(space, x, y)
        assert bracket_P_prod(space, x, y) == bracket_P_prod(space, y, x)

    @given(space_and_vars(count=2))
    def test_prod_T_has_covariance_mean(self, sv):
        space, x, y = sv
        got = bracket_prod_T(space, x, y)
        assert expectation(space, got) == bracket_P_prod(space, x, y)

    @given(space_and_vars(count=2))
    def test_T_P_components_mean_zero(self, sv):
        space, x, y = sv
        first, second = bracket_T_P(space, x, y)
        assert expectation(space, first) == 0
        assert expectation(space, second) == 0

    def test_codomain_types(self):
        assert isinstance(bracket_P_prod(SP, IND, FLIP), Q)
        assert isinstance(bracket_prod_T(SP, IND, FLIP), RandVar)
        pair = bracket_T_P(SP, IND, FLIP)
        assert isinstance(pair, tuple) and len(pair) == 2
        assert all(isinstance(part, RandVar) for part in pair)

    @given(space_and_vars(count=3), small_rationals, small_rationals)
    def test_bilinearity_of_covariance_bracket(self, sv, a, b):
        space, x, y, z = sv
        assert bracket_P_prod(space, a * x + b * y, z) == a * bracket_P_prod(
            space, x, z
        ) + b * bracket_P_prod(space, y, z)

    @given(space_and_vars(count=3), small_rationals, small_rationals)
    def test_bilinearity_of_product_centering_bracket(self, sv, a, b):
        space, x, y, z = sv
        combined = bracket_prod_T(space, a * x + b * y, z)
        assert combined == a * bracket_prod_T(space, x, z) + b * bracket_prod_T(
            space, y, z
        )

    @given(space_and_vars(count=3), small_rationals, small_rationals)
    def test_slotwise_linearity_of_pair_bracket(self, sv, a, b):
        space, x, y, z = sv
        first, second = bracket_T_P(space, a * x + b * y, z)
        fx, _ = bracket_T_P(space, x, z)
        fy, _ = bracket_T_P(space, y, z)
        assert first == a * fx + b * fy
        _, sz = bracket_T_P(space, x, z)
        assert second == sz


class TestNestedBrackets:
    def test_first_piece_frozen_instance(self):
        assert nested_T_P_prod(SP, IND, IND).values == (Q(-1, 4), Q(-1, 4))

    def test_first_piece_constant_argument(self):
        assert nested_T_P_prod(SP, embed(2, SP), IND).is_zero()

    def test_first_piece_mean_is_minus_covariance(self):
        got = nested_T_P_prod(SP, IND, IND)
        assert expectation(SP, got) == -covariance(SP, IND, IND)

    def test_second_piece_frozen_instance(self):
        assert nested_P_prod_T(SP, IND, IND).values == (Q(-1, 2), Q(1, 2))

    def test_second_piece_constants(self):
        assert nested_P_prod_T(SP, embed(1, SP), embed(2, SP)).is_zero()

    @given(space_and_vars(count=2))
    def test_second_piece_mean_zero(self, sv):
        space, x, y = sv
        assert expectation(space, nested_P_prod_T(space, x, y)) == 0

    def test_third_piece_frozen_instance(self):
        assert nested_prod_T_P(SP, IND, IND).values == (Q(3, 4), Q(-1, 4))

    def test_third_piece_constants(self):
        assert nested_prod_T_P(SP, embed(4, SP), embed(5, SP)).is_zero()

    def test_jacobi_frozen_instance(self):
        assert jacobi_sum(SP, IND, IND).is_zero()

    def test_jacobi_constants(self):
        assert jacobi_sum(SP, embed(2, SP), embed(Q(1, 3), SP)).is_zero()

    @given(space_and_vars(count=2))
    def test_jacobi_vanishes(self, sv):
        space, x, y = sv
        assert jacobi_sum(space, x, y).is_zero()


class TestCorollaries:
    def test_leibniz_constants(self):
        lhs, rhs = corollary_leibniz(SP, embed(1, SP), embed(2, SP))
        assert lhs == rhs

    def test_leibniz_frozen_instance(self):
        lhs, rhs = corollary_leibniz(SP, IND, IND)
        assert lhs == rhs
        assert lhs.values == (Q(-1, 4), Q(3, 4))

    def test_cov_frozen_instance(self):
        lhs, rhs = corollary_cov(SP, IND, IND)
        assert lhs == rhs
        assert lhs.values == (Q(1, 4), Q(1, 4))

    @given(space_and_vars(count=2))
    def test_both_corollaries_hold(self, sv):
        space, x, y = sv
        lhs, rhs = corollary_leibniz(space, x, y)
        assert lhs == rhs
        mx, my = expectation(space, x), expectation(space, y)
        assert lhs == x * y - mx * my
        lhs, rhs = corollary_cov(space, x, y)
        assert lhs == rhs
        assert lhs == (x - mx) * (y - my)


class TestSymbolicSuite:
    def test_every_identity_passes(self):
        records = symbolic_identity_suite()
        assert len(records) == 11
        for record in records:
            assert record.passed, record.name

    def test_expected_names_present(self):
        names = {r.name for r in symbolic_identity_suite()}
        assert "jacobi-identity" in names
        assert "covariance-bracket" in names
        assert any(n.startswith("lemma-piece-") for n in names)


class TestFaultInjection:
    def test_negated_centering_breaks_jacobi(self, monkeypatch):
        negate_first_centering(monkeypatch)
        total = jacobi_sum(SP, IND, FLIP)
        # under the fault, the sum collapses to twice the covariance
        assert total == embed(2 * covariance(SP, IND, FLIP), SP)
        assert not total.is_zero()

    def test_clean_build_unaffected(self):
        assert jacobi_sum(SP, IND, FLIP).is_zero()


NINE = (
    bracket_P_prod, bracket_prod_T, bracket_T_P, nested_T_P_prod, nested_P_prod_T,
    nested_prod_T_P, jacobi_sum, corollary_leibniz, corollary_cov,
)


class TestOneModelPerPass:
    """Inside a verify pass the bracket functions share one model per space;
    it keeps each mean, centering and product under the vector's numbers."""

    @pytest.mark.parametrize("in_pass", [False, True], ids=["outside", "inside"])
    @pytest.mark.parametrize("bracket", NINE, ids=lambda f: f.__name__)
    def test_vector_of_another_space_refused(self, bracket, in_pass):
        """The same numbers on another two-outcome space are not served
        what the model keeps for IND."""
        other = FiniteProbSpace(("a", "b"), (Q(1, 3), Q(2, 3))).variable(IND.values)
        token = brackets._PASS.set([None] if in_pass else None)
        try:
            bracket(SP, IND, IND)
            assert (brackets._numeric(SP) is brackets._numeric(SP)) == in_pass
            with pytest.raises(SpaceMismatchError):
                bracket(SP, IND, other)
        finally:
            brackets._PASS.reset(token)

    def test_no_model_outlives_the_pass(self, monkeypatch):
        seen, jacobi = [], brackets.jacobi_sum

        def recording(space, x, y):
            total = jacobi(space, x, y)
            seen.append(brackets._PASS.get()[0].space is space)
            return total

        monkeypatch.setattr(brackets, "jacobi_sum", recording)
        verify.run_suite("jacobi", 5, 0, 8)
        assert seen == [True] * 5
        assert brackets._PASS.get() is None

        def broken(*args):
            raise RuntimeError("a check that breaks off the pass")

        monkeypatch.setattr(brackets, "jacobi_sum", broken)
        with pytest.raises(RuntimeError):
            verify.run_suite("jacobi", 5, 0, 8)
        assert brackets._PASS.get() is None

    def test_concurrent_passes_keep_apart(self):
        """Passes on more threads than cores, switching often, each keep to
        their own models: a model served to another pass is of another
        space, so a check would raise or its record change."""
        seeds = (3, 4, 5)
        serial = [verify.run_suite("all", 50, seed, 8) for seed in seeds]
        start, got = threading.Barrier(len(seeds)), {}

        def run(seed):
            start.wait()
            got[seed] = verify.run_suite("all", 50, seed, 8)

        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [got[seed] for seed in seeds] == serial

    def test_vectors_built_by_one_verify_call(self, monkeypatch):
        """Each instance is valued once on the bracket route: 23,879 vectors
        when every bracket call built its own model, 17,981 with one."""
        calls, build = [], measure._vector
        monkeypatch.setattr(
            measure, "_vector", lambda *args: calls.append(1) or build(*args)
        )
        assert all(r.passed for r in verify.run_suite("all", 100, 1, 8))
        assert len(calls) < 19_000
