"""Expression construction, evaluation, and rendering."""

import operator
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eicalg.errors import EvaluationError, ExactModeError
from eicalg.expr import (
    E,
    EmbedFunc,
    FuncConst,
    FuncExpr,
    IntPower,
    RvExpr,
    RvConst,
    RvProduct,
    RvSum,
    Smooth,
    evaluate_func,
    evaluate_rv,
    f_pow,
    f_product,
    f_sum,
    inv,
    render_func,
    rv_embed,
    rv_pow,
    rv_product,
    rv_sum,
    var,
)
from eicalg.measure import FiniteProbSpace, center


def halves():
    return FiniteProbSpace(("a", "b"), (Q(1, 2), Q(1, 2)))


X = var("X")
Y = var("Y")


class TestConstruction:
    def test_sums_flatten(self):
        e = (X + Y) + X
        assert isinstance(e, RvSum)
        assert len(e.terms) == 3

    def test_constants_fold(self):
        assert X + 2 + 3 == X + 5
        assert 2 * (3 * X) == 6 * X
        assert (X + 0) == X
        assert 1 * X == X
        assert 0 * X == RvConst(Q(0))

    def test_nodes_keep_at_least_two_children(self):
        e = rv_sum(X, RvConst(Q(0)))
        assert e == X
        e = rv_sum(X, Y)
        assert isinstance(e, RvSum) and len(e.terms) == 2

    def test_power_edge_cases(self):
        assert rv_pow(X, 0) == RvConst(Q(1))
        assert rv_pow(X, 1) == X
        assert isinstance(X**2, IntPower)
        with pytest.raises(ValueError):
            IntPower(X, 0)

    def test_embedded_constant_folds(self):
        from eicalg.expr import rv_embed

        assert rv_embed(FuncConst(Q(2))) == RvConst(Q(2))
        assert (E(X) * 0) == FuncConst(Q(0))
        assert (X * E(X)) * 0 == RvConst(Q(0))

    def test_cross_family_coercion(self):
        e = X - E(X)
        assert isinstance(e, RvSum)
        embedded = [t for t in e.terms if isinstance(t, (RvProduct, EmbedFunc))]
        assert embedded

    def test_unknown_smooth_tag_rejected(self):
        with pytest.raises(ValueError):
            Smooth("tanh", E(X))


class TestEvaluateRv:
    def test_base_variable(self):
        sp = halves()
        vx = sp.variable((0, 1))
        assert evaluate_rv(X, sp, {"X": vx}) == vx

    def test_centered_expression_matches_operator(self):
        sp = halves()
        vx = sp.variable((0, 1))
        got = evaluate_rv(X - E(X), sp, {"X": vx})
        assert got == center(sp, vx)
        assert got.values == (Q(-1, 2), Q(1, 2))

    def test_embedded_moment(self):
        sp = halves()
        vx = sp.variable((0, 1))
        got = evaluate_rv(EmbedFunc(E(X * Y)), sp, {"X": vx, "Y": vx})
        assert got.values == (Q(1, 2), Q(1, 2))

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            evaluate_rv(X, halves(), {})

    def test_binding_space_checked(self):
        other = FiniteProbSpace(("a", "b", "c"), (Q(1, 3), Q(1, 3), Q(1, 3)))
        with pytest.raises(EvaluationError):
            evaluate_rv(X, halves(), {"X": other.variable((1, 2, 3))})


class TestEvaluateFunc:
    def test_variance_instance(self):
        sp = halves()
        vx = sp.variable((0, 1))
        variance = E(X**2) - E(X) ** 2
        assert evaluate_func(variance, sp, {"X": vx}) == Q(1, 4)

    def test_constant(self):
        assert evaluate_func(FuncConst(Q(5, 7)), halves(), {}) == Q(5, 7)

    def test_covariance_of_self_is_variance(self):
        sp = halves()
        vx = sp.variable((0, 1))
        cov = E(X * Y) - E(X) * E(Y)
        variance = E(X**2) - E(X) ** 2
        assert evaluate_func(cov, sp, {"X": vx, "Y": vx}) == evaluate_func(
            variance, sp, {"X": vx}
        )

    def test_reciprocal_of_zero(self):
        sp = halves()
        vx = sp.variable((-1, 1))
        with pytest.raises(EvaluationError):
            evaluate_func(inv(E(X)), sp, {"X": vx})

    def test_smooth_requires_float_mode(self):
        sp = halves()
        vx = sp.variable((1, 2))
        psi = Smooth("log", E(X))
        with pytest.raises(ExactModeError):
            evaluate_func(psi, sp, {"X": vx})
        import math

        got = evaluate_func(psi, sp, {"X": vx}, mode="float")
        assert got == pytest.approx(math.log(1.5))

    def test_float_mode_returns_float(self):
        sp = halves()
        vx = sp.variable((0, 1))
        got = evaluate_func(E(X), sp, {"X": vx}, mode="float")
        assert isinstance(got, float) and got == 0.5


class TestRendering:
    def test_plain_forms(self):
        assert str(E(X * Y) - E(X) * E(Y)) == "E[X*Y] - E[X]*E[Y]"
        assert str(X - E(X)) == "X - E[X]"
        assert str((X + Y) ** 2) == "(X + Y)^2"
        assert str(inv(E(X))) == "inv(E[X])"

    def test_negative_leading_term(self):
        assert str(RvConst(Q(-1)) * X) == "0 - X"
        assert render_func(FuncConst(Q(-3, 2))) == "0 - 1.5"

    def test_exact_decimal_constants(self):
        assert str(RvConst(Q(1, 4)) * X) == "0.25*X"
        assert str(RvConst(Q(3))) == "3"

    def test_non_decimal_constant_falls_back_to_inv(self):
        assert render_func(FuncConst(Q(1, 3))) == "inv(3)"
        assert render_func(FuncConst(Q(2, 3))) == "2*inv(3)"


# The operators as each family defined them before the two families shared
# one set: every formula coerces its operand by hand, and subtraction
# negates in the result's family.


def _old_as_rv(x):
    if isinstance(x, RvExpr):
        return x
    if isinstance(x, FuncExpr):
        return rv_embed(x)
    return RvConst(x)


def _old_as_func(x):
    return x if isinstance(x, FuncExpr) else FuncConst(x)


def _old_rv_neg(e):
    return rv_product(RvConst(Q(-1)), e)


def _old_f_neg(f):
    return f_product(FuncConst(Q(-1)), f)


_OLD_RV = {
    "add": lambda s, o: rv_sum(s, _old_as_rv(o)),
    "radd": lambda s, o: rv_sum(_old_as_rv(o), s),
    "sub": lambda s, o: rv_sum(s, _old_rv_neg(_old_as_rv(o))),
    "rsub": lambda s, o: rv_sum(_old_as_rv(o), _old_rv_neg(s)),
    "mul": lambda s, o: rv_product(s, _old_as_rv(o)),
    "rmul": lambda s, o: rv_product(_old_as_rv(o), s),
    "neg": _old_rv_neg,
}


def _old_func_op(rv_formula, func_formula):
    """A FuncExpr operator: the RvExpr formula once the other operand is one."""

    def op(s, o):
        if isinstance(o, RvExpr):
            return rv_formula(rv_embed(s), o)
        return func_formula(s, _old_as_func(o))

    return op


_OLD_FUNC = {
    "add": _old_func_op(_OLD_RV["add"], lambda s, o: f_sum(s, o)),
    "radd": _old_func_op(_OLD_RV["radd"], lambda s, o: f_sum(o, s)),
    "sub": _old_func_op(_OLD_RV["sub"], lambda s, o: f_sum(s, _old_f_neg(o))),
    "rsub": _old_func_op(_OLD_RV["rsub"], lambda s, o: f_sum(o, _old_f_neg(s))),
    "mul": _old_func_op(_OLD_RV["mul"], lambda s, o: f_product(s, o)),
    "rmul": _old_func_op(_OLD_RV["rmul"], lambda s, o: f_product(o, s)),
    "neg": _old_f_neg,
}


def _old(name, e, *other):
    return (_OLD_RV if isinstance(e, RvExpr) else _OLD_FUNC)[name](e, *other)


def _as_func_tree(t):
    return t if isinstance(t, FuncExpr) else E(t)


_constants = st.sampled_from([Q(-1), Q(0), Q(1), Q(2), Q(1, 2), Q(-3, 4)])
_leaves = st.one_of(
    st.sampled_from([X, Y]), _constants.map(RvConst), _constants.map(FuncConst)
)


def _extend(children):
    funcs = children.map(_as_func_tree)
    return st.one_of(
        st.builds(rv_sum, children, children),
        st.builds(rv_product, children, children),
        st.builds(rv_pow, children, st.integers(0, 2)),
        st.builds(f_sum, funcs, funcs),
        st.builds(f_product, funcs, funcs),
        st.builds(f_pow, funcs, st.integers(0, 2)),
        st.builds(lambda c: inv(E(c)), children),
    )


_trees = st.recursive(_leaves, _extend, max_leaves=6)
_operands = st.one_of(
    _trees.map(lambda t: t if isinstance(t, RvExpr) else rv_embed(t)),
    _trees.map(_as_func_tree),
    st.integers(-3, 3),
    _constants,
)
_EXPRS = (RvExpr, FuncExpr)


class TestOperatorOracle:
    """The shared operators build the same trees as the per-family ones."""

    @settings(max_examples=300, deadline=None)
    @given(_operands, _operands)
    def test_binary_operators(self, a, b):
        if not isinstance(a, _EXPRS) and not isinstance(b, _EXPRS):
            return
        for name in ("add", "sub", "mul"):
            got = getattr(operator, name)(a, b)
            # Python tries the left operand's forward method first; the old
            # forward methods never returned NotImplemented
            if isinstance(a, _EXPRS):
                want = _old(name, a, b)
            else:
                want = _old("r" + name, b, a)
            assert got == want, name
            if isinstance(b, _EXPRS):
                reflected = getattr(b, f"__r{name}__")(a)
                assert reflected == _old("r" + name, b, a), "r" + name

    @settings(max_examples=200, deadline=None)
    @given(_operands.filter(lambda e: isinstance(e, _EXPRS)))
    def test_unary_minus(self, e):
        assert -e == _old("neg", e)


class TestCachedHash:
    """Each node hashes its fields once; equal trees hash equal, and a tree
    sent through pickle takes no hash along."""

    @settings(max_examples=200, deadline=None)
    @given(_trees)
    def test_equal_trees_hash_equal(self, t):
        hash(t)
        twin = pickle.loads(pickle.dumps(t))
        assert twin == t and twin is not t and "_hash" not in twin.__dict__
        assert hash(twin) == hash(t) == hash(tuple(getattr(t, f.name) for f in fields(t)))
        assert {t: 1}[twin] == 1

    def test_pickled_tree_is_found_in_another_process(self):
        tree = E(X * Y) - E(X) * E(Y)
        hash(tree)
        script = (
            "import pickle, sys\n"
            "from eicalg.expr import E, var\n"
            "X, Y = var('X'), var('Y')\n"
            "tree = pickle.loads(sys.stdin.buffer.read())\n"
            "print({E(X * Y) - E(X) * E(Y): 'found'}.get(tree))\n"
        )
        import eicalg

        source = os.path.dirname(os.path.dirname(eicalg.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": source}
        out = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(tree),
            capture_output=True, env=env, check=True,
        ).stdout
        assert out == b"found\n"
