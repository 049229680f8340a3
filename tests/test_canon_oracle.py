"""Differential oracle for the canonical-form kernel, through sympy.

Expression trees are translated to sympy without calling ``eicalg.canon``:
base variables and primitive moments become symbols, ``E[...]`` is applied
by linearity over the monomials of a ``sympy.Poly`` in the base variables,
and a smooth functional becomes an undefined sympy function of its
cancelled argument.  Two expressions then have equal canonical forms
exactly when ``sympy.cancel`` of their difference is zero, and a
normalized functional cancels against the one it came from.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings
from hypothesis import strategies as st

from eicalg.canon import canonicalize_func, normalize_functional
from eicalg.errors import NormalizationError
from eicalg.expr import (
    BaseVar,
    E,
    EmbedFunc,
    FuncConst,
    FuncPower,
    FuncProduct,
    FuncSum,
    IntPower,
    Moment,
    Reciprocal,
    RvConst,
    RvProduct,
    RvSum,
    Smooth,
    inv,
    rv_pow,
    rv_product,
    rv_sum,
    var,
)
from eicalg.parser import parse_expression
from workloads import grammar_expression


def _moment_symbol(base, exps):
    inner = "*".join(
        s.name if k == 1 else f"{s.name}^{k}" for s, k in zip(base, exps) if k
    )
    return sympy.Symbol(f"E[{inner}]") if inner else sympy.Integer(1)


def _expectation(a):
    """E[a] by linearity: moment symbols and functions of them are scalars."""
    base = sorted(
        (s for s in a.free_symbols if not s.name.startswith("E[")),
        key=lambda s: s.name,
    )
    if not base:
        return a
    poly = sympy.Poly(a, *base)
    return sympy.Add(
        *(coeff * _moment_symbol(base, exps) for exps, coeff in poly.terms())
    )


def to_sympy(e):
    if isinstance(e, BaseVar):
        return sympy.Symbol(e.name)
    if isinstance(e, (RvConst, FuncConst)):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, EmbedFunc):
        return to_sympy(e.func)
    if isinstance(e, (RvSum, FuncSum)):
        return sympy.Add(*(to_sympy(t) for t in e.terms))
    if isinstance(e, (RvProduct, FuncProduct)):
        return sympy.Mul(*(to_sympy(f) for f in e.factors))
    if isinstance(e, (IntPower, FuncPower)):
        return to_sympy(e.base) ** e.exponent
    if isinstance(e, Reciprocal):
        return 1 / to_sympy(e.arg)
    if isinstance(e, Smooth):
        return sympy.Function(e.tag)(sympy.cancel(to_sympy(e.arg)))
    if isinstance(e, Moment):
        return _expectation(to_sympy(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def verdicts(first, second):
    """(canon says equal, sympy says equal), or None if a reciprocal's
    argument is zero, which canon rejects."""
    try:
        same_form = canonicalize_func(first) == canonicalize_func(second)
    except NormalizationError:
        return None
    difference = sympy.cancel(to_sympy(first) - to_sympy(second))
    return same_form, difference == 0


def _corpus_pairs(rng):
    """Text pairs: rewrites that keep the value, a near miss, an unrelated pair."""
    a = grammar_expression(rng, rng.randint(1, 3))
    b = grammar_expression(rng, rng.randint(1, 3))
    return [
        (a, f"2*({a}) - ({a}) + 0"),
        (a, f"E[{a}]"),
        (f"({a} + {b})^2", f"({a})^2 + 2*({a})*({b}) + ({b})^2"),
        (f"({a} + {b})^2", f"({a})^2 + ({b})^2"),
        (f"E[{a} + {b}]", f"E[{a}] + E[{b}]"),
        (f"E[E[{a}]*({b})]", f"E[{a}]*E[{b}]"),
        (f"E[({a})*inv(E[{b}] + 1)]", f"E[{a}]*inv(E[{b}] + 1)"),
        (a, b),
    ]


def test_canon_equality_matches_sympy_on_the_grammar_corpus():
    counts = {True: 0, False: 0}
    for index in range(60):
        rng = random.Random(7000 + index)
        for left, right in _corpus_pairs(rng):
            first, second = parse_expression(left), parse_expression(right)
            pair = verdicts(first, second)
            if pair is None:
                continue
            same_form, sympy_equal = pair
            assert same_form == sympy_equal, (left, right)
            counts[same_form] += 1
            normalized = to_sympy(normalize_functional(first))
            assert sympy.cancel(normalized - to_sympy(first)) == 0, left
    assert counts[True] >= 200
    assert counts[False] >= 60


X, Y = var("X"), var("Y")

constants = [RvConst(0), RvConst(1), RvConst(-2), RvConst(Fraction(1, 3))]
leaves = st.sampled_from([X, Y, *constants, EmbedFunc(E(X))])


def _extend(children):
    return st.one_of(
        st.builds(rv_sum, children, children),
        st.builds(rv_product, children, children),
        st.builds(rv_pow, children, st.integers(1, 3)),
        st.builds(lambda c: EmbedFunc(E(c)), children),
        st.builds(lambda c: EmbedFunc(inv(E(c) + 1)), children),
        st.builds(lambda c: EmbedFunc(Smooth("exp", E(c))), children),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(trees, trees)
def test_canon_equality_matches_sympy_on_generated_trees(a, b):
    pairs = [
        (E(a), E(b)),
        (E(rv_pow(rv_sum(a, b), 2)), E(a * a + 2 * a * b + b * b)),
        (E(a * EmbedFunc(E(b))), E(a) * E(b)),
        (E(rv_sum(a, b)), E(b) + E(a)),
    ]
    for first, second in pairs:
        pair = verdicts(first, second)
        if pair is not None:
            assert pair[0] == pair[1], (str(first), str(second))
