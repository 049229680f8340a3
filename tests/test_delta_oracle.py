"""Delta-method oracle for the derived gradients.

For an estimand psi = F(m_1, ..., m_K) of primitive moments m_k = E[mu_k],
the efficient influence curve is sum_k dF/dm_k * (mu_k - m_k) (van der
Vaart, *Asymptotic Statistics*, ch. 20 and 25).  Both sides are translated
to sympy with ``test_canon_oracle.to_sympy``, which writes each moment by
linearity in symbols ``E[X*Y^2]`` of the primitive moments; sympy's
``diff`` then gives the delta-method gradient without calling
``eicalg.eic``.  The undefined functions ``to_sympy`` makes of smooth
atoms are mapped to sympy's ``exp``, ``log`` and ``sqrt`` first: their
derivatives are otherwise left unevaluated, and a check would compare
nothing.

The two gradients are compared at three seeded rational points, which give
each base variable and each moment symbol its own value: exactly in exact
mode, and in float mode to a relative tolerance of 1e-30, after
substituting exactly and evaluating with 50 significant digits, or, where
terms that cancel leave fewer correct digits than that, with a working
precision raised by the digits of the largest term of any sum.  A point
where either side is undefined (a zero denominator) is not compared, and
the next seeded point is drawn in its place, up to 20 points in all; each
check counts the points it compared and fails if that is none.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings

from eicalg.eic import derive_eic
from eicalg.errors import NormalizationError
from eicalg.expr import E, EmbedFunc, Smooth, inv, rv_pow, var
from eicalg.parser import parse_expression
from test_canon_oracle import to_sympy, trees
from workloads import derive_corpus, grammar_expression

POINTS = 3
MAX_DRAWS = 20
DIGITS = 50
TOLERANCE = sympy.Rational(1, 10**30)
SMOOTH = {
    sympy.Function("exp"): sympy.exp,
    sympy.Function("log"): sympy.log,
    sympy.Function("sqrt"): sympy.sqrt,
}


def translate(e):
    """``to_sympy`` with its smooth atoms mapped to sympy's real functions."""
    value = to_sympy(e)
    for undefined, real in SMOOTH.items():
        value = value.replace(undefined, real)
    return value


def monomial(moment):
    """The random variable mu_k of a moment symbol ``E[X*Y^2]``."""
    powers = (factor.partition("^") for factor in moment.name[2:-1].split("*"))
    return sympy.Mul(*(sympy.Symbol(base) ** int(k or 1) for base, _, k in powers))


def delta_gradient(psi):
    F = translate(psi)
    moments = [s for s in F.free_symbols if s.name.startswith("E[")]
    return sympy.Add(*(sympy.diff(F, m) * (monomial(m) - m) for m in moments))


def _rational(rng):
    return sympy.Rational(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))


def _term_digits(*values) -> int:
    """Decimal digits before the point of the largest term of any sum in
    ``values``, each term valued at 15 digits."""
    digits = 0
    for value in values:
        for sum_ in (e for e in sympy.preorder_traversal(value) if e.is_Add):
            for term in sum_.args:
                size = abs(term.evalf(15))
                if size.is_finite and size > 1:
                    digits = max(digits, int(sympy.log(size, 10).evalf(15)) + 1)
    return digits


def _agree(a, b):
    """Whether ``a`` and ``b`` agree to the tolerance at :data:`DIGITS`
    digits.  A sum whose large terms cancel has fewer correct digits than
    the precision it is evaluated at, so if they do not agree at first,
    sympy may raise its working precision (``maxn``) by the digits of the
    largest term of any sum in either."""
    x, y = a.evalf(DIGITS), b.evalf(DIGITS)
    if abs(x - y) > TOLERANCE * max(1, abs(x), abs(y)):
        maxn = 2 * DIGITS + _term_digits(a, b)
        x, y = a.evalf(DIGITS, maxn=maxn), b.evalf(DIGITS, maxn=maxn)
    return abs(x - y) <= TOLERANCE * max(1, abs(x), abs(y))


def compared_points(psi, mode, label):
    """The number of seeded points, up to :data:`POINTS`, at which derive's
    gradient of ``psi`` and the delta-method gradient were both defined;
    they must agree at each of them.  Points are drawn in seed order until
    :data:`POINTS` are compared or :data:`MAX_DRAWS` were drawn."""
    got = translate(derive_eic(psi, mode).eic)
    want = delta_gradient(psi)
    symbols = sorted(got.free_symbols | want.free_symbols, key=lambda s: s.name)
    compared = 0
    for index in range(MAX_DRAWS):
        if compared == POINTS:
            break
        rng = random.Random(f"delta-oracle:{label}:{index}")
        point = {s: _rational(rng) for s in symbols}
        a, b = got.xreplace(point), want.xreplace(point)
        if mode == "exact":
            if not (a.is_Rational and b.is_Rational):
                continue
            assert a == b, (label, point)
        else:
            if not (a.evalf(DIGITS).is_finite and b.evalf(DIGITS).is_finite):
                continue
            assert _agree(a, b), (label, point)
        compared += 1
    return compared


def _float_expression(rng, depth):
    """The grammar's expressions under exp, log and sqrt, inside and
    outside moments."""
    if depth <= 0:
        return grammar_expression(rng, 1)
    a, b = _float_expression(rng, depth - 1), _float_expression(rng, depth - 1)
    smooth = rng.choice([f"exp({a})", f"log(({a})^2 + 1)", f"sqrt(({a})^2 + 2)"])
    kind = rng.randrange(4)
    if kind == 0:
        return smooth
    if kind == 1:
        return f"({a})*({b})"
    if kind == 2:
        return f"E[X*{smooth}] + {b}"
    return f"({a})^{rng.randint(0, 3)}"


def test_every_corpus_gradient_is_the_delta_method_gradient():
    unchecked = []
    for index, text in enumerate(derive_corpus()):
        if compared_points(parse_expression(text), "exact", f"corpus:{index}") == 0:
            unchecked.append(text)
    assert not unchecked


def test_float_gradients_of_smooth_estimands():
    unchecked = []
    for index in range(60):
        rng = random.Random(f"delta-oracle-float:{index}")
        text = _float_expression(rng, rng.randint(1, 2))
        if compared_points(parse_expression(text), "float", f"float:{index}") == 0:
            unchecked.append(text)
    assert not unchecked


# E[X^2] = -1 at the first three points of E[E[inv(E[E[X^2]] + 1)]], so
# its gradient is undefined there
_UNDEFINED_AT_FIRST_POINTS = EmbedFunc(E(EmbedFunc(inv(E(EmbedFunc(E(rv_pow(var("X"), 2)))) + 1))))
# the covariance of these two is 0, and derive's gradient of it sums terms of
# size exp(530) that cancel at the first point: 4e71 at 50 digits, 1e-175 at 200
_HUGE_CANCELLING_TERMS = (
    EmbedFunc(Smooth("exp", E(var("Y") + EmbedFunc(E(var("X"))) ** 3))),
    EmbedFunc(inv(E(var("X")) + 1)) + EmbedFunc(Smooth("exp", E(var("Y")))),
)
# at the point E[X] = 9 of the covariance of these two, derive's gradient
# sums terms near exp(2*exp(9)), about 1e7038, that cancel
_NESTED_EXP = EmbedFunc(Smooth("exp", E(EmbedFunc(Smooth("exp", E(EmbedFunc(E(var("X")))))))))
_TERMS_OF_7038_DIGITS = (
    var("X") + _NESTED_EXP - 2,
    _NESTED_EXP + EmbedFunc(Smooth("exp", E(var("X")))),
)


@settings(max_examples=60, deadline=None)
@given(trees, trees)
@example(_UNDEFINED_AT_FIRST_POINTS, var("X"))
@example(*_HUGE_CANCELLING_TERMS)
@example(*_TERMS_OF_7038_DIGITS)
def test_estimands_with_embedded_functionals(a, b):
    for psi in (E(a), E(a) * inv(E(b) + 1), E(a * b) - E(a) * E(b)):
        try:
            compared = compared_points(psi, "float", repr(psi))
        except NormalizationError:  # a reciprocal of zero, which canon rejects
            continue
        assert compared > 0, str(psi)
