"""Canonical normal form for expressions and the functional normalizer.

The normal form is a fully expanded rational function over three kinds of
atoms: base-variable symbols, primitive-moment symbols keyed by a monomial
in base variables, and scalar symbols for everything else (``exp``,
``log``, ``sqrt`` of a functional in normal form, or an embedded functional
kept whole), kept opaque.  Moments and scalar atoms are constants, so
expectation factors both out alike.  Two expressions denote the same object
exactly when their canonical forms are equal.

Arithmetic is order-free: a monomial is an unordered set of atom powers and
a polynomial a dict from monomial to coefficient, so nothing is sorted
while forms are built.  Order is computed only where it is used, for the
printed term order and the leading term of a denominator: monomials are
ordered graded-lexicographically with base variables (alphabetical) before
moment atoms (by the canonical string of their inner monomial) and those
before scalar atoms (by their rendering).  The graded key (degree, ((atom
key, -exponent), ...)) has one entry per atom, not one per unit of degree.

Equality of rational forms is decided by cross-multiplication
(n1*d2 - n2*d1 == 0); no multivariate gcd machinery is needed.  The only
reduction applied is cancellation of a monomial factor common to every term
of numerator and denominator, plus normalizing the denominator's leading
coefficient to one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .errors import NormalizationError
from .expr import (
    BaseVar,
    EmbedFunc,
    FuncConst,
    FuncExpr,
    FuncPower,
    FuncProduct,
    FuncSum,
    IntPower,
    Moment,
    Reciprocal,
    RvConst,
    RvExpr,
    RvProduct,
    RvSum,
    Smooth,
    bounded_exponent,
    f_pow,
    f_product,
    f_recip,
    f_sum,
    render_func,
    rv_embed,
    rv_pow,
    rv_product,
    rv_sum,
)

__all__ = [
    "CanonForm",
    "canonicalize_rv",
    "canonicalize_func",
    "normalize_functional",
    "expectation_of_form",
    "func_from_form",
    "rv_from_form",
]

# A base monomial is a tuple of (variable name, exponent) sorted by name.
# An atom is ("v", name), ("m", base monomial) or ("s", (key, node)): node is
# a Smooth over a canonical argument, or an embedded functional kept whole
# (see ``canonicalize_rv``), and key its rendering, computed once because it
# orders the atom.  A monomial is a frozenset of (atom, exponent) pairs.  A
# polynomial is a dict from monomial to nonzero Fraction.  Forms share these
# dicts, so no code may mutate a form's ``num`` or ``den``.

BaseMono = tuple[tuple[str, int], ...]
Atom = tuple
Mono = frozenset
Poly = dict


def base_mono_string(mono: BaseMono) -> str:
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in mono)


def _atom_key(atom: Atom):
    kind, payload = atom
    if kind == "v":
        return (0, payload)
    if kind == "m":
        return (1, base_mono_string(payload))
    return (2, payload[0])


def _mono_key(mono: Mono):
    degree = sum(exp for _, exp in mono)
    return (degree, tuple(sorted((_atom_key(atom), -exp) for atom, exp in mono)))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not (a and b):
        return a or b
    exps = dict(a)
    for atom, exp in b:
        exps[atom] = exps.get(atom, 0) + exp
    return frozenset(exps.items())


def _p_const(c: Fraction) -> Poly:
    return {frozenset(): c} if c != 0 else {}


_ONE = _p_const(Fraction(1))  # shared, as every form's dicts are


def _p_atom(atom: Atom) -> Poly:
    return {frozenset({(atom, 1)}): Fraction(1)}


def _accumulate(out: Poly, terms) -> Poly:
    """``out`` with each (monomial, coefficient) of ``terms`` added in; a
    coefficient that sums to zero drops its monomial."""
    for mono, coeff in terms:
        new = out.get(mono, 0) + coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def _p_add(a: Poly, b: Poly) -> Poly:
    return _accumulate(dict(a), b.items())


def _p_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {mono: coeff * c for mono, coeff in a.items()}


def _p_mul(a: Poly, b: Poly) -> Poly:
    terms = ((_mono_mul(m1, m2), c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items())
    return _accumulate({}, terms)


def _p_leading_coeff(a: Poly) -> Fraction:
    mono = max(a, key=_mono_key)
    return a[mono]


def _common_mono_factor(polys: list[Poly]) -> Mono:
    """Largest monomial dividing every term of every polynomial."""
    shared = None
    for mono in (mono for p in polys for mono in p):
        exps = dict(mono)
        shared = exps if shared is None else {
            atom: min(exp, exps[atom]) for atom, exp in shared.items() if atom in exps
        }
        if not shared:
            return frozenset()
    return frozenset(shared.items())


def _mono_div(mono: Mono, divisor: Mono) -> Mono:
    return frozenset((Counter(dict(mono)) - Counter(dict(divisor))).items())


@dataclass(frozen=True, eq=False)
class CanonForm:
    """Rational-function normal form; equality via cross-multiplication."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "CanonForm":
        if not den:
            raise ZeroDivisionError("canonical form with zero denominator")
        if not num:
            return CanonForm({}, _ONE)
        if den == _ONE:  # nothing to cancel or scale
            return CanonForm(num, den)
        factor = _common_mono_factor([den, num])
        if factor:
            num = {_mono_div(m, factor): c for m, c in num.items()}
            den = {_mono_div(m, factor): c for m, c in den.items()}
        lead = _p_leading_coeff(den)
        if lead != 1:
            num = _p_scale(num, 1 / lead)
            den = _p_scale(den, 1 / lead)
        return CanonForm(num, den)

    @staticmethod
    def from_const(c) -> "CanonForm":
        return CanonForm.make(_p_const(Fraction(c)), _ONE)

    @staticmethod
    def zero() -> "CanonForm":
        return CanonForm.from_const(0)

    @staticmethod
    def one() -> "CanonForm":
        return CanonForm.from_const(1)

    @staticmethod
    def from_atom(atom: Atom) -> "CanonForm":
        return CanonForm.make(_p_atom(atom), _ONE)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def __eq__(self, other) -> bool:
        if not isinstance(other, CanonForm):
            return NotImplemented
        return _p_mul(self.num, other.den) == _p_mul(other.num, self.den)

    __hash__ = None  # equality is up to cross-multiplication

    def __add__(self, other: "CanonForm") -> "CanonForm":
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        return CanonForm.make(num, _p_mul(self.den, other.den))

    def __sub__(self, other: "CanonForm") -> "CanonForm":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "CanonForm") -> "CanonForm":
        return CanonForm.make(
            _p_mul(self.num, other.num), _p_mul(self.den, other.den)
        )

    def __pow__(self, n: int) -> "CanonForm":
        return reduce(mul, [self] * bounded_exponent(n), CanonForm.one())

    def scale(self, c: Fraction) -> "CanonForm":
        return CanonForm.make(_p_scale(self.num, c), self.den)

    def reciprocal(self) -> "CanonForm":
        if self.is_zero:
            raise NormalizationError("reciprocal of a functional equal to zero")
        return CanonForm.make(self.den, self.num)

    def __str__(self):
        return str(rv_from_form(self))


# ---------------------------------------------------------------------------
# canonicalization


def _canonicalize_shared(x, recurse) -> CanonForm:
    """Constant, sum, product and power nodes, which both families have;
    ``recurse`` is the entry point of the node's own family."""
    if isinstance(x, (RvConst, FuncConst)):
        return CanonForm.from_const(x.value)
    if isinstance(x, (RvSum, FuncSum)):
        forms = [recurse(term) for term in x.terms]
        if all(form.is_polynomial for form in forms):  # one pass, one make
            num = reduce(_accumulate, (form.num.items() for form in forms), {})
            return CanonForm.make(num, _ONE)
        return reduce(add, forms, CanonForm.zero())
    if isinstance(x, (RvProduct, FuncProduct)):
        return reduce(mul, map(recurse, x.factors), CanonForm.one())
    if isinstance(x, (IntPower, FuncPower)):
        return recurse(x.base) ** x.exponent
    raise TypeError(f"not an expression: {x!r}")


def canonicalize_rv(e: RvExpr, atoms: dict | None = None) -> CanonForm:
    """Fully expanded normal form of a random-variable expression.  Given
    ``atoms``, each embedded functional stays an opaque atom, and ``atoms``
    maps its rendering to it in walk order, cancelled ones included."""
    if isinstance(e, BaseVar):
        return CanonForm.from_atom(("v", e.name))
    if isinstance(e, EmbedFunc) and atoms is not None:
        key = render_func(e.func)
        return CanonForm.from_atom(("s", (key, atoms.setdefault(key, e.func))))
    if isinstance(e, EmbedFunc):
        return canonicalize_func(e.func)
    if isinstance(e, RvExpr):
        return _canonicalize_shared(e, lambda x: canonicalize_rv(x, atoms))
    raise TypeError(f"not a random-variable expression: {e!r}")


def canonicalize_func(f: FuncExpr) -> CanonForm:
    """Normal form of a functional over moment and smooth atoms."""
    if isinstance(f, Moment):
        return expectation_of_form(canonicalize_rv(f.arg))
    if isinstance(f, Reciprocal):
        return canonicalize_func(f.arg).reciprocal()
    if isinstance(f, Smooth):
        node = Smooth(f.tag, func_from_form(canonicalize_func(f.arg)))
        return CanonForm.from_atom(("s", (render_func(node), node)))
    if isinstance(f, FuncExpr):
        return _canonicalize_shared(f, canonicalize_func)
    raise TypeError(f"not a functional expression: {f!r}")


def _expect_mono(mono: Mono) -> Mono:
    """``mono`` under expectation: its base-variable part, with the
    variables in name order, becomes one moment atom."""
    exps = {atom: exp for atom, exp in mono if atom[0] != "v"}
    base = tuple(sorted((atom[1], exp) for atom, exp in mono if atom[0] == "v"))
    if base:
        exps[("m", base)] = exps.get(("m", base), 0) + 1
    return frozenset(exps.items())


def expectation_of_form(form: CanonForm) -> CanonForm:
    """Apply linearity of expectation to a mixed-atom canonical form.

    Moment and smooth atoms are scalars, so they factor out of the
    expectation; the base-variable part of each term becomes a
    primitive-moment atom.  The denominator is scalar (no base variables)
    and passes through.
    """
    for mono in form.den:
        for atom, _ in mono:
            if atom[0] == "v":
                raise NormalizationError(
                    "expectation of a form with base variables in a denominator"
                )
    num = _accumulate({}, ((_expect_mono(m), c) for m, c in form.num.items()))
    return CanonForm.make(num, form.den)


# ---------------------------------------------------------------------------
# rebuilding expressions from canonical forms


def _base_mono_rv(mono: BaseMono) -> RvExpr:
    return rv_product(*(rv_pow(BaseVar(name), exp) for name, exp in mono))


def _poly_to_expr(poly: Poly, atom_power, product, total):
    """Expression for a polynomial with its terms in canonical order, in the
    family whose atom-power, product and sum constructors are passed (they
    coerce the coefficient)."""
    terms = []
    for mono, coeff in sorted(poly.items(), key=lambda item: _mono_key(item[0])):
        atoms = sorted(mono, key=lambda item: _atom_key(item[0]))
        terms.append(product(coeff, *(atom_power(atom, exp) for atom, exp in atoms)))
    return total(*terms)


def _func_atom_power(atom: Atom, exp: int) -> FuncExpr:
    kind, payload = atom
    if kind == "v":
        raise NormalizationError("base variable in a scalar-functional polynomial")
    node = Moment(_base_mono_rv(payload)) if kind == "m" else payload[1]
    return f_pow(node, exp)


def _rv_atom_power(atom: Atom, exp: int) -> RvExpr:
    if atom[0] == "v":
        return rv_pow(BaseVar(atom[1]), exp)
    return rv_pow(rv_embed(_func_atom_power(atom, 1)), exp)


def _poly_to_func(poly: Poly) -> FuncExpr:
    return _poly_to_expr(poly, _func_atom_power, f_product, f_sum)


def func_from_form(form: CanonForm) -> FuncExpr:
    """Functional expression denoting the canonical form, in canonical order."""
    num = _poly_to_func(form.num)
    if form.is_polynomial:
        return num
    return f_product(num, f_recip(_poly_to_func(form.den)))


def rv_from_form(form: CanonForm) -> RvExpr:
    """Random-variable expression denoting the canonical form."""
    num = _poly_to_expr(form.num, _rv_atom_power, rv_product, rv_sum)
    if form.is_polynomial:
        return num
    return rv_product(num, rv_embed(f_recip(_poly_to_func(form.den))))


# ---------------------------------------------------------------------------
# functional normalization


def normalize_functional(f: FuncExpr) -> FuncExpr:
    """Distribute embedded scalars out of moments by linearity.

    Every moment in the result takes a polynomial in base variables; the
    result denotes the same functional.  Smooth subtrees are preserved with
    normalized arguments.  Raises if a reciprocal's argument normalizes to
    the zero form.
    """
    if isinstance(f, FuncConst):
        return f
    if isinstance(f, Moment):
        return func_from_form(expectation_of_form(canonicalize_rv(f.arg)))
    if isinstance(f, FuncSum):
        return f_sum(*(normalize_functional(t) for t in f.terms))
    if isinstance(f, FuncProduct):
        return f_product(*(normalize_functional(x) for x in f.factors))
    if isinstance(f, FuncPower):
        return f_pow(normalize_functional(f.base), f.exponent)
    if isinstance(f, Reciprocal):
        arg = normalize_functional(f.arg)
        if canonicalize_func(arg).is_zero:
            raise NormalizationError(
                f"reciprocal of a functional that normalizes to zero: {f.arg}"
            )
        return f_recip(arg)
    if isinstance(f, Smooth):
        return Smooth(f.tag, normalize_functional(f.arg))
    raise TypeError(f"not a functional expression: {f!r}")
