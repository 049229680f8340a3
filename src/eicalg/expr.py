"""Symbolic expressions for random variables and for scalar functionals.

Two expression families share one module.  Random-variable expressions
(``RvExpr``) denote elements of the function space over a finite probability
space; functional expressions (``FuncExpr``) denote scalar parameters built
from moments.  A functional appearing where a random variable is expected is
embedded as a constant function.  The operators ``+``, ``-``, ``*`` (with
their reflected forms) and unary ``-`` follow one rule for both families:
the result is a random variable when either operand is one, and a
functional otherwise; ``**`` stays in its operand's family.  So code can be
written the way the formulas read::

    x = var("X")
    variance = E(x**2) - E(x)**2
    centered = x - E(x)          # an RvExpr: x minus its embedded mean

Expressions are immutable trees.  Smart constructors flatten nested sums and
products, fold constants, and drop neutral elements; they do not attempt any
deeper simplification (that is the canonicalizer's job).  The two families
share one implementation per job: one set of operators, one builder each for
sums, products and powers, parameterized by the family's node classes, one
base-variable walker, one evaluator, and one renderer that dispatches on
node type (no node type belongs to both families).  The evaluator compiles
trees once into a program, a step per distinct node, and runs it on each
instance: every root of one program is valued in one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul
from typing import Callable

from .errors import EvaluationError, ExactModeError, NormalizationError, UsageError
from .measure import FiniteProbSpace, RandVar, embed, expectation
from .numerals import checked_power, exact_string, format_decimal

__all__ = [
    "RvExpr",
    "BaseVar",
    "RvConst",
    "RvSum",
    "RvProduct",
    "IntPower",
    "EmbedFunc",
    "FuncExpr",
    "Moment",
    "FuncConst",
    "FuncSum",
    "FuncProduct",
    "FuncPower",
    "Reciprocal",
    "Smooth",
    "var",
    "E",
    "inv",
    "rv_sum",
    "rv_product",
    "rv_pow",
    "rv_embed",
    "f_sum",
    "f_product",
    "f_pow",
    "f_recip",
    "SMOOTH_TABLE",
    "MAX_EXPONENT",
    "bounded_exponent",
    "evaluate_rv",
    "evaluate_func",
    "to_float",
    "func_base_vars",
    "render_rv",
    "render_func",
]

# Largest exponent of a power of anything but a number, which expands it.
MAX_EXPONENT = 1000


def bounded_exponent(n: int) -> int:
    """``n``, the exponent of a power that is expanded or evaluated; one
    above :data:`MAX_EXPONENT` raises :class:`NormalizationError`."""
    if n > MAX_EXPONENT:
        raise NormalizationError(f"exponent {n} above {MAX_EXPONENT}")
    return n


def _coerce_const(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact constant")


# ---------------------------------------------------------------------------
# node classes


class _Operand:
    """Arithmetic and printing shared by both families, one rule per operator.

    The result is a random variable when either operand is one, and a
    functional otherwise; the builders coerce the other operand.
    """

    def __add__(self, other):
        return _builders(self, other)[0](self, other)

    def __radd__(self, other):
        return _builders(self, other)[0](other, self)

    def __sub__(self, other):
        total, product = _builders(self, other)
        return total(self, product(-1, other))

    def __rsub__(self, other):
        total, product = _builders(self, other)
        return total(other, product(-1, self))

    def __mul__(self, other):
        return _builders(self, other)[1](self, other)

    def __rmul__(self, other):
        return _builders(self, other)[1](other, self)

    def __neg__(self):
        return _builders(self, self)[1](-1, self)

    def __pow__(self, n: int):  # stays in the operand's family
        return (rv_pow if isinstance(self, RvExpr) else f_pow)(self, n)

    def __str__(self):
        return _render(self, 0)

    def __eq__(self, other):  # a loop over pairs of parts, not a recursion
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if type(a) is not type(b):
                return False
            if isinstance(a, _Operand):  # a dataclass: its fields, in order
                pairs += [(a.__dict__[n], b.__dict__[n]) for n in a.__match_args__]
            elif type(a) is tuple and len(a) == len(b):
                pairs += zip(a, b)
            elif type(a) is tuple or a != b:
                return False
        return True

    def __hash__(self):  # of the fields, once per node: a lookup, not a walk
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash(tuple(self.__dict__.values()))
        return h

    def __getstate__(self):  # a str hashes differently in another process
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


class RvExpr(_Operand):
    """Base class for random-variable expressions."""


class FuncExpr(_Operand):
    """Base class for scalar-functional expressions."""


def _checked_const(node):
    object.__setattr__(node, "value", _coerce_const(node.value))


def _checked_exponent(node):
    if not isinstance(node.exponent, int) or node.exponent < 1:
        raise UsageError("integer power nodes require exponent >= 1")


def _checked_tag(node):
    if node.tag not in SMOOTH_TABLE:
        raise UsageError(f"unknown smooth function tag {node.tag!r}")


@dataclass(frozen=True, eq=False)
class BaseVar(RvExpr):
    name: str


@dataclass(frozen=True, eq=False)
class RvConst(RvExpr):
    value: Fraction
    __post_init__ = _checked_const


@dataclass(frozen=True, eq=False)
class RvSum(RvExpr):
    terms: tuple[RvExpr, ...]


@dataclass(frozen=True, eq=False)
class RvProduct(RvExpr):
    factors: tuple[RvExpr, ...]


@dataclass(frozen=True, eq=False)
class IntPower(RvExpr):
    base: RvExpr
    exponent: int
    __post_init__ = _checked_exponent


@dataclass(frozen=True, eq=False)
class EmbedFunc(RvExpr):
    """A scalar functional used as a constant function."""

    func: "FuncExpr"


@dataclass(frozen=True, eq=False)
class Moment(FuncExpr):
    """Expectation of a random-variable expression."""

    arg: RvExpr


@dataclass(frozen=True, eq=False)
class FuncConst(FuncExpr):
    value: Fraction
    __post_init__ = _checked_const


@dataclass(frozen=True, eq=False)
class FuncSum(FuncExpr):
    terms: tuple[FuncExpr, ...]


@dataclass(frozen=True, eq=False)
class FuncProduct(FuncExpr):
    factors: tuple[FuncExpr, ...]


@dataclass(frozen=True, eq=False)
class FuncPower(FuncExpr):
    base: FuncExpr
    exponent: int
    __post_init__ = _checked_exponent


@dataclass(frozen=True, eq=False)
class Reciprocal(FuncExpr):
    arg: FuncExpr


@dataclass(frozen=True, eq=False)
class Smooth(FuncExpr):
    """A registered smooth function applied to a functional (float mode only)."""

    tag: str
    arg: FuncExpr
    __post_init__ = _checked_tag


# ---------------------------------------------------------------------------
# smooth-function registry


@dataclass(frozen=True)
class SmoothFunc:
    tag: str
    evaluate: Callable[[float], float]
    # derivative as a functional of the inner argument, e.g. log -> inv(arg)
    derivative: Callable[[FuncExpr], FuncExpr] = field(repr=False)

    def at(self, x: float) -> float:
        """The function at ``x``; where it is undefined or overflows it
        raises :class:`EvaluationError`."""
        try:
            return self.evaluate(x)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{self.tag}({x}) is undefined or overflows") from exc


def _d_exp(arg: FuncExpr) -> FuncExpr:
    return Smooth("exp", arg)


def _d_log(arg: FuncExpr) -> FuncExpr:
    return f_recip(arg)


def _d_sqrt(arg: FuncExpr) -> FuncExpr:
    return f_product(FuncConst(Fraction(1, 2)), f_recip(Smooth("sqrt", arg)))


SMOOTH_TABLE: dict[str, SmoothFunc] = {
    "exp": SmoothFunc("exp", math.exp, _d_exp),
    "log": SmoothFunc("log", math.log, _d_log),
    "sqrt": SmoothFunc("sqrt", math.sqrt, _d_sqrt),
}


# ---------------------------------------------------------------------------
# coercion and smart constructors


def _as_rv(x) -> RvExpr:
    if isinstance(x, RvExpr):
        return x
    if isinstance(x, FuncExpr):
        return rv_embed(x)
    return RvConst(_coerce_const(x))


def _as_func(x) -> FuncExpr:
    if isinstance(x, FuncExpr):
        return x
    if isinstance(x, RvExpr):
        raise TypeError("a random-variable expression is not a scalar functional")
    return FuncConst(_coerce_const(x))


def _builders(a, b):
    """Sum and product builders of the family of ``a op b``."""
    if isinstance(a, RvExpr) or isinstance(b, RvExpr):
        return rv_sum, rv_product
    return f_sum, f_product


def _fold_sum(terms, coerce, sum_cls, const_cls):
    """Sum builder shared by both families.

    ``coerce`` brings each term into the family; ``sum_cls`` and
    ``const_cls`` are the family's node classes.
    """
    merged = []
    const = Fraction(0)
    for t in terms:
        t = coerce(t)
        # nested sums are already flat, but may carry their own constant
        for part in t.terms if isinstance(t, sum_cls) else (t,):
            if isinstance(part, const_cls):
                const += part.value
            else:
                merged.append(part)
    if const != 0:
        merged.append(const_cls(const))
    if not merged:
        return const_cls(Fraction(0))
    if len(merged) == 1:
        return merged[0]
    return sum_cls(tuple(merged))


def _fold_product(factors, coerce, product_cls, const_cls):
    """Product builder shared by both families, as for :func:`_fold_sum`."""
    merged = []
    const = Fraction(1)
    for f in factors:
        f = coerce(f)
        for part in f.factors if isinstance(f, product_cls) else (f,):
            if isinstance(part, const_cls):
                const *= part.value
            else:
                merged.append(part)
    if const == 0:
        return const_cls(Fraction(0))
    if const != 1:
        merged.insert(0, const_cls(const))
    if not merged:
        return const_cls(Fraction(1))
    if len(merged) == 1:
        return merged[0]
    return product_cls(tuple(merged))


def _fold_pow(base, n, coerce, power_cls, const_cls):
    base = coerce(base)
    if not isinstance(n, int) or n < 0:
        raise UsageError("integer power >= 0 required")
    if n == 0:
        return const_cls(Fraction(1))
    if n == 1:
        return base
    if isinstance(base, const_cls):
        return const_cls(checked_power(base.value, n))
    return power_cls(base, n)


def rv_sum(*terms) -> RvExpr:
    """Flattened sum; constants fold and a zero constant is dropped."""
    return _fold_sum(terms, _as_rv, RvSum, RvConst)


def rv_product(*factors) -> RvExpr:
    """Flattened product; constants fold in front, zero annihilates."""
    return _fold_product(factors, _as_rv, RvProduct, RvConst)


def rv_pow(base, n: int) -> RvExpr:
    return _fold_pow(base, n, _as_rv, IntPower, RvConst)


def rv_embed(f: FuncExpr) -> RvExpr:
    if isinstance(f, FuncConst):
        return RvConst(f.value)
    return EmbedFunc(f)


def f_sum(*terms) -> FuncExpr:
    return _fold_sum(terms, _as_func, FuncSum, FuncConst)


def f_product(*factors) -> FuncExpr:
    return _fold_product(factors, _as_func, FuncProduct, FuncConst)


def f_pow(base, n: int) -> FuncExpr:
    return _fold_pow(base, n, _as_func, FuncPower, FuncConst)


def f_recip(arg) -> FuncExpr:
    arg = _as_func(arg)
    if isinstance(arg, FuncConst):
        if arg.value == 0:
            raise NormalizationError("reciprocal of the zero functional")
        return FuncConst(1 / arg.value)
    if isinstance(arg, Reciprocal):
        return arg.arg
    return Reciprocal(arg)


def var(name: str) -> BaseVar:
    return BaseVar(name)


def E(arg) -> Moment:
    """Expectation of a random-variable expression."""
    return Moment(_as_rv(arg))


def inv(arg) -> FuncExpr:
    """Reciprocal of a functional."""
    return f_recip(arg)


# ---------------------------------------------------------------------------
# free variables


def func_base_vars(f) -> set[str]:
    """Names of the base variables in an expression of either family, by a
    loop over the parts of its nodes."""
    names, todo = set(), [f]
    while todo:
        e = todo.pop()
        if isinstance(e, BaseVar):
            names.add(e.name)
        elif not isinstance(e, _Operand):
            raise TypeError(f"not an expression: {e!r}")
        for part in map(e.__dict__.get, e.__match_args__):  # its fields
            todo += part if type(part) is tuple else [part] if isinstance(part, _Operand) else []
    return names


# ---------------------------------------------------------------------------
# evaluation on a concrete space


def evaluate_rv(
    e: RvExpr,
    space: FiniteProbSpace,
    binding: dict[str, RandVar],
    mode: str = "exact",
) -> RandVar:
    """Exact pointwise evaluation of an expression under a binding.

    Embedded functionals are embedded as constant functions.  In float mode
    the value of an embedded functional is carried exactly as the rational
    equal to its float.
    """
    mode = _checked_mode(mode)
    if not isinstance(e, RvExpr):
        raise TypeError(f"not a random-variable expression: {e!r}")
    value = _raised(_run(_compiled([e]), space, binding, mode, expectation)[0])
    return value if isinstance(value, RandVar) else embed(value, space)


def evaluate_func(
    f: FuncExpr,
    space: FiniteProbSpace,
    binding: dict[str, RandVar],
    mode: str = "exact",
):
    """Value of a functional at the law of the space.

    Returns an exact rational in exact mode, a float in float mode.  Smooth
    nodes require float mode.  Each moment is the expectation of its
    argument evaluated pointwise on the space.
    """
    mode = _checked_mode(mode)
    if not isinstance(f, FuncExpr):
        raise TypeError(f"not a functional expression: {f!r}")
    value = _raised(_run(_compiled([f]), space, binding, mode, expectation)[0])
    return to_float(value) if mode == "float" else value


def to_float(value: Fraction) -> float:
    """The float nearest an exact value; beyond the float range it raises
    :class:`EvaluationError`, a data error, not an internal one."""
    try:
        return float(value)
    except OverflowError as exc:
        raise EvaluationError("value overflows a float") from exc


def _checked_mode(mode: str) -> str:
    if mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {mode!r}")
    return mode


def _compiled(roots) -> tuple[list, list]:
    """Trees of either family as one program for :func:`_run`: a step
    ``(kind, arg, operands)`` per distinct node, equal subtrees merged, in
    the post-order the valuation walk visits them, and each root's step.
    Nothing is checked here; each step checks its node as it runs."""
    steps, known = [], {}

    def step(e):
        if e not in known:
            arg, parts = None, ()
            if isinstance(e, (RvSum, FuncSum, RvProduct, FuncProduct)):
                is_sum = isinstance(e, (RvSum, FuncSum))
                kind, arg, parts = (add, 0, e.terms) if is_sum else (mul, 1, e.factors)
            elif isinstance(e, (RvConst, FuncConst, BaseVar)):
                kind, arg = (BaseVar, e.name) if isinstance(e, BaseVar) else (RvConst, e.value)
            elif isinstance(e, (IntPower, FuncPower)):
                kind, arg, parts = IntPower, e.exponent, (e.base,)
            elif isinstance(e, (Moment, Reciprocal, Smooth, EmbedFunc)):
                kind = next(k for k in (Moment, Reciprocal, Smooth, EmbedFunc) if isinstance(e, k))
                arg, parts = getattr(e, "tag", None), (e.func if kind is EmbedFunc else e.arg,)
            else:
                kind, arg = TypeError, f"not an expression: {e!r}"
            steps.append((kind, arg, [step(part) for part in parts]))
            known[e] = len(steps) - 1
        return known[e]

    return steps, [step(root) for root in roots]


def _run(program, space, binding, mode, mean) -> list:
    """The value of each root of a compiled program on ``space`` under
    ``binding``; ``mean(space, v)`` is the moment of a vector ``v`` not
    constant on the space (``expectation``, or ``Dual.mean`` for an
    influence).  A sum or product joins its scalar and its vector parts
    with one vector operation unless the scalar is the unit.  A failed step
    keeps its error as its value, and a step reading failed operands takes
    the first, so a root's value is what its own walk gives or raises."""
    steps, roots = program
    values, failed = [], {}
    for kind, arg, operands in steps:
        try:
            if kind is Smooth and mode != "float":
                raise ExactModeError(f"smooth functional {arg!r} requires float mode")
            if failed and not failed.keys().isdisjoint(operands):
                raise failed[next(i for i in operands if i in failed)]
            value = values[operands[0]] if operands else arg
            if kind is add or kind is mul:
                scalar = vector = None
                for part in map(values.__getitem__, operands):
                    if type(part) is RandVar:
                        vector = part if vector is None else kind(vector, part)
                    else:
                        scalar = part if scalar is None else kind(scalar, part)
                if vector is None:
                    value = Fraction(arg) if scalar is None else scalar
                else:
                    value = vector if scalar is None or scalar == arg else kind(vector, scalar)
            elif kind is BaseVar:
                value = binding.get(arg)
                if value is None:
                    raise EvaluationError(f"unbound variable {arg!r}")
                if value.space is not space and value.space != space:
                    raise EvaluationError(f"binding for {arg!r} lives on another space")
            elif kind is Moment:
                value = mean(space, value) if type(value) is RandVar else value
            elif kind is IntPower:
                value = value ** bounded_exponent(arg)
            elif kind is EmbedFunc:  # in float mode, rounded through a float
                value = Fraction(to_float(value)) if mode == "float" else value
            elif kind is Reciprocal:
                if value == 0:  # a Dual is never 0 and raises on its own zero value
                    raise EvaluationError("reciprocal of a functional evaluating to zero")
                value = value**-1
            elif kind is Smooth:
                value = Fraction(SMOOTH_TABLE[arg].at(to_float(value)))
            elif kind is TypeError:
                raise TypeError(arg)
        except Exception as exc:  # kept, and raised by each root that reads it
            value = failed[len(values)] = exc
        values.append(value)
    return [values[root] for root in roots]


def _raised(value):
    """A root's value from :func:`_run`, or the error kept in its place, raised."""
    if isinstance(value, Exception):
        raise value
    return value


# ---------------------------------------------------------------------------
# rendering
#
# Deterministic, fully parenthesized where needed, and round-trippable
# through the CLI grammar.  Precedence levels: 1 additive, 2 multiplicative,
# 3 power base (atoms only).  The grammar has no unary minus, so a leading
# negative renders as "0 - ...".


def _const_string(q: Fraction) -> str:
    """Nonnegative constant as a decimal literal, or p*inv(q) fallback."""
    dec = format_decimal(q)
    if dec is not None:
        return dec
    num, den = (exact_string(n, UsageError) for n in (q.numerator, q.denominator))
    return f"inv({den})" if num == "1" else f"{num}*inv({den})"


def _split_sign(e) -> tuple[bool, object]:
    """Split a leading negative constant off a constant or product node."""
    if isinstance(e, (RvConst, FuncConst)) and e.value < 0:
        return True, type(e)(-e.value)
    if (
        isinstance(e, (RvProduct, FuncProduct))
        and isinstance(e.factors[0], (RvConst, FuncConst))
        and e.factors[0].value < 0
    ):
        product = rv_product if isinstance(e, RvProduct) else f_product
        return True, product(-e.factors[0].value, *e.factors[1:])
    return False, e


def _render(e, prec: int) -> str:
    """Render a node of either family; the two families share no node type."""
    if isinstance(e, EmbedFunc):
        return _render(e.func, prec)
    if isinstance(e, BaseVar):
        return e.name
    if isinstance(e, Moment):
        return f"E[{_render(e.arg, 0)}]"
    if isinstance(e, Reciprocal):
        return f"inv({_render(e.arg, 0)})"
    if isinstance(e, Smooth):
        return f"{e.tag}({_render(e.arg, 0)})"
    if isinstance(e, (RvConst, FuncConst)):
        neg, mag = _split_sign(e)
        if neg:
            s = f"0 - {_const_string(mag.value)}"
            return f"({s})" if prec >= 1 else s
        s = _const_string(e.value)
        if "*" in s and prec >= 3:
            return f"({s})"
        return s
    if isinstance(e, (RvSum, FuncSum)):
        parts = []
        for i, t in enumerate(e.terms):
            neg, mag = _split_sign(t)
            text = _render(mag, 2)
            if i == 0:
                parts.append(f"0 - {text}" if neg else text)
            else:
                parts.append(f"- {text}" if neg else f"+ {text}")
        s = " ".join(parts)
        return f"({s})" if prec >= 2 else s
    if isinstance(e, (RvProduct, FuncProduct)):
        neg, mag = _split_sign(e)
        if neg:
            s = f"0 - {_render(mag, 2)}"
            return f"({s})" if prec >= 1 else s
        s = "*".join(_render(f, 3) for f in e.factors)
        return f"({s})" if prec >= 3 else s
    if isinstance(e, (IntPower, FuncPower)):
        s = f"{_render(e.base, 4)}^{e.exponent}"
        return f"({s})" if prec >= 4 else s
    raise TypeError(f"not an expression: {e!r}")


def render_rv(e: RvExpr) -> str:
    return _render(e, 0)


def render_func(f: FuncExpr) -> str:
    return _render(f, 0)
