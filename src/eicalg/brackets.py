"""Commutator brackets of expectation, product, and centering operators.

Three elementary brackets measure, respectively, the defect of
multiplicativity of expectation (which is the covariance), the difference
between multiply-then-center and center-then-multiply, and centering applied
to coordinatewise expectations.  Nesting them cyclically yields three
composite brackets whose sum vanishes identically (a Jacobi identity).

Each identity is written once: :class:`Algebra` states its operator side over
``E``, ``T``, ``prod`` and ``embed``, and its row in :func:`identities` adds
its closed form.  :class:`Numeric`, the model on a finite space behind the
nine bracket functions, reads T of a scalar (a :class:`~eicalg.measure.Dual`)
as its influence vector, the only reading under which the composite brackets
type-check, and T of a vector as the influence of its mean;
:class:`Symbolic`, on trees, as :func:`~eicalg.eic.derive_eic`'s gradient.
The numeric checks take each row's side from the bracket functions
(:class:`BracketFunctions`), the symbolic records from :class:`Symbolic`;
each closed form reads the instance's :class:`Pieces`, built once over
vectors or canonical forms.  In one verify pass the bracket functions share
one model per instance, which keeps each mean, product and side, so a
composite bracket reuses the elementary ones it nests.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import is_, mul
from typing import Callable

from .canon import CanonForm, canonicalize_rv, expectation_of_form
from .eic import derive_eic
from .expr import E, FuncExpr, RvExpr, rv_embed, var
from .measure import Dual, FiniteProbSpace, RandVar, embed, pointwise_product
from .sampling import format_values

__all__ = [
    "bracket_P_prod",
    "bracket_prod_T",
    "bracket_T_P",
    "nested_T_P_prod",
    "nested_P_prod_T",
    "nested_prod_T_P",
    "jacobi_sum",
    "corollary_leibniz",
    "corollary_cov",
    "IdentityRecord",
    "symbolic_identity_suite",
]


class Algebra:
    """The identities' operator sides, over a model's E, T, prod and embed;
    each is named as the bracket function that computes it numerically."""

    def bracket_P_prod(self, x, y):
        return self.E(self.prod(x, y)) - self.E(x) * self.E(y)

    def bracket_prod_T(self, x, y):
        return self.prod(self.T(x), self.T(y)) - self.T(self.prod(x, y))

    def bracket_T_P(self, x, y):
        return self.T(x), self.T(y)

    def nested_T_P_prod(self, x, y):
        centered = self.bracket_T_P(x, y)
        return self.T(self.bracket_P_prod(x, y)) - self.embed(self.bracket_P_prod(*centered))

    def nested_P_prod_T(self, x, y):
        means = self.E(x) * self.E(y)
        product = self.prod(*self.bracket_T_P(x, y))
        return self.embed(self.bracket_P_prod(x, y)) - product + self.T(means)

    def nested_prod_T_P(self, x, y):
        return self.prod(*self.bracket_T_P(x, y)) - self.T(self.E(self.prod(x, y)))

    def jacobi_sum(self, x, y):
        return self.nested_T_P_prod(x, y) + self.nested_P_prod_T(x, y) + self.nested_prod_T_P(x, y)

    def corollary_leibniz(self, x, y):
        lhs = self.prod(self.T(self.E(x)), self.T(self.E(y))) + self.T(self.E(x) * self.E(y))
        return lhs, self.T(self.E(self.prod(x, y))) + self.embed(self.bracket_P_prod(x, y))

    def corollary_cov(self, x, y):
        cov = self.bracket_P_prod(x, y)
        return self.prod(self.T(self.E(x)), self.T(self.E(y))), self.T(cov) + self.embed(cov)


class Numeric(Algebra):
    """Exact vectors on one space, each scalar a Dual; E, prod and the nine
    sides kept under a name and each argument's (nums, den) (a side is
    Algebra's, looked up when called, so a patched one is kept), T of a
    vector the influence of its mean."""

    def __init__(self, space: FiniteProbSpace):
        self.space, self._values = space, {}

    def _once(self, name, op, *vs):
        for v in vs:
            if v.space is not self.space:
                return op(self, *vs)  # unkept: a vector of another space, which measure refuses
        key = (name, *[(v.nums, v.den) for v in vs])
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = op(self, *vs)
        return value

    def E(self, v: RandVar) -> Dual:
        return self._once("E", lambda model, v: Dual.mean(model.space, v), v)

    def T(self, v):
        return (v if isinstance(v, Dual) else self.E(v)).influence

    def prod(self, f: RandVar, g: RandVar) -> RandVar:
        return self._once("prod", lambda model, f, g: pointwise_product(f, g), f, g)

    def embed(self, a: Dual) -> RandVar:
        return embed(a.value, self.space)


def _kept(name):
    return lambda model, x, y: model._once(name, getattr(Algebra, name), x, y)


for _name in [name for name in vars(Algebra) if not name.startswith("_")]:
    setattr(Numeric, _name, _kept(_name))


def _in_pass(slot_var: ContextVar, build, *key):
    """The pass's ``build(*key)``, new when any part of the key is another
    object; outside a pass, a new one."""
    slot = slot_var.get() or [None]
    if slot[0] is None or not all(map(is_, slot[1:], key)):
        slot[:] = build(*key), *key
    return slot[0]


# in a verify pass, [the model of the space last asked for]
_PASS: ContextVar[list | None] = ContextVar("eicalg.brackets.pass", default=None)
_numeric = partial(_in_pass, _PASS, Numeric)


class Symbolic(Algebra):
    """Expression trees; T is the derived gradient of a functional, or of a variable's mean."""

    E, prod, embed = staticmethod(E), staticmethod(mul), staticmethod(rv_embed)

    def __init__(self):
        self._gradients = {}

    def T(self, v):
        f = v if isinstance(v, FuncExpr) else E(v)
        if f not in self._gradients:
            self._gradients[f] = derive_eic(f).eic
        return self._gradients[f]


def bracket_P_prod(space: FiniteProbSpace, x: RandVar, y: RandVar) -> Fraction:
    """Expectation-product bracket: E[xy] - E[x]E[y], i.e. the covariance."""
    return _numeric(space).bracket_P_prod(x, y).value


def bracket_prod_T(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Product-centering bracket: (Tx)(Ty) - T(xy)."""
    return _numeric(space).bracket_prod_T(x, y)


def bracket_T_P(space: FiniteProbSpace, x: RandVar, y: RandVar) -> tuple[RandVar, RandVar]:
    """Centering-expectation bracket: the pair of centered coordinates."""
    return _numeric(space).bracket_T_P(x, y)


def nested_T_P_prod(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Centering applied to the covariance, minus the covariance of centerings."""
    return _numeric(space).nested_T_P_prod(x, y)


def nested_P_prod_T(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Covariance minus the centered product, plus the product-of-means gradient."""
    return _numeric(space).nested_P_prod_T(x, y)


def nested_prod_T_P(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Product of centerings minus the gradient of the product's mean."""
    return _numeric(space).nested_prod_T_P(x, y)


def jacobi_sum(space: FiniteProbSpace, x: RandVar, y: RandVar) -> RandVar:
    """Cyclic sum of the three composite brackets; identically zero."""
    return _numeric(space).jacobi_sum(x, y)


def corollary_leibniz(space: FiniteProbSpace, x: RandVar, y: RandVar) -> tuple[RandVar, RandVar]:
    """(Tx)(Ty) + gradient of E[x]E[y]  versus  gradient of E[xy] + Cov."""
    return _numeric(space).corollary_leibniz(x, y)


def corollary_cov(space: FiniteProbSpace, x: RandVar, y: RandVar) -> tuple[RandVar, RandVar]:
    """(Tx)(Ty)  versus  gradient of the covariance + Cov."""
    return _numeric(space).corollary_cov(x, y)


class BracketFunctions:
    """The model of the numeric checks: each of its brackets on one space is
    the bracket function of that name above, looked up when it is called."""

    def __init__(self, space: FiniteProbSpace):
        self.space = space

    def __getattr__(self, name):
        if name not in vars(Algebra):
            raise AttributeError(name)
        return partial(globals()[name], self.space)


@dataclass(frozen=True)
class Row:
    """One identity: its record and statement; ``side(model, X, Y)``, one
    side or two that must agree, over the model's brackets only;
    ``closed(pieces)``, the closed form, of :class:`Pieces`; a failure's ``label``."""

    record: str
    statement: str
    side: Callable
    closed: Callable
    label: str = ""

    def failure(self, sides, closed, read=lambda v: v) -> str | None:
        """The first disagreement of the sides, each as ``read`` gives it, and
        the closed form, as text; None if they agree."""
        got = [read(v) for v in (sides if isinstance(sides, tuple) else (sides,))]
        show = format_values if isinstance(got[0], RandVar) else str
        if got[0] != got[-1]:
            return f"{self.label}lhs={show(got[0])} rhs={show(got[-1])}"
        if got[0] != closed:
            text = "sides={} closed form={}" if len(got) > 1 else "got={} want={}"
            return self.label + text.format(show(got[0]), show(closed))
        return None


class Pieces:
    """What every closed form is written in, for X and Y, each built once:
    E X, E Y (E X's value when Y equals X), XY, E[XY], the centred
    coordinates, their product and its mean, the covariance.  ``mean`` is
    ``expectation`` on the instance's space, or ``expectation_of_form``."""

    def __init__(self, mean, x, y):
        self.ex = mean(x)
        self.ey = self.ex if y == x else mean(y)
        self.xy = x * y
        self.exy = mean(self.xy)
        self.cx, self.cy = x - self.ex, y - self.ey
        self.centered = self.cx * self.cy
        self.cov = mean(self.centered)


def identities():
    """The checks of each verify suite, as (suite, check, statement, rows)."""
    return [
        ("brackets", "covariance-bracket",
         "expectation-product bracket equals the covariance and is symmetric", [
            Row("covariance-bracket",
                "expectation of product minus product of expectations is the covariance",
                lambda o, x, y: (o.bracket_P_prod(x, y), o.bracket_P_prod(y, x)), lambda c: c.cov),
            Row("covariance-centering-invariance",
                "the covariance of the centered coordinates is the covariance",
                lambda o, x, y: o.bracket_P_prod(*o.bracket_T_P(x, y)), lambda c: c.cov),
        ]),
        ("brackets", "product-centering-bracket",
         "(TX)(TY) - T(XY) matches its closed form; its mean is the covariance", [
            Row("product-centering-bracket",
                "(TX)(TY) - T(XY) written via gradients equals its closed form",
                lambda o, x, y: o.bracket_prod_T(x, y), lambda c: c.centered - (c.xy - c.exy)),
        ]),
        ("brackets", "centering-expectation-bracket",
         "the pair bracket returns the centered coordinates, both mean-zero", [
            Row("centering-expectation-bracket-first",
                "gradient of E[X] equals the centered coordinate",
                lambda o, x, y: o.bracket_T_P(x, y)[0], lambda c: c.cx),
            Row("centering-expectation-bracket-second",
                "gradient of E[Y] equals the centered coordinate",
                lambda o, x, y: o.bracket_T_P(x, y)[1], lambda c: c.cy),
        ]),
        ("corollaries", "corollary-product-of-gradients",
         "T(PX)T(PY) + T(PX*PY) equals T(P(XY)) + Cov, both equal XY - PX*PY", [
            Row("corollary-product-of-gradients", "T(PX)T(PY) + T(PX*PY) equals T(P(XY)) + Cov",
                lambda o, x, y: o.corollary_leibniz(x, y), lambda c: c.xy - c.ex * c.ey),
        ]),
        ("corollaries", "corollary-covariance-gradient",
         "T(PX)T(PY) equals T(Cov) + Cov, both equal (X-PX)(Y-PY)", [
            Row("corollary-covariance-gradient", "T(PX)T(PY) equals T(Cov) + Cov",
                lambda o, x, y: o.corollary_cov(x, y), lambda c: c.centered),
        ]),
        ("lemma", "lemma-pieces", "each composite bracket equals its closed form", [
            Row("lemma-piece-center-of-covariance",
                "first composite bracket equals (TX)(TY) - 2 Cov",
                lambda o, x, y: o.nested_T_P_prod(x, y),
                lambda c: c.centered - c.cov - c.cov, "first piece "),
            Row("lemma-piece-expectation-of-product-centering",
                "second composite bracket equals Cov - (TX)(TY) + Leibniz expansion",
                lambda o, x, y: o.nested_P_prod_T(x, y),
                lambda c: c.cov - c.centered + (c.cx * c.ey + c.ex * c.cy), "second piece "),
            Row("lemma-piece-product-of-centered-means",
                "third composite bracket equals (TX)(TY) - (XY - E[XY])",
                lambda o, x, y: o.nested_prod_T_P(x, y),
                lambda c: c.centered - (c.xy - c.exy), "third piece "),
        ]),
        ("jacobi", "jacobi-identity", "the cyclic sum of composite brackets is the zero vector", [
            Row("jacobi-identity", "the cyclic sum of the three composite brackets is zero",
                lambda o, x, y: o.jacobi_sum(x, y), lambda c: c.cx - c.cx),
        ]),
    ]


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    statement: str
    mode: str
    passed: bool
    counterexample: str | None = None


def symbolic_identity_suite() -> list[IdentityRecord]:
    """Prove every named identity once: each side, in the symbolic model, has
    the canonical form of the closed form, which is computed on the forms of
    X and Y with :func:`~eicalg.canon.expectation_of_form` as the mean."""
    model, x, y = Symbolic(), CanonForm.from_atom(("v", "X")), CanonForm.from_atom(("v", "Y"))
    pieces = Pieces(expectation_of_form, x, y)
    form = lambda e: canonicalize_rv(e if isinstance(e, RvExpr) else rv_embed(e))  # noqa: E731
    rows = [row for *_, rows in identities() for row in rows]
    sides = [row.side(model, var("X"), var("Y")) for row in rows]
    closed = [row.closed(pieces) for row in rows]
    msgs = [row.failure(s, c, form) for row, s, c in zip(rows, sides, closed)]
    return [IdentityRecord(r.record, r.statement, "symbolic", not f, f) for r, f in zip(rows, msgs)]
