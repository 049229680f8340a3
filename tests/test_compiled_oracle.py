"""The recursive valuation walk of ``expr``, kept verbatim as an oracle for
the compiled run that replaced it.

``_value`` below is the walk ``evaluate_rv``, ``evaluate_func`` and
``eic._influence`` called before trees were compiled: one recursion over a
tree of either family, which values each distinct moment argument once per
call.  The compiled run (``expr._compiled`` then ``expr._run``) values each
distinct node once per instance, for every root of one program, and keeps a
failed step's error as its value.  On every tree and draw below, each root
of a run must give the walk's value, or raise the error the walk raises:
the same type with the same message.
"""

import random
from fractions import Fraction
from operator import add, mul

import pytest

from eicalg import eic
from eicalg.errors import EicalgError, EvaluationError, ExactModeError, NormalizationError
from eicalg.expr import (
    SMOOTH_TABLE, BaseVar, EmbedFunc, FuncConst, FuncPower, FuncProduct, FuncSum, IntPower,
    Moment, Reciprocal, RvConst, RvProduct, RvSum, Smooth, E, _compiled, _run,
    bounded_exponent, func_base_vars, inv, to_float, var,
)
from eicalg.measure import Dual, RandVar, expectation
from eicalg.parser import parse_expression
from eicalg.sampling import check_instances, draws, random_binding, random_space, trial_rng
from test_evaluate_oracle import func_tree, instance, rv_tree
from workloads import derive_corpus

# ---------------------------------------------------------------------------
# the walk, as it was


def _value(e, how):
    """The value of a node of either family under ``how``, that is
    ``(moments, space, binding, mode, mean)``: ``moments`` keeps the value of
    each distinct moment argument valued, a rational, or ``mean(space, v)``
    for a vector ``v`` not constant on the space (``expectation``, or
    ``Dual.mean`` for a functional's influence).  A sum or product combines
    its scalar parts as scalars and its vector parts as vectors, and joins
    them with one vector operation unless the scalar is the unit."""
    if isinstance(e, (RvConst, FuncConst)):
        return e.value
    if isinstance(e, Moment):
        if e.arg not in how[0]:
            value = _value(e.arg, how)
            how[0][e.arg] = how[4](how[1], value) if type(value) is RandVar else value
        return how[0][e.arg]
    if isinstance(e, BaseVar):
        v = how[2].get(e.name)
        if v is None:
            raise EvaluationError(f"unbound variable {e.name!r}")
        if v.space != how[1]:
            raise EvaluationError(f"binding for {e.name!r} lives on another space")
        return v
    if isinstance(e, (RvSum, FuncSum, RvProduct, FuncProduct)):
        is_sum = isinstance(e, (RvSum, FuncSum))
        op, unit, parts = (add, 0, e.terms) if is_sum else (mul, 1, e.factors)
        scalar = vector = None
        for part in parts:
            part = _value(part, how)
            if type(part) is RandVar:
                vector = part if vector is None else op(vector, part)
            else:
                scalar = part if scalar is None else op(scalar, part)
        if vector is None:
            return Fraction(unit) if scalar is None else scalar
        return vector if scalar is None or scalar == unit else op(vector, scalar)
    if isinstance(e, (IntPower, FuncPower)):
        return _value(e.base, how) ** bounded_exponent(e.exponent)
    if isinstance(e, EmbedFunc):  # in float mode, rounded through a float
        value = _value(e.func, how)
        return Fraction(to_float(value)) if how[3] == "float" else value
    if isinstance(e, Reciprocal):
        v = _value(e.arg, how)
        if v == 0:  # a Dual is never 0 and raises on its own zero value
            raise EvaluationError("reciprocal of a functional evaluating to zero")
        return v**-1
    if isinstance(e, Smooth):
        if how[3] != "float":
            raise ExactModeError(f"smooth functional {e.tag!r} requires float mode")
        return Fraction(SMOOTH_TABLE[e.tag].at(to_float(_value(e.arg, how))))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------


def walked(e, space, binding, mode, mean):
    """("value", type, value) of the walk on one tree, or (error type, message)."""
    try:
        v = _value(e, ({}, space, binding, mode, mean))
    except (EicalgError, ArithmeticError, TypeError) as exc:
        return type(exc), str(exc)
    return "value", type(v), v


def ran(value):
    """A root's value from a compiled run, in the form of :func:`walked`."""
    if isinstance(value, Exception):
        return type(value), str(value)
    return "value", type(value), value


def agree(trees, space, binding, mode, mean=expectation):
    """Each root of one program of ``trees``, and of a program of that tree
    alone, against the walk; the walk's outcomes."""
    want = [walked(e, space, binding, mode, mean) for e in trees]
    together = _run(_compiled(trees), space, binding, mode, mean)
    assert [ran(v) for v in together] == want, (trees, mode)
    alone = [_run(_compiled([e]), space, binding, mode, mean)[0] for e in trees]
    assert [ran(v) for v in alone] == want, (trees, mode)
    return want


class TestDeriveCorpus:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_estimands_and_gradients(self, mode):
        """Each corpus estimand and its derived gradient at 3 draws; in exact
        mode also the normalized estimand with ``Dual.mean`` as the moment
        rule, the certificate's influence route."""
        outcomes = []
        for i, text in enumerate(derive_corpus()):
            psi = parse_expression(text)
            try:
                derived = eic.derive_eic(psi, mode=mode)
            except (ExactModeError, NormalizationError):
                derived = None
            names = sorted(func_base_vars(psi))
            for index in range(3):
                rng = trial_rng(f"compiled:{mode}:{i}", index)
                space = random_space(rng, 8)
                binding = random_binding(rng, space, names)
                trees = [psi] if derived is None else [psi, derived.eic]
                outcomes += agree(trees, space, binding, mode)
                if derived is not None and mode == "exact":
                    outcomes += agree([derived.estimand], space, binding, mode, Dual.mean)
        assert len(outcomes) >= 1800
        assert sum(o[0] == "value" for o in outcomes) >= 1790


class TestSeededTrees:
    """The seeded trees of the walk's own oracle, ``test_evaluate_oracle``."""

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("tree", [rv_tree, func_tree], ids=["rv", "func"])
    def test_seeded_trees(self, tree, mode):
        rng = random.Random(f"compiled-oracle:{tree.__name__}:{mode}")
        seen = set()
        for index in range(1500):
            space, binding = instance(index)
            [got] = agree([tree(rng, rng.randint(1, 4), mode)], space, binding, mode)
            seen.add(got[0] if got[0] == "value" else got[1])
        assert "value" in seen
        for message in (
            "unbound variable 'Z'",
            "reciprocal of a functional evaluating to zero",
            "exponent 1001 above 1000",
            "binding for 'Y' lives on another space",
        ):
            assert message in seen, message

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_seeded_forests(self, mode):
        """Trees drawn in groups of four share subtrees and moments in one
        program; each root keeps its own value or error."""
        rng = random.Random(f"compiled-forest:{mode}")
        for index in range(300):
            space, binding = instance(index)
            trees = [rng.choice([rv_tree, func_tree])(rng, rng.randint(1, 3), mode)]
            trees += [RvSum((trees[0], BaseVar("X"))), Moment(RvProduct((BaseVar("Y"),)))]
            trees.append(rv_tree(rng, rng.randint(1, 3), mode))
            agree(trees, space, binding, mode)

    @pytest.mark.parametrize(
        "e, message",
        [
            # the walk meets the reciprocal of zero before the exponent bound
            (FuncSum((Reciprocal(FuncSum((Moment(BaseVar("X")), FuncProduct((
                FuncConst(Fraction(-1)), Moment(BaseVar("X"))))))),
                FuncPower(Moment(BaseVar("X")), 1001))),
             "reciprocal of a functional evaluating to zero"),
            # a smooth node in exact mode refuses before its argument is valued
            (Smooth("exp", Moment(BaseVar("Z"))), "smooth functional 'exp' requires float mode"),
            (RvSum((BaseVar("Z"), "not a node")), "unbound variable 'Z'"),
            (RvSum((BaseVar("X"), "not a node")), "not an expression: 'not a node'"),
        ],
        ids=["reciprocal-before-exponent", "smooth-before-argument", "unbound-first",
             "not-a-node"],
    )
    def test_first_error_in_walk_order(self, e, message):
        space, binding = instance(0)
        [got] = agree([e], space, binding, "exact")
        assert got[1] == message


X, Y = var("X"), var("Y")
CATALOG = [E(X), E(X**2), E(X**2) - E(X) ** 2, E(X * Y) - E(X) * E(Y), E(X) * E(Y)]
RATIO = E(X) * inv(E(Y))  # on two outcomes E[Y] is sometimes zero


class TestCatalogProgram:
    def test_every_root_equals_its_own_run(self):
        """The verify catalog with a ratio, as the certificate compiles it:
        each gradient and each normalized estimand, one program per route."""
        derived = [eic.derive_eic(psi) for psi in [*CATALOG, RATIO]]
        zero = 0
        for index in range(200):
            rng = trial_rng("compiled-catalog", index)
            space = random_space(rng, 2)
            binding = random_binding(rng, space, "XY")
            agree([d.eic for d in derived], space, binding, "exact")
            influences = agree([d.estimand for d in derived], space, binding, "exact", Dual.mean)
            zero += influences[-1][0] is EvaluationError
        assert 0 < zero < 200

    def test_a_root_that_raises_leaves_the_others_as_they_were(self):
        """The ratio's draws with E[Y] = 0 are skipped for its check only:
        the others check as many draws, and find the same, as alone."""
        names, checks = eic.certificate([(psi, None) for psi in [*CATALOG, RATIO]])
        *shared, ratio = check_instances(checks, draws(names, 200, 5, 2))
        alone = [check_instances(eic.certificate([(psi, None)])[1], draws(names, 200, 5, 2))[0]
                 for psi in CATALOG]
        assert shared == alone == [(200, None)] * len(CATALOG)
        assert 0 < ratio[0] < 200 and ratio[1] is None

    def test_a_run_is_kept_for_the_same_objects_only(self):
        """The runs of an instance are kept for its space and variables, by
        identity: other variables on the same space are valued afresh."""
        doubled = [(E(X), 2 * (X - E(X)))]
        _, [check] = eic.certificate(doubled)
        rng = trial_rng("compiled-slot", 0)
        space = random_space(rng, 4)
        x, other = (random_binding(rng, space, "X")["X"] for _ in range(2))
        assert x != other

        def fresh(v):
            return eic.certificate(doubled)[1][0](space, v)

        assert check(space, x) == fresh(x)
        assert check(space, other) == fresh(other) != fresh(x)
