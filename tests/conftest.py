"""Shared hypothesis strategies (small exact spaces and integer variables),
the spliced grammar inputs of the round-trip checks, and the centering
fault the negative-control tests inject.

The benchmark's ``perfbench/`` directory goes on the import path, so the
tests draw grammar expressions from the generator of its derive corpus."""

import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from eicalg import brackets
from eicalg.measure import FiniteProbSpace, RandVar

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import grammar_expression  # noqa: E402

# scalar parts of other shapes: smooth and reciprocal functionals, and
# random-variable text that folds to a constant
SPLICES = ("exp(E[X])", "log(E[X]+1)", "sqrt(Var(X))", "X^0", "0*Y", "inv(E[Y]+2)")


def spliced_expression(seed: int) -> str:
    """Input ``seed`` of the round-trip checks: a derive-corpus grammar
    expression of depth 1 to 4, in which every third seed replaces the first
    ``E[X]`` with one of :data:`SPLICES`."""
    rng = random.Random(seed)
    text = grammar_expression(rng, rng.randint(1, 4))
    if seed % 3 == 0 and "E[X]" in text:
        text = text.replace("E[X]", rng.choice(SPLICES), 1)
    return text


@st.composite
def spaces(draw, max_outcomes=5):
    n = draw(st.integers(min_value=2, max_value=max_outcomes))
    raw = draw(
        st.lists(
            st.integers(min_value=1, max_value=9), min_size=n, max_size=n
        )
    )
    total = sum(raw)
    return FiniteProbSpace(
        tuple(f"z{i}" for i in range(n)),
        tuple(Fraction(r, total) for r in raw),
    )


@st.composite
def space_and_vars(draw, count=1, low=-5, high=5):
    space = draw(spaces())
    variables = []
    for _ in range(count):
        values = draw(
            st.lists(
                st.integers(min_value=low, max_value=high),
                min_size=space.size,
                max_size=space.size,
            )
        )
        variables.append(RandVar(space, tuple(Fraction(v) for v in values)))
    return (space, *variables)


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=7),
)


def negate_first_centering(monkeypatch):
    """Inject a sign slip at one centering site: the covariance of the
    centered coordinates in the first composite bracket sees its first one
    negated."""

    def first_composite(o, x, y):
        tx, ty = o.bracket_T_P(x, y)
        return o.T(o.bracket_P_prod(x, y)) - o.embed(o.bracket_P_prod(-tx, ty))

    monkeypatch.setattr(brackets.Algebra, "nested_T_P_prod", first_composite)
