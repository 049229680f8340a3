"""The two hot layers of ``estimate``: the moment pass and the reader.

``Dataset.moment`` values a primitive moment as one lazy integer pass; the
list-building pass it replaced is kept below, unchanged, as the reference,
and both must give the same ``Fraction`` to the bit.  ``read_delimited``
validates every row with one pattern before it converts; on seeded texts
whose columns keep their places it must match the cell-by-cell reference
reader of ``test_readers_oracle``.  Two tracemalloc bounds pin the memory
of both layers.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from eicalg.estimate import (
    CompiledEstimand,
    Dataset,
    eic_standard_error,
    onestep_estimate,
    plugin_estimate,
    read_delimited,
)
from eicalg.mc import resolve_sampler
from eicalg.parser import parse_expression
from test_readers_oracle import _data_or_error, reference_read_delimited
from workloads import MC_GRID, csv_text, estimate_rows

# ---------------------------------------------------------------------------
# reference oracle: the list-comprehension moment pass, verbatim


def reference_moment(self, mono) -> Fraction:
    """E[prod X^a] of a base monomial ((name, exponent), ...), by one
    integer pass over the rows."""
    terms, scale = self._counts, self.n
    for name, exponent in mono:
        column_scale, column = self._columns[name]
        terms = [t * x**exponent for t, x in zip(terms, column)]
        scale *= column_scale**exponent
    return Fraction(sum(terms), scale)


# ---------------------------------------------------------------------------
# seeded laws

_NAMES = ("X", "Y", "Z")
_SCALES = (1, 10, 1000, 10**6)


def _law(rng: random.Random, unit: bool) -> Dataset:
    """Up to three columns of signed ints over scales from 1 to 10**6, with
    unit counts or multinomial-shaped counts that include zeros."""
    rows = rng.randint(1, 40)
    columns = {
        name: (rng.choice(_SCALES), [rng.randint(-(10**7), 10**7) for _ in range(rows)])
        for name in _NAMES[: rng.randint(1, 3)]
    }
    if unit:
        counts = [1] * rows
    else:
        counts = [rng.choice((0, 0, 1, 2, 7, 300)) for _ in range(rows)]
        counts[rng.randrange(rows)] += 1  # at least one draw
    return Dataset(columns, counts, sum(counts))


def _monomials(rng: random.Random, law: Dataset, count: int):
    """Base monomials of one to three factors, exponents 1 to 6, names in
    order as the canonical forms write them."""
    for _ in range(count):
        names = sorted(rng.sample(law.columns, rng.randint(1, len(law.columns))))
        yield tuple((name, rng.randint(1, 6)) for name in names)


def _mc_grid_truth_law() -> Dataset:
    """The true law of the benchmark's Monte Carlo study, built as
    ``run_mc`` builds it."""
    support, weights = resolve_sampler("gaussian-grid", dict(MC_GRID))
    scale = math.lcm(*(v.denominator for v in support))
    total = math.lcm(*(w.denominator for w in weights))
    column = {"X": (scale, [int(v * scale) for v in support])}
    return Dataset(column, [int(w * total) for w in weights], total)


def _same_bits(law: Dataset, mono) -> bool:
    got, want = law.moment(mono), reference_moment(law, mono)
    return type(got) is Fraction and (got.numerator, got.denominator) == (
        want.numerator, want.denominator
    )


class TestMomentPassAgainstReference:
    @pytest.mark.parametrize("unit", [True, False], ids=["unit-counts", "multinomial-counts"])
    def test_seeded_laws(self, unit):
        rng = random.Random(f"moment-pass:{unit}")
        for _ in range(200):
            law = _law(rng, unit)
            for mono in (*_monomials(rng, law, 8), ()):
                assert _same_bits(law, mono), (law._columns, law._counts, mono)

    def test_subset_folds(self):
        rng = random.Random("moment-pass:folds")
        for _ in range(100):
            law = _law(rng, rng.random() < 0.5)
            rows = len(law._counts)
            start = rng.randrange(rows)
            fold = law.subset(start, rng.randint(start + 1, rows))
            if fold.n == 0:  # a fold of zero counts is no law
                continue
            for mono in _monomials(rng, fold, 8):
                assert _same_bits(fold, mono), (fold._columns, fold._counts, mono)

    def test_every_exponent_on_the_mc_grid_truth_law(self):
        law = _mc_grid_truth_law()
        assert law._counts.count(1) != len(law._counts)
        for exponent in range(1, 7):
            assert _same_bits(law, (("X", exponent),))

    def test_unit_counts_are_read_from_the_counts(self):
        """A law whose counts are all 1 skips the multiply by them; one with
        a count of 0 or 2 must not."""
        columns = {"X": (10, [3, -4, 5])}
        for counts in ([1, 1, 1], [1, 0, 1], [2, 1, 1]):
            law = Dataset(columns, counts, sum(counts))
            for exponent in range(1, 4):
                assert _same_bits(law, (("X", exponent),)), counts


# ---------------------------------------------------------------------------
# the reader's validate-then-convert route


def _fixed_texts(seed: int, count: int) -> list[str]:
    """Texts whose columns each keep one number of places, so the one-pattern
    route reads them, with a rare cell of other places, a bad cell, a
    ragged row, a duplicate header, or padding that ``int()`` does not strip
    (the unit separator), each of which sends the text cell by cell."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        width = rng.randint(1, 3)
        places = [rng.choice((0, 1, 3, 6)) for _ in range(width)]
        header = list(_NAMES[:width]) if rng.random() < 0.95 else ["X"] * width
        lines = [",".join(header)]
        for _ in range(rng.randint(1, 30)):
            cells = []
            for p in places:
                sign = "-" if rng.random() < 0.4 else ""
                cell = f"{sign}{rng.randrange(10**5)}"
                cell += f".{rng.randrange(10**p):0{p}d}" if p else ""
                pad = rng.choice(("", "", "", " ", "\t", " ", "\xa0"))
                cells.append(pad + cell + pad[::-1])
            if rng.random() < 0.02:
                cells[rng.randrange(width)] = rng.choice(("1.25", "7", "x", "1.", "\x1f2", ""))
            if rng.random() < 0.01:
                cells.append("1")
            lines.append(",".join(cells))
        texts.append("\n".join(lines) + "\n")
    return texts


def test_fixed_places_route_matches_the_reference_reader():
    outcomes = set()
    for text in _fixed_texts(20261019, 3_000):
        expected = _data_or_error(reference_read_delimited, text)
        assert _data_or_error(read_delimited, text) == expected, repr(text)
        outcomes.add(expected[1] if expected[0] == "DataError" else "data")
    assert {"data", "ragged row", "column names must be distinct"} <= outcomes
    assert any(o.startswith("non-numeric cell") for o in outcomes)


@pytest.mark.parametrize(
    "text",
    [
        "X\n\x1f2\n3\n",  # str.isspace strips it, int() does not
        "X\n1.50\n2.5\n",  # places that differ after the first row
        "X\n2\n1.5\n",
        "X,Y\n1,2\n3\n",  # ragged after a good first row
        "X,Y\n1\n3,4\n",  # ragged first row
        "X\n1.2.3\n4\n",
        "X,X\n1,2\n3,4\n",
        "X\n-0.000\n-0.500\n",
        "X\n 1.5\t\n\u3000-2.5 \n",
    ],
)
def test_listed_texts_match_the_reference_reader(text):
    assert _data_or_error(read_delimited, text) == _data_or_error(
        reference_read_delimited, text
    )


# ---------------------------------------------------------------------------
# memory


def _traced_peak_mib(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_traced_peaks_of_the_reader_and_the_estimators():
    """On the benchmark's 10,000-row, two-column, 3-decimal text the reader
    peaks at most at 2.5 MiB (it keeps the lines, the two columns and one
    chunk of cells; keeping every row's match groups peaks at 5.46 MiB),
    and the three estimators together at 1.0 MiB (no pass builds a list)."""
    text = csv_text(estimate_rows(1, 10_000))
    psi = parse_expression("Cov(X,Y)*inv(Var(X))")

    def estimators(data):
        estimand = CompiledEstimand(psi)
        plugin_estimate(estimand, data)
        eic_standard_error(estimand, data)
        onestep_estimate(estimand, data, Fraction(1, 2))

    estimators(read_delimited(text))  # warm: patterns compiled, caches filled
    assert _traced_peak_mib(lambda: read_delimited(text)) <= 2.5
    data = read_delimited(text)
    assert _traced_peak_mib(lambda: estimators(data)) <= 1.0
