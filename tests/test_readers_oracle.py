"""Differential tests for the two text readers: the expression tokenizer
and the data-cell reader.

Each reader matches input with one compiled pattern.  The character-loop
tokenizer and the strip-and-split cell reader they replaced are kept below,
unchanged, as reference oracles: on seeded strings and CSV texts both
routes must give equal tokens or data, or the same error with the same
text (and, for an expression, the same column).
"""

import random
import re
import sys

import pytest

from eicalg.errors import DataError, ParseError
from eicalg.estimate import Dataset, read_delimited
from eicalg.parser import Token, tokenize
from workloads import derive_corpus, grammar_expression

# ---------------------------------------------------------------------------
# reference oracles: the character-loop readers, verbatim

_DIGITS = "0123456789"
_IDENT_START = "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def reference_tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == ".":
                j += 1
                if j >= len(text) or text[j] not in _DIGITS:
                    raise ParseError("digits required after decimal point", col)
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
            tokens.append(Token("NUMBER", text[i:j], col))
            i = j
            continue
        if ch in _IDENT_START:
            j = i
            while j < len(text) and text[j] in _IDENT_START + _DIGITS:
                j += 1
            tokens.append(Token("IDENT", text[i:j], col))
            i = j
            continue
        if ch in "+-*^()[],":
            tokens.append(Token(ch, ch, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", col)
    tokens.append(Token("EOF", "", len(text) + 1))
    return tokens


_DECIMAL_RE = re.compile(r"^[0-9]+(\.[0-9]+)?$")


def is_decimal_literal(text: str) -> bool:
    return bool(_DECIMAL_RE.match(text))


def _parse_cell(text: str) -> tuple[int, int]:
    """A decimal cell as (integer, digits after the point)."""
    text = text.strip()
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if not is_decimal_literal(body):
        raise DataError(f"non-numeric cell {text!r}")
    whole, _, frac = body.partition(".")
    value = int(whole + frac)
    return (-value if negative else value), len(frac)


def reference_read_delimited(text: str) -> Dataset:
    """Parse comma-separated data: header line, decimal numerals, no quoting."""
    lines = [line for line in text.splitlines() if line.strip() != ""]
    if len(lines) < 2:
        raise DataError("need a header line and at least one data row")
    if any(ch in text for ch in ('"', "'", "\\")):
        raise DataError("quoting and escapes are not supported")
    names = [name.strip() for name in lines[0].split(",")]
    if any(not name for name in names):
        raise DataError("empty column name")
    values, digits = [[] for _ in names], [[] for _ in names]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise DataError("ragged row")
        for cell, column, places in zip(cells, values, digits):
            value, d = _parse_cell(cell)
            column.append(value)
            places.append(d)
    if len(set(names)) != len(names):
        raise DataError("column names must be distinct")
    columns = {}
    for name, column, places in zip(names, values, digits):
        top = max(places)
        columns[name] = (10**top, [v * 10 ** (top - d) for v, d in zip(column, places)])
    n = len(lines) - 1
    return Dataset(columns, [1] * n, n)


# ---------------------------------------------------------------------------
# outcomes


def _tokens_or_error(tokenizer, text):
    try:
        return [(t.kind, t.text, t.column) for t in tokenizer(text)]
    except ParseError as exc:
        return ("ParseError", str(exc), exc.column)


def _data_or_error(reader, text):
    try:
        data = reader(text)
    except DataError as exc:
        return ("DataError", str(exc))
    return data._columns, data._counts, data.n


# ---------------------------------------------------------------------------
# seeded expression strings

_ALPHABET = (
    "0123456789" "0123456789" ".." "   \t" "+-*^()[],"
    "EXYZ_ab" "\n\r" "²é٣\u2003\x1c\xa0"
)
_WORDS = ("E[", "inv(", "exp(", "log(", "sqrt(", "Var(X)", "Cov(X,Y)", "1.", "2.5")


def _smooth(rng, depth):
    text = grammar_expression(rng, depth)
    wrap = rng.randrange(3)
    if wrap == 1:
        return f"exp({text})"
    if wrap == 2:
        return f"log(({text})^2 + 1)"
    return text


def _mutated(rng, text):
    """``text`` with one character or word inserted, replaced or deleted."""
    i = rng.randrange(len(text) + 1)
    piece = rng.choice(_ALPHABET) if rng.random() < 0.7 else rng.choice(_WORDS)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + piece + text[i:]
    if kind == 1:
        return text[:i] + piece + text[i + 1:]
    return text[:i] + text[i + 1:]


def expression_strings(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    strings = list(derive_corpus())
    while len(strings) < count:
        kind = rng.randrange(4)
        if kind == 0:
            strings.append(_smooth(rng, rng.randint(1, 3)))
        elif kind == 1:
            strings.append(_mutated(rng, _smooth(rng, rng.randint(1, 3))))
        else:
            length = rng.randint(0, 16)
            strings.append("".join(rng.choice(_ALPHABET) for _ in range(length)))
    return strings


def test_tokenizer_matches_the_reference_on_seeded_strings():
    strings = expression_strings(20251018, 21_000)
    errors = 0
    for text in strings:
        expected = _tokens_or_error(reference_tokenize, text)
        assert _tokens_or_error(tokenize, text) == expected, text
        errors += expected[0] == "ParseError"
    # both outcomes are exercised, not only one
    assert 2_000 < errors < len(strings) - 2_000


@pytest.mark.parametrize(
    "text",
    ["", " ", "\t1", "1.", "12.", "1.2.3", ".5", "1..2", "007", "1.50", "X2_",
     "_", "2X", "٣", "X²", "E[X]\n", "1 .5", "E[X] \t+ 0.5", "Cov(X,Y)^12"],
)
def test_tokenizer_matches_the_reference_on_listed_strings(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(reference_tokenize, text)


# ---------------------------------------------------------------------------
# seeded CSV texts

_SPECIAL_CELLS = (
    "-", "--1", "+1", ".5", "1.", "1.2.3", "-0", "-0.0", "007", "٣", "\x1c8",
    "\u2003 4", "", " ", "1e3", "1_0", "0x1", "½", " -2.50 ", "\t3\t", "- 1",
    "1 2", "nan",
)
# whitespace around a cell; "\x0b" and "\x85" also end a line for splitlines
_PADDING = (" ", "\t", " \t", "\u2003", "\xa0", "\x0b", "\x85")
_NAMES = ("X", "Y", "Z", " X", "Y\t", "", "X")
_NEWLINES = ("\n", "\n", "\r\n", "\r")
_NOISE = ('"', "'", "\\", "\x1c", "\u2028")


def _numeral(rng):
    sign = "-" if rng.random() < 0.3 else ""
    whole = str(rng.randrange(1000)).zfill(rng.choice((1, 1, 3)))
    if rng.random() < 0.5:
        return sign + whole
    return f"{sign}{whole}.{rng.randrange(10**4):0{rng.randint(1, 4)}d}"


def _cell(rng):
    if rng.random() < 0.08:
        return rng.choice(_SPECIAL_CELLS)
    pad = [rng.choice(_PADDING) if rng.random() < 0.2 else "" for _ in range(2)]
    return pad[0] + _numeral(rng) + pad[1]


def csv_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        width = rng.randint(1, 3)
        if rng.random() < 0.9:
            header = ["X", "Y", "Z"][:width]
        else:
            header = [rng.choice(_NAMES) for _ in range(width)]
        lines = [",".join(header)]
        for _ in range(rng.randint(0, 5)):
            cells = [_cell(rng) for _ in range(width)]
            if rng.random() < 0.05:
                cells = cells[:-1] if rng.random() < 0.5 else cells + [_cell(rng)]
            lines.append(",".join(cells))
            if rng.random() < 0.05:
                lines.append(rng.choice(("", " ", "\t ")))
        newline = rng.choice(_NEWLINES)
        text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
        if rng.random() < 0.03:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(_NOISE) + text[i:]
        texts.append(text)
    return texts


def test_cell_reader_matches_the_reference_on_seeded_csv_texts():
    texts = csv_texts(20251018, 10_000)
    outcomes = set()
    for text in texts:
        expected = _data_or_error(reference_read_delimited, text)
        assert _data_or_error(read_delimited, text) == expected, repr(text)
        outcomes.add(expected[1] if expected[0] == "DataError" else "data")
    # every error, and data, is met at least once
    assert {
        "data", "ragged row", "empty column name", "column names must be distinct",
        "quoting and escapes are not supported",
        "need a header line and at least one data row",
    } <= outcomes
    assert any(o.startswith("non-numeric cell") for o in outcomes)


@pytest.mark.parametrize("cell", _SPECIAL_CELLS)
def test_cell_reader_matches_the_reference_on_listed_cells(cell):
    for text in (f"X\n{cell}\n", f"X,Y\r\n1,{cell}\r\n", f"X\n\n{cell}\n 2 \n"):
        expected = _data_or_error(reference_read_delimited, text)
        assert _data_or_error(read_delimited, text) == expected


def test_regex_whitespace_is_str_isspace():
    """The cell pattern's ``\\s`` strips exactly what ``str.strip`` does."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
