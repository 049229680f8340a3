"""Exact conversion between decimal literals and rationals, and the table
of settings.

A decimal literal is a ratio over a power of ten; parsing never round-trips
through binary floats.  A setting is read by :func:`setting`, the one
reader of every flag and config key that has a kind and a range.
"""

import re
import sys
from fractions import Fraction

from .errors import DataError, EicalgError, UsageError

# A verify trial's work grows with the outcomes of its space, and a study's
# with its grid points: a million points took 11.7 s and 319 MB.
MAX_OUTCOMES, MAX_POINTS = 1000, 10_000


def _integer(value) -> int:
    """An int, or a string of ASCII digits after an optional minus."""
    if isinstance(value, int) or isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise TypeError


_EXPONENT = re.compile(r"[eE][-+]?0*([0-9]+)\s*$")


def _numeral(value):
    """``value``, unless it is a string with an underscore or a character
    that is not ASCII, which ``float`` and ``Fraction`` would read ("1_000",
    "٣") though the expression grammar does not: :class:`TypeError`."""
    if isinstance(value, str) and (not value.isascii() or "_" in value):
        raise TypeError(f"{value!r} is not an ASCII numeral")
    return value


def read_rational(value) -> Fraction:
    """The rational a number or a string writes.  A string :func:`_numeral`
    refuses raises :class:`TypeError`.  ``Fraction`` computes ten to a
    written exponent, so one whose power of ten has more digits than the
    digit limit is refused first, with a :class:`UsageError`."""
    text = str(_numeral(value))
    written = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if written and limit and (len(written[1]) > len(str(limit)) or int(written[1]) >= limit):
        raise UsageError(digit_limit("its power of ten"))
    return Fraction(text)


# each kind: its reader, and the message for a value that is not of the kind
_KINDS = {
    "int": (_integer, "{key!r} must be an integer"),
    "float": (lambda v: float(_numeral(v)), "{key!r} must be a real number or a numeric string"),
    "rational": (read_rational, "{key!r} must be a rational number, not {value!r}"),
}
# each setting: its kind, its range (None: every value of the kind) and the
# message for a value outside the range
SETTINGS = {
    # numpy's multinomial takes a 64-bit count
    "n": ("int", lambda v: 2 <= v < 2**63, "sample size 'n' must lie in [2, 2**63 - 1]"),
    "replicates": ("int", lambda v: v >= 1, "at least one replicate required"),
    "seed": ("int", lambda v: v >= 0, "'seed' must be nonnegative"),
    "level": ("float", lambda v: 0 < v < 1, "confidence level must lie in (0, 1)"),
    "--split": ("rational", lambda v: 0 < v <= 1, "split ratio must lie in (0, 1]"),
    # with no trials no instance is checked, so a pass would be vacuous
    "--trials": ("int", lambda v: v >= 1, "--trials must be at least 1"),
    "--seed": ("int", None, ""),
    "--max-outcomes": (
        "int", lambda v: 2 <= v <= MAX_OUTCOMES, f"--max-outcomes must lie in [2, {MAX_OUTCOMES}]"
    ),
    "p": ("rational", lambda v: 0 < v < 1, "bernoulli parameter must lie in (0, 1)"),
    "points": ("int", lambda v: 1 <= v <= MAX_POINTS, f"'points' must lie in [1, {MAX_POINTS}]"),
    "sd": ("rational", lambda v: v > 0, "need positive sd"),
    "span": ("rational", lambda v: v > 0, "need positive span"),
    **dict.fromkeys(("support", "weights", "low", "high", "mean"), ("rational", None, "")),
}

# the parameters each sampler family reads, each a setting above
FAMILIES = {
    "bernoulli": ("p",),
    "discrete": ("support", "weights"),
    "uniform-grid": ("low", "high", "points"),
    "gaussian-grid": ("mean", "sd", "points", "span"),
}


def setting(key: str, value):
    """``value`` of the setting ``key``, read as its kind and checked against
    its range; a flag's string and a config file's JSON value are read
    alike.  A bool is of no kind, nor is a string with an underscore or a
    character that is not ASCII (see :func:`_numeral`).  A value outside the
    kind or the range is a :class:`UsageError`."""
    kind, inside, message = SETTINGS[key]
    read, wrong_kind = _KINDS[kind]
    try:
        if isinstance(value, bool):
            raise TypeError
        value = read(value)
    except UsageError as exc:  # the reader's own refusal
        raise UsageError(f"{key!r}: {exc}") from None
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise UsageError(wrong_kind.format(key=key, value=value)) from None
    if inside and not inside(value):
        raise UsageError(message)
    return value


def digit_limit(what: str) -> str:
    """The message for ``what`` having more digits than Python converts
    between an integer and text (``sys.get_int_max_str_digits()``)."""
    return f"{what} exceeds the limit of {sys.get_int_max_str_digits()} digits"


def checked_power(q: Fraction, n: int) -> Fraction:
    """``q**n``, unless it has more than ten bits per digit of the digit
    limit (it has at least n*(b-1) bits, b the larger bit length of
    numerator and denominator): about three times the digits that print, so
    the error printing it would raise is raised before it is computed."""
    bound = 10 * sys.get_int_max_str_digits()  # 0: no limit
    if bound and n * (max(q.numerator.bit_length(), q.denominator.bit_length()) - 1) > bound:
        raise UsageError(digit_limit("exact value") + " for printing an integer")
    return q**n


def exact_string(value, error: type[EicalgError] = DataError) -> str:
    """``str(value)`` of an exact result.  One with more digits than Python
    prints raises ``error`` naming the limit."""
    try:
        return str(value)
    except ValueError:
        raise error(digit_limit("exact value") + " for printing an integer") from None


def format_decimal(q: Fraction) -> str | None:
    """Render q as an exact decimal literal, or None if impossible.

    Exact decimal rendering exists iff the reduced denominator is 2^a * 5^b.
    The sign is included for negative inputs.
    """
    den = q.denominator
    two = five = 0
    while den % 2 == 0:
        den //= 2
        two += 1
    while den % 5 == 0:
        den //= 5
        five += 1
    if den != 1:
        return None
    k = max(two, five)
    digits = exact_string(abs(q.numerator) * 10**k // q.denominator, UsageError)
    sign = "-" if q < 0 else ""
    if k == 0:
        return sign + digits
    digits = digits.rjust(k + 1, "0")
    head, tail = digits[:-k], digits[-k:]
    tail = tail.rstrip("0")
    return sign + (head if not tail else f"{head}.{tail}")
