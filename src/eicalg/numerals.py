"""Exact conversion between decimal literals and rationals.

A decimal literal is a ratio over a power of ten; parsing never round-trips
through binary floats.
"""

import sys
from fractions import Fraction

from .errors import DataError


def rational_setting(key: str, value) -> Fraction:
    """A setting read exactly as a rational (``0.1``, ``1/3``, ``2e-3``); a
    value that is not one, or has a zero denominator, is a usage error
    naming ``key``."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{key!r} must be a rational number, not {value!r}") from None


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
        raise ValueError(digit_limit("exact value") + " for printing an integer")
    return q**n


def exact_string(value, error: type[ValueError] = DataError) -> str:
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
    digits = exact_string(abs(q.numerator) * 10**k // q.denominator, ValueError)
    sign = "-" if q < 0 else ""
    if k == 0:
        return sign + digits
    digits = digits.rjust(k + 1, "0")
    head, tail = digits[:-k], digits[-k:]
    tail = tail.rstrip("0")
    return sign + (head if not tail else f"{head}.{tail}")
