"""Exact rational parsing and rendering helpers."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

RationalLike = Union[int, str, Fraction]


def parse_rational(value: RationalLike, where: str = "value") -> Fraction:
    """Convert "p/q" strings, decimal strings, or ints to an exact Fraction."""
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a rational number, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{where}: not a rational number: {value!r} ({exc})") from None
    raise ValueError(f"{where}: expected int or string rational, got {type(value).__name__}")


def parse_nonnegative(value: RationalLike, where: str = "value") -> Fraction:
    q = parse_rational(value, where)
    if q.numerator < 0:  # a Fraction's sign, without a Fraction comparison
        raise ValueError(f"{where}: must be nonnegative, got {q}")
    return q


def format_rational(q: Fraction) -> str:
    return str(q)


def format_decimal(q: Fraction, places: int = 12) -> Tuple[str, bool]:
    """Render a Fraction as a decimal string.

    Returns (text, exact). When the reduced denominator has factors other
    than 2 and 5 the expansion repeats; the text is then truncated at
    `places` digits and flagged inexact.
    """
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, rem = divmod(q.numerator, q.denominator)
    if rem == 0:
        return f"{sign}{whole}", True
    den = q.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    exact = den == 1
    digits = []
    for _ in range(places):
        rem *= 10
        d, rem = divmod(rem, q.denominator)
        digits.append(str(d))
        if rem == 0:
            break
    text = f"{sign}{whole}." + "".join(digits)
    if rem != 0:
        exact = False
    return text, exact


def decimal_with_flag(q: Fraction, places: int = 12) -> str:
    """Decimal rendering with a trailing "..." marker when truncated."""
    text, exact = format_decimal(q, places)
    return text if exact else text + "..."


def floor_to_dyadic(x: float, bits: int = 20) -> Fraction:
    """Largest multiple of 2**-bits that is <= x (exact for binary64 inputs)."""
    scale = 1 << bits
    return Fraction(math.floor(Fraction(x) * scale), scale)
