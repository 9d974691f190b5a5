"""Exact rational parsing and rendering, the one input fault type, and the
one common-denominator rule.

A validator is handed the path of what it reads as `where` and raises
`ParseError` at the fault, naming the full path of the faulty value.

Every exact integer path that starts from rationals puts a batch of them
over L, the lcm of their denominators (`over_common_denominator`), and works
with the integers q * L; the equal-revenue grids are integers from the
start. A joint distribution's atoms go over their denominators once per
distribution (`JointDistribution.integer_atoms`), by this rule; the search
and the buyer, the final check of its revenues, both read them and share
no choice code.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Tuple, Union

RationalLike = Union[int, str, Fraction]


class ParseError(ValueError):
    """Malformed input; `location` is the JSON-path-like position of the fault."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def parse_rational(value: RationalLike, where: str = "value") -> Fraction:
    """Convert "p/q" strings, decimal strings, or ints to an exact Fraction."""
    if isinstance(value, bool):
        raise ParseError(where, "expected a rational number, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(where, f"not a rational number: {value!r} ({exc})") from None
    raise ParseError(where, f"expected int or string rational, got {type(value).__name__}")


def parse_nonnegative(value: RationalLike, where: str = "value") -> Fraction:
    q = parse_rational(value, where)
    if q.numerator < 0:  # a Fraction's sign, without a Fraction comparison
        raise ParseError(where, f"must be nonnegative, got {q}")
    return q


def format_rational(q: Fraction) -> str:
    return str(q)


# the digits after the point that a decimal rendering keeps
_PLACES = 12


def format_decimal(q: Fraction) -> Tuple[str, bool]:
    """Render a Fraction as a decimal string.

    Returns (text, exact). When the reduced denominator has factors other
    than 2 and 5 the expansion repeats; the text is then truncated at
    `_PLACES` digits and flagged inexact.
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
    for _ in range(_PLACES):
        rem *= 10
        d, rem = divmod(rem, q.denominator)
        digits.append(str(d))
        if rem == 0:
            break
    text = f"{sign}{whole}." + "".join(digits)
    if rem != 0:
        exact = False
    return text, exact


def decimal_with_flag(q: Fraction) -> str:
    """Decimal rendering with a trailing "..." marker when truncated."""
    text, exact = format_decimal(q)
    return text if exact else text + "..."


def _lcm(ints: Iterable[int]) -> int:
    """The lcm, pairwise over a balanced tree down to a few operands, so that
    most steps take small operands where a running lcm carries one ever
    larger operand through every step; a few operands take one running lcm,
    which costs a single call."""
    xs = list(ints)
    while len(xs) > 16:
        xs = [math.lcm(*xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return math.lcm(*xs)


def over_common_denominator(qs: Iterable[Fraction]) -> Tuple[int, List[int]]:
    """(L, [q * L for q in qs]): L is the lcm of the denominators of qs (1 for
    none), taken by `_lcm`, and L // d is taken once per distinct denominator
    d. qs may hold ints and other rationals."""
    qs = list(qs)
    dens = [q.denominator for q in qs]
    distinct = set(dens)
    scale = _lcm(distinct)
    per = {d: scale // d for d in distinct}
    return scale, [q.numerator * per[d] for q, d in zip(qs, dens)]
