"""Exact rational values extended with a single absorbing +infinity.

All function values in this package are ``fractions.Fraction`` or the
distinguished ``INF`` object.  Working over Q keeps every inequality used by
the recognizers decidable with zero tolerance; floats never appear.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union


class _Infinity:
    """The single +infinity value. Absorbing under addition, larger than
    every rational. Only one instance (``INF``) ever exists."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (_Infinity, Fraction, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        # INF - finite stays INF; INF - INF is undefined and must not occur.
        if isinstance(other, (Fraction, int)):
            return self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)) and other > 0:
            return self
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __ne__(self, other):
        return not isinstance(other, _Infinity)

    def __lt__(self, other):
        if isinstance(other, (_Infinity, Fraction, int)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return True
        if isinstance(other, (Fraction, int)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        if isinstance(other, (Fraction, int)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Infinity, Fraction, int)):
            return True
        return NotImplemented

    def __hash__(self):
        return hash("dconvex-infinity")

    def __repr__(self):
        return "INF"


INF = _Infinity()

Value = Union[Fraction, _Infinity]


def is_finite(v: Value) -> bool:
    return not isinstance(v, _Infinity)


def rat(num, den: int = 1) -> Fraction:
    """Shorthand constructor for exact rationals."""
    return Fraction(num, den)


# 'p' or 'p/q' in ASCII digits, with an optional minus sign on p
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_value(text: str) -> Value:
    """Parse 'p/q', 'p', or 'inf', with surrounding whitespace, into an
    exact value.  Any other spelling (a decimal point, an exponent, a plus
    sign, an underscore) or a zero q raises ValueError."""
    s = text.strip()
    if s == "inf":
        return INF
    m = _RATIONAL.fullmatch(s)
    if m is None or m[2] is not None and not int(m[2]):
        raise ValueError(f"{text!r} is not 'p', 'p/q' with q > 0, or 'inf'")
    return Fraction(int(m[1]), int(m[2] or 1))


def format_value(v: Value) -> str:
    """Inverse of :func:`parse_value`; rationals render as 'p' or 'p/q'."""
    if isinstance(v, _Infinity):
        return "inf"
    return str(v)
