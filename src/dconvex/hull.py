"""Local convex hulls at half-integral points.

The integral neighborhood of x collects the integer points within open unit
distance of x in every coordinate, i.e. the floor/ceiling box around x.  The
local convex extension of a function at x is the cheapest convex combination
of neighborhood points hitting x.  It is the one routine here: a set is read
as its indicator function (``core.value_map``), so x lies in the set's local
hull exactly when the indicator's local extension is finite there.  It is
decided exactly by a rational simplex, with closed forms for one or two
half-integral coordinates.  An independent brute-force route that
enumerates basic solutions is kept in the tests (``tests/hull_oracle.py``)
for cross-checking.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .core import LatticeSet, LiftedInputError, Point, value_map
from .rationals import INF, Value, is_finite
from .simplex import OPTIMAL, solve_lp

HalfPoint = Tuple[Fraction, ...]


def half_midpoint(x: Point, y: Point) -> HalfPoint:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return tuple(Fraction(a + b, 2) for a, b in zip(x, y))


def is_integral(x: HalfPoint) -> bool:
    return all(c.denominator == 1 for c in x)


def neighborhood(x: HalfPoint) -> List[Point]:
    """Integer points z with floor(x_i) <= z_i <= ceil(x_i), sorted.

    2^k points where k is the number of half-integral coordinates.
    """
    return sorted(itertools.product(*(range(math.floor(c), math.ceil(c) + 1) for c in x)))


def _combination_system(candidates: Sequence[Point], x: HalfPoint):
    """Equality system for convex combinations of candidates hitting x."""
    n = len(x)
    rows = [[Fraction(p[i]) for p in candidates] for i in range(n)]
    rows.append([Fraction(1)] * len(candidates))
    rhs = [Fraction(c) for c in x] + [Fraction(1)]
    return rows, rhs


# the two diagonals of a square, as pairs of corners (1: the ceiling side)
_DIAGONALS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))


def in_local_hull(s: LatticeSet, x: HalfPoint) -> bool:
    """Is x a convex combination of the set's points inside its integral
    neighborhood?  That is, is the indicator's local extension finite at x."""
    return is_finite(local_extension_value(s, x))


def local_extension_value(obj, x: HalfPoint) -> Value:
    """Minimum of sum(lambda_v * f(v)) over convex combinations of
    neighborhood points v hitting x; +infinity when no combination exists.
    A set is read as its indicator: 0 inside its local hull, +infinity
    outside.

    With one or two half-integral coordinates the answer has a closed form
    (x is the center of a segment or square: it needs the two endpoints, or
    one full diagonal); the LP only runs beyond that.
    """
    if obj.lifted:
        raise LiftedInputError("local extension needs a finite object")
    if len(x) != obj.dim:
        raise ValueError("dimension mismatch")
    vals = value_map(obj)
    if is_integral(x):
        return vals.get(tuple(int(c) for c in x), INF)
    candidates = [p for p in neighborhood(x) if p in vals]
    if not candidates:
        return INF
    axes = [i for i, c in enumerate(x) if c.denominator == 2]
    if len(axes) == 1:
        return Fraction(vals[candidates[0]] + vals[candidates[1]], 2) if len(candidates) == 2 else INF
    if len(axes) == 2:
        # any feasible combination is a blend of the two diagonals, and the
        # minimum is attained on one of them
        corner = {tuple(int(p[i] > x[i]) for i in axes): vals[p] for p in candidates}
        sums = [corner[a] + corner[b] for a, b in _DIAGONALS if a in corner and b in corner]
        return Fraction(min(sums), 2) if sums else INF
    rows, rhs = _combination_system(candidates, x)
    status, _, value = solve_lp(rows, rhs, [vals[p] for p in candidates])
    return value if status == OPTIMAL else INF
