"""Local convex hulls at half-integral points.

The integral neighborhood of x collects the integer points within open unit
distance of x in every coordinate, i.e. the floor/ceiling box around x.  The
local convex extension of a function at x is the cheapest convex combination
of neighborhood points hitting x.  Both questions are decided exactly by a
rational simplex, with closed forms for one or two half-integral
coordinates.  An independent brute-force route that enumerates basic
solutions is kept in the tests (``tests/hull_oracle.py``) for
cross-checking.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from .core import LatticeFn, LatticeSet, LiftedInputError, Point
from .rationals import INF, Value
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
    ranges = []
    for c in x:
        lo, hi = math.floor(c), math.ceil(c)
        ranges.append(range(lo, hi + 1))
    return sorted(itertools.product(*ranges))


def _combination_system(candidates: Sequence[Point], x: HalfPoint):
    """Equality system for convex combinations of candidates hitting x."""
    n = len(x)
    rows = [[Fraction(p[i]) for p in candidates] for i in range(n)]
    rows.append([Fraction(1)] * len(candidates))
    rhs = [Fraction(c) for c in x] + [Fraction(1)]
    return rows, rhs


def _half_axes(x: HalfPoint) -> List[int]:
    return [i for i, c in enumerate(x) if c.denominator == 2]


def _corner_key(p: Point, x: HalfPoint, axes: Sequence[int]) -> Tuple[int, ...]:
    return tuple(0 if Fraction(p[i]) < x[i] else 1 for i in axes)


def in_local_hull(s: LatticeSet, x: HalfPoint) -> bool:
    """Is x a convex combination of the set's points inside its integral
    neighborhood?  Decided by exact LP feasibility.

    With one or two half-integral coordinates the answer has a closed form
    (x is the center of a segment or square: it needs the two endpoints, or
    one full diagonal); the LP only runs beyond that.
    """
    if s.lifted:
        raise LiftedInputError("local hull membership needs a finite set")
    if len(x) != s.dim:
        raise ValueError("dimension mismatch")
    if is_integral(x):
        return tuple(int(c) for c in x) in s.points
    candidates = [p for p in neighborhood(x) if p in s.points]
    if not candidates:
        return False
    axes = _half_axes(x)
    if len(axes) == 1:
        return len(candidates) == 2
    if len(axes) == 2:
        corners = {_corner_key(p, x, axes) for p in candidates}
        return {(0, 0), (1, 1)} <= corners or {(0, 1), (1, 0)} <= corners
    rows, rhs = _combination_system(candidates, x)
    status, _, _ = solve_lp(rows, rhs, [Fraction(0)] * len(candidates))
    return status == OPTIMAL


def local_extension_value(f: LatticeFn, x: HalfPoint) -> Value:
    """Minimum of sum(lambda_v * f(v)) over convex combinations of
    neighborhood points hitting x; +infinity when no combination exists."""
    if f.lifted:
        raise LiftedInputError("local extension needs a finite function")
    if len(x) != f.dim:
        raise ValueError("dimension mismatch")
    if is_integral(x):
        return f.value(tuple(int(c) for c in x))
    candidates = [p for p in neighborhood(x) if p in f.values]
    if not candidates:
        return INF
    axes = _half_axes(x)
    if len(axes) == 1:
        if len(candidates) != 2:
            return INF
        return Fraction(f.values[candidates[0]] + f.values[candidates[1]], 2)
    if len(axes) == 2:
        # any feasible combination is a blend of the two diagonals, and the
        # minimum is attained on one of them
        corner_vals = {_corner_key(p, x, axes): f.values[p] for p in candidates}
        best: Value = INF
        for d in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
            if d[0] in corner_vals and d[1] in corner_vals:
                v = Fraction(corner_vals[d[0]] + corner_vals[d[1]], 2)
                if v < best:
                    best = v
        return best
    rows, rhs = _combination_system(candidates, x)
    status, _, value = solve_lp(rows, rhs, [f.values[p] for p in candidates])
    if status != OPTIMAL:
        return INF
    return value
