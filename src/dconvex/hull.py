"""Local convex hulls at half-integral points.

The integral neighborhood of x is the floor/ceiling box around x, and the
local convex extension of a function at x is the cheapest convex combination
of neighborhood points hitting x.  One kernel, :func:`twice_extension`,
computes it on the doubled point, all ints: twice the extension at total / 2
of the function a getter reads, whose half-integral coordinates are the odd
ones of the total.  It has closed forms for one to three of them and
beyond that runs the integer-tableau simplex (``simplex``) on an int
system.  A set
reads as its indicator (``core.value_map``), so x lies in its local hull
exactly when the extension is finite there.  The recognizers (``classes``)
call the kernel with their getter of scaled int values and x + y; the
public functions check their input and call it on 2x.  A brute-force
route on its own Fraction system is kept in the tests
(``tests/hull_oracle.py``) for cross-checking.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .core import LatticeFn, LatticeSet, LiftedInputError, Point, value_map
from .rationals import INF, Value, is_finite
from .simplex import OPTIMAL, solve_lp

HalfPoint = Tuple[Fraction, ...]


def neighborhood(x: HalfPoint) -> List[Point]:
    """Integer points z with floor(x_i) <= z_i <= ceil(x_i), sorted.

    2^k points where k is the number of half-integral coordinates.
    """
    return sorted(itertools.product(*(range(math.floor(c), math.ceil(c) + 1) for c in x)))


# the two diagonals of a square, as pairs of corners (1: the ceiling side)
_DIAGONALS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))
# the vertices of the combinations that hit the centre of a unit 3-cube, as
# corner tuples, each corner of weight 1 / len: the four main diagonals and
# the two tetrahedra of one coordinate-sum parity
_CUBE_CENTRE = (
    ((0, 0, 0), (1, 1, 1)),
    ((0, 0, 1), (1, 1, 0)),
    ((0, 1, 0), (1, 0, 1)),
    ((0, 1, 1), (1, 0, 0)),
    ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)),
)


def twice_extension(get: Callable[[Point], Optional[Value]], total: Point) -> Optional[Value]:
    """Twice the local convex extension at total / 2 of the function that
    ``get`` reads, None meaning +infinity both ways.  The neighborhood is
    total_i // 2, and also total_i // 2 + 1 for an odd total_i, in every
    coordinate, in lexicographic order.  One to three odd coordinates give
    a closed form, total / 2 being the centre of a segment, a square or a
    cube of the box: the LP's minimum is attained at a vertex of the
    polytope of combinations hitting the centre, and with some corners
    absent (+infinity) at a vertex whose corners are all present, since
    those combinations are the face where the absent corners weigh 0.  The
    segment's one vertex is its two endpoints, the square's are its two
    diagonals, and the cube's are its four main diagonals (weights 1/2) and
    its two tetrahedra {000, 011, 101, 110} and {001, 010, 100, 111}
    (weights 1/4).  The LP runs beyond that.  Where a result can be a
    fraction (the cube or the LP), the doubled value is an int when it is
    one, as pairs compare in ints.
    """
    box = itertools.product(*(range(t // 2, (t + 1) // 2 + 1) for t in total))
    found = [(p, f) for p in box if (f := get(p)) is not None]
    if not found:
        return None
    axes = [i for i, t in enumerate(total) if t & 1]
    if not axes:
        return 2 * found[0][1]
    if len(axes) == 1:
        return found[0][1] + found[1][1] if len(found) == 2 else None
    if len(axes) <= 3:
        corner = {tuple(p[i] - total[i] // 2 for i in axes): f for p, f in found}
        if len(axes) == 2:
            sums = [corner[a] + corner[b] for a, b in _DIAGONALS if a in corner and b in corner]
            return min(sums) if sums else None
        # four times the extension at each full vertex: 2 * (sum of a
        # diagonal's two), or a tetrahedron's sum of four
        sums = [sum(fs) * (4 // len(fs)) for v in _CUBE_CENTRE if None not in (fs := [corner.get(c) for c in v])]
        if not sums:
            return None
        twice = Fraction(min(sums), 2)
    else:
        # on an integral coordinate every candidate equals x, so its row
        # would be a multiple of the row of ones
        rows = [[2 * p[i] for p, _ in found] for i in axes] + [[1] * len(found)]
        status, _, value = solve_lp(rows, [total[i] for i in axes] + [1], [f for _, f in found])
        if status != OPTIMAL:
            return None
        twice = 2 * value
    return twice.numerator if twice.denominator == 1 else twice


def in_local_hull(s: LatticeSet, x: HalfPoint) -> bool:
    """Is x a convex combination of the set's points inside its integral
    neighborhood?  That is, is the indicator's local extension finite at x."""
    return is_finite(local_extension_value(s, x))


def local_extension_value(obj, x: HalfPoint) -> Value:
    """Minimum of sum(lambda_v * f(v)) over convex combinations of
    neighborhood points v hitting x; +infinity when no combination exists.
    A set is read as its indicator: 0 inside its local hull, +infinity
    outside.  Anything but a finite ``LatticeSet`` or ``LatticeFn`` (its type
    named), an x of another dimension, or a coordinate of x that is not an
    int or a Fraction with denominator 1 or 2 (a bool or a float is
    neither) is a ``ValueError``.
    """
    if not isinstance(obj, (LatticeSet, LatticeFn)):
        raise ValueError(f"cannot take the local extension of a {type(obj).__name__}")
    if obj.lifted:
        raise LiftedInputError("local extension needs a finite object")
    if len(x) != obj.dim:
        raise ValueError("dimension mismatch")
    for i, c in enumerate(x):
        if not (type(c) is int or (isinstance(c, Fraction) and c.denominator <= 2)):
            raise ValueError(f"coordinate {i} of x is {c!r}, not an int or a half-integral Fraction")
    twice = twice_extension(value_map(obj).get, tuple(int(2 * c) for c in x))
    return INF if twice is None else Fraction(twice, 2)
