"""Brute-force hull oracle kept as an independent test path.

x lies in conv(V) iff it lies in the convex hull of some affinely
independent subset of V with at most n+1 points, so enumerating subsets and
solving each square-ish system exactly is a complete (if slow) decision
procedure, independent of the simplex behind ``dconvex.hull``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import List, Optional, Sequence

from dconvex.core import LatticeFn, LatticeSet, LiftedInputError, Point
from dconvex.hull import HalfPoint, _combination_system, is_integral, neighborhood
from dconvex.rationals import INF, Value


def solve_exact_linear(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Unique exact solution of rows.x = rhs, or None when the system is
    inconsistent or does not pin x down (rank < number of unknowns).

    Independent of the simplex; Gauss-Jordan elimination over the rationals.
    """
    m = len(rows)
    if m == 0:
        return None
    k = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            return None  # free column: solution not unique
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][col] for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    if r < k:
        return None
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None  # inconsistent
    x = [Fraction(0)] * k
    for i, col in enumerate(pivots):
        x[col] = aug[i][-1]
    return x


def _subset_combination(subset: Sequence[Point], x: HalfPoint) -> Optional[List[Fraction]]:
    rows, rhs = _combination_system(subset, x)
    lam = solve_exact_linear(rows, rhs)
    if lam is None:
        return None
    if any(v < 0 for v in lam):
        return None
    return lam


def in_local_hull_bruteforce(s: LatticeSet, x: HalfPoint) -> bool:
    if s.lifted:
        raise LiftedInputError("local hull membership needs a finite set")
    if is_integral(x):
        return tuple(int(c) for c in x) in s.points
    candidates = [p for p in neighborhood(x) if p in s.points]
    n = len(x)
    for size in range(1, min(len(candidates), n + 1) + 1):
        for subset in itertools.combinations(candidates, size):
            if _subset_combination(subset, x) is not None:
                return True
    return False


def local_extension_value_bruteforce(f: LatticeFn, x: HalfPoint) -> Value:
    if f.lifted:
        raise LiftedInputError("local extension needs a finite function")
    if is_integral(x):
        return f.value(tuple(int(c) for c in x))
    candidates = [p for p in neighborhood(x) if p in f.values]
    n = len(x)
    best: Value = INF
    for size in range(1, min(len(candidates), n + 1) + 1):
        for subset in itertools.combinations(candidates, size):
            lam = _subset_combination(subset, x)
            if lam is not None:
                val = sum((l * f.values[p] for l, p in zip(lam, subset)), Fraction(0))
                if val < best:
                    best = val
    return best
