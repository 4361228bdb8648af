"""Exact two-phase simplex over the rationals.

Solves  min c.x  subject to  A x = b, x >= 0  with Bland's anti-cycling rule.
Everything is a ``Fraction``; there are no tolerances.  Problem sizes here
are tiny (at most a few dozen columns), so a dense tableau is the simplest
correct choice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tableau: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def _run_simplex(tableau: List[List[Fraction]], basis: List[int], ncols: int) -> str:
    # Last tableau row holds reduced costs; last column the right-hand side.
    while True:
        cost = tableau[-1]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        # Bland: leaving row minimizes ratio, ties broken by basis index.
        best_row: Optional[int] = None
        best_ratio: Optional[Fraction] = None
        for r in range(len(tableau) - 1):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[r] < basis[best_row])
                ):
                    best_row, best_ratio = r, ratio
        if best_row is None:
            return UNBOUNDED
        _pivot(tableau, basis, best_row, col)


def solve_lp(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> Tuple[str, Optional[List[Fraction]], Optional[Fraction]]:
    """Minimize objective.x over {x >= 0 : rows.x = rhs}.

    Returns (status, x, value); x and value are None unless optimal.
    """
    m = len(rows)
    k = len(objective)
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if len(a[i]) != k:
            raise ValueError("ragged constraint matrix")
        if b[i] < 0:
            a[i] = [-v for v in a[i]]
            b[i] = -b[i]

    # Phase 1: artificial basis, minimize the sum of artificials.
    ncols = k + m
    tableau = [a[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [k + i for i in range(m)]
    cost = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(k):
            cost[j] -= tableau[i][j]
        cost[-1] -= tableau[i][-1]
    tableau.append(cost)
    status = _run_simplex(tableau, basis, ncols)
    if status != OPTIMAL or tableau[-1][-1] != 0:
        return INFEASIBLE, None, None

    # Drive surviving artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= k:
            col = next((j for j in range(k) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, r, col)
        keep.append(r)
    tableau = [tableau[r][:k] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2: true objective expressed over the current basis.
    c = [Fraction(v) for v in objective]
    cost = list(c) + [Fraction(0)]
    for r, line in enumerate(tableau):
        factor = cost[basis[r]]
        if factor != 0:
            cost = [v - factor * w for v, w in zip(cost, line)]
    tableau.append(cost)
    status = _run_simplex(tableau, basis, k)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * k
    for r, j in enumerate(basis):
        x[j] = tableau[r][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))
    return OPTIMAL, x, value
