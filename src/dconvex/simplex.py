"""Exact two-phase simplex on an integer tableau.

Solves  min c.x  subject to  A x = b, x >= 0  with Bland's anti-cycling rule.
There are no tolerances.  Each constraint row with its right-hand side, and
the objective, is scaled once to ints by the least common multiple of its
denominators; the tableau then holds ints over one common denominator D > 0
(the true tableau is the stored one divided by D) and pivots fraction-free,
as in Bareiss (Math. Comp. 22, 1968) and Edmonds (J. Res. NBS 71B, 1967):
every stored entry is a minor of the scaled input, so the division by the
previous D in a pivot is exact.  ``x`` and the value are built as
``Fraction``s once, at the end.  Problem sizes here are tiny (at most a few
dozen columns), so a dense tableau is the simplest correct choice.

Entries must be ints or Fractions; anything else is rejected
(``core.as_rational``), never coerced.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .core import as_rational

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _scaled(values: Sequence, what: str) -> Tuple[int, List[int]]:
    """The least common multiple of the entries' denominators, and the
    entries times it, as ints."""
    vals = [v if type(v) is int else as_rational(v, what) for v in values]
    scale = lcm(*(v.denominator for v in vals))
    return scale, [v.numerator * (scale // v.denominator) for v in vals]


def _pivot(tableau: List[List[int]], basis: List[int], d: int, row: int, col: int) -> int:
    """Pivot on (row, col) over the common denominator d; returns the new
    one.  The pivot row stays as it is; every other row i becomes
    (p * T[i] - T[i][col] * T[row]) / d, which is exact."""
    prow = tableau[row]
    p = prow[col]
    for i, line in enumerate(tableau):
        if i != row:
            f = line[col]
            if f:
                tableau[i] = [(p * v - f * w) // d for v, w in zip(line, prow)]
            else:
                tableau[i] = [p * v // d for v in line]
    basis[row] = col
    if p < 0:
        # only when an artificial is driven out; keep D positive
        for i, line in enumerate(tableau):
            tableau[i] = [-v for v in line]
        return -p
    return p


def _run_simplex(tableau: List[List[int]], basis: List[int], ncols: int, d: int) -> Tuple[str, int]:
    # Last tableau row holds reduced costs; last column the right-hand side.
    # Returns the status and the final common denominator.
    while True:
        cost = tableau[-1]
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL, d
        # Bland: leaving row minimizes b_r / a_r, ties broken by basis index;
        # the ratios are compared cross-multiplied, as every a_r is positive.
        best_row: Optional[int] = None
        for r in range(len(tableau) - 1):
            line = tableau[r]
            a = line[col]
            if a > 0:
                if best_row is None:
                    best_row, best_a, best_b = r, a, line[-1]
                    continue
                lhs, rhs = line[-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[best_row]):
                    best_row, best_a, best_b = r, a, line[-1]
        if best_row is None:
            return UNBOUNDED, d
        d = _pivot(tableau, basis, d, best_row, col)


def solve_lp(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    objective: Sequence[Fraction],
) -> Tuple[str, Optional[List[Fraction]], Optional[Fraction]]:
    """Minimize objective.x over {x >= 0 : rows.x = rhs}.

    Returns (status, x, value); x and value are None unless optimal.
    Entries are ints or Fractions; a ragged matrix, a right-hand side of
    the wrong length or any other entry type raises ``ValueError``.
    """
    m = len(rows)
    k = len(objective)
    if len(rhs) != m:
        raise ValueError(f"{len(rhs)} right-hand sides for {m} constraint rows")
    scale, c = _scaled(objective, "objective entry")
    tableau = []
    for i, row in enumerate(rows):
        if len(row) != k:
            raise ValueError("ragged constraint matrix")
        _, line = _scaled([*row, rhs[i]], "constraint entry")
        if line[-1] < 0:
            line = [-v for v in line]
        # artificial column i is basic in row i
        tableau.append(line[:k] + [int(j == i) for j in range(m)] + line[k:])

    # Phase 1: artificial basis, minimize the sum of artificials.
    ncols = k + m
    basis = [k + i for i in range(m)]
    cost = [-sum(line[j] for line in tableau) for j in range(k)] + [0] * m
    cost.append(-sum(line[-1] for line in tableau))
    tableau.append(cost)
    status, d = _run_simplex(tableau, basis, ncols, 1)
    if status != OPTIMAL or tableau[-1][-1] != 0:
        return INFEASIBLE, None, None
    tableau.pop()  # the phase-1 costs are done with

    # Drive surviving artificials out of the basis; drop redundant rows.
    keep = []
    for r in range(m):
        if basis[r] >= k:
            col = next((j for j in range(k) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            d = _pivot(tableau, basis, d, r, col)
        keep.append(r)
    tableau = [tableau[r][:k] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    # Phase 2: true objective expressed over the current basis, times d.
    cost = [d * v for v in c] + [0]
    for r, line in enumerate(tableau):
        factor = c[basis[r]]
        if factor != 0:
            cost = [v - factor * w for v, w in zip(cost, line)]
    tableau.append(cost)
    status, d = _run_simplex(tableau, basis, k, d)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * k
    total = 0
    for r, j in enumerate(basis):
        x[j] = Fraction(tableau[r][-1], d)
        total += c[j] * tableau[r][-1]
    return OPTIMAL, x, Fraction(total, d * scale)
