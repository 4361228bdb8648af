"""Brute-force set recognizers kept as an independent test oracle.

These are the per-class set scanners that production decided sets with
before every axiom moved into one table shared by sets and functions
(``dconvex.classes``).  Each tests its class axiom directly on point
membership, so comparing them with ``check_set`` checks the axiom table
through a second implementation.
"""

from __future__ import annotations

from typing import List, Sequence

from dconvex.classes import ClassLabel, Verdict, Witness
from dconvex.core import (
    LatticeSet,
    Point,
    difference_point,
    join_meet,
    linf_distance,
    midpoint_round,
    prefix_transform,
    supports,
    unit,
    vadd,
    vshift,
    vsub,
)
from dconvex.hull import half_midpoint, in_local_hull

_OK = Verdict(True, None)


def _fail(kind: str, points, indices=()) -> Verdict:
    return Verdict(False, Witness(kind, tuple(points), tuple(indices)))


def increments(x: Point, y: Point) -> List[Point]:
    """All signed unit steps s with x + s inside the box [x ^ y, x v y],
    sorted lexicographically."""
    n = len(x)
    out = []
    for i in range(n):
        if x[i] < y[i]:
            out.append(unit(n, i))
        elif x[i] > y[i]:
            out.append(tuple(-c for c in unit(n, i)))
    return sorted(out)


def _ordered_pairs(pts: Sequence[Point]):
    for x in pts:
        for y in pts:
            if x != y:
                yield x, y


def _unordered_pairs(pts: Sequence[Point]):
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            yield x, y


def _check_integer_box(s: LatticeSet) -> Verdict:
    box = s.bounding_box()
    for p in box.points():
        if p not in s.points:
            return _fail("box-gap", (p,))
    return _OK


def _check_lnat_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _unordered_pairs(pts):
        up, down = midpoint_round(x, y)
        if up not in s.points or down not in s.points:
            return _fail("midpoint", (x, y))
    return _OK


def _check_global_dmc_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _unordered_pairs(pts):
        if linf_distance(x, y) < 2:
            continue
        up, down = midpoint_round(x, y)
        if up not in s.points or down not in s.points:
            return _fail("midpoint-far", (x, y))
    return _OK


def _check_ic_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _unordered_pairs(pts):
        if linf_distance(x, y) <= 1:
            continue  # both endpoints lie in N((x+y)/2), so the midpoint is covered
        if not in_local_hull(s, half_midpoint(x, y)):
            return _fail("hull-midpoint", (x, y))
    return _OK


def _check_mnat_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    n = s.dim
    for x, y in _ordered_pairs(pts):
        d = vsub(x, y)
        plus, minus = supports(d)
        for i in plus:
            ei = unit(n, i)
            if vsub(x, ei) in s.points and vadd(y, ei) in s.points:
                continue
            if any(
                vadd(vsub(x, ei), unit(n, j)) in s.points
                and vsub(vadd(y, ei), unit(n, j)) in s.points
                for j in minus
            ):
                continue
            return _fail("exchange-mnat", (x, y), (i,))
    return _OK


def _check_m_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    n = s.dim
    for x, y in _ordered_pairs(pts):
        d = vsub(x, y)
        plus, minus = supports(d)
        for i in plus:
            ei = unit(n, i)
            if any(
                vadd(vsub(x, ei), unit(n, j)) in s.points
                and vsub(vadd(y, ei), unit(n, j)) in s.points
                for j in minus
            ):
                continue
            return _fail("exchange-m", (x, y), (i,))
    return _OK


def _check_jump_system(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _ordered_pairs(pts):
        for step in increments(x, y):
            xs = vadd(x, step)
            if xs in s.points:
                continue
            if any(vadd(xs, t) in s.points for t in increments(xs, y)):
                continue
            return _fail("jump-2step", (x, y, step))
    return _OK


def _check_const_parity_jump(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _ordered_pairs(pts):
        for step in increments(x, y):
            xs = vadd(x, step)
            ys = vsub(y, step)
            if any(
                vadd(xs, t) in s.points and vsub(ys, t) in s.points
                for t in increments(xs, y)
            ):
                continue
            return _fail("jump-exc", (x, y, step))
    return _OK


def _check_simult_exch_jump(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    for x, y in _ordered_pairs(pts):
        for step in increments(x, y):
            xs = vadd(x, step)
            ys = vsub(y, step)
            if xs in s.points and ys in s.points:
                continue
            if any(
                vadd(xs, t) in s.points and vsub(ys, t) in s.points
                for t in increments(xs, y)
            ):
                continue
            return _fail("jump-exc-nat", (x, y, step))
    return _OK


def _lifted_shift_span(r: Point, r2: Point):
    deltas = [a - b for a, b in zip(r, r2)]
    return min(deltas) - 1, max(deltas) + 1


def _check_l_set(s: LatticeSet) -> Verdict:
    if s.lifted:
        # Exact: relative shifts outside the coordinate spread give a
        # comparable pair, for which closure under join/meet is automatic.
        reps = s.sorted_points()
        for i, r in enumerate(reps):
            for r2 in reps[i:]:
                lo, hi = _lifted_shift_span(r, r2)
                for a in range(lo, hi + 1):
                    y = vshift(r2, a)
                    if y == r:
                        continue
                    jn, mt = join_meet(r, y)
                    if jn not in s or mt not in s:
                        return _fail("submodular", (r, y))
        return _OK
    # Finite input: treated as a windowed sample over its bounding box.
    # Negative verdicts are sound; a pass is only a necessary condition.
    pts = s.sorted_points()
    for x, y in _unordered_pairs(pts):
        jn, mt = join_meet(x, y)
        if jn not in s.points or mt not in s.points:
            return _fail("submodular", (x, y))
    box = s.bounding_box()
    for p in pts:
        for step in (1, -1):
            t = vshift(p, step)
            if box.contains(t) and t not in s.points:
                return _fail("ones-shift", (p, t))
    return _OK


def _check_multimodular_set(s: LatticeSet) -> Verdict:
    inner = _check_lnat_set(prefix_transform(s))
    if inner.member:
        return _OK
    p, q = inner.witness.points
    return _fail("multimodular-midpoint", (difference_point(p), difference_point(q)))



SET_ORACLES = {
    ClassLabel.INTEGER_BOX: _check_integer_box,
    ClassLabel.IC_SET: _check_ic_set,
    ClassLabel.LNAT_SET: _check_lnat_set,
    ClassLabel.L_SET: _check_l_set,
    ClassLabel.MNAT_SET: _check_mnat_set,
    ClassLabel.M_SET: _check_m_set,
    ClassLabel.MULTIMODULAR_SET: _check_multimodular_set,
    ClassLabel.GLOBAL_DMC_SET: _check_global_dmc_set,
    ClassLabel.JUMP_SYSTEM: _check_jump_system,
    ClassLabel.CONST_PARITY_JUMP: _check_const_parity_jump,
    ClassLabel.SIMULT_EXCH_JUMP: _check_simult_exch_jump,
}
