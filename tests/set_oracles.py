"""Brute-force set recognizers and set operations kept as an independent
test oracle.

The recognizers are the per-class set scanners that production decided sets
with before every axiom moved into one table shared by sets and functions
(``dconvex.classes``).  Each tests its class axiom directly on point
membership, so comparing them with ``check_set`` checks the axiom table
through a second implementation.  The integrally convex one decides local
hull membership by the brute-force hull oracle (``hull_oracle``), not by
the local extension production reads a set through.

The set operations (direct sums, splitting, aggregation, Minkowski sum) are
the point-set bodies production used before each operation was written once
over value maps (``dconvex.ops``), where a set is its indicator function.
They build point sets directly, so comparing them with the production set
names checks the indicator reading and the rebuilding of set results.
"""

from __future__ import annotations

from typing import List, Sequence

from dconvex.classes import ClassLabel, Verdict, Witness
from dconvex.core import (
    LatticeSet,
    LiftedInputError,
    Window,
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
from dconvex.hull import half_midpoint
from dconvex.ops import PartitionSpec, SplitSpec, _aggregate_point, _split_point
from hull_oracle import in_local_hull_bruteforce

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
        if not in_local_hull_bruteforce(s, half_midpoint(x, y)):
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


# ---------------------------------------------------------------------------
# set operations on point sets


def _require_finite(obj, what: str):
    if obj.lifted:
        raise LiftedInputError(f"{what} needs finite inputs; materialize lifted objects through a window first")


def direct_sum_set(s1: LatticeSet, s2: LatticeSet) -> LatticeSet:
    """All concatenations (x, y) with x in s1, y in s2."""
    _require_finite(s1, "direct sum")
    _require_finite(s2, "direct sum")
    pts = frozenset(x + y for x in s1.points for y in s2.points)
    return LatticeSet(s1.dim + s2.dim, pts)


def direct_sum_lifted_set(s1: LatticeSet, s2: LatticeSet, shift_bound: int = 2) -> LatticeSet:
    """Representatives (p + g*1, q) of the direct sum of two lifted sets,
    for |g| <= shift_bound."""
    if not (s1.lifted and s2.lifted):
        raise LiftedInputError("both inputs must be lifted")
    pts = set()
    for p in s1.points:
        for q in s2.points:
            for g in range(-shift_bound, shift_bound + 1):
                pts.add(vshift(p, g) + q)
    return LatticeSet(s1.dim + s2.dim, frozenset(pts), lifted=True)


def split_set(s: LatticeSet, spec: SplitSpec, w: Window) -> LatticeSet:
    """All window points whose block sums recover some point of the input."""
    _require_finite(s, "splitting")
    if spec.input_dim != s.dim:
        raise ValueError("split spec dimension mismatch")
    if w.dim != spec.output_dim:
        raise ValueError("window dimension must equal the split output dimension")
    pts = set()
    for x in s.points:
        pts.update(_split_point(x, spec, w))
    return LatticeSet(spec.output_dim, frozenset(pts))


def aggregate_set(s: LatticeSet, spec: PartitionSpec) -> LatticeSet:
    """Image of the set under group sums; finite, no window needed."""
    _require_finite(s, "aggregation")
    if spec.input_dim != s.dim:
        raise ValueError("partition dimension mismatch")
    return LatticeSet(spec.output_dim, frozenset(_aggregate_point(x, spec) for x in s.points))


def minkowski_sum_set(s1: LatticeSet, s2: LatticeSet) -> LatticeSet:
    _require_finite(s1, "Minkowski sum")
    _require_finite(s2, "Minkowski sum")
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return LatticeSet(s1.dim, frozenset(vadd(x, y) for x in s1.points for y in s2.points))
