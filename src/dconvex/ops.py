"""Transformations of lattice sets and functions: direct sum, splitting,
aggregation, and the Minkowski sum / infimal convolution derived from them.

Splitting images are infinite, so the splitting operations take an explicit
window; aggregation of a finite object is finite and needs none.  Coordinate
order is preserved everywhere (direct sum concatenates, splitting expands a
coordinate into a consecutive block), which matters for the order-sensitive
classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .core import (
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Point,
    Window,
    vadd,
    vshift,
)


@dataclass(frozen=True)
class SplitSpec:
    """Block sizes m_1..m_n; coordinate i of the input becomes a block of
    m_i output coordinates whose sum recovers it."""

    blocks: Tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "blocks", blocks)

    @property
    def input_dim(self) -> int:
        return len(self.blocks)

    @property
    def output_dim(self) -> int:
        return sum(self.blocks)

    def offsets(self) -> List[Tuple[int, int]]:
        """Half-open output index range per block."""
        out = []
        start = 0
        for b in self.blocks:
            out.append((start, start + b))
            start += b
        return out


@dataclass(frozen=True)
class PartitionSpec:
    """Ordered partition of {0..n-1} into disjoint nonempty groups; output
    coordinate j is the sum over group j."""

    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if not groups or any(not g for g in groups):
            raise ValueError("groups must be nonempty")
        seen = [i for g in groups for i in g]
        if len(seen) != len(set(seen)):
            raise ValueError("groups must be disjoint")
        if set(seen) != set(range(len(seen))):
            raise ValueError("groups must cover 0..n-1 exactly")
        object.__setattr__(self, "groups", groups)

    @property
    def input_dim(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def output_dim(self) -> int:
        return len(self.groups)

    @staticmethod
    def identity(n: int) -> "PartitionSpec":
        return PartitionSpec(tuple((i,) for i in range(n)))


def _require_finite(obj, what: str):
    if obj.lifted:
        raise LiftedInputError(f"{what} needs finite inputs; materialize lifted objects through a window first")


# ---------------------------------------------------------------------------
# direct sum


def direct_sum_set(s1: LatticeSet, s2: LatticeSet) -> LatticeSet:
    """All concatenations (x, y) with x in s1, y in s2."""
    _require_finite(s1, "direct sum")
    _require_finite(s2, "direct sum")
    pts = frozenset(x + y for x in s1.points for y in s2.points)
    return LatticeSet(s1.dim + s2.dim, pts)


def direct_sum_fn(f1: LatticeFn, f2: LatticeFn) -> LatticeFn:
    """(f1 (+) f2)(x, y) = f1(x) + f2(y)."""
    _require_finite(f1, "direct sum")
    _require_finite(f2, "direct sum")
    vals = {x + y: v + w for x, v in f1.values.items() for y, w in f2.values.items()}
    return LatticeFn(f1.dim + f2.dim, vals)


def direct_sum_lifted_set(s1: LatticeSet, s2: LatticeSet, shift_bound: int = 2) -> LatticeSet:
    """Direct sum of two lifted sets, materialized in the one direction a
    single lift flag cannot absorb.

    The true direct sum carries two independent all-ones periods; after
    normalizing the global one, representatives are (p + g*1, q) for all
    integers g.  This keeps |g| <= shift_bound, which is itself a lifted set
    and closed under join/meet whenever the inputs are.
    """
    if not (s1.lifted and s2.lifted):
        raise LiftedInputError("both inputs must be lifted")
    pts = set()
    for p in s1.points:
        for q in s2.points:
            for g in range(-shift_bound, shift_bound + 1):
                pts.add(vshift(p, g) + q)
    return LatticeSet(s1.dim + s2.dim, frozenset(pts), lifted=True)


def direct_sum_lifted_fn(f1: LatticeFn, f2: LatticeFn, shift_bound: int = 2) -> LatticeFn:
    """Function counterpart of :func:`direct_sum_lifted_set`; the result
    ramps by ramp1 + ramp2 along the global all-ones direction."""
    if not (f1.lifted and f2.lifted):
        raise LiftedInputError("both inputs must be lifted")
    vals: Dict[Point, Fraction] = {}
    for p, v in f1.values.items():
        for q, w in f2.values.items():
            for g in range(-shift_bound, shift_bound + 1):
                vals[vshift(p, g) + q] = v + g * f1.ramp + w
    return LatticeFn(f1.dim + f2.dim, vals, lifted=True, ramp=f1.ramp + f2.ramp)


# ---------------------------------------------------------------------------
# splitting


def _block_decompositions(total: int, lo: Sequence[int], hi: Sequence[int]):
    """All integer tuples within [lo, hi] summing to total."""
    if len(lo) == 1:
        if lo[0] <= total <= hi[0]:
            yield (total,)
        return
    rest_lo = sum(lo[1:])
    rest_hi = sum(hi[1:])
    first_lo = max(lo[0], total - rest_hi)
    first_hi = min(hi[0], total - rest_lo)
    for v in range(first_lo, first_hi + 1):
        for rest in _block_decompositions(total - v, lo[1:], hi[1:]):
            yield (v,) + rest


def _split_point(x: Point, spec: SplitSpec, w: Window):
    spans = spec.offsets()
    per_block = []
    for i, (a, b) in enumerate(spans):
        lo = w.lo[a:b]
        hi = w.hi[a:b]
        opts = list(_block_decompositions(x[i], lo, hi))
        if not opts:
            return
        per_block.append(opts)
    for combo in itertools.product(*per_block):
        yield tuple(c for block in combo for c in block)


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


def split_fn(f: LatticeFn, spec: SplitSpec, w: Window) -> LatticeFn:
    """g(y) = f(block sums of y) on the window."""
    _require_finite(f, "splitting")
    if spec.input_dim != f.dim:
        raise ValueError("split spec dimension mismatch")
    if w.dim != spec.output_dim:
        raise ValueError("window dimension must equal the split output dimension")
    vals: Dict[Point, Fraction] = {}
    for x, v in f.values.items():
        for y in _split_point(x, spec, w):
            vals[y] = v
    if not vals:
        raise EmptyResultError("split produced an empty domain; widen the window")
    return LatticeFn(spec.output_dim, vals)


# ---------------------------------------------------------------------------
# aggregation


def _aggregate_point(x: Point, spec: PartitionSpec) -> Point:
    return tuple(sum(x[i] for i in g) for g in spec.groups)


def aggregate_set(s: LatticeSet, spec: PartitionSpec) -> LatticeSet:
    """Image of the set under group sums; finite, no window needed."""
    _require_finite(s, "aggregation")
    if spec.input_dim != s.dim:
        raise ValueError("partition dimension mismatch")
    return LatticeSet(spec.output_dim, frozenset(_aggregate_point(x, spec) for x in s.points))


def aggregate_fn(f: LatticeFn, spec: PartitionSpec) -> LatticeFn:
    """g(y) = min f over the fiber of points aggregating to y."""
    _require_finite(f, "aggregation")
    if spec.input_dim != f.dim:
        raise ValueError("partition dimension mismatch")
    vals: Dict[Point, Fraction] = {}
    for x, v in sorted(f.values.items()):
        y = _aggregate_point(x, spec)
        if y not in vals or v < vals[y]:
            vals[y] = v
    return LatticeFn(spec.output_dim, vals)


# ---------------------------------------------------------------------------
# Minkowski sum and convolution.  Each equals the aggregation of a direct
# sum by the pairing partition {i, n + i}; that identity is checked in the
# tests, so production computes only the direct route.


def minkowski_sum_set(s1: LatticeSet, s2: LatticeSet) -> LatticeSet:
    _require_finite(s1, "Minkowski sum")
    _require_finite(s2, "Minkowski sum")
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return LatticeSet(s1.dim, frozenset(vadd(x, y) for x in s1.points for y in s2.points))


def convolution_fn(f1: LatticeFn, f2: LatticeFn) -> LatticeFn:
    """(f1 [] f2)(x) = min { f1(y) + f2(z) : x = y + z }."""
    _require_finite(f1, "convolution")
    _require_finite(f2, "convolution")
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    vals: Dict[Point, Fraction] = {}
    for y, v in sorted(f1.values.items()):
        for z, w in sorted(f2.values.items()):
            x = vadd(y, z)
            c = v + w
            if x not in vals or c < vals[x]:
                vals[x] = c
    return LatticeFn(f1.dim, vals)
