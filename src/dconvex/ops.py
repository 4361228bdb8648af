"""Transformations of lattice sets and functions: direct sum, splitting,
aggregation, and the Minkowski sum / infimal convolution derived from them.

Each operation is written once, for functions: a set is read as its
indicator function and its result keeps only the domain (``core.value_map``
and ``core.rebuild``), so the set names are bound to the same code.

Splitting images are infinite, so the splitting operations take an explicit
window; aggregation of a finite object is finite and needs none.  Coordinate
order is preserved everywhere (direct sum concatenates, splitting expands a
coordinate into a consecutive block), which matters for the order-sensitive
classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .core import (
    LiftedInputError,
    Point,
    Window,
    as_ints,
    keeps_values,
    rebuild,
    vadd,
    value_map,
    vshift,
)
from .rationals import Value


@dataclass(frozen=True)
class SplitSpec:
    """Block sizes m_1..m_n; coordinate i of the input becomes a block of
    m_i output coordinates whose sum recovers it."""

    blocks: Tuple[int, ...]

    def __post_init__(self):
        blocks = as_ints(self.blocks, "block sizes")
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
        groups = tuple(as_ints(g, "group") for g in self.groups)
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


def _value_maps(what: str, *objs, lifted: bool = False) -> List[Mapping[Point, Value]]:
    """Value maps of operands that are all sets or all functions, and all
    finite (all lifted when ``lifted``)."""
    if len({keeps_values(obj) for obj in objs}) > 1:
        raise ValueError(f"{what} cannot combine a set with a function")
    if any(obj.lifted != lifted for obj in objs):
        raise LiftedInputError(
            f"{what} needs lifted inputs" if lifted
            else f"{what} needs finite inputs; materialize lifted objects through a window first"
        )
    return [value_map(obj) for obj in objs]


def _fiber_min(pairs) -> Dict[Point, Value]:
    """Least value per point over (point, value) pairs."""
    out: Dict[Point, Value] = {}
    for y, v in pairs:
        if y not in out or v < out[y]:
            out[y] = v
    return out


# ---------------------------------------------------------------------------
# direct sum


def direct_sum_fn(f1, f2):
    """(f1 (+) f2)(x, y) = f1(x) + f2(y); for sets, all concatenations
    (x, y) with x in s1, y in s2."""
    v1, v2 = _value_maps("direct sum", f1, f2)
    vals = {x + y: v + w for x, v in v1.items() for y, w in v2.items()}
    return rebuild(f1, f1.dim + f2.dim, vals)


def direct_sum_lifted_fn(f1, f2, shift_bound: int = 2):
    """Direct sum of two lifted objects, materialized in the one direction a
    single lift flag cannot absorb.

    The true direct sum carries two independent all-ones periods; after
    normalizing the global one, representatives are (p + g*1, q) for all
    integers g.  This keeps |g| <= shift_bound, which is itself a lifted
    object (a lifted set stays closed under join/meet whenever the inputs
    are); a function ramps by ramp1 + ramp2 along the global all-ones
    direction.
    """
    v1, v2 = _value_maps("lifted direct sum", f1, f2, lifted=True)
    vals: Dict[Point, Value] = {}
    for p, v in v1.items():
        for q, w in v2.items():
            for g in range(-shift_bound, shift_bound + 1):
                vals[vshift(p, g) + q] = v + g * f1.ramp + w
    return rebuild(f1, f1.dim + f2.dim, vals, lifted=True, ramp=f1.ramp + f2.ramp)


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


def split_fn(f, spec: SplitSpec, w: Window):
    """g(y) = f(block sums of y) on the window; for a set, all window points
    whose block sums recover some point of the set (possibly none)."""
    (vals,) = _value_maps("splitting", f)
    if spec.input_dim != f.dim:
        raise ValueError("split spec dimension mismatch")
    if w.dim != spec.output_dim:
        raise ValueError("window dimension must equal the split output dimension")
    out: Dict[Point, Value] = {}
    for x, v in vals.items():
        out.update(dict.fromkeys(_split_point(x, spec, w), v))
    return rebuild(f, spec.output_dim, out, empty="split produced an empty domain; widen the window")


# ---------------------------------------------------------------------------
# aggregation


def _aggregate_point(x: Point, spec: PartitionSpec) -> Point:
    return tuple(sum(x[i] for i in g) for g in spec.groups)


def aggregate_fn(f, spec: PartitionSpec):
    """g(y) = min f over the fiber of points aggregating to y; for a set,
    its image under group sums.  Finite, so no window is needed."""
    (vals,) = _value_maps("aggregation", f)
    if spec.input_dim != f.dim:
        raise ValueError("partition dimension mismatch")
    out = _fiber_min((_aggregate_point(x, spec), v) for x, v in sorted(vals.items()))
    return rebuild(f, spec.output_dim, out)


# ---------------------------------------------------------------------------
# Minkowski sum and convolution.  Each equals the aggregation of a direct
# sum by the pairing partition {i, n + i}; that identity is checked in the
# tests, so production computes only the direct route.


def convolution_fn(f1, f2):
    """(f1 [] f2)(x) = min { f1(y) + f2(z) : x = y + z }; for sets, the
    Minkowski sum."""
    v1, v2 = _value_maps("convolution", f1, f2)
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    items2 = sorted(v2.items())
    out = _fiber_min((vadd(y, z), v + w) for y, v in sorted(v1.items()) for z, w in items2)
    return rebuild(f1, f1.dim, out)


# Each set operation is the function operation on indicator functions, so
# the set names are bound to the same code.
direct_sum_set = direct_sum_fn
direct_sum_lifted_set = direct_sum_lifted_fn
split_set = split_fn
aggregate_set = aggregate_fn
minkowski_sum_set = convolution_fn
