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

Direct sum and convolution (and so the Minkowski sum) run on the exact
integer kernel the recognizers use: values scaled once per call to ints
(``core.scaled``) and divided back once per result point, in bulk
(``core.rebuild``).  The convolution codes points as mixed-radix ints
(``core.Codes``) over the sum box [lo1 + lo2, hi1 + hi2].  Every sum y + z
lies in that box, where codes are distinct, and codes are affine, so a
pair's sum is one int addition and the result codes are decoded together
(``Codes.points``).

When both convolution operands are flat (all values of each are equal: a
set's indicator, or a one-valued function), the result is the sumset with
value c1 + c2, built as one bit per cell of the sum box: one shift-OR per
point of the first operand, of a bit mask of the second operand's codes
taken relative to its low corner, and the set bits decoded once.  That path
is chosen by the values, not by the kind, and only when the sum box has at
most |S1|·|S2| cells, so the bitset is never longer than the pair loop it
replaces; sparse operands far apart keep the pair loop.

Splitting builds each block's decompositions once per (block, total) within
a call, and a point's image is the product of its blocks' table rows.
Aggregation adds each group's coordinate columns with ``map``: a set keeps
the image points, a function the least value per fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, count, product, repeat
from math import prod
from operator import add, getitem, itemgetter, or_, sub
from typing import Dict, List, Mapping, Sequence, Tuple

from .core import (
    Codes,
    LiftedInputError,
    Point,
    Window,
    as_ints,
    bounding_box,
    keeps_values,
    rebuild,
    scaled,
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
    scale, (v1, v2) = scaled(*_value_maps("direct sum", f1, f2))
    vals: Dict[Point, int] = {}
    for x, v in v1.items():
        vals.update(zip(map(x.__add__, v2), map(v.__add__, v2.values())))
    return rebuild(f1, f1.dim + f2.dim, vals, scale=scale)


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


def split_fn(f, spec: SplitSpec, w: Window):
    """g(y) = f(block sums of y) on the window; for a set, all window points
    whose block sums recover some point of the set (possibly none).

    Block i's decompositions are built once per total that coordinate i
    takes: one table per block, since blocks differ in size and window."""
    (vals,) = _value_maps("splitting", f)
    if spec.input_dim != f.dim:
        raise ValueError("split spec dimension mismatch")
    if w.dim != spec.output_dim:
        raise ValueError("window dimension must equal the split output dimension")
    tables = [
        {t: list(_block_decompositions(t, w.lo[a:b], w.hi[a:b])) for t in set(map(itemgetter(i), vals))}
        for i, (a, b) in enumerate(spec.offsets())
    ]
    out: Dict[Point, Value] = {}
    for x, v in vals.items():
        rows = list(map(getitem, tables, x))
        if all(rows):
            out.update(dict.fromkeys(map(tuple, map(chain.from_iterable, product(*rows))), v))
    return rebuild(f, spec.output_dim, out, empty="split produced an empty domain; widen the window")


# ---------------------------------------------------------------------------
# aggregation


def aggregate_fn(f, spec: PartitionSpec):
    """g(y) = min f over the fiber of points aggregating to y; for a set,
    its image under group sums.  Finite, so no window is needed."""
    (vals,) = _value_maps("aggregation", f)
    if spec.input_dim != f.dim:
        raise ValueError("partition dimension mismatch")
    sums = []
    for g in spec.groups:
        total = map(itemgetter(g[0]), vals)
        for i in g[1:]:
            total = map(add, total, map(itemgetter(i), vals))
        sums.append(total)
    points = zip(*sums)
    out = _fiber_min(zip(points, vals.values())) if keeps_values(f) else dict.fromkeys(points)
    return rebuild(f, spec.output_dim, out)


# ---------------------------------------------------------------------------
# Minkowski sum and convolution.  Each equals the aggregation of a direct
# sum by the pairing partition {i, n + i}; that identity is checked in the
# tests, so production computes only the direct route.


# reads the digits of bin() as bytes 0 and 1, for itertools.compress
_BITS = bytes.maketrans(b"01", b"\0\1")


def _sumset(codes: Codes, ys, zs, corner: Point) -> list:
    """The points y + z, for y in ys and z in zs, in code order, with one bit
    per cell of the sum box ``codes``: the codes of zs taken relative to
    ``corner``, their low corner, make one bit mask, and each y ORs it in
    shifted to code(y + corner) = code(y) + code(corner) - code(0), which
    is nonnegative in the sum box.  The set bits are decoded together."""
    base = codes.code(corner)
    mask = reduce(or_, map((1).__lshift__, map(sub, codes.codes(zs), repeat(base))))
    shift = base - codes.code((0,) * len(corner))
    acc = reduce(or_, map(mask.__lshift__, map(add, codes.codes(ys), repeat(shift))))
    return codes.points(list(compress(count(), bin(acc)[:1:-1].encode().translate(_BITS))))


def convolution_fn(f1, f2):
    """(f1 [] f2)(x) = min { f1(y) + f2(z) : x = y + z }; for sets, the
    Minkowski sum.

    Values are scaled once to ints (``core.scaled``) and points coded over
    the sum box [lo1 + lo2, hi1 + hi2] (``core.Codes``).  Codes are affine,
    so code(y + z) = code(y) + (code(z) - code(0)), and every sum lies in
    that box, where distinct points have distinct codes: the operands are
    coded in bulk (``Codes.codes``), the pairs are convolved on int codes
    and the result points are decoded together.

    When both operands are flat and the sum box has at most |S1|·|S2|
    cells, the result is the sumset (:func:`_sumset`) with value c1 + c2."""
    v1, v2 = _value_maps("convolution", f1, f2)
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    if not v1 or not v2:
        return rebuild(f1, f1.dim, {})
    b1, b2 = bounding_box(v1), bounding_box(v2)
    lo, hi = vadd(b1.lo, b2.lo), vadd(b1.hi, b2.hi)
    codes = Codes(lo, hi)
    scale, (s1, s2) = scaled(v1, v2)
    c1, c2 = set(s1.values()), set(s2.values())
    if len(c1) == len(c2) == 1 and prod(b - a + 1 for a, b in zip(lo, hi)) <= len(s1) * len(s2):
        return rebuild(f1, f1.dim, dict.fromkeys(_sumset(codes, s1, s2, b2.lo), c1.pop() + c2.pop()), scale=scale)
    origin = codes.code((0,) * f1.dim)
    ys, vs = zip(*sorted(s1.items()))
    zs, ws = zip(*sorted(s2.items()))
    items1 = list(zip(codes.codes(ys), vs))
    items2 = list(zip(map(sub, codes.codes(zs), repeat(origin)), ws))
    # the least scaled sum per code, first reached first
    best = {}
    for cy, v in items1:
        for cz, w in items2:
            c, t = cy + cz, v + w
            old = best.get(c)
            if old is None or t < old:
                best[c] = t
    return rebuild(f1, f1.dim, dict(zip(codes.points(list(best)), best.values())), scale=scale)


# Each set operation is the function operation on indicator functions, so
# the set names are bound to the same code.
direct_sum_set = direct_sum_fn
direct_sum_lifted_set = direct_sum_lifted_fn
split_set = split_fn
aggregate_set = aggregate_fn
minkowski_sum_set = convolution_fn
