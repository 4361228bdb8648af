"""Lattice points, windows, finite sets and functions on Z^n.

Conventions used throughout the package:

* a point is a plain ``tuple[int, ...]``; coordinate indices are 0-based;
* a :class:`LatticeSet` / :class:`LatticeFn` is an explicit finite object,
  optionally "lifted" along the all-ones direction.  A lifted object denotes
  ``{p + a*1 : p stored, a in Z}``; stored representatives are normalized so
  the last coordinate is 0, which makes equality of lifted objects decidable.
  Lifted functions carry a ``ramp`` r with f(x + 1) = f(x) + r;
* coordinates are ``int`` and values ``int`` or ``Fraction``; anything else
  (bools, floats, strings) is rejected rather than coerced;
* every type is immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import ClassVar, Dict, Iterable, Iterator, Mapping, Tuple

from .rationals import INF, Value

Point = Tuple[int, ...]


class LiftedInputError(ValueError):
    """An operation received a lifted object it cannot handle."""


class EmptyResultError(ValueError):
    """A windowed restriction produced no points."""


# ---------------------------------------------------------------------------
# point arithmetic


def zero(n: int) -> Point:
    return (0,) * n


def ones(n: int) -> Point:
    return (1,) * n


def unit(n: int, i: int) -> Point:
    return tuple(1 if j == i else 0 for j in range(n))


def vadd(p: Point, q: Point) -> Point:
    return tuple(a + b for a, b in zip(p, q))


def vsub(p: Point, q: Point) -> Point:
    return tuple(a - b for a, b in zip(p, q))


def vshift(p: Point, a: int) -> Point:
    """p + a * (1,...,1)."""
    return tuple(c + a for c in p)


def linf_distance(p: Point, q: Point) -> int:
    return max(abs(a - b) for a, b in zip(p, q))


def supports(p: Point) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Positive and negative supports: indices with p_i > 0 resp. p_i < 0."""
    plus = tuple(i for i, c in enumerate(p) if c > 0)
    minus = tuple(i for i, c in enumerate(p) if c < 0)
    return plus, minus


def midpoint_round(x: Point, y: Point) -> Tuple[Point, Point]:
    """Componentwise round-up and round-down of (x+y)/2.

    Returns (ceil, floor); ceil >= floor componentwise and
    ceil + floor = x + y.
    """
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    up = tuple((a + b + 1) // 2 for a, b in zip(x, y))
    down = tuple((a + b) // 2 for a, b in zip(x, y))
    return up, down


def join_meet(x: Point, y: Point) -> Tuple[Point, Point]:
    """Componentwise max and min (the lattice join and meet)."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return tuple(map(max, x, y)), tuple(map(min, x, y))


def prefix_point(p: Point) -> Point:
    """Cumulative sums (p1, p1+p2, ..., p1+...+pn)."""
    out = []
    acc = 0
    for c in p:
        acc += c
        out.append(acc)
    return tuple(out)


def difference_point(p: Point) -> Point:
    """First differences (p1, p2-p1, ..., pn-p_{n-1}); inverse of
    :func:`prefix_point`."""
    out = []
    prev = 0
    for c in p:
        out.append(c - prev)
        prev = c
    return tuple(out)


def as_ints(entries: Iterable, what: str) -> Tuple[int, ...]:
    """entries as a tuple of ints; bools, floats and strings are errors."""
    q = tuple(entries)
    if not all(type(c) is int for c in q):
        raise ValueError(f"{what} {q} must have int entries")
    return q


def _point(p: Iterable, dim: int) -> Point:
    """p as a tuple of ``dim`` int coordinates."""
    q = as_ints(p, "point")
    if len(q) != dim:
        raise ValueError(f"point {q} does not have dimension {dim}")
    return q


def bounding_box(points: Iterable[Point]) -> "Window":
    """Smallest window holding the (nonempty) collection of points."""
    cols = list(zip(*points))
    if not cols:
        raise EmptyResultError("empty set has no bounding box")
    return Window(tuple(map(min, cols)), tuple(map(max, cols)))


def as_rational(v, what: str = "value") -> Fraction:
    """v as a Fraction; only ints and Fractions are accepted."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    raise ValueError(f"{what} {v!r} must be an int or a Fraction")


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True)
class Window:
    """A finite box [lo, hi] used to materialize possibly infinite results."""

    lo: Point
    hi: Point

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("window bounds disagree in dimension")
        object.__setattr__(self, "lo", _point(self.lo, len(self.lo)))
        object.__setattr__(self, "hi", _point(self.hi, len(self.hi)))
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"window has lo > hi: {self.lo} vs {self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p: Point) -> bool:
        return all(a <= c <= b for a, c, b in zip(self.lo, p, self.hi))

    def points(self) -> Iterator[Point]:
        ranges = [range(a, b + 1) for a, b in zip(self.lo, self.hi)]
        return itertools.product(*ranges)


def cube(n: int, lo: int, hi: int) -> Window:
    return Window((lo,) * n, (hi,) * n)


# ---------------------------------------------------------------------------
# lattice sets


def _normalize_rep(p: Point) -> Point:
    return vshift(p, -p[-1])


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of Z^n, or (``lifted=True``) the set
    {p + a*1 : p in points, a in Z} with representatives normalized to a
    zero last coordinate."""

    dim: int
    points: frozenset = field(default_factory=frozenset)
    lifted: bool = False
    ramp: ClassVar[int] = 0  # the ramp of its indicator function

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        pts = frozenset(_point(p, self.dim) for p in self.points)
        if self.lifted:
            pts = frozenset(_normalize_rep(p) for p in pts)
        object.__setattr__(self, "points", pts)

    @staticmethod
    def of(points: Iterable[Iterable[int]], lifted: bool = False) -> "LatticeSet":
        pts = [tuple(p) for p in points]
        if not pts:
            raise ValueError("cannot infer dimension of an empty set")
        return LatticeSet(len(pts[0]), frozenset(pts), lifted)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        if self.lifted:
            return _normalize_rep(p) in self.points
        return p in self.points

    def sorted_points(self) -> list:
        return sorted(self.points)

    def domain(self) -> "LatticeSet":
        """The set itself: the domain of its indicator function."""
        return self

    def bounding_box(self) -> Window:
        return bounding_box(self.points)

    @cached_property
    def indicator_values(self) -> Dict[Point, int]:
        """Each stored point mapped to 0, built once (see :func:`value_map`)."""
        return dict.fromkeys(self.points, 0)


# ---------------------------------------------------------------------------
# lattice functions


@dataclass(frozen=True, eq=False)
class LatticeFn:
    """Finite map Z^n -> Q, +infinity outside the stored domain.

    When ``lifted`` the denoted function satisfies f(x + 1) = f(x) + ramp and
    the stored representatives have last coordinate 0.
    """

    dim: int
    values: Mapping[Point, Fraction] = field(default_factory=dict)
    lifted: bool = False
    ramp: Fraction = Fraction(0)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        ramp = as_rational(self.ramp, "ramp")
        if ramp and not self.lifted:
            raise ValueError("only a lifted function can have a nonzero ramp")
        vals: Dict[Point, Fraction] = {}
        for p, v in self.values.items():
            q = _point(p, self.dim)
            v = as_rational(v)
            if self.lifted:
                shift = q[-1]
                q = _normalize_rep(q)
                v = v - shift * ramp
            if q in vals and vals[q] != v:
                raise ValueError(f"conflicting values for representative {q}")
            vals[q] = v
        if not vals:
            raise ValueError("function domain must be nonempty")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "ramp", ramp)

    @staticmethod
    def of(entries: Mapping, lifted: bool = False, ramp=Fraction(0)) -> "LatticeFn":
        items = dict(entries)
        if not items:
            raise ValueError("function domain must be nonempty")
        n = len(next(iter(items)))
        return LatticeFn(n, items, lifted, ramp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFn):
            return NotImplemented
        return (self.dim, self.lifted, self.ramp, dict(self.values)) == (
            other.dim,
            other.lifted,
            other.ramp,
            dict(other.values),
        )

    def value(self, p: Point) -> Value:
        if self.lifted:
            shift = p[-1]
            rep = _normalize_rep(p)
            base = self.values.get(rep)
            if base is None:
                return INF
            return base + shift * self.ramp
        v = self.values.get(tuple(p))
        return INF if v is None else v

    def domain(self) -> LatticeSet:
        return LatticeSet(self.dim, frozenset(self.values), self.lifted)

    def bounding_box(self) -> Window:
        return bounding_box(self.values)

    def sorted_items(self) -> list:
        return sorted(self.values.items())

    def __len__(self) -> int:
        return len(self.values)


def indicator_fn(s: LatticeSet) -> LatticeFn:
    """0 on the set, +infinity elsewhere; preserves the lift (ramp 0)."""
    return LatticeFn(s.dim, value_map(s), s.lifted)


# ---------------------------------------------------------------------------
# a set is its indicator function
#
# Every operation is written once over a value map and rebuilds its result
# as the input's kind through these helpers, so no operation tests the kind
# itself.


def value_map(obj) -> Mapping[Point, Value]:
    """Stored points to values; a set maps its points to 0, a plain int so
    that set arithmetic stays off Fraction.  The map is shared: callers
    read it and never change it."""
    if isinstance(obj, LatticeSet):
        return obj.indicator_values
    return obj.values


def keeps_values(obj) -> bool:
    """False for a set, whose rebuilt results keep only their domain."""
    return not isinstance(obj, LatticeSet)


def rebuild(like, dim: int, values: Mapping[Point, Value], lifted: bool = False, ramp=0,
            empty: str = "the result has an empty domain"):
    """``values`` as an object of ``like``'s kind: a set keeps the domain and
    may be empty, an empty function raises ``EmptyResultError(empty)``."""
    if isinstance(like, LatticeSet):
        return LatticeSet(dim, frozenset(values), lifted)
    if not values:
        raise EmptyResultError(empty)
    return LatticeFn(dim, values, lifted, ramp)


# ---------------------------------------------------------------------------
# change of coordinates behind multimodularity
#
# The bidiagonal unimodular matrix with unit diagonal and -1 subdiagonal maps
# p to its first differences; its inverse (lower triangular all ones) maps x
# to its prefix sums.  prefix_transform pulls an object back through that
# matrix, so a multimodular input yields an object with discrete midpoint
# convexity.


def _map_points(obj, move, what: str):
    if obj.lifted:
        raise LiftedInputError(f"{what} is only defined for finite objects")
    return rebuild(obj, obj.dim, {move(p): v for p, v in value_map(obj).items()})


def prefix_transform(obj):
    """Map every domain point to its prefix sums.  Rejects lifted inputs:
    the all-ones direction is not preserved by the coordinate change."""
    return _map_points(obj, prefix_point, "prefix transform")


def difference_transform(obj):
    """Exact inverse of :func:`prefix_transform` (first differences)."""
    return _map_points(obj, difference_point, "difference transform")


# ---------------------------------------------------------------------------
# windowed restriction


def restrict_to_window(obj, w: Window):
    """Intersect a set or function with the box [w.lo, w.hi].

    Lifted objects are materialized (every representative shifted by all
    multiples of the all-ones vector that stay inside the window) and the
    result is a plain finite object.  An empty intersection raises
    :class:`EmptyResultError`.
    """
    if w.dim != obj.dim:
        raise ValueError(f"window dimension {w.dim} != object dimension {obj.dim}")
    vals = value_map(obj)
    if obj.lifted:
        out: Dict[Point, Value] = {}
        for p, v in vals.items():
            lo = max(a - c for a, c in zip(w.lo, p))  # shifts a with p + a*1 in w
            hi = min(b - c for b, c in zip(w.hi, p))
            for a in range(lo, hi + 1):
                out[vshift(p, a)] = v + a * obj.ramp
    else:
        out = {p: v for p, v in vals.items() if w.contains(p)}
    if not out:
        raise EmptyResultError("restriction produced an empty domain")
    return rebuild(obj, obj.dim, out)
