"""Transformation of sets and induction of functions through arc-capacitated
networks with convex arc costs.

One routine, :func:`induce_fn`, serves both kinds: a set is induced as its
indicator function and its image keeps only the domain, so
``transform_set`` is the same function.

The ground truth here is exhaustive enumeration of integral conservative
flows: arc values are assigned depth-first in input order, pruning a branch
as soon as some vertex can no longer balance (internal vertices must reach
net supply 0, entrance vertices must stay inside the coordinate range of the
entrance set / function domain).  Capacities must be finite and instances
are capped at load so the enumeration stays at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core import LiftedInputError, Point, Window, as_ints, as_rational, keeps_values, rebuild, value_map
from .rationals import Value

MAX_ARCS = 12
MAX_CAPACITY_WIDTH = 12


@dataclass(frozen=True)
class ArcCost:
    """Convex integer-to-rational cost table on [lower, upper]; ``table`` is
    None for the free (identically zero) cost."""

    table: Optional[Tuple[Tuple[int, Fraction], ...]] = None

    @staticmethod
    def zero() -> "ArcCost":
        return ArcCost(None)

    @staticmethod
    def from_table(entries: Mapping[int, Fraction]) -> "ArcCost":
        entries = dict(entries)
        as_ints(entries, "cost abscissas")
        items = tuple(sorted((t, as_rational(v, "arc cost")) for t, v in entries.items()))
        return ArcCost(items)

    @staticmethod
    def from_callable(lo: int, hi: int, fn) -> "ArcCost":
        return ArcCost.from_table({t: fn(t) for t in range(lo, hi + 1)})

    def is_zero(self) -> bool:
        return self.table is None

    def validate(self, lower: int, upper: int) -> None:
        if self.table is None:
            return
        ts = [t for t, _ in self.table]
        if ts != list(range(lower, upper + 1)):
            raise ValueError(f"cost table must cover exactly [{lower}, {upper}]")
        vals = dict(self.table)
        for t in range(lower + 1, upper):
            if vals[t - 1] + vals[t + 1] < 2 * vals[t]:
                raise ValueError(f"cost table is not convex at t={t}")


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    lower: int
    upper: int
    cost: ArcCost = field(default_factory=ArcCost.zero)

    def __post_init__(self):
        as_ints((self.lower, self.upper), f"arc {self.tail}->{self.head} bounds")
        if self.lower > self.upper:
            raise ValueError(f"arc {self.tail}->{self.head} has lower > upper")
        if self.upper - self.lower > MAX_CAPACITY_WIDTH:
            raise ValueError(
                f"arc {self.tail}->{self.head} capacity width exceeds {MAX_CAPACITY_WIDTH}"
            )
        self.cost.validate(self.lower, self.upper)


@dataclass(frozen=True)
class Network:
    """Directed graph with entrance list U and exit list W (disjoint,
    ordered: vectors on U and W follow these lists)."""

    vertices: Tuple[str, ...]
    arcs: Tuple[Arc, ...]
    entrance: Tuple[str, ...]
    exit: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arcs", tuple(self.arcs))
        object.__setattr__(self, "entrance", tuple(self.entrance))
        object.__setattr__(self, "exit", tuple(self.exit))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if set(self.entrance) & set(self.exit):
            raise ValueError("entrance and exit sets must be disjoint")
        for v in list(self.entrance) + list(self.exit):
            if v not in vs:
                raise ValueError(f"unknown terminal vertex {v!r}")
        for a in self.arcs:
            if a.tail not in vs or a.head not in vs:
                raise ValueError(f"arc endpoints {a.tail}->{a.head} missing from vertex list")
        if len(self.arcs) > MAX_ARCS:
            raise ValueError(f"at most {MAX_ARCS} arcs are supported")
        if not self.entrance or not self.exit:
            raise ValueError("entrance and exit lists must be nonempty")

    @property
    def internal(self) -> Tuple[str, ...]:
        terminals = set(self.entrance) | set(self.exit)
        return tuple(v for v in self.vertices if v not in terminals)


Flow = Tuple[int, ...]  # one value per arc, in arc order


def boundary(flow: Sequence[int], net: Network) -> Tuple[Point, Point]:
    """Net supply vectors on the entrance and exit lists."""
    if len(flow) != len(net.arcs):
        raise ValueError("flow must assign every arc")
    supply: Dict[str, int] = {v: 0 for v in net.vertices}
    for value, arc in zip(flow, net.arcs):
        supply[arc.tail] += value
        supply[arc.head] -= value
    on_u = tuple(supply[v] for v in net.entrance)
    on_w = tuple(supply[v] for v in net.exit)
    return on_u, on_w


def _enumerate_flows(
    net: Network, entrance_range: Dict[str, Tuple[int, int]]
) -> Iterator[Tuple[Flow, Point, Point]]:
    """Yield (flow, boundary on U, boundary on W) for every capacity-feasible
    conservative flow whose entrance supplies stay within entrance_range."""
    arcs = net.arcs
    m = len(arcs)
    vs = net.vertices
    internal = set(net.internal)
    entrance = set(net.entrance)
    # per vertex, the range of net-supply still achievable from arcs >= k
    rem_lo = {v: [0] * (m + 1) for v in vs}
    rem_hi = {v: [0] * (m + 1) for v in vs}
    for k in range(m - 1, -1, -1):
        a = arcs[k]
        for v in vs:
            lo, hi = rem_lo[v][k + 1], rem_hi[v][k + 1]
            if v == a.tail:
                lo, hi = lo + a.lower, hi + a.upper
            if v == a.head:
                lo, hi = lo - a.upper, hi - a.lower
            rem_lo[v][k], rem_hi[v][k] = lo, hi

    supply = {v: 0 for v in vs}
    flow: List[int] = [0] * m

    def feasible(v: str, k: int) -> bool:
        lo = supply[v] + rem_lo[v][k]
        hi = supply[v] + rem_hi[v][k]
        if v in internal:
            return lo <= 0 <= hi
        if v in entrance:
            a, b = entrance_range[v]
            return lo <= b and hi >= a
        return True

    def rec(k: int) -> Iterator[Tuple[Flow, Point, Point]]:
        if k == m:
            on_u = tuple(supply[v] for v in net.entrance)
            on_w = tuple(supply[v] for v in net.exit)
            yield tuple(flow), on_u, on_w
            return
        a = arcs[k]
        for value in range(a.lower, a.upper + 1):
            flow[k] = value
            supply[a.tail] += value
            supply[a.head] -= value
            if feasible(a.tail, k + 1) and feasible(a.head, k + 1):
                yield from rec(k + 1)
            supply[a.tail] -= value
            supply[a.head] += value

    if all(feasible(v, 0) for v in vs):
        yield from rec(0)


def _entrance_range_from(obj, net: Network) -> Dict[str, Tuple[int, int]]:
    if obj.dim != len(net.entrance):
        raise ValueError(
            f"input dimension {obj.dim} != entrance size {len(net.entrance)}"
        )
    box = obj.bounding_box()
    return {v: (box.lo[i], box.hi[i]) for i, v in enumerate(net.entrance)}


def induce_fn(f, net: Network):
    """g(y) = min { f(x) + sum of arc costs : flow realizes supply x and
    demand y }; +infinity (absent) where no flow exists.

    A set is transformed: the result is the set of exit vectors realizable
    by a feasible flow whose entrance supply lies in the set.  It may be
    empty; emptiness is the caller's signal.  A set's image keeps only the
    domain, so arc costs are never read for it.
    """
    if f.lifted:
        raise LiftedInputError("network induction needs a finite input")
    vals = value_map(f)
    costed = []
    if keeps_values(f):
        costed = [(k, dict(a.cost.table)) for k, a in enumerate(net.arcs) if a.cost.table is not None]
    best: Dict[Point, Value] = {}
    for flow, on_u, on_w in _enumerate_flows(net, _entrance_range_from(f, net)):
        total = vals.get(on_u)
        if total is None:
            continue
        for k, table in costed:
            total += table[flow[k]]
        y = tuple(-c for c in on_w)
        if y not in best or total < best[y]:
            best[y] = total
    return rebuild(f, len(net.exit), best, empty="induced function has an empty domain")


# A set transformation is the induction of its indicator function.
transform_set = induce_fn


# ---------------------------------------------------------------------------
# bipartite builders mirroring the splitting / aggregation / sum shapes


def identity_network(bounds: Sequence[Tuple[int, int]]) -> Network:
    n = len(bounds)
    us = tuple(f"u{i}" for i in range(n))
    ws = tuple(f"w{i}" for i in range(n))
    arcs = tuple(Arc(us[i], ws[i], bounds[i][0], bounds[i][1]) for i in range(n))
    return Network(us + ws, arcs, us, ws)


def splitting_network(blocks: Sequence[int], w: Window) -> Network:
    """Each entrance vertex feeds the exit vertices of its block; exit j is
    capacitated by the window slot j."""
    n = len(blocks)
    m = sum(blocks)
    if w.dim != m:
        raise ValueError("window dimension must match the split output")
    us = tuple(f"u{i}" for i in range(n))
    ws = tuple(f"w{j}" for j in range(m))
    arcs = []
    j = 0
    for i, b in enumerate(blocks):
        for _ in range(b):
            arcs.append(Arc(us[i], ws[j], w.lo[j], w.hi[j]))
            j += 1
    return Network(us + ws, tuple(arcs), us, ws)


def aggregation_network(groups: Sequence[Sequence[int]], coord_bounds: Sequence[Tuple[int, int]]) -> Network:
    """Each entrance vertex has one arc, into the exit vertex of its group;
    arc i is capacitated by the coordinate range of input coordinate i."""
    n = len(coord_bounds)
    m = len(groups)
    us = tuple(f"u{i}" for i in range(n))
    ws = tuple(f"w{j}" for j in range(m))
    arcs: List[Optional[Arc]] = [None] * n
    for j, g in enumerate(groups):
        for i in g:
            arcs[i] = Arc(us[i], ws[j], coord_bounds[i][0], coord_bounds[i][1])
    return Network(us + ws, tuple(arcs), us, ws)


def pair_sum_network(
    bounds1: Sequence[Tuple[int, int]], bounds2: Sequence[Tuple[int, int]]
) -> Network:
    """Two entrance copies of each coordinate feeding a common exit; the
    induced object is the Minkowski sum / convolution."""
    n = len(bounds1)
    if len(bounds2) != n:
        raise ValueError("dimension mismatch")
    us = tuple(f"u{i}" for i in range(n)) + tuple(f"v{i}" for i in range(n))
    ws = tuple(f"w{i}" for i in range(n))
    arcs = tuple(
        Arc(f"u{i}", f"w{i}", bounds1[i][0], bounds1[i][1]) for i in range(n)
    ) + tuple(Arc(f"v{i}", f"w{i}", bounds2[i][0], bounds2[i][1]) for i in range(n))
    return Network(us + ws, arcs, us, ws)
