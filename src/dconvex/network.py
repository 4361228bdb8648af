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

Values are exact ints inside an induction.  The input's values and every
arc cost table are scaled once per call, by the least common multiple of
all their denominators (``core.scaled``), so each flow's cost is an int
sum and each output point's least total is divided back once.  A set keeps
its int-0 indicator and reads no cost table, so its scale is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core import LiftedInputError, Point, Window, as_ints, as_rational, keeps_values, rebuild, scaled, value_map

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
    """Directed graph with entrance list U and exit list W (disjoint, each
    without repeats, ordered: vectors on U and W follow these lists)."""

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
        for name, terminals in (("entrance", self.entrance), ("exit", self.exit)):
            if len(set(terminals)) != len(terminals):
                raise ValueError(f"{name} list repeats a vertex: {list(terminals)}")
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


def _enumerate_flows(
    net: Network, entrance_range: Dict[str, Tuple[int, int]]
) -> Iterator[Tuple[Flow, Point, Point]]:
    """Yield (flow, boundary on U, boundary on W) for every capacity-feasible
    conservative flow whose entrance supplies stay within entrance_range.

    Arc k takes its values in ascending order, depth-first in arc order, in
    one frame: ``flow[k]`` is the value arc k holds, and ``flow[k] < lower``
    means it holds none yet."""
    arcs = net.arcs
    m = len(arcs)
    index = {v: i for i, v in enumerate(net.vertices)}
    # the supply bounds a vertex must be able to reach: an internal vertex
    # balances, an entrance stays in range and an exit is free
    need = [None] * len(index)
    for v in net.internal:
        need[index[v]] = (0, 0)
    for v, bounds in entrance_range.items():
        need[index[v]] = bounds
    # per vertex, the range of net supply still achievable from arcs >= k
    rem_lo = [[0] * (m + 1) for _ in index]
    rem_hi = [[0] * (m + 1) for _ in index]
    for k in range(m - 1, -1, -1):
        a = arcs[k]
        for v in range(len(index)):
            rem_lo[v][k], rem_hi[v][k] = rem_lo[v][k + 1], rem_hi[v][k + 1]
        t, h = index[a.tail], index[a.head]
        rem_lo[t][k] += a.lower
        rem_hi[t][k] += a.upper
        rem_lo[h][k] -= a.upper
        rem_hi[h][k] -= a.lower

    def window(v: int, k: int):
        """The supplies of vertex v after arcs < k that keep it feasible,
        or None when any supply does."""
        if need[v] is None:
            return None
        a, b = need[v]
        return a - rem_hi[v][k], b - rem_lo[v][k]

    supply = [0] * len(index)
    if any(w is not None and not w[0] <= 0 <= w[1] for w in (window(v, 0) for v in range(len(index)))):
        return
    on_u = [index[v] for v in net.entrance]
    on_w = [index[v] for v in net.exit]
    levels = [
        (index[a.tail], index[a.head], a.lower, a.upper, window(index[a.tail], k + 1), window(index[a.head], k + 1))
        for k, a in enumerate(arcs)
    ]
    flow = [a.lower - 1 for a in arcs]
    k = 0
    while k >= 0:
        if k == m:
            yield tuple(flow), tuple([supply[v] for v in on_u]), tuple([supply[v] for v in on_w])
            k -= 1
            continue
        t, h, lower, upper, wt, wh = levels[k]
        value = flow[k]
        if value >= lower:
            supply[t] -= value
            supply[h] += value
        if value == upper:
            flow[k] = lower - 1
            k -= 1
            continue
        value += 1
        flow[k] = value
        supply[t] += value
        supply[h] -= value
        if (wt is None or wt[0] <= supply[t] <= wt[1]) and (wh is None or wh[0] <= supply[h] <= wh[1]):
            k += 1


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
    if f.dim != len(net.entrance):
        raise ValueError(f"input dimension {f.dim} != entrance size {len(net.entrance)}")
    vals = value_map(f)
    if not vals:
        return rebuild(f, len(net.exit), {})
    box = f.bounding_box()
    entrance_range = {v: (box.lo[i], box.hi[i]) for i, v in enumerate(net.entrance)}
    scale, costed = 1, []
    if keeps_values(f):
        arcs = [(k, a.cost.table) for k, a in enumerate(net.arcs) if a.cost.table is not None]
        scale, (vals, *tables) = scaled(vals, *(dict(table) for _, table in arcs))
        costed = [(k, table) for (k, _), table in zip(arcs, tables)]
    # the least scaled total per exit boundary, first reached first
    best: Dict[Point, int] = {}
    for flow, on_u, on_w in _enumerate_flows(net, entrance_range):
        total = vals.get(on_u)
        if total is None:
            continue
        for k, table in costed:
            total += table[flow[k]]
        old = best.get(on_w)
        if old is None or total < old:
            best[on_w] = total
    out = {tuple(-c for c in w): Fraction(t, scale) for w, t in best.items()}
    return rebuild(f, len(net.exit), out, empty="induced function has an empty domain")


# A set transformation is the induction of its indicator function.
transform_set = induce_fn


# ---------------------------------------------------------------------------
# bipartite builders mirroring the splitting and aggregation shapes


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
