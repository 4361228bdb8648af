"""Transformation of sets and induction of functions through arc-capacitated
networks with convex arc costs.

One routine, :func:`induce_fn`, serves both kinds: a set is induced as its
indicator function and its image keeps only the domain, so
``transform_set`` is the same function.

The ground truth here is exhaustive enumeration of integral conservative
flows, by one recursive walk (:func:`_enumerate_flows`): arcs in input
order, depth-first, each taking its values ascending.  Every vertex has a
supply it must end with (0 inside, the coordinate range of the input's
domain at an entrance, anything at an exit), and arc k loops only over the
values that keep its tail and head able to reach theirs with the arcs
after it, so no value is tried and then rejected.  A flow leaves three
ints: its cost and the ``core.Codes`` codes of its entrance and exit
supplies; the distinct codes are decoded to points together
(``Codes.points``).  After a level where a non-exit vertex has had its
last arc (a cut), each distinct rest of the walk is walked once and then
copied, shifted; flows and order are the plain walk's.  Capacities must be
finite.  Time and memory still grow with the number of flows, which is at
most the product of (upper - lower + 1) over the arcs; ``MAX_ARCS`` and
``MAX_CAPACITY_WIDTH`` cap that product at load, and nothing else bounds
the work.

Values are exact ints inside an induction.  Each arc cost table is scaled
once per network by the least common multiple of every cost denominator
(:attr:`Network.scaled_costs`, through ``core.scaled``), so a flow's cost
is an int over that cost scale.  The input's values are scaled once per
call to the least common multiple of their denominators and the cost
scale, so each total is an int sum and each output point's least total is
divided back once.  A set keeps its int-0 indicator and weighs no cost, so
its scale is 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf
from itertools import repeat
from operator import add, itemgetter, neg
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core import (
    Codes,
    LiftedInputError,
    Point,
    Window,
    as_ints,
    as_rational,
    keeps_values,
    rebuild,
    scaled,
    value_map,
)

MAX_ARCS = 12
MAX_CAPACITY_WIDTH = 12
_FREE = (0,) * (MAX_CAPACITY_WIDTH + 1)  # the scaled costs of a free arc


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

    @cached_property
    def scaled_costs(self) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
        """The cost scale, the least common multiple of every arc cost's
        denominator, and per arc its costs times that scale as ints,
        indexed by value - lower; free arcs share one zero row.  Built on
        first use, once per network."""
        scale, tables = scaled(*(dict(a.cost.table) for a in self.arcs if a.cost.table is not None))
        rows = iter(tables)
        return scale, tuple(_FREE if a.cost.table is None else tuple(next(rows).values()) for a in self.arcs)


def _enumerate_flows(
    net: Network, entrance_range: Dict[str, Tuple[int, int]]
) -> Iterator[Tuple[int, Point, Point]]:
    """One (cost, x, y) per capacity-feasible conservative flow whose
    entrance supplies stay within entrance_range, in walk order (arcs in
    input order, depth-first, values ascending): cost is the flow's cost as
    an int over the network's cost scale (:attr:`Network.scaled_costs`), x
    and y its supplies on the entrance and exit lists.  Equal supplies
    share one point tuple.

    The walk runs to the end before the first item is returned.  Each level
    carries the cost so far and the codes of the entrance and exit supplies
    (``core.Codes`` over the entrance ranges and over the supplies each
    exit can reach); each flow appends those three ints.  ``induce_fn``
    reads flows through this module attribute, so a wrapper put in its
    place sees every flow.

    A cut is a level, not the first or the last, before which a non-exit
    vertex had its last arc.  The walk from a cut reads only the supplies
    of the non-exit vertices its arcs touch (an exit's window is all its
    arcs reach, so it never binds, and the loop slot is unbounded).  Keyed
    by them, a memo per cut and call keeps the output slice of a key's
    first visit with the cost and codes it began at; a later visit appends
    it shifted by its own (codes are affine).  Items and order are the
    plain walk's."""
    index = {v: i for i, v in enumerate(net.vertices)}
    # a loop moves no supply, so both its ends are a spare slot no window binds
    spare = len(index)
    # per vertex, the range of net supply the arcs after arc k can still
    # add, taken for arc k's own ends while walking back; after the loop,
    # the range all arcs can add
    rem_lo, rem_hi = [0] * (spare + 1), [0] * (spare + 1)
    ends = []
    for a in reversed(net.arcs):
        t, h = (spare, spare) if a.tail == a.head else (index[a.tail], index[a.head])
        ends.append((a, t, h, rem_lo[t], rem_hi[t], rem_lo[h], rem_hi[h]))
        rem_lo[t] += a.lower
        rem_hi[t] += a.upper
        rem_lo[h] -= a.upper
        rem_hi[h] -= a.lower
    # the supply each vertex must end with: 0 inside, its range at an
    # entrance, at an exit anything its arcs reach.  Each arc holds its ends
    # to theirs; an entrance no arc can bring into range ends the search here
    need = [(0, 0)] * spare + [(-inf, inf)]
    on_u = [index[v] for v in net.entrance]
    for v, i in zip(net.entrance, on_u):
        a, b = need[i] = entrance_range[v]
        if a > rem_hi[i] or b < rem_lo[i]:
            return iter(())
    on_w = [index[v] for v in net.exit]
    for i in on_w:
        need[i] = (rem_lo[i], rem_hi[i])
    codes_u = Codes(*zip(*[need[i] for i in on_u]))
    codes_w = Codes(*zip(*[need[i] for i in on_w]))
    stride_u, stride_w = [0] * (spare + 1), [0] * (spare + 1)
    for i, s in zip(on_u, codes_u.strides):
        stride_u[i] = s
    for i, s in zip(on_w, codes_w.strides):
        stride_w[i] = s
    # after arc k, the supplies of its tail and head from which the arcs
    # after it can still reach theirs
    levels = []
    for (a, t, h, t_lo, t_hi, h_lo, h_hi), table in zip(reversed(ends), net.scaled_costs[1]):
        (nt_lo, nt_hi), (nh_lo, nh_hi) = need[t], need[h]
        levels.append((
            t, h, a.lower, a.upper, nt_lo - t_hi, nt_hi - t_lo, nh_lo - h_hi, nh_hi - h_lo,
            stride_u[t] - stride_u[h], stride_w[t] - stride_w[h], table,
        ))
    last = len(levels) - 1
    supply = [0] * (spare + 1)
    costs: List[int] = []
    xs: List[int] = []
    ys: List[int] = []

    def walk(k: int, cost: int, x: int, y: int) -> None:
        t, h, lower, upper, wt_lo, wt_hi, wh_lo, wh_hi, dx, dy, table = levels[k]
        st, sh = supply[t], supply[h]
        values = range(max(lower, wt_lo - st, sh - wh_hi), min(upper, wt_hi - st, sh - wh_lo) + 1)
        if k == last:
            for v in values:
                costs.append(cost + table[v - lower])
                xs.append(x + v * dx)
                ys.append(y + v * dy)
            return
        deeper = then[k]
        for v in values:
            supply[t] = st + v
            supply[h] = sh - v
            deeper(k + 1, cost + table[v - lower], x + v * dx, y + v * dy)
        supply[t] = st
        supply[h] = sh

    def memoized(key_of) -> Callable[[int, int, int, int], None]:
        """walk at a cut, memo: key_of(supply) -> (start, end, cost, x, y)."""
        memo: Dict[object, Tuple[int, int, int, int, int]] = {}

        def visit(k: int, cost: int, x: int, y: int) -> None:
            key = key_of(supply)
            seen = memo.get(key)
            if seen:
                start, end, c, a, b = seen
                costs.extend(map(add, costs[start:end], repeat(cost - c)))
                xs.extend(map(add, xs[start:end], repeat(x - a)))
                ys.extend(map(add, ys[start:end], repeat(y - b)))
                return
            start = len(costs)
            walk(k, cost, x, y)
            memo[key] = (start, len(costs), cost, x, y)

        return visit

    # then[k] walks level k + 1, at a cut keyed by the open non-exit supplies
    then = [walk] * len(levels)
    inside, opened = set(range(spare)).difference(on_w), set()
    for k in range(last, 0, -1):
        opened.update(inside.intersection(levels[k][:2]))
        if k < last and not opened.issuperset(inside.intersection(levels[k - 1][:2])):
            then[k - 1] = memoized(itemgetter(*opened) if opened else lambda _: ())

    x, y = codes_u.code((0,) * len(on_u)), codes_w.code((0,) * len(on_w))
    if levels:
        walk(0, 0, x, y)
    else:  # no arcs: one empty flow
        costs.append(0)
        xs.append(x)
        ys.append(y)
    points_u, points_w = _decoded(codes_u, xs), _decoded(codes_w, ys)
    return zip(costs, map(points_u.__getitem__, xs), map(points_w.__getitem__, ys))


def _decoded(codes: Codes, cs: List[int]) -> Dict[int, Point]:
    """Each distinct code of cs mapped to its point, decoded in bulk."""
    distinct = list(set(cs))
    return dict(zip(distinct, codes.points(distinct)))


def induce_fn(f, net: Network):
    """g(y) = min { f(x) + sum of arc costs : flow realizes supply x and
    demand y }; +infinity (absent) where no flow exists.

    A set is transformed: the result is the set of exit vectors realizable
    by a feasible flow whose entrance supply lies in the set.  It may be
    empty; emptiness is the caller's signal.  A set's image keeps only the
    domain, so arc costs weigh nothing for it.

    Flows come from the module attribute ``_enumerate_flows``, one
    (cost, x, y) per flow.  f's values are scaled to the least common
    multiple of their denominators and the network's cost scale, so each
    total is an int; each exit point's least total is divided back once.
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
    scale, weight = 1, 0
    if keeps_values(f):
        cost_scale = net.scaled_costs[0]
        scale, (vals,) = scaled(vals, scale=cost_scale)
        weight = scale // cost_scale
    # the least scaled total per exit supply, first reached first
    best: Dict[Point, int] = {}
    get = vals.get
    for cost, x, y in _enumerate_flows(net, entrance_range):
        total = get(x)
        if total is None:
            continue
        total += cost * weight
        old = best.get(y)
        if old is None or total < old:
            best[y] = total
    # the exit points negated column by column
    out = dict(zip(zip(*[map(neg, col) for col in zip(*best)]), best.values()))
    return rebuild(f, len(net.exit), out, empty="induced function has an empty domain", scale=scale)


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
