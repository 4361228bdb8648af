"""Seeded inputs for the benchmark workloads.

The check corpus holds one large member of every class label per size rung,
and for each member four near misses: the same object with one point
removed (a set) or one value raised above the value spread (a function).  Each family
is a member of its label by construction, and the near-miss point is chosen
so that a pair around it violates the label's axiom, so every expected
verdict is known without running a recognizer.

Shapes are fixed per rung; the seed picks translations, values and the
near-miss points.  Nothing is dropped after generation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from dconvex.classes import ClassLabel, FN_LABELS
from dconvex.core import LatticeFn, LatticeSet
from dconvex.network import Arc, ArcCost, Network

Point = Tuple[int, ...]

# box side per rung: about 27, 64 and 125 points
SIDES = (3, 4, 5)

FAMILY = {
    ClassLabel.INTEGER_BOX: "box",
    ClassLabel.IC_SET: "box",
    ClassLabel.LNAT_SET: "box",
    ClassLabel.L_SET: "lifted",
    ClassLabel.MNAT_SET: "split",
    ClassLabel.M_SET: "slice",
    ClassLabel.MULTIMODULAR_SET: "box",
    ClassLabel.GLOBAL_DMC_SET: "box",
    ClassLabel.JUMP_SYSTEM: "even",
    ClassLabel.CONST_PARITY_JUMP: "even",
    ClassLabel.SIMULT_EXCH_JUMP: "even",
    ClassLabel.SEPARABLE_CONVEX: "box",
    ClassLabel.IC_FN: "box",
    ClassLabel.LNAT_FN: "box",
    ClassLabel.L_FN: "lifted",
    ClassLabel.MNAT_FN: "split",
    ClassLabel.M_FN: "slice",
    ClassLabel.MULTIMODULAR_FN: "box",
    ClassLabel.GLOBAL_DMC_FN: "box",
    ClassLabel.LOCAL_DMC_FN: "box",
    ClassLabel.JUMP_M_FN: "even",
    ClassLabel.JUMP_MNAT_FN: "even",
}

MISSES_PER_MEMBER = 4

# 4-d slice {x in [0, s-1]^4 : sum x = c} per side: 31, 68 and 125 points
_SLICE = {3: (4, 4), 4: (5, 6), 5: (6, 8)}
# split image {y1 <= a, y2 + y3 <= b} per side: 30, 60 and 126 points
_SPLIT = {3: (2, 3), 4: (3, 4), 5: (5, 5)}


@dataclass(frozen=True)
class Instance:
    ident: str
    label: ClassLabel
    family: str
    side: int
    member: bool
    obj: object  # LatticeSet or LatticeFn

    @property
    def size(self) -> int:
        return len(self.obj)


def rng_for(seed, *tags) -> random.Random:
    return random.Random("|".join(str(t) for t in ("perfbench", seed, *tags)))


def convex_table(rng: random.Random, lo: int, hi: int) -> Dict[int, Fraction]:
    """Random discretely convex univariate table on [lo, hi]."""
    slopes = sorted(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(hi - lo))
    v = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    out = {lo: v}
    for t, s in zip(range(lo + 1, hi + 1), slopes):
        v += s
        out[t] = v
    return out


def _unit(n: int, i: int, k: int = 1) -> Point:
    return tuple(k if j == i else 0 for j in range(n))


def _shape(family: str, side: int, rng: random.Random):
    """(dim, points, lifted, steps, value function factory) of one family
    member.  ``steps`` are the directions d for which x - d, x, x + d in the
    object make x a valid near-miss point for every label of the family."""
    if family in ("box", "lifted"):
        off = [rng.randint(-2, 2) for _ in range(3)]
        pts = [tuple(o + c for o, c in zip(off, p)) for p in itertools.product(range(side), repeat=3)]
        steps = [_unit(3, i) for i in range(3)]
        if family == "lifted":
            pts = [p + (0,) for p in pts]
            steps = [s + (0,) for s in steps]
            return 4, pts, True, steps, _separable(4)
        return 3, pts, False, steps, _separable(3)
    if family == "even":
        dims = (side, side, 2 * side)
        pts = [p for p in itertools.product(*(range(d) for d in dims)) if sum(p) % 2 == 0]
        return 3, pts, False, [_unit(3, i, 2) for i in range(3)], _separable(3)
    if family == "slice":
        s, c = _SLICE[side]
        pts = [p for p in itertools.product(range(s), repeat=4) if sum(p) == c]
        steps = [
            tuple(a - b for a, b in zip(_unit(4, i), _unit(4, j)))
            for i in range(4)
            for j in range(4)
            if i != j
        ]
        return 4, pts, False, steps, _separable(4)
    if family == "split":
        a, b = _SPLIT[side]
        pts = [
            (y1, y2, y3)
            for y1 in range(a + 1)
            for y2 in range(b + 1)
            for y3 in range(b + 1 - y2)
        ]
        return 3, pts, False, [_unit(3, i) for i in range(3)], _split_values
    raise ValueError(f"unknown family {family!r}")


def _separable(dim: int):
    def values(rng: random.Random, pts: Sequence[Point]) -> Dict[Point, Fraction]:
        tables = []
        for i in range(dim):
            lo = min(p[i] for p in pts)
            hi = max(p[i] for p in pts)
            tables.append(convex_table(rng, lo, hi))
        return {p: sum((tables[i][p[i]] for i in range(dim)), Fraction(0)) for p in pts}

    return values


def _split_values(rng: random.Random, pts: Sequence[Point]) -> Dict[Point, Fraction]:
    """A separable convex function of (y1, y2 + y3): the split image of a
    separable convex function of two variables."""
    first = convex_table(rng, 0, max(p[0] for p in pts))
    second = convex_table(rng, 0, max(p[1] + p[2] for p in pts))
    return {p: first[p[0]] + second[p[1] + p[2]] for p in pts}


def _make(dim: int, pts, lifted: bool, vals, label: ClassLabel):
    if label in FN_LABELS:
        ramp = Fraction(1, 2) if lifted else Fraction(0)
        return LatticeFn(dim, vals, lifted=lifted, ramp=ramp)
    return LatticeSet(dim, frozenset(pts), lifted=lifted)


def _vadd(p: Point, q: Point, k: int = 1) -> Point:
    return tuple(a + k * b for a, b in zip(p, q))


def near_miss_points(pts: Sequence[Point], steps: Sequence[Point]) -> List[Point]:
    have = set(pts)
    return [
        x
        for x in sorted(pts)
        if any(_vadd(x, d) in have and _vadd(x, d, -1) in have for d in steps)
    ]


def build_check_corpus(seed, sides: Sequence[int] = SIDES) -> Tuple[List[Instance], List[Instance]]:
    """(members, near misses): one member per label and side, and
    MISSES_PER_MEMBER near misses derived from each member."""
    members: List[Instance] = []
    misses: List[Instance] = []
    for side in sides:
        for label in ClassLabel:
            family = FAMILY[label]
            rng = rng_for(seed, "corpus", label.value, side)
            dim, pts, lifted, steps, values = _shape(family, side, rng)
            vals = values(rng, pts) if label in FN_LABELS else None
            ident = f"{label.value}-{side}"
            members.append(Instance(ident, label, family, side, True, _make(dim, pts, lifted, vals, label)))
            candidates = near_miss_points(pts, steps)
            for k in range(MISSES_PER_MEMBER):
                # near the middle of the k-th quarter of the scan order, so
                # every seed mixes early and late violations alike
                at = (k + 0.4 + 0.2 * rng.random()) / MISSES_PER_MEMBER
                x = candidates[int(at * len(candidates))]
                if vals is None:
                    miss = _make(dim, [p for p in pts if p != x], lifted, None, label)
                else:
                    raised = dict(vals)
                    raised[x] += max(vals.values()) - min(vals.values()) + 1
                    miss = _make(dim, pts, lifted, raised, label)
                misses.append(Instance(f"{ident}-miss{k}", label, family, side, False, miss))
    return members, misses


def manifest(instances: Sequence[Instance]) -> List[dict]:
    return [
        {
            "id": i.ident,
            "label": i.label.value,
            "family": i.family,
            "side": i.side,
            "size": i.size,
            "expected": "member" if i.member else "non-member",
        }
        for i in instances
    ]


# ---------------------------------------------------------------------------
# transform inputs


def box_fn(rng: random.Random, dims: Sequence[int], lo: int = 0) -> LatticeFn:
    pts = list(itertools.product(*(range(lo, lo + d) for d in dims)))
    return LatticeFn(len(dims), _separable(len(dims))(rng, pts))


def box_set(dims: Sequence[int], lo: int = 0) -> LatticeSet:
    return LatticeSet(len(dims), frozenset(itertools.product(*(range(lo, lo + d) for d in dims))))


def _cost(rng: random.Random, lo: int, hi: int) -> ArcCost:
    return ArcCost.from_table(convex_table(rng, lo, hi))


def mesh_network(rng: random.Random) -> Network:
    """Ten arcs: three entrances feeding three exits directly and through
    one internal vertex, every arc with a seeded convex cost."""
    us, ws = ("u0", "u1", "u2"), ("w0", "w1", "w2")
    arcs = []
    for i, u in enumerate(us):
        for j in (i, (i + 1) % 3):
            arcs.append(Arc(u, ws[j], -1, 1, _cost(rng, -1, 1)))
    for u in us[:2]:
        arcs.append(Arc(u, "z", 0, 2, _cost(rng, 0, 2)))
    for w in ws[:2]:
        arcs.append(Arc("z", w, 0, 2, _cost(rng, 0, 2)))
    return Network(us + ("z",) + ws, tuple(arcs), us, ws)


def wide_network(rng: random.Random) -> Network:
    """Two entrances and two exits; the direct arcs use the full capacity
    width, the crossing arcs are narrow."""
    us, ws = ("u0", "u1"), ("w0", "w1")
    arcs = (
        Arc("u0", "w0", -6, 6, _cost(rng, -6, 6)),
        Arc("u1", "w1", -6, 6, _cost(rng, -6, 6)),
        Arc("u0", "w1", 0, 3, _cost(rng, 0, 3)),
        Arc("u1", "w0", 0, 3, _cost(rng, 0, 3)),
    )
    return Network(us + ws, arcs, us, ws)
