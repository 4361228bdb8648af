"""Brute-force set recognizers and set operations kept as an independent
test oracle.

The recognizers are the per-class set scanners that production decided sets
with before every axiom moved into one table shared by sets and functions
(``dconvex.classes``).  Each tests its class axiom directly on point
membership, so comparing them with ``check_set`` checks the axiom table
through a second implementation.  The integrally convex one decides local
hull membership by the brute-force hull oracle (``hull_oracle``), not by
the local extension production reads a set through.

A function recognizer sits beside them.  ``check_ic_fn`` decides
integrally convex functions by the definition, over the stored ``Fraction``
values, with the brute-force local extension (``hull_oracle``) memoized by
the midpoint itself, a tuple of Fractions, so it checks the int-scaled
production kernel, whose memo is keyed by point codes, through a second
implementation.

``check_l`` decides the L labels, sets and functions, lifted or finite, by
submodularity in Z^n, ramp included, the way production decided lifted
objects before it read them on their L♮ section: a lifted object directly,
a finite one as the trace on its bounding box of its lift along 1, which
must be L-convex under that scan and give the object back on the box.
Production reads a finite object as ``lnat-fn`` and a ramp instead, so
the two agree only through the theorem in ``classes._check_l``.  Its
``submodular`` and ``trace`` witnesses replay through ``replays_l``, on
``core.join_meet``, as production knows neither kind.

``check_dmc`` decides the global and local discrete midpoint convexity
labels, sets and functions, by the midpoint scan on Fraction values and
point tuples, with the l-inf filter of each label.

``check_family`` decides the L♮, L, M♮, M and multimodular labels, sets
and functions, by their pair scans, which production runs only when its
polyhedral domain test or its local axiom does not settle membership: the
midpoint scan on Fraction values and point tuples (on the stored section
of a lifted L object, on the prefix image for multimodular), and
``check_ordered`` for the exchange labels.  It gives the whole ``Verdict``.

``ordered_verdicts`` decides every exchange (M♮, M) and jump label of an
object's kind, sets and functions alike, in one scan of the ordered pairs
on point tuples, read through the production value view
(``classes._View``), and ``check_ordered`` one label by the same scan.
Both axiom families read, for a step a and its partners b, the one-step
exchange (x + a, y - a) and the two-step exchanges (x + a + b, y - a - b):
a = -e_i and b = e_j over supp+ and supp- of x - y for the exchange
labels, a in inc(x, y) and b in inc(x + a, y) for the jump labels, each
list rebuilt from its definition once per difference y - x.  The values at
x + a and x + a + b are read once per point, so each (pair, step) is read
once for all the labels of its family, and each label keeps its own
lexicographically first witness.  It gives the whole ``Verdict``, witness
and all.  Its point helpers ``unit``, ``vsub`` and ``increments`` have no
production caller; ``increments`` keeps the sorted signed unit vectors of
each dimension across calls.

``pair_scan`` is the per-pair scan of one production ordered kind, the
other reading of the same predicate: production reads those kinds by rows
at every size (``classes._Rows``), and this calls the kind's predicate on
every ordered pair in code order (``violated_pairs``), with each
difference's move built once, so comparing the two checks the row
reading's bitsets, blocks and boxes against the axiom itself.

The direct sums and the Minkowski sum are the point-set bodies production
used before each operation was written once over value maps
(``dconvex.ops``), where a set is its indicator function.  They build point
sets directly, so comparing them with the production set names checks the
indicator reading and the rebuilding of set results.  Splitting and
aggregation are read from their definitions, for sets and functions alike:
``split_fn`` visits every window point and looks up its block sums, and
``aggregate_fn`` collects each fiber whole before taking its minimum, where
production builds per-block decomposition tables and sums columns.

``induce_fn`` and ``convolution_fn`` are the network induction and the
infimal convolution production ran before both moved onto the exact integer
kernel (``dconvex.core.scaled`` and ``dconvex.core.Codes``): Fraction sums
per flow and per pair, point tuples added per pair, and the flows
enumerated by ``enumerate_flows``, a recursion over the arcs where
production runs one loop in one frame.  Sets and functions alike go
through them, as their indicator maps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from dconvex.classes import _AXIOMS, SET_LABELS, ClassLabel, Verdict, Witness, _View, verify_witness
from dconvex.core import (
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Window,
    Point,
    bounding_box,
    difference_point,
    join_meet,
    keeps_values,
    linf_distance,
    midpoint_round,
    prefix_point,
    prefix_transform,
    rebuild,
    supports,
    vadd,
    value_map,
    vshift,
)
from dconvex.network import Network
from dconvex.ops import PartitionSpec, SplitSpec, _fiber_min, _value_maps
from dconvex.rationals import INF, is_finite
from hull_oracle import in_local_hull_bruteforce, local_extension_value_bruteforce

_OK = Verdict(True, None)


def _fail(kind: str, points, indices=()) -> Verdict:
    return Verdict(False, Witness(kind, tuple(points), tuple(indices)))


def unit(n: int, i: int) -> Point:
    return tuple(1 if j == i else 0 for j in range(n))


def vsub(p: Point, q: Point) -> Point:
    return tuple(map(sub, p, q))


@lru_cache(maxsize=None)
def _signed_units(n: int) -> Tuple[Tuple[int, int, Point], ...]:
    """(i, d, d * e_i) for each signed unit vector d * e_i of Z^n, sorted
    lexicographically by the vector."""
    units = [(i, d, tuple(d * c for c in unit(n, i))) for i in range(n) for d in (-1, 1)]
    return tuple(sorted(units, key=lambda u: u[2]))


def increments(x: Point, y: Point) -> List[Point]:
    """All signed unit steps s with x + s inside the box [x ^ y, x v y],
    sorted lexicographically."""
    return [s for i, d, s in _signed_units(len(x)) if d * (y[i] - x[i]) > 0]


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


def half_midpoint(x: Point, y: Point) -> Tuple[Fraction, ...]:
    return tuple(Fraction(a + b, 2) for a, b in zip(x, y))


def _by_midpoint(solve):
    """solve(obj, half) memoized by the half-integral midpoint itself, a
    tuple of Fractions, for one object: no two midpoints share an entry."""
    memo = {}

    def at(obj, half):
        if half not in memo:
            memo[half] = solve(obj, half)
        return memo[half]

    return at


def _check_ic_set(s: LatticeSet) -> Verdict:
    pts = s.sorted_points()
    in_hull = _by_midpoint(in_local_hull_bruteforce)
    for x, y in _unordered_pairs(pts):
        if linf_distance(x, y) <= 1:
            continue  # both endpoints lie in N((x+y)/2), so the midpoint is covered
        if not in_hull(s, half_midpoint(x, y)):
            return _fail("hull-midpoint", (x, y))
    return _OK


def check_ic_fn(f: LatticeFn) -> Verdict:
    """f((x + y)/2)'s local extension is at most (f(x) + f(y))/2 for every
    pair at l-inf distance >= 2 (closer pairs hold trivially)."""
    pts = sorted(f.values)
    extension = _by_midpoint(local_extension_value_bruteforce)
    for x, y in _unordered_pairs(pts):
        if linf_distance(x, y) <= 1:
            continue
        ext = extension(f, half_midpoint(x, y))
        if not is_finite(ext) or 2 * ext > f.values[x] + f.values[y]:
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


def _lifted_value(obj):
    """The value of a lifted object at any point of Z^n: a set's indicator,
    0 or +infinity, or ``LatticeFn.value``, its ramp included."""
    if isinstance(obj, LatticeSet):
        return lambda p: 0 if p in obj else INF
    return obj.value


def _submodular_pair(obj) -> Optional[Tuple[Point, Point]]:
    """The first stored r and shift y = r2 + a * 1 of a stored r2 >= r with
    f(r) + f(y) < f(r v y) + f(r ^ y) on a lifted object, or None.  Shifts
    a outside the coordinate spread of r2 - r give a comparable pair, whose
    join and meet are the pair itself, so they are skipped."""
    value, ramp = _lifted_value(obj), getattr(obj, "ramp", 0)
    reps = sorted(value_map(obj).items())
    for i, (r, fr) in enumerate(reps):
        for r2, fr2 in reps[i:]:
            lo, hi = _lifted_shift_span(r, r2)
            for a in range(lo, hi + 1):
                y = vshift(r2, a)
                if y == r:
                    continue
                jn, mt = join_meet(r, y)
                rhs = value(jn) + value(mt)
                if not is_finite(rhs) or fr + fr2 + a * ramp < rhs:
                    return r, y
    return None


def _trace_gap(obj) -> Optional[Tuple[Point, Point]]:
    """The first stored p and point t = p + k * 1 of the bounding box B not
    stored, a point of (S + Z1) ∩ B outside S, or None."""
    pts = value_map(obj)
    box = bounding_box(pts)
    for p in sorted(pts):
        for step in (-1, 1):
            t = vshift(p, step)
            while box.contains(t):
                if t not in pts:
                    return p, t
                t = vshift(t, step)
    return None


def _steps(f: LatticeFn) -> List[Tuple[Point, Fraction]]:
    """(p, f(p + 1) - f(p)) for each stored p with p + 1 stored, in point
    order."""
    return [(p, f.values[vshift(p, 1)] - v) for p, v in f.sorted_items() if vshift(p, 1) in f.values]


def _ramp_pair(f: LatticeFn) -> Optional[Tuple[Point, Point]]:
    """The first stored a with a + 1 stored and the first stored p after it
    with p + 1 stored and f(p + 1) - f(p) != f(a + 1) - f(a), or None."""
    steps = _steps(f)
    return next(((steps[0][0], p) for p, r in steps if r != steps[0][1]), None)


def _lift(obj):
    """A finite object's lift along 1, as a lifted object: the
    representatives p - p_n * 1 of its points, for a function with the
    values f(p) - p_n * r, r its one ramp (0 when no x has x and x + 1
    both stored).  The caller has checked the trace and the ramp, so every
    point of one line gives its representative the same value."""
    if isinstance(obj, LatticeSet):
        return LatticeSet(obj.dim, frozenset(vshift(p, -p[-1]) for p in obj.points), lifted=True)
    ramp = next((r for _, r in _steps(obj)), 0)
    reps = {}
    for p, v in obj.values.items():
        assert reps.setdefault(vshift(p, -p[-1]), v - p[-1] * ramp) == v - p[-1] * ramp
    return LatticeFn(obj.dim, reps, lifted=True, ramp=Fraction(ramp))


def check_l(obj) -> Verdict:
    """L-convexity of a set or function, lifted or finite.  A lifted object
    is scanned for submodularity in Z^n, ramp included (``submodular``),
    the way production decided it before it read the section x_n = 0.  A
    finite object must be the trace on its bounding box B of an L-convex
    object, which is then its lift along 1: (S + Z1) ∩ B = S for its
    domain S (``trace``), one ramp for a function (``ramp``), and the lift
    scanned as above.  The ``submodular`` and ``trace`` witnesses replay
    through ``replays_l``."""
    if not obj.lifted:
        gap = _trace_gap(obj)
        if gap is not None:
            return _fail("trace", gap)
        pair = _ramp_pair(obj) if isinstance(obj, LatticeFn) else None
        if pair is not None:
            return _fail("ramp", pair)
        obj = _lift(obj)
    pair = _submodular_pair(obj)
    return _OK if pair is None else _fail("submodular", pair)


def replays_l(obj, witness: Witness) -> bool:
    """Whether a ``check_l`` witness is a genuine violation: a
    ``submodular`` pair read by ``core.join_meet`` on the object or, when
    finite, on its lift; a ``trace`` pair p, t with p stored, t - p a
    multiple of 1 and t in the bounding box but not stored; any other kind
    through ``verify_witness``."""
    if witness.kind == "trace":
        p, t = witness.points
        pts = value_map(obj)
        shift = t[0] - p[0]
        return p in pts and t not in pts and t == vshift(p, shift) and bounding_box(pts).contains(t)
    if witness.kind != "submodular":
        return verify_witness(obj, witness)
    value = _lifted_value(obj if obj.lifted else _lift(obj))
    r, y = witness.points
    rhs = sum(map(value, join_meet(r, y)), Fraction(0))
    return is_finite(value(r)) and is_finite(value(y)) and (not is_finite(rhs) or value(r) + value(y) < rhs)


def _check_multimodular_set(s: LatticeSet) -> Verdict:
    inner = _check_lnat_set(prefix_transform(s))
    if inner.member:
        return _OK
    p, q = inner.witness.points
    return _fail("multimodular-midpoint", (difference_point(p), difference_point(q)))



# ---------------------------------------------------------------------------
# the ordered-pair axioms on point tuples, sets and functions alike


def _neighbours(v: _View, x: Point):
    """The values at x + a and at x + a + b for the signed unit vectors a, b
    of ``_signed_units``, as lists: at the index of a, and at that index
    times 2n plus the index of b; None means +infinity."""
    units = [u for _, _, u in _signed_units(len(x))]
    get = v.get
    steps = [vadd(x, a) for a in units]
    return [get(p) for p in steps], [get(vadd(p, b)) for p in steps for b in units]


@lru_cache(maxsize=None)
def _negations(n: int) -> List[int]:
    """The index in ``_signed_units`` of -u for each unit vector u there."""
    index = {u: k for k, (_, _, u) in enumerate(_signed_units(n))}
    return [index[tuple(-c for c in u)] for _, _, u in _signed_units(n)]


def _toward(p: Point, q: Point) -> List[int]:
    """The indices of ``increments(p, q)`` in ``_signed_units``."""
    return [k for k, (i, d, _) in enumerate(_signed_units(len(p))) if d * (q[i] - p[i]) > 0]


def _exchange_steps(d: Point):
    """The exchange axiom's steps on a pair x, y = x + d, as (a, -a, the
    pairs (a + b, -a - b) for its partners b, record), unit vectors by
    index: a = -e_i for i in supp+(x - y), whose exchanges are
    (x - e_i, y + e_i) and (x - e_i + e_j, y + e_i - e_j) for b = e_j,
    j in supp-(x - y); the witness records i."""
    units, neg = _signed_units(len(d)), _negations(len(d))
    m = len(units)
    ups = [k for k, (j, c, _) in enumerate(units) if c > 0 and d[j] > 0]
    downs = [(i, k) for k, (i, c, _) in enumerate(units) if c < 0 and d[i] < 0]
    return [(a, neg[a], [(a * m + b, neg[a] * m + neg[b]) for b in ups], i) for i, a in sorted(downs)]


def _jump_steps(d: Point):
    """The jump axioms' steps on a pair x, y = x + d, as (s, -s, the pairs
    (s + t, -s - t) for its partners t, record), unit vectors by index:
    s in inc(x, y), whose exchanges are (x + s, y - s) and
    (x + s + t, y - s - t) for t in inc(x + s, y); the witness records s."""
    units, neg = _signed_units(len(d)), _negations(len(d))
    m = len(units)
    return [
        (s, neg[s], [(s * m + t, neg[s] * m + neg[t]) for t in _toward(units[s][2], d)], units[s][2])
        for s in _toward((0,) * len(d), d)
    ]


# a family of ordered axioms: its steps on a pair by the pair's difference,
# and whether a witness records the step as an index
_FAMILIES = {"exchange": (_exchange_steps, True), "jump": (_jump_steps, False)}


def _neither(one, two, near) -> bool:
    return not one and not two


def _no_two_step(one, two, near) -> bool:
    return not two


def _not_near(one, two, near) -> bool:
    return not near


# label -> (witness kind, family, whether a step's reading violates the axiom)
_ORDERED = {
    ClassLabel.MNAT_SET: ("exchange-mnat", "exchange", _neither),
    ClassLabel.MNAT_FN: ("exchange-mnat-fn", "exchange", _neither),
    ClassLabel.M_SET: ("exchange-m", "exchange", _no_two_step),
    ClassLabel.M_FN: ("exchange-m-fn", "exchange", _no_two_step),
    ClassLabel.JUMP_SYSTEM: ("jump-2step", "jump", _not_near),
    ClassLabel.CONST_PARITY_JUMP: ("jump-exc", "jump", _no_two_step),
    ClassLabel.SIMULT_EXCH_JUMP: ("jump-exc-nat", "jump", _neither),
    ClassLabel.JUMP_M_FN: ("jump-m-fn", "jump", _no_two_step),
    ClassLabel.JUMP_MNAT_FN: ("jump-mnat-fn", "jump", _neither),
}

ORDERED_LABELS = frozenset(_ORDERED)


def _scan_ordered(v: _View, labels) -> Dict[ClassLabel, Verdict]:
    """One scan of the ordered pairs x != y deciding every label given.
    Each step (a, -a, partners) of a family on the pair is read once: one,
    whether the one-step exchange (x + a, y - a) stays within
    f(x) + f(y); two, whether some two-step exchange (x + a + b, y - a - b)
    does; near, whether x + a or some x + a + b lies in the object.  Each
    label still undecided keeps its first violated step."""
    vals = v.vals
    pts = sorted(vals)
    around = {x: _neighbours(v, x) for x in pts}
    verdicts = {}
    groups = {}
    for label in labels:
        groups.setdefault(_ORDERED[label][1], []).append(label)
    # per family: its steps, whether a step is an index, its steps by
    # difference (built once per scan) and its undecided labels
    families = [(*_FAMILIES[family], {}, group) for family, group in groups.items()]
    undecided = len(labels)
    for x in pts:
        x1, x2 = around[x]
        fx = vals[x]
        for y in pts:
            if x == y:
                continue
            y1, y2 = around[y]
            d = tuple(map(sub, y, x))
            lhs = fx + vals[y]
            for steps, indexed, known, group in families:
                if not group:
                    continue
                read = known.get(d)
                if read is None:
                    read = known[d] = steps(d)
                for a, ma, partners, record in read:
                    p, q = x1[a], y1[ma]
                    one = p is not None and q is not None and p + q <= lhs
                    near, two = p is not None, False
                    for ab, mab in partners:
                        p = x2[ab]
                        if p is not None:
                            near = True
                            q = y2[mab]
                            if q is not None and p + q <= lhs:
                                two = True
                                break
                    if two:  # a two-step exchange holds, and x + a + b lies in the object
                        continue
                    for label in [label for label in group if _ORDERED[label][2](one, two, near)]:
                        kind = _ORDERED[label][0]
                        verdicts[label] = _fail(kind, (x, y), (record,)) if indexed else _fail(kind, (x, y, record))
                        group.remove(label)
                        undecided -= 1
                    if not group:
                        break
            if not undecided:
                return verdicts
    return {label: verdicts.get(label, _OK) for label in labels}


def ordered_verdicts(obj) -> Dict[ClassLabel, Verdict]:
    """The exchange and jump verdicts of a finite set or function under
    every such label of its kind, from one scan."""
    kind = LatticeSet if isinstance(obj, LatticeSet) else LatticeFn
    labels = [label for label in _ORDERED if (label in SET_LABELS) == (kind is LatticeSet)]
    return _scan_ordered(_View.of(obj), labels)


def check_ordered(obj, label: ClassLabel) -> Verdict:
    """The exchange or jump verdict of a finite set or function."""
    return _scan_ordered(_View.of(obj), [label])[label]


def violated_pairs(v: _View, kind: str):
    """Every violated pair of the production ordered kind ``kind`` (an
    exchange, jump exchange or 2-step kind of ``classes._AXIOMS``) on the
    view, as (a, b, step): the indices of x and y in code order, x and then
    y ascending, and the first violated step the kind's predicate names.
    One predicate call per ordered pair, with each difference's move built
    once, keyed by cy - cx."""
    pair = _AXIOMS[kind].violated
    codes, coded = v.coded
    items = sorted(coded.items())
    moves = {}
    for a, (cx, fx) in enumerate(items):
        for b, (cy, fy) in enumerate(items):
            if cy - cx not in moves:
                moves[cy - cx] = pair.move(codes, codes.difference(cy - cx))
            if step := pair.on_codes(coded.get, fx + fy, cx, cy, moves[cy - cx]):
                yield a, b, step


def pair_scan(v: _View, kind: str) -> Verdict:
    """The per-pair scan of a production ordered kind: the first of
    ``violated_pairs``, with the witness ``classes._scan_pairs`` builds
    from it, the points and then the step's record."""
    axiom = _AXIOMS[kind]
    codes, coded = v.coded
    order = sorted(coded)
    for a, b, step in violated_pairs(v, kind):
        found = (codes.point(order[a]), codes.point(order[b]), axiom.violated.record(step, v.dim))
        return _fail(kind, found[: axiom.points], found[axiom.points :])
    return _OK


def _midpoint_pair(vals, keep=lambda x, y: True) -> Optional[Tuple[Point, Point]]:
    """The first pair x < y of stored points, among those ``keep`` takes,
    whose rounded midpoints are not both stored with values summing to at
    most f(x) + f(y); None if none."""
    for x, y in _unordered_pairs(sorted(vals)):
        if not keep(x, y):
            continue
        up, down = midpoint_round(x, y)
        if up not in vals or down not in vals or vals[up] + vals[down] > vals[x] + vals[y]:
            return x, y
    return None


# midpoint label -> (witness kind, map of the stored points, map of a witness point back)
_MIDPOINT = {
    ClassLabel.LNAT_SET: ("midpoint", lambda p: p, lambda p: p),
    ClassLabel.LNAT_FN: ("midpoint", lambda p: p, lambda p: p),
    ClassLabel.L_SET: ("l-section-midpoint", lambda p: p[:-1], lambda p: p + (0,)),
    ClassLabel.L_FN: ("l-section-midpoint", lambda p: p[:-1], lambda p: p + (0,)),
    ClassLabel.MULTIMODULAR_SET: ("multimodular-midpoint", prefix_point, difference_point),
    ClassLabel.MULTIMODULAR_FN: ("multimodular-midpoint", prefix_point, difference_point),
}

FAMILY_LABELS = frozenset(_MIDPOINT) | {
    ClassLabel.MNAT_SET, ClassLabel.MNAT_FN, ClassLabel.M_SET, ClassLabel.M_FN
}


def check_family(obj, label: ClassLabel) -> Verdict:
    """The verdict of an L♮, L, M♮, M or multimodular label on a finite
    object (L: a lifted one) by its pair scan."""
    if label in ORDERED_LABELS:
        return check_ordered(obj, label)
    kind, move, back = _MIDPOINT[label]
    pair = _midpoint_pair({move(p): v for p, v in value_map(obj).items()})
    return _OK if pair is None else _fail(kind, map(back, pair))


def check_dmc(obj, label: ClassLabel) -> Verdict:
    """The verdict of a global or local discrete midpoint convexity label on
    a finite object: the midpoint inequality on the pairs at l-inf distance
    at least 2 (global), or, once the domain passes that, exactly 2 (local),
    on Fraction values and point tuples."""
    vals = value_map(obj)
    if label == ClassLabel.LOCAL_DMC_FN:
        pair = _midpoint_pair(dict.fromkeys(vals, 0), lambda x, y: linf_distance(x, y) >= 2)
        if pair is not None:
            return _fail("domain-not-dmc", pair)
        pair = _midpoint_pair(vals, lambda x, y: linf_distance(x, y) == 2)
        return _OK if pair is None else _fail("midpoint-two", pair)
    pair = _midpoint_pair(vals, lambda x, y: linf_distance(x, y) >= 2)
    return _OK if pair is None else _fail("midpoint-far", pair)


DMC_LABELS = frozenset({ClassLabel.GLOBAL_DMC_SET, ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN})


SET_ORACLES = {
    ClassLabel.INTEGER_BOX: _check_integer_box,
    ClassLabel.IC_SET: _check_ic_set,
    ClassLabel.LNAT_SET: _check_lnat_set,
    ClassLabel.L_SET: check_l,
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


def split_fn(f, spec: SplitSpec, w: Window):
    """g(y) = f(block sums of y) at every point y of the window, read from
    the definition; a set's image is the window points whose block sums lie
    in it."""
    (vals,) = _value_maps("splitting", f)
    if spec.input_dim != f.dim:
        raise ValueError("split spec dimension mismatch")
    if w.dim != spec.output_dim:
        raise ValueError("window dimension must equal the split output dimension")
    spans = spec.offsets()
    out = {}
    for y in w.points():
        x = tuple(sum(y[a:b]) for a, b in spans)
        if x in vals:
            out[y] = vals[x]
    return rebuild(f, spec.output_dim, out, empty="split produced an empty domain; widen the window")


def aggregate_fn(f, spec: PartitionSpec):
    """g(y) = the least value of f over the fiber of y, each fiber collected
    whole before its minimum is taken; a set's image under group sums."""
    (vals,) = _value_maps("aggregation", f)
    if spec.input_dim != f.dim:
        raise ValueError("partition dimension mismatch")
    fibers: Dict[Point, list] = {}
    for x, v in vals.items():
        fibers.setdefault(tuple(sum(x[i] for i in g) for g in spec.groups), []).append(v)
    return rebuild(f, spec.output_dim, {y: min(vs) for y, vs in fibers.items()})


split_set = split_fn
aggregate_set = aggregate_fn


def minkowski_sum_set(s1: LatticeSet, s2: LatticeSet) -> LatticeSet:
    _require_finite(s1, "Minkowski sum")
    _require_finite(s2, "Minkowski sum")
    if s1.dim != s2.dim:
        raise ValueError("dimension mismatch")
    return LatticeSet(s1.dim, frozenset(vadd(x, y) for x in s1.points for y in s2.points))


# ---------------------------------------------------------------------------
# network induction and convolution on Fractions and point tuples


def enumerate_flows(net: Network, entrance_range: Dict[str, Tuple[int, int]]):
    """(flow, boundary on U, boundary on W) for every capacity-feasible
    conservative flow whose entrance supplies stay within entrance_range,
    by recursion over the arcs in order, each taking its values ascending."""
    arcs = net.arcs
    m = len(arcs)
    vs = net.vertices
    internal = set(net.vertices) - set(net.entrance) - set(net.exit)
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

    def rec(k: int):
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


def induce_fn(f, net: Network):
    """Network induction summing each flow's Fraction costs, with the least
    total per exit vector; a set's image keeps only the domain."""
    if f.lifted:
        raise LiftedInputError("network induction needs a finite input")
    if f.dim != len(net.entrance):
        raise ValueError(f"input dimension {f.dim} != entrance size {len(net.entrance)}")
    vals = value_map(f)
    box = f.bounding_box()
    entrance_range = {v: (box.lo[i], box.hi[i]) for i, v in enumerate(net.entrance)}
    costed = []
    if keeps_values(f):
        costed = [(k, dict(a.cost.table)) for k, a in enumerate(net.arcs) if a.cost.table is not None]
    best = {}
    for flow, on_u, on_w in enumerate_flows(net, entrance_range):
        total = vals.get(on_u)
        if total is None:
            continue
        for k, table in costed:
            total += table[flow[k]]
        y = tuple(-c for c in on_w)
        if y not in best or total < best[y]:
            best[y] = total
    return rebuild(f, len(net.exit), best, empty="induced function has an empty domain")


def convolution_fn(f1, f2):
    """Infimal convolution over every pair of stored points, summing point
    tuples and Fraction values; for sets, the Minkowski sum."""
    v1, v2 = _value_maps("convolution", f1, f2)
    if f1.dim != f2.dim:
        raise ValueError("dimension mismatch")
    items2 = sorted(v2.items())
    out = _fiber_min((vadd(y, z), v + w) for y, v in sorted(v1.items()) for z, w in items2)
    return rebuild(f1, f1.dim, out)
