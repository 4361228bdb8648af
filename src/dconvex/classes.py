"""Membership recognizers for the discrete convexity classes.

Every recognizer is exact.  Most scan the defining axiom over the stored
points, or pairs of them, in lexicographic order and stop at the first
violation, so verdicts are deterministic.  A negative verdict carries a
witness that replays as a genuine violation through :func:`verify_witness`.

Each label's recognizer is one entry of ``_RECOGNIZERS``.  A route-then-scan
label is one ``_Scan`` row: the kind its pair scan reads and at most one
proof route, tried first.  A route answers yes or no: True proves
membership, and otherwise the scan runs from its first row.  No route turns
an object down, so a non-member gets the scan's lexicographically first
witness by construction.  The table, with the rows that take no route and
the labels that keep their own recognizers:

    label                  scans                  route               size rule
    integer-box            box-gap, own walk      -                   -
    separable-convex       axis-convexity, own    -                   -
    integrally-convex-set  hull-midpoint          L♮ or M♮, ball      flat, or |S| >= 2 (5^n - 1)
    integrally-convex-fn   hull-midpoint          L♮ or M♮, ball      flat, or |S| >= 2 (5^n - 1)
    lnat-set               midpoint               L♮, ball            flat, or |S| >= 2 (5^n - 1)
    lnat-fn                midpoint               L♮, ball            flat, or |S| >= 2 (5^n - 1)
    l-set                  as lnat-set            lifted: lnat-fn on the section x_n = 0
    l-fn                   as lnat-fn, then ramp  lifted: lnat-fn on the section x_n = 0
    mnat-set               exchange-mnat          M♮                  flat
    mnat-fn                exchange-mnat-fn       M♮                  flat
    m-set                  exchange-m             M                   flat
    m-fn                   exchange-m-fn          M                   flat
    multimodular-set       multimodular-midpoint  lnat-fn on the prefix sums
    multimodular-fn        multimodular-midpoint  lnat-fn on the prefix sums
    global-dmc-set         midpoint-far           L♮                  flat
    global-dmc-fn          midpoint-far           L♮                  flat
    local-dmc-fn           midpoint-two           -                   -
    jump-system            jump-2step             box counts          |S| >= 12, C(2n, n) |S|
    const-parity-jump      jump-exc               box counts, parity  |S| >= 12, C(2n, n) |S|
    simult-exch-jump       jump-exc-nat           box counts, parity  |S| >= 12, C(2n, n) |S|
    jump-m-fn              jump-m-fn              -                   -
    jump-mnat-fn           jump-mnat-fn           -                   -

The routes (``_Described``, ``_box_counts``): L♮, M♮ and M are domain
descriptions read off the stored points (Murota, Discrete Convex Analysis,
2003, ch. 5; Frank and Tardos 1988), M being M♮ on the projection of a
hyperplane x(N) = c; the M♮ test is taken from 2^n points on.  A set, or a
function whose values are all equal (flat), is decided by its domain: L♮
and M♮ sets are integrally convex (ch. 4 and 5), and an L♮ set is globally
discrete midpoint convex (Moriguchi, Murota, Tamura and Tardella 2020).
Any other function of the L♮ and IC rows is read on the pairs x, x + d
with d in the l-inf ball of radius 2, 5^n - 1 offsets besides its centre,
from |S| >= 2 |ball| on (Murota 2003, ch. 7; for the hull axiom, Favati
and Tardella 1990); any other function of the M♮, M and global DMC rows
goes straight to its pair scan, which reads the M♮ and M exchange by rows
(``_Rows``).  ``local-dmc-fn`` first decides its domain as
``global-dmc-set`` (the ``domain-not-dmc`` kind), then scans
``midpoint-two``, which from |S| >= 2 (5^n - 3^n) reads its pairs on the
l-inf sphere of radius 2 (``_Halves.scan``).  The box counts prove the
2-step axiom (Bouchet and Cunningham 1995), and the other set jump labels
on a set of one coordinate-sum parity (Lovász 1997; Murota 2006).

Each axiom is written once, as a predicate in the table ``_AXIOMS`` keyed by
witness kind.  A predicate reads the object through a value getter in which
a set is its indicator function (0 on its points, +infinity elsewhere), so a
set class and its function class share one predicate and one scanner and
differ only in the witness kind they report.  :func:`verify_witness` looks
the kind up in the same table, checks that the witness points lie in the
object, and calls the same predicate.  A kind read on a derived view (the
prefix sums, the section x_n = 0, the domain) has one entry in ``_MAPPED``,
which the check and the replay both read.

Values are exact integers inside a check.  The view scales every stored
value once, by the least common multiple of their denominators, to plain
``int``s (``core.scaled``, which the operations share).  This changes no
verdict: every axiom compares weighted sums of values with equal total
weight on both sides (the hull axiom compares twice the local extension,
itself such a sum, with a sum of two values), so one positive factor
cancels, and witnesses carry points, not values.  The
points on the two sides have equal sums too, so the linear x -> ramp * x_n
cancels, and a lifted function is read without its ramp.  The hull axiom
reads ``hull.twice_extension`` on the int total x + y through the view's
getter, memoized by x + y, so once per distinct midpoint in a check that
its rounded midpoints leave open.

Every pair axiom reads int codes, in one of two shapes.  The exchange
(M♮, M) and jump axioms are a ``_Pair``: ordered, a move of the pair's
difference, a predicate that names the first violated step, the record a
witness keeps of it, and a row reading (``_Rows``).  The exchange and jump
exchange axioms share one predicate: on an ordered pair x, y the jump
exchange reads x + s + t and y - s - t for unit steps s, t from x toward y,
and the M♮/M exchange x - e_i + e_j, y + e_i - e_j is its case s = -e_i,
t = +e_j (Murota, "M-convex functions on jump systems", 2006).  The
midpoint family is a ``_Halves``, read by arithmetic on the codes with no
move: the midpoint axioms read the rounded midpoints x + ceil(d/2) and
x + floor(d/2) of x and y = x + d (Favati and Tardella 1990; Moriguchi,
Murota, Tamura and Tardella 2020), and the hull axiom the local extension
at (x + y)/2, after those rounded midpoints: they are the ends of a main
diagonal of the unit cube around (x + y)/2, so twice the extension is at
most the sum of their values, which decides the pair when it is at most
f(x) + f(y) or when x + y is even, and only the other pairs solve the
extension.  All those points lie in the pair's box [x ^ y, x v y].  A view
codes its stored points once, by mixed radix (``_View.coded``, the codes of
``core.Codes``), over the difference box [lo, lo + 2 (hi - lo)] of their
bounding box [lo, hi] grown by ``_REACH`` = 2 on every side, so every point
read, even a point x + d of a local route, has its own code.  Codes sort
in lexicographic point order (scans and witnesses are as on point tuples),
cy - cx identifies y - x (balanced mixed-radix digits are unique) and
cx + cy identifies x + y.  A ``_Pair`` move depends on the difference
y - x alone: the steps (i, +-stride_i, |d_i|) tried and their partners.
A ``_Halves`` reads the midpoints at cx + o and cy - o, where the offset o
of ceil(d/2) is (cy - cx + odd[px ^ py]) >> 1 for the parity masks px, py
of x and y, and its l-inf filters are lookups in the code offsets N of
{-1, 0, 1}^n; odd and N are built once per stride tuple (``_ring``).

One scanner, ``_scan_pairs``, reads every pair axiom: unordered pairs x < y
for a ``_Halves``, all ordered pairs for a ``_Pair``, in code order.  A
``_Pair`` reads one row x at a time from ``_ROW_SIZE`` points on: an
exchange (x + e, y - e) fits exactly when f(y - e) - f(y) <= f(x) - f(x + e),
so the ys it fits are a prefix of the ys sorted by f(y - e) - f(y), kept as
int bitsets over the ys in code order, and a 2-step (x + s, or x + s + t)
passes every y once its point is stored; with bitsets of the ys that each
step from x points toward, the violated ys of a row take a few int
operations per pair of steps, the lowest of them is the scan's y, and one
predicate call on that pair gives the step the witness records; the ys are
read in blocks whose bitsets fit in ``_ROW_BYTES``.  Below that size rule a
``_Pair`` scan makes one predicate call per pair, which returns the first
violated step, and builds each difference's move once, in a table keyed by
cy - cx (``_moves``).  A ``_Halves`` scan keeps no table: one call of its
reading per point x runs over the points after x, each pair read with a few
int operations; the hull memo is keyed by cx + cy and decodes x + y on a
miss.  ``_Halves.local`` reads the same coding and reading on the pairs x,
x + d with d in a ball, x and then x + d in code order, and returns the
first violated pair: the ball routes' test, and the ``midpoint-two`` scan
on the sphere, whose pairs it reads in the scan's order; when a route
fails, the pair scan reuses the coding.  A replay codes the witness pair
over its own difference box grown by 1 and calls the same reading, reading
each decoded point through the object.  Values are looked up by code in a
dict.

Conventions for infinite values inside axioms: an inequality with +infinity
on the left-hand side holds; +infinity on the right-hand side is only
satisfied by +infinity on the left.  Internally the recognizers use ``None``
for +infinity on top of the scaled ``int`` values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, combinations, product, repeat
from math import comb, inf, prod
from operator import add, and_, getitem, lshift, or_, sub
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Codes,
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Point,
    Window,
    are_points,
    as_rational,
    bounding_box,
    difference_point,
    prefix_point,
    scaled,
    vadd,
    value_map,
    vshift,
)
# in_local_hull and local_extension_value are unused here but stay importable from this module
from .hull import in_local_hull, local_extension_value  # noqa: F401
from .hull import twice_extension


class ClassLabel(str, Enum):
    INTEGER_BOX = "integer-box"
    SEPARABLE_CONVEX = "separable-convex"
    IC_SET = "integrally-convex-set"
    IC_FN = "integrally-convex-fn"
    LNAT_SET = "lnat-set"
    LNAT_FN = "lnat-fn"
    L_SET = "l-set"
    L_FN = "l-fn"
    MNAT_SET = "mnat-set"
    MNAT_FN = "mnat-fn"
    M_SET = "m-set"
    M_FN = "m-fn"
    MULTIMODULAR_SET = "multimodular-set"
    MULTIMODULAR_FN = "multimodular-fn"
    GLOBAL_DMC_SET = "global-dmc-set"
    GLOBAL_DMC_FN = "global-dmc-fn"
    LOCAL_DMC_FN = "local-dmc-fn"
    JUMP_SYSTEM = "jump-system"
    CONST_PARITY_JUMP = "const-parity-jump"
    SIMULT_EXCH_JUMP = "simult-exch-jump"
    JUMP_M_FN = "jump-m-fn"
    JUMP_MNAT_FN = "jump-mnat-fn"


SET_LABELS = frozenset(
    {
        ClassLabel.INTEGER_BOX,
        ClassLabel.IC_SET,
        ClassLabel.LNAT_SET,
        ClassLabel.L_SET,
        ClassLabel.MNAT_SET,
        ClassLabel.M_SET,
        ClassLabel.MULTIMODULAR_SET,
        ClassLabel.GLOBAL_DMC_SET,
        ClassLabel.JUMP_SYSTEM,
        ClassLabel.CONST_PARITY_JUMP,
        ClassLabel.SIMULT_EXCH_JUMP,
    }
)

FN_LABELS = frozenset(ClassLabel) - SET_LABELS


class LabelKindError(ValueError):
    """Set label applied to a function or vice versa."""


@dataclass(frozen=True)
class Witness:
    """A concrete axiom violation.

    ``points`` carries the points (and, for jump axioms, the increment
    vector) involved; ``indices`` the coordinate indices where relevant.
    """

    kind: str
    points: Tuple[Point, ...]
    indices: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Verdict:
    member: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.member


_OK = Verdict(True, None)


def _fail(kind: str, points, indices=()) -> Verdict:
    return Verdict(False, Witness(kind, tuple(points), tuple(indices)))


def _bump(p: Point, i: int, d: int) -> Point:
    """p + d * e_i."""
    q = list(p)
    q[i] += d
    return tuple(q)


# the l-inf radius of the local balls, so the reach of their offsets
_REACH = 2


def _doubled(box: Window, pad: int = 0) -> Window:
    """The difference box [lo, lo + 2 (hi - lo)] of a box [lo, hi], grown
    by ``pad`` on every side."""
    return Window(vshift(box.lo, -pad), tuple(2 * b - a + pad for a, b in zip(box.lo, box.hi)))


class _Codes(Codes):
    """Point codes over a box (``core.Codes``) with the offsets and the
    step lists that scans and replays read, by difference."""

    def __init__(self, box: Window):
        super().__init__(box.lo, box.hi)
        self.axes = tuple(range(box.dim))

    def offset(self, d) -> int:
        """code(x + d) - code(x)."""
        return sum(c * s for c, s in zip(d, self.strides))

    def difference(self, delta: int) -> Point:
        """The d = y - x of any two points x, y of [lo, hi] with
        code(y) - code(x) = delta, for codes over its difference box grown
        by p (``_doubled``): there coordinate i has extent 2 (w_i + p) + 1,
        with w_i = hi_i - lo_i, and d_i lies in [-w_i, w_i], so delta has
        one such balanced mixed-radix expansion; every stride is odd."""
        d = []
        for s in self.strides:
            c = (delta + s // 2) // s
            d.append(c)
            delta -= c * s
        return tuple(d)

    def steps(self, d: Point) -> Tuple[List[Tuple[int, int, int]], List[Tuple[int, int, int]]]:
        """The unit steps +-e_i from x toward y = x + d as (i, +-stride_i,
        |d_i|): the down steps -e_i by ascending i and the up steps e_i by
        descending i.  Down steps then up steps is lexicographic order."""
        downs, ups = [], []
        for i, c, s in zip(self.axes, d, self.strides):
            if c < 0:
                downs.append((i, -s, -c))
            elif c > 0:
                ups.append((i, s, c))
        ups.reverse()
        return downs, ups


class _Memo(dict):
    """``make(key)`` by key, made on a miss and kept while the memo holds
    fewer than ``bound`` entries; past it, made again on every miss."""

    def __init__(self, make: Callable, bound: float = inf):
        super().__init__()
        self.make, self.bound = make, bound

    def __missing__(self, key):
        value = self.make(key)
        if len(self) < self.bound:
            self[key] = value
        return value


def _moves(axiom, codes: _Codes) -> _Memo:
    """A per-pair scan's move table: ``axiom.move`` of each difference
    y - x by its code difference cy - cx, over codes of a difference box.
    Only a scan below the row reading's size rule (``_ROW_SIZE``) builds
    one, so it holds fewer than ``_ROW_SIZE`` ** 2 moves."""
    return _Memo(lambda delta: axiom.move(codes, codes.difference(delta)))


class _View:
    """A set or function as the axioms read it.

    ``vals`` maps the stored points (representatives, when lifted) to their
    scaled int values, and ``get(p)`` is the value at any point, None
    meaning +infinity; a lifted object is read constant along 1, without its
    ramp.  A set reads as its indicator function: 0 on its points.  ``get``
    may be given instead, for a view read only through it.
    """

    def __init__(self, dim: int, vals: Dict[Point, int], lifted: bool = False, get=None):
        self.dim, self.vals, self.lifted = dim, vals, lifted
        self.get = get or (self._lifted_get if lifted else vals.get)

    @classmethod
    def of(cls, obj) -> "_View":
        _, (vals,) = scaled(value_map(obj))
        return cls(obj.dim, vals, obj.lifted)

    def _lifted_get(self, p: Point):
        return self.vals.get(vshift(p, -p[-1]))

    @cached_property
    def box(self) -> Window:
        """Bounding box of the stored points."""
        return bounding_box(self.vals)

    @cached_property
    def coded(self) -> Tuple[_Codes, Dict[int, int]]:
        """The view's one coding, which the pair scan and the local route
        read: the codes over the difference box of the bounding box grown
        by ``_REACH``, and the stored values by code."""
        codes = _Codes(_doubled(self.box, _REACH))
        return codes, dict(zip(codes.codes(self.vals), self.vals.values()))

    def domain(self) -> "_View":
        """The indicator of the domain."""
        return _View(self.dim, dict.fromkeys(self.vals, 0), self.lifted)

    def section(self, c: int = 0) -> "_View":
        """The slice x_n = c in its first n - 1 coordinates.  For a lifted
        object and c = 0 it holds all the stored representatives, which is
        their lift along 1."""
        return _View(self.dim - 1, {p[:-1]: v for p, v in self.vals.items() if p[-1] == c})

    def prefixed(self) -> "_View":
        """The pull-back to prefix sums, where multimodularity is midpoint
        convexity (``core.prefix_transform``).  A lifted object has no
        finite pull-back; it is read through its getter alone."""
        if self.lifted:
            return _View(self.dim, {}, get=lambda z: self.get(difference_point(z)))
        return _View(self.dim, {prefix_point(p): v for p, v in self.vals.items()})


# ---------------------------------------------------------------------------
# the axioms
#
# violated(v, lhs, *witness.points, *witness.indices) -> bool, where lhs is
# the sum of the values at the witness points that must lie in the object
# (the first ``members`` of them).  Scanners pass the lhs they already hold;
# replay checks those points and computes it.


# The pair axioms read x, y and the points between them by code (``_Codes``):
# ``get`` maps a code to a value and cx and cy are the codes of x and y.  A
# ``_Pair`` predicate, of an ordered axiom, returns its first violated step,
# or None.


def _pair_codes(v: _View, x: Point, y: Point):
    """Replay's reading of a pair: the codes over the difference box of the
    pair's own box grown by 1, which holds every point an axiom reads on it
    and gives every coordinate an extent of at least 3, so that the offsets
    of {-1, 0, 1}^n are differences too (``_ring``); a getter reading each
    code's point through the view, cx, cy and y - x."""
    codes = _Codes(_doubled(bounding_box((x, y)), 1))
    d = tuple(b - a for a, b in zip(x, y))
    return codes, (lambda c: v.get(codes.point(c))), codes.code(x), codes.code(y), d


def _jump_exchange(get, lhs, cx: int, cy: int, move, nat: bool = True):
    """The first tried step s of the move (tried, partners) for which every
    two-step exchange (x + s + t, y - s - t) with t a partner, and the
    one-step (x + s, y - s) when ``nat``, exceeds lhs; None if there is
    none.  A partner t = s is skipped when s closes its coordinate's gap,
    since x + s + t then leaves the box."""
    tried, partners = move
    for step in tried:
        i, d, gap = step
        xs, ys = cx + d, cy - d
        if nat and (a := get(xs)) is not None and (b := get(ys)) is not None and a + b <= lhs:
            continue
        for k, e, _ in partners:
            if (k != i or gap > 1) and (a := get(xs + e)) is not None:
                if (b := get(ys - e)) is not None and a + b <= lhs:
                    break
        else:
            return step
    return None


def _jump_two_step(get, lhs, cx: int, cy: int, move):
    """The first tried step s of the move (tried, partners) for which
    neither x + s nor any x + s + t (t a partner) lies in the set; None if
    there is none."""
    tried, partners = move
    for step in tried:
        i, d, gap = step
        xs = cx + d
        if get(xs) is not None:
            continue
        for k, e, _ in partners:
            if (k != i or gap > 1) and get(xs + e) is not None:
                break
        else:
            return step
    return None


def _extensions(v: _View, codes: _Codes) -> _Memo:
    """Twice the local extension at (x + y)/2 by cx + cy, which identifies
    x + y over a difference box (its digits, those of x + y - 2 lo, lie in
    [0, 2 w_i]): solved on a miss by ``hull.twice_extension`` on x + y
    decoded, through the view's getter (a lifted view is read along 1), so
    once per distinct x + y in one scan or replay."""
    return _Memo(lambda key: twice_extension(v.get, vadd(codes.point(key), codes.lo)))


def _all_steps(codes: _Codes, d: Point):
    """The move of a jump kind: every step, tried and as a partner."""
    downs, ups = codes.steps(d)
    steps = downs + ups
    return steps, steps


def _index(step, n: int) -> int:
    """An exchange kind's record of a step -e_i: i.  An exchange kind (M♮,
    M), the jump exchange with s = -e_i and t = +e_j, tries the down steps
    with the up steps as partners (``_Codes.steps``)."""
    return step[0]


def _unit(step, n: int) -> Point:
    """A jump kind's record of a step: the signed unit vector in Z^n.  A
    jump kind tries and pairs every step (``_all_steps``)."""
    i, d, _ = step
    return _bump((0,) * n, i, 1 if d > 0 else -1)


# The jump exchange, and so the M♮/M exchange, read a row at a time.  For an
# offset e (a unit step s, or s + t) the exchange (x + e, y - e) fits
# lhs = f(x) + f(y) exactly when beta_e(y) = f(y - e) - f(y) is at most
# alpha_e(x) = f(x) - f(x + e); no y with y - e absent passes, and no y at
# all when x + e is absent.  So the ys that pass against x are a prefix of
# the ys sorted by beta_e: one ``bisect_right`` in that order and one read
# of a prefix mask, an int with bit k for the k-th y in code order.  "s
# points from x toward y" is a mask of the same kind, read off the ys sorted
# by coordinate i, and so is "y_i lies beyond x_i + s_i", the gap of at
# least 2 at which s pairs with itself.  Row x's violators are then
#
#     OR over tried s of  toward_s & ~(one_s | OR over t of toward_t(x + s) & two_{s + t}),
#
# one_s only for the kinds with the one-step exchange (``nat``), and the
# lowest set bit is the pair scan's y (the 2-step axiom's tables pass every
# y: its steps need only x + s or x + s + t stored); one predicate call on
# that pair gives the step the witness records, so the witness is the pair
# scan's.  The ys are read in blocks of B consecutive points in code order,
# each block with masks of its own ys alone (``_Rows.block``), and a block's
# rows run up to the best row an earlier block found: the lowest row wins,
# and in it the lowest y.  The reading runs from ``_ROW_SIZE`` points on: the
# per-pair scan of a small object, or of a near miss that fails in its first
# rows, reads fewer points than the tables hold.  On members and near misses
# of the eight exchange kinds (the even points, the cut x(N) <= c and the
# slice x(N) = c of boxes in Z^2 to Z^4, with separable convex values) the
# reading broke even at about 9 points on members and about 32 on near
# misses, and on both together at about 14.
_ROW_SIZE = 16
_ROW_BYTES = 1 << 24
_ROW_POINT_BYTES = 96


def _prefixes(keys):
    """The keys other than None sorted, and the prefix masks of the ys in
    that order: bit k for the y of the k-th key."""
    order = sorted([k for k, b in enumerate(keys) if b is not None], key=keys.__getitem__)
    return list(map(keys.__getitem__, order)), list(accumulate(map(lshift, repeat(1), order), or_, initial=0))


def _beyond(col, width: int) -> _Memo:
    """An axis's row masks over a block's coordinates ``col``, by the
    coordinate c of x: the ys with y_i < c, y_i > c, y_i < c - 1 and
    y_i > c + 1.  Two of them are prefix masks; the two others are kept for
    at most ``width`` values, so the axis holds up to three tables' masks."""
    ranks, below = _prefixes(col)
    return _Memo(lambda c: (below[bisect_left(ranks, c)], below[-1] ^ below[bisect_right(ranks, c)],
                            below[bisect_left(ranks, c - 1)], below[-1] ^ below[bisect_right(ranks, c + 1)]), width)


class _Rows(NamedTuple):
    """The row reading of an ordered kind: with ``jump``, every unit step s
    toward y is tried, with every step t toward y from x + s as a partner;
    without it, the M♮/M exchange, the down steps s = -e_i are tried with
    the up steps t = +e_j as partners.  ``nat`` admits the one-step
    exchange (x + s, y - s); ``two_step`` reads the 2-step axiom, whose
    tables pass every y, so none is built."""

    jump: bool
    nat: bool
    two_step: bool = False

    def tables(self, n: int) -> int:
        """How many tables of B + 1 masks a block of B ys may build in Z^n:
        one per offset read, the 2n^2 sums s + t (t != -s) of the jump
        exchange or the n (n - 1) of the M♮/M exchange, and with ``nat`` its
        2n or n unit steps (none with ``two_step``); three per axis."""
        twos, ones = (2 * n * n, 2 * n) if self.jump else (n * (n - 1), n)
        return (twos + ones * self.nat) * (not self.two_step) + 3 * n

    def block(self, n: int, size: int) -> int:
        """The block width B for size points in Z^n: size, halved until the
        masks of the tables fit in ``_ROW_BYTES``, each counted at B / 8
        bytes for its bits and ``_ROW_POINT_BYTES`` more for its int header,
        its list slot and its share of the block's lists."""
        width = size
        while width > 1 and self.tables(n) * (width + 1) * (width // 8 + _ROW_POINT_BYTES) > _ROW_BYTES:
            width //= 2
        return width

    def plan(self, strides: Tuple[int, ...]):
        """Per tried step s: the index of its toward mask, its code offset
        and, per partner t, the index of the mask that admits t and the code
        offset of s + t.  A row's masks hold at 4i, 4i + 1, 4i + 2 and
        4i + 3 the ys with y_i < x_i, y_i > x_i, y_i < x_i - 1 and
        y_i > x_i + 1, so the partner t = s is admitted by the last two."""
        axes = range(len(strides))
        partners = [(k, t) for k in axes for t in ((-1, 1) if self.jump else (1,))]
        plan = []
        for i in axes:
            for s in (-1, 1) if self.jump else (-1,):
                up, step = s > 0, s * strides[i]
                pairs = [
                    (4 * i + 2 + up if k == i else 4 * k + (t > 0), step + t * strides[k])
                    for k, t in partners
                    if k != i or t == s
                ]
                plan.append((4 * i + up, step, pairs))
        return plan

    def first(self, v: _View, items) -> Optional[Tuple[int, int]]:
        """The first violated pair of the ordered scan, as the indices of x
        and y in code order (``items``), or None: the ys a block at a time
        in code order (``block``), and a block's rows up to the best row
        found so far."""
        get, nat = v.coded[1].get, self.nat
        points, size = sorted(v.vals), len(items)
        width = self.block(v.dim, size)
        plan = self.plan(v.coded[0].strides)
        best, end = None, size
        for low in range(0, size, width):
            block = items[low : low + width]
            if self.two_step:
                tables = _Memo(lambda e, every=((), [(1 << len(block)) - 1]): every)
            else:
                tables = _Memo(lambda e: _prefixes([None if (g := get(c - e)) is None else g - f for c, f in block]))
            near = [_beyond(col, width) for col in zip(*points[low : low + width])]
            for a in range(end):
                cx, fx = items[a]
                masks = sum(map(getitem, near, points[a]), ())
                violators = 0
                for toward, step, pairs in plan:
                    if not (left := masks[toward]):
                        continue
                    if nat and (g := get(cx + step)) is not None:
                        betas, prefix = tables[step]
                        left &= ~prefix[bisect_right(betas, fx - g)]
                    for admit, offset in pairs:
                        if (m := masks[admit] & left) and (g := get(cx + offset)) is not None:
                            betas, prefix = tables[offset]
                            if not (left := left ^ (m & prefix[bisect_right(betas, fx - g)])):
                                break
                    violators |= left
                if violators:
                    best, end = (a, low + (violators & -violators).bit_length() - 1), a
                    break
        return best


class _Pair(NamedTuple):
    """An ordered pair axiom read through a move table: ``move(codes, d)``
    gives the steps tried on a pair x, y = x + d and their partners,
    ``on_codes`` returns the first violated step, ``record(step, n)`` is
    what the witness keeps of that step (``_index``, ``_unit``), and
    ``rows`` is its row reading.  Called as replay calls every axiom, it
    reads the pair over its own difference box and tries only the steps
    with the witness's record."""

    move: Callable
    on_codes: Callable
    record: Callable
    rows: _Rows

    def __call__(self, v: _View, lhs, x: Point, y: Point, *record) -> bool:
        codes, get, cx, cy, d = _pair_codes(v, x, y)
        tried, partners = self.move(codes, d)
        tried = [s for s in tried if (self.record(s, len(x)),) == record]
        return bool(self.on_codes(get, lhs, cx, cy, (tried, partners)))

    def scan(self, v: _View):
        """The first violated pair of the scan (``_scan_pairs``) as (cx, cy,
        the step's record), or None.  From ``_ROW_SIZE`` points on it finds
        the pair a row at a time (``_Rows``) and builds the move of that
        pair alone, for the one predicate call that names its step; below
        it, it calls the predicate on every pair in turn, with each
        difference's move built once, in a table keyed by cy - cx
        (``_moves``)."""
        codes, coded = v.coded
        items = sorted(coded.items())
        violated, record, get = self.on_codes, self.record, coded.get
        if len(items) >= _ROW_SIZE:
            hit = self.rows.first(v, items)
            if hit is None:
                return None
            (cx, fx), (cy, fy) = items[hit[0]], items[hit[1]]
            step = violated(get, fx + fy, cx, cy, self.move(codes, codes.difference(cy - cx)))
            return cx, cy, (record(step, v.dim),)
        moves = _moves(self, codes)
        for cx, fx in items:
            for cy, fy in items:
                if hit := violated(get, fx + fy, cx, cy, moves[cy - cx]):
                    return cx, cy, (record(hit, v.dim),)
        return None


# The midpoint family reads a pair by arithmetic on its codes, with no move:
# for d = y - x, whose coordinates are odd exactly on the bit mask m = px ^ py
# of the coordinates where x and y differ in parity, ceil(d/2) has the offset
# o = (cy - cx + odd[m]) >> 1, with odd[m] the sum of the strides in m (every
# d_i = 2 ceil(d_i/2) - (d_i mod 2)), so the rounded midpoints
# x + ceil(d/2) and x + floor(d/2) = y - ceil(d/2) have the codes cx + o and
# cy - o.  The l-inf filters are lookups in the offsets N of {-1, 0, 1}^n,
# which identify their differences over a difference box whose extents are
# all at least 3: l-inf(d) <= 1 exactly when cy - cx is in N, and
# l-inf(d) <= 2 exactly when the offsets o and cy - cx - o of ceil(d/2) and
# floor(d/2) both are.

# the largest dimension whose odd and N are listed: 3^8 = 6561 offsets
_LISTED_DIM = 8


def _parities(points) -> List[int]:
    """The bit mask of each point's odd coordinates, bit i for coordinate
    i, in bulk: bit i of c << i is bit 0 of c."""
    masks = None
    for i, col in enumerate(zip(*points)):
        bits = map(and_, map(lshift, col, repeat(i)), repeat(1 << i))
        masks = list(bits if masks is None else map(or_, masks, bits))
    return masks or [0] * len(points)


class _Ball:
    """N as a test on the balanced digits of an offset (``_Codes.difference``,
    which reads ``strides`` alone), for a dimension whose N is not listed."""

    def __init__(self, strides: Tuple[int, ...]):
        self.strides = strides

    def __contains__(self, delta: int) -> bool:
        return max(map(abs, _Codes.difference(self, delta))) <= 1


def _ring(strides: Tuple[int, ...]):
    """odd and N (above) for codes with these strides: listed once per
    stride tuple up to ``_LISTED_DIM``, and beyond it odd memoized by mask
    and N tested by digits."""
    if len(strides) > _LISTED_DIM:
        return _Memo(lambda m: sum(s for i, s in enumerate(strides) if m >> i & 1)), _Ball(strides)
    return _listed_ring(strides)


@lru_cache(maxsize=64)
def _listed_ring(strides: Tuple[int, ...]):
    odd, near = [0], {0}
    for s in strides:
        odd += [c + s for c in odd]
        near = {c + e for c in near for e in (-s, 0, s)}
    return tuple(odd), frozenset(near)


class _Halves(NamedTuple):
    """A midpoint-family pair axiom, read by code arithmetic (above): the
    midpoint inequality f(x) + f(y) >= f(x + ceil(d/2)) + f(x + floor(d/2))
    (Favati and Tardella 1990; Moriguchi, Murota, Tamura and Tardella 2020)
    or, with ``hull``, the same with twice the local extension at (x + y)/2
    on the right; on the pairs at l-inf distance at least 2 with ``far``,
    and exactly 2 with ``far`` and ``two``.  ``first`` is the one reading of
    it that the scan, the local route and replay call."""

    far: bool = False
    two: bool = False
    hull: bool = False

    def first(self, get, ext, ring, cx: int, px: int, fx: int, ys):
        """The first (cy, py, fy) of ``ys`` whose pair with x = (cx, px, fx)
        violates the axiom, or None; ``get`` is the code getter and ``ext``
        the extensions memo (``_extensions``) of the hull axiom.  The hull
        axiom reads the rounded midpoints first: they are the ends of the
        main diagonal of the unit cube around (x + y)/2, so twice the local
        extension there is at most their sum, and the pair holds when that
        sum is at most f(x) + f(y); on a pair of one parity they are the
        midpoint itself, which decides.  Only the rest read the memo."""
        odd, near = ring
        far, two, hull = self
        for y in ys:
            cy, py, fy = y
            delta = cy - cx
            if far and delta in near:
                continue
            o = (delta + odd[px ^ py]) >> 1
            if two and (o not in near or delta - o not in near):
                continue
            a = get(cx + o)
            if a is not None and (b := get(cy - o)) is not None and a + b <= fx + fy:
                continue
            if hull and px != py and (t := ext[cx + cy]) is not None and t <= fx + fy:
                continue
            return y
        return None

    def readers(self, v: _View, codes: _Codes, get):
        """``get`` and, for the hull axiom, its extensions memo."""
        return get, _extensions(v, codes) if self.hull else None

    def __call__(self, v: _View, lhs, x: Point, y: Point) -> bool:
        codes, get, cx, cy, _ = _pair_codes(v, x, y)
        px, py = _parities((x, y))
        return self.first(*self.readers(v, codes, get), _ring(codes.strides), cx, px, lhs, [(cy, py, 0)]) is not None

    def scan(self, v: _View):
        """The first violated pair of the scan (``_scan_pairs``) as (cx, cy,
        ()), or None: each point x with its parity mask and the points after
        it in one ``first`` call; above its size rule, ``two`` reads through
        ``local`` the pairs x, x + d with d on the positive half of the
        l-inf sphere of radius 2: the scan's pairs, in the scan's order."""
        if self.two and _LINF_SPHERE.pays(v):
            return self.local(v, _LINF_SPHERE.build(v.dim))
        codes, coded = v.coded
        # coded holds the codes in the order of the stored points
        rows = sorted(zip(coded, _parities(v.vals), coded.values()))
        get, ext = self.readers(v, codes, coded.get)
        ring, first = _ring(codes.strides), self.first
        for a, (cx, px, fx) in enumerate(rows):
            if (y := first(get, ext, ring, cx, px, fx, rows[a + 1 :])) is not None:
                return cx, y[0], ()
        return None

    def local(self, v: _View, ball: Sequence[Point]):
        """The axiom on every pair of stored points x, x + d with d in
        ``ball``, whose offsets lie within l-inf distance ``_REACH`` of 0,
        read by the view's one coding (``_View.coded``), whose box holds
        every x + d and every point between x and x + d, so none of them
        shares a code.  One ``first`` call per x in code order, its ys in
        the order of ``ball``, where px ^ py is the parity mask of d, so x
        is read with mask 0 and x + d with that of d; the first violated
        pair as (cx, cy, ()), or None when every pair holds."""
        codes, coded = v.coded
        get, ext = self.readers(v, codes, coded.get)
        ring, first = _ring(codes.strides), self.first
        steps = list(zip(map(codes.offset, ball), _parities(ball)))
        for cx, fx in sorted(coded.items()):
            ys = [(cy, m, fy) for delta, m in steps if (fy := get(cy := cx + delta)) is not None]
            if (y := first(get, ext, ring, cx, 0, fx, ys)) is not None:
                return cx, y[0], ()
        return None


def _box_gap(v: _View, lhs, p: Point) -> bool:
    return v.box.contains(p) and v.get(p) is None


def _ramp(v: _View, lhs, x: Point, y: Point) -> bool:
    get = v.get
    fx1, fy1 = get(vshift(x, 1)), get(vshift(y, 1))
    return fx1 is not None and fy1 is not None and fx1 - get(x) != fy1 - get(y)


def _axis_convexity(v: _View, lhs, x: Point, i: int) -> bool:
    lo, hi = v.get(_bump(x, i, -1)), v.get(_bump(x, i, 1))
    return lo is not None and hi is not None and lo + hi < 2 * lhs


def _modularity(v: _View, lhs, x: Point, i: int, j: int) -> bool:
    get = v.get
    xi, xj = _bump(x, i, 1), _bump(x, j, 1)
    a, b, c = get(xi), get(xj), get(_bump(xi, j, 1))
    return a is not None and b is not None and c is not None and lhs + c != a + b


class _Axiom(NamedTuple):
    """A witness kind: its witness's point and index counts; how many of the
    points must lie in the object; the predicate; and ``keep``, which says
    which candidates the axiom applies to (None: all).  Scanners that
    enumerate only such candidates skip ``keep``; replay always applies it.
    Pair kinds have none: their filters are part of their reading."""

    points: int
    indices: int
    members: int
    violated: Callable
    keep: Optional[Callable] = None


def _exchange(jump: bool, nat: bool) -> _Pair:
    """The jump exchange axiom read per pair and by rows: with ``jump``
    every step tried and paired, else the M♮/M exchange of the down steps
    with the up steps; with ``nat`` the one-step exchange too."""
    violated = _jump_exchange if nat else partial(_jump_exchange, nat=False)
    return _Pair(_all_steps if jump else _Codes.steps, violated, _unit if jump else _index, _Rows(jump, nat))


_EXCHANGE_MNAT, _EXCHANGE_M = _exchange(jump=False, nat=True), _exchange(jump=False, nat=False)
_JUMP_EXCHANGE_NAT, _JUMP_EXCHANGE = _exchange(jump=True, nat=True), _exchange(jump=True, nat=False)

_AXIOMS = {
    "box-gap": _Axiom(1, 0, 0, _box_gap),
    "axis-convexity": _Axiom(1, 1, 1, _axis_convexity, lambda x, i: 0 <= i < len(x)),
    "modularity": _Axiom(1, 2, 1, _modularity, lambda x, i, j: 0 <= i < j < len(x)),
    "midpoint": _Axiom(2, 0, 2, _Halves()),
    "midpoint-far": _Axiom(2, 0, 2, _Halves(far=True)),
    "midpoint-two": _Axiom(2, 0, 2, _Halves(far=True, two=True)),
    "hull-midpoint": _Axiom(2, 0, 2, _Halves(far=True, hull=True)),
    "ramp": _Axiom(2, 0, 2, _ramp),
    "exchange-mnat": _Axiom(2, 1, 2, _EXCHANGE_MNAT),
    "exchange-mnat-fn": _Axiom(2, 1, 2, _EXCHANGE_MNAT),
    "exchange-m": _Axiom(2, 1, 2, _EXCHANGE_M),
    "exchange-m-fn": _Axiom(2, 1, 2, _EXCHANGE_M),
    "jump-2step": _Axiom(3, 0, 2, _Pair(_all_steps, _jump_two_step, _unit, _Rows(jump=True, nat=True, two_step=True))),
    "jump-exc": _Axiom(3, 0, 2, _JUMP_EXCHANGE),
    "jump-m-fn": _Axiom(3, 0, 2, _JUMP_EXCHANGE),
    "jump-exc-nat": _Axiom(3, 0, 2, _JUMP_EXCHANGE_NAT),
    "jump-mnat-fn": _Axiom(3, 0, 2, _JUMP_EXCHANGE_NAT),
}


# ---------------------------------------------------------------------------
# scanners


def _scan_pairs(v: _View, kind: str) -> Verdict:
    """Pairs of stored points, read by code over the difference box
    (``_View.coded``) in code order: x < y for a midpoint-family axiom
    (``_Halves``), every x and y for an ordered one (``_Pair``), whose move
    of d = 0 tries no step.  The witness is the first violated pair and,
    for an ordered axiom, the record of the violated step, after the points
    or as the index."""
    axiom = _AXIOMS[kind]
    hit = axiom.violated.scan(v)
    if hit is None:
        return _OK
    cx, cy, record = hit
    codes = v.coded[0]
    found = (codes.point(cx), codes.point(cy)) + record
    return _fail(kind, found[: axiom.points], found[axiom.points :])


def _scan_box(v: _View) -> Verdict:
    for p in v.box.points():
        if _box_gap(v, 0, p):
            return _fail("box-gap", (p,))
    return _OK


def _check_separable(v: _View) -> Verdict:
    """A box domain, convexity along every axis and modularity in every
    coordinate pair: together, a sum of univariate convex functions."""
    verdict = _scan_box(v)
    if not verdict.member:
        return verdict
    n = v.dim
    for x, fx in sorted(v.vals.items()):
        for i in range(n):
            if _axis_convexity(v, fx, x, i):
                return _fail("axis-convexity", (x,), (i,))
        for i in range(n):
            for j in range(i + 1, n):
                if _modularity(v, fx, x, i, j):
                    return _fail("modularity", (x,), (i, j))
    return _OK


def _check_l(v: _View) -> Verdict:
    """A lifted object is decided on its section x_n = 0 (``_MAPPED``).  A
    finite object is read as the trace on its bounding box B of an L-convex
    object: it is a member exactly when F restricted to B is the object for
    some L-convex F, which holds exactly when the object is L♮-convex and,
    for a function, f(x + 1) - f(x) is one ramp r wherever both values are
    defined.  So it is decided as ``lnat-fn`` (the ``_LNAT`` row) and, for
    a function, the ``ramp`` read; a set has nothing more to check.

    Sets (Murota, Discrete Convex Analysis, 2003, ch. 5): an L-convex L is
    the integer points of a system x_j - x_i <= c_ij, so L ∩ B, which adds
    the bounds l <= x <= u, is L♮.  An L♮ set S is the integer points of
    l <= x <= u, x_j - x_i <= c_ij with [l, u] its bounding box B, which is
    L ∩ B for the L of the differences alone; and S + Z1 lies in L, so
    (S + Z1) ∩ B = S.

    Functions (ch. 7): F restricted to B is F plus the indicator of B, a sum
    of L♮ functions, so L♮, and F(x + 1) - F(x) is one r.  Conversely, for
    an L♮ f with one ramp r, F(y, t) = f(y - t1) + t r is L-convex on
    Z^(n+1) (f(y - t1) is, which defines L♮, and t r is linear), so its
    projection g(y) = min over t of F(y, t) is L-convex.  The t with
    y - t1 in dom f form an interval, on which F(y, t) is constant by the
    ramp, so g extends f; and g is finite exactly on dom f + Z1, which
    meets B in dom f, as above.  So f is g restricted to B."""
    if v.lifted:
        return _derived(v, "l-section-midpoint")
    verdict = _LNAT(v)
    if not verdict.member:
        return verdict
    anchor = None
    for p, fp in sorted(v.vals.items()):
        if v.get(vshift(p, 1)) is not None:
            if anchor is None:
                anchor = p
            elif _ramp(v, v.vals[anchor] + fp, anchor, p):
                return _fail("ramp", (anchor, p))
    return _OK


# ---------------------------------------------------------------------------
# proof routes in front of the pair scan


def _lnat_described(points: Dict[Point, int], n: int) -> bool:
    """Whether the points are all the lattice points of their tightest
    description l <= x <= u, x_i - x_j <= c_ij, which holds exactly for an
    L♮-convex set (Murota 2003, ch. 5).  The description's points are
    enumerated coordinate by coordinate, each range cut by the coordinates
    already fixed, up to the first one not stored.  No range comes out
    empty: c is a max over the points, so c_ik <= c_ij + c_jk, and it agrees
    with l and u.  So the cost is O(n^2) per point reached, after
    O(n^2 * |S|) for the description.  Points that fill their bounding box
    [l, u] are L♮.  A description whose every c_ij is u_i - l_j is that box,
    so the points are all of it only when they fill it; it is one when the
    points hold the n corners l + (u_i - l_i) e_i, which attain every such
    c_ij, and those are probed before c is read."""
    cols, lo, hi, filled = _bounds(points)
    corners = (tuple(b if k == i else a for k, (a, b) in enumerate(zip(lo, hi))) for i in range(n))
    if filled or all(c in points for c in corners):
        return filled
    gap = [[max(map(sub, ci, cj)) if i != j else 0 for j, cj in enumerate(cols)] for i, ci in enumerate(cols)]
    if all(gap[i][j] == hi[i] - lo[j] for i in range(n) for j in range(n) if i != j):
        return False
    x = [0] * n

    def fill(k: int) -> bool:
        if k == n:
            return tuple(x) in points
        a, b = lo[k], hi[k]
        for j in range(k):
            a, b = max(a, x[j] - gap[j][k]), min(b, x[j] + gap[k][j])
        for t in range(a, b + 1):
            x[k] = t
            if not fill(k + 1):
                return False
        return True

    return fill(0)


def _bounds(points: Dict[Point, int]) -> Tuple[List[Tuple[int, ...]], List[int], List[int], bool]:
    """The coordinate columns of the points, their bounds l and u, and
    whether the points fill the box [l, u], which holds them: whether there
    are as many as its volume."""
    cols = list(zip(*points))
    lo, hi = [min(c) for c in cols], [max(c) for c in cols]
    return cols, lo, hi, len(points) == prod(b - a + 1 for a, b in zip(lo, hi))


def _subset_extremes(cols: List[Tuple[int, ...]], n: int) -> Tuple[List[int], List[int]]:
    """max x(X) and min x(X) over the points of these coordinate columns
    for every subset X of the coordinates, indexed by bit mask.  The sums
    x(X) over all the points are a column, its subset's minus one
    coordinate plus that coordinate's column; the subsets are walked depth
    first, so at most n + 1 columns are held at once."""
    rho, mu = [0] * (1 << n), [0] * (1 << n)

    def walk(m: int, col: List[int], k: int) -> None:
        rho[m], mu[m] = max(col), min(col)
        for i in range(k, n):
            walk(m | 1 << i, list(map(add, col, cols[i])), i + 1)

    walk(0, [0] * len(cols[0]) if cols else [0], 0)
    return rho, mu


def _mnat_described(points: Dict[Point, int], n: int) -> bool:
    """Whether the points are the lattice points of an integral
    g-polymatroid, which holds exactly for an M♮-convex set (Frank and
    Tardos 1988; Murota 2003, ch. 4).  The test costs 2^n per point, so it
    is taken only from 2^n points on, and fewer answer False.
    rho(X) = max x(X) and mu(X) = min x(X) over the points describe any
    such set, and they describe one exactly when the pair is paramodular:
    when the rho of the M-lift (x, -x(N)), rho(X) on X and -mu(N - X) on
    X + n, is submodular, which is checked on neighbouring subsets.  Then the
    lattice points of mu <= x(X) <= rho are enumerated as in
    ``_lnat_described``, coordinate k cut by the subsets whose largest
    element is k.  No range comes out empty, since a projection of an
    integral g-polymatroid is one, described by the restricted pair; so the
    cost is O(2^n) per point reached.  Points that fill their bounding box
    [l, u] are M♮.  A modular rho and mu, each x(X)'s bounds the sums of its
    coordinates', describe that box, so the points are all of it only when
    they fill it; rho is modular exactly when rho(N) is u(N), attained at u
    alone, so exactly when u is a point, and mu when l is, which are probed
    before rho and mu are read."""
    if len(points) < 2**n:
        return False
    cols, lo, hi, filled = _bounds(points)
    if filled or (tuple(lo) in points and tuple(hi) in points):
        return filled
    rho, mu = _subset_extremes(cols, n)
    full = len(rho) - 1
    lift = rho + [-mu[full ^ m] for m in range(full + 1)]
    for m in range(len(lift)):
        free = [1 << i for i in range(n + 1) if not m >> i & 1]
        for a, b in combinations(free, 2):
            if lift[m | a] + lift[m | b] < lift[m | a | b] + lift[m]:
                return False
    x = [0] * n

    def fill(k: int, sums: List[int]) -> bool:
        if k == n:
            return tuple(x) in points
        # the subsets X + k, X of the first k coordinates, are the masks
        # from 2^k to 2^(k + 1) - 1, in the order of their X
        a = max(map(sub, mu[1 << k : 2 << k], sums))
        b = min(map(sub, rho[1 << k : 2 << k], sums))
        for t in range(a, b + 1):
            x[k] = t
            if not fill(k + 1, sums + [s + t for s in sums]):
                return False
        return True

    return fill(0, [0])


def _m_described(points: Dict[Point, int], n: int) -> bool:
    """Whether the points are an M-convex set: they lie on a hyperplane
    x(N) = c, so that no two of them meet when x_n is dropped, and
    ``_mnat_described`` proves that projection (Murota 2003, ch. 4 and 6)."""
    return len({sum(p) for p in points}) == 1 and _mnat_described({p[:-1]: 0 for p in points}, n - 1)


def _half_ball(n: int, sphere: bool = False) -> List[Point]:
    """The offsets d > 0 of the l-inf ball of radius 2 in Z^n, or with
    ``sphere`` of its sphere, one of d and -d each, so that a pair is read
    once, in lexicographic order, so in code order, which x + d follows."""
    zero = (0,) * n
    return [d for d in product(range(-2, 3), repeat=n) if d > zero and (not sphere or 2 in map(abs, d))]


@dataclass
class _Offsets:
    """A local ball in Z^n: ``count(n)``, its offsets other than its
    centre, in closed form, which the size rule reads, and ``build(n)``,
    the offsets a route reads, built only once the rule passes."""

    count: Callable[[int], int]
    build: Callable[[int], List[Point]]

    def pays(self, v: _View) -> bool:
        """The size rule |S| >= 2 * |ball|: a member saves
        |S| * (|S| - |ball|) / 2 pair reads on the ball, and a non-member
        pays up to |S| * |ball| / 2 reads before its pair scan, so the two
        break even at |S| = 2 * |ball|."""
        return len(v.vals) >= 2 * self.count(v.dim)


# the l-inf ball and sphere of radius 2, one of d and -d each
_LINF_BALL = _Offsets(lambda n: 5**n - 1, _half_ball)
_LINF_SPHERE = _Offsets(lambda n: 5**n - 3**n, partial(_half_ball, sphere=True))


class _Described(NamedTuple):
    """The route of a domain description: a set, or a function whose values
    are all equal, is a member when one of the ``descriptions`` proves its
    points; above the size rule of ``ball``, a function is one when,
    besides, its kind's axiom holds on every pair x, x + d with d in the
    ball.  Without a ball only the flat objects take the route."""

    descriptions: Tuple[Callable, ...]
    ball: Optional[_Offsets] = None

    def __call__(self, v: _View, kind: str) -> bool:
        flat = len(set(v.vals.values())) == 1
        if (flat or self.ball is not None and self.ball.pays(v)) and any(d(v.vals, v.dim) for d in self.descriptions):
            return flat or _AXIOMS[kind].violated.local(v, self.ball.build(v.dim)) is None
        return False


# ---------------------------------------------------------------------------
# jump systems by box counts
#
# A set S fails the 2-step axiom (Bouchet and Cunningham 1995) at x in S, a
# unit step s = σe_i and some y in S exactly when z = x + s is not in S and
# y lies in the box
#
#     B(z) = {y : τ(y_k - z_k) <= 0 for every unit step t = τe_k with z + t in S}.
#
# A violating y has s toward it, σ(y_i - x_i) >= 1, and no step t from z
# toward y, τ(y_k - z_k) >= 1, with z + t in S: the box bound of each such
# t.  Among them is t = -s, as z - s = x is in S, whose bound
# σ(y_i - z_i) >= 0 is the first condition, so the box depends on z alone.
# The same-axis partner t = s bounds y_i = z_i, which is the pair scan's rule
# that s pairs with itself only where the gap σ(y_i - x_i) exceeds 1.  So a
# row x of the ordered pair scan holds a violated pair exactly when one of
# its absent neighbours z has a box that meets S, and S is a jump system
# exactly when no absent neighbour's box does: one inclusion-exclusion
# query, 2^n reads at most, in a summed-count table over the bounding box,
# per absent z, and a single dict probe where the box is one cell.
#
# On a set of one coordinate-sum parity, a jump system also satisfies the
# exchange axiom (Lovász, "The membership problem in jump systems", 1997;
# Murota, "M-convex functions on jump systems", 2006), whose form implies
# the simultaneous exchange axiom.  So a proven jump system of one parity is
# a member of all three set jump labels.
#
# The route runs only when the bounding box holds at most C(2n, n) * |S|
# cells, so the summed-count table stays linear in |S|, and on at least
# ``_JUMP_SIZE`` points: on drawn members of the three labels in 2 to 4
# dimensions it took 1.26-1.55 of the scan's time below 8 points, 1.11 at 8
# to 11 and 0.59-0.70 from 12 on.

_JUMP_SIZE = 12


def _jump_routed(v: _View) -> bool:
    """The route's size rule and volume bound."""
    size, volume = len(v.vals), prod(b - a + 1 for a, b in zip(v.box.lo, v.box.hi))
    return size >= _JUMP_SIZE and volume <= comb(2 * v.dim, v.dim) * size


def _summed_counts(v: _View) -> Callable:
    """count(a, b), the number of stored points in a box [a, b] within the
    bounding box [lo, hi]: the table holds, at the code of each corner c of
    [lo - 1, hi], the number of stored points p <= c, and a box count is the
    signed sum of the table at its 2^n corners b or a - 1 per coordinate,
    of which those with a_k - 1 = lo_k - 1 read 0 and are skipped."""
    lo, hi = v.box.lo, v.box.hi
    grid = Codes(vshift(lo, -1), hi)
    size = grid.strides[0] * (hi[0] - lo[0] + 2)
    table = [0] * size
    for p in v.vals:
        table[grid.code(p)] = 1
    # running sums along each line of each axis k, the cells j, j + s, ...
    # of one block of span s * extent
    for k, s in enumerate(grid.strides):
        span = s * (hi[k] - lo[k] + 2)
        for block in range(0, size, span):
            for j in range(block, block + s):
                table[j : block + span : s] = accumulate(table[j : block + span : s])
    axes = list(zip(grid.strides, lo))
    read = table.__getitem__

    def count(a: List[int], b: List[int]) -> int:
        # the corners with an even and with an odd number of coordinates a_k - 1
        even, odd = [grid.code(b)], []
        for (s, low), ak, bk in zip(axes, a, b):
            if ak > low:
                gap = (bk - ak + 1) * s
                even, odd = even + [c - gap for c in odd], odd + [c - gap for c in even]
        return sum(map(read, even)) - sum(map(read, odd))

    return count


def _two_step_holds(v: _View) -> bool:
    """Whether the set is a jump system: no absent neighbour's box meets it.
    Neighbours are probed by code (``_View.coded``); each absent
    neighbour's box is decided once, and the summed-count table is built at
    the first box of more than one cell."""
    codes, coded = v.coded
    lo, hi = v.box.lo, v.box.hi
    axes = list(enumerate(codes.strides))
    meets, count = {}, None

    def meet(z: Point, cz: int) -> bool:
        nonlocal count
        a, b = list(lo), list(hi)
        for k, s in axes:
            if cz + s in coded and z[k] < b[k]:
                b[k] = z[k]
            if cz - s in coded and z[k] > a[k]:
                a[k] = z[k]
            if a[k] > b[k]:
                return False
        if a == b:
            return codes.code(a) in coded
        if count is None:
            count = _summed_counts(v)
        return count(a, b) > 0

    # coded holds the codes in the order of the stored points
    for cx, x in zip(coded, v.vals):
        for k, s in axes:
            for cz, sign in ((cx - s, -1), (cx + s, 1)):
                if cz not in coded:
                    hit = meets.get(cz)
                    if hit is None:
                        hit = meets[cz] = meet(_bump(x, k, sign), cz)
                    if hit:
                        return False
    return True


def _box_counts(v: _View, kind: str) -> bool:
    """The box-count route, within its rules (``_jump_routed``): whether
    the set is a jump system, which proves ``jump-2step``, and proves the
    exchange kinds on a set of one coordinate-sum parity."""
    parity = kind == "jump-2step" or len({sum(p) & 1 for p in v.vals}) == 1
    return _jump_routed(v) and parity and _two_step_holds(v)


# ---------------------------------------------------------------------------
# kinds read on a derived view


def _on_section(v: _View, points: Tuple[Point, ...]):
    """The section through the first witness point, x_n = c, with each
    point moved onto it along 1; a lifted object is read on its stored
    section x_n = 0, which is the same up to the shift c * 1."""
    c = 0 if v.lifted else points[0][-1]
    return v.section(c), tuple(vshift(p, c - p[-1])[:-1] for p in points)


# kind -> (map of the view with the witness points, map of a point back, the
# label the view is decided as, whose scan kind a replay reads there):
# multimodular is L♮-convex on the prefix sums (Murota, "Note on
# multimodularity and L-convexity", 2005), lifted L is L-convex iff its
# section x_n = 0 is L♮-convex (Murota 2003, ch. 7), and a locally discrete
# midpoint convex function has a d.m.c. domain.
_MAPPED = {
    "domain-not-dmc": (lambda v, points: (v.domain(), points), lambda p: p, ClassLabel.GLOBAL_DMC_SET),
    "multimodular-midpoint": (
        lambda v, points: (v.prefixed(), tuple(map(prefix_point, points))), difference_point, ClassLabel.LNAT_FN
    ),
    "l-section-midpoint": (_on_section, lambda p: p + (0,), ClassLabel.LNAT_FN),
}


def _derived(v: _View, kind: str) -> Verdict:
    """A derived kind decided on its view of v, the witness mapped back."""
    to_view, back, label = _MAPPED[kind]
    verdict = _RECOGNIZERS[label](to_view(v, ())[0])
    return verdict if verdict.member else _fail(kind, map(back, verdict.witness.points))


# ---------------------------------------------------------------------------
# public entry points


class _Scan(NamedTuple):
    """A route-then-scan recognizer.  A derived kind ``domain``
    (``_MAPPED``), when named, is decided first, and its failure is the
    verdict.  Then the route, when there is one, proves membership (True),
    and otherwise the pair scan of ``kind`` decides, from its first row.
    ``_scan_pairs`` is read from the module at each call, so the one
    scanner can be watched in place."""

    kind: str
    route: Optional[Callable] = None
    domain: Optional[str] = None

    def __call__(self, v: _View) -> Verdict:
        if self.domain is not None and not (verdict := _derived(v, self.domain)).member:
            return verdict
        return _OK if self.route is not None and self.route(v, self.kind) else _scan_pairs(v, self.kind)


_IC = _Scan("hull-midpoint", _Described((_lnat_described, _mnat_described), _LINF_BALL))
_LNAT = _Scan("midpoint", _Described((_lnat_described,), _LINF_BALL))
_MNAT, _M = _Described((_mnat_described,)), _Described((_m_described,))
_GLOBAL_DMC = _Scan("midpoint-far", _Described((_lnat_described,)))

# the box, separable and L labels keep their own recognizers; a multimodular
# object is decided on its prefix sums (``_MAPPED``)
_RECOGNIZERS = {
    ClassLabel.INTEGER_BOX: _scan_box,
    ClassLabel.SEPARABLE_CONVEX: _check_separable,
    ClassLabel.IC_SET: _IC,
    ClassLabel.IC_FN: _IC,
    ClassLabel.LNAT_SET: _LNAT,
    ClassLabel.LNAT_FN: _LNAT,
    ClassLabel.L_SET: _check_l,
    ClassLabel.L_FN: _check_l,
    ClassLabel.MNAT_SET: _Scan("exchange-mnat", _MNAT),
    ClassLabel.MNAT_FN: _Scan("exchange-mnat-fn", _MNAT),
    ClassLabel.M_SET: _Scan("exchange-m", _M),
    ClassLabel.M_FN: _Scan("exchange-m-fn", _M),
    ClassLabel.MULTIMODULAR_SET: partial(_derived, kind="multimodular-midpoint"),
    ClassLabel.MULTIMODULAR_FN: partial(_derived, kind="multimodular-midpoint"),
    ClassLabel.GLOBAL_DMC_SET: _GLOBAL_DMC,
    ClassLabel.GLOBAL_DMC_FN: _GLOBAL_DMC,
    ClassLabel.LOCAL_DMC_FN: _Scan("midpoint-two", domain="domain-not-dmc"),
    ClassLabel.JUMP_SYSTEM: _Scan("jump-2step", _box_counts),
    ClassLabel.CONST_PARITY_JUMP: _Scan("jump-exc", _box_counts),
    ClassLabel.SIMULT_EXCH_JUMP: _Scan("jump-exc-nat", _box_counts),
    ClassLabel.JUMP_M_FN: _Scan("jump-m-fn"),
    ClassLabel.JUMP_MNAT_FN: _Scan("jump-mnat-fn"),
}


def _require_object(obj) -> None:
    """Turn down anything but a set or a function, its type named."""
    if not isinstance(obj, (LatticeSet, LatticeFn)):
        raise LabelKindError(f"cannot check a {type(obj).__name__}")


def check(obj, label: ClassLabel) -> Verdict:
    """Membership of a set or a function in a class of its own kind."""
    _require_object(obj)
    label = ClassLabel(label)
    kind, labels = ("set", SET_LABELS) if isinstance(obj, LatticeSet) else ("function", FN_LABELS)
    if label not in labels:
        raise LabelKindError(f"{label.value} is not a {kind} label")
    if not len(obj):
        raise ValueError("membership is undefined for the empty set")
    if obj.lifted and label not in (ClassLabel.L_SET, ClassLabel.L_FN):
        raise LiftedInputError(f"{label.value} needs a finite {kind}")
    return _RECOGNIZERS[label](_View.of(obj))


# A set is checked through its indicator function (``_View``), so both names
# are the one entry point.
check_set = check_fn = check


def verify_witness(obj, witness: Witness) -> bool:
    """Replay a witness through the axiom it claims to violate.

    Returns True iff the recorded data is a genuine violation for this
    object, independently of how the witness was found.  An empty object
    violates nothing, and neither does a witness with a point outside Z^n
    (every kind records its points, steps included, in the object's
    coordinates, as tuples of ints; bools and floats are not ints), nor one
    with an index not an int, nor one with other counts than its kind's, nor
    one whose points or indices are not a tuple.  A kind that is not a str,
    or not a known kind, raises ``ValueError``, and an object that is not a
    ``LatticeSet`` or ``LatticeFn`` raises ``LabelKindError``, as in
    :func:`check`.
    """
    _require_object(obj)
    kind = witness.kind if isinstance(witness.kind, str) else None
    if kind in _MAPPED:
        kind = _RECOGNIZERS[_MAPPED[kind][2]].kind
    if kind not in _AXIOMS:
        raise ValueError(f"unknown witness kind {witness.kind!r}")
    shape = _AXIOMS[kind][:2]
    if (
        not len(obj)
        or type(witness.points) is not tuple
        or type(witness.indices) is not tuple
        or (len(witness.points), len(witness.indices)) != shape
        or not are_points(witness.points, obj.dim)
        or not set(map(type, witness.indices)) <= {int}
    ):
        return False
    return _replay(_View.of(obj), witness.kind, witness.points, witness.indices)


def _replay(v: _View, kind: str, points: Tuple[Point, ...], indices: Tuple[int, ...]) -> bool:
    if kind in _MAPPED:
        to_view, _, label = _MAPPED[kind]
        mapped, points = to_view(v, points)
        # the section of a 1-d object is Z^0, where a pair is one point twice
        return mapped.dim > 0 and _replay(mapped, _RECOGNIZERS[label].kind, points, ())
    _, _, members, violated, keep = _AXIOMS[kind]
    args = points + indices
    held = [v.get(p) for p in points[:members]]
    if any(h is None for h in held) or (keep is not None and not keep(*args)):
        return False
    return violated(v, sum(held), *args)


# ---------------------------------------------------------------------------
# minimizer sets and the polyhedral description of multimodular sets


def argmin_perturbed(f: LatticeFn, c: Sequence) -> LatticeSet:
    """Exact minimizer set of x -> f(x) - c.x over the domain of f.

    For a lifted function the perturbation must satisfy sum(c) = ramp, in
    which case the objective is invariant along the lift and the result is a
    lifted set; any other c is unbounded and rejected.
    """
    cvec = [as_rational(v, "perturbation entry") for v in c]
    if len(cvec) != f.dim:
        raise ValueError("perturbation dimension mismatch")
    if f.lifted and sum(cvec) != f.ramp:
        raise ValueError("perturbed lifted function has no minimizer (unbounded along the lift)")
    best = None
    arg: List[Point] = []
    for p, v in f.sorted_items():
        score = v - sum((ci * pi for ci, pi in zip(cvec, p)), Fraction(0))
        if best is None or score < best:
            best, arg = score, [p]
        elif score == best:
            arg.append(p)
    return LatticeSet(f.dim, frozenset(arg), lifted=f.lifted)


def multimodular_polyhedral_check(s: LatticeSet) -> bool:
    """Whether the set equals the lattice points of its tightest
    consecutive-interval sum bounds a_I <= x(I) <= b_I (the singleton
    intervals bound every coordinate), which holds exactly for a
    multimodular set.  An interval sum is a difference of two prefix sums,
    or one prefix sum, so these bounds are the L♮ description of the prefix
    image, and the test is ``_lnat_described`` there: its cost grows with
    the points reached, not with the bounding box."""
    if s.lifted:
        raise LiftedInputError("polyhedral check needs a finite set")
    if not s.points:
        raise ValueError("membership is undefined for the empty set")
    return _lnat_described(dict.fromkeys(map(prefix_point, s.points), 0), s.dim)
