"""Membership recognizers for the discrete convexity classes.

Every recognizer is an exact brute-force check of the defining axiom over
the stored points.  A negative verdict carries a witness that replays as a
genuine violation through :func:`verify_witness`.  Scanning is done in
lexicographic order and stops at the first violation, so verdicts are
deterministic.

Each axiom is written once, as a predicate in the table ``_AXIOMS`` keyed by
witness kind.  A predicate reads the object through a value getter in which
a set is its indicator function (0 on its points, +infinity elsewhere), so a
set class and its function class share one predicate and one scanner and
differ only in the witness kind they report.  :func:`verify_witness` looks
the kind up in the same table, checks that the witness points lie in the
object, and calls the same predicate.

Conventions for infinite values inside axioms: an inequality with +infinity
on the left-hand side holds; +infinity on the right-hand side is only
satisfied by +infinity on the left.  Internally the recognizers use ``None``
for +infinity on top of plain ``Fraction`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from typing import List, Optional, Sequence, Tuple

from .core import (
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Point,
    Window,
    difference_point,
    join_meet,
    linf_distance,
    midpoint_round,
    prefix_point,
    prefix_transform,
    supports,
    unit,
    vadd,
    value_map,
    vshift,
    vsub,
)
# in_local_hull is unused here but stays importable from this module
from .hull import half_midpoint, in_local_hull, local_extension_value
from .rationals import is_finite


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


# ---------------------------------------------------------------------------
# small helpers over Fraction-or-None (None = +infinity)


def _add(a, b):
    if a is None or b is None:
        return None
    return a + b


def _less(a, b) -> bool:
    """a < b with None meaning +infinity."""
    if a is None:
        return False
    if b is None:
        return True
    return a < b


def _bump(p: Point, i: int, d: int) -> Point:
    """p + d * e_i."""
    return p[:i] + (p[i] + d,) + p[i + 1 :]


def increments(x: Point, y: Point) -> List[Point]:
    """All signed unit steps s with x + s inside the box [x ^ y, x v y],
    sorted lexicographically."""
    n = len(x)
    out = []
    for i in range(n):
        if x[i] < y[i]:
            out.append(unit(n, i))
        elif x[i] > y[i]:
            out.append(tuple(-c for c in unit(n, i)))
    return sorted(out)


class _View:
    """A set or function as the axioms read it.

    ``vals`` maps the stored points (representatives, when lifted) to their
    values, and ``get(p)`` is the value at any point, None meaning
    +infinity.  A set reads as its indicator function: 0 on its points.
    """

    def __init__(self, obj):
        self.obj = obj
        self.vals, self.ramp = value_map(obj), obj.ramp
        self.get = self._lifted_get if obj.lifted else self.vals.get

    def _lifted_get(self, p: Point):
        base = self.vals.get(vshift(p, -p[-1]))
        return None if base is None else base + p[-1] * self.ramp

    @cached_property
    def box(self) -> Window:
        """Bounding box of the stored points."""
        return self.obj.bounding_box()


# ---------------------------------------------------------------------------
# the axioms
#
# violated(v, lhs, *witness.points, *witness.indices) -> bool, where lhs is
# the sum of the values at the witness points that must lie in the object
# (the first ``members`` of them).  Scanners pass the lhs they already hold;
# replay checks those points and computes it.


def _midpoint(v: _View, lhs, x: Point, y: Point) -> bool:
    up, down = midpoint_round(x, y)
    return _less(lhs, _add(v.get(up), v.get(down)))


def _submodular(v: _View, lhs, x: Point, y: Point) -> bool:
    jn, mt = join_meet(x, y)
    return _less(lhs, _add(v.get(jn), v.get(mt)))


def _hull_midpoint(v: _View, lhs, x: Point, y: Point) -> bool:
    ext = local_extension_value(v.obj, half_midpoint(x, y))
    return not is_finite(ext) or 2 * ext > lhs


def _exchange(v: _View, lhs, x: Point, y: Point, i: int, nat: bool = True) -> bool:
    """Every exchange (x - e_i + e_j, y + e_i - e_j) with j in supp-(x - y),
    and with j = 0 when ``nat``, exceeds lhs."""
    get = v.get
    xi, yi = _bump(x, i, -1), _bump(y, i, 1)
    if nat and not _less(lhs, _add(get(xi), get(yi))):
        return False
    for j in range(len(x)):
        if x[j] < y[j] and not _less(lhs, _add(get(_bump(xi, j, 1)), get(_bump(yi, j, -1)))):
            return False
    return True


def _jump_exchange(v: _View, lhs, x: Point, y: Point, s: Point, nat: bool = True) -> bool:
    """Every two-step exchange (x + s + t, y - s - t) with t an increment
    from x + s toward y, and the one-step (x + s, y - s) when ``nat``,
    exceeds lhs."""
    get = v.get
    xs, ys = vadd(x, s), vsub(y, s)
    if nat and not _less(lhs, _add(get(xs), get(ys))):
        return False
    for t in increments(xs, y):
        if not _less(lhs, _add(get(vadd(xs, t)), get(vsub(ys, t)))):
            return False
    return True


def _jump_two_step(v: _View, lhs, x: Point, y: Point, s: Point) -> bool:
    """Neither x + s nor any x + s + t (t toward y) lies in the set."""
    xs = vadd(x, s)
    return v.get(xs) is None and all(v.get(vadd(xs, t)) is None for t in increments(xs, y))


def _box_gap(v: _View, lhs, p: Point) -> bool:
    return v.box.contains(p) and v.get(p) is None


def _ones_shift(v: _View, lhs, x: Point, t: Point) -> bool:
    return v.box.contains(t) and v.get(t) is None


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


def _far(x: Point, y: Point) -> bool:
    return linf_distance(x, y) >= 2


def _toward(x: Point, y: Point, i: int) -> bool:
    return i in _plus_support(x, y)


def _step_toward(x: Point, y: Point, s: Point) -> bool:
    return s in increments(x, y)


# kind -> (members, violated, keep): ``keep`` says which candidates the
# axiom applies to (None: all); scanners that enumerate only such
# candidates skip it, replay always applies it.
_AXIOMS = {
    "box-gap": (0, _box_gap, None),
    "axis-convexity": (1, _axis_convexity, lambda x, i: 0 <= i < len(x)),
    "modularity": (1, _modularity, lambda x, i, j: 0 <= i < j < len(x)),
    "midpoint": (2, _midpoint, None),
    "midpoint-far": (2, _midpoint, _far),
    "midpoint-two": (2, _midpoint, lambda x, y: linf_distance(x, y) == 2),
    "hull-midpoint": (2, _hull_midpoint, _far),
    "submodular": (2, _submodular, None),
    "ones-shift": (1, _ones_shift, lambda x, t: t in (vshift(x, 1), vshift(x, -1))),
    "ramp": (2, _ramp, None),
    "exchange-mnat": (2, _exchange, _toward),
    "exchange-mnat-fn": (2, _exchange, _toward),
    "exchange-m": (2, partial(_exchange, nat=False), _toward),
    "exchange-m-fn": (2, partial(_exchange, nat=False), _toward),
    "jump-2step": (2, _jump_two_step, _step_toward),
    "jump-exc": (2, partial(_jump_exchange, nat=False), _step_toward),
    "jump-m-fn": (2, partial(_jump_exchange, nat=False), _step_toward),
    "jump-exc-nat": (2, _jump_exchange, _step_toward),
    "jump-mnat-fn": (2, _jump_exchange, _step_toward),
}

# kinds replayed on another object: kind -> (object map, point map, kind there)
_MAPPED = {
    "domain-not-dmc": (lambda obj: obj.domain(), lambda p: p, "midpoint-far"),
    "multimodular-midpoint": (prefix_transform, prefix_point, "midpoint"),
}


# ---------------------------------------------------------------------------
# scanners


def _scan_pairs(v: _View, kind: str) -> Verdict:
    """Unordered pairs x < y of stored points."""
    _, violated, keep = _AXIOMS[kind]
    vals = v.vals
    pts = sorted(vals)
    for a, x in enumerate(pts):
        fx = vals[x]
        for y in pts[a + 1 :]:
            if (keep is None or keep(x, y)) and violated(v, fx + vals[y], x, y):
                return _fail(kind, (x, y))
    return _OK


def _scan_ordered(v: _View, kind: str, steps, indexed: bool = False) -> Verdict:
    """Ordered pairs x != y, then each step in ``steps(x, y)``.  The step is
    recorded in the witness's indices when ``indexed``, else after its
    points."""
    violated = _AXIOMS[kind][1]
    vals = v.vals
    pts = sorted(vals)
    for x in pts:
        for y in pts:
            if x != y:
                lhs = vals[x] + vals[y]
                for s in steps(x, y):
                    if violated(v, lhs, x, y, s):
                        return _fail(kind, (x, y), (s,)) if indexed else _fail(kind, (x, y, s))
    return _OK


def _plus_support(x: Point, y: Point) -> Tuple[int, ...]:
    """supp+(x - y)."""
    return supports(vsub(x, y))[0]


_scan_exchanges = partial(_scan_ordered, steps=_plus_support, indexed=True)
_scan_jumps = partial(_scan_ordered, steps=increments)


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
    n = v.obj.dim
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
    vals, get = v.vals, v.get
    pts = sorted(vals)
    if v.obj.lifted:
        # Exact: relative shifts outside the coordinate spread give a
        # comparable pair, for which submodularity is automatic.
        for a, r in enumerate(pts):
            for r2 in pts[a:]:
                deltas = [p - q for p, q in zip(r, r2)]
                for s in range(min(deltas) - 1, max(deltas) + 2):
                    y = vshift(r2, s)
                    if y != r and _submodular(v, vals[r] + vals[r2] + s * v.ramp, r, y):
                        return _fail("submodular", (r, y))
        return _OK
    # Finite input: treated as a windowed sample over its bounding box.
    # Negative verdicts are sound; a pass is only a necessary condition.
    verdict = _scan_pairs(v, "submodular")
    if not verdict.member:
        return verdict
    anchor = None
    for p in pts:
        for t in (vshift(p, 1), vshift(p, -1)):
            if _ones_shift(v, vals[p], p, t):
                return _fail("ones-shift", (p, t))
        if get(vshift(p, 1)) is not None:
            if anchor is None:
                anchor = p
            elif _ramp(v, vals[anchor] + vals[p], anchor, p):
                return _fail("ramp", (anchor, p))
    return _OK


def _check_local_dmc(v: _View) -> Verdict:
    dom = _scan_pairs(_View(v.obj.domain()), "midpoint-far")
    if not dom.member:
        return _fail("domain-not-dmc", dom.witness.points)
    return _scan_pairs(v, "midpoint-two")


def _check_multimodular(v: _View) -> Verdict:
    """Midpoint convexity after the change of coordinates to prefix sums;
    the witness is mapped back to the original coordinates."""
    inner = _scan_pairs(_View(prefix_transform(v.obj)), "midpoint")
    if inner.member:
        return _OK
    return _fail("multimodular-midpoint", map(difference_point, inner.witness.points))


# ---------------------------------------------------------------------------
# public entry points

_RECOGNIZERS = {
    ClassLabel.INTEGER_BOX: _scan_box,
    ClassLabel.SEPARABLE_CONVEX: _check_separable,
    ClassLabel.IC_SET: partial(_scan_pairs, kind="hull-midpoint"),
    ClassLabel.IC_FN: partial(_scan_pairs, kind="hull-midpoint"),
    ClassLabel.LNAT_SET: partial(_scan_pairs, kind="midpoint"),
    ClassLabel.LNAT_FN: partial(_scan_pairs, kind="midpoint"),
    ClassLabel.L_SET: _check_l,
    ClassLabel.L_FN: _check_l,
    ClassLabel.MNAT_SET: partial(_scan_exchanges, kind="exchange-mnat"),
    ClassLabel.MNAT_FN: partial(_scan_exchanges, kind="exchange-mnat-fn"),
    ClassLabel.M_SET: partial(_scan_exchanges, kind="exchange-m"),
    ClassLabel.M_FN: partial(_scan_exchanges, kind="exchange-m-fn"),
    ClassLabel.MULTIMODULAR_SET: _check_multimodular,
    ClassLabel.MULTIMODULAR_FN: _check_multimodular,
    ClassLabel.GLOBAL_DMC_SET: partial(_scan_pairs, kind="midpoint-far"),
    ClassLabel.GLOBAL_DMC_FN: partial(_scan_pairs, kind="midpoint-far"),
    ClassLabel.LOCAL_DMC_FN: _check_local_dmc,
    ClassLabel.JUMP_SYSTEM: partial(_scan_jumps, kind="jump-2step"),
    ClassLabel.CONST_PARITY_JUMP: partial(_scan_jumps, kind="jump-exc"),
    ClassLabel.SIMULT_EXCH_JUMP: partial(_scan_jumps, kind="jump-exc-nat"),
    ClassLabel.JUMP_M_FN: partial(_scan_jumps, kind="jump-m-fn"),
    ClassLabel.JUMP_MNAT_FN: partial(_scan_jumps, kind="jump-mnat-fn"),
}


def check(obj, label: ClassLabel) -> Verdict:
    """Membership of a set or a function in a class of its own kind."""
    if not isinstance(obj, (LatticeSet, LatticeFn)):
        raise LabelKindError(f"cannot check a {type(obj).__name__}")
    label = ClassLabel(label)
    kind, labels = ("set", SET_LABELS) if isinstance(obj, LatticeSet) else ("function", FN_LABELS)
    if label not in labels:
        raise LabelKindError(f"{label.value} is not a {kind} label")
    if not len(obj):
        raise ValueError("membership is undefined for the empty set")
    if obj.lifted and label not in (ClassLabel.L_SET, ClassLabel.L_FN):
        raise LiftedInputError(f"{label.value} needs a finite {kind}")
    return _RECOGNIZERS[label](_View(obj))


# A set is checked through its indicator function (``_View``), so both names
# are the one entry point.
check_set = check_fn = check


def verify_witness(obj, witness: Witness) -> bool:
    """Replay a witness through the axiom it claims to violate.

    Returns True iff the recorded data is a genuine violation for this
    object, independently of how the witness was found.  An empty object
    violates nothing.
    """
    kind = witness.kind
    if kind in _MAPPED:
        to_obj, to_point, inner = _MAPPED[kind]
        return verify_witness(to_obj(obj), Witness(inner, tuple(map(to_point, witness.points))))
    if kind not in _AXIOMS:
        raise ValueError(f"unknown witness kind {kind!r}")
    if not len(obj):
        return False
    members, violated, keep = _AXIOMS[kind]
    v = _View(obj)
    args = witness.points + witness.indices
    held = [v.get(p) for p in witness.points[:members]]
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
    cvec = [Fraction(v) for v in c]
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


def multimodular_polyhedral_check(s: LatticeSet, w: Window) -> bool:
    """Tightest consecutive-interval sum bounds, then compare: the set is
    multimodular iff it equals the lattice points of the window satisfying
    a_I <= x(I) <= b_I for every consecutive index interval I."""
    if s.lifted:
        raise LiftedInputError("polyhedral check needs a finite set")
    if not s.points:
        raise ValueError("membership is undefined for the empty set")
    pts = s.sorted_points()
    if not all(w.contains(p) for p in pts):
        raise ValueError("set is not contained in the window")
    n = s.dim
    intervals = [(i, j) for i in range(n) for j in range(i, n)]
    bounds = {}
    for i, j in intervals:
        sums = [sum(p[i : j + 1]) for p in pts]
        bounds[(i, j)] = (min(sums), max(sums))
    candidate = set()
    for p in s.bounding_box().points():
        ok = True
        for i, j in intervals:
            t = sum(p[i : j + 1])
            lo, hi = bounds[(i, j)]
            if not lo <= t <= hi:
                ok = False
                break
        if ok:
            candidate.add(p)
    return candidate == set(s.points)
