"""Instance generators, the counterexample registry, and the closure-matrix
harness.

Generators emit random members of each convexity class and assert the class
recognizer on every emitted instance (an instance that fails its recognizer
is a bug, not bad luck).  The registry replays the exact counterexamples
behind every "not closed" cell; random search is never used as evidence of
non-closure.  The closure matrix runs seeded positive trials for every
"closed" cell and the registry for every "not closed" cell, and renders the
resulting Y/N grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import documents
from .classes import (
    FN_LABELS,
    ClassLabel,
    Verdict,
    Witness,
    argmin_perturbed,
    check,
    check_fn,
    check_set,
    multimodular_polyhedral_check,
    verify_witness,
)
from .core import (
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    Point,
    Window,
    cube,
    difference_transform,
    indicator_fn,
    linf_distance,
    midpoint_round,
    prefix_transform,
    rebuild,
    restrict_to_window,
    vadd,
    value_map,
)
from .hull import in_local_hull
from .network import (
    Arc,
    ArcCost,
    Network,
    aggregation_network,
    induce_fn,
    splitting_network,
    transform_set,
)
from .ops import (
    PartitionSpec,
    SplitSpec,
    aggregate_fn,
    aggregate_set,
    convolution_fn,
    direct_sum_fn,
    direct_sum_lifted_fn,
    direct_sum_set,
    split_fn,
    split_set,
)
from .rationals import rat


class RejectionBudgetError(RuntimeError):
    """A rejection-sampling generator ran out of attempts."""

    def __init__(self, label: str, budget: int):
        super().__init__(f"generator for {label} exhausted its budget of {budget} attempts")
        self.budget = budget


def _rng(seed, *tags) -> random.Random:
    return random.Random("|".join(str(t) for t in (seed, *tags)))


# ---------------------------------------------------------------------------
# random building blocks


def _convex_table(rng: random.Random, lo: int, hi: int) -> Dict[int, Fraction]:
    """Random discretely convex univariate table on [lo, hi]."""
    slopes = sorted(
        Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(hi - lo)
    )
    v = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    out = {lo: v}
    for k, t in enumerate(range(lo + 1, hi + 1)):
        v = v + slopes[k]
        out[t] = v
    return out


def _random_box(rng: random.Random, n: int, window: Window, max_width: int = 2) -> Window:
    lo, hi = [], []
    for i in range(n):
        a = rng.randint(window.lo[i], window.hi[i])
        b = min(window.hi[i], a + rng.randint(0, max_width))
        lo.append(a)
        hi.append(b)
    return Window(tuple(lo), tuple(hi))


def _midpoint_closure(seeds, far_only: bool = False) -> frozenset:
    pts = set(seeds)
    changed = True
    while changed:
        changed = False
        for x in list(pts):
            for y in list(pts):
                if x >= y:
                    continue
                if far_only and linf_distance(x, y) < 2:
                    continue
                for z in midpoint_round(x, y):
                    if z not in pts:
                        pts.add(z)
                        changed = True
    return frozenset(pts)


def _random_points(rng: random.Random, window: Window, k: int) -> List[Point]:
    return [
        tuple(rng.randint(window.lo[i], window.hi[i]) for i in range(window.dim))
        for _ in range(k)
    ]


def _laminar_family(rng: random.Random, n: int) -> List[Tuple[int, ...]]:
    fam = [tuple(range(n))] + [(i,) for i in range(n)]
    if n >= 3 and rng.random() < 0.8:
        k = rng.randint(2, n - 1)
        fam.append(tuple(range(k)))
    return fam


def _random_multigraph(rng: random.Random, n: int, edges: int) -> List[Tuple[int, int]]:
    out = []
    for _ in range(edges):
        i = rng.randrange(n)
        j = rng.randrange(n)
        out.append((min(i, j), max(i, j)))
    return out


def _degree_weight_fn(
    n: int, edges: Sequence[Tuple[int, int]], weights: Sequence[Fraction], box01: bool = False
) -> LatticeFn:
    """Minimum subgraph weight by degree sequence; with box01 only degree
    sequences inside {0,1}^n are kept."""
    best: Dict[Point, Fraction] = {(0,) * n: Fraction(0)}
    for (i, j), w in zip(edges, weights):
        inc = tuple((2 if k == i else 0) if i == j else (1 if k in (i, j) else 0) for k in range(n))
        nxt = dict(best)
        for p, v in best.items():
            q = vadd(p, inc)
            c = v + w
            if q not in nxt or c < nxt[q]:
                nxt[q] = c
        best = nxt
    if box01:
        best = {p: v for p, v in best.items() if all(c in (0, 1) for c in p)}
    return LatticeFn(n, best)


def _degree_system(n: int, edges: Sequence[Tuple[int, int]]) -> frozenset:
    """Degree sequences of the subgraphs: the domain of every weighting."""
    return frozenset(_degree_weight_fn(n, edges, [0] * len(edges)).values)


# ---------------------------------------------------------------------------
# per-class generators (sets)


def gen_box_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    box = _random_box(rng, n, window)
    return LatticeSet(n, frozenset(box.points()))


def _closure_set(rng: random.Random, n: int, window: Window, seeds: int, far_only: bool) -> LatticeSet:
    """The midpoint closure of 2..``seeds`` random points, redrawn while it
    exceeds 60 points, else a box (a box is midpoint-closed)."""
    for _ in range(40):
        pts = _midpoint_closure(_random_points(rng, window, rng.randint(2, seeds)), far_only)
        if len(pts) <= 60:
            return LatticeSet(n, pts)
    return gen_box_set(rng, n, window)


gen_lnat_set = partial(_closure_set, seeds=3, far_only=False)
gen_dmc_set = partial(_closure_set, seeds=4, far_only=True)


def gen_l_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    if n == 1:
        return LatticeSet(1, frozenset({(0,)}), lifted=True)
    base = gen_lnat_set(rng, n - 1, cube(n - 1, window.lo[0], window.hi[0]))
    reps = frozenset((0,) + p for p in base.points)
    return LatticeSet(n, reps, lifted=True)


def gen_mnat_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    box = _random_box(rng, n, window)
    total_lo = sum(box.lo)
    total_hi = sum(box.hi)
    a = rng.randint(total_lo, total_hi)
    b = rng.randint(a, total_hi)
    pts = frozenset(p for p in box.points() if a <= sum(p) <= b)
    return LatticeSet(n, pts)


def gen_m_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    if n == 1:
        return LatticeSet(1, frozenset({(rng.randint(window.lo[0], window.hi[0]),)}))
    return m_lift(gen_mnat_set(rng, n - 1, cube(n - 1, window.lo[0], window.hi[0])))


def gen_multimodular_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    return difference_transform(gen_lnat_set(rng, n, window))


def gen_cpj_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    edges = _random_multigraph(rng, n, rng.randint(2, 4 if n == 2 else 3))
    pts = _degree_system(n, edges)
    shift = tuple(rng.randint(-1, 1) for _ in range(n))
    return LatticeSet(n, frozenset(vadd(p, shift) for p in pts))


def gen_sej_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    if rng.random() < 0.5:
        return gen_mnat_set(rng, n, window)
    return gen_cpj_set(rng, n, window)


def gen_jump_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    r = rng.random()
    if r < 0.4:
        return gen_box_set(rng, n, window)
    if r < 0.7:
        return gen_cpj_set(rng, n, window)
    return gen_mnat_set(rng, n, window)


def _permuted(rng: random.Random, obj):
    """obj with its coordinates in a random order."""
    perm = list(range(obj.dim))
    rng.shuffle(perm)
    return rebuild(obj, obj.dim, {tuple(p[i] for i in perm): v for p, v in value_map(obj).items()})


def gen_ic_set(rng: random.Random, n: int, window: Window) -> LatticeSet:
    return _permuted(rng, rng.choice((gen_lnat_set, gen_mnat_set, gen_box_set))(rng, n, window))


# ---------------------------------------------------------------------------
# per-class generators (functions)


def gen_separable_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    box = _random_box(rng, n, window)
    tables = [_convex_table(rng, box.lo[i], box.hi[i]) for i in range(n)]
    vals = {p: sum((tables[i][p[i]] for i in range(n)), Fraction(0)) for p in box.points()}
    return LatticeFn(n, vals)


def gen_lnat_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    box = _random_box(rng, n, window)
    axis = [_convex_table(rng, box.lo[i], box.hi[i]) for i in range(n)]
    diff = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.7:
                diff[(i, j)] = _convex_table(rng, box.lo[i] - box.hi[j], box.hi[i] - box.lo[j])
    vals = {}
    for p in box.points():
        v = sum((axis[i][p[i]] for i in range(n)), Fraction(0))
        for (i, j), table in diff.items():
            v += table[p[i] - p[j]]
        vals[p] = v
    return LatticeFn(n, vals)


def gen_l_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    ramp = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
    if n == 1:
        return LatticeFn(1, {(0,): Fraction(0)}, lifted=True, ramp=ramp)
    g = gen_lnat_fn(rng, n - 1, cube(n - 1, window.lo[0], window.hi[0]))
    vals = {(0,) + p: v for p, v in g.values.items()}
    return LatticeFn(n, vals, lifted=True, ramp=ramp)


def laminar_fn(family: Sequence[Sequence[int]], pieces, box: Window) -> LatticeFn:
    """Sum of univariate convex pieces over groups of a laminar family,
    evaluated on a box.  ``pieces`` maps each group (as a tuple) to a
    callable on integers."""
    fam = [tuple(a) for a in family]
    vals = {}
    for p in box.points():
        vals[p] = sum(
            (Fraction(pieces[a](sum(p[i] for i in a))) for a in fam), Fraction(0)
        )
    return LatticeFn(box.dim, vals)


def gen_mnat_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    box = _random_box(rng, n, window)
    fam = _laminar_family(rng, n)
    tables = {}
    for a in fam:
        lo = sum(box.lo[i] for i in a)
        hi = sum(box.hi[i] for i in a)
        tables[a] = _convex_table(rng, lo, hi)
    vals = {}
    for p in box.points():
        vals[p] = sum((tables[a][sum(p[i] for i in a)] for a in fam), Fraction(0))
    return LatticeFn(n, vals)


def gen_m_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    if n == 1:
        t = rng.randint(window.lo[0], window.hi[0])
        return LatticeFn(1, {(t,): Fraction(rng.randint(-3, 3))})
    return m_lift(gen_mnat_fn(rng, n - 1, cube(n - 1, window.lo[0], window.hi[0])))


def gen_multimodular_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    return difference_transform(gen_lnat_fn(rng, n, window))


def _quadratic_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    box = _random_box(rng, n, window, max_width=3)
    diag = [rng.randint(1, 3) for _ in range(n)]
    cross = {}
    for i in range(n):
        for j in range(i + 1, n):
            cross[(i, j)] = rng.randint(-1, 1)
    lin = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    vals = {}
    for p in box.points():
        v = Fraction(0)
        for i in range(n):
            v += diag[i] * p[i] * p[i] + lin[i] * p[i]
        for (i, j), c in cross.items():
            v += c * p[i] * p[j]
        vals[p] = v
    return LatticeFn(n, vals)


def _quadratic_member(rng: random.Random, n: int, window: Window, label: ClassLabel) -> LatticeFn:
    """A random quadratic in ``label`` within 60 draws, else an L-natural
    function."""
    for _ in range(60):
        f = _quadratic_fn(rng, n, window)
        if check_fn(f, label).member:
            return f
    return gen_lnat_fn(rng, n, window)


gen_gdmc_fn = partial(_quadratic_member, label=ClassLabel.GLOBAL_DMC_FN)
gen_ldmc_fn = partial(_quadratic_member, label=ClassLabel.LOCAL_DMC_FN)


def gen_jump_m_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    if rng.random() < 0.3:
        return gen_m_fn(rng, n, window)
    edges = _random_multigraph(rng, n, rng.randint(2, 4 if n == 2 else 3))
    weights = [Fraction(rng.randint(-2, 3), rng.choice((1, 2))) for _ in edges]
    return _degree_weight_fn(n, edges, weights)


def gen_jump_m_fn_01(rng: random.Random, n: int, window: Window) -> LatticeFn:
    """Jump M instance with domain inside {0,1}^n (matchable degree
    sequences of a loopless graph)."""
    while True:
        edges = [e for e in _random_multigraph(rng, n, rng.randint(2, 5)) if e[0] != e[1]]
        if edges:
            break
    weights = [Fraction(rng.randint(-2, 3), rng.choice((1, 2))) for _ in edges]
    return _degree_weight_fn(n, edges, weights, box01=True)


def gen_jump_mnat_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    if rng.random() < 0.5:
        return gen_mnat_fn(rng, n, window)
    return gen_jump_m_fn(rng, n, window)


def gen_ic_fn(rng: random.Random, n: int, window: Window) -> LatticeFn:
    return _permuted(rng, rng.choice((gen_lnat_fn, gen_mnat_fn, gen_separable_fn))(rng, n, window))


_SET_GENERATORS: Dict[ClassLabel, Callable] = {
    ClassLabel.INTEGER_BOX: gen_box_set,
    ClassLabel.IC_SET: gen_ic_set,
    ClassLabel.LNAT_SET: gen_lnat_set,
    ClassLabel.L_SET: gen_l_set,
    ClassLabel.MNAT_SET: gen_mnat_set,
    ClassLabel.M_SET: gen_m_set,
    ClassLabel.MULTIMODULAR_SET: gen_multimodular_set,
    ClassLabel.GLOBAL_DMC_SET: gen_dmc_set,
    ClassLabel.JUMP_SYSTEM: gen_jump_set,
    ClassLabel.CONST_PARITY_JUMP: gen_cpj_set,
    ClassLabel.SIMULT_EXCH_JUMP: gen_sej_set,
}

_FN_GENERATORS: Dict[ClassLabel, Callable] = {
    ClassLabel.SEPARABLE_CONVEX: gen_separable_fn,
    ClassLabel.IC_FN: gen_ic_fn,
    ClassLabel.LNAT_FN: gen_lnat_fn,
    ClassLabel.L_FN: gen_l_fn,
    ClassLabel.MNAT_FN: gen_mnat_fn,
    ClassLabel.M_FN: gen_m_fn,
    ClassLabel.MULTIMODULAR_FN: gen_multimodular_fn,
    ClassLabel.GLOBAL_DMC_FN: gen_gdmc_fn,
    ClassLabel.LOCAL_DMC_FN: gen_ldmc_fn,
    ClassLabel.JUMP_M_FN: gen_jump_m_fn,
    ClassLabel.JUMP_MNAT_FN: gen_jump_mnat_fn,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Request for one random class member.

    ``params`` optionally pins the structure instead of randomizing it:
    {"laminar": family, "pieces": {group: callable}} for the laminar
    M-natural family, or {"edges": [(i, j), ...], "weights": [...]} for
    degree-system instances (sets ignore "weights").
    """

    label: ClassLabel
    dim: int
    window: Window
    seed: object = 0
    budget: int = 200
    params: Optional[dict] = None


def _structured_instance(config: GeneratorConfig, label: ClassLabel):
    p = config.params
    if "laminar" in p:
        return laminar_fn(p["laminar"], p["pieces"], config.window)
    if "edges" in p:
        edges = [tuple(e) for e in p["edges"]]
        if label in FN_LABELS:
            weights = [Fraction(w) for w in p["weights"]]
            return _degree_weight_fn(config.dim, edges, weights, bool(p.get("box01")))
        return LatticeSet(config.dim, _degree_system(config.dim, edges))
    raise ValueError(f"unsupported generator params {sorted(p)}")


def generate(config: GeneratorConfig):
    """Random instance of the requested class, drawn from a stream seeded by
    the request; the class recognizer is asserted on every emitted
    instance."""
    label = ClassLabel(config.label)
    if config.params is not None:
        obj = _structured_instance(config, label)
        verdict = check(obj, label)
        if not verdict.member:
            raise ValueError(
                f"requested structure is not {label.value}; witness {verdict.witness}"
            )
        return obj
    rng = _rng(config.seed, "gen", label.value, config.dim)
    return draw(label, rng, config.dim, config.window, config.budget)


def draw(
    label: ClassLabel,
    rng: random.Random,
    n: int,
    window: Window,
    budget: int = 200,
    size_cap: Optional[int] = None,
):
    """Rejection sampling of a class member from a live Random stream:
    candidates that fail the class recognizer are redrawn, up to ``budget``
    attempts; ``size_cap`` rejects instances with more stored points,
    keeping trials cheap."""
    label = ClassLabel(label)
    gen = _SET_GENERATORS.get(label) or _FN_GENERATORS.get(label)
    for _ in range(budget):
        obj = gen(rng, n, window)
        if size_cap is not None and len(obj) > size_cap:
            continue
        if check(obj, label).member:
            return obj
    raise RejectionBudgetError(label.value, budget)


# ---------------------------------------------------------------------------
# lifts tying the M-flavored classes together


def m_lift(f):
    """Embed f into one more variable forced to the negated coordinate sum;
    f has the exchange property iff the lift has the stronger one."""
    return rebuild(f, f.dim + 1, {(-sum(p),) + p: v for p, v in value_map(f).items()})


def parity_lift(f: LatticeFn) -> LatticeFn:
    """Prepend the coordinate-sum parity bit as a new variable."""
    return LatticeFn(f.dim + 1, {(sum(p) % 2,) + p: v for p, v in f.values.items()})


# ---------------------------------------------------------------------------
# perturbation sampling for the argmin tests


def sample_perturbations(n: int, rng: random.Random, extra: int = 50) -> List[Tuple[Fraction, ...]]:
    """Grid {-2,-1,-1/2,0,1/2,1,2}^n (for n <= 3) plus random rational
    vectors; distinct argmin sets are piecewise constant in the
    perturbation, so this exercises several cells."""
    out: List[Tuple[Fraction, ...]] = []
    if n <= 3:
        grid = [rat(-2), rat(-1), rat(-1, 2), rat(0), rat(1, 2), rat(1), rat(2)]
        stack = [()]
        for _ in range(n):
            stack = [t + (g,) for t in stack for g in grid]
        out.extend(stack)
    for _ in range(extra):
        out.append(tuple(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4))) for _ in range(n)))
    return out


# ---------------------------------------------------------------------------
# counterexample registry


@dataclass
class RecordResult:
    record_id: str
    passed: bool
    messages: List[str] = field(default_factory=list)


class _Checker:
    def __init__(self, record_id: str):
        self.result = RecordResult(record_id, True)

    def expect(self, ok: bool, msg: str) -> None:
        tag = "ok" if ok else "FAIL"
        self.result.messages.append(f"[{tag}] {msg}")
        if not ok:
            self.result.passed = False

    def expect_verdict(self, verdict: Verdict, member: bool, obj, msg: str) -> None:
        self.expect(verdict.member == member, msg)
        if not verdict.member and verdict.witness is not None:
            self.expect(
                verify_witness(obj, verdict.witness),
                f"returned witness replays: {verdict.witness.kind} {verdict.witness.points}",
            )


@dataclass(frozen=True)
class CounterexampleRecord:
    record_id: str
    title: str
    run: Callable[[], RecordResult]


def _build_two_param_jump_fn(alpha: Fraction, beta: Fraction) -> LatticeFn:
    vals = {}
    for x1 in range(5):
        for x2 in range(5):
            if (x1 + x2) % 2 != 0:
                continue
            if x1 % 2 == 0 and x2 % 2 == 0:
                vals[(x1, x2)] = Fraction(0)
            elif x1 == 1:
                vals[(x1, x2)] = Fraction(alpha)
            else:
                vals[(x1, x2)] = Fraction(beta)
    return LatticeFn(2, vals)


def _run_ex22() -> RecordResult:
    c = _Checker("EX2.2")
    f = _build_two_param_jump_fn(rat(1), rat(2))
    v = check_fn(f, ClassLabel.JUMP_M_FN)
    c.expect_verdict(v, False, f, "two-parameter function (1, 2) is not jump M-convex")
    pinned = Witness("jump-m-fn", ((4, 4), (1, 1), (-1, 0)))
    c.expect(verify_witness(f, pinned), "violation at x=(4,4), y=(1,1), s=(-1,0) replays")
    g = _build_two_param_jump_fn(rat(1), rat(1))
    c.expect(check_fn(g, ClassLabel.JUMP_M_FN).member, "equal parameters give a jump M-convex function")
    even = frozenset((a, b) for a in (0, 2, 4) for b in (0, 2, 4))
    c.expect(
        argmin_perturbed(f, (0, 0)).points == even,
        "unperturbed minimizers are the nine even points",
    )
    c.expect(
        argmin_perturbed(f, (1, 0)).points == frozenset({(4, 0), (4, 2), (4, 4)}),
        "perturbation (1,0) selects the right edge",
    )
    rng = _rng("ex22", "argmin")
    ok = True
    for cv in sample_perturbations(2, rng, extra=20):
        if not check_set(argmin_perturbed(f, cv), ClassLabel.CONST_PARITY_JUMP).member:
            ok = False
            break
    c.expect(ok, "every sampled perturbed argmin is a constant-parity jump system")
    return c.result


def _run_ex31() -> RecordResult:
    c = _Checker("EX3.1")
    s = LatticeSet(1, frozenset({(0,)}))
    w = cube(2, -2, 2)
    t = split_set(s, SplitSpec((2,)), w)
    c.expect(
        t.points == frozenset({(a, -a) for a in range(-2, 3)}),
        "splitting the origin gives the antidiagonal",
    )
    for label in (ClassLabel.INTEGER_BOX, ClassLabel.LNAT_SET, ClassLabel.GLOBAL_DMC_SET):
        c.expect_verdict(check_set(t, label), False, t, f"antidiagonal fails {label.value}")
    c.expect(check_set(s, ClassLabel.INTEGER_BOX).member, "the origin is an integer box")
    c.expect(check_set(s, ClassLabel.LNAT_SET).member, "the origin is midpoint closed")
    net = splitting_network((2,), w)
    c.expect(transform_set(s, net) == t, "bipartite splitting network reproduces the split")
    g = split_fn(indicator_fn(s), SplitSpec((2,)), w)
    for label in (
        ClassLabel.SEPARABLE_CONVEX,
        ClassLabel.LNAT_FN,
        ClassLabel.GLOBAL_DMC_FN,
        ClassLabel.LOCAL_DMC_FN,
    ):
        c.expect_verdict(check_fn(g, label), False, g, f"split indicator fails {label.value}")
    c.expect(induce_fn(indicator_fn(s), net) == g, "network induction reproduces the split indicator")
    return c.result


def _run_ex32() -> RecordResult:
    c = _Checker("EX3.2")
    s = LatticeSet(2, frozenset({(0, 0)}), lifted=True)  # the diagonal of Z^2
    c.expect(check_set(s, ClassLabel.L_SET).member, "the diagonal is L-convex")
    mat = restrict_to_window(s, cube(2, -2, 2))
    t = split_set(mat, SplitSpec((1, 2)), cube(3, -2, 2))
    c.expect((0, 0, 0) in t.points and (1, 1, 1) not in t.points, "the all-ones shift leaves the split")
    v = check_set(t, ClassLabel.L_SET)
    c.expect_verdict(v, False, t, "split of the diagonal fails the L-convex sample check")
    pinned = Witness("ones-shift", ((0, 0, 0), (1, 1, 1)))
    c.expect(verify_witness(t, pinned), "shift witness (0,0,0) -> (1,1,1) replays")
    g = split_fn(indicator_fn(mat), SplitSpec((1, 2)), cube(3, -2, 2))
    c.expect_verdict(check_fn(g, ClassLabel.L_FN), False, g, "split indicator fails the L sample check")
    return c.result


_IC_AGG_SET = frozenset({(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)})
_IC_AGG_RESULT = frozenset({(1, 0), (0, 1), (2, 1), (1, 2)})


def _run_ex33() -> RecordResult:
    c = _Checker("EX3.3")
    s = LatticeSet(4, _IC_AGG_SET)
    c.expect(check_set(s, ClassLabel.IC_SET).member, "the four-point set is integrally convex")
    c.expect(check_set(s, ClassLabel.GLOBAL_DMC_SET).member, "it is discrete midpoint convex too")
    spec = PartitionSpec(((0, 2), (1, 3)))
    t = aggregate_set(s, spec)
    c.expect(t.points == _IC_AGG_RESULT, "aggregation by the interleaved pairs")
    c.expect_verdict(check_set(t, ClassLabel.IC_SET), False, t, "the image is not integrally convex")
    c.expect_verdict(check_set(t, ClassLabel.GLOBAL_DMC_SET), False, t, "the image is not d.m.c.")
    c.expect(not in_local_hull(t, (Fraction(1), Fraction(1))), "(1,1) has an empty local hull in the image")
    box = s.bounding_box()
    net = aggregation_network(spec.groups, list(zip(box.lo, box.hi)))
    c.expect(transform_set(s, net) == t, "bipartite aggregation network reproduces the image")
    g = aggregate_fn(indicator_fn(s), spec)
    for label in (ClassLabel.IC_FN, ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN):
        c.expect_verdict(check_fn(g, label), False, g, f"image indicator fails {label.value}")
    return c.result


_LNAT_AGG_SET = frozenset(
    {
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1),
        (1, 1, 0, 0, 0, 0),
        (1, 1, 0, 0, 1, 1),
    }
)
_LNAT_AGG_RESULT = frozenset({(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)})
_PAIRS_SPEC_6 = PartitionSpec(((0, 3), (1, 4), (2, 5)))


def _run_ex34() -> RecordResult:
    c = _Checker("EX3.4")
    s = LatticeSet(6, _LNAT_AGG_SET)
    c.expect(check_set(s, ClassLabel.LNAT_SET).member, "the six-dimensional source is midpoint closed")
    t = aggregate_set(s, _PAIRS_SPEC_6)
    c.expect(t.points == _LNAT_AGG_RESULT, "aggregation by the three pairs")
    c.expect_verdict(check_set(t, ClassLabel.LNAT_SET), False, t, "the image is not midpoint closed")
    pinned = Witness("midpoint", ((0, 1, 1), (1, 1, 0)))
    c.expect(verify_witness(t, pinned), "midpoint witness (0,1,1) / (1,1,0) replays")
    box = s.bounding_box()
    net = aggregation_network(_PAIRS_SPEC_6.groups, list(zip(box.lo, box.hi)))
    c.expect(transform_set(s, net) == t, "bipartite aggregation network reproduces the image")
    g = aggregate_fn(indicator_fn(s), _PAIRS_SPEC_6)
    c.expect_verdict(check_fn(g, ClassLabel.LNAT_FN), False, g, "image indicator fails lnat-fn")
    return c.result


def _lifted_pair_sum(f1, f2):
    """Pairwise aggregation of the direct sum of two lifted objects: both
    lift shifts merge into one, so the result is an ordinary lifted object
    ramping by ramp1 + ramp2 whose representatives are the sums p + q of
    representatives (last coordinates stay 0), with the least v + w.  That
    is the convolution of the stored representatives."""
    reps = [rebuild(f, f.dim, value_map(f)) for f in (f1, f2)]
    return rebuild(f1, f1.dim, value_map(convolution_fn(*reps)), lifted=True, ramp=f1.ramp + f2.ramp)


def _run_ex35() -> RecordResult:
    c = _Checker("EX3.5")
    s1 = LatticeSet(4, frozenset({(0, 0, 0, 0), (1, 1, 0, 0)}), lifted=True)
    s2 = LatticeSet(4, frozenset({(0, 0, 0, 0), (0, 1, 1, 0)}), lifted=True)
    c.expect(check_set(s1, ClassLabel.L_SET).member, "first factor is L-convex")
    c.expect(check_set(s2, ClassLabel.L_SET).member, "second factor is L-convex")
    t = _lifted_pair_sum(s1, s2)
    c.expect(
        t.points == frozenset({(0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 2, 1, 0)}),
        "pairwise aggregation of the direct sum",
    )
    c.expect((1, 1, 1, 0) not in t, "the join (1,1,1,0) is missing")
    c.expect((0, 1, 0, 0) not in t, "the meet (0,1,0,0) is missing")
    c.expect_verdict(check_set(t, ClassLabel.L_SET), False, t, "the image is not L-convex")
    pinned = Witness("submodular", ((0, 1, 1, 0), (1, 1, 0, 0)))
    c.expect(verify_witness(t, pinned), "join/meet witness replays")
    g = _lifted_pair_sum(indicator_fn(s1), indicator_fn(s2))
    c.expect_verdict(check_fn(g, ClassLabel.L_FN), False, g, "image indicator fails l-fn")
    return c.result


_MM_AGG_SOURCE = frozenset(
    {
        (0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0),
        (1, 0, -1, 0, 0, 0),
        (1, 0, -1, 0, 1, 0),
    }
)
_MM_AGG_RESULT = frozenset({(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)})


def _run_ex36() -> RecordResult:
    c = _Checker("EX3.6")
    s6 = LatticeSet(6, _LNAT_AGG_SET)
    ms = difference_transform(s6)
    c.expect(ms.points == _MM_AGG_SOURCE, "difference coordinates of the midpoint-closed source")
    c.expect(check_set(ms, ClassLabel.MULTIMODULAR_SET).member, "the source is multimodular")
    c.expect(
        multimodular_polyhedral_check(ms, ms.bounding_box()),
        "interval-sum bounds describe the source exactly",
    )
    t = aggregate_set(ms, _PAIRS_SPEC_6)
    c.expect(t.points == _MM_AGG_RESULT, "aggregation by the three pairs")
    c.expect_verdict(check_set(t, ClassLabel.MULTIMODULAR_SET), False, t, "the image is not multimodular")
    c.expect(
        not multimodular_polyhedral_check(t, t.bounding_box()),
        "no interval-sum bounds describe the image",
    )
    c.expect(
        prefix_transform(t).points == _LNAT_AGG_RESULT,
        "prefix coordinates of the image give the earlier non-closed set",
    )
    pinned = Witness("multimodular-midpoint", ((0, 1, 0), (1, 0, -1)))
    c.expect(verify_witness(t, pinned), "mapped midpoint witness replays")
    box = ms.bounding_box()
    net = aggregation_network(_PAIRS_SPEC_6.groups, list(zip(box.lo, box.hi)))
    c.expect(transform_set(ms, net) == t, "bipartite aggregation network reproduces the image")
    g = aggregate_fn(indicator_fn(ms), _PAIRS_SPEC_6)
    c.expect_verdict(check_fn(g, ClassLabel.MULTIMODULAR_FN), False, g, "image indicator fails multimodular-fn")
    return c.result


def _run_ex_dmc_directsum() -> RecordResult:
    c = _Checker("EX-DMC-DS")
    s1 = LatticeSet(2, frozenset({(1, 0), (0, 1)}))
    s2 = LatticeSet(1, frozenset((t,) for t in range(-2, 3)))  # a window of Z
    c.expect(check_set(s1, ClassLabel.GLOBAL_DMC_SET).member, "two antipodal points are d.m.c.")
    c.expect(check_set(s2, ClassLabel.GLOBAL_DMC_SET).member, "an interval is d.m.c.")
    t = direct_sum_set(s1, s2)
    c.expect((1, 0, 2) in t.points and (0, 1, 0) in t.points, "witness pair lies in the sum")
    c.expect((1, 1, 1) not in t.points and (0, 0, 1) not in t.points, "rounded midpoints are missing")
    c.expect_verdict(check_set(t, ClassLabel.GLOBAL_DMC_SET), False, t, "the direct sum is not d.m.c.")
    pinned = Witness("midpoint-far", ((0, 1, 0), (1, 0, 2)))
    c.expect(verify_witness(t, pinned), "pinned witness replays")
    return c.result


def _dmc_quadratic_pair():
    f1 = LatticeFn(
        2,
        {
            (a, b): Fraction(a * a + a * b + b * b)
            for a in range(-2, 3)
            for b in range(-2, 3)
        },
    )
    f2 = LatticeFn(1, {(t,): Fraction(0) for t in range(-2, 3)})
    return f1, f2


def _run_ex41() -> RecordResult:
    c = _Checker("EX4.1")
    f1, f2 = _dmc_quadratic_pair()
    for label in (ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN):
        c.expect(check_fn(f1, label).member, f"the binary quadratic is {label.value}")
        c.expect(check_fn(f2, label).member, f"the zero function is {label.value}")
    g = direct_sum_fn(f1, f2)
    x, y = (1, 0, 0), (0, 1, 2)
    u, v = (1, 1, 1), (0, 0, 1)
    c.expect(
        g.values[x] + g.values[y] == 2 and g.values[u] + g.values[v] == 3,
        "violating values are 1 + 1 < 3 + 0",
    )
    for label in (ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN):
        c.expect_verdict(check_fn(g, label), False, g, f"the direct sum fails {label.value}")
    c.expect(verify_witness(g, Witness("midpoint-far", (x, y))), "global witness replays")
    c.expect(verify_witness(g, Witness("midpoint-two", (x, y))), "local witness replays")
    return c.result


# capacity bounds of the laminar tree: root arc, middle arc, leaf arcs
_ROOT_BOUND, _MID_BOUND, _LEAF_BOUND = 6, 4, 2


def laminar_tree_network() -> Network:
    """Rooted tree whose induced function is
    |y1+y2+y3| + (y1+y2)^2 + y3^2."""
    root, mid, leaf = _ROOT_BOUND, _MID_BOUND, _LEAF_BOUND
    sq = lambda t: t * t
    arcs = (
        Arc("u", "a", -root, root, ArcCost.from_callable(-root, root, abs)),
        Arc("a", "b", -mid, mid, ArcCost.from_callable(-mid, mid, sq)),
        Arc("a", "w3", -leaf, leaf, ArcCost.from_callable(-leaf, leaf, sq)),
        Arc("b", "w1", -leaf, leaf),
        Arc("b", "w2", -leaf, leaf),
    )
    return Network(("u", "a", "b", "w1", "w2", "w3"), arcs, ("u",), ("w1", "w2", "w3"))


def laminar_closed_form(y: Point) -> Fraction:
    return Fraction(abs(y[0] + y[1] + y[2]) + (y[0] + y[1]) ** 2 + y[2] ** 2)


def _run_ex42() -> RecordResult:
    c = _Checker("EX4.2")
    net = laminar_tree_network()
    f = LatticeFn(1, {(t,): Fraction(0) for t in range(-6, 7)})
    g = induce_fn(f, net)
    c.expect(g.values.get((1, 0, 0)) == 2, "induced value at (1,0,0) is 2")
    wanted = set(cube(3, -2, 2).points())
    c.expect(set(g.values) == wanted, "induced domain is the full window")
    plus = all(g.values[y] == laminar_closed_form(y) for y in wanted)
    minus = all(g.values[y] == laminar_closed_form(tuple(-t for t in y)) for y in wanted)
    c.expect(plus or minus, "one demand-sign orientation matches the closed form")
    c.expect(
        plus and minus,
        "both orientations match (the closed form is symmetric under negation)",
    )
    return c.result


REGISTRY: Dict[str, CounterexampleRecord] = {
    r.record_id: r
    for r in (
        CounterexampleRecord("EX2.2", "two-parameter jump function and its minimizers", _run_ex22),
        CounterexampleRecord("EX3.1", "splitting the origin", _run_ex31),
        CounterexampleRecord("EX3.2", "splitting the diagonal", _run_ex32),
        CounterexampleRecord("EX3.3", "aggregating an integrally convex set", _run_ex33),
        CounterexampleRecord("EX3.4", "aggregating a midpoint-closed set", _run_ex34),
        CounterexampleRecord("EX3.5", "aggregating an all-ones-invariant direct sum", _run_ex35),
        CounterexampleRecord("EX3.6", "aggregating a multimodular set", _run_ex36),
        CounterexampleRecord("EX4.1", "direct sum losing midpoint convexity", _run_ex41),
        CounterexampleRecord("EX4.2", "tree network inducing a laminar objective", _run_ex42),
        CounterexampleRecord("EX-DMC-DS", "direct sum losing midpoint convexity (sets)", _run_ex_dmc_directsum),
    )
}


def run_counterexamples(ids: Optional[Sequence[str]] = None) -> List[RecordResult]:
    chosen = sorted(REGISTRY) if ids is None else list(ids)
    out = []
    for rid in chosen:
        if rid not in REGISTRY:
            raise KeyError(f"unknown counterexample id {rid!r}")
        out.append(REGISTRY[rid].run())
    return out


# ---------------------------------------------------------------------------
# closure matrix


OPS = ("direct-sum", "splitting", "aggregation", "network")


@dataclass(frozen=True)
class CellSpec:
    table: int
    row: ClassLabel
    display: str
    op: str
    expected: str  # "Y" or "N"
    records: Tuple[str, ...] = ()


_BOX_RECORDS = {"splitting": ("EX3.1",), "network": ("EX3.1",)}
_DMC_RECORDS = {"splitting": ("EX3.1",), "aggregation": ("EX3.3",), "network": ("EX3.3",)}

# Rows (set label, function label, display, pattern, records) that the two
# tables share: each set class closes exactly where its function class does.
_SHARED_ROWS = (
    (
        ClassLabel.IC_SET,
        ClassLabel.IC_FN,
        "Integrally convex",
        "YYNN",
        {"aggregation": ("EX3.3",), "network": ("EX3.3",)},
    ),
    (
        ClassLabel.LNAT_SET,
        ClassLabel.LNAT_FN,
        "L-natural-convex",
        "YNNN",
        {"splitting": ("EX3.1",), "aggregation": ("EX3.4",), "network": ("EX3.1", "EX3.4")},
    ),
    (
        ClassLabel.L_SET,
        ClassLabel.L_FN,
        "L-convex",
        "YNNN",
        {"splitting": ("EX3.2",), "aggregation": ("EX3.5",), "network": ("EX3.2", "EX3.5")},
    ),
    (ClassLabel.MNAT_SET, ClassLabel.MNAT_FN, "M-natural-convex", "YYYY", {}),
    (ClassLabel.M_SET, ClassLabel.M_FN, "M-convex", "YYYY", {}),
    (
        ClassLabel.MULTIMODULAR_SET,
        ClassLabel.MULTIMODULAR_FN,
        "Multimodular",
        "YYNN",
        {"aggregation": ("EX3.6",), "network": ("EX3.6",)},
    ),
)


def _rows_table1():
    return (
        (ClassLabel.INTEGER_BOX, "Integer box", "YNYN", _BOX_RECORDS),
        *((label, display, pattern, records) for label, _, display, pattern, records in _SHARED_ROWS),
        (ClassLabel.GLOBAL_DMC_SET, "Disc. midpoint convex", "NNNN", {"direct-sum": ("EX-DMC-DS",), **_DMC_RECORDS}),
        (ClassLabel.SIMULT_EXCH_JUMP, "Simult. exch. jump", "YYYY", {}),
        (ClassLabel.CONST_PARITY_JUMP, "Const-parity jump", "YYYY", {}),
    )


def _rows_table2():
    return (
        (ClassLabel.SEPARABLE_CONVEX, "Separable convex", "YNYN", _BOX_RECORDS),
        *((label, display, pattern, records) for _, label, display, pattern, records in _SHARED_ROWS),
        (ClassLabel.GLOBAL_DMC_FN, "Globally d.m.c.", "NNNN", {"direct-sum": ("EX4.1",), **_DMC_RECORDS}),
        (ClassLabel.LOCAL_DMC_FN, "Locally d.m.c.", "NNNN", {"direct-sum": ("EX4.1",), **_DMC_RECORDS}),
        (ClassLabel.JUMP_MNAT_FN, "Jump M-natural-convex", "YYYY", {}),
        (ClassLabel.JUMP_M_FN, "Jump M-convex", "YYYY", {}),
    )


def matrix_cells() -> List[CellSpec]:
    cells = []
    for table, rows in ((1, _rows_table1()), (2, _rows_table2())):
        for label, display, pattern, records in rows:
            for op, expected in zip(OPS, pattern):
                cells.append(
                    CellSpec(table, label, display, op, expected, tuple(records.get(op, ())))
                )
    return cells


# hull-based recognizers pay an LP per point pair, so their trials stay small
_SMALL_ROWS = {
    ClassLabel.IC_SET,
    ClassLabel.IC_FN,
    ClassLabel.MULTIMODULAR_SET,
    ClassLabel.MULTIMODULAR_FN,
}

_TRIAL_SIZE_CAP = {
    ClassLabel.IC_SET: 8,
    ClassLabel.IC_FN: 8,
}

_SPLIT_INPUT_CAP = 10
_SPLIT_RESULT_CAP = 90


def _trial_window(row: ClassLabel, n: int) -> Window:
    if row in (ClassLabel.IC_SET, ClassLabel.IC_FN):
        return cube(n, 0, 2)
    if row in _SMALL_ROWS or row in (ClassLabel.LNAT_SET, ClassLabel.LNAT_FN):
        return cube(n, -1, 1)
    return cube(n, -2, 2)


def _trial_margin(row: ClassLabel) -> int:
    # jump rows keep margin 2 so every exchange target stays in the window;
    # hull-based rows shrink the split image instead (still sound: all the
    # split-closed classes survive intersection with a box)
    return 1 if row in _SMALL_ROWS else 2


def _draw_input(row: ClassLabel, rng: random.Random, n: int, cap: Optional[int] = None):
    if cap is None:
        cap = _TRIAL_SIZE_CAP.get(row)
    return draw(row, rng, n, _trial_window(row, n), size_cap=cap)


def _split_trial_result(row, rng, n, max_dim):
    """Split a drawn instance, re-drawing a few times when the image blows
    up; size is a property of the chosen instance, not of its verdict, so
    this keeps trials cheap without biasing them."""
    res = None
    cap = min(_SPLIT_INPUT_CAP, _TRIAL_SIZE_CAP.get(row, _SPLIT_INPUT_CAP))
    for _ in range(8):
        obj = _draw_input(row, rng, n, cap=cap)
        spec = _random_blocks(rng, n, max_dim)
        res = split_fn(obj, spec, _split_window(obj, spec, _trial_margin(row)))
        if len(res) <= _SPLIT_RESULT_CAP:
            break
    return res


def _random_partition(rng: random.Random, n: int) -> PartitionSpec:
    m = rng.randint(1, n - 1)
    idx = list(range(n))
    rng.shuffle(idx)
    cuts = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
    groups = []
    prev = 0
    for cpos in cuts + [n]:
        groups.append(tuple(sorted(idx[prev:cpos])))
        prev = cpos
    return PartitionSpec(tuple(groups))


def _random_blocks(rng: random.Random, n: int, max_out: int) -> SplitSpec:
    blocks = [1] * n
    extra = rng.randint(1, max(1, max_out - n))
    for _ in range(extra):
        blocks[rng.randrange(n)] += 1
    return SplitSpec(tuple(blocks))


def _split_window(obj, spec: SplitSpec, margin: int = 2) -> Window:
    box = obj.bounding_box()
    lo, hi = [], []
    for i, b in enumerate(spec.blocks):
        for _ in range(b):
            lo.append(min(box.lo[i], 0) - margin)
            hi.append(max(box.hi[i], 0) + margin)
    return Window(tuple(lo), tuple(hi))


def _random_network(rng: random.Random, n_in: int, n_out: int, with_costs: bool) -> Network:
    us = [f"u{i}" for i in range(n_in)]
    ws = [f"w{j}" for j in range(n_out)]
    vertices = us + ws
    arcs = []

    def cap():
        lo = rng.randint(-2, 0)
        hi = rng.randint(max(lo, 0), lo + 4)
        return lo, hi

    def mk(t, h):
        lo, hi = cap()
        cost = ArcCost.from_table(_convex_table(rng, lo, hi)) if with_costs and rng.random() < 0.8 else ArcCost.zero()
        return Arc(t, h, lo, hi, cost)

    for i, u in enumerate(us):
        arcs.append(mk(u, ws[rng.randrange(n_out)]))
    for j, w in enumerate(ws):
        if not any(a.head == w for a in arcs):
            arcs.append(mk(us[rng.randrange(n_in)], w))
    for _ in range(rng.randint(0, 2)):
        arcs.append(mk(us[rng.randrange(n_in)], ws[rng.randrange(n_out)]))
    if rng.random() < 0.3:
        vertices = vertices + ["z"]
        arcs.append(mk(us[rng.randrange(n_in)], "z"))
        arcs.append(mk("z", ws[rng.randrange(n_out)]))
    return Network(tuple(vertices), tuple(arcs), tuple(us), tuple(ws))


def _trial(row: ClassLabel, op: str, rng: random.Random, max_dim: int) -> Tuple[bool, object]:
    """One positive trial; returns (passed, transformed object)."""
    if op == "direct-sum":
        if row in (ClassLabel.L_SET, ClassLabel.L_FN):
            a = _draw_input(row, rng, 2)
            b = _draw_input(row, rng, 2)
            res = direct_sum_lifted_fn(a, b, shift_bound=2)
        else:
            n1 = rng.randint(1, 2)
            n2 = rng.randint(1, min(2, max_dim - n1))
            a = _draw_input(row, rng, n1)
            b = _draw_input(row, rng, n2)
            res = direct_sum_fn(a, b)
    elif op == "splitting":
        n = rng.randint(2, max_dim - 1)
        res = _split_trial_result(row, rng, n, max_dim)
    elif op == "aggregation":
        n = rng.randint(2, max_dim)
        obj = _draw_input(row, rng, n)
        res = aggregate_fn(obj, _random_partition(rng, n))
    else:
        # arc costs only matter to functions; a set's image keeps the domain
        for _ in range(40):
            n = rng.randint(2, 3)
            m = rng.randint(2, 3)
            obj = _draw_input(row, rng, n)
            net = _random_network(rng, n, m, with_costs=row in FN_LABELS)
            try:
                res = induce_fn(obj, net)
            except EmptyResultError:
                continue
            if len(res):
                break
        else:
            raise RejectionBudgetError(f"{row.value} network trial", 40)
    if not len(res):
        return True, res  # vacuous: nothing to certify for an empty set image
    return check(res, row).member, res


# A set trial is the function trial on indicator functions.  Both names stay
# module attributes looked up per cell, so a caller can wrap either one
# (perfbench's matrix workload times every trial that way).
_set_trial = _fn_trial = _trial


@dataclass
class CellResult:
    spec: CellSpec
    ok: bool
    trials: int = 0
    passed: int = 0
    failures: List[str] = field(default_factory=list)


@dataclass
class MatrixReport:
    seed: object
    trials: int
    max_dim: int
    cells: List[CellResult]
    registry: Dict[str, RecordResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cells) and all(r.passed for r in self.registry.values())

    def render_text(self) -> str:
        lines = [f"closure matrix: trials={self.trials} seed={self.seed} max-dim={self.max_dim}", ""]
        width = 18
        for table, title in ((1, "Sets"), (2, "Functions")):
            lines.append(f"{title:<24}" + "".join(f"{op:>{width}}" for op in OPS))
            for display in dict.fromkeys(c.spec.display for c in self.cells if c.spec.table == table):
                row_cells = [
                    c for c in self.cells if c.spec.table == table and c.spec.display == display
                ]
                entries = []
                for c in row_cells:
                    if c.spec.expected == "Y":
                        mark = "Y" if c.ok else "FAIL"
                        entries.append(f"{mark} {c.passed}/{c.trials}")
                    else:
                        mark = "N" if c.ok else "FAIL"
                        entries.append(f"{mark} ({','.join(c.spec.records)})")
                lines.append(f"{display:<24}" + "".join(f"{e:>{width}}" for e in entries))
            lines.append("")
        bad = [r for r in self.registry.values() if not r.passed]
        lines.append(f"registry records used: {', '.join(sorted(self.registry))}")
        lines.append("result: " + ("all cells match" if self.passed else "MISMATCH"))
        if bad:
            lines.append("failing records: " + ", ".join(r.record_id for r in bad))
        return "\n".join(lines) + "\n"

    def to_payload(self) -> Dict:
        return {
            "seed": str(self.seed),
            "trials": self.trials,
            "max_dim": self.max_dim,
            "passed": self.passed,
            "cells": [
                {
                    "table": c.spec.table,
                    "row": c.spec.display,
                    "label": c.spec.row.value,
                    "op": c.spec.op,
                    "expected": c.spec.expected,
                    "ok": c.ok,
                    "trials": c.trials,
                    "passed": c.passed,
                    "records": list(c.spec.records),
                    "failures": list(c.failures),
                }
                for c in self.cells
            ],
            "registry": {
                rid: {"passed": r.passed, "messages": list(r.messages)}
                for rid, r in self.registry.items()
            },
        }


def run_closure_matrix(trials: int, seed, max_dim: int = 4) -> MatrixReport:
    """Positive trials for every closed cell, registry replays for every
    non-closed cell; the emitted grid must match the expected one."""
    if trials < 1:
        raise ValueError("at least one trial per closed cell is required")
    cells = matrix_cells()
    needed = sorted({rid for c in cells for rid in c.records})
    registry = {rid: REGISTRY[rid].run() for rid in needed}
    results: List[CellResult] = []
    for cell in cells:
        if cell.expected == "N":
            ok = all(registry[rid].passed for rid in cell.records)
            results.append(CellResult(cell, ok))
            continue
        runner = _fn_trial if cell.row in FN_LABELS else _set_trial
        result = CellResult(cell, True, trials, 0)
        for t in range(trials):
            rng = _rng(seed, cell.table, cell.row.value, cell.op, t)
            try:
                passed, res = runner(cell.row, cell.op, rng, max_dim)
            except RejectionBudgetError as e:
                passed, res = False, None
                result.failures.append(f"trial {t}: {e}")
            if passed:
                result.passed += 1
            else:
                result.ok = False
                if res is not None:
                    result.failures.append(
                        f"trial {t}: " + documents.to_text(res).replace("\n", " ")
                    )
        results.append(result)
    return MatrixReport(seed, trials, max_dim, results, registry)
