"""Differential checks between independent code paths.

Production decides every set class through the axiom table it shares with
the function classes, so the set verdicts are compared, witness and all,
with the per-class set scanners kept in ``set_oracles``.  L-convex objects
are decided on their section x_n = 0 when lifted and as L♮ with one ramp
when finite, and the oracle scans Z^n by submodularity, a finite object
through its lift along 1, so there the verdicts are compared in membership
and both witnesses replayed: on random sets, on lifted objects, and on
every subset of [0, 2]^2, [0, 1]^3 and [0, 2] and seeded functions on
subsets of the first two.  The function
recognizers applied to indicator functions must agree with the set
recognizers on every input, member or not.  Likewise the pruned depth-first
flow enumeration must agree with a naive product-space scan.

The recognizers read values scaled to ints and memoize the local
extension, so the integrally convex function verdicts are compared with a
Fraction-valued oracle scan, and every function label must give the same
verdict and witness on f and on k * f.  The exchange and jump recognizers
read points as int codes, so their whole verdicts are compared with the
tuple scanner kept in ``set_oracles``, on the benchmark's check corpus, on
drawn members and near misses, and on spans whose codes pass 2**64.

Every pair scan reads a pair by its code difference over the difference box
of the stored points, so the verdicts of every label decided by a pair scan
are compared, witness and all, with the oracle scans of ``set_oracles``: on
sets and functions whose pair differences collide over the plain bounding
box, on the simplex x >= 0, x(N) <= 8 in Z^3 and on a sparse jump system
and its near miss, on spans past 2**64, and for the discrete midpoint
convexity labels on the benchmark's check corpus.

The L♮, L, M♮, M and multimodular labels decide membership by a
polyhedral domain test and, for functions above a size rule, a local axiom,
and fall back to the pair scan otherwise, so their whole verdicts are
compared with the pair scans kept in ``set_oracles`` (``check_family``): on
the benchmark's check corpus, on drawn members and near misses, on objects
of 250 to 320 points, where the local route runs, and on sets built to
defeat each shortcut.  Above the rule a member must be decided without a
pair scan, so a domain test that wrongly rejects shows too.

The two jump exchange set labels prove a set of one coordinate-sum parity
by a 2-step scan that finds no violation, or hand it to their pair scan,
so the verdicts of the three set jump labels are compared with the
production pair scans: on every subset of [0, 2]^2 and [0, 1]^3, on random
sets of one parity or mixed parity in 2 to 5 dimensions, on the jump sets
of the benchmark's check corpus, and on sparse sets and spans past 2**64.

The IC and DMC labels prove L♮ or M♮ domains and read local routes, and the
hull axiom reads the rounded midpoints before the local extension, so their
whole verdicts are compared with the oracle scans of ``set_oracles``: on
every subset of [0, 2]^2 and a sample of those of [0, 2] x [0, 1]^2 and
their indicators (DMC sets outside L♮, M♮ sets outside DMC), on M♮ split
sets, on diagonally dominant quadratics on [0, 2]^3 with near misses, and
for the IC labels on the check corpus; above the size rules, on 216 to 576
points, with the pair scans the routes fall back to (for local DMC, with
every pair read), and an IC member there must be decided without a pair
scan.

The exchange, jump exchange and 2-step kinds read their ordered scan a row
at a time, by int bitsets, at every size, so that row reading is compared,
verdict and witness, with the per-pair scan of the same predicate kept in
``set_oracles`` (``pair_scan``): on every subset of [0, 2]^2 and [0, 1]^3
and its indicator, on seeded functions in 1 to 5 dimensions with Fraction
values and absent neighbours, on drawn members and near misses, on the
check corpus at seeds 1 and 7, on sparse inputs and spans past 2**64, and
on a set whose first violated pair has a gap of 1 where the same-axis
partner would fit.

Network induction and infimal convolution run on int-scaled values and
point codes too, so their results, and the documents of their results, are
compared with the Fraction/tuple loops kept in ``set_oracles``: induction
on the benchmark's three networks, on random networks with large-prime
cost denominators and on edge networks (no arcs, one arc, vertices that
are only heads, entrance boxes no flow reaches, loops), with the flows it
enumerates compared in order as (cost over the network's cost scale,
entrance supply, exit supply); induction must read every flow through the
module attribute the benchmark wraps; convolution and
Minkowski sums on random pairs, including one-point operands, coordinates
near 10**20 and multi-point functions of one value, and the lifted pair sum
of the counterexample registry.
"""

import collections
import itertools
import math
import operator
import os
import random
import sys
from fractions import Fraction

import pytest

import set_oracles
from dconvex import classes, core, documents, hull, lab, network
from dconvex.classes import FN_LABELS, SET_LABELS, ClassLabel, _View, check, check_fn, check_set, verify_witness
from dconvex.core import (
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    Window,
    cube,
    difference_transform,
    indicator_fn,
    vshift,
)
from dconvex.network import Arc, ArcCost, Network, induce_fn, transform_set
from dconvex.ops import convolution_fn
from set_oracles import (
    DMC_LABELS,
    FAMILY_LABELS,
    ORDERED_LABELS,
    SET_ORACLES,
    check_dmc,
    check_family,
    check_ic_fn,
    check_l,
    check_ordered,
    ordered_verdicts,
    pair_scan,
    replays_l,
    violated_pairs,
)

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.corpus import build_check_corpus, mesh_network  # noqa: E402
from perfbench.workloads import Transform  # noqa: E402

INDICATOR_PAIRS = (
    (ClassLabel.INTEGER_BOX, ClassLabel.SEPARABLE_CONVEX),
    (ClassLabel.IC_SET, ClassLabel.IC_FN),
    (ClassLabel.LNAT_SET, ClassLabel.LNAT_FN),
    (ClassLabel.GLOBAL_DMC_SET, ClassLabel.GLOBAL_DMC_FN),
    (ClassLabel.MNAT_SET, ClassLabel.MNAT_FN),
    (ClassLabel.M_SET, ClassLabel.M_FN),
    (ClassLabel.MULTIMODULAR_SET, ClassLabel.MULTIMODULAR_FN),
    (ClassLabel.CONST_PARITY_JUMP, ClassLabel.JUMP_M_FN),
    (ClassLabel.SIMULT_EXCH_JUMP, ClassLabel.JUMP_MNAT_FN),
)


def _random_sets(seed):
    rng = random.Random(seed)
    for _ in range(250):
        n = rng.randint(1, 3)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))
        )
        yield LatticeSet(n, pts)


def _random_lifted_sets(seed):
    rng = random.Random(seed)
    for _ in range(60):
        reps = frozenset(
            tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(rng.randint(1, 4))
        )
        yield LatticeSet(3, reps, lifted=True)


def _assert_l_verdicts_match(obj):
    """check() agrees with the L oracle in membership, and each side's
    witness replays, the oracle's through its own replay; returns the
    verdict."""
    label = ClassLabel.L_SET if isinstance(obj, LatticeSet) else ClassLabel.L_FN
    got, want = check(obj, label), check_l(obj)
    assert got.member == want.member, (obj, got, want)
    assert got.member or verify_witness(obj, got.witness), (obj, got)
    assert want.member or replays_l(obj, want.witness), (obj, want)
    return got


def test_set_recognizers_match_oracle():
    # the L oracle reads every object in Z^n by submodularity, production
    # reads a finite one as L♮ and a lifted one on its section, so those
    # verdicts agree in membership and each side's witness replays
    assert set(SET_ORACLES) == SET_LABELS
    for s in _random_sets(31415):
        for label, oracle in SET_ORACLES.items():
            if label != ClassLabel.L_SET:
                assert check_set(s, label) == oracle(s), (label, sorted(s.points))
        _assert_l_verdicts_match(s)
    for s in _random_lifted_sets(2718):
        _assert_l_verdicts_match(s)


def test_set_and_indicator_recognizers_agree():
    for s in _random_sets(31415):
        f = indicator_fn(s)
        for set_label, fn_label in INDICATOR_PAIRS:
            sv = check_set(s, set_label).member
            fv = check_fn(f, fn_label).member
            assert sv == fv, (set_label, fn_label, sorted(s.points))


def test_lifted_indicator_agreement():
    for s in _random_lifted_sets(2718):
        f = indicator_fn(s)
        assert check_set(s, ClassLabel.L_SET).member == check_fn(f, ClassLabel.L_FN).member


def _lifted_objects(rng):
    """Lifted sets and functions with n = 1..4: drawn L members and random
    representatives, each followed half the time by a near miss (a
    representative dropped or a value raised)."""
    for _ in range(1200):
        n = rng.randint(1, 4)
        kind = rng.randrange(4)
        if kind == 0:
            obj = lab.gen_l_set(rng, n, cube(n, -1, 1))
        elif kind == 1:
            obj = lab.gen_l_fn(rng, n, cube(n, -1, 1))
        else:
            reps = {tuple(rng.randint(-1, 1) for _ in range(n - 1)) + (0,) for _ in range(rng.randint(1, 6))}
            if kind == 2:
                obj = LatticeSet(n, frozenset(reps), lifted=True)
            else:
                ramp = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4))
                obj = LatticeFn(n, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for p in reps}, True, ramp)
        if rng.random() < 0.5:
            if isinstance(obj, LatticeFn):
                obj = _raised(obj, rng)
            elif len(obj) > 1:
                obj = LatticeSet(n, obj.points - {rng.choice(sorted(obj.points))}, lifted=True)
        yield obj


def test_lifted_l_recognizer_matches_oracle():
    rng = random.Random(4242)
    members = total = 0
    for obj in _lifted_objects(rng):
        members += _assert_l_verdicts_match(obj).member
        total += 1
    assert total >= 1000 and 0.3 < members / total < 0.9


_L_UNIVERSES = (Window((0, 0), (2, 2)), Window((0, 0, 0), (1, 1, 1)), Window((0,), (2,)))


def _finite_l_functions(rng):
    """Functions on subsets of [0, 2]^2 and [0, 1]^3: on the box cut by
    random bounds x_i - x_j <= c (an L♮ domain), on a random subset or on
    1 to 3 random points, sum a_ij (x_i - x_j)^2 + c.x, which is L-convex
    and ramps by sum(c) along 1, then a fifth of them plus b x_0^2 (L♮,
    but no one ramp on a domain with a line of 3 points) and a fifth with
    one value raised."""
    for _ in range(2400):
        box = rng.choice(_L_UNIVERSES[:2])
        n = box.dim
        pts = list(box.points())
        domain = rng.random()
        if domain < 0.5:
            cuts = [(i, j, rng.randint(-1, 1)) for i in range(n) for j in range(n) if i != j and rng.random() < 0.3]
            pts = [p for p in pts if all(p[i] - p[j] <= c for i, j, c in cuts)]
        elif domain < 0.8:
            pts = [p for p in pts if rng.random() < 0.7]
        else:
            pts = rng.sample(pts, rng.randint(1, 3))
        pts = pts or [box.lo]
        pairs = [(i, j, rng.randint(0, 2)) for i in range(n) for j in range(i + 1, n)]
        c = [rng.randint(-2, 2) for _ in range(n)]
        d = rng.randint(1, 3)
        vals = {p: Fraction(sum(a * (p[i] - p[j]) ** 2 for i, j, a in pairs) + sum(map(operator.mul, c, p)), d)
                for p in pts}
        shape = rng.random()
        if shape < 0.2:
            b = rng.randint(1, 2)
            vals = {p: v + b * p[0] ** 2 for p, v in vals.items()}
        elif shape < 0.4:
            vals[rng.choice(pts)] += Fraction(rng.randint(1, 3), rng.randint(1, 2))
        yield LatticeFn(n, vals)


def test_finite_l_labels_match_the_lifted_oracle():
    # every nonempty subset of [0, 2]^2, [0, 1]^3 and [0, 2], and 2400
    # seeded functions on subsets of the first two: a finite object is an
    # l-set or l-fn exactly when it is the trace on its bounding box of its
    # lift along 1 and that lift is L-convex, which the oracle reads by
    # submodularity in Z^n; an earlier reading by submodularity, +-1
    # closure and one ramp passed {(0, 0), (2, 0)}
    sets = [s for box in _L_UNIVERSES for s in _subsets(box)]
    assert len(sets) == 511 + 255 + 7
    members = sum(_assert_l_verdicts_match(s).member for s in sets)
    assert not check(LatticeSet.of([(0, 0), (2, 0)]), ClassLabel.L_SET).member
    assert 100 < members < 300
    kinds = collections.Counter()
    for f in _finite_l_functions(random.Random(2027)):
        verdict = _assert_l_verdicts_match(f)
        kinds[verdict.witness.kind if verdict.witness else None] += 1
    assert set(kinds) == {None, "midpoint", "ramp"} and min(kinds.values()) >= 100, kinds


def _raised(f: LatticeFn, rng) -> LatticeFn:
    """f with one stored value raised by a random fraction: a near miss."""
    vals = dict(f.values)
    p = rng.choice(sorted(vals))
    vals[p] += Fraction(rng.randint(1, 7), rng.randint(1, 5))
    return LatticeFn(f.dim, vals, f.lifted, f.ramp)


def _spiked(f: LatticeFn, rng) -> LatticeFn:
    """f with one stored value raised above every other one."""
    vals = dict(f.values)
    vals[rng.choice(sorted(vals))] += max(vals.values()) - min(vals.values()) + Fraction(1, rng.randint(1, 5))
    return LatticeFn(f.dim, vals, f.lifted, f.ramp)


def _quadratic_on_a_slab(rng) -> LatticeFn:
    """sum(a_i x_i^2) + sum(b_ij (x_i - x_j)^2) on [0,3] x [0,1] x [0,1] in
    some coordinate order: integrally convex when every b_ij >= 0, and wide
    enough for midpoints with three half-integral coordinates (the LP)."""
    hi = [1, 1, 1]
    hi[rng.randrange(3)] = 3
    a = [rng.randint(1, 3) for _ in range(3)]
    b = {(i, j): rng.randint(-1, 2) for i in range(3) for j in range(i + 1, 3)}
    d = rng.randint(1, 3)
    return LatticeFn(3, {
        p: Fraction(sum(ai * c * c for ai, c in zip(a, p)) + sum(v * (p[i] - p[j]) ** 2 for (i, j), v in b.items()), d)
        for p in Window((0, 0, 0), tuple(hi)).points()
    })


def test_ic_fn_recognizer_matches_oracle():
    rng = random.Random(8080)
    cases = []
    for _ in range(30):
        n = rng.randint(3, 4)
        f = lab.draw(ClassLabel.IC_FN, rng, n, cube(n, 0, 3), size_cap=30)
        cases += [f, _raised(f, rng), _spiked(f, rng)]
    for _ in range(10):
        f = _quadratic_on_a_slab(rng)
        cases += [f, _spiked(f, rng)]
    members = 0
    for g in cases:
        verdict = check(g, ClassLabel.IC_FN)
        assert verdict == check_ic_fn(g), sorted(g.values.items())
        members += verdict.member
    assert 0.3 < members / len(cases) < 0.9


def _ordered_labels(obj):
    """The exchange and jump labels of the object's kind."""
    return sorted(ORDERED_LABELS & (SET_LABELS if isinstance(obj, LatticeSet) else FN_LABELS))


def _assert_ordered_verdicts_match(objects):
    """check() equals the tuple oracle under every exchange and jump label
    of each object's kind, and its witnesses replay; returns (checks,
    members)."""
    checks = members = 0
    for obj in objects:
        want = ordered_verdicts(obj)
        for label in _ordered_labels(obj):
            got = check(obj, label)
            assert got == want[label], (label, obj)
            assert got.member or verify_witness(obj, got.witness), (label, obj)
            checks += 1
            members += got.member
    return checks, members


def test_ordered_recognizers_match_oracle_on_the_check_corpus():
    # every finite object of the benchmark's check corpus, members and near
    # misses, under each of the 9 exchange and jump labels of its kind
    objects = []
    for seed in (1, 7):
        members, misses = build_check_corpus(seed)
        objects += [inst.obj for inst in members + misses if not inst.obj.lifted]
    checks, members = _assert_ordered_verdicts_match(objects)
    assert checks == 2700 and 0 < members < checks


def _ordered_samples(rng):
    """Drawn members of each exchange and jump label, n = 1..5, over windows
    with negative lo, each followed by near misses: a point dropped and a
    point added (sets), a value raised (functions)."""
    for label in sorted(ORDERED_LABELS):
        for n in range(1, 6):
            for _ in range(6):
                lo = rng.randint(-4, 0)
                window = cube(n, lo, lo + rng.randint(1, 3))
                obj = lab.draw(label, rng, n, window, size_cap=40)
                yield obj
                if isinstance(obj, LatticeFn):
                    yield _raised(obj, rng)
                    continue
                if len(obj) > 1:
                    yield LatticeSet(n, obj.points - {rng.choice(sorted(obj.points))})
                extra = tuple(rng.randint(a - 1, b + 1) for a, b in zip(window.lo, window.hi))
                yield LatticeSet(n, obj.points | {extra})


def _wide_spans():
    """Objects whose codes, or whose strides, exceed 2**64."""
    big = 10**20
    for pts in (
        [(0, 0), (big, 1)],
        [(0, 0), (1, big)],
        [(-big, 0, big), (0, 1, 0), (big, -big, 1)],
        [(0, 0, 0), (big, 1, -1), (big, 0, 0), (1, big, 0), (0, 1, -big)],
    ):
        yield LatticeSet.of(pts)
        yield LatticeFn.of({p: Fraction(k * k - 3 * k, 2) for k, p in enumerate(pts)})


def test_ordered_recognizers_match_oracle_on_samples():
    checks, members = _assert_ordered_verdicts_match(_ordered_samples(random.Random(5150)))
    assert checks > 1000 and 0.2 < members / checks < 0.8
    wide = list(_wide_spans())
    assert max(max(_View.of(obj).coded[0].strides) for obj in wide) > 2**64
    _assert_ordered_verdicts_match(wide)


def _oracle(obj, label):
    """The ``set_oracles`` verdict of a finite object under a label of its
    kind decided by a pair scan."""
    if isinstance(obj, LatticeSet):
        return SET_ORACLES[label](obj)
    if label == ClassLabel.IC_FN:
        return check_ic_fn(obj)
    if label in DMC_LABELS:
        return check_dmc(obj, label)
    return check_ordered(obj, label) if label in ORDERED_LABELS else check_family(obj, label)


def _assert_pair_scans_match(cases):
    """check() equals the oracle scan on each (object, label), witness and
    all, and its witnesses replay; returns the member count.  The L oracle
    reads another axiom, so there the verdicts agree in membership
    (``_assert_l_verdicts_match``)."""
    members = 0
    for obj, label in cases:
        if label == ClassLabel.L_SET:
            got = _assert_l_verdicts_match(obj)
        else:
            got = check(obj, label)
            assert got == _oracle(obj, label), (label, obj)
            assert got.member or verify_witness(obj, got.witness), (label, obj)
        members += got.member
    return members


# the labels decided by a pair scan, read by code difference, with an oracle
_SCANNED_SET_LABELS = sorted(SET_LABELS - {ClassLabel.INTEGER_BOX})
_SCANNED_FN_LABELS = sorted(
    ({ClassLabel.IC_FN} | DMC_LABELS | ORDERED_LABELS | FAMILY_LABELS) & FN_LABELS - {ClassLabel.L_FN}
)
_JUMP_AND_MIDPOINT_LABELS = (
    ClassLabel.IC_SET, ClassLabel.IC_FN, ClassLabel.GLOBAL_DMC_SET, ClassLabel.GLOBAL_DMC_FN,
    ClassLabel.LOCAL_DMC_FN, ClassLabel.JUMP_SYSTEM, ClassLabel.CONST_PARITY_JUMP,
    ClassLabel.SIMULT_EXCH_JUMP, ClassLabel.JUMP_M_FN, ClassLabel.JUMP_MNAT_FN,
)


def _labelled(objects, labels=None):
    """(object, label) for each label of the object's kind among ``labels``
    (default: every scanned label)."""
    for obj in objects:
        kind = _SCANNED_SET_LABELS if isinstance(obj, LatticeSet) else _SCANNED_FN_LABELS
        for label in kind:
            if labels is None or label in labels:
                yield obj, label


def _narrow_objects(rng):
    """Sets and functions in boxes of widths 1 to 2 in Z^2 and Z^3: over the
    plain bounding box of widths 2 the code differences of d = (1, -2) and
    d = (0, 1) are both 1, so a scan that coded there would read one pair
    through the other's move."""
    for _ in range(70):
        n = rng.choice((2, 3))
        box = Window((0,) * n, tuple(rng.choice((1, 2, 2)) for _ in range(n)))
        pts = [p for p in box.points() if rng.random() < 0.8] or [box.lo]
        yield LatticeSet(n, frozenset(pts))
        yield LatticeFn(n, {p: Fraction(sum(c * c for c in p) + rng.randint(0, 2), rng.randint(1, 3)) for p in pts})


def test_pair_scans_match_oracles_where_plain_box_codes_collide():
    plain = core.Codes((0, 0), (2, 2))
    assert plain.code((1, 0)) - plain.code((0, 2)) == plain.code((0, 1)) - plain.code((0, 0))
    cases = list(_labelled(_narrow_objects(random.Random(6363))))
    members = _assert_pair_scans_match(cases)
    assert len(cases) > 1200 and 0.1 < members / len(cases) < 0.9


def _differences(obj) -> int:
    pts = list(core.value_map(obj))
    return len({tuple(b - a for a, b in zip(x, y)) for x in pts for y in pts})


def _sparse_jump_system():
    """A x A for A = {0, 2, 3, 5, 6, 8, 9, 11}, gaps of 1 and 2: a jump
    system (a direct sum of two), with 441 differences on 64 points."""
    a = (0, 2, 3, 5, 6, 8, 9, 11)
    return LatticeSet(2, frozenset(itertools.product(a, a)))


def _ruler_lattice():
    """A x A for the Golomb ruler A = {0, 1, 3, 7, 12, 20}, whose
    differences are all distinct: a lattice of 36 points with 961
    differences, 480 of them from a point to a later one."""
    a = (0, 1, 3, 7, 12, 20)
    return LatticeSet(2, frozenset(itertools.product(a, a)))


def test_pair_scans_match_oracles_on_sparse_inputs():
    # inputs with many distinct differences per point, for the ordered
    # kinds, which read them by rows, and for the midpoint family
    simplex = LatticeSet(3, frozenset(p for p in cube(3, 0, 8).points() if sum(p) <= 8))
    assert len(simplex) == 165 and 2**3 * 165 < _differences(simplex) <= math.comb(6, 3) * 165
    sparse = _sparse_jump_system()
    assert _differences(sparse) > math.comb(4, 2) * len(sparse)
    # a near miss whose first violated pair lies in a late row
    miss = LatticeSet(2, sparse.points - {(9, 9)})
    assert check(miss, ClassLabel.JUMP_SYSTEM).witness.points[0] == (8, 9)
    f = LatticeFn(3, {p: Fraction(sum(c * c for c in p) + p[0] * p[1], 3) for p in simplex.points})
    g = LatticeFn(2, {p: Fraction(p[0] * p[0] + 3 * p[1] * p[1], 2) for p in sparse.points})
    objects = [simplex, f, sparse, miss, g, _raised(g, random.Random(7))]
    cases = [case for case in _labelled(objects, _JUMP_AND_MIDPOINT_LABELS) if case[1] != ClassLabel.IC_FN]
    # the integrally convex function scan with the brute-force oracle is
    # costly, so on the simplex it runs on a near miss
    cases += [(_raised(f, random.Random(3)), ClassLabel.IC_FN), (g, ClassLabel.IC_FN)]
    ruler = _ruler_lattice()
    assert _differences(ruler) == 961 and math.comb(4, 2) * len(ruler) == 216
    cases += _labelled([ruler])
    assert len(cases) == 39 and _assert_pair_scans_match(cases) == 5


def test_pair_scans_match_oracles_on_wide_spans():
    _assert_pair_scans_match(_labelled(_wide_spans()))
    # a finite l-set is read as lnat-set, so a wide non-member reports the
    # midpoint pair
    for s in _wide_spans():
        if isinstance(s, LatticeSet):
            assert check(s, ClassLabel.L_SET) == check(s, ClassLabel.LNAT_SET), s
            assert check(s, ClassLabel.L_SET).witness.kind == "midpoint", s


def _many_axes(rng):
    """Sets and functions in Z^12, past ``classes._LISTED_DIM``, where the
    midpoint family tests N on the digits of an offset and memoizes odd by
    mask: a small box on two or three axes with a separable convex function,
    and a few points each a few unit steps from the last (so midpoints
    have few half-integral coordinates) with random values."""
    for _ in range(3):
        axes = rng.sample(range(12), rng.randint(2, 3))
        base = [rng.randint(-3, 3) for _ in range(12)]
        spans = [range(b, b + rng.randint(1, 2) + 1) if i in axes else (b,) for i, b in enumerate(base)]
        pts = list(itertools.product(*spans))
        yield LatticeSet.of(pts)
        yield LatticeFn.of({p: sum((c - b) ** 2 for c, b in zip(p, base)) for p in pts})
        pts = [tuple(rng.randint(-1, 1) for _ in range(12))]
        for _ in range(rng.randint(2, 5)):
            pts.append(tuple(c + (rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2 else 0) for c in pts[-1]))
        yield LatticeSet.of(pts)
        yield LatticeFn.of({p: Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for p in pts})


def test_midpoint_scans_match_oracles_past_the_listed_dimension():
    assert classes._LISTED_DIM < 12
    labels = (
        ClassLabel.IC_SET, ClassLabel.IC_FN, ClassLabel.LNAT_SET, ClassLabel.LNAT_FN, ClassLabel.GLOBAL_DMC_SET,
        ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN,
    )
    cases = list(_labelled(_many_axes(random.Random(1212)), labels))
    assert len(cases) == 42 and 12 < _assert_pair_scans_match(cases) < 42


# the set jump labels, with the kinds their pair scans read
_JUMP_KINDS = {
    ClassLabel.JUMP_SYSTEM: "jump-2step",
    ClassLabel.CONST_PARITY_JUMP: "jump-exc",
    ClassLabel.SIMULT_EXCH_JUMP: "jump-exc-nat",
}


def _assert_jump_route_matches_scans(sets):
    """check() equals the whole pair scan of each set jump label, verdict
    and witness; returns (checks, members, sets the parity route proves)."""
    checks = members = proved = 0
    for s in sets:
        proved += classes._one_parity_jump(_View.of(s), "jump-exc")
        for label, kind in _JUMP_KINDS.items():
            got = check(s, label)
            assert got == classes._scan_pairs(_View.of(s), kind), (label, sorted(s.points))
            checks += 1
            members += got.member
    return checks, members, proved


def _subsets(box: Window):
    pts = list(box.points())
    for mask in range(1, 1 << len(pts)):
        yield LatticeSet(box.dim, frozenset(p for k, p in enumerate(pts) if mask >> k & 1))


def _parity_sets(rng):
    """Random sets in 2 to 5 dimensions, of one coordinate-sum parity or
    mixed, each with up to 30 points of a box of widths 1 to 3, and one
    point dropped from each."""
    for _ in range(200):
        n = rng.randint(2, 5)
        box = Window((0,) * n, tuple(rng.randint(1, 3) for _ in range(n)))
        parity = rng.choice((0, 1, None))
        pts = [p for p in box.points() if parity is None or sum(p) % 2 == parity]
        s = LatticeSet(n, frozenset(rng.sample(pts, min(len(pts), rng.randint(1, 30)))))
        yield s
        if len(s) > 1:
            yield LatticeSet(n, s.points - {rng.choice(sorted(s.points))})


def _diagonal(k: int) -> LatticeSet:
    """The k points t (1, 1) of Z^2, a jump system of one parity whose
    bounding box holds k^2 cells."""
    return LatticeSet(2, frozenset((t, t) for t in range(k)))


def test_jump_route_matches_the_pair_scans():
    # the parity route of the jump exchange labels, which proves a set of
    # one coordinate-sum parity by a 2-step scan that finds no violation,
    # or hands it to the scan, against the whole scans, at every size: on
    # every small set, on random ones, on the check corpus's jump sets,
    # members and near misses, and on sparse sets and spans past 2**64
    small = [s for box in (cube(2, 0, 2), cube(3, 0, 1)) for s in _subsets(box)]
    checks, members, proved = _assert_jump_route_matches_scans(small)
    assert (checks, proved) == (3 * 766, 70) and 0.05 < members / checks < 0.5
    checks, members, proved = _assert_jump_route_matches_scans(_parity_sets(random.Random(2121)))
    assert checks > 1000 and 0.05 < members / checks < 0.5 and proved > checks / 10
    corpus = []
    for seed in (1, 7):
        members, misses = build_check_corpus(seed)
        corpus += [i.obj for i in members + misses if i.label in _JUMP_KINDS]
    assert _assert_jump_route_matches_scans(corpus) == (270, 54, 18)
    # sparse sets, among them a diagonal whose bounding box holds more than
    # C(2n, n) |S| cells and its near miss, and spans past 2**64
    diagonal = _diagonal(40)
    sparse = [LatticeSet.of([(0, 0), (2, 0), (0, 2), (30, 30)]), LatticeSet.of([(0, 0, 0), (9, 9, 9), (9, 0, 9)])]
    sparse += [diagonal, LatticeSet(2, diagonal.points - {(20, 20)})]
    sparse += [s for s in _wide_spans() if isinstance(s, LatticeSet)]
    assert len(diagonal) ** 2 > math.comb(4, 2) * len(diagonal)
    assert _assert_jump_route_matches_scans(sparse)[1:] == (3, 1)


# the kinds read a row at a time, by bitsets, for sets and for functions
_EXCHANGE_KINDS = {
    LatticeSet: ("exchange-mnat", "exchange-m", "jump-exc", "jump-exc-nat", "jump-2step"),
    LatticeFn: ("exchange-mnat-fn", "exchange-m-fn", "jump-m-fn", "jump-mnat-fn"),
}


def _assert_rows_match_pair_scans(monkeypatch, objects, widths=(None, 16, 17, 33)):
    """The row reading of each ordered kind of the object's type equals the
    per-pair scan (``set_oracles.pair_scan``) on each object, verdict and
    witness, with the ys read in blocks of the next of ``widths`` points,
    object by object in turn, where that is below the object's size, and
    otherwise by the block rule (``classes._Rows.block``), as for None;
    returns (scans, members)."""
    rule = classes._Rows.block
    scans = members = 0
    for i, obj in enumerate(objects):
        width = widths[i % len(widths)]
        patched = width is not None and width < len(obj)
        monkeypatch.setattr(classes._Rows, "block", (lambda self, size, distinct, w=width: w) if patched else rule)
        for kind in _EXCHANGE_KINDS[type(obj)]:
            want = pair_scan(_View.of(obj), kind)
            assert classes._scan_pairs(_View.of(obj), kind) == want, (kind, width, obj)
            scans += 1
            members += want.member
    monkeypatch.setattr(classes._Rows, "block", rule)
    return scans, members


def _exchange_functions(rng):
    """Functions in 1 to 5 dimensions with Fraction values: separable convex
    on a box or on its points of even coordinate sum (members of some of
    the kinds), with points dropped, so that neighbours are absent, or with
    a value raised."""
    for _ in range(160):
        n = rng.randint(1, 5)
        box = Window((0,) * n, tuple(rng.randint(1, 3 if n < 4 else 2) for _ in range(n)))
        pts = [p for p in box.points() if rng.random() < 0.5 or sum(p) % 2 == 0]
        drop = rng.choice((0, 0, 0.2))
        pts = [p for p in pts if rng.random() >= drop][:40] or [box.lo]
        tables = [lab._convex_table(rng, 0, hi) for hi in box.hi]
        f = {p: sum(t[c] for t, c in zip(tables, p)) / rng.randint(1, 3) for p in pts}
        if rng.random() < 0.3:
            f[rng.choice(pts)] += Fraction(rng.randint(1, 5), 7)
        yield LatticeFn(n, f)


def test_exchange_rows_match_the_pair_scans(monkeypatch):
    # the row reading of the nine ordered kinds, its ys read by the block
    # rule and in blocks of 16, 17 and 33 points, object by object in turn,
    # against the per-pair scan: on every small set and its indicator, on
    # seeded functions, on drawn members and near misses, on the check
    # corpus, and on spans past 2**64 and sparse inputs
    small = [s for box in (cube(2, 0, 2), cube(3, 0, 1)) for s in _subsets(box)]
    scans, members = _assert_rows_match_pair_scans(monkeypatch, small + list(map(indicator_fn, small)))
    assert scans == 9 * 766 and 0.05 < members / scans < 0.5
    scans, members = _assert_rows_match_pair_scans(monkeypatch, _exchange_functions(random.Random(2323)))
    assert scans == 4 * 160 and 0.1 < members / scans < 0.6
    scans, members = _assert_rows_match_pair_scans(monkeypatch, _ordered_samples(random.Random(2424)))
    assert scans > 2000 and 0.2 < members / scans < 0.8
    corpus = []
    for seed in (1, 7):
        members, misses = build_check_corpus(seed)
        corpus += [inst.obj for inst in members + misses if not inst.obj.lifted]
    scans, members = _assert_rows_match_pair_scans(monkeypatch, corpus)
    # 300 of the corpus objects are sets, which the 2-step kind reads too
    assert scans == 4 * 600 + 300 and 0 < members < scans / 2
    sparse = [_sparse_jump_system(), _ruler_lattice(), LatticeSet.of([(0, 0), (2, 0), (0, 2), (30, 30)])]
    sparse += [LatticeFn(2, {p: Fraction(p[0] * p[0] + 3 * p[1] * p[1], 2) for p in s.points}) for s in sparse]
    # of these, the sparse jump system alone is a member, of the 2-step kind
    assert _assert_rows_match_pair_scans(monkeypatch, sparse + list(_wide_spans())) == (4 * 14 + 7, 1)
    # a set whose first violated pair of jump-exc-nat, x = (0, 1) and
    # y = (3, 2) at s = e_2, a gap of 1, would pass through the partner
    # t = s, which reads (0, 3) and (3, 0), both in the set: the reading
    # admits that partner only at a gap of at least 2
    gap_one = LatticeSet.of([(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (3, 2)])
    assert classes._scan_pairs(_View.of(gap_one), "jump-exc-nat").witness.points[:2] == ((0, 1), (3, 2))
    assert _assert_rows_match_pair_scans(monkeypatch, [gap_one]) == (5, 0)
    # the 2-step reading of boxes: a sparse jump system, the diagonal
    # t (1, 1), whose bounding box holds more than C(2n, n) |S| cells, a
    # member of the three jump kinds, and its near miss
    diagonal = _diagonal(40)
    assert len(diagonal) ** 2 > math.comb(4, 2) * len(diagonal)
    assert _assert_rows_match_pair_scans(monkeypatch, [diagonal, LatticeSet(2, diagonal.points - {(20, 20)})]) == (10, 3)
    # a set whose first violated 2-step pair, x = (0, 0) and y = (1, 10) at
    # s = e_1, reads the box of z = (1, 0), and whose y lies, in blocks of
    # 16 or 17 points, in a block whose ys all have a second coordinate
    # above z's, so z lies outside that block's bounding box
    column = LatticeSet.of([(0, b) for b in range(21)] + [(1, b) for b in range(10, 30)])
    witness = classes._scan_pairs(_View.of(column), "jump-2step").witness
    assert witness.points == ((0, 0), (1, 10), (1, 0))
    points = sorted(column.points)
    for width in (16, 17):
        low = points.index((1, 10)) // width * width
        assert min(p[1] for p in points[low : low + width]) > 0
        assert _assert_rows_match_pair_scans(monkeypatch, [column], (width,)) == (5, 0)


def test_blocked_rows_keep_the_lowest_row_and_its_lowest_y(monkeypatch):
    # the ys read in blocks of 16, 17 and 33 points against the per-pair
    # scan, on x -> sum(x_i^2) over [0, 4]^3 with one value raised: between
    # them the first violated pair's y lies in the first block, a middle
    # one and the last; in a later block while the first block holds a
    # violated pair, of a higher row; and in a block before another that
    # holds a violated pair of the same row
    box = {p: sum(c * c for c in p) for p in cube(3, 0, 4).points()}
    spiked = [LatticeFn.of({**box, p: box[p] + 100}) for p in ((4, 0, 4), (2, 2, 2), (4, 4, 3))]
    pairs = [{(a, b) for a, b, _ in violated_pairs(_View.of(f), "exchange-mnat-fn")} for f in spiked]
    for width in (16, 17, 33):
        seen = set()
        for violated in pairs:
            x, y = min(violated)
            block, blocks = y // width, -(-len(box) // width)
            seen.add("first" if block == 0 else "last" if block == blocks - 1 else "middle")
            if block and any(b < width for _, b in violated):
                seen.add("later")
            if any(a == x and b // width > block for a, b in violated):
                seen.add("same row")
        assert seen == {"first", "middle", "last", "later", "same row"}, width
        assert _assert_rows_match_pair_scans(monkeypatch, spiked, (width,)) == (12, 1), width


def test_dmc_recognizers_match_oracle_on_the_check_corpus():
    cases = []
    for seed in (1, 7):
        members, misses = build_check_corpus(seed)
        cases += [(i.obj, i.label) for i in members + misses if i.label in DMC_LABELS]
    assert len(cases) == 90
    assert _assert_pair_scans_match(cases) == 18


# the labels whose recognizers prove L♮ or M♮ domains and read local routes
_IC_DMC_LABELS = frozenset({ClassLabel.IC_SET, ClassLabel.IC_FN}) | DMC_LABELS


def _diagonally_dominant(rng, points) -> LatticeFn:
    """x^T Q x + c.x on the points, with the off-diagonal entries of Q drawn
    from {-1, +1} and each diagonal entry the sum of its row's off-diagonal
    magnitudes: on a box, integrally convex (Favati and Tardella 1990), and
    outside L♮ once an entry is +1."""
    n = len(points[0])
    q = {(i, j): rng.choice((-1, 1)) for i in range(n) for j in range(i + 1, n)}
    diag = [sum(abs(c) for (i, j), c in q.items() if k in (i, j)) for k in range(n)]
    lin = [rng.randint(-3, 3) for _ in range(n)]
    return LatticeFn(n, {
        p: sum(d * c * c + b * c for d, b, c in zip(diag, lin, p)) + sum(2 * c * p[i] * p[j] for (i, j), c in q.items())
        for p in points
    })


def _split_set(a: int, b: int) -> LatticeSet:
    """{y >= 0 : y_1 <= a, y_2 + y_3 <= b}, the check corpus's M♮ family:
    M♮-convex, not L♮-convex."""
    return LatticeSet(3, frozenset(p for p in cube(3, 0, max(a, b)).points() if p[0] <= a and p[1] + p[2] <= b))


def _with_ic_dmc_labels(objects):
    for obj in objects:
        for label in sorted(_IC_DMC_LABELS & (SET_LABELS if isinstance(obj, LatticeSet) else FN_LABELS)):
            yield obj, label


def _small_ic_dmc_objects(rng):
    """Every subset of [0, 2]^2 and a sample of those of [0, 2] x [0, 1]^2
    with their indicators, which hold DMC sets outside L♮ and M♮ sets
    outside DMC; small M♮ split sets with split values; diagonally dominant
    quadratics on [0, 2]^3 with near misses."""
    for box, sample in ((Window((0, 0), (2, 2)), None), (Window((0, 0, 0), (2, 1, 1)), 300)):
        pts = list(box.points())
        subsets = [s for r in range(1, len(pts) + 1) for s in itertools.combinations(pts, r)]
        for sub in subsets if sample is None else rng.sample(subsets, sample):
            s = LatticeSet(box.dim, frozenset(sub))
            yield s
            yield indicator_fn(s)
    for a, b in ((1, 2), (2, 3), (3, 1)):
        s = _split_set(a, b)
        yield s
        yield _quadratic(indicator_fn(s), lambda p: (p[0] - 1) ** 2 + (p[1] + p[2] - 2) ** 2)
    for _ in range(12):
        f = _diagonally_dominant(rng, list(cube(3, 0, 2).points()))
        yield from (f, _raised(f, rng), _spiked(f, rng))


def _large_ic_dmc_objects(rng):
    """Objects of 216 to 576 points, above the size rules of the local DMC
    route (196 points in Z^3) or also of the IC function route (248): a
    separable quadratic on a box, diagonally dominant quadratics on boxes
    and an M♮ split function, each with near misses (a value raised, a
    point dropped), and a quadratic that is not convex."""
    box = list(cube(3, 0, 5).points())
    square = _quadratic(indicator_fn(LatticeSet(3, frozenset(box))), lambda p: sum(c * c for c in p))
    yield square
    yield _spiked(square, rng)
    for hi in ((6, 6, 6), (7, 7, 8)):
        f = _diagonally_dominant(rng, list(Window((0, 0, 0), hi).points()))
        yield from (f, _spiked(f, rng), _raised(f, rng))
        yield LatticeFn(3, {p: v for p, v in f.values.items() if p != (3, 3, 3)})
        yield _quadratic(f, lambda p: p[0] ** 2 + p[1] ** 2 + 3 * p[0] * p[1] + p[2] ** 2)
    split = _quadratic(indicator_fn(_split_set(5, 9)), lambda p: (p[0] - 2) ** 2 + (p[1] + p[2] - 4) ** 2)
    yield from (split, _spiked(split, rng), _diagonally_dominant(rng, sorted(split.values)))


def _scanned(obj, label, monkeypatch):
    """The verdict of an IC or DMC function label by the production pair
    scans alone, which the oracles gate on smaller inputs, with every pair
    read: local DMC without its reading on the sphere."""
    v = _View.of(obj)
    if label == ClassLabel.IC_FN:
        return classes._scan_pairs(v, "hull-midpoint")
    if label == ClassLabel.GLOBAL_DMC_FN:
        return classes._scan_pairs(v, "midpoint-far")
    dom = classes._scan_pairs(v.domain(), "midpoint-far")
    if not dom.member:
        return classes.Verdict(False, classes.Witness("domain-not-dmc", dom.witness.points))
    with monkeypatch.context() as m:
        m.setattr(classes._LINF_SPHERE, "pays", lambda v: False)
        return classes._scan_pairs(v, "midpoint-two")


def test_ic_and_dmc_routes_match_the_oracles(pair_scans, monkeypatch):
    # small inputs, on which a set or an indicator takes the routes whatever
    # its size: whole verdicts against the oracle scans of set_oracles
    small = list(_with_ic_dmc_labels(_small_ic_dmc_objects(random.Random(2424))))
    members = _assert_pair_scans_match(small)
    assert 0.1 < members / len(small) < 0.6
    sets = {obj for obj, _ in small if isinstance(obj, LatticeSet)}
    kinds = {(SET_ORACLES[ClassLabel.LNAT_SET](s).member, SET_ORACLES[ClassLabel.MNAT_SET](s).member,
              SET_ORACLES[ClassLabel.GLOBAL_DMC_SET](s).member) for s in sets if len(s) >= 8}
    # DMC sets outside L♮, and M♮ sets outside DMC, of at least 2^3 points
    assert (False, False, True) in kinds and (False, True, False) in kinds
    # the IC labels on the check corpus (the DMC labels run on it above):
    # side 3 on the oracles as they are, sides 4 and 5 with the oracles'
    # brute-force hull replaced by the public kernel, so that their pair
    # loops stay independent of the recognizers
    for sides in ((3,), (4, 5)):
        if sides != (3,):
            monkeypatch.setattr(set_oracles, "in_local_hull_bruteforce", hull.in_local_hull)
            monkeypatch.setattr(set_oracles, "local_extension_value_bruteforce", hull.local_extension_value)
        cases = []
        for seed in (1, 7):
            members, misses = build_check_corpus(seed, sides=sides)
            cases += [(i.obj, i.label) for i in members + misses if i.label in (ClassLabel.IC_SET, ClassLabel.IC_FN)]
        assert _assert_pair_scans_match(cases) == len(cases) // 5
    # above the size rules, against the pair scans the routes fall back to,
    # and local DMC against the reading of every pair; an IC member above
    # its rule is decided without a pair scan
    members = routed = 0
    for obj, label in _with_ic_dmc_labels(_large_ic_dmc_objects(random.Random(2525))):
        del pair_scans[:]
        got = check(obj, label)
        if got.member and label == ClassLabel.IC_FN and len(obj) >= 2 * (5**3 - 1):
            assert not pair_scans, (label, obj)
            routed += 1
        assert got == _scanned(obj, label, monkeypatch), (label, obj)
        assert got.member or verify_witness(obj, got.witness), (label, obj)
        members += got.member
    assert members >= 8 and routed >= 4


def _sphere_cases():
    """x -> sum_i (n - i) x_i^2 + (sum x)^2, locally discrete midpoint
    convex, on [0, 8]^2 (81 points) and [0, 6]^3 (343), above the sphere's
    size rule, each followed by near misses whose first violated pair lies
    in the first row, a middle row and the last row that holds a pair on
    the sphere: a value raised at 1, at the centre, and the value at the
    top corner lowered by 5, which its pair with the corner 2 e_n below
    alone cannot absorb."""
    for n, side in ((2, 8), (3, 6)):
        f = {p: sum((n - i) * c * c for i, c in enumerate(p)) + sum(p) ** 2 for p in cube(n, 0, side).points()}
        yield n, side, LatticeFn.of(f)
        for p, change in (((1,) * n, 100), ((side // 2,) * n, 100), ((side,) * n, -5)):
            yield n, side, LatticeFn.of({**f, p: f[p] + change})


def test_the_sphere_reading_keeps_the_scan_witness(monkeypatch):
    # above its size rule the midpoint-two scan reads only the pairs x,
    # x + d with d on the positive half of the l-inf sphere of radius 2, in
    # code order; it answers as the reading of every pair, verdict and
    # witness, where the first violated row holds several violated pairs
    seen = collections.defaultdict(set)
    for n, side, f in _sphere_cases():
        view = _View.of(f)
        assert classes._LINF_SPHERE.pays(view)
        got = classes._scan_pairs(view, "midpoint-two")
        with monkeypatch.context() as m:
            m.setattr(classes._LINF_SPHERE, "pays", lambda v: False)
            assert classes._scan_pairs(_View.of(f), "midpoint-two") == got, f
        assert check(f, ClassLabel.LOCAL_DMC_FN) == got
        x = got.member or got.witness.points[0]
        last = (side,) * (n - 1) + (side - 2,)
        seen[n].add("member" if got.member else "first" if x == (0,) * n else "last" if x == last else "middle")
    assert seen == {n: {"member", "first", "middle", "last"} for n in (2, 3)}


def _routed_rows():
    """(label, row) of each label whose recognizer is a ``_Scan`` row with
    a route."""
    return [(label, row) for label, row in classes._RECOGNIZERS.items()
            if isinstance(row, classes._Scan) and row.route is not None]


def _route_gate_objects(label, corpus):
    """The corpus instances of the label, for a function label with each
    member's domain as a flat function too, and two objects of its kind
    above the size rules: [0, 6]^3, 343 points, as a set and without a
    point, or with x -> sum(x_i^2), above the l-inf ball's 248 points, and
    with a value raised."""
    fn = label in FN_LABELS
    for i in corpus:
        if i.label == label:
            yield i.obj
            if fn and i.member:
                yield indicator_fn(i.obj.domain())
    box = LatticeSet(3, frozenset(cube(3, 0, 6).points()))
    if fn:
        f = _quadratic(indicator_fn(box), lambda p: sum(c * c for c in p))
        yield from (f, LatticeFn(3, {**f.values, (3, 3, 3): 100}))
    else:
        yield from (box, LatticeSet(3, box.points - {(3, 3, 3)}))


def test_every_route_proves_only_members_and_keeps_the_witness():
    # generated from the route table, over the check corpus at seeds 1 and
    # 7 and objects above the size rules: every route returns True or
    # False, True only where the pair scan behind it finds a member, and a
    # check equals its row with the route taken out, verdict and witness
    corpus = [i for seed in (1, 7) for part in build_check_corpus(seed) for i in part]
    answers = collections.Counter()
    for label, row in _routed_rows():
        bare = row._replace(route=None)
        for obj in _route_gate_objects(label, corpus):
            view = _View.of(obj)
            proved = row.route(view, row.kind)
            assert type(proved) is bool, (label, obj)
            assert not proved or classes._scan_pairs(view, row.kind).member, (label, obj)
            assert check(obj, label) == bare(_View.of(obj)), (label, obj)
            answers[label, proved] += 1
    # each route proves some object and hands some other to its scan
    assert {label for label, _ in answers} == {label for label, _ in _routed_rows()}
    assert all(answers[label, True] and answers[label, False] for label, _ in answers), answers


def _assert_family_verdicts_match(cases):
    """check() equals the pair scan of ``set_oracles.check_family`` on each
    (object, label), and its witnesses replay; returns the member count."""
    members = 0
    for obj, label in cases:
        got = check(obj, label)
        assert got == check_family(obj, label), (label, obj)
        assert got.member or verify_witness(obj, got.witness), (label, obj)
        members += got.member
    return members


def test_family_recognizers_match_pair_scans_on_the_check_corpus():
    # the members and near misses of the L♮, L and multimodular labels; the
    # M♮ and M labels run on every finite corpus object in the ordered gate
    cases = []
    for seed in (1, 7):
        members, misses = build_check_corpus(seed)
        cases += [(i.obj, i.label) for i in members + misses if i.label in FAMILY_LABELS - ORDERED_LABELS]
    assert len(cases) == 180
    assert _assert_family_verdicts_match(cases) == 36


def _family_samples(rng):
    """Drawn members of the 10 labels, n = 1..4, each followed by near
    misses: a point dropped and a point added (sets), a value raised
    (functions)."""
    for label in sorted(FAMILY_LABELS):
        for n in range(1, 5):
            for _ in range(4):
                lo = rng.randint(-3, 0)
                window = cube(n, lo, lo + rng.randint(1, 3))
                obj = lab.draw(label, rng, n, window, size_cap=40)
                yield obj, label
                if isinstance(obj, LatticeFn):
                    yield _spiked(obj, rng), label
                    continue
                if len(obj) > 1:
                    yield LatticeSet(n, obj.points - {rng.choice(sorted(obj.points))}, obj.lifted), label
                extra = tuple(rng.randint(a - 1, b + 1) for a, b in zip(window.lo, window.hi))
                yield LatticeSet(n, obj.points | {extra}, obj.lifted), label


def test_family_recognizers_match_pair_scans_on_samples():
    cases = list(_family_samples(random.Random(6160)))
    members = _assert_family_verdicts_match(cases)
    assert len(cases) > 350 and 60 < len(cases) - members < members


def _tables(rng, spans):
    return [lab._convex_table(rng, lo, hi) for lo, hi in spans]


def _lnat_member(rng):
    """An L♮-convex function of 250 to 400 points in Z^3: separable convex
    terms in every x_i and in some x_i - x_j on a box cut by some
    x_i - x_j <= c."""
    while True:
        box = Window((0, 0, 0), tuple(rng.randint(5, 9) for _ in range(3)))
        cuts = {(i, j): rng.randint(1, 4) for i in range(3) for j in range(3) if i != j and rng.random() < 0.3}
        pts = [p for p in box.points() if all(p[i] - p[j] <= c for (i, j), c in cuts.items())]
        if 250 <= len(pts) <= 320:
            break
    axis = _tables(rng, [(0, hi) for hi in box.hi])
    pairs = [(i, j) for i in range(3) for j in range(i + 1, 3) if rng.random() < 0.6]
    diff = dict(zip(pairs, _tables(rng, [(-9, 9)] * len(pairs))))
    return LatticeFn(3, {
        p: sum(t[c] for t, c in zip(axis, p)) + sum(t[p[i] - p[j]] for (i, j), t in diff.items()) for p in pts
    })


def _mnat_member(rng, n=3, size=(256, 320)):
    """An M♮-convex function of ``size`` points in Z^n: convex terms in
    x(X) over a laminar family of subsets X on a box cut by bounds on x(X).
    The family is the chain {0, n - 1} < {0, n - 1, 1} < ... and the
    singletons, so for n = 3 its first set is not an interval."""
    order = [0, n - 1] + list(range(1, n - 1))
    while True:
        box = Window((0,) * n, tuple(rng.randint(4, 24 if n == 2 else 9) for _ in range(n)))
        family = [tuple(order[: k + 1]) for k in range(1, n)] + [(i,) for i in range(n)]
        cuts = {a: rng.randint(sum(box.hi[i] for i in a) // 2, sum(box.hi[i] for i in a)) for a in family[: n - 1]}
        pts = [p for p in box.points() if all(sum(p[i] for i in a) <= c for a, c in cuts.items())]
        if size[0] <= len(pts) <= size[1]:
            break
    tables = dict(zip(family, _tables(rng, [(0, sum(box.hi[i] for i in a)) for a in family])))
    return LatticeFn(n, {p: sum(t[sum(p[i] for i in a)] for a, t in tables.items()) for p in pts})


def _near_misses(f: LatticeFn, rng):
    """f with a value raised above the spread, f with a point dropped, the
    domain with a point dropped and with a point added."""
    dom = f.domain()
    drop = rng.choice(sorted(dom.points))
    box = f.bounding_box()
    extra = tuple(rng.choice((a - 1, b + 1)) if i == 0 else rng.randint(a, b) for i, (a, b) in enumerate(zip(box.lo, box.hi)))
    rest = {p: v for p, v in f.values.items() if p != drop}
    return [_spiked(f, rng), LatticeFn(f.dim, rest), LatticeSet(f.dim, dom.points - {drop}),
            LatticeSet(f.dim, dom.points | {extra})]


def _quadratic(f: LatticeFn, q) -> LatticeFn:
    """q(x) on the domain of f."""
    return LatticeFn(f.dim, {p: q(p) for p in f.values})


def _lifted(obj, rng):
    """The lift along 1 of a finite object, with a ramp for a function."""
    vals = {p + (0,): v for p, v in core.value_map(obj).items()}
    if isinstance(obj, LatticeSet):
        return LatticeSet(obj.dim + 1, frozenset(vals), lifted=True)
    return LatticeFn(obj.dim + 1, vals, lifted=True, ramp=Fraction(rng.randint(-3, 3), 2))


def _large_family_cases(rng):
    """(object, label) with 250 to 320 points, above the size rules of the
    l-inf ball in Z^3 and of the row reading: members of each label with
    their near misses, and functions of the other family on the same
    domain (an L♮ quadratic that is not M♮, and a submodular quadratic that
    is not L♮, which only pairs at l-inf distance 2 show)."""
    for _ in range(1):
        f = _lnat_member(rng)
        others = [_quadratic(f, lambda p: (p[0] - 2 * p[1]) ** 2 + p[2] * p[2])]
        for obj in [f, f.domain()] + _near_misses(f, rng) + others:
            fn = isinstance(obj, LatticeFn)
            yield obj, ClassLabel.LNAT_FN if fn else ClassLabel.LNAT_SET
            yield difference_transform(obj), ClassLabel.MULTIMODULAR_FN if fn else ClassLabel.MULTIMODULAR_SET
            yield _lifted(obj, rng), ClassLabel.L_FN if fn else ClassLabel.L_SET
        g = _mnat_member(rng)
        for obj in [g, g.domain()] + _near_misses(g, rng) + [_quadratic(g, lambda p: (p[0] - p[1]) ** 2 + p[2])]:
            yield obj, ClassLabel.MNAT_FN if isinstance(obj, LatticeFn) else ClassLabel.MNAT_SET
        h = _mnat_member(rng, n=2)
        for obj in [h, h.domain()] + _near_misses(h, rng) + [_quadratic(h, lambda p: (p[0] - p[1]) ** 2)]:
            yield lab.m_lift(obj), ClassLabel.M_FN if isinstance(obj, LatticeFn) else ClassLabel.M_SET


def test_family_recognizers_match_pair_scans_above_the_size_rule(pair_scans, predicate_calls):
    cases = list(_large_family_cases(random.Random(7170)))
    assert all(250 <= len(obj) <= 321 for obj, _ in cases)
    assert {label for _, label in cases} == FAMILY_LABELS
    rows = {ClassLabel.MNAT_FN: "exchange-mnat-fn", ClassLabel.M_FN: "exchange-m-fn"}
    members = 0
    for obj, label in cases:
        del pair_scans[:], predicate_calls[:]
        got = check(obj, label)
        assert got == check_family(obj, label), (label, obj)
        assert got.member or verify_witness(obj, got.witness), (label, obj)
        # a member above the rule is decided without a pair scan, but for
        # an M♮ or M function that is not flat, which is read by rows: one
        # pair scan and no predicate call
        if got.member and label in rows and len(set(obj.values.values())) > 1:
            assert [args[1:] for args in pair_scans] == [(rows[label],)] and not predicate_calls, (label, obj)
        else:
            assert not (got.member and pair_scans), (label, obj)
        members += got.member
    assert 0.25 < members / len(cases) < 0.6


def _shortcut_sets():
    """Sets and functions that defeat a shortcut: sets equal to the lattice
    points of their bounds whose bounds are not paramodular, so they are
    not M♮ (or, lifted, not M); a sparse set whose bounding box holds
    millions of points; two boxes far apart, each one L♮."""
    for k in (1, 2, 8):
        s = LatticeSet(3, frozenset(p for p in cube(3, 0, k).points() if p[0] + p[1] <= k and p[1] + p[2] <= k))
        if k < 8:
            yield s, ClassLabel.MNAT_SET
            yield indicator_fn(s), ClassLabel.MNAT_FN
            yield lab.m_lift(s), ClassLabel.M_SET
        else:  # 285 points: above the size rule
            yield _quadratic(indicator_fn(s), lambda p: sum(c * c for c in p)), ClassLabel.MNAT_FN
    sparse = LatticeSet.of([(0, 0, 0), (150, 150, 150)])
    for label in (ClassLabel.LNAT_SET, ClassLabel.MULTIMODULAR_SET, ClassLabel.MNAT_SET):
        yield sparse, label
    two = LatticeSet(3, frozenset(cube(3, 0, 6).points()) | frozenset(cube(3, 20, 26).points()))
    yield _quadratic(indicator_fn(two), lambda p: sum(c * c for c in p)), ClassLabel.LNAT_FN
    yield _quadratic(indicator_fn(two), lambda p: sum(c * c for c in p)), ClassLabel.MNAT_FN


def test_family_recognizers_defeat_the_shortcuts():
    cases = list(_shortcut_sets())
    assert _assert_family_verdicts_match(cases) == 0


# pairwise coprime denominators above 2**32: any two of them exceed 2**64
_BIG = (2**32 + 15, 2**32 + 17, 2**32 + 19, 2**32 + 21)


def _with_mixed_denominators(f: LatticeFn) -> LatticeFn:
    """f moved by 10 * (1, ..., 1) (a finite f: off the coordinate
    hyperplanes) plus the linear function x -> sum(x_i / d_i).  Neither move
    changes membership in any class here, and both give the values, or a
    lifted function's ramp, denominators whose least common multiple
    exceeds 2**64."""
    c = [Fraction(1, d) for d in _BIG[: f.dim]]
    shift = 0 if f.lifted else 10
    vals = {}
    for p, v in f.values.items():
        q = vshift(p, shift)
        vals[q] = v + sum(ci * qi for ci, qi in zip(c, q))
    return LatticeFn(f.dim, vals, f.lifted, f.ramp + sum(c) if f.lifted else 0)


def test_function_verdicts_are_scale_invariant():
    rng = random.Random(1729)
    for label in sorted(FN_LABELS, key=lambda label: label.value):
        for _ in range(4):
            f = _with_mixed_denominators(lab.draw(label, rng, 3, cube(3, 1, 3), size_cap=24))
            scale = math.lcm(f.ramp.denominator, *(v.denominator for v in f.values.values()))
            assert scale > 2**64, label
            for g in (f, _raised(f, rng)):
                want = check(g, label)
                for k in (Fraction(1, 6), Fraction(7, 3), Fraction(5)):
                    kg = LatticeFn(g.dim, {p: k * v for p, v in g.values.items()}, g.lifted, k * g.ramp)
                    assert check(kg, label) == want, (label, k, sorted(g.values.items()))


def _naive_transform(s: LatticeSet, net: Network) -> LatticeSet:
    """Product-space flow scan with no pruning; only usable on tiny nets."""
    targets = set()
    internal = set(net.vertices) - set(net.entrance) - set(net.exit)
    ranges = [range(a.lower, a.upper + 1) for a in net.arcs]
    for flow in itertools.product(*ranges):
        supply = {v: 0 for v in net.vertices}
        for value, arc in zip(flow, net.arcs):
            supply[arc.tail] += value
            supply[arc.head] -= value
        if any(supply[v] != 0 for v in internal):
            continue
        if tuple(supply[v] for v in net.entrance) in s.points:
            targets.add(tuple(-supply[v] for v in net.exit))
    return LatticeSet(len(net.exit), frozenset(targets))


def test_flow_enumeration_matches_naive_scan():
    rng = random.Random(5050)
    for _ in range(40):
        n_in = rng.randint(1, 2)
        n_out = rng.randint(1, 2)
        us = [f"u{i}" for i in range(n_in)]
        ws = [f"w{j}" for j in range(n_out)]
        vertices = us + ws + ["z"]
        arcs = []
        for _ in range(rng.randint(2, 4)):
            tail = rng.choice(us + ["z"])
            head = rng.choice([w for w in ws if w != tail] + (["z"] if tail != "z" else []))
            lo = rng.randint(-1, 0)
            arcs.append(Arc(tail, head, lo, lo + rng.randint(0, 2), ArcCost.zero()))
        if not any(a.tail in us for a in arcs):
            continue
        net = Network(tuple(vertices), tuple(arcs), tuple(us), tuple(ws))
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n_in)) for _ in range(rng.randint(1, 5))
        )
        s = LatticeSet(n_in, pts)
        assert transform_set(s, net) == _naive_transform(s, net)


# Denominators include large primes, so some scales pass 2**64.
_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353)


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6) + _PRIMES))


def _assert_same(got, want, what):
    assert got == want, what
    assert documents.to_text(got) == documents.to_text(want), what


def _entrance_range(obj, net):
    box = obj.bounding_box()
    return {v: (box.lo[i], box.hi[i]) for i, v in enumerate(net.entrance)}


def _oracle_flows(net, entrance_range):
    """The oracle's flows as production reports them: (cost as an int over
    the network's cost scale, entrance supply, exit supply), in order."""
    tables = [dict(a.cost.table or ()) for a in net.arcs]
    scale = math.lcm(*(c.denominator for table in tables for c in table.values()))
    out = []
    for flow, on_u, on_w in set_oracles.enumerate_flows(net, entrance_range):
        cost = sum((table[t] for table, t in zip(tables, flow) if table), Fraction(0)) * scale
        assert cost.denominator == 1
        out.append((cost.numerator, on_u, on_w))
    return out


def _assert_same_induction(obj, net, what):
    entrance_range = _entrance_range(obj, net)
    flows = list(network._enumerate_flows(net, entrance_range))
    assert flows == _oracle_flows(net, entrance_range), what
    try:
        want = set_oracles.induce_fn(obj, net)
    except EmptyResultError:
        with pytest.raises(EmptyResultError):
            induce_fn(obj, net)
        return len(flows)
    _assert_same(induce_fn(obj, net), want, what)
    return len(flows)


def test_induction_matches_oracle_on_the_benchmark_networks(tmp_path):
    for seed in (1, 7):
        w = Transform()
        w.prepare(seed, str(tmp_path / str(seed)))
        induced = [argv for _, argv, _ in w.requests if argv[0] == "induce"]
        assert len(induced) == 3
        for argv in induced:
            net, obj = documents.load(argv[2]), documents.load(argv[4])
            assert _assert_same_induction(obj, net, (seed, argv[2])) > 0


def _varied(net: Network, rng) -> Network:
    """net with each cost table c made t -> k * c(t) + a * t + b for seeded
    fractions k > 0, a and b (still convex, with large denominators), some
    arcs reversed (bounds and costs read at -t) and the arcs shuffled, so
    entrances and internal vertices are also heads, and last."""
    arcs = []
    for arc in net.arcs:
        tail, head, lower, upper = arc.tail, arc.head, arc.lower, arc.upper
        table = dict(arc.cost.table or {})
        if table and rng.random() < 0.7:
            k = abs(_fraction(rng)) or Fraction(1)
            a, b = _fraction(rng), _fraction(rng)
            table = {t: k * c + a * t + b for t, c in table.items()}
        if rng.random() < 0.3:
            tail, head, lower, upper = head, tail, -upper, -lower
            table = {-t: c for t, c in table.items()}
        arcs.append(Arc(tail, head, lower, upper, ArcCost.from_table(table) if table else ArcCost.zero()))
    rng.shuffle(arcs)
    return Network(net.vertices, tuple(arcs), net.entrance, net.exit)


def _costed(lo, hi, rng):
    """A convex cost table on [lo, hi] with large-prime denominators."""
    slopes = sorted(_fraction(rng) for _ in range(hi - lo))
    table = {lo: _fraction(rng)}
    for t, slope in zip(range(lo + 1, hi + 1), slopes):
        table[t] = table[t - 1] + slope
    return ArcCost.from_table(table)


def test_induction_matches_oracle_on_edge_networks():
    rng = random.Random(9090)

    def arc(tail, head, lo, hi, costed=True):
        return Arc(tail, head, lo, hi, _costed(lo, hi, rng) if costed else ArcCost.zero())

    def build(*arcs, entrance=("u",)):
        return Network(entrance + ("z", "w"), arcs, entrance, ("w",))

    cases = [
        ("no arcs", build(), [(0,), (1,)], 1),
        ("no arcs, 0 outside the entrance range", build(), [(1,), (2,)], 0),
        ("1 x 1", build(arc("u", "w", -2, 3)), [(-1,), (0,), (2,)], 4),
        ("entrance only a head", build(arc("w", "u", -2, 2)), [(-1,), (1,)], 3),
        ("internal only a head", build(arc("u", "z", -1, 2), arc("u", "w", -1, 2)), [(0,), (2,)], 3),
        ("internal a tail before a head",
         build(arc("z", "w", 0, 2), arc("u", "w", 0, 2, False), arc("u", "z", 0, 2)), [(0,), (1,)], 3),
        ("entrance box admits no flow", build(arc("u", "w", 0, 2)), [(5,), (6,)], 0),
        ("an entrance no arc touches, 0 out of range",
         build(arc("u0", "w", 0, 2, False), entrance=("u0", "u1")), [(0, 1), (1, 2)], 0),
        ("loops at an entrance, inside and at an exit",
         build(arc("u", "u", -1, 1), arc("u", "z", 0, 2, False), arc("z", "z", 0, 2), arc("z", "w", 0, 2, False),
             arc("w", "w", 1, 2)), [(0,), (1,)], 3 * 2 * 3 * 2),
    ]
    for what, net, pts, n_flows in cases:
        f = LatticeFn(len(pts[0]), {p: _fraction(rng) for p in pts})
        s = LatticeSet(len(pts[0]), frozenset(pts))
        for obj in (s, f):
            assert _assert_same_induction(obj, net, what) == n_flows, what
        # a set weighs no cost: its image is that of the same network with free arcs
        free = [Arc(a.tail, a.head, a.lower, a.upper) for a in net.arcs]
        assert transform_set(s, net) == transform_set(s, Network(net.vertices, free, net.entrance, net.exit)), what
    assert list(network._enumerate_flows(build(), {"u": (0, 1)})) == [(0, (0,), (0,))]


def test_induction_reads_every_flow_through_the_module_attribute(tmp_path, monkeypatch):
    """The benchmark counts flows by putting a wrapper in place of
    ``network._enumerate_flows`` and reads each item's entrance point:
    induce_fn must pass every flow through that attribute."""
    w = Transform()
    w.prepare(1, str(tmp_path))
    real, seen = network._enumerate_flows, []

    def counted(net, entrance_range):
        for item in real(net, entrance_range):
            seen.append(item)
            yield item

    monkeypatch.setattr(network, "_enumerate_flows", counted)
    done = set()
    for name, argv, _ in w.requests:
        if name not in ("induce-mesh", "transform-wide"):
            continue
        net, obj = documents.load(argv[2]), documents.load(argv[4])
        want = _oracle_flows(net, _entrance_range(obj, net))
        seen.clear()
        induce_fn(obj, net)
        assert len(seen) == len(want) > 0, name
        assert [item[1] for item in seen] == [x for _, x, _ in want], name
        assert all(type(item[1]) is tuple and len(item[1]) == obj.dim for item in seen), name
        assert sum(item[1] in (obj.values if hasattr(obj, "values") else obj.points) for item in seen) > 0, name
        done.add(name)
    assert done == {"induce-mesh", "transform-wide"}


def test_induction_matches_oracle_on_random_networks():
    rng = random.Random(8080)
    wide = flows = 0
    for _ in range(220):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        net = _varied(lab._random_network(rng, n, m, with_costs=True), rng)
        pts = {tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 8))}
        f = LatticeFn(n, {p: _fraction(rng) for p in pts})
        for obj in (LatticeSet(n, frozenset(pts)), f):
            flows += _assert_same_induction(obj, net, (n, m, net))
        tables = [dict(a.cost.table) for a in net.arcs if a.cost.table is not None]
        wide += core.scaled(f.values, *tables)[0] > 2**64
    assert wide >= 50 and flows > 0


def _cut_reuse(net, entrance_range):
    """Per cut of the flow walk (a level, not the first or the last, before
    which a non-exit vertex had its last arc; a loop is no vertex's arc):
    the number of distinct prefixes of the oracle's flows there, and of
    distinct supplies they leave on the non-exit vertices that the arcs
    from the cut on touch.  More prefixes than supplies means the walk
    meets a suffix it has walked before."""
    flows = [flow for flow, _, _ in set_oracles.enumerate_flows(net, entrance_range)]
    inside = set(net.vertices) - set(net.exit)
    touched = [inside & {a.tail, a.head} if a.tail != a.head else set() for a in net.arcs]
    out = {}
    for k in range(1, len(net.arcs) - 1):
        opened = set().union(*touched[k:])
        if touched[k - 1] <= opened:
            continue
        prefixes = {flow[:k] for flow in flows}
        keys = set()
        for prefix in prefixes:
            supply = dict.fromkeys(opened, 0)
            for a, v in zip(net.arcs, prefix):
                if a.tail in supply:
                    supply[a.tail] += v
                if a.head in supply:
                    supply[a.head] -= v
            keys.add(tuple(sorted(supply.items())))
        out[k] = (len(prefixes), len(keys))
    return out


def test_flow_memo_matches_oracle_where_cuts_repeat_keys():
    """Networks whose walk meets the same suffix again after a cut: the
    flows, with their costs, codes and order, are the oracle's."""
    rng = random.Random(6161)

    def arc(tail, head, lo, hi):
        return Arc(tail, head, lo, hi, _costed(lo, hi, rng))

    def build(*arcs, entrance=("u0", "u1"), exits=("w0", "w1")):
        return Network(entrance + ("z1", "z2") + exits, arcs, entrance, exits)

    cases = [
        ("an exit the tail of an arc into an internal vertex", build(
            arc("u0", "w0", -1, 1), arc("u0", "z1", 0, 2), arc("u1", "w0", 0, 2), arc("u1", "z1", -1, 1),
            arc("w0", "z1", -1, 1), arc("z1", "w1", -3, 4)), {"u0": (-1, 2), "u1": (-1, 2)}),
        ("loops next to cuts", build(
            arc("u0", "w0", -1, 1), arc("u0", "z1", 0, 2), arc("u0", "u0", -1, 1), arc("u1", "w0", -1, 1),
            arc("u1", "z1", -1, 1), arc("z1", "z1", 0, 2), arc("w1", "w1", 0, 1), arc("z1", "w1", -2, 3),
            arc("w1", "w1", -1, 1)), {"u0": (-1, 2), "u1": (-2, 1)}),
        ("twelve arcs", build(
            arc("u0", "w0", 0, 1), arc("u0", "z1", 0, 1), arc("u1", "w1", -1, 1), arc("u1", "z1", 0, 1),
            arc("u1", "z2", 0, 1), arc("u2", "w2", 0, 1), arc("u2", "z2", -1, 1), arc("z1", "w0", 0, 1),
            arc("z1", "z2", -1, 1), arc("z1", "w1", -1, 1), arc("z2", "w1", 0, 2), arc("z2", "w2", -1, 1),
            entrance=("u0", "u1", "u2"), exits=("w0", "w1", "w2")), {"u0": (0, 2), "u1": (-1, 2), "u2": (-1, 1)}),
    ]
    assert len(cases[2][1].arcs) == network.MAX_ARCS
    for what, net, entrance_range in cases:
        assert any(visits > keys for visits, keys in _cut_reuse(net, entrance_range).values()), what
        want = _oracle_flows(net, entrance_range)
        assert list(network._enumerate_flows(net, entrance_range)) == want, what
        # twice in a row: nothing is kept from one call to the next
        assert list(network._enumerate_flows(net, entrance_range)) == want, what
    reused = 0
    for k in range(16):
        net, entrance_range = (
            (mesh_network(rng), {u: (0, 1) for u in ("u0", "u1", "u2")}) if k % 2 else
            (lab.laminar_tree_network(), {"u": (-3, 3)}))
        net = _varied(net, rng)
        reused += any(visits > keys for visits, keys in _cut_reuse(net, entrance_range).values())
        assert list(network._enumerate_flows(net, entrance_range)) == _oracle_flows(net, entrance_range), net
    assert reused >= 8


def test_flows_match_oracle_on_the_matrix_networks(monkeypatch):
    """Every flow enumeration the closure matrix makes, at two seeds, is
    the oracle's list."""
    real, calls = network._enumerate_flows, []

    def recorded(net, entrance_range):
        flows = list(real(net, entrance_range))
        calls.append((net, dict(entrance_range), flows))
        return iter(flows)

    monkeypatch.setattr(network, "_enumerate_flows", recorded)
    for seed in (1, 7):
        lab.run_closure_matrix(2, seed)
    assert len(calls) >= 20 and sum(len(flows) for _, _, flows in calls) > 0
    for net, entrance_range, flows in calls:
        assert flows == _oracle_flows(net, entrance_range), net


def _convolution_operands(rng):
    """Pairs of sets, or of functions, of equal dimension: negative lower
    corners, one-point and one-dimensional operands, coordinates near 10**20,
    and multi-point functions of one nonzero value, paired with each other
    and with functions of several values."""
    for k in range(240):
        n = rng.choice((1, 1, 2, 2, 3))
        shifts = [rng.choice((0, 0, 10**20, -(10**20))) for _ in range(2)] if k % 3 == 0 else [0, 0]
        operands = []
        for shift in shifts:
            lo = [rng.randint(-5, 2) for _ in range(n)]
            size = 1 if rng.random() < 0.15 else rng.randint(1, 9)
            pts = {tuple(a + shift + rng.randint(0, 3) for a in lo) for _ in range(size)}
            operands.append(pts)
        if k % 2:
            yield tuple(LatticeSet(n, frozenset(pts)) for pts in operands)
        else:
            yield tuple(LatticeFn(n, {p: _fraction(rng) for p in pts}) for pts in operands)
    yield LatticeFn.of({(t, 0): Fraction(1, 2) for t in range(5)}), LatticeFn.of({(0, t): -3 for t in range(4)})
    for k in range(60):
        n = rng.choice((1, 2, 3))
        operands = []
        for flat in (k % 3 != 2, k % 3 != 1):  # both flat, then only the first, then only the second
            lo = [rng.randint(-5, 2) for _ in range(n)]
            box = list(itertools.product(*(range(a, a + 4) for a in lo)))
            pts = rng.sample(box, rng.randint(2, min(9, len(box))))
            value = Fraction(rng.choice((-9, -3, -1, 1, 3, 7)), rng.choice((1, 2, 3)))
            operands.append(LatticeFn(n, {p: value if flat else _fraction(rng) for p in pts}))
        yield tuple(operands)


def test_convolution_matches_oracle_on_random_pairs():
    rng = random.Random(9090)
    for a, b in _convolution_operands(rng):
        _assert_same(convolution_fn(a, b), set_oracles.convolution_fn(a, b), (a, b))


def test_lifted_pair_sum_matches_oracle(monkeypatch):
    rng = random.Random(9191)
    pairs = []
    for _ in range(60):
        n = rng.randint(2, 4)
        reps = [{tuple(rng.randint(-3, 2) for _ in range(n - 1)) + (0,) for _ in range(rng.randint(1, 5))}
                for _ in range(2)]
        if rng.random() < 0.5:
            pairs.append(tuple(LatticeSet(n, frozenset(r), lifted=True) for r in reps))
        else:
            pairs.append(tuple(LatticeFn(n, {p: _fraction(rng) for p in r}, True, _fraction(rng)) for r in reps))
    got = [lab._lifted_pair_sum(a, b) for a, b in pairs]
    monkeypatch.setattr(lab, "convolution_fn", set_oracles.convolution_fn)
    for (a, b), g in zip(pairs, got):
        _assert_same(g, lab._lifted_pair_sum(a, b), (a, b))
