"""Acceptance suite.

One test per criterion, each printing a single PASS line with its headline
numbers (visible with ``pytest -s`` or in captured output).  Everything is
exact rational arithmetic; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from dconvex import lab
from dconvex.classes import (
    ClassLabel,
    Witness,
    argmin_perturbed,
    check_fn,
    check_set,
    multimodular_polyhedral_check,
    verify_witness,
)
from dconvex.core import (
    LatticeFn,
    LatticeSet,
    cube,
    difference_point,
    prefix_point,
    prefix_transform,
    vadd,
)
from dconvex.hull import in_local_hull
from dconvex.network import aggregation_network, induce_fn, splitting_network, transform_set
from dconvex.ops import (
    PartitionSpec,
    SplitSpec,
    aggregate_fn,
    aggregate_set,
    direct_sum_fn,
    direct_sum_set,
    split_set,
)
from hull_oracle import in_local_hull_bruteforce

F = Fraction

MATRIX_SEED = 20200801
MATRIX_TRIALS = 100

# frozen copy of the expected closure behavior, kept independent of lab's
# own tables on purpose (op order: direct sum, splitting, aggregation,
# network induction)
EXPECTED_SET_GRID = {
    "Integer box": "YNYN",
    "Integrally convex": "YYNN",
    "L-natural-convex": "YNNN",
    "L-convex": "YNNN",
    "M-natural-convex": "YYYY",
    "M-convex": "YYYY",
    "Multimodular": "YYNN",
    "Disc. midpoint convex": "NNNN",
    "Simult. exch. jump": "YYYY",
    "Const-parity jump": "YYYY",
}
EXPECTED_FN_GRID = {
    "Separable convex": "YNYN",
    "Integrally convex": "YYNN",
    "L-natural-convex": "YNNN",
    "L-convex": "YNNN",
    "M-natural-convex": "YYYY",
    "M-convex": "YYYY",
    "Multimodular": "YYNN",
    "Globally d.m.c.": "NNNN",
    "Locally d.m.c.": "NNNN",
    "Jump M-natural-convex": "YYYY",
    "Jump M-convex": "YYYY",
}

NAMED_RECORDS = ("EX2.2", "EX3.1", "EX3.2", "EX3.3", "EX3.4", "EX3.5", "EX3.6", "EX4.1", "EX4.2")


def test_criterion_1_counterexample_registry():
    t0 = time.perf_counter()
    results = {r.record_id: r for r in lab.run_counterexamples()}
    elapsed = time.perf_counter() - t0
    for rid in NAMED_RECORDS:
        assert results[rid].passed, (rid, results[rid].messages)
    assert all(r.passed for r in results.values())
    assert elapsed < 1.0, f"registry took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1: PASS - {len(results)} records replay exactly in {elapsed:.3f}s")


def test_criterion_2_closure_matrix():
    t0 = time.perf_counter()
    report = lab.run_closure_matrix(trials=MATRIX_TRIALS, seed=MATRIX_SEED, max_dim=4)
    elapsed = time.perf_counter() - t0
    grid = {}
    for c in report.cells:
        grid.setdefault((c.spec.table, c.spec.display), {})[c.spec.op] = c
    for display, pattern in EXPECTED_SET_GRID.items():
        for op, expected in zip(lab.OPS, pattern):
            cell = grid[(1, display)][op]
            assert cell.spec.expected == expected, (display, op)
            assert cell.ok, (display, op, cell.failures[:1])
            if expected == "Y":
                assert cell.passed == cell.trials == MATRIX_TRIALS, (display, op)
    for display, pattern in EXPECTED_FN_GRID.items():
        for op, expected in zip(lab.OPS, pattern):
            cell = grid[(2, display)][op]
            assert cell.spec.expected == expected, (display, op)
            assert cell.ok, (display, op, cell.failures[:1])
            if expected == "Y":
                assert cell.passed == cell.trials == MATRIX_TRIALS, (display, op)
    assert report.passed
    assert elapsed < 600.0, f"matrix took {elapsed:.1f}s"
    ycells = sum(1 for c in report.cells if c.spec.expected == "Y")
    print(
        f"\nACCEPTANCE 2: PASS - 84-cell grid matches, {ycells} closed cells x "
        f"{MATRIX_TRIALS} trials in {elapsed:.1f}s"
    )


def _random_fn(rng, n):
    vals = {}
    for _ in range(rng.randint(1, 10)):
        p = tuple(rng.randint(-2, 2) for _ in range(n))
        vals[p] = F(rng.randint(-4, 4), rng.choice((1, 2)))
    return LatticeFn(n, vals)


def test_criterion_3_coordinate_change_roundtrip():
    rng = random.Random("criterion-3")
    checked = 0
    members = 0
    for n in (2, 3, 4):
        for i in range(200):
            if i % 2 == 0:
                f = lab.gen_multimodular_fn(rng, n, cube(n, -1, 1))
            else:
                f = _random_fn(rng, n)
            vm = check_fn(f, ClassLabel.MULTIMODULAR_FN)
            g = prefix_transform(f)
            vl = check_fn(g, ClassLabel.LNAT_FN)
            assert vm.member == vl.member
            if vm.member:
                members += 1
            else:
                # the two witnesses are images of one another under the
                # coordinate change, and each replays in its own space
                x, y = vm.witness.points
                p, q = vl.witness.points
                assert (prefix_point(x), prefix_point(y)) == (p, q)
                assert (difference_point(p), difference_point(q)) == (x, y)
                assert verify_witness(g, Witness("midpoint", (p, q)))
                assert verify_witness(f, vm.witness)
            checked += 1
    assert checked == 600
    print(
        f"\nACCEPTANCE 3: PASS - 600 functions, verdicts agree through the "
        f"coordinate change ({members} members), witnesses map both ways"
    )


def test_criterion_4_interval_sum_description():
    rng = random.Random("criterion-4")
    for i in range(100):
        n = rng.randint(2, 4)
        s = lab.draw(ClassLabel.MULTIMODULAR_SET, rng, n, cube(n, -1, 1))
        assert multimodular_polyhedral_check(s, s.bounding_box()), sorted(s.points)
    bad = LatticeSet.of([(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)])
    assert not multimodular_polyhedral_check(bad, bad.bounding_box())
    print("\nACCEPTANCE 4: PASS - 100 generated sets satisfy the interval-sum description; the registry image does not")


ARGMIN_PAIRS = (
    (ClassLabel.SEPARABLE_CONVEX, ClassLabel.INTEGER_BOX),
    (ClassLabel.IC_FN, ClassLabel.IC_SET),
    (ClassLabel.LNAT_FN, ClassLabel.LNAT_SET),
    (ClassLabel.L_FN, ClassLabel.L_SET),
    (ClassLabel.MNAT_FN, ClassLabel.MNAT_SET),
    (ClassLabel.M_FN, ClassLabel.M_SET),
    (ClassLabel.MULTIMODULAR_FN, ClassLabel.MULTIMODULAR_SET),
)


def test_criterion_5_minimizer_set_classes():
    rng = random.Random("criterion-5")
    instances = 50
    total = 0
    for fn_label, set_label in ARGMIN_PAIRS:
        for i in range(instances):
            n = 3 if i % 5 == 0 else 2
            f = lab.draw(fn_label, rng, n, _argmin_window(fn_label, n))
            for c in lab.sample_perturbations(n, rng, extra=50):
                if fn_label is ClassLabel.L_FN:
                    shift = (f.ramp - sum(c)) / n
                    c = tuple(ci + shift for ci in c)
                arg = argmin_perturbed(f, c)
                assert check_set(arg, set_label).member, (fn_label, sorted(f.values.items()), c)
                total += 1
    # jump M-convex on {0,1}^n: minimizers form constant-parity jump systems
    for i in range(instances):
        n = rng.randint(3, 4)
        f = None
        for _ in range(100):
            cand = lab.gen_jump_m_fn_01(rng, n, cube(n, 0, 1))
            if check_fn(cand, ClassLabel.JUMP_M_FN).member:
                f = cand
                break
        assert f is not None
        assert all(all(c in (0, 1) for c in p) for p in f.values)
        for c in lab.sample_perturbations(n, rng, extra=20):
            arg = argmin_perturbed(f, c)
            assert check_set(arg, ClassLabel.CONST_PARITY_JUMP).member
            total += 1
    # the explicit family: not jump M-convex, yet every perturbed argmin is
    # a constant-parity jump system
    f = lab._build_two_param_jump_fn(F(1), F(2))
    assert not check_fn(f, ClassLabel.JUMP_M_FN).member
    for c in lab.sample_perturbations(2, rng, extra=50):
        assert check_set(argmin_perturbed(f, c), ClassLabel.CONST_PARITY_JUMP).member
        total += 1
    print(f"\nACCEPTANCE 5: PASS - {total} perturbed argmin checks across 8 statements plus the boundary family")


def _argmin_window(label, n):
    if label in (ClassLabel.IC_FN,):
        return cube(n, 0, 2)
    if label in (ClassLabel.MULTIMODULAR_FN, ClassLabel.LNAT_FN, ClassLabel.L_FN):
        return cube(n, -1, 1)
    return cube(n, -2, 2)


def test_criterion_6_tree_network_induction():
    t0 = time.perf_counter()
    net = lab.laminar_tree_network()
    f = LatticeFn.of({(t,): 0 for t in range(-6, 7)})
    g = induce_fn(f, net)
    window_points = list(cube(3, -2, 2).points())
    assert len(window_points) == 125
    plus = all(g.values.get(y) == lab.laminar_closed_form(y) for y in window_points)
    minus = all(
        g.values.get(y) == lab.laminar_closed_form(tuple(-c for c in y)) for y in window_points
    )
    assert plus or minus
    orientation = {(True, True): "both", (True, False): "+y", (False, True): "-y"}[(plus, minus)]
    assert check_fn(g, ClassLabel.MNAT_FN).member
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 6: PASS - induced function matches the closed form at all "
        f"125 window points (orientation: {orientation}) and is M-natural-convex; {elapsed:.2f}s"
    )


def test_criterion_7_composition_identities():
    rng = random.Random("criterion-7")
    pairing = lambda n: PartitionSpec(tuple((i, n + i) for i in range(n)))
    for _ in range(100):
        n = rng.randint(1, 3)
        s1 = LatticeSet(
            n, frozenset(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6)))
        )
        s2 = LatticeSet(
            n, frozenset(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6)))
        )
        direct = LatticeSet(n, frozenset(vadd(x, y) for x in s1.points for y in s2.points))
        routed = aggregate_set(direct_sum_set(s1, s2), pairing(n))
        assert direct == routed
    for _ in range(100):
        n = rng.randint(1, 3)
        f1 = _random_fn(rng, n)
        f2 = _random_fn(rng, n)
        direct = {}
        for y, v in f1.values.items():
            for z, w in f2.values.items():
                x = vadd(y, z)
                if x not in direct or v + w < direct[x]:
                    direct[x] = v + w
        routed = aggregate_fn(direct_sum_fn(f1, f2), pairing(n))
        assert LatticeFn(n, direct) == routed
    # bipartite networks reproduce splitting and aggregation
    for _ in range(25):
        n = rng.randint(1, 2)
        s = LatticeSet(
            n, frozenset(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 5)))
        )
        blocks = tuple(rng.randint(1, 2) for _ in range(n))
        w = cube(sum(blocks), -3, 3)
        assert transform_set(s, splitting_network(blocks, w)) == split_set(s, SplitSpec(blocks), w)
    for _ in range(25):
        n = rng.randint(2, 4)
        s = LatticeSet(
            n, frozenset(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6)))
        )
        spec = lab._random_partition(rng, n)
        box = s.bounding_box()
        net = aggregation_network(spec.groups, list(zip(box.lo, box.hi)))
        assert transform_set(s, net) == aggregate_set(s, spec)
    print(
        "\nACCEPTANCE 7: PASS - 200 sum/convolution route agreements and 50 "
        "bipartite network reproductions"
    )


def test_criterion_8_hull_oracle_equivalence():
    rng = random.Random("criterion-8")
    agree = 0
    for _ in range(500):
        n = rng.randint(1, 3)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))
        )
        s = LatticeSet(n, pts)
        x = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
        assert in_local_hull(s, x) == in_local_hull_bruteforce(s, x)
        agree += 1
    assert agree == 500
    print("\nACCEPTANCE 8: PASS - simplex and basic-solution enumeration agree on 500 hull queries")
