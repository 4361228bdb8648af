import dataclasses
import itertools
import math
from functools import partial
import os
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from dconvex import classes, hull
from dconvex.classes import (
    _AXIOMS,
    _MAPPED,
    _REACH,
    _Codes,
    _View,
    _doubled,
    _parities,
    _ring,
    ClassLabel,
    LabelKindError,
    Verdict,
    Witness,
    argmin_perturbed,
    check,
    check_fn,
    check_set,
    multimodular_polyhedral_check,
    verify_witness,
)
from dconvex.core import (
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Window,
    cube,
    indicator_fn,
    prefix_transform,
    restrict_to_window,
    value_map,
    vshift,
)
from dconvex import lab
from set_oracles import check_family, increments

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.corpus import build_check_corpus  # noqa: E402

F = Fraction

SET_LABELS_NO_L = [
    ClassLabel.INTEGER_BOX,
    ClassLabel.IC_SET,
    ClassLabel.LNAT_SET,
    ClassLabel.MNAT_SET,
    ClassLabel.M_SET,
    ClassLabel.MULTIMODULAR_SET,
    ClassLabel.GLOBAL_DMC_SET,
    ClassLabel.JUMP_SYSTEM,
    ClassLabel.CONST_PARITY_JUMP,
    ClassLabel.SIMULT_EXCH_JUMP,
]


def test_increments_definition():
    assert increments((0, 0), (2, -1)) == [(0, -1), (1, 0)]
    assert increments((1, 1), (1, 1)) == []
    assert increments((0,), (3,)) == [(1,)]


@pytest.mark.parametrize("label", SET_LABELS_NO_L)
def test_singletons_belong_everywhere(label):
    s = LatticeSet.of([(2, -1, 3)])
    assert check_set(s, label).member


def test_label_kind_mismatch_raises():
    s = LatticeSet.of([(0, 0)])
    f = indicator_fn(s)
    with pytest.raises(LabelKindError):
        check_set(s, ClassLabel.MNAT_FN)
    with pytest.raises(LabelKindError):
        check_fn(f, ClassLabel.MNAT_SET)
    with pytest.raises(LabelKindError):
        check_set(f, ClassLabel.MNAT_SET)


def test_verify_witness_turns_down_a_non_object_as_check_does():
    witness = Witness("midpoint", ((0, 0), (2, 0)))
    for obj in ("abc", [(0, 0), (2, 0)], None):
        name = type(obj).__name__
        with pytest.raises(LabelKindError, match=f"cannot check a {name}$"):
            check(obj, ClassLabel.LNAT_SET)
        with pytest.raises(LabelKindError, match=f"cannot check a {name}$"):
            verify_witness(obj, witness)
    # an object still replays its witness
    s = LatticeSet.of([(0, 0), (2, 0)])
    assert verify_witness(s, check(s, ClassLabel.LNAT_SET).witness) and verify_witness(s, witness)


def test_lifted_only_for_l_labels():
    s = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    with pytest.raises(LiftedInputError):
        check_set(s, ClassLabel.LNAT_SET)
    assert check_set(s, ClassLabel.L_SET).member


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        check_set(LatticeSet(2), ClassLabel.LNAT_SET)


def test_lnat_set_counterexample_and_witness():
    t = LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)])
    v = check_set(t, ClassLabel.LNAT_SET)
    assert not v.member
    assert verify_witness(t, v.witness)
    assert verify_witness(t, Witness("midpoint", ((0, 1, 1), (1, 1, 0))))


def test_integrally_convex_set_examples():
    t = LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])
    v = check_set(t, ClassLabel.IC_SET)
    assert not v.member and verify_witness(t, v.witness)
    s = LatticeSet.of([(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)])
    assert check_set(s, ClassLabel.IC_SET).member


def test_box_recognizer():
    assert check_set(LatticeSet.of([(0, 0), (0, 1), (1, 0), (1, 1)]), ClassLabel.INTEGER_BOX).member
    v = check_set(LatticeSet.of([(0, 0), (1, 1)]), ClassLabel.INTEGER_BOX)
    assert not v.member and verify_witness(LatticeSet.of([(0, 0), (1, 1)]), v.witness)


def test_l_set_lifted_recognizer():
    diag = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    assert check_set(diag, ClassLabel.L_SET).member
    two = LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True)
    # representatives (0,0) and (2,0): the section {0, 2} misses its
    # midpoint 1
    v = check_set(two, ClassLabel.L_SET)
    assert not v.member and verify_witness(two, v.witness)


def test_m_set_needs_constant_sum():
    box = LatticeSet.of([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert check_set(box, ClassLabel.MNAT_SET).member
    v = check_set(box, ClassLabel.M_SET)
    assert not v.member and verify_witness(box, v.witness)
    basis = LatticeSet.of([(1, 0), (0, 1)])
    assert check_set(basis, ClassLabel.M_SET).member


def test_jump_recognizers():
    even = LatticeSet.of([(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 0])
    assert check_set(even, ClassLabel.CONST_PARITY_JUMP).member
    assert check_set(even, ClassLabel.SIMULT_EXCH_JUMP).member
    assert check_set(even, ClassLabel.JUMP_SYSTEM).member
    pair = LatticeSet.of([(0,), (1,)])
    assert check_set(pair, ClassLabel.JUMP_SYSTEM).member
    v = check_set(pair, ClassLabel.CONST_PARITY_JUMP)
    assert not v.member and verify_witness(pair, v.witness)


def test_separable_recognizer():
    f = LatticeFn.of({(a, b): F(a * a) + F(3, 2) * abs(b) for a in range(-1, 2) for b in range(-1, 2)})
    assert check_fn(f, ClassLabel.SEPARABLE_CONVEX).member
    g = LatticeFn.of({(a, b): F(a * b) for a in range(2) for b in range(2)})
    v = check_fn(g, ClassLabel.SEPARABLE_CONVEX)
    assert not v.member and v.witness.kind == "modularity" and verify_witness(g, v.witness)
    h = LatticeFn.of({(a,): F(-a * a) for a in range(-2, 3)})
    v = check_fn(h, ClassLabel.SEPARABLE_CONVEX)
    assert not v.member and v.witness.kind == "axis-convexity" and verify_witness(h, v.witness)


def test_constant_on_box_is_in_every_box_compatible_class():
    f = LatticeFn.of({(a, b): 7 for a in range(3) for b in range(2)})
    for label in (
        ClassLabel.SEPARABLE_CONVEX,
        ClassLabel.IC_FN,
        ClassLabel.LNAT_FN,
        ClassLabel.L_FN,  # the trace on the box of x -> 7, constant along 1
        ClassLabel.MNAT_FN,
        ClassLabel.MULTIMODULAR_FN,
        ClassLabel.GLOBAL_DMC_FN,
        ClassLabel.LOCAL_DMC_FN,
        ClassLabel.JUMP_MNAT_FN,
    ):
        assert check_fn(f, label).member, label
    # a box domain is not a constant-sum or constant-parity system
    assert not check_fn(f, ClassLabel.M_FN).member
    assert not check_fn(f, ClassLabel.JUMP_M_FN).member


def test_global_dmc_fn_counterexample():
    vals = {
        (a, b, c): F(a * a + a * b + b * b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        for c in range(-2, 3)
    }
    g = LatticeFn(3, vals)
    for label in (ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN):
        v = check_fn(g, label)
        assert not v.member and verify_witness(g, v.witness)
    w = Witness("midpoint-far", ((1, 0, 0), (0, 1, 2)))
    assert verify_witness(g, w)
    assert g.values[(1, 0, 0)] + g.values[(0, 1, 2)] == 2
    assert g.values[(1, 1, 1)] + g.values[(0, 0, 1)] == 3


def test_multimodular_fn_equals_pullback_lnat():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 3)
        vals = {}
        for _ in range(rng.randint(1, 9)):
            p = tuple(rng.randint(-2, 2) for _ in range(n))
            vals[p] = F(rng.randint(-3, 3), rng.choice((1, 2)))
        f = LatticeFn(n, vals)
        vm = check_fn(f, ClassLabel.MULTIMODULAR_FN)
        vl = check_fn(prefix_transform(f), ClassLabel.LNAT_FN)
        assert vm.member == vl.member
        if not vm.member:
            assert verify_witness(f, vm.witness)


def test_hierarchy_chains_on_generated_instances():
    rng = random.Random(99)
    w = cube(2, -2, 2)
    for _ in range(25):
        ln = lab.draw(ClassLabel.LNAT_SET, rng, 2, w)
        assert check_set(ln, ClassLabel.GLOBAL_DMC_SET).member
        assert check_set(ln, ClassLabel.IC_SET).member
        m = lab.draw(ClassLabel.M_SET, rng, 2, w)
        assert check_set(m, ClassLabel.MNAT_SET).member
        assert check_set(m, ClassLabel.CONST_PARITY_JUMP).member
        assert check_set(m, ClassLabel.SIMULT_EXCH_JUMP).member
        assert check_set(m, ClassLabel.JUMP_SYSTEM).member
        cp = lab.draw(ClassLabel.CONST_PARITY_JUMP, rng, 2, w)
        assert check_set(cp, ClassLabel.SIMULT_EXCH_JUMP).member
        assert check_set(cp, ClassLabel.JUMP_SYSTEM).member


def test_fn_hierarchy_chains():
    rng = random.Random(123)
    w = cube(2, -1, 1)
    for _ in range(15):
        f = lab.draw(ClassLabel.LNAT_FN, rng, 2, w)
        assert check_fn(f, ClassLabel.GLOBAL_DMC_FN).member
        assert check_fn(f, ClassLabel.LOCAL_DMC_FN).member
        assert check_fn(f, ClassLabel.IC_FN).member
        g = lab.draw(ClassLabel.M_FN, rng, 2, w)
        assert check_fn(g, ClassLabel.MNAT_FN).member
        assert check_fn(g, ClassLabel.JUMP_M_FN).member
        assert check_fn(g, ClassLabel.JUMP_MNAT_FN).member
        lf = lab.draw(ClassLabel.L_FN, rng, 3, w)
        from dconvex.core import restrict_to_window

        mat = restrict_to_window(lf, cube(3, -2, 2))
        assert check_fn(mat, ClassLabel.LNAT_FN).member


def test_mnat_lift_agreement():
    rng = random.Random(5)
    w = cube(2, -2, 2)
    for _ in range(20):
        if rng.random() < 0.5:
            f = lab.draw(ClassLabel.MNAT_FN, rng, 2, w)
        else:
            vals = {
                tuple(rng.randint(-1, 1) for _ in range(2)): F(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 6))
            }
            f = LatticeFn(2, vals)
        assert check_fn(f, ClassLabel.MNAT_FN).member == check_fn(lab.m_lift(f), ClassLabel.M_FN).member


def parity_lift(f: LatticeFn) -> LatticeFn:
    """Prepend the coordinate-sum parity bit as a new variable."""
    return LatticeFn(f.dim + 1, {(sum(p) % 2,) + p: v for p, v in f.values.items()})


def test_jump_parity_lift_agreement():
    rng = random.Random(6)
    w = cube(2, -2, 2)
    for _ in range(20):
        if rng.random() < 0.5:
            f = lab.draw(ClassLabel.JUMP_MNAT_FN, rng, 2, w)
        else:
            vals = {
                tuple(rng.randint(0, 2) for _ in range(2)): F(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 6))
            }
            f = LatticeFn(2, vals)
        assert (
            check_fn(f, ClassLabel.JUMP_MNAT_FN).member
            == check_fn(parity_lift(f), ClassLabel.JUMP_M_FN).member
        )


def test_argmin_perturbed_examples():
    s = LatticeSet.of([(0, 0), (1, 1), (2, 0)])
    f = indicator_fn(s)
    assert argmin_perturbed(f, (0, 0)) == s
    # g[-c](a, b) = a + 2b - a - b = b, minimized along b = 0
    vals = {(a, b): F(a + 2 * b) for a in range(2) for b in range(2)}
    g = LatticeFn(2, vals)
    assert argmin_perturbed(g, (1, 1)).points == frozenset({(0, 0), (1, 0)})


def test_argmin_lifted_requires_matching_ramp():
    f = LatticeFn(2, {(0, 0): F(0), (1, 0): F(2)}, lifted=True, ramp=F(1))
    with pytest.raises(ValueError):
        argmin_perturbed(f, (0, 0))
    got = argmin_perturbed(f, (F(1, 2), F(1, 2)))
    assert got.lifted and got.points == frozenset({(0, 0)})


def test_argmin_perturbation_entries_are_exact():
    f = LatticeFn.of({(0,): 0, (1,): 1})
    assert argmin_perturbed(f, [1]).points == frozenset({(0,), (1,)})
    assert argmin_perturbed(f, [F(3, 2)]).points == frozenset({(1,)})
    for bad in (0.1, True, "1/2"):
        with pytest.raises(ValueError):
            argmin_perturbed(f, [bad])


def test_polyhedral_check():
    box = LatticeSet.of([(a, b) for a in range(2) for b in range(2)])
    assert multimodular_polyhedral_check(box)
    bad = LatticeSet.of([(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)])
    assert not multimodular_polyhedral_check(bad)
    # two points whose bounding box holds 151**3 points: decided from the
    # points reached, not by walking the box
    assert not multimodular_polyhedral_check(LatticeSet.of([(0, 0, 0), (150, 150, 150)]))


def _square_line(k: int) -> LatticeFn:
    """t -> t^2 on 0..k-1: in every class of the L♮ and M♮ families."""
    return LatticeFn(1, {(t,): t * t for t in range(k)})


def test_size_rules_pin_both_sides(pair_scans, move_tables, monkeypatch):
    def scans(obj, label) -> bool:
        del pair_scans[:]
        assert check(obj, label).member, (label, obj)
        return bool(pair_scans)

    # a function takes the local route when |S| >= 2 * |ball|: in Z the
    # l-inf ball of radius 2 has 4 points besides its centre (L♮,
    # multimodular and IC)
    for label in (ClassLabel.LNAT_FN, ClassLabel.MULTIMODULAR_FN, ClassLabel.IC_FN):
        assert scans(_square_line(7), label) and not scans(_square_line(8), label)
    # local DMC takes no route: its scan reads its pairs on the l-inf sphere
    # of radius 2, 2 points in Z, when |S| >= 2 * 2, and all pairs below
    spheres = []
    local = classes._Halves.local
    monkeypatch.setattr(classes._Halves, "local", lambda self, v, ball: spheres.append(ball) or local(self, v, ball))
    for k in (3, 4):
        assert scans(_square_line(k), ClassLabel.LOCAL_DMC_FN)
        assert spheres == ([[(2,)]] if k == 4 else []), k
    monkeypatch.setattr(classes._Halves, "local", local)
    for k, scanned in ((7, True), (8, False)):
        f = LatticeFn(2, {(t, 0): t * t for t in range(k)}, lifted=True, ramp=F(1, 2))
        assert scans(f, ClassLabel.L_FN) is scanned

    def per_pair(f: LatticeFn, label, kind: str) -> bool:
        """Whether a member is scanned once, per pair rather than by rows."""
        del pair_scans[:], move_tables[:]
        assert check(f, label).member
        assert [args[1:] for args in pair_scans] == [(kind,)], (label, len(f))
        return bool(move_tables)

    # a function of the M♮ and M rows that is not flat takes no route
    # whatever its size: its pair scan runs per pair below 16 points and by
    # rows from there on
    for k in (15, 16, 80):
        assert per_pair(_square_line(k), ClassLabel.MNAT_FN, "exchange-mnat-fn") is (k < 16)
        f = LatticeFn(2, {(t, -t): t * t for t in range(k)})
        assert per_pair(f, ClassLabel.M_FN, "exchange-m-fn") is (k < 16)
    # the M♮ domain test runs when 2^n <= |S|, n the dimension it reads: a
    # cube {0,1}^3 without its top has 7 points, with it 8
    cube01 = cube(3, 0, 1)
    below = LatticeSet(3, frozenset(cube01.points()) - {(1, 1, 1)})
    top = LatticeSet(3, frozenset(cube01.points()))
    assert scans(below, ClassLabel.MNAT_SET) and not scans(top, ClassLabel.MNAT_SET)
    assert scans(lab.m_lift(below), ClassLabel.M_SET) and not scans(lab.m_lift(top), ClassLabel.M_SET)
    # an L♮ set never scans as a member, whatever its size
    assert not scans(LatticeSet.of([(0, 0, 0)]), ClassLabel.LNAT_SET)
    # the set jump labels take the box-count route from 12 points on: an
    # interval of Z is a jump system, and the even points of one a member
    # of all three labels
    for k, scanned in ((11, True), (12, False)):
        assert scans(LatticeSet(1, frozenset((t,) for t in range(k))), ClassLabel.JUMP_SYSTEM) is scanned
        for label in (ClassLabel.CONST_PARITY_JUMP, ClassLabel.SIMULT_EXCH_JUMP):
            assert scans(LatticeSet(1, frozenset((2 * t,) for t in range(k))), label) is scanned
    # the exchange and jump exchange kinds read by rows, with no move table,
    # from 16 points on: t -> t^2 on the even points of Z is a member of
    # jump-m-fn
    def jump(k: int) -> bool:
        return per_pair(LatticeFn(1, {(2 * t,): t * t for t in range(k)}), ClassLabel.JUMP_M_FN, "jump-m-fn")

    assert classes._ROW_SIZE == 16 and jump(15) and not jump(16)
    # they read their ys in blocks of B points, B = |S| halved until the
    # masks fit in the bound: a jump-m-fn reading in Z builds 2 offset
    # tables and 3 per axis, of B + 1 masks each counted at B / 8 + 96
    # bytes, so at a bound of 5 * 17 * 98 bytes 16 points take one block
    # and 17 two of 8, and one byte below it 16 points take two of 8; past
    # any bound a reading still runs by rows, in blocks of one point at
    # the least
    rows = _AXIOMS["jump-m-fn"].violated.rows
    assert rows.tables(1) == 5 and classes._ROW_POINT_BYTES == 96
    bound = classes._ROW_BYTES
    monkeypatch.setattr(classes, "_ROW_BYTES", 5 * 17 * (16 // 8 + 96))
    assert [rows.block(1, k) for k in (15, 16, 17, 32, 33)] == [15, 16, 8, 16, 16]
    monkeypatch.setattr(classes, "_ROW_BYTES", 5 * 17 * (16 // 8 + 96) - 1)
    assert [rows.block(1, k) for k in (15, 16, 17, 32, 33)] == [15, 8, 8, 8, 8]
    monkeypatch.setattr(classes, "_ROW_BYTES", 0)
    assert rows.block(1, 16) == 1 and not jump(16)
    # the bound itself, 16 MiB, read at its edge without an input of that
    # size: a jump-mnat-fn reading in Z^3 builds 24 offset tables and 3 per
    # axis, so 1671 points take one block and 1672 two of 836; the rule reads
    # the dimension and the size alone, not the box
    monkeypatch.setattr(classes, "_ROW_BYTES", bound)
    rows = _AXIOMS["jump-mnat-fn"].violated.rows
    assert bound == 1 << 24 and rows.tables(3) == 24 + 3 * 3
    assert rows.block(3, 1671) == 1671 and rows.block(3, 1672) == 836
    assert [rows.block(3, k) for k in (3416, 6000, 12000)] == [854, 1500, 1500]
    # the bound counts one table per offset a reading may read, and three
    # per axis; the 2-step reading builds no offset table
    for kind in _ROW_KINDS:
        rows = _AXIOMS[kind].violated.rows
        for n in range(1, 6):
            plan = rows.plan(tuple(100**i for i in range(n)))
            offsets = {o for _, step, pairs in plan for o in [step] * rows.nat + [o for _, o in pairs]}
            built = 0 if kind == "jump-2step" else len(offsets)
            assert rows.tables(n) == built + 3 * n, (kind, n)


def test_the_route_table_pins_every_label(monkeypatch):
    # per label, the kind its pair scan reads and the one route tried
    # first: a domain description with an optional ball or the box counts;
    # box, separable and L keep their own recognizers, and multimodular is
    # decided as lnat-fn on its prefix sums
    lnat, mnat, m = classes._lnat_described, classes._mnat_described, classes._m_described
    ball, sphere = classes._LINF_BALL, classes._LINF_SPHERE
    scan, described, counts = classes._Scan, classes._Described, classes._box_counts
    table = classes._RECOGNIZERS
    assert table == {
        ClassLabel.INTEGER_BOX: classes._scan_box,
        ClassLabel.SEPARABLE_CONVEX: classes._check_separable,
        ClassLabel.IC_SET: scan("hull-midpoint", described((lnat, mnat), ball)),
        ClassLabel.IC_FN: scan("hull-midpoint", described((lnat, mnat), ball)),
        ClassLabel.LNAT_SET: scan("midpoint", described((lnat,), ball)),
        ClassLabel.LNAT_FN: scan("midpoint", described((lnat,), ball)),
        ClassLabel.L_SET: classes._check_l,
        ClassLabel.L_FN: classes._check_l,
        ClassLabel.MNAT_SET: scan("exchange-mnat", described((mnat,))),
        ClassLabel.MNAT_FN: scan("exchange-mnat-fn", described((mnat,))),
        ClassLabel.M_SET: scan("exchange-m", described((m,))),
        ClassLabel.M_FN: scan("exchange-m-fn", described((m,))),
        ClassLabel.MULTIMODULAR_SET: table[ClassLabel.MULTIMODULAR_SET],
        ClassLabel.MULTIMODULAR_FN: table[ClassLabel.MULTIMODULAR_FN],
        ClassLabel.GLOBAL_DMC_SET: scan("midpoint-far", described((lnat,))),
        ClassLabel.GLOBAL_DMC_FN: scan("midpoint-far", described((lnat,))),
        ClassLabel.LOCAL_DMC_FN: scan("midpoint-two", domain="domain-not-dmc"),
        ClassLabel.JUMP_SYSTEM: scan("jump-2step", counts),
        ClassLabel.CONST_PARITY_JUMP: scan("jump-exc", counts),
        ClassLabel.SIMULT_EXCH_JUMP: scan("jump-exc-nat", counts),
        ClassLabel.JUMP_M_FN: scan("jump-m-fn"),
        ClassLabel.JUMP_MNAT_FN: scan("jump-mnat-fn"),
    }
    for label in (ClassLabel.MULTIMODULAR_SET, ClassLabel.MULTIMODULAR_FN):
        assert table[label].func is classes._derived and table[label].keywords == {"kind": "multimodular-midpoint"}
    assert {kind: row[2] for kind, row in _MAPPED.items()} == {
        "domain-not-dmc": ClassLabel.GLOBAL_DMC_SET,
        "multimodular-midpoint": ClassLabel.LNAT_FN,
        "l-section-midpoint": ClassLabel.LNAT_FN,
    }
    # the module docstring's table names the kind of every scan row
    listed = {}
    for line in classes.__doc__.splitlines():
        words = line.split()
        if line.startswith("    ") and words and words[0] in {label.value for label in ClassLabel}:
            listed[words[0]] = words[1]
    assert set(listed) == {label.value for label in ClassLabel}
    for label, row in table.items():
        assert not isinstance(row, scan) or listed[label.value] == row.kind, label
    # each ball's size, counted in closed form, is that of the ball built,
    # with -d beside each offset d of a half ball, and without its centre;
    # every offset lies within the coding's reach
    assert [ball.count(n) for n in (1, 2, 3)] == [4, 24, 124]
    assert [sphere.count(n) for n in (1, 2, 3)] == [2, 16, 98]
    assert _REACH == 2
    for offsets in (ball, sphere):
        for n in range(1, 5):
            built = set(offsets.build(n))
            assert (0,) * n not in built
            assert offsets.count(n) == len(built | {tuple(-c for c in d) for d in built}), n
            assert max(max(map(abs, d)) for d in built) == _REACH, n
    # the box counts run from 12 points on, on a bounding box of at most
    # C(2n, n) |S| cells: 72 for 12 points in Z^2
    assert classes._JUMP_SIZE == 12
    line = [(t, 0) for t in range(11)]
    for pts, routed in ((line[:10] + [(11, 5)], False), (line + [(11, 5)], True), (line + [(11, 6)], False)):
        assert classes._jump_routed(_View.of(LatticeSet.of(pts))) is routed, pts
    # the M♮ description is read from 2^n points on: an interval of Z^3's
    # first axis is M♮, but proven only from 8 points
    for k in (7, 8):
        assert mnat(dict.fromkeys(((t, 0, 0) for t in range(k)), 0), 3) is (k == 8)
    # a check in Z^12 reads every size rule in closed form and builds no
    # ball: 5^12 offsets would not fit in its time
    def built(n):
        raise AssertionError(f"a ball in Z^{n} was built")

    for offsets in (ball, sphere):
        monkeypatch.setattr(offsets, "build", built)
    f = LatticeFn.of({(0,) * 12: 0, (1,) + (0,) * 11: 1, (1, 1) + (0,) * 10: 3})
    for obj, labels in ((f, classes.FN_LABELS), (f.domain(), classes.SET_LABELS)):
        for label in labels:
            check(obj, label)


# the kinds read a row at a time from the row size rule on
_ROW_KINDS = (
    "exchange-mnat", "exchange-mnat-fn", "exchange-m", "exchange-m-fn",
    "jump-exc", "jump-exc-nat", "jump-m-fn", "jump-mnat-fn", "jump-2step",
)


def _row_cases():
    """(kind, member, non-member) above the row rule: a box, the slice
    x(N) = 5 of [0, 4]^3 and the even points of [0, 3]^3, as sets and with
    x -> sum(x_i^2), and the even points as a jump system; each non-member
    drops a point or raises a value."""
    box = list(cube(3, 0, 2).points())
    slice_ = [p for p in cube(3, 0, 4).points() if sum(p) == 5]
    even = [p for p in cube(3, 0, 3).points() if sum(p) % 2 == 0]
    for kinds, pts in ((("exchange-mnat", "exchange-mnat-fn"), box), (("exchange-m", "exchange-m-fn"), slice_),
                       (("jump-exc", "jump-m-fn"), even), (("jump-exc-nat", "jump-mnat-fn"), even)):
        mid = pts[len(pts) // 2]
        f = {p: sum(c * c for c in p) for p in pts}
        yield kinds[0], LatticeSet.of(pts), LatticeSet.of([p for p in pts if p != mid])
        yield kinds[1], LatticeFn.of(f), LatticeFn.of({**f, mid: f[mid] + 100})
    yield "jump-2step", LatticeSet.of(even), LatticeSet.of([p for p in even if p != even[len(even) // 2]])


def test_exchange_rows_build_no_move_and_call_the_predicate_once(monkeypatch):
    # above the rule a member is read by rows alone, with no move table and
    # no predicate call, and a non-member makes one predicate call, on the
    # pair the rows name, for the step its witness records
    def built(*args):
        raise AssertionError("a row reading built a move table")

    monkeypatch.setattr(classes, "_moves", built)
    calls = []
    for kind in _ROW_KINDS:
        axiom = _AXIOMS[kind]
        on_codes = axiom.violated.on_codes
        counted = partial(lambda read, *args: calls.append(args) or read(*args), on_codes)
        monkeypatch.setitem(_AXIOMS, kind, axiom._replace(violated=axiom.violated._replace(on_codes=counted)))
    cases = list(_row_cases())
    assert sorted(kind for kind, _, _ in cases) == sorted(_ROW_KINDS)
    for kind, member, miss in cases:
        assert len(member) >= classes._ROW_SIZE
        del calls[:]
        assert classes._scan_pairs(_View.of(member), kind).member and not calls, kind
        verdict = classes._scan_pairs(_View.of(miss), kind)
        assert not verdict.member and len(calls) == 1, kind
        assert verify_witness(miss, verdict.witness), kind


def test_row_reading_stays_within_its_memory_bound(monkeypatch):
    # with the bound set to the largest at which 300 points read in blocks
    # of 75, a reading spans 4 blocks, peaks within the bound under
    # tracemalloc, the reading's lists of one entry per point included,
    # and answers as the per-pair scan does, verdict and witness; a segment
    # has as many distinct values per coordinate as points, so its axes
    # keep the most masks
    segment = {(t, 299 - t): t * t for t in range(300)}
    line = {(t,): t * t for t in range(300)}
    cases = [
        ("exchange-m-fn", segment),
        ("exchange-m-fn", {**segment, (150, 149): 150 * 150 + 1}),
        ("exchange-mnat-fn", line),
        ("jump-m-fn", {(2 * t,): t * t for t in range(300)}),
        ("jump-mnat-fn", {**line, (100,): 100 * 100 + 1}),
    ]
    size_rule = classes._ROW_SIZE
    for kind, values in cases:
        obj = LatticeFn.of(values)
        rows = _AXIOMS[kind].violated.rows
        view = _View.of(obj)
        view.coded
        bound = rows.tables(obj.dim) * (150 + 1) * (150 // 8 + classes._ROW_POINT_BYTES) - 1
        monkeypatch.setattr(classes, "_ROW_BYTES", bound)
        assert rows.block(obj.dim, len(obj)) == 75, kind
        tracemalloc.start()
        try:
            got = classes._scan_pairs(view, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (kind, peak, bound)
        monkeypatch.setattr(classes, "_ROW_SIZE", math.inf)
        assert classes._scan_pairs(_View.of(obj), kind) == got, kind
        assert got.member is (len(values) == 300), kind
        monkeypatch.setattr(classes, "_ROW_SIZE", size_rule)


# the set jump labels, with the kinds their pair scans read
_JUMP_KINDS = {
    ClassLabel.JUMP_SYSTEM: "jump-2step",
    ClassLabel.CONST_PARITY_JUMP: "jump-exc",
    ClassLabel.SIMULT_EXCH_JUMP: "jump-exc-nat",
}


def test_the_fixture_sees_every_pair_scan(pair_scans):
    # the kind of each pair scan a set label makes on the unit square, a
    # member of every label but M and constant parity, which the L♮
    # description proves L, IC and globally DMC, and on the square without
    # its top, which is not L♮, so L♮, L, IC and global DMC scan, and which
    # M♮ scans as it lies below the domain test's size rule; both lie below
    # the jump route's size rule, so jump-system scans; a label that scans
    # nothing decides without the pair scan
    square = LatticeSet(2, frozenset(cube(2, 0, 1).points()))
    bent = LatticeSet(2, square.points - {(1, 1)})
    always = {**_JUMP_KINDS, ClassLabel.M_SET: "exchange-m"}
    for obj, scanned in (
        (square, always),
        (bent, {**always, ClassLabel.LNAT_SET: "midpoint", ClassLabel.L_SET: "midpoint",
                ClassLabel.MNAT_SET: "exchange-mnat", ClassLabel.IC_SET: "hull-midpoint",
                ClassLabel.GLOBAL_DMC_SET: "midpoint-far"}),
    ):
        for label in sorted(SET_LABELS_NO_L + [ClassLabel.L_SET]):
            del pair_scans[:]
            check(obj, label)
            want = [(scanned[label],)] if label in scanned else []
            assert [args[1:] for args in pair_scans] == want, (sorted(obj.points), label)
    # the even points of [0, 4]^2, 13 of them, lie above it: a member of
    # the three set jump labels is decided without a scan, and a near miss
    # scans whole under each label, so its witness is the scan's
    even = LatticeSet(2, frozenset(p for p in cube(2, 0, 4).points() if sum(p) % 2 == 0))
    miss = LatticeSet(2, even.points - {(2, 2)})
    for obj, scanned in ((even, {}), (miss, _JUMP_KINDS)):
        for label in _JUMP_KINDS:
            del pair_scans[:]
            assert check(obj, label).member is (obj is even)
            want = [(scanned[label],)] if label in scanned else []
            assert [args[1:] for args in pair_scans] == want, (sorted(obj.points), label)
    assert check(miss, ClassLabel.JUMP_SYSTEM).witness.points[0] == sorted(miss.points)[1]
    # a locally d.m.c. function proves or scans its domain, then scans its
    # pairs at l-inf distance 2
    for dom, scanned in ((square, []), (bent, [("midpoint-far",)])):
        del pair_scans[:]
        assert check(indicator_fn(dom), ClassLabel.LOCAL_DMC_FN).member
        assert [args[1:] for args in pair_scans] == scanned + [("midpoint-two",)]


def _read_by_rows(pair_scans, move_tables, kind: str) -> bool:
    """Whether the check just made was one pair scan of ``kind`` that built
    no move table, so read by rows (``classes._Rows``)."""
    return [args[1:] for args in pair_scans] == [(kind,)] and not move_tables


def test_a_thousand_point_box_function_is_decided_locally(pair_scans, move_tables):
    box = list(cube(3, 0, 9).points())
    f = LatticeFn(3, {p: sum(c * c for c in p) for p in box})
    # a separable convex function is L♮-, M♮- and multimodular-convex, the
    # verdict the pair scans give: the L♮ ball decides lnat-fn and
    # multimodular-fn, and mnat-fn is read by rows
    for label in (ClassLabel.LNAT_FN, ClassLabel.MULTIMODULAR_FN):
        assert check(f, label) == Verdict(True) and not pair_scans, label
    assert check(f, ClassLabel.MNAT_FN) == Verdict(True)
    assert _read_by_rows(pair_scans, move_tables, "exchange-mnat-fn")
    # a spike makes a non-member, and the pair scan then finds its witness
    vals = dict(f.values)
    vals[(1, 1, 1)] += 10**4
    g = LatticeFn(3, vals)
    assert check(g, ClassLabel.LNAT_FN) == check_family(g, ClassLabel.LNAT_FN)
    assert check(g, ClassLabel.MNAT_FN) == check_family(g, ClassLabel.MNAT_FN)


def test_a_member_past_one_block_is_read_by_rows(pair_scans, move_tables):
    # x -> sum(x_i^2) + (sum x)^2 over {x in [0, 15]^3 : sum x <= 30} is
    # M♮-convex; its 3416 points are read in two blocks of 1708 ys, by rows
    # with no move table, not per pair
    pts = [p for p in cube(3, 0, 15).points() if sum(p) <= 30]
    f = LatticeFn(3, {p: sum(c * c for c in p) + sum(p) ** 2 for p in pts})
    assert len(f) == 3416 and _AXIOMS["exchange-mnat-fn"].violated.rows.block(3, 3416) == 1708
    assert check(f, ClassLabel.MNAT_FN) == Verdict(True)
    assert _read_by_rows(pair_scans, move_tables, "exchange-mnat-fn")


def test_one_coding_reads_narrow_coordinates_locally(pair_scans, move_tables):
    # a view codes its points once, over the difference box grown by the
    # reach, so a point x + d of the l-inf ball (L♮ and IC) has its own
    # code even where a coordinate is narrower than the reach; over the
    # bare difference box it would share a stored point's code and turn a
    # member down.  The M♮ exchange reads the same coding by rows.
    for hi in ((15, 15, 1), (20, 12, 1), (1, 20, 12), (12, 1, 20)):
        box = Window((0, 0, 0), hi)
        vals = {p: sum((c - w // 2) ** 2 + k * c for k, (c, w) in enumerate(zip(p, hi))) for p in box.points()}
        f = LatticeFn(3, vals)
        for label in (ClassLabel.LNAT_FN, ClassLabel.IC_FN):
            assert check(f, label) == Verdict(True) and not pair_scans, (hi, label)
        assert check(f, ClassLabel.MNAT_FN) == Verdict(True)
        assert _read_by_rows(pair_scans, move_tables, "exchange-mnat-fn"), hi
        del pair_scans[:]


def test_negative_witnesses_always_replay():
    rng = random.Random(2024)
    labels = SET_LABELS_NO_L
    for _ in range(120):
        n = rng.randint(1, 3)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 7))
        )
        s = LatticeSet(n, pts)
        for label in labels:
            v = check_set(s, label)
            if not v.member:
                assert verify_witness(s, v.witness), (label, sorted(pts), v.witness)


def test_negative_fn_witnesses_always_replay():
    rng = random.Random(2025)
    labels = [
        ClassLabel.SEPARABLE_CONVEX,
        ClassLabel.IC_FN,
        ClassLabel.LNAT_FN,
        ClassLabel.L_FN,
        ClassLabel.MNAT_FN,
        ClassLabel.M_FN,
        ClassLabel.MULTIMODULAR_FN,
        ClassLabel.GLOBAL_DMC_FN,
        ClassLabel.LOCAL_DMC_FN,
        ClassLabel.JUMP_M_FN,
        ClassLabel.JUMP_MNAT_FN,
    ]
    for _ in range(80):
        n = rng.randint(1, 3)
        vals = {
            tuple(rng.randint(-2, 2) for _ in range(n)): F(rng.randint(-3, 3), rng.choice((1, 2)))
            for _ in range(rng.randint(1, 7))
        }
        f = LatticeFn(n, vals)
        for label in labels:
            v = check_fn(f, label)
            if not v.member:
                assert verify_witness(f, v.witness), (label, vals, v.witness)


def test_verify_witness_rejects_non_violations():
    t = LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)])
    # this pair's rounded midpoints are (0,1,1) and (0,0,0), both present
    assert not verify_witness(t, Witness("midpoint", ((0, 0, 0), (0, 1, 1))))
    # points outside the set are not witnesses
    assert not verify_witness(t, Witness("midpoint", ((5, 5, 5), (0, 0, 0))))
    box = LatticeSet.of([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not verify_witness(box, Witness("box-gap", ((0, 1),)))
    assert not verify_witness(box, Witness("box-gap", ((7, 7),)))  # outside the hull
    even = LatticeSet.of([(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 0])
    # a legal exchange step is not a violation
    assert not verify_witness(even, Witness("jump-exc", ((0, 0), (2, 2), (1, 0))))
    # modularity pairs two distinct coordinates; (0, 0) would compare
    # f(x) + f(x + 2e_0) with 2 f(x + e_0), which convexity allows to differ
    quad = LatticeFn.of({(a, b): a * a + b * b for a in range(3) for b in range(3)})
    assert check_fn(quad, ClassLabel.SEPARABLE_CONVEX).member
    assert not verify_witness(quad, Witness("modularity", ((0, 0),), (0, 0)))
    with pytest.raises(ValueError):
        verify_witness(box, Witness("no-such-kind", ()))
    # a kind that is not a str is unknown too, even an unhashable one
    # and so are the kinds that a finite l-set or l-fn reported before it
    # was read as L♮
    for kind in (None, 3, ["midpoint"], "nope", "submodular", "ones-shift"):
        with pytest.raises(ValueError, match="unknown witness kind"):
            verify_witness(box, Witness(kind, ((0, 0), (1, 1))))
    # an empty set has no violations, not even a box gap
    empty = LatticeSet(2, frozenset())
    assert not verify_witness(empty, Witness("box-gap", ((0, 0),)))
    with pytest.raises(ValueError):
        verify_witness(empty, Witness("no-such-kind", ()))


def test_verify_witness_checks_increment_validity():
    even = LatticeSet.of([(a, b) for a in range(4) for b in range(4) if (a + b) % 2 == 0])
    # (0,-1) is not a valid step from (0,0) toward (2,2)
    assert not verify_witness(even, Witness("jump-exc", ((0, 0), (2, 2), (0, -1))))


def test_separable_acceptance_implies_axis_decomposition():
    # anything the recognizer accepts must literally decompose as
    # f(x) = f(a) + sum_i [f(a + (x_i - a_i) e_i) - f(a)] from any corner a
    rng = random.Random(606)
    accepted = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        if rng.random() < 0.6:
            f = lab.draw(ClassLabel.SEPARABLE_CONVEX, rng, n, cube(n, -2, 2))
        else:
            vals = {
                tuple(rng.randint(-1, 1) for _ in range(n)): F(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 8))
            }
            f = LatticeFn(n, vals)
        if not check_fn(f, ClassLabel.SEPARABLE_CONVEX).member:
            continue
        accepted += 1
        box = f.domain().bounding_box()
        a = box.lo
        base = f.values[a]
        for x in f.values:
            axis_sum = base
            for i in range(len(x)):
                probe = a[:i] + (x[i],) + a[i + 1 :]
                axis_sum += f.values[probe] - base
            assert f.values[x] == axis_sum, (sorted(f.values.items()), x)
    assert accepted >= 30


_BOX = LatticeSet.of([(0, 0), (0, 1), (1, 0), (1, 1)])
_DIAGONAL = LatticeSet.of([(0, 0), (1, 1)])
_GAP = LatticeSet.of([(0,), (3,)])
_BUMP = LatticeFn.of({(0,): 0, (1,): 5, (2,): 0})
_NOT_MULTIMODULAR = LatticeSet.of([(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)])

# (witness kind, object, label whose scan reports that kind)
WITNESS_CASES = [
    ("box-gap", _DIAGONAL, ClassLabel.INTEGER_BOX),
    ("axis-convexity", LatticeFn.of({(a,): -a * a for a in range(-2, 3)}), ClassLabel.SEPARABLE_CONVEX),
    ("modularity", LatticeFn.of({(a, b): a * b for a in range(2) for b in range(2)}), ClassLabel.SEPARABLE_CONVEX),
    ("midpoint", LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)]), ClassLabel.LNAT_SET),
    ("midpoint-far", LatticeSet.of([(0, 0), (2, 0)]), ClassLabel.GLOBAL_DMC_SET),
    ("midpoint-two", _BUMP, ClassLabel.LOCAL_DMC_FN),
    ("hull-midpoint", LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)]), ClassLabel.IC_SET),
    ("hull-midpoint", _BUMP, ClassLabel.IC_FN),
    ("l-section-midpoint", LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True), ClassLabel.L_SET),
    ("l-section-midpoint", LatticeFn(2, {(0, 0): 0, (1, 0): 5, (2, 0): 0}, lifted=True, ramp=F(1, 2)), ClassLabel.L_FN),
    ("ramp", LatticeFn.of({(0, 0): 0, (1, 1): 1, (2, 2): 3}), ClassLabel.L_FN),
    ("exchange-mnat", _DIAGONAL, ClassLabel.MNAT_SET),
    ("exchange-mnat-fn", indicator_fn(_DIAGONAL), ClassLabel.MNAT_FN),
    ("exchange-m", _BOX, ClassLabel.M_SET),
    ("exchange-m-fn", indicator_fn(_BOX), ClassLabel.M_FN),
    ("jump-2step", _GAP, ClassLabel.JUMP_SYSTEM),
    ("jump-exc", LatticeSet.of([(0,), (1,)]), ClassLabel.CONST_PARITY_JUMP),
    ("jump-exc-nat", _GAP, ClassLabel.SIMULT_EXCH_JUMP),
    ("jump-m-fn", indicator_fn(_BOX), ClassLabel.JUMP_M_FN),
    ("jump-mnat-fn", indicator_fn(_GAP), ClassLabel.JUMP_MNAT_FN),
    ("domain-not-dmc", LatticeFn.of({(0,): 0, (2,): 0}), ClassLabel.LOCAL_DMC_FN),
    ("multimodular-midpoint", _NOT_MULTIMODULAR, ClassLabel.MULTIMODULAR_SET),
    ("multimodular-midpoint", indicator_fn(_NOT_MULTIMODULAR), ClassLabel.MULTIMODULAR_FN),
]


def test_witness_cases_cover_every_kind():
    assert {kind for kind, _, _ in WITNESS_CASES} == set(_AXIOMS) | set(_MAPPED)


@pytest.mark.parametrize(
    "kind, obj, label", WITNESS_CASES, ids=[f"{k}:{label.value}" for k, _, label in WITNESS_CASES]
)
def test_witness_replay_per_kind(kind, obj, label):
    v = check(obj, label)
    assert not v.member and v.witness.kind == kind
    w = v.witness
    assert verify_witness(obj, w)
    # a witness point moved outside the object; a lifted object holds
    # (99, ..., 99) when it holds the origin, but not (99, ..., 99, 0)
    outside = (99,) * (obj.dim - 1) + ((0,) if obj.lifted else (99,))
    assert not verify_witness(obj, dataclasses.replace(w, points=(outside,) + w.points[1:]))
    # the first point with a coordinate dropped or appended
    for first in (w.points[0][:-1], w.points[0] + (0,)):
        assert not verify_witness(obj, dataclasses.replace(w, points=(first,) + w.points[1:]))
    # one point or one index dropped or appended: every kind has fixed counts
    for points in (w.points[:-1], w.points + w.points[:1]):
        assert not verify_witness(obj, dataclasses.replace(w, points=points))
    for indices in (w.indices[:-1], w.indices + (0,)):
        if indices != w.indices:
            assert not verify_witness(obj, dataclasses.replace(w, indices=indices))
    # an index no candidate of the axiom uses
    if w.indices:
        assert not verify_witness(obj, dataclasses.replace(w, indices=(obj.dim,) * len(w.indices)))
    # a coordinate or an index that is not an int: a float coordinate or a
    # list in place of each point, each index as a float and as a bool; and
    # the points or the indices as a list
    assert not verify_witness(obj, dataclasses.replace(w, points=list(w.points)))
    assert not verify_witness(obj, dataclasses.replace(w, indices=list(w.indices)))
    for a, p in enumerate(w.points):
        for bad in ((float(p[0]),) + p[1:], list(p)):
            assert not verify_witness(obj, dataclasses.replace(w, points=w.points[:a] + (bad,) + w.points[a + 1 :]))
    for a, i in enumerate(w.indices):
        for bad in (float(i), bool(i)):
            assert not verify_witness(obj, dataclasses.replace(w, indices=w.indices[:a] + (bad,) + w.indices[a + 1 :]))
    # a step that does not lead from x toward y, a zero step, twice the
    # step, and the step plus another unit vector
    if kind.startswith("jump-"):
        x, y, step = w.points
        i = next(k for k, c in enumerate(step) if c)
        bad = [tuple(-c for c in step), (0,) * len(step), tuple(2 * c for c in step)]
        bad += [step[:k] + (d,) + step[k + 1 :] for k in range(len(step)) if k != i for d in (-1, 1)]
        for s in bad:
            assert not verify_witness(obj, dataclasses.replace(w, points=(x, y, s)))
    # an exchange records the i of a step -e_i, never the j of a step +e_j,
    # on the pair in either order
    if kind.startswith("exchange-"):
        for x, y in (w.points, w.points[::-1]):
            for j in range(len(x)):
                if x[j] < y[j]:
                    assert not verify_witness(obj, dataclasses.replace(w, points=(x, y), indices=(j,)))
    # the empty set of the same dimension
    assert not verify_witness(LatticeSet(obj.dim, frozenset()), w)


def test_domain_witness_replays_on_a_set():
    # a set is its own domain, so the replay answers instead of failing
    gap = LatticeSet.of([(0,), (2,)])
    assert verify_witness(gap, Witness("domain-not-dmc", ((0,), (2,))))
    assert not verify_witness(LatticeSet.of([(0,), (1,), (2,)]), Witness("domain-not-dmc", ((0,), (2,))))


def test_lifted_hull_witness_replays():
    # (2, 2) = (0, 0) + 2 * (1, 1) lies in the set, and so does the
    # midpoint (1, 1): no violation
    s = LatticeSet(2, frozenset({(0, 0), (1, 0)}), lifted=True)
    assert verify_witness(s, Witness("hull-midpoint", ((0, 0), (2, 2)))) is False
    # neither neighbor (1, 0, 0), (1, 1, 0) of the midpoint (1, 1/2, 0) is
    # in the set: a genuine local-hull gap
    gap = LatticeSet(3, frozenset({(0, 0, 0), (2, 1, 0)}), lifted=True)
    assert verify_witness(gap, Witness("hull-midpoint", ((0, 0, 0), (2, 1, 0)))) is True


def _random_lifted(rng):
    n = rng.randint(2, 3)
    reps = {tuple(rng.randint(-1, 1) for _ in range(n - 1)) + (0,) for _ in range(rng.randint(1, 5))}
    if rng.random() < 0.5:
        return LatticeSet(n, frozenset(reps), lifted=True)
    ramp = F(rng.randint(-3, 3), rng.randint(1, 4))
    return LatticeFn(n, {p: F(rng.randint(-4, 4), rng.randint(1, 3)) for p in reps}, lifted=True, ramp=ramp)


def _pair_witness(rng, kind, x, y):
    """A witness of ``kind`` on the pair (x, y); an exchange or jump kind
    gets a random index or increment that its axiom applies to, or None
    when there is none."""
    if kind.startswith("exchange-"):
        plus = [i for i in range(len(x)) if x[i] > y[i]]
        return Witness(kind, (x, y), (rng.choice(plus),)) if plus else None
    if kind.startswith("jump-"):
        steps = increments(x, y)
        return Witness(kind, (x, y, rng.choice(steps))) if steps else None
    return Witness(kind, (x, y))


@pytest.mark.parametrize("kind", ["hull-midpoint", "multimodular-midpoint", "exchange-m-fn", "jump-exc-nat"])
def test_lifted_replay_matches_a_finite_window(kind):
    # each axiom reads finitely many points, all within one of the witness
    # points (the exchange and jump axioms: all in the pair's box), so a
    # window around them answers the same
    rng = random.Random(kind)
    answers = set()
    for _ in range(300):
        obj = _random_lifted(rng)
        reps = sorted(value_map(obj))
        x = vshift(rng.choice(reps), rng.randint(-2, 2))
        if rng.random() < 0.8:
            y = vshift(rng.choice(reps), rng.randint(-2, 2))
        else:
            y = tuple(rng.randint(-3, 3) for _ in range(obj.dim))
        w = _pair_witness(rng, kind, x, y)
        if w is None:
            continue
        window = Window(tuple(min(a, b) - 1 for a, b in zip(x, y)), tuple(max(a, b) + 1 for a, b in zip(x, y)))
        got = verify_witness(obj, w)
        assert got == verify_witness(restrict_to_window(obj, window), w), (obj, w)
        answers.add(got)
    assert answers == {True, False}


def test_lifted_ordered_replays_answer():
    # replay reads a lifted object through its getter and answers: from
    # (2, 0) to (0, 0) the M exchange has no j with x_j < y_j, a violation;
    # the jump -e_0 reaches (1, 0), outside the set, but its next step -e_0
    # reaches (0, 0), inside
    s = LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True)
    assert verify_witness(s, Witness("exchange-m", ((2, 0), (0, 0)), (0,)))
    assert not verify_witness(s, Witness("jump-2step", ((2, 0), (0, 0), (-1, 0))))


def _random_box(rng) -> Window:
    n = rng.randint(1, 4)
    lo = tuple(rng.randint(-5, 2) for _ in range(n))
    return Window(lo, tuple(a + rng.choice((0, 0, 1, 2, 3)) for a in lo))


def test_codes_round_trip_sort_and_step():
    rng = random.Random(1010)
    boxes = [Window((-3,), (-3,)), Window((2, -1, 0), (2, -1, 0))] + [_random_box(rng) for _ in range(150)]
    for box in boxes:
        codes = _Codes(box)
        pts = list(box.points())
        rng.shuffle(pts)
        assert [codes.point(codes.code(p)) for p in pts] == pts, box
        assert sorted(pts, key=codes.code) == sorted(pts), box
        for p in pts:
            for i in range(box.dim):
                for d in (-1, 1):
                    q = p[:i] + (p[i] + d,) + p[i + 1 :]
                    if box.contains(q):
                        assert codes.code(q) - codes.code(p) == d * codes.strides[i], (box, p, q)
        # the down steps then the up steps of a pair are its increments, with
        # signed strides and gaps
        x, y = rng.choice(pts), rng.choice(pts)
        downs, ups = codes.steps(tuple(b - a for a, b in zip(x, y)))
        assert all(d < 0 for _, d, _ in downs) and all(d > 0 for _, d, _ in ups)
        steps = downs + ups
        assert [tuple(int(k == i) * (1 if d > 0 else -1) for k in range(box.dim)) for i, d, _ in steps] == increments(x, y)
        assert all(abs(d) == codes.strides[i] and gap == abs(x[i] - y[i]) for i, d, gap in steps)
        # over the difference box, cy - cx identifies y - x and cx + cy
        # identifies x + y
        wide = _Codes(_doubled(box))
        assert wide.point(wide.code(box.hi)) == box.hi
        diffs, sums = {}, {}
        for x in pts:
            for y in pts:
                d = tuple(b - a for a, b in zip(x, y))
                delta = wide.code(y) - wide.code(x)
                assert wide.difference(delta) == d and wide.offset(d) == delta, (box, x, y)
                assert diffs.setdefault(delta, d) == d
                total = tuple(a + b for a, b in zip(x, y))
                assert sums.setdefault(wide.code(x) + wide.code(y), total) == total, (box, x, y)


def _odd_mask(p) -> int:
    return sum((c & 1) << i for i, c in enumerate(p))


class _Reads(dict):
    """A reader that holds no value: it records each code read and reads
    +infinity there, so the axiom reports every pair it reads."""

    def __call__(self, code):
        self[code] = True

    def __missing__(self, code):
        self[code] = True


def test_midpoint_codes_read_the_rounded_midpoints_and_the_linf_rule(monkeypatch):
    # on every pair x, y of a box, over the view's coding (grown by the
    # reach) and replay's (grown by 1), with N listed and tested by digits:
    # the reading of each midpoint-family kind reads the pair exactly at
    # its l-inf distances, the rounded midpoints x + ceil(d/2) and
    # x + floor(d/2) at cx + o and cy - o with o = (cy - cx + odd[px ^ py])
    # >> 1, and the local route's o for an offset d (x read with mask 0, y
    # with d's) is the same; the hull kind reads the rounded midpoints
    # first and its extensions memo at cx + cy only when they do not hold
    # the pair and d has an odd coordinate
    boxes = [
        Window((-2,), (4,)),
        Window((-1, -3), (2, 0)),
        Window((-3, 1, -1), (0, 2, 1)),
        Window((0, -2, 3, -1), (1, 0, 4, 0)),
        Window((5, -4, -2, 0), (5, -2, -1, 2)),
    ]
    kinds = {
        "midpoint": lambda linf: True,
        "midpoint-far": lambda linf: linf >= 2,
        "midpoint-two": lambda linf: linf == 2,
        "hull-midpoint": lambda linf: linf >= 2,
    }
    assert _parities([(-3, 2, -4), (5, -1, 0), (0, 0, 0)]) == [1, 3, 0]
    for listed in (classes._LISTED_DIM, 0):
        monkeypatch.setattr(classes, "_LISTED_DIM", listed)
        for box in boxes:
            pts = list(box.points())
            assert _parities(pts) == [_odd_mask(p) for p in pts]
            for codes in (_Codes(_doubled(box, _REACH)), _Codes(_doubled(box, 1))):
                ring = _ring(codes.strides)
                for x, y in itertools.product(pts, repeat=2):
                    d = tuple(b - a for a, b in zip(x, y))
                    cx, cy = codes.code(x), codes.code(y)
                    ceil = codes.code(tuple(a + (c + 1) // 2 for a, c in zip(x, d)))
                    floor = codes.code(tuple(a + c // 2 for a, c in zip(x, d)))
                    assert (codes.offset(d) + ring[0][_parities([d])[0]]) >> 1 == ceil - cx, (box, d)
                    linf = max(map(abs, d))
                    for kind, keeps in kinds.items():
                        first = partial(_AXIOMS[kind].violated.first, ring=ring, cx=cx, px=_odd_mask(x), fx=0)
                        row = [(cy, _odd_mask(y), 0)]
                        reads, ext = _Reads(), _Reads()
                        hit = first(reads, ext, ys=row)
                        assert (hit is not None) == keeps(linf), (kind, box, d)
                        if hit is not None:
                            # with the ceiling point present the floor point is read too
                            got = []
                            first(lambda c: got.append(c) or (0 if c == ceil else None), ext, ys=row)
                            assert list(reads) == [ceil] and got == [ceil, floor], (kind, box, d)
                            odd = kind == "hull-midpoint" and any(c & 1 for c in d)
                            assert list(ext) == ([cx + cy] if odd else []), (kind, box, d)
                        # rounded midpoints that hold the pair decide it
                        held = _Reads()
                        assert first(lambda c: 0, held, ys=row) is None and not held, (kind, box, d)


def test_midpoint_family_scans_read_no_move(monkeypatch, pair_scans):
    # the four midpoint-family kinds read each pair by arithmetic on its
    # codes: no move table and no decoding of a difference, in the scan,
    # the local route or replay
    def built(*args):
        raise AssertionError("a midpoint-family reading built a move")

    monkeypatch.setattr(classes, "_moves", built)
    monkeypatch.setattr(classes._Codes, "difference", built)
    labels = (
        ClassLabel.IC_SET, ClassLabel.IC_FN, ClassLabel.LNAT_SET, ClassLabel.LNAT_FN, ClassLabel.L_SET,
        ClassLabel.L_FN, ClassLabel.MULTIMODULAR_SET, ClassLabel.MULTIMODULAR_FN, ClassLabel.GLOBAL_DMC_SET,
        ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN,
    )
    members, misses = build_check_corpus("1", sides=(3,))
    answers = set()
    for inst in members + misses:
        if inst.label in labels:
            verdict = check(inst.obj, inst.label)
            assert verdict.member == inst.member, inst.ident
            assert verdict.member or verify_witness(inst.obj, verdict.witness), inst.ident
            answers.add(verdict.member)
    kinds = {args[1] for args in pair_scans}
    assert answers == {True, False}
    assert kinds == {"midpoint", "midpoint-far", "midpoint-two", "hull-midpoint"}
    # the local route of a large L-natural function reads the same way
    f = LatticeFn(3, {p: sum(c * c for c in p) for p in cube(3, 0, 6).points()})
    del pair_scans[:]
    assert check(f, ClassLabel.LNAT_FN).member and not pair_scans


def test_three_dimensional_checks_solve_no_lp(monkeypatch):
    # a midpoint of two points of Z^3 has at most three half-integral
    # coordinates, where the local extension has a closed form
    def solved(*args):
        raise AssertionError("a 3-d check solved an LP")

    odd = []
    extension = classes.twice_extension

    def counted(get, total):
        odd.append(sum(t & 1 for t in total))
        return extension(get, total)

    monkeypatch.setattr(hull, "solve_lp", solved)
    monkeypatch.setattr(classes, "twice_extension", counted)
    members, misses = build_check_corpus("1", sides=(4,))
    for inst in members + misses:
        if inst.label in (ClassLabel.IC_SET, ClassLabel.IC_FN):
            assert check(inst.obj, inst.label).member == inst.member, inst.ident
    rng = random.Random(33)
    f = LatticeFn(3, {p: rng.randint(-4, 4) for p in cube(3, 0, 3).points()})
    verdict = check(f, ClassLabel.IC_FN)
    assert verdict.member or verify_witness(f, verdict.witness)
    # a check reads an even total by its rounded midpoints alone, so the
    # kernel's closed form for it is reached through the public function
    assert set(odd) == {1, 2, 3}
    monkeypatch.setattr(hull, "twice_extension", counted)
    assert hull.local_extension_value(f, (1, 2, 0)) == f.values[(1, 2, 0)]
    assert set(odd) == {0, 1, 2, 3}


def test_view_scales_values_to_ints():
    # one positive factor for every value, the least that makes them all
    # ints; the ramp is left out, since it cancels from every axiom
    f = LatticeFn(2, {(0, 0): F(1, 6), (1, 0): F(-3, 4), (2, 0): F(5)}, lifted=True, ramp=F(2, 9))
    v = _View.of(f)
    assert v.vals == {(0, 0): 2, (1, 0): -9, (2, 0): 60}
    assert all(type(c) is int for c in v.vals.values())
    assert _View.of(LatticeSet.of([(0, 1)])).vals == {(0, 1): 0}


def _random_witness(rng, kind, shape, obj):
    """A witness of ``kind`` with ``shape`` = (points, indices) counts, its
    points shifts of stored representatives; a jump kind's third point is a
    signed unit step."""
    n, reps = obj.dim, sorted(value_map(obj))
    pts = [vshift(rng.choice(reps), rng.randint(-2, 2)) for _ in range(shape[0])]
    if kind.startswith("jump-"):
        i = rng.randrange(n)
        pts[2] = tuple(rng.choice((-1, 1)) if j == i else 0 for j in range(n))
    return Witness(kind, tuple(pts), tuple(rng.randrange(n) for _ in range(shape[1])))


def test_lifted_answers_ignore_the_ramp():
    # x -> ramp * x_n is linear, and the points on the two sides of every
    # axiom have equal sums, so checks and replays answer the same with
    # any ramp
    shapes = {}
    for kind, obj, label in WITNESS_CASES:
        w = check(obj, label).witness
        shapes[kind] = (len(w.points), len(w.indices))
    rng = random.Random(99)
    answers = set()
    for _ in range(200):
        f = _random_lifted(rng)
        if isinstance(f, LatticeSet):
            continue
        flat = LatticeFn(f.dim, f.values, lifted=True)
        for g in (f, LatticeFn(f.dim, f.values, lifted=True, ramp=F(rng.randint(1, 5), rng.randint(1, 3)))):
            assert check(g, ClassLabel.L_FN) == check(flat, ClassLabel.L_FN), g
            for kind, shape in sorted(shapes.items()):
                w = _random_witness(rng, kind, shape, g)
                got = verify_witness(g, w)
                assert got == verify_witness(flat, w), (g, w)
                answers.add(got)
    assert answers == {True, False}


def test_lifted_l_objects_in_one_dimension_are_members():
    # the section is the single point of Z^0
    assert check(LatticeSet(1, frozenset({(5,)}), lifted=True), ClassLabel.L_SET).member
    assert check(LatticeFn(1, {(3,): F(7)}, lifted=True, ramp=F(1, 2)), ClassLabel.L_FN).member


def test_l_section_witness_replays_on_a_finite_slice():
    # on a finite object the replay reads the slice x_n = c through the
    # first witness point, which a box meets in an L-natural set when the
    # sample is one of an L-convex set
    w = Witness("l-section-midpoint", ((0, 0), (2, 0)))
    assert verify_witness(LatticeSet.of([(0, 0), (2, 0), (1, 1)]), w)
    assert not verify_witness(LatticeSet.of([(0, 0), (1, 0), (2, 0)]), w)
    # a window off x_n = 0 answers as the lifted set it samples
    lifted = LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True)
    sample = restrict_to_window(lifted, Window((1, 1), (3, 1)))
    off = Witness("l-section-midpoint", ((1, 1), (3, 1)))
    assert verify_witness(lifted, off) and verify_witness(sample, off)


def test_l_section_witness_in_one_dimension_violates_nothing():
    # the section of a 1-d object is Z^0, where the witness pair is one
    # point twice, so the replay is False instead of a bounding-box error
    w = Witness("l-section-midpoint", ((0,), (-3,)))
    assert not verify_witness(LatticeSet(1, frozenset({(0,), (3,)})), w)
    assert not verify_witness(LatticeSet(1, frozenset({(0,), (3,)}), lifted=True), w)
    assert not verify_witness(LatticeFn(1, {(2,): F(1)}, lifted=True, ramp=F(1, 2)), w)
