import dataclasses
import random
from fractions import Fraction

import pytest

from dconvex.classes import (
    _AXIOMS,
    _MAPPED,
    ClassLabel,
    LabelKindError,
    Witness,
    argmin_perturbed,
    check,
    check_fn,
    check_set,
    increments,
    multimodular_polyhedral_check,
    verify_witness,
)
from dconvex.core import (
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    cube,
    indicator_fn,
    prefix_transform,
)
from dconvex import lab

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
    # representatives (0,0) and (2,0): join (2,0) with shift -1 gives (1,-1),
    # whose join/meet with (0,0) leave the family
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
        ClassLabel.L_FN,  # finite sample check: necessary conditions hold
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
            == check_fn(lab.parity_lift(f), ClassLabel.JUMP_M_FN).member
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


def test_polyhedral_check():
    box = LatticeSet.of([(a, b) for a in range(2) for b in range(2)])
    assert multimodular_polyhedral_check(box, cube(2, -1, 2))
    bad = LatticeSet.of([(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)])
    assert not multimodular_polyhedral_check(bad, bad.bounding_box())
    with pytest.raises(ValueError):
        multimodular_polyhedral_check(box, cube(2, 0, 0))


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
    ("submodular", LatticeSet.of([(0, 1), (1, 0)]), ClassLabel.L_SET),
    ("submodular", LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True), ClassLabel.L_SET),
    ("ones-shift", LatticeSet.of([(0, 0), (2, 2)]), ClassLabel.L_SET),
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
    # a witness point moved outside the object
    outside = (99,) * obj.dim
    assert not verify_witness(obj, dataclasses.replace(w, points=(outside,) + w.points[1:]))
    # an index no candidate of the axiom uses
    if w.indices:
        assert not verify_witness(obj, dataclasses.replace(w, indices=(obj.dim,) * len(w.indices)))
    # a step that does not lead from x toward y
    if kind.startswith("jump-"):
        x, y, step = w.points
        assert not verify_witness(obj, dataclasses.replace(w, points=(x, y, tuple(-c for c in step))))
    if kind == "ones-shift":
        x, _ = w.points
        assert not verify_witness(obj, dataclasses.replace(w, points=(x, tuple(c + 2 for c in x))))
    # the empty set of the same dimension
    assert not verify_witness(LatticeSet(obj.dim, frozenset()), w)


def test_domain_witness_replays_on_a_set():
    # a set is its own domain, so the replay answers instead of failing
    gap = LatticeSet.of([(0,), (2,)])
    assert verify_witness(gap, Witness("domain-not-dmc", ((0,), (2,))))
    assert not verify_witness(LatticeSet.of([(0,), (1,), (2,)]), Witness("domain-not-dmc", ((0,), (2,))))
