"""Differential checks between independent code paths.

Production decides every set class through the axiom table it shares with
the function classes, so the set verdicts are compared, witness and all,
with the per-class set scanners kept in ``set_oracles``.  The function
recognizers applied to indicator functions must agree with the set
recognizers on every input, member or not.  Likewise the pruned depth-first
flow enumeration must agree with a naive product-space scan.
"""

import itertools
import random

from dconvex.classes import SET_LABELS, ClassLabel, check_fn, check_set
from dconvex.core import LatticeSet, indicator_fn
from dconvex.network import Arc, ArcCost, Network, boundary, transform_set
from set_oracles import SET_ORACLES

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


def test_set_recognizers_match_oracle():
    assert set(SET_ORACLES) == SET_LABELS
    for s in _random_sets(31415):
        for label, oracle in SET_ORACLES.items():
            assert check_set(s, label) == oracle(s), (label, sorted(s.points))
    for s in _random_lifted_sets(2718):
        assert check_set(s, ClassLabel.L_SET) == SET_ORACLES[ClassLabel.L_SET](s), sorted(s.points)


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


def _naive_transform(s: LatticeSet, net: Network) -> LatticeSet:
    """Product-space flow scan with no pruning; only usable on tiny nets."""
    targets = set()
    internal = set(net.internal)
    ranges = [range(a.lower, a.upper + 1) for a in net.arcs]
    for flow in itertools.product(*ranges):
        supply = {v: 0 for v in net.vertices}
        for value, arc in zip(flow, net.arcs):
            supply[arc.tail] += value
            supply[arc.head] -= value
        if any(supply[v] != 0 for v in internal):
            continue
        on_u, on_w = boundary(flow, net)
        if on_u in s.points:
            targets.add(tuple(-c for c in on_w))
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
