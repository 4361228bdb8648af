import random
from fractions import Fraction
from typing import Dict, Sequence, Tuple

import pytest

from dconvex.classes import ClassLabel, check_fn
from dconvex.core import EmptyResultError, LatticeFn, LatticeSet, Point, cube, indicator_fn
from dconvex.lab import laminar_closed_form, laminar_tree_network
from dconvex.network import (
    Arc,
    ArcCost,
    Network,
    aggregation_network,
    induce_fn,
    splitting_network,
    transform_set,
)
from dconvex.ops import (
    PartitionSpec,
    SplitSpec,
    aggregate_set,
    convolution_fn,
    minkowski_sum_set,
    split_set,
)

F = Fraction


def boundary(flow: Sequence[int], net: Network) -> Tuple[Point, Point]:
    """Net supply vectors on the entrance and exit lists: an oracle for the
    boundaries that flow enumeration tracks incrementally."""
    if len(flow) != len(net.arcs):
        raise ValueError("flow must assign every arc")
    supply: Dict[str, int] = {v: 0 for v in net.vertices}
    for value, arc in zip(flow, net.arcs):
        supply[arc.tail] += value
        supply[arc.head] -= value
    return tuple(supply[v] for v in net.entrance), tuple(supply[v] for v in net.exit)


def identity_network(bounds: Sequence[Tuple[int, int]]) -> Network:
    n = len(bounds)
    us = tuple(f"u{i}" for i in range(n))
    ws = tuple(f"w{i}" for i in range(n))
    arcs = tuple(Arc(us[i], ws[i], bounds[i][0], bounds[i][1]) for i in range(n))
    return Network(us + ws, arcs, us, ws)


def pair_sum_network(
    bounds1: Sequence[Tuple[int, int]], bounds2: Sequence[Tuple[int, int]]
) -> Network:
    """Two entrance copies of each coordinate feeding a common exit; the
    induced object is the Minkowski sum / convolution."""
    n = len(bounds1)
    if len(bounds2) != n:
        raise ValueError("dimension mismatch")
    us = tuple(f"u{i}" for i in range(n)) + tuple(f"v{i}" for i in range(n))
    ws = tuple(f"w{i}" for i in range(n))
    arcs = tuple(
        Arc(f"u{i}", f"w{i}", bounds1[i][0], bounds1[i][1]) for i in range(n)
    ) + tuple(Arc(f"v{i}", f"w{i}", bounds2[i][0], bounds2[i][1]) for i in range(n))
    return Network(us + ws, arcs, us, ws)


def test_boundary_examples():
    net = Network(("u", "w"), (Arc("u", "w", -5, 5),), ("u",), ("w",))
    assert boundary([3], net) == ((3,), (-3,))
    assert boundary([0], net) == ((0,), (0,))
    two = Network(("u", "w"), (Arc("u", "w", -5, 5), Arc("u", "w", -5, 5)), ("u",), ("w",))
    assert boundary([1, 2], two) == ((3,), (-3,))
    with pytest.raises(ValueError):
        boundary([1], two)


def test_network_validation():
    with pytest.raises(ValueError):
        Network(("u", "w"), (Arc("u", "w", 0, 1),), ("u",), ("u",))
    with pytest.raises(ValueError):
        Arc("u", "w", 2, 1)
    with pytest.raises(ValueError):
        Arc("u", "w", 0, 13)  # capacity width cap
    with pytest.raises(ValueError):
        ArcCost.from_table({0: F(0), 1: F(2), 2: F(1)}).validate(0, 2)  # not convex
    with pytest.raises(ValueError):
        ArcCost.from_table({0: F(0)}).validate(0, 2)  # does not cover the range


def test_identity_network_echo():
    s = LatticeSet.of([(1, -2), (0, 0)])
    net = identity_network([(-3, 3), (-3, 3)])
    assert transform_set(s, net) == s
    f = LatticeFn.of({(1, -2): F(1, 2), (0, 0): 3})
    assert induce_fn(f, net) == f


def test_empty_transform_reported_not_fatal():
    s = LatticeSet.of([(5,)])
    net = identity_network([(0, 1)])
    assert transform_set(s, net).points == frozenset()
    with pytest.raises(EmptyResultError):
        induce_fn(LatticeFn.of({(5,): 0}), net)


def test_empty_set_has_an_empty_image():
    net = Network(("u", "w0", "w1"), (Arc("u", "w0", 0, 1), Arc("u", "w1", 0, 1)), ("u",), ("w0", "w1"))
    empty = LatticeSet(1, frozenset())
    assert transform_set(empty, net) == LatticeSet(2, frozenset())
    with pytest.raises(ValueError, match="input dimension"):
        transform_set(LatticeSet(2, frozenset()), net)
    s = LatticeSet.of([(0, 1), (2, 2)])
    assert minkowski_sum_set(LatticeSet(2, frozenset()), s) == LatticeSet(2, frozenset())
    assert minkowski_sum_set(s, LatticeSet(2, frozenset())) == LatticeSet(2, frozenset())


@pytest.mark.parametrize(
    "entrance, exit_",
    [(("u", "u"), ("w",)), (("u",), ("w", "w"))],
)
def test_repeated_terminals_are_rejected(entrance, exit_):
    # through entrance (u, u) every flow supplies (x, x), so a function on
    # Z^2 would be read on its diagonal only
    with pytest.raises(ValueError, match="repeats a vertex"):
        Network(("u", "w"), (Arc("u", "w", 0, 2),), entrance, exit_)


def test_splitting_network_reproduces_split():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 2)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))
        )
        s = LatticeSet(n, pts)
        blocks = tuple(rng.randint(1, 2) for _ in range(n))
        w = cube(sum(blocks), -3, 3)
        net = splitting_network(blocks, w)
        assert transform_set(s, net) == split_set(s, SplitSpec(blocks), w)


def test_aggregation_network_reproduces_aggregate():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 4)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))
        )
        s = LatticeSet(n, pts)
        idx = list(range(n))
        rng.shuffle(idx)
        m = rng.randint(1, n - 1)
        cuts = sorted(rng.sample(range(1, n), m - 1)) if m > 1 else []
        groups, prev = [], 0
        for cpos in cuts + [n]:
            groups.append(tuple(sorted(idx[prev:cpos])))
            prev = cpos
        spec = PartitionSpec(tuple(groups))
        box = s.bounding_box()
        net = aggregation_network(spec.groups, list(zip(box.lo, box.hi)))
        assert transform_set(s, net) == aggregate_set(s, spec)


def test_pair_sum_network_is_minkowski_and_convolution():
    s1 = LatticeSet.of([(0, 0), (1, 1)])
    s2 = LatticeSet.of([(1, 0), (0, 1)])
    b1 = list(zip(s1.bounding_box().lo, s1.bounding_box().hi))
    b2 = list(zip(s2.bounding_box().lo, s2.bounding_box().hi))
    net = pair_sum_network(b1, b2)
    from dconvex.ops import direct_sum_set, direct_sum_fn

    assert transform_set(direct_sum_set(s1, s2), net) == minkowski_sum_set(s1, s2)
    f1 = LatticeFn.of({(0, 0): 0, (1, 1): F(1, 2)})
    f2 = LatticeFn.of({(1, 0): 1, (0, 1): 2})
    assert induce_fn(direct_sum_fn(f1, f2), net) == convolution_fn(f1, f2)


def test_indicator_consistency():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 2)
        pts = frozenset(
            tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))
        )
        s = LatticeSet(n, pts)
        w = cube(n + 1, -2, 2)
        net = splitting_network((2,) + (1,) * (n - 1), w)
        t = transform_set(s, net)
        try:
            g = induce_fn(indicator_fn(s), net)
        except EmptyResultError:
            assert not t.points
            continue
        assert g.domain() == t
        assert all(v == 0 for v in g.values.values())


def test_arc_cost_sums_into_induced_value():
    # one entry, one exit, quadratic transport cost
    net = Network(
        ("u", "w"),
        (Arc("u", "w", -3, 3, ArcCost.from_callable(-3, 3, lambda t: t * t)),),
        ("u",),
        ("w",),
    )
    f = LatticeFn.of({(t,): abs(t) for t in range(-3, 4)})
    g = induce_fn(f, net)
    assert g.values[(2,)] == abs(2) + 4
    assert g.values[(0,)] == 0


def test_laminar_tree_example():
    net = laminar_tree_network()
    f = LatticeFn.of({(t,): 0 for t in range(-6, 7)})
    g = induce_fn(f, net)
    assert g.values[(1, 0, 0)] == 2
    assert set(g.values) == set(cube(3, -2, 2).points())
    assert all(g.values[y] == laminar_closed_form(y) for y in g.values)
    assert check_fn(g, ClassLabel.MNAT_FN).member


@pytest.mark.parametrize("lower, upper", [(0.5, 2), (0, 2.0), (False, 1), (0, "2")])
def test_arc_bounds_must_be_ints(lower, upper):
    with pytest.raises(ValueError):
        Arc("u", "w", lower, upper)
