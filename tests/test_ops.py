import random
from fractions import Fraction

import pytest

from dconvex import lab, ops
from dconvex.core import (
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Window,
    cube,
    indicator_fn,
)
from dconvex.network import induce_fn, transform_set
from dconvex.ops import (
    PartitionSpec,
    SplitSpec,
    aggregate_fn,
    aggregate_set,
    convolution_fn,
    direct_sum_fn,
    direct_sum_lifted_fn,
    direct_sum_lifted_set,
    direct_sum_set,
    minkowski_sum_set,
    split_fn,
    split_set,
)
import set_oracles

F = Fraction


def test_direct_sum_set():
    s1 = LatticeSet.of([(1, 0), (0, 1)])
    s2 = LatticeSet.of([(t,) for t in range(3)])
    got = direct_sum_set(s1, s2)
    assert got == LatticeSet.of(
        [(1, 0, 0), (1, 0, 1), (1, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    )
    assert len(got) == len(s1) * len(s2)
    z = LatticeSet.of([(0,)])
    assert direct_sum_set(z, z) == LatticeSet.of([(0, 0)])


def test_direct_sum_fn():
    f1 = LatticeFn.of({(0,): 3})
    f2 = LatticeFn.of({(0,): 4})
    assert direct_sum_fn(f1, f2) == LatticeFn.of({(0, 0): 7})
    s1 = LatticeSet.of([(1, 0), (0, 1)])
    s2 = LatticeSet.of([(2,)])
    assert direct_sum_fn(indicator_fn(s1), indicator_fn(s2)) == indicator_fn(
        direct_sum_set(s1, s2)
    )


def test_direct_sum_rejects_lifted():
    s = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    with pytest.raises(LiftedInputError):
        direct_sum_set(s, s)


def test_split_set_examples():
    origin = LatticeSet.of([(0,)])
    got = split_set(origin, SplitSpec((2,)), cube(2, -2, 2))
    assert got == LatticeSet.of([(t, -t) for t in range(-2, 3)])
    # identity splitting is intersection with the window
    s = LatticeSet.of([(0, 3), (1, 1)])
    assert split_set(s, SplitSpec((1, 1)), cube(2, 0, 2)) == LatticeSet.of([(1, 1)])
    got = split_set(LatticeSet.of([(0, 0), (1, 1)]), SplitSpec((1, 2)), cube(3, 0, 1))
    assert got == LatticeSet.of([(0, 0, 0), (1, 0, 1), (1, 1, 0)])


def test_split_fn_examples():
    f = LatticeFn.of({(0,): 5, (1,): 7})
    got = split_fn(f, SplitSpec((2,)), cube(2, 0, 1))
    assert got == LatticeFn.of({(0, 0): 5, (1, 0): 7, (0, 1): 7})
    g = LatticeFn.of({(0, 2): F(1, 2), (1, 2): 4})
    ident = split_fn(g, SplitSpec((1, 1)), cube(2, 0, 2))
    assert ident == g
    # elementary split merges the first two output slots
    h = split_fn(g, SplitSpec((2, 1)), cube(3, 0, 2))
    assert h.values[(0, 1, 2)] == 4 and h.values[(0, 0, 2)] == F(1, 2)


def test_aggregate_set_examples():
    s = LatticeSet.of([(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)])
    got = aggregate_set(s, PartitionSpec(((0, 2), (1, 3))))
    assert got == LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])
    assert aggregate_set(s, PartitionSpec.identity(4)) == s
    s6 = LatticeSet.of(
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 1, 1)]
    )
    got = aggregate_set(s6, PartitionSpec(((0, 3), (1, 4), (2, 5))))
    assert got == LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)])


def test_aggregate_fn_examples():
    s = LatticeSet.of([(0, 1), (1, 0)])
    spec = PartitionSpec(((0, 1),))
    assert aggregate_fn(indicator_fn(s), spec) == indicator_fn(aggregate_set(s, spec))
    f = LatticeFn.of({(0, 0): 1, (1, -1): 2})
    assert aggregate_fn(f, spec) == LatticeFn.of({(0,): 1})


def test_aggregate_laminar_composes():
    # |x1+x2+x3| + (x1+x2)^2 + x3^2 aggregated over {1,2},{3} collapses to
    # |y1+y2| + y1^2 + y2^2 because the value only depends on the sums
    vals = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                vals[(a, b, c)] = F(abs(a + b + c) + (a + b) ** 2 + c * c)
    f = LatticeFn(3, vals)
    got = aggregate_fn(f, PartitionSpec(((0, 1), (2,))))
    for (y1, y2), v in got.values.items():
        assert v == abs(y1 + y2) + y1 * y1 + y2 * y2


# Independent oracles for split_set / aggregate_set: every splitting is a
# chain of elementary splittings, every aggregation a chain of elementary
# aggregations.


def split_set_elementary(s: LatticeSet, spec: SplitSpec, w: Window) -> LatticeSet:
    """Same result as :func:`split_set`, computed as a chain of elementary
    one-coordinate splittings.  Kept as an independent code path."""
    cur = s
    sizes = [1] * s.dim  # current block size per original coordinate
    spans = spec.offsets()
    while True:
        # leftmost original coordinate still short of its target block size
        idx = next((i for i, b in enumerate(spec.blocks) if sizes[i] < b), None)
        if idx is None:
            break
        pos = sum(sizes[:idx])  # output position of the coordinate to split
        a, _ = spans[idx]
        # final window slots already produced for this block: a .. a+sizes[idx]-1
        # the split peels one more slot; intermediate bounds are slot sums
        done = sizes[idx]
        lo_first, hi_first = w.lo[a + done - 1], w.hi[a + done - 1]
        lo_rest = sum(w.lo[a + done : a + spec.blocks[idx]])
        hi_rest = sum(w.hi[a + done : a + spec.blocks[idx]])
        new_pts = set()
        for p in cur.points:
            t = p[pos + done - 1]  # running remainder for this block
            first_lo = max(lo_first, t - hi_rest)
            first_hi = min(hi_first, t - lo_rest)
            for v in range(first_lo, first_hi + 1):
                q = p[: pos + done - 1] + (v, t - v) + p[pos + done :]
                new_pts.add(q)
        sizes[idx] += 1
        if not new_pts:
            return LatticeSet(spec.output_dim, frozenset())
        cur = LatticeSet(cur.dim + 1, frozenset(new_pts))
    # out-of-window intermediates were kept loose; clamp now
    pts = frozenset(p for p in cur.points if w.contains(p))
    return LatticeSet(spec.output_dim, pts)


def aggregate_set_elementary(s: LatticeSet, spec: PartitionSpec) -> LatticeSet:
    """Same result as :func:`aggregate_set` via repeated pairwise merges.

    Groups are first brought to consecutive positions by a coordinate
    permutation, then merged left to right two coordinates at a time.
    """
    perm = [i for g in spec.groups for i in g]
    cur = LatticeSet(s.dim, frozenset(tuple(p[i] for i in perm) for p in s.points))
    sizes = [len(g) for g in spec.groups]
    while any(b > 1 for b in sizes):
        # groups left of idx are single slots already, so the group being
        # merged starts at position idx
        idx = next(i for i, b in enumerate(sizes) if b > 1)
        new_pts = frozenset(
            p[:idx] + (p[idx] + p[idx + 1],) + p[idx + 2 :] for p in cur.points
        )
        sizes[idx] -= 1
        cur = LatticeSet(cur.dim - 1, new_pts)
    return cur


def test_elementary_chains_match():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 3)
        pts = frozenset(
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))
        )
        s = LatticeSet(n, pts)
        blocks = [1] * n
        for _ in range(rng.randint(1, 2)):
            blocks[rng.randrange(n)] += 1
        spec = SplitSpec(tuple(blocks))
        w = cube(spec.output_dim, -3, 3)
        assert split_set(s, spec, w) == split_set_elementary(s, spec, w)
        groups = [[i] for i in range(n)]
        gi = rng.randrange(len(groups) - 1)
        groups[gi] = groups[gi] + groups.pop(gi + 1)
        pspec = PartitionSpec(tuple(tuple(g) for g in groups))
        assert aggregate_set(s, pspec) == aggregate_set_elementary(s, pspec)


def test_minkowski_examples():
    s1 = LatticeSet.of([(0, 0), (1, 1)])
    s2 = LatticeSet.of([(1, 0), (0, 1)])
    assert minkowski_sum_set(s1, s2) == LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])
    zero = LatticeSet.of([(0, 0)])
    assert minkowski_sum_set(s1, zero) == s1
    with pytest.raises(ValueError):
        minkowski_sum_set(s1, LatticeSet.of([(0,)]))


def test_convolution_examples():
    s1 = LatticeSet.of([(0, 0), (1, 1)])
    s2 = LatticeSet.of([(1, 0), (0, 1)])
    got = convolution_fn(indicator_fn(s1), indicator_fn(s2))
    assert got == indicator_fn(minkowski_sum_set(s1, s2))
    # convolution with the indicator of the origin is the identity
    f = LatticeFn.of({(0, 1): F(1, 2), (2, 2): 3})
    origin = indicator_fn(LatticeSet.of([(0, 0)]))
    assert convolution_fn(f, origin) == f


def test_convolution_takes_fiber_minimum():
    f1 = LatticeFn.of({(0,): 0, (1,): 5})
    f2 = LatticeFn.of({(0,): 0, (1,): 1})
    got = convolution_fn(f1, f2)
    assert got.values[(1,)] == 1  # 0 + 1 beats 5 + 0
    assert got.values[(2,)] == 6


def test_direct_sum_lifted_set_is_all_ones_invariant():
    s1 = LatticeSet(2, frozenset({(0, 0), (1, 0)}), lifted=True)
    s2 = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    got = direct_sum_lifted_set(s1, s2, shift_bound=1)
    assert got.lifted and got.dim == 4
    assert (1, 0, 0, 0) in got and (2, 1, 1, 1) in got


# Each set operation is the function operation on indicator functions; the
# point-set bodies in ``set_oracles`` are an independent second route.


def _random_set(rng, n):
    pts = frozenset(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 6)))
    return LatticeSet(n, pts)


def test_set_operations_match_oracle():
    rng = random.Random(41)
    empty_splits = 0
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        s1, s2, t = _random_set(rng, n), _random_set(rng, m), _random_set(rng, n)
        assert direct_sum_set(s1, s2) == set_oracles.direct_sum_set(s1, s2)
        assert minkowski_sum_set(s1, t) == set_oracles.minkowski_sum_set(s1, t)
        l1 = LatticeSet(n + 1, frozenset(p + (0,) for p in s1.points), lifted=True)
        l2 = LatticeSet(m + 1, frozenset(p + (0,) for p in s2.points), lifted=True)
        bound = rng.randint(0, 2)
        got = direct_sum_lifted_set(l1, l2, shift_bound=bound)
        assert got == set_oracles.direct_sum_lifted_set(l1, l2, shift_bound=bound)
        blocks = tuple(rng.randint(1, 2) for _ in range(n))
        spec = SplitSpec(blocks)
        lo = rng.randint(-3, 2)  # windows above the points give empty images
        w = cube(spec.output_dim, lo, lo + rng.randint(0, 3))
        got = split_set(s1, spec, w)
        assert got == set_oracles.split_set(s1, spec, w)
        empty_splits += not got.points
        pspec = PartitionSpec.identity(1) if n == 1 else lab._random_partition(rng, n)
        assert aggregate_set(s1, pspec) == set_oracles.aggregate_set(s1, pspec)
    assert empty_splits > 0


def test_set_names_are_the_function_code():
    assert ops.direct_sum_set is ops.direct_sum_fn
    assert ops.direct_sum_lifted_set is ops.direct_sum_lifted_fn
    assert ops.split_set is ops.split_fn
    assert ops.aggregate_set is ops.aggregate_fn
    assert ops.minkowski_sum_set is ops.convolution_fn
    assert transform_set is induce_fn
    assert lab._set_trial is lab._fn_trial
    assert lab.check_set is lab.check_fn is lab.check


def test_mixing_sets_and_functions_is_rejected():
    s = LatticeSet.of([(0,), (1,)])
    f = LatticeFn.of({(0,): 1})
    ls = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    lf = LatticeFn(2, {(0, 0): F(1)}, lifted=True)
    for op, a, b in (
        (direct_sum_fn, s, f),
        (direct_sum_set, f, s),
        (convolution_fn, s, f),
        (minkowski_sum_set, f, s),
        (direct_sum_lifted_fn, ls, lf),
    ):
        with pytest.raises(ValueError, match="set with a function"):
            op(a, b)


def test_empty_split_image_is_returned_and_empty_domain_raises():
    s = LatticeSet.of([(5,)])
    w = cube(2, 0, 1)
    assert split_set(s, SplitSpec((2,)), w) == LatticeSet(2, frozenset())
    with pytest.raises(EmptyResultError):
        split_fn(indicator_fn(s), SplitSpec((2,)), w)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SplitSpec((1.7, True)),
        lambda: SplitSpec((2, "1")),
        lambda: PartitionSpec(((0.9,), (True,))),
        lambda: PartitionSpec(((0, 1.0),)),
    ],
    ids=["split-float-bool", "split-str", "partition-float-bool", "partition-float"],
)
def test_specs_reject_non_int_entries(build):
    with pytest.raises(ValueError):
        build()
