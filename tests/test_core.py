import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dconvex import core
from dconvex.core import (
    Codes,
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Window,
    cube,
    difference_point,
    difference_transform,
    join_meet,
    midpoint_round,
    prefix_point,
    prefix_transform,
    rebuild,
    restrict_to_window,
    supports,
    vadd,
    value_map,
)
from dconvex.network import ArcCost

points = st.lists(st.integers(-8, 8), min_size=1, max_size=5).map(tuple)


def same_dim_pair():
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(tuple),
            st.lists(st.integers(-8, 8), min_size=n, max_size=n).map(tuple),
        )
    )


def test_supports_examples():
    assert supports((1, -2, 0)) == ((0,), (1,))
    assert supports((0, 0, 0)) == ((), ())
    assert supports((3, -1, 2, -4)) == ((0, 2), (1, 3))


def test_midpoint_examples():
    assert midpoint_round((0, 1, 1), (1, 1, 0)) == ((1, 1, 1), (0, 1, 0))
    assert midpoint_round((2, 2), (2, 2)) == ((2, 2), (2, 2))
    assert midpoint_round((1, 0, 2), (0, 1, 0)) == ((1, 1, 1), (0, 0, 1))


def test_midpoint_dimension_mismatch():
    with pytest.raises(ValueError):
        midpoint_round((1, 2), (1, 2, 3))


def test_join_meet_examples():
    assert join_meet((1, 0), (0, 1)) == ((1, 1), (0, 0))
    assert join_meet((2, -1, 3), (1, 1, 3)) == ((2, 1, 3), (1, -1, 3))
    assert join_meet((4, 5), (4, 5)) == ((4, 5), (4, 5))


@given(same_dim_pair())
def test_midpoint_identities(pair):
    x, y = pair
    up, down = midpoint_round(x, y)
    assert all(a >= b for a, b in zip(up, down))
    assert vadd(up, down) == vadd(x, y)


@given(same_dim_pair())
def test_join_meet_identity(pair):
    x, y = pair
    jn, mt = join_meet(x, y)
    assert vadd(jn, mt) == vadd(x, y)


@given(points)
def test_coordinate_transforms_invert(p):
    assert difference_point(prefix_point(p)) == p
    assert prefix_point(difference_point(p)) == p


def test_prefix_transform_examples():
    assert prefix_point((1, 1)) == (1, 2)
    assert difference_point((1, 2, 3)) == (1, 1, 1)
    source = LatticeSet.of(
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (1, 0, -1, 0, 0, 0), (1, 0, -1, 0, 1, 0)]
    )
    expected = LatticeSet.of(
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 1, 1)]
    )
    assert prefix_transform(source) == expected
    target = LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)])
    assert difference_transform(target) == LatticeSet.of(
        [(0, 0, 0), (0, 1, 0), (1, 0, -1), (1, 1, -1)]
    )
    zero = LatticeSet.of([(0, 0, 0)])
    assert prefix_transform(zero) == zero


@settings(max_examples=40)
@given(st.lists(points.filter(lambda p: len(p) == 3), min_size=1, max_size=8))
def test_transform_roundtrip_on_sets(pts):
    s = LatticeSet(3, frozenset(pts))
    assert difference_transform(prefix_transform(s)) == s


def test_transform_rejects_lifted():
    s = LatticeSet(2, frozenset({(1, 0)}), lifted=True)
    with pytest.raises(LiftedInputError):
        prefix_transform(s)
    with pytest.raises(LiftedInputError):
        difference_transform(s)


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=64),
    st.fractions(min_value=-10, max_value=10, max_denominator=64),
)
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


def test_lifted_set_normalization_makes_equality_decidable():
    a = LatticeSet(3, frozenset({(1, 2, 1)}), lifted=True)
    b = LatticeSet(3, frozenset({(0, 1, 0)}), lifted=True)
    assert a == b
    assert (5, 6, 5) in a
    assert (5, 6, 4) not in a


def test_lifted_fn_values_follow_the_ramp():
    f = LatticeFn(2, {(0, 0): Fraction(1)}, lifted=True, ramp=Fraction(3, 2))
    assert f.value((2, 2)) == Fraction(4)
    assert f.value((-1, -1)) == Fraction(-1, 2)
    g = LatticeFn(2, {(1, 1): Fraction(5, 2)}, lifted=True, ramp=Fraction(3, 2))
    assert f == g  # same function, different representatives


def test_lifted_objects_are_the_same_from_any_representatives(monkeypatch):
    # representatives already normalized (last coordinate 0, as every
    # written document has them) are kept as given, with no per-entry
    # normalization; any other representatives give the same object
    rng = random.Random(41)
    calls = []

    def counted(p):
        calls.append(p)
        return core.vshift(p, -p[-1])

    monkeypatch.setattr(core, "_normalize_rep", counted)
    for dim in (1, 2, 4):
        ramp = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        reps = {tuple(rng.randint(-6, 6) for _ in range(dim - 1)) + (0,) for _ in range(12)}
        vals = {p: Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for p in reps}
        shifts = {p: rng.randint(-3, 3) for p in reps}
        moved = {core.vshift(p, shifts[p]): v + shifts[p] * ramp for p, v in vals.items()}
        calls.clear()
        s, f = LatticeSet(dim, frozenset(reps), lifted=True), LatticeFn(dim, vals, lifted=True, ramp=ramp)
        assert calls == []
        assert s.points == frozenset(reps) and f.values == vals
        assert all(type(v) is Fraction for v in f.values.values())
        assert LatticeSet(dim, frozenset(moved), lifted=True) == s
        assert LatticeFn(dim, moved, lifted=True, ramp=ramp) == f
        # int values, and normalized and shifted representatives of one point
        ints = {p: v.numerator for p, v in vals.items()}
        both = {**ints, **{core.vshift(p, 2): n + 2 * ramp for p, n in ints.items()}}
        assert LatticeFn(dim, both, lifted=True, ramp=ramp).values == ints
    with pytest.raises(ValueError, match=r"conflicting values for representative \(0, 0\)"):
        LatticeFn(2, {(0, 0): Fraction(1), (1, 1): Fraction(1)}, lifted=True, ramp=Fraction(1, 2))
    with pytest.raises(ValueError, match=r"conflicting values for representative \(2, 0\)"):
        LatticeFn(2, {(3, 1): Fraction(0), (2, 0): Fraction(1)}, lifted=True)
    # a malformed point raises the per-point message before any p[-1] is read
    for bad in [(), (1, 0.0), (1, 0, 0)]:
        with pytest.raises(ValueError, match="point"):
            LatticeSet(2, frozenset({(0, 0), bad}), lifted=True)
        with pytest.raises(ValueError, match="point"):
            LatticeFn(2, {(0, 0): Fraction(0), bad: Fraction(1)}, lifted=True)


@pytest.mark.parametrize("scale", [1, 6, 2**70 + 3])
def test_rebuild_divides_back_once_per_distinct_int(scale):
    rng = random.Random(scale % 997)
    pool = [0, 1, -1, scale, -scale, 2 * scale + 1, -(2**80) - 3, *(rng.randint(-3 * scale, 3 * scale) for _ in range(9))]
    ints = {(i, rng.randint(-2, 2)): rng.choice(pool) for i in range(120)}
    like = LatticeFn.of({(0,): 0})
    got = rebuild(like, 2, ints, scale=scale)
    assert got.values == {p: Fraction(n, scale) for p, n in ints.items()}
    assert all(type(v) is Fraction for v in got.values.values())
    # equal values share one Fraction object, which documents.to_text relies on
    assert len(set(map(id, got.values.values()))) == len(set(ints.values())) < len(ints)
    reps = {(p[0], 0): n for p, n in ints.items()}
    lifted = rebuild(like, 2, reps, lifted=True, ramp=Fraction(1, 3), scale=scale)
    assert lifted == LatticeFn(2, {p: Fraction(n, scale) for p, n in reps.items()}, lifted=True, ramp=Fraction(1, 3))
    assert rebuild(LatticeSet(2), 2, dict.fromkeys(ints, 0), scale=scale) == LatticeSet(2, frozenset(ints))
    with pytest.raises(EmptyResultError, match="nothing"):
        rebuild(like, 2, {}, empty="nothing", scale=scale)


def test_restrict_to_window():
    line = LatticeSet.of([(t, -t) for t in range(-5, 6)])
    got = restrict_to_window(line, cube(2, -2, 2))
    assert got == LatticeSet.of([(t, -t) for t in range(-2, 3)])
    # no-op when already inside
    assert restrict_to_window(got, cube(2, -9, 9)) == got


def test_restrict_materializes_lifted_sets():
    base = LatticeSet(4, frozenset({(0, 0, 0, 0), (1, 1, 0, 0)}), lifted=True)
    got = restrict_to_window(base, cube(4, 0, 1))
    assert got == LatticeSet.of([(0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1)])


def test_restrict_materializes_lifted_fn_with_ramp():
    f = LatticeFn(2, {(0, 0): Fraction(0)}, lifted=True, ramp=Fraction(1, 2))
    got = restrict_to_window(f, cube(2, -1, 1))
    assert got == LatticeFn.of({(-1, -1): Fraction(-1, 2), (0, 0): 0, (1, 1): Fraction(1, 2)})


def test_restrict_signals_empty_result():
    s = LatticeSet.of([(5, 5)])
    with pytest.raises(EmptyResultError):
        restrict_to_window(s, cube(2, 0, 1))


def test_window_validation():
    with pytest.raises(ValueError):
        Window((0, 0), (1,))
    with pytest.raises(ValueError):
        Window((2,), (0,))


def test_fn_requires_nonempty_domain():
    with pytest.raises(ValueError):
        LatticeFn(2, {})


def test_prefix_is_the_all_ones_lower_triangle():
    # n = 5: the inverse coordinate change is x -> (x1, x1+x2, ..., x1+..+x5)
    assert prefix_point((1, 1, 1, 1, 1)) == (1, 2, 3, 4, 5)
    assert difference_point((1, 2, 3, 4, 5)) == (1, 1, 1, 1, 1)


def test_infinity_semantics():
    from dconvex.rationals import INF, format_value, parse_value

    assert INF + Fraction(3, 2) == INF
    assert Fraction(-5) + INF == INF
    assert INF + INF == INF
    assert Fraction(10**9) < INF
    assert INF <= INF and INF >= Fraction(0) and not INF < INF
    assert parse_value("inf") == INF
    assert parse_value("-7/2") == Fraction(-7, 2)
    assert format_value(INF) == "inf"
    assert format_value(Fraction(3, 4)) == "3/4"
    assert parse_value(format_value(Fraction(-9))) == Fraction(-9)


@pytest.mark.parametrize("coord", [0.7, 1.0, True, "1", Fraction(1)])
def test_coordinates_must_be_ints(coord):
    with pytest.raises(ValueError):
        LatticeSet.of([(coord, 1)])
    with pytest.raises(ValueError):
        LatticeSet(2, frozenset({(coord, 1)}))
    with pytest.raises(ValueError):
        LatticeFn.of({(coord, 1): 0})
    with pytest.raises(ValueError):
        Window((coord, 0), (2, 2))


@pytest.mark.parametrize("value", [0.1, 1.0, True, "1/2", None])
def test_values_must_be_ints_or_fractions(value):
    with pytest.raises(ValueError):
        LatticeFn.of({(0,): value})
    with pytest.raises(ValueError):
        LatticeFn(1, {(0,): 0}, lifted=True, ramp=value)
    with pytest.raises(ValueError):
        ArcCost.from_table({0: value, 1: 1})
    with pytest.raises(ValueError):
        ArcCost.from_table({value: 0})


def test_exact_inputs_are_kept():
    f = LatticeFn.of({(0,): 1, (1,): Fraction(1, 3)})
    assert f.values == {(0,): Fraction(1), (1,): Fraction(1, 3)}
    assert all(type(v) is Fraction for v in f.values.values())
    assert LatticeSet.of([[0, 1]]).points == frozenset({(0, 1)})


def test_ramp_needs_a_lifted_function():
    with pytest.raises(ValueError):
        LatticeFn.of({(0,): 1}, ramp=3)
    assert LatticeFn.of({(0,): 1}, ramp=0).ramp == 0
    assert LatticeFn.of({(0, 0): 1}, lifted=True, ramp=3).ramp == 3


def test_set_value_map_is_built_once():
    # recognizers read a set through this map on every hull query, so it is
    # cached on the set rather than rebuilt per call
    s = LatticeSet.of([(0, 1), (2, 3)])
    assert value_map(s) == {(0, 1): 0, (2, 3): 0}
    assert value_map(s) is value_map(s)
    assert s == LatticeSet.of([(2, 3), (0, 1)])  # the cache is not part of equality


def test_codes_points_decodes_like_point():
    rng = random.Random(19)
    for n in range(1, 7):
        for _ in range(20):
            lo = tuple(rng.randint(-9, 3) for _ in range(n))
            hi = tuple(a + rng.randint(0, 4) for a in lo)
            codes = Codes(lo, hi)
            last = codes.code(hi)
            inside = [rng.randint(0, last) for _ in range(30)]
            # the corners, and codes past either end of the box
            cs = [0, last, codes.code(lo), *inside, -1, last + 1, -last - 7, 3 * last + 5]
            assert codes.points(cs) == list(map(codes.point, cs))
            assert codes.points([codes.code(p) for p in (lo, hi)]) == [lo, hi]
            assert codes.points([]) == []


def test_codes_codes_like_code():
    rng = random.Random(23)
    for n in range(1, 7):
        for _ in range(20):
            lo = tuple(rng.randint(-9, 3) for _ in range(n))
            hi = tuple(a + rng.randint(0, 4) for a in lo)
            codes = Codes(lo, hi)
            inside = [tuple(rng.randint(a, b) for a, b in zip(lo, hi)) for _ in range(30)]
            # points outside the box are coded by the same affine formula
            outside = [tuple(rng.randint(a - 20, b + 20) for a, b in zip(lo, hi)) for _ in range(10)]
            ps = [lo, hi, *inside, *outside]
            assert codes.codes(ps) == list(map(codes.code, ps))
            assert codes.points(codes.codes(inside)) == inside
            keyed = dict.fromkeys(reversed(ps))
            assert codes.codes(keyed) == list(map(codes.code, keyed))
            assert codes.codes([]) == []
