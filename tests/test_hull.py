import random
from fractions import Fraction

import pytest

from dconvex import hull
from dconvex.core import LatticeFn, LatticeSet, cube, indicator_fn
from dconvex.hull import in_local_hull, local_extension_value, neighborhood, twice_extension
from dconvex.rationals import INF
from dconvex.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from hull_oracle import in_local_hull_bruteforce, local_extension_value_bruteforce

F = Fraction


def hp(*coords):
    return tuple(F(c) for c in coords)


def doubled(x):
    """2x, the total the kernel reads."""
    return tuple(int(2 * c) for c in x)


def twice(value, scale=1):
    """Twice an extension value of a function scaled by ``scale``, as the
    kernel returns it: None for +infinity."""
    return None if value is INF else 2 * scale * value


def test_neighborhood_examples():
    assert neighborhood(hp(F(1, 2), 1, F(1, 2))) == [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    assert neighborhood(hp(3, -2)) == [(3, -2)]
    assert neighborhood(hp(F(1, 2), F(1, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_in_local_hull_examples():
    t = LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])
    assert not in_local_hull(t, hp(1, 1))  # integer point outside the set
    assert in_local_hull(t, hp(1, 2))
    s = LatticeSet.of([(0, 0), (1, 1)])
    assert in_local_hull(s, hp(F(1, 2), F(1, 2)))
    assert not in_local_hull(LatticeSet.of([(0, 0), (1, 0)]), hp(F(1, 2), F(1, 2)))


def test_local_extension_examples():
    # even-sum grid with values 0 on even points and 1 on odd points
    vals = {}
    for a in range(4):
        for b in range(4):
            if (a + b) % 2 == 0:
                vals[(a, b)] = F(1) if a % 2 else F(0)
    f = LatticeFn(2, vals)
    assert local_extension_value(f, hp(F(1, 2), F(1, 2))) == F(1, 2)
    assert local_extension_value(f, hp(2, 2)) == F(0)
    assert local_extension_value(f, hp(F(5, 2), F(1, 2))) == F(1, 2)
    # indicator reduces to hull membership
    g = LatticeFn.of({(0, 0): 0, (1, 1): 0})
    assert local_extension_value(g, hp(F(1, 2), F(1, 2))) == F(0)
    assert local_extension_value(g, hp(F(1, 2), 0)) == INF


def test_points_off_the_half_integers_are_rejected():
    # only a half-integral coordinate gets a row of the LP, so a third, a
    # float, a string or a bool would be read wrongly or fail late
    s = LatticeSet.of([(0, 0), (1, 1)])
    f = LatticeFn.of({(0, 0): F(1), (1, 1): F(3)})
    cases = [((F(1, 3), F(2, 3)), 0), ((F(1, 2), F(1, 3)), 1), ((0.5, 0.5), 0), ((0, "1/2"), 1), ((True, 0), 0)]
    for x, bad in cases:
        for call, obj in ((in_local_hull, s), (local_extension_value, f)):
            with pytest.raises(ValueError, match=f"coordinate {bad} of x"):
                call(obj, x)
    # ints and Fractions with denominator 1 or 2 are read as before
    assert in_local_hull(s, (F(1, 2), F(1, 2))) and in_local_hull(s, (1, F(2, 2)))
    assert local_extension_value(f, (F(1, 2), F(1, 2))) == 2
    assert local_extension_value(f, (0, F(0))) == 1


def test_extension_at_integer_points_equals_value():
    f = LatticeFn.of({(0, 0): F(3, 2), (1, 0): 2})
    assert local_extension_value(f, hp(0, 0)) == F(3, 2)
    assert local_extension_value(f, hp(0, 1)) == INF


def _random_set_and_query(rng, n):
    window = cube(n, -2, 2)
    pts = [
        tuple(rng.randint(-2, 2) for _ in range(n))
        for _ in range(rng.randint(1, 7))
    ]
    s = LatticeSet(n, frozenset(pts))
    x = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
    return s, x


def test_hull_membership_agrees_with_bruteforce():
    rng = random.Random(1729)
    for _ in range(300):
        n = rng.randint(1, 3)
        s, x = _random_set_and_query(rng, n)
        assert in_local_hull(s, x) == in_local_hull_bruteforce(s, x)


def test_extension_value_agrees_with_bruteforce():
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randint(1, 3)
        s, x = _random_set_and_query(rng, n)
        vals = {p: F(rng.randint(-4, 4), rng.choice((1, 2))) for p in s.points}
        f = LatticeFn(n, vals)
        assert local_extension_value(f, x) == local_extension_value_bruteforce(f, x)
        # the kernel on a getter of values scaled to ints, as the recognizers
        # call it
        scaled = {p: int(6 * v) for p, v in vals.items()}
        assert twice_extension(scaled.get, doubled(x)) == twice(local_extension_value(f, x), 6)


def test_simplex_basic():
    # min x + y  s.t.  x + y = 1
    status, x, value = solve_lp([[F(1), F(1)]], [F(1)], [F(1), F(1)])
    assert status == OPTIMAL and value == 1
    # infeasible: x + y = -1 with x, y >= 0
    status, _, _ = solve_lp([[F(1), F(1)]], [F(-1)], [F(0), F(0)])
    assert status == "infeasible"


# (rows, rhs, objective, (status, x, value)), each result recorded from the
# Fraction-tableau simplex that the integer tableau replaced.  The two
# degenerate LPs have tied ratios where Bland's tie-break decides x but not
# the value; the hull LPs are systems as ``hull`` builds them (coordinate
# rows doubled, then the row of ones), taken from the closure matrix and the
# check corpus.
PINNED_LPS = [
    (  # hull, degenerate: the tie-break picks x; a negative right-hand side
        [[0, 0, 0, 0, 2, 2, 2, 2], [2, 2, 2, 2, 0, 0, 0, 0], [-2, -2, 0, 0, -2, -2, 0, 0],
         [2, 4, 2, 4, 2, 4, 2, 4], [1, 1, 1, 1, 1, 1, 1, 1]],
        [1, 1, -1, 3, 1],
        [-1, 0, 0, 4, -1, 0, 0, 4],
        (OPTIMAL, [0, F(1, 2), 0, 0, 0, 0, F(1, 2), 0], 0),
    ),
    (  # degenerate: the tie-break picks x
        [[-1, 0, 0, 2, 2, -1], [-1, -1, 1, 0, 1, 0], [-1, 0, 1, 2, -1, 2]],
        [1, 0, 0],
        [0, 0, 1, 0, 0, 1],
        (OPTIMAL, [F(1, 3), 0, 0, F(1, 3), F(1, 3), 0], 0),
    ),
    (  # hull: a negative pivot in the drive-out, and a zero row
        [[0, 0, 0, 2, 2, 2], [0, 0, 0, 0, 0, 0], [0, 2, 2, 0, 2, 2], [2, 0, 2, 2, 0, 2],
         [1, 1, 1, 1, 1, 1]],
        [1, 0, 1, 1, 1],
        [7, 7, 7, -7, -7, -3],
        (OPTIMAL, [0, F(1, 2), 0, F(1, 2), 0, 0], 0),
    ),
    (  # a negative pivot in the drive-out
        [[-3, -1]],
        [0],
        [-1, 2],
        (OPTIMAL, [0, 0], 0),
    ),
    (  # hull: a redundant row (the second is twice the ones row minus the first)
        [[0, 0, 2, 2], [4, 4, 2, 2], [2, 4, 2, 4], [1, 1, 1, 1]],
        [1, 3, 3, 1],
        [0, 0, 0, 0],
        (OPTIMAL, [0, F(1, 2), F(1, 2), 0], 0),
    ),
    (  # unbounded
        [[1, -1, 0], [0, 1, -1]],
        [1, 2],
        [0, 0, -1],
        (UNBOUNDED, None, None),
    ),
    (  # fractional data, a negative right-hand side
        [[F(1, 2), F(-2, 3), 1], [F(3, 4), 1, F(-1, 5)]],
        [F(-1, 3), 2],
        [F(5, 2), 1, F(-1, 7)],
        (OPTIMAL, [0, F(29, 13), F(15, 13)], F(188, 91)),
    ),
    (  # infeasible
        [[1, 1, 0], [0, 1, 1], [1, 0, -1]],
        [1, 1, F(1, 2)],
        [1, 1, 1],
        (INFEASIBLE, None, None),
    ),
]


@pytest.mark.parametrize(
    "rows, rhs, objective, expected",
    PINNED_LPS,
    ids=[
        "hull-tie-break", "tie-break", "hull-negative-drive-out", "negative-drive-out",
        "hull-redundant-row", "unbounded", "fractional-negative-rhs", "infeasible",
    ],
)
def test_simplex_pinned_results(rows, rhs, objective, expected):
    status, x, value = solve_lp(rows, rhs, objective)
    assert (status, x, value) == expected
    if status == OPTIMAL:
        assert all(type(v) is F for v in x) and type(value) is F


def test_simplex_rejects_extra_rhs():
    with pytest.raises(ValueError):
        solve_lp([[1, 1]], [1, 5], [1, 1])


def test_simplex_rejects_short_rhs():
    with pytest.raises(ValueError):
        solve_lp([[1, 1], [1, -1]], [1], [1, 1])


def test_simplex_rejects_float_entries():
    with pytest.raises(ValueError):
        solve_lp([[0.1, 1]], [1], [1, 1])
    with pytest.raises(ValueError):
        solve_lp([[1, 1]], [0.5], [1, 1])
    with pytest.raises(ValueError):
        solve_lp([[1, 1]], [1], [1, 1.0])


def test_simplex_rejects_string_and_bool_entries():
    for bad in ("1", True):
        with pytest.raises(ValueError):
            solve_lp([[bad, 1]], [1], [1, 1])
        with pytest.raises(ValueError):
            solve_lp([[1, 1]], [bad], [1, 1])
        with pytest.raises(ValueError):
            solve_lp([[1, 1]], [1], [bad, 1])


def _sparse_hull_query(rng):
    """A point x in Z^n/2, n <= 6, with at least three half-integral
    coordinates (so the LP runs) and a domain of a few points of its
    neighborhood (so the hull often misses x), plus a point outside it."""
    n = rng.randint(3, 6)
    axes = rng.sample(range(n), rng.randint(3, n))
    x = tuple(F(2 * rng.randint(-2, 2) + (i in axes), 2) for i in range(n))
    nbhd = neighborhood(x)
    pts = set(rng.sample(nbhd, rng.randint(1, 6)))
    if rng.random() < 0.5:
        # an antipodal pair through x makes the hull hit x
        p = rng.choice(nbhd)
        pts |= {p, tuple(int(2 * c) - v for c, v in zip(x, p))}
    pts.add(tuple(int(c) + 2 for c in x))
    return n, x, pts


def test_extension_value_agrees_with_bruteforce_up_to_six_dimensions():
    rng = random.Random(20261018)
    infinite = 0
    for q in range(200):
        n, x, pts = _sparse_hull_query(rng)
        if q % 2:
            vals = {p: F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for p in pts}
        else:
            vals = {p: rng.randint(-5, 5) for p in pts}
        want = local_extension_value_bruteforce(LatticeFn(n, vals), x)
        assert local_extension_value(LatticeFn(n, vals), x) == want
        assert twice_extension(vals.get, doubled(x)) == twice(want)
        infinite += want is INF
    assert 40 <= infinite <= 160


def test_only_finite_sets_and_functions_are_read():
    # a value map, a list or None is no input, whatever x is; the error
    # names the type, as ``check`` does
    x = (F(1, 2), F(1, 2))
    for obj in ({(0, 0): 1, (1, 1): 3}, [(0, 0), (1, 1)], None):
        for call in (in_local_hull, local_extension_value):
            for point in (x, x[:1], x + (0,)):
                with pytest.raises(ValueError, match=type(obj).__name__):
                    call(obj, point)
    # an x of the wrong length is an error for a set and a function alike
    for obj in (LatticeSet.of([(0, 0), (1, 1)]), LatticeFn.of({(0, 0): 1, (1, 1): 3})):
        for call in (in_local_hull, local_extension_value):
            for point in (x[:1], x + (0,), ()):
                with pytest.raises(ValueError, match="dimension"):
                    call(obj, point)


def test_kernel_reads_the_doubled_point():
    # ints in, ints out: twice the extension at total / 2, None for +inf
    vals = {(0, 0): 1, (1, 0): 2, (0, 1): 4, (1, 1): 3, (2, 1): 8}
    get = vals.get
    assert twice_extension(get, (2, 2)) == 6 and type(twice_extension(get, (2, 2))) is int
    assert twice_extension(get, (4, 4)) is None
    # one half-integral axis: the two endpoints, each read once
    assert twice_extension(get, (1, 0)) == 3 and twice_extension(get, (3, 2)) == 11
    assert twice_extension(get, (1, 4)) is None
    # two: the cheaper full diagonal, corners counted from total // 2
    assert twice_extension(get, (1, 1)) == 4
    assert twice_extension(get, (3, 1)) == 10  # the diagonal (1, 0), (2, 1) alone is full
    assert twice_extension(get, (-1, 1)) is None
    # three: the cheapest full main diagonal or parity tetrahedron; four:
    # the LP, whose right-hand side is the total (on the even corners, to
    # keep the oracle short)
    for n in (3, 4):
        cube_vals = {p: sum(p) + 2 * p[0] * p[1] for p in cube(n, 0, 1).points() if n == 3 or sum(p) % 2 == 0}
        want = local_extension_value_bruteforce(LatticeFn(n, cube_vals), hp(*[F(1, 2)] * n))
        assert twice_extension(cube_vals.get, (1,) * n) == twice(want)
        shifted = {tuple(c + 3 for c in p): v for p, v in cube_vals.items()}
        assert twice_extension(shifted.get, (7,) * n) == twice(want)
    # the kernel reads every point through the getter, so a lifted object
    # is read along 1: the square's midpoint meets the stored diagonal
    lifted = {(0, 0): 0, (1, 0): 5}
    along = lambda p: lifted.get((p[0] - p[1], 0))
    assert twice_extension(along, (1, 1)) == 0 and twice_extension(lifted.get, (1, 1)) is None


def test_three_odd_coordinates_in_closed_form(monkeypatch):
    # every non-empty set of corners of a unit 3-cube, with seeded int and
    # Fraction values, placed at an offset and with an integral fourth
    # coordinate too: the closed form is the brute-force minimum, an int
    # when integral and a Fraction otherwise, and solves no LP
    def solved(*args):
        raise AssertionError("three odd coordinates solved an LP")

    monkeypatch.setattr(hull, "solve_lp", solved)
    rng = random.Random(3030)
    corners = list(cube(3, 0, 1).points())
    fractional = 0
    for mask in range(1, 256):
        pts = [p for k, p in enumerate(corners) if mask >> k & 1]
        for value in (lambda: rng.randint(-6, 6), lambda: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))):
            vals = {p: value() for p in pts}
            want = twice(local_extension_value_bruteforce(LatticeFn(3, vals), hp(F(1, 2), F(1, 2), F(1, 2))))
            for shift, total in (((0, 0, 0), (1, 1, 1)), ((-2, 5, 1), (-3, 11, 3))):
                moved = {tuple(c + s for c, s in zip(p, shift)): v for p, v in vals.items()}
                got = twice_extension(moved.get, total)
                # the same cube in Z^4, its third coordinate fixed at 4
                embedded = {p[:2] + (4,) + p[2:]: v for p, v in moved.items()}
                assert got == want == twice_extension(embedded.get, total[:2] + (8,) + total[2:]), (vals, shift)
                if got is not None:
                    assert type(got) is (int if F(got).denominator == 1 else F), vals
                    fractional += type(got) is F
    assert fractional > 20


def test_lifted_inputs_rejected():
    s = LatticeSet(2, frozenset({(0, 0)}), lifted=True)
    with pytest.raises(Exception):
        in_local_hull(s, hp(0, 0))


def test_indicator_extension_matches_hull_membership():
    # a set's local extension is its indicator's: 0 where the brute-force
    # oracle finds a convex combination, +infinity elsewhere
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 3)
        s, x = _random_set_and_query(rng, n)
        ext = local_extension_value(s, x)
        if in_local_hull_bruteforce(s, x):
            assert ext == 0
        else:
            assert ext is INF
        assert local_extension_value(indicator_fn(s), x) == ext
