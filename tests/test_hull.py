import random
from fractions import Fraction

import pytest

from dconvex.core import LatticeFn, LatticeSet, cube, indicator_fn
from dconvex.hull import in_local_hull, local_extension_value, neighborhood
from dconvex.rationals import INF
from dconvex.simplex import OPTIMAL, solve_lp
from hull_oracle import in_local_hull_bruteforce, local_extension_value_bruteforce

F = Fraction


def hp(*coords):
    return tuple(F(c) for c in coords)


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
        # the value map alone, as the recognizers pass it, scaled to ints
        scaled = {p: int(6 * v) for p, v in vals.items()}
        assert local_extension_value(scaled, x) == 6 * local_extension_value(f, x)


def test_simplex_basic():
    # min x + y  s.t.  x + y = 1
    status, x, value = solve_lp([[F(1), F(1)]], [F(1)], [F(1), F(1)])
    assert status == OPTIMAL and value == 1
    # infeasible: x + y = -1 with x, y >= 0
    status, _, _ = solve_lp([[F(1), F(1)]], [F(-1)], [F(0), F(0)])
    assert status == "infeasible"


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
