"""Metamorphic checks: maps of Z^n that keep a class keep every verdict.

Translation, x -> -x and coordinate permutations map L♮-convex sets and
functions to L♮-convex ones, and L-convex ones to L-convex ones: each maps
the system x_j - x_i <= c_ij and bounds l <= x <= u to one of the same
form, and the direction 1 to +-1, so a finite object's bounding box goes to
the image's and one ramp r along 1 to r or -r.  A map moves an object
across code offsets and step orders, where a route or scan bug would show
as a changed verdict.  So every nonempty subset of [0, 1]^3 and [0, 2], a
seeded sample of those of [0, 2]^2 and seeded functions on subsets of
[0, 2]^2 and [0, 1]^3, members and near misses, are checked under ``lnat-*`` and ``l-*`` before and after each map:
membership must not change, the image's witness must replay on the image,
and the object's witness, mapped, must replay on the image too.  A ``ramp``
witness (x, y) compares f(x + 1) - f(x) with f(y + 1) - f(y), so under
x -> -x it maps to (-x - 1, -y - 1).
"""

import random
from itertools import islice

from dconvex.classes import ClassLabel, Witness, check, verify_witness
from dconvex.core import LatticeFn, LatticeSet
from test_crosschecks import _L_UNIVERSES, _finite_l_functions, _subsets

_LABELS = {
    LatticeSet: (ClassLabel.LNAT_SET, ClassLabel.L_SET),
    LatticeFn: (ClassLabel.LNAT_FN, ClassLabel.L_FN),
}


def _maps(n: int, rng):
    """(point map, ramp-witness point map) for a translation, x -> -x and a
    coordinate permutation of Z^n."""
    shift = [rng.randint(-5, 5) for _ in range(n)]
    order = rng.sample(range(n), n)

    def translate(p):
        return tuple(c + t for c, t in zip(p, shift))

    def negate(p):
        return tuple(-c for c in p)

    def permute(p):
        return tuple(p[i] for i in order)

    return [(translate, translate), (negate, lambda p: tuple(-c - 1 for c in p)), (permute, permute)]


def _mapped(obj, move):
    if isinstance(obj, LatticeSet):
        return LatticeSet(obj.dim, frozenset(map(move, obj.points)))
    return LatticeFn(obj.dim, {move(p): v for p, v in obj.values.items()})


def test_translation_negation_and_permutation_keep_the_l_verdicts():
    rng = random.Random(88)
    square, cube, line = (list(_subsets(box)) for box in _L_UNIVERSES)
    objects = rng.sample(square, 150) + cube + line + list(islice(_finite_l_functions(random.Random(2027)), 150))
    members = misses = 0
    for obj in objects:
        maps = _maps(obj.dim, rng)
        for label in _LABELS[type(obj)]:
            verdict = check(obj, label)
            members += verdict.member
            misses += not verdict.member
            for move, ramp_move in maps:
                image = _mapped(obj, move)
                got = check(image, label)
                assert got.member == verdict.member, (label, obj, image)
                if verdict.member:
                    continue
                assert verify_witness(image, got.witness), (label, image, got)
                w = verdict.witness
                points = tuple(map(ramp_move if w.kind == "ramp" else move, w.points))
                assert verify_witness(image, Witness(w.kind, points)), (label, obj, image, w)
    assert members > 300 and misses > 300
