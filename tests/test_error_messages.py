"""Error messages for malformed documents and constructor inputs.

Set points, function entries and constructor inputs are checked in bulk,
and only an input that fails the bulk check is walked entry by entry.
These tables pin the message each malformed input gets -- the one of its
first bad entry, in document (or iteration) order -- and check that the
inputs the constructors convert (lists and generators as points, int
values) are still accepted.
"""

import json
from fractions import Fraction as F

import pytest

from dconvex import documents
from dconvex.core import LatticeFn, LatticeSet
from dconvex.documents import DocumentError


def _set(points):
    return {"kind": "set", "version": 1, "dim": 2, "points": points}


def _fn(entries):
    return {"kind": "fn", "version": 1, "dim": 2, "entries": entries}


def _e(x, v="1"):
    return {"x": x, "v": v}


_COORDINATES = {"bool": True, "float": 1.0, "string": "1", "nested": [1], "dict": {}, "null": None}

SET_DOCUMENTS = [
    *[(f"{name}-coordinate", _set([[0, 0], [1, c], [0, 1]]), "point must be an integer")
      for name, c in _COORDINATES.items()],
    ("long-point", _set([[0, 0], [1, 0, 0]]), "point dimension disagrees with dim"),
    ("short-point", _set([[0, 0], [1]]), "point dimension disagrees with dim"),
    ("repeat-first", _set([[0, 0], [0, 0], [1, 0], [0, 1]]), "points repeat the point [0, 0]"),
    ("repeat-last", _set([[0, 0], [1, 0], [0, 1], [1, 0]]), "points repeat the point [1, 0]"),
    ("point-number", _set([[0, 0], 5]), "point must be an array of integers"),
    ("point-object", _set([[0, 0], {"x": [1, 0]}]), "point must be an array of integers"),
    ("repeat-before-bool", _set([[0, 0], [0, 0], [True, 0]]), "points repeat the point [0, 0]"),
    ("bool-before-repeat", _set([[True, 0], [0, 0], [0, 0]]), "point must be an integer"),
    ("short-before-dict", _set([[1], [{}, 0]]), "point dimension disagrees with dim"),
]

FN_DOCUMENTS = [
    *[(f"{name}-coordinate", _fn([_e([0, 0]), _e([1, c]), _e([0, 1])]), "point must be an integer")
      for name, c in _COORDINATES.items()],
    ("long-point", _fn([_e([0, 0]), _e([1, 0, 0])]), "point dimension disagrees with dim"),
    ("repeat-first", _fn([_e([0, 0]), _e([0, 0], "2"), _e([1, 0])]), "entries repeat the point [0, 0]"),
    ("repeat-last", _fn([_e([0, 0]), _e([1, 0]), _e([0, 1]), _e([0, 1], "2")]),
     "entries repeat the point [0, 1]"),
    ("entry-array", _fn([_e([0, 0]), [1, 0]]), "each entry must be an object"),
    ("entry-number", _fn([_e([0, 0]), 5]), "each entry must be an object"),
    ("no-x", _fn([_e([0, 0]), {"v": "1"}]), "missing field 'entries.x'"),
    ("no-v", _fn([_e([0, 0]), {"x": [1, 0]}]), "missing field 'entries.v'"),
    ("x-number", _fn([_e([0, 0]), _e(7)]), "field 'entries.x' must be an array"),
    ("int-v", _fn([_e([0, 0]), _e([1, 0], 1)]), "field 'entries.v' must be a string"),
    ("null-v", _fn([_e([0, 0]), _e([1, 0], None)]), "field 'entries.v' must be a string"),
    ("decimal-v", _fn([_e([0, 0]), _e([1, 0], "1.5")]),
     "stored function value '1.5' is not a rational 'p' or 'p/q'"),
    ("inf-v", _fn([_e([0, 0]), _e([1, 0], "inf")]), "stored function value must be finite"),
    ("bad-v-before-bad-x", _fn([_e([0, 0], "1.5"), _e([True, 0])]),
     "stored function value '1.5' is not a rational 'p' or 'p/q'"),
    ("bad-x-before-bad-v", _fn([_e([0, 0]), _e([1, 0.5]), _e([0, 1], "1.5")]), "point must be an integer"),
    ("repeat-before-bad-v", _fn([_e([0, 0]), _e([0, 0], "x"), _e([1, 0], "1.5")]),
     "entries repeat the point [0, 0]"),
    ("two-bad-v", _fn([_e([0, 0], "2"), _e([1, 0], "1/0"), _e([0, 1], "1.5")]),
     "stored function value '1/0' is not a rational 'p' or 'p/q'"),
]


@pytest.mark.parametrize(
    "name, doc, message", SET_DOCUMENTS + FN_DOCUMENTS, ids=[
        f"{kind}-{case[0]}" for kind, cases in (("set", SET_DOCUMENTS), ("fn", FN_DOCUMENTS)) for case in cases
    ],
)
def test_malformed_document_message(name, doc, message):
    with pytest.raises(DocumentError) as info:
        documents.from_document(json.loads(json.dumps(doc)))
    assert str(info.value) == message



def _with(doc, **fields):
    return {**doc, **fields}


# documents on the edge between the bulk load and the entry walk: a lift or
# ramp that is bad together with a bad point, and the errors that only the
# constructor raises, which keep their ValueError type and text
EDGE_DOCUMENTS = [
    ("set-bad-lifted-and-point", _with(_set([[0, 0], [1, True]]), lifted="yes"), DocumentError,
     "point must be an integer"),
    ("fn-bad-lifted-and-point", _with(_fn([_e([0, 0]), _e([1, 0.5])]), lifted=1), DocumentError,
     "point must be an integer"),
    ("fn-bad-ramp-and-point", _with(_fn([_e([0, 0]), _e(["1", 0])]), lifted=True, ramp="1.5"), DocumentError,
     "point must be an integer"),
    ("set-bad-lifted", _with(_set([[0, 0]]), lifted="yes"), DocumentError, "lifted must be a JSON boolean"),
    ("fn-bad-ramp", _with(_fn([_e([0, 0])]), lifted=True, ramp="1.5"), DocumentError,
     "ramp '1.5' is not a rational 'p' or 'p/q'"),
    ("fn-finite-ramp", _with(_fn([_e([0, 0])]), ramp="1"), DocumentError,
     "only a lifted function can have a nonzero ramp"),
    ("fn-lifted-conflict", _with(_fn([_e([0, 0], "1"), _e([1, 1], "3")]), lifted=True, ramp="1"), ValueError,
     "conflicting values for representative (0, 0)"),
    ("fn-empty", _fn([]), ValueError, "function domain must be nonempty"),
    ("set-dim0", _with(_set([]), dim=0), ValueError, "dimension must be >= 1"),
    ("fn-dim0", _with(_fn([_e([])]), dim=0), ValueError, "dimension must be >= 1"),
]


@pytest.mark.parametrize("name, doc, error, message", EDGE_DOCUMENTS, ids=[c[0] for c in EDGE_DOCUMENTS])
def test_document_edge_message(name, doc, error, message):
    with pytest.raises(error) as info:
        documents.from_document(json.loads(json.dumps(doc)))
    assert type(info.value) is error
    assert str(info.value) == message


def test_lifted_documents_load_as_their_normalized_objects():
    s = documents.from_document(_with(_set([[0, 0], [1, 1], [3, 3], [2, 0]]), lifted=True))
    assert s == LatticeSet(2, frozenset({(0, 0), (2, 0)}), lifted=True)
    f = documents.from_document(_with(_fn([_e([0, 0], "1"), _e([1, 1], "2"), _e([3, 2], "0")]), lifted=True, ramp="1"))
    assert f == LatticeFn(2, {(0, 0): F(1), (1, 0): F(-2)}, lifted=True, ramp=F(1))


CONSTRUCTORS = [
    ("set-bool", lambda: LatticeSet(2, frozenset({(0, 0), (True, 1)})), ValueError,
     "point (True, 1) must have int entries"),
    ("set-float", lambda: LatticeSet(2, [(0, 0), (1.0, 1)]), ValueError, "point (1.0, 1) must have int entries"),
    ("set-string", lambda: LatticeSet(2, [(0, 0), ("1", 1)]), ValueError, "point ('1', 1) must have int entries"),
    ("set-nested", lambda: LatticeSet(2, [(0, 0), ((1,), 1)]), ValueError,
     "point ((1,), 1) must have int entries"),
    ("set-dict-in-list", lambda: LatticeSet(2, [[0, 0], [{}, 1]]), ValueError,
     "point ({}, 1) must have int entries"),
    ("set-long", lambda: LatticeSet(2, [(0, 0), (1, 1, 1)]), ValueError,
     "point (1, 1, 1) does not have dimension 2"),
    ("set-short-list", lambda: LatticeSet(2, [[0, 0], [1]]), ValueError, "point (1,) does not have dimension 2"),
    ("set-string-point", lambda: LatticeSet(2, ["ab"]), ValueError, "point ('a', 'b') must have int entries"),
    ("set-int-point", lambda: LatticeSet(2, [5]), TypeError, "'int' object is not iterable"),
    ("set-dim0", lambda: LatticeSet(0, []), ValueError, "dimension must be >= 1"),
    ("fn-bool-key", lambda: LatticeFn(2, {(0, 0): F(1), (True, 1): F(2)}), ValueError,
     "point (True, 1) must have int entries"),
    ("fn-long-key", lambda: LatticeFn(2, {(0, 0): F(1), (1, 1, 1): F(2)}), ValueError,
     "point (1, 1, 1) does not have dimension 2"),
    ("fn-float-key", lambda: LatticeFn(2, {(0, 0.5): F(1)}), ValueError, "point (0, 0.5) must have int entries"),
    ("fn-string-key", lambda: LatticeFn(2, {"ab": F(1)}), ValueError, "point ('a', 'b') must have int entries"),
    ("fn-float-value", lambda: LatticeFn(2, {(0, 0): F(1), (1, 0): 1.5}), ValueError,
     "value 1.5 must be an int or a Fraction"),
    ("fn-bool-value", lambda: LatticeFn(2, {(0, 0): True}), ValueError, "value True must be an int or a Fraction"),
    ("fn-string-value", lambda: LatticeFn(2, {(0, 0): F(1), (1, 0): "1"}), ValueError,
     "value '1' must be an int or a Fraction"),
    ("fn-none-value", lambda: LatticeFn(2, {(0, 0): None}), ValueError, "value None must be an int or a Fraction"),
    ("fn-bad-value-before-short-key", lambda: LatticeFn(2, {(0, 0): 1.5, (1,): F(1)}), ValueError,
     "value 1.5 must be an int or a Fraction"),
    ("fn-short-key-before-bad-value", lambda: LatticeFn(2, {(1,): F(1), (0, 0): 1.5}), ValueError,
     "point (1,) does not have dimension 2"),
    ("fn-empty", lambda: LatticeFn(2, {}), ValueError, "function domain must be nonempty"),
    ("fn-ramp-finite", lambda: LatticeFn(2, {(0, 0): F(1)}, ramp=F(1)), ValueError,
     "only a lifted function can have a nonzero ramp"),
    ("fn-float-ramp", lambda: LatticeFn(2, {(0, 0): F(1)}, lifted=True, ramp=0.5), ValueError,
     "ramp 0.5 must be an int or a Fraction"),
    ("fn-lifted-conflict", lambda: LatticeFn(2, {(0, 0): F(1), (1, 1): F(3)}, lifted=True, ramp=F(1)),
     ValueError, "conflicting values for representative (0, 0)"),
    ("fn-lifted-bool", lambda: LatticeFn(2, {(0, True): F(1)}, lifted=True), ValueError,
     "point (0, True) must have int entries"),
]


@pytest.mark.parametrize("name, make, error, message", CONSTRUCTORS, ids=[c[0] for c in CONSTRUCTORS])
def test_bad_constructor_input_message(name, make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_constructors_convert_what_they_accept():
    want = LatticeSet(2, frozenset({(0, 0), (1, 2)}))
    assert LatticeSet(2, [[0, 0], [1, 2]]) == want
    assert LatticeSet(2, ([c, 2 * c] for c in (0, 1))) == want
    assert LatticeSet(2, (p for p in [(0, 0), (1, 2)])) == want
    assert LatticeSet(2, {(0, 0): 0, (1, 2): 0}) == want
    assert LatticeSet(2, [(0, 0), (1, 2), (0, 0)]) == want
    f = LatticeFn(2, {(0, 0): 1, (1, 2): F(1, 2)})
    assert f.values == {(0, 0): F(1), (1, 2): F(1, 2)}
    assert all(type(v) is F for v in f.values.values())
    assert LatticeFn(2, {(0, 0): F(1), (1, 2): F(1, 2)}) == f
    lifted = LatticeFn(2, {(1, 1): F(3), (2, 1): F(0)}, lifted=True, ramp=F(1))
    assert lifted.values == {(0, 0): F(2), (1, 0): F(-1)}


def test_documents_keep_their_values_and_points():
    doc = _fn([_e([0, 0], "1/2"), _e([1, 0], "1/2"), _e([0, 1], "-3"), _e([2, 2], " 4/8 ")])
    f = documents.from_document(doc)
    assert f.values == {(0, 0): F(1, 2), (1, 0): F(1, 2), (0, 1): F(-3), (2, 2): F(1, 2)}
    assert list(f.values) == [(0, 0), (1, 0), (0, 1), (2, 2)]
    s = documents.from_document(_set([[0, 0], [3, -1]]))
    assert s.points == frozenset({(0, 0), (3, -1)})
    assert documents.from_document(_set([])).points == frozenset()
