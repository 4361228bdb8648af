"""Text document formats for sets, functions, networks, specs, windows and
reports.

One JSON object per file, with an explicit ``kind`` and ``version``.
Rationals are serialized as 'p' or 'p/q' strings and +infinity as the
literal string 'inf'; points are integer arrays.  Dimensions are stated
redundantly and validated on parse so counterexamples are shareable,
replayable artifacts.

The written bytes are a contract: 2-space indent, keys sorted, non-ASCII
escaped as \\uXXXX, one trailing newline -- exactly
``json.dumps(to_document(obj), indent=2, sort_keys=True) + "\\n"``.  The
set and function templates write set points and function entries in those
bytes, all rows of an array by one format of a row template repeated once
per row; a function's values are formatted once per distinct value object
(keyed by identity, since hashing a Fraction costs more than formatting
it).  ``json.dumps`` writes everything else.
"""

from __future__ import annotations

import json
import os
import stat
from fractions import Fraction
from itertools import chain, repeat
from typing import Any, Dict

from .core import LatticeFn, LatticeSet, Window
from .network import Arc, ArcCost, Network
from .ops import PartitionSpec, SplitSpec
from .rationals import format_value, parse_value

VERSION = 1


class DocumentError(ValueError):
    pass


def to_document(obj: Any) -> Dict[str, Any]:
    if isinstance(obj, LatticeSet):
        return {
            "kind": "set",
            "version": VERSION,
            "dim": obj.dim,
            "lifted": obj.lifted,
            "points": [list(p) for p in obj.sorted_points()],
        }
    if isinstance(obj, LatticeFn):
        return {
            "kind": "fn",
            "version": VERSION,
            "dim": obj.dim,
            "lifted": obj.lifted,
            "ramp": format_value(obj.ramp),
            "entries": [{"x": list(p), "v": format_value(v)} for p, v in obj.sorted_items()],
        }
    if isinstance(obj, Window):
        return {
            "kind": "window",
            "version": VERSION,
            "dim": obj.dim,
            "lo": list(obj.lo),
            "hi": list(obj.hi),
        }
    if isinstance(obj, SplitSpec):
        return {"kind": "split-spec", "version": VERSION, "blocks": list(obj.blocks)}
    if isinstance(obj, PartitionSpec):
        return {
            "kind": "partition-spec",
            "version": VERSION,
            "groups": [list(g) for g in obj.groups],
        }
    if isinstance(obj, Network):
        arcs = []
        for a in obj.arcs:
            cost: Any = "zero"
            if a.cost.table is not None:
                cost = [{"t": t, "v": format_value(v)} for t, v in a.cost.table]
            arcs.append(
                {"tail": a.tail, "head": a.head, "lower": a.lower, "upper": a.upper, "cost": cost}
            )
        return {
            "kind": "network",
            "version": VERSION,
            "vertices": list(obj.vertices),
            "entrance": list(obj.entrance),
            "exit": list(obj.exit),
            "arcs": arcs,
        }
    if isinstance(obj, dict):
        return {"kind": "report", "version": VERSION, "payload": obj}
    raise DocumentError(f"cannot serialize object of type {type(obj).__name__}")


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DocumentError(msg)


_MISSING = object()
_SHAPES = {list: "an array", dict: "an object", str: "a string"}


def _field(doc: Dict[str, Any], key: str, shape: type = object, where: str = "", default=_MISSING):
    """doc[key], which must be present (unless a default is given) and of
    the JSON shape ``shape``; otherwise a DocumentError names the field."""
    v = doc.get(key, default)
    if v is _MISSING or not isinstance(v, shape):
        name = f"{where}.{key}" if where else key
        raise DocumentError(f"missing field {name!r}" if v is _MISSING else f"field {name!r} must be {_SHAPES[shape]}")
    return v


def _int(v, what: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


def _ints(v, what: str) -> tuple:
    _require(isinstance(v, list), f"{what} must be an array of integers")
    q = tuple(v)
    _require(all(type(c) is int for c in q), f"{what} must be an integer")
    return q


def _objects(v: list, what: str) -> list:
    _require(all(isinstance(e, dict) for e in v), f"each {what} must be an object")
    return v


def _finite(v: str, what: str) -> Fraction:
    try:
        value = parse_value(v)
    except ValueError:
        raise DocumentError(f"{what} {v!r} is not a rational 'p' or 'p/q'") from None
    _require(isinstance(value, Fraction), f"{what} must be finite")
    return value


def _names(v: list, what: str) -> tuple:
    _require(all(isinstance(c, str) for c in v), f"{what} must be strings")
    return tuple(v)


def _lifted(doc: Dict[str, Any]) -> bool:
    v = doc.get("lifted", False)
    _require(isinstance(v, bool), "lifted must be a JSON boolean")
    return v


def _capacity(v, what: str) -> int:
    if isinstance(v, str) or v in (float("inf"), float("-inf")) or v is None:
        raise DocumentError(
            f"{what}: infinite capacities are not supported; window the arc to a finite interval"
        )
    return _int(v, what)


def _built(make, *args):
    """make(*args), whose ValueError (an invalid arc or network) is raised
    as a DocumentError."""
    try:
        return make(*args)
    except ValueError as e:
        raise DocumentError(str(e)) from None


def _function(dim: int, vals: Dict, doc: Dict[str, Any]) -> LatticeFn:
    """LatticeFn(dim, vals) with the document's ramp and lift."""
    ramp = _finite(_field(doc, "ramp", str, default="0"), "ramp")
    lifted = _lifted(doc)
    _require(lifted or ramp == 0, "only a lifted function can have a nonzero ramp")
    return LatticeFn(dim, vals, lifted, ramp)


def from_document(doc: Dict[str, Any]) -> Any:
    """The object a document describes.  A missing field or a value of the
    wrong JSON shape raises DocumentError naming the field, and so does a
    set point, function entry or arc cost entry that repeats a point or
    abscissa; an arc or network that fails its own validation raises one
    with that message.

    A set or function is built straight from its rows: the points as
    tuples, each distinct value string parsed once, and the
    ``LatticeSet``/``LatticeFn`` constructor, whose bulk check is the only
    check of the points.  Only when that raises (TypeError or ValueError,
    a bad lift or ramp included), or fewer distinct points than rows come
    out (a repeat, or a bool or float equal to an int), is the document
    walked entry by entry.  The walk raises the error of the first bad
    entry in document order; when every entry is sound, the lift, the
    ramp and the constructor raise theirs, in that order."""
    _require(isinstance(doc, dict), "document must be a JSON object")
    version = doc.get("version")
    _require(type(version) is int and version == VERSION, f"unsupported document version {version!r}")
    kind = doc.get("kind")

    if kind == "set":
        dim = _int(_field(doc, "dim"), "dim")
        rows = _field(doc, "points", list)
        try:
            pts = frozenset(map(tuple, rows))
            if len(pts) == len(rows):
                return LatticeSet(dim, pts, _lifted(doc))
        except (TypeError, ValueError):
            pass
        pts = set()
        for p in rows:
            p = _ints(p, "point")
            _require(len(p) == dim, "point dimension disagrees with dim")
            if p in pts:
                raise DocumentError(f"points repeat the point {list(p)}")
            pts.add(p)
        return LatticeSet(dim, frozenset(pts), _lifted(doc))

    if kind == "fn":
        dim = _int(_field(doc, "dim"), "dim")
        entries = _objects(_field(doc, "entries", list), "entry")
        texts = list(map(dict.get, entries, repeat("v")))
        if set(map(type, texts)) <= {str}:
            try:
                parsed = dict.fromkeys(texts)
                for v in parsed:
                    parsed[v] = _finite(v, "stored function value")
                vals = dict(zip(map(tuple, map(dict.get, entries, repeat("x"))), map(parsed.__getitem__, texts)))
                if len(vals) == len(entries):
                    return _function(dim, vals, doc)
            except (TypeError, ValueError):
                pass
        vals = {}
        for e in entries:
            p = _ints(_field(e, "x", list, "entries"), "point")
            _require(len(p) == dim, "point dimension disagrees with dim")
            if p in vals:
                raise DocumentError(f"entries repeat the point {list(p)}")
            vals[p] = _finite(_field(e, "v", str, "entries"), "stored function value")
        return _function(dim, vals, doc)

    if kind == "window":
        dim = _int(_field(doc, "dim"), "dim")
        lo = _ints(_field(doc, "lo", list), "lo")
        hi = _ints(_field(doc, "hi", list), "hi")
        _require(len(lo) == dim and len(hi) == dim, "window bounds disagree with dim")
        return Window(lo, hi)

    if kind == "split-spec":
        return SplitSpec(_ints(_field(doc, "blocks", list), "block"))

    if kind == "partition-spec":
        return PartitionSpec(tuple(_ints(g, "group") for g in _field(doc, "groups", list)))

    if kind == "network":
        arcs = []
        for a in _objects(_field(doc, "arcs", list), "arc"):
            tail, head = _field(a, "tail", str, "arcs"), _field(a, "head", str, "arcs")
            lower = _capacity(_field(a, "lower", where="arcs"), f"arc {tail}->{head} lower bound")
            upper = _capacity(_field(a, "upper", where="arcs"), f"arc {tail}->{head} upper bound")
            cost_doc = _field(a, "cost", where="arcs", default="zero")
            if cost_doc == "zero":
                cost = ArcCost.zero()
            else:
                _require(isinstance(cost_doc, list), "field 'arcs.cost' must be \"zero\" or an array")
                table = {}
                for entry in _objects(cost_doc, "cost entry"):
                    t = _int(_field(entry, "t", where="arcs.cost"), "cost abscissa")
                    if t in table:
                        raise DocumentError(f"arc {tail}->{head} cost repeats the abscissa {t}")
                    table[t] = _finite(_field(entry, "v", str, "arcs.cost"), "arc cost value")
                cost = ArcCost.from_table(table)
            arcs.append(_built(Arc, tail, head, lower, upper, cost))
        vertices, entrance, exit_ = (_names(_field(doc, k, list), k) for k in ("vertices", "entrance", "exit"))
        return _built(Network, vertices, tuple(arcs), entrance, exit_)

    if kind == "report":
        return dict(_field(doc, "payload", dict))

    raise DocumentError(f"unknown document kind {kind!r}")


def _rows(row: str, n: int, args: tuple, pad: str) -> str:
    """The array of n elements written by the %-template row, closed at
    indent pad: the n rows are filled from the flat tuple args by one
    format of the template repeated n times."""
    return "[\n" + ",\n".join([row] * n) % args + "\n" + pad + "]" if n else "[]"


def _vector(dim: int, pad: str) -> str:
    """The %-template of a point of dimension dim >= 1 at indent pad."""
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(["%d"] * dim) + "\n" + pad + "]"


def json_text(value: Any) -> str:
    """value in the format of the module docstring, with its newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def to_text(obj: Any) -> str:
    """json_text(to_document(obj)).  A set or function is written without
    building its document: one %-template per point or entry, repeated
    once per row and filled by a single format over all rows.  A
    function's value strings ('p', 'p/q', which need no escaping) are
    formatted once per distinct value object, keyed by ``id``: the
    operations share one Fraction per distinct value (``core.rebuild``),
    ``obj.values`` keeps every object alive during the call, and hashing a
    Fraction costs more than formatting it; equal values held by distinct
    objects are formatted twice, to the same string."""
    if isinstance(obj, LatticeSet):
        point = "    " + _vector(obj.dim, "    ")
        points = _rows(point, len(obj), tuple(chain.from_iterable(obj.sorted_points())), "  ")
        return '{\n  "dim": %d,\n  "kind": "set",\n  "lifted": %s,\n  "points": %s,\n  "version": %d\n}\n' % (
            obj.dim, json.dumps(obj.lifted), points, VERSION
        )
    if isinstance(obj, LatticeFn):
        entry = '    {\n      "v": "%s",\n      "x": ' + _vector(obj.dim, "      ") + "\n    }"
        objects = {id(v): v for v in obj.values.values()}
        text = dict(zip(objects, map(format_value, objects.values())))
        args = tuple(chain.from_iterable([(text[id(v)], *p) for p, v in obj.sorted_items()]))
        entries = _rows(entry, len(obj), args, "  ")
        return (
            '{\n  "dim": %d,\n  "entries": %s,\n  "kind": "fn",\n  "lifted": %s,\n  "ramp": "%s",\n'
            '  "version": %d\n}\n' % (obj.dim, entries, json.dumps(obj.lifted), format_value(obj.ramp), VERSION)
        )
    return json_text(to_document(obj))


def parse_text(text: str) -> Any:
    """The object of a document's text; text that is not JSON, or that
    nests deeper than the parser recurses, is a malformed document."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DocumentError(f"malformed document: {e}") from e
    return from_document(doc)


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def write_text(path: str, text: str) -> None:
    """text in UTF-8 at path, written in place: the text is encoded first,
    so an encoding error leaves the file as it was; then the file is opened
    without truncation (created if missing), the bytes are written from its
    start, and the file is cut to their length only when it is a regular
    file that was longer.  A rewrite thus never cuts the old output to zero
    first, which on ext4 mounted with ``discard`` cost about ten times the
    write itself, and a device such as /dev/null, which cannot be
    truncated, takes the bytes as written.  This is the package's one
    writer of files."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        left = memoryview(data)
        while left:
            left = left[os.write(fd, left):]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def dump(obj: Any, path: str) -> None:
    """to_text(obj) written to path (``write_text``); an object that cannot
    be serialized raises DocumentError before the file is opened."""
    write_text(path, to_text(obj))
