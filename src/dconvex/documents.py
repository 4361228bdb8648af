"""Text document formats for sets, functions, networks, specs, windows and
reports.

One JSON object per file, with an explicit ``kind`` and ``version``.
Rationals are serialized as 'p' or 'p/q' strings and +infinity as the
literal string 'inf'; points are integer arrays.  Dimensions are stated
redundantly and validated on parse so counterexamples are shareable,
replayable artifacts.
"""

from __future__ import annotations

import json
from fractions import Fraction
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


def _int(v, what: str) -> int:
    _require(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


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


def from_document(doc: Dict[str, Any]) -> Any:
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("version") == VERSION, f"unsupported document version {doc.get('version')!r}")
    kind = doc.get("kind")

    if kind == "set":
        dim = _int(doc["dim"], "dim")
        pts = [tuple(_int(c, "coordinate") for c in p) for p in doc["points"]]
        _require(all(len(p) == dim for p in pts), "point dimension disagrees with dim")
        return LatticeSet(dim, frozenset(pts), _lifted(doc))

    if kind == "fn":
        dim = _int(doc["dim"], "dim")
        vals = {}
        for e in doc["entries"]:
            p = tuple(_int(c, "coordinate") for c in e["x"])
            _require(len(p) == dim, "point dimension disagrees with dim")
            v = parse_value(e["v"])
            _require(isinstance(v, Fraction), "stored function values must be finite")
            vals[p] = v
        ramp = parse_value(doc.get("ramp", "0"))
        _require(isinstance(ramp, Fraction), "ramp must be finite")
        return LatticeFn(dim, vals, _lifted(doc), ramp)

    if kind == "window":
        dim = _int(doc["dim"], "dim")
        lo = tuple(_int(c, "lo") for c in doc["lo"])
        hi = tuple(_int(c, "hi") for c in doc["hi"])
        _require(len(lo) == dim and len(hi) == dim, "window bounds disagree with dim")
        return Window(lo, hi)

    if kind == "split-spec":
        return SplitSpec(tuple(_int(b, "block") for b in doc["blocks"]))

    if kind == "partition-spec":
        return PartitionSpec(tuple(tuple(_int(i, "index") for i in g) for g in doc["groups"]))

    if kind == "network":
        arcs = []
        for a in doc["arcs"]:
            lower = _capacity(a["lower"], f"arc {a['tail']}->{a['head']} lower bound")
            upper = _capacity(a["upper"], f"arc {a['tail']}->{a['head']} upper bound")
            cost_doc = a.get("cost", "zero")
            if cost_doc == "zero":
                cost = ArcCost.zero()
            else:
                table = {}
                for entry in cost_doc:
                    v = parse_value(entry["v"])
                    _require(isinstance(v, Fraction), "arc cost values must be finite")
                    table[_int(entry["t"], "cost abscissa")] = v
                cost = ArcCost.from_table(table)
            arcs.append(Arc(a["tail"], a["head"], lower, upper, cost))
        return Network(
            tuple(doc["vertices"]), tuple(arcs), tuple(doc["entrance"]), tuple(doc["exit"])
        )

    if kind == "report":
        return dict(doc["payload"])

    raise DocumentError(f"unknown document kind {kind!r}")


def to_text(obj: Any) -> str:
    return json.dumps(to_document(obj), indent=2, sort_keys=True) + "\n"


def parse_text(text: str) -> Any:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"malformed document: {e}") from e
    return from_document(doc)


def load(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def dump(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(obj))
