"""Spans around the calls into each dconvex layer, recorded from outside.

``instrument`` swaps the functions that each layer's callers look up (module
attributes such as ``lab.check`` or ``cli.split_set``, and the registry and
generator tables in ``lab``) for wrappers that record a span, and restores
them on exit.  ``core`` and ``rationals`` are never wrapped: they are called
millions of times inside the recognizer scans, and their cost shows up as
``classes`` self time.

A span is (name, tag, start ns, end ns, parent index, request id).  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import os
import time
from typing import Dict, List, Tuple

from dconvex import classes, cli, documents, hull, lab, network

NAME, TAG, START, END, PARENT, REQUEST = range(6)

# the ROADMAP baseline's five hottest closed cells
BASELINE_HOT_CELLS = frozenset(
    {
        "jump-m-fn.splitting",
        "jump-mnat-fn.splitting",
        "const-parity-jump.splitting",
        "integrally-convex-fn.splitting",
        "l-set.direct-sum",
    }
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.request = 0
        self.counts: collections.Counter = collections.Counter()
        self.flow_domain = None

    def next_request(self) -> None:
        self.request += 1

    def begin(self, name: str, tag=None) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [name, tag, time.perf_counter_ns(), 0, parent, self.request]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        self.stack.pop()
        span[END] = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        s = self.begin(name, tag)
        try:
            yield s
        finally:
            self.end(s)

    def wrap(self, fn, name: str, tag=None, after=None):
        """``tag(args)`` labels the span; ``after(args, result)`` counts."""

        def traced(*args, **kwargs):
            s = self.begin(name, tag(args) if tag else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(s)
            if after:
                after(args, out)
            return out

        return traced

    def self_times(self) -> List[int]:
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\ttag\tstart_ns\tend_ns\tparent\trequest\n")
            for s in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


# ---------------------------------------------------------------------------
# instrumentation


def _label(args) -> str:
    return classes.ClassLabel(args[1]).value


def _flows_wrapper(tracer: Tracer, fn):
    def counted(net, entrance_range):
        domain = tracer.flow_domain
        for item in fn(net, entrance_range):
            tracer.counts["network.flows"] += 1
            if domain is not None and item[1] in domain:
                tracer.counts["network.flows_used"] += 1
            yield item

    return counted


def _network_wrapper(tracer: Tracer, fn, name: str):
    traced = tracer.wrap(fn, name)

    def with_domain(obj, net):
        tracer.flow_domain = obj.values if hasattr(obj, "values") else obj.points
        try:
            return traced(obj, net)
        finally:
            tracer.flow_domain = None

    return with_domain


def _counter(tracer: Tracer, fn, key: str):
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _patches(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """(owner, attribute or key, replacement) for every wrapped entry."""
    t = tracer
    count = t.counts

    def member(args, verdict):
        count["classes.check.member"] += int(verdict.member)

    def accepted(args, obj):
        count["lab.draw.accepted"] += 1

    def optimal(args, result):
        count["simplex.solve_lp.optimal"] += int(result[0] == "optimal")

    def out_points(args, result):
        count["ops.out_points"] += len(result)

    def parsed_bytes(args, result):
        count["documents.parse.bytes"] += os.path.getsize(args[0])

    def emitted_bytes(args, text):
        count["documents.emit.bytes"] += len(text.encode("utf-8"))

    out: List[Tuple[object, str, object]] = []

    def wrap(owner, attr, name, **kw):
        out.append((owner, attr, t.wrap(getattr(owner, attr), name, **kw)))

    # lab: closed-cell trials, draws, generator attempts, registry records
    for attr in ("_set_trial", "_fn_trial"):
        wrap(lab, attr, "lab.cell", tag=lambda args: f"{args[0].value}.{args[1]}")
    wrap(lab, "draw", "lab.draw", after=accepted)
    for table in (lab._SET_GENERATORS, lab._FN_GENERATORS):
        for key, gen in table.items():
            out.append((table, key, _counter(t, gen, "lab.draw.attempts")))
    for rid, record in lab.REGISTRY.items():
        out.append((lab.REGISTRY, rid, dataclasses.replace(record, run=t.wrap(record.run, "lab.registry"))))

    # classes, hull, simplex
    for owner in (lab, cli):
        wrap(owner, "check", "classes.check", tag=_label, after=member)
    for attr in ("check_set", "check_fn"):
        wrap(lab, attr, "classes.check", tag=_label, after=member)
    wrap(lab, "verify_witness", "classes.verify_witness")
    for owner in (lab, classes):
        wrap(owner, "in_local_hull", "hull.in_local_hull")
    wrap(classes, "local_extension_value", "hull.local_extension_value")
    wrap(hull, "solve_lp", "simplex.solve_lp", after=optimal)

    # ops, as their callers see them
    ops_names = {
        "split_set": "ops.split",
        "split_fn": "ops.split",
        "aggregate_set": "ops.aggregate",
        "aggregate_fn": "ops.aggregate",
        "direct_sum_set": "ops.direct_sum",
        "direct_sum_fn": "ops.direct_sum",
        "direct_sum_lifted_set": "ops.direct_sum",
        "direct_sum_lifted_fn": "ops.direct_sum",
        "minkowski_sum_set": "ops.minkowski",
        "convolution_fn": "ops.convolution",
    }
    for owner in (lab, cli):
        for attr, name in ops_names.items():
            if hasattr(owner, attr):
                wrap(owner, attr, name, after=out_points)

    # network
    for owner in (lab, cli):
        for attr in ("induce_fn", "transform_set"):
            out.append((owner, attr, _network_wrapper(t, getattr(owner, attr), f"network.{attr}")))
    out.append((network, "_enumerate_flows", _flows_wrapper(t, network._enumerate_flows)))

    # documents and the CLI entry point
    wrap(documents, "load", "documents.parse", after=parsed_bytes)
    wrap(documents, "to_text", "documents.emit", after=emitted_bytes)
    wrap(cli, "main", "cli.main")
    return out


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    patches = _patches(tracer)
    saved = [(owner, key, _get(owner, key)) for owner, key, _ in patches]
    try:
        for owner, key, new in patches:
            _set(owner, key, new)
        yield tracer
    finally:
        for owner, key, old in reversed(saved):
            _set(owner, key, old)


# ---------------------------------------------------------------------------
# per-layer metrics


def _cells():
    return [f"{c.row.value}.{c.op}" for c in lab.matrix_cells() if c.expected == "Y"]


def per_layer_names() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"lab.cell.{c}.s", "s", "lower") for c in _cells()]
    out += [
        ("lab.draw.calls", "count", "lower"),
        ("lab.draw.self_s", "s", "lower"),
        ("lab.draw.accept_ratio", "ratio", "higher"),
        ("lab.registry.s", "s", "lower"),
        ("lab.hot_cells_matched", "count", "higher"),
    ]
    out += [(f"classes.{label.value}.s", "s", "lower") for label in classes.ClassLabel]
    out += [
        ("classes.check.calls", "count", "lower"),
        ("classes.check.self_s", "s", "lower"),
        ("classes.check.member_ratio", "ratio", "higher"),
        ("classes.verify_witness.calls", "count", "lower"),
        ("classes.verify_witness.s", "s", "lower"),
        ("hull.in_local_hull.calls", "count", "lower"),
        ("hull.in_local_hull.self_s", "s", "lower"),
        ("hull.local_extension_value.calls", "count", "lower"),
        ("hull.local_extension_value.self_s", "s", "lower"),
        ("hull.lp_ratio", "ratio", "lower"),
        ("simplex.solve_lp.calls", "count", "lower"),
        ("simplex.solve_lp.s", "s", "lower"),
        ("simplex.solve_lp.optimal_ratio", "ratio", "higher"),
        ("ops.split.calls", "count", "lower"),
        ("ops.split.s", "s", "lower"),
        ("ops.aggregate.calls", "count", "lower"),
        ("ops.aggregate.s", "s", "lower"),
        ("ops.direct_sum.calls", "count", "lower"),
        ("ops.direct_sum.s", "s", "lower"),
        ("ops.minkowski.s", "s", "lower"),
        ("ops.convolution.s", "s", "lower"),
        ("ops.out_points", "count", "lower"),
        ("network.induce_fn.calls", "count", "lower"),
        ("network.induce_fn.self_s", "s", "lower"),
        ("network.transform_set.calls", "count", "lower"),
        ("network.transform_set.self_s", "s", "lower"),
        ("network.flows", "count", "lower"),
        ("network.flow_use_ratio", "ratio", "higher"),
        ("documents.parse.calls", "count", "lower"),
        ("documents.parse.s", "s", "lower"),
        ("documents.parse.bytes", "bytes", "lower"),
        ("documents.emit.calls", "count", "lower"),
        ("documents.emit.s", "s", "lower"),
        ("documents.emit.bytes", "bytes", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hot_cells(cell_s: Dict[str, float], k: int = 5) -> List[str]:
    return sorted(cell_s, key=lambda c: (-cell_s[c], c))[:k]


def layer_metrics(tracer: Tracer, overhead_ratio: float, hot_cells_matched: int) -> Dict[str, float]:
    calls: collections.Counter = collections.Counter()
    total: collections.Counter = collections.Counter()
    own: collections.Counter = collections.Counter()
    tagged: collections.Counter = collections.Counter()
    for s, self_ns in zip(tracer.spans, tracer.self_times()):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] += 1
        total[name] += dur
        own[name] += self_ns
        if s[TAG] is not None:
            tagged[(name, s[TAG])] += dur
    sec = 1e-9
    c = tracer.counts
    hull_calls = calls["hull.in_local_hull"] + calls["hull.local_extension_value"]
    m: Dict[str, float] = {f"lab.cell.{cell}.s": tagged[("lab.cell", cell)] * sec for cell in _cells()}
    m.update(
        {
            "lab.draw.calls": calls["lab.draw"],
            "lab.draw.self_s": own["lab.draw"] * sec,
            "lab.draw.accept_ratio": _ratio(c["lab.draw.accepted"], c["lab.draw.attempts"]),
            "lab.registry.s": total["lab.registry"] * sec,
        }
    )
    for label in classes.ClassLabel:
        m[f"classes.{label.value}.s"] = tagged[("classes.check", label.value)] * sec
    m.update(
        {
            "classes.check.calls": calls["classes.check"],
            "classes.check.self_s": own["classes.check"] * sec,
            "classes.check.member_ratio": _ratio(c["classes.check.member"], calls["classes.check"]),
            "classes.verify_witness.calls": calls["classes.verify_witness"],
            "classes.verify_witness.s": total["classes.verify_witness"] * sec,
            "hull.in_local_hull.calls": calls["hull.in_local_hull"],
            "hull.in_local_hull.self_s": own["hull.in_local_hull"] * sec,
            "hull.local_extension_value.calls": calls["hull.local_extension_value"],
            "hull.local_extension_value.self_s": own["hull.local_extension_value"] * sec,
            "hull.lp_ratio": _ratio(calls["simplex.solve_lp"], hull_calls),
            "simplex.solve_lp.calls": calls["simplex.solve_lp"],
            "simplex.solve_lp.s": total["simplex.solve_lp"] * sec,
            "simplex.solve_lp.optimal_ratio": _ratio(c["simplex.solve_lp.optimal"], calls["simplex.solve_lp"]),
        }
    )
    for op in ("split", "aggregate", "direct_sum"):
        m[f"ops.{op}.calls"] = calls[f"ops.{op}"]
        m[f"ops.{op}.s"] = total[f"ops.{op}"] * sec
    m["ops.minkowski.s"] = total["ops.minkowski"] * sec
    m["ops.convolution.s"] = total["ops.convolution"] * sec
    m["ops.out_points"] = c["ops.out_points"]
    for attr in ("induce_fn", "transform_set"):
        m[f"network.{attr}.calls"] = calls[f"network.{attr}"]
        m[f"network.{attr}.self_s"] = own[f"network.{attr}"] * sec
    m["network.flows"] = c["network.flows"]
    m["network.flow_use_ratio"] = _ratio(c["network.flows_used"], c["network.flows"])
    for kind in ("parse", "emit"):
        m[f"documents.{kind}.calls"] = calls[f"documents.{kind}"]
        m[f"documents.{kind}.s"] = total[f"documents.{kind}"] * sec
        m[f"documents.{kind}.bytes"] = c[f"documents.{kind}.bytes"]
    m["cli.main.calls"] = calls["cli.main"]
    m["cli.main.self_s"] = own["cli.main"] * sec
    m["trace.overhead_ratio"] = overhead_ratio
    m["lab.hot_cells_matched"] = hot_cells_matched
    return m
