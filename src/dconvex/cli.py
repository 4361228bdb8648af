"""Command-line front end.

Subcommands:
    check     membership of a set/function document in a convexity class
    op        direct-sum | split | aggregate | minkowski | convolve
    induce    transform a set / induce a function through a network document
    matrix    run the closure matrix and compare against the expected grid
    examples  replay the counterexample registry

Exit codes: check uses 0 = member, 1 = non-member, 2 = input error.
matrix/examples use 0 = everything as expected, 1 = mismatch, 2 = input
error.  Other commands use 0 on success, 2 on input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import documents, lab
from .classes import ClassLabel, LabelKindError, check
from .core import (
    EmptyResultError,
    LatticeFn,
    LatticeSet,
    LiftedInputError,
    Window,
    restrict_to_window,
)
from .documents import DocumentError
# transform_set (the same function as induce_fn) stays a module attribute,
# which perfbench's traced run wraps by name.
from .network import Network, induce_fn, transform_set  # noqa: F401
from .ops import (
    PartitionSpec,
    SplitSpec,
    aggregate_fn,
    convolution_fn,
    direct_sum_fn,
    minkowski_sum_set,
    split_fn,
)


class CliError(Exception):
    pass


def _load(path: str, kinds: tuple) -> object:
    obj = documents.load(path)
    if not isinstance(obj, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise CliError(f"{path}: expected a {names} document")
    return obj


def _emit(obj, out: Optional[str]) -> None:
    text = documents.to_text(obj)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    obj = _load(args.input, (LatticeSet, LatticeFn))
    if args.window:
        w = _load(args.window, (Window,))
        obj = restrict_to_window(obj, w)
    try:
        label = ClassLabel(args.klass)
    except ValueError:
        raise CliError(f"unknown class label {args.klass!r}")
    verdict = check(obj, label)
    payload = {"type": "verdict", "class": label.value, "member": verdict.member}
    if verdict.witness is not None:
        payload["witness"] = {
            "kind": verdict.witness.kind,
            "points": [list(p) for p in verdict.witness.points],
            "indices": list(verdict.witness.indices),
        }
    _emit(payload, args.out)
    return 0 if verdict.member else 1


def _cmd_op(args) -> int:
    name = args.op
    arity = 1 if name in ("split", "aggregate") else 2
    if len(args.inputs) != arity:
        raise CliError(f"op {name} takes exactly {arity} input document(s)")
    kinds = {"minkowski": (LatticeSet,), "convolve": (LatticeFn,)}.get(name, (LatticeSet, LatticeFn))
    objs = [_load(path, kinds) for path in args.inputs]
    if name == "direct-sum":
        res = direct_sum_fn(*objs)
    elif name == "split":
        if not args.spec or not args.window:
            raise CliError("split needs --spec (split-spec) and --window")
        res = split_fn(*objs, _load(args.spec, (SplitSpec,)), _load(args.window, (Window,)))
    elif name == "aggregate":
        if not args.spec:
            raise CliError("aggregate needs --spec (partition-spec)")
        res = aggregate_fn(*objs, _load(args.spec, (PartitionSpec,)))
    elif name == "minkowski":
        res = minkowski_sum_set(*objs)
    else:
        res = convolution_fn(*objs)
    _emit(res, args.out)
    return 0


def _cmd_induce(args) -> int:
    net = _load(args.network, (Network,))
    res = induce_fn(_load(args.input, (LatticeSet, LatticeFn)), net)
    if not len(res):
        sys.stderr.write("warning: transformed set is empty\n")
    _emit(res, args.out)
    return 0


def _cmd_matrix(args) -> int:
    report = lab.run_closure_matrix(args.trials, args.seed, args.max_dim)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stdout.write(report.render_text())
    return 0 if report.passed else 1


def _cmd_examples(args) -> int:
    ids = None if args.run == "all" else [args.run]
    results = lab.run_counterexamples(ids)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        sys.stdout.write(f"{r.record_id}: {status}\n")
        if args.verbose or not r.passed:
            for m in r.messages:
                sys.stdout.write(f"  {m}\n")
        ok = ok and r.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dconvex", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="membership of a document in a class")
    c.add_argument("input")
    c.add_argument("--class", dest="klass", required=True, help="class label, e.g. lnat-set")
    c.add_argument("--window", help="window document to materialize/restrict the input first")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_check)

    o = sub.add_parser("op", help="apply a transformation")
    o.add_argument("op", choices=["direct-sum", "split", "aggregate", "minkowski", "convolve"])
    o.add_argument("inputs", nargs="+")
    o.add_argument("--spec", help="split-spec or partition-spec document")
    o.add_argument("--window", help="window document (required for split)")
    o.add_argument("--out")
    o.set_defaults(fn=_cmd_op)

    i = sub.add_parser("induce", help="transform through a network")
    i.add_argument("--network", required=True)
    i.add_argument("--input", required=True)
    i.add_argument("--out")
    i.set_defaults(fn=_cmd_induce)

    m = sub.add_parser("matrix", help="run the closure matrix")
    m.add_argument("--trials", type=int, default=3)
    m.add_argument("--seed", required=True, help="mandatory; there is no wall-clock seeding")
    m.add_argument("--max-dim", type=int, default=4, dest="max_dim")
    m.add_argument("--out", help="write the machine-readable report here")
    m.set_defaults(fn=_cmd_matrix)

    e = sub.add_parser("examples", help="replay the counterexample registry")
    e.add_argument("--run", default="all", help="'all' or a record id such as EX3.6")
    e.add_argument("--verbose", action="store_true")
    e.set_defaults(fn=_cmd_examples)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, DocumentError, LabelKindError, LiftedInputError, EmptyResultError, KeyError, ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
