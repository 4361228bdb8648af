"""The four benchmark workloads.

Each workload is one client in a closed loop: the next op starts when the
previous one returns, in one process, with no threads.  ``prepare`` builds
the seeded inputs and writes their documents (this is the timed set-up);
``run_pass`` runs one sweep over the ops and records each op's latency,
with the index of the speed-reference sample taken before it; ``verify``
makes the checks that run outside the timed region.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import json
import os
import time
from fractions import Fraction
from typing import Dict, List, Tuple

from dconvex import cli, documents, lab
from dconvex.classes import Witness, verify_witness
from dconvex.core import LatticeFn, LatticeSet, Window, cube
from dconvex.ops import PartitionSpec, SplitSpec

from . import corpus

MATRIX_TRIALS = 2


class Workload:
    name = ""

    def __init__(self):
        self.ops: List[Tuple[float, int]] = []  # (seconds, reference index)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.tracer = None  # spans.Tracer during a traced run
        self.reference = None  # speed.SpeedReference during an untraced run

    def timed(self, fn, *args):
        """Run one op, recording its latency."""
        before = self.reference.tick() if self.reference else -1
        if self.tracer is not None:
            self.tracer.next_request()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.ops.append((time.perf_counter() - t0, before))

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def prepare(self, seed, workdir: str) -> None:
        raise NotImplementedError

    def run_pass(self, k: int) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        pass


# ---------------------------------------------------------------------------
# closure matrix


class Matrix(Workload):
    """Pass k is ``lab.run_closure_matrix(trials, "<seed>.<k>")``; an op is
    one closed-cell trial, timed by a wrapper around the trial function."""

    name = "matrix"

    def __init__(self, trials: int = MATRIX_TRIALS):
        super().__init__()
        self.trials = trials
        self.digests: Dict[int, List[str]] = {}
        self.cell_s: Dict[str, float] = collections.Counter()  # "<label>.<op>" -> seconds

    def _trial(self, fn, row, op, *args):
        try:
            return self.timed(fn, row, op, *args)
        finally:
            self.cell_s[f"{row.value}.{op}"] += self.ops[-1][0]

    def prepare(self, seed, workdir: str) -> None:
        self.seed = seed

    def _pass_seed(self, k: int) -> str:
        return f"{self.seed}.{k}"

    def run_pass(self, k: int) -> None:
        saved = lab._set_trial, lab._fn_trial
        lab._set_trial, lab._fn_trial = (functools.partial(self._trial, fn) for fn in saved)
        if self.tracer is not None:
            self.tracer.next_request()  # the registry replays of this pass
        try:
            report = lab.run_closure_matrix(self.trials, self._pass_seed(k))
        finally:
            lab._set_trial, lab._fn_trial = saved
        for c in report.cells:
            if c.spec.expected == "Y":
                self.attempted += c.trials
                self.failed += c.trials - c.passed
            elif not c.ok:
                self.failed += 1
        if not report.passed:
            self.fail(f"pass {k}: closure matrix mismatch")
        self.digests.setdefault(k, []).append(_digest(report.render_text()))

    def verify(self) -> None:
        if len(self.digests.get(0, ())) < 2:
            report = lab.run_closure_matrix(self.trials, self._pass_seed(0))
            self.digests[0].append(_digest(report.render_text()))
        for k, seen in self.digests.items():
            if len(set(seen)) != 1:
                self.fail(f"pass {k}: report text differs between repetitions")


# ---------------------------------------------------------------------------
# check requests


class Check(Workload):
    """In-process ``dconvex check`` on the seeded corpus of large members
    (``members=True``) or of their near misses."""

    def __init__(self, members: bool):
        super().__init__()
        self.members = members
        self.name = "check-members" if members else "check-nonmembers"

    def prepare(self, seed, workdir: str) -> None:
        members, misses = corpus.build_check_corpus(seed)
        instances = members if self.members else misses
        corpus.rng_for(seed, "order", self.name).shuffle(instances)
        docs = os.path.join(workdir, "corpus")
        outs = os.path.join(workdir, "out")
        os.makedirs(docs, exist_ok=True)
        os.makedirs(outs, exist_ok=True)
        self.requests = []
        for inst in instances:
            doc = os.path.join(docs, inst.ident + ".json")
            out = os.path.join(outs, inst.ident + ".json")
            documents.dump(inst.obj, doc)
            argv = ["check", doc, "--class", inst.label.value, "--out", out]
            self.requests.append((inst, argv, out))
        with open(os.path.join(workdir, "corpus.json"), "w", encoding="utf-8") as fh:
            json.dump(corpus.manifest(instances), fh, indent=1)

    def run_pass(self, k: int) -> None:
        for inst, argv, _ in self.requests:
            code = self.timed(cli.main, argv)
            self.attempted += 1
            if code != (0 if inst.member else 1):
                self.failed += 1
                self.fail(f"pass {k}: {inst.ident} exited {code}")

    def verify(self) -> None:
        for inst, _, out in self.requests:
            try:
                verdict = documents.load(out)
            except (OSError, ValueError) as e:
                self.fail(f"{inst.ident}: no verdict to read back ({e})")
                continue
            if verdict["member"] != inst.member:
                self.fail(f"{inst.ident}: verdict {verdict['member']}, expected {inst.member}")
            elif not inst.member:
                w = verdict["witness"]
                witness = Witness(
                    w["kind"], tuple(tuple(p) for p in w["points"]), tuple(w["indices"])
                )
                if not verify_witness(inst.obj, witness):
                    self.fail(f"{inst.ident}: witness {w['kind']} does not replay")


# ---------------------------------------------------------------------------
# transformations


class Transform(Workload):
    """In-process ``dconvex op`` and ``dconvex induce`` requests on seeded
    inputs; every request parses its input documents and emits its result."""

    name = "transform"

    def prepare(self, seed, workdir: str) -> None:
        rng = corpus.rng_for(seed, "transform")
        docs = os.path.join(workdir, "docs")
        self.outs = os.path.join(workdir, "out")
        os.makedirs(docs, exist_ok=True)
        os.makedirs(self.outs, exist_ok=True)

        def doc(name, obj):
            path = os.path.join(docs, name + ".json")
            documents.dump(obj, path)
            return path

        def sample_set(dims, k):
            pts = sorted(corpus.box_set(dims).points)
            return LatticeSet(len(dims), frozenset(rng.sample(pts, k)))

        laminar_in = LatticeFn(1, {(t,): Fraction(0) for t in range(-6, 7)})
        requests = [
            ("split-fn", ["op", "split", doc("split_fn", corpus.box_fn(rng, (5, 5))),
                          "--spec", doc("blocks22", SplitSpec((2, 2))),
                          "--window", doc("win4", Window((0,) * 4, (4,) * 4))]),
            ("split-set", ["op", "split", doc("split_set", sample_set((4, 4, 4), 48)),
                           "--spec", doc("blocks121", SplitSpec((1, 2, 1))),
                           "--window", doc("win4b", Window((0,) * 4, (3,) * 4))]),
            ("aggregate-fn", ["op", "aggregate", doc("agg_fn", corpus.box_fn(rng, (4, 4, 4, 4))),
                              "--spec", doc("pairs", PartitionSpec(((0, 2), (1, 3))))]),
            ("aggregate-set", ["op", "aggregate", doc("agg_set", sample_set((4, 4, 4, 4), 160)),
                               "--spec", doc("groups", PartitionSpec(((0, 1, 2), (3,))))]),
            ("direct-sum-set", ["op", "direct-sum", doc("ds_a", sample_set((3, 3, 3), 27)),
                                doc("ds_b", sample_set((4, 4, 4), 27))]),
            ("direct-sum-fn", ["op", "direct-sum", doc("ds_f", corpus.box_fn(rng, (3, 3, 3))),
                               doc("ds_g", corpus.box_fn(rng, (3, 3, 3), lo=-1))]),
            ("minkowski", ["op", "minkowski", doc("mk_a", sample_set((6, 6, 6), 125)),
                           doc("mk_b", sample_set((6, 6, 6), 125))]),
            ("convolve", ["op", "convolve", doc("cv_f", corpus.box_fn(rng, (5, 5, 5))),
                          doc("cv_g", corpus.box_fn(rng, (5, 5, 5), lo=-2))]),
            ("induce-laminar", ["induce", "--network", doc("laminar", lab.laminar_tree_network()),
                                "--input", doc("laminar_in", laminar_in)]),
            ("induce-mesh", ["induce", "--network", doc("mesh", corpus.mesh_network(rng)),
                             "--input", doc("mesh_in", corpus.box_fn(rng, (3, 3, 3)))]),
            ("transform-wide", ["induce", "--network", doc("wide", corpus.wide_network(rng)),
                                "--input", doc("wide_in", sample_set((7, 7), 36))]),
        ]
        self.requests = []
        for name, argv in requests:
            out = os.path.join(self.outs, name + ".json")
            self.requests.append((name, argv + ["--out", out], out))
        self.digests: Dict[str, set] = {name: set() for name, _, _ in self.requests}

    def run_pass(self, k: int) -> None:
        for name, argv, out in self.requests:
            code = self.timed(cli.main, argv)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.fail(f"pass {k}: {name} exited {code}")
                continue
            with open(out, "rb") as fh:
                self.digests[name].add(hashlib.sha256(fh.read()).hexdigest())

    def verify(self) -> None:
        for name, seen in self.digests.items():
            if len(seen) > 1:
                self.fail(f"{name}: result differs between repetitions")
        try:
            g = documents.load(os.path.join(self.outs, "induce-laminar.json"))
        except (OSError, ValueError) as e:
            self.fail(f"induce-laminar: no result to read back ({e})")
            return
        wanted = set(cube(3, -2, 2).points())
        if set(g.values) != wanted or any(g.values[y] != lab.laminar_closed_form(y) for y in wanted):
            self.fail("induce-laminar: result differs from the laminar closed form")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make(name: str, **kwargs) -> Workload:
    if name == "matrix":
        return Matrix(**kwargs)
    if name == "check-members":
        return Check(members=True, **kwargs)
    if name == "check-nonmembers":
        return Check(members=False, **kwargs)
    if name == "transform":
        return Transform(**kwargs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("matrix", "check-members", "check-nonmembers", "transform")
