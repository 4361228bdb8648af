"""Byte-identity pins: digests of deterministic outputs.

A change that keeps every verdict, witness and report must leave these
digests as they are; a change that means to alter one updates its digest
and says so.  The corpus digest covers the canonical JSON of
[ident, label, member, witness kind, witness points, witness indices] for
each member and near miss of the benchmark's check corpus at seed 1, in
corpus order; the registry digest covers the stdout of
``dconvex examples --run all --verbose``.
"""

import hashlib
import json
import os
import sys

from dconvex import cli
from dconvex.classes import check

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.corpus import build_check_corpus  # noqa: E402

CORPUS_SHA256 = "21f799b379e3c8a88e7ecf91432ec824cab9b3e839ef11a1cb670a38b832bf92"
EXAMPLES_SHA256 = "dde14ea8d1714ea5ef55451b6cd2098ac86bdeb45bdbfabd6397dcec7c7bf2f8"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verdict_rows(seed):
    members, misses = build_check_corpus(seed)
    for inst in members + misses:
        verdict = check(inst.obj, inst.label)
        w = verdict.witness
        yield [
            inst.ident,
            inst.label.value,
            verdict.member,
            w and w.kind,
            w and [list(p) for p in w.points],
            w and list(w.indices),
        ]


def test_corpus_verdicts_and_registry_report_are_pinned(capsys):
    rows = list(_verdict_rows("1"))
    assert len(rows) == 330
    assert _sha256(json.dumps(rows, separators=(",", ":"))) == CORPUS_SHA256
    capsys.readouterr()
    assert cli.main(["examples", "--run", "all", "--verbose"]) == 0
    assert _sha256(capsys.readouterr().out) == EXAMPLES_SHA256
