"""Byte-identity pins: digests of deterministic outputs.

A change that keeps every verdict, witness and report must leave these
digests as they are; a change that means to alter one updates its digest
and says so.  The corpus digest covers the canonical JSON of
[ident, label, member, witness kind, witness points, witness indices] for
each member and near miss of the benchmark's check corpus at seed 1, in
corpus order; the registry digest covers the stdout of
``dconvex examples --run all --verbose``; the document digest covers
``documents.to_text`` of the demo-05 objects and seeded objects of the
benchmark's generators, whose bytes are the documents' format contract; the
cross-label digest covers the same rows for every object of that corpus under
every label of its kind that a midpoint-family axiom decides (integrally
convex, L♮, L, multimodular, global and local discrete midpoint convex), a
lifted object under the L labels alone; the cross-label exchange digest
covers the same rows for every finite object of that corpus under every
exchange and jump label of its kind (M♮, M, the three set jump labels and
the two jump function labels), so that the first violated pairs of the
ordered scans fall at many rows; the transform digests cover the 11
output documents of the benchmark's
``transform`` requests at seeds 1, 7 and 97, written through ``cli.main``
in request order (splits, aggregations, direct sums, Minkowski sum,
convolution and three network inductions); the matrix trial digest covers
``documents.to_text`` of the image of every trial of
``run_closure_matrix(2, 7)``, in cell and trial order, read through the
module attributes ``lab._set_trial`` and ``lab._fn_trial``, so that an
operation that changes an image the recognizers still accept is caught.
"""

import hashlib
import json
import os
import sys

from dconvex import cli, documents, lab
from dconvex.classes import ClassLabel, check
from dconvex.core import LatticeFn, LatticeSet
from dconvex.ops import PartitionSpec, aggregate_fn

sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.corpus import box_fn, build_check_corpus, mesh_network, rng_for  # noqa: E402
from perfbench.workloads import Transform  # noqa: E402

CORPUS_SHA256 = "21f799b379e3c8a88e7ecf91432ec824cab9b3e839ef11a1cb670a38b832bf92"
CROSS_LABEL_EXCHANGE_SHA256 = "984309b1c5d4e6f30627fed091e6791eda8d8b2a7bc8b864ab91972415332ae5"
CROSS_LABEL_SHA256 = "1ac51829d4831d47041ab4333c9e4359a094809f6db7363ea5e05879f8404cd5"
MATRIX_TRIALS_SHA256 = "95140b895b27ad0f2aaa899fd8ebf1762990a6475fd264aaf7b450b1057e7361"
EXAMPLES_SHA256 = "e5fe2f063a7692af87f67c43be428c81949fd25faecc8ee3492317854e479f71"
DOCUMENTS_SHA256 = "5a698fbff4bea5359f63eb621e87b18920af0e0c07bb24df8d51eeb34be1a0db"
TRANSFORM_SHA256 = {
    "1": "4b39d8c128f6f548e0be28839dfb38cce4f9fbcc742fd546d8351b1fbb7c2371",
    "7": "f10a4b172f6e5e27e3aa7e07d8c3660aa24413e796d25b7001a3d1364e44db4b",
    "97": "ff967f5f623443595eefaa68c41193391529b31f80963e95ce74a6c5caecc3ca",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _row(ident, obj, label):
    verdict = check(obj, label)
    w = verdict.witness
    return [
        ident,
        label.value,
        verdict.member,
        w and w.kind,
        w and [list(p) for p in w.points],
        w and list(w.indices),
    ]


def _verdict_rows(seed):
    members, misses = build_check_corpus(seed)
    for inst in members + misses:
        yield _row(inst.ident, inst.obj, inst.label)


_MIDPOINT_LABELS = {
    LatticeSet: (ClassLabel.IC_SET, ClassLabel.LNAT_SET, ClassLabel.L_SET, ClassLabel.MULTIMODULAR_SET,
                 ClassLabel.GLOBAL_DMC_SET),
    LatticeFn: (ClassLabel.IC_FN, ClassLabel.LNAT_FN, ClassLabel.L_FN, ClassLabel.MULTIMODULAR_FN,
                ClassLabel.GLOBAL_DMC_FN, ClassLabel.LOCAL_DMC_FN),
}


_EXCHANGE_LABELS = {
    LatticeSet: (ClassLabel.MNAT_SET, ClassLabel.M_SET, ClassLabel.JUMP_SYSTEM, ClassLabel.CONST_PARITY_JUMP,
                 ClassLabel.SIMULT_EXCH_JUMP),
    LatticeFn: (ClassLabel.MNAT_FN, ClassLabel.M_FN, ClassLabel.JUMP_M_FN, ClassLabel.JUMP_MNAT_FN),
}


def _cross_label_rows(seed):
    members, misses = build_check_corpus(seed)
    for inst in members + misses:
        for label in _MIDPOINT_LABELS[type(inst.obj)]:
            if not inst.obj.lifted or label in (ClassLabel.L_SET, ClassLabel.L_FN):
                yield _row(inst.ident, inst.obj, label)


def _cross_label_exchange_rows(seed):
    members, misses = build_check_corpus(seed)
    for inst in members + misses:
        if not inst.obj.lifted:
            for label in _EXCHANGE_LABELS[type(inst.obj)]:
                yield _row(inst.ident, inst.obj, label)


def test_corpus_verdicts_and_registry_report_are_pinned(capsys):
    rows = list(_verdict_rows("1"))
    assert len(rows) == 330
    assert _sha256(json.dumps(rows, separators=(",", ":"))) == CORPUS_SHA256
    capsys.readouterr()
    assert cli.main(["examples", "--run", "all", "--verbose"]) == 0
    assert _sha256(capsys.readouterr().out) == EXAMPLES_SHA256


def test_cross_label_midpoint_verdicts_are_pinned():
    rows = list(_cross_label_rows("1"))
    assert len(rows) == 1680
    assert _sha256(json.dumps(rows, separators=(",", ":"))) == CROSS_LABEL_SHA256


def test_cross_label_exchange_verdicts_are_pinned():
    rows = list(_cross_label_exchange_rows("1"))
    assert len(rows) == 1350
    assert _sha256(json.dumps(rows, separators=(",", ":"))) == CROSS_LABEL_EXCHANGE_SHA256


def _pinned_objects():
    s = LatticeSet.of([(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)])
    pairs = PartitionSpec(((0, 2), (1, 3)))
    rng = rng_for("1", "documents")
    seeded = LatticeSet(3, frozenset(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(20)))
    miss = build_check_corpus("1")[1][0]
    v = check(miss.obj, miss.label)
    w = v.witness
    verdict = {"type": "verdict", "class": miss.label.value, "member": v.member,
               "witness": {"kind": w.kind, "points": [list(p) for p in w.points], "indices": list(w.indices)}}
    return [s, pairs, aggregate_fn(s, pairs), seeded, box_fn(rng, (3, 4, 2), lo=-1), mesh_network(rng), verdict]


def test_document_bytes_are_pinned():
    text = "".join(documents.to_text(obj) for obj in _pinned_objects())
    assert _sha256(text) == DOCUMENTS_SHA256


def test_transform_outputs_are_pinned(tmp_path):
    for seed, want in TRANSFORM_SHA256.items():
        workload = Transform()
        workload.prepare(seed, str(tmp_path / seed))
        assert len(workload.requests) == 11
        digest = hashlib.sha256()
        for name, argv, out in workload.requests:
            assert cli.main(argv) == 0, (seed, name)
            with open(out, "rb") as fh:
                digest.update(fh.read())
        assert digest.hexdigest() == want, seed


def test_matrix_trial_images_are_pinned(monkeypatch):
    digest = hashlib.sha256()
    images = []

    def recorded(trial):
        def run(*args):
            passed, res = trial(*args)
            images.append(res)
            digest.update(documents.to_text(res).encode("utf-8"))
            return passed, res

        return run

    monkeypatch.setattr(lab, "_set_trial", recorded(lab._set_trial))
    monkeypatch.setattr(lab, "_fn_trial", recorded(lab._fn_trial))
    assert lab.run_closure_matrix(2, 7).passed
    assert len(images) == 96
    assert digest.hexdigest() == MATRIX_TRIALS_SHA256
