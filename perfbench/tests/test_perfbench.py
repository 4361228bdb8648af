"""Self-tests of the benchmark.  Run:  python3 -m pytest -q perfbench/tests"""

import json
import os
import subprocess
import sys

import pytest

from dconvex import classes, cli, documents, lab
from dconvex.classes import ClassLabel, check, verify_witness
from perfbench import corpus, spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _texts(instances):
    return [(i.ident, i.member, documents.to_text(i.obj)) for i in instances]


def test_corpus_is_deterministic_for_a_seed():
    a = corpus.build_check_corpus(7, sides=(3,))
    b = corpus.build_check_corpus(7, sides=(3,))
    assert [_texts(x) for x in a] == [_texts(x) for x in b]
    c = corpus.build_check_corpus(8, sides=(3,))
    assert _texts(a[0]) != _texts(c[0])


def test_every_label_appears_in_check_members():
    members, misses = corpus.build_check_corpus(1)
    for side in corpus.SIDES:
        assert {i.label for i in members if i.side == side} == set(ClassLabel)
    assert len(misses) == corpus.MISSES_PER_MEMBER * len(members)
    sizes = [i.size for i in members]
    assert min(sizes) >= 27 and max(sizes) <= 130
    rows = corpus.manifest(members + misses)
    assert {r["expected"] for r in rows} == {"member", "non-member"}


def test_expected_verdicts_hold_on_the_smallest_rung():
    members, misses = corpus.build_check_corpus(3, sides=(3,))
    for inst in members + misses:
        verdict = check(inst.obj, inst.label)
        assert verdict.member == inst.member, inst.ident
        if not inst.member:
            assert verify_witness(inst.obj, verdict.witness), inst.ident


def _traced_pass(workload, tmp_path):
    workload.prepare(5, str(tmp_path))
    tracer = spans.Tracer()
    workload.tracer = tracer
    with spans.instrument(tracer):
        with tracer.span("bench.loop") as loop:
            workload.run_pass(0)
    workload.verify()
    assert workload.failures == [] and workload.failed == 0
    return tracer, loop


def test_span_self_times_sum_to_traced_wall_time(tmp_path):
    tracer, loop = _traced_pass(workloads.Matrix(trials=1), tmp_path)
    assert sum(tracer.self_times()) == loop[spans.END] - loop[spans.START]
    assert all(t >= 0 for t in tracer.self_times())
    cells = [s for s in tracer.spans if s[spans.NAME] == "lab.cell"]
    assert len(cells) == 48 and len({s[spans.REQUEST] for s in cells}) == 48
    m = spans.layer_metrics(tracer, 0.0, 0)
    assert m["classes.check.calls"] > 0 and m["lab.draw.calls"] > 0
    workload = workloads.Matrix(trials=1)
    workload.prepare(5, str(tmp_path))
    workload.run_pass(0)
    assert len(workload.cell_s) == 48 and len(spans.hot_cells(workload.cell_s)) == 5


def test_transform_makes_no_membership_checks(tmp_path):
    workload = workloads.Transform()
    tracer, loop = _traced_pass(workload, tmp_path)
    assert sum(tracer.self_times()) == loop[spans.END] - loop[spans.START]
    m = spans.layer_metrics(tracer, 0.0, 0)
    assert m["classes.check.calls"] == 0
    assert m["cli.main.calls"] == len(workload.requests)
    assert m["network.flows"] > 0 and m["ops.convolution.s"] > 0


def test_instrument_restores_every_entry():
    before = (lab.check, cli.check, classes.in_local_hull, documents.load, cli.main, dict(lab.REGISTRY))
    with spans.instrument(spans.Tracer()):
        assert lab.check is not before[0]
    after = (lab.check, cli.check, classes.in_local_hull, documents.load, cli.main, dict(lab.REGISTRY))
    assert after == before


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in _benchmark_json()["per_layer"]]
    assert declared == spans.per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    bench = _benchmark_json()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transform", "--seed", "2",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
