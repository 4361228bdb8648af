"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: matrix, check-members, check-nonmembers, transform (see
perfbench/README.md).  With ``--trace 0`` the run measures the end-to-end
metrics with no spans recorded.  With ``--trace 1`` it runs whole passes
untraced for a third of ``--seconds``, repeats them traced, and reports the
per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every output checked out.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_SAMPLES = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dconvex.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=SRC),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def setup_seconds(workload, seed, workdir: str, reference) -> float:
    """Median over SETUP_SAMPLES of the scaled import time plus the median
    of the scaled input builds; the samples alternate so they spread over
    the machine's speed drift."""
    imports, builds = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference.sample()
        imports.append(import_seconds())
        reference.sample()
        gc.collect()
        t0 = time.perf_counter()
        workload.prepare(seed, workdir)
        builds.append(time.perf_counter() - t0)
        reference.sample()
        imports[-1] *= reference.scale(before)
        builds[-1] *= reference.scale(before + 1)
    return statistics.median(imports) + statistics.median(builds)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def drive(workload, seconds=None, passes=None):
    """Run whole passes until ``seconds`` have elapsed (at least one) or
    until ``passes`` are done; returns (passes run, wall seconds)."""
    t0 = time.perf_counter()
    k = 0
    while True:
        workload.run_pass(k)
        k += 1
        wall = time.perf_counter() - t0
        if (passes is None and wall >= seconds) or (passes is not None and k >= passes):
            return k, wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "dconvex")):
        sys.stderr.write(f"error: no dconvex package under {SRC}\n")
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import spans, speed, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}\n")
        return 2
    sys.stderr.write(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}; "
        f"nproc={os.cpu_count()} python={platform.python_version()}\n"
    )

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workloads.make(args.workload)

    if not args.trace:
        reference = speed.SpeedReference()
        setup_s = setup_seconds(workload, args.seed, workdir, reference)
        workload.reference = reference
        passes, wall = drive(workload, seconds=args.seconds)
        reference.sample()
        latencies = reference.scaled(workload.ops)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
            "op_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_ratio": (1 - workload.failed / workload.attempted, "ratio"),
        }
    else:
        workload.prepare(args.seed, workdir)
        reference = speed.SpeedReference()
        reference.sample()
        workload.reference = reference
        # a third, not half: the check passes take 10 to 14 s, and two
        # untraced passes plus their traced repeats would double the run
        passes, untraced = drive(workload, seconds=args.seconds / 3)
        untraced_ops = len(workload.ops)
        # rank the cells by untraced time: spans inflate the hull-heavy cells
        cells = dict(getattr(workload, "cell_s", {}))
        matched = 0
        if cells:
            top = spans.hot_cells(cells)
            matched = len(spans.BASELINE_HOT_CELLS & set(top))
            sys.stderr.write(f"hot cells (untraced): {', '.join(top)}; {matched} of the baseline five\n")
        tracer = spans.Tracer()
        workload.tracer = tracer
        with spans.instrument(tracer):
            with tracer.span("bench.loop") as loop:
                drive(workload, passes=passes)
        workload.tracer = None
        reference.sample()
        wall = untraced + (loop[spans.END] - loop[spans.START]) * 1e-9
        op_s = reference.scaled(workload.ops)
        overhead = sum(op_s[untraced_ops:]) / sum(op_s[:untraced_ops]) - 1
        units = {name: unit for name, unit, _ in spans.per_layer_names()}
        values = spans.layer_metrics(tracer, overhead, matched)
        metrics = {name: (values[name], units[name]) for name in units}
        tracer.write(os.path.join(WORK, f"trace-{args.workload}.tsv"))

    workload.verify()
    for message in workload.failures:
        sys.stderr.write(f"FAIL {message}\n")
    sys.stderr.write(f"{passes} passes, {workload.attempted} ops, {wall:.2f} s measured\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name} = {value:.6g} {unit}\n")
    correct = not workload.failures and workload.failed == 0
    result = {
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
