"""phkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload alpha-cli --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root; phkit is imported from ./src, and CLI
children get that path, made absolute, on PYTHONPATH. A run sets up five
times (a fresh interpreter imports phkit, then the inputs are made; setup_s
is the median), then runs passes of the workload one after another in a
closed loop: at least one, and another while it is likely to end within
--seconds. End-to-end times are wall-time medians over the passes. With
--trace 1 the run makes one plain pass and one traced pass, checks that
the second repeats the first, and reports the per-layer metrics instead.

The last line of stdout is the result; the line before it records the
environment, the inputs, every pass and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import (Ledger, NullTracer, PassAborted, Stopwatch, Tracer,
                     expect)
from workloads import ROOT, SMOKE_SIZES, SRC, WORKLOADS, Cli

WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 5
# a cap on --seconds that keeps a run within three minutes
MAX_MEASURE_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "diagram_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; a time "<module>.<function>_s" sums the spans of
# that name in the traced pass, and a layer a workload does not run reads 0
PER_LAYER = {
    "cli.import_s": "s",
    "cli.compute_s": "s",
    "cli.pairs_s": "s",
    "cli.plot_s": "s",
    "cli.vectorize_s": "s",
    "cli.invert_s": "s",
    "cli.invert_self_s": "s",
    "fileio.read_point_cloud_s": "s",
    "fileio.write_diagram_file_s": "s",
    "fileio.read_diagram_file_s": "s",
    "fileio.diagram_file_bytes": "bytes",
    "alpha.alpha_filtration_s": "s",
    "alpha.qhull_s": "s",
    "alpha.jitter_retries": "count",
    "alpha.alpha_filtration_rss_mb": "MB",
    "cubical.cubical_filtration_s": "s",
    "cubical.cubical_filtration_rss_mb": "MB",
    "combinatorial.rips_filtration_s": "s",
    "complexes.cells": "count",
    "complexes.boundary_nnz": "count",
    "persistence.compute_persistence_s": "s",
    "persistence.compute_persistence_rss_mb": "MB",
    "persistence.pairs": "count",
    "persistence.zero_pairs": "count",
    "persistence.essential": "count",
    "persistence.apparent_pairs": "count",
    "persistence.columns_added": "count",
    "persistence.reduced_entries": "count",
    "persistence.scaled_s": "s",
    "persistence.representative_cycle_s": "s",
    "persistence.tighten_cycle_1d_s": "s",
    "analysis.bottleneck_distance_s": "s",
    "analysis.bottleneck_distance_calls": "count",
    "analysis.wasserstein_distance_s": "s",
    "analysis.wasserstein_distance_calls": "count",
    "analysis.pairs_compared": "count",
    "analysis.histogram_s": "s",
    "analysis.persistence_image_s": "s",
    "svgplot.histogram_svg_s": "s",
}

# spans reported as their median call rather than their sum
PER_CALL = ("analysis.bottleneck_distance", "analysis.wasserstein_distance",
            "cli.import")


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "PHKIT_THREADS": os.environ.get("PHKIT_THREADS", "unset"),
            "machine": platform.machine()}


def layer_metrics(tracer: Tracer, counts: dict, derived: dict) -> dict:
    out = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            value = derived[name]
        elif name.endswith("_calls"):
            value = len(tracer.durations(name[:-len("_calls")]))
        elif name.endswith("_rss_mb"):
            value = tracer.rss_mb.get(name[:-len("_rss_mb")], 0.0)
        elif unit == "s":
            span = name[:-len("_s")]
            durations = tracer.durations(span)
            if span in PER_CALL:
                value = statistics.median(durations) if durations else 0.0
            else:
                value = float(sum(durations))
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def check_repeat(ledger, name, first, later):
    """A pass on the inputs of the first pass repeats its outputs."""
    with ledger.op(f"{name} repeats the outputs of pass 0"):
        diff = [key for key, v in later.digests.items()
                if first.digests[key] != v]
        expect(not diff, f"differs in {', '.join(diff)}")


def run_pass(workload, inputs, work, ledger, tracer):
    try:
        return workload.run_pass(inputs, work, ledger, tracer)
    except PassAborted:
        return None


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, run the passes, check them; return (result, record)."""
    import phkit  # noqa: F401  the worker's own import stays out of set-up

    ledger = Ledger()
    interpreter = Cli()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            with Stopwatch() as t:
                with ledger.op("python -c 'import phkit'"):
                    interpreter.run_code(NullTracer(), "import phkit", work)
                with ledger.op("set-up"):
                    inputs = workload.setup(seed, work)
            setups.append(t.wall)
    except PassAborted:
        setups = []

    passes = []
    start = time.perf_counter()
    limit = min(seconds, MAX_MEASURE_S)
    while setups:
        elapsed = time.perf_counter() - start
        # stop before a pass that would likely end past the limit
        if passes and (trace or elapsed * (1 + 1 / len(passes)) > limit):
            break
        passes.append(run_pass(workload, inputs, work, ledger, NullTracer()))
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    peak_rss_mb = usage / 1024.0

    done = [p for p in passes if p is not None]
    for k, later in enumerate(done[1:], start=1):
        check_repeat(ledger, f"pass {k}", done[0], later)
    record = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "env": environment(), "inputs": {},
              "passes": [p.wall if p else None for p in passes],
              "setup_s": setups}
    if done:
        try:
            record["inputs"] = workload.describe(done[0], work, ledger)
        except PassAborted:
            pass

    if trace:
        tracer = Tracer()
        traced = None
        if done:
            with tracer.span("pass"):
                traced = run_pass(workload, inputs, work, ledger, tracer)
        if traced is not None and passes[0] is not None:
            check_repeat(ledger, "the traced pass", passes[0], traced)
        counts, derived, extra = {}, {}, {}
        if traced is not None:
            try:
                with tracer.span("library"):
                    counts, derived, extra = workload.layers(
                        inputs, work, ledger, traced, tracer)
            except PassAborted:
                pass
        metrics = layer_metrics(tracer, counts, derived)
        record["inputs"].update(extra)
        if traced is not None:
            record["env"]["trace_overhead"] = \
                traced.wall["total_s"] / done[0].wall["total_s"] - 1.0
        record["spans"] = tracer.dump(start)
        record["rss_mb"] = tracer.rss_mb
    else:
        times = {"setup_s": setups,
                 **{name: [p.wall[name] for p in done]
                    for name in ("diagram_s", "total_s")}}
        values = {name: statistics.median(v) if v else 0.0
                  for name, v in times.items()}
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    record["failures"] = ledger.failures
    result = {"correct": bool(done) and not ledger.failures,
              "attempted": ledger.attempted,
              "failed": len(ledger.failures),
              "metrics": metrics}
    return result, record


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    workload = WORKLOADS[name](**(sizes or {}))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        return measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still works here


def smoke() -> int:
    """Every workload at a tiny size, plain and traced; checks the metric
    names and units against BENCHMARK.json, every output, and that each
    per-layer time and resident set is measured by some workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    if not ok:
        print("workloads in BENCHMARK.json differ from the benchmark's")
    measured = set()
    for name in WORKLOADS:
        for trace in (0, 1):
            result, record = run(name, 1, 0, bool(trace), SMOKE_SIZES[name])
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = list(record["failures"])
            problems += [f"{k} emitted but not declared" for k in emitted
                         if k not in declared[trace]]
            problems += [f"{k} declared but not emitted"
                         for k in declared[trace] if k not in emitted]
            problems += [f"{k} has unit {emitted[k]}, declared "
                         f"{declared[trace][k]}" for k in emitted
                         if k in declared[trace]
                         and emitted[k] != declared[trace][k]]
            ok = ok and result["correct"] and not problems
            if trace:
                measured |= {k for k, v in result["metrics"].items()
                             if v["value"] != 0}
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(emitted)}")
            for line in problems:
                print(f"  {line}")
    unmeasured = [k for k in declared[1] if k.endswith(("_s", "_rss_mb"))
                  and k not in measured]
    for name in unmeasured:
        print(f"{name} reads 0 on every workload's traced run")
    ok = ok and not unmeasured
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload; checks the "
                             "metric names against BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (SRC / "phkit" / "__init__.py").is_file():
        print(f"error: no phkit sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    # numpy seeds must be non-negative; distinct seeds stay distinct
    result, record = run(args.workload, args.seed % 2**64, args.seconds,
                         bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
