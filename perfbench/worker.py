"""One measured process of the benchmark (started by run.py).

Sets up (imports, problem load, element and quadrature caches), prints
READY, then runs whole sweeps of the workload's rows back to back for
--seconds: it starts another sweep only while one more sweep as long as the
last would end in time, and always runs at least one.  With --trace 1 the
wrap points are installed first, so every sweep is traced and the per-layer
metrics are medians over the sweeps.  The last line of stdout is a JSON
record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy
import scipy
import scipy.sparse.linalg  # noqa: F401  (set-up covers the solver stack's import)

from twolevelfem import cli
from twolevelfem.analysis import error_quadrature
from twolevelfem.assembly import default_assembly_quadrature
from twolevelfem.element import build_reference_element

import workloads


def set_up(workload: str) -> None:
    for example in {p.example for p in workloads.WORKLOADS[workload]}:
        cli.get_problem(example)
    for degree in workloads.degrees(workload):
        build_reference_element(degree)
        default_assembly_quadrature(degree)
        error_quadrature(degree)


def host_facts() -> dict:
    """What the numbers depend on besides the code."""
    mem_kb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb / 1024 if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


TIMED_STARTS: list[float] = []


def note_timed_starts():
    """Wrap the timer the CLI times its procedure with (cli.time_run), so
    that each row records when its cpu_seconds began: run.py scales them by
    the host's speed over exactly that window (over the whole row when the
    CLI has no such timer).  Returns the undo action."""
    timer = getattr(cli, "time_run", None)
    if timer is None:
        return lambda: None

    def time_run(procedure):
        TIMED_STARTS.append(time.perf_counter())
        return timer(procedure)

    cli.time_run = time_run
    return lambda: setattr(cli, "time_run", timer)


def run_sweep(order, recorder=None) -> list[dict]:
    """Run every row once, back to back, and check each against the tables."""
    results = []
    for preset, M in order:
        config = preset.run_config(M)
        TIMED_STARTS.clear()
        span = recorder.open_row() if recorder is not None else None
        t0 = time.perf_counter()
        [row] = cli.run_experiment(config)
        wall = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
        problem = preset.check(M, row)
        results.append({
            "preset": preset.label, "M": M, "start_s": t0, "wall_s": wall,
            "timed_start_s": TIMED_STARTS[-1] if TIMED_STARTS else None,
            "cpu_seconds": row.cpu_seconds, "h1_error": row.h1_error,
            "dofs_fine": row.dofs_fine, "dofs_coarse": row.dofs_coarse,
            "ok": problem is None, "problem": problem,
        })
    return results


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    set_up(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    order = workloads.rows(args.workload, args.seed)
    recorder, missing, per_sweep_layers = None, set(), []
    undo = [note_timed_starts()]
    if args.trace:
        import spans

        recorder = spans.Recorder()
        undo_spans, missing = spans.install(recorder)
        undo += undo_spans
    sweeps = []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            started = time.perf_counter()
            first, overhead = (len(recorder.spans), recorder.overhead_s) if recorder else (0, 0.0)
            rows = run_sweep(order, recorder)
            sweeps.append(rows)
            if recorder is not None:
                per_sweep_layers.append(spans.layer_metrics(
                    recorder.spans[first:], rows, missing, recorder.overhead_s - overhead))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    finally:
        for action in undo:
            action()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "order": [f"{p.label} M={M}" for p, M in order],
        "sweeps": sweeps,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        record["missing_wrap_points"] = sorted(missing)
        record["layers"] = {
            name: {"value": statistics.median(m[name] for m in per_sweep_layers),
                   "unit": unit}
            for name, (unit, _) in spans.LAYER_METRICS.items()
            if name in per_sweep_layers[0]
        }
        record["self_time_gap_max_s"] = max(spans.self_time_gaps(recorder.spans).values())
        record["spans"] = recorder.spans

    record["host"] = host_facts()
    record["attempted"] = sum(len(rows) for rows in sweeps)
    record["failed"] = sum(not r["ok"] for rows in sweeps for r in rows)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
