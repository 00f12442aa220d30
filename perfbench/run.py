"""Paper-table benchmark of twolevelfem.

    python3 perfbench/run.py --workload two-level-paper --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each workload is a closed loop of one
caller: the rows of its paper-table sweeps run back to back through
cli.run_experiment, in an order the seed picks, and whole sweeps repeat
while they fit in --seconds (at least one).  Every row is checked against
the frozen tables; a wrong or failed row counts as failed.

Measurement runs in fresh single processes with the BLAS thread count
pinned.  Set-up (process start, imports, problem load, element and
quadrature caches) is timed in several processes and reported as a median.
Every process runs on one CPU beside a host-speed sampler (hostspeed.py),
and every end-to-end time is scaled by the host's measured speed over the
interval it covers, so the host's drift between runs cancels.
With --trace 0 the end-to-end metrics are printed.  With --trace 1 every
sweep is traced and the per-layer metrics are printed instead.  The last
line of stdout is the JSON result; the full record (rows, spans, host facts)
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One BLAS thread: the pipeline is serial apart from BLAS, and a single
# thread keeps the two-core host's runs steady.
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5            # the measuring process plus four set-up-only ones
RUN_LIMIT_S = 170.0          # every process is stopped by then
SELF_TIME_GAP_TOL_S = 1e-6

END_TO_END_UNITS = {
    "sweep_s": "s", "solve_s": "s", "largest_row_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, float, list[str]]:
    """Start one worker; return when it started and became ready, and its
    stdout lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if first.strip() != "READY" or code != 0:
        raise BenchError(f"worker exited with status {code} "
                         f"({'set-up' if first.strip() != 'READY' else 'run'} failed)")
    return t0, ready, rest


def sweep_metrics(sweeps: list[list[dict]], wall_key: str, cpu_key: str) -> dict:
    """Each row's median over the sweeps, summed over the rows.

    sweep_s counts every row; solve_s and largest_row_s only rows that were
    correct in every sweep, so a failed row is never timed as a success.
    """
    def row_sum(key, rows):
        return sum(statistics.median(sweep[i][key] for sweep in sweeps) for i in rows)

    every = range(len(sweeps[0]))
    ok = [i for i in every if all(sweep[i]["ok"] for sweep in sweeps)]
    return {
        "sweep_s": row_sum(wall_key, every),
        "solve_s": row_sum(cpu_key, ok),
        "largest_row_s": row_sum(
            cpu_key, [i for i in ok if sweeps[0][i]["M"] == workloads.LARGEST_M]),
    }


def end_to_end(record: dict, setups: list[tuple[float, float]],
               sampler: hostspeed.Sampler) -> tuple[dict, dict]:
    """The end-to-end metrics in reference seconds, and the same unscaled."""
    for row in (r for rows in record["sweeps"] for r in rows):
        row["ref_wall_s"] = row["wall_s"] * sampler.factor(
            row["start_s"], row["start_s"] + row["wall_s"])
        seconds = row["cpu_seconds"]
        timed = row["start_s"] if row["timed_start_s"] is None else row["timed_start_s"]
        row["ref_cpu_seconds"] = (None if seconds is None else
                                  seconds * sampler.factor(timed, timed + seconds))
    setup_raw = [ready - start for start, ready in setups]
    setup_ref = [(ready - start) * sampler.factor(start, ready) for start, ready in setups]
    raw = dict(sweep_metrics(record["sweeps"], "wall_s", "cpu_seconds"),
               setup_s=statistics.median(setup_raw))
    scaled = dict(sweep_metrics(record["sweeps"], "ref_wall_s", "ref_cpu_seconds"),
                  setup_s=statistics.median(setup_ref), peak_rss_mb=record["peak_rss_mb"])
    record.update(setup_samples_s=setup_raw, setup_ref_samples_s=setup_ref,
                  raw_metrics=raw)
    return scaled, raw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "twolevelfem" / "cli.py").is_file():
        print(f"error: {SRC / 'twolevelfem'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    # Stopped from outside: unwind, so that every process started is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.perf_counter() + RUN_LIMIT_S
    # The sampler and the workers inherit this CPU, so the sampler measures
    # the speed of the CPU the work runs on.
    available = os.sched_getaffinity(0)
    cpu = min(available)
    os.sched_setaffinity(0, {cpu})
    try:
        sampler = hostspeed.Sampler()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            start, ready, _ = run_worker(args, deadline, setup_only=True)
            setups.append((start, ready))
        start, ready, lines = run_worker(args, deadline, setup_only=False)
        setups.append((start, ready))
        record = json.loads(lines[-1])
        sampler.stop()
        values, raw = end_to_end(record, setups, sampler)
    except (BenchError, IndexError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sampler.kill()

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        metrics = record["layers"]
        gap = record["self_time_gap_max_s"]
        correct = failed == 0 and gap <= SELF_TIME_GAP_TOL_S
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        correct = failed == 0
        record["metrics"] = values

    record["host"].update(nproc=len(available), pinned_cpu=cpu)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host_samples=sampler.samples)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"sweeps {len(record['sweeps'])}  rows {attempted}")
    print("host " + json.dumps(record["host"]))
    print(f"host speed: {len(sampler.samples)} samples; unscaled "
          + ", ".join(f"{name} {value:.6g} s" for name, value in raw.items()))
    for row in (r for rows in record["sweeps"] for r in rows):
        if not row["ok"]:
            print(f"FAILED {row['preset']} M={row['M']}: {row['problem']}")
    print(f"rows_failed {failed / attempted:.4f} share ({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
