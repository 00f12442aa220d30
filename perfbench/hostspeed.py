"""Host-speed sampler: the yardstick that takes the host's drift out of times.

The recorded host is a 2-vCPU VM on a shared machine.  Its speed switches
between a fast and a slow state (the slow one about 1.6 times slower) that
last from a second to minutes, so one run's wall times can read 60 % above
the next run's with the same code.  Medians within a run cannot remove that.

So run.py pins itself, the sampler and every worker to one CPU, and the
sampler times a fixed interpreter loop (PROBE_LOOPS iterations, about 0.3 ms)
every PERIOD_S seconds for the whole run.  The loop uses nothing from
twolevelfem, so a change to the program never changes it.  A measured
interval [start, end] is then scaled to reference seconds by

    (REFERENCE_PROBE_S / mean probe time in the interval) ** ELASTICITY

The elasticity is how much faster than the probe the pipeline slows down:
the slope of log(row time) against log(mean probe time) within each row of
a workload, fitted on the recorded host, is 1.43 for two-grid-paper, 1.49
for two-level-paper and 1.54 for two-level-krylov (README.md gives the
measurements).  A change in the program's own work is not scaled away: the
probe does not see it.

Run as a script it is the sampler: it prints READY once warm, samples until
its stdin closes, then prints its samples as one JSON list of
[start, seconds] pairs.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import time
from pathlib import Path

PROBE_LOOPS = 5000
PERIOD_S = 0.025
# Probe time in the host's fast state on the recorded host (2-vCPU Xeon VM
# at 2.1 GHz, Python 3.11): the scale of the reference seconds.
REFERENCE_PROBE_S = 0.00028
# The seed-to-seed spread was smallest near 1.3 on two-grid-paper and near
# 1.6 on two-level-paper; one value between them serves every workload.
ELASTICITY = 1.4
# A probe the worker preempted reads long; cap it so one such sample does
# not outweigh the state it was taken in.
PROBE_CAP = 3.0


def probe() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def sample_until_stdin_closes() -> list[list[float]]:
    samples = []
    for _ in range(20):                     # warm up
        probe()
    print("READY", flush=True)
    while True:
        start = time.perf_counter()
        samples.append([start, probe()])
        wait = start + PERIOD_S - time.perf_counter()
        if select.select([sys.stdin], [], [], max(wait, 0.0))[0]:
            if not sys.stdin.read(1):       # EOF: the run is over
                return samples


class Sampler:
    """The sampler process of one run."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[list[float]] = []
        if self._proc.stdout.readline().strip() != "READY":
            self.kill()
            raise RuntimeError("the host-speed sampler did not start")

    def stop(self, timeout: float = 10.0) -> None:
        """Stop sampling and collect the samples."""
        try:
            out, _ = self._proc.communicate(timeout=timeout)
            if self._proc.returncode == 0:
                self.samples = json.loads(out)
        finally:
            self.kill()

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end]: the
        probes taken from one period before start until end.  Times are
        perf_counter readings, which on Linux come from CLOCK_MONOTONIC, one
        clock for every process, so the workers' and the sampler's agree."""
        cap = PROBE_CAP * REFERENCE_PROBE_S
        probes = [min(seconds, cap) for t, seconds in self.samples
                  if start - PERIOD_S <= t <= end]
        if not probes:
            raise ValueError(f"no host-speed sample in [{start:.3f}, {end:.3f}]")
        mean = sum(probes) / len(probes)
        return (REFERENCE_PROBE_S / mean) ** ELASTICITY


if __name__ == "__main__":
    print(json.dumps(sample_until_stdin_closes()))
