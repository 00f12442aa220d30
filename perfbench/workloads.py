"""Benchmark workloads: the paper-table sweeps and their frozen answers.

Each workload is a list of presets, and each preset is swept over
M = 9..12 exactly as the paper fixes it.  One row is one RunConfig with a
single mesh size, so the seed can shuffle rows across presets without
changing the work any row does.

The reference values are a copy of the frozen tables in
tests/test_acceptance.py, kept here so that the benchmark checks its own
outputs with the same 5 % tolerance and the same exact DOF counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

M_SWEEP = (9, 10, 11, 12)
LARGEST_M = max(M_SWEEP)

VALUE_RTOL = 0.05
EXACT_CAPTURE_TOL = 1e-10

# Frozen H1 errors (distance to the degree-matched interpolant) at M = 9..12.
EX1_TWO_GRID = (9.8925e-07, 5.2609e-07, 2.9711e-07, 1.7634e-07)
EX1_DEGREE4 = (3.6409e-05, 2.3903e-05, 1.6334e-05, 1.1538e-05)
EX1_DEGREE5 = (1.6093e-06, 9.5141e-07, 5.9129e-07, 3.8298e-07)
EX1_DEGREE6 = (5.7750e-08, 3.0706e-08, 1.7339e-08, 1.0290e-08)
EX2_DEGREE4 = (1.9981e-06, 1.3129e-06, 8.9783e-07, 6.3456e-07)
EX2_DEGREE5 = (5.2140e-08, 3.0796e-08, 1.9126e-08, 1.2381e-08)

# Frozen fine DOF counts at M = 9..12: degree 3 on the squared refinement
# (two-grid with h = H^2), then degrees 4, 5 and 6 on the base mesh.
DOFS_FINE = {
    ("two-grid", 3): (59536, 90601, 132496, 187489),
    ("two-level", 4): (1369, 1681, 2025, 2401),
    ("two-level", 5): (2116, 2601, 3136, 3721),
    ("two-level", 6): (3025, 3721, 4489, 5329),
}


@dataclass(frozen=True)
class Preset:
    """One paper-table experiment, run at every M of the sweep."""

    example: str
    algorithm: str
    s: Optional[int] = None
    solver: str = "direct"
    error_against: str = "interpolant"
    reference: Optional[tuple] = None   # frozen h1_error per M, or None for exact capture
    l: int = 3
    k: int = 3

    @property
    def label(self) -> str:
        fine = f"{self.l}->{self.s}" if self.algorithm == "two-level" else "h=H^2"
        return f"ex{self.example} {self.algorithm} {fine} {self.solver}"

    def run_config(self, M: int):
        from twolevelfem.cli import RunConfig

        return RunConfig(
            example=self.example, algorithm=self.algorithm, l=self.l, s=self.s,
            k=self.k, M_list=(M,), solver=self.solver,
            error_against=self.error_against,
        )

    def expected_dofs_fine(self, M: int) -> int:
        degree = self.s if self.algorithm == "two-level" else self.l
        return DOFS_FINE[(self.algorithm, degree)][M_SWEEP.index(M)]

    def check(self, M: int, row) -> Optional[str]:
        """Why the row is wrong, or None when it matches the frozen tables."""
        if row.failed:
            return "solver error"
        if row.dofs_fine != self.expected_dofs_fine(M):
            return f"dofs_fine {row.dofs_fine} != {self.expected_dofs_fine(M)}"
        error = row.h1_error
        if not math.isfinite(error):
            return f"h1_error {error} is not finite"
        if self.reference is None:
            if error > EXACT_CAPTURE_TOL:
                return f"true error {error:.3e} > {EXACT_CAPTURE_TOL:.0e}"
            return None
        ref = self.reference[M_SWEEP.index(M)]
        dev = abs(error - ref) / ref
        if dev > VALUE_RTOL:
            return f"h1_error {error:.5e} deviates {dev:.2%} from {ref:.4e}"
        return None


# Why each workload exists is recorded in README.md; BENCHMARK.json lists the
# gated ones.
WORKLOADS = {
    "two-grid-paper": (
        Preset("1", "two-grid", reference=EX1_TWO_GRID),
    ),
    "two-level-paper": (
        Preset("1", "two-level", s=4, reference=EX1_DEGREE4),
        Preset("1", "two-level", s=5, reference=EX1_DEGREE5),
        Preset("1", "two-level", s=6, reference=EX1_DEGREE6),
        Preset("2", "two-level", s=4, reference=EX2_DEGREE4),
        Preset("2", "two-level", s=5, reference=EX2_DEGREE5),
        # The exact solution lies in the degree-6 space: check the true error.
        Preset("2", "two-level", s=6, error_against="exact"),
    ),
    "two-level-krylov": (
        Preset("1", "two-level", s=6, solver="iterative", reference=EX1_DEGREE6),
    ),
}


def rows(workload: str, seed: int) -> list[tuple[Preset, int]]:
    """Every (preset, M) row of the workload, in the order the seed picks."""
    order = [(preset, M) for preset in WORKLOADS[workload] for M in M_SWEEP]
    random.Random(seed).shuffle(order)
    return order


def degrees(workload: str) -> set[int]:
    """Polynomial degrees whose element and quadrature caches a run uses."""
    found = set()
    for preset in WORKLOADS[workload]:
        found.add(preset.l)
        if preset.s is not None:
            found.add(preset.s)
    return found
