"""Command line front end producing the convergence and DOF tables.

Examples::

    twolevelfem --example 1 --algorithm two-level --l 3 --s 6 --k 3 \
        --M 9,10,11,12 --scale-exponent 6
    twolevelfem --example 2 --algorithm two-grid --l 3 --k 3 --M 9,10,11,12 \
        --fine-factor square --format markdown
    twolevelfem --dof-table --M 9,10,11,12 --degrees 3,4,5,6

Output is CSV by default (markdown behind --format), written to stdout or to
--output; --help prints the usage.  Exit status is 0 only if every row completed
with a finite H1 error, else 1.  Every refusal, of a flag or of the problem file,
exits 2 with one `twolevelfem: error:` line on stderr and nothing on stdout.
cpu_seconds is perf_counter wall time of operator assembly, prolongation,
factorizations and solves, not of mesh and space construction or error
evaluation; --parallel runs POOL_SIZE rows at once and leaves it blank.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from numbers import Integral
from typing import Optional, Union

import numpy as np

from .algorithms import IterationOperators, galerkin_solve, run_correction_iteration
from .analysis import (ExperimentRow, error_quadrature, h1_distance, h1_error,
                       norm_quadrature, time_run)
from .assembly import ProblemSpec, default_assembly_quadrature
from .mesh import MAX_SUBDIVISIONS, build_structured_mesh, refine_nested
from .problems import get_problem
from .solver import SolverError
from .space import CoefficientError, build_space, dof_count, interpolate

CSV_COLUMNS = [field.name for field in fields(ExperimentRow)]
CHOICES = {   # the fixed values of RunConfig fields; the CLI has a flag for all but solver
    "algorithm": ("galerkin", "two-grid", "two-level"),
    "solver": ("direct", "iterative"),
    "mesh_diagonal": ("down", "up"),
    "error_against": ("interpolant", "exact"),
}

POOL_SIZE = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)   # rows computed at once under --parallel
MAX_ROUNDS = 1000   # even a contraction of 0.97 per round reaches 1e-13 within it
_BASE_BYTES = 80 * 2**20   # the interpreter with numpy and scipy loaded


class UsageError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: an algorithm swept over a list of mesh sizes."""

    example: str
    algorithm: str              # galerkin | two-grid | two-level
    l: int
    s: Optional[int]
    k: int
    M_list: tuple
    fine_factor: Union[int, str] = "square"
    scale_exponent: Optional[int] = None
    solver: str = "direct"
    parallel: bool = False
    mesh_diagonal: str = "up"
    error_against: str = "interpolant"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise UsageError(f"{name} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        if not self.M_list:
            raise UsageError("at least one mesh size M is required")
        if self.algorithm != "galerkin" and not (isinstance(self.k, Integral)
                                                 and 1 <= self.k <= MAX_ROUNDS):
            raise UsageError(
                f"iteration count must be an integer in [1, {MAX_ROUNDS}], got {self.k!r}")
        if self.algorithm == "two-level" and self.s is None:
            raise UsageError("two-level runs need --s (fine degree)")
        # 'square' refines by r = M, which leaves M = 1 unrefined.
        if self.algorithm == "two-grid" and (
                not (self.fine_factor == "square" or isinstance(self.fine_factor, Integral))
                or min(map(self.resolved_fine_factor, self.M_list)) < 2):
            raise UsageError(
                f"two-grid refinement factor must be >= 2 or 'square' with "
                f"every M >= 2, got {self.fine_factor!r} for M = {list(self.M_list)}"
            )
        for M in self.M_list:
            for p, m in self.spaces(M):
                try:
                    dof_count(m, p)
                except ValueError as exc:
                    raise UsageError(str(exc)) from None
                if m > MAX_SUBDIVISIONS:
                    raise UsageError(f"the row at M = {M} needs a mesh of {m} subdivisions, "
                                     f"more than {MAX_SUBDIVISIONS}")
        if self.algorithm == "two-level" and self.s <= self.l:
            raise UsageError(f"fine degree s must exceed l = {self.l}, got {self.s}")
        p = self.resolved_scale_exponent()
        try:
            in_range = float(max(self.M_list)) ** p >= sys.float_info.min
        except OverflowError:
            in_range = False
        if not in_range:
            raise UsageError(
                f"scale exponent {p} takes M**{p} out of the float range "
                f"for M = {max(self.M_list)}"
            )

    def resolved_fine_factor(self, M: int) -> int:
        """The two-grid refinement factor for coarse mesh size M."""
        return M if self.fine_factor == "square" else int(self.fine_factor)

    def spaces(self, M: int) -> list[tuple[int, int]]:
        """(degree, subdivisions) of each space the row at M builds: the
        coarse space, then the fine one unless the row is a Galerkin row."""
        if self.algorithm == "galerkin":
            return [(self.l, M)]
        if self.algorithm == "two-level":
            return [(self.l, M), (self.s, M)]
        return [(self.l, M), (self.l, M * self.resolved_fine_factor(M))]

    def row_bytes(self, M: int) -> float:
        """Peak memory of the row at M, above that of the rows measured in
        tests/test_cli.py (P1-P6, up to 187,489 DOFs): in each space the row
        assembles and factors, L+U is counted as 16 n^0.2 entries per DOF at
        P3-P6 and 11 n^0.2 at P1-P2 (SuperLU stores 7.7-11.0 and 6.4-8.4 on
        those rows), at 20 bytes each while SuperLU factors (12 stored, the
        rest its work arrays), and assembly takes 12 bytes per local entry:
        the float64 local matrices and the int32 column indices of their
        element rows."""
        return sum(20 * (16 if p > 2 else 11) * dof_count(m, p) ** 1.2
                   + 12 * 2 * m * m * ((p + 1) * (p + 2) // 2) ** 2 for p, m in self.spaces(M))

    def resolved_scale_exponent(self) -> int:
        if self.scale_exponent is not None:
            return self.scale_exponent
        if self.algorithm == "two-level":
            return int(self.s)
        if self.algorithm == "two-grid" and self.fine_factor == "square":
            return 2 * self.l
        return self.l


def _run_single(problem: ProblemSpec, config: RunConfig, M: int) -> ExperimentRow:
    """One table row; `procedure` is what cpu_seconds times."""
    mesh = build_structured_mesh(M, diagonal=config.mesh_diagonal)
    spaces = [build_space(refine_nested(mesh, m // M) if m > M else mesh, p)
              for p, m in config.spaces(M)]
    coarse, fine_space = spaces[0], spaces[-1]
    s_or_r = fine_space.mesh.M // M if fine_space.mesh.M > M else fine_space.degree

    galerkin = config.algorithm == "galerkin"
    k = 0 if galerkin else config.k

    def procedure():
        if galerkin:
            return galerkin_solve(coarse, problem, solver=config.solver)
        ops = IterationOperators(problem, coarse, fine_space, solver=config.solver)
        return run_correction_iteration(ops, k).current

    try:
        # No numpy warning: every non-finite value is refused or marked in one line.
        with np.errstate(all="ignore"):
            coefficients, seconds = time_run(procedure)
            if config.error_against == "interpolant":
                reference = interpolate(fine_space, problem.exact_u)
                error = h1_distance(fine_space, coefficients, reference)
            else:
                error = h1_error(fine_space, coefficients, problem.exact_u, problem.exact_grad_u)
        if not math.isfinite(error):
            raise SolverError(f"the H1 error of the solution is {error}")
    except SolverError as exc:
        print(f"warning: M={M} failed: {exc}", file=sys.stderr)
        error, seconds = float("nan"), None
    return ExperimentRow(
        M=M, H=1.0 / M, l=config.l, s_or_r=s_or_r, k=k,
        dofs_coarse=coarse.n_dofs_total, dofs_fine=fine_space.n_dofs_total,
        h1_error=error, scaled_error=error * M**config.resolved_scale_exponent(),
        cpu_seconds=None if config.parallel else seconds,
    )


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Produce one ExperimentRow per mesh size in the configuration.

    Every row takes the same path.  Rows run one after another by default,
    so that cpu_seconds means something; with config.parallel up to
    POOL_SIZE rows run at once on threads and cpu_seconds is left blank;
    once a row raises, no row that has not started yet starts.
    A sweep whose largest row (the POOL_SIZE largest with config.parallel)
    would not fit in physical memory is refused before any row runs, rather
    than left to the OOM killer.
    """
    rows = sorted(map(config.row_bytes, config.M_list))
    need = _BASE_BYTES + sum(rows[-POOL_SIZE:] if config.parallel else rows[-1:])
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise UsageError(f"rows up to M = {max(config.M_list)} need ~{need / 2**30:.1f} GiB, "
                         f"more than the {memory / 2**30:.1f} GiB of physical memory")
    try:
        problem = get_problem(config.example)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if problem.exact_u is None or problem.exact_grad_u is None:
        raise UsageError(
            "the experiment tables need exact_u and exact_grad_u on the problem"
        )
    # Build the cached rules every row reads (a row's degrees do not depend on M)
    # before any row's timer starts, so no cpu_seconds holds an eigenvalue solve.
    degrees = [p for p, _ in config.spaces(config.M_list[0])]
    for p in degrees:
        default_assembly_quadrature(p)
    (error_quadrature if config.error_against == "exact" else norm_quadrature)(degrees[-1])
    if config.parallel:
        with ThreadPoolExecutor(max_workers=POOL_SIZE) as pool:
            return list(pool.map(lambda M: _run_single(problem, config, M), config.M_list))
    return [_run_single(problem, config, M) for M in config.M_list]


def _cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.6e}" if isinstance(value, float) else str(value)


def render_table(header: list[str], body: list[list], output_format: str) -> str:
    """The table as CSV, or as markdown when output_format is "markdown"."""
    body = [[_cell(value) for value in row] for row in body]
    if output_format == "markdown":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines.extend("| " + " | ".join(cells) + " |" for cells in body)
    else:
        lines = [",".join(cells) for cells in [header, *body]]
    return "\n".join(lines) + "\n"


def dof_table(M_list, degrees) -> tuple[list[str], list[list]]:
    """DOF counts per mesh size: the first degree also gets a column at the
    squared subdivision count (h = H^2), then one column per further degree."""
    if not degrees:
        raise UsageError("at least one degree is required")
    if not M_list:
        raise UsageError("at least one mesh size M is required")
    if len(set(degrees)) < len(degrees):
        raise UsageError(f"degrees must be distinct, got {', '.join(map(str, degrees))}")
    first = degrees[0]
    header = [
        "H",
        f"dof_H_p{first}",
        f"dof_Hsq_p{first}",
        *(f"dof_H_p{d}" for d in degrees[1:]),
    ]
    try:
        body = [
            [f"1/{M}", dof_count(M, first), dof_count(M * M, first),
             *(dof_count(M, d) for d in degrees[1:])]
            for M in M_list
        ]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return header, body


def _check_output_path(path: Optional[str]) -> None:
    """Refuse an --output that cannot be written before any row runs."""
    if not path:
        return
    if os.path.isdir(path):
        raise UsageError(f"--output {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise UsageError(f"--output {path!r}: no directory {parent!r}")
    if len(os.fsencode(os.path.basename(path))) > os.pathconf(parent, "PC_NAME_MAX") \
            or not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise UsageError(f"--output {path!r} cannot be written")


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _fine_factor(text: str) -> Union[int, str]:
    if text == "square":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"neither 'square' nor an integer: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Every refusal, argparse's own too, is one line on stderr and exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twolevelfem",
        description="Convergence experiments for two-level/two-grid solvers "
        "of -div(alpha grad u) + beta . grad u + gamma u = f on the unit square.",
    )
    parser.add_argument("--example",
                        help="built-in problem 1 or 2, or a path to a Python "
                        "file defining PROBLEM")
    parser.add_argument("--algorithm", default="two-level", choices=CHOICES["algorithm"],
                        help="(default %(default)s)")
    parser.add_argument("--l", type=int, default=3, metavar="L",
                        help="coarse polynomial degree (default %(default)s)")
    parser.add_argument("--s", type=int, metavar="S",
                        help="fine polynomial degree for two-level runs")
    parser.add_argument("--k", type=int, default=3, metavar="K",
                        help="number of correction rounds (default %(default)s)")
    parser.add_argument("--M", dest="M_list", type=_int_list, required=True, metavar="LIST",
                        help="comma-separated subdivision counts, e.g. 9,10,11,12")
    parser.add_argument("--fine-factor", type=_fine_factor, metavar="R",
                        help="two-grid mesh refinement factor, or 'square' for "
                        "r = M, i.e. h = H^2 (default %(default)s)")
    parser.add_argument("--scale-exponent", type=int, metavar="P",
                        help="report h1_error * M^P (default: s, 2l or l "
                        "depending on the algorithm)")
    parser.add_argument("--mesh-diagonal", choices=CHOICES["mesh_diagonal"],
                        help="cell diagonal orientation: up for slope +1, "
                        "down for slope -1 (default %(default)s)")
    parser.add_argument("--error-against", choices=CHOICES["error_against"],
                        help="H1 error reference: the nodal interpolant of the "
                        "exact solution, or the exact solution itself via "
                        "quadrature (default %(default)s)")
    parser.add_argument("--format", default="csv", choices=["csv", "markdown"])
    parser.add_argument("--output", metavar="PATH",
                        help="write the table to a file instead of stdout")
    parser.add_argument("--parallel", action="store_true",
                        help="compute rows concurrently; leaves cpu_seconds blank")
    parser.add_argument("--dof-table", action="store_true",
                        help="emit the DOF-count table instead of running experiments")
    parser.add_argument("--degrees", type=_int_list, default="3,4,5,6", metavar="LIST",
                        help="degrees for --dof-table (default %(default)s)")
    parser.set_defaults(**{f.name: f.default for f in fields(RunConfig)
                           if f.default is not MISSING})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rows = []
    try:
        _check_output_path(args.output)
        if args.dof_table:
            header, body = dof_table(args.M_list, args.degrees)
        elif args.example is None:
            raise UsageError("--example is required unless --dof-table is given")
        else:
            rows = run_experiment(RunConfig(**{f.name: getattr(args, f.name)
                                               for f in fields(RunConfig)}))
            header = CSV_COLUMNS
            body = [[getattr(row, name) for name in CSV_COLUMNS] for row in rows]
    except (UsageError, CoefficientError) as exc:
        parser.error(str(exc))
    text = render_table(header, body, args.format)
    if not args.output:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error(f"--output {args.output!r}: {exc.strerror or exc}")
    return 1 if any(r.failed for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
