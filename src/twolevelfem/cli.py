"""Command line front end producing the convergence and DOF tables.

Examples::

    twolevelfem --example 1 --algorithm two-level --l 3 --s 6 --k 3 \
        --M 9,10,11,12 --scale-exponent 6
    twolevelfem --example 2 --algorithm two-grid --l 3 --k 3 --M 9,10,11,12 \
        --fine-factor square --format markdown
    twolevelfem --dof-table --M 9,10,11,12 --degrees 3,4,5,6

Output is CSV by default (markdown behind --format), written to stdout or to
--output.  Exit status is 0 only if every requested row completed.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

from .algorithms import IterationOperators, galerkin_solve, run_correction_iteration
from .analysis import ExperimentRow, h1_distance, h1_error, time_run
from .assembly import CoefficientError, ProblemSpec
from .element import MAX_DEGREE
from .mesh import MAX_SUBDIVISIONS, build_structured_mesh, refine_nested
from .problems import get_problem
from .solver import SolverError
from .space import build_space, dof_count, interpolate

CSV_COLUMNS = [
    "M", "H", "l", "s_or_r", "k",
    "dofs_coarse", "dofs_fine", "h1_error", "scaled_error", "cpu_seconds",
]

THREAD_ENV_VAR = "TWOLEVEL_THREADS"


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
    output_format: str = "csv"
    output_path: Optional[str] = None
    parallel: bool = False
    mesh_diagonal: str = "up"
    error_against: str = "interpolant"

    def __post_init__(self):
        if self.algorithm not in ("galerkin", "two-grid", "two-level"):
            raise UsageError(f"unknown algorithm {self.algorithm!r}")
        if not self.M_list:
            raise UsageError("at least one mesh size M is required")
        if any(not 1 <= M <= MAX_SUBDIVISIONS for M in self.M_list):
            raise UsageError(
                f"mesh sizes must be in [1, {MAX_SUBDIVISIONS}], got {list(self.M_list)}"
            )
        if self.solver not in ("direct", "iterative"):
            raise UsageError(f"unknown solver choice {self.solver!r}")
        if self.output_format not in ("csv", "markdown"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        if self.mesh_diagonal not in ("down", "up"):
            raise UsageError(f"mesh diagonal must be 'down' or 'up', got {self.mesh_diagonal!r}")
        if self.error_against not in ("interpolant", "exact"):
            raise UsageError(
                f"error reference must be 'interpolant' or 'exact', got {self.error_against!r}"
            )
        if not 1 <= self.l <= MAX_DEGREE:
            raise UsageError(f"degree l must be in [1, {MAX_DEGREE}], got {self.l}")
        if self.algorithm != "galerkin" and self.k < 1:
            raise UsageError(f"iteration count must be >= 1, got {self.k}")
        if self.algorithm == "two-level":
            if self.s is None:
                raise UsageError("two-level runs need --s (fine degree)")
            if not self.l + 1 <= self.s <= MAX_DEGREE:
                raise UsageError(
                    f"fine degree must be in [{self.l + 1}, {MAX_DEGREE}], got {self.s}"
                )
        elif self.algorithm == "two-grid":
            if self.fine_factor != "square" and (
                not isinstance(self.fine_factor, int) or self.fine_factor < 2
            ):
                raise UsageError(
                    f"two-grid refinement factor must be >= 2 or 'square', "
                    f"got {self.fine_factor!r}"
                )
            fine_M = [M * self.resolved_fine_factor(M) for M in self.M_list]
            if max(fine_M) > MAX_SUBDIVISIONS:
                raise UsageError(
                    f"two-grid fine meshes must have at most {MAX_SUBDIVISIONS} "
                    f"subdivisions, got {fine_M}"
                )

    def resolved_fine_factor(self, M: int) -> int:
        """The two-grid refinement factor for coarse mesh size M."""
        return M if self.fine_factor == "square" else int(self.fine_factor)

    def resolved_scale_exponent(self) -> int:
        if self.scale_exponent is not None:
            return self.scale_exponent
        if self.algorithm == "two-level":
            return int(self.s)
        if self.algorithm == "two-grid" and self.fine_factor == "square":
            return 2 * self.l
        return self.l


def _run_single(problem: ProblemSpec, config: RunConfig, M: int,
                timed: bool = True) -> ExperimentRow:
    """One table row.  Mesh and space construction stay outside the timer;
    the timed procedure covers operator assembly and every linear solve."""
    mesh = build_structured_mesh(M, diagonal=config.mesh_diagonal)
    coarse = build_space(mesh, config.l)

    if config.algorithm == "galerkin":
        fine_space, s_or_r, k = coarse, config.l, 0

        def procedure():
            return galerkin_solve(coarse, problem, solver=config.solver)

    else:
        if config.algorithm == "two-level":
            s_or_r = config.s
            fine_space = build_space(mesh, config.s)
        else:
            s_or_r = config.resolved_fine_factor(M)
            fine_space = build_space(refine_nested(mesh, s_or_r), config.l)
        k = config.k

        def procedure():
            ops = IterationOperators(problem, coarse, fine_space, solver=config.solver)
            return run_correction_iteration(ops, k).current

    coarse_dofs, fine_dofs = coarse.n_dofs_total, fine_space.n_dofs_total
    try:
        if timed:
            coefficients, seconds = time_run(procedure)
        else:
            coefficients, seconds = procedure(), None
    except SolverError as exc:
        print(f"warning: M={M} failed: {exc}", file=sys.stderr)
        return ExperimentRow(
            M=M, H=1.0 / M, l=config.l, s_or_r=s_or_r, k=k,
            dofs_coarse=coarse_dofs, dofs_fine=fine_dofs,
            h1_error=float("nan"), scaled_error=float("nan"),
            cpu_seconds=None, failed=True,
        )

    if config.error_against == "interpolant":
        reference = interpolate(fine_space, problem.exact_u)
        error = h1_distance(fine_space, coefficients, reference)
    else:
        error = h1_error(fine_space, coefficients, problem.exact_u, problem.exact_grad_u)
    p = config.resolved_scale_exponent()
    return ExperimentRow(
        M=M, H=1.0 / M, l=config.l, s_or_r=s_or_r, k=k,
        dofs_coarse=coarse_dofs, dofs_fine=fine_dofs,
        h1_error=error, scaled_error=error * M**p,
        cpu_seconds=seconds, failed=False,
    )


def _worker_count() -> int:
    env = os.environ.get(THREAD_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError:
            raise UsageError(f"{THREAD_ENV_VAR} must be an integer, got {env!r}") from None
        if n >= 1:
            return n
        raise UsageError(f"{THREAD_ENV_VAR} must be >= 1, got {n}")
    return min(4, os.cpu_count() or 1)


def run_experiment(config: RunConfig) -> list[ExperimentRow]:
    """Produce one ExperimentRow per mesh size in the configuration.

    Sequential by default so the cpu_seconds column means something; with
    config.parallel the rows are computed concurrently (capped by the
    TWOLEVEL_THREADS environment variable) and cpu_seconds is left blank.
    """
    try:
        problem = get_problem(config.example)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if problem.exact_u is None or problem.exact_grad_u is None:
        raise UsageError(
            "the experiment tables need exact_u and exact_grad_u on the problem"
        )
    if config.parallel:
        with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
            futures = [
                pool.submit(_run_single, problem, config, M, False)
                for M in config.M_list
            ]
            return [f.result() for f in futures]
    return [_run_single(problem, config, M) for M in config.M_list]


def _format_float(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f"{value:.6e}"


def _row_cells(row: ExperimentRow) -> list[str]:
    return [
        str(row.M),
        _format_float(row.H),
        str(row.l),
        str(row.s_or_r),
        str(row.k),
        str(row.dofs_coarse),
        str(row.dofs_fine),
        _format_float(row.h1_error),
        _format_float(row.scaled_error),
        _format_float(row.cpu_seconds),
    ]


def rows_to_csv(rows: list[ExperimentRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_row_cells(r)) for r in rows)
    return "\n".join(lines) + "\n"


def _markdown_table(header: list[str], body: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(cells) + " |" for cells in body)
    return "\n".join(lines) + "\n"


def rows_to_markdown(rows: list[ExperimentRow]) -> str:
    return _markdown_table(CSV_COLUMNS, [_row_cells(r) for r in rows])


def dof_table(M_list, degrees) -> tuple[list[str], list[list]]:
    """DOF counts per mesh size: the first degree also gets a column at the
    squared subdivision count (h = H^2), then one column per further degree."""
    degrees = list(degrees)
    if not degrees:
        raise UsageError("at least one degree is required")
    if any(not 1 <= d <= MAX_DEGREE for d in degrees):
        raise UsageError(f"degrees must be in [1, {MAX_DEGREE}], got {degrees}")
    if any(M < 1 for M in M_list):
        raise UsageError(f"mesh sizes must be positive, got {list(M_list)}")
    first = degrees[0]
    header = [
        "H",
        f"dof_H_p{first}",
        f"dof_Hsq_p{first}",
        *(f"dof_H_p{d}" for d in degrees[1:]),
    ]
    body = []
    for M in M_list:
        body.append(
            [
                f"1/{M}",
                dof_count(M, first),
                dof_count(M * M, first),
                *(dof_count(M, d) for d in degrees[1:]),
            ]
        )
    return header, body


def _emit(text: str, output_path: Optional[str]) -> None:
    if output_path:
        with open(output_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_int_list(text: str, what: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated integer list, got {text!r}") from None


def _parse_fine_factor(text: str):
    if text == "square":
        return "square"
    try:
        return int(text)
    except ValueError:
        raise UsageError(
            f"--fine-factor must be 'square' or an integer, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twolevelfem",
        description="Convergence experiments for two-level/two-grid solvers "
        "of -div(alpha grad u) + beta . grad u + gamma u = f on the unit square.",
    )
    parser.add_argument("--example", default=None,
                        help="built-in problem 1 or 2, or a path to a Python "
                        "file defining PROBLEM")
    parser.add_argument("--algorithm", default="two-level",
                        choices=["galerkin", "two-grid", "two-level"])
    parser.add_argument("--l", type=int, default=3, metavar="L",
                        help="coarse polynomial degree (default 3)")
    parser.add_argument("--s", type=int, default=None, metavar="S",
                        help="fine polynomial degree for two-level runs")
    parser.add_argument("--k", type=int, default=3, metavar="K",
                        help="number of correction rounds (default 3)")
    parser.add_argument("--M", required=True, metavar="LIST",
                        help="comma-separated subdivision counts, e.g. 9,10,11,12")
    parser.add_argument("--fine-factor", default="square", metavar="R",
                        help="two-grid mesh refinement factor, or 'square' for "
                        "r = M, i.e. h = H^2 (default)")
    parser.add_argument("--scale-exponent", type=int, default=None, metavar="P",
                        help="report h1_error * M^P (default: s, 2l or l "
                        "depending on the algorithm)")
    parser.add_argument("--solver", default="direct", choices=["direct", "iterative"],
                        help="linear solver family (default direct)")
    parser.add_argument("--mesh-diagonal", default="up", choices=["down", "up"],
                        help="cell diagonal orientation: up for slope +1 "
                        "(default), down for slope -1")
    parser.add_argument("--error-against", default="interpolant",
                        choices=["interpolant", "exact"],
                        help="H1 error reference: the nodal interpolant of the "
                        "exact solution (default), or the exact solution "
                        "itself via quadrature")
    parser.add_argument("--format", default="csv", choices=["csv", "markdown"],
                        dest="output_format")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the table to a file instead of stdout")
    parser.add_argument("--parallel", action="store_true",
                        help="compute rows concurrently; leaves cpu_seconds blank")
    parser.add_argument("--dof-table", action="store_true",
                        help="emit the DOF-count table instead of running experiments")
    parser.add_argument("--degrees", default="3,4,5,6", metavar="LIST",
                        help="degrees for --dof-table (default 3,4,5,6)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.dof_table:
            header, body = dof_table(
                _parse_int_list(args.M, "--M"), _parse_int_list(args.degrees, "--degrees")
            )
            cells = [[str(c) for c in row] for row in body]
            if args.output_format == "markdown":
                text = _markdown_table(header, cells)
            else:
                text = "\n".join([",".join(header)] + [",".join(r) for r in cells]) + "\n"
            _emit(text, args.output)
            return 0

        if args.example is None:
            raise UsageError("--example is required unless --dof-table is given")
        config = RunConfig(
            example=args.example,
            algorithm=args.algorithm,
            l=args.l,
            s=args.s,
            k=args.k,
            M_list=_parse_int_list(args.M, "--M"),
            fine_factor=_parse_fine_factor(args.fine_factor),
            scale_exponent=args.scale_exponent,
            solver=args.solver,
            output_format=args.output_format,
            output_path=args.output,
            parallel=args.parallel,
            mesh_diagonal=args.mesh_diagonal,
            error_against=args.error_against,
        )
    except UsageError as exc:
        parser.error(str(exc))

    try:
        rows = run_experiment(config)
    except (UsageError, CoefficientError) as exc:
        parser.error(str(exc))
    if config.output_format == "markdown":
        text = rows_to_markdown(rows)
    else:
        text = rows_to_csv(rows)
    _emit(text, config.output_path)
    return 1 if any(r.failed for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
