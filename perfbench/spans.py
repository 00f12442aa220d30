"""Span recorder and the wrap points that feed it.

The benchmark traces the program from outside: it replaces each layer's
public functions, at the module attribute through which the pipeline calls
them, with a wrapper that records a span around the call.  Spans nest by
call order (the pipeline is single threaded), stay in memory, and are
written out with the run's results.  Counts are attached to the span of the
call that did the work, read from the call's arguments and return value:
for the solver these are the SolveReport objects the wrapped calls return.

A wrap point the program no longer has is recorded as missing, and every
metric built from it is left out of the results rather than reported as 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Optional


class Recorder:
    """Spans of one traced run.  Each span is a dict with an id, name, row
    id, parent id, start and end (perf_counter seconds) and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.row = -1
        self.overhead_s = 0.0   # time the wrappers spend outside the calls they time

    def open_row(self) -> dict:
        """Open the root span of a new row; its spans share the row id."""
        self.row += 1
        return self.open("cli.row")

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "row": self.row,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.
    Children never overlap each other, because calls nest."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _wrap(recorder: Recorder, owner, attr: str, name: str,
          count: Optional[Callable] = None, count_error: Optional[Callable] = None):
    """Replace owner.attr by a span-recording wrapper; return an undo action."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        entered = time.perf_counter()
        span = recorder.open(name)
        recorder.overhead_s += span["start"] - entered
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            if count_error is not None:
                count_error(span["counts"], exc)
            raise
        finally:
            recorder.close(span)
        if count is not None:
            count(span["counts"], args, result)
        recorder.overhead_s += time.perf_counter() - span["end"]
        return result

    setattr(owner, attr, wrapper)
    return lambda: setattr(owner, attr, original)


# --- counts read at the wrap points -------------------------------------

def _triangles(counts, args, mesh):
    counts["triangles"] = mesh.n_triangles


def _prolong_nnz(counts, args, prolongation):
    counts["nnz"] = prolongation.matrix.nnz


def _local_entries(counts, args, result):
    space = args[0]
    counts["local_entries"] = space.mesh.n_triangles * space.element.n_basis ** 2


def _operators(counts, args, result):
    counts["nnz_fine"] = args[0].A_fine.nnz


def _lu_nnz(counts, args, result):
    lu = getattr(args[0], "_lu", None)
    if lu is not None:
        counts["lu_nnz"] = lu.nnz


def _report(counts, report):
    key = "refinements" if report.method == "direct" else "krylov_iters"
    counts[key] = report.iterations
    counts["residual"] = report.relative_residual


def _solve_report(counts, args, result):
    _report(counts, result[1])


def _solve_error(counts, exc):
    if getattr(exc, "report", None) is not None:
        _report(counts, exc.report)


def _final_residual(counts, args, state):
    if state.residual_history:
        counts["final_residual"] = state.residual_history[-1]


def wrap_points():
    """(span name, owner, attribute, count hook, error hook) for every layer
    boundary the pipeline crosses, named as the pipeline names them."""
    from twolevelfem import algorithms, analysis, assembly, cli, solver, space

    return [
        ("mesh.build", cli, "build_structured_mesh", _triangles, None),
        ("mesh.build", cli, "refine_nested", _triangles, None),
        ("element.tabulate", assembly, "tabulate_basis", None, None),
        ("element.tabulate", analysis, "tabulate_basis", None, None),
        ("element.tabulate", space, "tabulate_basis", None, None),
        ("space.build", cli, "build_space", None, None),
        ("space.prolong", algorithms, "build_prolongation", _prolong_nnz, None),
        ("algorithms.operators", algorithms.IterationOperators, "__init__", _operators, None),
        ("algorithms.rounds", cli, "run_correction_iteration", _final_residual, None),
        ("algorithms.correction", algorithms.IterationOperators, "correction", None, None),
        ("algorithms.update", algorithms.IterationOperators, "update", None, None),
        ("algorithms.residual", algorithms.IterationOperators, "fine_residual", None, None),
        ("assembly.stiffness", algorithms, "assemble_stiffness", _local_entries, None),
        ("assembly.nonsym", algorithms, "assemble_nonsym", _local_entries, None),
        ("assembly.load", algorithms, "assemble_load", None, None),
        ("assembly.stiffness", analysis, "assemble_stiffness", _local_entries, None),
        ("assembly.nonsym", analysis, "assemble_nonsym", _local_entries, None),
        ("solver.factor", algorithms, "make_factor", None, None),
        ("solver.superlu", solver.DirectFactor, "__init__", _lu_nnz, None),
        ("solver.solve", solver.DirectFactor, "solve", _solve_report, _solve_error),
        ("solver.solve", solver, "_krylov_solve", _solve_report, _solve_error),
        ("analysis.reference", cli, "interpolate", None, None),
        ("analysis.error", cli, "h1_distance", None, None),
        ("analysis.error", cli, "h1_error", None, None),
    ]


def install(recorder: Recorder) -> tuple[list, set]:
    """Install every wrap point; return undo actions and the span names
    with at least one missing wrap point."""
    undo, missing = [], set()
    for name, owner, attr, count, count_error in wrap_points():
        if not callable(getattr(owner, attr, None)):
            missing.add(name)
            continue
        undo.append(_wrap(recorder, owner, attr, name, count, count_error))
    return undo, missing


# --- per-layer metrics ----------------------------------------------------

# metric -> (unit, span names it is built from)
LAYER_METRICS = {
    "mesh.build_s": ("s", ["mesh.build"]),
    "mesh.triangles": ("count", ["mesh.build"]),
    "element.tabulate_s": ("s", ["element.tabulate"]),
    "element.tabulate_calls": ("count", ["element.tabulate"]),
    "space.build_s": ("s", ["space.build"]),
    "space.prolong_s": ("s", ["space.prolong"]),
    "space.dofs_fine": ("count", []),
    "space.dofs_coarse": ("count", []),
    "space.prolong_nnz": ("count", ["space.prolong"]),
    "assembly.stiffness_s": ("s", ["assembly.stiffness"]),
    "assembly.nonsym_s": ("s", ["assembly.nonsym"]),
    "assembly.load_s": ("s", ["assembly.load"]),
    "assembly.calls": ("count", ["assembly.stiffness", "assembly.nonsym", "assembly.load"]),
    "assembly.local_entries": ("count", ["assembly.stiffness", "assembly.nonsym"]),
    "assembly.nnz_fine": ("count", ["algorithms.operators"]),
    "solver.factor_s": ("s", ["solver.factor"]),
    "solver.lu_nnz": ("count", ["solver.superlu"]),
    "solver.solve_s": ("s", ["solver.solve"]),
    "solver.solves": ("count", ["solver.solve"]),
    "solver.refinements": ("count", ["solver.solve"]),
    "solver.krylov_iters": ("count", ["solver.solve"]),
    "solver.residual_max": ("ratio", ["solver.solve"]),
    "algorithms.operators_s": ("s", ["algorithms.operators"]),
    "algorithms.operators_self_s": ("s", [
        "algorithms.operators", "space.prolong", "assembly.stiffness",
        "assembly.nonsym", "assembly.load", "solver.factor"]),
    "algorithms.rounds_s": ("s", ["algorithms.rounds"]),
    "algorithms.correction_s": ("s", ["algorithms.correction"]),
    "algorithms.update_s": ("s", ["algorithms.update"]),
    "algorithms.residual_s": ("s", ["algorithms.residual"]),
    "algorithms.final_residual": ("ratio", ["algorithms.rounds"]),
    "analysis.error_s": ("s", ["analysis.error", "analysis.reference"]),
    "analysis.reassembly_s": ("s", ["analysis.error", "assembly.stiffness", "assembly.nonsym"]),
    "cli.row_s": ("s", []),
    "cli.row_self_s": ("s", [
        "mesh.build", "space.build", "algorithms.operators", "algorithms.rounds",
        "analysis.error", "analysis.reference"]),
    "trace.overhead_s": ("s", []),
}


def layer_metrics(spans: list[dict], rows: list[dict], missing: set,
                  overhead_s: float) -> dict:
    """Per-layer metrics of one traced sweep (its spans and checked rows),
    summed over its rows.  Metrics built from a missing wrap point are left
    out."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def total(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def self_total(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name)

    def count(name, key=None):
        if key is None:
            return sum(1 for s in spans if s["name"] == name)
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def largest(name, key):
        return max((s["counts"][key] for s in spans
                    if s["name"] == name and key in s["counts"]), default=0.0)

    matrices = ("assembly.stiffness", "assembly.nonsym")
    values = {
        "mesh.build_s": total("mesh.build"),
        "mesh.triangles": count("mesh.build", "triangles"),
        "element.tabulate_s": total("element.tabulate"),
        "element.tabulate_calls": count("element.tabulate"),
        "space.build_s": total("space.build"),
        "space.prolong_s": total("space.prolong"),
        "space.dofs_fine": sum(r["dofs_fine"] for r in rows),
        "space.dofs_coarse": sum(r["dofs_coarse"] for r in rows),
        "space.prolong_nnz": count("space.prolong", "nnz"),
        "assembly.stiffness_s": total("assembly.stiffness"),
        "assembly.nonsym_s": total("assembly.nonsym"),
        "assembly.load_s": total("assembly.load"),
        "assembly.calls": sum(count(n) for n in (*matrices, "assembly.load")),
        "assembly.local_entries": sum(count(n, "local_entries") for n in matrices),
        "assembly.nnz_fine": count("algorithms.operators", "nnz_fine"),
        "solver.factor_s": total("solver.factor"),
        "solver.lu_nnz": count("solver.superlu", "lu_nnz"),
        "solver.solve_s": total("solver.solve"),
        "solver.solves": count("solver.solve"),
        "solver.refinements": count("solver.solve", "refinements"),
        "solver.krylov_iters": count("solver.solve", "krylov_iters"),
        "solver.residual_max": largest("solver.solve", "residual"),
        "algorithms.operators_s": total("algorithms.operators"),
        "algorithms.operators_self_s": self_total("algorithms.operators"),
        "algorithms.rounds_s": total("algorithms.rounds"),
        "algorithms.correction_s": total("algorithms.correction"),
        "algorithms.update_s": total("algorithms.update"),
        "algorithms.residual_s": total("algorithms.residual"),
        "algorithms.final_residual": largest("algorithms.rounds", "final_residual"),
        "analysis.error_s": total("analysis.error", "analysis.reference"),
        "analysis.reassembly_s": sum(
            s["end"] - s["start"] for s in spans
            if s["name"] in matrices and s["parent"] is not None
            and by_id[s["parent"]]["name"] == "analysis.error"),
        "cli.row_s": total("cli.row"),
        "cli.row_self_s": self_total("cli.row"),
        "trace.overhead_s": overhead_s,
    }
    return {name: values[name] for name, (_, needs) in LAYER_METRICS.items()
            if not missing.intersection(needs)}


def self_time_gaps(spans: list[dict]) -> dict[int, float]:
    """Per row: |sum of span self times - row wall time|, which is 0 up to
    rounding when every span of the row nests inside its cli.row span."""
    own = self_times(spans)
    sums, walls = defaultdict(float), {}
    for s in spans:
        sums[s["row"]] += own[s["id"]]
        if s["name"] == "cli.row":
            walls[s["row"]] = s["end"] - s["start"]
    return {row: abs(sums[row] - wall) for row, wall in walls.items()}
