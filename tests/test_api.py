"""The public names and the names the benchmark wraps all resolve.

perfbench/spans.py records per-layer spans by replacing module attributes
of the package; a wrap point that no longer resolves drops its metrics from
the benchmark without failing it, so a removal has to fail here instead.
The benchmark worker imports a few more names; without one of them every
benchmark run stops, so those are checked here too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import twolevelfem

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_all_names_resolve():
    missing = [name for name in twolevelfem.__all__ if not hasattr(twolevelfem, name)]
    assert missing == []


def test_benchmark_wrap_points_resolve():
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr, _, _ in spans.wrap_points()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def package_names_used(path: Path) -> set[str]:
    """"module.name" for every name of twolevelfem that the file at `path`
    imports, reads or sets: `from twolevelfem.m import n` gives "m.n", and
    so does `m.n` after `from twolevelfem import m`."""
    tree = ast.parse(path.read_text())
    modules, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twolevelfem"):
            for alias in node.names:
                if node.module == "twolevelfem":
                    modules.add(alias.asname or alias.name)
                else:
                    used.add(f"{node.module.removeprefix('twolevelfem.')}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add(f"{node.value.id}.{node.attr}")
    return used


def test_benchmark_worker_imports_resolve():
    used = package_names_used(PERFBENCH / "worker.py")
    used |= package_names_used(PERFBENCH / "workloads.py")
    assert {
        "analysis.error_quadrature", "assembly.default_assembly_quadrature",
        "element.build_reference_element", "cli.time_run", "cli.RunConfig",
        "cli.run_experiment", "cli.get_problem",
    } <= used
    missing = []
    for name in sorted(used):
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"twolevelfem.{module}"), attr):
            missing.append(name)
    assert missing == []
