"""The public names and the names the benchmark wraps all resolve.

perfbench/spans.py records per-layer spans by replacing module attributes
of the package; a wrap point that no longer resolves drops its metrics from
the benchmark without failing it, so a removal has to fail here instead.
A wrap point that resolves but is bypassed records nothing either, so a
few tiny rows are traced here too.  The benchmark worker imports a few more
names; without one of them every benchmark run stops, so those are checked
here as well.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import twolevelfem
from twolevelfem import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_all_names_resolve():
    missing = [name for name in twolevelfem.__all__ if not hasattr(twolevelfem, name)]
    assert missing == []


def load_spans():
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    return spans


def test_benchmark_wrap_points_resolve():
    spans = load_spans()
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, owner, attr, _, _ in spans.wrap_points()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_benchmark_wrap_points_are_on_the_pipeline_path():
    """A wrap point the pipeline bypasses resolves but records nothing, so
    three tiny rows must record every span name, and the iterative row's
    solves must reach the Krylov wrap point and no SuperLU factorization."""
    spans = load_spans()
    recorder = spans.Recorder()
    undo, missing = spans.install(recorder)
    try:
        for config in [
            cli.RunConfig("1", "two-level", 1, 2, 3, (2,)),
            cli.RunConfig("1", "two-grid", 1, None, 3, (2,), error_against="exact"),
            cli.RunConfig("1", "two-level", 1, 2, 3, (2,), solver="iterative"),
        ]:
            span = recorder.open_row()
            cli.run_experiment(config)
            recorder.close(span)
    finally:
        for action in undo:
            action()
    assert missing == set()
    assert {name for name, *_ in spans.wrap_points()} <= {s["name"] for s in recorder.spans}
    iterative = [s for s in recorder.spans if s["row"] == 2]
    solves = [s for s in iterative if s["name"] == "solver.solve"]
    assert solves and all("krylov_iters" in s["counts"] for s in solves)
    assert "solver.superlu" not in {s["name"] for s in iterative}


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


def test_src_modules_read_every_name_they_import():
    """Every name a module of the package binds by import is read in that
    module.  The one excuse is a wrap point: spans.py replaces the module
    attribute, so a name imported only to be wrapped there may go unread."""
    wrapped = {(owner.__name__, attr) for _, owner, attr, _, _ in load_spans().wrap_points()
               if isinstance(owner, types.ModuleType)}
    unread = []
    for path in sorted(Path(twolevelfem.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = f"twolevelfem.{path.stem}"
        unread += [f"{module}.{name}" for name in sorted(imported - read)
                   if (module, name) not in wrapped]
    assert unread == []


def test_every_src_definition_is_reachable():
    """Every top-level function and class of a module is read, as a name or
    an attribute, in some module of the package other than __init__.py, or
    is public in __all__: a definition whose last caller went is deleted
    with it rather than left behind."""
    paths = [path for path in sorted(Path(twolevelfem.__file__).parent.glob("*.py"))
             if path.name != "__init__.py"]
    defined, read = [], set(twolevelfem.__all__)
    for path in paths:
        tree = ast.parse(path.read_text())
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"twolevelfem.{module}.{name}" for module, name in defined if name not in read] == []


def test_package_import_leaves_scipy_special_out():
    """The quadrature computes its Gauss-Jacobi nodes with numpy, not
    scipy.special.roots_jacobi: importing scipy.special costs about 60 ms of
    the benchmark's roughly 0.29 s set-up and about 3 MB of resident memory,
    and nothing else in the package needs it.  A fresh interpreter shows
    what `import twolevelfem` loads."""
    probe = "import sys, twolevelfem; print('scipy.special' in sys.modules)"
    src = str(Path(twolevelfem.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    assert out.stdout.strip() == "False"
