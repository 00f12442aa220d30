"""The public names and the names the benchmark wraps all resolve.

perfbench/spans.py records per-layer spans by replacing module attributes
of the package; a wrap point that no longer resolves drops its metrics from
the benchmark without failing it, so a removal has to fail here instead.
"""

import importlib.util
from pathlib import Path

import twolevelfem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
