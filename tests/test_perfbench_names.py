# tests/test_perfbench_names.py
"""The benchmark in perfbench/ reaches into the library by name: the traced
entry points of spans._targets(), the per-check metrics of
spans.REPORTED_CHECKS and the names its scripts import.  These tests read
those files without changing them, so a rename or deletion under src/ that
would break `perfbench/run.py` fails here first."""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from polargrass import counting

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = ("workloads.py", "run.py", "probe.py", "record.py", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _library_names(path):
    """(module, name) for each polargrass name the script imports or reads
    off the package returned by import_polargrass()."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("polargrass"):
            out += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.startswith("polargrass")]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pg":
            out.append(("polargrass", node.attr))
    return out


def test_traced_entry_points_resolve():
    spans = _load_spans()
    targets = spans._targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
    assert set(spans.REPORTED_CHECKS) <= set(counting.CHECKS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_benchmark_imports_resolve(script):
    for module, name in _library_names(PERFBENCH / script):
        mod = importlib.import_module(module)
        if name is not None:
            assert hasattr(mod, name), f"{script}: {module}.{name} is gone"


def test_workloads_reach_the_library():
    names = _library_names(PERFBENCH / "workloads.py")
    assert ("polargrass", "standard_code") in names
    assert ("polargrass.counting", "run_checks") in names
