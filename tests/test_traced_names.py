"""Every name the benchmark reads from passageqa still exists.

`bench/tracer.py` wraps passageqa functions by module and name, and reports
a name it cannot find as absent instead of failing.  `bench/workloads.py`
calls passageqa module attributes, and a missing one fails only once a
workload runs.  These tests make such a rename or removal fail here, without
running a benchmark workload.
"""
import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_every_passageqa_attribute_the_workloads_read_resolves():
    """Each `module.name` read in bench/workloads.py, for each passageqa
    module it imports, is an attribute of that module."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: importlib.import_module(f"passageqa.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "passageqa"
               for alias in node.names}
    reads = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules}
    assert modules and reads
    assert [f"{module}.{name}" for module, name in sorted(reads)
            if not hasattr(modules[module], name)] == []
