"""The benchmark's hooks into the library still exist.

``perfbench/tracer.py`` times library stages by swapping named functions in
the module namespaces the battery code calls them from, and
``perfbench/workloads.py`` calls the package's public names.  A refactor that
drops one of those names stops the benchmark, which otherwise only the slow
``python3 -m pytest perfbench`` run would show.  These tests read both files
and never change them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import layercast

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patches = tracer.Tracer()._patches()
    assert patches
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in patches
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_name_the_workloads_use_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "layercast"
    }
    assert aliases
    used = [
        (layercast, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    used += [
        (importlib.import_module(node.module), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("layercast")
        for alias in node.names
    ]
    assert used
    missing = [f"{module.__name__}.{name}" for module, name in used if not hasattr(module, name)]
    assert missing == []
