"""The names of ncft that the benchmark harness in ncft_bench/ calls or
wraps must exist, so that dropping one fails here and not only in the
harness's own tests or a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "ncft_bench"


def _wrapped_names() -> set:
    """module.function for every function the tracer wraps, plus the
    Hugoniot curve names it counts."""
    spec = importlib.util.spec_from_file_location("_bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = {f"{mod}.{func}" for mod, funcs in tracer.WRAPPED.items()
             for func in funcs}
    return names | {"curves.hugoniot_curve", "curves.HugoniotCurve"}


def _workload_names() -> set:
    """module.attribute for every attribute of an ncft module that
    workloads.py reads, through the names it imports the modules as."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ncft":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
    return {f"{modules[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_the_benchmark_finds_every_name_it_uses():
    names = _wrapped_names() | _workload_names()
    assert len(names) >= 30
    missing = []
    for name in sorted(names):
        mod, attr = name.split(".")
        if not hasattr(importlib.import_module(f"ncft.{mod}"), attr):
            missing.append(name)
    assert missing == []
