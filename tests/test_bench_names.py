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


# the fields ncft_bench/workloads.py reads off run results, events, front
# sets, fans and reports, by the class that carries them
BENCH_FIELDS = {
    "RunResult": ("initial", "final", "events", "snapshots"),
    "InteractionEvent": ("post", "outgoing", "mass_correction"),
    "FrontSet": ("y_id", "z_id", "fronts"),
    "WaveFan": ("waves",),
    "ConformanceReport": ("grid", "measured_Cff", "passed"),
    "DiagnosticsSnapshot": ("lyapunov",),
}


def test_the_benchmark_finds_every_field_it_reads():
    import numpy as np

    from ncft import diagnostics, kinetics, models, tracking

    model = models.cubic_model()
    kin = kinetics.KineticFunction(theta=0.5, nucleation_gamma=0.5)
    states = [np.array([1.0]), np.array([-0.368]), np.array([-0.388])]
    fronts0 = tracking.init_fronts(model, kin, states, [0.0, 0.05], h=0.01,
                                   strong_jumps=[0])
    result = tracking.run(model, kin, fronts0, t_end=0.3)
    assert result.events
    report = kinetics.check_hypotheses(
        model, kin, kinetics.default_samples(model, n=20))
    series = diagnostics.lyapunov_series(
        model, result.events, result.snapshots,
        diagnostics.lemma_weights(report.measured_Cff))
    found = {
        "RunResult": result,
        "InteractionEvent": result.events[0],
        "FrontSet": result.final,
        "WaveFan": result.events[0].outgoing,
        "ConformanceReport": report,
        "DiagnosticsSnapshot": series["series"][0],
    }
    assert {cls: type(obj).__name__ for cls, obj in found.items()} == \
        {cls: cls for cls in BENCH_FIELDS}
    missing = [f"{cls}.{field}" for cls, fields in BENCH_FIELDS.items()
               for field in fields if not hasattr(found[cls], field)]
    assert missing == []
