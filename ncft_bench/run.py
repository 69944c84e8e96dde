"""ncft benchmark: run one workload at one seed and print its metrics.

    python3 ncft_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Rounds of the workload repeat until S seconds of rounds have passed (at
least two rounds). Each round builds fresh inputs from the seed, times its
calls into ncft and checks their outputs. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (end-to-end
metrics untraced, per-layer metrics with --trace 1). A timed call that
raises counts as a failed operation and ends its round; `correct` speaks of
the rounds whose operations all completed.

End-to-end times are scaled to a reference host speed: the shared host this
benchmark was built on runs the same code up to 40 % faster or slower from
one minute to the next, so a fixed computation that does not touch ncft is
timed before and after every timed call, and the call's time is multiplied
by REFERENCE_S over the mean of those two readings. The import part of
setup_s is scaled alike, against the import of ncft's dependencies alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# median time of _reference() on the host the reference figures come from
REFERENCE_S = 0.015
# setup_s times the import of the workloads in IMPORT_PAIRS fresh
# interpreters, each followed by one importing only ncft's dependencies;
# the latter's median time on the reference host:
IMPORT_PAIRS = 2
DEPENDENCIES = "numpy, scipy.optimize"
REFERENCE_IMPORT_S = 0.8

RATES = {
    "riemann_solves_per_s": "riemann_solves",
    "conformance_samples_per_s": "conformance_samples",
    "tracked_events_per_s": "events",
    "replayed_events_per_s": "replayed_events",
}


def _median(values) -> float:
    return float(statistics.median(values))


def _import_seconds(modules: str) -> float:
    """Seconds a fresh interpreter takes to import `modules`, timed inside
    that interpreter. Its BLAS runs on one thread: the thread pool OpenBLAS
    starts at import spins on the shared cores and made the figure follow
    the host's load."""
    code = ("import time\n"
            "t0 = time.perf_counter()\n"
            f"import {modules}\n"
            "print(time.perf_counter() - t0)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def _import_pair() -> tuple:
    """Import seconds of the workloads (ncft, numpy, scipy and the
    checks) and, right after, of ncft's dependencies alone. The second
    reads the host's current speed at importing, as _reference() does for
    computing: import time does not follow _reference()."""
    return _import_seconds("workloads"), _import_seconds(DEPENDENCIES)


def _reference() -> float:
    """Seconds taken by a fixed computation in the style of ncft's inner
    loops (small numpy arrays, a 2x2 solve, Python arithmetic) that calls
    no ncft code: a reading of the host's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        u = np.atleast_1d(np.asarray([0.001 * i - 0.5], dtype=float))
        lam = np.array([3.0 * u[0] ** 2])
        r = np.array([[1.0, 0.5], [0.25, 2.0]])
        acc += float(np.linalg.solve(r, np.array([lam[0], 1.0]))[0])
        acc += float(u @ u)
    return time.perf_counter() - t0


def _host_reading() -> float:
    """Median of three _reference() times."""
    return _median([_reference() for _ in range(3)])


class Round:
    """Times the operations of one round and reads the host speed before
    each of them and after the last; in a traced round each operation is
    also a root span owning the time outside the wrapped functions. An
    operation that raises is counted in `failed` and re-raised."""

    def __init__(self, tracer=None):
        self.times = {}
        self.scaled = {}
        self.calls = 0
        self.failed = 0
        self.tracer = tracer
        self._reading = None

    @contextlib.contextmanager
    def __call__(self, op: str):
        if self._reading is None:
            self._reading = _host_reading()
        span = (self.tracer.span(f"harness.{op}") if self.tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                yield
        except Exception:
            self.failed += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self.times[op] = self.times.get(op, 0.0) + dt
            self.calls += 1
        before, self._reading = self._reading, _host_reading()
        # seconds at reference speed, from the readings around the call
        scale = 2.0 * REFERENCE_S / (before + self._reading)
        self.scaled[op] = self.scaled.get(op, 0.0) + scale * dt

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled.values())


def run_round(workload, k: int, tracer=None) -> tuple:
    """Set up round k and make its timed calls, traced if a tracer is
    given. Returns (set-up seconds, Round timer, outputs); the outputs are
    None when an operation failed."""
    t0 = time.perf_counter()
    inputs = workload.setup(k)
    setup_s = time.perf_counter() - t0
    timer = Round(tracer)
    if tracer:
        tracer.install()
    try:
        out = workload.round(inputs, timer)
    except Exception as exc:
        if not timer.failed:
            raise  # raised outside the timed calls: a fault of the harness
        print(f"round {k}: operation failed: {exc!r}", file=sys.stderr)
        out = None
    finally:
        if tracer:
            tracer.uninstall()
    return setup_s, timer, out


def run_rounds(workload, seconds: float, tracer=None) -> dict:
    """Repeat rounds until `seconds` of rounds have passed, at least two,
    and check every round whose operations all completed. With a tracer,
    round k runs twice on the same inputs, untraced and traced, in an order
    that alternates with k. Returns the set-up times, timers and counts of
    the completed rounds ("traced" holds the traced ones, "pairs" the
    (untraced, traced) timers of pairs that both completed), the failed
    checks, and the operations attempted and failed."""
    run = {"setups": [], "rounds": [], "traced": [], "pairs": [],
           "counts": [], "bad": [], "attempted": 0, "failed": 0}
    prints = []
    t_end = time.monotonic() + seconds
    k = 0
    while k < 2 or time.monotonic() < t_end:
        order = [None, tracer] if k % 2 == 0 else [tracer, None]
        pair = {}
        for mode in (order if tracer else [None]):
            setup_s, timer, out = run_round(workload, k, mode)
            run["attempted"] += timer.calls
            run["failed"] += timer.failed
            if out is None:
                continue
            t0 = time.monotonic()
            run["traced" if mode else "rounds"].append(timer)
            pair[mode is not None] = timer
            if mode or not tracer:
                run["setups"].append(setup_s)
                run["counts"].append(workload.counts(out))
            run["bad"] += workload.check(out)
            if workload.fingerprint is not None:
                prints.append(workload.fingerprint(out))
                if prints[-1] != prints[0]:
                    run["bad"].append(f"round {k} repeated the inputs of "
                                      "the first round but gave different "
                                      "outputs")
            del out
            # checking is not measuring: the run still measures `seconds`
            t_end += time.monotonic() - t0
        if len(pair) == 2:
            run["pairs"].append((pair[False], pair[True]))
        k += 1
    return run


def rate(rounds, counts, key: str, ops: tuple) -> float:
    """Units of work over reference-speed seconds of the operations that
    produce them, pooled over the rounds, whose inputs differ."""
    return (sum(c[key] for c in counts) /
            sum(r.scaled[op] for r in rounds for op in ops))


def end_to_end(time_ops, imports, run) -> dict:
    rounds, counts = run["rounds"], run["counts"]
    m = {
        # imports at the reference host's import speed, plus round set-up
        "setup_s": (REFERENCE_IMPORT_S * _median([a / b for a, b in imports])
                    + _median(run["setups"]), "s"),
        "wall_s": (_median([r.scaled_wall for r in rounds]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for metric, key in RATES.items():
        m[metric] = (rate(rounds, counts, key, time_ops[key]), "1/s")
    return m


def per_layer(tracer, run) -> dict:
    import tracer as tr

    untraced, traced, counts = run["rounds"], run["traced"], run["counts"]
    calls, self_s = tracer.self_times()
    n = len(traced)
    by_name = {name: (int(calls[i]), float(self_s[i]))
               for i, name in enumerate(tracer.names)}
    m = {}
    layers = {}
    for modname, funcs in tr.WRAPPED.items():
        for func in funcs:
            c, s = by_name.get(f"{modname}.{func}", (0, 0.0))
            m[f"{modname}.{func}.calls"] = (c / n, "count")
            m[f"{modname}.{func}.self_s"] = (s / n, "s")
            layers[modname] = layers.get(modname, 0.0) + s / n
    harness = sum(s for name, (_, s) in by_name.items()
                  if name.startswith("harness.")) / n
    for modname, s in layers.items():
        m[f"layer.{modname}.self_s"] = (s, "s")
    m["layer.harness.self_s"] = (harness, "s")
    requests = tracer.counts["curves.hugoniot_curve"]
    built = tracer.counts["curves.HugoniotCurve"]
    m["curves.hugoniot_curve.hit_ratio"] = (
        1.0 - built / requests if requests else 0.0, "ratio")
    solves = by_name.get("riemann.solve_riemann", (0, 0.0))[0]
    points = by_name.get("riemann.wave_curve_point", (0, 0.0))[0]
    m["riemann.wave_curve_point.per_solve"] = (
        points / solves if solves else 0.0, "ratio")
    m["kinetics.check_hypotheses.usable_ratio"] = (
        sum(c["n_usable"] for c in counts) /
        sum(c["conformance_samples"] for c in counts), "ratio")
    m["tracking.events"] = (sum(c["events"] for c in counts) / n, "count")
    m["tracking.fronts_max"] = (max(c["fronts_max"] for c in counts),
                                "count")
    # raw means, the base the per-round self times add up to
    m["trace.wall_s"] = (sum(r.wall for r in traced) / n, "s")
    m["trace.untraced_wall_s"] = (
        sum(r.wall for r in untraced) / len(untraced), "s")
    # the two rounds of a pair share their inputs and run back to back, in
    # alternating order, so drift of the host cancels in the median; raw
    # times, since one round's host readings scatter more than the overhead
    m["trace.overhead_s"] = (_median(
        [t.wall - u.wall for u, t in run["pairs"]]), "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ncft")):
        print(f"ncft sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    _reference()  # the first call loads numpy's linear algebra

    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        run = run_rounds(workload, args.seconds, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.npz"))
        metrics = per_layer(tracer, run) if run["pairs"] else {}
    else:
        imports = [_import_pair() for _ in range(IMPORT_PAIRS)]
        run = run_rounds(workload, args.seconds)
        metrics = (end_to_end(workload.TIME_OPS, imports, run)
                   if run["rounds"] else {})
    for msg in run["bad"][:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not run["bad"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    rounds = run["rounds"]
    if rounds:
        print(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "rounds": len(rounds), "trace": args.trace,
            "raw_import_s": (None if args.trace else
                             _median([a for a, _ in imports])),
            "host_scale": _median([r.scaled_wall / r.wall for r in rounds]),
            "raw_wall_s": _median([r.wall for r in rounds]),
            "raw_op_seconds": {op: _median([r.times[op] for r in rounds])
                               for op in rounds[0].times}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
