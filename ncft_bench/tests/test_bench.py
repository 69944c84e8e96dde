"""Tests of the benchmark itself: every workload passes its checks at small
size, every check fails on a deliberately corrupted output, the tracer
accounts for its time, and the harness refuses to run without ncft."""

import contextlib
import copy
import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import tracer as tr
import workloads
from conftest import BENCH


class _Timer:
    def __call__(self, op):
        return contextlib.nullcontext()


def _small_round(cls, seed):
    wl = cls(seed, small=True)
    return wl, wl.round(wl.setup(0), _Timer())


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_passes_checks(name, seed):
    wl, out = _small_round(workloads.WORKLOADS[name], seed)
    assert wl.check(out) == []
    counts = wl.counts(out)
    assert counts["events"] > 0 and counts["riemann_solves"] > 0


@pytest.fixture(scope="module")
def load_out():
    return _small_round(workloads.CubicFrontLoad, 3)


@pytest.fixture(scope="module")
def elastic_out():
    return _small_round(workloads.ElasticitySystem, 3)


@pytest.fixture(scope="module")
def cubic_fans():
    """Solver fans of cubic data on both sides of both branch thresholds."""
    from ncft import models, riemann
    from ncft.kinetics import KineticFunction

    model = models.cubic_model()
    kin = KineticFunction(theta=0.5, nucleation_gamma=0.5)
    pairs = [(ul, f * ul) for ul in (1.0, -0.8, 0.6)
             for f in (-0.2, -0.3, -0.45, -0.6, 0.5, 1.2)]
    return [workloads._waves(riemann.solve_riemann(model, kin, [a], [b]))
            for a, b in pairs]


def _nonclassical(fans):
    for fan in fans:
        for k, w in enumerate(fan):
            if w["kind"] == checks.NONCLASSICAL:
                return fan, k
    raise AssertionError("no nonclassical wave in the sample")


def test_cff_check_catches_offset():
    assert checks.cff(0.75) == []
    assert checks.cff(0.75 + 1e-7)
    assert checks.cff(None)


def test_kinetic_check_catches_shifted_state(cubic_fans):
    fans = copy.deepcopy(cubic_fans)
    assert checks.cubic_kinetic_states(fans) == []
    fan, k = _nonclassical(fans)
    fan[k]["right"][0] += 1e-8
    assert checks.cubic_kinetic_states(fans)


def test_branch_check_catches_wrong_branch(cubic_fans):
    fans = copy.deepcopy(cubic_fans)
    assert checks.cubic_branch_choice(fans, nucleation=True) == []
    fan, k = _nonclassical(fans)
    fan[k]["kind"] = checks.CLASSICAL
    assert checks.cubic_branch_choice(fans, nucleation=True)
    # read against the no-nucleation threshold, fans between -0.375 u_l
    # and -0.25 u_l took the wrong branch
    assert checks.cubic_branch_choice(cubic_fans, nucleation=False)


def test_entropy_check_catches_expansive_shock():
    good = {"kind": checks.CLASSICAL, "left": [1.0], "right": [-0.3]}
    bad = dict(good, left=[-0.3], right=[1.0])
    assert checks.cubic_entropy([good]) == []
    assert checks.cubic_entropy([bad])


def test_mass_check_catches_moved_front(load_out):
    wl, out = load_out
    inp, result = out["inputs"], out["result"]
    states = [float(s[0]) for s in inp["states"]]
    fronts = checks.front_dicts(result.final)
    corr = [ev.mass_correction for ev in result.events]
    assert checks.cubic_mass_balance(states, inp["positions"], fronts,
                                     wl.T, corr) == []
    fronts[len(fronts) // 2]["x"] += 1e-4
    assert checks.cubic_mass_balance(states, inp["positions"], fronts,
                                     wl.T, corr)


def test_lyapunov_checks_catch_perturbed_values(load_out):
    _, out = load_out
    result, series = out["result"], out["series"]
    table = checks.lemma_weight_table(0.75, 0.1, 1.0)
    assert workloads._lyapunov_checks(out["inputs"]["model"], result,
                                      series, table) == []
    deltas = [r["delta"] for r in series["events"]]
    l0 = series["series"][0].lyapunov
    l1 = series["series"][-1].lyapunov
    deltas[0] += 1e-9
    assert checks.lyapunov_deltas(deltas, l0, l1)
    fronts = checks.front_dicts(result.final)
    roles = {"y": result.final.y_id, "z": result.final.z_id}
    init = checks.front_dicts(result.initial)
    roles0 = {"y": result.initial.y_id, "z": result.initial.z_id}
    weak = next(f for f in init if f["id"] not in roles0.values())
    weak["strength"] *= 1.0 + 1e-6
    assert checks.lyapunov_ends(init, roles0, fronts, roles, table, 0, l0,
                                l1)


def test_role_replay_follows_token_handover():
    events = [{"incoming_roles": {"5": "y"}, "outgoing_roles": {"9": "y",
                                                                "10": "z"}},
              {"incoming_roles": {"9": "y", "10": "z"},
               "outgoing_roles": {"12": "y"}}]
    assert checks.replay_roles({"y": 5}, events[:1]) == {"y": 9, "z": 10}
    assert checks.replay_roles({"y": 5}, events) == {"y": 12}


def test_fan_check_catches_broken_fans(elastic_out):
    _, out = elastic_out
    (a, b), fan = out["inputs"]["problems"][0], out["fans"][0]
    waves = workloads._waves(fan)
    assert len(waves) >= 2
    assert checks.fan_structure(waves, a.tolist(), b.tolist()) == []
    off = copy.deepcopy(waves)
    off[-1]["right"][0] += 1e-15
    assert checks.fan_structure(off, a.tolist(), b.tolist())
    swapped = [waves[1], waves[0]] + waves[2:]
    assert checks.fan_structure(swapped, a.tolist(), b.tolist())


def test_shock_check_catches_perturbed_speed(elastic_out):
    _, out = elastic_out
    shocks = [w for fan in out["fans"] for w in workloads._waves(fan)
              if w["kind"] in checks.SHOCKS]
    assert shocks and checks.psystem_shocks(shocks) == []
    bent = copy.deepcopy(shocks[0])
    bent["speed"] *= 1.0 + 1e-6
    assert checks.psystem_shocks([bent])
    classical = next(w for w in shocks if w["kind"] == checks.CLASSICAL)
    flipped = dict(classical, left=classical["right"],
                   right=classical["left"], speed=classical["speed"])
    assert checks.psystem_shocks([flipped])


def test_order_check_catches_swapped_fronts(elastic_out):
    _, out = elastic_out
    sets = list(workloads._front_sets(out["result"]))
    assert checks.fronts_ordered(sets) == []
    fronts = copy.deepcopy(sets[-1])
    fronts[0], fronts[1] = fronts[1], fronts[0]
    assert checks.fronts_ordered([fronts])


def test_tracer_wraps_every_binding_and_accounts_for_time():
    from ncft import curves, models

    original = models.eigen
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert models.eigen is not original
        assert curves.eigen is models.eigen
        with tracer.span("harness.op"):
            _small_round(workloads.CubicFrontLoad, 1)
    finally:
        tracer.uninstall()
    assert models.eigen is original and curves.eigen is original
    calls, self_s = tracer.self_times()
    names = tracer.names
    root = names.index("harness.op")
    total = tracer.end[0] - tracer.start[0]
    assert calls[root] == 1
    assert abs(self_s.sum() - total) <= 1e-9 * max(1.0, total)
    assert calls[names.index("tracking.resolve_interaction")] > 0
    assert tracer.counts["curves.hugoniot_curve"] >= \
        tracer.counts["curves.HugoniotCurve"] > 0


def test_harness_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ncft_bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "ncft_bench/run.py", "--workload", "cubic-configs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _main_result(capsys, monkeypatch, name, cls, trace=0):
    """Run the harness in-process on `cls` registered as `name`; return
    its last output line."""
    import run

    monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _spec_names(key):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_harness_prints_metrics_line(capsys, monkeypatch, trace, key):
    result = _main_result(
        capsys, monkeypatch, "cubic-front-load",
        functools.partial(workloads.CubicFrontLoad, small=True), trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * (1 + trace) * 6
    assert set(result["metrics"]) == _spec_names(key)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


class _FailingLoad(workloads.CubicFrontLoad):
    """The small load whose replay raises: a fault inside a timed call."""

    def round(self, inp, timed):
        with timed("init_fronts"):
            pass
        with timed("lyapunov_series"):
            raise FloatingPointError("replay diverged")


def test_harness_counts_failed_operations(capsys, monkeypatch):
    result = _main_result(capsys, monkeypatch, "failing",
                          functools.partial(_FailingLoad, small=True))
    # two rounds of two attempted calls, each ending in the failed one
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"] == {}
    # correct speaks of the rounds whose operations all completed: none
    assert result["correct"]
