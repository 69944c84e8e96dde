"""Config validation, the experiment pipeline, sweeps, and the click entry."""

import concurrent.futures
import copy
import csv
import hashlib
import importlib
import json
import os
import subprocess
import sys
import types
from importlib.resources import files

import click
import pytest
from click.testing import CliRunner

from ncft import cli, curves, models, riemann, tracking
from ncft import diagnostics as dg
from ncft.__main__ import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def base_cfg(**over):
    """Small cubic run: strong split at x=0 plus one weak shock at x=0.05."""
    cfg = {
        "schema_version": 1,
        "model": {"name": "cubic", "params": {}},
        "kinetics": {"theta": 0.5, "gamma": 0.5},
        "h": 0.01,
        "T": 0.3,
        "initial": {
            "u_star": [1.0],
            "main": [0.0, [-1.368]],
            "jumps": [[0.05, [-0.02]]],
            "scale": 1.0,
        },
        "weights": {"zeta": 0.1, "K": 1.0},
        "seed": 0,
        "calibration": {"n": 16},
        "snapshot_dt": 0.1,
    }
    cfg.update(over)
    return cfg


def validated(**over):
    return cli.validate_config(base_cfg(**over))


# ---------------------------------------------------------------- validation


def test_criteria_table_covers_thirteen():
    assert list(cli.CRITERIA) == [f"c{i:02d}" for i in range(1, 14)]
    assert len(set(cli.CRITERIA.values())) == 13


def test_bundled_configs_validate():
    cfg_dir = files("ncft").joinpath("configs")
    names = sorted(p.name for p in cfg_dir.iterdir() if p.name.endswith(".json"))
    assert names == ["cubic-baseline.json", "cubic-no-nucleation.json"]
    for name in names:
        cfg = cli.validate_config(json.loads(cfg_dir.joinpath(name).read_text()))
        assert cfg["schema_version"] == 1
        json.dumps(cfg)


def _fresh_python(*args) -> subprocess.CompletedProcess:
    """This interpreter run with args in a new process that imports ncft
    from the tree under test."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def fresh_bundled_run(tmp_path_factory):
    """The modules a bundled run through the library loads in a fresh
    interpreter, less those loaded before it (site's, for one)."""
    out = tmp_path_factory.mktemp("fresh")
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from importlib.resources import files\n"
        "from ncft import cli\n"
        "text = files('ncft').joinpath('configs', 'cubic-baseline.json')"
        ".read_text()\n"
        "cli.run_experiment(cli.validate_config(json.loads(text)), sys.argv[1])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = _fresh_python("-c", code, str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "MANIFEST.json").exists()
    return json.loads(proc.stdout.splitlines()[-1])


def test_bundled_run_leaves_scipy_optimize_unloaded(fresh_bundled_run):
    # the critical maps are closed forms; only the release checks' oracle
    # in acceptance.py imports scipy.optimize
    assert "scipy.optimize" not in fresh_bundled_run


def test_library_run_loads_only_stdlib_numpy_and_ncft(fresh_bundled_run):
    # click is loaded by the command line in ncft.__main__ alone, and the
    # process pool by a parallel sweep alone
    loaded = fresh_bundled_run
    allowed = set(sys.stdlib_module_names) | {"numpy", "ncft"}
    # the runtime modules of numpy's Cython extensions (numpy.random)
    foreign = [name for name in loaded
               if name.split(".")[0] not in allowed
               and not name.startswith(("_cython_", "cython_runtime"))]
    assert not foreign, f"loaded outside stdlib, numpy and ncft: {foreign}"
    present = [name for name in ("click", "concurrent.futures",
                                 "scipy.optimize") if name in loaded]
    assert not present, f"loaded by a library run: {present}"
    assert "ncft.cli" in loaded


CONTRAST_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "scripts", "contrast_sha256.txt")


def test_bundled_configs_keep_their_artifact_bytes(tmp_path):
    # the sha256 of every artifact both bundled configs write, against
    # the digests scripts/run_contrast.py --expect compares with
    with open(CONTRAST_DIGESTS) as fh:
        expected = {key: digest for digest, key in
                    (line.split() for line in fh if line.strip())}
    got = {}
    cfg_dir = files("ncft").joinpath("configs")
    for name in ("cubic-baseline", "cubic-no-nucleation"):
        raw = json.loads(cfg_dir.joinpath(f"{name}.json").read_text())
        out = tmp_path / name
        cli.run_experiment(cli.validate_config(raw), str(out))
        for path in out.iterdir():
            got[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert got == expected


def test_unknown_top_level_key_rejected():
    with pytest.raises(cli.ConfigError, match="unknown key.*bogus"):
        validated(bogus=1)


def test_unknown_nested_keys_rejected():
    with pytest.raises(cli.ConfigError, match="flags.*extra"):
        validated(flags={"extra": True})
    with pytest.raises(cli.ConfigError, match="weights.*plot"):
        validated(weights={"zeta": 0.1, "plot": True})
    with pytest.raises(cli.ConfigError, match="sweep.*T"):
        validated(sweep={"T": [0.1]})


@pytest.mark.parametrize("section, key, value", [
    ("flags", "use_nucleation", False),
    ("calibration", "zero_fraction", 0.1),
    ("calibration", "cross_family", True),
    ("flags", "q_weak_only", False),
    ("flags", "rarefaction_speed_convention", "rh"),
    ("weights", "mode", "lemma"),
    ("weights", "values", {}),
    ("calibration", "scales", [0.05, 0.02, 0.005]),
    (None, "stability_kappa", 0.25),
])
def test_removed_settings_rejected(section, key, value):
    # nucleation is set by kinetics.gamma alone, the calibration mix and
    # scales are fixed, Q always counts strong fronts, every front moves
    # at its wave's speed, the weights are always the lemma's and the
    # stability fraction is cli.STABILITY_KAPPA, so these keys are unknown
    # like any other
    raw = base_cfg()
    (raw if section is None else raw.setdefault(section, {}))[key] = value
    with pytest.raises(cli.ConfigError,
                       match=f"{section or 'config'}.*{key}"):
        cli.validate_config(raw)


def test_schema_version_checked():
    with pytest.raises(cli.ConfigError, match="schema_version"):
        validated(schema_version=2)
    raw = base_cfg()
    del raw["schema_version"]
    with pytest.raises(cli.ConfigError, match="schema_version"):
        cli.validate_config(raw)


def test_theta_outside_admissible_range_names_hypothesis():
    with pytest.raises(cli.ConfigError, match=r"\(H1\)"):
        validated(kinetics={"theta": 1.2, "gamma": 0.5})
    with pytest.raises(cli.ConfigError, match=r"\(H1\)"):
        validated(kinetics={"theta": 1.0, "gamma": 0.5})
    assert validated(kinetics={"theta": 0.0, "gamma": 0.5})["kinetics"]["theta"] == 0.0


def test_gamma_range_checked():
    with pytest.raises(cli.ConfigError, match="gamma"):
        validated(kinetics={"theta": 0.5, "gamma": -0.1})
    with pytest.raises(cli.ConfigError, match="gamma"):
        validated(kinetics={"theta": 0.5, "gamma": 1.5})


def test_positions_strictly_increasing():
    bad = base_cfg()
    bad["initial"]["jumps"] = [[0.0, [-0.02]]]
    with pytest.raises(cli.ConfigError, match="strictly increasing"):
        cli.validate_config(bad)
    bad["initial"]["jumps"] = [[0.05, [-0.02]], [0.04, [0.02]]]
    with pytest.raises(cli.ConfigError, match="strictly increasing"):
        cli.validate_config(bad)


def test_bad_convention_and_seed():
    with pytest.raises(cli.ConfigError, match="seed"):
        validated(seed="7")


def test_negative_seed_rejected():
    # numpy's generators take no negative seed: calibrate would die with a
    # bare ValueError after conformance had run
    with pytest.raises(cli.ConfigError, match="seed must be a nonnegative"):
        validated(seed=-1)
    with pytest.raises(cli.ConfigError, match="NCFT_SEED"):
        cli._apply_env_seed(validated(), environ={"NCFT_SEED": "-1"})


def test_zero_calibration_n_rejected():
    # calibrate would still draw one zero-product pair at n = 0
    with pytest.raises(cli.ConfigError,
                       match="calibration.n must be a positive integer"):
        validated(calibration={"n": 0})


def test_null_sweep_rejected():
    with pytest.raises(cli.ConfigError, match="sweep must be a JSON object"):
        validated(sweep=None)


@pytest.mark.parametrize("value", [True, "1.2", None, float("nan")])
def test_model_params_must_be_numbers(value):
    # True is no radius, though Python takes it for 1
    with pytest.raises(cli.ConfigError, match="model.params.delta1 must be"):
        validated(model={"name": "cubic", "params": {"delta1": value}})


def test_nonnumeric_values_rejected():
    with pytest.raises(cli.ConfigError, match="weights.zeta"):
        validated(weights={"zeta": "x"})
    with pytest.raises(cli.ConfigError, match="sweep.h"):
        validated(sweep={"h": ["x"]})
    with pytest.raises(cli.ConfigError, match="calibration.n"):
        validated(calibration={"n": -1})
    with pytest.raises(cli.ConfigError, match="must be positive"):
        validated(h=-0.01)
    with pytest.raises(cli.ConfigError, match="must be positive"):
        validated(T=0.0)



def test_weights_that_make_a_lemma_weight_nonpositive_rejected():
    # run_experiment would otherwise fail later, in Weights, with a bare
    # ValueError
    with pytest.raises(cli.ConfigError, match=r"weights\.zeta .*\(-1, 1\)"):
        validated(weights={"zeta": 1.5})
    for K in (0.0, -1.0):
        with pytest.raises(cli.ConfigError, match="weights.K must be positive"):
            validated(weights={"K": K})
    # the (0, 0.5) zeta range is a reported constraint row, not an error
    assert validated(weights={"zeta": 0.7})["weights"]["zeta"] == 0.7


# a path whose last key is deleted rather than set
ABSENT = object()


@pytest.mark.parametrize("path, value, match", [
    pytest.param(("kinetics",), ABSENT, "kinetics.theta",
                 id="kinetics-absent"),
    pytest.param(("initial",), ABSENT, "initial.u_star", id="initial-absent"),
    (("initial", "jumps"), 0.05, "initial.jumps"),
    (("initial", "jumps"), None, "initial.jumps"),
    (("flags", "stability_check"), "no", "flags.stability_check"),
    (("flags", "stability_check"), 0, "flags.stability_check"),
    (("weights", "zeta"), "0.02", "weights.zeta"),
    (("weights", "zeta"), "nan", "weights.zeta"),
    (("weights", "zeta"), float("nan"), "weights.zeta"),
    (("weights", "K"), True, "weights.K"),
    (("initial", "scale"), "nan", "initial.scale"),
    (("initial", "scale"), float("inf"), "initial.scale"),
    (("initial", "main"), [0.0, [float("nan")]], r"initial.main\[1\]"),
    (("initial", "jumps"), [[float("inf"), [-0.02]]],
     r"initial.jumps\[0\]\[0\]"),
    # removed settings: whatever their value, they are unknown keys
    (("stability_kappa",), "inf", "stability_kappa"),
    (("stability_kappa",), float("inf"), "stability_kappa"),
    (("T",), float("inf"), "config.T"),
    (("h",), float("inf"), "config.h"),
    (("h",), float("nan"), "config.h"),
    (("h",), 10 ** 400, "config.h"),
    (("kinetics", "theta"), float("nan"), "kinetics.theta"),
    (("calibration", "scales"), [0.0], "calibration.scales"),
    (("calibration", "scales"), [0.05, -0.02], "calibration.scales"),
    (("calibration", "scales"), [False], "calibration.scales"),
    (("sweep",), {"h": [float("nan")]}, "sweep.h"),
    # states of the wrong length for the cubic, or outside its ball of
    # radius 1.5
    (("initial", "u_star"), [1.0, 0.0], "initial.u_star"),
    (("initial", "main"), [0.0, [-1.368, 0.0]], r"initial.main\[1\]"),
    (("initial", "jumps"), [[0.05, [-0.02, 0.0]]],
     r"initial.jumps\[0\]\[1\]"),
    (("initial", "u_star"), [1.7], "initial.u_star"),
    (("initial", "main"), [0.0, [-2.6]], r"initial.main\[1\]"),
    (("initial", "jumps"), [[0.05, [-0.02]], [0.1, [-1.2]]],
     r"initial.jumps\[1\]\[1\]"),
    pytest.param(("h",), ABSENT, "config.h is required", id="h-absent"),
    (("initial", "main"), [0.0], r"initial.main must be a \[x, delta\] pair"),
    (("initial", "scale"), -1, "initial.scale must be nonnegative"),
    (("model", "name"), 3, "model.name must be a string"),
    (("model", "name"), "burgers", "model: unknown model 'burgers'"),
    (("model", "params"), [], "model.params must be an object"),
    (("model", "params"), {"radius": 1.0}, "model: .*'radius'"),
    (("model", "params"), {"delta0": 1.0, "delta1": 2.0},
     "model: ball radii"),
    (("sweep",), {"h": 0.01}, "sweep.h must be a list"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v)[:20])
def test_numbers_must_be_finite_and_scales_positive(path, value, match):
    raw = base_cfg()
    obj = raw
    for key in path[:-1]:
        obj = obj.setdefault(key, {})
    if value is ABSENT:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    with pytest.raises(cli.ConfigError, match=match):
        cli.validate_config(raw)


@pytest.mark.parametrize("text, match", [
    ("{\"h\": 0.01", "not valid JSON"),
    ("[1, 2]", "top level must be a JSON object"),
], ids=["invalid-json", "top-level-array"])
def test_load_config_rejects_what_is_not_a_json_object(tmp_path, text,
                                                        match):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(cli.ConfigError, match=match):
        cli.load_config(str(path))


def test_defaults_filled_and_plain_json():
    raw = base_cfg()
    del raw["calibration"]
    del raw["snapshot_dt"]
    raw["initial"] = {"u_star": 1.0, "main": [0.0, -1.368]}
    cfg = cli.validate_config(raw)
    assert cfg["initial"]["u_star"] == [1.0]
    assert cfg["initial"]["main"][1] == [-1.368]
    assert cfg["initial"]["jumps"] == []
    assert cfg["initial"]["scale"] == 1.0
    assert cfg["flags"] == {"stability_check": True}
    assert cfg["calibration"] == {"n": 400}
    assert cfg["snapshot_dt"] is None
    json.dumps(cfg)


def test_env_seed_override():
    cfg = validated()
    out = cli._apply_env_seed(cfg, environ={"NCFT_SEED": "17"})
    assert out["seed"] == 17
    assert cfg["seed"] == 0
    assert cli._apply_env_seed(cfg, environ={}) is cfg
    with pytest.raises(cli.ConfigError, match="NCFT_SEED"):
        cli._apply_env_seed(cfg, environ={"NCFT_SEED": "seven"})


# --------------------------------------------------- profile and stability


def test_initial_profile_scales_perturbation_only():
    cfg = validated()
    cfg["initial"]["scale"] = 0.5
    states, positions = cli.initial_profile(cfg)
    assert positions == [0.0, 0.05]
    assert states[1][0] == pytest.approx(-0.368)
    assert states[2][0] == pytest.approx(-0.368 - 0.01)
    assert cli.perturbation_tv(cfg) == pytest.approx(0.01)


def test_stability_gate_blocks_oversized_perturbation(tmp_path):
    cfg = validated()
    cfg["initial"]["scale"] = 20.0
    out = tmp_path / "gate"
    with pytest.raises(cli.ConfigError, match="stability_check"):
        cli.run_experiment(cfg, str(out))
    assert os.listdir(out) == []


def test_stability_flag_actually_disables_gate(tmp_path):
    # same oversized data runs past the gate and fails later, on substance
    cfg = validated(T=0.05)
    cfg["initial"]["scale"] = 200.0
    cfg["flags"]["stability_check"] = False
    cfg["calibration"]["n"] = 0
    with pytest.raises(Exception) as err:
        cli.run_experiment(cfg, str(tmp_path / "nogate"))
    assert not isinstance(err.value, cli.ConfigError)


# ----------------------------------------------------------------- pipeline

ARTIFACTS = ("MANIFEST.json", "conformance.json", "calibration.json",
             "trajectory.jsonl", "events.jsonl", "functionals.csv",
             "cycles.json")


@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = cli.validate_config(base_cfg())
    manifest = cli.run_experiment(cfg, str(out))
    return cfg, out, manifest


def test_artifact_files_exist(baseline_run):
    _, out, _ = baseline_run
    for name in ARTIFACTS:
        assert (out / name).exists(), name
    assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


def test_manifest_checks_and_summary(baseline_run):
    cfg, out, manifest = baseline_run
    on_disk = json.loads((out / "MANIFEST.json").read_text())
    assert on_disk == json.loads(json.dumps(manifest))
    checks = manifest["checks"]
    assert sorted(checks) == sorted(cli.CRITERIA)
    for key, entry in checks.items():
        assert entry["name"] == cli.CRITERIA[key]
    evaluated = {k for k, e in checks.items() if e["status"] != "not_evaluated"}
    assert evaluated == {"c08", "c09", "c11"}
    assert checks["c08"]["status"] == "pass"
    assert checks["c09"]["status"] == "pass"
    assert checks["c11"]["status"] == "pass"
    assert manifest["config"] == cfg
    assert manifest["conformance_passed"] is True
    assert manifest["stability"]["within_bound"] is True
    assert manifest["summary"]["n_events"] >= 1
    assert manifest["summary"]["t_final"] == pytest.approx(cfg["T"])


def test_functionals_csv_shape(baseline_run):
    _, out, _ = baseline_run
    with open(out / "functionals.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == dg.CSV_HEADER
    data = [[float(v) for v in row] for row in rows[1:]]
    assert len(data) >= 2
    assert data[0][0] == 0.0
    lyap = [row[-1] for row in data]
    assert lyap[-1] <= lyap[0] + 1e-9


def test_events_jsonl_rows(baseline_run):
    _, out, manifest = baseline_run
    rows = [json.loads(line) for line in
            (out / "events.jsonl").read_text().splitlines()]
    assert len(rows) == manifest["summary"]["n_events"]
    for row in rows:
        assert {"t", "case", "delta", "position", "incoming",
                "outgoing", "mass_correction"} <= set(row)
        assert row["incoming"] and row["outgoing"]
        assert not row["flagged"]


def test_trajectory_and_cycles(baseline_run):
    _, out, manifest = baseline_run
    snaps = [json.loads(line) for line in
             (out / "trajectory.jsonl").read_text().splitlines()]
    assert snaps[0]["t"] == 0.0
    assert all("fronts" in s for s in snaps)
    assert len(snaps[-1]["fronts"]) == manifest["summary"]["n_fronts_final"]
    cycles = json.loads((out / "cycles.json").read_text())
    assert {"records", "fitted_c", "n_completed", "n_open", "passed"} <= set(cycles)
    assert len(cycles["records"]) == manifest["summary"]["cycle_records"]


def test_rerun_is_bit_identical(baseline_run, tmp_path):
    cfg, out, _ = baseline_run
    again = tmp_path / "again"
    cli.run_experiment(copy.deepcopy(cfg), str(again))
    for name in ARTIFACTS:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


# -------------------------------------------------------------------- sweep


def test_grid_rows_cartesian_product():
    rows = cli._grid_rows({"h": [0.01, 0.02], "gamma": [0.0, 0.5]})
    assert len(rows) == 4
    assert {"h": 0.02, "gamma": 0.5} in rows
    assert cli._grid_rows({}) == []
    assert cli._grid_rows({"h": []}) == []
    assert cli._grid_rows({"h": [0.01], "theta": []}) == []


def test_row_config_applies_overrides():
    cfg = validated(sweep={"h": [0.01]})
    row = cli._row_config(cfg, {"h": 0.02, "theta": 0.3, "gamma": 0.0,
                                "eps0": 0.25})
    assert "sweep" not in row
    assert row["h"] == 0.02
    assert row["kinetics"] == {"theta": 0.3, "gamma": 0.0}
    assert row["initial"]["scale"] == 0.25
    assert cfg["kinetics"]["theta"] == 0.5


@pytest.fixture(scope="module")
def sweep_serial(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = cli.validate_config(base_cfg(sweep={"h": [0.01, -1.0]}))
    path = cli.run_sweep(cfg, str(out), workers=1)
    return cfg, path


def test_sweep_serial_rows_and_error_row(sweep_serial):
    _, path = sweep_serial
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    by_h = {row["h"]: row for row in rows}
    ok = by_h["0.01"]
    assert ok["status"] == "ok"
    assert int(ok["n_events"]) >= 1
    assert float(ok["conservation_corrected"]) <= 1e-8
    assert ok["error"] == ""
    bad = by_h["-1.0"]
    assert bad["status"] == "error"
    assert "ConfigError" in bad["error"]
    assert bad["n_events"] == ""


def test_sweep_parallel_matches_serial(sweep_serial, tmp_path):
    cfg, path = sweep_serial
    par = cli.run_sweep(copy.deepcopy(cfg), str(tmp_path / "par"), workers=2)
    with open(par, "rb") as fh_par, open(path, "rb") as fh_ser:
        assert fh_par.read() == fh_ser.read()


def test_sweep_pool_has_no_more_workers_than_rows(monkeypatch, tmp_path):
    # a stub pool, so that no process starts: it records its size and
    # maps serially
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    cfg = validated(T=0.1, sweep={"h": [0.01, 0.02]})
    with open(cli.run_sweep(cfg, str(tmp_path), workers=64),
              newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2
    assert sizes == [2]


def test_workers_below_one_is_a_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_cfg(sweep={"h": [0.01]})))
    result = CliRunner().invoke(main, ["--config", str(path), "--out",
                                       str(tmp_path / "out"),
                                       "--workers", "0"])
    assert result.exit_code == 2
    assert "--workers" in result.output
    assert not (tmp_path / "out").exists()


def _sweep_rows(cfg: dict, out) -> list:
    with open(cli.run_sweep(cfg, str(out), workers=1), newline="") as fh:
        return list(csv.DictReader(fh))


def test_sweep_row_at_base_values_matches_single_run(baseline_run, tmp_path):
    # rows run the single run's chain, snapshot_dt included, so a row at
    # the base values reproduces the MANIFEST summary exactly
    cfg, _, manifest = baseline_run
    swept = copy.deepcopy(cfg)
    swept["sweep"] = {"h": [cfg["h"]]}
    (row,) = _sweep_rows(swept, tmp_path)
    summary = manifest["summary"]
    assert row["status"] == "ok", row["error"]
    for key in ("n_events", "cycle_records", "completed_cycles"):
        assert int(row[key]) == summary[key], key
    fitted = summary["fitted_c"]
    assert row["fitted_c"] == ("" if fitted is None else repr(fitted))
    assert float(row["max_lyapunov_delta"]) == summary["max_lyapunov_delta"]
    assert float(row["conservation_raw"]) == summary["conservation"]["raw"]
    assert float(row["conservation_corrected"]) == \
        summary["conservation"]["corrected"]


def test_sweep_row_over_stability_bound_is_refused(tmp_path):
    # eps0 = 10 lifts the perturbation variation to 0.2, over the
    # bound 0.25 * 0.75 of the base jump
    cfg = validated(T=0.1, sweep={"eps0": [10.0]})
    (row,) = _sweep_rows(cfg, tmp_path / "gated")
    assert row["status"] == "error"
    assert "stability bound" in row["error"]
    assert row["n_events"] == ""
    cfg["flags"]["stability_check"] = False
    (row,) = _sweep_rows(cfg, tmp_path / "open")
    assert row["status"] == "ok", row["error"]


def test_run_experiment_replays_each_event_once(tmp_path, monkeypatch):
    calls = []
    replay = dg.event_delta

    def counted(*args, **kwargs):
        calls.append(args[1])
        return replay(*args, **kwargs)

    monkeypatch.setattr(dg, "event_delta", counted)
    cfg = validated(calibration={"n": 4})
    manifest = cli.run_experiment(cfg, str(tmp_path))
    assert manifest["summary"]["n_events"] >= 1
    assert len(calls) == manifest["summary"]["n_events"]
    assert len({id(ev) for ev in calls}) == len(calls)


# sha256 of the sweep.csv below: two ok rows, two rows refused by the
# stability gate (eps0 = 10) and four ConfigError rows (h < 0)
SWEEP_CSV_SHA256 = \
    "ba69c1d47172d4e7ca90d351da757e1df56db665c738db647d2396ea32295e8b"


def test_sweep_csv_keeps_its_bytes(tmp_path):
    cfg = validated(sweep={"h": [0.01, -1.0], "theta": [0.5],
                           "gamma": [0.5, 0.0], "eps0": [1.0, 10.0]})
    path = cli.run_sweep(cfg, str(tmp_path), workers=1)
    with open(path, "rb") as fh:
        data = fh.read()
    rows = list(csv.DictReader(data.decode().splitlines()))
    assert [row["status"] for row in rows].count("ok") == 2
    assert sum("stability bound" in row["error"] for row in rows) == 2
    assert sum("config.h must be positive" in row["error"]
               for row in rows) == 4
    assert hashlib.sha256(data).hexdigest() == SWEEP_CSV_SHA256


def test_sweep_empty_grid_writes_header_only(tmp_path):
    cfg = validated(sweep={"h": []})
    path = cli.run_sweep(cfg, str(tmp_path), workers=1)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [list(cli.SWEEP_COLUMNS)]


# ------------------------------------------------------------- click entry


def test_ncft_script_is_the_click_command():
    # the package is not installed to run the tests, so nothing else
    # resolves the console script's target
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ncft"]
    module, attr = target.split(":")
    assert isinstance(getattr(importlib.import_module(module), attr),
                      click.Command)


def test_python_m_ncft_runs_the_command_line():
    proc = _fresh_python("-m", "ncft", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--config" in proc.stdout
    assert "--check" in proc.stdout


def test_cli_requires_config():
    result = CliRunner().invoke(main, [])
    assert result.exit_code == 2
    assert "--config is required" in result.output


def test_cli_reports_validation_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(base_cfg(kinetics={"theta": 1.2, "gamma": 0.5})))
    result = CliRunner().invoke(main, ["--config", str(p)])
    assert result.exit_code == 1
    assert "(H1)" in result.output


def test_cli_rejects_a_config_that_is_not_utf8(tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith(f"Error: {p}: not UTF-8 text: ")
    assert len(result.output.strip().splitlines()) == 1
    assert not out.exists()


def test_cli_rejects_a_base_state_whose_companion_leaves_the_ball(tmp_path):
    # on the p-system Phi_sharp(0, 0.8) lies outside the outer ball, so the
    # stability report cannot be evaluated even with its gate off
    cfg = base_cfg(model={"name": "elasticity", "params": {}},
                   flags={"stability_check": False})
    cfg["initial"].update(u_star=[0.0, 0.8], main=[0.0, [0.0, -0.1]],
                          jumps=[])
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output.startswith("Error: initial.u_star [0.0, 0.8]: ")
    assert "Phi_sharp(u_star)" in result.output
    assert isinstance(result.exception, SystemExit)
    assert os.listdir(out) == []


def test_cli_rejects_initial_data_the_solver_cannot_resolve(tmp_path):
    # on the p-system the main jump (0.5, 0) -> (-0.5, 0) needs a family-0
    # wave from a state on that family's own inflection
    cfg = base_cfg(model={"name": "elasticity", "params": {}},
                   flags={"stability_check": False})
    cfg["initial"].update(u_star=[0.5, 0.0], main=[0.0, [-1.0, 0.0]],
                          jumps=[])
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.startswith("Error: initial: ")
    assert "family 0 degenerate at [0.5, 0.0]" in result.output
    assert len(result.output.strip().splitlines()) == 1
    # refused before the first artifact is written
    assert os.listdir(out) == []


@pytest.mark.parametrize("error", [
    tracking.PatternBroken("split without the y token incoming"),
    riemann.SolverError("curve intersection stalled at residual 1.0e-03"),
    curves.BallExit("Hugoniot locus left the outer ball at [3.0]"),
    models.BallViolation("state [3.0] outside the inner ball"),
], ids=lambda exc: type(exc).__name__)
def test_cli_run_that_fails_after_validation_ends_in_one_line(
        tmp_path, monkeypatch, error):
    # a config that validates but whose tracked run fails exits 1 with one
    # line naming the error, and writes no artifact
    def failing_run(*args, **kwargs):
        raise error

    monkeypatch.setattr(tracking, "run", failing_run)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(base_cfg(calibration={"n": 4})))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"run failed: {type(error).__name__}: {error}"]
    assert os.listdir(out) == []


def test_cli_run_failure_names_the_event_time(tmp_path, monkeypatch):
    # an error raised while resolving an event keeps its class, and its
    # line ends with the collision time
    collisions = []

    def failing_resolve(model, kin, fs, collision):
        collisions.append(collision)
        raise riemann.SolverError("curve intersection stalled")

    monkeypatch.setattr(tracking, "resolve_interaction", failing_resolve)
    p = tmp_path / "run.json"
    p.write_text(json.dumps(base_cfg(calibration={"n": 4})))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 1
    ((t, _),) = collisions
    assert result.output.splitlines() == [
        f"run failed: SolverError: curve intersection stalled at t={t}"]
    assert os.listdir(out) == []


def test_cli_run_with_env_seed(tmp_path, monkeypatch):
    cfg = base_cfg()
    cfg["calibration"]["n"] = 8
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    monkeypatch.setenv("NCFT_SEED", "123")
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 123
    assert json.loads((out / "calibration.json").read_text())["seed"] == 123
    assert sorted(os.listdir(out)) == [
        "MANIFEST.json", "calibration.json", "conformance.json",
        "cycles.json", "events.jsonl", "functionals.csv", "trajectory.jsonl"]
    assert {key for key, e in manifest["checks"].items()
            if e["status"] != "not_evaluated"} == {"c08", "c09", "c11"}


def test_cli_has_no_calibrate_only_mode(tmp_path):
    # every config run tracks; calibration alone is no run shape
    p = tmp_path / "run.json"
    p.write_text(json.dumps(base_cfg()))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out), "--calibrate-only"])
    assert result.exit_code == 2
    assert "No such option '--calibrate-only'" in result.output
    assert not out.exists()


def test_cli_config_prints_conformance_coverage(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps(base_cfg(calibration={"n": 4})))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["--config", str(p), "--out",
                                       str(out)])
    assert result.exit_code == 0, result.output
    conformance = json.loads((out / "conformance.json").read_text())
    grid = conformance["grid"]
    verdict = "pass" if conformance["passed"] else "fail"
    want = (f"conformance: {verdict}, {grid['n_usable']} of "
            f"{grid['n_samples']} samples usable, "
            f"{grid['n_skipped_ball']} skipped outside the ball, "
            f"{grid['n_samples'] - grid['n_usable'] - grid['n_skipped_ball']}"
            " too near the manifold")
    lines = result.output.splitlines()
    assert lines.count(want) == 1
    # next to the check statuses, before the closing line
    before = lines[:lines.index(want)]
    assert before and all(ln[0] == "c" and ln[1:3].isdigit() for ln in before)
    assert lines[-1].startswith("artifacts written: ")
    assert grid["n_usable"] <= grid["n_samples"]


def _stub_acceptance(monkeypatch, results):
    import ncft
    stub = types.ModuleType("ncft.acceptance")
    stub.run_all = lambda: results
    monkeypatch.setitem(sys.modules, "ncft.acceptance", stub)
    monkeypatch.setattr(ncft, "acceptance", stub, raising=False)


def test_cli_check_passes_with_stub(tmp_path, monkeypatch):
    _stub_acceptance(monkeypatch, {
        key: {"passed": True, "detail": "stub"} for key in cli.CRITERIA})
    out = tmp_path / "chk"
    result = CliRunner().invoke(main, ["--check", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = [ln for ln in result.output.splitlines() if ln.startswith("c")]
    assert len(lines) == 13
    manifest = json.loads((out / "MANIFEST.json").read_text())
    assert all(e["status"] == "pass" for e in manifest["checks"].values())


def test_cli_check_fails_with_stub(tmp_path, monkeypatch):
    results = {key: {"passed": True, "detail": "stub"} for key in cli.CRITERIA}
    results["c05"] = {"passed": False, "detail": "broken"}
    _stub_acceptance(monkeypatch, results)
    result = CliRunner().invoke(main, ["--check", "--out",
                                       str(tmp_path / "chk")])
    assert result.exit_code == 1
    assert "c05" in result.output
