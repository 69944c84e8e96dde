"""Experiment runner.

Parses a JSON run configuration, executes the conformance -> calibration ->
tracking -> diagnostics pipeline, and writes every artifact atomically:
MANIFEST.json, trajectory.jsonl, events.jsonl, functionals.csv, cycles.json,
conformance.json, calibration.json. A config with a "sweep" block runs the
parameter grid instead (one isolated process per row) and aggregates to
sweep.csv. Runs are deterministic given the config and seed; the NCFT_SEED
environment variable overrides the config seed. The `ncft` command line
over this module is ncft.__main__; importing this one loads no click.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np

from ncft import diagnostics as dg
from ncft import kinetics as kin_mod
from ncft import curves, models, riemann, tracking
from ncft.kinetics import KineticFunction
from ncft.models import FluxModel

SCHEMA_VERSION = 1

# MANIFEST check keys; each maps onto one acceptance criterion, in order.
CRITERIA = {
    "c01": "critical-maps-closed-forms",
    "c02": "involution-and-companions",
    "c03": "random-riemann-consistency",
    "c04": "nucleation-branch-switch",
    "c05": "strength-additivity",
    "c06": "strength-parameter-bounds",
    "c07": "quadratic-interaction-estimate",
    "c08": "lyapunov-monotone-baseline",
    "c09": "cycle-count-bound",
    "c10": "no-nucleation-contrast",
    "c11": "mass-conservation",
    "c12": "classical-limit-convergence",
    "c13": "elasticity-weak-solver",
}

# each sweep axis and the path of the config value it sets
SWEEP_PATHS = {
    "h": ("h",),
    "theta": ("kinetics", "theta"),
    "gamma": ("kinetics", "gamma"),
    "eps0": ("initial", "scale"),
}
SWEEP_KEYS = tuple(SWEEP_PATHS)

SWEEP_COLUMNS = SWEEP_KEYS + (
    "status", "n_events", "cycle_records", "completed_cycles",
    "min_cycle_drop", "fitted_c", "max_lyapunov_delta", "conservation_raw",
    "conservation_corrected", "error",
)

# the fraction of the strong pattern's strength that the perturbation's
# total variation may reach: the weak waves stay smaller than the pattern
STABILITY_KAPPA = 0.25

_TOP_KEYS = {
    "schema_version", "model", "kinetics", "h", "T", "initial", "weights",
    "seed", "flags", "calibration", "snapshot_dt", "sweep",
}
# the default of a section key that has none
_REQUIRED = object()


class ConfigError(ValueError):
    """Run configuration failed validation."""


def _check_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        # a section's keys are named by their dotted path
        names = unknown if where == "config" else [f"{where}.{key}"
                                                   for key in unknown]
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(names)}")


def _section(raw: dict, name: str, defaults: dict) -> dict:
    """Section name of raw, its absent keys filled from defaults; a key
    not in defaults, or absent with the default _REQUIRED, is an error."""
    obj = raw.get(name, {})
    _check_keys(obj, set(defaults), name)
    out = {**defaults, **obj}
    for key, value in out.items():
        if value is _REQUIRED:
            raise ConfigError(f"{name}.{key} is required")
    return out


def _is_number(v) -> bool:
    """Whether v is a finite JSON number: an int or float, not a bool,
    NaN or an infinity."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _number(obj: dict, key: str, where: str, positive: bool = False) -> float:
    if key not in obj:
        raise ConfigError(f"{where}.{key} is required")
    return _as_float(obj[key], f"{where}.{key}", positive)


def _as_float(value, where: str, positive: bool = False) -> float:
    if not _is_number(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    if positive and not value > 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    return float(value)


def _state_delta(raw, where: str) -> list:
    if _is_number(raw):
        return [float(raw)]
    if isinstance(raw, list) and raw and all(_is_number(x) for x in raw):
        return [float(x) for x in raw]
    raise ConfigError(f"{where} must be a number or a list of numbers")


def _jump(raw, where: str) -> tuple:
    if not (isinstance(raw, list) and len(raw) == 2):
        raise ConfigError(f"{where} must be a [x, delta] pair")
    return (_as_float(raw[0], f"{where}[0]"),
            _state_delta(raw[1], f"{where}[1]"))


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def validate_config(raw: dict) -> dict:
    """Normalize a raw config dict; rejects unknown keys at every level.

    Returns a plain dict (JSON-serializable, deep-copied) so sweep workers
    can rebuild everything from it."""
    _check_keys(raw, _TOP_KEYS, "config")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {raw.get('schema_version')!r}"
        )
    cfg = {"schema_version": SCHEMA_VERSION}

    model_raw = _section(raw, "model", {"name": _REQUIRED, "params": {}})
    if not isinstance(model_raw["name"], str):
        raise ConfigError("model.name must be a string")
    params = model_raw["params"]
    if not isinstance(params, dict):
        raise ConfigError("model.params must be an object")
    cfg["model"] = {"name": model_raw["name"], "params": {
        key: _as_float(value, f"model.params.{key}")
        for key, value in params.items()}}
    try:
        model = models.make_model(cfg["model"]["name"], cfg["model"]["params"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}") from exc

    kin_raw = _section(raw, "kinetics",
                       {"theta": _REQUIRED, "gamma": _REQUIRED})
    theta = _as_float(kin_raw["theta"], "kinetics.theta")
    if not (0.0 <= theta < 1.0):
        raise ConfigError(
            f"kinetics.theta must lie in [0, 1) for the kinetic function "
            f"to satisfy (H1), got {theta}"
        )
    gamma = _as_float(kin_raw["gamma"], "kinetics.gamma")
    if not (0.0 <= gamma <= 1.0):
        raise ConfigError(f"kinetics.gamma must lie in [0, 1], got {gamma}")
    cfg["kinetics"] = {"theta": theta, "gamma": gamma}

    cfg["h"] = _number(raw, "h", "config", positive=True)
    cfg["T"] = _number(raw, "T", "config", positive=True)

    init_raw = _section(raw, "initial", {"u_star": _REQUIRED,
                                         "main": _REQUIRED, "jumps": [],
                                         "scale": 1.0})
    u_star = _state_delta(init_raw["u_star"], "initial.u_star")
    main = _jump(init_raw["main"], "initial.main")
    if not isinstance(init_raw["jumps"], list):
        raise ConfigError("initial.jumps must be a list of [x, delta] pairs")
    jumps = [_jump(j, f"initial.jumps[{k}]")
             for k, j in enumerate(init_raw["jumps"])]
    scale = _as_float(init_raw["scale"], "initial.scale")
    if scale < 0:
        raise ConfigError("initial.scale must be nonnegative")
    xs = [main[0]] + [x for x, _ in jumps]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError(
            "jump positions must be strictly increasing, main first"
        )
    # each state of the profile, keyed by the value that makes it
    deltas = [("initial.u_star", u_star), ("initial.main[1]", main[1])] + [
        (f"initial.jumps[{k}][1]", d) for k, (_, d) in enumerate(jumps)]
    for where, delta in deltas:
        if len(delta) != model.N:
            raise ConfigError(f"{where} must have {model.N} component(s), "
                              f"got {len(delta)}")
    cfg["initial"] = {
        "u_star": u_star,
        "main": [main[0], main[1]],
        "jumps": [[x, d] for x, d in jumps],
        "scale": scale,
    }
    for (where, _), state in zip(deltas, initial_profile(cfg)[0]):
        if not models.in_ball(model, state):
            raise ConfigError(
                f"{where}: state {state.tolist()} lies outside the working "
                f"ball of radius {model.delta1}")

    w_raw = _section(raw, "weights", {"zeta": 0.1, "K": 1.0})
    zeta = _as_float(w_raw["zeta"], "weights.zeta")
    # the lemma weights 1 - zeta and 1 + zeta must be positive; the
    # narrower (0, 0.5) range is a reported constraint, not a config error
    if not -1.0 < zeta < 1.0:
        raise ConfigError(f"weights.zeta must lie in (-1, 1), got {zeta}")
    cfg["weights"] = {
        "zeta": zeta,
        "K": _as_float(w_raw["K"], "weights.K", positive=True),
    }

    # numpy's generators take no negative seed
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    cfg["seed"] = seed

    flags_raw = _section(raw, "flags", {"stability_check": True})
    stability_check = flags_raw["stability_check"]
    if not isinstance(stability_check, bool):
        raise ConfigError(f"flags.stability_check must be true or false, "
                          f"got {stability_check!r}")
    cfg["flags"] = {"stability_check": stability_check}

    cal_n = _section(raw, "calibration", {"n": 400})["n"]
    # n = 0 would still draw one zero-product pair
    if not isinstance(cal_n, int) or isinstance(cal_n, bool) or cal_n < 1:
        raise ConfigError(f"calibration.n must be a positive integer, "
                          f"got {cal_n!r}")
    cfg["calibration"] = {"n": cal_n}

    dt = raw.get("snapshot_dt")
    cfg["snapshot_dt"] = (None if dt is None else
                          _as_float(dt, "config.snapshot_dt", positive=True))

    if "sweep" in raw:
        sweep_raw = raw["sweep"]
        _check_keys(sweep_raw, set(SWEEP_KEYS), "sweep")
        sweep = {}
        for key in SWEEP_KEYS:
            if key in sweep_raw:
                vals = sweep_raw[key]
                if not isinstance(vals, list):
                    raise ConfigError(f"sweep.{key} must be a list")
                sweep[key] = [_as_float(v, f"sweep.{key}") for v in vals]
        cfg["sweep"] = sweep
    return cfg


def _apply_env_seed(cfg: dict, environ=None) -> dict:
    env = os.environ if environ is None else environ
    raw = env.get("NCFT_SEED")
    if raw is None:
        return cfg
    error = ConfigError(f"NCFT_SEED must be a nonnegative integer, got {raw!r}")
    try:
        seed = int(raw)
    except ValueError as exc:
        raise error from exc
    if seed < 0:
        raise error
    out = copy.deepcopy(cfg)
    out["seed"] = seed
    return out


def initial_profile(cfg: dict) -> tuple:
    """States and jump positions built from u_star, the main jump, and the
    scaled perturbation deltas."""
    scale = cfg["initial"]["scale"]
    states = [np.asarray(cfg["initial"]["u_star"], dtype=float)]
    positions = []
    for k, (x, delta) in enumerate([cfg["initial"]["main"]] +
                                   cfg["initial"]["jumps"]):
        d = np.asarray(delta, dtype=float)
        if k > 0:
            d = scale * d
        states.append(states[-1] + d)
        positions.append(float(x))
    return states, positions


def perturbation_tv(cfg: dict) -> float:
    scale = cfg["initial"]["scale"]
    return scale * sum(
        float(np.sum(np.abs(np.asarray(d, dtype=float))))
        for _, d in cfg["initial"]["jumps"]
    )


def stability_report(model: FluxModel, kin: KineticFunction,
                     cfg: dict) -> dict:
    """Perturbation total variation against the strong-pattern strength
    bound STABILITY_KAPPA * |sigma(u_star, Phi_sharp(u_star))|."""
    u_star = np.asarray(cfg["initial"]["u_star"], dtype=float)
    companion = kin_mod.phi_sharp(model, kin, u_star)
    sigma = curves.generalized_strength(model, u_star, companion,
                                        model.cc_index)
    tv = perturbation_tv(cfg)
    bound = STABILITY_KAPPA * abs(sigma)
    return {
        "enabled": cfg["flags"]["stability_check"],
        "tv": tv,
        "kappa": STABILITY_KAPPA,
        "reference_strength": abs(sigma),
        "bound": bound,
        "within_bound": tv <= bound,
    }


def _status(passed: bool) -> str:
    return "pass" if passed else "fail"


def _write_atomic(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    _write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: str, rows):
    buf = io.StringIO()
    for row in rows:
        buf.write(json.dumps(row, sort_keys=True))
        buf.write("\n")
    _write_atomic(path, buf.getvalue())


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _prepare(cfg: dict) -> tuple:
    """(model, kinetics, stability report, conformance report) of one
    validated config. Data over the stability bound is refused before any
    conformance sampling."""
    model = models.make_model(cfg["model"]["name"], cfg["model"]["params"])
    kin = KineticFunction(theta=cfg["kinetics"]["theta"],
                          nucleation_gamma=cfg["kinetics"]["gamma"])
    try:
        stability = stability_report(model, kin, cfg)
    except curves.CurveError as exc:
        raise ConfigError(
            f"initial.u_star {cfg['initial']['u_star']}: the stability "
            f"report needs Phi_sharp(u_star), which cannot be evaluated: "
            f"{exc}") from exc
    if stability["enabled"] and not stability["within_bound"]:
        raise ConfigError(
            f"perturbation total variation {stability['tv']} exceeds the "
            f"stability bound {stability['bound']} "
            f"(kappa={stability['kappa']}); set flags.stability_check false "
            f"for exploratory runs"
        )
    return model, kin, stability, kin_mod.check_hypotheses(model, kin)


def _initial_fronts(cfg: dict, model: FluxModel,
                    kin: KineticFunction) -> tracking.FrontSet:
    """The config's initial fronts. Initial data whose jumps the Riemann
    solver cannot resolve is a ConfigError naming `initial`."""
    states, positions = initial_profile(cfg)
    try:
        return tracking.init_fronts(model, kin, states, positions,
                                    h=cfg["h"], strong_jumps=[0])
    except riemann.SolverError as exc:
        raise ConfigError(f"initial: a jump of the initial data has no "
                          f"wave fan: {exc}") from exc


def _track(cfg: dict, model: FluxModel, kin: KineticFunction,
           fronts0: tracking.FrontSet, weights: dg.Weights) -> tuple:
    """(run result, Lyapunov series, cycle audit, conservation report):
    the initial fronts tracked to the config's T, then replayed once."""
    result = tracking.run(model, kin, fronts0, t_end=cfg["T"],
                          snapshot_dt=cfg["snapshot_dt"])
    series = dg.lyapunov_series(model, result.events, result.snapshots,
                                weights)
    audit = dg.cycle_audit(model, kin, result.events, result.snapshots,
                           weights, cff=weights.cff)
    conservation = tracking.conservation_report(model, result)
    return result, series, audit, conservation


def _summary(result, series: dict, audit, conservation: dict) -> dict:
    """The MANIFEST summary of one tracked run, which the c09 entry and
    the sweep rows read their figures from."""
    return {
        "n_events": len(result.events),
        "n_fronts_final": len(result.final.fronts),
        "t_final": result.final.time,
        "cycle_records": len(audit.records),
        "completed_cycles": audit.n_completed,
        "open_cycles": audit.n_open,
        "etas": [r.eta for r in audit.records
                 if not r.open and r.eta is not None],
        "fitted_c": audit.fitted_c,
        "max_lyapunov_delta": series["max_delta"],
        "conservation": conservation,
    }


def _event_row(ev, row: dict) -> dict:
    """The event's replay row with its position, waves, strong roles and
    mass correction added."""
    return dict(
        row,
        position=ev.position,
        incoming=[wv.to_json_dict() for wv in ev.incoming],
        outgoing=[wv.to_json_dict() for wv in ev.outgoing.waves],
        incoming_roles={str(k): v for k, v in ev.incoming_roles.items()},
        outgoing_roles={str(k): v for k, v in ev.outgoing_roles.items()},
        mass_correction=[float(c) for c in np.atleast_1d(ev.mass_correction)],
    )


def run_experiment(cfg: dict, out_dir: str) -> dict:
    """Full pipeline for one validated config; returns the manifest dict.
    No artifact is written before tracking has returned."""
    os.makedirs(out_dir, exist_ok=True)
    model, kin, stability, conformance = _prepare(cfg)
    fronts0 = _initial_fronts(cfg, model, kin)
    weights = dg.Weights(conformance.measured_Cff, **cfg["weights"])
    calibration = dg.calibrate(model, kin, n=cfg["calibration"]["n"],
                               seed=cfg["seed"])
    constraints = dg.validate_constraints(weights, calibration.k_floor)

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg,
        "checks": {key: {"name": name, "status": "not_evaluated"}
                   for key, name in CRITERIA.items()},
        "conformance_passed": conformance.passed,
        "measured_cff": weights.cff,
        "weight_constraints": constraints,
        "calibration": {
            "fitted_glimm_C": calibration.fitted_glimm_C,
            "k_floor": calibration.k_floor,
            "K_recommended": calibration.K_recommended,
        },
        "seed": cfg["seed"],
        "stability": stability,
    }
    result, series, audit, conservation = _track(cfg, model, kin, fronts0,
                                                 weights)

    _write_json(os.path.join(out_dir, "conformance.json"),
                conformance.to_json_dict())
    _write_json(os.path.join(out_dir, "calibration.json"),
                calibration.to_json_dict())
    _write_jsonl(os.path.join(out_dir, "trajectory.jsonl"),
                 (fs.to_json_dict() for fs in result.snapshots))
    _write_jsonl(os.path.join(out_dir, "events.jsonl"),
                 (_event_row(ev, row)
                  for ev, row in zip(result.events, series["events"])))
    _write_csv(os.path.join(out_dir, "functionals.csv"), dg.CSV_HEADER,
               (snap.csv_row() for snap in series["series"]))
    _write_json(os.path.join(out_dir, "cycles.json"), audit.to_json_dict())

    # run puts the initial fronts first among the snapshots
    initial_l = series["series"][0].lyapunov
    final_l = series["series"][-1].lyapunov
    checks = manifest["checks"]
    checks["c08"].update({
        "status": _status(series["n_flagged"] == 0 and final_l <= initial_l),
        "max_delta": series["max_delta"],
        "n_flagged": series["n_flagged"],
        "initial": initial_l,
        "final": final_l,
    })
    summary = manifest["summary"] = _summary(result, series, audit,
                                             conservation)
    checks["c09"].update(
        {key: summary[key] for key in ("cycle_records", "completed_cycles",
                                       "fitted_c", "etas")},
        status=_status(audit.passed))
    checks["c11"].update(
        {key: conservation[key] for key in ("raw", "corrected", "budget")},
        status=_status(conservation["corrected"] <= 1e-8 and
                       conservation["raw"] <= conservation["budget"] + 1e-12))
    _write_json(os.path.join(out_dir, "MANIFEST.json"), manifest)
    return manifest


def _grid_rows(sweep: dict) -> list:
    axes = [(key, sweep[key]) for key in SWEEP_KEYS if key in sweep]
    if not axes or any(len(vals) == 0 for _, vals in axes):
        return []
    rows = []
    for combo in itertools.product(*(vals for _, vals in axes)):
        rows.append({key: val for (key, _), val in zip(axes, combo)})
    return rows


def _row_config(cfg: dict, overrides: dict) -> dict:
    out = copy.deepcopy(cfg)
    out.pop("sweep", None)
    for key, value in overrides.items():
        *parents, leaf = SWEEP_PATHS[key]
        node = out
        for parent in parents:
            node = node[parent]
        node[leaf] = value
    return out


def sweep_row(payload: tuple) -> dict:
    """One isolated sweep run through the single run's chain, without
    calibration; returns a flat CSV row dict. Top-level so process pools
    can pickle it."""
    cfg, overrides = payload
    row = {key: overrides.get(key, "") for key in SWEEP_KEYS}
    row.update({col: "" for col in SWEEP_COLUMNS if col not in SWEEP_KEYS})
    try:
        run_cfg = validate_config(_row_config(cfg, overrides))
        model, kin, _, conformance = _prepare(run_cfg)
        result, series, audit, conservation = _track(
            run_cfg, model, kin, _initial_fronts(run_cfg, model, kin),
            dg.Weights(conformance.measured_Cff, **run_cfg["weights"]))
        summary = _summary(result, series, audit, conservation)
        drops = [r.lyapunov_drop for r in audit.records
                 if not r.open and r.lyapunov_drop is not None]
        row.update(
            {key: summary[key] for key in ("n_events", "cycle_records",
                                           "completed_cycles",
                                           "max_lyapunov_delta")},
            status="ok",
            min_cycle_drop=min(drops) if drops else "",
            fitted_c="" if summary["fitted_c"] is None else summary["fitted_c"],
            conservation_raw=conservation["raw"],
            conservation_corrected=conservation["corrected"],
        )
    except Exception as exc:
        row["status"] = "error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(cfg: dict, out_dir: str, workers: int = 1) -> str:
    os.makedirs(out_dir, exist_ok=True)
    rows_spec = _grid_rows(cfg.get("sweep", {}))
    payloads = [(cfg, overrides) for overrides in rows_spec]
    # the pool starts all its processes at once: no more than one per row
    workers = min(workers, len(payloads))
    if workers <= 1:
        results = [sweep_row(p) for p in payloads]
    else:
        # a serial sweep and a single run never load the pool
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(sweep_row, payloads))
    path = os.path.join(out_dir, "sweep.csv")
    _write_csv(path, SWEEP_COLUMNS,
               ([row[col] for col in SWEEP_COLUMNS] for row in results))
    return path


def run_check(out_dir: str) -> dict:
    """Run the full acceptance suite and write its MANIFEST."""
    from ncft import acceptance

    os.makedirs(out_dir, exist_ok=True)
    results = acceptance.run_all()
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "checks": {
            key: {
                "name": CRITERIA[key],
                "status": _status(results[key]["passed"]),
                "detail": results[key]["detail"],
            }
            for key in CRITERIA
        },
    }
    _write_json(os.path.join(out_dir, "MANIFEST.json"), manifest)
    return manifest
