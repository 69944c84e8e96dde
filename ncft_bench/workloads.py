"""The three workloads: seeded inputs, one round of timed calls, checks.

A workload's ``setup(k)`` builds fresh models, kinetics and the inputs of
round k (fresh objects, so the program's per-model caches start cold every
round); ``round(inputs, timed)`` makes the timed calls, each wrapped in
``with timed(op):``, and returns the outputs; ``counts(out)`` gives the units
of work behind the rate metrics and ``check(out)`` the failed correctness
checks. Inputs depend only on the seed given to the constructor and on k.
Seeded workloads draw new inputs every round from (seed, k), so the median
over a run's rounds averages over inputs as well as over timing noise;
``fingerprint`` is None for them and a digest for workloads whose rounds
repeat the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from importlib.resources import files

import numpy as np

from ncft import cli, kinetics, models, riemann, tracking
from ncft import diagnostics as dg
from ncft.kinetics import KineticFunction

import checks

# check_hypotheses runs on a prefix of the program's own default sample set
# (default_samples, seed 0), the set `ncft --config` conformance uses: its
# per-sample cost spreads so widely that a seeded handful of samples would
# make the conformance rate depend on the seed
CONFORMANCE_SEED = 0
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _stratified(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one per equal slice of every axis (Latin
    hypercube): the same distribution as uniform draws, with the spread of
    per-input costs averaged out across seeds."""
    slots = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (slots + rng.uniform(size=(n, dims))) / n


def _jittered_grid(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """n points in [0, 1)^2, n/k^2 uniform in each cell of a k x k grid, in
    seeded order: uniform draws whose cost, which hangs on both coordinates
    at once, averages out across seeds."""
    cells = np.repeat(np.arange(k * k), n // (k * k))
    cells = rng.permutation(np.concatenate(
        [cells, rng.choice(k * k, n - len(cells), replace=False)]))
    corner = np.stack([cells // k, cells % k], axis=1)
    return (corner + rng.uniform(size=(n, 2))) / k


def _waves(fan) -> list:
    return [w.to_json_dict() for w in fan.waves]


def _event_fans(events) -> list:
    return [_waves(ev.outgoing) for ev in events]


def _front_sets(result):
    """The initial, post-event and final front sets, one at a time."""
    yield checks.front_dicts(result.initial)
    for ev in result.events:
        yield checks.front_dicts(ev.post)
    yield checks.front_dicts(result.final)


def _lyapunov_checks(model, result, series, table) -> list:
    l0 = series["series"][0].lyapunov
    l1 = series["series"][-1].lyapunov
    bad = checks.lyapunov_deltas([r["delta"] for r in series["events"]],
                                 l0, l1)
    init, final = result.initial, result.final
    bad += checks.lyapunov_ends(
        checks.front_dicts(init), {"y": init.y_id, "z": init.z_id},
        checks.front_dicts(final), {"y": final.y_id, "z": final.z_id},
        table, model.cc_index, l0, l1)
    return bad


class CubicConfigs:
    """Both bundled configs through cli.run_experiment, the path
    `ncft --config` takes, writing artifacts into a scratch directory."""

    name = "cubic-configs"
    CONFIGS = (("cubic-baseline.json", True), ("cubic-no-nucleation.json",
                                                False))

    # every stage runs inside run_experiment, so every rate takes the
    # experiments' time as its base: here the rates are scaled copies of
    # 1 / wall_s, printed because every workload prints every metric
    TIME_OPS = {key: ("run_experiment",) for key in (
        "conformance_samples", "riemann_solves", "events", "replayed_events")}

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self, k: int) -> list:
        cfgs = []
        for fname, _ in self.CONFIGS:
            raw = json.loads(files("ncft").joinpath(f"configs/{fname}")
                             .read_text())
            raw["seed"] = self.seed
            if self.small:
                raw.setdefault("calibration", {})["n"] = 20
            cfgs.append(cli.validate_config(raw))
        return cfgs

    def round(self, cfgs: list, timed) -> list:
        out = []
        os.makedirs(OUT_DIR, exist_ok=True)
        for (_, nucleation), cfg in zip(self.CONFIGS, cfgs):
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as out_dir:
                with timed("run_experiment"):
                    cli.run_experiment(cfg, out_dir)
                out.append(self._read(out_dir, cfg, nucleation))
        return out

    @staticmethod
    def _read(out_dir: str, cfg: dict, nucleation: bool) -> dict:
        art = {}
        digest = hashlib.sha256()
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            digest.update(fname.encode() + b"\0" + data)
            art[fname] = data.decode()
        lines = art["functionals.csv"].splitlines()
        return {
            "cfg": cfg,
            "nucleation": nucleation,
            "digest": digest.hexdigest(),
            "manifest": json.loads(art["MANIFEST.json"]),
            "conformance": json.loads(art["conformance.json"]),
            "calibration": json.loads(art["calibration.json"]),
            "events": [json.loads(x) for x in
                       art["events.jsonl"].splitlines()],
            "trajectory": [json.loads(x) for x in
                           art["trajectory.jsonl"].splitlines()],
            "lyapunov": [float(x.split(",")[-1]) for x in lines[1:]],
        }

    def counts(self, out: list) -> dict:
        c = {"conformance_samples": 0, "riemann_solves": 0, "events": 0,
             "fronts_max": 0}
        for run in out:
            cal = run["calibration"]
            n_events = run["manifest"]["summary"]["n_events"]
            c["conformance_samples"] += run["conformance"]["grid"]["n_samples"]
            c["riemann_solves"] += (cal["n_evaluated"] + cal["n_zero_product"]
                                    + len(run["cfg"]["initial"]["jumps"]) + 1
                                    + n_events)
            c["events"] += n_events
            c["fronts_max"] = max([c["fronts_max"]] + [
                len(s["fronts"]) for s in run["trajectory"]])
        c["replayed_events"] = c["events"]
        c["n_usable"] = sum(r["conformance"]["grid"]["n_usable"] for r in out)
        return c

    def check(self, out: list) -> list:
        bad = []
        for run in out:
            bad += self._check_run(run)
        return bad

    @staticmethod
    def _check_run(run: dict) -> list:
        cfg, events = run["cfg"], run["events"]
        label = "no-nucleation" if not run["nucleation"] else "baseline"
        bad = checks.cff(run["manifest"]["measured_cff"])
        fans = [ev["outgoing"] for ev in events]
        first, last = run["trajectory"][0], run["trajectory"][-1]
        bad += checks.cubic_kinetic_states(fans)
        bad += checks.cubic_branch_choice(fans, run["nucleation"])
        bad += checks.cubic_entropy([w for f in fans for w in f] +
                                    last["fronts"])
        states, xs = cli.initial_profile(cfg)
        bad += checks.cubic_mass_balance(
            [float(s[0]) for s in states], xs, last["fronts"], cfg["T"],
            [ev["mass_correction"] for ev in events])
        lyap = run["lyapunov"]
        bad += checks.lyapunov_deltas([ev["delta"] for ev in events],
                                      lyap[0], lyap[-1])
        roles0 = checks.initial_roles(first["fronts"], 0)
        table = checks.lemma_weight_table(run["manifest"]["measured_cff"],
                                          cfg["weights"]["zeta"],
                                          cfg["weights"]["K"])
        bad += checks.lyapunov_ends(
            first["fronts"], roles0, last["fronts"],
            checks.replay_roles(roles0, events), table, 0, lyap[0], lyap[-1])
        return [f"{label}: {msg}" for msg in bad]

    @staticmethod
    def fingerprint(out: list) -> list:
        return [run["digest"] for run in out]


class CubicFrontLoad:
    """ROADMAP load data: the strong jump 1.0 -> -0.368 at x = 0 followed
    by weak jumps in +-0.004, spaced 0.02 from x = 0.05; h = 0.002, T = 6,
    theta = gamma = 0.5, stability check off, lemma_weights(0.75)."""

    name = "cubic-front-load"
    TIME_OPS = {
        "conformance_samples": ("check_hypotheses",),
        "riemann_solves": ("init_fronts", "run"),
        "events": ("run",),
        "replayed_events": ("lyapunov_series", "cycle_audit"),
    }
    N_JUMPS = 160
    # enough samples to certify the Cff = 0.75 behind lemma_weights(0.75)
    # and give the conformance rate every workload prints, few enough to
    # keep check_hypotheses near 5 % of the round
    N_CONFORMANCE = 8
    H = 0.002
    T = 6.0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.n_jumps = 12 if small else self.N_JUMPS
        self.n_conf = 4 if small else self.N_CONFORMANCE

    def setup(self, k: int) -> dict:
        model = models.cubic_model()
        rng = np.random.default_rng([self.seed, k])
        deltas = -0.004 + 0.008 * _stratified(rng, self.n_jumps, 1)[:, 0]
        states = [np.array([1.0]), np.array([-0.368])]
        for d in deltas:
            states.append(states[-1] + d)
        return {
            "model": model,
            "kin": KineticFunction(theta=0.5, nucleation_gamma=0.5),
            "states": states,
            "positions": [0.0] + [0.05 + 0.02 * k
                                  for k in range(self.n_jumps)],
            "samples": kinetics.default_samples(model, self.n_conf,
                                                CONFORMANCE_SEED),
        }

    def round(self, inp: dict, timed) -> dict:
        model, kin = inp["model"], inp["kin"]
        with timed("check_hypotheses"):
            conf = kinetics.check_hypotheses(model, kin, inp["samples"])
        with timed("init_fronts"):
            fronts0 = tracking.init_fronts(model, kin, inp["states"],
                                           inp["positions"], h=self.H,
                                           strong_jumps=[0])
        with timed("run"):
            result = tracking.run(model, kin, fronts0, t_end=self.T)
        weights = dg.lemma_weights(0.75)
        with timed("lyapunov_series"):
            series = dg.lyapunov_series(model, result.events,
                                        result.snapshots, weights)
        with timed("cycle_audit"):
            dg.cycle_audit(model, kin, result.events, result.snapshots,
                           weights, cff=0.75)
        with timed("conservation_report"):
            tracking.conservation_report(model, result)
        return {"inputs": inp, "conformance": conf, "result": result,
                "series": series}

    def counts(self, out: dict) -> dict:
        result = out["result"]
        n_events = len(result.events)
        grid = out["conformance"].grid
        return {
            "conformance_samples": grid["n_samples"],
            "n_usable": grid["n_usable"],
            "riemann_solves": len(out["inputs"]["positions"]) + n_events,
            "events": n_events,
            "replayed_events": n_events,
            "fronts_max": max([len(ev.post.fronts) for ev in result.events] +
                              [len(result.initial.fronts)]),
        }

    def check(self, out: dict) -> list:
        inp, result, series = out["inputs"], out["result"], out["series"]
        bad = checks.cff(out["conformance"].measured_Cff)
        fans = _event_fans(result.events)
        bad += checks.cubic_kinetic_states(fans)
        bad += checks.cubic_branch_choice(fans, nucleation=True)
        bad += checks.cubic_entropy([w for f in fans for w in f] +
                                    checks.front_dicts(result.final))
        bad += checks.cubic_mass_balance(
            [float(s[0]) for s in inp["states"]], inp["positions"],
            checks.front_dicts(result.final), self.T,
            [ev.mass_correction for ev in result.events])
        bad += _lyapunov_checks(inp["model"], result, series,
                                checks.lemma_weight_table(0.75, 0.1, 1.0))
        bad += checks.fronts_ordered(_front_sets(result))
        return bad

    fingerprint = None


class ElasticitySystem:
    """The p-system: conformance, a batch of weak Riemann problems drawn as
    in acceptance check c13, and a tracked run of weak jumps around
    (0, 0.5) with its replay."""

    name = "elasticity-system"
    TIME_OPS = {
        "conformance_samples": ("check_hypotheses",),
        "riemann_solves": ("solve_riemann",),
        "events": ("run",),
        "replayed_events": ("lyapunov_series", "cycle_audit"),
    }
    N_CONFORMANCE = 12
    N_PROBLEMS = 32
    N_JUMPS = 12
    H = 0.01
    T = 1.0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.n_conf = 4 if small else self.N_CONFORMANCE
        self.n_problems = 4 if small else self.N_PROBLEMS
        self.n_jumps = 4 if small else self.N_JUMPS

    def setup(self, k: int) -> dict:
        rng = np.random.default_rng([self.seed, k])
        # c13: w in +-[0.25, 0.75], v in [-0.5, 0.5], jump in [-0.1, 0.1]^2;
        # the jump decides which waves are shocks, so it is spread over a grid
        p = _stratified(rng, self.n_problems, 3)
        d = 0.2 * _jittered_grid(rng, self.n_problems, 4) - 0.1
        problems = []
        for (pw, ps, pv), delta in zip(p, d):
            base = np.array([pv - 0.5,
                             (0.25 + 0.5 * pw) * (1.0 if ps < 0.5 else -1.0)])
            problems.append((base, base + delta))
        jumps = 0.06 * _jittered_grid(rng, self.n_jumps, 3) - 0.03
        states = [np.array([0.0, 0.5])]
        for d in jumps:
            states.append(states[-1] + d)
        conf_model = models.elasticity_model()
        return {
            "conf_model": conf_model,
            # c13's wider curve ball
            "batch_model": models.elasticity_model(delta0=4.0, delta1=2.0),
            "track_model": models.elasticity_model(),
            "kin": KineticFunction(theta=0.5, nucleation_gamma=0.5),
            "samples": kinetics.default_samples(conf_model, self.n_conf,
                                                CONFORMANCE_SEED),
            "problems": problems,
            "states": states,
            "positions": [-1.0 + 2.0 * k / self.n_jumps
                          for k in range(self.n_jumps)],
        }

    def round(self, inp: dict, timed) -> dict:
        kin = inp["kin"]
        with timed("check_hypotheses"):
            conf = kinetics.check_hypotheses(inp["conf_model"], kin,
                                             inp["samples"])
        model = inp["batch_model"]
        with timed("solve_riemann"):
            fans = [riemann.solve_riemann(model, kin, a, b)
                    for a, b in inp["problems"]]
        model = inp["track_model"]
        with timed("init_fronts"):
            fronts0 = tracking.init_fronts(model, kin, inp["states"],
                                           inp["positions"], h=self.H)
        with timed("run"):
            result = tracking.run(model, kin, fronts0, t_end=self.T)
        weights = dg.lemma_weights(conf.measured_Cff)
        with timed("lyapunov_series"):
            series = dg.lyapunov_series(model, result.events,
                                        result.snapshots, weights)
        with timed("cycle_audit"):
            dg.cycle_audit(model, kin, result.events, result.snapshots,
                           weights, cff=conf.measured_Cff)
        return {"inputs": inp, "conformance": conf, "fans": fans,
                "result": result, "series": series}

    def counts(self, out: dict) -> dict:
        result = out["result"]
        n_events = len(result.events)
        grid = out["conformance"].grid
        return {
            "conformance_samples": grid["n_samples"],
            "n_usable": grid["n_usable"],
            "riemann_solves": len(out["fans"]),
            "events": n_events,
            "replayed_events": n_events,
            "fronts_max": max([len(ev.post.fronts) for ev in result.events] +
                              [len(result.initial.fronts)]),
        }

    def check(self, out: dict) -> list:
        conf = out["conformance"]
        bad = [] if conf.passed else ["p-system conformance failed"]
        bad += checks.cff(conf.measured_Cff)
        for (a, b), fan in zip(out["inputs"]["problems"], out["fans"]):
            waves = _waves(fan)
            bad += checks.fan_structure(waves, a.tolist(), b.tolist())
            bad += checks.psystem_shocks(waves)
        result = out["result"]
        for fan in _event_fans(result.events):
            bad += checks.psystem_shocks(fan)
        bad += checks.fronts_ordered(_front_sets(result))
        return bad

    fingerprint = None


WORKLOADS = {w.name: w for w in (CubicConfigs, CubicFrontLoad,
                                 ElasticitySystem)}
