"""An exact oracle for the system code path: the decoupled cubic x Burgers
system.

Its first component solves the scalar cubic u_t + (u^3)_x = 0 and its
second the shifted Burgers equation v_t + ((v + 14)^2 / 2)_x = 0, with
nothing coupling the two. So the family-0 waves of a system run must be
the scalar run's, whatever the v-waves do, and a v-wave must leave every
crossing with the strength it came in with. The system goes through the
Newton curve intersection, the tracker's system paths and the replay,
which the scalar model never reaches.
"""

import json
from importlib import resources

import numpy as np
import pytest

from ncft import cli, diagnostics as dg
from ncft.kinetics import KineticFunction
from ncft.models import FluxModel, cubic_model
from ncft.tracking import init_fronts, run

CUBIC = cubic_model()
KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
W = dg.lemma_weights(0.75, zeta=0.1, K=1.0)


@pytest.fixture(scope="module")
def cubic_burgers() -> FluxModel:
    """Flux (u^3, (v + 14)^2 / 2) with entropy pair (u^2 + v^2/2,
    1.5 u^4 + v^3/3 + 7 v^2), designated family 0. On the ball
    |(u, v)| <= 2, lambda_1 - lambda_0 >= 3 v^2 + v + 2 > 0, so the system
    is strictly hyperbolic, and the v-family is genuinely nonlinear."""

    def flux(u):
        return np.array([u[0] ** 3, 0.5 * (u[1] + 14.0) ** 2])

    def entropy(u):
        x, v = u
        return x * x + 0.5 * v * v, 1.5 * x ** 4 + v ** 3 / 3.0 + 7.0 * v * v

    def family_parameter(u, j):
        return float(u[j])

    def eigen_fn(u):
        return ((3.0 * u[0] ** 2, u[1] + 14.0), ((1.0, 0.0), (0.0, 1.0)),
                ((1.0, 0.0), (0.0, 1.0)))

    def m_fn(u, j):
        return 6.0 * u[0] if j == 0 else 1.0

    # family 0 is the cubic's chord, family 1 Burgers' mean speed
    def hugoniot_fn(u, j, m):
        x0, v0 = float(u[0]), float(u[1])
        if j == 0:
            return np.array([m, v0]), (m ** 3 - x0 ** 3) / (m - x0)
        return np.array([x0, m]), 0.5 * (v0 + m) + 14.0

    def integral_curve_fn(u, j, m):
        return np.array([m, u[1]]) if j == 0 else np.array([u[0], m])

    return FluxModel(
        name="cubic-burgers", N=2, flux=flux, entropy=entropy, delta0=2.0,
        delta1=1.5, cc_index=0, family_parameter=family_parameter,
        eigen_fn=eigen_fn, m_fn=m_fn, hugoniot_fn=hugoniot_fn,
        integral_curve_fn=integral_curve_fn,
        critical_fn=CUBIC.critical_fn)


def _tracked(model, v_jumps):
    # the bundled cubic baseline to T = 2 with 20 weak u-jumps at
    # x = 0.05 + 0.04 k, tracked at cap h = 0.01 and replayed; on the
    # system every state gets a v-component, 0 at the left and jumping by
    # v_jumps
    raw = json.loads(resources.files("ncft").joinpath(
        "configs", "cubic-baseline.json").read_text(encoding="utf-8"))
    deltas = np.random.default_rng(3).uniform(-0.02, 0.02, 20)
    raw["initial"]["jumps"] = [[0.05 + 0.04 * k, [float(d)]]
                               for k, d in enumerate(deltas)]
    raw.update(T=2.0, snapshot_dt=0.5, h=0.01)
    cfg = cli.validate_config(raw)
    states, positions = cli.initial_profile(cfg)
    if model.N == 2:
        vs = np.concatenate([[0.0, 0.0], np.cumsum(v_jumps)])
        states = [np.array([u[0], v]) for u, v in zip(states, vs)]
    fronts0 = init_fronts(model, KIN, states, positions, h=cfg["h"],
                          strong_jumps=[0])
    res = run(model, KIN, fronts0, t_end=cfg["T"],
              snapshot_dt=cfg["snapshot_dt"])
    return res, dg.lyapunov_series(model, res.events, res.snapshots, W)


@pytest.fixture(scope="module")
def scalar_run():
    return _tracked(CUBIC, None)


def test_system_without_v_waves_is_the_scalar_run(cubic_burgers,
                                                   scalar_run):
    res, series = scalar_run
    sys_res, sys_series = _tracked(cubic_burgers, np.zeros(20))
    assert len(res.events) == len(sys_res.events) == 25
    assert ([ev.time for ev in sys_res.events]
            == [ev.time for ev in res.events])
    assert sys_res.final.xs.tolist() == res.final.xs.tolist()
    assert ([w.kind for w in sys_res.final.waves]
            == [w.kind for w in res.final.waves])
    assert all(w.family == 0 for w in sys_res.final.waves)
    for w, s in zip(res.final.waves, sys_res.final.waves):
        assert s.left.tolist() == w.left.tolist() + [0.0]
        assert s.right.tolist() == w.right.tolist() + [0.0]
    assert ([(r["pre_lyapunov"], r["post_lyapunov"])
             for r in sys_series["events"]]
            == [(r["pre_lyapunov"], r["post_lyapunov"])
                for r in series["events"]])


@pytest.fixture(scope="module")
def v_wave_run(cubic_burgers):
    v_jumps = np.random.default_rng(4).uniform(-0.02, 0.02, 20)
    return _tracked(cubic_burgers, v_jumps)[0]


def test_v_waves_leave_the_u_waves_as_the_scalar_run_has_them(
        scalar_run, v_wave_run):
    # the order of events differs from the scalar run's, so positions
    # agree to roundoff, not bit for bit
    res = scalar_run[0]
    assert len(v_wave_run.events) == 331
    want = res.final.waves
    got = [w for w in v_wave_run.final.waves if w.family == 0]
    xs = [x for x, w in zip(v_wave_run.final.xs.tolist(),
                            v_wave_run.final.waves) if w.family == 0]
    assert [w.kind for w in got] == [w.kind for w in want]
    for w, s in zip(want, got):
        assert s.left[0] == w.left[0] and s.right[0] == w.right[0]
    assert np.max(np.abs(np.array(xs) - res.final.xs)) < 1e-13


def test_a_v_wave_crosses_with_its_strength(v_wave_run):
    # transmission 1, reflection 0: a lone v-wave that meets u-waves
    # leaves the crossing as it came in
    crossings = 0
    for ev in v_wave_run.events:
        v_in = [w for w in ev.incoming if w.family == 1]
        if len(v_in) != 1:
            continue
        v_out = [w for w in ev.placed if w.family == 1]
        assert [w.strength for w in v_out] == [v_in[0].strength]
        crossings += 1
    assert crossings == 306
