"""Riemann solver tests.

Scalar fans are checked against hand-evaluated chord speeds and kinetic
values; the elasticity solves are checked against a test-local shooting
oracle built from the closed-form wave curves of that model.
"""

import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from ncft import (curves, diagnostics as dg, kinetics as kin_mod, models,
                  riemann)
from ncft.kinetics import KineticFunction
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import (
    KIND_CLASSICAL,
    KIND_NONCLASSICAL,
    KIND_RAREFACTION,
    IdGen,
    SolverError,
    Wave,
    WaveFan,
    solve_riemann,
    wave_curve_point,
)

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("ci")

CUBIC = cubic_model()
ELAS = elasticity_model()
KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
KIN0 = KineticFunction(theta=0.0, nucleation_gamma=0.0)


def fan_kinds(fan):
    return [w.kind for w in fan.waves]


def test_rarefaction_fan():
    fan = solve_riemann(CUBIC, KIN, 1.0, 1.2)
    assert fan_kinds(fan) == [KIND_RAREFACTION]
    w = fan.waves[0]
    assert w.speed[0] == pytest.approx(3.0, abs=1e-12)
    assert w.speed[1] == pytest.approx(4.32, abs=1e-12)
    assert w.strength == pytest.approx(0.2, abs=1e-12)
    assert np.array_equal(fan.waves[-1].right, np.array([1.2]))


def test_lax_fan():
    fan = solve_riemann(CUBIC, KIN, 1.0, 0.5)
    assert fan_kinds(fan) == [KIND_CLASSICAL]
    assert fan.waves[0].speed == pytest.approx(1.75, abs=1e-12)
    assert fan.waves[0].strength == pytest.approx(-0.5, abs=1e-12)


def test_equal_states_empty_fan():
    fan = solve_riemann(CUBIC, KIN, 0.7, 0.7)
    assert fan.waves == ()
    fan2 = solve_riemann(ELAS, KIN, (0.1, 0.4), (0.1, 0.4))
    assert fan2.waves == ()


def test_nonclassical_fan_with_trailing_shock():
    fan = solve_riemann(CUBIC, KIN, 1.0, -0.45)
    assert fan_kinds(fan) == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    nc, up = fan.waves
    assert nc.right[0] == pytest.approx(-0.75, abs=1e-12)
    assert nc.speed == pytest.approx(0.8125, abs=1e-11)
    assert up.speed == pytest.approx(1.1025, abs=1e-11)
    assert nc.speed < up.speed
    assert nc.strength == pytest.approx(-0.25, abs=1e-10)
    assert up.strength == pytest.approx(-0.30, abs=1e-10)
    # the nonclassical jump satisfies the kinetic relation exactly
    assert nc.right[0] == pytest.approx(
        kin_mod.mu_flat(CUBIC, KIN, nc.left), abs=1e-12
    )


def test_nonclassical_fan_with_trailing_rarefaction():
    fan = solve_riemann(CUBIC, KIN, 1.0, -0.9)
    assert fan_kinds(fan) == [KIND_NONCLASSICAL, KIND_RAREFACTION]
    nc, rf = fan.waves
    assert nc.speed == pytest.approx(0.8125, abs=1e-11)
    assert rf.left[0] == pytest.approx(-0.75, abs=1e-12)
    assert rf.speed[0] == pytest.approx(1.6875, abs=1e-10)
    assert rf.speed[1] == pytest.approx(2.43, abs=1e-12)
    assert nc.speed <= rf.speed[0]


def test_nucleation_keeps_classical_inside_overlap():
    # jump to -0.3: distance 1.3 beats the threshold distance 1.375
    fan = solve_riemann(CUBIC, KIN, 1.0, -0.3)
    assert fan_kinds(fan) == [KIND_CLASSICAL]
    assert fan.waves[0].speed == pytest.approx(0.79, abs=1e-12)


def test_nucleation_switch_point():
    ids = IdGen()
    # at the threshold itself the tie goes classical
    _, frag = wave_curve_point(CUBIC, KIN, 1.0, 0, -0.375, ids)
    assert [w.kind for w in frag] == [KIND_CLASSICAL]
    assert frag[0].speed == pytest.approx(0.765625, abs=1e-12)
    _, frag = wave_curve_point(CUBIC, KIN, 1.0, 0, -0.375 - 1e-9, ids)
    assert [w.kind for w in frag] == [KIND_NONCLASSICAL, KIND_CLASSICAL]


def test_no_nucleation_threshold_is_companion():
    # with gamma=0 the nucleation threshold is the companion -0.25 bit for
    # bit, so the classical branch ends there and -0.3 takes the
    # nonclassical branch
    kin_g0 = KineticFunction(theta=0.5, nucleation_gamma=0.0)
    assert kin_mod.mu_nucleation(CUBIC, kin_g0, 1.0) == \
        kin_mod.mu_sharp(CUBIC, kin_g0, 1.0)
    fan = solve_riemann(CUBIC, kin_g0, 1.0, -0.3)
    assert fan_kinds(fan) == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    assert fan.waves[1].speed == pytest.approx(0.8775, abs=1e-11)


def test_manifold_state_spreads_both_ways():
    for u_r in (0.3, -0.3):
        fan = solve_riemann(CUBIC, KIN, 0.0, u_r)
        assert fan_kinds(fan) == [KIND_RAREFACTION]


def test_mirror_fan():
    fan = solve_riemann(CUBIC, KIN, -1.0, 0.45)
    assert fan_kinds(fan) == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    assert fan.waves[0].right[0] == pytest.approx(0.75, abs=1e-12)
    assert fan.waves[0].speed == pytest.approx(0.8125, abs=1e-11)


def test_theta_zero_leading_piece_is_classical_contact():
    # the tangent jump 1 -> -0.5 is a Lax tie, so it carries the
    # classical label, and the join to the tail is speed-continuous
    fan = solve_riemann(CUBIC, KIN0, 1.0, -0.6)
    assert fan_kinds(fan) == [KIND_CLASSICAL, KIND_RAREFACTION]
    lead, tail = fan.waves
    assert lead.right[0] == pytest.approx(-0.5, abs=1e-12)
    assert lead.speed == pytest.approx(0.75, abs=1e-11)
    assert tail.speed[0] == pytest.approx(lead.speed, abs=1e-10)


def test_gamma_zero_speed_continuity_at_companion_join():
    kin_g0 = KineticFunction(theta=0.5, nucleation_gamma=0.0)
    ids = IdGen()
    eps = 1e-7
    _, above = wave_curve_point(CUBIC, kin_g0, 1.0, 0, -0.25 + eps, ids)
    _, below = wave_curve_point(CUBIC, kin_g0, 1.0, 0, -0.25 - eps, ids)
    assert [w.kind for w in above] == [KIND_CLASSICAL]
    assert [w.kind for w in below] == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    # single-shock speed and trailing-shock speed meet at the companion
    assert above[0].speed == pytest.approx(below[1].speed, abs=1e-5)
    assert abs(above[0].speed - 0.8125) < 1e-6


def test_reached_parameter_matches_target():
    ids = IdGen()
    for m in np.linspace(-1.4, 1.4, 29):
        state, frag = wave_curve_point(CUBIC, KIN, 1.0, 0, float(m), ids)
        assert abs(state[0] - m) < 1e-9
        for w in frag:
            assert w.strength != 0.0


def test_self_similarity_resplits():
    fan = solve_riemann(CUBIC, KIN, 1.0, -0.45)
    mid = fan.waves[0].right
    sub = solve_riemann(CUBIC, KIN, mid, -0.45)
    assert fan_kinds(sub) == [KIND_CLASSICAL]
    assert sub.waves[0].speed == pytest.approx(fan.waves[1].speed, abs=1e-10)
    lead = solve_riemann(CUBIC, KIN, 1.0, mid)
    assert fan_kinds(lead) == [KIND_NONCLASSICAL]
    assert lead.waves[0].speed == pytest.approx(fan.waves[0].speed, abs=1e-10)


def test_no_solution_gap_guard(monkeypatch):
    # unreachable for interpolated kinetics; force the threshold past the
    # companion to exercise the guard
    real = kin_mod.thresholds
    monkeypatch.setattr(kin_mod, "thresholds", lambda model, kin, u: (
        *real(model, kin, u)[:2], -0.2))
    with pytest.raises(riemann.NoSolutionGap):
        wave_curve_point(CUBIC, KIN, 1.0, 0, -0.22, IdGen())


def test_ball_enforced_on_inputs():
    with pytest.raises(models.BallViolation):
        solve_riemann(CUBIC, KIN, 1.6, 0.5)


# elasticity oracle: closed-form wave curves and a one-parameter shooting


def _G(s):
    return 0.5 * s * np.sqrt(3 * s * s + 1) + np.arcsinh(np.sqrt(3.0) * s) / (
        2 * np.sqrt(3.0)
    )


def _sigma(w):
    return w**3 + w


def _chord(wl, wr):
    return (_sigma(wr) - _sigma(wl)) / (wr - wl)


def _fam0_to(v_l, w_l, w):
    if w == w_l:
        return v_l
    if w > w_l:  # slow-family shock side for w > 0
        lam = -np.sqrt(_chord(w_l, w))
        return v_l - lam * (w - w_l)
    return v_l + (_G(w) - _G(w_l))


def _fam1_to(v_m, w_m, w):
    if w == w_m:
        return v_m
    if w < w_m:  # fast-family shock side for w > 0
        lam = np.sqrt(_chord(w_m, w))
        return v_m - lam * (w - w_m)
    return v_m - (_G(w) - _G(w_m))


def test_elasticity_weak_classical_pair():
    u_l = (0.0, 0.6)
    u_r = (0.05, 0.55)

    def shoot(w_m):
        v_m = _fam0_to(u_l[0], u_l[1], w_m)
        return _fam1_to(v_m, w_m, u_r[1]) - u_r[0]

    w_mid = brentq(shoot, 0.4, 0.8, xtol=1e-14)
    v_mid = _fam0_to(u_l[0], u_l[1], w_mid)

    fan = solve_riemann(ELAS, KIN, u_l, u_r)
    assert len(fan.waves) == 2
    assert [w.family for w in fan.waves] == [0, 1]
    mid = fan.waves[0].right
    assert mid[0] == pytest.approx(v_mid, abs=1e-9)
    assert mid[1] == pytest.approx(w_mid, abs=1e-9)
    assert np.max(np.abs(fan.waves[-1].right - np.array(u_r))) == 0.0
    for w in fan.waves:
        if not isinstance(w.speed, tuple):
            E = curves.entropy_dissipation(ELAS, w.left, w.right)
            assert E <= 1e-9


def test_elasticity_fan_speeds_ordered_across_families():
    fan = solve_riemann(ELAS, KIN, (0.0, 0.6), (0.05, 0.55))
    assert fan.waves[0].speed_hi < 0 < fan.waves[1].speed_lo


def test_elasticity_nonclassical_system_fan():
    # build the target state by walking the true curves forward, then ask
    # the solver to recover the construction
    ids = IdGen()
    mid, frag0 = wave_curve_point(ELAS, KIN, (0.0, 0.5), 0, -0.45, ids)
    assert [w.kind for w in frag0] == [KIND_RAREFACTION]
    end, frag1 = wave_curve_point(ELAS, KIN, mid, 1, -0.30, ids)
    assert [w.kind for w in frag1] == [KIND_NONCLASSICAL, KIND_CLASSICAL]

    fan = solve_riemann(ELAS, KIN, (0.0, 0.5), end)
    assert fan_kinds(fan) == [KIND_RAREFACTION, KIND_NONCLASSICAL, KIND_CLASSICAL]
    assert fan.waves[0].right[1] == pytest.approx(0.45, abs=1e-8)
    assert fan.waves[1].right[1] == pytest.approx(frag1[0].right[1], abs=1e-8)
    assert np.max(np.abs(fan.waves[-1].right - end)) == 0.0
    fan.validate()


@pytest.mark.parametrize("w, strength", [(0.3, -0.075), (0.5, -0.125)])
def test_elasticity_fan_to_the_kinetic_state_has_no_null_wave(w, strength):
    # family 0's target lands on its base state; the fan is the lone
    # nonclassical jump, with no wave between equal states before it
    u_l = np.array([0.0, w])
    u_r = kin_mod.phi_flat(ELAS, KIN, u_l)
    fan = solve_riemann(ELAS, KIN, u_l, u_r)
    assert [(wv.family, wv.kind) for wv in fan.waves] == \
        [(1, KIND_NONCLASSICAL)]
    assert fan.waves[0].strength == pytest.approx(strength, abs=1e-12)
    assert np.array_equal(fan.waves[0].left, u_l)
    assert np.array_equal(fan.waves[0].right, u_r)
    fan.validate()


@pytest.mark.parametrize("u_r", [(0.05, 0.55), "kinetic"])
def test_system_solve_builds_waves_for_its_fan_only(monkeypatch, u_r):
    # the Newton loop reads end states and builds no wave; the fan walk
    # builds one per wave, before the filter drops null waves
    u_l = np.array([0.0, 0.6])
    if u_r == "kinetic":
        u_r = kin_mod.phi_flat(ELAS, KIN, u_l)
    built, seen = [], {}
    init = riemann.Wave.__init__
    newton, snap = riemann._newton_targets, riemann._snap_last

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def newton_targets(*args):
        targets = newton(*args)
        seen["newton"] = len(built)
        return targets

    def snap_last(model, waves, b):
        seen["walk"] = (len(built), len(waves))
        return snap(model, waves, b)

    monkeypatch.setattr(riemann.Wave, "__init__", counting_init)
    monkeypatch.setattr(riemann, "_newton_targets", newton_targets)
    monkeypatch.setattr(riemann, "_snap_last", snap_last)
    fan = solve_riemann(ELAS, KIN, u_l, u_r)
    assert seen["newton"] == 0
    n_built, n_walked = seen["walk"]
    assert n_built == n_walked >= len(fan.waves) > 0


def test_wave_json_round_trip():
    fan = solve_riemann(CUBIC, KIN, 1.0, -0.45)
    d = fan.to_json_dict()
    assert [w["kind"] for w in d["waves"]] == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    assert d["waves"][0]["speed"] == pytest.approx(0.8125)
    assert isinstance(d["waves"][0]["id"], int)
    fan2 = solve_riemann(CUBIC, KIN, 1.0, 1.2)
    assert fan2.to_json_dict()["waves"][0]["speed"] == [3.0, 4.32]


def test_wave_ids_do_not_depend_on_earlier_calls():
    # without an id source every call numbers its waves from zero
    first = solve_riemann(CUBIC, KIN, 1.0, -0.45)
    second = solve_riemann(CUBIC, KIN, 1.0, -0.45)
    assert [w.id for w in first.waves] == [0, 1]
    assert [w.id for w in second.waves] == [0, 1]
    _, frag = wave_curve_point(CUBIC, KIN, 1.0, 0, -0.45)
    assert [w.id for w in frag] == [0, 1]
    ids = IdGen()
    solve_riemann(CUBIC, KIN, 1.0, -0.45, ids=ids)
    assert [w.id for w in solve_riemann(CUBIC, KIN, 1.0, -0.45,
                                        ids=ids).waves] == [2, 3]



def _fan_digest(model, kin, pairs):
    # sha256 over each fan's JSON, or over the exception's class name when
    # the solve fails; returns the digest and the failure count
    h = hashlib.sha256()
    failures = 0
    for a, b in pairs:
        try:
            fan = solve_riemann(model, kin, a, b)
        except ValueError as exc:
            failures += 1
            h.update(type(exc).__name__.encode())
            continue
        h.update(json.dumps(fan.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest(), failures


def _c13_pairs(n=300, seed=5):
    # the first n weak problems of the c13 release check's draw
    rng = np.random.default_rng(seed)
    for _ in range(n):
        base_w = rng.uniform(0.25, 0.75) * rng.choice([-1.0, 1.0])
        base = np.array([rng.uniform(-0.5, 0.5), base_w])
        yield base, base + rng.uniform(-0.1, 0.1, size=2)


def _uniform_pairs(n, lo, hi, dim, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng.uniform(lo, hi, dim), rng.uniform(lo, hi, dim)


# (model, kinetics, problems, digest, failures); the strong elasticity draw
# covers the solver's failures (intersection stalls and ball exits) as well
# as its fans, at three kinetics (the classical limit, the bundled one and
# theta = 0.9)
GOLDEN_FANS = [
    (elasticity_model(delta0=4.0, delta1=2.0), KIN, _c13_pairs,
     "de8679a75875db7fead80a121d8b05993503bf20251b81c4c9137e7c89929b96", 0),
    (ELAS, KIN, lambda: _uniform_pairs(300, -0.6, 0.6, 2),
     "0804b2d226096f8585e9b113c11e7b03c52c67a2f03e5f713480a04b9258c3f6", 45),
    (CUBIC, KIN, lambda: _uniform_pairs(300, -1.2, 1.2, 1),
     "e467a3682d6b6a1c1e3b5ec22d8d5cf72a9b4602149def3837d802b15541915e", 0),
    (ELAS, KIN0, lambda: _uniform_pairs(300, -0.6, 0.6, 2),
     "d861c0fe02b13e8675be3b9f97223145e99634fd798c567e9a031bf5fb17ec5c", 45),
    (ELAS, KineticFunction(theta=0.9, nucleation_gamma=0.25),
     lambda: _uniform_pairs(300, -0.6, 0.6, 2),
     "f1085f8f55744c1fb75975395754298480032e660fe318940a068cd007c4b26c", 45),
]


@pytest.mark.parametrize("model, kin, pairs, digest, failures", GOLDEN_FANS,
                         ids=["c13-draw", "elasticity-strong", "cubic",
                              "elasticity-strong-classical",
                              "elasticity-strong-theta0.9"])
def test_riemann_fans_keep_their_bits(model, kin, pairs, digest, failures):
    assert _fan_digest(model, kin, pairs()) == (digest, failures)


def _solve_or_error(model, kin, a, b):
    try:
        return solve_riemann(model, kin, a, b)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("pairs", [
    lambda: [(np.array([-0.1644, 0.2763]), np.array([0.5508, 0.5802]))],
    lambda: _uniform_pairs(300, -0.6, 0.6, 2),
], ids=["ball-exit-example", "uniform-draw"])
def test_negated_data_solve_to_the_negated_fan(pairs):
    # the p-system's flux is odd and its balls are centred at 0, so a
    # problem solves exactly when its mirror image (-a, -b) does, to the
    # fan with the same wave kinds and negated states; the example's
    # mirror passes a state whose zero-dissipation companion lies outside
    # the outer ball, which the generalized strength does not need
    for a, b in pairs():
        fan = _solve_or_error(ELAS, KIN, a, b)
        mirror = _solve_or_error(ELAS, KIN, -a, -b)
        if isinstance(fan, Exception) or isinstance(mirror, Exception):
            assert type(fan) is type(mirror), (a, b, fan, mirror)
            continue
        assert fan_kinds(fan) == fan_kinds(mirror), (a, b)
        for w, m in zip(fan.waves, mirror.waves):
            assert w.family == m.family
            np.testing.assert_allclose(w.left, -m.left, rtol=0, atol=1e-14)
            np.testing.assert_allclose(w.right, -m.right, rtol=0, atol=1e-14)


# the waves whose re-solve fails, as (family, kind, left state, error):
# two family-1 rarefactions of the classical limit next to family 0's
# inflection w = 0, where the re-solve's family-0 rarefaction is refused
SELF_CONSISTENCY_EXCEPTIONS = {
    ("elasticity-strong", 0.0): {
        (1, KIND_RAREFACTION, (-0.0415925004565241, -0.0017389072877392582),
         "rarefaction with decreasing characteristic speed on family 0"),
        (1, KIND_RAREFACTION, (-0.016942493455946343, -0.0026872150899017047),
         "rarefaction with decreasing characteristic speed on family 0"),
    },
}


@pytest.mark.parametrize("kin", [KIN, KIN0], ids=["theta0.5", "theta0"])
@pytest.mark.parametrize("name, model, pairs", [
    ("cubic", GOLDEN_FANS[2][0], GOLDEN_FANS[2][2]),
    ("elasticity-strong", GOLDEN_FANS[1][0], GOLDEN_FANS[1][2]),
], ids=["cubic", "elasticity-strong"])
def test_each_wave_solves_again_to_itself(name, model, kin, pairs):
    # a wave of a fan is the whole fan between its own two states: solved
    # again, it comes back as one wave of the same family, kind and speed,
    # reaching the same right state bit for bit; the solves that fail are
    # exactly the known exceptions
    failed = set()
    waves = 0
    for a, b in pairs():
        fan = _solve_or_error(model, kin, a, b)
        if isinstance(fan, Exception):
            continue
        for w in fan.waves:
            waves += 1
            again = _solve_or_error(model, kin, w.left, w.right)
            if isinstance(again, Exception):
                failed.add((w.family, w.kind, tuple(w.left.tolist()),
                            str(again)))
                continue
            assert len(again.waves) == 1, (w, again)
            v = again.waves[0]
            assert (v.family, v.kind, v.speed) == (w.family, w.kind, w.speed)
            assert v.right.tobytes() == w.right.tobytes(), w
    assert waves > 400
    assert failed == SELF_CONSISTENCY_EXCEPTIONS.get((name, kin.theta), set())


def _checked_states(model, kin, a, targets):
    # the states the fan's own walk reaches: checked waves, family by family
    states = []
    state = a
    for j, m in enumerate(targets):
        state, _ = wave_curve_point(model, kin, state, j, m)
        states.append(state)
    return states


@pytest.mark.parametrize("model, kin, pairs", [g[:3] for g in GOLDEN_FANS[:2]],
                         ids=["c13-draw", "elasticity-strong"])
def test_newton_probe_walk_reaches_the_checked_walks_state(model, kin, pairs):
    # the probes' unchecked shocks land where the checked walk lands, at
    # every family's end, at the first guess and at the converged targets
    # alike
    compared = 0
    for u_l, u_r in pairs():
        a = models.require_in_ball(model, u_l)
        b = models.require_in_ball(model, u_r)
        candidates = [riemann._initial_targets(model, a, b)]
        try:
            candidates.append(riemann._newton_targets(model, kin, a, b))
        except ValueError:
            pass
        for targets in candidates:
            try:
                want = _checked_states(model, kin, a, targets)
            except ValueError:
                continue
            got = riemann._fan_endpoint(model, kin, a, targets, {})
            assert len(got) == len(want) == model.N
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (u_l, u_r, targets)
            compared += 1
    assert compared > 300


@pytest.mark.parametrize("model, u_l, u_r, n_checks", [
    (CUBIC, [1.0], [-0.2], 3),
    (CUBIC, [0.5], [0.9], 2),
    (CUBIC, [1.0], [-0.5], 4),
    (ELAS, [0.0, -0.5], [0.05, -0.45], 2),
], ids=["cubic-classical", "cubic-rarefaction", "cubic-nonclassical",
        "elasticity"])
def test_a_solve_checks_only_its_two_input_states(model, u_l, u_r, n_checks):
    # the families walk the core of wave_curve_point and Wave.of reads the
    # strength core, so past solve_riemann's own two checks only two
    # public kinetic reads check a state again, the left state of a walk
    # across the manifold, here u_l: kinetics.thresholds, and
    # kinetics.mu_flat for the kinetic relation of a nonclassical shock
    with mock.patch.object(models, "require_in_ball",
                           wraps=models.require_in_ball) as checks, \
            mock.patch.object(riemann, "wave_curve_point",
                              wraps=wave_curve_point) as public_walk:
        fan = solve_riemann(model, KIN, u_l, u_r)
    assert fan.waves
    assert public_walk.call_count == 0
    assert checks.call_count == n_checks
    assert all(np.asarray(c.args[1], float).tolist() in (u_l, u_r)
               for c in checks.call_args_list)


def _outcome(f):
    try:
        return f()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("model, pairs", [
    (GOLDEN_FANS[2][0], GOLDEN_FANS[2][2]),
    (GOLDEN_FANS[1][0], GOLDEN_FANS[1][2]),
], ids=["cubic", "elasticity-strong"])
def test_the_cores_keep_the_public_maps_bits(model, pairs):
    # read through the cores from checked states, the strength, an arc
    # point's kinetic value and the zero-dissipation parameter equal the
    # public maps' values bit for bit, failures included
    cc = model.cc_index
    negative = 0
    for a, b in pairs():
        for j in range(model.N):
            assert (curves._strength(model, a, b, j)
                    == curves.generalized_strength(model, a, b, j))
        arc = [curves._integral_core(model, a, cc, models.mu(model, a) + d)
               for d in (-0.1, 0.1)]
        for u in [a, b] + arc:
            muv = models.mu(model, u)
            negative += muv < 0
            assert (_outcome(lambda: kin_mod._flat_core(model, KIN, u, muv))
                    == _outcome(lambda: kin_mod.mu_flat(model, KIN, u)))
            assert (_outcome(lambda: curves._critical_core(model, u, muv)[1])
                    == _outcome(lambda: curves.mu_flat_zero(model, u)))
    assert negative > 400


@pytest.mark.parametrize("model, a, family, m, kind", [
    (CUBIC, [1.0], 0, 0.5, KIND_CLASSICAL),
    (CUBIC, [1.0], 0, None, KIND_NONCLASSICAL),
    (ELAS, [0.0, 0.5], 1, 0.45, KIND_CLASSICAL),
    (ELAS, [0.0, 0.5], 0, -0.55, KIND_CLASSICAL),
    (ELAS, [0.1, 0.6], 1, None, KIND_NONCLASSICAL),
], ids=["cubic-classical", "cubic-nonclassical", "elasticity-family1",
        "elasticity-family0", "elasticity-nonclassical"])
def test_checked_shock_gets_its_speed_once(model, a, family, m, kind):
    # the Rankine-Hugoniot check runs once per shock, through _check_rh at
    # the speed the shock returns, not through shock_speed; m None is the
    # kinetic value, a nonclassical jump
    a = np.array(a)
    if m is None:
        m = kin_mod.mu_flat(model, KIN, a)
    with mock.patch.object(curves, "shock_speed",
                           wraps=curves.shock_speed) as speed, \
            mock.patch.object(curves, "_check_rh",
                              wraps=curves._check_rh) as rh:
        left, right, got, lam = riemann._shock(model, a, family, m, KIN)
    assert got == kind
    assert speed.call_count == 0
    assert rh.call_count == 1
    assert rh.call_args.args[1:] == (left, right, lam)


def _hook_speed_off(model, rel):
    """model whose Hugoniot hook reports each speed rel relative off."""
    hook = model.hugoniot_fn

    def hugoniot_fn(u, j, m):
        state, lam = hook(u, j, m)
        return state, lam * (1.0 + rel)

    return dataclasses.replace(model, hugoniot_fn=hugoniot_fn)


@pytest.mark.parametrize("model, a, family, m, error, match", [
    (CUBIC, [1.0], 0, 1.5, SolverError, "expansive shock"),
    (CUBIC, [1.0], 0, -2.0, SolverError, "entropy dissipation"),
    (CUBIC, [1.0], 0, -0.8, SolverError, "kinetic relation"),
    (_hook_speed_off(CUBIC, 1e-6), [1.0], 0, -0.3, curves.RHInconsistency,
     "residual 1.027e-06"),
    (_hook_speed_off(ELAS, 1e-6), [0.1, 0.5], 1, 0.3,
     curves.RHInconsistency, "residual 2.980e-07"),
], ids=["expansive", "dissipative", "off-kinetic", "cubic-rh", "elasticity-rh"])
def test_checked_shock_enforces_each_invariant(model, a, family, m, error,
                                               match):
    # each invariant of the checked shock raises: a jump to the rarefaction
    # side, one past the zero-dissipation point, a nonclassical jump off
    # the kinetic value -0.75, and shocks whose hook speed is 1e-6 relative
    # off (0.79000079 for 0.79 and 1.2206568 for 1.2206556), which the
    # least-squares speed of the jump would pass
    with pytest.raises(error, match=match):
        riemann._shock(model, np.array(a), family, m, KIN)


def test_tiny_transversal_shock_is_classified_at_its_hook_speed():
    # a family-0 jump of about 1e-9: the least-squares speed loses about
    # 1e-8 to cancellation, more than the classification tolerance, and
    # read a Lax shock as undercompressive; at the hook's speed, which
    # the jump carries, it lies between its characteristic speeds
    a = np.array([0.5745979556241415, 0.5219983981954989])
    left, right, kind, speed = riemann._shock(ELAS, a, 0,
                                              -0.5219983992787982, KIN)
    assert kind == KIND_CLASSICAL
    lam_l = curves.char_speed(ELAS, left, 0)
    lam_r = curves.char_speed(ELAS, right, 0)
    assert lam_r < speed < lam_l
    assert abs(curves.shock_speed(ELAS, left, right, 0) - speed) > \
        curves.CLASSIFY_TOL


def test_jacobian_walks_family_zero_once():
    # column 0 walks both families; column 1 changes family 1's target
    # alone and takes the base walk's family-0 step from the map
    a = np.array([0.1, 0.5])
    b = np.array([0.13, 0.47])
    targets = riemann._initial_targets(ELAS, a, b)
    walks = {}
    states = riemann._fan_endpoint(ELAS, KIN, a, targets, walks)
    r = states[-1] - b
    with mock.patch.object(riemann, "_jumps", wraps=riemann._jumps) as jumps:
        step = riemann._newton_step(
            riemann._jacobian(ELAS, KIN, a, b, targets, r, walks), r)
    assert [c.args[3] for c in jumps.call_args_list] == [0, 1, 1]
    assert jumps.call_args_list[2].args[2] is states[0]

    def full_walk_column(j):
        probe = targets.copy()
        probe[j] += riemann.FD_STRENGTH
        return ((riemann._fan_endpoint(ELAS, KIN, a, probe, {})[-1] - b)
                - r) / riemann.FD_STRENGTH

    J = np.column_stack([full_walk_column(j) for j in range(ELAS.N)])
    assert step.tobytes() == np.linalg.solve(J, -r).tobytes()


def _probe_steps(model, kin, a, b):
    # the fan of one solve, or None when it fails, and the (family, start
    # bytes, target) of every family step its Newton probes walk
    steps = []
    jumps = riemann._jumps

    def recorded(model_, kin_, state, family, m, shock=riemann._shock):
        if shock is riemann._probe_shock:
            steps.append((family, state.tobytes(), float(m).hex()))
        return jumps(model_, kin_, state, family, m, shock)

    with mock.patch.object(riemann, "_jumps", recorded):
        try:
            fan = solve_riemann(model, kin, a, b)
        except ValueError:
            fan = None
    return fan, steps


@pytest.mark.parametrize("model, kin, pairs, nonclassical",
                         [GOLDEN_FANS[0][:3] + (0,),
                          GOLDEN_FANS[1][:3] + (87,)],
                         ids=["c13-draw", "elasticity-strong"])
def test_no_solve_walks_a_step_twice(model, kin, pairs, nonclassical):
    # one Newton pass under the run's kinetics, whose probes share one map
    # of family steps: no solve, failed ones included, walks one (family,
    # start, target) step twice; the strong draw keeps its 87 fans with a
    # nonclassical shock
    fans = 0
    for a, b in pairs():
        fan, steps = _probe_steps(model, kin, a, b)
        assert steps and len(set(steps)) == len(steps), (a, b)
        fans += fan is not None and KIND_NONCLASSICAL in fan_kinds(fan)
    assert fans == nonclassical


def _walk_starts(run):
    # every state a walk starts from while run() runs, solves and
    # calibration pairs alike; a failing solve is part of the run
    starts = []
    jumps = riemann._jumps

    def recorded(model, kin, a, *args):
        starts.append(a)
        return jumps(model, kin, a, *args)

    with mock.patch.object(riemann, "_jumps", recorded):
        run()
    return starts


def _solve_all(model, kin, pairs):
    for a, b in pairs():
        try:
            solve_riemann(model, kin, a, b)
        except ValueError:
            pass


@pytest.mark.parametrize("model, run", [
    (GOLDEN_FANS[0][0], lambda: _solve_all(*GOLDEN_FANS[0][:3])),
    (ELAS, lambda: _solve_all(*GOLDEN_FANS[1][:3])),
    (CUBIC, lambda: dg.calibrate(CUBIC, KIN, n=50)),
    (ELAS, lambda: dg.calibrate(ELAS, KIN, n=50)),
], ids=["c13-draw", "elasticity-strong", "calibrate-cubic",
        "calibrate-elasticity"])
def test_every_walk_starts_on_a_checked_state(model, run):
    # a walk takes its start state as it is, so every start must be a
    # float64 vector already checked against the outer ball
    starts = _walk_starts(run)
    assert len(starts) > 100
    for a in starts:
        assert type(a) is np.ndarray and a.dtype == np.float64
        assert a.shape == (model.N,)
        assert models.within(a, model.delta0), a


@pytest.mark.parametrize("call, state", [
    (lambda u: wave_curve_point(ELAS, KIN, u, 1, 0.3), (1.5, 1.5)),
    (lambda u: wave_curve_point(ELAS, KIN, u, 0, -1.2), (1.5, 1.5)),
    (lambda u: wave_curve_point(CUBIC, KIN, u, 0, 1.0), [2.5]),
    (lambda u: curves.hugoniot_point(ELAS, u, 1, 0.3), (1.5, 1.5)),
    (lambda u: curves.rarefaction_point(ELAS, u, 1, 1.8), (1.5, 1.5)),
    (lambda u: curves.hugoniot_point(CUBIC, u, 0, 1.0), 2.5),
    (lambda u: curves.rarefaction_point(CUBIC, u, 0, 1.0), 2.5),
], ids=["walk-designated", "walk-other", "walk-cubic", "hugoniot",
        "rarefaction", "hugoniot-cubic", "rarefaction-cubic"])
def test_a_state_outside_the_outer_ball_keeps_its_message(call, state):
    with pytest.raises(models.BallViolation) as info:
        call(state)
    shown = "[1.5, 1.5]" if len(np.atleast_1d(state)) == 2 else "[2.5]"
    assert str(info.value) == (
        f"state {shown} outside working ball of radius 2.0 (delta0)")


def _wave(left, right):
    return Wave(0, KIND_CLASSICAL, np.array(left), np.array(right), 0.5,
                -0.1, 0)


def test_fan_states_chain_by_value():
    # states chain when they are equal as floats: 0.0 and -0.0 do, a NaN
    # does not, even in one shared array
    WaveFan((_wave([1.0, 0.0], [0.5, -0.0]),
             _wave([0.5, 0.0], [0.2, 0.3]))).validate()
    nan = _wave([1.0, 0.0], [0.5, np.nan])
    for fan in ((nan, _wave([0.5, np.nan], [0.2, 0.3])),
                (nan, Wave(0, KIND_CLASSICAL, nan.right, np.array([0.2, 0.3]),
                           0.5, -0.1, 1)),
                (_wave([1.0], [0.5]), _wave([0.5 + 2 ** -52], [0.2])),
                (_wave([1.0], [0.5]), _wave([0.5, 0.0], [0.2, 0.3]))):
        with pytest.raises(SolverError, match="fan states do not chain"):
            WaveFan(fan).validate()


def _newton_log(model, kin, a, b):
    # the Newton loop of one solve, in order: "jacobian" for each
    # Jacobian, and (residual, family walks) for each endpoint walked
    # outside one that did not raise
    log = []
    inside = []
    walked = []
    fan_endpoint, jacobian, jumps = (riemann._fan_endpoint,
                                     riemann._jacobian, riemann._jumps)

    def recorded_jacobian(*args):
        log.append("jacobian")
        inside.append(True)
        try:
            return jacobian(*args)
        finally:
            inside.pop()

    def recorded_endpoint(*args):
        before = len(walked)
        states = fan_endpoint(*args)
        if not inside:
            log.append((models.sup_norm(states[-1] - b), len(walked) - before))
        return states

    def recorded_jumps(*args):
        walked.append(args[3])
        return jumps(*args)

    with mock.patch.multiple(riemann, _jacobian=recorded_jacobian,
                             _fan_endpoint=recorded_endpoint,
                             _jumps=recorded_jumps):
        riemann._newton_targets(model, kin, models.as_state(model, a),
                                models.as_state(model, b))
    return log


def test_polish_reuses_the_last_newton_steps_jacobian():
    # once a Newton step meets the tolerance, the polish walks its trial
    # endpoint alone, never a Jacobian column; only a guess that meets the
    # tolerance from the start has no last Jacobian and builds one. A fan
    # whose residual is exactly zero stops there and walks nothing more
    solved = exact = polished = 0
    problems = ([(GOLDEN_FANS[0][0], a, b) for a, b in _c13_pairs(100)]
                + [(ELAS, a, b) for a, b in _uniform_pairs(100, -0.6, 0.6, 2)])
    for model, a, b in problems:
        try:
            log = _newton_log(model, KIN, a, b)
        except ValueError:
            continue
        solved += 1
        met = next(k for k, e in enumerate(log)
                   if e != "jacobian" and e[0] <= riemann.RESIDUAL_TOL)
        rest = log[met + 1:]
        if log[met][0] == 0.0:
            assert rest == [], (a, b)
            exact += 1
            continue
        if met == 0 and rest[:1] == ["jacobian"]:
            rest = rest[1:]
        assert "jacobian" not in rest, (a, b)
        assert len(rest) == 1 and rest[0][1] <= model.N, (a, b)
        polished += 1
    assert (solved, exact, polished) == (186, 19, 167)


@pytest.mark.parametrize("u_l, u_r, message", [
    ([0.43482722495215875, 0.025269546850656965],
     [-0.615758175481468, 0.7840343187116123],
     "rarefaction with decreasing characteristic speed on family 0"),
    ([0.5267321344255655, 0.25862968048499013],
     [0.34640990367799684, -0.6012898563847516],
     "curve intersection stalled at residual 7.614e-02"),
], ids=["decreasing-speed", "stall"])
def test_newton_probes_keep_the_rarefaction_check(u_l, u_r, message):
    # a probe's rarefaction with falling characteristic speed fails the
    # probe and steers the damping; with the check left out of the probes
    # the first problem solves to a fan and the second fails on the
    # rarefaction instead of the stall
    with pytest.raises(riemann.SolverError) as info:
        solve_riemann(ELAS, KIN, u_l, u_r)
    assert str(info.value) == message


@given(
    ul=st.floats(-1.4, 1.4),
    ur=st.floats(-1.4, 1.4),
)
def test_scalar_fan_invariants(ul, ur):
    fan = solve_riemann(CUBIC, KIN, ul, ur)
    if fan.waves:
        assert np.array_equal(fan.waves[0].left, np.array([ul]))
        assert np.array_equal(fan.waves[-1].right, np.array([ur]))
    fan.validate()
    for w in fan.waves:
        if isinstance(w.speed, tuple):
            assert w.speed[0] <= w.speed[1] + 1e-12
        else:
            E = curves.entropy_dissipation(CUBIC, w.left, w.right)
            assert E <= 1e-9
            if w.kind == KIND_NONCLASSICAL:
                cls = curves.classify_shock(CUBIC, w.left, w.right, 0)
                assert cls in ("SlowUndercompressive", "FastUndercompressive")
                want = kin_mod.mu_flat(CUBIC, KIN, w.left)
                assert abs(w.right[0] - want) <= 1e-10


@given(
    vl=st.floats(-0.15, 0.15),
    wl=st.floats(0.35, 0.65),
    dv=st.floats(-0.08, 0.08),
    dw=st.floats(-0.08, 0.08),
)
@settings(max_examples=30)
def test_elasticity_weak_fan_invariants(vl, wl, dv, dw):
    u_l = (vl, wl)
    u_r = (vl + dv, wl + dw)
    fan = solve_riemann(ELAS, KIN, u_l, u_r)
    fan.validate()
    if fan.waves:
        assert np.max(np.abs(fan.waves[-1].right - np.array(u_r))) == 0.0
    for w in fan.waves:
        if not isinstance(w.speed, tuple):
            res = ELAS.flux(w.right) - ELAS.flux(w.left) - w.speed * (
                w.right - w.left
            )
            assert np.max(np.abs(res)) < 1e-8
            assert curves.entropy_dissipation(ELAS, w.left, w.right) <= 1e-9
