"""The critical maps and the kinetic thresholds keep nothing between calls:
each call reads its state's critical record from one critical_fn call,
raises a failing map's BallExit itself, and holds nothing that keeps its
model alive."""

import dataclasses
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from ncft import curves, models
from ncft.kinetics import (KineticFunction, mu_flat, mu_nucleation, mu_sharp,
                           nucleation_gap, thresholds)
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import solve_riemann

KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)


def _counted_model(factory):
    """The factory's model with its critical_fn and hugoniot_fn hooks
    counted, and the counts."""
    model = factory()
    calls = {"critical_fn": 0, "hugoniot_fn": 0}

    def counted(name):
        hook = getattr(model, name)

        def hooked(*args):
            calls[name] += 1
            return hook(*args)
        return hooked

    return dataclasses.replace(
        model, critical_fn=counted("critical_fn"),
        hugoniot_fn=counted("hugoniot_fn")), calls


@pytest.mark.parametrize("factory, u", [
    (cubic_model, [0.8]), (elasticity_model, [0.1, 0.6])],
    ids=["cubic", "elasticity"])
def test_a_fresh_state_calls_the_critical_hook_once(factory, u):
    # once per call of every map, the threshold triple included
    model, calls = _counted_model(factory)
    u = np.array(u)
    for f in (curves.mu_natural, curves.mu_minus_natural,
              curves.mu_flat_zero, curves.mu_sharp_zero):
        before = calls["critical_fn"]
        f(model, u)
        assert calls["critical_fn"] == before + 1, f.__name__
    for f in (mu_flat, mu_sharp, mu_nucleation, nucleation_gap, thresholds):
        before = calls["critical_fn"]
        f(model, KIN, u)
        assert calls["critical_fn"] == before + 1, f.__name__


# on the p-system, the tangency point of (0, 0.8) lies in the outer ball
# and its zero-dissipation point does not
ESCAPING = [0.0, 0.8]


def test_a_failing_map_raises_its_stored_message_again():
    # nothing is stored: each call checks the points again and raises the
    # same BallExit, and the tangency map still answers
    model, calls = _counted_model(elasticity_model)
    u = np.array(ESCAPING)
    m_nat = curves.mu_natural(model, u)
    with pytest.raises(curves.BallExit) as first:
        curves.mu_flat_zero(model, u)
    with pytest.raises(curves.BallExit) as again:
        curves.mu_flat_zero(model, u)
    assert type(again.value) is type(first.value)
    assert str(again.value) == str(first.value)
    assert curves.mu_natural(model, u) == m_nat
    assert calls["critical_fn"] == 4


def test_a_state_outside_the_ball_leaves_no_entry():
    # every map refuses a state outside the outer ball
    model = cubic_model()
    for f in (curves.mu_natural, curves.mu_minus_natural,
              curves.mu_flat_zero, curves.mu_sharp_zero):
        with pytest.raises(models.BallViolation):
            f(model, [3.0])
    for f in (mu_flat, mu_sharp, mu_nucleation, thresholds):
        with pytest.raises(models.BallViolation):
            f(model, KIN, [3.0])


@pytest.mark.parametrize("factory, left, right, escaping", [
    (cubic_model, [1.0], [-0.3], None),
    (elasticity_model, [0.0, 0.8], [0.0, -0.5], None),
    (elasticity_model, [0.0, 0.8], [0.0, -0.5], ESCAPING)],
    ids=["cubic", "elasticity", "elasticity-failing-map"])
def test_a_dropped_model_is_freed_without_the_cycle_collector(factory, left,
                                                              right, escaping):
    model = factory()
    solve_riemann(model, KIN, left, right)
    if escaping is not None:
        # a failed map's exception, whose traceback holds frames, must not
        # keep its model alive
        with pytest.raises(curves.BallExit):
            curves.mu_flat_zero(model, escaping)
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # nothing the maps or the solve leave behind may hold the model
        # alive in a cycle
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# the last weights are not dyadic, so the interpolations round
THRESHOLD_KINS = [KineticFunction(0.5, 0.5), KineticFunction(0.25, 0.0),
                  KineticFunction(1.0, 1.0), KineticFunction(0.3, 0.7)]
# sha256 of the outcomes of mu_flat, mu_sharp and mu_nucleation on
# _threshold_states under THRESHOLD_KINS, computed by the per-state memo's
# kinetics before thresholds existed: 880 triples of values, 356 ball
# exits and 12 states outside the outer ball
THRESHOLD_DIGEST = (
    "e47bf9cbe943c366d07f5e7a66bd632f02f3434fa072c3768b24da350e562c72")


def _threshold_states(model):
    """150 seeded states of the closed outer ball, then states on the
    sign-change manifold (one outside the ball), states whose maps leave
    the ball and states outside it."""
    states = models.sample_ball(model, 150, np.random.default_rng(7),
                                radius="delta0", margin=1.0)
    if model.N == 1:
        extra = ([0.0], [-0.0], [5e-13], [3.0], [-2.5], [1.9999])
    else:
        extra = (ESCAPING, [0.3, 0.0], [0.1, -1e-13], [3.0, 0.0], [3.0, 0.5],
                 [0.1, 0.6])
    return states + [np.array(u) for u in extra]


def _outcome(f):
    """A value as its float's hex, or an error as [class name, message]."""
    try:
        return float(f()).hex()
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


def _reference(model, kin, u):
    """mu_flat, mu_sharp and mu_nucleation composed from the public
    critical maps, as the kinetics formed them: the kinetic value, its
    companion, and the threshold between companion and tangency."""
    muv = models.mu(model, u)
    if abs(muv) < 1e-12:
        return [float(muv).hex()] * 3
    try:
        m_nat = curves.mu_natural(model, u)
        m_b0 = curves.mu_flat_zero(model, u)
    except Exception as exc:
        return [[type(exc).__name__, str(exc)]] * 3
    flat = float((1.0 - kin.theta) * m_nat + kin.theta * m_b0)
    try:
        sharp = curves.companion_parameter(model, u, flat)
    except Exception as exc:
        return [flat.hex()] + [[type(exc).__name__, str(exc)]] * 2
    g = kin.nucleation_gamma
    return [flat.hex(), sharp.hex(),
            float((1.0 - g) * sharp + g * m_nat).hex()]


def test_thresholds_return_what_the_kinetic_maps_returned():
    records = []
    for factory in (cubic_model, elasticity_model):
        model, calls = _counted_model(factory)
        for kin in THRESHOLD_KINS:
            for u in _threshold_states(model):
                before = calls["critical_fn"]
                try:
                    got = [v.hex() for v in thresholds(model, kin, u)]
                except Exception as exc:
                    got = [None] + [[type(exc).__name__, str(exc)]] * 2
                read = calls["critical_fn"] - before
                if got[0] is None:
                    got[0] = _outcome(lambda: mu_flat(model, kin, u))
                off = (abs(models.mu(model, u)) >= 1e-12
                       and models.in_ball(model, u, "delta0"))
                assert read == (1 if off else 0), (u, read)
                assert got == _reference(model, kin, u), u
                # the public names answer from the same record
                assert got == [_outcome(lambda: f(model, kin, u))
                               for f in (mu_flat, mu_sharp, mu_nucleation)]
                records.append(got)
    blob = json.dumps(records).encode()
    assert hashlib.sha256(blob).hexdigest() == THRESHOLD_DIGEST
