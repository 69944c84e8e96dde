"""The per-model memo of Hugoniot curves and critical and kinetic values."""

import gc
import weakref

import numpy as np
import pytest

from ncft import curves
from ncft.kinetics import KineticFunction, mu_flat, mu_nucleation, mu_sharp
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import solve_riemann

KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)


def _forbid(monkeypatch, *names):
    """Make the named curves functions fail, so that any map body that
    runs again is caught."""
    def recomputed(*args, **kwargs):
        raise AssertionError("a memoized value was computed again")
    for name in names:
        monkeypatch.setattr(curves, name, recomputed)


def test_memo_serves_a_states_critical_and_kinetic_values(monkeypatch):
    model = cubic_model()
    u = np.array([0.8])
    maps = (curves.mu_natural, curves.mu_minus_natural, curves.mu_flat_zero,
            curves.mu_sharp_zero)
    kinetic = (mu_flat, mu_sharp, mu_nucleation)
    first = ([f(model, u) for f in maps] +
             [f(model, KIN, u) for f in kinetic])
    # one entry for the Hugoniot curve through u, one for all its values
    assert len(model.cache) == 2
    # every critical-map body starts with mu, every kinetic body reads one
    # of the curves maps below
    _forbid(monkeypatch, "mu", "hugoniot_curve", "mu_natural",
            "mu_flat_zero", "companion_parameter")
    again = ([f(model, u) for f in maps] +
             [f(model, KIN, u) for f in kinetic])
    assert again == first
    assert len(model.cache) == 2


def test_memo_keys_kinetic_values_by_kinetic_function_value(monkeypatch):
    model = cubic_model()
    u = np.array([0.8])
    value = mu_flat(model, KineticFunction(theta=0.5, nucleation_gamma=0.5), u)
    calls = []
    natural = curves.mu_natural

    def counted(*args):
        calls.append(args)
        return natural(*args)

    monkeypatch.setattr(curves, "mu_natural", counted)
    # an equal kinetic function, built anew, shares the entry
    equal = KineticFunction(theta=0.5, nucleation_gamma=0.5)
    assert mu_flat(model, equal, u) == value
    assert calls == []
    # another theta is another value of the state
    other = mu_flat(model, KineticFunction(theta=0.25, nucleation_gamma=0.5), u)
    assert len(calls) == 1
    assert other == pytest.approx(0.75 * -0.4 + 0.25 * -0.8, abs=1e-10)
    assert len(model.cache) == 2


def test_memo_keeps_a_missing_left_contact(monkeypatch):
    model = cubic_model()
    # the left contact -2u = -3 lies outside the outer ball of radius 2
    u = np.array([1.5])
    assert curves.mu_minus_natural(model, u) is None
    # None is served from the memo: the search for it runs once
    _forbid(monkeypatch, "mu", "hugoniot_curve", "mu_natural")
    assert curves.mu_minus_natural(model, u) is None


def test_memo_clears_whole_past_its_limit():
    model = cubic_model()
    memo = model.cache
    states = [np.array([0.3 + 0.1 * k]) for k in range(8)]
    before = [curves.mu_flat_zero(model, u) for u in states]
    fresh = len(memo)
    assert fresh == 2 * len(states)

    def filler(k):
        return memo.value("filler", np.array([10.0 + k]), lambda: k)

    for k in range(memo.LIMIT - fresh):
        filler(k)
    assert len(memo) == memo.LIMIT
    # at the limit, accesses are still served
    assert [curves.mu_flat_zero(model, u) for u in states] == before
    assert len(memo) == memo.LIMIT
    filler(memo.LIMIT)
    assert len(memo) == memo.LIMIT + 1
    # past it, the next access clears every entry, and the values come
    # back equal to the ones computed before the clear
    after = [curves.mu_flat_zero(model, u) for u in states]
    assert after == before
    assert len(memo) == fresh
    assert memo.value("filler", np.array([10.0]), lambda: -1) == -1


@pytest.mark.parametrize("factory, left, right", [
    (cubic_model, [1.0], [-0.3]),
    (elasticity_model, [0.0, 0.8], [0.0, -0.5])], ids=["cubic", "elasticity"])
def test_a_dropped_model_is_freed_without_the_cycle_collector(factory, left,
                                                              right):
    model = factory()
    solve_riemann(model, KIN, left, right)
    assert len(model.cache) > 0
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the memo's curves must not hold their model alive in a cycle
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()



def test_a_curve_outlives_its_model():
    # the curve keeps the model's Hugoniot hook and outer radius, not the
    # model, so it answers after the model is freed
    model = cubic_model()
    curve = curves.hugoniot_curve(model, [1.0])
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None
    state, speed = curve.state_speed(-0.5)
    assert state[0] == -0.5 and speed == 0.75
    with pytest.raises(curves.BallExit):
        curve.state_speed(-2.5)
