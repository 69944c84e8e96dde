"""The per-model memo: one entry per state, holding its critical record and
its critical and kinetic values."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from ncft import curves, models
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
    maps = (curves.mu_natural, curves.mu_flat_zero)
    kinetic = (mu_flat, mu_sharp, mu_nucleation)
    first = ([f(model, u) for f in maps] +
             [f(model, KIN, u) for f in kinetic])
    # one entry for all the values of u, and no curve
    assert len(model.cache) == 1
    # every critical-map body starts with mu, every kinetic body reads one
    # of the curves maps below
    _forbid(monkeypatch, "mu", "hugoniot_curve", "mu_natural",
            "mu_flat_zero", "companion_parameter")
    again = ([f(model, u) for f in maps] +
             [f(model, KIN, u) for f in kinetic])
    assert again == first
    assert len(model.cache) == 1


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
    assert len(model.cache) == 1


def test_memo_clears_whole_past_its_limit():
    model = cubic_model()
    memo = model.cache
    states = [np.array([0.3 + 0.1 * k]) for k in range(8)]
    before = [curves.mu_flat_zero(model, u) for u in states]
    fresh = len(memo)
    assert fresh == len(states)

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
    model, calls = _counted_model(factory)
    u = np.array(u)
    for f in (curves.mu_natural, curves.mu_minus_natural,
              curves.mu_flat_zero, curves.mu_sharp_zero):
        f(model, u)
    for f in (mu_flat, mu_sharp, mu_nucleation):
        f(model, KIN, u)
    assert calls["critical_fn"] == 1
    assert len(model.cache) == 1


# on the p-system, the tangency point of (0, 0.8) lies in the outer ball
# and its zero-dissipation point does not
ESCAPING = [0.0, 0.8]


def test_a_failing_map_raises_its_stored_message_again():
    model, calls = _counted_model(elasticity_model)
    u = np.array(ESCAPING)
    m_nat = curves.mu_natural(model, u)
    with pytest.raises(curves.BallExit) as first:
        curves.mu_flat_zero(model, u)
    seen = dict(calls)
    assert seen["critical_fn"] == 1
    with pytest.raises(curves.BallExit) as again:
        curves.mu_flat_zero(model, u)
    assert type(again.value) is type(first.value)
    assert str(again.value) == str(first.value)
    assert curves.mu_natural(model, u) == m_nat
    assert calls == seen


def test_a_state_outside_the_ball_leaves_no_entry():
    model = cubic_model()
    for f in (curves.mu_natural, curves.mu_minus_natural,
              curves.mu_flat_zero, curves.mu_sharp_zero):
        with pytest.raises(models.BallViolation):
            f(model, [3.0])
    with pytest.raises(models.BallViolation):
        mu_flat(model, KIN, [3.0])
    assert len(model.cache) == 0


def _memo_values(model):
    return [value for entry in model.cache._entries.values()
            for value in entry.values()]


def test_the_memo_holds_no_exception():
    model = elasticity_model()
    rng = np.random.default_rng(4)
    failed = 0
    for u in models.sample_ball(model, 200, rng, radius="delta0"):
        for f in (curves.mu_natural, curves.mu_minus_natural,
                  curves.mu_flat_zero, curves.mu_sharp_zero):
            try:
                f(model, u)
            except curves.CurveError:
                failed += 1
    assert failed > 0
    values = _memo_values(model)
    values += [v for record in values if type(record) is tuple
               for v in record]
    assert not any(isinstance(v, BaseException) for v in values)


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
        # a failed map is kept in the memo, and must not keep its model
        # alive through a stored traceback
        with pytest.raises(curves.BallExit):
            curves.mu_flat_zero(model, escaping)
    assert len(model.cache) > 0
    ref = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        # the memo's values must not hold their model alive in a cycle
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
