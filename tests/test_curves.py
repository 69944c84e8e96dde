import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncft import acceptance, curves, models
from ncft.curves import (
    BallExit,
    classify_shock,
    companion_parameter,
    entropy_dissipation,
    generalized_strength,
    hugoniot_point,
    mu_flat_zero,
    mu_minus_natural,
    mu_natural,
    mu_sharp_zero,
    projected_mu,
    rarefaction_point,
    shock_speed,
)
from ncft.kinetics import default_samples
from ncft.models import cubic_model, elasticity_model

CUBIC = cubic_model()
WIDE = cubic_model(delta0=4.0, delta1=3.0)
ELAS = elasticity_model()

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("ci")


# -- Reference wave curves: continuation and RK4 ------------------------------
# A Hugoniot locus by predictor-corrector continuation and an integral curve
# by fixed-step RK4, from the eigenframe and the analytic derivatives below
# alone; the closed-form curve hooks are held against them.

# Continuation step in the family parameter; halved on corrector failure.
CONT_STEP = 1e-2
CONT_MIN_STEP = 1e-5
NEWTON_TOL = 1e-12

# Analytic flux Jacobians and family-parameter gradients of the shipped
# models, keyed by model name, as tests/test_models.py keeps them.
JACOBIAN = {
    "cubic": lambda u: np.array([[3.0 * u[0] ** 2]]),
    "elasticity": lambda u: np.array([[0.0, -(3.0 * u[1] ** 2 + 1.0)],
                                      [-1.0, 0.0]]),
}
PARAMETER_GRAD = {
    "cubic": lambda u, j: np.array([1.0]),
    "elasticity": lambda u, j: (np.array([0.0, -1.0]) if j == 0
                                else np.array([0.0, 1.0])),
}


class ContinuationError(curves.CurveError):
    pass


class ContinuedHugoniot:
    """One Hugoniot locus by continuation: anchors at parameter steps of
    CONT_STEP out from the base state in both directions, and a corrector
    Newton from the nearest anchor for each query."""

    def __init__(self, model, u_minus, family):
        self.model = model
        self.family = family
        self.u_minus = models.as_state(model, u_minus)
        self.mu0 = float(model.family_parameter(self.u_minus, family))
        lam0 = models.char_speed(model, self.u_minus, family)
        self.lam0 = lam0
        self._up = [(self.mu0, self.u_minus.copy(), lam0)]
        self._down = [(self.mu0, self.u_minus.copy(), lam0)]

    def state_speed(self, m) -> tuple:
        m = float(m)
        if abs(m - self.mu0) < curves.STATE_COINCIDENCE:
            return self.u_minus.copy(), self.lam0
        anchors = self._up if m > self.mu0 else self._down
        sgn = 1.0 if m > self.mu0 else -1.0
        while sgn * (m - anchors[-1][0]) > CONT_STEP:
            m_base, u_base, lam_base = anchors[-1]
            target = m_base + sgn * CONT_STEP
            u, lam = self._advance(u_base, lam_base, m_base, target, CONT_STEP)
            self._require_outer_ball(u)
            anchors.append((target, u, lam))
        # interior queries start from the nearest anchor, not the far end
        k = min(len(anchors) - 1, int(round(abs(m - self.mu0) / CONT_STEP)))
        m_base, u_base, lam_base = anchors[k]
        u, lam = self._advance(
            u_base, lam_base, m_base, m, max(abs(m - m_base), CONT_MIN_STEP)
        )
        self._require_outer_ball(u)
        return u, lam

    def _require_outer_ball(self, u):
        if not models.in_ball(self.model, u, "delta0"):
            raise BallExit(
                f"Hugoniot continuation left the outer ball at {u.tolist()}"
            )

    def _advance(self, u_base, lam_base, m_base, m_target, step):
        if abs(m_target - m_base) < curves.STATE_COINCIDENCE:
            return u_base.copy(), lam_base
        if step < CONT_MIN_STEP:
            raise ContinuationError(
                f"continuation step underflow near m = {m_target}"
            )
        try:
            _, R, _ = models.eigen(self.model, u_base)
            u_pred = u_base + (m_target - m_base) * R[:, self.family]
            return self._correct(u_pred, lam_base, m_target)
        except ContinuationError:
            m_mid = 0.5 * (m_base + m_target)
            u_mid, lam_mid = self._advance(
                u_base, lam_base, m_base, m_mid, step / 2
            )
            return self._advance(u_mid, lam_mid, m_mid, m_target, step / 2)

    def _correct(self, u0, lam0_, m):
        # Newton on the Rankine-Hugoniot system plus the parameter pin:
        # unknowns (u, lambda) in R^(N+1).
        model = self.model
        jacobian = JACOBIAN[model.name]
        parameter_grad = PARAMETER_GRAD[model.name]
        n = model.N
        u = u0.copy()
        lam = lam0_
        f_minus = model.flux(self.u_minus)

        def residual(u_, lam_):
            G = np.empty(n + 1)
            G[:n] = -lam_ * (u_ - self.u_minus) + model.flux(u_) - f_minus
            G[n] = model.family_parameter(u_, self.family) - m
            return G

        def step(u_, lam_, G):
            J = np.empty((n + 1, n + 1))
            J[:n, :n] = jacobian(u_) - lam_ * np.eye(n)
            J[:n, n] = -(u_ - self.u_minus)
            J[n, :n] = parameter_grad(u_, self.family)
            J[n, n] = 0.0
            delta = np.linalg.solve(J, -G)
            if not np.all(np.isfinite(delta)):
                raise ContinuationError(f"corrector blow-up at m = {m}")
            return u_ + delta[:n], lam_ + delta[n]

        for _ in range(40):
            G = residual(u, lam)
            if np.max(np.abs(G)) < NEWTON_TOL:
                # one step past the tolerance lands the emitted states on
                # the roundoff floor; kept only when it helps, since the
                # system degenerates at sonic points
                try:
                    u2, lam2 = step(u, lam, G)
                except (np.linalg.LinAlgError, ContinuationError):
                    return u, lam
                if np.max(np.abs(residual(u2, lam2))) < np.max(np.abs(G)):
                    return u2, lam2
                return u, lam
            try:
                u, lam = step(u, lam, G)
            except np.linalg.LinAlgError as exc:
                raise ContinuationError(f"singular corrector at m = {m}") from exc
        raise ContinuationError(f"corrector stalled at m = {m}")


def continued_point(model, u_minus, family, m):
    """hugoniot_point by continuation."""
    models.require_in_ball(model, u_minus, "delta0")
    return ContinuedHugoniot(model, u_minus, family).state_speed(float(m))


def rk4_point(model, u_minus, family, m):
    """rarefaction_point by fixed-step RK4 on u' = r(u); the unit-rate
    normalization makes the family parameter the integration variable."""
    a = models.require_in_ball(model, u_minus, "delta0")
    m = float(m)
    mu0 = float(model.family_parameter(a, family))
    dm = m - mu0
    if abs(dm) < 1e-15:
        return a.copy()

    def checked(u):
        if not models.in_ball(model, u, "delta0"):
            raise BallExit(
                f"rarefaction curve left the outer ball at {u.tolist()}"
            )
        return u

    n_steps = max(8, int(math.ceil(abs(dm) / 0.002)))
    h = dm / n_steps

    def rhs(u):
        return models.eigen(model, u)[1][:, family]

    u = a.copy()
    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = checked(u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return u


# (Hugoniot point, rarefaction point): the hooks, then the references
CURVE_PATHS = ((hugoniot_point, rarefaction_point),
               (continued_point, rk4_point))


# -- Hugoniot points and speeds ---------------------------------------------

def test_cubic_hugoniot_point():
    state, speed = hugoniot_point(CUBIC, 1.0, 0, -0.5)
    assert state[0] == pytest.approx(-0.5, abs=1e-14)
    assert speed == pytest.approx(0.75, abs=1e-14)


def test_cubic_hugoniot_zero_strength_limit():
    state, speed = hugoniot_point(CUBIC, 1.0, 0, 1.0)
    assert state[0] == 1.0
    assert speed == pytest.approx(3.0, abs=1e-14)


def test_elasticity_hugoniot_point():
    # exact reduction: w+ = m, lam^2 = (sigma(w+)-sigma(w-))/(w+-w-)
    model = ELAS
    for hugoniot, _ in CURVE_PATHS:
        state, speed = hugoniot(model, (0.0, 0.5), 1, -0.1)
        assert state[1] == pytest.approx(-0.1, abs=1e-12)
        lam_sq = speed ** 2
        want = (-0.101 - 0.625) / (-0.6)
        assert lam_sq == pytest.approx(want, abs=1e-10)
        assert speed == pytest.approx(1.1, abs=1e-10)
        assert state[0] == pytest.approx(0.66, abs=1e-10)
        # residual of the Rankine-Hugoniot system itself
        du = state - np.array([0.0, 0.5])
        df = model.flux(state) - model.flux(np.array([0.0, 0.5]))
        assert np.max(np.abs(df - speed * du)) <= 1e-11


def test_elasticity_hugoniot_family0():
    for hugoniot, _ in CURVE_PATHS:
        state, speed = hugoniot(ELAS, (0.0, 0.5), 0, -0.1)
        # family-0 parameter is -w, so m=-0.1 lands at w=+0.1
        assert state[1] == pytest.approx(0.1, abs=1e-12)
        assert speed < 0
        lam_sq = (0.101 - 0.625) / (0.1 - 0.5)
        assert speed == pytest.approx(-math.sqrt(lam_sq), abs=1e-10)


def test_elasticity_curve_hooks_match_generic_paths():
    # closed forms against continuation and RK4, on queries that reach the
    # outer ball about half the time
    rng = np.random.default_rng(0)
    worst = 0.0
    n_exit = n_compared = 0
    for u in models.sample_ball(ELAS, 60, rng, radius="delta0", margin=0.95):
        for family in (0, 1):
            mu0 = float(ELAS.family_parameter(u, family))
            for m in mu0 + rng.uniform(-1.5, 1.5, size=2):
                for paths in zip(*CURVE_PATHS):
                    got = []
                    for point in paths:
                        try:
                            got.append(point(ELAS, u, family, m))
                        except BallExit:
                            got.append(None)
                    hooked, generic = got
                    assert (hooked is None) == (generic is None), (u, family, m)
                    if hooked is None:
                        n_exit += 1
                        continue
                    n_compared += 1
                    if isinstance(hooked, tuple):
                        # a Hugoniot point: (state, speed)
                        worst = max(worst, abs(hooked[1] - generic[1]))
                        hooked, generic = hooked[0], generic[0]
                    worst = max(worst, float(np.max(np.abs(hooked - generic))))
    assert worst <= 1e-12
    # 480 queries: both outcomes are exercised
    assert n_exit >= 100 and n_compared >= 100


def test_shock_speed_oracles():
    assert shock_speed(CUBIC, 1.0, -0.75) == pytest.approx(0.8125, abs=1e-14)
    assert shock_speed(CUBIC, 1.0, -0.25) == pytest.approx(0.8125, abs=1e-14)
    assert shock_speed(CUBIC, 1.0, -2.0) == pytest.approx(3.0, abs=1e-14)


def test_shock_speed_rejects_incompatible():
    with pytest.raises(curves.RHInconsistency):
        shock_speed(ELAS, (0.0, 0.5), (0.3, -0.1))


def test_hugoniot_ball_exit():
    with pytest.raises(BallExit):
        hugoniot_point(CUBIC, 1.0, 0, 2.5)


def _point_or_exit(point):
    try:
        state, speed = point()
    except BallExit as exc:
        return str(exc)
    assert type(speed) is float
    return state.tobytes(), speed


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_hugoniot_point_is_the_curves_point(model):
    # every outcome of a fresh model's point, the base parameter, a query
    # within the coincidence tolerance of it and ball exits included, has
    # the curve's bits
    rng = np.random.default_rng(3)
    outcomes = set()
    for u in models.sample_ball(model, 30, rng, radius="delta0", margin=0.9):
        for family in range(model.N):
            mu0 = float(model.family_parameter(u, family))
            for m in (mu0, mu0 + 5e-14, *(mu0 + rng.uniform(-2.0, 2.0, 3))):
                got = _point_or_exit(
                    lambda: hugoniot_point(model, u, family, m))
                want = _point_or_exit(lambda: curves.hugoniot_curve(
                    model, u, family).state_speed(m))
                assert got == want, (u, family, m)
                outcomes.add(type(got))
    assert outcomes == {str, tuple}


# -- Scalar curve points against the reference evaluation -------------------
# The reference below evaluates each scalar point on arrays and the model at
# the base state on every query, as the curve layer once did; the curve
# layer must agree with it bit for bit.

def _ref_in_ball(model, u):
    return float(np.linalg.norm(np.atleast_1d(u))) <= model.delta0 + models.BALL_TOL


def _ref_scalar_state(model, u_minus, family, m):
    u = u_minus.copy()
    for _ in range(60):
        val = model.family_parameter(u, family)
        g = PARAMETER_GRAD[model.name](u, family)[0]
        du = (m - val) / g
        u = u + np.array([du])
        if abs(du) < 1e-15:
            break
    return u


def _ref_point_scalar(model, u_minus, m):
    lam0 = float(models.eigen(model, u_minus)[0][0])
    u = _ref_scalar_state(model, u_minus, 0, m)
    if not _ref_in_ball(model, u):
        raise BallExit(f"outside the outer ball at {u.tolist()}")
    du_state = float(u[0] - u_minus[0])
    if abs(du_state) < curves.STATE_COINCIDENCE:
        return u, lam0
    lam = float((model.flux(u)[0] - model.flux(u_minus)[0]) / du_state)
    return u, lam


def _ref_point(model, u_minus, m):
    mu0 = float(model.family_parameter(u_minus, 0))
    if abs(m - mu0) < curves.STATE_COINCIDENCE:
        return u_minus.copy(), float(models.eigen(model, u_minus)[0][0])
    return _ref_point_scalar(model, u_minus, m)


def _ref_rarefaction_state(model, u_minus, m):
    mu0 = float(model.family_parameter(u_minus, 0))
    if abs(m - mu0) < curves.STATE_COINCIDENCE:
        return u_minus.copy()
    u = _ref_scalar_state(model, u_minus, 0, m)
    if not _ref_in_ball(model, u):
        raise BallExit(f"outside the outer ball at {u.tolist()}")
    return u


def _ref_dissipation(model, u_minus, m):
    u, lam = _ref_point(model, u_minus, m)
    U_m, F_m = models.entropy_pair(model, u_minus)
    U_p, F_p = models.entropy_pair(model, u)
    return -lam * (U_p - U_m) + (F_p - F_m)


SCALAR_BASES = (-1.9, -1.0, -0.37, 0.0, 1e-7, 0.4, 1.0, 1.5, 1.99)


def _scalar_queries(u):
    ms = list(np.linspace(-1.95, 1.95, 27))
    ms += [0.0, -u, 2.0 * -u, u + 5e-14, u - 5e-14, u + 9.9e-14, u - 2e-13,
           2.0 - 1e-13, -2.0 + 1e-13, 2.0 + 1e-9, -2.0 - 1e-9, 2.5, -3.0]
    return [float(m) for m in ms]


def _ref_tangency(model, u_minus, m):
    u, lam = _ref_point(model, u_minus, m)
    return lam - float(models.eigen(model, u)[0][model.cc_index])


@pytest.mark.parametrize("model", [CUBIC], ids=["hook"])
def test_scalar_points_match_the_reference_bit_for_bit(model):
    n_exits = 0
    for u in SCALAR_BASES:
        a = np.array([u])
        curve = curves.HugoniotCurve(model, a, 0)
        for m in _scalar_queries(u):
            try:
                want = _ref_point(model, a, m)
            except BallExit:
                n_exits += 1
                with pytest.raises(BallExit):
                    curve.state_speed(m)
                with pytest.raises(BallExit):
                    acceptance._dissipation_at(model, curve, m)
                with pytest.raises(BallExit):
                    rarefaction_point(model, a, 0, m)
                continue
            # the one integral curve holds every scalar state, so the
            # rarefaction point is the reference inversion too
            assert np.array_equal(rarefaction_point(model, a, 0, m),
                                  _ref_rarefaction_state(model, a, m)), (u, m)
            assert curve.speed_at(m) == want[1], (u, m)
            state, speed = curve.state_speed(m)
            assert np.array_equal(state, want[0]), (u, m)
            assert speed == want[1], (u, m)
            assert (acceptance._dissipation_at(model, curve, m)
                    == _ref_dissipation(model, a, m)), (u, m)
            lam = models.char_speed(model, state, model.cc_index)
            assert speed - lam == _ref_tangency(model, a, m), (u, m)
    assert n_exits >= 4 * len(SCALAR_BASES)


# The closed-form critical maps and the release checks' root searches, in
# the same order: mu_natural, mu_minus_natural, mu_flat_zero, mu_sharp_zero
# and companion_parameter
CLOSED_FORMS, SEARCHES = zip(*acceptance.CRITICAL_ORACLE)

# the five maps by the root searches on the cubic model, the companion
# taken of -0.75 u, as float.hex, recorded from the evaluation of every
# curve point on state vectors from scratch
CRITICAL_GOLDEN = (
    (-1.7, ('0x1.b333333333287p-1', None, '0x1.b333333333332p+0', '-0x1.42064d7950000p-53', '0x1.b3333333333d7p-2')),
    (-1.2, ('0x1.33333333333fap-1', None, '0x1.3333333333333p+0', '0x1.0340c279c0000p-56', '0x1.33333333333a7p-2')),
    (-0.8, ('0x1.9999999999aa4p-2', '0x1.999999999999ap+0', '0x1.9999999999999p-1', '0x1.1863f043f8000p-53', '0x1.9999999999a2bp-3')),
    (-0.45, ('0x1.ccccccccccdf7p-3', '0x1.ccccccccccccdp-1', '0x1.ccccccccccccdp-2', '-0x1.0aa11b9270000p-55', '0x1.ccccccccccd74p-4')),
    (-0.1, ('0x1.9999999999aa4p-5', '0x1.999999999999ap-3', '0x1.9999999999999p-4', '0x1.1863f043f8000p-56', '0x1.9999999999a2bp-6')),
    (3e-06, ('-0x1.92a737110e454p-20', '-0x1.92a737110e454p-18', '-0x1.92a737110e454p-19', '0x0.0p+0', '-0x1.92a737110e454p-21')),
    (0.02, ('-0x1.47ae147ae154fp-7', '-0x1.47ae147ae1488p-5', '-0x1.47ae147ae147bp-6', '0x1.3796211380000p-61', '-0x1.47ae147ae1500p-8')),
    (0.3, ('-0x1.33333333333fap-3', '-0x1.3333333333334p-1', '-0x1.3333333333333p-2', '-0x1.0340c279c0000p-58', '-0x1.33333333333a7p-4')),
    (0.55, ('-0x1.1999999999a50p-2', '-0x1.199999999999ap+0', '-0x1.199999999999ap-1', '-0x1.ece9536df0000p-55', '-0x1.1999999999a05p-3')),
    (0.9, ('-0x1.ccccccccccdf7p-2', '-0x1.ccccccccccccdp+0', '-0x1.ccccccccccccdp-1', '0x1.0aa11b9270000p-54', '-0x1.ccccccccccd74p-3')),
    (1.0, ('-0x1.00000000000a6p-1', '-0x1.000000000002ap+1', '-0x1.0000000000000p+0', '0x1.3ce2a04e00000p-54', '-0x1.0000000000063p-2')),
    (1.368, ('-0x1.5e353f7ced835p-1', None, '-0x1.5e353f7ced917p+0', '0x1.e4728709d0000p-54', '-0x1.5e353f7ced9a2p-2')),
    (1.85, ('-0x1.d999999999907p-1', None, '-0x1.d99999999999ap+0', '0x1.487c6b6e80000p-56', '-0x1.d999999999a4fp-2')),
)


@pytest.mark.parametrize("u, want", CRITICAL_GOLDEN)
def test_critical_maps_match_the_golden_bits(u, want):
    model = cubic_model()
    got = tuple(f(model, u) for f in SEARCHES[:4]) + (
        SEARCHES[4](model, u, -0.75 * u),)
    assert tuple(None if v is None else float(v).hex() for v in got) == want


def _critical_outcomes(model, u, maps):
    """Each of the five maps' value at u, None, or CurveError when it
    raised one; the companion is taken of the midpoint of the band when it
    exists. The searches name a failure by where they stopped (BallExit,
    BracketFailure), the closed forms by the ball alone."""
    def outcome(f, *args):
        try:
            return f(model, u, *args)
        except curves.CurveError:
            return curves.CurveError
    got = [outcome(f) for f in maps[:4]]
    if all(isinstance(v, float) for v in (got[0], got[2])):
        got.append(outcome(maps[4], 0.5 * (got[0] + got[2])))
    return got


@pytest.mark.parametrize("model, n_values, mu_floor, tol", [
    (CUBIC, 300, 0.0, 1e-12),
    # on the p-system the searches' root of the O(mu^4) dissipation loses
    # digits as |mu| falls: 2.4e-12 at |w| = 0.033, 9e-10 at |w| = 1.3e-3,
    # where the closed forms stay exact; c01's bound and floor apply
    (ELAS, 100, 1e-2, 1e-10)], ids=["cubic", "elasticity"])
def test_critical_hook_matches_generic_search(model, n_values, mu_floor, tol):
    if model.N == 1:
        states = models.sample_ball(model, 300, np.random.default_rng(7),
                                    radius="delta0")
    else:
        states = default_samples(model)
    worst = 0.0
    n_compared = n_edge = 0
    for u in states:
        hooked = _critical_outcomes(model, u, CLOSED_FORMS)
        generic = _critical_outcomes(model, u, SEARCHES)
        assert len(hooked) == len(generic), u
        for h, g in zip(hooked, generic):
            if h is None or h is curves.CurveError:
                assert h is g, (u, h, g)
                n_edge += 1
                continue
            assert isinstance(g, float), (u, h, g)
            if abs(models.mu(model, u)) >= mu_floor:
                worst = max(worst, abs(h - g))
                n_compared += 1
    assert worst <= tol
    # the samples reach the ball's edge, where None or CurveError comes out
    assert n_compared >= n_values and n_edge >= 50


def test_tangency_search_raises_where_it_has_no_bracket():
    # a hook speed of -m rises at the walk's first step from u = -0.1,
    # whose characteristic speed is 0.03; a characteristic speed of 0
    # leaves the tangency identity positive on the whole bracket
    hook = CUBIC.hugoniot_fn
    rising = dataclasses.replace(
        CUBIC, hugoniot_fn=lambda u, j, m: (hook(u, j, m)[0], -m))
    with pytest.raises(curves.BracketFailure, match="first step"):
        acceptance.search_mu_natural(rising, [-0.1])
    with mock.patch.object(models, "char_speed", return_value=0.0):
        with pytest.raises(curves.BracketFailure, match="keeps its sign"):
            acceptance.search_mu_natural(CUBIC, [1.0])


@pytest.mark.parametrize("cc_index", [0, 1])
def test_critical_hook_reads_the_family_parameter(cc_index):
    """On both p-system families, whose parameters are -w and w, the
    hook's tangency and zero-dissipation parameters meet their exact
    identities on the designated family's Hugoniot locus."""
    model = dataclasses.replace(ELAS, cc_index=cc_index)
    for u in ([0.0, -0.5], [0.2, 0.4], [-0.1, 0.3]):
        u = np.array(u)
        curve = curves.hugoniot_curve(model, u)
        m_nat = mu_natural(model, u)
        state, lam = curve.state_speed(m_nat)
        assert abs(lam - models.char_speed(model, state, cc_index)) <= 1e-12
        m_flat = mu_flat_zero(model, u)
        assert m_flat != models.mu(model, u)
        assert abs(acceptance._dissipation_at(model, curve, m_flat)) <= 1e-12


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_char_speed_is_the_eigen_eigenvalue(model):
    rng = np.random.default_rng(3)
    for u in models.sample_ball(model, 40, rng, radius="delta0"):
        lams = models.eigen(model, u)[0]
        for j in range(model.N):
            got = models.char_speed(model, u, j)
            assert type(got) is float
            assert got == lams[j], (u, j)


def test_in_ball_matches_the_vector_norm():
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).smallest_subnormal
    vecs = []
    for n, model in ((1, CUBIC), (2, ELAS)):
        for _ in range(300):
            v = rng.normal(size=n)
            # put half of the samples within a few ulps of a ball's edge
            if rng.uniform() < 0.5:
                edge = rng.choice([model.delta0, model.delta1,
                                   model.delta0 + models.BALL_TOL,
                                   model.delta1 + models.BALL_TOL])
                v *= (edge + rng.integers(-3, 4) * 4.4e-16) / np.linalg.norm(v)
            vecs.append((model, v))
        vecs.append((model, np.full(n, tiny)))
        vecs.append((model, np.full(n, 5e-310)))
        vecs.append((model, np.zeros(n)))
    vecs.append((ELAS, np.array([tiny, 1.0])))
    vecs.append((ELAS, np.array([ELAS.delta0, -3 * tiny])))
    for model, v in vecs:
        for radius in ("delta0", "delta1"):
            r = model.delta1 if radius == "delta1" else model.delta0
            for tol in (models.BALL_TOL, 0.0):
                want = bool(np.linalg.norm(v) <= r + tol)
                assert models.in_ball(model, v, radius, tol) == want, (v, radius)


# -- Entropy dissipation ----------------------------------------------------

def test_entropy_dissipation_oracles():
    assert entropy_dissipation(CUBIC, 1.0, -1.0) == pytest.approx(0.0, abs=1e-13)
    assert entropy_dissipation(CUBIC, 1.0, -0.5) == pytest.approx(-0.84375, abs=1e-13)
    assert entropy_dissipation(CUBIC, 1.0, 1.5) == pytest.approx(0.15625, abs=1e-13)
    assert entropy_dissipation(CUBIC, 1.0, -2.0) == pytest.approx(13.5, abs=1e-12)


def test_dissipation_sign_structure():
    # E < 0 strictly between the zero-dissipation point and the base state,
    # E > 0 beyond either end
    for m in np.linspace(-0.95, 0.95, 21):
        assert entropy_dissipation(CUBIC, 1.0, m) < 0
    assert entropy_dissipation(CUBIC, 1.0, 1.1) > 0
    assert entropy_dissipation(CUBIC, 1.0, -1.1) > 0


def test_dissipation_extremum_at_tangency():
    # maximum dissipation magnitude sits at the tangency parameter
    grid = np.linspace(-0.99, 0.99, 397)
    vals = [entropy_dissipation(CUBIC, 1.0, m) for m in grid]
    m_min = grid[int(np.argmin(vals))]
    assert m_min == pytest.approx(-0.5, abs=0.01)


# -- Critical-point maps ----------------------------------------------------

def test_mu_natural_cubic():
    assert mu_natural(CUBIC, 1.0) == pytest.approx(-0.5, abs=1e-10)
    assert mu_natural(CUBIC, 0.2) == pytest.approx(-0.1, abs=1e-10)


def test_mu_natural_slope_near_manifold():
    h = 1e-4
    slope = (mu_natural(CUBIC, 0.5 + h) - mu_natural(CUBIC, 0.5 - h)) / (2 * h)
    assert slope == pytest.approx(-0.5, abs=1e-5)


def test_mu_minus_natural_cubic():
    assert mu_minus_natural(CUBIC, 1.0) == pytest.approx(-2.0, abs=1e-10)
    assert mu_minus_natural(CUBIC, 0.5) == pytest.approx(-1.0, abs=1e-10)
    lam = shock_speed(CUBIC, 1.0, -2.0)
    assert lam == pytest.approx(3.0, abs=1e-12)


def test_mu_minus_natural_absent_outside_ball():
    # root would sit at -2.4, outside the default outer ball
    assert mu_minus_natural(CUBIC, 1.2) is None
    assert mu_minus_natural(WIDE, 1.2) == pytest.approx(-2.4, abs=1e-10)


def test_mu_flat_zero_cubic():
    assert mu_flat_zero(CUBIC, 1.0) == pytest.approx(-1.0, abs=1e-10)
    assert mu_flat_zero(CUBIC, -0.6) == pytest.approx(0.6, abs=1e-10)


def test_mu_flat_zero_involution():
    for u in (1.0, 0.7, -0.45, 1.3):
        model = WIDE
        m1 = mu_flat_zero(model, u)
        state1 = hugoniot_point(model, u, 0, m1)[0]
        m2 = mu_flat_zero(model, state1)
        assert m2 == pytest.approx(float(np.atleast_1d(u)[0]), abs=1e-10)


def test_mu_sharp_zero_cubic():
    assert mu_sharp_zero(CUBIC, 1.0) == pytest.approx(0.0, abs=1e-10)
    assert mu_sharp_zero(CUBIC, 0.4) == pytest.approx(0.0, abs=1e-10)


def test_critical_ordering():
    b0 = mu_flat_zero(CUBIC, 1.0)
    nat = mu_natural(CUBIC, 1.0)
    s0 = mu_sharp_zero(CUBIC, 1.0)
    assert b0 < nat < s0
    assert (b0, nat, s0) == pytest.approx((-1.0, -0.5, 0.0), abs=1e-10)


def test_elasticity_critical_maps():
    # same algebra as the scalar model in the w coordinate:
    # nat=-w/2, left contact=-2w, dissipation zero=-w, companion=0
    wide = elasticity_model(delta0=4.0, delta1=2.0)
    u = (0.1, 0.6)
    assert mu_natural(wide, u) == pytest.approx(-0.3, abs=1e-9)
    assert mu_minus_natural(wide, u) == pytest.approx(-1.2, abs=1e-9)
    assert mu_flat_zero(wide, u) == pytest.approx(-0.6, abs=1e-9)
    assert mu_sharp_zero(wide, u) == pytest.approx(0.0, abs=1e-9)


def test_elasticity_left_contact_absent_in_default_ball():
    # the contact state's velocity component leaves the default outer ball
    assert mu_minus_natural(ELAS, (0.1, 0.6)) is None


def test_companion_speed_equality():
    m_flat = -0.75
    m_sharp = companion_parameter(CUBIC, 1.0, m_flat)
    assert m_sharp == pytest.approx(-0.25, abs=1e-10)
    assert shock_speed(CUBIC, 1.0, m_flat) == pytest.approx(
        shock_speed(CUBIC, 1.0, m_sharp), abs=1e-12
    )


def test_companion_of_tangency_is_itself():
    nat = mu_natural(CUBIC, 1.0)
    assert companion_parameter(CUBIC, 1.0, nat) == pytest.approx(nat, abs=1e-9)


# -- Rarefaction curves -----------------------------------------------------

def test_cubic_curves_share_the_parameter_inversion():
    for u in (1.0, 0.3, -0.7):
        for m in np.linspace(-1.9, 1.9, 39):
            h = hugoniot_point(CUBIC, u, 0, m)[0]
            r = rarefaction_point(CUBIC, u, 0, m)
            assert np.array_equal(h, r), (u, m)


def test_cubic_rarefaction_is_identity_line():
    assert rarefaction_point(CUBIC, 1.0, 0, 1.2)[0] == pytest.approx(
        1.2, abs=1e-13)
    assert rarefaction_point(CUBIC, 0.8, 0, 0.8)[0] == 0.8


def _elas_rarefaction_integral(s):
    # antiderivative of sqrt(3 s^2 + 1)
    return 0.5 * s * math.sqrt(3 * s * s + 1) + math.asinh(math.sqrt(3.0) * s) / (
        2 * math.sqrt(3.0)
    )


def test_elasticity_rarefaction_closed_form():
    want_v = -(_elas_rarefaction_integral(0.4) - _elas_rarefaction_integral(0.2))
    for _, rarefaction in CURVE_PATHS:
        state = rarefaction(ELAS, (0.0, 0.2), 1, 0.4)
        assert state[1] == pytest.approx(0.4, abs=1e-12)
        assert state[0] == pytest.approx(want_v, abs=1e-9)


def test_elasticity_rarefaction_family0():
    # family-0 parameter -w: m=0.4 lands at w=-0.4, v integrates upward
    want_v = _elas_rarefaction_integral(-0.4) - _elas_rarefaction_integral(0.2)
    for _, rarefaction in CURVE_PATHS:
        state = rarefaction(ELAS, (0.0, 0.2), 0, 0.4)
        assert state[1] == pytest.approx(-0.4, abs=1e-12)
        assert state[0] == pytest.approx(want_v, abs=1e-9)


def test_rarefaction_richardson():
    # halving the step by doubling the count: fixed grid already resolves
    # the curve to well under 1e-9
    want_v = -(_elas_rarefaction_integral(0.9) - _elas_rarefaction_integral(0.1))
    for _, rarefaction in CURVE_PATHS:
        coarse = rarefaction(ELAS, (0.0, 0.1), 1, 0.9)
        assert coarse[0] == pytest.approx(want_v, abs=1e-9)


def test_hugoniot_rarefaction_third_order_contact():
    u = (0.0, 0.5)
    for hugoniot, rarefaction in CURVE_PATHS:
        errs = []
        for dm in (0.1, 0.05, 0.025):
            m = 0.5 + dm
            h = hugoniot(ELAS, u, 1, m)[0]
            r = rarefaction(ELAS, u, 1, m)
            errs.append(float(np.linalg.norm(h - r)))
        assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.35)
        assert errs[1] / errs[2] == pytest.approx(8.0, rel=0.35)
        assert errs[2] <= 1e-5


def test_chord_speed_convexity():
    curve = curves.hugoniot_curve(CUBIC, 1.0)
    grid = np.linspace(-1.9, 0.9, 57)
    vals = np.array([curve.speed_at(m) for m in grid])
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert np.all(second > 0)


def test_tangency_sign_structure():
    # chord speed minus characteristic speed of the reached state:
    # positive strictly between tangency and base, negative outside
    curve = curves.hugoniot_curve(CUBIC, 1.0)
    for m in (-0.3, 0.2, 0.9):
        assert curve.speed_at(m) - 3 * m * m > 0
    for m in (-0.7, -1.5):
        assert curve.speed_at(m) - 3 * m * m < 0


# -- Classification ---------------------------------------------------------

def test_classify_oracles():
    assert classify_shock(CUBIC, 1.0, -0.5) == "Lax"
    assert classify_shock(CUBIC, 1.0, -0.75) == "SlowUndercompressive"
    assert classify_shock(CUBIC, 1.0, 1.5) == "RarefactionShock"
    assert classify_shock(CUBIC, 1.0, -2.0) == "SlowUndercompressive"


def test_classify_fast_undercompressive():
    # negative-speed elasticity family: the mirror of a slow undercompressive
    lam = -math.sqrt((ELAS.flux((0.0, -0.75))[0] - ELAS.flux((0.0, 1.0))[0]) / 1.75)
    # build the Rankine-Hugoniot partner state by hand
    v_plus = 0.0 - lam * (-1.75)
    assert classify_shock(ELAS, (0.0, 1.0), (v_plus, -0.75), family=0) == (
        "FastUndercompressive"
    )


def test_classify_interval_table():
    # m in (tangency, base) -> Lax; m in (left contact, tangency) -> slow
    # undercompressive; m beyond the base -> rarefaction shock
    for m, want in [
        (-0.2, "Lax"),
        (0.6, "Lax"),
        (-0.6, "SlowUndercompressive"),
        (-1.8, "SlowUndercompressive"),
        (1.2, "RarefactionShock"),
    ]:
        u_plus = hugoniot_point(CUBIC, 1.0, 0, m)[0]
        assert classify_shock(CUBIC, 1.0, u_plus) == want


# -- Generalized strength ---------------------------------------------------

def test_projected_mu():
    assert projected_mu(CUBIC, 1.0) == 1.0
    assert projected_mu(CUBIC, -0.75) == pytest.approx(0.75, abs=1e-10)


def test_strength_oracles():
    assert generalized_strength(CUBIC, 1.0, -0.75, 0) == pytest.approx(-0.25, abs=1e-10)
    assert generalized_strength(CUBIC, 1.0, -0.45, 0) == pytest.approx(-0.55, abs=1e-10)
    # rarefactions carry positive strength on both sides of the manifold
    assert generalized_strength(CUBIC, 1.0, 1.2, 0) == pytest.approx(0.2, abs=1e-12)
    assert generalized_strength(CUBIC, -0.3, -0.5, 0) == pytest.approx(0.2, abs=1e-10)


def test_strength_additivity_through_pattern():
    # strong nonclassical plus trailing classical equals the direct jump
    lhs = generalized_strength(CUBIC, 1.0, -0.75, 0) + generalized_strength(
        CUBIC, -0.75, -0.45, 0
    )
    assert lhs == pytest.approx(
        generalized_strength(CUBIC, 1.0, -0.45, 0), abs=1e-12
    )


def test_strength_norm_equivalence_floor():
    # the nonclassical wave realizes the floor |strength| / |parameter jump|
    # = (1 - 0.75) / (1 + 0.75) = 1/7 for this kinetic choice
    sigma = generalized_strength(CUBIC, 1.0, -0.75, 0)
    dmu = abs(-0.75 - 1.0)
    assert abs(sigma) / dmu == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_strength_other_family_is_parameter_increment():
    assert generalized_strength(ELAS, (0.0, 0.5), (0.3, 0.2), 0) == pytest.approx(
        0.3, abs=1e-14
    )


# -- Property checks --------------------------------------------------------

@given(st.floats(0.15, 1.3))
def test_cubic_critical_map_properties(u):
    b0 = mu_flat_zero(CUBIC, u)
    nat = mu_natural(CUBIC, u)
    s0 = mu_sharp_zero(CUBIC, u)
    assert b0 < nat < s0 + 1e-12
    assert b0 == pytest.approx(-u, abs=1e-9)
    assert nat == pytest.approx(-u / 2, abs=1e-9)
    assert s0 == pytest.approx(0.0, abs=1e-9)


@given(st.floats(-1.3, -0.15))
def test_cubic_critical_maps_mirror(u):
    assert mu_natural(CUBIC, u) == pytest.approx(-u / 2, abs=1e-9)
    assert mu_flat_zero(CUBIC, u) == pytest.approx(-u, abs=1e-9)
    assert mu_sharp_zero(CUBIC, u) == pytest.approx(0.0, abs=1e-9)


@given(st.floats(0.2, 1.2), st.floats(-0.95, 0.95))
def test_cubic_hugoniot_invariants(u, frac):
    # any target between the left contact and the base state stays on the
    # locus with consistent parameter and speed
    m = frac * u
    state, speed = hugoniot_point(CUBIC, u, 0, m)
    assert models.mu(CUBIC, state) == pytest.approx(m, abs=1e-12)
    lam = shock_speed(CUBIC, u, state)
    assert lam == pytest.approx(speed, abs=1e-12)
