"""Wave curves of a single characteristic family.

Hugoniot loci and rarefaction integral curves parametrized by the family
parameter, shock speeds and entropy dissipation along them, the four
critical-point maps of the concave-convex family (natural tangency point,
its left-contact companion, the zero-dissipation point and its equal-speed
companion), shock classification, and the generalized signed wave strength
built on the zero-dissipation involution.

Parametrization convention: eigenvectors are normalized so the family
parameter advances at unit rate along integral curves, and Hugoniot points
are indexed by the parameter value m of the state reached. A curve point
comes from the model's closed-form hook when it has one (hugoniot_fn,
integral_curve_fn), from the parameter inversion on scalar models, and
otherwise from continuation and RK4; tests hold each path against the
other. The critical maps read a Hugoniot point as a plain (state, speed)
pair from HugoniotCurve.state_speed; only HugoniotCurve.point and
rarefaction_point wrap one in a CurvePoint, for the Riemann solver and the
tracker. A scalar curve evaluates its base state once, when it is built,
and its points take the same floating-point operations, in the same
order, as a point evaluated from scratch on state vectors, so every
artifact keeps its bits.

The critical maps answer from the model's critical_fn hook when it has
one: the tangency and zero-dissipation parameters come from the hook, and
the left contact and the equal-speed companions from its symmetry rule,
companion(m) = 2 m_nat - m. Every parameter they return is checked against
the outer ball through the Hugoniot point it names. Models without the hook
get generic root-finding (bracketing plus polishing on exact identities);
only these searches load scipy.optimize.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import weakref
from typing import Optional

import numpy as np

from ncft import models
from ncft.models import FluxModel, as_state, char_speed, eigen, mu

Array = np.ndarray

# Continuation step in the family parameter; halved on corrector failure.
CONT_STEP = 1e-2
CONT_MIN_STEP = 1e-5
NEWTON_TOL = 1e-12
# Tolerance in m for the critical-point maps.
CRIT_TOL = 1e-10
# below this parameter size the quartic-order dissipation drops under the
# floating-point noise floor, so the critical maps switch to their
# leading-order normal forms (exact for the bundled models)
NEAR_MANIFOLD = 1e-5
# Finite-difference step for chord-speed derivatives.
FD_M = 1e-6
# Speed comparisons in classify_shock; ties go to the compressive class.
CLASSIFY_TOL = 1e-9

STATE_COINCIDENCE = 1e-13


class CurveError(ValueError):
    pass


class ContinuationError(CurveError):
    pass


class BallExit(CurveError):
    pass


class RHInconsistency(CurveError):
    pass


class BracketFailure(CurveError):
    pass


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    state: Array
    m: float
    speed: Optional[float]


class HugoniotCurve:
    """One Hugoniot locus, queried by the parameter m of the state reached.

    state_speed(m) returns the point as a (state, shock speed) pair; point
    wraps that pair in a CurvePoint. A model's hugoniot_fn, when present,
    answers every query. A scalar model needs no continuation: every state
    is on the locus, the parameter inversion (_scalar_state) finds it and
    the chord formula gives the speed. Otherwise predictor-corrector
    continuation stores anchors at parameter steps of CONT_STEP out from
    the base state in both directions, and a query runs a corrector Newton
    from the nearest anchor.

    The curve holds its model weakly: the model's memo holds the curve,
    and a strong reference back would keep every dropped model alive
    until a cyclic garbage collection.

    The base state's characteristic speed lam0 and entropy pair (U0, F0)
    are Python floats computed once per curve. On scalar models without
    hugoniot_fn, so are its value x0, flux value f0 and parameter slope g0,
    and the outer ball's radius plus BALL_TOL. A query puts them where a
    point evaluated from scratch evaluates the model at u_minus (the first
    Newton step of the inversion, the chord), so it computes the same
    doubles.
    """

    def __init__(self, model: FluxModel, u_minus, family: int):
        self._model = weakref.ref(model)
        self.family = family
        self.u_minus = as_state(model, u_minus)
        self.mu0 = float(model.family_parameter(self.u_minus, family))
        lam0 = char_speed(model, self.u_minus, family)
        self.lam0 = lam0
        self.U0, self.F0 = models.entropy_pair(model, self.u_minus)
        self._x0 = None
        if model.N == 1 and model.hugoniot_fn is None:
            self._x0 = float(self.u_minus[0])
            self._f0 = float(model.flux(self.u_minus)[0])
            self._g0 = float(
                models.family_parameter_grad(model, self.u_minus, family)[0])
            self._outer = model.delta0 + models.BALL_TOL
        self._up = [(self.mu0, self.u_minus.copy(), lam0)]
        self._down = [(self.mu0, self.u_minus.copy(), lam0)]

    @property
    def model(self) -> FluxModel:
        model = self._model()
        if model is None:
            raise ReferenceError(
                "the model of this Hugoniot curve has been freed; keep the "
                "model alive while its curves are in use")
        return model

    def point(self, m) -> CurvePoint:
        m = float(m)
        u, lam = self.state_speed(m)
        return CurvePoint(u, m, lam)

    def speed_at(self, m) -> float:
        return self.state_speed(m)[1]

    def state_speed(self, m) -> tuple:
        """(state, shock speed) of the point with parameter m."""
        m = float(m)
        if abs(m - self.mu0) < STATE_COINCIDENCE:
            return self.u_minus.copy(), self.lam0
        x0 = self._x0
        if x0 is not None:
            # every scalar state is Hugoniot-compatible: invert the
            # parameter and take the chord slope
            u = _scalar_state(self.model, self.family, m, x0, self.mu0,
                              self._g0)
            x = u[0]
            if not _within(x, self._outer):
                raise BallExit(
                    f"Hugoniot continuation left the outer ball at {u.tolist()}"
                )
            dx = float(x - x0)
            if abs(dx) < STATE_COINCIDENCE:
                return u, self.lam0
            return u, float((self.model.flux(u)[0] - self._f0) / dx)
        if self.model.hugoniot_fn is not None:
            u, lam = self.model.hugoniot_fn(self.u_minus, self.family, m)
            self._require_outer_ball(u)
            return u, float(lam)
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
        if abs(m_target - m_base) < STATE_COINCIDENCE:
            return u_base.copy(), lam_base
        if step < CONT_MIN_STEP:
            raise ContinuationError(
                f"continuation step underflow near m = {m_target}"
            )
        try:
            _, R, _ = eigen(self.model, u_base)
            u_pred = u_base + (m_target - m_base) * R[:, self.family]
            return self._correct(u_pred, lam_base, m_target)
        except (ContinuationError, models.HyperbolicityError):
            m_mid = 0.5 * (m_base + m_target)
            u_mid, lam_mid = self._advance(
                u_base, lam_base, m_base, m_mid, step / 2
            )
            return self._advance(u_mid, lam_mid, m_mid, m_target, step / 2)

    def _correct(self, u0, lam0_, m):
        # Newton on the Rankine-Hugoniot system plus the parameter pin:
        # unknowns (u, lambda) in R^(N+1).
        model = self.model
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
            J[:n, :n] = model.jacobian(u_) - lam_ * np.eye(n)
            J[:n, n] = -(u_ - self.u_minus)
            J[n, :n] = models.family_parameter_grad(model, u_, self.family)
            J[n, n] = 0.0
            delta = np.linalg.solve(J, -G)
            if not np.all(np.isfinite(delta)):
                raise ContinuationError(f"corrector blow-up at m = {m}")
            return u_ + delta[:n], lam_ + delta[n]

        for _ in range(40):
            G = residual(u, lam)
            if np.max(np.abs(G)) < NEWTON_TOL:
                # one step past the tolerance lands the emitted states on
                # the roundoff floor, where the exact speed identities
                # survive division by small jumps; kept only when it
                # helps, since the system degenerates at sonic points
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


def _within(x: float, radius: float) -> bool:
    """models.in_ball for the scalar state [x], on floats: sqrt(x * x) is
    the norm np.linalg.norm takes of that vector."""
    return math.sqrt(x * x) <= radius


def _scalar_state(model: FluxModel, family: int, m: float, x0: float,
                  mu0: float, g0: float) -> Array:
    """The scalar state with family parameter m, by Newton from the state
    [x0], whose parameter is mu0 and parameter slope g0. It lies on both
    wave curves: every scalar state is Hugoniot-compatible and on the one
    integral curve.

    The first step is (m - mu0) / g0, the step a Newton iteration that
    evaluates the model at [x0] takes, so a curve that keeps mu0 and g0
    gets the same state, bit for bit, as an inversion from scratch. The
    iterate is a scalar; each later step gives the model's hooks the
    iterate as a fresh 1-element vector, as an inversion from scratch
    does."""
    grad = model.family_parameter_grad
    du = (m - mu0) / g0
    x = x0 + du
    u = np.array([x])
    for _ in range(59):
        if abs(du) < 1e-15:
            break
        val = model.family_parameter(u, family)
        if grad is not None:
            g = grad(u, family)[0]
        else:
            g = models.family_parameter_grad(model, u, family)[0]
        du = (m - val) / g
        x = x + du
        u = np.array([x])
    return u


def hugoniot_curve(model: FluxModel, u_minus, family: Optional[int] = None) -> HugoniotCurve:
    """The model's memoized Hugoniot curve through u_minus. The curve
    holds the model weakly: keep the model alive while using the curve,
    whose queries raise ReferenceError once the model is freed."""
    fam = model.cc_index if family is None else family
    a = as_state(model, u_minus)
    return model.cache.curve(fam, a, lambda: HugoniotCurve(model, a, fam))


def hugoniot_point(model: FluxModel, u_minus, family: int, m: float) -> CurvePoint:
    models.require_in_ball(model, u_minus, "delta0")
    return hugoniot_curve(model, u_minus, family).point(m)


def rarefaction_point(model: FluxModel, u_minus, family: int, m: float) -> CurvePoint:
    """State on the integral curve of r_family with parameter value m.

    From the model's integral_curve_fn when it has one, by parameter
    inversion on scalar models, and otherwise by fixed-step RK4 on
    u' = r(u); the unit-rate normalization makes the family parameter the
    integration variable, so step count is set by the parameter increment
    alone (bit-reproducible).
    """
    a = models.require_in_ball(model, u_minus, "delta0")
    m = float(m)
    mu0 = float(model.family_parameter(a, family))
    dm = m - mu0
    if abs(dm) < 1e-15:
        return CurvePoint(a.copy(), mu0, None)

    def checked(u):
        if not models.in_ball(model, u, "delta0"):
            raise BallExit(
                f"rarefaction curve left the outer ball at {u.tolist()}"
            )
        return u

    if model.integral_curve_fn is not None:
        return CurvePoint(checked(model.integral_curve_fn(a, family, m)), m, None)
    if model.N == 1:
        g0 = float(models.family_parameter_grad(model, a, family)[0])
        u = _scalar_state(model, family, m, float(a[0]), mu0, g0)
        return CurvePoint(checked(u), m, None)
    n_steps = max(8, int(math.ceil(abs(dm) / 0.002)))
    h = dm / n_steps

    def rhs(u):
        return eigen(model, u)[1][:, family]

    u = a.copy()
    for _ in range(n_steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = checked(u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
    return CurvePoint(u, m, None)


def shock_speed(model: FluxModel, u_minus, u_plus,
                family: Optional[int] = None, tol: float = 1e-8) -> float:
    """Rankine-Hugoniot speed of the jump; raises if the states are not
    Hugoniot-compatible to within tol."""
    a = as_state(model, u_minus)
    b = as_state(model, u_plus)
    du = b - a
    if float(np.max(np.abs(du))) < STATE_COINCIDENCE:
        fam = model.cc_index if family is None else family
        return char_speed(model, a, fam)
    df = model.flux(b) - model.flux(a)
    lam = float(du @ df) / float(du @ du)
    resid = float(np.max(np.abs(df - lam * du)))
    if resid > tol:
        raise RHInconsistency(
            f"states not Rankine-Hugoniot compatible: residual {resid:.3e}"
        )
    return lam


def entropy_dissipation(model: FluxModel, u_minus, u_plus) -> float:
    """E = -lambda_bar (U+ - U-) + F+ - F-; admissible shocks have E <= 0."""
    lam = shock_speed(model, u_minus, u_plus)
    U_m, F_m = models.entropy_pair(model, u_minus)
    U_p, F_p = models.entropy_pair(model, u_plus)
    return -lam * (U_p - U_m) + (F_p - F_m)


def _dissipation_at(model: FluxModel, curve: HugoniotCurve, m: float) -> float:
    u, lam = curve.state_speed(m)
    U_p, F_p = model.entropy(u)
    return -lam * (float(U_p) - curve.U0) + (float(F_p) - curve.F0)


def _in_ball(curve: HugoniotCurve, m) -> float:
    """m, once the state of its point on curve is known to lie in the
    outer ball; BallExit otherwise."""
    curve.state_speed(m)
    return float(m)


def _memoized(name: str):
    """Serve a critical map of u_minus from the model's memo under name.
    The map's body receives the state checked against the outer ball."""
    def wrap(body):
        @functools.wraps(body)
        def memoized(model: FluxModel, u_minus):
            a = models.require_in_ball(model, u_minus, "delta0")
            return model.cache.value(name, a, lambda: body(model, a))
        return memoized
    return wrap


@_memoized("nat")
def mu_natural(model: FluxModel, a: Array) -> float:
    """Parameter of the tangency point: interior minimizer of the chord
    speed along the Hugoniot, where the shock speed meets the
    characteristic speed of the right state.

    Read from the model's critical_fn when it has one. Otherwise located
    by a walking bracket on the chord speed, then a root solve on the
    exact tangency identity, whose sign flips at the minimizer; a
    golden-section search with a Newton polish covers the rare bracket
    where the identity fails to change sign."""
    mu0 = mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -0.5 * mu0
    curve = hugoniot_curve(model, a)
    if model.critical_fn is not None:
        m_nat = model.critical_fn(a, mu0)[0]
        # as for the search, the minimum is interior only if the chord
        # speed rises past it inside the ball, up to the search's bracket
        # end a quarter of |mu| beyond it (BallExit otherwise)
        curve.state_speed(m_nat - 0.25 * mu0)
        return _in_ball(curve, m_nat)
    from scipy.optimize import brentq, minimize_scalar
    s = 1.0 if mu0 > 0 else -1.0
    step = 0.25 * abs(mu0)
    ms = [mu0]
    vals = [curve.lam0]
    k = 0
    bracket = None
    while k < 200:
        k += 1
        m_k = mu0 - s * k * step
        try:
            v_k = curve.speed_at(m_k)
        except BallExit:
            raise CurveError(
                "chord speed has no interior minimum inside the ball"
            ) from None
        ms.append(m_k)
        vals.append(v_k)
        if v_k > vals[-2]:
            if len(ms) >= 3:
                bracket = (ms[-1], ms[-2], ms[-3])
            else:
                m_half = mu0 - s * 0.5 * step
                v_half = curve.speed_at(m_half)
                if v_half >= min(vals[0], vals[1]):
                    raise CurveError(
                        "chord speed globally increasing: no interior minimum"
                    )
                bracket = (ms[-1], m_half, ms[0])
            break
    if bracket is None:
        raise CurveError("chord speed minimum not found inside the ball")
    xa, xb, xc = bracket
    if xa > xc:
        xa, xc = xc, xa

    # Tangency identity lam_bar(m) = lambda(state(m)); its sign flips
    # exactly at the chord-speed minimizer.
    def tangency(m):
        u, lam = curve.state_speed(m)
        return lam - char_speed(model, u, model.cc_index)

    m_star = None
    try:
        t_lo, t_hi = tangency(xa), tangency(xc)
        if t_lo * t_hi < 0:
            m_star = float(brentq(tangency, xa, xc, xtol=1e-13, rtol=8.9e-16))
    except (CurveError, ValueError):
        m_star = None
    if m_star is None:
        res = minimize_scalar(
            curve.speed_at, bracket=(xa, xb, xc), method="golden",
            options={"xtol": 1e-8},
        )
        m_star = float(res.x)
        # Newton on the finite-difference derivative of the chord speed.
        for _ in range(30):
            gp = curve.speed_at(m_star + FD_M)
            gm = curve.speed_at(m_star - FD_M)
            g0 = curve.speed_at(m_star)
            grad = (gp - gm) / (2 * FD_M)
            curv = (gp - 2 * g0 + gm) / (FD_M * FD_M)
            if abs(curv) < 1e-14:
                break
            delta = grad / curv
            m_star -= delta
            if abs(delta) < CRIT_TOL:
                break
        half = max(1e-5, 10 * abs(m_star) * 1e-9)
        lo, hi = m_star - half, m_star + half
        try:
            t_lo, t_hi = tangency(lo), tangency(hi)
            if t_lo * t_hi < 0:
                m_star = brentq(tangency, lo, hi, xtol=1e-13, rtol=8.9e-16)
        except (CurveError, ValueError):
            pass
    return float(m_star)


@_memoized("mnat")
def mu_minus_natural(model: FluxModel, a: Array) -> Optional[float]:
    """Parameter of the left contact: the root beyond the tangency point
    where the chord speed climbs back to the characteristic speed of the
    base state. None when the root lies outside the ball. With the
    model's critical_fn it is the base state's companion, 2 m_nat - mu."""
    mu0 = mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -2.0 * mu0
    curve = hugoniot_curve(model, a)
    m_nat = mu_natural(model, a)
    if model.critical_fn is not None:
        try:
            return _in_ball(curve, 2.0 * m_nat - mu0)
        except BallExit:
            return None
    from scipy.optimize import brentq
    s = 1.0 if mu0 > 0 else -1.0
    lam_target = curve.lam0

    def g(m):
        return curve.speed_at(m) - lam_target

    step = 0.5 * abs(mu0)
    scale = max(1.0, abs(mu0))
    m_prev = m_nat
    root = None
    for k in range(1, 200):
        m_k = m_nat - s * k * step
        try:
            gk = g(m_k)
        except BallExit:
            return None
        if abs(gk) <= 1e-11:
            # walked exactly onto the root; nudge a bracket around it
            eps = 1e-5 * scale
            try:
                root = brentq(g, *sorted((m_k - s * eps, m_k + s * eps)),
                              xtol=1e-13, rtol=8.9e-16)
            except (BallExit, ValueError):
                root = m_k
            break
        if gk > 0:
            root = brentq(g, *sorted((m_k, m_prev)), xtol=1e-13, rtol=8.9e-16)
            break
        m_prev = m_k
    if root is None:
        return None
    return float(root)


@_memoized("flat0")
def mu_flat_zero(model: FluxModel, a: Array) -> float:
    """Parameter of the zero-dissipation point: the interior root of the
    entropy dissipation along the Hugoniot, between the left contact and
    the tangency point. Applying the map from the reached state returns
    the start (involution). Read from the model's critical_fn when it has
    one."""
    mu0 = mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -mu0
    curve = hugoniot_curve(model, a)
    # with the hook too: where the tangency point fails, so does this map
    m_nat = mu_natural(model, a)
    if model.critical_fn is not None:
        return _in_ball(curve, model.critical_fn(a, mu0)[1])
    from scipy.optimize import brentq
    s = 1.0 if mu0 > 0 else -1.0

    def E(m):
        return _dissipation_at(model, curve, m)

    e_nat = E(m_nat)
    if e_nat >= 0:
        raise BracketFailure(
            "entropy dissipation not negative at the tangency point"
        )
    # on-root detection must scale with the dissipation magnitude: the walk
    # grid can land exactly on the involution point, where E carries only
    # roundoff of either sign
    e_tol = max(1e-13, 1e-9 * abs(e_nat))
    m_far = mu_minus_natural(model, a)
    if m_far is None:
        # Walk toward the ball edge looking for the sign change.
        step = 0.5 * abs(mu0)
        m_far = None
        for k in range(1, 200):
            m_k = m_nat - s * k * step
            try:
                if E(m_k) >= -e_tol:
                    m_far = m_k
                    break
            except BallExit:
                break
        if m_far is None:
            raise BracketFailure(
                "no zero of the entropy dissipation inside the ball"
            )
        if E(m_far) < 0:
            # landed on the root itself; widen past it by a nudge
            m_far = m_far - s * 1e-5 * max(1.0, abs(mu0))
    else:
        if E(m_far) < 0:
            raise BracketFailure(
                "entropy dissipation negative at the left contact: "
                "entropy pair inconsistent with the curve"
            )
    lo, hi = sorted((m_far, m_nat))
    root = brentq(E, lo, hi, xtol=1e-13, rtol=8.9e-16)
    # Newton polish on the finite-difference slope.
    for _ in range(3):
        e0 = E(root)
        slope = (E(root + FD_M) - E(root - FD_M)) / (2 * FD_M)
        if abs(slope) < 1e-14:
            break
        upd = e0 / slope
        root -= upd
        if abs(upd) < 1e-14:
            break
    return float(root)


def companion_parameter(model: FluxModel, u_minus, m_ref: float) -> float:
    """Equal-shock-speed companion of m_ref on the other side of the
    tangency point, on the Hugoniot of u_minus: 2 m_nat - m_ref with the
    model's critical_fn, a root search otherwise."""
    a = models.require_in_ball(model, u_minus, "delta0")
    mu0 = mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -mu0 - m_ref
    curve = hugoniot_curve(model, a)
    m_nat = mu_natural(model, a)
    lam_ref = curve.speed_at(m_ref)

    def h(m):
        return curve.speed_at(m) - lam_ref

    h_nat = h(m_nat)
    if abs(h_nat) < 1e-13:
        return float(m_nat)
    if h_nat > 0:
        raise BracketFailure(
            "reference speed below the chord-speed minimum: no companion"
        )
    if curve.lam0 - lam_ref < 0:
        raise BracketFailure("no equal-speed companion before the base state")
    if model.critical_fn is not None:
        return _in_ball(curve, 2.0 * m_nat - m_ref)
    from scipy.optimize import brentq
    root = brentq(h, *sorted((m_nat, mu0)), xtol=1e-13, rtol=8.9e-16)
    return float(root)


@_memoized("sharp0")
def mu_sharp_zero(model: FluxModel, a: Array) -> float:
    """Equal-speed companion of the zero-dissipation point; the ordering
    flat-zero, tangency, sharp-zero holds along the parameter direction."""
    mu0 = mu(model, a)
    if abs(mu0) < 1e-12:
        return 0.0
    s = 1.0 if mu0 > 0 else -1.0
    m_b0 = mu_flat_zero(model, a)
    m_nat = mu_natural(model, a)
    root = companion_parameter(model, a, m_b0)
    if not (s * m_b0 < s * m_nat < s * root + CRIT_TOL):
        raise CurveError(
            f"critical point ordering violated: {m_b0}, {m_nat}, {root}"
        )
    return float(root)


def classify_shock(model: FluxModel, u_minus, u_plus, family: Optional[int] = None) -> str:
    """One of Lax, SlowUndercompressive, FastUndercompressive,
    RarefactionShock, by comparing the shock speed with the family's
    characteristic speeds on both sides. Ties go to Lax."""
    fam = model.cc_index if family is None else family
    lam = shock_speed(model, u_minus, u_plus, family=fam)
    lam_l = char_speed(model, u_minus, fam)
    lam_r = char_speed(model, u_plus, fam)
    above_right = lam - lam_r   # >= 0 when the shock outruns the right state
    below_left = lam_l - lam    # >= 0 when the left state outruns the shock
    if above_right >= -CLASSIFY_TOL and below_left >= -CLASSIFY_TOL:
        return "Lax"
    if above_right <= CLASSIFY_TOL and below_left >= -CLASSIFY_TOL:
        return "SlowUndercompressive"
    if above_right >= -CLASSIFY_TOL and below_left <= CLASSIFY_TOL:
        return "FastUndercompressive"
    return "RarefactionShock"


def projected_mu(model: FluxModel, u) -> float:
    """Family parameter of the state, reflected through the
    zero-dissipation involution when it sits on the negative side. The
    result is always the nonnegative-side representative, which makes
    strengths additive across the strong-wave patterns."""
    a = as_state(model, u)
    v = mu(model, a)
    if v >= 0:
        return v
    return mu_flat_zero(model, a)


def generalized_strength(model: FluxModel, u_left, u_right, family: int) -> float:
    """Signed strength of the jump: for the concave-convex family the
    increment of the projected parameter (admissible shocks negative,
    rarefactions positive); for other families the plain parameter
    increment."""
    a = as_state(model, u_left)
    b = as_state(model, u_right)
    if family != model.cc_index:
        return float(
            model.family_parameter(b, family) - model.family_parameter(a, family)
        )
    return projected_mu(model, b) - projected_mu(model, a)
