"""Wave curves of a single characteristic family.

Hugoniot loci and rarefaction integral curves parametrized by the family
parameter, shock speeds and entropy dissipation along them, the four
critical-point maps of the concave-convex family (natural tangency point,
its left-contact companion, the zero-dissipation point and its equal-speed
companion), shock classification, and the generalized signed wave strength
built on the zero-dissipation involution.

Parametrization convention: eigenvectors are normalized so the family
parameter advances at unit rate along integral curves, and Hugoniot points
are indexed by the parameter value m of the state reached. Every curve
point comes from the model's closed-form hooks (hugoniot_fn,
integral_curve_fn), checked against the outer ball; there is no
continuation or numerical integration. A Hugoniot point is a plain
(state, shock speed) pair and a rarefaction point a plain state.

The critical maps answer from the model's critical_fn hook: the tangency
and zero-dissipation parameters come from the hook, and the left contact
and the equal-speed companions from its symmetry rule,
companion(m) = 2 m_nat - m. Every parameter they return is checked against
the outer ball through the Hugoniot point it names. A state's first query
computes its record of both hook parameters, kept in the model's memo;
the two companion maps compute from that record on each call, and no
curve is kept. The generalized strength reads the zero-dissipation
parameter from the hook as well, but builds no companion state, so it
does not need that point in the ball. The release checks hold the maps
against bracketing root searches (acceptance.py).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ncft import models
# eigen stays bound here though nothing in this module calls it:
# ncft_bench's tracer wraps models.eigen wherever ncft binds it, and its
# test asserts that curves.eigen is models.eigen
from ncft.models import FluxModel, as_state, char_speed, eigen, mu

Array = np.ndarray

# Tolerance in m for the critical-point maps.
CRIT_TOL = 1e-10
# Speed comparisons in classify_shock; ties go to the compressive class.
CLASSIFY_TOL = 1e-9

STATE_COINCIDENCE = 1e-13
# largest flux residual |[f] - lambda [u]| that shock_speed accepts
RH_TOL = 1e-8


class CurveError(ValueError):
    pass


class BallExit(CurveError):
    pass


class RHInconsistency(CurveError):
    pass


class BracketFailure(CurveError):
    pass


class HugoniotCurve:
    """One Hugoniot locus, queried by the parameter m of the state reached.

    state_speed(m) returns the point as a (state, shock speed) pair from
    the model's hugoniot_fn, once the state is known to lie in the outer
    ball (BallExit otherwise).

    The curve keeps the model's hugoniot_fn and outer radius delta0, not
    the model, so a curve kept by a caller does not keep its model alive.

    The base state's characteristic speed lam0 is a Python float computed
    once per curve; a query within STATE_COINCIDENCE of the base parameter
    returns the base state and lam0.
    """

    def __init__(self, model: FluxModel, u_minus, family: int):
        self._hugoniot_fn = model.hugoniot_fn
        self._delta0 = model.delta0
        self.family = family
        self.u_minus = as_state(model, u_minus)
        self.mu0 = float(model.family_parameter(self.u_minus, family))
        self.lam0 = char_speed(model, self.u_minus, family)

    def speed_at(self, m) -> float:
        return self.state_speed(m)[1]

    def state_speed(self, m) -> tuple:
        """(state, shock speed) of the point with parameter m."""
        m = float(m)
        if abs(m - self.mu0) < STATE_COINCIDENCE:
            return self.u_minus.copy(), self.lam0
        return _hook_point(self._hugoniot_fn, self._delta0, self.u_minus,
                           self.family, m)


def _hook_point(hugoniot_fn, delta0: float, a: Array, family: int,
                m: float) -> tuple:
    """(state, shock speed) of the hook's point with parameter m on the
    Hugoniot locus of a, once the state is known to lie in the outer ball
    of radius delta0; BallExit otherwise."""
    u, lam = hugoniot_fn(a, family, m)
    if not models.within(u, delta0):
        raise BallExit(f"Hugoniot locus left the outer ball at {u.tolist()}")
    return u, float(lam)


def hugoniot_curve(model: FluxModel, u_minus, family: Optional[int] = None) -> HugoniotCurve:
    """A new Hugoniot curve of family (default cc_index) through u_minus."""
    return HugoniotCurve(model, u_minus,
                         model.cc_index if family is None else family)


def hugoniot_point(model: FluxModel, u_minus, family: int, m: float) -> tuple:
    """(state, shock speed) of the point with parameter m on the Hugoniot
    locus of u_minus: hugoniot_curve(...).state_speed(m) bit for bit,
    without building the curve."""
    a = models.require_in_ball(model, u_minus, "delta0")
    return _hugoniot_core(model, a, family, float(m))


def _hugoniot_core(model: FluxModel, a: Array, family: int,
                   m: float) -> tuple:
    """hugoniot_point of a float64 state a already checked against the
    outer ball, at a float m; the state it reaches is checked once."""
    if abs(m - float(model.family_parameter(a, family))) < STATE_COINCIDENCE:
        return a.copy(), float(model.eigen_fn(a)[0][family])
    return _hook_point(model.hugoniot_fn, model.delta0, a, family, m)


def rarefaction_point(model: FluxModel, u_minus, family: int, m: float) -> Array:
    """State on the integral curve of r_family with parameter value m,
    from the model's integral_curve_fn; BallExit when it leaves the outer
    ball."""
    a = models.require_in_ball(model, u_minus, "delta0")
    return _integral_core(model, a, family, float(m))


def _integral_core(model: FluxModel, a: Array, family: int,
                   m: float) -> Array:
    """rarefaction_point of a float64 state a already checked against the
    outer ball, at a float m; the state it reaches is checked once."""
    if abs(m - float(model.family_parameter(a, family))) < 1e-15:
        return a.copy()
    u = model.integral_curve_fn(a, family, m)
    if not models.within(u, model.delta0):
        raise BallExit(
            f"rarefaction curve left the outer ball at {u.tolist()}"
        )
    return u


def shock_speed(model: FluxModel, u_minus, u_plus,
                family: Optional[int] = None) -> float:
    """Rankine-Hugoniot speed of the jump; raises if the states are not
    Hugoniot-compatible to within RH_TOL."""
    a = as_state(model, u_minus)
    b = as_state(model, u_plus)
    du = b - a
    if models.sup_norm(du) < STATE_COINCIDENCE:
        fam = model.cc_index if family is None else family
        return char_speed(model, a, fam)
    df = model.flux(b) - model.flux(a)
    lam = float(du @ df) / float(du @ du)
    resid = models.sup_norm(df - lam * du)
    if resid > RH_TOL:
        raise RHInconsistency(
            f"states not Rankine-Hugoniot compatible: residual {resid:.3e}"
        )
    return lam


def chord_speed(model: FluxModel, left: Array, right: Array) -> float:
    """Least-squares chord of the jump; exact Rankine-Hugoniot speed for
    scalar models, best-fit for folded system fronts."""
    du = right - left
    nn = float(du @ du)
    if nn == 0.0:
        return char_speed(model, left, 0)
    df = model.flux(right) - model.flux(left)
    return float(df @ du) / nn


def entropy_dissipation(model: FluxModel, u_minus, u_plus) -> float:
    """E = -lambda_bar (U+ - U-) + F+ - F-; admissible shocks have E <= 0."""
    return dissipation_at_speed(model, u_minus, u_plus,
                                shock_speed(model, u_minus, u_plus))


def dissipation_at_speed(model: FluxModel, u_minus, u_plus,
                         lam: float) -> float:
    """entropy_dissipation of the jump, given its shock speed lam."""
    U_m, F_m = models.entropy_pair(model, u_minus)
    U_p, F_p = models.entropy_pair(model, u_plus)
    return -lam * (U_p - U_m) + (F_p - F_m)


def _critical(model: FluxModel, a: Array) -> tuple:
    """The record (tangency, zero-dissipation parameter) of state a, after
    one outer-ball check of a and of each point the maps check; a map that
    leaves the ball keeps its BallExit message, not the exception, whose
    traceback would keep frames alive."""
    a = models.require_in_ball(model, a, "delta0")
    mu0 = mu(model, a)
    m_nat, m_b0 = (float(m) for m in model.critical_fn(a, mu0))
    # the tangency point counts as interior only if the chord speed rises
    # past it inside the ball, up to a quarter of |mu| beyond it, the
    # domain the release checks' search covers; where it fails, so does
    # the zero-dissipation map
    try:
        for k, m in enumerate((m_nat - 0.25 * mu0, m_nat, m_b0)):
            if abs(m - mu0) >= STATE_COINCIDENCE:
                _hook_point(model.hugoniot_fn, model.delta0, a,
                            model.cc_index, m)
    except BallExit as exc:
        return (m_nat if k == 2 else str(exc)), str(exc)
    return m_nat, m_b0


def _read(model: FluxModel, u_minus, index: int) -> float:
    """Entry index of the record of u_minus, from the model's memo; a
    stored message raises its BallExit again."""
    a = as_state(model, u_minus)
    value = model.cache.value("crit", a, lambda: _critical(model, a))[index]
    if type(value) is str:
        raise BallExit(value)
    return value


def mu_natural(model: FluxModel, u_minus) -> float:
    """Parameter of the tangency point: interior minimizer of the chord
    speed along the Hugoniot, where the shock speed meets the
    characteristic speed of the right state. Read from the model's
    critical_fn."""
    return _read(model, u_minus, 0)


def mu_minus_natural(model: FluxModel, u_minus) -> Optional[float]:
    """Parameter of the left contact: the point beyond the tangency point
    where the chord speed climbs back to the characteristic speed of the
    base state, which is the base state's companion, 2 m_nat - mu. None
    when it lies outside the ball."""
    a = as_state(model, u_minus)
    m = 2.0 * mu_natural(model, a) - mu(model, a)
    try:
        hugoniot_point(model, a, model.cc_index, m)
    except BallExit:
        return None
    return m


def mu_flat_zero(model: FluxModel, u_minus) -> float:
    """Parameter of the zero-dissipation point: the interior root of the
    entropy dissipation along the Hugoniot, between the left contact and
    the tangency point. Applying the map from the reached state returns
    the start (involution). Read from the model's critical_fn."""
    return _read(model, u_minus, 1)


def companion_parameter(model: FluxModel, u_minus, m_ref: float) -> float:
    """Equal-shock-speed companion of m_ref on the other side of the
    tangency point, on the Hugoniot of u_minus: 2 m_nat - m_ref."""
    m_nat = mu_natural(model, u_minus)
    # three points and the base speed of one locus: a curve, kept by no memo
    curve = hugoniot_curve(model, u_minus)
    lam_ref = curve.speed_at(m_ref)
    if curve.speed_at(m_nat) - lam_ref > 0:
        raise BracketFailure(
            "reference speed below the chord-speed minimum: no companion"
        )
    if curve.lam0 - lam_ref < 0:
        raise BracketFailure("no equal-speed companion before the base state")
    m = 2.0 * m_nat - m_ref
    curve.state_speed(m)
    return float(m)


def mu_sharp_zero(model: FluxModel, u_minus) -> float:
    """Equal-speed companion of the zero-dissipation point; the ordering
    flat-zero, tangency, sharp-zero holds along the parameter direction."""
    a = models.require_in_ball(model, u_minus, "delta0")
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
    return classify_at_speed(model, u_minus, u_plus, fam,
                             shock_speed(model, u_minus, u_plus, family=fam))


def classify_at_speed(model: FluxModel, u_minus, u_plus, family: int,
                      lam: float) -> str:
    """classify_shock of the jump on family, given its shock speed lam."""
    lam_l = char_speed(model, u_minus, family)
    lam_r = char_speed(model, u_plus, family)
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
    strengths additive across the strong-wave patterns. The reflection
    reads the involution's parameter from the critical_fn hook and builds
    no companion state, so a state and its mirror image -u both have a
    strength wherever they lie in the outer ball."""
    a = as_state(model, u)
    v = mu(model, a)
    if v >= 0:
        return v
    a = models.require_in_ball(model, a, "delta0")
    return float(model.critical_fn(a, v)[1])


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
