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
(state, shock speed) pair and a rarefaction point a plain state. Every
Hugoniot point, a HugoniotCurve's included, comes from one rule,
_hugoniot_core. A jump passes the Rankine-Hugoniot condition by one rule,
_check_rh: shock_speed applies it at the jump's chord speed, and
riemann._shock at the speed the hook gives the jump.

The critical maps answer from the model's critical_fn hook: the tangency
and zero-dissipation parameters come from the hook, and the left contact
and the equal-speed companions from its symmetry rule,
companion(m) = 2 m_nat - m. Every parameter they return is checked against
the outer ball through the Hugoniot point it names. Each query reads the
state's record of both hook parameters from one critical_fn call, and the
two companion maps compute from that record; nothing is kept between
calls. The generalized strength reads the zero-dissipation
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

# No step: a target parameter within this of its base (a jump within it in
# the sup norm) reaches the base state, in the curve cores and Riemann walk.
STATE_COINCIDENCE = 1e-13
# On the inflection manifold: |mu| below this. Such a state is its own
# kinetic value, companion and threshold, and its walk reads no kinetics.
MANIFOLD_TOL = 1e-12
# largest flux residual |[f] - lambda [u]| that _check_rh accepts
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

    state_speed(m) returns the point as a (state, shock speed) pair by
    hugoniot_point's rule, _hugoniot_core, from the curve's base state
    and model (BallExit when the state leaves the outer ball). The base
    state's characteristic speed lam0 is a Python float computed once
    per curve.
    """

    def __init__(self, model: FluxModel, u_minus, family: int):
        self.model = model
        self.family = family
        self.u_minus = as_state(model, u_minus)
        self.lam0 = char_speed(model, self.u_minus, family)

    def speed_at(self, m) -> float:
        return self.state_speed(m)[1]

    def state_speed(self, m) -> tuple:
        """(state, shock speed) of the point with parameter m."""
        return _hugoniot_core(self.model, self.u_minus, self.family, float(m))


def _hook_point(model: FluxModel, a: Array, family: int, m: float) -> tuple:
    """(state, shock speed) of the hook's point with parameter m on the
    Hugoniot locus of a, once the state is known to lie in the outer
    ball; BallExit otherwise."""
    u, lam = model.hugoniot_fn(a, family, m)
    if not models.within(u, model.delta0):
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
    return _hook_point(model, a, family, m)


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
    if abs(m - float(model.family_parameter(a, family))) < STATE_COINCIDENCE:
        return a.copy()
    u = model.integral_curve_fn(a, family, m)
    if not models.within(u, model.delta0):
        raise BallExit(
            f"rarefaction curve left the outer ball at {u.tolist()}"
        )
    return u


def shock_speed(model: FluxModel, u_minus, u_plus,
                family: Optional[int] = None) -> float:
    """Rankine-Hugoniot speed of the jump, its chord speed; raises if the
    states are not Hugoniot-compatible to within RH_TOL."""
    a = as_state(model, u_minus)
    b = as_state(model, u_plus)
    if models.sup_norm(b - a) < STATE_COINCIDENCE:
        return char_speed(model, a, model.cc_index if family is None else family)
    lam = chord_speed(model, a, b)
    _check_rh(model, a, b, lam)
    return lam


def _check_rh(model: FluxModel, a: Array, b: Array, lam: float) -> None:
    """Raise RHInconsistency unless the jump between the float64 states a
    and b at speed lam has flux residual |[f] - lam [u]| within RH_TOL."""
    resid = models.sup_norm(model.flux(b) - model.flux(a) - lam * (b - a))
    if resid > RH_TOL:
        raise RHInconsistency(
            f"states not Rankine-Hugoniot compatible: residual {resid:.3e}"
        )


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
    a, b = as_state(model, u_minus), as_state(model, u_plus)
    return _dissipation(model, a, b, shock_speed(model, a, b))


def _dissipation(model: FluxModel, a: Array, b: Array, lam: float) -> float:
    """entropy_dissipation of the float64 states a and b, given the jump's
    shock speed lam."""
    (U_m, F_m), (U_p, F_p) = model.entropy(a), model.entropy(b)
    return -lam * (float(U_p) - float(U_m)) + (float(F_p) - float(F_m))


def _critical(model: FluxModel, u_minus, zero: bool = True) -> tuple:
    """The record (tangency, zero-dissipation parameter) of u_minus, from
    one critical_fn call, after one outer-ball check of the state and of
    each point the maps check; BallExit where one of them leaves the ball.
    With zero False the zero-dissipation point goes unchecked, for the
    maps that read the tangency alone."""
    a = models.require_in_ball(model, u_minus, "delta0")
    return _critical_core(model, a, mu(model, a), zero)


def _critical_core(model: FluxModel, a: Array, mu0: float, zero: bool = True) -> tuple:
    """_critical of the checked float64 state a, whose parameter is mu0."""
    m_nat, m_b0 = (float(m) for m in model.critical_fn(a, mu0))
    # the tangency point counts as interior only if the chord speed rises
    # past it inside the ball, up to a quarter of |mu| beyond it, the
    # domain the release checks' search covers; where it fails, so does
    # the zero-dissipation map
    for m in (m_nat - 0.25 * mu0, m_nat, m_b0)[: 3 if zero else 2]:
        if abs(m - mu0) >= STATE_COINCIDENCE:
            _hook_point(model, a, model.cc_index, m)
    return m_nat, m_b0


def mu_natural(model: FluxModel, u_minus) -> float:
    """Parameter of the tangency point: interior minimizer of the chord
    speed along the Hugoniot, where the shock speed meets the
    characteristic speed of the right state. Read from the model's
    critical_fn."""
    return _critical(model, u_minus, zero=False)[0]


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
    return _critical(model, u_minus)[1]


def companion_parameter(model: FluxModel, u_minus, m_ref: float) -> float:
    """Equal-shock-speed companion of m_ref on the other side of the
    tangency point, on the Hugoniot of u_minus: 2 m_nat - m_ref."""
    return _companion(model, u_minus, mu_natural(model, u_minus), m_ref)


def _companion(model: FluxModel, u_minus, m_nat: float,
               m_ref: float) -> float:
    """companion_parameter of u_minus, whose tangency parameter m_nat is
    known."""
    # three points and the base speed of one locus: one curve
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
    if abs(mu0) < MANIFOLD_TOL:
        return 0.0
    s = 1.0 if mu0 > 0 else -1.0
    m_nat, m_b0 = _critical_core(model, a, mu0)
    root = _companion(model, a, m_nat, m_b0)
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
    a, b = as_state(model, u_minus), as_state(model, u_plus)
    return _classify(model, a, b, fam, shock_speed(model, a, b, fam))


def _classify(model: FluxModel, a: Array, b: Array, family: int, lam: float) -> str:
    """classify_shock of the float64 states a and b at the shock speed lam."""
    lam_l, lam_r = (float(model.eigen_fn(u)[0][family]) for u in (a, b))
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
    if mu(model, a) < 0:
        models.require_in_ball(model, a, "delta0")
    return _projected(model, a)


def _projected(model: FluxModel, a: Array) -> float:
    """projected_mu of the float64 state a, checked if its mu is negative."""
    v = float(model.family_parameter(a, model.cc_index))
    return v if v >= 0 else float(model.critical_fn(a, v)[1])


def generalized_strength(model: FluxModel, u_left, u_right, family: int) -> float:
    """Signed strength of the jump: for the concave-convex family the
    increment of the projected parameter (admissible shocks negative,
    rarefactions positive); for other families the plain parameter
    increment."""
    if family == model.cc_index:
        return projected_mu(model, u_right) - projected_mu(model, u_left)
    return _strength(model, as_state(model, u_left), as_state(model, u_right), family)


def _strength(model: FluxModel, a: Array, b: Array, family: int) -> float:
    """generalized_strength of float64 states, checked if their mu is negative."""
    if family == model.cc_index:
        return _projected(model, b) - _projected(model, a)
    return float(model.family_parameter(b, family) - model.family_parameter(a, family))
