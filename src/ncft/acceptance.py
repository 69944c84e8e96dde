"""Release checks c01..c13: closed forms, random-sample admissibility,
interaction estimates, and full tracked runs, each reporting pass/fail
with the measured numbers. `run_all` never raises; a crashed check is a
failure with the exception in its detail string.

The module also holds the oracle of the closed-form critical maps: root
searches on the Hugoniot locus, which c01, c02 and the tests hold the
models' critical_fn hooks against. It is the only code in the package
that imports scipy.optimize, and only when a search runs."""

import functools
import json
import math
import tempfile
import time
from importlib.resources import files

import numpy as np

from ncft import cli
from ncft import curves
from ncft import diagnostics as dg
from ncft import kinetics as kin_mod
from ncft import models
from ncft import riemann
from ncft import tracking
from ncft.kinetics import KineticFunction
from ncft.riemann import KIND_NONCLASSICAL, KIND_RAREFACTION

GRID = np.linspace(0.1, 1.4, 50)


@functools.lru_cache(maxsize=None)
def _cubic():
    return models.cubic_model()


@functools.lru_cache(maxsize=None)
def _wide_cubic():
    # images of the companion maps on GRID reach -2.8, so the closed-form
    # sweep needs a larger state ball than the default model carries
    return models.cubic_model(delta0=4.0, delta1=3.0)


@functools.lru_cache(maxsize=None)
def _elasticity():
    # the strength fold maps w=-0.75 to a state whose velocity sits near
    # 2.4, so the weak-sampling sweep needs the larger curve ball
    return models.elasticity_model(delta0=4.0, delta1=2.0)


def _kin(theta=0.5, gamma=0.5):
    return KineticFunction(theta=theta, nucleation_gamma=gamma)


# -- Root-search oracle --------------------------------------------------------
# The functions below find the critical maps of the designated family from
# its Hugoniot locus alone, by bracketing root searches, without the
# model's critical_fn: the oracle c01, c02 and the tests hold the closed
# forms against. Each takes (model, state), runs on a Hugoniot curve
# built for the state, keeps nothing between calls, and imports
# scipy.optimize only when called. A state within NEAR_MANIFOLD of the sign-change
# manifold gets the map's leading-order normal form instead of a search.
#
# Known limits, which the states c01 and c02 sample stay clear of; they are
# the searches' faults, not behaviour the closed forms should match:
# - search_mu_flat_zero nudges its bracket out of the outer ball when the
#   state lies within about 1e-5 * max(1, |mu|) of the ball's edge and the
#   walk lands on the root: BallExit, although the root lies inside;
# - search_companion_parameter returns the reference itself when the
#   reference lies on the base state's side of the tangency point, since
#   it brackets only [m_nat, mu] and the reference's own speed is a root
#   there;
# - on the p-system the searches lose digits as |w| falls, because the
#   dissipation is O(mu^4): 2.4e-12 at |w| = 0.033, 9.2e-10 at 1.3e-3;
# - search_mu_natural raises BracketFailure where the chord speed rises
#   at its walk's first step or the tangency identity keeps its sign on
#   the walk's bracket; it has no second search to fall back on.

# Finite-difference step for the dissipation slope.
FD_M = 1e-6
# below this parameter size the quartic-order dissipation drops under the
# floating-point noise floor, so the searches return the normal forms
# (exact for the bundled models)
NEAR_MANIFOLD = 1e-5


def _dissipation_at(model, curve, m: float) -> float:
    """Entropy dissipation of the jump from curve's base state to its
    point with parameter m."""
    U0, F0 = models.entropy_pair(model, curve.u_minus)
    u, lam = curve.state_speed(m)
    U_p, F_p = model.entropy(u)
    return -lam * (float(U_p) - U0) + (float(F_p) - F0)


def search_mu_natural(model, u) -> float:
    """curves.mu_natural by search: a walking bracket on the chord speed,
    then a root solve on the exact tangency identity, whose sign flips at
    the minimizer. BracketFailure when the chord speed rises at the first
    step or the identity keeps its sign on the bracket."""
    from scipy.optimize import brentq
    a = models.require_in_ball(model, u, "delta0")
    mu0 = models.mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -0.5 * mu0
    curve = curves.hugoniot_curve(model, a)
    s = 1.0 if mu0 > 0 else -1.0
    step = 0.25 * abs(mu0)
    v_prev = curve.lam0
    for k in range(1, 201):
        m_k = mu0 - s * k * step
        try:
            v_k = curve.speed_at(m_k)
        except curves.BallExit:
            raise curves.CurveError(
                "chord speed has no interior minimum inside the ball"
            ) from None
        if v_k > v_prev:
            break
        v_prev = v_k
    else:
        raise curves.CurveError("chord speed minimum not found inside the ball")
    if k == 1:
        raise curves.BracketFailure(
            "chord speed rises at the first step: no bracket")
    xa, xc = sorted((m_k, mu0 - s * (k - 2) * step))

    # Tangency identity lam_bar(m) = lambda(state(m)); its sign flips
    # exactly at the chord-speed minimizer.
    def tangency(m):
        u_m, lam = curve.state_speed(m)
        return lam - models.char_speed(model, u_m, model.cc_index)

    if tangency(xa) * tangency(xc) >= 0:
        raise curves.BracketFailure(
            "tangency identity keeps its sign on the chord-speed bracket"
        )
    return float(brentq(tangency, xa, xc, xtol=1e-13, rtol=8.9e-16))


def search_mu_minus_natural(model, u):
    """curves.mu_minus_natural by search: a walk beyond the tangency point
    until the chord speed climbs back to the base state's characteristic
    speed, then brentq; None when the walk leaves the ball first."""
    from scipy.optimize import brentq
    a = models.require_in_ball(model, u, "delta0")
    mu0 = models.mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -2.0 * mu0
    curve = curves.hugoniot_curve(model, a)
    m_nat = search_mu_natural(model, a)
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
        except curves.BallExit:
            return None
        if abs(gk) <= 1e-11:
            # walked exactly onto the root; nudge a bracket around it
            eps = 1e-5 * scale
            try:
                root = brentq(g, *sorted((m_k - s * eps, m_k + s * eps)),
                              xtol=1e-13, rtol=8.9e-16)
            except (curves.BallExit, ValueError):
                root = m_k
            break
        if gk > 0:
            root = brentq(g, *sorted((m_k, m_prev)), xtol=1e-13, rtol=8.9e-16)
            break
        m_prev = m_k
    if root is None:
        return None
    return float(root)


def search_mu_flat_zero(model, u) -> float:
    """curves.mu_flat_zero by search: brentq on the entropy dissipation
    between the tangency point and the left contact (or, without one, the
    first walk point toward the ball's edge where the dissipation turns
    nonnegative), then a Newton polish."""
    from scipy.optimize import brentq
    a = models.require_in_ball(model, u, "delta0")
    mu0 = models.mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -mu0
    curve = curves.hugoniot_curve(model, a)
    m_nat = search_mu_natural(model, a)
    s = 1.0 if mu0 > 0 else -1.0

    def E(m):
        return _dissipation_at(model, curve, m)

    e_nat = E(m_nat)
    if e_nat >= 0:
        raise curves.BracketFailure(
            "entropy dissipation not negative at the tangency point"
        )
    # on-root detection must scale with the dissipation magnitude: the walk
    # grid can land exactly on the involution point, where E carries only
    # roundoff of either sign
    e_tol = max(1e-13, 1e-9 * abs(e_nat))
    m_far = search_mu_minus_natural(model, a)
    if m_far is None:
        # Walk toward the ball edge looking for the sign change.
        step = 0.5 * abs(mu0)
        for k in range(1, 200):
            m_k = m_nat - s * k * step
            try:
                if E(m_k) >= -e_tol:
                    m_far = m_k
                    break
            except curves.BallExit:
                break
        if m_far is None:
            raise curves.BracketFailure(
                "no zero of the entropy dissipation inside the ball"
            )
        if E(m_far) < 0:
            # landed on the root itself; widen past it by a nudge
            m_far = m_far - s * 1e-5 * max(1.0, abs(mu0))
    else:
        if E(m_far) < 0:
            raise curves.BracketFailure(
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


def search_companion_parameter(model, u, m_ref: float) -> float:
    """curves.companion_parameter by search: brentq on the chord speed
    minus the reference's, between the tangency point and the base
    state."""
    from scipy.optimize import brentq
    a = models.require_in_ball(model, u, "delta0")
    mu0 = models.mu(model, a)
    if abs(mu0) < NEAR_MANIFOLD:
        return -mu0 - m_ref
    curve = curves.hugoniot_curve(model, a)
    m_nat = search_mu_natural(model, a)
    lam_ref = curve.speed_at(m_ref)

    def h(m):
        return curve.speed_at(m) - lam_ref

    h_nat = h(m_nat)
    if abs(h_nat) < 1e-13:
        return float(m_nat)
    if h_nat > 0:
        raise curves.BracketFailure(
            "reference speed below the chord-speed minimum: no companion"
        )
    if curve.lam0 - lam_ref < 0:
        raise curves.BracketFailure(
            "no equal-speed companion before the base state")
    root = brentq(h, *sorted((m_nat, mu0)), xtol=1e-13, rtol=8.9e-16)
    return float(root)


def search_mu_sharp_zero(model, u) -> float:
    """curves.mu_sharp_zero by search: the searched companion of the
    searched zero-dissipation point."""
    a = models.require_in_ball(model, u, "delta0")
    if abs(models.mu(model, a)) < curves.MANIFOLD_TOL:
        return 0.0
    return search_companion_parameter(model, a, search_mu_flat_zero(model, a))


# each closed-form critical map of the curve layer and its search; the
# first four are maps of a state, the companion also takes a reference
CRITICAL_ORACLE = (
    (curves.mu_natural, search_mu_natural),
    (curves.mu_minus_natural, search_mu_minus_natural),
    (curves.mu_flat_zero, search_mu_flat_zero),
    (curves.mu_sharp_zero, search_mu_sharp_zero),
    (curves.companion_parameter, search_companion_parameter),
)


@functools.lru_cache(maxsize=None)
def _cubic_fan_sample():
    """10^4 random admissible cubic pairs, solved once and shared."""
    model, kin = _cubic(), _kin()
    rng = np.random.default_rng(2026)
    fans = []
    for _ in range(10000):
        a, b = rng.uniform(-1.2, 1.2, size=2)
        fans.append(riemann.solve_riemann(model, kin, [a], [b]))
    return fans


def check_c01():
    worst = 0.0
    n_states = n_contact = 0
    # p-system states with |w| >= 0.05, where the searches keep 1e-10
    elasticity_states = [np.array([v, s * w]) for v in (-0.5, 0.5)
                         for s in (-1.0, 1.0)
                         for w in np.linspace(0.05, 1.0, 10)]
    # every cubic left contact, -2u, lies inside the wide ball; p-system
    # left contacts may leave it, on both paths alike
    cases = ((_wide_cubic(), [np.array([u]) for u in GRID], True),
             (_elasticity(), elasticity_states, False))
    for model, states, contact_required in cases:
        for u0 in states:
            n_states += 1
            for closed, search in CRITICAL_ORACLE[:4]:
                got, want = closed(model, u0), search(model, u0)
                if (got is None) != (want is None):
                    return False, (f"{closed.__name__} at {u0.tolist()}: "
                                   f"closed form {got}, search {want}")
                if got is not None:
                    worst = max(worst, abs(got - want))
            has_contact = curves.mu_minus_natural(model, u0) is not None
            if contact_required and not has_contact:
                return False, f"no double-contact parameter at {u0.tolist()}"
            n_contact += has_contact
    return worst <= 1e-10, (
        f"four closed-form critical maps vs the root searches on "
        f"{n_states} cubic and p-system states ({n_contact} with a left "
        f"contact): max error {worst:.3e} (tol 1e-10)")


def check_c02():
    model, kin = _cubic(), _kin()
    worst_inv = worst_speed = worst_pair = 0.0

    def state(u0, m):
        return curves.hugoniot_point(model, u0, 0, m)[0]

    for u in GRID:
        u0 = np.array([u])
        # the kinetic value and its companion as kinetics.mu_flat and
        # kinetics.mu_sharp form them, from the searched maps
        m_kin = ((1.0 - kin.theta) * search_mu_natural(model, u0)
                 + kin.theta * search_mu_flat_zero(model, u0))
        sides = (
            (curves.mu_flat_zero, kin_mod.phi_flat(model, kin, u0),
             kin_mod.phi_sharp(model, kin, u0)),
            (search_mu_flat_zero, state(u0, m_kin),
             state(u0, search_companion_parameter(model, u0, m_kin))))
        images = []
        for flat_zero, fl, sh in sides:
            s1 = state(u0, flat_zero(model, u0))
            s2 = state(s1, flat_zero(model, s1))
            worst_inv = max(worst_inv,
                            abs(models.mu(model, s2) - models.mu(model, u0)))
            worst_speed = max(worst_speed,
                              abs(curves.shock_speed(model, u0, fl) -
                                  curves.shock_speed(model, u0, sh)))
            images.append(np.concatenate([s1, s2, fl, sh]))
        worst_pair = max(worst_pair,
                         models.sup_norm(images[0] - images[1]))
    passed = max(worst_inv, worst_speed, worst_pair) <= 1e-10
    return passed, (
        f"closed forms and root searches: involution round trip max "
        f"{worst_inv:.3e}, companion speed mismatch max {worst_speed:.3e}, "
        f"closed form vs search images max {worst_pair:.3e} (tol 1e-10)")


def check_c03():
    model, kin = _cubic(), _kin()
    n_shock = n_nc = 0
    worst_e = -math.inf
    worst_kin = 0.0
    min_lax_gap = math.inf
    for fan in _cubic_fan_sample():
        for w in fan.waves:
            if w.kind == KIND_RAREFACTION:
                continue
            n_shock += 1
            worst_e = max(worst_e,
                          curves.entropy_dissipation(model, w.left, w.right))
            if w.kind == KIND_NONCLASSICAL:
                n_nc += 1
                gap = max(models.char_speed(model, w.right, 0) - w.speed,
                          w.speed - models.char_speed(model, w.left, 0))
                min_lax_gap = min(min_lax_gap, gap)
                target = kin_mod.mu_flat(model, kin, w.left)
                worst_kin = max(worst_kin,
                                abs(models.mu(model, w.right) - target))
    passed = (worst_e <= 1e-9 and worst_kin <= 1e-10 and
              n_nc > 0 and min_lax_gap > 1e-9)
    return passed, (
        f"{n_shock} shocks from 10^4 pairs: max dissipation {worst_e:.3e} "
        f"(tol 1e-9); {n_nc} nonclassical with kinetic error max "
        f"{worst_kin:.3e} (tol 1e-10), min Lax-violation margin "
        f"{min_lax_gap:.3e}")


def check_c04():
    model, kin = _cubic(), _kin()

    def fan_at(ur):
        return riemann.solve_riemann(model, kin, [1.0], [ur])

    single = fan_at(-0.3).waves
    pair = fan_at(-0.45).waves
    sides_ok = (
        len(single) == 1 and single[0].kind == riemann.KIND_CLASSICAL and
        len(pair) == 2 and pair[0].kind == KIND_NONCLASSICAL and
        pair[1].kind == riemann.KIND_CLASSICAL and
        models.mu(model, pair[1].right) > models.mu(model, pair[1].left))
    lo, hi = -0.45, -0.3
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(fan_at(mid).waves) == 1:
            hi = mid
        else:
            lo = mid
    switch = 0.5 * (lo + hi)
    passed = sides_ok and abs(switch + 0.375) <= 1e-9
    return passed, (
        f"u_r=-0.3 gives {len(single)} wave(s), u_r=-0.45 gives "
        f"{len(pair)}; branch switch at {switch:.12f} "
        f"(expected -0.375 +- 1e-9)")


def check_c05():
    model, kin = _cubic(), _kin()
    worst = 0.0
    for u in GRID:
        u0 = np.array([u])
        fl = kin_mod.phi_flat(model, kin, u0)
        sh = kin_mod.phi_sharp(model, kin, u0)
        total = curves.generalized_strength(model, u0, sh, 0)
        first = curves.generalized_strength(model, u0, fl, 0)
        second = curves.generalized_strength(model, fl, sh, 0)
        worst = max(worst, abs(total - first - second))
    return worst <= 1e-10, (
        f"strength additivity across the split on {len(GRID)} states: "
        f"max defect {worst:.3e} (tol 1e-10)")


def check_c06():
    model, kin = _cubic(), _kin()
    ratios = []
    for fan in _cubic_fan_sample():
        for w in fan.waves:
            dmu = abs(models.mu(model, w.right) - models.mu(model, w.left))
            if dmu < 1e-12:
                continue
            ratios.append(abs(w.strength) / dmu)
    b_flat = max(abs(kin_mod.mu_flat(model, kin, np.array([u]))) / u
                 for u in GRID)
    floor = (1.0 - 0.75) / (1.0 + b_flat) - 1e-6
    c_meas, c_big = min(ratios), max(ratios)
    passed = len(ratios) >= 10000 and c_meas >= floor
    return passed, (
        f"|strength|/|d mu| over {len(ratios)} waves in [{c_meas:.6f}, "
        f"{c_big:.6f}]; required lower bound {floor:.6f} "
        f"(measured flat-map norm {b_flat:.3f})")


def check_c07():
    kin = _kin()
    passed, details = True, []
    # the cubic fits a constant of exactly 0, the p-system a positive one
    for label, model, n in (("", _cubic(), 10000),
                            ("p-system: ", models.elasticity_model(), 2000)):
        # scales keep each incoming strength at or below 0.05
        rep = dg.calibrate(model, kin, n=n, scales=(0.025, 0.01, 0.004),
                           seed=11)
        passed = passed and (rep.n_evaluated == n and
                             math.isfinite(rep.fitted_glimm_C) and
                             not rep.witnesses and
                             rep.max_zero_product_residual <= 1e-11)
        details.append(
            f"{label}{rep.n_evaluated} weak binary interactions: fitted "
            f"quadratic constant {rep.fitted_glimm_C:.6f}, max residual "
            f"{rep.max_residual:.3e}, zero-product residual "
            f"{rep.max_zero_product_residual:.3e} (tol 1e-11) over "
            f"{rep.n_zero_product} trials")
    return passed, "; ".join(details)


@functools.lru_cache(maxsize=None)
def _baseline_manifest():
    """The MANIFEST dict of the bundled baseline run; its artifacts go to a
    temporary directory that is removed once the run returns."""
    cfg_text = files("ncft").joinpath("configs/cubic-baseline.json").read_text()
    cfg = cli.validate_config(json.loads(cfg_text))
    with tempfile.TemporaryDirectory(prefix="ncft-accept-baseline-") as out:
        return cli.run_experiment(cfg, out)


def check_c08():
    manifest = _baseline_manifest()
    entry = manifest["checks"]["c08"]
    constraints_ok = manifest["weight_constraints"]["passed"]
    passed = entry["status"] == "pass" and constraints_ok
    return passed, (
        f"baseline run: {entry['n_flagged']} flagged events, max per-event "
        f"delta {entry['max_delta']:.3e}, W+KQ {entry['initial']:.6f} -> "
        f"{entry['final']:.6f}; weight constraints "
        f"{'pass' if constraints_ok else 'fail'}, recommended K "
        f"{manifest['calibration']['K_recommended']}")


@functools.lru_cache(maxsize=None)
def _cycle_scenario(gamma: float):
    """Strong three-state pattern with a chasing weak shock; merges and
    re-splits inside T=2 so completed cycles exist to audit."""
    model, kin = _cubic(), _kin(0.5, gamma)
    w = dg.Weights(0.75, zeta=0.1, K=1.0)
    fronts0 = tracking.init_fronts(
        model, kin, [[1.0], [-0.75], [-0.375], [-0.22]], [0.0, 0.02, 0.1],
        h=0.01, strong_jumps=[0, 1])
    result = tracking.run(model, kin, fronts0, t_end=2.0)
    audit = dg.cycle_audit(model, kin, result.events, result.snapshots, w,
                           cff=0.75)
    l0 = dg.snapshot(model, result.initial, w).lyapunov
    return result, audit, l0


def check_c09():
    t0 = time.perf_counter()
    manifest = _baseline_manifest()
    base = manifest["checks"]["c09"]
    model, kin = _cubic(), _kin()
    _, audit, l0 = _cycle_scenario(0.5)
    eta = kin_mod.nucleation_gap(model, kin, np.array([1.0]))
    bound = (l0 / (audit.fitted_c * eta)
             if audit.fitted_c else math.inf)
    elapsed = time.perf_counter() - t0
    passed = (base["status"] == "pass" and
              audit.passed and audit.n_completed >= 1 and
              audit.fitted_c is not None and audit.fitted_c >= 1e-3 and
              audit.n_completed <= bound + 1e-9 and
              elapsed <= 300.0)
    return passed, (
        f"baseline audit {base['status']} ({base['cycle_records']} "
        f"record(s)); merge scenario: {audit.n_completed} completed "
        f"cycle(s), fitted c {audit.fitted_c}, gap {eta:.3f}, count bound "
        f"(W+KQ)(0)/(c*gap) = {bound:.3f}, per-cycle inequality "
        f"{'pass' if audit.passed else 'fail'}; {elapsed:.1f}s")


def check_c10():
    _, audit_on, _ = _cycle_scenario(0.5)
    _, audit_off, _ = _cycle_scenario(0.0)
    etas = [r.eta for r in audit_off.records if r.eta is not None]
    passed = (bool(etas) and max(abs(e) for e in etas) <= 1e-12 and
              audit_off.n_completed >= audit_on.n_completed)
    return passed, (
        f"gamma=0 on the same data: gap recorded {max(etas) if etas else None}"
        f", {audit_off.n_completed} completed cycle(s) vs "
        f"{audit_on.n_completed} with nucleation (non-strict comparison)")


def check_c11():
    manifest = _baseline_manifest()
    entry = manifest["checks"]["c11"]
    return entry["status"] == "pass", (
        f"baseline run: corrected drift {entry['corrected']:.3e} "
        f"(tol 1e-8), raw drift {entry['raw']:.3e} <= fold budget "
        f"{entry['budget']:.3e} + 1e-12")


def classical_l1_error(h: float) -> tuple:
    """(L1 error, final front count) at T=1 of the cubic problem
    1.0 -> -0.8 tracked with theta = gamma = 0 and strength cap h, against
    its exact classical profile: a tangent shock at x=0.75 followed by a
    fan out to x=1.92."""
    model, kin = _cubic(), _kin(theta=0.0, gamma=0.0)
    xs = np.linspace(-0.5, 2.5, 60001)
    dx = xs[1] - xs[0]
    mids = 0.5 * (xs[:-1] + xs[1:])
    fan = -np.sqrt(np.maximum(mids, 0.0) / 3.0)
    exact = np.where(mids < 0.75, 1.0, np.where(mids > 1.92, -0.8, fan))
    fronts0 = tracking.init_fronts(model, kin, [[1.0], [-0.8]], [0.0],
                                   h=h, strong_jumps=[0])
    result = tracking.run(model, kin, fronts0, t_end=1.0)
    fronts = sorted(result.final.fronts, key=lambda f: f.position)
    pos = np.array([f.position for f in fronts])
    vals = np.array([fronts[0].wave.left[0]] +
                    [f.wave.right[0] for f in fronts])
    approx = vals[np.searchsorted(pos, mids, side="right")]
    return float(np.sum(np.abs(approx - exact)) * dx), len(fronts)


def check_c12():
    errs = {h: classical_l1_error(h)[0] for h in (0.02, 0.01, 0.005)}
    passed = all(errs[h] <= 5.0 * h for h in errs)
    ratios = ", ".join(f"h={h}: {errs[h]:.4f} ({errs[h] / h:.2f}h)"
                       for h in errs)
    return passed, (
        f"L1 error vs exact tangent-shock+fan profile at T=1: {ratios} "
        f"(tol 5h each)")


def check_c13():
    model = _elasticity()
    kin = _kin()
    t0 = time.perf_counter()
    worst_rh = worst_speed_sq = 0.0
    n_shocks = 0
    # several seeds, so that the bounds hold on the distribution and not
    # on one draw of it
    seeds = (5, 7, 1, 2, 3)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            # genuine nonlinearity fails on the strain manifold w=0; weak
            # problems live in a one-sided neighborhood, either sign
            base_w = rng.uniform(0.25, 0.75) * rng.choice([-1.0, 1.0])
            base = np.array([rng.uniform(-0.5, 0.5), base_w])
            delta = rng.uniform(-0.1, 0.1, size=2)
            fan = riemann.solve_riemann(model, kin, base, base + delta)
            for w in fan.waves:
                if w.kind == KIND_RAREFACTION:
                    continue
                n_shocks += 1
                jump = w.right - w.left
                rh = (w.speed * jump
                      - (model.flux(w.right) - model.flux(w.left)))
                worst_rh = max(worst_rh, models.sup_norm(rh))
                dw = w.right[1] - w.left[1]
                if abs(dw) > 1e-10:
                    dsig = ((w.right[1] ** 3 + w.right[1]) -
                            (w.left[1] ** 3 + w.left[1]))
                    worst_speed_sq = max(worst_speed_sq,
                                         abs(w.speed ** 2 - dsig / dw))
    elapsed = time.perf_counter() - t0
    passed = (worst_rh <= 1e-11 and worst_speed_sq <= 1e-10 and
              elapsed <= 120.0)
    return passed, (
        f"{len(seeds)}x10^3 weak two-family problems (rng seeds "
        f"{', '.join(map(str, seeds))}), {n_shocks} shocks: max fan "
        f"residual {worst_rh:.3e} (tol 1e-11), max squared-speed identity "
        f"error {worst_speed_sq:.3e} (tol 1e-10); {elapsed:.1f}s")


CHECKS = {
    "c01": check_c01,
    "c02": check_c02,
    "c03": check_c03,
    "c04": check_c04,
    "c05": check_c05,
    "c06": check_c06,
    "c07": check_c07,
    "c08": check_c08,
    "c09": check_c09,
    "c10": check_c10,
    "c11": check_c11,
    "c12": check_c12,
    "c13": check_c13,
}


def run_all() -> dict:
    results = {}
    for key, fn in CHECKS.items():
        try:
            passed, detail = fn()
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results[key] = {"passed": bool(passed), "detail": detail}
    return results
