"""Kinetic relation for the nonclassical branch and its companions.

The kinetic function picks, for each left state, the parameter value of
the admissible nonclassical jump inside the band between the
zero-dissipation point (excluded) and the tangency point (included), by
linear interpolation between these two ends in parameter coordinates. The
nucleation threshold interpolates between the tangency point and the
equal-speed companion of the kinetic value, controlled by a second weight.

check_hypotheses certifies the structural assumptions on sampled states:
band membership (H1), Lipschitz bound and injectivity (H2), identity on
the sign-change manifold and monotonicity along integral-curve arcs (H3),
and strict contractivity of the round trip through the involution (H4).
It returns a report; callers decide whether to abort.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ncft import curves, models
from ncft.models import FluxModel

Array = np.ndarray

# H3 monotonicity: points per integral-curve arc and the arc's half-span
# in the family parameter
ARC_POINTS = 21
ARC_SPAN = 0.2
# Conformance evaluates only samples with |mu| at least this: the band and
# the round-trip ratio shrink with |mu|, and nearer they measure roundoff.
NEAR_MANIFOLD = 1e-3


@dataclasses.dataclass(frozen=True)
class KineticFunction:
    """theta in [0, 1]: kinetic interpolation weight (0 gives the classical
    limit at the tangency point, 1 degenerates onto the open band end and
    fails conformance); nucleation_gamma in [0, 1]: nucleation
    interpolation weight (0 disables nucleation)."""

    theta: float = 0.5
    nucleation_gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (0.0 <= self.nucleation_gamma <= 1.0):
            raise ValueError("nucleation_gamma must lie in [0, 1]")


def _flat(kin: KineticFunction, m_nat: float, m_b0: float) -> float:
    """The kinetic value of a critical record (tangency, zero-dissipation
    parameter): theta of the way from the first to the second."""
    return float((1.0 - kin.theta) * m_nat + kin.theta * m_b0)


def mu_flat(model: FluxModel, kin: KineticFunction, u) -> float:
    """Kinetic parameter value for left state u: theta of the way from
    the tangency parameter to the zero-dissipation one. A state on the
    sign-change manifold maps to its own parameter."""
    a = models.as_state(model, u)
    muv = float(model.family_parameter(a, model.cc_index))
    if abs(muv) >= curves.MANIFOLD_TOL:
        models.require_in_ball(model, a, "delta0")
    return _flat_core(model, kin, a, muv)


def _flat_core(model: FluxModel, kin: KineticFunction, a: Array, muv: float) -> float:
    """mu_flat of the float64 state a, checked if off the manifold."""
    if abs(muv) < curves.MANIFOLD_TOL:
        return muv
    return _flat(kin, *curves._critical_core(model, a, muv))


def thresholds(model: FluxModel, kin: KineticFunction, u) -> tuple:
    """(kinetic value, its equal-speed companion, nucleation threshold) of
    left state u, from one critical record: the values of mu_flat,
    mu_sharp and mu_nucleation. A state on the sign-change manifold maps
    to its own parameter in all three; a map that fails raises, as
    mu_nucleation does."""
    a = models.as_state(model, u)
    muv = float(model.family_parameter(a, model.cc_index))
    if abs(muv) < curves.MANIFOLD_TOL:
        return muv, muv, muv
    m_nat, m_b0 = curves._critical(model, a)
    m_flat = _flat(kin, m_nat, m_b0)
    m_sharp = curves._companion(model, a, m_nat, m_flat)
    # with weight 0 the threshold is the companion, and nucleation never
    # constrains anything
    g = kin.nucleation_gamma
    return m_flat, m_sharp, float((1.0 - g) * m_sharp + g * m_nat)


def phi_flat(model: FluxModel, kin: KineticFunction, u) -> Array:
    a = models.as_state(model, u)
    return curves.hugoniot_point(model, a, model.cc_index, mu_flat(model, kin, a))[0]


def mu_sharp(model: FluxModel, kin: KineticFunction, u) -> float:
    """Equal-shock-speed companion of the kinetic value."""
    return thresholds(model, kin, u)[1]


def phi_sharp(model: FluxModel, kin: KineticFunction, u) -> Array:
    a = models.as_state(model, u)
    return curves.hugoniot_point(model, a, model.cc_index, mu_sharp(model, kin, a))[0]


def mu_nucleation(model: FluxModel, kin: KineticFunction, u) -> float:
    """Nucleation threshold: convex combination of the companion and the
    tangency parameter, weighted by nucleation_gamma."""
    return thresholds(model, kin, u)[2]


def nucleation_gap(model: FluxModel, kin: KineticFunction, u) -> float:
    """Distance eta between the companion and the nucleation threshold;
    zero exactly when the nucleation weight is zero."""
    _, m_sharp, m_nucl = thresholds(model, kin, u)
    return abs(m_sharp - m_nucl)


def default_samples(model: FluxModel, n: int = 200, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return models.sample_ball(model, n, rng)


@dataclasses.dataclass
class ConformanceReport:
    passed: bool
    hypotheses: dict
    measured_Cff: Optional[float]
    lipschitz_estimate: Optional[float]
    grid: dict

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def check_hypotheses(model: FluxModel, kin: KineticFunction,
                     samples=None) -> ConformanceReport:
    """The conformance report of kin on samples (default_samples(model) if
    None). Each sample is checked against the outer ball once, as it
    enters (BallViolation outside it); every other state the pass reads
    comes checked from a curve core."""
    if samples is None:
        samples = default_samples(model)
    states = [models.require_in_ball(model, u, "delta0") for u in samples]

    hyps = {}
    n_skipped = 0

    # H1: strict band membership, open at the zero-dissipation end,
    # closed at the tangency end; H4: strict uniform contraction of the
    # round trip through the involution, from the same critical record.
    # Samples whose curves leave the outer ball are skipped, not failed;
    # one whose kinetic image leaves it counts in H1 only. Each sample H1
    # evaluates is kept as (mu, kinetic value, state).
    h1_witness = None
    reachable = []
    cff, cff_witness, n_cff = 0.0, None, 0
    for a in states:
        muv = models.mu(model, a)
        if abs(muv) < NEAR_MANIFOLD:
            continue
        s = 1.0 if muv > 0 else -1.0
        try:
            m_nat, m_b0 = curves._critical_core(model, a, muv)
        except curves.CurveError:
            n_skipped += 1
            continue
        val = _flat(kin, m_nat, m_b0)
        reachable.append((muv, val, a))
        if h1_witness is None and not (
            s * val > s * m_b0 + 1e-12 * max(1.0, abs(muv))
            and s * val <= s * m_nat + 1e-12
        ):
            h1_witness = a.tolist()
        try:
            image = curves._hugoniot_core(model, a, model.cc_index, val)[0]
            image_mu = models.mu(model, image)
            ratio = abs(curves._critical_core(model, image, image_mu)[1]) / abs(muv)
        except curves.CurveError:
            continue
        n_cff += 1
        if ratio > cff:
            cff, cff_witness = ratio, a
    hyps["H1"] = {"passed": h1_witness is None, "witness": h1_witness}

    # H2: Lipschitz estimate along the parameter and injectivity of the
    # kinetic map on each side of the manifold.
    pairs = []
    for side in (1.0, -1.0):
        side_samples = sorted((r for r in reachable if side * r[0] > 0),
                              key=lambda r: r[0])
        for (mu0, val0, _), (mu1, val1, _) in zip(side_samples,
                                                  side_samples[1:]):
            dmu = mu1 - mu0
            if abs(dmu) < 1e-9:
                continue
            pairs.append((val1 - val0) / dmu)
    lipschitz = max((abs(r) for r in pairs), default=None)
    injective = all(abs(r) > 1e-9 for r in pairs)
    hyps["H2"] = {
        "passed": lipschitz is not None and injective,
        "lipschitz_estimate": lipschitz,
        "injective": injective,
    }

    # H3: identity on the manifold, and monotone decrease of the kinetic
    # value along integral-curve arcs through sampled states. mu_flat
    # answers a state on the manifold with its own parameter, so the
    # identity is read from the state's critical record.
    manifold_ok = True
    for a in states[: max(1, len(states) // 10)]:
        try:
            proj = curves._integral_core(model, a, model.cc_index, 0.0)
            record = curves._critical_core(model, proj, models.mu(model, proj))
            if abs(_flat(kin, *record)) > 1e-9:
                manifold_ok = False
                break
        except curves.CurveError:
            pass  # a probe that leaves the ball is not evaluated
    arcs_ok = True
    arc_witness = None
    for mu0, _, a in reachable[: max(1, len(reachable) // 4)]:
        span = min(ARC_SPAN, 0.45 * (model.delta1 - abs(mu0)))
        if span <= 1e-6:
            continue
        grid = np.linspace(mu0 - span, mu0 + span, ARC_POINTS)
        vals = []
        try:
            for m in grid:
                st = curves._integral_core(model, a, model.cc_index, float(m))
                vals.append(_flat_core(model, kin, st, models.mu(model, st)))
        except curves.CurveError:
            continue
        # with theta = 0 a step may also equal the tolerance
        decreasing = np.less if kin.theta > 1e-12 else np.less_equal
        if not np.all(decreasing(np.diff(vals), 1e-12)):
            arcs_ok = False
            arc_witness = a.tolist()
            break
    hyps["H3"] = {
        "passed": manifold_ok and arcs_ok,
        "identity_on_manifold": manifold_ok,
        "monotone_arcs": arcs_ok,
        "witness": arc_witness,
    }

    hyps["H4"] = {
        "passed": cff < 1.0,
        "measured_Cff": cff,
        "witness": None if cff < 1.0 else cff_witness.tolist(),
    }

    return ConformanceReport(
        passed=all(h["passed"] for h in hyps.values()),
        hypotheses=hyps,
        measured_Cff=cff,
        lipschitz_estimate=lipschitz,
        grid={
            "n_samples": len(states),
            "n_usable": len(reachable),
            "n_skipped_ball": n_skipped,
            "n_contraction_evaluated": n_cff,
            "arc_points": ARC_POINTS,
            "arc_span": ARC_SPAN,
        },
    )
