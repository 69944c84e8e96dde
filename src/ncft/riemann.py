"""Riemann solvers: a single classical shock or rarefaction for every
other family, and the multi-branch nonclassical curve, with kinetics and
nucleation, for the designated concave-convex family. The nucleation
weight alone sets the threshold; weight zero puts it on the companion,
which turns nucleation off. No family has contact discontinuities.

The nonclassical curve for a left state on the positive parameter side
(mirrored otherwise): rarefactions beyond the base parameter; a single
classical shock down to the nucleation threshold; below it a nonclassical
jump to the kinetic state followed by a classical shock up the threshold
gap, or by a rarefaction once the target drops past the kinetic value.
Classical shocks are preferred throughout the overlap, ties included.

Scalar problems read the solution straight off the curve; systems
intersect the per-family curves with a damped Newton on the parameter
targets under the run's kinetics, from the eigenbasis projection of the
jump. The Newton probes walk the curves through the same branch rule,
with unchecked Hugoniot points for shocks and checked rarefactions,
whose failures steer the damping; the returned fan is rebuilt from
checked waves and validated in full. One solve keeps a map of the family
steps its probes walk, each keyed by its start state and target, so a
Jacobian column walks only the families from the one whose target it
moves. Past the tolerance, one polishing step reuses the last Newton
step's Jacobian.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Union

import numpy as np

from ncft import curves, kinetics as kin_mod, models
from ncft.kinetics import KineticFunction
from ncft.models import FluxModel

Array = np.ndarray

KIND_CLASSICAL = "ClassicalShock"
KIND_NONCLASSICAL = "NonclassicalShock"
KIND_RAREFACTION = "Rarefaction"
KIND_PIECE = "RarefactionShockPiece"

RESIDUAL_TOL = 1e-11
FD_STRENGTH = 1e-7
MAX_ITER = 60
ENTROPY_TOL = 1e-9
KINETIC_TOL = 1e-10
FAN_SPEED_TOL = 1e-9
# Threshold parameters are closed forms that still round, so a target that
# ties with one mathematically can land on either side by roundoff; ties
# must still take the classical branch.
THRESHOLD_TIE = 1e-12


class SolverError(ValueError):
    pass


class NoSolutionGap(SolverError):
    """Target parameter falls in the uncovered interval between the
    nucleation threshold and the companion. The threshold lies between
    the tangency parameter and the companion, so a target beyond it is
    never beyond the companion and no solve raises this; it stays as a
    guard."""


class IdGen:
    """Monotone id source; one per run keeps output ids deterministic.
    Solver calls given none number their waves from zero."""

    def __init__(self):
        self._c = itertools.count()

    def __call__(self) -> int:
        return next(self._c)


@dataclasses.dataclass(frozen=True)
class Wave:
    family: int
    kind: str
    left: Array
    right: Array
    speed: Union[float, tuple]
    strength: float
    id: int

    @property
    def speed_lo(self) -> float:
        return self.speed[0] if isinstance(self.speed, tuple) else self.speed

    @property
    def speed_hi(self) -> float:
        return self.speed[1] if isinstance(self.speed, tuple) else self.speed

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "kind": self.kind,
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "speed": list(self.speed) if isinstance(self.speed, tuple) else self.speed,
            "strength": self.strength,
            "id": self.id,
        }

    @classmethod
    def of(cls, model: FluxModel, family: int, kind: str, left: Array,
           right: Array, speed, id: int) -> "Wave":
        """The wave of the jump left -> right, both states copied; its
        strength is the jump's generalized strength."""
        strength = curves.generalized_strength(model, left, right, family)
        return cls(family, kind, left.copy(), right.copy(), speed,
                   float(strength), id)


@dataclasses.dataclass(frozen=True)
class WaveFan:
    waves: tuple

    def validate(self):
        """States chain bit for bit, and each wave is no slower than the
        one before it, within FAN_SPEED_TOL."""
        for a, b in zip(self.waves, self.waves[1:]):
            if a.right.tolist() != b.left.tolist():
                raise SolverError("fan states do not chain")
            if b.speed_lo < a.speed_hi - FAN_SPEED_TOL:
                raise SolverError(
                    f"fan speeds out of order: {a.speed_hi} then {b.speed_lo}"
                )
        return self

    def to_json_dict(self) -> dict:
        return {"waves": [w.to_json_dict() for w in self.waves]}


def _shock(model: FluxModel, a: Array, family: int, m: float,
           kin: Optional[KineticFunction] = None) -> tuple:
    """The jump (left, right, kind, speed) from a to the Hugoniot point
    with parameter m, its kind (classical or nonclassical) derived from
    the classification. Enforces the admissibility invariants: no
    expansive shock, no positive entropy dissipation, and with kin given,
    the kinetic relation on a nonclassical jump. Both rules read the one
    least-squares speed whose Rankine-Hugoniot residual is checked; the
    jump carries the Hugoniot hook's speed."""
    right, speed = curves.hugoniot_point(model, a, family, m)
    lam = curves.shock_speed(model, a, right, family)
    cls = curves.classify_at_speed(model, a, right, family, lam)
    if cls == "Lax":
        kind = KIND_CLASSICAL
    elif cls in ("SlowUndercompressive", "FastUndercompressive"):
        kind = KIND_NONCLASSICAL
    else:
        raise SolverError(
            f"inadmissible expansive shock emitted on family {family}"
        )
    E = curves.dissipation_at_speed(model, a, right, lam)
    if E > ENTROPY_TOL:
        raise SolverError(f"entropy dissipation {E:.3e} positive on a shock")
    if kind == KIND_NONCLASSICAL and kin is not None:
        want = kin_mod.mu_flat(model, kin, a)
        got = float(model.family_parameter(right, family))
        if abs(got - want) > KINETIC_TOL:
            raise SolverError(
                f"nonclassical jump violates the kinetic relation: "
                f"{got} vs {want}"
            )
    return a, right, kind, float(speed)


def _probe_shock(model: FluxModel, a: Array, family: int, m: float,
                 kin: Optional[KineticFunction] = None) -> tuple:
    """The jump (left, right, None, speed) from the checked state a to
    the Hugoniot point with parameter m, unchecked and unclassified: the
    shock of a Newton probe, which reads the right state alone. kin is
    taken only to match `_shock`'s call."""
    right, speed = curves._hugoniot_core(model, a, family, m)
    return a, right, None, speed


def _rarefaction(model: FluxModel, a: Array, family: int, m: float) -> tuple:
    """The jump (left, right, kind, speed) from the checked state a to
    the integral-curve point with parameter m; its characteristic speed
    must not decrease."""
    right = curves._integral_core(model, a, family, m)
    lam_l = float(model.eigen_fn(a)[0][family])
    lam_r = float(model.eigen_fn(right)[0][family])
    if lam_r < lam_l - 1e-10:
        raise SolverError(
            f"rarefaction with decreasing characteristic speed on family {family}"
        )
    return a, right, KIND_RAREFACTION, (lam_l, lam_r)


def _reads_kinetics(mu0: float, m: float) -> bool:
    """Whether the designated family's wave curve from a base state of
    parameter mu0 reads the kinetics on its way to target m: only when
    the base lies off the inflection manifold and m across it."""
    return not (abs(mu0) < 1e-12 or (1.0 if mu0 > 0 else -1.0) * m >= 0)


def _jumps(model: FluxModel, kin: KineticFunction, a: Array, family: int,
           m: float, shock=_shock) -> list:
    """The jumps (left, right, kind, speed) that take a along the family's
    forward wave curve to parameter m: none at a's own parameter, else one
    shock or rarefaction, or on the designated family a nonclassical jump
    and the wave that trails it. Non-designated families take a single
    wave by the local genuine-nonlinearity sign, and are only supported
    away from their own sign-change manifolds. Shocks come from the
    builder `shock`, called as `_shock` is. a is a float64 state already
    checked against the outer ball, as every state a walk reaches is."""
    mu0 = float(model.family_parameter(a, family))
    m = float(m)
    if abs(m - mu0) < 1e-14:
        return []
    if family != model.cc_index:
        m_loc = float(model.m_fn(a, family))
        if abs(m_loc) < 1e-8:
            raise SolverError(
                f"family {family} degenerate at {a.tolist()}: composite "
                "curves are only constructed for the designated family"
            )
        shock_side = (m < mu0) if m_loc > 0 else (m > mu0)
        return [shock(model, a, family, m) if shock_side
                else _rarefaction(model, a, family, m)]
    s = 1.0 if mu0 > 0 else -1.0
    if not _reads_kinetics(mu0, m):
        if abs(mu0) < 1e-12 or s * (m - mu0) >= 0:
            # beyond the base parameter, and both ways on the manifold,
            # the characteristic speed grows
            return [_rarefaction(model, a, family, m)]
        # a same-sign weak shock lies inside the classical range for any
        # admissible kinetics, so it skips the critical-point machinery
        return [shock(model, a, family, m, kin)]
    # classical shocks are preferred throughout the overlap, ties also
    if s * (m - kin_mod.mu_nucleation(model, kin, a)) >= -THRESHOLD_TIE:
        return [shock(model, a, family, m, kin)]
    m_sharp = kin_mod.mu_sharp(model, kin, a)
    if s * (m - m_sharp) > 0:
        raise NoSolutionGap(
            f"target {m} between the companion {m_sharp} and the "
            f"nucleation threshold: uncovered by either branch"
        )
    m_flat = kin_mod.mu_flat(model, kin, a)
    leading = shock(model, a, family, m_flat, kin)
    if abs(m - m_flat) < 1e-14:
        return [leading]
    mid = leading[1]
    if s * (m - m_flat) > 0:
        return [leading, shock(model, mid, family, m, kin)]
    return [leading, _rarefaction(model, mid, family, m)]


def wave_curve_point(model: FluxModel, kin: KineticFunction, u_minus, family: int,
                     m: float, ids: Optional[IdGen] = None) -> tuple:
    """Point of the family's forward wave curve at parameter value m.

    Returns (state, fragment): the reached state and the list of waves
    (possibly empty, possibly two for the nonclassical branch) that
    realize the jump. u_minus must lie in the outer ball
    (BallViolation otherwise)."""
    ids = ids or IdGen()
    a = models.require_in_ball(model, u_minus, "delta0")
    jumps = _jumps(model, kin, a, family, m)
    if not jumps:
        return a.copy(), []
    return jumps[-1][1], [Wave.of(model, family, kind, left, right, speed,
                                  ids())
                          for left, right, kind, speed in jumps]


def solve_riemann(model: FluxModel, kin: KineticFunction, u_l, u_r,
                  ids: Optional[IdGen] = None) -> WaveFan:
    ids = ids or IdGen()
    a = models.require_in_ball(model, u_l)
    b = models.require_in_ball(model, u_r)
    if models.sup_norm(b - a) < 1e-14:
        return WaveFan(())
    if model.N == 1:
        m = float(model.family_parameter(b, 0))
        _, frag = wave_curve_point(model, kin, a, 0, m, ids)
        frag = _snap_last(model, frag, b)
        return WaveFan(tuple(frag)).validate()
    targets = _newton_targets(model, kin, a, b)
    waves = []
    state = a
    for j in range(model.N):
        state, frag = wave_curve_point(model, kin, state, j, targets[j], ids)
        waves.extend(frag)
    # a family whose target lands on its base state within roundoff leaves
    # a wave between equal states; it carries nothing
    waves = [w for w in _snap_last(model, waves, b)
             if w.left.tolist() != w.right.tolist()]
    return WaveFan(tuple(waves)).validate()


def _snap_last(model: FluxModel, waves: list, u_r: Array) -> list:
    """Pin the fan's right end to the requested state bit-for-bit; the
    residual being absorbed is below RESIDUAL_TOL."""
    if not waves:
        return waves
    last = waves[-1]
    gap = models.sup_norm(last.right - u_r)
    if gap == 0.0:
        return waves
    if gap > 1e-9:
        raise SolverError(f"fan endpoint off by {gap:.3e}")
    if last.kind == KIND_RAREFACTION:
        lam_l = last.speed[0]
        lam_r = models.char_speed(model, u_r, last.family)
        speed = (lam_l, lam_r)
    else:
        speed = last.speed
    waves[-1] = Wave(last.family, last.kind, last.left, u_r.copy(), speed,
                     last.strength, last.id)
    return waves


def _initial_targets(model: FluxModel, a: Array, b: Array) -> np.ndarray:
    """Eigenbasis projection of the jump at the midpoint state, converted
    to per-family parameter targets."""
    mid = 0.5 * (a + b)
    _, _, L = models.eigen(model, mid)
    incr = L @ (b - a)
    targets = np.empty(model.N)
    state = a
    for j in range(model.N):
        targets[j] = float(model.family_parameter(state, j)) + incr[j]
        if j + 1 < model.N:
            # predict the next intermediate state linearly for the base point
            state = state + incr[j] * models.eigen(model, state)[1][:, j]
    return targets


def _fan_endpoint(model: FluxModel, kin: KineticFunction, a: Array,
                  targets: np.ndarray, walks: dict) -> list:
    """End state of each family's wave of the fan that starts at a and
    walks each family's wave curve to its target; the last one is the
    fan's endpoint. The jumps' states only, no waves are built. Shocks are
    unchecked Hugoniot points, rarefactions keep their check.

    walks, one solve's map of family steps under kin, keeps each step's
    end state under (family, start state's bytes, target's bytes); a step
    that raised is not kept."""
    states = []
    state = a
    # a target's bytes, not its float, which would merge 0.0 and -0.0;
    # slicing the array's bytes costs less than slicing the array
    tb, n = targets.tobytes(), targets.itemsize
    for j in range(model.N):
        key = (j, state.tobytes(), tb[j * n:(j + 1) * n])
        end = walks.get(key)
        if end is None:
            jumps = _jumps(model, kin, state, j, targets[j], _probe_shock)
            end = walks[key] = jumps[-1][1] if jumps else state
        state = end
        states.append(state)
    return states


def _jacobian(model: FluxModel, kin: KineticFunction, a: Array, b: Array,
              targets: np.ndarray, r: np.ndarray, walks: dict) -> np.ndarray:
    """Forward-difference Jacobian of the fan endpoint at targets, whose
    walk has residual r. Column j's probe changes family j's target alone,
    so it takes the steps before family j from walks."""
    n = len(targets)
    J = np.empty((n, n))
    for j in range(n):
        probe = targets.copy()
        probe[j] += FD_STRENGTH
        end = _fan_endpoint(model, kin, a, probe, walks)[-1]
        J[:, j] = ((end - b) - r) / FD_STRENGTH
    return J


def _newton_step(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The step -J^-1 r; a singular J fails the solve."""
    try:
        return np.linalg.solve(J, -r)
    except np.linalg.LinAlgError as exc:
        raise SolverError("singular Jacobian in the curve intersection") from exc


def _newton_targets(model: FluxModel, kin: KineticFunction, a: Array,
                    b: Array) -> np.ndarray:
    """Targets of the fan from a to b under kin: a damped Newton from the
    eigenbasis guess, whose steps share one map of family steps."""
    walks = {}
    targets = _initial_targets(model, a, b)
    r = _fan_endpoint(model, kin, a, targets, walks)[-1] - b
    best = models.sup_norm(r)
    J = None
    for _ in range(MAX_ITER):
        if best <= RESIDUAL_TOL:
            # no step can lower a zero residual
            if best == 0.0:
                return targets
            # one undamped step past the tolerance lands the fan on the
            # roundoff floor; it reuses the last step's Jacobian, and is
            # kept only when it helps
            try:
                if J is None:
                    J = _jacobian(model, kin, a, b, targets, r, walks)
                trial = targets + _newton_step(J, r)
                polished = models.sup_norm(
                    _fan_endpoint(model, kin, a, trial, walks)[-1] - b)
            except (curves.CurveError, SolverError):
                return targets
            return trial if polished < best else targets
        J = _jacobian(model, kin, a, b, targets, r, walks)
        step = _newton_step(J, r)
        # damping by halving until the residual decreases
        scale = 1.0
        for _ in range(12):
            trial = targets + scale * step
            try:
                r_trial = _fan_endpoint(model, kin, a, trial, walks)[-1] - b
            except (curves.CurveError, SolverError):
                scale *= 0.5
                continue
            norm = models.sup_norm(r_trial)
            if norm < best:
                targets, r, best = trial, r_trial, norm
                break
            scale *= 0.5
        else:
            raise SolverError(
                f"curve intersection stalled at residual {best:.3e}"
            )
    if best <= RESIDUAL_TOL:
        return targets
    raise SolverError(f"curve intersection did not converge: residual {best:.3e}")
