"""Event-driven front tracking.

A solution is a position-ordered list of fronts, each a wave at a
position. Between events every front translates at its wave's speed; at
the earliest adjacent crossing the colliding fronts (grouped within a
tiny window) are replaced by the Riemann fan of their outer states.
Rarefactions are discretized into jumps of parameter increment at most h
travelling at their own chord speed.

A front set is a list of waves beside float64 arrays of positions and
speeds and an int64 array of wave ids, so moving every front, finding the
next crossing and checking the order are each one array pass, and an
event splices its cluster out of those arrays. The initial set is built
from all its jumps' fans at once. An event holds the waves that collided
and the waves placed in their stead; `Front` objects, (position, wave)
views, are built only when a set's `fronts` are read.

The strong-wave bookkeeping follows the splitting-merging pattern: at
most two strong fronts exist, identified by propagated tokens y (the
nonclassical or lone classical wave) and z (the trailing classical
after a split), never by magnitude.

Mass bookkeeping is exact: interactions conserve the total jump, so the
only mass motion is the position-weighted jump sum, recorded per event
and subtracted when auditing conservation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from ncft import curves, riemann
from ncft.kinetics import KineticFunction
from ncft.models import BallViolation, FluxModel, require_in_ball, sup_norm
from ncft.riemann import (
    KIND_CLASSICAL,
    KIND_NONCLASSICAL,
    KIND_PIECE,
    KIND_RAREFACTION,
    IdGen,
    Wave,
    WaveFan,
)

Array = np.ndarray

CLUSTER_REL = 1e-12
SPEED_TIE = 1e-11
TIME_TIE = 1e-12
DROP_FACTOR = 1e-2
MAX_FRONTS = 20000
MAX_EVENTS = 100000


class TrackingError(RuntimeError):
    pass


class PatternBroken(TrackingError):
    """The strong-wave configuration left the splitting-merging pattern."""


# the errors that end a run; run adds the event time to one raised while
# resolving an event
RUN_ERRORS = (TrackingError, riemann.SolverError, curves.CurveError,
              BallViolation)


@dataclasses.dataclass(frozen=True, eq=False)
class Front:
    """A wave at a position; it moves at the wave's speed."""

    position: float
    wave: Wave

    @property
    def id(self) -> int:
        return self.wave.id

    def to_json_dict(self) -> dict:
        d = self.wave.to_json_dict()
        d["x"] = self.position
        return d


@dataclasses.dataclass(eq=False)
class FrontSet:
    """Fronts in position order with the strong tokens y and z.

    Front k is the wave waves[k] at position xs[k]; speeds[k] and
    wave_ids[k] are its wave's speed and id. None of the four is ever
    changed in place: moving the set or splicing an event makes new ones,
    so a set kept by an event or a snapshot stays as it was, and sets may
    share them. `fronts` builds the Front objects on each read.
    """

    time: float
    waves: list
    xs: Array
    speeds: Array
    wave_ids: Array
    y_id: Optional[int]
    z_id: Optional[int]
    h: float
    ids: IdGen = dataclasses.field(default_factory=IdGen)

    @property
    def strong_ids(self) -> tuple:
        out = []
        if self.y_id is not None:
            out.append(self.y_id)
        if self.z_id is not None:
            out.append(self.z_id)
        return tuple(out)

    @property
    def fronts(self) -> list:
        """Every front as a new Front object with a float position."""
        return [Front(x, w) for x, w in zip(self.xs.tolist(), self.waves)]

    def index(self, front_id: int) -> Optional[int]:
        """Position in the set of the front with this id, None if absent."""
        (k,) = (self.wave_ids == front_id).nonzero()
        return int(k[0]) if k.size else None

    def advanced(self, t: float) -> "FrontSet":
        """The set at time t: a shallow copy, every position moved at its
        front's speed."""
        return dataclasses.replace(
            self, time=t, xs=self.xs + self.speeds * (t - self.time))

    def splice(self, lo: int, hi: int, waves: list, xs: Array):
        """Replace fronts lo..hi-1 by waves at xs."""
        self.waves = self.waves[:lo] + waves + self.waves[hi:]
        self.xs = np.concatenate((self.xs[:lo], xs, self.xs[hi:]))
        self.speeds = np.concatenate((
            self.speeds[:lo], np.array([w.speed for w in waves], dtype=float),
            self.speeds[hi:]))
        self.wave_ids = np.concatenate((
            self.wave_ids[:lo], np.array([w.id for w in waves], dtype=np.int64),
            self.wave_ids[hi:]))

    def check(self, lo: int = 0, hi: Optional[int] = None):
        """Positions strictly increase over the whole set, each front's
        right state is the next one's left state among fronts lo..hi-1
        (all of them by default), and every strong id names a front."""
        if not (self.xs[:-1] < self.xs[1:]).all():
            raise TrackingError("front positions not strictly ordered")
        waves = self.waves[lo:hi]
        if [w.right.tolist() for w in waves[:-1]] != \
                [w.left.tolist() for w in waves[1:]]:
            raise TrackingError("front states do not chain")
        for sid in self.strong_ids:
            if sid not in self.wave_ids:
                raise TrackingError(f"strong id {sid} references no front")
        return self

    def to_json_dict(self) -> dict:
        return {"t": self.time,
                "fronts": [f.to_json_dict() for f in self.fronts]}


@dataclasses.dataclass
class InteractionEvent:
    """One collision: the waves that met, the waves placed in their
    stead, and the whole front set right after (never mutated). The
    incoming waves started at `index` in the front set before the event;
    the placed waves start there in `post`."""

    time: float
    position: float
    index: int
    incoming: tuple
    placed: tuple
    outgoing: WaveFan
    incoming_roles: dict
    outgoing_roles: dict
    post: FrontSet
    mass_correction: Array


def _split_rarefaction(model: FluxModel, wave: Wave, h: float,
                       ids: IdGen) -> list:
    """Cut a rarefaction into pieces of equal parameter increment <= h,
    chained bit-for-bit, each a jump of its own. The left state is
    checked against the outer ball once, and each cut where the integral
    curve reaches it."""
    fam = wave.family
    state = require_in_ball(model, wave.left, "delta0")
    mu_l = float(model.family_parameter(state, fam))
    mu_r = float(model.family_parameter(wave.right, fam))
    span = mu_r - mu_l
    n = max(1, math.ceil(abs(span) / h - 1e-12))
    pieces = []
    for k in range(1, n + 1):
        if k == n:
            nxt = wave.right
        else:
            target = mu_l + span * (k / n)
            nxt = curves._integral_core(model, state, fam, target)
        pieces.append(Wave.of(model, fam, KIND_PIECE, state, nxt,
                              curves.chord_speed(model, state, nxt), ids()))
        state = nxt
    return pieces


def _expand(model: FluxModel, fan_waves, h: float, ids: IdGen) -> list:
    """The fan's waves, each rarefaction cut into its pieces."""
    out = []
    for w in fan_waves:
        if w.kind == KIND_RAREFACTION:
            out.extend(_split_rarefaction(model, w, h, ids))
        else:
            out.append(w)
    return out


def init_fronts(model: FluxModel, kin: KineticFunction, states, positions,
                h: float, strong_jumps: Optional[list] = None) -> FrontSet:
    """Piecewise-constant data: states[j] left of positions[j], states[-1]
    beyond. Each jump is replaced by its Riemann fan, rarefactions cut
    into pieces and laddered from the jump. Jumps listed in strong_jumps
    (default: those at x=0) contribute the strong tokens."""
    if len(states) != len(positions) + 1:
        raise ValueError("need exactly one more state than jump positions")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("jump positions must increase")
    if strong_jumps is None:
        strong_jumps = [j for j, x in enumerate(positions) if x == 0.0]
    ids = IdGen()
    waves, xs, strong = [], [], []
    for j, x in enumerate(positions):
        fan = riemann.solve_riemann(model, kin, states[j], states[j + 1], ids)
        expanded = _expand(model, fan.waves, h, ids)
        x = float(x)
        xs += _ladder(x, len(expanded), 0.5 * CLUSTER_REL * max(1.0, abs(x)))
        waves += expanded
        if j in strong_jumps:
            strong += _strong_candidates(model, expanded)
    y_id, z_id = _tag_initial_strong(strong)
    return FrontSet(0.0, waves, np.array(xs, dtype=float),
                    np.array([w.speed for w in waves], dtype=float),
                    np.array([w.id for w in waves], dtype=np.int64),
                    y_id, z_id, h, ids).check()


def _strong_candidates(model: FluxModel, waves) -> list:
    """The waves that can hold a strong token: classical or nonclassical
    shocks of the designated family."""
    return [w for w in waves if w.family == model.cc_index
            and w.kind in (KIND_NONCLASSICAL, KIND_CLASSICAL)]


def _tag_initial_strong(strong: list) -> tuple:
    """(y_id, z_id) of the data's strong waves in position order: the
    first is y, a classical one right of it is z."""
    kinds = [w.kind for w in strong]
    if len(strong) > 2:
        raise PatternBroken(
            f"{len(strong)} strong fronts in data, the pattern has at most two")
    if kinds.count(KIND_NONCLASSICAL) == 2:
        raise PatternBroken("two nonclassical strong fronts in data")
    if kinds == [KIND_CLASSICAL, KIND_NONCLASSICAL]:
        raise PatternBroken(
            "nonclassical strong front right of a classical one in data")
    return tuple([w.id for w in strong] + [None] * (2 - len(strong)))


def next_collision(fs: FrontSet) -> Optional[tuple]:
    """Earliest adjacent crossing: (absolute time, k), fronts k and k+1
    meeting, ties within TIME_TIE broken leftmost. None when all gaps
    open.

    Scanning the closing gaps left to right, a gap takes the lead when it
    closes more than TIME_TIE before the current leader. A gap that takes
    the lead closes strictly before every gap left of it, so only the
    gaps that close no later than any gap left of them are scanned; the
    outcome is that of the full scan."""
    dv = fs.speeds[:-1] - fs.speeds[1:]
    closing = dv > SPEED_TIE
    wait = np.divide(fs.xs[1:] - fs.xs[:-1], dv,
                     out=np.full(dv.shape, np.inf), where=closing)
    (lead,) = ((wait <= np.minimum.accumulate(wait)) & closing).nonzero()
    if not lead.size:
        return None
    best_t, best = None, None
    for k, wk in zip(lead.tolist(), wait[lead].tolist()):
        t = fs.time + wk
        if best_t is None or t < best_t - TIME_TIE:
            best_t, best = t, k
    return best_t, best


def _cluster_slice(fs: FrontSet, k: int) -> tuple:
    """(lo, hi, x_star): the colliding fronts lo..hi-1, fronts k and k+1
    widened by their neighbours within CLUSTER_REL of the meeting point
    x_star."""
    xs = fs.xs
    x_star = 0.5 * (xs[k] + xs[k + 1]).item()
    w = CLUSTER_REL * max(1.0, abs(x_star))
    lo = k
    while lo > 0 and abs(xs[lo - 1] - x_star) <= w:
        lo -= 1
    hi = k + 2
    while hi < len(xs) and abs(xs[hi] - x_star) <= w:
        hi += 1
    return lo, hi, x_star


def _ladder(x_star: float, n: int, width: float) -> list:
    if n == 0:
        return []
    # the step is several ulp of every rung, so the rungs strictly increase
    step = max(width / n, 8.0 * np.finfo(float).eps * max(1.0, abs(x_star)))
    xs = []
    x = x_star
    for _ in range(n):
        xs.append(x)
        x = x + step
    return xs


def _place(model: FluxModel, fs: FrontSet, lo: int, hi: int, x_star: float,
           fan_waves) -> tuple:
    """Replace fronts lo..hi-1 of fs with the expanded fan, laddered from
    x_star, folding sub-threshold waves into their largest neighbor.
    Returns the placed waves and their positions."""
    expanded = _expand(model, fan_waves, fs.h, fs.ids)
    if len(expanded) > 1:
        expanded = _fold_small(model, expanded, fs.h)
    width = 0.5 * CLUSTER_REL * max(1.0, abs(x_star))
    xs = np.array(_ladder(x_star, len(expanded), width), dtype=float)
    fs.splice(lo, hi, expanded, xs)
    return expanded, xs


def _fold_small(model: FluxModel, expanded: list, h: float) -> list:
    """Drop waves below the strength threshold by absorbing their jump
    into the stronger neighbor, whose speed is then the chord of the
    widened jump."""
    thresh = DROP_FACTOR * h * h
    out = list(expanded)
    while len(out) > 1:
        k = next((k for k, w in enumerate(out) if abs(w.strength) < thresh),
                 None)
        if k is None:
            break
        # the stronger neighbor takes the jump, the left one on a tie
        if k == 0 or (k + 1 < len(out) and abs(out[k + 1].strength) >
                      abs(out[k - 1].strength)):
            nbr = k + 1
        else:
            nbr = k - 1
        w, wn = out[k], out[nbr]
        left, right = (w.left, wn.right) if nbr > k else (wn.left, w.right)
        out[nbr] = Wave.of(model, wn.family, wn.kind, left, right,
                           curves.chord_speed(model, left, right), wn.id)
        del out[k]
    return out


def _moment(xs: Array, waves) -> Array:
    """Position-weighted jump sum of waves at xs; its decrease is exactly
    the mass gained."""
    if not waves:
        return np.zeros(1)
    acc = np.zeros(waves[0].left.shape)
    for x, w in zip(xs.tolist(), waves):
        acc = acc + x * (w.right - w.left)
    return acc


def resolve_interaction(model: FluxModel, kin: KineticFunction, fs: FrontSet,
                        collision: tuple) -> tuple:
    """Advance to the collision time and replace the colliding cluster by
    the Riemann fan of its outer states. Returns (new FrontSet, event).
    The new set is checked for order everywhere and for chaining where
    the fan was spliced in."""
    t, k = collision
    cur = fs.advanced(t)
    lo, hi, x_star = _cluster_slice(cur, k)
    incoming = tuple(cur.waves[lo:hi])
    incoming_roles = {}
    y_nonclassical = False
    for wv in incoming:
        if wv.id == cur.y_id:
            incoming_roles[wv.id] = "y"
            y_nonclassical = wv.kind == KIND_NONCLASSICAL
        elif wv.id == cur.z_id:
            incoming_roles[wv.id] = "z"
    fan = riemann.solve_riemann(model, kin, incoming[0].left,
                                incoming[-1].right, cur.ids)
    pre_moment = _moment(cur.xs[lo:hi], incoming)
    placed, xs = _place(model, cur, lo, hi, x_star, fan.waves)
    outgoing_roles = _propagate_tokens(model, cur, incoming_roles, placed,
                                       y_nonclassical)
    correction = pre_moment - _moment(xs, placed)
    cur.check(max(lo - 1, 0), lo + len(placed) + 1)
    ev = InteractionEvent(t, x_star, lo, incoming, tuple(placed), fan,
                          incoming_roles, outgoing_roles, cur, correction)
    return cur, ev


def _propagate_tokens(model: FluxModel, fs: FrontSet, incoming_roles: dict,
                      placed: list, y_nonclassical: bool) -> dict:
    """Strong identity propagation: split hands y to the nonclassical wave
    and mints z for the trailing classical; merge retires z; crossings
    keep tokens on the surviving strong wave of the family. Only a
    classical y splits: when a nonclassical y met without z leaves as a
    nonclassical wave and a classical one right of it, y stays on the
    nonclassical wave and the classical shock is weak."""
    had_y = "y" in incoming_roles.values()
    had_z = "z" in incoming_roles.values()
    if not (had_y or had_z):
        return {}
    strong_out = _strong_candidates(model, placed)
    if y_nonclassical and not had_z and [w.kind for w in strong_out] == [
            KIND_NONCLASSICAL, KIND_CLASSICAL]:
        strong_out = strong_out[:1]
    roles = {}
    if len(strong_out) == 2:
        first, second = strong_out
        if first.kind == KIND_CLASSICAL and second.kind == KIND_NONCLASSICAL:
            raise PatternBroken("nonclassical wave right of its classical")
        if not had_y:
            raise PatternBroken("split without the y token incoming")
        if had_y and not had_z and fs.z_id is not None:
            raise PatternBroken("split while a z front exists elsewhere")
        fs.y_id = first.id
        fs.z_id = second.id
        roles[first.id] = "y"
        roles[second.id] = "z"
    elif len(strong_out) == 1:
        keep = strong_out[0]
        if had_y:
            fs.y_id = keep.id
            roles[keep.id] = "y"
            if had_z:
                fs.z_id = None  # merge retires z
            elif keep.kind == KIND_CLASSICAL and fs.z_id is not None:
                raise PatternBroken(
                    "nonclassical wave degenerated while z exists"
                )
        else:
            fs.z_id = keep.id
            roles[keep.id] = "z"
    else:
        raise PatternBroken(
            f"{len(strong_out)} strong candidates leaving an interaction "
            "that consumed strong fronts"
        )
    return roles


@dataclasses.dataclass
class RunResult:
    initial: FrontSet
    final: FrontSet
    snapshots: list
    events: list


def _snapshot_times(t0: float, t_end: float, snapshot_dt: Optional[float]):
    """The grid times t0 + k*snapshot_dt, k >= 1, that lie more than
    TIME_TIE*max(1, |t_end|) before t_end."""
    if snapshot_dt is None:
        return
    cut = t_end - TIME_TIE * max(1.0, abs(t_end))
    k = 1
    while t0 + k * snapshot_dt < cut:
        yield t0 + k * snapshot_dt
        k += 1


def run(model: FluxModel, kin: KineticFunction, fronts0: FrontSet,
        t_end: float, snapshot_dt: Optional[float] = None) -> RunResult:
    """Track fronts0 to t_end. The snapshots are fronts0, the set at each
    grid time before t_end, and last the final set at t_end. An error
    raised while resolving an event names the collision time."""
    fs = fronts0
    snapshots = [fronts0]
    events = []
    grid = _snapshot_times(fs.time, t_end, snapshot_dt)
    next_snap = next(grid, None)
    while True:
        col = next_collision(fs)
        if col is not None and col[0] > t_end:
            col = None
        while next_snap is not None and (col is None or next_snap <= col[0]):
            fs = fs.advanced(next_snap)
            snapshots.append(fs)
            next_snap = next(grid, None)
        if col is None:
            break
        try:
            fs, ev = resolve_interaction(model, kin, fs, col)
        except RUN_ERRORS as exc:
            raise type(exc)(f"{exc} at t={col[0]}") from exc
        events.append(ev)
        if len(events) > MAX_EVENTS:
            raise TrackingError(f"event count exceeded {MAX_EVENTS}")
        if len(fs.waves) > MAX_FRONTS:
            raise TrackingError(f"front count exceeded {MAX_FRONTS}")
    final = fs.advanced(t_end)
    if snapshots[-1].time != t_end:
        snapshots.append(final)
    return RunResult(fronts0, final, snapshots, events)


def mass(fs: FrontSet, x_lo: float, x_hi: float) -> Array:
    """Integral of the piecewise profile over [x_lo, x_hi]; the window
    must contain every front."""
    if not fs.waves:
        raise ValueError("empty front set has no reference state")
    if fs.xs[0] < x_lo or fs.xs[-1] > x_hi:
        raise ValueError("window does not contain all fronts")
    acc = fs.waves[0].left * (x_hi - x_lo)
    for x, w in zip(fs.xs.tolist(), fs.waves):
        acc = acc + (x_hi - x) * (w.right - w.left)
    return acc


def conservation_report(model: FluxModel, result: RunResult) -> dict:
    """Raw drift vs the far-field flux transport, the exact per-event
    ledger correction, and the fold budget."""
    init, final = result.initial, result.final
    xs = np.concatenate((init.xs, final.xs))
    if not xs.size:
        return {"raw": 0.0, "corrected": 0.0, "budget": 0.0, "window": None}
    x_lo, x_hi = xs.min().item() - 1.0, xs.max().item() + 1.0
    m0 = mass(init, x_lo, x_hi)
    m1 = mass(final, x_lo, x_hi)
    dt = final.time - init.time
    u_l = init.waves[0].left
    u_r = init.waves[-1].right
    transport = dt * (model.flux(u_l) - model.flux(u_r))
    raw = m1 - m0 - transport
    ledger = np.zeros_like(raw)
    budget = 0.0
    for ev in result.events:
        ledger = ledger + ev.mass_correction
        budget += sup_norm(ev.mass_correction)
    corrected = raw - ledger
    return {
        "raw": sup_norm(raw),
        "corrected": sup_norm(corrected),
        "budget": budget,
        "window": (x_lo, x_hi),
    }
