"""Event-driven front tracking.

A solution is a position-ordered list of fronts, each carrying one wave
and one propagation speed. Between events every front translates at its
assigned speed; at the earliest adjacent crossing the colliding fronts
(grouped within a tiny window) are replaced by the Riemann fan of their
outer states. Rarefactions are discretized into jumps of parameter
increment at most h travelling at their own chord speed.

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
import operator
from typing import Optional

import numpy as np

from ncft import curves, models, riemann
from ncft.kinetics import KineticFunction
from ncft.models import FluxModel
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
DEFAULT_MAX_FRONTS = 20000
DEFAULT_MAX_EVENTS = 100000


class TrackingError(RuntimeError):
    pass


class PatternBroken(TrackingError):
    """The strong-wave configuration left the splitting-merging pattern."""


@dataclasses.dataclass(frozen=True, eq=False)
class Front:
    position: float
    wave: Wave
    assigned_speed: float

    @property
    def id(self) -> int:
        return self.wave.id

    def moved(self, dt: float) -> "Front":
        return Front(self.position + self.assigned_speed * dt, self.wave,
                     self.assigned_speed)

    def to_json_dict(self) -> dict:
        d = self.wave.to_json_dict()
        d["x"] = self.position
        d["speed"] = self.assigned_speed
        return d


@dataclasses.dataclass
class FrontSet:
    time: float
    fronts: list
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

    def find(self, front_id: int) -> Optional[Front]:
        for f in self.fronts:
            if f.id == front_id:
                return f
        return None

    def advanced(self, t: float) -> "FrontSet":
        dt = t - self.time
        return FrontSet(t, [f.moved(dt) for f in self.fronts],
                        self.y_id, self.z_id, self.h, self.ids)

    def check(self):
        """Positions strictly increase, each front's right state is the
        next one's left state, and every strong id names a front; each
        condition is checked over the whole set at once."""
        fronts = self.fronts
        xs = [f.position for f in fronts]
        if not all(map(operator.lt, xs, xs[1:])):
            raise TrackingError(
                f"front positions not strictly ordered at t={self.time}"
            )
        if not np.array_equal([f.wave.right for f in fronts[:-1]],
                              [f.wave.left for f in fronts[1:]]):
            raise TrackingError("front states do not chain")
        ids = {f.id for f in fronts}
        for sid in self.strong_ids:
            if sid not in ids:
                raise TrackingError(f"strong id {sid} references no front")
        return self

    def to_json_dict(self) -> dict:
        return {"t": self.time,
                "fronts": [f.to_json_dict() for f in self.fronts]}


@dataclasses.dataclass
class InteractionEvent:
    """One collision: the colliding cluster as it met, the fronts placed
    in its stead, and the whole front set right after (never mutated).
    The cluster started at `index` in the front set before the event; the
    placed fronts start there in `post`."""

    time: float
    position: float
    index: int
    cluster: tuple
    placed: tuple
    outgoing: WaveFan
    incoming_roles: dict
    outgoing_roles: dict
    post: FrontSet
    mass_correction: Array

    @property
    def incoming(self) -> tuple:
        return tuple(f.wave for f in self.cluster)


def _chord_speed(model: FluxModel, left: Array, right: Array) -> float:
    """Least-squares chord of the jump; exact Rankine-Hugoniot speed for
    scalar models, best-fit for folded system fronts."""
    du = right - left
    nn = float(du @ du)
    if nn == 0.0:
        return models.char_speed(model, left, 0)
    df = model.flux(right) - model.flux(left)
    return float(df @ du) / nn


def _split_rarefaction(model: FluxModel, wave: Wave, h: float,
                       ids: IdGen) -> list:
    """Cut a rarefaction into pieces of equal parameter increment <= h,
    chained bit-for-bit, each a jump of its own."""
    fam = wave.family
    mu_l = float(model.family_parameter(wave.left, fam))
    mu_r = float(model.family_parameter(wave.right, fam))
    span = mu_r - mu_l
    n = max(1, math.ceil(abs(span) / h - 1e-12))
    pieces = []
    state = wave.left
    for k in range(1, n + 1):
        if k == n:
            nxt = wave.right
        else:
            target = mu_l + span * (k / n)
            nxt = curves.rarefaction_point(model, state, fam, target).state
        strength = curves.generalized_strength(model, state, nxt, fam)
        pieces.append(Wave(fam, KIND_PIECE, state.copy(), nxt.copy(),
                           _chord_speed(model, state, nxt), float(strength),
                           ids()))
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
    beyond. Each jump is replaced by its Riemann fan. Jumps listed in
    strong_jumps (default: those at x=0) contribute the strong tokens."""
    if len(states) != len(positions) + 1:
        raise ValueError("need exactly one more state than jump positions")
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("jump positions must increase")
    if strong_jumps is None:
        strong_jumps = [j for j, x in enumerate(positions) if x == 0.0]
    fs = FrontSet(0.0, [], None, None, h)
    for j, x in enumerate(positions):
        fan = riemann.solve_riemann(model, kin, states[j], states[j + 1],
                                    fs.ids)
        placed = _place(model, fs, None, float(x), fan.waves, fold=False)
        if j in strong_jumps:
            _tag_initial_strong(model, fs, placed)
    return fs.check()


def _tag_initial_strong(model: FluxModel, fs: FrontSet, placed: list):
    for f in placed:
        if f.wave.family != model.cc_index:
            continue
        if f.wave.kind == KIND_NONCLASSICAL:
            if fs.y_id is not None:
                raise PatternBroken("two nonclassical strong fronts in data")
            fs.y_id = f.id
        elif f.wave.kind == KIND_CLASSICAL:
            if fs.y_id is None:
                fs.y_id = f.id
            elif fs.z_id is None:
                fs.z_id = f.id
            else:
                raise PatternBroken("more than two strong fronts in data")
    if fs.y_id is not None and fs.z_id is not None:
        fy, fz = fs.find(fs.y_id), fs.find(fs.z_id)
        if fy.position > fz.position or fy.wave.kind == KIND_CLASSICAL and \
                fz.wave.kind == KIND_NONCLASSICAL:
            fs.y_id, fs.z_id = fs.z_id, fs.y_id


def next_collision(fs: FrontSet) -> Optional[tuple]:
    """Earliest adjacent crossing: (absolute time, (left id, right id)),
    ties within TIME_TIE broken leftmost. None when all gaps open."""
    best_t = None
    best_pair = None
    for a, b in zip(fs.fronts, fs.fronts[1:]):
        dv = a.assigned_speed - b.assigned_speed
        if dv <= SPEED_TIE:
            continue
        t = fs.time + (b.position - a.position) / dv
        if best_t is None or t < best_t - TIME_TIE:
            best_t, best_pair = t, (a.id, b.id)
    if best_t is None:
        return None
    return best_t, best_pair


def _cluster_slice(fs: FrontSet, pair: tuple) -> tuple:
    idx = {f.id: k for k, f in enumerate(fs.fronts)}
    i = idx[pair[0]]
    j = idx[pair[1]]
    if j != i + 1:
        raise TrackingError("colliding fronts are not adjacent")
    x_star = 0.5 * (fs.fronts[i].position + fs.fronts[j].position)
    w = CLUSTER_REL * max(1.0, abs(x_star))
    lo = i
    while lo > 0 and abs(fs.fronts[lo - 1].position - x_star) <= w:
        lo -= 1
    hi = j
    while hi + 1 < len(fs.fronts) and \
            abs(fs.fronts[hi + 1].position - x_star) <= w:
        hi += 1
    return lo, hi, x_star, w


def _ladder(x_star: float, n: int, width: float) -> list:
    if n == 0:
        return []
    step = max(width / max(n, 1), 8.0 * np.finfo(float).eps * max(1.0, abs(x_star)))
    xs = []
    x = x_star
    for _ in range(n):
        xs.append(x)
        nxt = x + step
        while nxt <= x:
            nxt = np.nextafter(nxt, np.inf)
        x = nxt
    return xs


def _place(model: FluxModel, fs: FrontSet, span: Optional[tuple], x_star: float,
           fan_waves, fold: bool = True) -> list:
    """Replace fs.fronts[span] (or append at x_star when span is None)
    with the expanded fan, folding sub-threshold waves into their largest
    neighbor. Every front moves at its wave's speed. Returns the placed
    fronts."""
    expanded = _expand(model, fan_waves, fs.h, fs.ids)
    if fold and len(expanded) > 1:
        expanded = _fold_small(model, expanded, fs.h)
    width = 0.5 * CLUSTER_REL * max(1.0, abs(x_star))
    xs = _ladder(x_star, len(expanded), width)
    placed = [Front(x, w, float(w.speed)) for x, w in zip(xs, expanded)]
    if span is None:
        lo = len(fs.fronts)
        fs.fronts.extend(placed)
    else:
        lo, hi = span
        fs.fronts[lo:hi + 1] = placed
    if placed:
        if lo > 0 and not fs.fronts[lo - 1].position < placed[0].position:
            raise TrackingError("no room to place fronts left of the cluster")
        last = lo + len(placed)
        if last < len(fs.fronts) and \
                not placed[-1].position < fs.fronts[last].position:
            raise TrackingError("no room to place fronts right of the cluster")
    return placed


def _fold_small(model: FluxModel, expanded: list, h: float) -> list:
    """Drop waves below the strength threshold by absorbing their jump
    into the stronger neighbor, whose speed is then the chord of the
    widened jump."""
    thresh = DROP_FACTOR * h * h
    out = list(expanded)
    changed = True
    while changed and len(out) > 1:
        changed = False
        for k, w in enumerate(out):
            if abs(w.strength) >= thresh:
                continue
            nbr = None
            if k > 0:
                nbr = k - 1
            if k + 1 < len(out):
                if nbr is None or abs(out[k + 1].strength) > \
                        abs(out[nbr].strength):
                    nbr = k + 1
            if nbr is None:
                break
            wn = out[nbr]
            if nbr < k:
                left, right = wn.left, w.right
            else:
                left, right = w.left, wn.right
            strength = curves.generalized_strength(model, left, right,
                                                   wn.family)
            out[nbr] = Wave(wn.family, wn.kind, left.copy(), right.copy(),
                            _chord_speed(model, left, right),
                            float(strength), wn.id)
            del out[k]
            changed = True
            break
    return out


def _moment(fronts) -> Array:
    """Position-weighted jump sum; its decrease is exactly the mass gained."""
    if not fronts:
        return np.zeros(1)
    acc = np.zeros_like(fronts[0].wave.left, dtype=float)
    for f in fronts:
        acc = acc + f.position * (f.wave.right - f.wave.left)
    return acc


def resolve_interaction(model: FluxModel, kin: KineticFunction, fs: FrontSet,
                        collision: tuple) -> tuple:
    """Advance to the collision time and replace the colliding cluster by
    the Riemann fan of its outer states. Returns (new FrontSet, event)."""
    t, pair = collision
    cur = fs.advanced(t)
    lo, hi, x_star, w = _cluster_slice(cur, pair)
    cluster = tuple(cur.fronts[lo:hi + 1])
    if len(cluster) < 2:
        raise TrackingError("interaction needs at least two incoming fronts")
    incoming_roles = {}
    for f in cluster:
        if f.id == cur.y_id:
            incoming_roles[f.id] = "y"
        elif f.id == cur.z_id:
            incoming_roles[f.id] = "z"
    u_l = cluster[0].wave.left
    u_r = cluster[-1].wave.right
    fan = riemann.solve_riemann(model, kin, u_l, u_r, cur.ids)
    pre_moment = _moment(cluster)
    placed = _place(model, cur, (lo, hi), x_star, fan.waves)
    outgoing_roles = _propagate_tokens(model, cur, incoming_roles, placed)
    post_moment = _moment(placed)
    correction = pre_moment - post_moment
    cur.check()
    ev = InteractionEvent(t, x_star, lo, cluster, tuple(placed), fan,
                          incoming_roles, outgoing_roles, cur, correction)
    return cur, ev


def _propagate_tokens(model: FluxModel, fs: FrontSet, incoming_roles: dict,
                      placed: list) -> dict:
    """Strong identity propagation: split hands y to the nonclassical wave
    and mints z for the trailing classical; merge retires z; crossings
    keep tokens on the surviving strong wave of the family."""
    had_y = "y" in incoming_roles.values()
    had_z = "z" in incoming_roles.values()
    if not (had_y or had_z):
        return {}
    strong_out = [f for f in placed
                  if f.wave.family == model.cc_index and
                  f.wave.kind in (KIND_NONCLASSICAL, KIND_CLASSICAL)]
    roles = {}
    if len(strong_out) == 2:
        first, second = strong_out
        if first.wave.kind == KIND_CLASSICAL and \
                second.wave.kind == KIND_NONCLASSICAL:
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
            elif keep.wave.kind == KIND_CLASSICAL and fs.z_id is not None:
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


def run(model: FluxModel, kin: KineticFunction, fronts0: FrontSet,
        t_end: float, snapshot_dt: Optional[float] = None) -> RunResult:
    fs = fronts0
    snapshots = [fronts0]
    events = []
    next_snap = None
    if snapshot_dt is not None:
        next_snap = fs.time + snapshot_dt
    while True:
        col = next_collision(fs)
        if col is not None and col[0] > t_end:
            col = None
        while next_snap is not None and next_snap <= t_end + 1e-15 and \
                (col is None or next_snap <= col[0]):
            snap = fs.advanced(next_snap)
            snapshots.append(snap)
            fs = snap
            next_snap += snapshot_dt
        if col is None:
            break
        fs, ev = resolve_interaction(model, kin, fs, col)
        events.append(ev)
        if len(events) > DEFAULT_MAX_EVENTS:
            raise TrackingError(f"event count exceeded {DEFAULT_MAX_EVENTS}")
        if len(fs.fronts) > DEFAULT_MAX_FRONTS:
            raise TrackingError(f"front count exceeded {DEFAULT_MAX_FRONTS}")
    final = fs.advanced(t_end)
    if not snapshots or snapshots[-1].time != t_end:
        snapshots.append(final)
    return RunResult(fronts0, final, snapshots, events)


def mass(fs: FrontSet, x_lo: float, x_hi: float) -> Array:
    """Integral of the piecewise profile over [x_lo, x_hi]; the window
    must contain every front."""
    if fs.fronts:
        if fs.fronts[0].position < x_lo or fs.fronts[-1].position > x_hi:
            raise ValueError("window does not contain all fronts")
        u = fs.fronts[0].wave.left
    else:
        raise ValueError("empty front set has no reference state")
    acc = u * (x_hi - x_lo)
    for f in fs.fronts:
        acc = acc + (x_hi - f.position) * (f.wave.right - f.wave.left)
    return acc


def conservation_report(model: FluxModel, result: RunResult) -> dict:
    """Raw drift vs the far-field flux transport, the exact per-event
    ledger correction, and the fold budget."""
    init, final = result.initial, result.final
    xs = [f.position for f in init.fronts] + [f.position for f in final.fronts]
    if not xs:
        return {"raw": 0.0, "corrected": 0.0, "budget": 0.0, "window": None}
    x_lo, x_hi = min(xs) - 1.0, max(xs) + 1.0
    m0 = mass(init, x_lo, x_hi)
    m1 = mass(final, x_lo, x_hi)
    dt = final.time - init.time
    u_l = init.fronts[0].wave.left
    u_r = init.fronts[-1].wave.right
    transport = dt * (model.flux(u_l) - model.flux(u_r))
    raw = m1 - m0 - transport
    ledger = np.zeros_like(raw)
    budget = 0.0
    for ev in result.events:
        ledger = ledger + ev.mass_correction
        budget += float(np.max(np.abs(ev.mass_correction)))
    corrected = raw - ledger
    return {
        "raw": float(np.max(np.abs(raw))),
        "corrected": float(np.max(np.abs(corrected))),
        "budget": budget,
        "window": (x_lo, x_hi),
    }
