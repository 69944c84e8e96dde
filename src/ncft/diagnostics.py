"""Functionals and audits over front-tracking runs.

The weighted variation W splits the line into three regions by the two
strong fronts (left of y, between y and z, right of z) and weighs each
weak wave by its region and by how its family compares with the
designated one. The quadratic potential Q pairs approaching waves, with
a speed-gap weight on every pair touching the designated family. W+K*Q
is the Lyapunov quantity: it must not increase at interactions, and each
completed splitting-merging cycle must burn at least c*eta of it when
the nucleation gap eta is positive.

Everything here is replay: pure functions over the immutable event and
snapshot logs a run leaves behind. W, Q and the perturbation size depend
only on the waves: their order, families, kinds, strengths and speeds,
and which of them are strong, never on positions. Between events none of
these change, so the value just before an event is the value just after
the previous one (or of the initial front set).

A snapshot is the full evaluation of one front set. Q is one numpy pass
(pair_terms): per-wave arrays of |strength|, family, shock flag and
speed, broadcast to every pair a < b in row-major order. Pairs that do
not approach, or belong to the other sum, hold 0.0, which leaves a sum
unchanged. Each sum is the last entry of np.add.accumulate, which adds
strictly left to right, so Q has the same bits as a double loop over the
pairs; np.sum, which adds pairwise, would not. A few waves, an event's
incoming or placed waves or a calibration sample's two jumps and its
fan, are summed by that double loop itself (pair_sums), where numpy's
per-call cost would exceed the sums.

The per-event replay never evaluates the potential of a whole set. It
keeps the set as per-wave arrays with its W and Q, and an event only
changes the terms that touch its incoming waves: Q changes by the
potential among the placed waves less the one among the incoming waves,
plus the placed waves' cross terms with the rest of the set less the
incoming ones', and W by the weighted strengths of the placed waves less
the incoming ones'. The other waves keep their regions, unless the set
gains its first strong wave or loses its last one; then W is summed over
the set again. Since the terms add in another order than the full
evaluation's, the running W+K*Q agrees with a snapshot of the same set to
rounding (1e-12 relative, held by the tests), not bit for bit; the
potentials among the incoming and the placed waves do keep the double
loop's bits.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Optional

import numpy as np

from ncft import curves, kinetics as kin_mod, models, riemann
from ncft.kinetics import KineticFunction
from ncft.models import FluxModel
from ncft.riemann import (
    KIND_CLASSICAL,
    KIND_NONCLASSICAL,
    KIND_PIECE,
    KIND_RAREFACTION,
    Wave,
)
from ncft.tracking import FrontSet, InteractionEvent

Array = np.ndarray

SHOCK_KINDS = (KIND_CLASSICAL, KIND_NONCLASSICAL)
RAREFACTION_KINDS = (KIND_RAREFACTION, KIND_PIECE)

# per-event increase allowed on W+K*Q, scaled by the pre-event value
LYAPUNOV_TOL = 1e-9
# strengths below this count as zero in ratio fits
STRENGTH_FLOOR = 1e-14
# calibration: expansive same-family pairs per requested sample, and the
# share of system samples that pair two different families
ZERO_FRACTION = 0.1
CROSS_FAMILY_SHARE = 0.3
# cycle audit: least fitted ratio of Lyapunov drop to nucleation gap
CYCLE_DROP_FLOOR = 1e-3

class DiagnosticsError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class Weights:
    """The lemma's weights of W + K*Q, built from the measured contraction
    cff of the kinetic relation, the asymmetry zeta and the potential
    weight K.

    zeta's narrower (0, 0.5) range is a row of validate_constraints, not
    checked here, so that out-of-range instances can still be built and
    inspected; here it need only keep 1 - zeta and 1 + zeta positive.
    """

    cff: float
    zeta: float = 0.1
    K: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.cff < 1.0:
            raise ValueError("contraction constant must lie in [0, 1)")
        if not -1.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in (-1, 1)")
        if not self.K > 0.0:
            raise ValueError("potential weight K must be positive")

    def row(self, family: int, cc_index: int) -> tuple:
        """The weights (left of y, between y and z, right of z) of a weak
        wave of the family, against the designated family cc_index."""
        if family == cc_index:
            return (1.0 + self.cff + self.zeta, 1.0, 1.0)
        if family < cc_index:
            return (1.0 - self.zeta, 1.0, 1.0 + self.zeta)
        return (1.0 + self.zeta, 1.0, 1.0 - self.zeta)


# the weights under the lemma's name, which ncft_bench calls
lemma_weights = Weights


# ---------------------------------------------------------------------------
# region assignment and the linear functionals


def _strong_indices(ids: Array, y_id: Optional[int],
                    z_id: Optional[int]) -> tuple:
    """(iy, iz): where the strong fronts y and z sit among fronts whose
    ids are ids, None for an absent token."""
    out = []
    for role, front_id in (("y", y_id), ("z", z_id)):
        if front_id is None:
            out.append(None)
            continue
        (hit,) = (ids == front_id).nonzero()
        if not hit.size:
            raise DiagnosticsError(f"{role} identity references no front")
        out.append(int(hit[0]))
    return tuple(out)


def _region(k: int, iy: Optional[int], iz: Optional[int]) -> Optional[int]:
    """The region of front k given the strong fronts' indices (None where
    absent): 0, 1, 2 for a weak front left of y, between y and z, right of
    z, None for a strong one.

    With a single strong front the middle region is empty; with none,
    every weak wave counts as middle."""
    if iy is None and iz is None:
        return 1
    if iy is None:
        iy = iz
    if iz is None:
        iz = iy
    if k == iy or k == iz:
        return None
    if k < iy:
        return 0
    if k > iz:
        return 2
    return 1


def _weighted_sums(w: Weights, cc_index: int, families, sizes, start: int,
                   iy: Optional[int], iz: Optional[int]) -> tuple:
    """(V_L, V_M, V_R, W) over the weak fronts among the fronts start,
    start+1, ... of a set whose strong fronts sit at iy and iz; families
    and sizes are those fronts' families and |strength|.

    Each sum adds its terms in position order. W adds every term as it
    comes, so it rounds apart from V_L + V_M + V_R."""
    sums = [0.0, 0.0, 0.0]
    total = 0.0
    for k, (fam, size) in enumerate(zip(families, sizes), start):
        region = _region(k, iy, iz)
        if region is not None:
            term = w.row(fam, cc_index)[region] * size
            sums[region] += term
            total += term
    return (*sums, total)


def functionals(model: FluxModel, fs: FrontSet, w: Weights) -> tuple:
    """(V_L, V_M, V_R, their sum) over the weak waves; strong excluded."""
    v_l, v_m, v_r, _ = _weighted_sums(
        w, model.cc_index, [wv.family for wv in fs.waves],
        [abs(wv.strength) for wv in fs.waves], 0,
        *_strong_indices(fs.wave_ids, fs.y_id, fs.z_id))
    return v_l, v_m, v_r, v_l + v_m + v_r


def perturbation(waves, strong) -> float:
    """Total |strength| of the waves whose id is not in strong, a tuple of
    ids or a dict keyed by them."""
    return sum(abs(wv.strength) for wv in waves if wv.id not in strong)


# ---------------------------------------------------------------------------
# the quadratic potential


def _sequential_sum(terms: Array) -> float:
    """The terms added one at a time from 0.0, in order, as a Python loop
    adds them. np.add.accumulate is strictly sequential; np.sum adds
    pairwise and would change the last bits."""
    if not len(terms):
        return 0.0
    return 0.0 + float(np.add.accumulate(terms)[-1])


def _wave_arrays(waves) -> tuple:
    """(family, shock flag, |strength|) arrays of a wave sequence."""
    return (np.array([wv.family for wv in waves], dtype=np.int64),
            np.array([wv.kind in SHOCK_KINDS for wv in waves], dtype=bool),
            np.array([abs(wv.strength) for wv in waves], dtype=float))


def _approaches(left_family: int, left_kind: str, right_family: int,
                right_kind: str) -> bool:
    """Whether two waves (or jumps), left before right, approach: waves
    of different families when the left one has the larger family, waves
    of one family when either is a shock."""
    if left_family != right_family:
        return left_family > right_family
    return left_kind in SHOCK_KINDS or right_kind in SHOCK_KINDS


def pair_terms(waves, speeds, cc_index: int) -> tuple:
    """(Q0, Q1) of position-ordered waves moving at the given speeds, in
    one array pass over the pairs a < b flattened row-major: (0, 1),
    (0, 2), ..., (1, 2), ...

    Q0 sums |s_a|*|s_b| over the approaching pairs with neither wave in
    the designated family; Q1 sums it, weighted by the positive part of
    the speed gap, over the approaching pairs touching that family,
    strong waves included. Every other pair's term is 0.0, which leaves a
    sum unchanged."""
    n = len(waves)
    upper = np.less.outer(np.arange(n), np.arange(n))
    family, shock, size = _wave_arrays(waves)
    approaching = np.where(np.not_equal.outer(family, family),
                           np.greater.outer(family, family),
                           np.logical_or.outer(shock, shock))[upper]
    product = np.multiply.outer(size, size)[upper]
    product[~approaching] = 0.0
    designated = family == cc_index
    touch = np.logical_or.outer(designated, designated)[upper]
    speed = np.array(speeds, dtype=float)
    q1 = np.subtract.outer(speed, speed)[upper]
    np.maximum(q1, 0.0, out=q1)
    q1 *= product
    q1[~touch] = 0.0
    return (_sequential_sum(np.where(touch, 0.0, product)),
            _sequential_sum(q1))


def pair_sums(waves, speeds, cc_index: int) -> tuple:
    """(Q0, Q1, approaching product) over the pairs of a few
    position-ordered waves moving at the given speeds, where numpy's
    per-call cost would exceed the sums. Each sum adds its pairs' terms in
    row-major order, so it has the bits of pair_terms over the same
    waves."""
    q0 = q1 = product = 0.0
    for a, wa in enumerate(waves):
        for b in range(a + 1, len(waves)):
            wb = waves[b]
            if not _approaches(wa.family, wa.kind, wb.family, wb.kind):
                continue
            p = abs(wa.strength) * abs(wb.strength)
            product += p
            if wa.family == cc_index or wb.family == cc_index:
                q1 += max(speeds[a] - speeds[b], 0.0) * p
            else:
                q0 += p
    return q0, q1, product


# ---------------------------------------------------------------------------
# snapshots


@dataclasses.dataclass
class DiagnosticsSnapshot:
    t: float
    V_L: float
    V_M: float
    V_R: float
    W: float
    Q: float
    eps: float
    lyapunov: float

    def csv_row(self) -> tuple:
        return dataclasses.astuple(self)


CSV_HEADER = tuple(f.name for f in dataclasses.fields(DiagnosticsSnapshot))


def snapshot(model: FluxModel, fs: FrontSet,
             w: Weights) -> DiagnosticsSnapshot:
    """W, Q, eps and W+K*Q of one front set, evaluated in full.

    Q is one array pass over all pairs of fronts (pair_terms). Its two
    sums accumulate the pair terms strictly in row-major order, the order
    of a double loop over the pairs, so Q has that loop's bits."""
    v_l, v_m, v_r, total = functionals(model, fs, w)
    q0, q1 = pair_terms(fs.waves, fs.speeds, model.cc_index)
    q = q0 + q1
    eps = perturbation(fs.waves, fs.strong_ids)
    return DiagnosticsSnapshot(
        t=fs.time, V_L=v_l, V_M=v_m, V_R=v_r, W=total, Q=q, eps=eps,
        lyapunov=total + w.K * q,
    )


# ---------------------------------------------------------------------------
# event classification


def classify_case(ev: InteractionEvent) -> tuple:
    """(tag, sub) for one interaction.

    The seven tagged cases cover the splitting-merging pattern: split of
    the lone classical (Case1), merge (Case2), designated-family weak
    waves crossing the classical fronts (Case3) or the nonclassical one
    (Case4), and transversal-family crossings (Case5/6/7). Anything
    outside the table is Other; callers dump those, never refile them.
    """
    roles = ev.incoming_roles
    waves = list(ev.incoming)
    strong_in = [(k, wv) for k, wv in enumerate(waves) if wv.id in roles]
    weak_in = [(k, wv) for k, wv in enumerate(waves) if wv.id not in roles]
    n_strong_out = len(ev.outgoing_roles)
    if not strong_in:
        return "WeakWeak", None
    if len(strong_in) == 2:
        if n_strong_out == 1 and not weak_in:
            return "Case2", None
        return "Other", None
    k_s, ws = strong_in[0]
    role = roles[ws.id]
    i = ws.family
    weak_i = [(k, wv) for k, wv in weak_in if wv.family == i]
    weak_j = [(k, wv) for k, wv in weak_in if wv.family != i]
    if len(weak_in) != 1:
        return "Other", None
    if weak_j:
        if ws.kind == KIND_NONCLASSICAL:
            return "Case6", None
        return ("Case7", None) if role == "z" else ("Case5", None)
    k_w, wi = weak_i[0]
    from_left = k_w < k_s
    raref = wi.kind in RAREFACTION_KINDS
    if ws.kind == KIND_NONCLASSICAL:
        if from_left:
            return "Case4", "RN" if raref else "CN-3"
        return "Case4", "other"
    if role == "y" and n_strong_out == 2:
        if from_left:
            return "Case1", "RC-3" if raref else "CC-3"
        return "Case1", "CR-4" if raref else "other"
    return "Case3", None


# ---------------------------------------------------------------------------
# interaction estimates


def _additivity_residual(incoming, outgoing) -> float:
    """Per-family defect of strength additivity between incoming and
    outgoing waves, summed over the families in increasing order."""
    residual = 0.0
    for fam in sorted({wv.family for wv in (*incoming, *outgoing)}):
        a = sum(wv.strength for wv in incoming if wv.family == fam)
        g = sum(wv.strength for wv in outgoing if wv.family == fam)
        residual += abs(g - a)
    return residual


# ---------------------------------------------------------------------------
# the per-event replay


@dataclasses.dataclass(frozen=True)
class ReplayState:
    """A front set between two events as the replay keeps it: per-wave
    arrays in position order (family, shock flag, |strength|, speed, id),
    the strong waves' indices in those arrays, and the set's W, Q and
    W+K*Q."""

    family: Array
    shock: Array
    size: Array
    speed: Array
    ids: Array
    iy: Optional[int]
    iz: Optional[int]
    W: float
    Q: float
    lyapunov: float

    @classmethod
    def of(cls, fs: FrontSet, snap: DiagnosticsSnapshot) -> "ReplayState":
        """The state of fs, whose full evaluation is snap."""
        family, shock, size = _wave_arrays(fs.waves)
        iy, iz = _strong_indices(fs.wave_ids, fs.y_id, fs.z_id)
        return cls(family=family, shock=shock, size=size, speed=fs.speeds,
                   ids=fs.wave_ids, iy=iy, iz=iz,
                   W=snap.W, Q=snap.Q, lyapunov=snap.lyapunov)


def _cross_potential(st: ReplayState, lo: int, hi: int, rows: tuple,
                     cc_index: int) -> float:
    """The potential between the fronts in rows (family, shock, signed
    size, speed), standing where st's fronts lo..hi-1 stand, and every
    front of st outside lo..hi-1, in one array pass; each row's terms
    count with the sign of its size."""
    family, shock, size, speed = rows
    # row-minus-set differences, negated where the set's front is the
    # pair's left wave, so that both read left minus right
    gap = speed[:, None] - st.speed
    gap[:, :lo] *= -1.0
    np.maximum(gap, 0.0, out=gap)
    fam_gap = family[:, None] - st.family
    fam_gap[:, :lo] *= -1
    approaching = np.where(fam_gap != 0, fam_gap > 0,
                           shock[:, None] | st.shock)
    touch = (family == cc_index)[:, None] | (st.family == cc_index)
    weight = np.where(touch, gap, 1.0)
    weight *= approaching
    weight[:, lo:hi] = 0.0
    return float(size @ weight @ st.size)


def event_delta(model: FluxModel, ev: InteractionEvent, w: Weights,
                state: ReplayState) -> tuple:
    """Replay one event from the state of the front set just before it;
    returns (row, state just after).

    The incoming waves must sit at ev.index in the state; the placed
    waves take their place. The potential among the incoming waves
    (q_cluster_pre), the one left among the placed waves
    (q_cluster_post) and the Glimm product are pair_sums, with the double
    loop's bits. Q changes by q_cluster_post - q_cluster_pre plus the
    placed waves' cross terms with the rest of the set less the incoming
    ones', W by the weighted strengths of the placed waves less the
    incoming ones'. The rest keeps its regions unless the set gains its
    first strong wave or loses its last, when all of W is evaluated
    again. The post-event W+K*Q agrees with a full snapshot of ev.post to
    1e-12 relative. Placement orders outgoing waves by speed, so the
    cluster part of Q can only be released, never created."""
    cc = model.cc_index
    lo, hi = ev.index, ev.index + len(ev.incoming)
    if state.ids[lo:hi].tolist() != [wv.id for wv in ev.incoming]:
        raise DiagnosticsError(
            f"the cluster of the event at t={ev.time} does not sit at "
            f"index {lo} of the replayed front set")
    q0_pre, q1_pre, product = pair_sums(
        ev.incoming, [wv.speed for wv in ev.incoming], cc)
    placed_speeds = [wv.speed for wv in ev.placed]
    q0_post, q1_post, _ = pair_sums(ev.placed, placed_speeds, cc)
    family, shock, size = _wave_arrays(ev.placed)
    speed = np.array(placed_speeds, dtype=float)
    ids = np.array([wv.id for wv in ev.placed], dtype=np.int64)
    rows = tuple(np.concatenate(pair) for pair in (
        (state.family[lo:hi], family), (state.shock[lo:hi], shock),
        (-state.size[lo:hi], size), (state.speed[lo:hi], speed)))
    q = (state.Q + ((q0_post + q1_post) - (q0_pre + q1_pre))
         + _cross_potential(state, lo, hi, rows, cc))

    def spliced(old, new):
        return np.concatenate((old[:lo], new, old[hi:]))

    post_ids = spliced(state.ids, ids)
    iy, iz = _strong_indices(post_ids, ev.post.y_id, ev.post.z_id)
    post_family = spliced(state.family, family)
    post_size = spliced(state.size, size)
    if (state.iy is None and state.iz is None) == (iy is None and iz is None):
        total = state.W + (
            _weighted_sums(w, cc, family.tolist(), size.tolist(), lo,
                           iy, iz)[3]
            - _weighted_sums(w, cc, state.family[lo:hi].tolist(),
                             state.size[lo:hi].tolist(), lo,
                             state.iy, state.iz)[3])
    else:
        total = _weighted_sums(w, cc, post_family.tolist(),
                               post_size.tolist(), 0, iy, iz)[3]
    post = ReplayState(
        family=post_family, shock=spliced(state.shock, shock),
        size=post_size, speed=spliced(state.speed, speed), ids=post_ids,
        iy=iy, iz=iz,
        W=total, Q=q, lyapunov=total + w.K * q)
    delta = post.lyapunov - state.lyapunov
    tag, sub = classify_case(ev)
    return {
        "t": ev.time,
        "case": tag,
        "sub": sub,
        "pre_lyapunov": state.lyapunov,
        "post_lyapunov": post.lyapunov,
        "delta": delta,
        "flagged": delta > LYAPUNOV_TOL * max(1.0, state.lyapunov),
        "residual": _additivity_residual(ev.incoming, ev.outgoing.waves),
        "product": product,
        "q_cluster_pre": q0_pre + q1_pre,
        "q_cluster_post": q0_post + q1_post,
    }, post


def lyapunov_series(model: FluxModel, events, snapshots, w: Weights) -> dict:
    """Time series of W+K*Q plus the per-event replay, one event_delta
    row per event, each carrying its case tag. snapshots[0] must be the
    front set the events start from.

    Each snapshot is evaluated in full. The replay starts from the first
    snapshot's values and carries its state from event to event, so each
    row's pre_lyapunov is the previous row's post_lyapunov bit for bit,
    and the first is the initial snapshot's."""
    series = [snapshot(model, fs, w) for fs in snapshots]
    state = ReplayState.of(snapshots[0], series[0])
    rows = []
    for ev in events:
        row, state = event_delta(model, ev, w, state)
        rows.append(row)
    max_delta = max((r["delta"] for r in rows), default=0.0)
    return {
        "series": series,
        "events": rows,
        "max_delta": max_delta,
        "n_flagged": sum(1 for r in rows if r["flagged"]),
    }


# ---------------------------------------------------------------------------
# constraint validation


def validate_constraints(w: Weights, k_floor: float) -> dict:
    """Report on the weight inequalities and the potential-weight floor
    k_floor that calibration measured. All rows are report-only: nothing
    raises."""
    # the rows of the designated family, of one below it, of one above it
    own, less, grt = w.row(0, 0), w.row(0, 1), w.row(1, 0)
    rows = {}
    rows["W1"] = {
        "passed": own[0] > (1.0 + w.cff) * own[1],
        "margin": own[0] - (1.0 + w.cff) * own[1],
    }
    rows["W2"] = {
        "passed": less[0] < less[1] < less[2],
        "margin": min(less[1] - less[0], less[2] - less[1]),
    }
    rows["W3"] = {
        "passed": grt[0] > grt[1] > grt[2],
        "margin": min(grt[0] - grt[1], grt[1] - grt[2]),
    }
    rows["zeta_range"] = {
        "passed": 0.0 < w.zeta < 0.5,
        "margin": min(w.zeta, 0.5 - w.zeta),
    }
    rows["Q1"] = {
        "passed": w.K >= k_floor,
        "margin": w.K - k_floor,
        "floor": k_floor,
    }
    return {
        "passed": all(r["passed"] for r in rows.values()),
        "constraints": rows,
        "cff": w.cff,
    }


# ---------------------------------------------------------------------------
# splitting-merging cycles


@dataclasses.dataclass
class CycleRecord:
    t0: float
    tf: Optional[float]
    u_l0: list
    u_r0: list
    u_lf: Optional[list]
    u_rf: Optional[list]
    ledgers: dict
    eta: Optional[float]
    signed_variation: Optional[float]
    lyapunov_drop: Optional[float]
    n_crossings: int
    checks: dict

    @property
    def open(self) -> bool:
        return self.tf is None

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self), "open": self.open}


# per crossing case, the ledgers of its incoming and of its transmitted
# weak strength (None: not kept)
CROSSING_LEDGERS = {
    "Case3": ("alpha_R", None),
    "Case4": ("alpha_L", "alpha_R_tilde"),
    "Case5": (None, None),
    "Case6": ("beta_L", "beta_L_tilde"),
    "Case7": ("beta_R", "beta_R_tilde"),
}


@dataclasses.dataclass
class CycleAudit:
    records: list
    fitted_c: Optional[float]
    n_completed: int
    n_open: int
    cff: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "records": [r.to_json_dict() for r in self.records]}


def _strong_wave(waves, roles: dict, role: str) -> Optional[Wave]:
    """The wave among waves that holds role, None if none does."""
    for wv in waves:
        if roles.get(wv.id) == role:
            return wv
    return None


def cycle_audit(model: FluxModel, kin: KineticFunction, events, snapshots,
                w: Weights, *, cff: float) -> CycleAudit:
    """Pair splits with merges and check each completed cycle.

    A cycle opens at a Case1 split, or at time zero when the run starts
    with both strong fronts already present. It closes at the Case2
    merge. In between, the crossing ledgers accumulate weak strengths by
    case: alpha entries for designated-family waves hitting the
    nonclassical front (incoming alpha_L, transmitted alpha_R_tilde) or
    the trailing classical (alpha_R), beta entries for the transversal
    families. Checks per completed cycle: the signed-variation gap
    condition when eta is positive, the drop of W+K*Q, and the crossing
    bounds with the contraction cff and a (1+eps0) allowance, eps0 the
    perturbation at the cycle's opening. The audit passes when every
    completed cycle does and the fitted drop constant is at least
    CYCLE_DROP_FLOOR.
    """
    initial = snapshots[0]
    # the previous event's front set: W+K*Q as just before the current one
    before = initial
    records = []
    # the open cycle's record, and W+K*Q and the perturbation at its opening
    current = None
    L0 = eps0 = None
    tol = 1e-12

    def lyapunov_of(fs):
        return snapshot(model, fs, w).lyapunov

    def open_cycle(t0, u_l0, u_r0, fs_before, fs_after):
        nonlocal current, L0, eps0
        current = CycleRecord(
            t0=t0, tf=None, u_l0=u_l0, u_r0=u_r0, u_lf=None, u_rf=None,
            ledgers={key: 0.0 for pair in CROSSING_LEDGERS.values()
                     for key in pair if key}, eta=None,
            signed_variation=None, lyapunov_drop=None, n_crossings=0,
            checks={"well_formed": True})
        L0 = lyapunov_of(fs_before)
        eps0 = perturbation(fs_after.waves, fs_after.strong_ids)

    if initial.y_id is not None and initial.z_id is not None:
        wy = initial.waves[initial.index(initial.y_id)]
        wz = initial.waves[initial.index(initial.z_id)]
        open_cycle(initial.time, wy.left.tolist(), wz.right.tolist(),
                   initial, initial)

    def close(ev):
        nonlocal current
        wy = _strong_wave(ev.incoming, ev.incoming_roles, "y")
        wz = _strong_wave(ev.incoming, ev.incoming_roles, "z")
        u_lf = wy.left.tolist()
        u_rf = wz.right.tolist()
        if current.u_l0:
            eta = min(
                kin_mod.nucleation_gap(model, kin, np.asarray(current.u_l0)),
                kin_mod.nucleation_gap(model, kin, np.asarray(u_lf)),
            )
            sv = (
                kin_mod.mu_sharp(model, kin, np.asarray(current.u_l0))
                - kin_mod.mu_sharp(model, kin, np.asarray(u_lf))
                + models.mu(model, np.asarray(u_rf))
                - models.mu(model, np.asarray(current.u_r0))
            )
        else:
            # orphan merge: the opening state was never seen
            eta = None
            sv = None
        drop = L0 - lyapunov_of(ev.post)
        allow = 1.0 + eps0
        led = current.ledgers
        current.checks.update({
            "eta_condition": (sv > eta) if eta is not None and eta > tol
            else None,
            "drop_nonnegative": drop >= -tol,
            "crossing_alpha": led["alpha_R_tilde"]
            <= cff * led["alpha_L"] * allow + tol,
            "crossing_beta_L": led["beta_L_tilde"]
            <= led["beta_L"] * allow + tol,
            "crossing_beta_R": led["beta_R_tilde"]
            <= led["beta_R"] * allow + tol,
        })
        current.tf, current.u_lf, current.u_rf = ev.time, u_lf, u_rf
        current.eta, current.signed_variation = eta, sv
        current.lyapunov_drop = drop
        records.append(current)
        current = None

    for ev in events:
        tag, _ = classify_case(ev)
        if tag == "Case1":
            if current is not None:
                # nested split never leaves the tracked pattern intact;
                # keep the record but mark it
                current.checks["well_formed"] = False
                records.append(current)
            wy = _strong_wave(ev.placed, ev.outgoing_roles, "y")
            wz = _strong_wave(ev.placed, ev.outgoing_roles, "z")
            open_cycle(ev.time, wy.left.tolist(), wz.right.tolist(),
                       before, ev.post)
        elif tag == "Case2":
            if current is None:
                open_cycle(initial.time, [], [], initial, initial)
                current.checks["well_formed"] = False
            close(ev)
        elif tag in CROSSING_LEDGERS and current is not None:
            for key, waves, roles in zip(
                    CROSSING_LEDGERS[tag], (ev.incoming, ev.placed),
                    (ev.incoming_roles, ev.outgoing_roles)):
                if key is not None:
                    current.ledgers[key] += perturbation(waves, roles)
            current.n_crossings += 1
        before = ev.post

    if current is not None:
        records.append(current)

    completed = [r for r in records if not r.open]
    ratios = [r.lyapunov_drop / r.eta for r in completed
              if r.eta is not None and r.eta > tol]
    fitted_c = min(ratios) if ratios else None
    ok = all(
        all(v for v in r.checks.values() if v is not None)
        for r in completed
    )
    if fitted_c is not None:
        ok = ok and fitted_c >= CYCLE_DROP_FLOOR
    return CycleAudit(
        records=records, fitted_c=fitted_c,
        n_completed=len(completed),
        n_open=len(records) - len(completed),
        cff=cff, passed=ok,
    )


# ---------------------------------------------------------------------------
# calibration


@dataclasses.dataclass
class CalibrationReport:
    n_requested: int
    n_evaluated: int
    n_skipped: int
    scales: tuple
    seed: int
    fitted_glimm_C: float
    max_residual: float
    growth_coefficient: float
    k_floor_physical: float
    k_floor: float
    K_recommended: float
    n_zero_product: int
    max_zero_product_residual: float
    per_scale: dict
    witnesses: list

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


# a calibration pair's jump as pair_sums and _additivity_residual read
# a wave: family, kind and strength, with no states copied
_Jump = collections.namedtuple("_Jump", "family kind strength")


def _chord(model: FluxModel, left: Array, right: Array, speed) -> float:
    """The speed of a shock, the chord speed of a rarefaction, whose speed
    is a (left, right) characteristic pair."""
    if isinstance(speed, tuple):
        return curves.chord_speed(model, left, right)
    return float(speed)


def _wave_pair(model: FluxModel, kin: KineticFunction, u0, fam1: int,
               d1: float, fam2: int, d2: float) -> Optional[tuple]:
    """Two single jumps chained off u0: family fam1 to its parameter at u0
    plus d1, then family fam2 to its parameter there plus d2. Returns the
    two jumps (left, right, kind, speed) of the wave-curve walk, or None
    when either step takes other than one wave. No wave is built. u0
    must lie in the outer ball (BallViolation otherwise)."""
    u, out = models.require_in_ball(model, u0, "delta0"), []
    for fam, d in ((fam1, d1), (fam2, d2)):
        jumps = riemann._jumps(model, kin, u, fam,
                               float(model.family_parameter(u, fam)) + d)
        if len(jumps) != 1:
            return None
        out += jumps
        u = jumps[0][1]
    return tuple(out)


def calibrate(model: FluxModel, kin: KineticFunction, n: int = 10000,
              scales: tuple = (0.05, 0.02, 0.005),
              seed: int = 0) -> CalibrationReport:
    """Measure the interaction constants on random weak binary collisions.

    Each sample chains two weak jumps off a random base state, keeps the
    pair only when it genuinely approaches, and re-solves the outer
    Riemann problem. The pair is measured from its two jumps' family,
    kind and strength; the only waves built are the re-solved fans'. The
    Glimm fit is the worst residual-to-product ratio; the potential-weight
    floor comes from the interactions where the variation grew, weighed
    as in the middle region, where every family's weight is 1, and scaled
    by three to cover the weight spread of the region table. Separate
    expansive same-family pairs pin the zero-product branch of the
    estimate.
    """
    if n < 1:
        raise ValueError(f"calibrate needs n >= 1 samples, got {n}")
    rng = np.random.default_rng(seed)
    i = model.cc_index

    # rng.uniform(0.25, 1.0) bit for bit: numpy's own formula, low +
    # (high - low) * rng.random(), on the same double of the stream,
    # without rng.uniform's per-call array conversions
    def magnitude():
        return 0.25 + (1.0 - 0.25) * rng.random()

    def base_state(fam):
        for _ in range(64):
            u0 = models.sample_ball(model, 1, rng, margin=0.6)[0]
            if abs(model.family_parameter(u0, fam)) >= 0.25:
                return u0
        return None

    n_eval = 0
    n_skip = 0
    max_residual = 0.0
    witnesses = []
    per_scale = {s: {"n": 0, "max_residual_ratio": 0.0,
                     "max_growth_ratio": 0.0} for s in scales}
    trials = 0
    while n_eval < n and trials < 12 * n:
        trials += 1
        scale = scales[n_eval % len(scales)]
        fam1 = i
        fam2 = i
        if model.N > 1 and rng.random() < CROSS_FAMILY_SHARE:
            fam1 = int(rng.integers(1, model.N))
            fam2 = int(rng.integers(0, fam1))
        u0 = base_state(fam1)
        if u0 is None:
            n_skip += 1
            continue
        d1 = scale * magnitude() * (1 if rng.random() < 0.5 else -1)
        d2 = scale * magnitude() * (1 if rng.random() < 0.5 else -1)
        try:
            pair = _wave_pair(model, kin, u0, fam1, d1, fam2, d2)
            if pair is None:
                n_skip += 1
                continue
            (l1, r1, k1, s1), (l2, r2, k2, s2) = pair
            v1, v2 = _chord(model, l1, r1, s1), _chord(model, l2, r2, s2)
            if not _approaches(fam1, k1, fam2, k2) or v1 <= v2 + 1e-10:
                n_skip += 1
                continue
            fan = riemann.solve_riemann(model, kin, u0, r2)
            j1 = _Jump(fam1, k1, curves._strength(model, l1, r1, fam1))
            j2 = _Jump(fam2, k2, curves._strength(model, l2, r2, fam2))
        except (curves.CurveError, riemann.SolverError, models.BallViolation):
            n_skip += 1
            continue
        n_eval += 1
        residual = _additivity_residual((j1, j2), fan.waves)
        q0_pre, q1_pre, product = pair_sums((j1, j2), (v1, v2), i)
        max_residual = max(max_residual, residual)
        bucket = per_scale[scale]
        bucket["n"] += 1
        if product > STRENGTH_FLOOR:
            bucket["max_residual_ratio"] = max(
                bucket["max_residual_ratio"], residual / product)
        w_pre = abs(j1.strength) + abs(j2.strength)
        w_post = sum(abs(wv.strength) for wv in fan.waves)
        d_w = w_post - w_pre
        q0_post, q1_post, _ = pair_sums(
            fan.waves,
            [_chord(model, wv.left, wv.right, wv.speed) for wv in fan.waves],
            i)
        d_q = (q0_post + q1_post) - (q0_pre + q1_pre)
        if d_w > 1e-13:
            if d_q < -STRENGTH_FLOOR:
                bucket["max_growth_ratio"] = max(
                    bucket["max_growth_ratio"], d_w / (-d_q))
            else:
                # growth with no potential release: no K can compensate
                witnesses.append({
                    "u0": u0.tolist(), "d1": d1, "d2": d2,
                    "d_w": d_w, "d_q": d_q,
                })

    # expansive same-family pairs: approaching product identically zero
    n_zero = max(1, int(n * ZERO_FRACTION))
    zero_done = 0
    max_zero_resid = 0.0
    trials = 0
    while zero_done < n_zero and trials < 12 * n_zero:
        trials += 1
        scale = scales[zero_done % len(scales)]
        u0 = base_state(i)
        if u0 is None:
            break
        s = 1.0 if model.family_parameter(u0, i) > 0 else -1.0
        d1 = s * scale * magnitude()
        d2 = s * scale * magnitude()
        try:
            pair = _wave_pair(model, kin, u0, i, d1, i, d2)
            if pair is None:
                continue
            (l1, r1, k1, _), (l2, r2, k2, _) = pair
            if not (k1 in RAREFACTION_KINDS and k2 in RAREFACTION_KINDS):
                continue
            fan = riemann.solve_riemann(model, kin, u0, r2)
            a = (curves._strength(model, l1, r1, i)
                 + curves._strength(model, l2, r2, i))
        except (curves.CurveError, riemann.SolverError, models.BallViolation):
            continue
        zero_done += 1
        g = sum(wv.strength for wv in fan.waves if wv.family == i)
        max_zero_resid = max(max_zero_resid, abs(g - a))

    growth = max(b["max_growth_ratio"] for b in per_scale.values())
    k_floor = 3.0 * growth
    return CalibrationReport(
        n_requested=n, n_evaluated=n_eval, n_skipped=n_skip,
        scales=tuple(scales), seed=seed,
        fitted_glimm_C=max(b["max_residual_ratio"]
                           for b in per_scale.values()),
        max_residual=max_residual,
        growth_coefficient=growth,
        k_floor_physical=growth,
        k_floor=k_floor,
        K_recommended=1.05 * k_floor if k_floor > 0 else 1.0,
        n_zero_product=zero_done,
        max_zero_product_residual=max_zero_resid,
        per_scale={str(k): v for k, v in per_scale.items()},
        witnesses=witnesses[:20],
    )
