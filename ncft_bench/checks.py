"""Correctness checks on workload outputs, made apart from the program.

Every check compares against a closed form of the model or a property the
method must hold, never against stored output, and returns a list of
failure messages (empty when the check passes). Wave ids are never compared
across calls: the solver's default id counter is module-global.

Waves and fronts are handled as plain dicts in the artifact layout
(``family``, ``kind``, ``left``, ``right``, ``speed``, ``strength``, ``id``;
fronts add ``x``), so the same checks read artifacts and live objects.
"""

from __future__ import annotations

import math

import numpy as np

CLASSICAL = "ClassicalShock"
NONCLASSICAL = "NonclassicalShock"
SHOCKS = (CLASSICAL, NONCLASSICAL)

CFF_TOL = 1e-8
# the solver enforces the kinetic relation to 1e-10 in the parameter
KINETIC_TOL = 1e-10
# targets this close to a branch threshold may fall on either side: the
# thresholds come from root solves with 1e-13 tolerances
THRESHOLD_BAND = 1e-9
ENTROPY_TOL = 1e-9
# mass sums over <= 10^3 fronts in a window of width <= 20 carry roundoff
# far below this
MASS_ROUNDOFF = 1e-11
LYAPUNOV_REL = 1e-12
# the solver's documented fan-ordering and Lax tie tolerances
FAN_ORDER_TOL = 1e-9
LAX_TOL = 1e-9
# Newton stopping tolerances of the solver: fan endpoint (max norm) and
# Hugoniot corrector residual
ENDPOINT_TOL = 1e-11
CORRECTOR_TOL = 1e-12
EPS = np.finfo(float).eps


def front_dicts(fs) -> list:
    """Artifact-layout dicts of a tracking.FrontSet's fronts."""
    return [f.to_json_dict() for f in fs.fronts]


def _speed_hi(w: dict) -> float:
    s = w["speed"]
    return s[1] if isinstance(s, list) else s


def _speed_lo(w: dict) -> float:
    s = w["speed"]
    return s[0] if isinstance(s, list) else s


# ---------------------------------------------------------------------------
# cubic model: f(u) = u^3, U = u^2, F = 1.5 u^4, theta = 0.5


def cff(measured: float, expected: float = 0.75) -> list:
    if measured is None or not abs(measured - expected) <= CFF_TOL:
        return [f"measured Cff {measured} differs from {expected} by more "
                f"than {CFF_TOL}"]
    return []


def cubic_kinetic_states(fans: list, ratio: float = -0.75) -> list:
    """Every nonclassical wave jumps to right = ratio * left."""
    bad = []
    for waves in fans:
        for w in waves:
            if w["kind"] != NONCLASSICAL:
                continue
            ul, ur = w["left"][0], w["right"][0]
            if not abs(ur - ratio * ul) <= KINETIC_TOL:
                bad.append(f"nonclassical {ul} -> {ur}, want {ratio * ul}")
    return bad


def cubic_branch_choice(fans: list, nucleation: bool) -> list:
    """A fan holds a nonclassical wave exactly when u_r lies beyond the
    threshold -c*u_l, with c = 0.375 under nucleation (gamma = 0.5) and
    c = 0.25 (the equal-speed companion) without it."""
    c = 0.375 if nucleation else 0.25
    bad = []
    for waves in fans:
        if not waves:
            continue
        ul, ur = waves[0]["left"][0], waves[-1]["right"][0]
        gap = ur + c * ul
        if abs(gap) <= THRESHOLD_BAND * max(1.0, abs(ul)):
            continue
        s = 1.0 if ul > 0 else -1.0
        want = s * gap < 0
        got = any(w["kind"] == NONCLASSICAL for w in waves)
        if want != got:
            bad.append(f"fan {ul} -> {ur}: nonclassical={got}, "
                       f"threshold {-c * ul} says {want}")
    return bad


def cubic_entropy(waves: list) -> list:
    """Shocks dissipate the entropy U = u^2 with flux F = 1.5 u^4."""
    bad = []
    for w in waves:
        if w["kind"] not in SHOCKS:
            continue
        a, b = w["left"][0], w["right"][0]
        s = a * a + a * b + b * b
        e = -s * (b * b - a * a) + 1.5 * (b ** 4 - a ** 4)
        if not e <= ENTROPY_TOL:
            bad.append(f"shock {a} -> {b} produces entropy {e:.3e}")
    return bad


def _cubic_mass(states: list, xs: list, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of u = states[k] between xs[k-1] and xs[k]."""
    acc = states[0] * (hi - lo)
    for k, x in enumerate(xs):
        acc += (hi - x) * (states[k + 1] - states[k])
    return acc


def cubic_mass_balance(states0: list, xs0: list, fronts_final: list,
                       t_end: float, corrections: list) -> list:
    """Mass from the initial profile and from the final fronts, less the
    flux through the far field, stays within the fold budget: the summed
    size of the per-event position corrections."""
    finals = [states0[0]] + [f["right"][0] for f in fronts_final]
    xf = [f["x"] for f in fronts_final]
    if fronts_final and fronts_final[0]["left"][0] != states0[0]:
        return ["final far-left state differs from the initial one"]
    lo = min(xs0 + xf) - 1.0
    hi = max(xs0 + xf) + 1.0
    transport = t_end * (states0[0] ** 3 - states0[-1] ** 3)
    drift = (_cubic_mass(finals, xf, lo, hi) -
             _cubic_mass(states0, xs0, lo, hi) - transport)
    budget = sum(abs(c[0]) for c in corrections)
    if not abs(drift) <= budget + MASS_ROUNDOFF:
        return [f"mass drift {drift:.3e} exceeds fold budget {budget:.3e}"]
    return []


def lyapunov_deltas(deltas: list, l_start: float, l_end: float) -> list:
    """W+KQ only changes at events, so the per-event deltas add up to
    L(T) - L(0)."""
    total = math.fsum(deltas)
    # consecutive snapshots repeat bit for bit, so only the rounding of
    # each difference remains
    tol = 64 * EPS * (len(deltas) + 1) * max(1.0, abs(l_start), abs(l_end))
    if not abs(total - (l_end - l_start)) <= tol:
        return [f"event deltas sum to {total!r}, L(T)-L(0) is "
                f"{l_end - l_start!r}"]
    return []


def lemma_weight_table(cff_value: float, zeta: float, K: float) -> dict:
    """The lemma weights, written out from their definition."""
    return {
        "cc": (1.0 + cff_value + zeta, 1.0, 1.0),
        "less": (1.0 - zeta, 1.0, 1.0 + zeta),
        "grt": (1.0 + zeta, 1.0, 1.0 - zeta),
        "K": K,
    }


def lyapunov_value(fronts: list, y_id, z_id, table: dict,
                   cc_index: int) -> float:
    """W + K*Q of one front set, from the definitions: W weighs each weak
    front by region (left of y, between, right of z) and by family against
    the designated one; Q sums |strength| products over approaching pairs,
    weighted by the positive speed gap when a pair touches the designated
    family."""
    idx = {f["id"]: k for k, f in enumerate(fronts)}
    iy = idx.get(y_id) if y_id is not None else None
    iz = idx.get(z_id) if z_id is not None else None
    if iy is None:
        iy = iz
    if iz is None:
        iz = iy
    sums = {"L": 0.0, "M": 0.0, "R": 0.0}
    for k, f in enumerate(fronts):
        if iy is not None and k in (iy, iz):
            continue
        region = ("M" if iy is None else "L" if k < iy else
                  "R" if k > iz else "M")
        fam = f["family"]
        row = table["cc" if fam == cc_index else
                    "less" if fam < cc_index else "grt"]
        sums[region] += row["LMR".index(region)] * abs(f["strength"])
    w_total = sums["L"] + sums["M"] + sums["R"]
    q0 = q1 = 0.0
    for a, fa in enumerate(fronts):
        for fb in fronts[a + 1:]:
            if fa["family"] != fb["family"]:
                approaching = fa["family"] > fb["family"]
            else:
                approaching = fa["kind"] in SHOCKS or fb["kind"] in SHOCKS
            if not approaching:
                continue
            p = abs(fa["strength"]) * abs(fb["strength"])
            if fa["family"] != cc_index and fb["family"] != cc_index:
                q0 += p
            else:
                q1 += max(fa["speed"] - fb["speed"], 0.0) * p
    return w_total + table["K"] * (q0 + q1)


def lyapunov_ends(fronts0, roles0, fronts1, roles1, table, cc_index,
                  l_start, l_end) -> list:
    bad = []
    for label, fronts, roles, reported in (
            ("L(0)", fronts0, roles0, l_start),
            ("L(T)", fronts1, roles1, l_end)):
        mine = lyapunov_value(fronts, roles.get("y"), roles.get("z"), table,
                              cc_index)
        if not abs(mine - reported) <= LYAPUNOV_REL * max(abs(mine), 1e-300):
            bad.append(f"{label}: program {reported!r}, recomputed {mine!r}")
    return bad


def initial_roles(fronts: list, cc_index: int) -> dict:
    """Strong tokens of data whose strong jump sits at x = 0: y on the
    nonclassical (else the first classical) wave, z on a trailing
    classical one."""
    strong = [f for f in fronts
              if abs(f["x"]) <= 1e-9 and f["family"] == cc_index and
              f["kind"] in SHOCKS]
    roles = {}
    nc = [f for f in strong if f["kind"] == NONCLASSICAL]
    cl = [f for f in strong if f["kind"] == CLASSICAL]
    if nc:
        roles["y"] = nc[0]["id"]
        if cl:
            roles["z"] = cl[0]["id"]
    elif cl:
        roles["y"] = cl[0]["id"]
        if len(cl) > 1:
            roles["z"] = cl[1]["id"]
    return roles


def replay_roles(roles: dict, events: list) -> dict:
    """Token hand-over through the event log: incoming roles are retired,
    outgoing roles assigned."""
    roles = dict(roles)
    for ev in events:
        for role in ev["incoming_roles"].values():
            roles.pop(role, None)
        for fid, role in ev["outgoing_roles"].items():
            roles[role] = int(fid)
    return roles


# ---------------------------------------------------------------------------
# p-system: v_t - sigma(w)_x = 0, w_t - v_x = 0, sigma = w^3 + w


def _sigma(w: float) -> float:
    return w ** 3 + w


def _char_speed(w: float, family: int) -> float:
    lam = math.sqrt(1.0 + 3.0 * w * w)
    return -lam if family == 0 else lam


def fan_structure(waves: list, u_l, u_r) -> list:
    """The fan starts at u_l, chains bit for bit, ends exactly at u_r, and
    its wave speeds do not decrease."""
    bad = []
    if not waves:
        if list(u_l) != list(u_r):
            bad.append("empty fan for distinct states")
        return bad
    if waves[0]["left"] != list(u_l):
        bad.append(f"fan starts at {waves[0]['left']}, not {list(u_l)}")
    if waves[-1]["right"] != list(u_r):
        bad.append(f"fan ends at {waves[-1]['right']}, not {list(u_r)}")
    for a, b in zip(waves, waves[1:]):
        if a["right"] != b["left"]:
            bad.append(f"fan breaks between {a['right']} and {b['left']}")
        if _speed_lo(b) < _speed_hi(a) - FAN_ORDER_TOL:
            bad.append(f"fan speed drops from {_speed_hi(a)} to "
                       f"{_speed_lo(b)}")
    return bad


def rh_tolerance(w: dict) -> float:
    """Rankine-Hugoniot residual a solver shock may carry: the corrector
    residual, plus the endpoint snap of at most ENDPOINT_TOL in each
    component moving the residual by (|s| + |Df|_inf) times that, with
    |Df|_inf = max(1, sigma'(w)) = 1 + 3 w^2 on the right state."""
    s = abs(w["speed"])
    wr = abs(w["right"][1])
    return CORRECTOR_TOL + (s + 1.0 + 3.0 * wr * wr) * ENDPOINT_TOL


def psystem_shocks(waves: list) -> list:
    """Shocks satisfy Rankine-Hugoniot, the squared-speed identity
    s^2 = [sigma]/[w], and classical ones the Lax inequalities against the
    closed-form speeds -+sqrt(1 + 3 w^2)."""
    bad = []
    for w in waves:
        if w["kind"] not in SHOCKS:
            continue
        (vl, wl), (vr, wr), s = w["left"], w["right"], w["speed"]
        r1 = s * (vr - vl) + (_sigma(wr) - _sigma(wl))
        r2 = s * (wr - wl) + (vr - vl)
        tol = rh_tolerance(w)
        if not max(abs(r1), abs(r2)) <= tol:
            bad.append(f"shock {w['left']} -> {w['right']} at {s}: RH "
                       f"residual {max(abs(r1), abs(r2)):.3e} > {tol:.3e}")
        dw = wr - wl
        if dw != 0.0:
            err = abs(s * s - (_sigma(wr) - _sigma(wl)) / dw)
            tol_sq = (1.0 + abs(s)) * tol / abs(dw)
            if not err <= tol_sq:
                bad.append(f"shock {w['left']} -> {w['right']}: s^2 off "
                           f"[sigma]/[w] by {err:.3e} > {tol_sq:.3e}")
        if w["kind"] == CLASSICAL:
            fam = w["family"]
            lam_l, lam_r = _char_speed(wl, fam), _char_speed(wr, fam)
            if not (lam_l >= s - LAX_TOL and s >= lam_r - LAX_TOL):
                bad.append(f"classical shock at {s} violates Lax: "
                           f"{lam_l} / {lam_r}")
    return bad


def fronts_ordered(front_sets: list) -> list:
    """Tracked fronts stay strictly ordered in position and chained."""
    bad = []
    for k, fronts in enumerate(front_sets):
        for a, b in zip(fronts, fronts[1:]):
            if not a["x"] < b["x"]:
                bad.append(f"front set {k}: {a['x']} not left of {b['x']}")
            if a["right"] != b["left"]:
                bad.append(f"front set {k}: states break at {a['x']}")
    return bad
