"""Diagnostics tests.

Functional values are hand-computed from the cubic closed forms: the
projected parameter folds u<0 through -u, chord speeds follow
lam(a,b) = a^2+ab+b^2, and the three-state pattern at u_l=1 (theta=0.5,
gamma=0.5) has N at 0.8125, trailing classical at 0.984375, companion
-0.25, threshold -0.375, gap 0.125.
"""

import dataclasses
import hashlib
import json
from importlib import resources
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncft import cli, curves
from ncft import diagnostics as dg
from ncft import riemann, tracking
from ncft.kinetics import KineticFunction, phi_flat
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import (KIND_CLASSICAL, KIND_NONCLASSICAL, KIND_PIECE,
                          KIND_RAREFACTION, Wave)
from ncft.tracking import FrontSet, init_fronts, run

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("ci")

CUBIC = cubic_model()
ELAS = elasticity_model()
KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
KIN_G0 = KineticFunction(theta=0.5, nucleation_gamma=0.0)
W = dg.lemma_weights(0.75, zeta=0.1, K=1.0)


def _front(x, v, strength, uid, kind=KIND_CLASSICAL, family=0,
           left=0.0, right=0.0):
    w = Wave(family, kind, np.atleast_1d(np.asarray(left, dtype=float)),
             np.atleast_1d(np.asarray(right, dtype=float)), v, strength, uid)
    return tracking.Front(x, w)


def _fs(fronts, y_id=None, z_id=None):
    # the set holding these fronts
    waves = [f.wave for f in fronts]
    return FrontSet(0.0, waves,
                    np.array([f.position for f in fronts], dtype=float),
                    np.array([w.speed for w in waves], dtype=float),
                    np.array([w.id for w in waves], dtype=np.int64),
                    y_id, z_id, 0.01)


@pytest.fixture(scope="module")
def split_run():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.388], [0.0, 0.05], h=0.005)
    return run(CUBIC, KIN, fs, t_end=0.5, snapshot_dt=0.1)


@pytest.fixture(scope="module")
def merge_run_g0():
    fs = init_fronts(CUBIC, KIN_G0, [1.0, -0.24, -0.28, -0.24],
                     [0.0, 0.05, 0.1], h=0.005)
    return run(CUBIC, KIN_G0, fs, t_end=1.0, snapshot_dt=0.25)


@pytest.fixture(scope="module")
def merge_run_three_state():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.75, -0.375, -0.22],
                     [0.0, 0.02, 0.1], h=0.01, strong_jumps=[0, 1])
    return run(CUBIC, KIN, fs, t_end=2.0)


def test_lemma_weights_values():
    # designated family 1 of three: the rows of the designated, a lower
    # and a higher family
    assert W.row(1, 1) == (1.0 + 0.75 + 0.1, 1.0, 1.0)
    assert W.row(0, 1) == pytest.approx((0.9, 1.0, 1.1))
    assert W.row(2, 1) == pytest.approx((1.1, 1.0, 0.9))
    assert [f.name for f in dataclasses.fields(W)] == ["cff", "zeta", "K"]
    rep = dg.validate_constraints(W, k_floor=0.0)
    assert rep["passed"]
    assert rep["constraints"]["W1"]["margin"] == pytest.approx(0.1)
    assert rep["constraints"]["Q1"]["passed"]


def test_weights_positivity_enforced():
    # every weight of the table stays positive: K > 0 and |zeta| < 1; and
    # cff lies in [0, 1), as the lemma assumes
    for cff, zeta, K, match in [
            (0.75, 0.1, 0.0, "K must be positive"),
            (0.75, 0.1, -1.0, "K must be positive"),
            (0.75, 0.1, float("nan"), "K must be positive"),
            (0.75, 1.0, 1.0, "zeta"),
            (0.75, -1.0, 1.0, "zeta"),
            (1.0, 0.1, 1.0, "contraction"),
            (-0.1, 0.1, 1.0, "contraction")]:
        with pytest.raises(ValueError, match=match):
            dg.Weights(cff, zeta=zeta, K=K)


def test_validate_zeta_out_of_range_flagged():
    w = dg.lemma_weights(0.75, zeta=0.6)
    rep = dg.validate_constraints(w, k_floor=0.0)
    # the ordering rows still hold, only the range row trips
    assert rep["constraints"]["W2"]["passed"]
    assert rep["constraints"]["W3"]["passed"]
    assert not rep["constraints"]["zeta_range"]["passed"]
    assert not rep["passed"]


def test_validate_q1_floor():
    rep = dg.validate_constraints(W, k_floor=2.0)
    assert not rep["constraints"]["Q1"]["passed"]
    assert rep["constraints"]["Q1"]["margin"] == pytest.approx(-1.0)
    w2 = dg.lemma_weights(0.75, zeta=0.1, K=2.5)
    rep2 = dg.validate_constraints(w2, k_floor=2.0)
    assert rep2["constraints"]["Q1"]["passed"]


def test_wave_strength_examples():
    strength = curves.generalized_strength
    assert strength(CUBIC, 1.0, -0.75, 0) == pytest.approx(-0.25, abs=1e-10)
    s1 = strength(CUBIC, 1.0, -0.75, 0)
    s2 = strength(CUBIC, -0.75, -0.45, 0)
    s12 = strength(CUBIC, 1.0, -0.45, 0)
    assert s2 == pytest.approx(-0.3, abs=1e-10)
    assert s1 + s2 == pytest.approx(s12, abs=1e-10)
    assert strength(CUBIC, 0.7, 0.7, 0) == 0.0


def test_functionals_region_weights():
    strong = _front(0.0, 0.767, -0.632, uid=10)
    weak = _front(-1.0, 0.9, -0.01, uid=11)
    fs = _fs([weak, strong], y_id=10)
    v_l, v_m, v_r, total = dg.functionals(CUBIC, fs, W)
    assert v_l == pytest.approx(1.85 * 0.01)
    assert v_m == 0.0 and v_r == 0.0
    assert total == pytest.approx(0.0185)
    fs2 = _fs([strong, _front(1.0, 0.3, -0.01, uid=11)], y_id=10)
    assert dg.functionals(CUBIC, fs2, W)[2] == pytest.approx(0.01)


def test_functionals_no_strong_all_middle():
    fs = _fs([_front(0.0, 0.9, -0.01, uid=1), _front(1.0, 0.5, 0.02, uid=2)])
    v_l, v_m, v_r, total = dg.functionals(CUBIC, fs, W)
    assert v_l == 0.0 and v_r == 0.0
    assert v_m == pytest.approx(0.03)
    assert total == v_m


def test_functionals_missing_strong_identity():
    fs = _fs([_front(0.0, 0.9, -0.01, uid=1)], y_id=999)
    with pytest.raises(dg.DiagnosticsError):
        dg.functionals(CUBIC, fs, W)


# reference: the pair double loop that the array evaluation replaced; the
# array evaluation must give its bits exactly


def _ref_approaching(left, right):
    if left.family != right.family:
        return left.family > right.family
    return left.kind in dg.SHOCK_KINDS or right.kind in dg.SHOCK_KINDS


def _ref_potential(items, cc_index):
    """(Q0, Q1) over position-ordered (wave, speed) pairs."""
    q0 = 0.0
    q1 = 0.0
    for a in range(len(items)):
        wa, va = items[a]
        for b in range(a + 1, len(items)):
            wb, vb = items[b]
            if not _ref_approaching(wa, wb):
                continue
            p = abs(wa.strength) * abs(wb.strength)
            if wa.family != cc_index and wb.family != cc_index:
                q0 += p
            else:
                q1 += max(va - vb, 0.0) * p
    return q0, q1


def _ref_product(waves):
    product = 0.0
    for a in range(len(waves)):
        for b in range(a + 1, len(waves)):
            if _ref_approaching(waves[a], waves[b]):
                product += abs(waves[a].strength) * abs(waves[b].strength)
    return product


def _items(waves):
    return [(wv, wv.speed) for wv in waves]


def _potential(model, fs):
    return dg.pair_terms(fs.waves, fs.speeds, model.cc_index)


def _assert_blocks_match(model, waves):
    # every contiguous run of waves, as an event's incoming or placed
    # waves would be
    items = _items(waves)
    for lo in range(len(waves) + 1):
        for k in range(len(waves) - lo + 1):
            block = waves[lo:lo + k]
            q0, q1, product = dg.pair_sums(
                block, [wv.speed for wv in block], model.cc_index)
            assert (q0, q1) == _ref_potential(items[lo:lo + k],
                                              model.cc_index)
            assert product == _ref_product(block)


def _piece(x, v, strength, uid, family):
    state = [0.0, 0.5]
    return _front(x, v, strength, uid, kind=KIND_PIECE, family=family,
                  left=state, right=state)


def _shock(x, v, strength, uid, family):
    state = [0.0, 0.5]
    return _front(x, v, strength, uid, family=family, left=state,
                  right=state)


HAND_SETS = {
    "no-fronts": (CUBIC, []),
    "one-front": (CUBIC, [_front(0.0, 0.9, -0.01, uid=1)]),
    "equal-speeds": (CUBIC, [_front(0.0, 0.5, -0.01, uid=1),
                             _front(1.0, 0.5, -0.02, uid=2),
                             _front(2.0, 0.5, 0.03, uid=3)]),
    "zero-strength": (CUBIC, [_front(0.0, 0.9, 0.0, uid=1),
                              _front(1.0, 0.5, -0.02, uid=2),
                              _front(2.0, 0.1, 0.0, uid=3,
                                     kind=KIND_PIECE)]),
    "strong-front": (CUBIC, [_front(-1.0, 0.9, -0.01, uid=11),
                             _front(0.0, 0.767, -0.632, uid=10,
                                    kind=KIND_NONCLASSICAL),
                             _front(1.0, 0.3, 0.013, uid=12,
                                    kind=KIND_PIECE),
                             _front(2.0, 0.2, -0.007, uid=13)]),
    "one-family-pieces": (ELAS, [_piece(0.0, -1.0, 0.01, 1, 0),
                                 _piece(0.1, -0.9, 0.02, 2, 0),
                                 _piece(0.2, 0.9, 0.015, 3, 1),
                                 _piece(0.3, 1.0, 0.005, 4, 1)]),
    "both-families": (ELAS, [_shock(0.0, 1.1, -0.01, 1, 1),
                             _piece(0.1, -0.9, 0.02, 2, 0),
                             _shock(0.2, -1.2, -0.03, 3, 0),
                             _piece(0.3, 1.0, 0.005, 4, 1),
                             _shock(0.4, 0.8, -0.004, 5, 1)]),
}


@pytest.mark.parametrize("name", sorted(HAND_SETS))
def test_potential_matches_double_loop_hand_sets(name):
    model, fronts = HAND_SETS[name]
    fs = _fs(fronts)
    assert _potential(model, fs) == _ref_potential(_items(fs.waves),
                                                   model.cc_index)
    _assert_blocks_match(model, fs.waves)


def test_potential_speed_gap_weight():
    fs = _fs([_front(0.0, 0.9, -0.01, uid=1), _front(1.0, 0.5, -0.02, uid=2)])
    assert sum(_potential(CUBIC, fs)) == pytest.approx(
        0.4 * 0.0002, abs=1e-15)
    # rarefaction pieces of one family never approach each other
    fs2 = _fs([_front(0.0, 0.9, 0.01, uid=1, kind=KIND_PIECE),
               _front(1.0, 0.5, 0.02, uid=2, kind=KIND_PIECE)])
    assert sum(_potential(CUBIC, fs2)) == 0.0


def test_potential_first_sum_unweighted():
    # elasticity designates family 1; a family-0 pair lands in the
    # unweighted sum whatever its speeds
    fs = _fs([
        _front(0.0, -1.0, -0.01, uid=1, family=0, left=[0.0, 0.5],
               right=[0.0, 0.5]),
        _front(1.0, -1.2, 0.01, uid=2, family=0, kind=KIND_PIECE,
               left=[0.0, 0.5], right=[0.0, 0.5]),
    ])
    q0, q1 = _potential(ELAS, fs)
    assert q0 == pytest.approx(1e-4, abs=1e-18)
    assert q1 == 0.0


def test_potential_counts_strong_fronts():
    strong = _front(0.0, 0.767, -0.632, uid=10)
    weak = _front(-1.0, 0.9, -0.01, uid=11)
    fs = _fs([weak, strong], y_id=10)
    full = sum(_potential(CUBIC, fs))
    assert full == pytest.approx((0.9 - 0.767) * 0.632 * 0.01, abs=1e-15)


def test_perturbation_counts_weak_only():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.75, -0.375], [0.0, 0.02],
                     h=0.01, strong_jumps=[0, 1])
    assert dg.perturbation(fs.waves, fs.strong_ids) == 0.0
    strong = _front(0.0, 0.767, -0.632, uid=10)
    fs2 = _fs([strong, _front(1.0, 0.4, -0.01, uid=11),
               _front(2.0, 0.3, 0.02, uid=12)], y_id=10)
    assert dg.perturbation(fs2.waves, fs2.strong_ids) == pytest.approx(0.03)


def test_snapshot_of_split_initial(split_run):
    snap = dg.snapshot(CUBIC, split_run.initial, W)
    assert snap.V_L == 0.0 and snap.V_M == 0.0
    assert snap.V_R == pytest.approx(0.02, abs=1e-12)
    assert snap.W == snap.V_L + snap.V_M + snap.V_R
    assert snap.eps == pytest.approx(0.02, abs=1e-12)
    assert snap.Q > 0.0
    assert snap.lyapunov == pytest.approx(snap.W + W.K * snap.Q)
    assert len(snap.csv_row()) == len(dg.CSV_HEADER)


def test_strong_record_three_state():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.75, -0.375], [0.0, 0.02],
                     h=0.01, strong_jumps=[0, 1])
    fronts = {f.id: f for f in fs.fronts}
    fy, fz = fronts[fs.y_id], fronts[fs.z_id]
    assert fy.wave.left.tolist() == [1.0]
    assert fy.wave.right[0] == pytest.approx(-0.75, abs=1e-11)
    assert np.array_equal(fz.wave.left, fy.wave.right)
    assert fz.wave.right[0] == pytest.approx(-0.375, abs=1e-12)
    assert [fy.wave.speed, fz.wave.speed] == pytest.approx(
        [0.8125, 0.984375], abs=1e-11)


def test_classify_split_run(split_run):
    tags = [dg.classify_case(ev) for ev in split_run.events]
    assert [t for t, _ in tags] == ["Case3", "Case1", "Case3", "Case3"]
    assert tags[1] == ("Case1", "CR-4")


def test_classify_merge_run(merge_run_g0):
    tags = [dg.classify_case(ev)[0] for ev in merge_run_g0.events]
    assert tags.count("Case1") == 1
    assert tags.count("Case2") == 1
    assert tags[-1] == "Case2"
    assert all(t in ("Case1", "Case2", "Case3") for t in tags)


def test_classify_weak_weak_and_residual():
    fs = init_fronts(CUBIC, KIN, [0.5, 0.45, 0.42], [0.0, 0.05],
                     h=0.1, strong_jumps=[])
    res = run(CUBIC, KIN, fs, t_end=2.0)
    assert len(res.events) == 1
    assert dg.classify_case(res.events[0]) == ("WeakWeak", None)
    (row,) = dg.lyapunov_series(CUBIC, res.events, res.snapshots,
                                W)["events"]
    assert row["residual"] <= 1e-12
    assert row["product"] == pytest.approx(0.0015, abs=1e-12)
    assert row["product"] == _ref_product(res.events[0].incoming)


def _event(incoming, roles, n_out):
    # the three fields classify_case reads: incoming waves, given as
    # (family, kind) in position order with ids 0, 1, ..., the roles of
    # the strong ones by index, and the number of strong fronts out
    waves = [SimpleNamespace(id=k, family=f, kind=kind)
             for k, (f, kind) in enumerate(incoming)]
    return SimpleNamespace(incoming=waves, incoming_roles=roles,
                           outgoing_roles={k: "y" for k in range(n_out)})


CL, NC, RF = KIND_CLASSICAL, KIND_NONCLASSICAL, KIND_RAREFACTION


@pytest.mark.parametrize("incoming, roles, n_out, case", [
    ([(0, RF), (0, CL)], {}, 0, ("WeakWeak", None)),
    ([(0, NC), (0, CL)], {0: "y", 1: "z"}, 1, ("Case2", None)),
    ([(0, NC), (0, CL)], {0: "y", 1: "z"}, 2, ("Other", None)),
    ([(0, NC), (0, RF), (0, CL)], {0: "y", 2: "z"}, 1, ("Other", None)),
    ([(0, RF), (0, CL), (0, CL)], {1: "y"}, 2, ("Other", None)),
    ([(1, CL), (0, NC)], {1: "y"}, 2, ("Case6", None)),
    ([(0, CL), (1, RF)], {0: "z"}, 2, ("Case7", None)),
    ([(0, CL), (1, RF)], {0: "y"}, 1, ("Case5", None)),
    ([(0, RF), (0, NC)], {1: "y"}, 2, ("Case4", "RN")),
    ([(0, KIND_PIECE), (0, NC)], {1: "y"}, 2, ("Case4", "RN")),
    ([(0, CL), (0, NC)], {1: "y"}, 2, ("Case4", "CN-3")),
    ([(0, NC), (0, RF)], {0: "y"}, 2, ("Case4", "other")),
    ([(0, RF), (0, CL)], {1: "y"}, 2, ("Case1", "RC-3")),
    ([(0, CL), (0, CL)], {1: "y"}, 2, ("Case1", "CC-3")),
    ([(0, CL), (0, KIND_PIECE)], {0: "y"}, 2, ("Case1", "CR-4")),
    ([(0, CL), (0, CL)], {0: "y"}, 2, ("Case1", "other")),
    ([(0, RF), (0, CL)], {1: "y"}, 1, ("Case3", None)),
    ([(0, CL), (0, RF)], {0: "z"}, 2, ("Case3", None)),
], ids=lambda v: "-".join(str(x) for x in v) if isinstance(v, tuple)
    else None)
def test_classify_case_table(incoming, roles, n_out, case):
    assert dg.classify_case(_event(incoming, roles, n_out)) == case


def test_weak_rarefaction_crossing_the_nonclassical_front():
    # a lone classical y splits at a piece from the right; the pieces of a
    # rarefaction from the left then cross the nonclassical y (Case4 RN),
    # 0.02 in, 0.015 = 0.75 * 0.02 out
    fs = init_fronts(CUBIC, KIN, [0.98, 1.0, -0.368, -0.388],
                     [-0.4, 0.0, 0.02], h=0.01, strong_jumps=[1])
    res = run(CUBIC, KIN, fs, t_end=4.0)
    tags = [dg.classify_case(ev) for ev in res.events]
    assert len(tags) == 6
    assert tags.count(("Case4", "RN")) == 2
    audit = dg.cycle_audit(CUBIC, KIN, res.events, res.snapshots, W,
                           cff=0.75)
    (rec,) = audit.records
    assert rec.ledgers["alpha_L"] == pytest.approx(0.02, abs=1e-12)
    assert rec.ledgers["alpha_R_tilde"] == pytest.approx(0.015, abs=1e-12)


def test_weak_shock_crossing_the_nonclassical_front():
    # as above with a weak shock from the left (Case4 CN-3): the outgoing
    # nonclassical y and the classical shock behind it are not a split,
    # since only a classical y splits; 0.02 in, 0.015 out
    fs = init_fronts(CUBIC, KIN, [1.02, 1.0, -0.368, -0.388],
                     [-0.4, 0.0, 0.02], h=0.01, strong_jumps=[1])
    res = run(CUBIC, KIN, fs, t_end=4.0)
    assert [dg.classify_case(ev) for ev in res.events] == [
        ("Case1", "CR-4"), ("Case3", None), ("Case4", "CN-3"),
        ("Case3", None)]
    assert dg.lyapunov_series(CUBIC, res.events, res.snapshots,
                              W)["n_flagged"] == 0
    audit = dg.cycle_audit(CUBIC, KIN, res.events, res.snapshots, W,
                           cff=0.75)
    (rec,) = audit.records
    assert rec.tf is None
    assert rec.ledgers["alpha_L"] == pytest.approx(0.02, abs=1e-12)
    assert rec.ledgers["alpha_R_tilde"] == pytest.approx(0.015, abs=1e-12)


def test_glimm_residual_merge_exact(merge_run_three_state):
    res = merge_run_three_state
    rows = dg.lyapunov_series(CUBIC, res.events, res.snapshots, W)["events"]
    merges = [(ev, row) for ev, row in zip(res.events, rows)
              if row["case"] == "Case2"]
    assert len(merges) == 1
    ((ev, row),) = merges
    assert row["residual"] <= 1e-10
    assert row["product"] == pytest.approx(0.25 * 0.53, abs=1e-10)
    assert row["product"] == _ref_product(ev.incoming)


def test_event_deltas_monotone(split_run, monkeypatch):
    evaluated = []
    full_snapshot = dg.snapshot

    def counted(model, fs, *args, **kwargs):
        evaluated.append(fs)
        return full_snapshot(model, fs, *args, **kwargs)

    monkeypatch.setattr(dg, "snapshot", counted)
    rep = dg.lyapunov_series(CUBIC, split_run.events, split_run.snapshots, W)
    # one full evaluation per snapshot and none per event
    assert len(evaluated) == len(split_run.snapshots)
    assert rep["n_flagged"] == 0
    assert rep["max_delta"] <= dg.LYAPUNOV_TOL
    for row in rep["events"]:
        assert row["q_cluster_post"] == 0.0
        assert row["q_cluster_pre"] >= 0.0
    series = rep["series"]
    assert series[-1].lyapunov <= series[0].lyapunov
    for a, b in zip(series, series[1:]):
        assert b.lyapunov <= a.lyapunov + 1e-12
    rows = rep["events"]
    assert rows[0]["pre_lyapunov"] == series[0].lyapunov
    for prev, row in zip(rows, rows[1:]):
        assert row["pre_lyapunov"] == prev["post_lyapunov"]


def _weak_pressure_jumps(n=6, seed=0):
    rng = np.random.default_rng(seed)
    states = [np.array([0.0, 0.5])]
    for d in rng.uniform(-0.03, 0.03, (n, 2)):
        states.append(states[-1] + d)
    return states, [-1.0 + 2.0 * k / n for k in range(n)]


def _cubic_load_jumps(n=40):
    # the strong jump of the benchmark's load with fewer weak jumps
    rng = np.random.default_rng(0)
    states = [1.0, -0.368]
    for d in rng.uniform(-0.004, 0.004, n):
        states.append(states[-1] + d)
    return states, [0.0] + [0.05 + 0.02 * k for k in range(n)]


# (model, kinetics, states, positions, h, T); the strong jump is the one
# at x = 0
ORACLE_RUNS = {
    "cubic-split": (CUBIC, KIN, [1.0, -0.368, -0.388], [0.0, 0.05],
                    0.005, 0.5),
    "cubic-merge-gamma0": (CUBIC, KIN_G0, [1.0, -0.24, -0.28, -0.24],
                           [0.0, 0.05, 0.1], 0.005, 1.0),
    "cubic-load": (CUBIC, KIN, *_cubic_load_jumps(), 0.002, 2.0),
    "p-system": (ELAS, KIN, *_weak_pressure_jumps(), 0.01, 1.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_lyapunov_series_matches_full_recomputation(name):
    # the oracle evaluates the whole front set before and after every
    # event; the replay updates its running W+K*Q from each cluster, so
    # it agrees to rounding
    model, kin, states, positions, h, t_end = ORACLE_RUNS[name]
    fs = init_fronts(model, kin, states, positions, h=h)
    full = []
    while True:
        col = tracking.next_collision(fs)
        if col is None or col[0] > t_end:
            break
        pre = dg.snapshot(model, fs, W).lyapunov
        fs, _ = tracking.resolve_interaction(model, kin, fs, col)
        full.append((pre, dg.snapshot(model, fs, W).lyapunov))
    fs0 = init_fronts(model, kin, states, positions, h=h)
    res = run(model, kin, fs0, t_end=t_end)
    rows = dg.lyapunov_series(model, res.events, res.snapshots, W)["events"]
    assert len(full) >= 4
    assert len(rows) == len(full)
    for row, (pre, post) in zip(rows, full):
        assert abs(row["pre_lyapunov"] - pre) <= 1e-12 * max(1.0, abs(pre))
        assert abs(row["post_lyapunov"] - post) <= 1e-12 * max(1.0,
                                                                abs(post))


def _oracle_run(name):
    model, kin, states, positions, h, t_end = ORACLE_RUNS[name]
    fs = init_fronts(model, kin, states, positions, h=h)
    return model, run(model, kin, fs, t_end=t_end)


def test_replay_state_must_match_the_event(split_run):
    events = split_run.events
    state = dg.ReplayState.of(split_run.initial,
                              dg.snapshot(CUBIC, split_run.initial, W))
    _, after_first = dg.event_delta(CUBIC, events[0], W, state)
    # the incoming waves' ids do not sit at the event's index
    shifted = dataclasses.replace(events[1], index=events[1].index + 1)
    with pytest.raises(dg.DiagnosticsError, match="does not sit"):
        dg.event_delta(CUBIC, shifted, W, after_first)
    # the same event replayed twice: its incoming waves have left the set
    with pytest.raises(dg.DiagnosticsError, match="does not sit"):
        dg.event_delta(CUBIC, events[0], W, after_first)
    # a strong id after the event that names no front
    ghost = dataclasses.replace(
        events[1], post=dataclasses.replace(events[1].post, y_id=10 ** 9))
    with pytest.raises(dg.DiagnosticsError, match="references no front"):
        dg.event_delta(CUBIC, ghost, W, after_first)
    with pytest.raises(dg.DiagnosticsError, match="references no front"):
        dg.ReplayState.of(_fs([_front(0.0, 0.9, -0.01, uid=1)], y_id=999),
                          dg.snapshot(CUBIC, _fs([]), W))


def test_replay_relabels_when_strong_fronts_appear_or_vanish():
    # the tracker never mints the first token or retires the last, so the
    # strong ids are edited: weak fronts that were all middle become left
    # and right of a strong front, and back
    model, kin, states, positions, h, _ = ORACLE_RUNS["p-system"]
    fs = init_fronts(model, kin, states, positions, h=h, strong_jumps=[])
    _, ev = tracking.resolve_interaction(model, kin, fs,
                                         tracking.next_collision(fs))
    assert 0 < ev.index and ev.index + len(ev.incoming) < len(fs.fronts)

    def replayed(event, pre, post):
        state = dg.ReplayState.of(pre, dg.snapshot(model, pre, W))
        row, _ = dg.event_delta(model, event, W, state)
        full = dg.snapshot(model, post, W)
        assert abs(row["post_lyapunov"] - full.lyapunov) <= 1e-12
        return full, row["post_lyapunov"]

    post = dataclasses.replace(ev.post, y_id=ev.placed[0].id)
    gained, gained_bits = replayed(dataclasses.replace(ev, post=post), fs,
                                   post)
    assert gained.V_L > 0.0 and gained.V_R > 0.0
    lost, lost_bits = replayed(
        ev, dataclasses.replace(fs, y_id=ev.incoming[0].id), ev.post)
    assert lost.V_L == 0.0 and lost.V_R == 0.0
    # the full-W branch's bits, recorded before W had one loop
    assert gained_bits.hex() == "0x1.391ba03962709p-3"
    assert lost_bits.hex() == "0x1.2495387c9c3ccp-3"


# sha256 of each oracle run's replay (_replay_digest), recorded before W,
# eps and the crossing ledgers each had one definition
REPLAY_DIGESTS = {
    "cubic-load":
        "e760806d738304dcc76232d45bae0f8d77e176fb4443f73e4014e36a8372ba55",
    "cubic-merge-gamma0":
        "428cf36e26457f2605116479e520eeb3d5738f06a6373ab46ebac6f2920b93df",
    "cubic-split":
        "19e914150736ecc029baedfc85055d8fe1dc0444b79070f7018bb69a72dc3037",
    "p-system":
        "6ee0bb181d65447245ede3ba4f6644c9e4ff0314b7b9030cf66fd17e4a188d4d",
}


def _replay_digest(name):
    """sha256 over the float.hex of every snapshot field, every event
    row's numbers with its case, sub and flag, and the cycle audit's JSON
    with sorted keys."""
    model, res = _oracle_run(name)
    kin = ORACLE_RUNS[name][1]
    rep = dg.lyapunov_series(model, res.events, res.snapshots, W)
    audit = dg.cycle_audit(model, kin, res.events, res.snapshots, W,
                           cff=0.75)
    parts = [float(v).hex() for snap in rep["series"]
             for v in dataclasses.astuple(snap)]
    for row in rep["events"]:
        parts += [row["case"], str(row["sub"]), str(row["flagged"])]
        parts += [v.hex() for v in row.values() if type(v) is float]
    parts.append(json.dumps(audit.to_json_dict(), sort_keys=True))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_replay_keeps_its_bits(name):
    assert _replay_digest(name) == REPLAY_DIGESTS[name]


def test_oracle_runs_split_and_merge():
    cases = {dg.classify_case(ev)[0] for name in ORACLE_RUNS
             for ev in _oracle_run(name)[1].events}
    assert {"Case1", "Case2"} <= cases


def _baseline_with_jumps_cfg(sign, h):
    # the bundled cubic baseline to T = 2 with 20 weak jumps, every state
    # times sign, at cap h
    raw = json.loads(resources.files("ncft").joinpath(
        "configs", "cubic-baseline.json").read_text(encoding="utf-8"))
    deltas = np.random.default_rng(3).uniform(-0.02, 0.02, 20)
    raw["initial"]["u_star"] = [sign * u for u in raw["initial"]["u_star"]]
    x, main = raw["initial"]["main"]
    raw["initial"]["main"] = [x, [sign * d for d in main]]
    raw["initial"]["jumps"] = [[0.05 + 0.04 * k, [sign * float(d)]]
                               for k, d in enumerate(deltas)]
    raw.update(T=2.0, snapshot_dt=0.5, h=h)
    return cli.validate_config(raw)


def _baseline_with_jumps(sign, h):
    # that config tracked and replayed
    cfg = _baseline_with_jumps_cfg(sign, h)
    fronts0 = cli._initial_fronts(cfg, CUBIC, KIN)
    res = run(CUBIC, KIN, fronts0, t_end=cfg["T"],
              snapshot_dt=cfg["snapshot_dt"])
    return res, dg.lyapunov_series(CUBIC, res.events, res.snapshots, W)


@pytest.mark.parametrize("h, n_events", [(0.01, 25), (0.005, 35)])
def test_negated_data_negate_the_run_bit_for_bit(h, n_events):
    # u -> -u maps the cubic's flux, ball and kinetics onto themselves, so
    # the run on negated data is the negated run
    res, series = _baseline_with_jumps(1.0, h)
    neg, neg_series = _baseline_with_jumps(-1.0, h)
    assert len(res.events) == n_events
    assert [ev.time for ev in neg.events] == [ev.time for ev in res.events]
    assert neg.final.xs.tolist() == res.final.xs.tolist()
    assert ([w.kind for w in neg.final.waves]
            == [w.kind for w in res.final.waves])
    for w, v in zip(res.final.waves, neg.final.waves):
        assert (-v.left).tolist() == w.left.tolist()
        assert (-v.right).tolist() == w.right.tolist()
    assert ([(r["pre_lyapunov"], r["post_lyapunov"])
             for r in neg_series["events"]]
            == [(r["pre_lyapunov"], r["post_lyapunov"])
                for r in series["events"]])


def _scaling_data(name):
    # (model, strong jumps, states, positions, h, T), shifted to x >= 4:
    # near x = 0 the tracker's widths have an absolute unit of length, and
    # the relation holds only up to rounding there
    if name == "cubic":
        cfg = _baseline_with_jumps_cfg(1.0, 0.01)
        states, positions = cli.initial_profile(cfg)
        return CUBIC, [0], states, [4.0 + x for x in positions], 0.01, 2.0
    if name == "p-system-pattern":
        # the p-system pattern run (w = 0.5, a = 0.002, seed 0): a
        # nonclassical front met by eight weak jumps of both components.
        # Unshifted, at x = 0.1 k, its 64 event times and positions differ
        # from the scaled run's in the last bits, as the other data's do
        u_l = np.array([0.0, 0.5])
        states = [u_l, phi_flat(ELAS, KIN, u_l)]
        rng = np.random.default_rng(0)
        for _ in range(8):
            states.append(states[-1] + rng.uniform(-0.002, 0.002, 2))
        return ELAS, [0], states, [4.0 + 0.1 * k for k in range(9)], 0.01, 1.0
    # twelve weak jumps of both components from (0, 0.5), seed 0 or 1
    states, _ = _weak_pressure_jumps(12, seed=int(name[-1]))
    return ELAS, [], states, [4.0 + 0.05 * k for k in range(12)], 0.01, 1.0


def _scaled_run(model, strong, states, positions, h, T, s):
    # the run, and its replay rows, with positions and end time times s
    fronts0 = init_fronts(model, KIN, states, [s * x for x in positions],
                          h=h, strong_jumps=strong)
    res = run(model, KIN, fronts0, t_end=s * T)
    return res, dg.lyapunov_series(model, res.events, res.snapshots,
                                   W)["events"]


@pytest.mark.parametrize("name, n_events, s", [
    ("cubic", 25, 2.0), ("cubic", 25, 0.5), ("cubic", 25, 1024.0),
    ("p-system-seed0", 97, 2.0), ("p-system-seed0", 97, 0.5),
    ("p-system-seed1", 134, 2.0), ("p-system-seed1", 134, 0.5),
    ("p-system-pattern", 64, 2.0), ("p-system-pattern", 64, 0.5),
])
def test_dyadic_scaling_scales_the_run_bit_for_bit(name, n_events, s):
    # (x, t) -> (s x, s t) maps solutions onto solutions, and a power of
    # two scales every position and time without rounding: the run on
    # scaled data is the run with its times and positions times s, the
    # same states and the same W + K Q rows
    data = _scaling_data(name)
    res, rows = _scaled_run(*data, 1.0)
    scaled, scaled_rows = _scaled_run(*data, s)
    assert len(res.events) == len(scaled.events) == n_events
    assert ([ev.time for ev in scaled.events]
            == [s * ev.time for ev in res.events])
    assert ([ev.position for ev in scaled.events]
            == [s * ev.position for ev in res.events])
    for ev, sev in zip(res.events, scaled.events):
        assert ([(w.left.tolist(), w.right.tolist()) for w in sev.placed]
                == [(w.left.tolist(), w.right.tolist()) for w in ev.placed])
    assert scaled.final.xs.tolist() == (s * res.final.xs).tolist()
    assert ([(r["pre_lyapunov"], r["post_lyapunov"]) for r in scaled_rows]
            == [(r["pre_lyapunov"], r["post_lyapunov"]) for r in rows])


@pytest.mark.parametrize("name", ["cubic-load", "p-system"])
def test_potential_matches_double_loop_on_runs(name):
    model, res = _oracle_run(name)
    cc = model.cc_index
    sets = [res.initial] + [ev.post for ev in res.events] + [res.final]
    assert len(res.events) >= 10
    for fs in sets:
        assert _potential(model, fs) == _ref_potential(_items(fs.waves), cc)
    rows = dg.lyapunov_series(model, res.events, res.snapshots, W)["events"]
    for ev, row in zip(res.events, rows):
        q0, q1 = _ref_potential(_items(ev.incoming), cc)
        assert row["q_cluster_pre"] == q0 + q1
        q0, q1 = _ref_potential(_items(ev.placed), cc)
        assert row["q_cluster_post"] == q0 + q1
        assert row["product"] == _ref_product(ev.incoming)
    _assert_blocks_match(model, max(sets, key=lambda fs: len(fs.waves))
                         .waves[:24])


def test_lyapunov_series_merge_run(merge_run_g0):
    rep = dg.lyapunov_series(CUBIC, merge_run_g0.events,
                             merge_run_g0.snapshots, W)
    assert rep["n_flagged"] == 0
    assert rep["series"][-1].lyapunov <= 1e-12
    cases = [row["case"] for row in rep["events"]]
    assert "Case2" in cases


def test_cycle_audit_gamma0(merge_run_g0):
    audit = dg.cycle_audit(CUBIC, KIN_G0, merge_run_g0.events,
                           merge_run_g0.snapshots, W, cff=0.75)
    assert audit.n_completed == 1 and audit.n_open == 0
    rec = audit.records[0]
    assert rec.eta == pytest.approx(0.0, abs=1e-11)
    assert rec.checks["eta_condition"] is None
    assert rec.checks["drop_nonnegative"]
    assert rec.lyapunov_drop > 0.0
    assert rec.ledgers["alpha_R"] == pytest.approx(0.065, abs=1e-9)
    assert rec.n_crossings == 6
    assert audit.fitted_c is None
    assert audit.passed
    json.dumps(audit.to_json_dict())


def test_cycle_audit_three_state(merge_run_three_state):
    audit = dg.cycle_audit(CUBIC, KIN, merge_run_three_state.events,
                           merge_run_three_state.snapshots, W, cff=0.75)
    assert audit.n_completed == 1 and audit.n_open == 0
    rec = audit.records[0]
    assert rec.t0 == 0.0
    assert rec.eta == pytest.approx(0.125, abs=1e-9)
    assert rec.signed_variation == pytest.approx(0.155, abs=1e-9)
    assert rec.checks["eta_condition"]
    assert rec.ledgers["alpha_R"] == pytest.approx(0.155, abs=1e-9)
    # the whole initial Lyapunov stock burns down in one cycle
    assert rec.lyapunov_drop == pytest.approx(0.2173971875, rel=1e-6)
    assert audit.fitted_c == pytest.approx(1.7391775, rel=1e-6)
    assert audit.passed


def test_cycle_audit_open_cycle(split_run):
    audit = dg.cycle_audit(CUBIC, KIN, split_run.events, split_run.snapshots,
                           W, cff=0.75)
    assert audit.n_completed == 0 and audit.n_open == 1
    rec = audit.records[0]
    assert rec.open and rec.tf is None
    assert rec.ledgers["alpha_R"] == pytest.approx(0.01, abs=1e-10)
    assert rec.n_crossings == 2
    assert audit.fitted_c is None
    assert audit.passed


def test_cycle_audit_keeps_a_nested_split(split_run):
    # a split while a cycle is open ends that cycle malformed and opens
    # another; both stay in the audit
    (split,) = [ev for ev in split_run.events
                if dg.classify_case(ev)[0] == "Case1"]
    audit = dg.cycle_audit(CUBIC, KIN, [split, split], split_run.snapshots,
                           W, cff=0.75)
    assert [r.checks["well_formed"] for r in audit.records] == [False, True]
    assert audit.n_open == 2 and audit.n_completed == 0


def test_calibrate_scalar():
    rep = dg.calibrate(CUBIC, KIN, n=400, scales=(0.05, 0.02), seed=1)
    assert rep.n_evaluated == 400
    assert rep.max_zero_product_residual <= 1e-11
    assert rep.n_zero_product >= 1
    # same-side scalar strengths telescope: the fit is pure roundoff
    assert rep.fitted_glimm_C <= 1e-9
    assert rep.k_floor == 0.0
    assert rep.K_recommended == 1.0
    assert rep.witnesses == []
    per_scale_n = sum(v["n"] for v in rep.per_scale.values())
    assert per_scale_n == 400
    json.dumps(rep.to_json_dict())


def test_calibrate_builds_waves_for_kept_samples_only():
    # two waves per evaluated or zero-product sample, plus the waves of the
    # re-solved fans; a discarded pair builds none
    fan_waves = []
    solve = riemann.solve_riemann

    def solved(*args, **kwargs):
        fan = solve(*args, **kwargs)
        fan_waves.append(len(fan.waves))
        return fan

    with mock.patch.object(riemann, "solve_riemann", solved), \
            mock.patch.object(Wave, "of",
                              wraps=Wave.of) as built:
        rep = dg.calibrate(CUBIC, KIN, n=40, seed=2)
    assert rep.n_skipped > 0
    assert built.call_count == (2 * (rep.n_evaluated + rep.n_zero_product)
                                + sum(fan_waves))


@pytest.mark.parametrize("n", [0, -1])
def test_calibrate_rejects_fewer_than_one_sample(n):
    # no zero-product pair is drawn for a caller that asks for no samples
    with pytest.raises(ValueError, match="n >= 1"):
        dg.calibrate(CUBIC, KIN, n=n)


def test_calibrate_feeds_q1_row():
    rep = dg.calibrate(CUBIC, KIN, n=60, scales=(0.02,), seed=3)
    out = dg.validate_constraints(W, k_floor=rep.k_floor)
    assert out["constraints"]["Q1"]["passed"]


# sha256 of the report's JSON with sorted keys, recorded when the
# generalized strength began to read the involution's parameter from the
# critical hook: draws that failed through the strength now solve, so 31
# draws are skipped, not 37, and the 60 evaluated samples differ
P_SYSTEM_CALIBRATION = ("11cd49062cd365583a778716d89bedad"
                        "3488f21eaa4e46de388f8ead97d3ccde")


def test_p_system_calibration_keeps_its_bits():
    # system samples: pairs of both families, fans with rarefactions
    rep = dg.calibrate(ELAS, KIN, n=60, seed=3)
    assert rep.n_evaluated == 60
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == P_SYSTEM_CALIBRATION


@given(st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-0.4, 0.4),
              st.floats(-1.0, 1.0), st.booleans()),
    max_size=6,
))
def test_snapshot_invariants_synthetic(rows):
    fronts = []
    xs = set()
    for k, (x, s, v, shock) in enumerate(sorted(rows)):
        if x in xs or s != s:
            continue
        xs.add(x)
        fronts.append(_front(
            x, v, s, uid=k, kind=KIND_CLASSICAL if shock else KIND_PIECE))
    fs = _fs(fronts)
    snap = dg.snapshot(CUBIC, fs, W)
    assert _potential(CUBIC, fs) == _ref_potential(_items(fs.waves), 0)
    assert snap.V_L >= 0.0 and snap.V_M >= 0.0 and snap.V_R >= 0.0
    assert snap.W == snap.V_L + snap.V_M + snap.V_R
    assert snap.Q >= 0.0
    assert snap.eps == pytest.approx(sum(abs(f.wave.strength)
                                         for f in fronts))
    assert snap.lyapunov == pytest.approx(snap.W + W.K * snap.Q)
