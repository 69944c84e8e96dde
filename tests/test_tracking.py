"""Front-tracking tests.

The multi-event scenarios are hand-derived: chord speeds follow
lam(a,b) = a^2+ab+b^2 for the cubic model, and the split/merge points
come from the nucleation threshold arithmetic at u_l = 1.
"""

import dataclasses
import hashlib
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncft import tracking
from ncft.kinetics import KineticFunction, phi_flat
from ncft.models import cubic_model, elasticity_model
from ncft.riemann import (
    KIND_CLASSICAL,
    KIND_NONCLASSICAL,
    KIND_PIECE,
    IdGen,
    Wave,
)
from ncft.tracking import (
    FrontSet,
    PatternBroken,
    conservation_report,
    init_fronts,
    next_collision,
    resolve_interaction,
    run,
)

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("ci")

CUBIC = cubic_model()
KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
KIN_G0 = KineticFunction(theta=0.5, nucleation_gamma=0.0)


def test_init_single_classical():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.375], [0.0], h=0.01)
    assert len(fs.fronts) == 1
    f = fs.fronts[0]
    assert f.wave.kind == KIND_CLASSICAL
    assert f.wave.speed == pytest.approx(0.765625, abs=1e-12)
    assert f.position == 0.0
    assert fs.y_id == f.id and fs.z_id is None


def test_init_rarefaction_discretized():
    fs = init_fronts(CUBIC, KIN, [1.0, 1.2], [0.0], h=0.05)
    assert len(fs.fronts) == 4
    for a, b in zip(fs.fronts, fs.fronts[1:]):
        assert np.array_equal(a.wave.right, b.wave.left)
        assert a.wave.speed < b.wave.speed
        assert a.position < b.position
    for f in fs.fronts:
        assert f.wave.kind == KIND_PIECE
        assert abs(f.wave.strength) <= 0.05 * (1 + 1e-9)
        assert f.wave.strength == pytest.approx(0.05, abs=1e-12)
    assert np.array_equal(fs.fronts[-1].wave.right, np.array([1.2]))
    assert fs.strong_ids == ()
    # chord speed of the first piece sits between the edge characteristics
    assert 3.0 < fs.fronts[0].wave.speed < 3.3075 + 1e-12


def test_init_equal_states_empty():
    fs = init_fronts(CUBIC, KIN, [0.5, 0.5], [0.0], h=0.01)
    assert fs.fronts == []


def test_init_three_state_pattern_tags():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.75, -0.375], [0.0, 0.02],
                     h=0.01, strong_jumps=[0, 1])
    assert len(fs.fronts) == 2
    n, c = fs.fronts
    assert n.wave.kind == KIND_NONCLASSICAL
    assert c.wave.kind == KIND_CLASSICAL
    assert fs.y_id == n.id and fs.z_id == c.id
    assert n.wave.speed == pytest.approx(0.8125, abs=1e-11)
    assert c.wave.speed == pytest.approx(0.984375, abs=1e-11)


def test_init_names_the_strong_front_that_breaks_the_pattern():
    # a classical shock at 0, then a nonclassical one at 0.1
    with pytest.raises(PatternBroken, match=r"^nonclassical strong front "
                       r"right of a classical one in data$"):
        init_fronts(CUBIC, KIN, [1.0, 0.5, -1.0], [0.0, 0.1], h=0.01,
                    strong_jumps=[0, 1])
    # a classical shock, then a nonclassical and a classical one
    with pytest.raises(PatternBroken, match=r"^3 strong fronts in data, "
                       r"the pattern has at most two$"):
        init_fronts(CUBIC, KIN, [1.0, 0.5, -0.25], [0.0, 0.1], h=0.01,
                    strong_jumps=[0, 1])
    # two single nonclassical jumps, the second to the kinetic state of -0.75
    with pytest.raises(PatternBroken,
                       match=r"^two nonclassical strong fronts in data$"):
        init_fronts(CUBIC, KIN, [1.0, -0.75, 0.5625], [0.0, 0.1], h=0.01,
                    strong_jumps=[0, 1])


def _dummy_front(x, v, uid):
    w = Wave(0, KIND_CLASSICAL, np.array([0.0]), np.array([0.0]), v, 0.1, uid)
    return tracking.Front(x, w)


def _fs(fronts, y_id=None, z_id=None, time=0.0):
    # the set holding these fronts
    waves = [f.wave for f in fronts]
    return FrontSet(time, waves,
                    np.array([f.position for f in fronts], dtype=float),
                    np.array([w.speed for w in waves], dtype=float),
                    np.array([w.id for w in waves], dtype=np.int64),
                    y_id, z_id, 0.01)


def test_next_collision_kinematics():
    fs = _fs([_dummy_front(0.0, 2.0, 1), _dummy_front(1.0, 1.0, 2)])
    t, k = next_collision(fs)
    assert t == pytest.approx(1.0, abs=1e-14)
    assert k == 0
    fs = _fs([_dummy_front(0.0, 1.0, 1), _dummy_front(1.0, 2.0, 2)])
    assert next_collision(fs) is None


def test_next_collision_tie_leftmost():
    fronts = [_dummy_front(0.0, 3.0, 1), _dummy_front(1.0, 1.0, 2),
              _dummy_front(2.0, -1.0, 3)]
    fs = _fs(fronts)
    t, k = next_collision(fs)
    assert t == pytest.approx(0.5, abs=1e-14)
    assert k == 0


def _next_collision_reference(fs):
    # the scalar scan over every gap that the array pass replaced
    best_t = None
    best_k = None
    fronts = fs.fronts
    for k, (a, b) in enumerate(zip(fronts, fronts[1:])):
        dv = a.wave.speed - b.wave.speed
        if dv <= tracking.SPEED_TIE:
            continue
        t = fs.time + (b.position - a.position) / dv
        if best_t is None or t < best_t - tracking.TIME_TIE:
            best_t, best_k = t, k
    if best_t is None:
        return None
    return best_t, best_k


def _moving_set(xs, speeds, time=0.0):
    fronts = [_dummy_front(float(x), float(v), k)
              for k, (x, v) in enumerate(zip(xs, speeds))]
    return _fs(fronts, time=time)


def _assert_matches_reference(fs):
    got = next_collision(fs)
    assert got == _next_collision_reference(fs)
    if got is not None:
        assert type(got[0]) is float
    return got


def test_next_collision_matches_the_scalar_scan_on_random_sets():
    rng = np.random.default_rng(15)
    found = 0
    for _ in range(300):
        n = int(rng.integers(0, 40))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n))
        # few distinct speeds give exact ties in speed and in time
        speeds = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], n)
        found += _assert_matches_reference(
            _moving_set(xs, speeds, float(rng.uniform(0, 3)))) is not None
    for _ in range(300):
        # every gap closes at speed difference 1, within a few TIME_TIE
        # of time 1: chains of near ties
        n = int(rng.integers(2, 30))
        gaps = 1.0 + 0.4e-12 * rng.integers(-4, 5, n - 1)
        xs = np.concatenate(([0.0], np.cumsum(gaps)))
        speeds = np.arange(n, 0, -1, dtype=float)
        found += _assert_matches_reference(_moving_set(xs, speeds)) is not None
    assert found > 400


def test_next_collision_follows_the_leader_through_a_near_tie_chain():
    # gap times 1, 1 - 0.6e-12, 1 - 1.2e-12: the second gap is within
    # TIME_TIE of the first, the third is not, so the scan moves to the
    # third; the leftmost gap within TIME_TIE of the minimum is the second
    fs = _moving_set([0.0, 1.0, 2.0 - 0.6e-12, 3.0 - 1.8e-12],
                     [3.0, 2.0, 1.0, 0.0])
    t, k = _assert_matches_reference(fs)
    assert k == 2
    assert t == pytest.approx(1.0 - 1.2e-12, abs=1e-15)
    # the second gap closes first, but within TIME_TIE of the first
    fs = _moving_set([0.0, 1.0, 2.0 - 0.5e-12], [2.0, 1.0, 0.0])
    t, k = _assert_matches_reference(fs)
    assert k == 0
    assert t == 1.0


def test_next_collision_skips_gaps_closing_within_the_speed_tie():
    tie = tracking.SPEED_TIE
    # speed differences: exactly SPEED_TIE at the first gap, twice it at
    # the second
    fs = _moving_set([0.0, 1e-12, 1.0], [tie, 0.0, -2 * tie])
    t, k = _assert_matches_reference(fs)
    assert k == 1
    for speeds in ([tie, 0.0, -tie], [0.0, 0.0, 0.0], [0.0, 1.0, 2.0]):
        fs = _moving_set([0.0, 1.0, 2.0], speeds)
        assert next_collision(fs) is None
        assert _assert_matches_reference(fs) is None
    assert _assert_matches_reference(_moving_set([0.0], [1.0])) is None
    assert _assert_matches_reference(_moving_set([], [])) is None


def test_cluster_slice_widens_to_every_front_near_the_meeting_point():
    # fronts 5 and 6 meet at x* = 5; the width CLUSTER_REL * |x*| = 5e-12
    # takes in three neighbours on each side, and the widening stops at
    # the first front beyond it
    near = [1e-12, 2e-12, 4e-12]
    xs = ([4.0, 5.0 - 8e-12] + [5.0 - d for d in reversed(near)]
          + [5.0, 5.0] + [5.0 + d for d in near] + [5.0 + 8e-12, 6.0])
    fs = SimpleNamespace(xs=np.array(xs))
    assert tracking._cluster_slice(fs, 5) == (2, 10, 5.0)
    # alone, the pair is its own cluster
    fs = SimpleNamespace(xs=np.array([4.0, 5.0, 5.0, 6.0]))
    assert tracking._cluster_slice(fs, 1) == (1, 3, 5.0)


def _chained_front(x, left, right, uid):
    w = Wave(0, KIND_CLASSICAL, np.array([left]), np.array([right]), 0.0,
             0.1, uid)
    return tracking.Front(x, w)


def test_check_accepts_a_chained_set():
    fronts = [_chained_front(0.0, 1.0, 0.5, 1),
              _chained_front(1.0, 0.5, 0.2, 2)]
    fs = _fs(fronts, y_id=2)
    assert fs.check() is fs
    copy = dataclasses.replace(fs, y_id=1).check()
    assert [(f.position, f.id) for f in copy.fronts] == [(0.0, 1), (1.0, 2)]


def test_check_rejects_unordered_positions():
    fronts = [_chained_front(0.0, 1.0, 0.5, 1),
              _chained_front(1.0, 0.5, 0.2, 2),
              _chained_front(1.0, 0.2, 0.1, 3)]
    fs = _fs(fronts, time=0.25)
    with pytest.raises(tracking.TrackingError,
                       match=r"^front positions not strictly ordered$"):
        fs.check()


def test_check_rejects_a_broken_state_chain():
    fronts = [_chained_front(0.0, 1.0, 0.5, 1),
              _chained_front(1.0, 0.5, 0.2, 2),
              _chained_front(2.0, 0.3, 0.1, 3)]
    fs = _fs(fronts)
    with pytest.raises(tracking.TrackingError,
                       match=r"^front states do not chain$"):
        fs.check()


def test_check_rejects_a_strong_id_with_no_front():
    fronts = [_chained_front(0.0, 1.0, 0.5, 1),
              _chained_front(1.0, 0.5, 0.2, 2)]
    fs = _fs(fronts, y_id=2, z_id=7)
    with pytest.raises(tracking.TrackingError,
                       match=r"^strong id 7 references no front$"):
        fs.check()


def test_resolve_weak_absorption_keeps_token():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.373], [0.0, 0.05], h=0.01)
    assert fs.y_id is not None
    col = next_collision(fs)
    assert col is not None
    fs2, ev = resolve_interaction(CUBIC, KIN, fs, col)
    assert len(ev.incoming) == 2
    assert list(ev.incoming_roles.values()) == ["y"]
    assert list(ev.outgoing_roles.values()) == ["y"]
    assert len(fs2.fronts) == 1
    assert fs2.fronts[0].wave.kind == KIND_CLASSICAL
    assert fs2.fronts[0].wave.right[0] == pytest.approx(-0.373, abs=1e-12)
    fs2.check()
    # the event keeps the returned set itself, safe because fronts are frozen
    assert ev.post is fs2
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs2.fronts[0].position = 0.0


def _absorption_with_a_right_neighbour():
    # y (id 0) meets the weak piece right of it (id 2) first; the shock
    # at x = 1 (id 3) stays right of the placed front
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.373, -0.36],
                     [0.0, 0.05, 1.0], h=0.01)
    col = next_collision(fs)
    assert fs.wave_ids[col[1]:col[1] + 2].tolist() == [fs.y_id, 2]
    return fs, col


def test_resolve_checks_the_chain_where_it_spliced():
    fs, col = _absorption_with_a_right_neighbour()
    solve = tracking.riemann.solve_riemann

    def off_by_one_ulp(*args):
        fan = solve(*args)
        last = fan.waves[-1]
        right = np.nextafter(last.right, np.inf)
        return tracking.WaveFan(fan.waves[:-1] + (
            dataclasses.replace(last, right=right),))

    with mock.patch.object(tracking.riemann, "solve_riemann", off_by_one_ulp):
        with pytest.raises(tracking.TrackingError,
                           match=r"^front states do not chain$"):
            resolve_interaction(CUBIC, KIN, fs, col)


def test_resolve_checks_the_order_of_the_whole_set():
    fs, col = _absorption_with_a_right_neighbour()

    def past_the_neighbour(x_star, n, width):
        return [x_star + 10.0 + k for k in range(n)]

    with mock.patch.object(tracking, "_ladder", past_the_neighbour):
        with pytest.raises(tracking.TrackingError,
                           match=r"^front positions not strictly ordered"):
            resolve_interaction(CUBIC, KIN, fs, col)


def test_run_names_the_event_time_once():
    # an order violation found while resolving an event reaches the
    # caller with the collision time added once
    fs, col = _absorption_with_a_right_neighbour()

    def past_the_neighbour(x_star, n, width):
        return [x_star + 10.0 + k for k in range(n)]

    with mock.patch.object(tracking, "_ladder", past_the_neighbour):
        with pytest.raises(tracking.TrackingError) as info:
            run(CUBIC, KIN, fs, t_end=1.0)
    assert str(info.value) == \
        f"front positions not strictly ordered at t={col[0]}"


def test_resolve_checks_that_strong_ids_survive_the_splice():
    fs, col = _absorption_with_a_right_neighbour()
    y_id = fs.y_id

    def tokens_left_behind(model, fs, incoming_roles, placed,
                           y_nonclassical):
        return {}

    with mock.patch.object(tracking, "_propagate_tokens", tokens_left_behind):
        with pytest.raises(tracking.TrackingError,
                           match=rf"^strong id {y_id} references no front$"):
            resolve_interaction(CUBIC, KIN, fs, col)
    # unpatched, the same event passes its checks
    fs2, ev = resolve_interaction(CUBIC, KIN, fs, col)
    assert fs2.y_id == ev.placed[0].id
    assert [f.id for f in fs2.fronts] == [ev.placed[0].id, 3]


def test_fronts_read_from_the_arrays_hold_python_floats():
    states, positions = _cubic_load(n=8)
    fs = init_fronts(CUBIC, KIN, states, positions, h=0.002, strong_jumps=[0])
    res = run(CUBIC, KIN, fs, t_end=2.0, snapshot_dt=0.5)
    assert res.events
    sets = [ev.post for ev in res.events] + res.snapshots + [res.final]
    fronts = [f for s in sets for f in s.fronts]
    for f in fronts:
        assert type(f.position) is float
        assert type(f.wave.speed) is float
    for ev in res.events:
        assert type(ev.time) is float and type(ev.position) is float
        for wv in ev.incoming + ev.placed:
            assert type(wv.speed) is float


def test_split_run_event_sequence():
    # C(1 -> -0.368) eats four rarefaction pieces of -0.005 each; the
    # second one pushes the right state past the threshold -0.375 and the
    # shock splits; the trailing classical then absorbs the rest
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.388], [0.0, 0.05], h=0.005)
    assert len(fs.fronts) == 5
    res = run(CUBIC, KIN, fs, t_end=0.5)
    assert len(res.events) == 4
    absorb1, split, absorb2, absorb3 = res.events
    assert list(split.incoming_roles.values()) == ["y"]
    assert sorted(split.outgoing_roles.values()) == ["y", "z"]
    kinds = [w.kind for w in split.outgoing.waves]
    assert kinds == [KIND_NONCLASSICAL, KIND_CLASSICAL]
    for ev in (absorb1, absorb2, absorb3):
        assert sorted(ev.outgoing_roles.values()) in (["y"], ["z"])
    assert len(res.final.fronts) == 2
    n, c = res.final.fronts
    assert n.wave.kind == KIND_NONCLASSICAL
    assert res.final.y_id == n.id and res.final.z_id == c.id
    assert n.position < c.position
    assert n.wave.speed == pytest.approx(0.8125, abs=1e-11)
    assert c.wave.speed == pytest.approx(1.004044, abs=1e-9)
    assert c.wave.right[0] == pytest.approx(-0.388, abs=1e-12)


def test_split_run_conservation():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.388], [0.0, 0.05], h=0.005)
    res = run(CUBIC, KIN, fs, t_end=0.5)
    rep = conservation_report(CUBIC, res)
    assert rep["corrected"] <= 1e-8
    assert rep["raw"] <= rep["budget"] + 1e-10


def test_merge_cycle_completes():
    # gamma=0: threshold is the companion -0.25; the down pieces trigger a
    # split, the weak up-shock then slows the trailing classical below the
    # nonclassical speed and the pair merges back
    fs = init_fronts(CUBIC, KIN_G0, [1.0, -0.24, -0.28, -0.24],
                     [0.0, 0.05, 0.1], h=0.005)
    res = run(CUBIC, KIN_G0, fs, t_end=1.0)
    splits = [ev for ev in res.events
              if sorted(ev.outgoing_roles.values()) == ["y", "z"] and
              len(ev.incoming_roles) == 1]
    merges = [ev for ev in res.events if len(ev.incoming_roles) == 2]
    assert len(splits) == 1
    assert len(merges) == 1
    merge = merges[0]
    assert sorted(merge.incoming_roles.values()) == ["y", "z"]
    assert [w.kind for w in merge.outgoing.waves] == [KIND_CLASSICAL]
    assert res.final.z_id is None
    assert len(res.final.fronts) == 1
    f = res.final.fronts[0]
    assert res.final.y_id == f.id
    assert f.wave.right[0] == pytest.approx(-0.24, abs=1e-12)
    assert f.wave.speed == pytest.approx(0.8176, abs=1e-11)
    rep = conservation_report(CUBIC, res)
    assert rep["corrected"] <= 1e-8


def test_merge_cycle_gamma_half_from_three_state():
    # prepared pattern plus an up-shock of 0.155, above the 0.125 gap
    fs = init_fronts(CUBIC, KIN, [1.0, -0.75, -0.375, -0.22],
                     [0.0, 0.02, 0.1], h=0.01, strong_jumps=[0, 1])
    res = run(CUBIC, KIN, fs, t_end=2.0)
    merges = [ev for ev in res.events if len(ev.incoming_roles) == 2]
    assert len(merges) == 1
    assert len(res.final.fronts) == 1
    assert res.final.fronts[0].wave.speed == pytest.approx(
        1 - 0.22 + 0.0484, abs=1e-11
    )
    assert res.final.z_id is None


def test_nonclassical_y_hit_by_weak_waves_keeps_the_pattern():
    # a nonclassical p-system front met by weak jumps of both families
    # with no z incoming: a classical shock trailing the outgoing
    # nonclassical wave is weak, so y stays nonclassical and no z is
    # minted (the data w = 0.5, a = 0.002, seed 0 of
    # scripts/pattern_probe.py)
    elas = elasticity_model()
    u_l = np.array([0.0, 0.5])
    states = [u_l, phi_flat(elas, KIN, u_l)]
    rng = np.random.default_rng(0)
    for _ in range(8):
        states.append(states[-1] + rng.uniform(-0.002, 0.002, 2))
    fs = init_fronts(elas, KIN, states, [0.1 * k for k in range(9)],
                     h=0.01, strong_jumps=[0])
    assert fs.z_id is None
    res = run(elas, KIN, fs, t_end=1.0)
    assert len(res.events) == 64
    assert res.final.z_id is None
    assert {role for ev in res.events
            for role in ev.outgoing_roles.values()} == {"y"}
    y = res.final.waves[res.final.index(res.final.y_id)]
    assert y.kind == KIND_NONCLASSICAL


def test_transport_only_run_and_snapshots():
    fs = init_fronts(CUBIC, KIN, [1.0, 0.5], [0.0], h=0.01)
    res = run(CUBIC, KIN, fs, t_end=1.0, snapshot_dt=0.25)
    assert res.events == []
    assert res.final.fronts[0].position == pytest.approx(1.75, abs=1e-14)
    assert [s.time for s in res.snapshots] == [0.0, 0.25, 0.5, 0.75, 1.0]
    d = res.snapshots[2].to_json_dict()
    assert d["t"] == 0.5
    assert d["fronts"][0]["x"] == pytest.approx(0.875)
    assert d["fronts"][0]["kind"] == KIND_CLASSICAL


@pytest.mark.parametrize("t_end, dt, count",
                         [(0.3, 0.1, 4), (1.0, 0.1, 11), (0.6, 0.2, 4)])
def test_snapshot_grid_ends_at_t_end(t_end, dt, count):
    # k*dt drifts past t_end at k = t_end/dt for these pairs; the final
    # set at t_end is the one snapshot there
    fs = init_fronts(CUBIC, KIN, [1.0, -0.368, -0.388], [0.0, 0.05], h=0.005)
    res = run(CUBIC, KIN, fs, t_end=t_end, snapshot_dt=dt)
    times = [s.time for s in res.snapshots]
    assert len(times) == count
    assert all(a < b for a, b in zip(times, times[1:]))
    assert max(times) <= t_end
    assert times[-1] == t_end
    assert res.snapshots[-1] is res.final
    assert times[1:-1] == [k * dt for k in range(1, count - 1)]


def test_fold_absorbs_tiny_waves():
    mid, frag = tracking.riemann.wave_curve_point(
        CUBIC, KIN, 1.0, 0, -0.75 - 1e-8, ids=IdGen()
    )
    expanded = tracking._expand(CUBIC, frag, 0.01, IdGen())
    assert len(expanded) == 2
    folded = tracking._fold_small(CUBIC, expanded, 0.01)
    assert len(folded) == 1
    (w,) = folded
    assert w.kind == KIND_NONCLASSICAL
    assert w.right[0] == pytest.approx(-0.75 - 1e-8, abs=1e-14)


def test_fold_gives_a_weak_first_wave_to_its_right_neighbour():
    # the first wave has no left neighbour, so its stronger right one takes
    # its jump, keeps its id and kind and moves at the widened jump's chord
    a, mid, b = np.array([1.0]), np.array([1.0 - 1e-8]), np.array([-0.75])
    weak = Wave.of(CUBIC, 0, KIND_CLASSICAL, a, mid, 3.0, 3)
    strong = Wave.of(CUBIC, 0, KIND_NONCLASSICAL, mid, b, 0.5, 4)
    (w,) = tracking._fold_small(CUBIC, [weak, strong], 0.01)
    assert w.left.tolist() == a.tolist() and w.right.tolist() == b.tolist()
    assert (w.id, w.kind, w.family) == (4, KIND_NONCLASSICAL, 0)
    assert w.speed == tracking.curves.chord_speed(CUBIC, a, b)
    assert w.strength == pytest.approx(weak.strength + strong.strength,
                                       rel=1e-15)


def test_pattern_broken_guard():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.375], [0.0], h=0.01)
    piece = Wave(0, KIND_PIECE, np.array([-0.375]), np.array([-0.38]),
                 0.4, -0.005, 999)
    with pytest.raises(PatternBroken):
        tracking._propagate_tokens(CUBIC, fs, {fs.fronts[0].id: "y"}, [piece],
                                   False)


def _strong_fan(kinds):
    # designated-family shocks of the given kinds, ids 900, 901, ...
    return [Wave(0, kind, np.array([0.0]), np.array([0.0]), 0.1 * k, 0.0,
                 900 + k) for k, kind in enumerate(kinds)]


def test_nonclassical_y_leaves_a_trailing_classical_shock_weak():
    fs = init_fronts(CUBIC, KIN, [1.0, -0.375], [0.0], h=0.01)
    roles = tracking._propagate_tokens(
        CUBIC, fs, {fs.fronts[0].id: "y"},
        _strong_fan([KIND_NONCLASSICAL, KIND_CLASSICAL]), True)
    assert roles == {900: "y"}
    assert (fs.y_id, fs.z_id) == (900, None)


@pytest.mark.parametrize("kinds, message", [
    ([KIND_CLASSICAL, KIND_NONCLASSICAL],
     "nonclassical wave right of its classical"),
    ([KIND_NONCLASSICAL, KIND_CLASSICAL, KIND_CLASSICAL],
     "3 strong candidates leaving an interaction"),
    ([KIND_NONCLASSICAL, KIND_NONCLASSICAL, KIND_CLASSICAL],
     "3 strong candidates leaving an interaction"),
], ids=["classical-nonclassical", "three-with-two-classical",
        "three-with-two-nonclassical"])
def test_nonclassical_y_keeps_the_order_and_count_guards(kinds, message):
    # the weak trailing classical shock is the one exception for a
    # nonclassical y met without z; other strong fans still break the
    # pattern
    fs = init_fronts(CUBIC, KIN, [1.0, -0.375], [0.0], h=0.01)
    with pytest.raises(PatternBroken, match=f"^{message}"):
        tracking._propagate_tokens(CUBIC, fs, {fs.fronts[0].id: "y"},
                                   _strong_fan(kinds), True)


def test_mass_window_guard():
    fs = init_fronts(CUBIC, KIN, [1.0, 0.5], [0.0], h=0.01)
    with pytest.raises(ValueError):
        tracking.mass(fs, 0.5, 1.0)
    m = tracking.mass(fs, -1.0, 1.0)
    assert m[0] == pytest.approx(1.0 * 1.0 + 0.5 * 1.0, abs=1e-14)


@given(ur=st.floats(-0.7, -0.2), width=st.floats(0.02, 0.2))
@settings(max_examples=25)
def test_run_invariants_random_data(ur, width):
    fs = init_fronts(CUBIC, KIN, [1.0, ur, ur + 0.01], [0.0, width], h=0.01)
    res = run(CUBIC, KIN, fs, t_end=0.3)
    for snap in res.snapshots:
        snap.check()
        assert len(snap.strong_ids) <= 2
    if res.final.y_id is not None and res.final.z_id is not None:
        fronts = {f.id: f for f in res.final.fronts}
        fy, fz = fronts[res.final.y_id], fronts[res.final.z_id]
        assert fy.position < fz.position
        assert fy.wave.kind in (KIND_NONCLASSICAL, KIND_CLASSICAL)
        assert fz.wave.kind == KIND_CLASSICAL
    rep = conservation_report(CUBIC, res)
    assert rep["corrected"] <= 1e-8


def _cubic_load(n=40, seed=5):
    # the benchmark's load data with fewer weak jumps
    rng = np.random.default_rng(seed)
    states = [1.0, -0.368]
    for d in rng.uniform(-0.004, 0.004, n):
        states.append(states[-1] + d)
    return states, [0.0] + [0.05 + 0.02 * k for k in range(n)]


def _run_digest(res) -> str:
    h = hashlib.sha256()
    for ev in res.events:
        row = [ev.time.hex(), ev.position.hex(), ev.index,
               [w.id for w in ev.incoming], [w.id for w in ev.placed],
               ev.post.y_id, ev.post.z_id]
        h.update(repr(row).encode())
    h.update(repr([f.position.hex() for f in res.final.fronts]).encode())
    return h.hexdigest()


# recorded before the front set was held in arrays
LOAD_EVENTS = 51
LOAD_DIGEST = ("aa714781ac62496d7afbb4766a339ed6"
               "13daf37197bc51f4b29b1b1de6c27dcd")


def test_load_run_keeps_its_bits():
    # digest of every event's time, position, index, incoming and placed
    # wave ids and strong ids after it, and of the final positions
    states, positions = _cubic_load()
    fs = init_fronts(CUBIC, KIN, states, positions, h=0.002, strong_jumps=[0])
    res = run(CUBIC, KIN, fs, t_end=6.0)
    assert len(res.events) == LOAD_EVENTS
    assert _run_digest(res) == LOAD_DIGEST


def _pressure_jumps(n=6, seed=0):
    # weak jumps of both components: pieces and shocks of both families
    rng = np.random.default_rng(seed)
    states = [np.array([0.0, 0.5])]
    for d in rng.uniform(-0.03, 0.03, (n, 2)):
        states.append(states[-1] + d)
    return states, [-1.0 + 2.0 * k / n for k in range(n)]


def _set_digest(fs) -> str:
    h = hashlib.sha256()
    h.update(repr([x.hex() for x in fs.xs.tolist()]).encode())
    h.update(repr([v.hex() for v in fs.speeds.tolist()]).encode())
    h.update(repr(fs.wave_ids.tolist()).encode())
    h.update(repr((fs.y_id, fs.z_id)).encode())
    return h.hexdigest()


# (model, states and positions, h, strong jumps, front count, digest),
# recorded while init_fronts still spliced each jump's fan into the set
INITIAL_SETS = {
    "cubic-load": (CUBIC, _cubic_load(), 0.002, [0], 52,
                   "e8edbf088f2bbaab78e8c4fb5aa246be"
                   "9fe0cc3f5d2ffc5fe81217ff8b1e57c7"),
    "cubic-three-state": (CUBIC, ([1.0, -0.75, -0.375, -0.22],
                                  [0.0, 0.02, 0.1]), 0.01, [0, 1], 3,
                          "925a050e2cf415952ee2c0e8d3725a91"
                          "5fa387b5ae8b2ac5b192d865e08a8b31"),
    "p-system": (elasticity_model(), _pressure_jumps(), 0.01, None, 15,
                 "72b8ad280ae5af43292991accde7edc0"
                 "04a8115f562c04f258192b81955c4d35"),
}


@pytest.mark.parametrize("name", sorted(INITIAL_SETS))
def test_initial_set_keeps_its_bits(name):
    # digest of the positions, speeds and ids of init_fronts' set and of
    # its strong tokens
    model, (states, positions), h, strong, n, digest = INITIAL_SETS[name]
    fs = init_fronts(model, KIN, states, positions, h=h, strong_jumps=strong)
    assert len(fs.waves) == n
    if model is not CUBIC:
        assert {w.family for w in fs.waves} == {0, 1}
        assert {w.kind for w in fs.waves} == {KIND_CLASSICAL, KIND_PIECE}
    assert _set_digest(fs) == digest
