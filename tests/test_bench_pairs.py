"""The verdicts scripts/bench_pairs.py gives a metric over parent/change
pairs, on synthetic pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("_bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RULES = {"wall_s": ("lower", 0.25), "riemann_solves_per_s": ("higher", 0.25),
         "curves.hugoniot_point.calls": ("lower", None)}
# the parent's runs: median 1.0, quartiles about 0.98 and 1.02
PARENT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


def _pairs(name, parent, change):
    return [{"seed": k,
             "parent": {"correct": True, "failed": 0,
                        "metrics": {name: {"value": p}}},
             "change": {"correct": True, "failed": 0,
                        "metrics": {name: {"value": c}}}}
            for k, (p, c) in enumerate(zip(parent, change))]


def _verdicts(name, parent, change):
    m = bench_pairs.summarize(_pairs(name, parent, change),
                              RULES)["metrics"][name]
    return m["change_wins"], m["claim_rule_met"], m["within_bound"]


def test_a_win_in_every_pair_meets_the_claim_rule():
    change = [0.8 * p for p in PARENT]
    assert _verdicts("wall_s", PARENT, change) == (10, True, True)
    # a rate is better higher
    assert _verdicts("riemann_solves_per_s", change, PARENT) == (10, True,
                                                                  True)
    # but not from fewer than ten pairs
    assert _verdicts("wall_s", PARENT[:9], change[:9]) == (9, False, True)


def test_eight_wins_in_ten_do_not_meet_it():
    change = [0.8 * p for p in PARENT[:8]] + [1.1 * p for p in PARENT[8:]]
    assert _verdicts("wall_s", PARENT, change) == (8, False, True)


def test_a_thirty_percent_regression_breaks_the_bound():
    change = [1.3 * p for p in PARENT]
    assert _verdicts("wall_s", PARENT, change) == (0, False, False)
    assert _verdicts("riemann_solves_per_s", PARENT,
                     [0.7 * p for p in PARENT]) == (0, False, False)


@pytest.mark.parametrize("factor, verdict", [(1.1, "unresolved"),
                                             (0.01, True)])
def test_a_parent_spread_wider_than_the_bound_leaves_it_unresolved(factor,
                                                                   verdict):
    # parent quartiles about 0.56 and 1.44 around a median of 1.0; a change
    # whose every run beats every parent run is still within the bound
    parent = [0.4, 0.5, 0.55, 0.6, 1.0, 1.0, 1.4, 1.45, 1.5, 1.6]
    change = [factor * p for p in parent]
    assert _verdicts("wall_s", parent, change)[2] == verdict


def test_a_metric_without_a_bound_has_no_bound_verdict():
    counts = [1000.0] * 10
    assert _verdicts("curves.hugoniot_point.calls", counts,
                     [800.0] * 10) == (10, True, None)
