"""The scripts import the ncft of their own checkout, wherever they are
run from; riemann_outcomes.py's report of moved outcomes, on hand-made
outcome lists."""

import importlib.util
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("script", ["run_contrast.py", "riemann_outcomes.py",
                                    "h_convergence.py", "pattern_probe.py"])
def test_script_runs_outside_the_checkout_without_pythonpath(script,
                                                             tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_contrast_writes_under_its_checkout_by_default(monkeypatch,
                                                      tmp_path):
    # run from elsewhere, the default --out is still the checkout's
    # out/contrast, which git ignores; parsing runs no experiment
    monkeypatch.syspath_prepend(SCRIPTS)
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(
        "_run_contrast", os.path.join(SCRIPTS, "run_contrast.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = module.arg_parser().parse_args([]).out
    assert out == os.path.join(os.path.dirname(SCRIPTS), "out", "contrast")
    assert module.arg_parser().parse_args(["--out", "x"]).out == "x"


def _outcomes_script(monkeypatch):
    # riemann_outcomes.py imports run_contrast as a sibling module
    monkeypatch.syspath_prepend(SCRIPTS)
    spec = importlib.util.spec_from_file_location(
        "_riemann_outcomes", os.path.join(SCRIPTS, "riemann_outcomes.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fan(k, waves, *states, key="theta=0.5,gamma=0.5"):
    return {"key": key, "problem": k, "waves": waves,
            "states": [[float.hex(x) for x in u] for u in states]}


def _failure(k, error, key="theta=0.5,gamma=0.5"):
    return {"key": key, "problem": k, "error": error}


def test_outcome_comparison_names_what_moved(monkeypatch):
    script = _outcomes_script(monkeypatch)
    shock, raref = ["1:ClassicalShock"], ["0:Rarefaction"]
    before = [
        _fan(0, shock, (0.1, 0.5), (0.2, 0.4)),
        _fan(1, shock, (0.1, 0.5), (0.2, 0.4)),
        _fan(2, shock, (0.1, 0.5), (0.2, 0.4)),
        _failure(3, "BallExit: left the ball at [-2.0643061050511244]"),
        _failure(4, "SolverError: stalled"),
        _failure(5, "SolverError: stalled"),
        _fan(6, raref, (0.0, 0.0), (0.1, 0.1)),
        _fan(0, raref, (0.0, 0.0), (0.1, 0.1), key="cubic/x"),
    ]
    after = [
        _fan(0, shock, (0.1, 0.5), (0.2, 0.4)),
        _fan(1, shock, (0.1, 0.5), (0.2, 0.4 + 2 ** -53)),
        _fan(2, shock, (0.1, 0.5 - 2 ** -52), (0.2, 0.4)),
        _failure(3, "BallExit: left the ball at [-2.064306105051125]"),
        _fan(4, shock, (0.1, 0.5), (0.2, 0.4)),
        _failure(5, "CurveError: no point"),
        _failure(6, "SolverError: stalled"),
        _fan(0, shock, (0.0, 0.0), (0.1, 0.1), key="cubic/x"),
    ]
    report = script.compare_outcomes(before, after)
    assert list(report) == ["theta=0.5,gamma=0.5", "cubic/x"]
    rep = report["theta=0.5,gamma=0.5"]
    assert ((rep["problems"], rep["solved"], rep["failed"], rep["bit_equal"])
            == (7, 3, 2, 1))
    assert rep["max_gap"] == 2 ** -52
    assert rep["new_failures"] == [6] and rep["new_solves"] == [4]
    assert rep["class_changes"] == [(5, "SolverError: stalled",
                                     "CurveError: no point")]
    assert [k for k, *_ in rep["message_changes"]] == [3]
    assert rep["wave_changes"] == []
    cubic = report["cubic/x"]
    assert cubic["wave_changes"] == [0] and cubic["bit_equal"] == 0
    lines = script.report_lines(report)
    assert lines[0] == (
        "theta=0.5,gamma=0.5: 1 of 3 fans solved on both sides bit-equal, "
        "2 moved, max |dstate| 2.22e-16; 0 changed their waves; 1 new and "
        "1 gone failures, 1 changed class; 1 of 2 failure messages changed")
    assert "  problem 0: waves changed" in lines


def test_outcome_comparison_needs_every_problem_before(monkeypatch):
    script = _outcomes_script(monkeypatch)
    with pytest.raises(ValueError, match="problem 1 of k"):
        script.compare_outcomes([_failure(0, "E: x", key="k")],
                                [_failure(1, "E: x", key="k")])


def test_dump_records_a_fans_waves_and_states_in_hex(monkeypatch):
    script = _outcomes_script(monkeypatch)
    fan = SimpleNamespace(waves=[
        SimpleNamespace(family=0, kind="Rarefaction", left=np.array([0.5]),
                        right=np.array([0.75])),
        SimpleNamespace(family=0, kind="ClassicalShock",
                        left=np.array([0.75]), right=np.array([-0.1]))])
    assert script.record("k", 3, "{...}", fan) == {
        "key": "k", "problem": 3,
        "waves": ["0:Rarefaction", "0:ClassicalShock"],
        "states": [["0x1.0000000000000p-1"], ["0x1.8000000000000p-1"],
                   [float.hex(-0.1)]]}
    assert script.record("k", 4, "E: x", None) == {"key": "k", "problem": 4,
                                                    "error": "E: x"}
    assert script.record("k", 5, "{}", SimpleNamespace(waves=[]))["states"] \
        == []
