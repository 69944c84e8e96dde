import tempfile

import pytest

from ncft import acceptance
from ncft.cli import CRITERIA


@pytest.fixture(scope="module")
def results():
    # one shared pass over all thirteen release checks; about half a
    # minute on two cores
    return acceptance.run_all()


def test_baseline_run_leaves_no_directory(tmp_path, monkeypatch):
    # the baseline's artifacts go to a temporary directory that is removed
    # once its MANIFEST dict is read
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    manifest = acceptance._baseline_manifest.__wrapped__()
    assert manifest["checks"]["c08"]["status"] == "pass"
    assert list(tmp_path.iterdir()) == []


def _verdict(results, key):
    entry = results[key]
    status = "PASS" if entry["passed"] else "FAIL"
    print(f"{key} {CRITERIA[key]}: {status} - {entry['detail']}")
    assert entry["passed"], f"{key} {CRITERIA[key]}: {entry['detail']}"


def test_c01_critical_maps_closed_forms(results):
    _verdict(results, "c01")


def test_c02_involution_and_companions(results):
    _verdict(results, "c02")


def test_c03_random_riemann_consistency(results):
    _verdict(results, "c03")


def test_c04_nucleation_branch_switch(results):
    _verdict(results, "c04")


def test_c05_strength_additivity(results):
    _verdict(results, "c05")


def test_c06_strength_parameter_bounds(results):
    _verdict(results, "c06")


def test_c07_quadratic_interaction_estimate(results):
    _verdict(results, "c07")


def test_c08_lyapunov_monotone_baseline(results):
    _verdict(results, "c08")


def test_c09_cycle_count_bound(results):
    _verdict(results, "c09")


def test_c10_no_nucleation_contrast(results):
    _verdict(results, "c10")


def test_c11_mass_conservation(results):
    _verdict(results, "c11")


def test_c12_classical_limit_convergence(results):
    _verdict(results, "c12")


def test_c13_elasticity_weak_solver(results):
    _verdict(results, "c13")
