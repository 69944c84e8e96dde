import collections
import contextlib
import dataclasses
import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncft import curves, kinetics, models
from ncft.kinetics import (
    KineticFunction,
    check_hypotheses,
    default_samples,
    mu_flat,
    mu_nucleation,
    mu_sharp,
    nucleation_gap,
    phi_flat,
    phi_sharp,
)
from ncft.models import cubic_model, elasticity_model

CUBIC = cubic_model()
ELAS = elasticity_model()
KIN = KineticFunction(theta=0.5, nucleation_gamma=0.5)
KIN_NONUCL = KineticFunction(theta=0.5, nucleation_gamma=0.0)

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("ci")


def test_mu_flat_interpolation():
    assert mu_flat(CUBIC, KIN, 1.0) == pytest.approx(-0.75, abs=1e-10)
    assert mu_flat(CUBIC, KIN, 0.4) == pytest.approx(-0.3, abs=1e-10)
    # mirror side
    assert mu_flat(CUBIC, KIN, -1.0) == pytest.approx(0.75, abs=1e-10)


def test_theta_limits():
    classical = KineticFunction(theta=0.0)
    assert mu_flat(CUBIC, classical, 1.0) == pytest.approx(-0.5, abs=1e-10)
    extreme = KineticFunction(theta=1.0)
    assert mu_flat(CUBIC, extreme, 1.0) == pytest.approx(-1.0, abs=1e-10)
    with pytest.raises(ValueError):
        KineticFunction(theta=1.2)


def test_mu_sharp_companion():
    assert mu_sharp(CUBIC, KIN, 1.0) == pytest.approx(-0.25, abs=1e-10)
    assert mu_sharp(CUBIC, KIN, 0.4) == pytest.approx(-0.1, abs=1e-10)
    lam_flat = curves.shock_speed(CUBIC, 1.0, phi_flat(CUBIC, KIN, 1.0))
    lam_sharp = curves.shock_speed(CUBIC, 1.0, phi_sharp(CUBIC, KIN, 1.0))
    assert lam_flat == pytest.approx(lam_sharp, abs=1e-12)
    assert lam_flat == pytest.approx(0.8125, abs=1e-10)


def test_mu_nucleation_interpolation():
    assert mu_nucleation(CUBIC, KIN, 1.0) == pytest.approx(-0.375, abs=1e-10)
    assert nucleation_gap(CUBIC, KIN, 1.0) == pytest.approx(0.125, abs=1e-10)
    # no nucleation: threshold collapses onto the companion
    assert mu_nucleation(CUBIC, KIN_NONUCL, 1.0) == pytest.approx(-0.25, abs=1e-10)
    assert nucleation_gap(CUBIC, KIN_NONUCL, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_elasticity_kinetic_values():
    assert mu_flat(ELAS, KIN, (0.0, 0.5)) == pytest.approx(-0.375, abs=1e-9)
    assert mu_sharp(ELAS, KIN, (0.0, 0.5)) == pytest.approx(-0.125, abs=1e-9)
    assert nucleation_gap(ELAS, KIN, (0.0, 0.5)) == pytest.approx(0.0625, abs=1e-9)


def test_contraction_measurement():
    rep = check_hypotheses(CUBIC, KIN, default_samples(CUBIC, 100, seed=4))
    assert rep.measured_Cff == pytest.approx(0.75, abs=1e-9)
    assert rep.grid["n_contraction_evaluated"] > 50


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_elasticity_contraction_exact_on_seeded_samples(seed):
    # samples just above the 1e-3 usable cutoff put the zero-dissipation
    # root at the roundoff floor; the exact 0.75 must still come out
    rep = check_hypotheses(ELAS, KIN, default_samples(ELAS, n=30, seed=seed))
    assert rep.measured_Cff == pytest.approx(0.75, abs=1e-8)
    assert rep.grid["n_contraction_evaluated"] > 10


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_conformance_reads_each_samples_record_once(model):
    # H1 and H4 share one critical record per sample; only H3's arcs,
    # through the first quarter of the usable samples, pass a sample's
    # own state to the hook again, at their centre
    reads = collections.Counter()

    def critical_fn(u, mu0):
        reads[u.tobytes()] += 1
        return model.critical_fn(u, mu0)

    samples = default_samples(model, 60, seed=1)
    rep = check_hypotheses(dataclasses.replace(model, critical_fn=critical_fn),
                           KIN, samples)
    far = [a for a in samples
           if abs(models.mu(model, a)) >= kinetics.NEAR_MANIFOLD]
    usable = []
    for a in far:
        try:
            curves._critical(model, a)
        except curves.CurveError:
            continue
        usable.append(a)
    assert len(usable) == rep.grid["n_usable"]
    arcs = usable[: max(1, len(usable) // 4)]
    for a in samples:
        n = reads[a.tobytes()]
        if not any(a is b for b in far):
            assert n == 0
        elif any(a is b for b in arcs):
            assert n == 2
        else:
            assert n == 1


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_the_conformance_pass_checks_each_state_once(model):
    # one critical record per H1 sample, per H4 image, per manifold probe
    # and per arc point, and one outer-ball check per sample, none per
    # arc or arc point: the curve cores check every state they reach
    reads = []

    def critical_fn(u, mu0):
        reads.append(u)
        return model.critical_fn(u, mu0)

    samples = default_samples(model, 60, seed=1)
    public = [(curves, "rarefaction_point"), (curves, "hugoniot_point"),
              (curves, "mu_flat_zero"), (kinetics, "mu_flat")]
    with contextlib.ExitStack() as stack:
        checks = stack.enter_context(mock.patch.object(
            models, "require_in_ball", wraps=models.require_in_ball))
        maps = [stack.enter_context(mock.patch.object(
            mod, name, wraps=getattr(mod, name))) for mod, name in public]
        grid = check_hypotheses(
            dataclasses.replace(model, critical_fn=critical_fn), KIN,
            samples).grid
    # the pass reads every state through the cores, none through a
    # public map
    assert [m.call_count for m in maps] == [0, 0, 0, 0]
    far = sum(abs(models.mu(model, a)) >= kinetics.NEAR_MANIFOLD
              for a in samples)
    probes = max(1, len(samples) // 10)
    arcs = max(1, grid["n_usable"] // 4)
    # on this draw every image, probe and arc point stays in the ball
    assert grid["n_contraction_evaluated"] == grid["n_usable"] > 30
    assert len(reads) == (far + grid["n_usable"] + probes
                          + kinetics.ARC_POINTS * arcs)
    assert checks.call_count == len(samples)


def test_check_hypotheses_pass():
    rep = check_hypotheses(CUBIC, KIN)
    assert rep.passed
    assert rep.measured_Cff == pytest.approx(0.75, abs=1e-8)
    assert rep.lipschitz_estimate == pytest.approx(0.75, abs=1e-6)
    for name in ("H1", "H2", "H3", "H4"):
        assert rep.hypotheses[name]["passed"], name
    d = rep.to_json_dict()
    assert d["grid"]["n_samples"] == 200


# sha256 of the conformance report on the default samples, as JSON with
# sorted keys, per (model, theta = gamma)
CONFORMANCE_SHA256 = {
    ("cubic", 0.5):
        "0679f84537bc3bcdaf683e623179ce3c2f3b1f641a5d916c22b14677a5fde831",
    ("cubic", 0.0):
        "460e90913ac3a359b6b8f6eb0cd4216381856620a1a047e154f43a99f5da3790",
    ("elasticity", 0.5):
        "d26e629e9d5a00c17449a670d6210a4797f9fb53728a8c3d9607d89a896b700e",
    ("elasticity", 0.0):
        "6130a0aa0abbf7c1f17fe8784ceaf6fd79cce7ebc786aa7c98cdc486b1c6a1ec",
}


@pytest.mark.parametrize("name, weight", sorted(CONFORMANCE_SHA256))
def test_conformance_report_keeps_its_bits(name, weight):
    model = {"cubic": CUBIC, "elasticity": ELAS}[name]
    kin = KineticFunction(theta=weight, nucleation_gamma=weight)
    report = check_hypotheses(model, kin)
    assert report.passed
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CONFORMANCE_SHA256[name, weight]


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_conformance_coverage_partitions_the_draw(model):
    # usable, skipped outside the ball and too near the manifold: each
    # sample counts once, whatever H3's manifold probes meet
    samples = default_samples(model) + [
        5e-4 * a for a in default_samples(model, 5, seed=1)]
    grid = check_hypotheses(model, KIN, samples).grid
    near = sum(abs(models.mu(model, a)) < kinetics.NEAR_MANIFOLD
               for a in samples)
    assert near >= 5
    assert (grid["n_usable"] + grid["n_skipped_ball"] + near
            == grid["n_samples"] == len(samples))


def test_check_hypotheses_theta_one_fails_band():
    rep = check_hypotheses(CUBIC, KineticFunction(theta=1.0))
    assert not rep.passed
    assert not rep.hypotheses["H1"]["passed"]
    assert rep.hypotheses["H1"]["witness"] is not None


def test_check_hypotheses_elasticity():
    rep = check_hypotheses(ELAS, KIN)
    assert rep.passed
    # the contraction constant transfers through the shared parameter algebra
    assert rep.measured_Cff == pytest.approx(0.75, abs=1e-6)
    assert rep.grid["n_contraction_evaluated"] > 20


@pytest.mark.parametrize("model", [CUBIC, ELAS], ids=["cubic", "elasticity"])
def test_h3_fails_when_the_kinetic_map_leaves_the_manifold(model):
    # the zero-dissipation parameter off by 0.01 at mu = 0 only, so the
    # kinetic value of a state on the manifold is theta * 0.01, not 0
    def critical_fn(u, mu0):
        m_nat, m_b0 = model.critical_fn(u, mu0)
        return m_nat, m_b0 + (0.01 if mu0 == 0.0 else 0.0)

    rep = check_hypotheses(dataclasses.replace(model, critical_fn=critical_fn),
                           KIN)
    assert not rep.hypotheses["H3"]["identity_on_manifold"]
    assert not rep.passed


def test_identity_at_manifold():
    assert mu_flat(CUBIC, KIN, 0.0) == 0.0
    assert np.allclose(phi_flat(CUBIC, KIN, 0.0), [0.0])


@given(st.floats(0.1, 1.3))
def test_band_and_gap_properties(u):
    flat = mu_flat(CUBIC, KIN, u)
    sharp = mu_sharp(CUBIC, KIN, u)
    nucl = mu_nucleation(CUBIC, KIN, u)
    nat = curves.mu_natural(CUBIC, u)
    b0 = curves.mu_flat_zero(CUBIC, u)
    # band: flat strictly inside (b0, nat]; threshold between nat and sharp
    assert b0 < flat <= nat + 1e-12
    assert nat - 1e-12 <= nucl <= sharp + 1e-12
    assert nucleation_gap(CUBIC, KIN, u) >= 0
    assert nucleation_gap(CUBIC, KIN, u) > 0  # gamma > 0 here


@given(st.floats(0.1, 1.3), st.one_of(st.just(0.0), st.floats(1e-9, 1.0)))
def test_gap_vanishes_iff_gamma_zero(u, gamma):
    kin = KineticFunction(theta=0.5, nucleation_gamma=gamma)
    gap = nucleation_gap(CUBIC, kin, u)
    if gamma == 0.0:
        assert gap == pytest.approx(0.0, abs=1e-12)
    else:
        assert gap > 0
