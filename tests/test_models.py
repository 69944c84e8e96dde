import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncft import models
from ncft.models import cubic_model, elasticity_model, make_model

CUBIC = cubic_model()
ELAS = elasticity_model()

settings.register_profile("ci", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("ci")

# Central-difference step of the finite-difference references below.
FD_STEP = 1e-6
# Eigenvalues closer than this fail the eig reference's hyperbolicity guard.
EIGEN_GAP_TOL = 1e-10


# Analytic flux Jacobians and family-parameter gradients of the shipped
# models, keyed by model name; no part of the package reads them.


def _cubic_jacobian(u):
    return np.array([[3.0 * u[0] ** 2]])


def _elasticity_jacobian(u):
    return np.array([[0.0, -(3.0 * u[1] ** 2 + 1.0)], [-1.0, 0.0]])


def _cubic_parameter_grad(u, j):
    return np.array([1.0])


def _elasticity_parameter_grad(u, j):
    return np.array([0.0, -1.0]) if j == 0 else np.array([0.0, 1.0])


JACOBIAN = {"cubic": _cubic_jacobian, "elasticity": _elasticity_jacobian}
PARAMETER_GRAD = {"cubic": _cubic_parameter_grad,
                  "elasticity": _elasticity_parameter_grad}


# Generic references for the eigen_fn and m_fn hooks: np.linalg.eig of the
# Jacobian, normalized by central-difference parameter gradients, and the
# central difference of lambda_j along r_j.


def fd_parameter_grad(model, u, family: int):
    g = np.empty(model.N)
    for k in range(model.N):
        e = np.zeros(model.N)
        e[k] = FD_STEP
        g[k] = (
            model.family_parameter(u + e, family)
            - model.family_parameter(u - e, family)
        ) / (2 * FD_STEP)
    return g


def eig_eigen(model, u) -> tuple:
    """(lambdas, R, L) at u from np.linalg.eig of the analytic Jacobian,
    with R normalized so the finite-difference parameter gradient of
    family j has unit derivative along r_j."""
    a = models.as_state(model, u)
    A = np.asarray(JACOBIAN[model.name](a), dtype=float)
    lams, vecs = np.linalg.eig(A)
    if np.max(np.abs(lams.imag)) > 1e-10:
        raise ValueError(f"complex eigenvalues at {a.tolist()}")
    lams = lams.real
    order = np.argsort(lams)
    lams = lams[order]
    vecs = vecs.real[:, order]
    gaps = np.diff(lams)
    if model.N > 1 and np.min(gaps) < EIGEN_GAP_TOL:
        raise ValueError(
            f"eigenvalue gap {np.min(gaps):.3e} below tolerance at {a.tolist()}"
        )
    R = np.empty_like(vecs)
    for j in range(model.N):
        g = fd_parameter_grad(model, a, j)
        scale = float(g @ vecs[:, j])
        if abs(scale) < 1e-12:
            raise ValueError(
                f"family parameter {j} not transversal to its eigenvector at {a.tolist()}"
            )
        R[:, j] = vecs[:, j] / scale
    L = np.linalg.inv(R)
    return lams, R, L


def fd_m_value(model, u, family=None) -> float:
    """m_j = grad(lambda_j) . r_j by central differences on eig_eigen."""
    a = models.as_state(model, u)
    j = model.cc_index if family is None else family
    _, R, _ = eig_eigen(model, a)
    r = R[:, j]
    step = FD_STEP / max(1.0, float(np.linalg.norm(r)))
    lp = eig_eigen(model, a + step * r)[0][j]
    lm = eig_eigen(model, a - step * r)[0][j]
    return float((lp - lm) / (2 * step))


def test_cubic_eigenvalue_at_one():
    lams, R, L = models.eigen(CUBIC, 1.0)
    assert lams[0] == pytest.approx(3.0, abs=1e-14)
    assert R[0, 0] == 1.0 and L[0, 0] == 1.0


def test_cubic_manifold_point():
    assert CUBIC.m_fn((0.0,), CUBIC.cc_index) == 0.0
    assert models.mu(CUBIC, 0.0) == 0.0


def test_cubic_parameter_is_identity():
    assert models.mu(CUBIC, 0.7) == pytest.approx(0.7, abs=1e-15)


def test_cubic_entropy_pair():
    assert models.entropy_pair(CUBIC, 1.0) == pytest.approx((1.0, 1.5), abs=1e-15)
    assert models.entropy_pair(CUBIC, 0.0) == (0.0, 0.0)


def test_elasticity_eigenvalues():
    lams, R, L = models.eigen(ELAS, (0.0, 1.0))
    assert lams == pytest.approx([-2.0, 2.0], abs=1e-14)
    # biorthonormal frame
    assert L @ R == pytest.approx(np.eye(2), abs=1e-13)
    # parameter-normalized orientation: grad(param_j) . r_j = 1
    for j in range(2):
        g = PARAMETER_GRAD["elasticity"](np.array([0.0, 1.0]), j)
        assert g @ R[:, j] == pytest.approx(1.0, abs=1e-13)


def test_elasticity_parameter_projection():
    assert models.mu(ELAS, (0.3, -0.2)) == pytest.approx(-0.2, abs=1e-15)


def test_elasticity_entropy_pair():
    U, F = models.entropy_pair(ELAS, (1.0, 0.0))
    assert U == pytest.approx(0.5, abs=1e-15)
    assert F == 0.0


def test_ball_rejection():
    with pytest.raises(models.BallViolation):
        models.require_in_ball(CUBIC, 1.6)
    with pytest.raises(models.BallViolation):
        models.require_in_ball(ELAS, (1.2, 1.2))
    models.require_in_ball(CUBIC, 1.5)  # boundary is inside


def test_sup_norm_matches_numpy():
    # float(np.max(np.abs(x))) bit for bit: NaN in any position wins, the
    # signs of zeros and infinities drop
    specials = (0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan)
    vectors = [np.array([x]) for x in specials]
    vectors += [np.array([x, y]) for x in specials for y in specials]
    rng = np.random.default_rng(3)
    vectors += [rng.normal(size=n) * 10.0 ** rng.integers(-12, 12)
                for n in (1, 2, 3) for _ in range(50)]
    for x in vectors:
        want = float(np.max(np.abs(x)))
        got = models.sup_norm(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
    assert np.isnan(models.sup_norm(np.array([1.0, np.nan])))
    assert np.isnan(models.sup_norm(np.array([np.nan, 1.0])))
    with pytest.raises(ValueError):
        np.max(np.abs(np.array([])))
    with pytest.raises(ValueError):
        models.sup_norm(np.array([]))


def _numpy_scalar_hooks():
    # the p-system's flux, entropy, eigen_fn and m_fn as they were written
    # on the numpy scalars a state vector's components are
    def sigma(w):
        return w ** 3 + w

    def sigma_p(w):
        return 3.0 * w ** 2 + 1.0

    def flux(u):
        return np.array([-sigma(u[1]), -u[0]])

    def entropy(u):
        v, w = u
        return v * v / 2 + w ** 4 / 4 + w * w / 2, -v * sigma(w)

    def eigen_fn(u):
        s = np.sqrt(sigma_p(u[1]))
        return ((-s, s), ((-s, -s), (-1.0, 1.0)),
                ((-0.5 / s, -0.5), (-0.5 / s, 0.5)))

    def m_fn(u, j):
        return 3.0 * u[1] / np.sqrt(sigma_p(u[1]))

    return {"flux": flux, "entropy": entropy, "eigen_fn": eigen_fn,
            "m_fn0": lambda u: m_fn(u, 0), "m_fn1": lambda u: m_fn(u, 1)}


def _components(value):
    # every float a hook returns, in order, as its bytes
    if isinstance(value, (tuple, list, np.ndarray)):
        return [b for v in value for b in _components(v)]
    return [np.float64(value).tobytes()]


def test_elasticity_hooks_on_floats_match_numpy_scalars():
    # the hooks compute on Python floats and return numpy's bits for
    # every state of the outer ball, on it and at w = +-0.0 included; a
    # float raises where numpy overflows, so the claim stops at the ball
    reference = _numpy_scalar_hooks()
    hooks = {"flux": ELAS.flux, "entropy": ELAS.entropy,
             "eigen_fn": ELAS.eigen_fn,
             "m_fn0": lambda u: ELAS.m_fn(u, 0),
             "m_fn1": lambda u: ELAS.m_fn(u, 1)}
    rng = np.random.default_rng(29)
    states = models.sample_ball(ELAS, 1500, rng, radius="delta0", margin=1.0)
    states += [np.array([v, w]) for v in (0.0, -0.0, 0.7, -1.9)
               for w in (0.0, -0.0)]
    angles = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    states += [ELAS.delta0 * np.array([np.cos(t), np.sin(t)]) for t in angles]
    states += [np.array([0.0, 2.0]), np.array([0.0, -2.0]),
               np.array([-2.0, 0.0])]
    for u in states:
        assert models.within(u, ELAS.delta0), u
        for name, hook in hooks.items():
            want = _components(reference[name](u))
            assert _components(hook(u)) == want, (name, u)
            # a tuple state is a state too
            assert _components(hook(tuple(u.tolist()))) == want, (name, u)
    assert np.array_equal(ELAS.flux((0.0, -0.75)), [0.75 ** 3 + 0.75, -0.0])


def test_cubic_hooks_on_floats_match_numpy_scalars():
    # the cubic's flux, entropy, eigen_fn and hugoniot_fn as they were
    # written on numpy scalars, against the hooks on Python floats, over
    # the outer ball and parameters across it
    def reference(u, m):
        x = u[0]
        return [x ** 3, x ** 2, 1.5 * x ** 4, 3.0 * x ** 2,
                (m ** 3 - x ** 3) / (m - x)]

    def hooks(u, m):
        return [CUBIC.flux(u)[0], *CUBIC.entropy(u), CUBIC.eigen_fn(u)[0][0],
                CUBIC.hugoniot_fn(u, 0, m)[1]]

    rng = np.random.default_rng(31)
    pairs = rng.uniform(-CUBIC.delta0, CUBIC.delta0, (4000, 2)).tolist()
    pairs += [(x, m) for x in (0.0, -0.0, 2.0, -2.0, 1e-8)
              for m in (0.5, -1.5, 2.0 - 1e-9)]
    for x, m in pairs:
        u = np.array([x])
        want = _components(reference(u, m))
        assert _components(hooks(u, m)) == want, (x, m)
        assert _components(hooks((x,), m)) == want, (x, m)
    assert CUBIC.hugoniot_fn(np.array([1.0]), 0, -0.5)[0].dtype == np.float64


def test_field_kind_validation():
    # cc_index must name one of the N families
    for model in (CUBIC, ELAS):
        for bad in (-1, model.N):
            with pytest.raises(ValueError, match="cc_index"):
                dataclasses.replace(model, cc_index=bad)
    with pytest.raises(ValueError):
        dataclasses.replace(CUBIC, delta1=3.0)  # delta1 <= delta0


HOOKS = ("eigen_fn", "m_fn", "hugoniot_fn", "integral_curve_fn", "critical_fn")


@pytest.mark.parametrize("hook", HOOKS)
def test_every_hook_is_required(hook):
    fields = {f.name: getattr(CUBIC, f.name)
              for f in dataclasses.fields(CUBIC) if f.init}
    del fields[hook]
    with pytest.raises(TypeError, match=hook):
        models.FluxModel(**fields)


def test_make_model_dispatch():
    m = make_model("cubic", {"delta0": 4.0, "delta1": 3.0})
    assert m.delta0 == 4.0 and m.delta1 == 3.0
    with pytest.raises(ValueError):
        make_model("unknown")


# Sampled structural checks of a model: hyperbolicity gap, entropy
# compatibility, convexity, and the sign/transversality structure of the
# cc family.


def m_grad_along_r(model, u, family=None) -> float:
    """Directional derivative of m_j along r_j (transversality measure)."""
    a = models.as_state(model, u)
    j = model.cc_index if family is None else family
    _, R, _ = models.eigen(model, a)
    r = R[:, j]
    step = FD_STEP / max(1.0, float(np.linalg.norm(r)))
    return float(
        (model.m_fn(a + step * r, j) - model.m_fn(a - step * r, j))
        / (2 * step)
    )


# Analytic entropy gradients (grad U, grad F) and Hessians of U for the
# shipped models, keyed by model name.


def _cubic_entropy_grad(u):
    return np.array([2.0 * u[0]]), np.array([6.0 * u[0] ** 3])


def _cubic_entropy_hessian(u):
    return np.array([[2.0]])


def _elasticity_entropy_grad(u):
    v, w = u
    sigma = w ** 3 + w
    return np.array([v, sigma]), np.array([-sigma, -v * (3.0 * w ** 2 + 1.0)])


def _elasticity_entropy_hessian(u):
    return np.array([[1.0, 0.0], [0.0, 3.0 * u[1] ** 2 + 1.0]])


ENTROPY_GRAD = {"cubic": _cubic_entropy_grad,
                "elasticity": _elasticity_entropy_grad}
ENTROPY_HESSIAN = {"cubic": _cubic_entropy_hessian,
                   "elasticity": _elasticity_entropy_hessian}


def entropy_gradients(model, u, analytic: bool = True) -> tuple:
    """(grad U, grad F) at u: analytic for a shipped model unless analytic
    is False, else central differences."""
    a = models.as_state(model, u)
    if analytic and model.name in ENTROPY_GRAD:
        gU, gF = ENTROPY_GRAD[model.name](a)
        return np.asarray(gU, float), np.asarray(gF, float)
    gU = np.empty(model.N)
    gF = np.empty(model.N)
    for k in range(model.N):
        e = np.zeros(model.N)
        e[k] = FD_STEP
        Up, Fp = model.entropy(a + e)
        Um, Fm = model.entropy(a - e)
        gU[k] = (Up - Um) / (2 * FD_STEP)
        gF[k] = (Fp - Fm) / (2 * FD_STEP)
    return gU, gF


def compatibility_residual(model, u, analytic: bool = True) -> float:
    """Max-norm defect of grad(F)^T = grad(U)^T Df at u."""
    a = models.as_state(model, u)
    gU, gF = entropy_gradients(model, a, analytic)
    A = np.asarray(JACOBIAN[model.name](a), dtype=float)
    return float(np.max(np.abs(gF - gU @ A)))


def _fd_entropy_hessian(model, a):
    h = 1e-4
    H = np.empty((model.N, model.N))
    for i in range(model.N):
        for j in range(model.N):
            ei = np.zeros(model.N)
            ej = np.zeros(model.N)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                model.entropy(a + ei + ej)[0]
                - model.entropy(a + ei - ej)[0]
                - model.entropy(a - ei + ej)[0]
                + model.entropy(a - ei - ej)[0]
            ) / (4 * h * h)
    return H


def model_self_check(model, n_samples: int = 1000, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    states = models.sample_ball(model, n_samples, rng)
    min_gap = np.inf
    max_compat = 0.0
    min_hess_eig = np.inf
    sign_ok = True
    min_m_slope = np.inf
    for a in states:
        lams, R, L = models.eigen(model, a)
        if model.N > 1:
            min_gap = min(min_gap, float(np.min(np.diff(lams))))
        max_compat = max(max_compat, compatibility_residual(model, a))
        if model.name in ENTROPY_HESSIAN:
            H = np.asarray(ENTROPY_HESSIAN[model.name](a), dtype=float)
        else:
            H = _fd_entropy_hessian(model, a)
        min_hess_eig = min(min_hess_eig, float(np.min(np.linalg.eigvalsh(H))))
        muv = models.mu(model, a)
        mv = model.m_fn(a, model.cc_index)
        if abs(muv) > 1e-8 and np.sign(mv) != np.sign(muv):
            sign_ok = False
        min_m_slope = min(min_m_slope, m_grad_along_r(model, a))
    return {
        "n_samples": n_samples,
        "min_eigen_gap": None if model.N == 1 else min_gap,
        "max_compatibility_residual": max_compat,
        "min_entropy_hessian_eigenvalue": min_hess_eig,
        "cc_sign_agreement": sign_ok,
        "min_m_slope_along_r": min_m_slope,
    }


def test_cubic_self_check():
    rep = model_self_check(CUBIC, n_samples=200, seed=1)
    assert rep["max_compatibility_residual"] <= 1e-8
    assert rep["cc_sign_agreement"]
    assert rep["min_m_slope_along_r"] > 0
    assert rep["min_entropy_hessian_eigenvalue"] > 0


def test_elasticity_self_check():
    rep = model_self_check(ELAS, n_samples=200, seed=2)
    assert rep["max_compatibility_residual"] <= 1e-8
    assert rep["cc_sign_agreement"]
    assert rep["min_m_slope_along_r"] > 0
    # gap 2*sqrt(3w^2+1) never falls below 2
    assert rep["min_eigen_gap"] >= 2.0 - 1e-12


def test_eigen_gap_floor_thousand_samples():
    rep = model_self_check(ELAS, n_samples=1000, seed=3)
    assert rep["min_eigen_gap"] >= 2.0 - 1e-12


def test_generic_fallbacks_match_analytic():
    # the eigen_fn and m_fn hooks against the eig and finite-difference
    # references, and the entropy pair against the Jacobian by differences
    for seed, model in ((7, ELAS), (8, CUBIC)):
        rng = np.random.default_rng(seed)
        for a in models.sample_ball(model, 25, rng):
            lams_a, R_a, _ = models.eigen(model, a)
            lams_g, R_g, L_g = eig_eigen(model, a)
            assert lams_g == pytest.approx(lams_a, abs=1e-10)
            assert R_g == pytest.approx(R_a, abs=1e-6)
            assert L_g @ R_g == pytest.approx(np.eye(model.N), abs=1e-10)
            assert fd_m_value(model, a) == pytest.approx(
                model.m_fn(a, model.cc_index), abs=1e-5
            )
            assert compatibility_residual(model, a, analytic=False) <= 1e-8


def test_elasticity_m_formula():
    # m = 3w / sqrt(3w^2+1) for both families in this orientation
    for w in (-0.8, -0.1, 0.3, 1.0):
        want = 3 * w / np.sqrt(3 * w * w + 1)
        assert ELAS.m_fn((0.2, w), 0) == pytest.approx(want, abs=1e-14)
        assert ELAS.m_fn((0.2, w), 1) == pytest.approx(want, abs=1e-14)


@given(st.floats(-1.4, 1.4))
def test_cubic_sign_structure(u):
    muv = models.mu(CUBIC, u)
    mv = CUBIC.m_fn((u,), CUBIC.cc_index)
    assert mv == pytest.approx(6 * u, abs=1e-14)
    if abs(muv) > 1e-12:
        assert np.sign(mv) == np.sign(muv)


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_elasticity_frame_properties(v, w):
    a = np.array([v, w])
    if not models.in_ball(ELAS, a):
        return
    lams, R, L = models.eigen(ELAS, a)
    assert lams[0] < 0 < lams[1]
    assert L @ R == pytest.approx(np.eye(2), abs=1e-12)
    A = JACOBIAN["elasticity"](a)
    for j in range(2):
        assert A @ R[:, j] == pytest.approx(lams[j] * R[:, j], abs=1e-12)
