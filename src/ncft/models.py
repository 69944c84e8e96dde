"""Flux models for 1-D systems of conservation laws.

A FluxModel bundles the flux, a strictly convex entropy pair, and the
per-family structure the wave machinery needs: a smooth scalar parameter
for every characteristic family and the index of the designated
concave-convex family, whose genuine-nonlinearity measure m changes sign
across a manifold that the family's integral curves cross transversally.
Every model supplies its eigenstructure, its wave curves and its critical
maps in closed form, as required hooks; the package has no numerical
fallback for any of them.

States are numpy vectors of length N. Solver-facing entry points check
inputs against the inner working ball (radius delta1); the curve layer
accepts the outer ball (radius delta0), because critical-point
compositions legitimately roam beyond the inner one.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

BALL_TOL = 1e-12


class Memo:
    """A model's memo: one entry per state, keyed by the state's bytes,
    holding the state's critical record and its kinetic values; it holds
    no curves. The critical maps keep the record under one name, the
    kinetics their values under (map, KineticFunction) pairs, so equal
    kinetic functions share them. Whenever an access finds more
    than LIMIT entries, the memo clears whole first.
    """

    LIMIT = 8192

    def __init__(self):
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def value(self, name, u: Array, compute: Callable):
        """The value called name of state u, from compute() once; None is
        a value like any other. A computation that raises leaves no
        entry."""
        if len(self._entries) > self.LIMIT:
            self._entries.clear()
        key = u.tobytes()
        entry = self._entries.get(key)
        if entry is not None and name in entry:
            return entry[name]
        value = compute()
        # compute may have added this state's entry, or cleared the memo
        self._entries.setdefault(key, {})[name] = value
        return value


class BallViolation(ValueError):
    """State outside the working ball."""


@dataclasses.dataclass(frozen=True)
class FluxModel:
    """A hyperbolic system with entropy pair and family parameters.

    flux and entropy are functions of the state vector; entropy returns
    the pair (U, F). family_parameter(u, j) is the scalar parameter of
    family j, strictly monotone along the family's integral curves; for
    the designated concave-convex family (cc_index) it is the global
    parameter mu with mu = 0 exactly on the sign-change manifold of m.
    cc_index names one of the N families; every other family is solved
    with a single classical shock or rarefaction, away from its own
    sign-change manifold, and no family has contact discontinuities.

    The five hooks are required closed forms; the package has no
    numerical fallback for any of them, and leaving one out is a
    TypeError.

    eigen_fn(u) returns (lambdas, R, L): eigenvalues ascending, columns
    of R the right eigenvectors normalized so the directional derivative
    of the family parameter along r_j equals 1, rows of L the
    biorthonormal left eigenvectors. The normalization makes the
    parameter the natural arclength along integral curves and makes
    m_fn(u, j) = grad(lambda_j) . r_j the derivative of lambda_j in that
    parameter.

    The curve hooks give the wave curves through u_minus, indexed by the
    family parameter m of the state reached: hugoniot_fn(u_minus, j, m)
    returns (state, shock speed) on the Hugoniot locus,
    integral_curve_fn(u_minus, j, m) the state on the integral curve of
    r_j.

    The critical hook critical_fn(u, mu0) gives the critical maps of the
    designated family at u, whose parameter in that family is mu0: it
    returns the pair (tangency parameter, zero-dissipation parameter).
    The model also promises that the chord speed along the Hugoniot
    locus of u is symmetric about the tangency parameter m_nat, so that
    the equal-speed companion of m is 2 m_nat - m; the left contact and
    the zero-dissipation companion follow from that rule. A returned
    parameter whose Hugoniot state leaves the outer ball is an error
    (or, for the left contact, None). The generalized strength reads the
    zero-dissipation parameter as it is and builds no companion state.

    Every hook accepts any indexable state, a tuple as well as a vector,
    and a hook that returns a state returns a float64 vector. The public
    functions of this module and of curves coerce their state with
    as_state and check its ball; the Riemann walk does not. It checks a
    state once, where it enters a walk (riemann.solve_riemann,
    riemann.wave_curve_point, the calibration pairs of diagnostics) or
    where a curve hook produces it, and from there riemann._jumps, its
    shock and rarefaction steps and the curve cores
    (curves._hugoniot_core, curves._integral_core) pass those checked
    float64 vectors to the hooks as they are.

    cache is the model's Memo: one entry per state for its critical
    record and its kinetic values, cleared whole once it holds more than
    Memo.LIMIT entries. The critical maps and the kinetics fill it
    through Memo.value; a curve point adds no entry, and no curve is
    kept. It takes no part in construction, comparison or hashing.
    """

    name: str
    N: int
    flux: Callable[[Array], Array]
    entropy: Callable[[Array], tuple]
    delta0: float
    delta1: float
    cc_index: int
    family_parameter: Callable[[Array, int], float]
    eigen_fn: Callable[[Array], tuple]
    m_fn: Callable[[Array, int], float]
    hugoniot_fn: Callable[[Array, int, float], tuple]
    integral_curve_fn: Callable[[Array, int, float], Array]
    critical_fn: Callable[[Array, float], tuple]
    cache: Memo = dataclasses.field(default_factory=Memo, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.delta1 <= self.delta0):
            raise ValueError("ball radii must satisfy 0 < delta1 <= delta0")
        if not (0 <= self.cc_index < self.N):
            raise ValueError(f"cc_index must name one of the {self.N} "
                             f"families, got {self.cc_index}")


def as_state(model: FluxModel, u) -> Array:
    """Coerce scalars / sequences to a float vector of length model.N. A
    float64 vector of that shape comes back as is, not copied."""
    if (type(u) is np.ndarray and u.dtype == np.float64
            and u.shape == (model.N,)):
        return u
    a = np.atleast_1d(np.asarray(u, dtype=float))
    if a.shape != (model.N,):
        raise ValueError(f"state must have {model.N} components, got shape {a.shape}")
    return a


def within(u: Array, r: float, tol: float = BALL_TOL) -> bool:
    """Whether the state vector u lies in the ball of radius r; its norm
    is the one np.linalg.norm takes of a 1-D float vector, sqrt(u . u)."""
    return math.sqrt(float(u.dot(u))) <= r + tol


def sup_norm(x: Array) -> float:
    """float(np.max(np.abs(x))) bit for bit, NaN in any position included,
    without numpy's per-call cost on the short vectors states are; an
    empty x raises ValueError, as numpy does."""
    vals = x.tolist()
    if not vals:
        raise ValueError("zero-size array to reduction operation maximum "
                         "which has no identity")
    best = abs(vals[0])
    for v in vals[1:]:
        v = abs(v)
        if v > best or v != v:
            best = v
    return float(best)


def in_ball(model: FluxModel, u: Array, radius: str = "delta1",
            tol: float = BALL_TOL) -> bool:
    """Whether the state vector u lies in the model's ball named radius."""
    r = model.delta1 if radius == "delta1" else model.delta0
    return within(u, r, tol)


def require_in_ball(model: FluxModel, u, radius: str = "delta1") -> Array:
    a = as_state(model, u)
    if not in_ball(model, a, radius):
        r = model.delta1 if radius == "delta1" else model.delta0
        raise BallViolation(
            f"state {a.tolist()} outside working ball of radius {r} ({radius})"
        )
    return a


def eigen(model: FluxModel, u) -> tuple:
    """Eigenstructure (lambdas, R, L) at u, from the model's eigen_fn.

    Eigenvalues ascending; columns of R are right eigenvectors normalized
    so grad(family_parameter_j) . r_j = 1; rows of L are the biorthonormal
    left eigenvectors (L = R^-1, so l_j . r_k = delta_jk).
    """
    lams, R, L = model.eigen_fn(as_state(model, u))
    return np.asarray(lams, float), np.asarray(R, float), np.asarray(L, float)


def char_speed(model: FluxModel, u, j: int) -> float:
    """Characteristic speed lambda_j at u: eigen(model, u)[0][j], read
    straight from the eigen_fn hook's eigenvalues."""
    return float(model.eigen_fn(as_state(model, u))[0][j])


def mu(model: FluxModel, u) -> float:
    """Global parameter of the designated concave-convex family."""
    a = as_state(model, u)
    return float(model.family_parameter(a, model.cc_index))


def m_value(model: FluxModel, u, family: Optional[int] = None) -> float:
    """Genuine-nonlinearity measure m_j = grad(lambda_j) . r_j."""
    j = model.cc_index if family is None else family
    return float(model.m_fn(as_state(model, u), j))


def entropy_pair(model: FluxModel, u) -> tuple:
    a = as_state(model, u)
    U, F = model.entropy(a)
    return float(U), float(F)


def sample_ball(model: FluxModel, n: int, rng: np.random.Generator,
                radius: str = "delta1", margin: float = 0.98) -> list:
    """n states uniform in the working ball, shrunk by margin."""
    r = (model.delta1 if radius == "delta1" else model.delta0) * margin
    out = []
    for _ in range(n):
        v = rng.normal(size=model.N)
        v /= math.sqrt(float(v.dot(v)))
        out.append(v * r * rng.uniform() ** (1.0 / model.N))
    return out


# ---------------------------------------------------------------------------
# Canonical models


def cubic_model(delta0: float = 2.0, delta1: float = 1.5) -> FluxModel:
    """Scalar model f(u) = u^3 with entropy pair (u^2, (3/2)u^4).

    The single family is concave-convex: lambda = 3u^2, m = 6u, and the
    global parameter is the state itself.
    """

    def flux(u):
        return np.array([u[0] ** 3])

    def entropy(u):
        return u[0] ** 2, 1.5 * u[0] ** 4

    def family_parameter(u, j):
        return float(u[0])

    # plain tuples: eigen() makes the arrays, char_speed reads lambda alone
    def eigen_fn(u):
        return (3.0 * u[0] ** 2,), ((1.0,),), ((1.0,),)

    def m_fn(u, j):
        return 6.0 * u[0]

    # every scalar state is on both wave curves; the one with parameter m
    # is [m], and the shock speed is the chord slope of the flux
    def hugoniot_fn(u, j, m):
        x0 = u[0]
        return np.array([m]), (m ** 3 - x0 ** 3) / (m - x0)

    def integral_curve_fn(u, j, m):
        return np.array([m])

    # the chord speed u^2 + u m + m^2 is symmetric about m = -u/2
    def critical_fn(u, mu0):
        return -0.5 * mu0, -mu0

    return FluxModel(
        name="cubic",
        N=1,
        flux=flux,
        entropy=entropy,
        delta0=delta0,
        delta1=delta1,
        cc_index=0,
        family_parameter=family_parameter,
        eigen_fn=eigen_fn,
        m_fn=m_fn,
        hugoniot_fn=hugoniot_fn,
        integral_curve_fn=integral_curve_fn,
        critical_fn=critical_fn,
    )


def elasticity_model(delta0: float = 2.0, delta1: float = 1.5) -> FluxModel:
    """Nonlinear elasticity: d_t v - d_x sigma(w) = 0, d_t w - d_x v = 0
    with sigma(w) = w^3 + w, entropy U = v^2/2 + w^4/4 + w^2/2, F = -v sigma(w).

    State is (v, w). Both families are concave-convex in w (m changes sign
    at w = 0); the second family carries parameter w with the reference
    orientation and is the designated one. The first family carries
    parameter -w so its weak admissible shocks also sit at negative
    parameter increments.
    """

    def sigma(w):
        return w ** 3 + w

    def sigma_p(w):
        return 3.0 * w ** 2 + 1.0

    # flux, entropy, eigen_fn and m_fn compute on Python floats in the
    # order numpy's scalars would, so in the outer ball they return
    # numpy's bits; outside it a float can raise where numpy gives inf
    def flux(u):
        return np.array([-sigma(float(u[1])), -float(u[0])])

    def entropy(u):
        v, w = float(u[0]), float(u[1])
        return v * v / 2 + w ** 4 / 4 + w * w / 2, -v * sigma(w)

    def family_parameter(u, j):
        return float(-u[1] if j == 0 else u[1])

    def eigen_fn(u):
        s = math.sqrt(sigma_p(float(u[1])))
        # Columns of R normalized so grad(parameter_j) . r_j = 1.
        return ((-s, s), ((-s, -s), (-1.0, 1.0)),
                ((-0.5 / s, -0.5), (-0.5 / s, 0.5)))

    def m_fn(u, j):
        # d lambda_j / d parameter_j along the integral curve, both families.
        w = float(u[1])
        return 3.0 * w / math.sqrt(sigma_p(w))

    # Curves through (v-, w-) reach w+ = m on family 1 and w+ = -m on
    # family 0, where the parameter is -w.
    def hugoniot_fn(u, j, m):
        # s^2 = [sigma]/[w], with the division carried out; [v] = -s [w]
        w_m = float(u[1])
        w_p = m if j == 1 else -m
        s = math.sqrt(w_p * w_p + w_p * w_m + w_m * w_m + 1.0)
        if j == 0:
            s = -s
        return np.array([u[0] - s * (w_p - w_m), w_p]), s

    def sqrt_sigma_p_integral(w):
        return (0.5 * w * math.sqrt(3.0 * w * w + 1.0)
                + math.asinh(math.sqrt(3.0) * w) / (2.0 * math.sqrt(3.0)))

    def integral_curve_fn(u, j, m):
        # dv/dw = -sqrt(sigma'(w)) on family 1, +sqrt(sigma'(w)) on family 0
        w_p = m if j == 1 else -m
        dv = sqrt_sigma_p_integral(w_p) - sqrt_sigma_p_integral(float(u[1]))
        return np.array([u[0] - dv if j == 1 else u[0] + dv, w_p])

    # s^2 = m^2 + m mu0 + mu0^2 + 1 on either family, whose parameters
    # are w and -w: the cubic's chord algebra in the family parameter
    def critical_fn(u, mu0):
        return -0.5 * mu0, -mu0

    return FluxModel(
        name="elasticity",
        N=2,
        flux=flux,
        entropy=entropy,
        delta0=delta0,
        delta1=delta1,
        cc_index=1,
        family_parameter=family_parameter,
        eigen_fn=eigen_fn,
        m_fn=m_fn,
        hugoniot_fn=hugoniot_fn,
        integral_curve_fn=integral_curve_fn,
        critical_fn=critical_fn,
    )


MODEL_FACTORIES = {
    "cubic": cubic_model,
    "elasticity": elasticity_model,
}


def make_model(name: str, params: Optional[dict] = None) -> FluxModel:
    if name not in MODEL_FACTORIES:
        raise ValueError(f"unknown model {name!r}; known: {sorted(MODEL_FACTORIES)}")
    return MODEL_FACTORIES[name](**(params or {}))
