"""Energy inequalities and the commutant sign audit.

Two layers share this module.  The integral layer checks the weighted
Hardy inequality, the potential quadratic form Q(u), and the two-sided
norm equivalence constants on sampled test functions; everything is
product quadrature (trapezoid in r, Gauss-Legendre on the polar angle)
with an internal error estimate that refuses to certify an inequality
the grid cannot resolve.  The symbol layer builds the escape-function
commutant a = e^{C xi_hat} chi(xi_hat/delta) chi~(-r^2+alpha xi_hat+2 delta)
chi~(-(t-t0)^2+alpha xi_hat+2 delta) chi~(tau-tau0) chi((r^2-xi_hat^2-|zeta_hat|^2)/delta)
from explicitly squared bump edges, differentiates it along the
characteristic flow both analytically and by finite differences, and
audits the sign of the derivative over quasi-random phase-space samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geodesic import (FlowState, SphereMetric, circle, integrate_flow,
                       zeta_norm_sq)

__all__ = [
    "EnergyError", "GridTolerance", "PositivityFailure",
    "TestFunction", "PotentialProfile", "CommutantParams", "AuditResult",
    "polar_quadrature", "angular_weights",
    "hardy_check", "quadratic_form", "gradient_norm_sq",
    "norm_equivalence_check",
    "sphere_polar_nodes", "sphere_min_eigenvalue",
    "bump", "phi1", "phi2", "phi3",
    "cutoff_chi", "cutoff_chi_tilde", "cutoff_chi_prime",
    "cutoff_chi_tilde_prime",
    "commutant_symbol", "classify_point", "hamilton_derivative_symbol",
    "sample_states", "AuditScan", "sign_audit", "alpha_star",
    "constant_potential", "radial_test_function", "sharpness_profile",
    "random_suite",
]


class EnergyError(Exception):
    """Failure in the inequality or symbol machinery."""


class GridTolerance(EnergyError):
    """Quadrature error estimate too large to certify the check."""


class PositivityFailure(EnergyError):
    """Sphere operator has a nonpositive eigenvalue: potential too negative."""


# ---------------------------------------------------------------------------
# test functions and product quadrature

@dataclass(frozen=True)
class TestFunction:
    """u and its first derivatives sampled on a product grid r x polar angle.

    The angular nodes must be the ones `polar_quadrature(len(phi))` returns;
    the integral routines refuse anything else because the weights would not
    match.
    """

    r: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    du_r: np.ndarray
    du_phi: np.ndarray
    compact_support: bool = True
    origin_order: int = 1

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise ValueError("radial grid must be 1-d with at least 8 nodes")
        if not (r[0] > 0 and np.all(np.diff(r) > 0)):
            raise ValueError("radial grid must be strictly increasing and positive")
        if phi.ndim != 1 or np.any(phi <= 0) or np.any(phi >= math.pi):
            raise ValueError("angular nodes must lie strictly inside (0, pi)")
        shape = (r.size, phi.size)
        for name in ("u", "du_r", "du_phi"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class PotentialProfile:
    """Angular-radial potential f(r, phi) with declared bounds.

    func must broadcast over numpy arguments.  The bounds are trusted by
    the constant computations and cross-checked against sampled values.
    """

    func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sup_bound: float
    lower_bound: float

    def __post_init__(self):
        if not (math.isfinite(self.sup_bound) and math.isfinite(self.lower_bound)):
            raise ValueError("potential bounds must be finite")
        if self.lower_bound > self.sup_bound:
            raise ValueError("lower bound exceeds sup bound")


def constant_potential(c: float) -> PotentialProfile:
    c = float(c)

    def func(r, phi):
        return np.full(np.broadcast_shapes(np.shape(r), np.shape(phi)), c)

    return PotentialProfile(func=func, sup_bound=abs(c), lower_bound=c)


def polar_quadrature(count: int = 32):
    """Gauss-Legendre nodes and weights mapped to the polar interval (0, pi)."""
    x, w = np.polynomial.legendre.leggauss(count)
    return (x + 1.0) * (math.pi / 2.0), w * (math.pi / 2.0)


def _area_coeff(n: int) -> float:
    # surface measure of S^{n-2} slices: integrating an axisymmetric function
    # over S^{n-1} leaves A * integral of f(phi) sin^{n-2}(phi) dphi
    return 2.0 * math.pi ** ((n - 1) / 2.0) / math.gamma((n - 1) / 2.0)


def angular_weights(n: int, phi: np.ndarray, glw: np.ndarray) -> np.ndarray:
    if n < 3:
        raise ValueError("need spatial dimension n >= 3")
    return _area_coeff(n) * np.sin(phi) ** (n - 2) * glw


def _weights_for(tf: TestFunction, n: int) -> np.ndarray:
    phi, glw = polar_quadrature(tf.phi.size)
    if not np.allclose(phi, tf.phi, rtol=0.0, atol=1e-12):
        raise ValueError("angular nodes must come from polar_quadrature")
    return angular_weights(n, phi, glw)


def _radial_integral(vals: np.ndarray, r: np.ndarray, what: str) -> float:
    """Trapezoid with a stride-2 Richardson estimate and an edge-mass guard."""
    total = float(np.trapezoid(vals, r))
    scale = float(np.trapezoid(np.abs(vals), r))
    idx = np.arange(0, r.size, 2)
    if idx[-1] != r.size - 1:
        idx = np.append(idx, r.size - 1)
    coarse = float(np.trapezoid(vals[idx], r[idx]))
    est = abs(total - coarse) / 3.0
    if scale > 0.0 and est > 0.01 * scale:
        raise GridTolerance(
            f"{what}: quadrature estimate {est:.3e} above 1% of {scale:.3e}")
    edge = 0.5 * (abs(vals[0]) + abs(vals[1])) * (r[1] - r[0]) \
        + 0.5 * (abs(vals[-1]) + abs(vals[-2])) * (r[-1] - r[-2])
    if scale > 0.0 and edge > 1e-6 * scale:
        raise GridTolerance(f"{what}: support reaches the radial grid edge")
    return total


def _radial_energy(tf: TestFunction, n: int, aw: np.ndarray) -> float:
    vals = tf.r ** (n - 1) * (tf.du_r ** 2 @ aw)
    return _radial_integral(vals, tf.r, "|du/dr|^2")


def _gradient_energy(tf: TestFunction, n: int, aw: np.ndarray) -> float:
    ang = tf.r ** (n - 3) * (tf.du_phi ** 2 @ aw)
    return _radial_energy(tf, n, aw) + _radial_integral(ang, tf.r, "angular energy")


def gradient_norm_sq(tf: TestFunction, n: int) -> float:
    """Full gradient energy: radial part plus the r^{-2}-weighted angular part."""
    return _gradient_energy(tf, n, _weights_for(tf, n))


def hardy_check(tf: TestFunction, n: int):
    """Both sides of the weighted Hardy inequality and their ratio.

    Returns (lhs, rhs, ratio) with lhs the |u/r|^2 mass and rhs the radial
    derivative energy; the ratio is bounded by (2/(n-2))^2 for admissible u.
    """
    if n < 3:
        raise ValueError("Hardy check needs n >= 3")
    if not tf.compact_support:
        raise ValueError("Hardy check needs a compactly supported function")
    if tf.origin_order < 1:
        raise ValueError("Hardy check needs u vanishing at the origin")
    aw = _weights_for(tf, n)
    lhs = _radial_integral(tf.r ** (n - 3) * (tf.u ** 2 @ aw), tf.r, "|u/r|^2")
    rhs = _radial_energy(tf, n, aw)
    if rhs <= 0.0:
        raise ValueError("zero test function")
    return lhs, rhs, lhs / rhs


def _form_and_gradient(tf: TestFunction, f: PotentialProfile, n: int,
                       aw: np.ndarray):
    # (Q(u), gradient energy) on the angular rule aw
    fvals = np.asarray(f.func(tf.r[:, None], tf.phi[None, :]), dtype=float)
    if fvals.shape != tf.u.shape:
        fvals = np.broadcast_to(fvals, tf.u.shape)
    if np.nanmax(fvals) > f.sup_bound + 1e-12 or np.nanmin(fvals) < f.lower_bound - 1e-12:
        raise ValueError("potential values escape the declared bounds")
    grad = _gradient_energy(tf, n, aw)
    pot = tf.r ** (n - 3) * ((fvals * tf.u ** 2) @ aw)
    return grad + _radial_integral(pot, tf.r, "potential term"), grad


def quadratic_form(tf: TestFunction, f: PotentialProfile, n: int) -> float:
    """Q(u): gradient energy plus the r^{-2}-weighted potential term."""
    return _form_and_gradient(tf, f, n, _weights_for(tf, n))[0]


# ---------------------------------------------------------------------------
# sphere operator eigenvalues

def sphere_polar_nodes(m: int) -> np.ndarray:
    return (np.arange(m) + 0.5) * (math.pi / m)


def sphere_min_eigenvalue(f, n: int, m: int = 200) -> float:
    """Minimum eigenvalue of -Laplacian + f on S^{n-1} for axisymmetric f.

    Staggered flux discretization of the zero azimuthal sector on polar
    nodes; the face weights sin^{n-2} vanish at both poles so no boundary
    condition is imposed there.  For axisymmetric potentials the higher
    sectors only add nonnegative angular momentum terms, so the sector
    minimum is the global minimum.
    """
    if n < 3:
        raise ValueError("sphere operator needs n >= 3")
    nodes = sphere_polar_nodes(m)
    fv = np.asarray(f(nodes) if callable(f) else f, dtype=float)
    if fv.shape == ():
        fv = np.full(m, float(fv))
    if fv.shape != (m,):
        raise ValueError("potential values must match the polar nodes")
    h = math.pi / m
    faces = np.sin(np.arange(m + 1) * h) ** (n - 2)
    sc = np.sin(nodes) ** (n - 2)
    main = (faces[:-1] + faces[1:]) / (h * h * sc) + fv
    off = -faces[1:-1] / (h * h * np.sqrt(sc[:-1] * sc[1:]))
    mat = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[0])


def _support_radii(tf: TestFunction, n: int, max_radii: int = 64,
                   aw: Optional[np.ndarray] = None) -> np.ndarray:
    """Radii of the rows carrying u's mass, at most max_radii of them,
    evenly picked; aw is the angular rule, built here when not given."""
    row_mass = tf.u ** 2 @ (_weights_for(tf, n) if aw is None else aw)
    supported = np.nonzero(row_mass > 1e-12 * row_mass.max())[0]
    if supported.size == 0:
        raise ValueError("zero test function")
    if supported.size > max_radii:
        pick = np.linspace(0, supported.size - 1, max_radii).astype(int)
        supported = supported[np.unique(pick)]
    return tf.r[supported]


def _sphere_gap_sq(f: PotentialProfile, radii, n: int, m: int = 200) -> float:
    """delta^2: the minimum over radii of the lowest eigenvalue of
    -Laplacian + f(r, .) + lambda^2 on S^{n-1}, lambda = (n-2)/2.

    One eigen-solve per distinct potential row: rows equal bit for bit (as
    for a potential that does not depend on r) share a solve.  Adding
    lambda^2 after the minimum is exact, since rounding is monotone.
    """
    nodes = sphere_polar_nodes(m)
    rows = (np.broadcast_to(np.asarray(f.func(r, nodes), dtype=float),
                            nodes.shape) for r in radii)
    distinct = {row.tobytes(): row for row in rows}
    lam = (n - 2) / 2.0
    return min(sphere_min_eigenvalue(row, n, m)
               for row in distinct.values()) + lam * lam


def _norm_terms(tf: TestFunction, f: PotentialProfile, n: int,
                max_radii: int = 64):
    """(Q(u), gradient energy, support radii) on one angular rule."""
    aw = _weights_for(tf, n)
    return (*_form_and_gradient(tf, f, n, aw),
            _support_radii(tf, n, max_radii, aw))


def norm_equivalence_check(tf: TestFunction, f: PotentialProfile, n: int,
                           eig_m: int = 200, max_radii: int = 64):
    """Two-sided comparison of Q(u) with the gradient energy.

    The upper constant is c2 = 1 + sup|f| / lambda^2 with lambda = (n-2)/2.
    The lower constant comes from delta^2, the minimum eigenvalue of the
    sphere operator -Laplacian + f(r, .) + lambda^2 minimized over radii in
    the support of u (sampled on at most max_radii of them); then
    c1 = delta^2 / (delta^2 + sup|f|).  Returns (c1_ok, c2_ok, delta_est).
    """
    lam = (n - 2) / 2.0
    q, grad, radii = _norm_terms(tf, f, n, max_radii)
    delta_sq = _sphere_gap_sq(f, radii, n, eig_m)
    if delta_sq <= 0.0:
        raise PositivityFailure(
            f"sphere operator minimum eigenvalue {delta_sq:.3e} <= 0")
    sup = f.sup_bound
    c2 = 1.0 + sup / lam ** 2
    c1 = delta_sq / (delta_sq + sup)
    slack = 1e-10
    c1_ok = c1 * grad <= q * (1.0 + slack) + slack
    c2_ok = q <= c2 * grad * (1.0 + slack) + slack
    return bool(c1_ok), bool(c2_ok), math.sqrt(delta_sq)


# ---------------------------------------------------------------------------
# cutoff calculus

_GL64_X, _GL64_W = np.polynomial.legendre.leggauss(64)
# integral of exp(-2/(1-u^2)) over (-1, 1); the edge normalizer
BUMP_MASS = 0.13308612084499427
_K_NORM = math.sqrt(2.0 / BUMP_MASS)


def bump(x: float) -> float:
    """exp(-1/(1-x^2)) on (-1, 1), zero outside; all derivatives vanish at the edge."""
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


def _bump_sq_mass(v: float) -> float:
    # integral of exp(-2/(1-u^2)) over (-1, v) by fixed Gauss-Legendre
    if v <= -1.0:
        return 0.0
    if v >= 1.0:
        return BUMP_MASS
    half = 0.5 * (v + 1.0)
    x = -1.0 + half * (_GL64_X + 1.0)
    with np.errstate(divide="ignore"):
        # a node rounding onto the support edge gives exp(-inf) = 0, the limit
        y = np.exp(-2.0 / (1.0 - x * x))
    return half * float(_GL64_W @ y)


def _edge(v: float) -> float:
    return min(1.0, max(0.0, _bump_sq_mass(v) / BUMP_MASS))


def phi1(x: float) -> float:
    """Rising edge generator of chi, supported on (-2, -1)."""
    return _K_NORM * bump(2.0 * x + 3.0)


def phi2(x: float) -> float:
    """Falling edge generator of chi, supported on (1, 2)."""
    return _K_NORM * bump(2.0 * x - 3.0)


def phi3(x: float) -> float:
    """Edge generator of chi~, supported on (0, 1)."""
    return _K_NORM * bump(2.0 * x - 1.0)


def cutoff_chi(x: float) -> float:
    """Plateau cutoff: 0 off (-2, 2), 1 on [-1, 1], squared-bump edges."""
    if x <= -2.0 or x >= 2.0:
        return 0.0
    if x < -1.0:
        return _edge(2.0 * x + 3.0)
    if x <= 1.0:
        return 1.0
    return 1.0 - _edge(2.0 * x - 3.0)


def cutoff_chi_tilde(x: float) -> float:
    """Step cutoff: 0 for x <= 0, 1 for x >= 1, squared-bump edge between."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return _edge(2.0 * x - 1.0)


def cutoff_chi_prime(x: float) -> float:
    return phi1(x) ** 2 - phi2(x) ** 2


def cutoff_chi_tilde_prime(x: float) -> float:
    return phi3(x) ** 2


# ---------------------------------------------------------------------------
# commutant symbol

@dataclass(frozen=True)
class CommutantParams:
    """Weights of the escape-function commutant.

    C scales the exponential lever arm, delta the cutoff widths, alpha the
    drift credit the step cutoffs grant the momentum ratio, (t0, tau0) the
    spacetime anchoring.
    """

    C: float = 1.0
    delta: float = 0.3
    alpha: float = 1.0
    t0: float = 0.0
    tau0: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.C, self.delta, self.alpha, self.t0, self.tau0)):
            raise ValueError("commutant parameters must be finite")
        if min(self.C, self.delta, self.alpha, self.tau0) <= 0.0:
            raise ValueError("C, delta, alpha, tau0 must be positive")


def _symbol_coordinates(p: CommutantParams, point: FlowState, g: SphereMetric):
    # xi_hat, |zeta|_k^2, sigma and the two step-cutoff arguments
    tau = point.tau
    xh = point.xi / tau
    zq = zeta_norm_sq(point, g)
    sig = point.r ** 2 - xh ** 2 - zq / tau ** 2
    yr = -point.r ** 2 + p.alpha * xh + 2.0 * p.delta
    yt = -(point.t - p.t0) ** 2 + p.alpha * xh + 2.0 * p.delta
    return xh, zq, sig, yr, yt


def commutant_symbol(p: CommutantParams, point: FlowState,
                     g: Optional[SphereMetric] = None) -> float:
    """Value of the commutant symbol a at a phase-space point.

    Accepts r = 0 (nothing here divides by r).  tau must be nonzero so the
    ratios xi/tau and zeta/tau make sense; every tau <= tau0 lands outside
    the tau step cutoff and gives 0.
    """
    g = circle() if g is None else g
    if point.tau == 0.0:
        raise ValueError("commutant symbol needs tau != 0")
    if point.tau <= p.tau0:
        return 0.0
    xh, _, sig, yr, yt = _symbol_coordinates(p, point, g)
    if _outside_support(p, xh, sig, yr, yt):
        return 0.0
    return math.prod(_cutoffs(p, point.tau, xh, sig, yr, yt),
                     start=math.exp(p.C * xh))


def _outside_support(p: CommutantParams, xh: float, sig: float, yr: float,
                     yt: float) -> bool:
    # commutant_symbol's guards past the tau cutoff, in its order
    return (abs(xh) >= 2.0 * p.delta or abs(sig) >= 2.0 * p.delta
            or yr <= 0.0 or yt <= 0.0)


def _cutoffs(p: CommutantParams, tau: float, xh: float, sig: float,
             yr: float, yt: float) -> tuple:
    # the five cutoff factors of a; it is exp(C xi_hat) times their product
    return (cutoff_chi(xh / p.delta), cutoff_chi_tilde(yr),
            cutoff_chi_tilde(yt), cutoff_chi_tilde(tau - p.tau0),
            cutoff_chi(sig / p.delta))


def _label(p: CommutantParams, point: FlowState, xh: float, zq: float,
           sig: float, yr: float, yt: float) -> str:
    # classify_point at tau > 0, from the symbol coordinates
    x1 = xh / p.delta
    e1 = 1.0 < x1 < 2.0
    e2 = 1.0 < abs(sig / p.delta) < 2.0
    good_xi = -2.0 < x1 < -1.0
    edge_step = (0.0 < yr < 1.0) or (0.0 < yt < 1.0)
    # characteristic_value(point, g) < delta
    dominated = point.tau ** 2 - (point.xi ** 2 + zq) / point.r ** 2 < p.delta
    if (e1 and e2) or (edge_step and not dominated):
        return "mixed"
    if e1:
        return "hypothesis e1"
    if e2:
        return "elliptic e2"
    if good_xi or edge_step:
        return "good-sign g"
    return "main b2"


def classify_point(p: CommutantParams, point: FlowState,
                   g: Optional[SphereMetric] = None) -> str:
    """Which derivative class a point contributes to.

    Labels: "main b2" (no cutoff edge is active; only the exponential term
    differentiates, with a definite sign), "good-sign g" (rising chi edge in
    xi_hat, or a step-cutoff edge at a point where the momentum term
    (xi^2+|zeta|^2)/r^2 dominates tau^2 - delta so the alpha lever wins),
    "hypothesis e1" (falling chi edge, incoming flow), "elliptic e2" (edge
    of the characteristic-surface cutoff), "mixed" (competing edges, or a
    step-cutoff edge without the domination property; no sign is claimed).

    A step-cutoff edge alone does not guarantee a sign: where the momentum
    ratio is small the alpha term cannot dominate the 2 xi or 2(t-t0) tau
    parts, for any alpha.  Only dominated edge points are counted good.
    """
    g = circle() if g is None else g
    if point.r <= 0.0:
        raise ValueError("classification needs r > 0")
    if point.tau <= 0.0:
        return "main b2"
    return _label(p, point, *_symbol_coordinates(p, point, g))


def _evaluate(p: CommutantParams, point: FlowState, g: SphereMetric):
    """(a, H_p a, label) at a point with r > 0 in one pass: the values of
    commutant_symbol (0 at tau <= 0), the analytic derivative and
    classify_point, with the float operations of each."""
    tau = point.tau
    if tau <= 0.0:
        # the symbol vanishes identically on this sheet (tau step cutoff)
        return 0.0, 0.0, "main b2"
    xh, zq, sig, yr, yt = coords = _symbol_coordinates(p, point, g)
    label = _label(p, point, *coords)
    x1 = xh / p.delta
    if abs(x1) >= 2.0:
        return 0.0, 0.0, label
    vals = _cutoffs(p, tau, xh, sig, yr, yt)
    lever = math.exp(p.C * xh)
    a = 0.0 if tau <= p.tau0 or _outside_support(p, xh, sig, yr, yt) \
        else math.prod(vals, start=lever)
    zeros = [i for i, v in enumerate(vals) if v == 0.0]
    if len(zeros) >= 2:
        return a, 0.0, label
    # flow rates in the t' = tau parametrization; tau' = 0 so the tau factor
    # never differentiates, and |zeta|_k^2 is conserved so sigma' closes
    r2 = point.r ** 2
    xh_dot = -(point.xi ** 2 + zq) / (r2 * tau)
    sig_dot = -2.0 * point.xi * sig / r2
    rates = (cutoff_chi_prime(x1) / p.delta * xh_dot,
             cutoff_chi_tilde_prime(yr) * (2.0 * point.xi + p.alpha * xh_dot),
             cutoff_chi_tilde_prime(yt)
             * (-2.0 * (point.t - p.t0) * tau + p.alpha * xh_dot),
             0.0,
             cutoff_chi_prime(sig / p.delta) / p.delta * sig_dot)
    if len(zeros) == 1:
        j = zeros[0]
        return a, lever * rates[j] * math.prod(vals[:j] + vals[j + 1:]), label
    full = math.prod(vals)
    total = p.C * xh_dot * full
    for v, rate in zip(vals, rates):
        total += rate * (full / v)
    return a, lever * total, label


def _one_sided_rate(p: CommutantParams, point: FlowState, g: SphereMetric,
                    h: float) -> float:
    traj = integrate_flow(point, g, 2.0 * h, h, system="rescaled")
    a0, a1, a2 = (commutant_symbol(p, st, g) for st in traj.states[:3])
    return (-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * h)


def _hamilton_fd(p: CommutantParams, point: FlowState, g: SphereMetric,
                 h: float) -> float:
    # one-sided second-order stencil along the rescaled flow, which stays
    # smooth near r = 0; the rescaled field is r^2 times the singular one.
    # One Richardson level cancels the h^2 term of the stencil.
    coarse = _one_sided_rate(p, point, g, h)
    fine = _one_sided_rate(p, point, g, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0 / point.r ** 2


def hamilton_derivative_symbol(p: CommutantParams, point: FlowState,
                               g: Optional[SphereMetric] = None,
                               method: str = "analytic",
                               fd_step: float = 1e-5):
    """Derivative of the commutant along the characteristic flow, classified.

    The flow is the principal one: the r^{-2}-weighted potential enters the
    operator at lower order and drops out of the principal Hamilton field,
    so the derivative takes no potential.  method "analytic"
    differentiates term by term; "fd" advances the rescaled flow and takes
    a one-sided second-order difference of the symbol.  Returns
    (value, classification).
    """
    g = circle() if g is None else g
    if point.r <= 0.0:
        raise ValueError("Hamilton derivative needs r > 0")
    if method == "analytic":
        return _evaluate(p, point, g)[1:]
    if method != "fd":
        raise ValueError(f"unknown method {method!r}")
    if fd_step <= 0.0:
        raise ValueError("fd_step must be positive")
    return _hamilton_fd(p, point, g, fd_step), classify_point(p, point, g)


# ---------------------------------------------------------------------------
# quasi-random sign audit

_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def _halton(index: int, base: int) -> float:
    f = 1.0
    out = 0.0
    while index > 0:
        f /= base
        out += f * (index % base)
        index //= base
    return out


def sample_states(p: CommutantParams, start: int, count: int,
                  g: Optional[SphereMetric] = None):
    """Halton points mapped onto the open support of the commutant.

    The symbol is zero outside the set carved by its cutoffs, and every
    cutoff is flat at its support edge, so the derivative audit only needs
    interior points.  The map draws xi_hat inside the live band, then r and
    t inside the step-cutoff credit alpha xi_hat + 2 delta, then |zeta_hat|
    inside the characteristic-surface band; that makes essentially every
    sample land where the symbol is positive.  Halton drives the map, so
    the scan is deterministic.  Extra chart angles beyond the first are
    pinned to mid-chart.
    """
    g = circle() if g is None else g
    two_d = 2.0 * p.delta
    xi_lo = max(-two_d, -two_d / p.alpha)
    states = []
    for i in range(start + 1, start + count + 1):
        q = [_halton(i, b) for b in _HALTON_BASES]
        xh = xi_lo + q[1] * (two_d - xi_lo)
        credit = p.alpha * xh + two_d
        r = max(1e-3, math.sqrt(q[0] * max(credit, 0.0)))
        t = p.t0 + (2.0 * q[3] - 1.0) * math.sqrt(max(credit, 0.0))
        band_lo = max(0.0, r * r - xh * xh - two_d)
        band_hi = r * r - xh * xh + two_d
        zh = math.sqrt(band_lo + q[2] * (band_hi - band_lo))
        tau = p.tau0 + 2.0 * q[4]
        theta = (2.0 * math.pi * q[5],) + (math.pi / 2.0,) * (g.dim - 1)
        zeta = (zh * tau,) + (0.0,) * (g.dim - 1)
        states.append(FlowState(t=t, r=r, theta=theta, tau=tau,
                                xi=xh * tau, zeta=zeta))
    return states


@dataclass(frozen=True)
class AuditResult:
    alpha: float
    kept: int
    scanned: int
    max_value: float
    counts: dict


class AuditScan:
    """Sign-audit samples and their running tally: samples scanned, class
    counts, audited count, largest audited H_p a."""

    def __init__(self, p: CommutantParams, g: Optional[SphereMetric] = None):
        self.p, self.g = p, circle() if g is None else g
        self.scanned, self.kept, self.max_value = 0, 0, -math.inf
        self.counts: dict = {}

    def samples(self, start: int, count: int):
        """Yield and tally (state, H_p a, label, audited) per Halton sample
        start + 1 .. start + count; audited marks the points held to
        H_p a <= 0: label "main b2" or "good-sign g", positive symbol."""
        for st in sample_states(self.p, start, count, self.g):
            a, value, label = _evaluate(self.p, st, self.g)
            audited = label in ("main b2", "good-sign g") and a > 0.0
            self.scanned += 1
            self.counts[label] = self.counts.get(label, 0) + 1
            if audited:
                self.kept += 1
                self.max_value = max(self.max_value, value)
            yield st, value, label, audited


def sign_audit(p: CommutantParams, g: Optional[SphereMetric] = None,
               min_kept: int = 10000, batch: int = 2048,
               max_scan: int = 4_000_000) -> AuditResult:
    """Maximum of the analytic Hamilton derivative over the audited region.

    Scans Halton samples until min_kept of them land in the "main b2" or
    "good-sign g" classes with a strictly positive symbol value; those are
    the points where the derivative must be nonpositive once alpha is
    large enough.  Other classes are tallied but carry no sign claim.
    """
    scan = AuditScan(p, g)
    while scan.kept < min_kept:
        if scan.scanned >= max_scan:
            raise EnergyError(f"audit kept only {scan.kept} of "
                              f"{scan.scanned} samples; box too sparse")
        for _ in scan.samples(scan.scanned, batch):
            pass
    return AuditResult(alpha=p.alpha, kept=scan.kept, scanned=scan.scanned,
                       max_value=scan.max_value, counts=scan.counts)


def alpha_star(C: float = 1.0, delta: float = 0.3, t0: float = 0.0,
               tau0: float = 1.0, g: Optional[SphereMetric] = None,
               probe_kept: int = 3000, verify_kept: int = 10000,
               tol: float = 1e-12, bisections: int = 20) -> float:
    """Empirical alpha threshold making the audited region nonpositive.

    Doubles alpha until a probe audit passes, bisects down to the observed
    threshold, then verifies on a denser audit, nudging alpha up if the
    denser scan finds a straggler.  Deterministic: the samples are Halton.
    """

    def passes(alpha: float, kept: int) -> bool:
        p = CommutantParams(C=C, delta=delta, alpha=alpha, t0=t0, tau0=tau0)
        return sign_audit(p, g, min_kept=kept).max_value <= tol

    lo = 0.0
    hi = 1.0
    while not passes(hi, probe_kept):
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise EnergyError("no dominating alpha below 1e9")
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        if passes(mid, probe_kept):
            hi = mid
        else:
            lo = mid
    alpha = hi
    for _ in range(4):
        if passes(alpha, verify_kept):
            return alpha
        alpha *= 1.25
    raise EnergyError("alpha threshold failed dense verification")


# ---------------------------------------------------------------------------
# test function builders

def radial_test_function(fn, dfn, r: np.ndarray, n_phi: int = 32) -> TestFunction:
    """Wrap a radial profile (and its derivative) as a TestFunction."""
    r = np.asarray(r, dtype=float)
    phi, _ = polar_quadrature(n_phi)
    vals = np.asarray(fn(r), dtype=float)
    dvals = np.asarray(dfn(r), dtype=float)
    u = np.repeat(vals[:, None], n_phi, axis=1)
    du_r = np.repeat(dvals[:, None], n_phi, axis=1)
    return TestFunction(r=r, phi=phi, u=u, du_r=du_r,
                        du_phi=np.zeros_like(u))


def sharpness_profile(n: int, eps: float, points: int = 6000,
                      n_phi: int = 8) -> TestFunction:
    """Log-radius Gaussian concentrated at the critical decay exponent.

    u = r^{-(n-2)/2} exp(-eps^2 ln^2 r / 2) on a log grid wide enough that
    the weighted integrands are negligible at both edges.  Its Hardy ratio
    is exactly 1/(lambda^2 + eps^2/2), approaching the sharp constant from
    below as eps shrinks.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    lam = (n - 2) / 2.0
    span = 7.0 / eps
    x = np.linspace(-span, span, points)
    r = np.exp(x)
    gauss = np.exp(-0.5 * eps ** 2 * x ** 2)

    def fn(rr):
        return r ** (-lam) * gauss

    def dfn(rr):
        return r ** (-lam - 1.0) * gauss * (-lam - eps ** 2 * x)

    return radial_test_function(fn, dfn, r, n_phi=n_phi)


def _bump_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = np.abs(x) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
    return out


def _dbump_vec(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = np.abs(x) < 1.0
    xm = x[m]
    out[m] = np.exp(-1.0 / (1.0 - xm ** 2)) * (-2.0 * xm / (1.0 - xm ** 2) ** 2)
    return out


def random_suite(n: int, count: int = 20, seed: int = 0x5EED,
                 r_points: int = 1200, n_phi: int = 32):
    """Randomized compactly supported test functions for the inequality suites.

    Each function is a few radial bumps times a constant or cos(phi) axial
    harmonic, with signed random coefficients; supports stay inside (0, 1).
    """
    rng = np.random.default_rng(seed)
    r = np.linspace(1e-4, 1.0, r_points)
    phi, _ = polar_quadrature(n_phi)
    sin_phi = np.sin(phi)
    cos_phi = np.cos(phi)
    suite = []
    for _ in range(count):
        u = np.zeros((r_points, n_phi))
        du_r = np.zeros_like(u)
        du_phi = np.zeros_like(u)
        for _ in range(int(rng.integers(2, 4))):
            c = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
            center = rng.uniform(0.2, 0.7)
            width = rng.uniform(0.08, 0.18)
            arg = (r - center) / width
            rad = _bump_vec(arg)
            drad = _dbump_vec(arg) / width
            if rng.integers(0, 2) == 0:
                u += c * rad[:, None]
                du_r += c * drad[:, None]
            else:
                u += c * rad[:, None] * cos_phi[None, :]
                du_r += c * drad[:, None] * cos_phi[None, :]
                du_phi += c * rad[:, None] * (-sin_phi)[None, :]
        suite.append(TestFunction(r=r, phi=phi, u=u, du_r=du_r, du_phi=du_phi))
    return suite
