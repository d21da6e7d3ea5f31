"""Energy inequalities and the commutant sign audit.

Two layers share this module.  The integral layer checks the weighted
Hardy inequality, the potential quadratic form Q(u), and the two-sided
norm equivalence constants on sampled test functions; everything is
product quadrature (trapezoid in r, Gauss-Legendre on the polar angle)
with an internal error estimate that refuses to certify an inequality
the grid cannot resolve.  The symbol layer builds the escape-function
commutant a = e^{C xi_hat} chi(xi_hat/delta) chi~(-r^2+alpha xi_hat+2 delta)
chi~(-(t-t0)^2+alpha xi_hat+2 delta) chi~(tau-tau0) chi((r^2-xi_hat^2-|zeta_hat|^2)/delta)
from explicitly squared bump edges (`_commutants`: many points, one cutoff
pass), differentiates it along the characteristic flow analytically (each
edge's slope from its (v, falling) cut) and by finite differences, and
audits its sign over quasi-random phase-space samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geodesic import (FlowState, SphereMetric, circle, integrate_flow,
                       zeta_norm_sq)
from .quadrature import gauss_legendre

class EnergyError(Exception):
    """Failure in the inequality or symbol machinery."""


class GridTolerance(EnergyError):
    """Quadrature error estimate too large to certify the check."""


class PositivityFailure(EnergyError):
    """Sphere operator has a nonpositive eigenvalue: potential too negative."""


class TauUnderflow(EnergyError):
    """tau ** 2, r^2 or r^2 tau underflows to zero: a ratio cannot be formed."""


class SymbolOverflow(EnergyError):
    """A term of the commutant symbol overflows a double."""


def _typed_overflow(fn):
    # Python's float ** and math.exp raise OverflowError: make it typed
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise SymbolOverflow(f"{fn.__name__}: {exc}") from exc
    return checked


# ---------------------------------------------------------------------------
# test functions and product quadrature

@dataclass(frozen=True)
class TestFunction:
    """u and its first derivatives sampled on a product grid r x polar angle.

    The angular nodes must be the ones `polar_quadrature(len(phi))` returns,
    at least one of them, so that the integral routines' weights match.
    """

    r: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    du_r: np.ndarray
    du_phi: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise ValueError("radial grid must be 1-d with at least 8 nodes")
        if not (r[0] > 0 and np.all(np.diff(r) > 0)):
            raise ValueError("radial grid must be strictly increasing and positive")
        if phi.ndim != 1 or phi.size == 0 or not np.allclose(
                phi, polar_quadrature(phi.size)[0], rtol=0.0, atol=1e-12):
            raise ValueError("angular nodes must come from polar_quadrature")
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
    return PotentialProfile(
        func=lambda r, phi: np.full(np.broadcast_shapes(np.shape(r),
                                                        np.shape(phi)), c),
        sup_bound=abs(c), lower_bound=c)


def polar_quadrature(count: int):
    """quadrature.gauss_legendre(count) mapped to the polar interval (0, pi)."""
    x, w = gauss_legendre(count)
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
    return angular_weights(n, *polar_quadrature(tf.phi.size))


def _radial_integral(vals: np.ndarray, r: np.ndarray, what: str) -> float:
    """Trapezoid with a stride-2 Richardson estimate and an edge-mass guard."""
    total = float(np.trapezoid(vals, r))
    scale = float(np.trapezoid(np.abs(vals), r))
    idx = np.append(np.arange(0, r.size - 1, 2), r.size - 1)
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
    """Full gradient energy: radial part plus the r^{-2}-weighted angular part.

    Test reference: tests/test_energy.py::TestQuadraticForm."""
    return _gradient_energy(tf, n, _weights_for(tf, n))


def hardy_check(tf: TestFunction, n: int):
    """Both sides of the weighted Hardy inequality and their ratio.

    Returns (lhs, rhs, ratio) with lhs the |u/r|^2 mass and rhs the radial
    derivative energy; the ratio is bounded by (2/(n-2))^2 for admissible u.
    """
    if n < 3:
        raise ValueError("Hardy check needs n >= 3")
    aw = _weights_for(tf, n)
    lhs = _radial_integral(tf.r ** (n - 3) * (tf.u ** 2 @ aw), tf.r, "|u/r|^2")
    rhs = _radial_energy(tf, n, aw)
    if rhs <= 0.0:
        raise ValueError("zero test function")
    return lhs, rhs, lhs / rhs


def _form_and_gradient(tf: TestFunction, f: PotentialProfile, n: int,
                       aw: np.ndarray):
    # (Q(u), gradient energy) on the angular rule aw
    fvals = np.broadcast_to(np.asarray(f.func(tf.r[:, None], tf.phi[None, :]),
                                       dtype=float), tf.u.shape)
    if np.nanmax(fvals) > f.sup_bound + 1e-12 or np.nanmin(fvals) < f.lower_bound - 1e-12:
        raise ValueError("potential values escape the declared bounds")
    grad = _gradient_energy(tf, n, aw)
    pot = tf.r ** (n - 3) * ((fvals * tf.u ** 2) @ aw)
    return grad + _radial_integral(pot, tf.r, "potential term"), grad


def quadratic_form(tf: TestFunction, f: PotentialProfile, n: int) -> float:
    """Q(u): gradient energy plus the r^{-2}-weighted potential term.

    Test reference: tests/test_energy.py::TestQuadraticForm."""
    return _form_and_gradient(tf, f, n, _weights_for(tf, n))[0]


# ---------------------------------------------------------------------------
# sphere operator eigenvalues

_SPHERE_NODES = 200         # polar nodes of the sphere operator


def sphere_polar_nodes() -> np.ndarray:
    """The _SPHERE_NODES polar nodes sphere_min_eigenvalue samples."""
    return (np.arange(_SPHERE_NODES) + 0.5) * (math.pi / _SPHERE_NODES)


def sphere_min_eigenvalue(f, n: int) -> float:
    """Minimum eigenvalue of -Laplacian + f on S^{n-1} for axisymmetric f,
    given as its values at sphere_polar_nodes().

    Staggered flux discretization of the zero azimuthal sector on the
    _SPHERE_NODES polar nodes; the face weights sin^{n-2} vanish at both
    poles so no boundary condition is imposed there.  For axisymmetric
    potentials the higher sectors only add nonnegative angular momentum
    terms, so the sector minimum is the global minimum.
    """
    if n < 3:
        raise ValueError("sphere operator needs n >= 3")
    m = _SPHERE_NODES
    nodes = sphere_polar_nodes()
    fv = np.asarray(f, dtype=float)
    if fv.shape != (m,):
        raise ValueError("potential values must match the polar nodes")
    h = math.pi / m
    faces = np.sin(np.arange(m + 1) * h) ** (n - 2)
    sc = np.sin(nodes) ** (n - 2)
    main = (faces[:-1] + faces[1:]) / (h * h * sc) + fv
    off = -faces[1:-1] / (h * h * np.sqrt(sc[:-1] * sc[1:]))
    mat = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[0])


_MAX_RADII = 64             # support radii sampled for the sphere gap


def _support_radii(tf: TestFunction, aw: np.ndarray) -> np.ndarray:
    """Radii of the rows carrying u's mass on the angular rule aw, at most
    _MAX_RADII of them, evenly picked."""
    row_mass = tf.u ** 2 @ aw
    supported = np.nonzero(row_mass > 1e-12 * row_mass.max())[0]
    if supported.size == 0:
        raise ValueError("zero test function")
    if supported.size > _MAX_RADII:
        pick = np.linspace(0, supported.size - 1, _MAX_RADII).astype(int)
        supported = supported[np.unique(pick)]
    return tf.r[supported]


def _sphere_gap_sq(f: PotentialProfile, radii, n: int) -> float:
    """delta^2: the minimum over radii of the lowest eigenvalue of
    -Laplacian + f(r, .) + lambda^2 on S^{n-1}, lambda = (n-2)/2.

    One eigen-solve per distinct potential row: rows equal bit for bit (as
    for a potential that does not depend on r) share a solve.  Adding
    lambda^2 after the minimum is exact, since rounding is monotone.
    """
    nodes = sphere_polar_nodes()
    rows = (np.broadcast_to(np.asarray(f.func(r, nodes), dtype=float),
                            nodes.shape) for r in radii)
    distinct = {row.tobytes(): row for row in rows}
    lam = (n - 2) / 2.0
    return min(sphere_min_eigenvalue(row, n)
               for row in distinct.values()) + lam * lam


def _norm_terms(tf: TestFunction, f: PotentialProfile, n: int):
    """(Q(u), gradient energy, support radii) on one angular rule."""
    aw = _weights_for(tf, n)
    return (*_form_and_gradient(tf, f, n, aw), _support_radii(tf, aw))


def _norm_constants(f: PotentialProfile, radii, n: int):
    """(c1, c2, delta^2) of the norm equivalence c1 |grad u|^2 <= Q(u) <=
    c2 |grad u|^2 for u supported on radii: delta^2 is _sphere_gap_sq,
    c1 = delta^2 / (delta^2 + sup|f|), c2 = 1 + sup|f| / lambda^2 with
    lambda = (n-2)/2.  Raises PositivityFailure when delta^2 <= 0."""
    delta_sq = _sphere_gap_sq(f, radii, n)
    if delta_sq <= 0.0:
        raise PositivityFailure(
            f"sphere operator minimum eigenvalue {delta_sq:.3e} <= 0")
    sup, lam = f.sup_bound, (n - 2) / 2.0
    return delta_sq / (delta_sq + sup), 1.0 + sup / lam ** 2, delta_sq


def norm_equivalence_check(tf: TestFunction, f: PotentialProfile, n: int):
    """Two-sided comparison of Q(u) with the gradient energy, against the
    _norm_constants of the radii in the support of u (at most _MAX_RADII of
    them).  Returns (c1_ok, c2_ok, delta_est)."""
    q, grad, radii = _norm_terms(tf, f, n)
    c1, c2, delta_sq = _norm_constants(f, radii, n)
    slack = 1e-10
    c1_ok = c1 * grad <= q * (1.0 + slack) + slack
    c2_ok = q <= c2 * grad * (1.0 + slack) + slack
    return bool(c1_ok), bool(c2_ok), math.sqrt(delta_sq)


def norm_equivalence(suite, n: int, f0: float):
    """(c1, c2, min Q/|grad u|^2, max Q/|grad u|^2) over the suite, for the
    constant potential f0; c1 takes delta^2 as its minimum over the radii
    that carry the suite's mass."""
    fpot = constant_potential(f0)
    terms = [_norm_terms(tf, fpot, n) for tf in suite]
    c1, c2, _ = _norm_constants(
        fpot, np.concatenate([radii for _, _, radii in terms]), n)
    quots = [q / grad for q, grad, _ in terms]
    return c1, c2, min(quots), max(quots)


# ---------------------------------------------------------------------------
# cutoff calculus

_EDGE_ROWS = 512            # edges per np.exp block: 512 x 64 doubles
# integral of exp(-2/(1-u^2)) over (-1, 1); the edge normalizer
BUMP_MASS = 0.13308612084499427
_K_NORM = math.sqrt(2.0 / BUMP_MASS)
# gauss_legendre(64) with its nodes moved onto (0, 2), built on first use
_edge_rule = functools.cache(
    lambda: (gauss_legendre(64)[0] + 1.0, gauss_legendre(64)[1]))


def bump(x: float) -> float:
    """exp(-1/(1-x^2)) on (-1, 1), zero outside; all derivatives vanish at the edge."""
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


def _cutoffs(cuts: list) -> list:
    """Cutoff factors given as (v, falling): the share of BUMP_MASS on (-1, v),
    on gauss_legendre(64), or 1 minus it where falling.  The nodes of all v go
    through np.exp together; np.vecdot takes each row's own BLAS dot with the
    weights, as w @ row does, where a gemv would round otherwise."""
    inner = [0.5 * (v + 1.0) for v, _ in cuts if not (v <= -1.0 or v >= 1.0)]
    nodes, gl_w = _edge_rule()
    shares = []
    for k in range(0, len(inner), _EDGE_ROWS):
        half = np.array(inner[k:k + _EDGE_ROWS])
        x = -1.0 + half[:, None] * nodes
        with np.errstate(divide="ignore"):
            # a node rounding onto the support edge gives exp(-inf) = 0, the limit
            y = np.exp(-2.0 / (1.0 - x * x))
        shares += (half * np.vecdot(y, gl_w) / BUMP_MASS).tolist()
    shares, out = iter(shares), []
    for v, falling in cuts:
        e = 0.0 if v <= -1.0 else 1.0 if v >= 1.0 else min(1.0, max(0.0, next(shares)))
        out.append(1.0 - e if falling else e)
    return out


def _chi_cut(x: float) -> tuple:
    # cutoff_chi(x) as (v, falling): each edge reads 1 on the plateau [-1, 1]
    return (2.0 * x + 3.0, False) if x < 0.0 else (2.0 * x - 3.0, True)


def _slope(v: float, falling: bool) -> float:
    # d/dx of the cut (v, falling)'s factor, v = 2 x + c: the squared edge
    # generator (_K_NORM bump(v))^2, negated as 0.0 - s so a zero stays +0.0
    s = (_K_NORM * bump(v)) ** 2
    return 0.0 - s if falling else s


def cutoff_chi(x: float) -> float:
    """Plateau cutoff: 0 off (-2, 2), 1 on [-1, 1], squared-bump edges.

    Test reference: tests/test_energy.py::TestCutoffs."""
    return _cutoffs([_chi_cut(x)])[0]


def cutoff_chi_tilde(x: float) -> float:
    """Step cutoff: 0 for x <= 0, 1 for x >= 1, squared-bump edge between.

    Test reference: tests/test_energy.py::TestCutoffs."""
    return _cutoffs([(2.0 * x - 1.0, False)])[0]


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
    tau_sq = tau ** 2
    if tau_sq == 0.0:
        raise TauUnderflow(f"tau={tau!r} squares to zero")
    xh = point.xi / tau
    zq = zeta_norm_sq(point, g)
    sig = point.r ** 2 - xh ** 2 - zq / tau_sq
    yr = -point.r ** 2 + p.alpha * xh + 2.0 * p.delta
    yt = -(point.t - p.t0) ** 2 + p.alpha * xh + 2.0 * p.delta
    return xh, zq, sig, yr, yt


@_typed_overflow
def commutant_symbol(p: CommutantParams, point: FlowState,
                     g: Optional[SphereMetric] = None) -> float:
    """Value of the commutant symbol a at a phase-space point.

    Accepts r = 0 (nothing here divides by r).  tau must be nonzero so the
    ratios xi/tau and zeta/tau make sense; every tau <= tau0 lands outside
    the tau step cutoff and gives 0.
    """
    return _commutants(p, [point], circle() if g is None else g)[0]


def _commutants(p: CommutantParams, points: list, g: SphereMetric) -> list:
    # commutant_symbol at each point: all live points' cuts take one _cutoffs call
    heads, cuts = [], []
    for point in points:
        if point.tau == 0.0:
            raise ValueError("commutant symbol needs tau != 0")
        heads.append(None)
        if point.tau > p.tau0:
            xh, _, sig, yr, yt = _symbol_coordinates(p, point, g)
            if max(abs(xh), abs(sig)) < 2.0 * p.delta and min(yr, yt) > 0.0:
                heads[-1] = (math.exp(p.C * xh), len(cuts))
                cuts += _cuts(p, point.tau, xh, sig, yr, yt)
    vals = _cutoffs(cuts)
    return [0.0 if h is None else math.prod(vals[h[1]:h[1] + 5], start=h[0])
            for h in heads]


def _cuts(p: CommutantParams, tau: float, xh: float, sig: float, yr: float,
          yt: float) -> list:
    # the five cutoffs of a = exp(C xi_hat) * their product, as (v, falling)
    return [_chi_cut(xh / p.delta), (2.0 * yr - 1.0, False),
            (2.0 * yt - 1.0, False), (2.0 * (tau - p.tau0) - 1.0, False),
            _chi_cut(sig / p.delta)]


@_typed_overflow
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
    return _setup(p, point, g)[0]


def _setup(p: CommutantParams, point, g: SphereMetric) -> tuple:
    # (classify_point's label, coordinates, cutoffs) at r > 0; no cutoffs
    # where a and H_p a vanish: tau <= 0 and outside the live xi_hat band
    r2 = _r_squared(point)
    if point.tau <= 0.0:
        return "main b2", None, []
    xh, zq, sig, yr, yt = coords = _symbol_coordinates(p, point, g)
    x1 = xh / p.delta
    e1 = 1.0 < x1 < 2.0
    e2 = 1.0 < abs(sig / p.delta) < 2.0
    edge_step = (0.0 < yr < 1.0) or (0.0 < yt < 1.0)
    # characteristic_value(point, g) < delta
    dominated = point.tau ** 2 - (point.xi ** 2 + zq) / r2 < p.delta
    if (e1 and e2) or (edge_step and not dominated):
        label = "mixed"
    elif e1 or e2:
        label = "hypothesis e1" if e1 else "elliptic e2"
    else:
        label = "good-sign g" if -2.0 < x1 < -1.0 or edge_step else "main b2"
    return label, coords, [] if abs(x1) >= 2.0 else \
        _cuts(p, point.tau, xh, sig, yr, yt)


def _finish(p: CommutantParams, point, label: str, coords, cuts: list,
            vals: list):
    # (a, H_p a, label) from _setup's output and the cutoff factors
    if not vals:
        return 0.0, 0.0, label
    xh, zq, sig, _, _ = coords
    tau = point.tau
    lever = math.exp(p.C * xh)
    # off commutant_symbol's support (tau <= tau0 included) a factor is 0
    a = math.prod(vals, start=lever)
    zeros = [i for i, v in enumerate(vals) if v == 0.0]
    if len(zeros) >= 2:
        return a, 0.0, label
    # flow rates in the t' = tau parametrization; tau' = 0 so the tau factor
    # never differentiates, and |zeta|_k^2 is conserved so sigma' closes
    r2 = point.r ** 2
    if r2 * tau == 0.0:
        raise TauUnderflow(f"r^2 tau underflows at r={point.r!r}, tau={tau!r}")
    xh_dot = -(point.xi ** 2 + zq) / (r2 * tau)
    sig_dot = -2.0 * point.xi * sig / r2
    rates = (_slope(*cuts[0]) / p.delta * xh_dot,
             _slope(*cuts[1]) * (2.0 * point.xi + p.alpha * xh_dot),
             _slope(*cuts[2]) * (-2.0 * (point.t - p.t0) * tau + p.alpha * xh_dot),
             0.0,
             _slope(*cuts[4]) / p.delta * sig_dot)
    if len(zeros) == 1:
        j = zeros[0]
        return a, _finite(lever * rates[j] * math.prod(vals[:j] + vals[j + 1:]),
                          point), label
    full = math.prod(vals)
    total = p.C * xh_dot * full
    for v, rate in zip(vals, rates):
        total += rate * (full / v)
    return a, _finite(lever * total, point), label


def _r_squared(point) -> float:
    if (r2 := point.r ** 2) != 0.0:     # the momentum ratios divide by r^2
        return r2
    raise TauUnderflow(f"r^2 underflows at r={point.r!r}")


def _finite(value: float, point) -> float:
    if math.isfinite(value):            # H_p a: inf or nan once a rate overflows
        return value
    raise SymbolOverflow(f"H_p a = {value!r} at r={point.r!r}")


@_typed_overflow
def _evaluate(p: CommutantParams, points: list, g: SphereMetric) -> list:
    """(a, H_p a, label) per point with r > 0: commutant_symbol (0 at
    tau <= 0), the analytic derivative and classify_point, with the float
    operations of each; the cutoffs of all points take one _cutoffs call."""
    heads = [_setup(p, pt, g) for pt in points]
    vals = iter(_cutoffs([cut for *_, cuts in heads for cut in cuts]))
    return [_finish(p, pt, label, coords, cuts, [next(vals) for _ in cuts])
            for pt, (label, coords, cuts) in zip(points, heads)]


_FD_STEP = 1e-5             # flow step h of the "fd" Hamilton derivative


def _hamilton_fd(p: CommutantParams, point: FlowState,
                 g: SphereMetric) -> float:
    # one-sided second-order stencil along the rescaled flow, smooth near r = 0
    # (the rescaled field is r^2 times the singular one); one Richardson level, h
    # against h/2, cancels h^2.  A flow's state 0 is the base point: sent once.
    r2, steps = _r_squared(point), (_FD_STEP, 0.5 * _FD_STEP)
    a0, *ends = _commutants(p, [point] + [st for step in steps for st in integrate_flow(
        point, g, 2.0 * step, step, system="rescaled").states[1:3]], g)
    rates = [(-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * step)
             for step, a1, a2 in zip(steps, ends[::2], ends[1::2])]
    return _finite((4.0 * rates[1] - rates[0]) / 3.0 / r2, point)


@_typed_overflow
def hamilton_derivative_symbol(p: CommutantParams, point: FlowState,
                               g: Optional[SphereMetric] = None,
                               method: str = "analytic"):
    """Derivative of the commutant along the characteristic flow, classified.

    The flow is the principal one: the r^{-2}-weighted potential enters the
    operator at lower order and drops out of the principal Hamilton field,
    so the derivative takes no potential.  method "analytic"
    differentiates term by term; "fd" advances the rescaled flow by
    _FD_STEP and takes a one-sided second-order difference of the symbol,
    with an absolute floor of about 5e-12 / r^2 (where H_p a = 0 at xi = zeta
    = 0, t = t0 it reads 2e-11 at r = 0.5, 6.5 at r = 1e-6).  Returns (value,
    classification); raises TauUnderflow where a ratio cannot be formed and
    SymbolOverflow where H_p a is not finite.
    """
    g = circle() if g is None else g
    if point.r <= 0.0:
        raise ValueError("Hamilton derivative needs r > 0")
    if method == "analytic":
        return _evaluate(p, [point], g)[0][1:]
    if method != "fd":
        raise ValueError(f"unknown method {method!r}")
    return _hamilton_fd(p, point, g), classify_point(p, point, g)


# ---------------------------------------------------------------------------
# quasi-random sign audit

_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def sample_states(p: CommutantParams, start: int, count: int,
                  g: Optional[SphereMetric] = None) -> list:
    """Halton points start + 1 .. start + count mapped onto the open support
    of the commutant.

    The symbol is zero outside the set carved by its cutoffs, and every
    cutoff is flat at its support edge, so the derivative audit only needs
    interior points.  The map draws xi_hat inside the live band, then r and
    t inside the step-cutoff credit alpha xi_hat + 2 delta, then |zeta_hat|
    inside the characteristic-surface band; that makes essentially every
    sample land where the symbol is positive.  Where that band is empty
    (possible for delta > 1/2) zeta_hat is 0, off the support.  Halton
    drives the map, so the scan is deterministic (indices from 2**63 on
    raise OverflowError).  Extra chart angles beyond the first are pinned
    to mid-chart.
    """
    g = circle() if g is None else g
    # radical inverses of all int64 indices in all bases at once (f /= b; q += f *
    # (i % b); i //= b), correctly rounded ops; base b runs while b ** k <= the top
    # index, and a larger base never has more digits, so running rows are a prefix
    idx = np.array(range(start + 1, start + count + 1), dtype=np.int64).clip(0)
    b = np.array(_HALTON_BASES)[:, None]
    i, f, q = np.tile(idx, b.shape), np.ones(b.shape), np.zeros((b.size, idx.size))
    top, k = int(idx.max(initial=0)), 0
    while rows := sum(base ** k <= top for base in _HALTON_BASES):
        b, f = b[:rows], f[:rows] / b[:rows]
        i, digit = np.divmod(i[:rows], b)
        q[:rows] += f * digit
        k += 1
    two_d = 2.0 * p.delta
    xi_lo = max(-two_d, -two_d / p.alpha)
    xh = xi_lo + q[1] * (two_d - xi_lo)
    credit = np.maximum(p.alpha * xh + two_d, 0.0)
    r = np.maximum(1e-3, np.sqrt(q[0] * credit))
    t = p.t0 + (2.0 * q[3] - 1.0) * np.sqrt(credit)
    band_lo = np.maximum(0.0, r * r - xh * xh - two_d)
    band_hi = np.maximum(band_lo, r * r - xh * xh + two_d)
    tau = p.tau0 + 2.0 * q[4]
    zeta = np.sqrt(band_lo + q[2] * (band_hi - band_lo)) * tau
    cols = (t, r, 2.0 * math.pi * q[5], tau, xh * tau, zeta)
    if not all(np.isfinite(c).all() for c in cols):
        # overflow from huge parameters: checked once here, not per state
        raise ValueError("flow state must be finite")
    pad_theta, pad_zeta = (math.pi / 2.0,) * (g.dim - 1), (0.0,) * (g.dim - 1)
    return [FlowState._make((t, r, (theta,) + pad_theta, tau, xi,
                             (z,) + pad_zeta))
            for t, r, theta, tau, xi, z in zip(*(c.tolist() for c in cols))]


class AuditScan:
    """Sign-audit samples and their running tally: samples scanned, class
    counts, audited count, largest audited H_p a."""

    def __init__(self, p: CommutantParams, g: Optional[SphereMetric] = None):
        self.p, self.g = p, circle() if g is None else g
        self.scanned, self.kept, self.max_value = 0, 0, -math.inf
        self.counts: dict = {}

    def scan(self, start: int, count: int) -> list:
        """Evaluate and tally Halton samples start + 1 .. start + count as
        one batch: (point, H_p a, label, audited) each; audited marks the
        points held to H_p a <= 0 ("main b2" or "good-sign g", a > 0)."""
        points = sample_states(self.p, start, count, self.g)
        rows = [(pt, value, label, label in ("main b2", "good-sign g")
                 and a > 0.0) for pt, (a, value, label)
                in zip(points, _evaluate(self.p, points, self.g))]
        for _, value, label, audited in rows:
            self.counts[label] = self.counts.get(label, 0) + 1
            if audited:
                self.kept += 1
                self.max_value = max(self.max_value, value)
        self.scanned += len(rows)
        return rows


_MAX_SCAN = 4_000_000       # samples sign_audit scans before giving up
_AUDIT_BATCH = 2048         # samples per sign_audit scan
_ALPHA_TOL = 1e-12          # alpha_star's pass rule: max H_p a <= this
_BISECTIONS = 20            # alpha_star's bisection steps


def sign_audit(p: CommutantParams, g: Optional[SphereMetric] = None,
               min_kept: int = 10000) -> AuditScan:
    """Maximum of the analytic Hamilton derivative over the audited region.

    Scans Halton samples, _AUDIT_BATCH at a time through `AuditScan.scan`,
    until min_kept of them land in the "main b2" or "good-sign g" classes
    with a strictly positive symbol value; those are the points where the
    derivative must be nonpositive once alpha is large enough.  Other
    classes are tallied but carry no sign claim.  Returns the finished
    scan: its max_value, kept, scanned and counts.
    """
    scan = AuditScan(p, g)
    while scan.kept < min_kept:
        if scan.scanned >= _MAX_SCAN:
            raise EnergyError(f"audit kept only {scan.kept} of "
                              f"{scan.scanned} samples; box too sparse")
        scan.scan(scan.scanned, _AUDIT_BATCH)
    return scan


def alpha_star(C: float = 1.0, delta: float = 0.3, t0: float = 0.0,
               tau0: float = 1.0, probe_kept: int = 3000,
               verify_kept: int = 10000) -> float:
    """Empirical alpha threshold making the audited region of the circle
    chart nonpositive.

    Doubles alpha until a probe audit passes, bisects down to the observed
    threshold, then verifies on a denser audit, nudging alpha up if the
    denser scan finds a straggler.  Deterministic: the samples are Halton.
    """

    def passes(alpha: float, kept: int) -> bool:
        p = CommutantParams(C=C, delta=delta, alpha=alpha, t0=t0, tau0=tau0)
        return sign_audit(p, min_kept=kept).max_value <= _ALPHA_TOL

    lo, hi = 0.0, 1.0
    while not passes(hi, probe_kept):
        lo = hi
        hi *= 2.0
        if hi > 1e9:
            raise EnergyError("no dominating alpha below 1e9")
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid, probe_kept) else (mid, hi)
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


def sharpness_profile(n: int, eps: float) -> TestFunction:
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
    x = np.linspace(-span, span, 6000)
    r = np.exp(x)
    gauss = np.exp(-0.5 * eps ** 2 * x ** 2)
    return radial_test_function(
        lambda rr: r ** (-lam) * gauss,
        lambda rr: r ** (-lam - 1.0) * gauss * (-lam - eps ** 2 * x), r,
        n_phi=8)


def _bump_and_slope(x: np.ndarray, width: float):
    # bump(x) on an array, and its derivative over width
    out, slope = np.zeros_like(x), np.zeros_like(x)
    m = np.abs(x) < 1.0
    xm = x[m]
    out[m] = np.exp(-1.0 / (1.0 - xm ** 2))
    slope[m] = out[m] * (-2.0 * xm / (1.0 - xm ** 2) ** 2)
    return out, slope / width


def random_suite(n: int, count: int = 20, seed: int = 0x5EED):
    """Randomized compactly supported test functions for the inequality suites.

    Each function is a few radial bumps times a constant or cos(phi) axial
    harmonic, with signed random coefficients; supports stay inside (0, 1).
    """
    rng = np.random.default_rng(seed)
    r = np.linspace(1e-4, 1.0, 1200)
    phi, _ = polar_quadrature(32)
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    suite = []
    for _ in range(count):
        u, du_r, du_phi = (np.zeros((r.size, phi.size)) for _ in range(3))
        for _ in range(int(rng.integers(2, 4))):
            c = rng.uniform(0.3, 1.0) * rng.choice((-1.0, 1.0))
            center = rng.uniform(0.2, 0.7)
            width = rng.uniform(0.08, 0.18)
            rad, drad = _bump_and_slope((r - center) / width, width)
            if rng.integers(0, 2) == 0:
                u += c * rad[:, None]
                du_r += c * drad[:, None]
            else:
                u += c * rad[:, None] * cos_phi[None, :]
                du_r += c * drad[:, None] * cos_phi[None, :]
                du_phi += c * rad[:, None] * (-sin_phi)[None, :]
        suite.append(TestFunction(r=r, phi=phi, u=u, du_r=du_r, du_phi=du_phi))
    return suite
