"""Bicharacteristic flow for the conic wave geometry, in b-coordinates.

Two parametrizations of the same curves: the singular system blows up at
r = 0 and strikes the origin in finite parameter time when the angular
momentum vanishes, while the rescaled system (the singular field times r^2)
extends smoothly over r = 0, where striking flows slow down and stall at the
radial point (r, xi) = (0, 0). The propagating variable xi_hat = xi/tau
vanishes there instead of flipping sign, which is the behavior these tools
exist to demonstrate.

Both systems are one field, `_field`, on a packed state: the flat list of
floats [t, r, *theta, tau, xi, *zeta]. `integrate_flow` runs RK4 on that
list, checked finite at every stage, and records a sample as a `FlowState`
built unchecked; `hamilton_rhs` and `rescaled_rhs` wrap the field for single
states. A chart (`SphereMetric`) hands the field its metric terms as plain
floats, each rounded as numpy's matrix form rounds it: the sphere's two-term
dot is exact float arithmetic where BLAS fuses it, and np.dot where not. A
finite state whose squares overflow raises `StateOverflow`, not OverflowError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

R_FLOOR = 1e-12             # below this the singular field is unusable
ORIGIN_RADIUS = 1e-6        # striking threshold for integrate_flow
_MAX_SUBSTEPS = 1 << 16     # per macro step, before StepUnderflow
_RATE_TARGET = 0.25         # max fractional change per substep


class GeodesicError(Exception):
    pass


class OriginSingularity(GeodesicError):
    """The singular system was evaluated at (numerically) zero radius."""


class StepUnderflow(GeodesicError):
    pass


class StateOverflow(StepUnderflow, OverflowError):
    """A square of a finite state overflowed. An OverflowError too, as
    Python's float ** raised it, so callers that type overflow still see it."""


def _typed_overflow(fn):
    # Python's float ** raises OverflowError on finite huge states; an inner
    # call's StateOverflow passes as it is
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StateOverflow:
            raise
        except OverflowError as exc:
            raise StateOverflow(f"{fn.__name__}: {exc}: flow state must be finite") from exc
    return checked


class OriginReached(GeodesicError):
    """Informative termination: the flow hit the origin threshold.

    Carries the partial trajectory in the `trajectory` attribute.
    """

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


class FlowState(NamedTuple("FlowState", [("t", float), ("r", float),
                                          ("theta", tuple), ("tau", float),
                                          ("xi", float), ("zeta", tuple)])):
    """A phase-space point. The constructor makes theta and zeta tuples of
    floats of one dimension and refuses non-finite fields; `_make` and
    `_replace` skip those checks, for values already checked."""
    __slots__ = ()

    def __new__(cls, t, r, theta, tau, xi, zeta):
        theta = tuple(float(x) for x in theta)
        zeta = tuple(float(x) for x in zeta)
        if len(theta) != len(zeta):
            raise ValueError("theta and zeta must have equal dimension")
        if not all(map(math.isfinite, (t, r, tau, xi, *theta, *zeta))):
            raise ValueError("flow state must be finite")
        return super().__new__(cls, t, r, theta, tau, xi, zeta)

    @property
    def xi_hat(self) -> float:
        return self.xi / self.tau


@dataclass(frozen=True)
class SphereMetric:
    """A chart of the sphere, given by the metric terms the flow needs.

    terms(theta, zeta) returns plain floats (kz, |zeta|_k^2, dk): kz is the
    tuple k^{ij}(theta) zeta_j, |zeta|_k^2 = zeta_i kz_i, and dk is the tuple
    over l of (d_theta_l k^{ij}) zeta_i zeta_j. Each rounds, signed zeros
    included, as numpy's k_inv @ zeta, zeta @ (k_inv @ zeta) and
    einsum("lij,i,j->l", dk_inv, zeta, zeta) on the inverse-metric arrays.
    The sphere chart's dot is plain floats where this process's BLAS fuses it.
    """
    dim: int
    terms: Callable[[tuple, tuple], tuple]
    name: str = "custom"


def circle() -> SphereMetric:
    """Round S^1: one angle, k = 1, no curvature terms."""

    def terms(th, z):
        (z0,) = z       # ValueError for a zeta of another dimension
        # + 0.0 turns -0.0 into 0.0, as the BLAS sums starting from 0 do
        return (z0 + 0.0,), z0 * z0, (0.0,)

    return SphereMetric(dim=1, terms=terms, name="circle")


# A BLAS that fuses rounds the two-term dot z0 k0 + z1 k1 as fma(z1, k1, z0 k0):
# this pair's exact dot, -2^-60, is what that gives, where the plain sum gives 0
_DOT_FUSES = float(np.dot((1.0, 1.0 + 2.0 ** -30), (-1.0, 1.0 - 2.0 ** -30))) == -2.0 ** -60
_SPLIT = 134217729.0        # 2^27 + 1, Veltkamp's splitter


def _fused_dot(z: tuple, k: tuple) -> float:
    """float(np.dot(z, k)) for two-term tuples, without numpy where BLAS fuses:
    Dekker's split of z1 k1 into p + e is exact while |z1|, |k1| lie in
    (1e-140, 1e140), and fsum rounds the exact sum z0 k0 + p + e once, which
    cannot overflow while |z0 k0| < 1e300 (inf and nan go to np.dot)."""
    (z0, z1), (k0, k1) = z, k
    p0 = z0 * k0
    if _DOT_FUSES and abs(p0) < 1e300 and 1e-140 < abs(z1) < 1e140 \
            and 1e-140 < abs(k1) < 1e140:
        p, a, b = z1 * k1, _SPLIT * z1, _SPLIT * k1
        ah, bh = a - (a - z1), b - (b - k1)
        al, bl = z1 - ah, k1 - bh
        return math.fsum((p0, p, ((ah * bh - p) + ah * bl + al * bh) + al * bl))
    return float(np.dot(z, k))


def sphere_chart() -> SphereMetric:
    """Round S^2 in polar angles (phi, psi), valid away from the poles;
    k = diag(1, 1/sin^2 phi), whose one angle derivative is d_phi k^{psi psi}."""

    def terms(th, z):
        z0, z1 = z      # ValueError for a zeta of another dimension
        s = math.sin(th[0])
        kz = (z0 + 0.0, 1.0 / (s * s) * z1 + 0.0)
        dk = -2.0 * math.cos(th[0]) / s ** 3 * z1 * z1
        return kz, _fused_dot(z, kz), (dk + 0.0, 0.0)

    return SphereMetric(dim=2, terms=terms, name="sphere")


def zeta_norm_sq(state: FlowState, g: SphereMetric) -> float:
    return g.terms(state.theta, state.zeta)[1]


@_typed_overflow
def characteristic_value(state: FlowState, g: SphereMetric) -> float:
    """sigma = tau^2 - (xi^2 + |zeta|_k^2)/r^2, conserved by the singular flow."""
    return state.tau ** 2 - (state.xi ** 2 + zeta_norm_sq(state, g)) / state.r ** 2


def _field(y: list, g: SphereMetric, d: int, singular: bool) -> list:
    """Derivative of either system at the packed state
    y = [t, r, *theta, tau, xi, *zeta] (d angles), packed the same way;
    `singular` picks the singular system, otherwise the rescaled one."""
    r, tau, xi = y[1], y[2 + d], y[3 + d]
    if singular and r <= R_FLOOR:
        raise OriginSingularity(f"r={r!r} at or below floor {R_FLOOR}")
    kz, zkz, dk = g.terms(y[2:2 + d], y[4 + d:])
    if singular:
        r2 = r ** 2
        return [tau, -xi / r, *[v / (2.0 * r2) for v in kz], 0.0,
                -(xi ** 2 + zkz) / r2, *[-v / (4.0 * r2) for v in dk]]
    return [r ** 2 * tau, -r * xi, *[v / 2.0 for v in kz], 0.0,
            -(xi ** 2 + zkz), *[-v / 4.0 for v in dk]]


def _pack(state: FlowState) -> list:
    return [state.t, state.r, *state.theta, state.tau, state.xi, *state.zeta]


def _unpack(y: list, d: int) -> tuple:
    # the FlowState fields of a packed state
    return y[0], y[1], tuple(y[2:2 + d]), y[2 + d], y[3 + d], tuple(y[4 + d:])


@_typed_overflow
def hamilton_rhs(state: FlowState, g: SphereMetric) -> FlowState:
    """Singular-system derivative: t' = tau, r' = -xi/r,
    theta' = k zeta/(2 r^2), tau' = 0, xi' = -(xi^2 + |zeta|^2)/r^2,
    zeta_l' = -(d_theta_l k^{ij}) zeta_i zeta_j/(4 r^2).

    The zeta pairing is the one that conserves sigma together with the
    displayed theta' (so the two momentum equations come from the same
    Hamiltonian pairing).

    Test reference: tests/test_geodesic.py::TestRightHandSides.
    """
    d = len(state.theta)
    return FlowState(*_unpack(_field(_pack(state), g, d, True), d))


@_typed_overflow
def rescaled_rhs(state: FlowState, g: SphereMetric) -> FlowState:
    """The singular field multiplied by r^2, smooth across r = 0:
    t' = r^2 tau, r' = -r xi, theta' = k zeta/2, tau' = 0,
    xi' = -(xi^2 + |zeta|^2), zeta_l' = -(d_theta_l k^{ij}) zeta_i zeta_j/4.

    Test reference: tests/test_geodesic.py::TestRightHandSides.
    """
    d = len(state.theta)
    return FlowState(*_unpack(_field(_pack(state), g, d, False), d))


@dataclass(frozen=True)
class Trajectory:
    states: tuple
    s_values: np.ndarray
    sigma_values: np.ndarray    # conserved-quantity log (singular-system sigma)


@_typed_overflow
def integrate_flow(s0: FlowState, g: SphereMetric, s_span: float, step: float,
                   system: str = "full") -> Trajectory:
    """Fixed-grid RK4 trace of either system over [0, s_span].

    Macro steps land on multiples of `step`; inside each, the step is halved
    while the momentum rate |xi'| would move xi by more than a quarter of its
    scale, and (singular system) clamped so no stage can jump across r = 0.
    Raises OriginReached once r drops below 1e-6 while still moving inward
    on the singular system, with the partial trajectory attached;
    StepUnderflow if halving cannot tame the local rate within the substep
    budget, or if a stage state or its derivative is not finite (a
    StateOverflow where a square of a finite one overflows).
    """
    if system not in ("full", "rescaled"):
        raise ValueError(f"unknown system {system!r}")
    if step <= 0 or s_span <= 0:
        raise ValueError("step and s_span must be > 0")
    d = g.dim
    if len(s0.theta) != d:
        raise ValueError(f"state has {len(s0.theta)} angles, metric {d}")
    singular = system == "full"
    y, s = [float(v) for v in _pack(s0)], 0.0
    states, ss, sigmas = [s0], [0.0], [characteristic_value(s0, g)]

    def record():
        # the state y at s, its sigma as characteristic_value forms it
        if s <= ss[-1]:
            return
        st = FlowState._make(_unpack(y, d))
        states.append(st)
        ss.append(s)
        sigmas.append(st.tau ** 2 - (st.xi ** 2 + g.terms(st.theta, st.zeta)[1])
                      / st.r ** 2 if st.r > R_FLOOR else float("nan"))

    def finish(reason=None):
        traj = Trajectory(states=tuple(states), s_values=np.array(ss),
                          sigma_values=np.array(sigmas))
        if reason is not None:
            raise OriginReached(reason, traj)
        return traj

    def stage(y_stage):
        # the field is only evaluated at, and only yields, finite states; a float
        # sum is finite only if every term is (one that overflows: term by term)
        if math.isfinite(sum(y_stage)) or all(map(math.isfinite, y_stage)):
            v = _field(y_stage, g, d, singular)
            if math.isfinite(sum(v)) or all(map(math.isfinite, v)):
                return v
        raise StepUnderflow(f"flow diverged at s={s:.6g} (finite-parameter "
                            f"blow-up): flow state must be finite")

    n_macro = int(math.ceil(s_span / step))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_macro):
            target = min(s_span, (k + 1) * step)
            substeps = 0
            while s < target - 1e-15 * s_span:
                r, xi = y[1], y[3 + d]
                if singular and r < ORIGIN_RADIUS and xi > 0:
                    record()
                    return finish(f"r={r:.3e} below origin threshold")
                k1 = stage(y)
                h = target - s
                rate = abs(k1[3 + d]) / (1.0 + abs(xi))
                if rate * h > _RATE_TARGET:
                    h = _RATE_TARGET / rate
                if singular and k1[1] < 0.0:
                    # never let a stage cross the origin
                    h = min(h, 0.5 * r / (-k1[1]))
                if h <= 0 or substeps >= _MAX_SUBSTEPS:
                    raise StepUnderflow(
                        f"needed more than {_MAX_SUBSTEPS} substeps at s={s:.6g}")
                hh = 0.5 * h
                k2 = stage([a + hh * b for a, b in zip(y, k1)])
                k3 = stage([a + hh * b for a, b in zip(y, k2)])
                k4 = stage([a + h * b for a, b in zip(y, k3)])
                h6 = h / 6.0
                y = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
                if not (math.isfinite(sum(y)) or all(map(math.isfinite, y))):
                    raise StepUnderflow(f"flow diverged at s={s:.6g}")
                s += h
                substeps += 1
            record()
    return finish()


def trace_through_origin(s0: FlowState, g: SphereMetric, s_span: float,
                         step: float) -> Trajectory:
    """Singular-system trace of a zero-angular-momentum striking flow,
    continued through the origin by its mirror image.

    When the inbound leg stops at r_stop, the flow covers the remaining
    2 r_stop / tau of parameter in the gap (radial speed is tau on a
    characteristic striking flow), so the outbound leg restarts at the
    mirrored state (r_stop, -xi) with s and t advanced accordingly. Raises
    StepUnderflow where integrate_flow does.
    """
    if any(abs(z) > 1e-12 for z in s0.zeta):
        raise ValueError("origin passage requires zero angular momentum")
    if s0.tau <= 0:
        raise ValueError("convention: tau > 0 along traced flows")

    states = []
    ss = []
    sigmas = []
    s_off = 0.0
    t_off = 0.0
    cur = s0
    remaining = s_span
    while remaining > 0:
        try:
            leg = integrate_flow(cur, g, remaining, step, system="full")
        except OriginReached as e:
            leg = e.trajectory
            struck = True
        else:
            struck = False
        for st, sv, sg in zip(leg.states, leg.s_values, leg.sigma_values):
            t = st.t + t_off
            if not math.isfinite(t):
                raise ValueError("flow state must be finite")
            states.append(st._replace(t=t))
            ss.append(sv + s_off)
            sigmas.append(sg)
        if not struck:
            break
        last = leg.states[-1]
        gap = 2.0 * last.r / last.tau
        s_off += leg.s_values[-1] + gap
        t_off += gap * last.tau
        remaining = s_span - s_off
        if remaining <= 0:
            break
        cur = last._replace(xi=-last.xi)
    return Trajectory(states=tuple(states), s_values=np.array(ss),
                      sigma_values=np.array(sigmas))


@_typed_overflow
def sec_envelope_bound(state: FlowState, g: SphereMetric) -> float:
    """Lower bound for r along the rescaled flow with nonzero angular
    momentum: the secant closed form has amplitude
    r |zeta|_k / sqrt(|zeta|_k^2 + xi^2)."""
    zz = zeta_norm_sq(state, g)
    if zz <= 0:
        raise ValueError("bound requires nonzero angular momentum")
    return state.r * math.sqrt(zz / (zz + state.xi ** 2))
