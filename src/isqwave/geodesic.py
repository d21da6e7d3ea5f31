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
list, four field evaluations per substep, and builds a `FlowState` only
where it records a sample; `hamilton_rhs` and `rescaled_rhs` wrap the
field for single states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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


class OriginReached(GeodesicError):
    """Informative termination: the flow hit the origin threshold.

    Carries the partial trajectory in the `trajectory` attribute.
    """

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class FlowState:
    t: float
    r: float
    theta: tuple
    tau: float
    xi: float
    zeta: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(x) for x in self.theta))
        object.__setattr__(self, "zeta", tuple(float(x) for x in self.zeta))
        if len(self.theta) != len(self.zeta):
            raise ValueError("theta and zeta must have equal dimension")
        vals = (self.t, self.r, self.tau, self.xi) + self.theta + self.zeta
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("flow state must be finite")

    @property
    def xi_hat(self) -> float:
        return self.xi / self.tau


@dataclass(frozen=True)
class SphereMetric:
    """Inverse metric k^{ij}(theta) and its angle derivatives on a chart.

    dk_inv returns the array d[l, i, j] = d k^{ij} / d theta_l.
    """
    dim: int
    k_inv: Callable[[tuple], np.ndarray]
    dk_inv: Callable[[tuple], np.ndarray]
    name: str = "custom"


def circle() -> SphereMetric:
    """Round S^1: one angle, k = 1, no curvature terms."""
    one = np.ones((1, 1))
    zero = np.zeros((1, 1, 1))
    return SphereMetric(dim=1, k_inv=lambda th: one, dk_inv=lambda th: zero,
                        name="circle")


def sphere_chart() -> SphereMetric:
    """Round S^2 in polar angles (phi, psi), valid away from the poles."""

    def k_inv(th):
        phi = th[0]
        s = math.sin(phi)
        return np.array([[1.0, 0.0], [0.0, 1.0 / (s * s)]])

    def dk_inv(th):
        phi = th[0]
        s, c = math.sin(phi), math.cos(phi)
        d = np.zeros((2, 2, 2))
        d[0, 1, 1] = -2.0 * c / s ** 3
        return d

    return SphereMetric(dim=2, k_inv=k_inv, dk_inv=dk_inv, name="sphere")


def zeta_norm_sq(state: FlowState, g: SphereMetric) -> float:
    z = np.asarray(state.zeta)
    return float(z @ g.k_inv(state.theta) @ z)


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
    theta = tuple(y[2:2 + d])
    z = np.array(y[4 + d:])
    kz = g.k_inv(theta) @ z
    zkz = float(z @ kz)
    # component l of (d_theta_l k^{ij}) zeta_i zeta_j
    dz = np.einsum("lij,i,j->l", g.dk_inv(theta), z, z)
    if singular:
        r2 = r ** 2
        return [tau, -xi / r, *(kz / (2.0 * r2)).tolist(), 0.0,
                -(xi ** 2 + zkz) / r2, *(-dz / (4.0 * r2)).tolist()]
    return [r ** 2 * tau, -r * xi, *(kz / 2.0).tolist(), 0.0,
            -(xi ** 2 + zkz), *(-dz / 4.0).tolist()]


def _pack(state: FlowState) -> list:
    return [state.t, state.r, *state.theta, state.tau, state.xi, *state.zeta]


def _unpack(y: list, d: int) -> FlowState:
    return FlowState(t=y[0], r=y[1], theta=tuple(y[2:2 + d]), tau=y[2 + d],
                     xi=y[3 + d], zeta=tuple(y[4 + d:]))


def hamilton_rhs(state: FlowState, g: SphereMetric) -> FlowState:
    """Singular-system derivative: t' = tau, r' = -xi/r,
    theta' = k zeta/(2 r^2), tau' = 0, xi' = -(xi^2 + |zeta|^2)/r^2,
    zeta_l' = -(d_theta_l k^{ij}) zeta_i zeta_j/(4 r^2).

    The zeta pairing is the one that conserves sigma together with the
    displayed theta' (so the two momentum equations come from the same
    Hamiltonian pairing).
    """
    d = len(state.theta)
    return _unpack(_field(_pack(state), g, d, True), d)


def rescaled_rhs(state: FlowState, g: SphereMetric) -> FlowState:
    """The singular field multiplied by r^2, smooth across r = 0:
    t' = r^2 tau, r' = -r xi, theta' = k zeta/2, tau' = 0,
    xi' = -(xi^2 + |zeta|^2), zeta_l' = -(d_theta_l k^{ij}) zeta_i zeta_j/4.
    """
    d = len(state.theta)
    return _unpack(_field(_pack(state), g, d, False), d)


@dataclass(frozen=True)
class Trajectory:
    states: tuple
    s_values: np.ndarray
    sigma_values: np.ndarray    # conserved-quantity log (singular-system sigma)
    system: str


def _rk4(stage, y: list, k1: list, h: float) -> list:
    """One RK4 step of size h from y, whose derivative k1 is known; stage
    returns the derivative at each later stage point."""
    hh = 0.5 * h
    k2 = stage([a + hh * b for a, b in zip(y, k1)])
    k3 = stage([a + hh * b for a, b in zip(y, k2)])
    k4 = stage([a + h * b for a, b in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def integrate_flow(s0: FlowState, g: SphereMetric, s_span: float, step: float,
                   system: str = "full") -> Trajectory:
    """Fixed-grid RK4 trace of either system over [0, s_span].

    Macro steps land on multiples of `step`; inside each, the step is halved
    while the momentum rate |xi'| would move xi by more than a quarter of its
    scale, and (singular system) clamped so no stage can jump across r = 0.
    Raises OriginReached once r drops below 1e-6 while still moving inward
    on the singular system, with the partial trajectory attached;
    StepUnderflow if halving cannot tame the local rate within the substep
    budget, or if a stage state or its derivative is not finite.
    """
    if system not in ("full", "rescaled"):
        raise ValueError(f"unknown system {system!r}")
    if step <= 0 or s_span <= 0:
        raise ValueError("step and s_span must be > 0")
    d = g.dim
    if len(s0.theta) != d:
        raise ValueError(f"state has {len(s0.theta)} angles, metric {d}")
    singular = system == "full"
    y = [float(v) for v in _pack(s0)]
    s = 0.0
    states = [s0]
    ss = [0.0]
    sigmas = [characteristic_value(s0, g)]

    def record(state):
        if s <= ss[-1]:
            return
        states.append(state)
        ss.append(s)
        sigmas.append(characteristic_value(state, g) if state.r > R_FLOOR
                      else float("nan"))

    def finish(reason=None):
        traj = Trajectory(states=tuple(states), s_values=np.array(ss),
                          sigma_values=np.array(sigmas), system=system)
        if reason is not None:
            raise OriginReached(reason, traj)
        return traj

    def stage(y_stage):
        # the field is only evaluated at, and only yields, finite states
        if all(map(math.isfinite, y_stage)):
            v = _field(y_stage, g, d, singular)
            if all(map(math.isfinite, v)):
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
                    record(_unpack(y, d))
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
                y = _rk4(stage, y, k1, h)
                if not all(map(math.isfinite, y)):
                    raise StepUnderflow(f"flow diverged at s={s:.6g}")
                s += h
                substeps += 1
            record(_unpack(y, d))
    return finish()


def trace_through_origin(s0: FlowState, g: SphereMetric, s_span: float,
                         step: float) -> Trajectory:
    """Singular-system trace of a zero-angular-momentum striking flow,
    continued through the origin by its mirror image.

    When the inbound leg stops at r_stop, the flow covers the remaining
    2 r_stop / tau of parameter in the gap (radial speed is tau on a
    characteristic striking flow), so the outbound leg restarts at the
    mirrored state (r_stop, -xi) with s and t advanced accordingly.
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
            states.append(FlowState(t=st.t + t_off, r=st.r, theta=st.theta,
                                    tau=st.tau, xi=st.xi, zeta=st.zeta))
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
        cur = FlowState(t=last.t, r=last.r, theta=last.theta, tau=last.tau,
                        xi=-last.xi, zeta=last.zeta)
    return Trajectory(states=tuple(states), s_values=np.array(ss),
                      sigma_values=np.array(sigmas), system="full+bridge")


def sec_envelope_bound(state: FlowState, g: SphereMetric) -> float:
    """Lower bound for r along the rescaled flow with nonzero angular
    momentum: the secant closed form has amplitude
    r |zeta|_k / sqrt(|zeta|_k^2 + xi^2)."""
    zz = zeta_norm_sq(state, g)
    if zz <= 0:
        raise ValueError("bound requires nonzero angular momentum")
    return state.r * math.sqrt(zz / (zz + state.xi ** 2))
