"""Independent finite-difference check on the analytic mode kernels.

Solves u_tt = u_rr + u_r/r - nu^2 u/r^2 with zero initial displacement and a
mollified delta initial velocity, on a staggered grid that never touches
r = 0. The solver, `solve_mode`, uses nothing from the kernel module; it
steps on buffers made once per solve and keeps its last (config, source)
field, read-only, so a compare and a leakage check on one problem solve it
once. The comparison harness does: `mollified_kernel` and `compare_kernel`
evaluate the analytic mode kernel, and `leakage_ratio` uses its region
classification. The harness is the only meeting point of the two code paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelPoint, ModeParams, Region, classify_region, mode_kernel

CFL_GRID_FACTOR = 0.9       # dt <= 0.9 dr regardless of mode
CFL_MODE_FACTOR = 0.95      # dt <= 0.95 dr / sqrt(1 + nu^2), from the 1/r^2 term
STORE_EVERY = 10            # time slices kept for interpolation
MOLLIFIER_SUPPORT = 6.0     # half-support of the Gaussian source, in sigmas
MIN_CONE_DISTANCE = 3.0     # samples must sit this many sigmas off each cone


class OracleError(Exception):
    pass


class CFLViolation(OracleError):
    pass


class BoundaryContamination(OracleError):
    """The outgoing wave would reach the hard wall at r_max before time T."""


@dataclass(frozen=True)
class FDConfig:
    r_max: float
    dr: float
    dt: float
    T: float
    mollifier_width: float
    nu: float

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("all config fields must be finite")
        if min(self.r_max, self.dr, self.dt, self.T, self.mollifier_width) <= 0:
            raise ValueError("all config lengths and times must be > 0")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.mollifier_width < 4.0 * self.dr:
            raise ValueError("mollifier width must be at least 4 dr")


@dataclass(frozen=True)
class ModeField:
    """Stored time slices of a solve, with bilinear sampling."""
    r: np.ndarray
    times: np.ndarray
    slices: np.ndarray          # shape (len(times), len(r))
    energies: np.ndarray        # aligned with times[1:-1] stored instants
    config: FDConfig
    r0: float

    def __post_init__(self):
        for a in (self.r, self.times, self.slices, self.energies):
            a.setflags(write=False)     # one solve may be shared by callers

    def peak(self) -> float:
        return float(np.max(np.abs(self.slices)))

    def sample(self, r1: float, t: float) -> float:
        """Linear interpolation in t between stored slices, then in r."""
        if not (self.r[0] <= r1 <= self.r[-1]):
            raise ValueError(f"r1={r1} outside stored grid")
        if not (0.0 <= t <= self.times[-1]):
            raise ValueError(f"t={t} outside stored range")
        it = int(np.searchsorted(self.times, t))
        it = max(1, min(it, len(self.times) - 1))
        t0, t1 = self.times[it - 1], self.times[it]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        row = (1.0 - w) * self.slices[it - 1] + w * self.slices[it]
        ir = int(np.searchsorted(self.r, r1))
        ir = max(1, min(ir, len(self.r) - 1))
        u = (self.r[ir] - r1) / (self.r[ir] - self.r[ir - 1])
        return float(u * row[ir - 1] + (1.0 - u) * row[ir])


def _stencil(r: np.ndarray, dr: float, nu: float):
    # conservative flux form (1/r)(r u')' - nu^2 u / r^2 on the staggered
    # grid r_j = (j + 1/2) dr; the face radius at j - 1/2 is j dr, so the
    # innermost face sits exactly at r = 0 where the flux r u' of any
    # regular mode solution (u ~ r^nu) vanishes: that is the origin closure.
    # laplacian(u, out) rounds in the written order, on buffers made once.
    faces = np.arange(len(r) + 1) * dr     # r at cell faces
    inner, wall = faces[1:-1], faces[-1]
    flux = np.zeros(len(r) + 1)            # flux[0] stays 0: the face at r = 0
    f, tmp = flux[1:-1], np.empty_like(r)
    r_dr, r_sq, nu_sq = r * dr, r * r, nu * nu

    def laplacian(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.subtract(u[1:], u[:-1], out=f)
        np.multiply(inner, f, out=f)
        np.divide(f, dr, out=f)
        flux[-1] = wall * (0.0 - u[-1]) / dr   # hard wall at r_max
        np.subtract(flux[1:], flux[:-1], out=out)
        np.divide(out, r_dr, out=out)
        np.multiply(nu_sq, u, out=tmp)
        np.divide(tmp, r_sq, out=tmp)
        return np.subtract(out, tmp, out=out)
    return laplacian


def _mollifier(r: np.ndarray, r0: float, sigma: float, dr: float) -> np.ndarray:
    phi = np.exp(-((r - r0) ** 2) / (2.0 * sigma * sigma))
    phi[np.abs(r - r0) > MOLLIFIER_SUPPORT * sigma] = 0.0
    mass = float(np.sum(phi * r) * dr)
    return phi / mass


def solve_mode(cfg: FDConfig, r0: float) -> ModeField:
    """Leapfrog evolution of the mollified delta-velocity problem.

    Raises CFLViolation if dt exceeds either the grid bound 0.9 dr or the
    mode-dependent bound 0.95 dr / sqrt(1 + nu^2) (the inverse-square term
    tightens stability near the axis). Raises BoundaryContamination if the
    outgoing front plus mollifier support would reach r_max before T.

    The guards run on every call. The last (cfg, r0) solved is remembered,
    so a repeated call returns the same ModeField, whose arrays are read-only.
    """
    if cfg.dt > CFL_GRID_FACTOR * cfg.dr:
        raise CFLViolation(f"dt={cfg.dt} exceeds {CFL_GRID_FACTOR} dr")
    mode_bound = CFL_MODE_FACTOR * cfg.dr / math.sqrt(1.0 + cfg.nu ** 2)
    if cfg.dt > mode_bound:
        raise CFLViolation(
            f"dt={cfg.dt} exceeds mode stability bound {mode_bound:.3e}")
    sigma = cfg.mollifier_width
    reach = r0 + cfg.T + MOLLIFIER_SUPPORT * sigma
    if reach >= cfg.r_max:
        raise BoundaryContamination(
            f"front reaches {reach:.3f} >= r_max={cfg.r_max} by time T")
    if not (MOLLIFIER_SUPPORT * sigma < r0 < cfg.r_max - cfg.T):
        raise ValueError("source must sit inside the uncontaminated window")
    return _leapfrog(cfg, r0)


@functools.lru_cache(maxsize=1)
def _leapfrog(cfg: FDConfig, r0: float) -> ModeField:
    n = int(round(cfg.r_max / cfg.dr))
    r = (np.arange(n) + 0.5) * cfg.dr
    phi = _mollifier(r, r0, cfg.mollifier_width, cfg.dr)
    laplacian = _stencil(r, cfg.dr, cfg.nu)

    dt, dt_sq = cfg.dt, cfg.dt * cfg.dt
    nt = int(math.ceil(cfg.T / dt))
    slices = np.zeros((math.ceil(nt / STORE_EVERY) + 1, n))   # row 0: u = 0
    u_prev, u_cur, u_next, lap = np.zeros((4, n))
    np.add(dt * phi, (dt ** 3 / 6.0) * laplacian(phi, lap), out=u_cur)
    times, energies = [0.0], []

    # u_cur is the solution at step 1; march to step nt inclusive, as
    # u_next = 2 u_cur - u_prev + dt^2 laplacian(u_cur)
    for step in range(1, nt + 1):
        np.multiply(2.0, u_cur, out=u_next)
        np.subtract(u_next, u_prev, out=u_next)
        np.multiply(dt_sq, laplacian(u_cur, lap), out=lap)
        np.add(u_next, lap, out=u_next)
        if step % STORE_EVERY == 0 or step == nt:
            slices[len(times)] = u_cur
            times.append(step * dt)
            u_t = (u_next - u_prev) / (2.0 * dt)
            dens = (u_t ** 2 + np.gradient(u_cur, cfg.dr) ** 2
                    + (cfg.nu * u_cur / r) ** 2)
            energies.append(0.5 * float(np.sum(dens * r) * cfg.dr))
        u_prev, u_cur, u_next = u_cur, u_next, u_prev

    return ModeField(r=r, times=np.array(times), slices=slices,
                     energies=np.array(energies), config=cfg, r0=r0)


def mollified_kernel(m: ModeParams, p: KernelPoint, sigma: float,
                     dr: float) -> float:
    """Analytic kernel convolved in the source variable with the same
    Gaussian mollifier the solver uses (midpoint rule at grid spacing)."""
    lo = p.r2 - MOLLIFIER_SUPPORT * sigma
    hi = p.r2 + MOLLIFIER_SUPPORT * sigma
    k = int(math.ceil((hi - lo) / dr))
    rho = lo + (np.arange(k) + 0.5) * (hi - lo) / k
    w = np.exp(-((rho - p.r2) ** 2) / (2.0 * sigma * sigma)) * rho
    w /= w.sum()
    eps = 1e-12 * (p.r1 + p.r2 + p.t)
    total = 0.0
    for rho_i, w_i in zip(rho, w):
        total += w_i * mode_kernel(m, KernelPoint(p.r1, float(rho_i), p.t),
                                   eps_cone=eps)
    return total


@dataclass(frozen=True)
class ComparePoint:
    point: KernelPoint
    analytic: float
    numeric: float
    rel_err: float


@dataclass(frozen=True)
class CompareReport:
    points: tuple
    max_rel_err: float
    mean_rel_err: float


def _cone_distance(p: KernelPoint) -> float:
    return min(abs(p.t - abs(p.r1 - p.r2)), abs(p.t - (p.r1 + p.r2)))


def compare_kernel(m: ModeParams, cfg: FDConfig,
                   sample_points: list) -> CompareReport:
    """Per-point relative error of the FD solve against the analytic kernel.

    Each distinct r2 among the samples triggers one solve with the source
    there. The analytic side is mollified exactly like the numeric source,
    so both carry the same smoothing. Relative errors are floored at 1% of
    the peak analytic amplitude to keep near-zero crossings meaningful.
    """
    if cfg.nu != m.nu:
        raise ValueError("config nu must match the mode")
    sigma = cfg.mollifier_width
    for p in sample_points:
        if _cone_distance(p) < MIN_CONE_DISTANCE * sigma:
            raise ValueError(
                f"sample (r1={p.r1}, t={p.t}) sits within "
                f"{MIN_CONE_DISTANCE} mollifier widths of a cone")

    fields = {}
    for p in sample_points:
        key = round(p.r2, 12)
        if key not in fields:
            fields[key] = solve_mode(cfg, p.r2)

    analytic = np.array([mollified_kernel(m, p, sigma, cfg.dr)
                         for p in sample_points])
    numeric = np.array([fields[round(p.r2, 12)].sample(p.r1, p.t)
                        for p in sample_points])
    floor = 0.01 * float(np.max(np.abs(analytic))) if len(analytic) else 1.0
    entries = []
    for p, an, num in zip(sample_points, analytic, numeric):
        denom = max(abs(an), floor)
        entries.append(ComparePoint(point=p, analytic=float(an),
                                    numeric=float(num),
                                    rel_err=float(abs(num - an) / denom)))
    errs = np.array([e.rel_err for e in entries])
    return CompareReport(points=tuple(entries),
                         max_rel_err=float(errs.max()),
                         mean_rel_err=float(errs.mean()))


def leakage_ratio(field: ModeField, points: list) -> float:
    """Largest |u| at the given region-I points, relative to the field peak."""
    peak = field.peak()
    worst = 0.0
    for p in points:
        if classify_region(p) is not Region.I:
            raise ValueError(f"({p.r1}, {p.r2}, {p.t}) is not in region I")
        worst = max(worst, abs(field.sample(p.r1, p.t)) / peak)
    return worst
