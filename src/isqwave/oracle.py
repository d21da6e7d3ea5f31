"""Independent finite-difference check on the analytic mode kernels.

Solves u_tt = u_rr + u_r/r - nu^2 u/r^2 with zero initial displacement and a
mollified delta initial velocity, on a staggered grid that never touches
r = 0. The solver, `solve_mode`, uses nothing from the kernel module; it
steps on buffers made once per solve, only on cells its wave can have reached
(the stencil's domain of dependence; u is +0.0 beyond, as on a full grid),
and holds its last (config, source) field, read-only, so a compare and a
leakage check on one problem solve it once; a new problem empties that slot
before its own solve starts. The comparison harness, the only meeting point
of the two code paths, does: `mollified_kernel` and `compare_kernel` evaluate
the analytic mode kernel, and `leakage_ratio` uses its region classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import KernelPoint, ModeParams, Region, classify_region, mode_kernel_rows

CFL_GRID_FACTOR = 0.9       # dt <= 0.9 dr regardless of mode
CFL_MODE_FACTOR = 0.95      # dt <= 0.95 dr / sqrt(1 + nu^2), from the 1/r^2 term
STORE_EVERY = 10            # time slices kept for interpolation
MOLLIFIER_SUPPORT = 6.0     # half-support of the Gaussian source, in sigmas
MIN_CONE_DISTANCE = 3.0     # samples must sit this many sigmas off each cone
_field_slot: dict = {}      # (config, r0) -> the last solve's ModeField


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
    energies: np.ndarray        # aligned with times[1:] stored instants

    def __post_init__(self):
        for a in (self.r, self.times, self.slices, self.energies):
            a.setflags(write=False)     # one solve may be shared by callers

    def peak(self) -> float:
        # max |u| without np.abs's temporary copy of the slices
        return float(max(self.slices.max(), -self.slices.min()))

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
    # window(rows, lo, hi, out)(k) writes the laplacian of rows[k] on cells
    # [lo, hi) to out[lo:hi]; each row's ghost cell n, held at 0, is the wall.
    faces = np.arange(len(r) + 1) * dr     # r at cell faces
    flux = np.zeros(len(r) + 1)            # flux[0] stays 0: the face at r = 0
    tmp, r_dr, r_sq = np.empty_like(r), r * dr, r * r
    dr, nu_sq = np.array(dr), np.array(nu * nu)   # 0-d: no float cast per call

    def window(rows, lo: int, hi: int, out: np.ndarray):
        a, e = max(lo, 1), hi + 1              # the faces a..hi move
        f, inner, right, left = flux[a:e], faces[a:e], flux[lo + 1:e], flux[lo:hi]
        lap, t, rdr, rsq = out[lo:hi], tmp[lo:hi], r_dr[lo:hi], r_sq[lo:hi]
        views = [(u[a:e], u[a - 1:hi], u[lo:hi]) for u in rows]

        def laplacian(k: int) -> np.ndarray:
            above, below, u = views[k]
            np.subtract(above, below, f)
            np.multiply(inner, f, f)
            np.divide(f, dr, f)
            np.subtract(right, left, lap)
            np.divide(lap, rdr, lap)
            np.multiply(nu_sq, u, t)
            np.divide(t, rsq, t)
            return np.subtract(lap, t, lap)
        return laplacian
    return window


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

    The guards run on every call. The last (cfg, r0) solved is held, so a
    repeated call returns the same ModeField, whose arrays are read-only; a
    new problem empties the slot before its solve starts, so the slot's old
    field is freed first unless a caller still holds it.
    """
    if cfg.dt > CFL_GRID_FACTOR * cfg.dr:
        raise CFLViolation(f"dt={cfg.dt} exceeds {CFL_GRID_FACTOR} dr")
    mode_bound = CFL_MODE_FACTOR * cfg.dr / math.sqrt(1.0 + cfg.nu ** 2)
    if cfg.dt > mode_bound:
        raise CFLViolation(
            f"dt={cfg.dt} exceeds mode stability bound {mode_bound:.3e}")
    if not math.isfinite(r0):
        raise ValueError(f"source radius r0 must be finite: got {r0!r}")
    sigma = cfg.mollifier_width
    reach = r0 + cfg.T + MOLLIFIER_SUPPORT * sigma
    if reach >= cfg.r_max:
        raise BoundaryContamination(
            f"front reaches {reach:.3f} >= r_max={cfg.r_max} by time T")
    if not (MOLLIFIER_SUPPORT * sigma < r0 < cfg.r_max - cfg.T):
        raise ValueError("source must sit inside the uncontaminated window")
    field = _field_slot.get((cfg, r0))
    if field is None:
        _field_slot.clear()
        field = _field_slot[cfg, r0] = _leapfrog(cfg, r0)
    return field


def _leapfrog(cfg: FDConfig, r0: float) -> ModeField:
    n = int(round(cfg.r_max / cfg.dr))
    r = (np.arange(n) + 0.5) * cfg.dr
    phi = np.append(_mollifier(r, r0, cfg.mollifier_width, cfg.dr), 0.0)
    window = _stencil(r, cfg.dr, cfg.nu)

    dt, dt_sq = cfg.dt, np.array(cfg.dt * cfg.dt)     # 0-d, as in _stencil
    nt = int(math.ceil(cfg.T / dt))
    slices = np.zeros((math.ceil(nt / STORE_EVERY) + 1, n))   # row 0: u = 0
    u, lap = np.zeros((3, n + 1)), np.zeros(n)       # u[:, n]: the wall's ghost
    np.add(dt * phi[:n], (dt ** 3 / 6.0) * window([phi], 0, n, lap)(0), out=u[1, :n])
    times, energies = [0.0], []
    dens, grad = np.zeros(n), np.zeros(n)           # zero off each energy window

    # u[s % 3] holds step s, and u[s + 1] = 2 u[s] - u[s - 1] + dt^2 lap(u[s])
    # to s = nt, each block on its last step's reach: ops on +0.0 give +0.0.
    lo, hi = (np.flatnonzero(u[1])[[0, -1]] + (0, 1)).tolist()
    for start in range(1, nt + 1, STORE_EVERY):
        end = min(start + STORE_EVERY - 1, nt)
        a, b = max(lo - end, 0), min(hi + end, n)
        laplacian, w, lap_w = window(u, a, b, lap), list(u[:, a:b]), lap[a:b]
        for s in range(start, end + 1):
            p, c, x = (s - 1) % 3, s % 3, (s + 1) % 3
            np.subtract(np.add(w[c], w[c], w[x]), w[p], w[x])   # 2 u: exact
            np.add(w[x], np.multiply(dt_sq, laplacian(c), lap_w), w[x])
        slices[len(times)] = now = u[c, :n]
        times.append(end * dt)
        # density times r, as np.gradient's full rows give it, on the window and the
        # cell past each end the gradient reaches; windows only grow, so the rest is +0.0
        i, j = max(a - 1, 0), min(b + 1, n)
        e, g, k, m = dens[i:j], grad[i:j], max(i, 1), min(j, n - 1)
        np.square(np.divide(np.subtract(u[x, i:j], u[p, i:j], e), 2.0 * dt, e), e)
        np.divide(np.subtract(now[k + 1:m + 1], now[k - 1:m - 1], grad[k:m]),
                  2.0 * cfg.dr, grad[k:m])
        if i == 0:
            grad[0] = (now[1] - now[0]) / cfg.dr
        if j == n:
            grad[-1] = (now[-1] - now[-2]) / cfg.dr
        np.add(e, np.square(g, g), e)
        np.add(e, np.square(np.divide(np.multiply(now[i:j], cfg.nu, g), r[i:j], g), g), e)
        np.multiply(e, r[i:j], e)
        energies.append(0.5 * float(np.sum(dens) * cfg.dr))

    return ModeField(r=r, times=np.array(times), slices=slices,
                     energies=np.array(energies))


def mollified_kernel(m: ModeParams, p: KernelPoint, sigma: float,
                     dr: float) -> float:
    """Analytic kernel convolved in the source variable with the same
    Gaussian mollifier the solver uses (midpoint rule at grid spacing), its
    source radii evaluated in one mode_kernel_rows call."""
    if not (0 < sigma < math.inf and 0 < dr < math.inf):
        raise ValueError(f"sigma and dr must be finite and > 0: got {sigma!r}, {dr!r}")
    lo, hi = p.r2 - MOLLIFIER_SUPPORT * sigma, p.r2 + MOLLIFIER_SUPPORT * sigma
    k = int(math.ceil((hi - lo) / dr))
    rho = lo + (np.arange(k) + 0.5) * (hi - lo) / k
    w = np.exp(-((rho - p.r2) ** 2) / (2.0 * sigma * sigma)) * rho
    w /= w.sum()
    values = mode_kernel_rows(m, [KernelPoint(p.r1, rho_i, p.t) for rho_i in rho.tolist()],
                              1e-12 * (p.r1 + p.r2 + p.t))
    total = 0.0
    for w_i, value in zip(w, values):
        total += w_i * value
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
    if not sample_points:
        raise ValueError("compare_kernel needs at least one sample point")
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
    floor = 0.01 * float(np.max(np.abs(analytic)))
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
