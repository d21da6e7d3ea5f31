"""Per-mode radial wave kernels for the inverse-square potential, region by
region, with the diffractive jump across the outer light cone.

For order nu the kernel at (r1, r2, t) is the sine transform of a product of
Bessel functions. It vanishes for t < |r1 - r2| (region I), is a finite
Legendre-type integral between the cones (region II), and past the outer cone
t > r1 + r2 (region III) picks up an extra diffractive term proportional to
sin(pi nu). The jump of the kernel across t = r1 + r2 is
-(1/2) (r1 r2)^(-1/2) sin(pi nu), which vanishes exactly when nu is an
integer: that is the observable this module exists to measure.

Each region integral is one numpy-ufunc integrand, for arrays and scalars alike, run by
quadrature.integrate_smooth: its Gauss-Legendre ladder, or adaptive GK15 next to a cone.
Only cos(nu * phase) (exp(-nu * phase) in the diffractive integral) depends on the mode.
Each integrand keeps the other node terms of its last point, joined over the held depth
(the rungs the last mode there needed); a further mode is one evaluation on that block,
forming no nodes. mode_kernel_rows takes one mode at many points (cone_sides, hence
cone_limits and front-scan; oracle.mollified_kernel; kernel-grid) on one row-batched
ladder per integral. Every value is the double the untabulated integrand gives.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .quadrature import (GAUSS_LADDER, integrate_adaptive, integrate_decaying,
                         integrate_smooth, integrate_smooth_rows)
from .specfun import bessel_j, legendre_q_shifted

_INNER_TOL = 1e-11          # quadrature tolerance inside kernel integrals
EPS_CONE_FACTOR = 1e-6      # default cone band is this times (r1 + r2 + t)
_BETA_SCALED = math.asinh(sys.float_info.max / 4.0)  # diffractive_integral rescales here
_COORD_MIN = 2.0 ** -512    # least r1, r2, t of the envelope: squares keep 50 of 53 bits
_node_slots: dict = {}      # integrand kind -> (last key, {rule size, "block": terms})


class KernelError(Exception):
    pass


class ConeProximity(KernelError):
    """Evaluation point is within the tolerance band of a light cone."""


@dataclass(frozen=True)
class ModeParams:
    """Angular mode n with coupling a; effective Bessel order nu = sqrt(n^2 + a)."""
    n: int
    a: float
    nu: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("coupling a must be >= 0")
        expected = math.sqrt(self.n * self.n + self.a)
        if abs(self.nu - expected) > 1e-12 * (1.0 + expected):
            raise ValueError(f"nu must equal sqrt(n^2 + a) = {expected!r}")


def mode_params(n: int, a: float) -> ModeParams:
    return ModeParams(n=int(n), a=float(a), nu=math.sqrt(n * n + a))


@dataclass(frozen=True)
class KernelPoint:
    r1: float
    r2: float
    t: float

    def __post_init__(self):
        if not (self.r1 > 0 and self.r2 > 0 and self.t > 0):
            raise ValueError("kernel points need r1, r2, t all > 0")


class Region(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    MAIN_CONE = "MainCone"
    DIFFRACTIVE_CONE = "DiffractiveCone"


def classify_region(p: KernelPoint, eps_cone: float | None = None) -> Region:
    """Locate p relative to the cones t = |r1 - r2| and t = r1 + r2."""
    if eps_cone is None:
        eps_cone = EPS_CONE_FACTOR * (p.r1 + p.r2 + p.t)
    if eps_cone <= 0:
        raise ValueError("eps_cone must be > 0")
    inner = abs(p.r1 - p.r2)
    outer = p.r1 + p.r2
    if abs(p.t - inner) <= eps_cone:
        return Region.MAIN_CONE
    if abs(p.t - outer) <= eps_cone:
        return Region.DIFFRACTIVE_CONE
    if p.t < inner:
        return Region.I
    if p.t < outer:
        return Region.II
    return Region.III


def _integrate_modes(key, factors, wave, rate: float, a: float, b: float) -> float:
    """integrate_smooth over [a, b] at _INNER_TOL of _wave_values(factors(x), wave, rate):
    factors(x) are the node terms that do not depend on the mode; key, led by the
    integrand's kind, names the geometry they do depend on. The kind's slot keeps, for
    its last key, each rung's terms as a first mode forms them (no copies) and, under
    "block", their join over the held depth; a further mode evaluates the integrand once
    on it for integrate_smooth, forms a deeper rung once, and re-joins the block if its
    depth differs. Scalar nodes (the adaptive fallback) always form the terms in place."""
    held, tables = _node_slots.get(key[0], (None, None))
    if held != key:
        tables = {}
        _node_slots[key[0]] = (key, tables)

    def integrand(x, terms=None):
        if terms is None:
            terms = factors(x) if isinstance(x, float) else tables.get(len(x))
            if terms is None:
                terms = tables[len(x)] = factors(x)
        return _wave_values(terms, wave, rate)

    if not tables:
        return integrate_smooth(integrand, a, b, _INNER_TOL).value

    def join(depth):
        return [None if parts[0] is None else np.concatenate(parts)
                for parts in zip(*(tables[n] for n in GAUSS_LADDER[:depth]))]

    joined = tables.get("block") or join(len(tables))
    block = integrand(None, joined)
    res = integrate_smooth(integrand, a, b, _INNER_TOL, block)
    tables["block"] = (joined if sum(GAUSS_LADDER[:res.rungs]) == len(block)
                       else join(res.rungs))
    return res.value


def _wave_values(terms, wave, rate: float):
    """weight * wave(rate * phase) / root at node terms (weight, phase, root), weight None
    1. The node terms below broadcast over nodes and columns of per-row geometry."""
    weight, phase, root = terms
    if weight is None:
        return wave(rate * phase) / root
    return weight * wave(rate * phase) / root


def _envelope(p: KernelPoint, *formed: float) -> None:
    """KernelError unless r1, r2, t >= _COORD_MIN and the geometry formed from them is finite."""
    if not (min(p.r1, p.r2, p.t) >= _COORD_MIN and all(map(math.isfinite, formed))):
        raise KernelError(f"{p} is outside the kernel envelope (see mode_kernel)")


# (1/pi) int_0^{s*} cos(nu s) D(s)^{-1/2} ds with
# D(s) = t^2 - r1^2 - r2^2 + 2 r1 r2 cos s = 4 r1 r2 sin((s*+s)/2) sin((s*-s)/2),
# s* = arccos((r1^2 + r2^2 - t^2)/(2 r1 r2)). Integrable singularity at s*.
# Substituting s = s* - w^2 removes the inverse-square-root endpoint
# singularity; sin((s*-s)/2) = sin(w^2/2) is then formed directly from w,
# with no cancellation against s*.
def _region_ii_geometry(p: KernelPoint) -> tuple:
    r1, r2, t = p.r1, p.r2, p.t
    num, c = r1 * r1 + r2 * r2 - t * t, 4.0 * r1 * r2
    _envelope(p, num, c)
    return math.acos(min(1.0, max(-1.0, num / (2.0 * r1 * r2)))), c


def _region_ii_terms(w, s_star, c):
    w2 = w * w
    half = 0.5 * w2
    return 2.0 * w, s_star - w2, np.sqrt(c * np.sin(s_star - half) * np.sin(half))


# s = beta - w^2 as in the region-II integral: sinh((beta-s)/2) becomes
# sinh(w^2/2), formed from w directly.
def _diffractive_terms(w, beta, scaled=False):
    w2 = w * w
    if scaled:
        den = np.expm1(w2 - 2.0 * beta) * np.expm1(-w2)
    else:
        half = 0.5 * w2
        den = 4.0 * np.sinh(beta - half) * np.sinh(half)
    return 2.0 * w, beta - w2, np.sqrt(den)


def diffractive_integral(nu: float, beta: float) -> float:
    """int_0^beta e^(-nu s) (2 cosh(beta) - 2 cosh(s))^(-1/2) ds.

    Small-beta expansion: pi/2 - nu*beta + O(beta^2), so pi/2 is the
    beta -> 0+ limit and the value at any fixed beta > 0 sits about
    nu*beta below it.
    The difference of hyperbolic cosines is formed as a product of sinh
    factors so the inverse square root stays accurate near s = beta. From
    beta = asinh(DBL_MAX / 4) ~ 709.09 on, where 4 sinh(beta) overflows, the
    product is e^beta times two expm1 factors: the integral of the rest is
    scaled by e^(-beta/2), and underflows to 0 from beta ~ 1490 on.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    scaled = beta >= _BETA_SCALED
    value = _integrate_modes(("diffractive", beta),
                             lambda w: _diffractive_terms(w, beta, scaled), np.exp, -nu,
                             0.0, math.sqrt(beta))
    return value * math.exp(-0.5 * beta) if scaled else value


# Same integral with s* = pi (now regular at both ends), minus the
# diffractive term (1/pi)(r1 r2)^(-1/2) sin(pi nu) * diffractive_integral.
# c (2 cosh(beta) + 2 cos(s)) is formed as 2c (cosh(beta) + cos(s)): the
# same double short of overflow, as the factors of 2 are exact.
def _region_iii_geometry(p: KernelPoint) -> tuple:
    r1, r2, t = p.r1, p.r2, p.t
    _envelope(p)
    z = (t * t - r1 * r1 - r2 * r2) / (2.0 * r1 * r2)
    _envelope(p, z)
    beta, c = math.acosh(z), r1 * r2
    return beta, c, 2.0 * c, math.cosh(beta)


def _region_iii_terms(s, two_c, cosh_beta):
    return None, s, np.sqrt(two_c * (cosh_beta + np.cos(s)))


def _region_iii_sum(nu: float, main: float, diffractive: float, c: float) -> float:
    return (main - math.sin(math.pi * nu) * diffractive / math.sqrt(c)) / math.pi


def mode_kernel(m: ModeParams, p: KernelPoint, eps_cone: float | None = None) -> float:
    """Kernel of the mode-nu radial wave propagator at (r1, r2, t).

    Region I returns 0.0 without quadrature. Points inside the cone
    tolerance band raise ConeProximity; take one-sided limits through
    cone_limits instead. Envelope in regions II and III, else KernelError:
    r1, r2, t >= 2^-512 (about 7.5e-155), and r1^2 + r2^2 - t^2 and 4 r1 r2
    (II) or z = (t^2 - r1^2 - r2^2) / (2 r1 r2) (III) finite. The integrals'
    tolerance is absolute, so accuracy near a cone holds only at about unit scale.
    """
    region = classify_region(p, eps_cone)
    if region is Region.I:
        return 0.0
    if region in (Region.MAIN_CONE, Region.DIFFRACTIVE_CONE):
        raise ConeProximity(
            f"point (r1={p.r1}, r2={p.r2}, t={p.t}) lies within the "
            f"{region.value} tolerance band")
    if region is Region.II:
        s_star, c = _region_ii_geometry(p)
        return _integrate_modes(("II", s_star, c), lambda w: _region_ii_terms(w, s_star, c),
                                np.cos, m.nu, 0.0, math.sqrt(s_star)) / math.pi
    beta, c, two_c, cosh_beta = _region_iii_geometry(p)
    main = _integrate_modes(("III", beta, c), lambda s: _region_iii_terms(s, two_c, cosh_beta),
                            np.cos, m.nu, 0.0, math.pi)
    return _region_iii_sum(m.nu, main, diffractive_integral(m.nu, beta), c)


def _integrate_rows(terms, params: list, wave, rate: float, b: list) -> list:
    """_integrate_modes' integral over [0, b[i]] of terms(x, *params[i]) for each row i,
    on one integrate_smooth_rows ladder (integrate_smooth's fallback, integrate_adaptive,
    where no rule settles)."""
    cols = [np.array(col)[:, None] for col in zip(*params)]

    def f(rows, x):
        return _wave_values(terms(x, *(col[rows] for col in cols)), wave, rate)

    return [res.value if res is not None else float(integrate_adaptive(
        lambda x: _wave_values(terms(x, *prm), wave, rate), 0.0, bi, _INNER_TOL).value)
        for res, prm, bi in zip(integrate_smooth_rows(f, np.zeros(len(b)), b, _INNER_TOL),
                                params, b)]


def mode_kernel_rows(m: ModeParams, points: list, eps_cone: float | None = None) -> list:
    """[mode_kernel(m, p, eps_cone) for p in points]; a point such a loop refuses raises
    before the ladders run. The region-II integrals, and each region-III one, run one
    integrate_smooth_rows ladder, which neither reads nor keeps held node terms; region I,
    and a region-III point with beta out of (0, asinh(DBL_MAX / 4)), take mode_kernel."""
    values, ii, iii, nu = [None] * len(points), {}, {}, m.nu
    for i, p in enumerate(points):
        region = classify_region(p, eps_cone)
        if region is Region.II:
            ii[i] = _region_ii_geometry(p)
        elif region is Region.III and 0.0 < (g := _region_iii_geometry(p))[0] < _BETA_SCALED:
            iii[i] = g
        else:
            values[i] = mode_kernel(m, p, eps_cone)
    geo = list(ii.values())
    for i, v in zip(ii, _integrate_rows(_region_ii_terms, geo, np.cos, nu,
                                        [math.sqrt(g[0]) for g in geo])):
        values[i] = v / math.pi
    geo = list(iii.values())
    for i, g, main, diff in zip(iii, geo, _integrate_rows(
            _region_iii_terms, [g[2:] for g in geo], np.cos, nu, [math.pi] * len(geo)),
            _integrate_rows(_diffractive_terms, [g[:1] for g in geo], np.exp, -nu,
                            [math.sqrt(g[0]) for g in geo])):
        values[i] = _region_iii_sum(nu, main, diff, g[1])
    return values


def diffractive_jump(m: ModeParams, r1: float, r2: float) -> float:
    """Jump of the kernel across the outer cone t = r1 + r2 (III minus II side)."""
    if r1 <= 0 or r2 <= 0:
        raise ValueError("radii must be > 0")
    return -0.5 * math.sin(math.pi * m.nu) / math.sqrt(r1 * r2)


def is_mode_jump_nonzero(n: int, a: float) -> bool:
    """True iff sqrt(n^2 + a) is not an integer, i.e. mode n genuinely diffracts."""
    if a < 0:
        raise ValueError("coupling a must be >= 0")
    nu = math.sqrt(n * n + a)
    nearest = round(nu)
    return abs(nu - nearest) > 1e-12 * (1.0 + nu)


def cone_sides(m: ModeParams, r2: float, t: float,
               delta_list: list | None = None):
    """The offsets (delta_list, or the default ladder; positive, strictly
    decreasing, below t - r2) and, per offset, the kernel at
    r1 = (t - r2) -/+ delta: a (region III, region II) pair."""
    r1c = t - r2
    if r1c <= 0:
        raise ValueError("need t > r2 so the cone point r1 = t - r2 is positive")
    if delta_list is None:
        # offsets well inside the asymptotic window delta << r1 r2 / (2 t nu^2)
        # where the one-sided expansion in sqrt(delta) holds
        scale = 0.04 * (r1c * r2) / (2.0 * t * (1.0 + m.nu * m.nu))
        delta_list = [scale * 0.5 ** k for k in range(6)]
    deltas = [float(d) for d in delta_list]
    if not deltas or not all(0 < d < math.inf for d in deltas):
        raise ValueError("delta_list must hold positive finite offsets")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta_list must be strictly decreasing")
    if deltas[0] >= r1c:
        raise ValueError("largest offset crosses r1 = 0")
    values = mode_kernel_rows(m, [KernelPoint(r1, r2, t) for d in deltas
                                  for r1 in (r1c - d, r1c + d)], 0.5 * deltas[-1])
    return deltas, list(zip(values[::2], values[1::2]))


def extrapolate_to_cone(deltas: list, diffs) -> float:
    """Constant term of the fit of the one-sided differences diffs at the
    offsets deltas (one offset: the difference itself).  Their error is a
    series in sqrt(delta) with delta*log(delta) terms, so the fit is
    {1, x, x^2, x^2 log x, x^3, x^3 log x} in x = sqrt(delta), truncated to
    the number of offsets."""
    x = np.sqrt(deltas)
    lx = np.log(x)
    columns = [np.ones_like(x), x, x ** 2, x ** 2 * lx, x ** 3, x ** 3 * lx]
    basis = np.stack(columns[:len(deltas)], axis=1)
    coeff = np.linalg.solve(basis, diffs)
    return float(coeff[0])


def cone_limits(m: ModeParams, r2: float, t: float) -> float:
    """One-sided limit difference of the kernel across the outer cone: the
    differences (III minus II) at cone_sides' default offsets extrapolated
    to delta = 0."""
    deltas, sides = cone_sides(m, r2, t)
    return extrapolate_to_cone(deltas, [iii - ii for iii, ii in sides])


def synthesize_kernel(a: float, p: KernelPoint, dtheta: float,
                      n_max: int) -> float:
    """Partial mode sum sum_{|n| <= n_max} e^(i n dtheta) K_{nu_n}(p).

    nu_n depends only on |n|, so the modes pair into the real sum
    K_0 + 2 sum_{n >= 1} cos(n dtheta) K_n. Normalization is pinned by the
    free case: at a = 0 the full sum converges to (t^2 - R^2)^(-1/2) with R
    the chord distance, i.e. 2 pi times the plane propagator, so physical
    values are this sum divided by 2 pi.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    total = mode_kernel(mode_params(0, a), p)
    for n in range(1, n_max + 1):
        k = mode_kernel(mode_params(n, a), p)
        total += 2.0 * math.cos(n * dtheta) * k
    return total


def verify_lipschitz_hankel(nu: float, r1: float, r2: float, t: float) -> float:
    """Residual of the damped product-Bessel integral against its closed form.

    LHS: int_0^inf e^(-t lam) J_nu(r1 lam) J_nu(r2 lam) d lam by direct
    quadrature. RHS: (1/pi)(r1 r2)^(-1/2) Q_{nu-1/2}(Z) with
    Z = (r1^2 + r2^2 + t^2)/(2 r1 r2). Independent code paths end to end.
    """
    if min(r1, r2, t) <= 0:
        raise ValueError("r1, r2, t must be > 0")

    def integrand(lam):
        return math.exp(-t * lam) * bessel_j(nu, r1 * lam) * bessel_j(nu, r2 * lam)

    lhs = integrate_decaying(integrand, 0.0, 1e-9, t).value
    z = (r1 * r1 + r2 * r2 + t * t) / (2.0 * r1 * r2)
    rhs = legendre_q_shifted(nu, z) / (math.pi * math.sqrt(r1 * r2))
    return abs(lhs - rhs)
