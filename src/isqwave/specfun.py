"""Special functions: Gamma, Bessel J of real order nu >= 0, and the
second-kind Legendre function of half-integer-shifted degree on (1, inf).

Everything is self-contained (no library special functions). Bessel J is
evaluated by Miller's backward recurrence for small-to-moderate argument or
large order, and by the large-argument phase expansion at reduced order plus
upward recurrence otherwise; both branches overlap and are cross-checked in
tests. Each is written once, elementwise on a float or a numpy array.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import integrate_adaptive, integrate_decaying

MILLER_Z_MAX = 20.0        # Miller's algorithm up to here for any order
MILLER_ORDER_RATIO = 0.75  # and beyond, whenever nu >= ratio * z
BESSEL_Z_MAX = 2.0 ** 40   # past it the rounded phase z - (2mu+1)pi/4 errs > 1e-10
_LOG_EPS = 53 * math.log(2.0)  # -ln of the double-precision unit roundoff
_GAMMA_X_MAX = 171.62      # Gamma(x) overflows a double just above this
_Q_TOL = 1e-11


class DomainError(ValueError):
    pass


def _order_value(order) -> float:
    nu = float(order)
    if not math.isfinite(nu) or nu < 0:
        raise DomainError(f"order must be finite and >= 0, got {order!r}")
    return nu


# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(x: float) -> float:
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (x - 1.0 + i)
    return acc


def gamma(x: float) -> float:
    """Gamma(x) for 0 < x <= 171.62, relative error around 1e-13 on
    [0.5, 171.62]; above that Gamma(x) overflows and DomainError is raised."""
    if not (0 < x <= _GAMMA_X_MAX):
        raise DomainError(f"gamma requires 0 < x <= {_GAMMA_X_MAX}, got {x!r}")
    t = x + _LANCZOS_G - 0.5
    # t^(x - 1/2) alone overflows from x ~ 143; exp(-t) scales each half back
    half_power = t ** (0.5 * (x - 0.5))
    return math.sqrt(2.0 * math.pi) * half_power * (half_power * math.exp(-t)) \
        * _lanczos_series(x)


def _debye_exponent(n: float, z: float) -> float:
    """phi with J_n(z) / |Y_n(z)| ~ exp(-phi) / 2 for n > z (Debye's
    expansions, DLMF 10.19(ii)); 0 for n <= z."""
    if n <= z:
        return 0.0
    a = math.acosh(n / z)
    return 2.0 * n * (a - math.tanh(a))


def _miller_start(nu: float, z: float) -> int:
    """Start index N of the backward recurrence for J_nu at arguments up to z.

    Started from y_{N+1} = 0, the recurrence yields J_nu (1 + e) with
    e ~ (J_N / Y_N) (Y_nu / J_nu) (Gautschi, SIAM Rev. 9, 1967),
    and the Neumann sum loses terms of size ~J_N ~ exp(-phi(N) / 2). Both
    are below the unit roundoff once phi(N) >= LOG_EPS + max(LOG_EPS, phi(nu)).
    phi grows with n, so N is searched upward in steps of at most 1/32 of it.
    """
    target = _LOG_EPS + max(_LOG_EPS, _debye_exponent(nu, z))
    n = math.floor(max(nu, z)) + 1
    while _debye_exponent(n, z) < target:
        n += 1 + n // 32
    return n


def _miller_steps(mu: float, m: int, z, weight: list, n_hi: int, n_lo: int,
                  r, u, p):
    """Steps n_hi .. n_lo + 1 of the recurrence in _bessel_miller."""
    for n in range(n_hi, n_lo, -1):
        r = z / (2.0 * (mu + n) - z * r)
        u = weight[n - 1] + u * r
        if n <= m:
            p = p * r
    return r, u, p


def _bessel_miller(nu: float, z, segments):
    """J_nu(z) by Miller's backward recurrence (DLMF 3.6), for z > 0 a float
    or a 1-D array. segments lists (N, k) with N decreasing: elements before
    index k start from index N of _miller_start (k is len(z), or 1 for a
    float, in the last pair).

    With m = floor(nu) and mu = nu - m, the recurrence runs from index N
    down to 0 over the orders mu + n, on the ratios
    r_n = y_n / y_{n-1} = z / (2 (mu + n) - z r_{n+1}), so nothing overflows
    at any z. The Neumann series (DLMF 10.23)
        (z/2)^mu = sum_k (mu + 2k) Gamma(mu + k) / k! J_{mu+2k}(z)
    normalises y, accumulated as u_n = sum_{2k >= n} c_k y_{2k} / y_n, and
    the product of r_1 .. r_m carries y_0 up to y_m. An element joins at
    its own N with r = 0, u = c at N and p = 1, the state its own run
    starts from (z * 0.0 is 0.0), so each element gets the bits of that run;
    the weights of the largest N serve every smaller one.
    """
    m = math.floor(nu)
    mu = nu - m
    n_top = segments[0][0]
    # c_0 = Gamma(mu + 1) and c_k = (mu + 2k) g_k with g_k = Gamma(mu + k) / k!
    weight = [0.0] * (n_top + 1)
    g = weight[0] = gamma(mu + 1.0)
    for k in range(1, n_top // 2 + 1):
        weight[2 * k] = (mu + 2 * k) * g
        g *= (mu + k) / (k + 1)
    if len(segments) == 1:
        _, u, p = _miller_steps(mu, m, z, weight, n_top, 0,
                                0.0, weight[n_top], 1.0)
    else:
        r, u, p = np.zeros_like(z), np.empty_like(z), np.ones_like(z)
        for n, k in reversed(segments):
            u[:k] = weight[n]
        ends = [n for n, _ in segments[1:]] + [0]
        for (n_hi, k), n_lo in zip(segments, ends):
            r[:k], u[:k], p[:k] = _miller_steps(
                mu, m, z[:k], weight, n_hi, n_lo, r[:k], u[:k], p[:k])
    # np.power, unlike **, rounds a float exactly as it rounds an array
    return np.power(z, mu) / 2.0 ** mu * p / u


def _bessel_asymptotic_reduced(mu, z):
    """Phase expansion for J_mu(z), |mu| < 2, z > 20 (DLMF 10.17(i)), where
    none of its 29 terms grows against the one before it. mu is a float, or
    a column of orders that each get the bits of their own call."""
    mu4 = 4.0 * mu * mu
    P, Q, term = 1.0, 0.0, 1.0
    for k in range(1, 30):
        term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * z)
        # the sign (-1)^j as an add or a subtract: x + t * (-1.0) is x - t
        if k % 2 == 1:
            Q = Q + term if k % 4 == 1 else Q - term
        else:
            P = P + term if k % 4 == 0 else P - term
    omega = z - mu * math.pi / 2.0 - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * z)) * (P * np.cos(omega) - Q * np.sin(omega))


def _bessel_large_z(nu: float, z):
    """J_nu(z) for z > MILLER_Z_MAX and nu < MILLER_ORDER_RATIO*z: reduced-order
    phase expansion plus upward recurrence (stable since nu < z here)."""
    m = int(math.floor(nu))
    mu0 = nu - m
    if m == 0:
        return _bessel_asymptotic_reduced(mu0, z)
    if isinstance(z, float):    # two scalar passes, cheaper than one on (2, 1)
        j_lo = _bessel_asymptotic_reduced(mu0, z)
        j_hi = _bessel_asymptotic_reduced(mu0 + 1.0, z)
    else:                       # an array takes both orders in one pass
        j_lo, j_hi = _bessel_asymptotic_reduced(np.array([[mu0], [mu0 + 1.0]]), z)
    for k in range(1, m):
        j_lo, j_hi = j_hi, (2.0 * (mu0 + k) / z) * j_hi - j_lo
    return j_hi


def bessel_j(order, z: float) -> float:
    """J_nu(z) for nu >= 0 and 0 <= z <= BESSEL_Z_MAX = 2^40 (DomainError
    above), to 1e-10 absolute: 6.5e-11 at most against mpmath on [2^39, 2^40].

    Where |J_nu(z)| falls below the smallest normal double, 2.2e-308 (nu much
    larger than z), the value returned is subnormal or 0: its absolute error
    stays below 1e-307, its relative error does not.
    """
    nu = _order_value(order)
    if not 0.0 <= z <= BESSEL_Z_MAX:
        raise DomainError(f"bessel_j requires 0 <= z <= 2**40, got {z!r}")
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if z <= MILLER_Z_MAX or nu >= MILLER_ORDER_RATIO * z:
        z = float(z)
        return float(_bessel_miller(nu, z, [(_miller_start(nu, z), 1)]))
    return float(_bessel_large_z(nu, float(z)))


def bessel_j_array(order, z: np.ndarray) -> np.ndarray:
    """bessel_j over an array of arguments z of any shape, for a single order,
    in bessel_j's envelope 0 <= z <= BESSEL_Z_MAX (DomainError outside it).

    Each row (last axis) gets the bits of a 1-D call on it: its Miller
    elements start at _miller_start of their largest, in one recurrence
    shared by all rows."""
    nu = _order_value(order)
    z = np.asarray(z, dtype=float)
    if not np.all((z >= 0.0) & (z <= BESSEL_Z_MAX)):
        raise DomainError("bessel_j_array requires 0 <= z <= 2**40")
    out = np.empty_like(z)
    zero = z == 0.0
    out[zero] = 1.0 if nu == 0.0 else 0.0
    small = (~zero) & ((z <= MILLER_Z_MAX) | (nu >= MILLER_ORDER_RATIO * z))
    if small.any():
        zs = z[small]
        width = z.shape[-1] if z.ndim else 1
        counts = np.count_nonzero(small.reshape(-1, width), axis=1)
        counts = counts[counts > 0]
        firsts = np.cumsum(counts) - counts
        tops = [_miller_start(nu, float(x)) for x in np.maximum.reduceat(zs, firsts)]
        # rows by decreasing start, so the elements still running form a prefix
        rows = sorted(range(len(tops)), key=lambda i: -tops[i])
        segments = list({tops[i]: int(k)
                         for i, k in zip(rows, np.cumsum(counts[rows]))}.items())
        perm = np.concatenate([np.arange(firsts[i], firsts[i] + counts[i])
                               for i in rows])
        vals = np.empty_like(zs)
        vals[perm] = _bessel_miller(nu, zs[perm], segments)
        out[small] = vals
    big = (~zero) & ~small
    if big.any():
        out[big] = _bessel_large_z(nu, z[big])
    return out


def legendre_q_shifted(order, Z: float) -> float:
    """Q_{nu-1/2}(Z) for Z > 1, to _Q_TOL, via its real integral
    representation.

    The integral runs over s in [acosh(Z), inf) with integrand
    exp(-s*nu) / sqrt(2*cosh(s) - 2*Z). The inverse-square-root endpoint is
    removed by s = eta + w^2 on the first unit of arclength; the remainder
    decays like exp(-s*(nu+1/2)) and goes to the truncated-tail routine.
    """
    nu = _order_value(order)
    if not (Z > 1.0):
        raise DomainError(f"legendre_q_shifted requires Z > 1, got {Z!r}")
    eta = math.acosh(Z)
    sinh_eta = math.sqrt((Z - 1.0) * (Z + 1.0))

    def near(w):
        w2 = w * w
        # 2*cosh(eta + w^2) - 2*Z without cancellation:
        # cosh(x) - 1 = 2 sinh(x/2)^2 keeps full relative precision
        den = 2.0 * (Z * 2.0 * math.sinh(0.5 * w2) ** 2
                     + sinh_eta * math.sinh(w2))
        return 2.0 * w * math.exp(-nu * (eta + w2)) / math.sqrt(den)

    def far(s):
        return math.exp(-nu * s) / math.sqrt(2.0 * math.cosh(s) - 2.0 * Z)

    r1 = integrate_adaptive(near, 0.0, 1.0, 0.5 * _Q_TOL)
    r2 = integrate_decaying(far, eta + 1.0, 0.5 * _Q_TOL,
                            decay_rate_hint=nu + 0.5)
    return r1.value + r2.value
