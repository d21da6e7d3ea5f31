"""Numerical integration used by every closed-form evaluation in the package, and
gauss_legendre, the builder of every Gauss-Legendre rule it uses (on first use).

Four entry points, and a row-batched twin of the first:

 * integrate_smooth            -- analytic integrands, vectorised, on Gauss-Legendre rules
 * integrate_smooth_rows       -- integrate_smooth's ladder for many intervals at once
 * integrate_adaptive          -- smooth (piecewise analytic) integrands on [a, b]
 * integrate_endpoint_singular -- integrands with inverse-square-root blowup at a and/or b
 * integrate_decaying          -- semi-infinite integrals of exponentially damped integrands

All raise ValueError at entry for a non-finite bound, tol or decay_rate_hint, or a tol <= 0;
the four return a QuadResult, and the adaptive ones share one evaluation budget per call.
integrate_smooth reads its first rungs off a given block of f's values on their joined nodes.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import NamedTuple

import numpy as np

DEFAULT_TOL = 1e-10
EVAL_BUDGET = 2 ** 16
GAUSS_LADDER = (32, 64, 128, 256, 512, 1024)   # rule sizes of integrate_smooth
_ROW_CHUNK = 2 ** 15        # array elements per f call of integrate_smooth_rows


class QuadratureError(Exception):
    pass


class NonConvergence(QuadratureError):
    """Error target unmet after exhausting the subdivision budget."""


class NonFinite(QuadratureError):
    """Integrand returned nan/inf at an interior node."""


class BadHint(QuadratureError):
    """Tail samples of a 'decaying' integrand do not decay at the hinted rate."""


class QuadResult(NamedTuple):
    value: float
    error_estimate: float
    evaluations: int
    rungs: int = 0          # Gauss-Legendre rules integrate_smooth ran (its held depth)


# 15-point Kronrod extension of 7-point Gauss (abscissae on [-1, 1], symmetric).
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
# Gauss-7 weights; nodes are _XGK[1], _XGK[3], _XGK[5] and the centre.
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)


def _check_interval(a: float, b: float, tol: float):
    if not (math.isfinite(a) and math.isfinite(b) and 0 < tol < math.inf):
        raise ValueError(f"a, b, tol must be finite and tol > 0: got {a!r}, {b!r}, {tol!r}")
    if b < a:
        raise ValueError("need a <= b")


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel. Returns (kronrod, |kronrod - gauss|)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    if not math.isfinite(fc):
        raise NonFinite(f"integrand non-finite at s={c!r}")
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        x = h * _XGK[i]
        f1 = f(c - x)
        f2 = f(c + x)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            bad = c - x if not math.isfinite(f1) else c + x
            raise NonFinite(f"integrand non-finite at s={bad!r}")
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    return h * kron, abs(h * (kron - gauss))


def integrate_adaptive(f, a: float, b: float, tol: float = DEFAULT_TOL,
                       budget: int = EVAL_BUDGET) -> QuadResult:
    """Globally adaptive integration of a piecewise-analytic f over [a, b].

    The worst interval (largest local Kronrod-Gauss discrepancy) is bisected
    until the summed error estimate drops below tol or the budget runs out.
    """
    _check_interval(a, b, tol)
    if b == a:
        val = f(a)
        if not math.isfinite(val):
            raise NonFinite(f"integrand non-finite at s={a!r}")
        return QuadResult(0.0, 0.0, 1)

    val, err = _gk15(f, a, b)
    evals = 15
    # heap entries: (-err, tiebreak, a, b, value, err)
    heap = [(-err, 0, a, b, val, err)]
    counter = 1
    total = val
    total_err = err
    while total_err > tol and heap and evals + 30 <= budget:
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        im = 0.5 * (ia + ib)
        if im <= ia or im >= ib:
            # interval at floating-point resolution; its error is irreducible
            continue
        v1, e1 = _gk15(f, ia, im)
        v2, e2 = _gk15(f, im, ib)
        evals += 30
        total += (v1 + v2) - ival
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, counter, ia, im, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, im, ib, v2, e2))
        counter += 2
    if total_err > tol:
        raise NonConvergence(
            f"error estimate {total_err:.3e} > tol {tol:.3e} "
            f"after {evals} evaluations")
    return QuadResult(total, total_err, evals)


@functools.cache
def gauss_legendre(n: int):
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's guesses (Hale and Townsend, SIAM J. Sci. Comput.
    2013), carrying P_j - P_{j-1} in y = 1 - x for accuracy next to x = 1; O(n) memory.
    """
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes: got {n!r}")
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(20):
        y = 1.0 - x
        p, dif = x, -y                       # P_1 and P_1 - P_0
        for j in range(2, n + 1):
            dif = ((j - 1) * dif - (2 * j - 1) * y * p) / j
            p = p + dif
        d = n * (y * p - dif)                # (1 - x^2) P_n'(x) = n (P_{n-1} - x P_n)
        dx = p * y * (1.0 + x) / d           # P_n / P_n'
        root = x - dx
        if np.max(np.abs(dx)) <= 1e-12:
            break
        x = root
    # w = 2 (1 - x^2) / d^2 at the root x - dx; d is stationary there, 1 - x^2 is not
    w = 2.0 * ((1.0 - root) * (1.0 + root) + 2.0 * root * ((root - x) + dx)) / (d * d)
    rule = np.concatenate((-root, root[::-1][n % 2:])), np.concatenate((w, w[::-1][n % 2:]))
    for arr in rule:
        arr.setflags(write=False)
    return rule


def integrate_smooth(f, a: float, b: float, tol: float = DEFAULT_TOL,
                     block=()) -> QuadResult:
    """Integrate an analytic f over [a, b] on a ladder of Gauss-Legendre rules.

    f maps an array of nodes to its values. The GAUSS_LADDER rules run in turn until a
    value is within tol of the one before (the error estimate); if none settles,
    integrate_adaptive runs on f at scalars and its errors propagate. A rule's values are
    its slice of block (f on the first rules' nodes, joined in ladder order) where block
    covers it, else one call of f; evaluations counts block and f's nodes.
    """
    _check_interval(a, b, tol)
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    evals, prev, end = len(block), math.nan, 0
    for rungs, n in enumerate(GAUSS_LADDER, 1):
        x, w = gauss_legendre(n)
        end += n
        if end <= len(block):
            fx = block[end - n:end]
        else:
            fx, evals = f(c + h * x), evals + n
        val = h * float(w.dot(fx))
        if abs(val - prev) <= tol:
            return QuadResult(val, abs(val - prev), evals, rungs)
        prev = val
    res = integrate_adaptive(f, a, b, tol)
    return QuadResult(float(res.value), float(res.error_estimate),
                      evals + res.evaluations, rungs)


def integrate_smooth_rows(f, a, b, tol: float = DEFAULT_TOL) -> list:
    """integrate_smooth's QuadResult over [a[i], b[i]] for each row i, or None where no
    rule settles (integrate_smooth on row i runs the adaptive fallback). f(rows, x) maps
    row indices and their nodes x, of shape (len(rows), n), to values: each rule calls it
    on the unsettled rows, in chunks of about _ROW_CHUNK nodes, and dots each row."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for ai, bi in zip(a.tolist(), b.tolist(), strict=True):
        _check_interval(ai, bi, tol)
    c, h, prev = 0.5 * (a + b), 0.5 * (b - a), np.full(len(a), math.nan)
    results, rows, evals = [None] * len(a), np.arange(len(a)), 0
    for rungs, n in enumerate(GAUSS_LADDER, 1):
        if not len(rows):
            break
        x, w = gauss_legendre(n)
        evals, step = evals + n, max(1, _ROW_CHUNK // n)
        val = h * np.concatenate([np.vecdot(f(rows[k:k + step], c[k:k + step, None]
                                              + h[k:k + step, None] * x), w)
                                  for k in range(0, len(rows), step)])
        err = np.abs(val - prev)
        done = err <= tol
        if done.any():
            for i, v, e in zip(rows[done].tolist(), val[done].tolist(), err[done].tolist()):
                results[i] = QuadResult(v, e, evals, rungs)
            left = ~done
            rows, val, c, h = rows[left], val[left], c[left], h[left]
        prev = val
    return results


def integrate_endpoint_singular(f, a: float, b: float,
                                tol: float = DEFAULT_TOL) -> QuadResult:
    """Integrate f over [a, b] where f may blow up like (s-a)^(-1/2) or (b-s)^(-1/2).

    The interval is split at the midpoint and each half is mapped by
    s = a + v^2 (resp. s = b - w^2), which turns an inverse-square-root
    endpoint into a smooth integrand; the endpoints themselves are never
    sampled because the underlying panel rule is open.
    """
    _check_interval(a, b, tol)
    if b == a:
        return QuadResult(0.0, 0.0, 1)
    m = 0.5 * (a + b)

    def left(v):
        return 2.0 * v * f(a + v * v)

    def right(w):
        return 2.0 * w * f(b - w * w)

    rl = integrate_adaptive(left, 0.0, math.sqrt(m - a), 0.5 * tol,
                            budget=EVAL_BUDGET // 2)
    rr = integrate_adaptive(right, 0.0, math.sqrt(b - m), 0.5 * tol,
                            budget=EVAL_BUDGET // 2)
    return QuadResult(rl.value + rr.value,
                      rl.error_estimate + rr.error_estimate,
                      rl.evaluations + rr.evaluations)


def integrate_decaying(f, a: float, tol: float = DEFAULT_TOL,
                       decay_rate_hint: float = 1.0) -> QuadResult:
    """Integrate f over [a, infinity) for |f| eventually below M*exp(-kappa*s).

    decay_rate_hint must be a lower bound on the true decay rate kappa. The
    integral is truncated where the implied tail bound drops below tol/2 and
    the finite part is handled adaptively. Window maxima of |f| on the way to
    the truncation point are checked against the hinted rate; a clear
    contradiction raises BadHint.
    """
    kappa = decay_rate_hint
    if not (math.isfinite(a) and 0 < tol < math.inf and 0 < kappa < math.inf):
        raise ValueError("a, tol, decay_rate_hint must be finite, tol and decay_rate_hint "
                         f"> 0: got {a!r}, {tol!r}, {kappa!r}")
    # empirical amplitude for the tail bound M*exp(-kappa*(s-a))
    M = 0.0
    for k in range(8):
        x = a + (k + 0.5) / kappa
        M = max(M, abs(f(x)) * math.exp(kappa * (x - a)))
    if M == 0.0:
        T = a + 16.0 / kappa
    else:
        T = a + max(math.log(2.0 * M / (kappa * tol)), 1.0) / kappa

    # decay sanity check: 8 windows of 8 samples each
    n_w, n_s = 8, 8
    wmax = []
    for i in range(n_w):
        mx = 0.0
        for j in range(n_s):
            x = a + (T - a) * (i + (j + 0.5) / n_s) / n_w
            mx = max(mx, abs(f(x)))
        wmax.append(mx)
    peak = max(range(n_w), key=lambda i: wmax[i])
    span = (T - a) / n_w
    predicted = wmax[peak] * math.exp(-kappa * span * (n_w - 1 - peak)) \
        * math.exp(kappa * 0.25 * (T - a))
    if wmax[-1] > max(predicted, tol):
        raise BadHint(
            f"tail samples (last window max {wmax[-1]:.3e}) decay slower "
            f"than hinted rate {kappa:g}")

    res = integrate_adaptive(f, a, T, 0.5 * tol)
    tail_bound = M * math.exp(-kappa * (T - a)) / kappa
    return QuadResult(res.value, res.error_estimate + tail_bound,
                      res.evaluations + n_w * n_s + 8)
