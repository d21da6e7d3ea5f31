"""Each acceptance measurement, defined once, and the verify battery.

The acceptance tests, `isqwave verify` and the audit subcommands share the
measurements here; each keeps its own pass rule.  No library module
imports this one.
"""

from __future__ import annotations

import math

import numpy as np

from .energy import (CommutantParams, alpha_star, hamilton_derivative_symbol,
                     hardy_check, norm_equivalence, random_suite,
                     sample_states, sign_audit)
from .geodesic import (FlowState, OriginReached, circle, integrate_flow,
                       sec_envelope_bound)
from .hankel import (RadialField, RadialGrid, apply_radial_operator,
                     graded_grid, hankel_transform, verify_involution)
from .kernel import (KernelPoint, cone_limits, diffractive_integral,
                     is_mode_jump_nonzero, mode_params, verify_lipschitz_hankel)
from .oracle import FDConfig, compare_kernel, leakage_ratio, solve_mode

# (r1, t) oracle samples at r2 = 1: oracle-compare's default, quick verify
DEFAULT_SAMPLES = (
    (0.7, 1.2), (1.5, 1.2), (1.6, 2.2), (2.4, 2.2), (1.3, 1.6),
    (0.4, 2.2), (0.8, 2.2), (0.3, 1.6),
)

STRIKE_STATE = FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=1.0,
                         zeta=(0.0,))
ENVELOPE_STATE = FlowState(t=0.0, r=1.0 / math.cos(0.5), theta=(0.2,),
                           tau=1.0, xi=math.tan(0.5), zeta=(1.0,))
CONSERVED_STATE = FlowState(t=0.0, r=1.3, theta=(0.4,), tau=1.2, xi=-0.3,
                            zeta=(0.7,))


def acceptance_samples() -> list:
    """The 29 oracle sample points of criterion 7, at r2 = 1."""
    rows = ((1.2, (0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9)),
            (1.6, (0.8, 1.0, 1.2, 1.4, 1.8, 2.2)),
            (2.2, (1.4, 1.6, 1.8, 2.0, 2.4, 2.8)),
            (1.6, (0.2, 0.3, 0.4, 0.5)),                # beyond the front
            (2.2, (0.3, 0.5, 0.7, 0.9, 1.1)))
    return [KernelPoint(r1, 1.0, t) for t, r1s in rows for r1 in r1s]


def oracle_config(dr: float) -> FDConfig:
    """FD solve of mode n = 0 at a = 1/4 (nu = 1/2) out to t = 2.5."""
    return FDConfig(r_max=4.0, dr=dr, dt=0.8 * dr, T=2.5,
                    mollifier_width=max(1.2e-2, 6.0 * dr), nu=0.5)


def diffractive_limit(nu: float, beta: float) -> float:
    """Beta -> 0 limit of the cone-edge integral I = pi/2 - nu*beta + ...:
    one Richardson step, 2 I(nu, beta/2) - I(nu, beta) = pi/2 + O(beta^2)."""
    return 2.0 * diffractive_integral(nu, beta / 2) \
        - diffractive_integral(nu, beta)


def cone_jump(n: int, a: float) -> float:
    """Jump of mode n across the reflected cone at r2 = 1, t = 2."""
    return cone_limits(mode_params(n, a), 1.0, 2.0)


def involution_defect(points: int, r_max: float = 12.0,
                      order: float = 0.0) -> float:
    """Involution defect of the Hankel transform on a unit Gaussian."""
    g = graded_grid(r_max, points)
    return verify_involution(RadialField(g, np.exp(-g.points ** 2 / 2)),
                             order)


def eigen_relation_defect() -> float:
    """Relative L2 defect of H(L u) = -lam^2 H(u) at order 2."""
    nu = 2.0
    g = graded_grid(12.0, 160)
    fld = RadialField(g, g.points ** 2 * np.exp(-g.points ** 2 / 2))
    lam_grid = RadialGrid(np.linspace(0.05, 6.0, 120), 6.0)
    left = hankel_transform(apply_radial_operator(fld, nu), nu, lam_grid)
    right = hankel_transform(fld, nu, lam_grid)
    target = -lam_grid.points ** 2 * right.values
    return np.linalg.norm(left.values - target) / np.linalg.norm(target)


def oracle_errors(dr: float, points) -> np.ndarray:
    """Per-point relative error of the FD oracle against the kernel."""
    report = compare_kernel(mode_params(0, 0.25), oracle_config(dr), points)
    return np.array([e.rel_err for e in report.points])


def convergence_order(coarse: np.ndarray, fine: np.ndarray) -> float:
    """Median observed order between errors at step 2 dr and at dr."""
    return float(np.median(np.log2(coarse / fine)))


def leakage(dr: float) -> float:
    """Oracle field at four quiet region-I points, relative to its peak."""
    quiet = [KernelPoint(3.0, 1.0, 0.5), KernelPoint(3.5, 1.0, 1.0),
             KernelPoint(2.6, 1.0, 1.5), KernelPoint(3.0, 1.0, 1.9)]
    return leakage_ratio(solve_mode(oracle_config(dr), 1.0), quiet)


def strike_radius(step: float) -> float:
    """Radius at which the inward radial ray stops; inf if it never does."""
    try:
        integrate_flow(STRIKE_STATE, circle(), 2.0, step, "full")
    except OriginReached as exc:
        return exc.trajectory.states[-1].r
    return math.inf


def envelope_dip(step: float) -> float:
    """How far the turning orbit dips below its secant envelope."""
    env = sec_envelope_bound(ENVELOPE_STATE, circle())
    traj = integrate_flow(ENVELOPE_STATE, circle(), 1.8, step, "rescaled")
    return env - min(st.r for st in traj.states)


def conservation_drift(step: float) -> float:
    """Largest drift of the characteristic value and of tau on one flow."""
    traj = integrate_flow(CONSERVED_STATE, circle(), 1.0, step, "full")
    sig = traj.sigma_values
    drift = float(np.max(np.abs(sig - sig[0])))
    tau_drift = max(abs(st.tau - CONSERVED_STATE.tau) for st in traj.states)
    return max(drift, tau_drift)


def parametrization_gap(step: float) -> float:
    """Largest (r, theta) gap, for r > 0.1, between the full and rescaled
    flows on a shared t grid: both draw one curve in (t, r, theta) with t
    increasing, so this bounds the Hausdorff distance from above."""
    def curve(span, system):
        states = integrate_flow(CONSERVED_STATE, circle(), span, step,
                                system).states
        return (np.array([st.t for st in states]),
                np.array([st.r for st in states]),
                np.array([st.theta[0] for st in states]))

    tf, rf, thf = curve(2.0, "full")
    tr, rr, thr = curve(2.0 / CONSERVED_STATE.r ** 2, "rescaled")
    grid = np.linspace(max(tf[0], tr[0]), min(tf[-1], tr[-1]), 4000)
    r_f = np.interp(grid, tf, rf)
    gap = np.hypot(r_f - np.interp(grid, tr, rr),
                   np.interp(grid, tf, thf) - np.interp(grid, tr, thr))
    return float(np.max(gap[r_f > 0.1]))


def dual_route_gap(alpha: float, count: int, seed: int) -> float:
    """Largest |analytic - fd| Hamilton derivative over Halton samples."""
    params, g = CommutantParams(alpha=alpha), circle()
    return max(abs(hamilton_derivative_symbol(params, st, g=g)[0]
                   - hamilton_derivative_symbol(params, st, g=g,
                                                method="fd")[0])
               for st in sample_states(params, seed, count, g=g))


def verify_rows(quick: bool, seed: int):
    """Yield (name, value, bound) per line of `isqwave verify`, in order;
    a line passes when value <= bound.  The quick tier is coarser."""
    yield "diffractive-limit", max(
        abs(diffractive_limit(nu, 1e-4) - math.pi / 2)
        for nu in (0.5, 1.2, 3.7)), 1e-5
    yield "front-jump", abs(cone_jump(0, 0.25) + 0.5), 1e-3
    n_max = 4 if quick else 10
    yield "free-null", max(abs(cone_jump(n, 0.0))
                           for n in range(-n_max, n_max + 1)), 1e-6
    yield "exclusion-flag", 1.0 if is_mode_jump_nonzero(1, 3.0) else 0.0, 0.0
    yield "exclusion-jump", abs(cone_jump(1, 3.0)), 1e-6

    if quick:
        nus, ratios, ts = (0.5, 1.2), (0.5, 2.0), (0.8, 3.0)
    else:
        nus, ratios, ts = (0.5, 1.2, 2.5), (0.5, 1.0, 2.0), (0.8, 1.5, 3.0)
    yield "lipschitz-hankel", max(verify_lipschitz_hankel(nu, ratio, 1.0, t)
                                  for nu in nus for ratio in ratios
                                  for t in ts), 1e-6

    d80 = involution_defect(80)
    yield "hankel-involution", d80, 1e-3
    yield "hankel-involution-refine", involution_defect(160) / d80, 1.0
    yield "hankel-eigen", eigen_relation_defect(), 1e-2

    # the agreement errors are one end of the order measurement: the coarse
    # end against 2e-3 in quick, the fine end in full
    if quick:
        dr, pts = 4e-3, [KernelPoint(r1, 1.0, t) for r1, t in DEFAULT_SAMPLES]
    else:
        dr, pts = 1e-3, acceptance_samples()
    errs = oracle_errors(dr, pts)
    yield "oracle-agreement", float(errs.max()), 5e-3 if quick else 0.02
    yield "oracle-leakage", leakage(dr), 1e-3
    mid = oracle_errors(2e-3, pts)
    coarse, fine = (errs, mid) if quick else (mid, errs)
    yield "oracle-order", abs(convergence_order(coarse, fine) - 2.0), 0.3

    yield "flow-origin", strike_radius(1e-4), 1e-6
    step = 3e-4 if quick else 1e-4
    yield "flow-envelope", envelope_dip(step), 1e-6
    yield "flow-conservation", conservation_drift(1e-3 if quick else 1e-4), \
        1e-6 if quick else 1e-8
    yield "flow-rescaled-match", parametrization_gap(step), \
        1e-5 if quick else 1e-6

    for n in (3,) if quick else (3, 4, 5):
        suite = random_suite(n, count=5 if quick else 20, seed=seed)
        yield f"hardy-n{n}", max(hardy_check(tf, n)[2] for tf in suite), \
            (2.0 / (n - 2)) ** 2 * (1.0 + 1e-9)
        c1, c2, low, high = norm_equivalence(suite, n, 1.0)
        yield f"norm-equivalence-n{n}", max(c1 - low, high - c2), 1e-10

    alpha, kept = (4.0, 1500) if quick else (alpha_star(), 10000)
    yield "symbol-audit", sign_audit(CommutantParams(alpha=alpha),
                                     min_kept=kept).max_value, 1e-12
    yield "symbol-dual-route", dual_route_gap(4.0, 40 if quick else 100,
                                              seed), 1e-6
