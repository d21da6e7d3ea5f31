"""Seeded workloads of the isqwave benchmark.

Each workload is a fixed-length list of ops drawn from a seed. `generate`
returns the drawn parameters as plain data; `build` turns them into tasks
whose inputs (grids, fields, flow states, test-function suites) are
constructed before any timing starts. Every task calls only public
functions of `isqwave`, looked up on the module at call time so that the
traced run's wrappers see the call, and checks its result against a bound
copied from the repository's tests.

Why each workload exists:

* propagator  -- the kernel-grid / front-scan use: per-mode kernels summed
  to high order, cone jumps and the Lipschitz-Hankel identity. It is
  dominated by adaptive quadrature over Python callbacks and scalar Bessel.
* transform   -- Hankel transforms on graded grids, the array Bessel path
  and the finite-difference oracle; `kernel` appears only as the many
  low-order calls the oracle's mollification makes.
* phase-space -- bicharacteristic flow and the energy audits, with neither
  kernel nor quadrature: long flows, origin strikes, sign audits, the
  analytic-versus-FD Hamilton derivative and the norm inequalities.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from isqwave import energy, geodesic, hankel, kernel, oracle

WORKLOADS = ("propagator", "transform", "phase-space")

# Ops per kind and pass. The counts put the median and the 90th percentile
# of per-op time inside one op kind each, away from a boundary between two
# kinds, so that the percentiles do not jump from kind to kind by seed:
# jump and region-II mode-sum on propagator, eigen on transform, and
# dual-route and the flow / norm-equiv / audit group on phase-space.
COUNTS = {
    "propagator": {"jump": 70, "lipschitz": 12, "mode-sum-II": 24,
                   "mode-sum-III": 12},
    "transform": {"involution": 3, "eigen": 94, "fd-compare": 3},
    "phase-space": {"hardy": 36, "dual-route": 24, "audit-chunk": 16,
                    "norm-equiv": 12, "sign-audit": 2, "flow": 8,
                    "strike": 4},
}

# Bounds, copied from the tests that check the same quantity.
MODE_SUM_TOL = 1e-3        # tests/test_kernel.py, free-case plane propagator
JUMP_TOL = 1e-4            # tests/test_kernel.py, jump formula
LIPSCHITZ_TOL = 1e-6       # tests/test_acceptance.py, criterion 5
INVOLUTION_TOL = 1e-3      # criterion 6
EIGEN_TOL = 1e-2           # criterion 6
FD_REL_TOL = 0.02          # criterion 7
LEAKAGE_TOL = 1e-3         # criterion 7
SIGMA_TOL = 1e-8           # criterion 8
ENVELOPE_SLACK = 1e-6      # criterion 8
AUDIT_TOL = 1e-12          # criterion 10
DUAL_ROUTE_TOL = 1e-6      # criterion 10
HARDY_SLACK = 1e-9         # criterion 9

MODE_SUM_N_II = 300
MODE_SUM_N_III = 150
INVOLUTION_SIZES = (80, 160, 320)
HANKEL_R_MAX = 12.0
EIGEN_GRID = 160
EIGEN_LAMBDAS = 4
AUDIT_ALPHA = 4.0          # above the computed threshold alpha* = 2.487
FD_SIGMA = 1.2e-2
FD_POINTS = 4
CHUNK = 256
DUAL_SAMPLES = 8


# ---------------------------------------------------------------------------
# generation: seed -> plain parameters

def _lhs(rng: random.Random, n: int, names) -> list:
    """n points of the unit cube with one point in each 1/n slice of every
    axis (a Latin hypercube). Op costs depend on these parameters, so the
    stratification keeps a pass's total cost nearly the same from seed to
    seed while each op still gets its own random inputs."""
    cols = {}
    for name in names:
        perm = list(range(n))
        rng.shuffle(perm)
        cols[name] = [(k + rng.random()) / n for k in perm]
    return [{name: cols[name][i] for name in names} for i in range(n)]


def _at(x: float, lo: float, hi: float) -> float:
    return lo + x * (hi - lo)


def _mode_sum_ii(x, rng, i):
    # a = 0; the opening angle s* of the region-II integral fixes t. The
    # partial sums converge slowest when the angle dtheta comes close to
    # s*. The error of the trailing-half average falls like n^-1.5 with a
    # heavy tail in the cut-off phase: at n = 200 it reached 1.01e-3 once
    # with s* - dtheta >= 1.2, so these sums run to n = 300.
    r1, r2 = _at(x["r1"], 0.6, 1.4), _at(x["r2"], 0.6, 1.4)
    s_star = _at(x["s_star"], 1.2, 2.0)
    t = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(s_star))
    return {"r1": r1, "r2": r2, "t": t,
            "dtheta": x["dtheta"] * min(0.6, s_star - 1.2),
            "n_max": MODE_SUM_N_II}


def _mode_sum_iii(x, rng, i):
    # behind the outer cone the sum converges to roundoff well before n = 150
    r1, r2 = _at(x["r1"], 0.6, 1.4), _at(x["r2"], 0.6, 1.4)
    return {"r1": r1, "r2": r2, "t": (r1 + r2) * _at(x["t"], 1.1, 1.6),
            "dtheta": _at(x["dtheta"], 0.0, 0.6), "n_max": MODE_SUM_N_III}


def _jump(x, rng, i):
    r2 = _at(x["r2"], 0.5, 1.5)
    return {"n": int(4 * x["n"]), "a": _at(x["a"], 0.05, 3.95), "r2": r2,
            "t": r2 + _at(x["t"], 0.5, 1.5)}


def _lipschitz(x, rng, i):
    # from nu = 2.3 on, integrate_decaying refuses some (r1, t) here with
    # BadHint (see README, known gaps)
    return {"nu": _at(x["nu"], 0.0, 2.0), "r1": _at(x["r1"], 0.5, 2.0),
            "r2": 1.0, "t": _at(x["t"], 0.8, 3.0)}


def _profile(x):
    # r^nu exp(-r^2 / (2 width^2)): regular at the origin for order nu
    return {"nu": _at(x["nu"], 0.0, 2.0), "width": _at(x["width"], 0.7, 0.9)}


def _eigen(x, rng, i):
    prof = _profile(x)
    prof["nu"] = _at(x["nu"], 0.5, 2.0)
    # one wavenumber per equal slice of (0.05, 6], so the relation is always
    # tested where the transform carries its mass as well as in its tail
    step = (6.0 - 0.05) / EIGEN_LAMBDAS
    prof["lams"] = tuple(0.05 + step * (k + rng.random())
                         for k in range(EIGEN_LAMBDAS))
    return prof


def _fd_compare(x, rng, i):
    # nu in [0.5, 0.63]: dt = 0.8 dr is stable up to nu = 0.64, and below
    # nu = 1/2 the oracle drifts from the kernel behind the outer cone
    # (see README, known gaps)
    r0 = _at(x["r0"], 0.9, 1.1)
    gap = 3.0 * FD_SIGMA + 0.05     # clear of both cones
    points = []
    for k in range(FD_POINTS):
        if k % 2 == 0:              # between the cones
            t = rng.uniform(1.1, 2.3)
            r1 = rng.uniform(abs(t - r0) + gap, t + r0 - gap)
        else:                       # behind the outer cone
            t = rng.uniform(1.4, 2.3)
            r1 = rng.uniform(0.15, t - r0 - gap)
        points.append((r1, t))
    quiet = []                      # ahead of the front, region I
    for _ in range(FD_POINTS):
        r1 = rng.uniform(2.6, 3.4)
        quiet.append((r1, rng.uniform(0.3, r1 - r0 - 0.3)))
    return {"a": _at(x["a"], 0.25, 0.4), "r0": r0, "points": tuple(points),
            "quiet": tuple(quiet)}


def _flow(x, rng, i):
    # every system on every chart, in turn
    system = ("full", "rescaled")[i % 2]
    chart = ("circle", "sphere")[(i // 2) % 2]
    if chart == "circle":
        theta, zeta = (_at(x["phi"], 0.0, 2.0 * math.pi),), (_at(x["z1"], 0.4, 1.0),)
    else:
        theta = (_at(x["phi"], 0.9, 2.2), _at(x["psi"], 0.0, 2.0 * math.pi))
        zeta = (_at(x["z1"], -0.4, 0.4), _at(x["z2"], 0.3, 0.7))
    op = {"system": system, "chart": chart, "theta": theta,
          "tau": _at(x["tau"], 0.8, 1.4), "zeta": zeta, "step": 1e-3}
    if system == "full":
        op.update(r=_at(x["r"], 1.2, 1.6), xi=_at(x["xi"], -0.5, 0.3),
                  s_span=1.0)
    else:
        # inbound. The rescaled flow blows up at parameter
        # (pi/2 + atan(xi/|zeta|)) / |zeta| > pi/2 here (|zeta| < 1,
        # xi > 0), so a span of 0.9 stays well short of it.
        op.update(r=_at(x["r"], 1.0, 1.4), xi=_at(x["xi"], 0.1, 0.6),
                  s_span=0.9)
    return op


def _strike(x, rng, i):
    # the origin is reached at s = r / tau <= 1, and the span continues
    # out along the mirrored leg
    return {"r": _at(x["r"], 0.6, 0.9), "tau": _at(x["tau"], 0.9, 1.1),
            "s_span": 1.5, "step": 1e-3}


def _hardy(x, rng, i):
    # dimensions 3, 4, 5 in turn; one seeded random_suite function per op
    return {"dim": 3 + i % 3, "suite_seed": rng.randrange(1 << 30)}


def _norm_equiv(x, rng, i):
    return {**_hardy(x, rng, i), "potential": _at(x["potential"], 0.5, 1.5)}


def _halton_start(x, rng, i):
    return {"start": rng.randrange(1, 1 << 20)}


def _sign_audit(x, rng, i):
    # the audit keeps 485 points per batch of 2048 here, so any min_kept in
    # [600, 900] scans exactly two batches
    return {"min_kept": 600 + int(301 * x["kept"])}


# group of COUNTS -> (op kind, parameter draw, names of its stratified
# unit parameters)
DRAWS = {
    "mode-sum-II": ("mode-sum", _mode_sum_ii, ("r1", "r2", "s_star", "dtheta")),
    "mode-sum-III": ("mode-sum", _mode_sum_iii, ("r1", "r2", "t", "dtheta")),
    "jump": ("jump", _jump, ("n", "a", "r2", "t")),
    "lipschitz": ("lipschitz", _lipschitz, ("nu", "r1", "t")),
    "eigen": ("eigen", _eigen, ("nu", "width")),
    "fd-compare": ("fd-compare", _fd_compare, ("a", "r0")),
    "flow": ("flow", _flow, ("phi", "psi", "z1", "z2", "tau", "r", "xi")),
    "strike": ("strike", _strike, ("r", "tau")),
    "hardy": ("hardy", _hardy, ()),
    "norm-equiv": ("norm-equiv", _norm_equiv, ("potential",)),
    "dual-route": ("dual-route", _halton_start, ()),
    "audit-chunk": ("audit-chunk", _halton_start, ()),
    "sign-audit": ("sign-audit", _sign_audit, ("kept",)),
}


def generate(workload: str, seed: int) -> list:
    """The workload's op list for a seed, as plain dicts (kind + parameters)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{int(seed)}")
    ops = []
    for group, count in COUNTS[workload].items():
        if group == "involution":
            # one profile per refinement chain of INVOLUTION_SIZES
            for x in _lhs(rng, count // len(INVOLUTION_SIZES), ("nu", "width")):
                prof = _profile(x)
                ops.extend({"kind": group, "n": n, **prof}
                           for n in INVOLUTION_SIZES)
            continue
        kind, draw, names = DRAWS[group]
        ops.extend({"kind": kind, **draw(x, rng, i)}
                   for i, x in enumerate(_lhs(rng, count, names)))
    # interleave kinds in a seeded order so no kind runs as one block; the
    # involution ops keep their coarse-to-fine order, since each checks that
    # its defect is below the one of the size before it
    inv = [op for op in ops if op["kind"] == "involution"]
    rng.shuffle(ops)
    slots = [i for i, op in enumerate(ops) if op["kind"] == "involution"]
    for i, op in zip(slots, inv):
        ops[i] = op
    return ops


# ---------------------------------------------------------------------------
# checks and outcomes

@dataclass(frozen=True)
class Check:
    """One bound test. `accuracy` marks an error-versus-tolerance check,
    the kind that margin_digits summarises; inequality and sign checks
    (Hardy ratio, audit maximum, strike radius) are not."""
    name: str
    value: float
    bound: float
    ok: bool
    accuracy: bool


def _le(name, value, bound, accuracy=True):
    value = float(value)
    return Check(name, value, bound, bool(value <= bound), accuracy)


@dataclass(frozen=True)
class Outcome:
    values: tuple               # raw numbers the op produced, for equality
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass
class Task:
    kind: str
    params: dict
    run: Callable[[], Outcome]


def margin_digits(kinds, outcomes) -> float:
    """Smallest, over op kinds, of the kind's lower quartile of
    log10(bound / error) over its accuracy checks with error > 0.

    The quartile stands in for the minimum: single worst samples (a
    dual-route point next to a cutoff edge) move the minimum over a pass by
    up to a digit from seed to seed, the lower quartile by a few percent.
    """
    by_kind: dict = {}
    for kind, out in zip(kinds, outcomes):
        for c in (out.checks if out is not None else ()):
            if c.accuracy and c.value > 0.0:
                by_kind.setdefault(kind, []).append(math.log10(c.bound / c.value))
    worst = math.inf
    for digits in by_kind.values():
        low = statistics.quantiles(digits, n=4, method="inclusive")[0] \
            if len(digits) > 1 else digits[0]
        worst = min(worst, low)
    return worst


# ---------------------------------------------------------------------------
# building: parameters -> tasks with prebuilt inputs

def _task_mode_sum(op):
    p = kernel.KernelPoint(op["r1"], op["r2"], op["t"])
    n_max, dth = op["n_max"], op["dtheta"]
    chord2 = op["r1"] ** 2 + op["r2"] ** 2 \
        - 2.0 * op["r1"] * op["r2"] * math.cos(dth)
    want = 1.0 / math.sqrt(op["t"] ** 2 - chord2)
    modes = [kernel.mode_params(n, 0.0) for n in range(n_max + 1)]
    # Between the cones the error is the truncation of this N-term average,
    # which the check itself sets; behind the outer cone the sum reaches
    # roundoff, so only there does the error measure the kernel's accuracy.
    accuracy = kernel.classify_region(p) is kernel.Region.III

    def run():
        terms = [kernel.mode_kernel(modes[0], p)]
        for n in range(1, n_max + 1):
            terms.append(2.0 * math.cos(n * dth) * kernel.mode_kernel(modes[n], p))
        # partial sums oscillate; average them over the trailing half
        avg = float(np.mean(np.cumsum(terms)[n_max // 2:]))
        return Outcome((avg,), (_le("mode-sum", abs(avg - want), MODE_SUM_TOL,
                                    accuracy),))
    return run


def _task_jump(op):
    m = kernel.mode_params(op["n"], op["a"])
    r2, t = op["r2"], op["t"]

    def run():
        got = kernel.cone_limits(m, r2, t)
        want = kernel.diffractive_jump(m, t - r2, r2)
        return Outcome((got,), (_le("jump", abs(got - want), JUMP_TOL),))
    return run


def _task_lipschitz(op):
    def run():
        res = kernel.verify_lipschitz_hankel(op["nu"], op["r1"], op["r2"], op["t"])
        return Outcome((res,), (_le("lipschitz", res, LIPSCHITZ_TOL),))
    return run


def _profile_field(grid, nu, width):
    r = grid.points
    return hankel.RadialField(grid, r ** nu * np.exp(-r ** 2 / (2.0 * width ** 2)))


def _task_involution(op, defects):
    """`defects` maps (nu, width, n) to the defect found in this pass; the
    op checks its own defect against the one of the next coarser size."""
    n = op["n"]
    fld = _profile_field(hankel.graded_grid(HANKEL_R_MAX, n), op["nu"], op["width"])
    sizes = INVOLUTION_SIZES
    coarser = (op["nu"], op["width"], sizes[sizes.index(n) - 1]) \
        if sizes.index(n) > 0 else None

    def run():
        defect = hankel.verify_involution(fld, op["nu"])
        checks = [_le(f"involution.n{n}", defect, INVOLUTION_TOL)]
        if coarser is not None:
            before = defects.get(coarser, math.nan)
            checks.append(Check("involution.refines", defect, before,
                                bool(defect < before), False))
        defects[(op["nu"], op["width"], n)] = defect
        return Outcome((defect,), tuple(checks))
    return run


def _task_eigen(op):
    nu = op["nu"]
    fld = _profile_field(hankel.graded_grid(HANKEL_R_MAX, EIGEN_GRID),
                         nu, op["width"])
    lam = hankel.RadialGrid(np.array(op["lams"]), 6.0)

    def run():
        left = hankel.hankel_transform(hankel.apply_radial_operator(fld, nu),
                                       nu, lam)
        right = hankel.hankel_transform(fld, nu, lam)
        target = -lam.points ** 2 * right.values
        rel = float(np.linalg.norm(left.values - target) / np.linalg.norm(target))
        return Outcome(tuple(left.values) + tuple(right.values),
                       (_le("eigen", rel, EIGEN_TOL),))
    return run


def _task_fd_compare(op):
    m = kernel.mode_params(0, op["a"])
    dr = 1e-3
    cfg = oracle.FDConfig(r_max=4.0, dr=dr, dt=0.8 * dr, T=2.5,
                          mollifier_width=FD_SIGMA, nu=m.nu)
    r0 = op["r0"]
    points = [kernel.KernelPoint(r1, r0, t) for r1, t in op["points"]]
    quiet = [kernel.KernelPoint(r1, r0, t) for r1, t in op["quiet"]]

    def run():
        rep = oracle.compare_kernel(m, cfg, points)
        leak = oracle.leakage_ratio(oracle.solve_mode(cfg, r0), quiet)
        return Outcome(
            tuple(e.numeric for e in rep.points)
            + tuple(e.analytic for e in rep.points) + (leak,),
            (_le("fd.max_rel_err", rep.max_rel_err, FD_REL_TOL),
             _le("fd.leakage", leak, LEAKAGE_TOL)))
    return run


def _chart(name):
    return geodesic.circle() if name == "circle" else geodesic.sphere_chart()


def _task_flow(op):
    g = _chart(op["chart"])
    s0 = geodesic.FlowState(t=0.0, r=op["r"], theta=op["theta"], tau=op["tau"],
                            xi=op["xi"], zeta=op["zeta"])
    system = op["system"]
    envelope = geodesic.sec_envelope_bound(s0, g) if system == "rescaled" else None

    def run():
        traj = geodesic.integrate_flow(s0, g, op["s_span"], op["step"], system)
        sig = traj.sigma_values
        drift = float(np.max(np.abs(sig - sig[0])))
        tau_drift = max(abs(st.tau - s0.tau) for st in traj.states)
        r_min = min(st.r for st in traj.states)
        checks = [_le("flow.sigma_drift", drift, SIGMA_TOL),
                  _le("flow.tau_drift", tau_drift, SIGMA_TOL)]
        if system == "rescaled":
            checks.append(Check("flow.envelope", r_min, envelope - ENVELOPE_SLACK,
                                bool(r_min >= envelope - ENVELOPE_SLACK), False))
        last = traj.states[-1]
        return Outcome((drift, r_min, last.t, last.r, last.xi) + last.theta
                       + last.zeta, tuple(checks))
    return run


def _task_strike(op):
    g = geodesic.circle()
    # zero angular momentum on the characteristic set: xi = tau r, inbound
    s0 = geodesic.FlowState(t=0.0, r=op["r"], theta=(0.0,), tau=op["tau"],
                            xi=op["tau"] * op["r"], zeta=(0.0,))

    def run():
        traj = geodesic.trace_through_origin(s0, g, op["s_span"], op["step"])
        r_min = min(st.r for st in traj.states)
        return Outcome((r_min, traj.states[-1].r, len(traj.states)),
                       (_le("strike.r_min", r_min, geodesic.ORIGIN_RADIUS,
                            accuracy=False),))
    return run


def _audit_params():
    return energy.CommutantParams(alpha=AUDIT_ALPHA)


def _task_sign_audit(op):
    p, g = _audit_params(), geodesic.circle()

    def run():
        res = energy.sign_audit(p, g=g, min_kept=op["min_kept"])
        return Outcome((res.max_value, res.kept, res.scanned),
                       (_le("audit.max", res.max_value, AUDIT_TOL, accuracy=False),
                        Check("audit.kept", res.kept, op["min_kept"],
                              res.kept >= op["min_kept"], False)))
    return run


def _task_audit_chunk(op):
    p, g = _audit_params(), geodesic.circle()

    def run():
        worst = -math.inf
        for st in energy.sample_states(p, op["start"], CHUNK, g):
            value, label = energy.hamilton_derivative_symbol(p, st, g=g)
            if label in ("main b2", "good-sign g") \
                    and energy.commutant_symbol(p, st, g) > 0.0:
                worst = max(worst, value)
        return Outcome((worst,), (_le("audit.chunk_max", worst, AUDIT_TOL,
                                      accuracy=False),))
    return run


def _task_dual_route(op):
    p, g = _audit_params(), geodesic.circle()

    def run():
        gaps = []
        for st in energy.sample_states(p, op["start"], DUAL_SAMPLES, g):
            va, _ = energy.hamilton_derivative_symbol(p, st, g=g, method="analytic")
            vf, _ = energy.hamilton_derivative_symbol(p, st, g=g, method="fd")
            gaps.append(abs(va - vf))
        return Outcome(tuple(gaps), tuple(_le("dual-route", gap, DUAL_ROUTE_TOL)
                                          for gap in gaps))
    return run


def _test_function(op):
    return energy.random_suite(op["dim"], count=1, seed=op["suite_seed"])[0]


def _task_hardy(op):
    dim = op["dim"]
    tf = _test_function(op)
    bound = (2.0 / (dim - 2)) ** 2

    def run():
        ratio = energy.hardy_check(tf, dim)[2]
        return Outcome((ratio,), (_le("hardy", ratio, bound * (1.0 + HARDY_SLACK),
                                      accuracy=False),))
    return run


def _task_norm_equiv(op):
    dim = op["dim"]
    tf = _test_function(op)
    fpot = energy.constant_potential(op["potential"])

    def run():
        lower, upper, delta = energy.norm_equivalence_check(tf, fpot, dim)
        return Outcome((delta,), (Check("norm-equiv.c1", 0.0, 0.0, lower, False),
                                  Check("norm-equiv.c2", 0.0, 0.0, upper, False)))
    return run


def build(ops: list) -> list:
    """Tasks for an op list; all inputs are constructed here, untimed."""
    defects: dict = {}
    builders = {
        "mode-sum": _task_mode_sum, "jump": _task_jump,
        "lipschitz": _task_lipschitz,
        "involution": lambda op: _task_involution(op, defects),
        "eigen": _task_eigen, "fd-compare": _task_fd_compare,
        "flow": _task_flow, "strike": _task_strike,
        "sign-audit": _task_sign_audit, "audit-chunk": _task_audit_chunk,
        "dual-route": _task_dual_route, "hardy": _task_hardy,
        "norm-equiv": _task_norm_equiv,
    }
    return [Task(op["kind"], op, builders[op["kind"]](op)) for op in ops]
