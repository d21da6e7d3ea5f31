"""Bit-level fingerprint of isqwave's kernel, phase-space and audit outputs.

Run from anywhere, with the standard library and numpy:

    python3 tools/bitwise_capture.py [TREE] > capture.json

TREE is the root of an isqwave checkout (default: the one this file sits
in); its src/ is imported first and its CLI runs with TREE as the working
directory. The JSON printed holds

    machine       e2e_times.machine(): the CPU, Python and numpy, numpy's
                  SIMD dispatch, the C library and whether np.dot fuses the
                  two-term dot; captures whose machines differ are not
                  compared bit for bit
    flows         float.hex digests of integrate_flow on both charts and
                  both systems, and of one trace_through_origin
    samples       digests of sample_states on the circle and the sphere, at
                  counts 1, 8, 2048 and 3000 from index 18 and at counts 8
                  and 2048 from index 2**62 + 1
    audits        per alpha of the tests' AUDIT_ALPHAS, at the default
                  (C, delta) and at each of AUDIT_SHAPES: a digest of the
                  AuditScan stream (state, H_p a, label, audited) on both
                  charts, and sign_audit's scanned, kept, max and counts
    dual_route    digests of the analytic and fd Hamilton derivatives, as
                  hex, at 200 Halton samples per alpha in DUAL_ALPHAS on the
                  circle and the sphere; and both at the fd route's envelope
                  points (xi = zeta = 0, t = t0) for r in ENVELOPE_RADII
    alpha_star    alpha_star() as hex
    kernel        digests of mode_kernel over the benchmark's mode-sum
                  ranges (a = 0, every mode n <= 300 between the cones and
                  n <= 150 behind the outer cone, in order, at seeded
                  points), of the benchmark's mode-sum op (its terms
                  2 cos(n dtheta) K_n and trailing-half average, to
                  n = 300 between the cones and n = 150 behind the outer
                  cone), of a region-II and a region-III point visited with
                  n rising to 300 and then falling back to 0, of
                  cone_limits at seeded jump-range draws, of
                  synthesize_kernel in both regions, one
                  oracle.mollified_kernel as hex, the cone_sides pairs of an
                  offset ladder whose smallest offset leaves a region-III
                  point to the adaptive fallback, and a digest of seeded
                  points mixing regions I, II and III at four orders, through
                  kernel.mode_kernel_rows
    hankel        digests of bessel_j_array on 1-D arrays mixing zero,
                  Miller and large-z arguments at orders 0, 0.5, 1.3, 2
                  and 12; of scalar bessel_j at seeded z in (20, 400] for
                  orders 0.3, 1.3, 2.7 and 12 (floor(nu) = 0, 1, 2 and 12:
                  one reduced order, both, one and eleven steps of upward
                  recurrence); of scalar bessel_j on its Miller branch, at
                  seeded z in (0, 20] for those orders and at seeded
                  z in (20, nu / 0.75] for orders 16, 30.5 and 75.25;
                  verify_lipschitz_hankel as hex on the full verify
                  tier's (nu, ratio, t) grid; of hankel_transform
                  applied twice over the benchmark's 80/160/320 involution
                  chain at orders 0, 0.5, 1.3 and 2; verify_involution on
                  that chain as hex; the eigen pair H(L g), H(g) at 4 and
                  120 wavenumbers; and pairs of transforms onto one
                  wavenumber grid whose second field lies on another radial
                  grid (160 then 120 points, and 120 then 160)
    oracle        digests of one dr = 1e-3 solve_mode field (its slices,
                  energies and times); compare_kernel's relative errors at
                  DEFAULT_SAMPLES for dr = 4e-3 and 2e-3, and checks.leakage
                  at 2e-3 (the field the compare just solved) and 1e-3, as
                  hex; whether a repeated solve returns the held field; and
                  digests of a T = 0.3 field, whose stepped band reaches
                  neither the origin nor the wall, and of a nu = 0 field
    csv           sha256 of the --reproducible CSVs of `verify --quick`,
                  `verify`, `symbol-audit`, `energy-audit`, `kernel-grid`,
                  and `front-scan` at its default offsets and at FRONT_DELTAS

and nothing that names the tree, so comparing two trees is one `diff` of
their captures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from e2e_times import machine

AUDIT_ALPHAS = (1.0, 2.0, 2.487, 4.0, 13.0)
AUDIT_SHAPES = tuple((C, delta) for C in (0.5, 3.0) for delta in (0.1, 0.45))
DUAL_ALPHAS = (1.0, 4.0, 13.0)
ENVELOPE_RADII = (0.5, 1e-3, 1e-6, 1e-150)
SAMPLE_RUNS = ((17, 1), (17, 8), (17, 2048), (17, 3000), (2 ** 62, 8),
               (2 ** 62, 2048))
STREAM = 4096               # AuditScan samples per alpha and chart
WIDTH = 0.8                 # involution profile r^nu exp(-r^2 / (2 WIDTH^2))
FRONT_DELTAS = "0.02,0.005,1e-3,2e-4,4e-5"
CLI_RUNS = {
    "verify-quick": ["verify", "--quick"],
    "verify": ["verify"],
    "symbol-audit": ["symbol-audit"],
    "energy-audit": ["energy-audit"],
    "kernel-grid": ["kernel-grid"],
    "front-scan": ["front-scan"],
    "front-scan-deltas": ["front-scan", "--deltas", FRONT_DELTAS],
}


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _digest(rows) -> dict:
    h = hashlib.sha256()
    n = 0
    for row in rows:
        h.update(repr(row).encode())
        n += 1
    return {"rows": n, "sha256": h.hexdigest()}


def _state_row(st) -> tuple:
    return tuple(_hex((st.t, st.r, *st.theta, st.tau, st.xi, *st.zeta)))


def _trajectory(traj) -> dict:
    rows = [_state_row(st) + (float(s).hex(), float(sg).hex())
            for st, s, sg in zip(traj.states, traj.s_values,
                                 traj.sigma_values)]
    return {**_digest(rows), "last": rows[-1]}


def flows(geo) -> dict:
    FlowState = geo.FlowState
    circle, sphere = geo.circle(), geo.sphere_chart()
    starts = {
        "circle": (circle, FlowState(t=0.0, r=1.3, theta=(0.4,), tau=1.2,
                                     xi=-0.3, zeta=(0.7,))),
        "sphere": (sphere, FlowState(t=0.0, r=1.5, theta=(1.0, 0.3), tau=1.1,
                                     xi=0.2, zeta=(0.4, 0.7))),
        "sphere-near-pole": (sphere, FlowState(t=0.0, r=1.2, theta=(0.35, 2.0),
                                               tau=0.9, xi=0.4,
                                               zeta=(-0.3, 0.6))),
    }
    out = {}
    for name, (g, s0) in starts.items():
        for system in ("full", "rescaled"):
            traj = geo.integrate_flow(s0, g, 0.9, 1e-3, system)
            out[f"{name}/{system}"] = _trajectory(traj)
    strike = FlowState(t=0.0, r=0.75, theta=(0.0,), tau=1.0, xi=0.75,
                       zeta=(0.0,))
    out["trace_through_origin"] = _trajectory(
        geo.trace_through_origin(strike, circle, 1.5, 1e-3))
    return out


def samples(geo, en) -> dict:
    p = en.CommutantParams(alpha=2.487)
    return {f"{name}/{start}+{count}": _digest(
                _state_row(st) for st in en.sample_states(p, start, count, g))
            for name, g in (("circle", geo.circle()),
                            ("sphere", geo.sphere_chart()))
            for start, count in SAMPLE_RUNS}


def audits(geo, en) -> dict:
    out = {}
    default = en.CommutantParams()
    for C, delta in ((default.C, default.delta),) + AUDIT_SHAPES:
        for alpha in AUDIT_ALPHAS:
            p = en.CommutantParams(C=C, delta=delta, alpha=alpha)
            out[f"C={C!r}/delta={delta!r}/alpha={alpha!r}"] = _audit(en, geo, p)
    return out


def _audit(en, geo, p) -> dict:
    entry = {}
    for name, g in (("circle", geo.circle()), ("sphere", geo.sphere_chart())):
        scan = en.AuditScan(p, g)
        rows = (_state_row(st) + (float(v).hex(), label, audited)
                for st, v, label, audited in scan.scan(0, STREAM))
        entry[f"stream/{name}"] = {
            **_digest(rows), "kept": scan.kept,
            "max": float(scan.max_value).hex(),
            "counts": dict(sorted(scan.counts.items()))}
    res = en.sign_audit(p, min_kept=1500)
    entry["sign_audit"] = {"scanned": res.scanned, "kept": res.kept,
                           "max": res.max_value.hex(),
                           "counts": dict(sorted(res.counts.items()))}
    return entry


def _both_routes(en, p, st, g) -> list:
    return _hex((en.hamilton_derivative_symbol(p, st, g)[0],
                 en.hamilton_derivative_symbol(p, st, g, method="fd")[0]))


def dual_route(geo, en) -> dict:
    out = {}
    for alpha in DUAL_ALPHAS:
        p = en.CommutantParams(alpha=alpha)
        for name, g in (("circle", geo.circle()),
                        ("sphere", geo.sphere_chart())):
            out[f"{alpha!r}/{name}"] = _digest(
                _both_routes(en, p, st, g)
                for st in en.sample_states(p, 0x5EED, 200, g))
    p, g = en.CommutantParams(), geo.circle()
    out["envelope"] = [_both_routes(en, p, geo.FlowState(
        t=p.t0, r=r, theta=(0.0,), tau=1.5, xi=0.0, zeta=(0.0,)), g)
        for r in ENVELOPE_RADII]
    return out


def kernel_values(ker, orc) -> dict:
    rng = random.Random(0x4B45)
    mode_sums = []
    for region, n_max in (("II", 300), ("III", 150)):
        for _ in range(4):
            r1, r2 = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
            if region == "II":
                s_star = rng.uniform(1.2, 2.0)
                t = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(s_star))
            else:
                t = (r1 + r2) * rng.uniform(1.1, 1.6)
            p = ker.KernelPoint(r1, r2, t)
            mode_sums.append(_hex(ker.mode_kernel(ker.mode_params(n, 0.0), p)
                                  for n in range(n_max + 1)))
    op_sums = []
    for region, n_max in (("II", 300), ("III", 150)):
        for _ in range(3):
            r1, r2 = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
            if region == "II":
                s_star = rng.uniform(1.2, 2.0)
                t = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(s_star))
                dth = rng.uniform(0.0, 1.0) * min(0.6, s_star - 1.2)
            else:
                t = (r1 + r2) * rng.uniform(1.1, 1.6)
                dth = rng.uniform(0.0, 0.6)
            p = ker.KernelPoint(r1, r2, t)
            terms = [ker.mode_kernel(ker.mode_params(0, 0.0), p)]
            terms += [2.0 * math.cos(n * dth) * ker.mode_kernel(ker.mode_params(n, 0.0), p)
                      for n in range(1, n_max + 1)]
            avg = float(np.mean(np.cumsum(terms)[n_max // 2:]))
            op_sums.append(_hex(terms + [avg]))
    sweeps = []
    for p in (ker.KernelPoint(1.2, 0.9, 1.5), ker.KernelPoint(1.2, 0.9, 2.8)):
        for order in (range(301), range(300, -1, -1)):
            sweeps.append(_hex(ker.mode_kernel(ker.mode_params(n, 0.3), p)
                               for n in order))
    jumps = []
    for _ in range(12):
        r2 = rng.uniform(0.5, 1.5)
        m = ker.mode_params(rng.randrange(4), rng.uniform(0.05, 3.95))
        jumps.append(float(ker.cone_limits(m, r2, r2 + rng.uniform(0.5, 1.5))).hex())
    synth = {region: ker.synthesize_kernel(0.3, ker.KernelPoint(1.1, 0.8, t),
                                           0.4, 60).hex()
             for region, t in (("II", 1.4), ("III", 2.6))}
    mollified = orc.mollified_kernel(ker.mode_params(0, 0.3),
                                     ker.KernelPoint(0.7, 1.0, 2.0), 0.02, 1e-3)
    # 1e-7 inside the outer cone no Gauss rule settles the main integral
    _, sides = ker.cone_sides(ker.mode_params(1, 0.3), 1.0, 2.0, [1e-3, 1e-5, 1e-7])
    return {"mode_sums": _digest(mode_sums), "mode_sum_ops": _digest(op_sums),
            "depth_sweeps": _digest(sweeps), "cone_limits": _digest(jumps),
            "synthesize": synth, "mollified": float(mollified).hex(),
            "cone_sides_fallback": [_hex(pair) for pair in sides],
            "rows_mixed": mixed_rows(ker, rng)}


def mixed_rows(ker, rng) -> dict:
    """Seeded points in regions I, II and III, off the cone bands, at four orders."""
    points = []
    while len(points) < 120:
        r1, r2 = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
        p = ker.KernelPoint(r1, r2, rng.uniform(0.05, 2.5 * (r1 + r2)))
        if ker.classify_region(p).value in ("I", "II", "III"):
            points.append(p)
    out = {}
    for n, a in ((0, 0.25), (1, 0.69), (2, 3.29), (7, 0.84)):
        m = ker.mode_params(n, a)
        out[f"{m.nu!r}"] = _digest([_hex(ker.mode_kernel_rows(m, points))])
    return out


def hankel_values(hk, ker, sf) -> dict:
    rng = random.Random(0x4841)
    bessel = {}
    for nu in (0.0, 0.5, 1.3, 2.0, 12.0):
        z = [0.0, 0.0] + [rng.uniform(1e-3, 20.0) for _ in range(300)] \
            + [rng.uniform(20.0, 120.0) for _ in range(300)]
        rng.shuffle(z)
        bessel[repr(nu)] = _digest([_hex(sf.bessel_j_array(nu, np.array(z)))])
    scalar = {}
    for nu in (0.3, 1.3, 2.7, 12.0):
        z = [rng.uniform(20.0, 400.0) for _ in range(400)] + [400.0]
        scalar[repr(nu)] = _digest([_hex(sf.bessel_j(nu, x) for x in z)])
    miller = {}
    for nu in (0.3, 1.3, 2.7, 12.0):
        z = [20.0 - rng.uniform(0.0, 20.0) for _ in range(400)] + [20.0]
        miller[repr(nu)] = _digest([_hex(sf.bessel_j(nu, x) for x in z)])
    for nu in (16.0, 30.5, 75.25):
        z = [nu / 0.75 - rng.uniform(0.0, nu / 0.75 - 20.0) for _ in range(400)]
        miller[repr(nu)] = _digest([_hex(sf.bessel_j(nu, x) for x in z)])
    lipschitz = [ker.verify_lipschitz_hankel(nu, ratio, 1.0, t).hex()
                 for nu in (0.5, 1.2, 2.5) for ratio in (0.5, 1.0, 2.0)
                 for t in (0.8, 1.5, 3.0)]
    chain, involution = [], []
    for nu in (0.0, 0.5, 1.3, 2.0):
        for n in (80, 160, 320):
            g = hk.graded_grid(12.0, n)
            r = g.points
            f = hk.RadialField(g, r ** nu * np.exp(-r ** 2 / (2.0 * WIDTH ** 2)))
            once = hk.hankel_transform(f, nu, g)
            chain.append(_hex(once.values)
                         + _hex(hk.hankel_transform(once, nu, g).values))
            involution.append(hk.verify_involution(f, nu).hex())
    eigen = {}
    g = hk.graded_grid(12.0, 160)
    f = hk.RadialField(g, g.points ** 2 * np.exp(-g.points ** 2 / 2.0))
    for nu in (0.5, 2.0):
        for k in (4, 120):
            lam = hk.RadialGrid(np.linspace(0.05, 6.0, k), 6.0)
            left = hk.hankel_transform(hk.apply_radial_operator(f, nu), nu, lam)
            right = hk.hankel_transform(f, nu, lam)
            eigen[f"{nu!r}/{k}"] = _digest([_hex(left.values), _hex(right.values)])
    # the second transform hits the first one's table from another grid
    regrid = {}
    lam = hk.RadialGrid(np.linspace(0.05, 6.0, 40), 6.0)
    for sizes in ((160, 120), (120, 160)):
        rows = []
        for n in sizes:
            g = hk.graded_grid(12.0, n)
            f = hk.RadialField(g, g.points * np.exp(-g.points ** 2 / 2.0))
            rows.append(_hex(hk.hankel_transform(f, 1.3, lam).values))
        regrid["/".join(map(str, sizes))] = _digest(rows)
    return {"bessel_j_array": bessel, "bessel_j": scalar,
            "bessel_j_miller": miller, "lipschitz_hankel": lipschitz,
            "transforms": _digest(chain), "verify_involution": involution,
            "eigen": eigen, "regrid": regrid}


def _field(field) -> dict:
    return {"slices": _digest(_hex(row) for row in field.slices),
            "energies": _digest([_hex(field.energies)]),
            "times": _digest([_hex(field.times)])}


def oracle_values(chk, orc) -> dict:
    cfg = chk.oracle_config(1e-3)
    field = orc.solve_mode(cfg, 1.0)
    out = {"field": _field(field),
           "repeat_is_held": orc.solve_mode(cfg, 1.0) is field}
    pts = [chk.KernelPoint(r1, 1.0, t) for r1, t in chk.DEFAULT_SAMPLES]
    for dr in (4e-3, 2e-3):
        out[f"compare/{dr!r}"] = _hex(chk.oracle_errors(dr, pts))
    for dr in (2e-3, 1e-3):
        out[f"leakage/{dr!r}"] = float(chk.leakage(dr)).hex()
    # the stepped band reaches neither end of the grid by T = 0.3
    short = orc.FDConfig(r_max=4.0, dr=1e-3, dt=8e-4, T=0.3,
                         mollifier_width=1.2e-2, nu=0.5)
    free = orc.FDConfig(r_max=4.0, dr=2e-3, dt=1.6e-3, T=2.5,
                        mollifier_width=1.2e-2, nu=0.0)
    out["field/short-T"] = _field(orc.solve_mode(short, 1.0))
    out["field/nu-0"] = _field(orc.solve_mode(free, 1.0))
    return out


def csv_digests(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = {}
    for name, args in CLI_RUNS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "isqwave.cli", *args, "--reproducible"],
            cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        out[name] = {"exit": proc.returncode,
                     "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return out


def main(argv: list) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    if not (tree / "src" / "isqwave" / "__init__.py").is_file():
        raise SystemExit(f"bitwise_capture: no isqwave package under {tree / 'src'}")
    sys.path.insert(0, str(tree / "src"))
    from isqwave import energy as en, geodesic as geo, hankel as hk, kernel as ker
    from isqwave import checks as chk, oracle as orc, specfun as sf

    out = {"machine": machine(), "flows": flows(geo), "samples": samples(geo, en),
           "audits": audits(geo, en), "dual_route": dual_route(geo, en),
           "alpha_star": en.alpha_star().hex(),
           "kernel": kernel_values(ker, orc),
           "hankel": hankel_values(hk, ker, sf),
           "oracle": oracle_values(chk, orc),
           "csv": csv_digests(tree)}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
