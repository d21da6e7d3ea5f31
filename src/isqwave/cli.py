"""Command-line front end: every workflow as a CSV-emitting subcommand.

Output format is CSV throughout: a block of '#'-prefixed metadata lines
(version, seed, resolved parameters), one header row, then data rows with
a fixed column count and plain decimal floats.  With --reproducible the
timestamp metadata line is suppressed, and identical invocations produce
byte-identical output.

Configuration precedence is command-line flags, then a config file of
'key = value' lines named with --config, then built-in defaults.

Exit codes: 0 on success, 1 when a check fails or a computation raises,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .checks import DEFAULT_SAMPLES, involution_defect, verify_rows
from .energy import (AuditScan, CommutantParams, alpha_star, hardy_check,
                     norm_equivalence, random_suite, sharpness_profile)
from .geodesic import FlowState, OriginReached, circle, integrate_flow
from .kernel import (KernelPoint, Region, classify_region, cone_sides,
                     extrapolate_to_cone, is_mode_jump_nonzero, mode_kernel_rows,
                     mode_params)
from .oracle import FDConfig, compare_kernel, solve_mode
from .specfun import DomainError, bessel_j, legendre_q_shifted

DEFAULT_SEED = 0x5EED

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
_GAMMA_X_MAX = 171.62         # Gamma(x) overflows a double just above this


class UsageError(Exception):
    """Bad flag or config value; reported with the synopsis, exit code 2."""


# ---------------------------------------------------------------------------
# run configuration and CSV plumbing


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: subcommand, parameters, output target."""

    subcommand: str
    params: dict
    output: str | None
    seed: int = DEFAULT_SEED
    reproducible: bool = False

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")


def _plain(value) -> str:
    if value is None:
        return "none"
    # bool first: it is an int subclass
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return ";".join(_plain(v) for v in value)
    text = str(value)
    if "," in text or "\n" in text:
        raise UsageError(f"cell text may not contain commas: {text!r}")
    return text


class CsvSink:
    """Collects metadata, a header, and rows; writes once at the end.

    Metadata always lands above the header, even when recorded after the
    rows were produced.  The column count is fixed by the header; rows of
    any other width are a programming error and rejected immediately.
    """

    def __init__(self, cfg: RunConfig):
        self._meta = []
        self._body = []
        self._ncol = None
        self.meta("version", __version__)
        self.meta("subcommand", cfg.subcommand)
        self.meta("seed", cfg.seed)
        for key in sorted(cfg.params):
            self.meta(key, cfg.params[key])
        if not cfg.reproducible:
            self.meta("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S"))

    def meta(self, key, value):
        self._meta.append(f"# {key}={_plain(value)}")

    def header(self, columns):
        if self._ncol is not None:
            raise ValueError("header already written")
        self._ncol = len(columns)
        self._body.append(",".join(columns))

    def row(self, values):
        if self._ncol is None or len(values) != self._ncol:
            raise ValueError("row width does not match the header")
        self._body.append(",".join(_plain(v) for v in values))

    def write(self, path: str | None):
        text = "\n".join(self._meta + self._body) + "\n"
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)


# ---------------------------------------------------------------------------
# option declarations and resolution


@dataclass(frozen=True)
class Opt:
    name: str                   # underscore form; flag is --name-with-dashes
    typ: object                 # float, int, str, bool, or "floats"/"ints"
    default: object
    help: str


def _convert(raw, typ, name):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        if typ is bool:
            if isinstance(raw, bool):
                return raw
            low = str(raw).strip().lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ == "floats":
            return tuple(float(p) for p in str(raw).split(",") if p.strip())
        if typ == "ints":
            return tuple(int(p) for p in str(raw).split(",") if p.strip())
        return str(raw)
    except (TypeError, ValueError):
        raise UsageError(f"bad value for --{name.replace('_', '-')}: {raw!r}")


def _read_config(path: str) -> dict:
    table = {}
    try:
        with open(path) as fh:
            for lineno, rawline in enumerate(fh, start=1):
                line = rawline.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                table[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return table


def _resolve(opts, args, config) -> dict:
    params = {}
    for o in opts:
        raw = getattr(args, o.name)
        if raw is None and o.name in config:
            raw = config[o.name]
        if raw is None:
            params[o.name] = o.default
        else:
            params[o.name] = _convert(raw, o.typ, o.name)
    return params


def _require(cond: bool, message: str):
    if not cond:
        raise UsageError(message)


# ---------------------------------------------------------------------------
# subcommands


def cmd_specfun(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(p["points"] >= 1, "points must be >= 1")
    _require(p["arg_max"] >= p["arg_min"], "arg-max must be >= arg-min")
    name = p["function"]
    order = p["order"]
    xs = np.linspace(p["arg_min"], p["arg_max"], p["points"])
    if name == "bessel-j":
        fn = lambda x: bessel_j(order, x)
    elif name == "gamma":
        off = next((float(x) for x in xs if not 0.0 < x <= _GAMMA_X_MAX), None)
        _require(off is None, f"gamma requires 0 < x <= {_GAMMA_X_MAX}, got {off!r}")
        fn = math.gamma
        order = 0.0
    elif name == "legendre-q":
        _require(p["arg_min"] > 1.0, "legendre-q needs arguments > 1")
        fn = lambda x: legendre_q_shifted(order, x)
    else:
        raise UsageError(f"unknown function {name!r}; "
                         "pick bessel-j, gamma, or legendre-q")
    sink.header(("function", "order", "argument", "value"))
    try:
        for x in xs:
            sink.row((name, order, float(x), fn(float(x))))
    except DomainError as exc:          # an argument or order off the envelope
        raise UsageError(str(exc)) from exc
    return EXIT_OK


def cmd_hankel_check(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    sizes = p["sizes"]
    _require(len(sizes) >= 2 and all(n >= 8 for n in sizes),
             "sizes must list at least two grid sizes >= 8")
    defects = [involution_defect(n, p["r_max"], p["order"]) for n in sizes]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    sink.meta("decreasing", decreasing)
    sink.header(("points", "order", "defect"))
    for n, d in zip(sizes, defects):
        sink.row((n, p["order"], d))
    return EXIT_OK if decreasing else EXIT_CHECK


def cmd_kernel_grid(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(p["r1_points"] >= 1 and p["t_points"] >= 1,
             "grid point counts must be >= 1")
    _require(all(0 < p[k] < math.inf for k in ("r1_min", "r1_max", "r2", "t_min", "t_max")),
             "grid bounds and r2 must be finite and > 0")
    m = mode_params(p["n"], p["a"])
    r2 = p["r2"]
    r1s = np.linspace(p["r1_min"], p["r1_max"], p["r1_points"])
    ts = np.linspace(p["t_min"], p["t_max"], p["t_points"])
    sink.meta("nu", m.nu)
    sink.header(("r1", "t", "region", "value"))
    grid = [KernelPoint(r1, r2, t) for t in ts.tolist() for r1 in r1s.tolist()]
    # the kernel has only one-sided limits on the cones
    kept = [(pt, region) for pt, region in zip(grid, map(classify_region, grid))
            if region not in (Region.MAIN_CONE, Region.DIFFRACTIVE_CONE)]
    for (pt, region), value in zip(kept, mode_kernel_rows(m, [pt for pt, _ in kept])):
        sink.row((pt.r1, pt.t, region.value, value))
    sink.meta("cone_rows_skipped", len(grid) - len(kept))
    return EXIT_OK


def cmd_front_scan(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    m = mode_params(p["n"], p["a"])
    r2, t = p["r2"], p["t"]
    r1c = t - r2
    _require(r1c > 0, "need t > r2 so the cone point r1 = t - r2 is positive")
    deltas, sides = cone_sides(m, r2, t, p["deltas"])
    sink.meta("nu", m.nu)
    sink.meta("r1_cone", r1c)
    sink.meta("deltas_used", deltas)
    sink.header(("delta", "side_ii", "side_iii", "difference", "extrapolated"))
    diffs = []
    for d, (side_iii, side_ii) in zip(deltas, sides):
        diffs.append(side_iii - side_ii)
        # extrapolation ladder: the fit through the offsets seen so far
        extrap = extrapolate_to_cone(deltas[:len(diffs)], diffs)
        sink.row((d, side_ii, side_iii, diffs[-1], extrap))
    sink.meta("extrapolated_jump", extrap)
    return EXIT_OK


def cmd_mode_table(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(p["n_max"] >= 0, "n-max must be >= 0")
    sink.header(("n", "nu", "sin_pi_nu", "jump_nonzero"))
    for n in range(p["n_max"] + 1):
        m = mode_params(n, p["a"])
        sink.row((n, m.nu, math.sin(math.pi * m.nu),
                  is_mode_jump_nonzero(n, p["a"])))
    return EXIT_OK


def _parse_points(spec: str, r2: float):
    pts = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            r1, t = map(float, chunk.split(":"))
        except ValueError:
            raise UsageError(f"bad sample point {chunk!r}; expected r1:t")
        _require(0 < r1 < math.inf and 0 < t < math.inf,
                 f"sample point {chunk!r} needs finite r1 and t > 0")
        pts.append(KernelPoint(r1, r2, t))
    _require(len(pts) >= 1, "need at least one sample point")
    return pts


def cmd_oracle_compare(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    m = mode_params(p["n"], p["a"])
    dr = p["dr"]
    dt = p["dt"] if p["dt"] is not None else 0.8 * dr
    width = (p["mollifier_width"] if p["mollifier_width"] is not None
             else 6.0 * dr)
    fdc = FDConfig(r_max=p["r_max"], dr=dr, dt=dt, T=p["t_final"],
                   mollifier_width=width, nu=m.nu)
    if p["points"] is None:
        pts = [KernelPoint(r1, p["r2"], t) for r1, t in DEFAULT_SAMPLES]
    else:
        pts = _parse_points(p["points"], p["r2"])
    report = compare_kernel(m, fdc, pts)
    sink.meta("dt", dt)
    sink.meta("mollifier_width", width)
    sink.meta("max_rel_err", report.max_rel_err)
    sink.meta("mean_rel_err", report.mean_rel_err)
    sink.header(("r1", "t", "analytic", "numeric", "rel_err"))
    for entry in report.points:
        sink.row((entry.point.r1, entry.point.t, entry.analytic,
                  entry.numeric, entry.rel_err))

    if p["dump_field"] is not None:
        stride = p["dump_stride"]
        _require(stride >= 1, "dump-stride must be >= 1")
        field = solve_mode(fdc, p["r2"])
        slab = CsvSink(cfg)
        slab.meta("r0", p["r2"])
        slab.header(("r_index", "t_index", "value"))
        for ti in range(0, len(field.times), stride):
            for ri in range(0, len(field.r), stride):
                slab.row((ri, ti, float(field.slices[ti, ri])))
        slab.write(p["dump_field"])

    if p["tol"] is not None and report.max_rel_err > p["tol"]:
        print(f"oracle-compare: max rel err {report.max_rel_err:.3e} "
              f"exceeds tol {p['tol']:.3e}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_trace(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(p["samples"] >= 2, "samples must be >= 2")
    _require(p["system"] in ("full", "rescaled"),
             "system must be 'full' or 'rescaled'")
    state = FlowState(t=p["t"], r=p["r"], theta=(p["theta"],),
                      tau=p["tau"], xi=p["xi"], zeta=(p["zeta"],))
    try:
        traj = integrate_flow(state, circle(), p["s_span"], p["step"],
                              p["system"])
        sink.meta("terminated", "span")
    except OriginReached as exc:
        traj = exc.trajectory
        sink.meta("terminated", "origin")
    stride = max(1, len(traj.states) // p["samples"])
    idx = list(range(0, len(traj.states), stride))
    if idx[-1] != len(traj.states) - 1:
        idx.append(len(traj.states) - 1)
    sink.header(("s", "t", "r", "theta", "tau", "xi", "zeta", "xi_hat",
                 "sigma"))
    for i in idx:
        st = traj.states[i]
        sink.row((float(traj.s_values[i]), st.t, st.r, st.theta[0], st.tau,
                  st.xi, st.zeta[0], st.xi_hat,
                  float(traj.sigma_values[i])))
    return EXIT_OK


def cmd_energy_audit(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(all(n >= 3 for n in p["dims"]), "dims must all be >= 3")
    _require(p["count"] >= 1, "count must be >= 1")
    f0 = p["potential"]
    slack = 1e-10
    rows = []

    for n in p["dims"]:
        lam = 0.5 * (n - 2)
        bound = (2.0 / (n - 2)) ** 2
        suite = random_suite(n, count=p["count"], seed=cfg.seed)
        worst = max(hardy_check(tf, n)[2] for tf in suite)
        rows.append((f"hardy-n{n}", worst, bound, bound - worst,
                     worst <= bound * (1.0 + slack)))

        sharp = hardy_check(sharpness_profile(n, 0.25), n)[2]
        rows.append((f"hardy-sharp-n{n}", sharp, bound, bound - sharp,
                     sharp < bound))

        _require(f0 > -lam * lam, "potential must stay above -((n-2)/2)^2")
        c1, c2, low, high = norm_equivalence(suite, n, f0)
        rows.append((f"norm-lower-n{n}", c1, low, low - c1,
                     low >= c1 - slack))
        rows.append((f"norm-upper-n{n}", high, c2, c2 - high,
                     high <= c2 + slack))

    sink.header(("check", "lhs", "rhs", "margin", "pass"))
    ok = True
    for name, lhs, rhs, margin, passed in rows:
        ok = ok and passed
        sink.row((name, lhs, rhs, margin, passed))
    return EXIT_OK if ok else EXIT_CHECK


def cmd_symbol_audit(cfg: RunConfig, sink: CsvSink) -> int:
    p = cfg.params
    _require(p["count"] >= 1, "count must be >= 1")
    _require(p["threshold"] > 0, "threshold must be > 0")
    alpha = p["alpha"]
    if alpha is None:
        alpha = alpha_star(C=p["c"], delta=p["delta"], t0=p["t0"],
                           tau0=p["tau0"], probe_kept=p["probe_kept"],
                           verify_kept=p["verify_kept"])
        sink.meta("alpha_star", alpha)
    params = CommutantParams(C=p["c"], delta=p["delta"], alpha=alpha,
                             t0=p["t0"], tau0=p["tau0"])
    scan = AuditScan(params)
    sink.meta("alpha", alpha)
    sink.header(("t", "r", "theta", "tau", "xi", "zeta", "classification",
                 "value"))
    for st, value, label, _ in scan.scan(cfg.seed, p["count"]):
        sink.row((st.t, st.r, st.theta[0], st.tau, st.xi, st.zeta[0],
                  label, value))
    sink.meta("max_main_good", scan.max_value)
    for label in sorted(scan.counts):
        sink.meta("count_" + label.replace(" ", "_").replace("-", "_"),
                  scan.counts[label])
    if scan.max_value > p["threshold"]:
        print(f"symbol-audit: max H_p a = {scan.max_value:.6e} over the "
              f"main and good-sign classes exceeds {p['threshold']:.1e}",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def cmd_verify(cfg: RunConfig, sink: CsvSink) -> int:
    quick = cfg.params["quick"]
    sink.meta("tier", "quick" if quick else "full")
    sink.header(("check", "value", "bound", "status"))
    failures = 0
    started = time.perf_counter()
    for name, value, bound in verify_rows(quick, cfg.seed):
        ok = value <= bound
        now = time.perf_counter()
        tag = "pass" if ok else "FAIL"
        print(f"[{tag}] {name}: value={value:.6e} bound={bound:.6e} "
              f"({now - started:.1f}s)", file=sys.stderr)
        started = now
        sink.row((name, value, bound, "pass" if ok else "fail"))
        failures += not ok
    sink.meta("failures", failures)
    return EXIT_OK if failures == 0 else EXIT_CHECK


# ---------------------------------------------------------------------------
# parser assembly


COMMANDS = {
    "specfun": (
        "tabulate special function values",
        [
            Opt("function", str, "bessel-j",
                "bessel-j, gamma, or legendre-q"),
            Opt("order", float, 0.5, "function order nu"),
            Opt("arg_min", float, 0.1, "first tabulated argument"),
            Opt("arg_max", float, 10.0, "last tabulated argument"),
            Opt("points", int, 25, "number of arguments"),
        ],
        cmd_specfun,
    ),
    "hankel-check": (
        "involution defect of the Hankel transform on a Gaussian",
        [
            Opt("order", float, 0.0, "transform order nu"),
            Opt("sizes", "ints", (80, 120, 160), "comma list of grid sizes"),
            Opt("r_max", float, 12.0, "radial grid extent"),
        ],
        cmd_hankel_check,
    ),
    "kernel-grid": (
        "mode kernel values on an (r1, t) grid at fixed r2",
        [
            Opt("a", float, 0.25, "inverse-square coupling"),
            Opt("n", int, 0, "angular mode index"),
            Opt("r2", float, 1.0, "source radius"),
            Opt("r1_min", float, 0.1, "first receiver radius"),
            Opt("r1_max", float, 2.5, "last receiver radius"),
            Opt("r1_points", int, 25, "receiver radius count"),
            Opt("t_min", float, 0.2, "first time"),
            Opt("t_max", float, 2.4, "last time"),
            Opt("t_points", int, 23, "time count"),
        ],
        cmd_kernel_grid,
    ),
    "front-scan": (
        "one-sided kernel limits across the outer cone and their "
        "extrapolated jump",
        [
            Opt("a", float, 0.25, "inverse-square coupling"),
            Opt("n", int, 0, "angular mode index"),
            Opt("r2", float, 1.0, "source radius"),
            Opt("t", float, 2.0, "observation time (needs t > r2)"),
            Opt("deltas", "floats", None,
                "comma list of decreasing cone offsets"),
        ],
        cmd_front_scan,
    ),
    "mode-table": (
        "per-mode order, sine factor, and jump flag",
        [
            Opt("a", float, 0.25, "inverse-square coupling"),
            Opt("n_max", int, 10, "largest mode index"),
        ],
        cmd_mode_table,
    ),
    "oracle-compare": (
        "finite-difference solve against the analytic kernel",
        [
            Opt("a", float, 0.25, "inverse-square coupling"),
            Opt("n", int, 0, "angular mode index"),
            Opt("r2", float, 1.0, "source radius"),
            Opt("dr", float, 4e-3, "radial step"),
            Opt("dt", float, None, "time step (default 0.8 dr)"),
            Opt("r_max", float, 4.0, "domain radius"),
            Opt("t_final", float, 2.5, "final time"),
            Opt("mollifier_width", float, None,
                "source mollifier width (default 6 dr)"),
            Opt("points", str, None,
                "semicolon list of r1:t sample points"),
            Opt("tol", float, None,
                "fail when max rel err exceeds this"),
            Opt("dump_field", str, None, "write full field slab here"),
            Opt("dump_stride", int, 8, "slab decimation stride"),
        ],
        cmd_oracle_compare,
    ),
    "trace": (
        "integrate one bicharacteristic and tabulate its states",
        [
            Opt("r", float, 1.0, "initial radius"),
            Opt("theta", float, 0.0, "initial angle"),
            Opt("t", float, 0.0, "initial time"),
            Opt("tau", float, 1.0, "time momentum (conserved)"),
            Opt("xi", float, 1.0, "radial momentum (positive = inward)"),
            Opt("zeta", float, 0.0, "angular momentum"),
            Opt("s_span", float, 2.0, "parameter span"),
            Opt("step", float, 1e-3, "macro step"),
            Opt("system", str, "full", "full or rescaled"),
            Opt("samples", int, 200, "max rows to emit"),
        ],
        cmd_trace,
    ),
    "energy-audit": (
        "Hardy ratio and norm equivalence over a random suite",
        [
            Opt("dims", "ints", (3, 4, 5), "comma list of dimensions"),
            Opt("count", int, 20, "test functions per dimension"),
            Opt("potential", float, 1.0, "constant angular potential"),
        ],
        cmd_energy_audit,
    ),
    "symbol-audit": (
        "classify sampled phase-space points and check the commutant sign",
        [
            Opt("alpha", float, None,
                "weight exponent (default: calibrate alpha*)"),
            Opt("c", float, 1.0, "exponential weight constant"),
            Opt("delta", float, 0.3, "cutoff scale"),
            Opt("t0", float, 0.0, "time center"),
            Opt("tau0", float, 1.0, "time-momentum threshold"),
            Opt("count", int, 2000, "points to sample on the support"),
            Opt("threshold", float, 1e-12,
                "largest admissible H_p a on the audited classes"),
            Opt("probe_kept", int, 800, "calibration probe sample size"),
            Opt("verify_kept", int, 2500, "calibration verify sample size"),
        ],
        cmd_symbol_audit,
    ),
    "verify": (
        "run the whole check suite and report pass/fail per line",
        [
            Opt("quick", bool, False,
                "loosened fast tier (about 2 s on 2 CPUs)"),
        ],
        cmd_verify,
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isqwave",
        description="wave kernels with an inverse-square potential: "
                    "tables, cross-checks, and flow traces as CSV")
    sub = ap.add_subparsers(dest="command", metavar="command")
    for name, (blurb, opts, _) in COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        for o in opts:
            flag = "--" + o.name.replace("_", "-")
            if o.typ is bool:
                p.add_argument(flag, dest=o.name, action="store_const",
                               const=True, default=None, help=o.help)
            else:
                p.add_argument(flag, dest=o.name, metavar="V", default=None,
                               help=o.help)
        p.add_argument("--output", "-o", default=None,
                       help="write CSV to this path instead of stdout")
        p.add_argument("--config", default=None,
                       help="key = value file consulted for unset flags")
        p.add_argument("--seed", default=None,
                       help=f"sampling seed (default {DEFAULT_SEED:#x})")
        p.add_argument("--reproducible", action="store_true",
                       help="omit the timestamp metadata line")
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; normalize --help to success
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    blurb, opts, runner = COMMANDS[args.command]
    try:
        config = _read_config(args.config) if args.config else {}
        params = _resolve(opts, args, config)
        seed_raw = args.seed if args.seed is not None else \
            config.get("seed", DEFAULT_SEED)
        cfg = RunConfig(subcommand=args.command, params=params,
                        output=args.output,
                        seed=_convert(seed_raw, int, "seed"),
                        reproducible=args.reproducible)
        sink = CsvSink(cfg)
        code = runner(cfg, sink)
        sink.write(cfg.output)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"isqwave: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # module-level failures keep their original wording
        print(f"isqwave: {args.command}: {exc}", file=sys.stderr)
        return EXIT_CHECK
    return code


if __name__ == "__main__":
    sys.exit(main())
