"""Benchmark of isqwave: one seeded workload, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload propagator --seed 1 --seconds 40 --trace 0

One process and one thread run the workload's op list; each op waits for
the one before it. Passes over the list repeat while another pass is
expected to end within --seconds (at least one pass). Every op's result is
checked against its bound, and every pass, traced or not, must reproduce
the first pass's results bit for bit.

--trace 0 prints the end-to-end metrics. --trace 1 runs each round as an
untraced pass followed by a traced one, prints the per-layer metrics from
the traced passes and writes their spans to perfbench/out/. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

The package is imported from src/ of the tree this file sits in; without it
the benchmark exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def use_source_tree():
    """Put this tree's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "isqwave" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no isqwave package under {SRC}")
    # one thread: keep BLAS from starting worker threads of its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import isqwave
    if Path(isqwave.__file__).resolve().parent != SRC / "isqwave":
        raise SystemExit(f"perfbench: isqwave imported from {isqwave.__file__}, "
                         f"not from {SRC}")


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    """The machine a result was measured on."""
    import numpy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(idx / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(idx / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "l2_cache": caches.get("L2", "unknown"),
            "l3_cache": caches.get("L3", "unknown"),
            "python": platform.python_version(), "numpy": numpy.__version__}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    op_s: list
    results: list               # Outcome or None per op
    errors: list                # exception class name or None per op
    spans: list = field(default_factory=list)


def run_pass(tasks, tracer=None) -> Pass:
    op_s, results, errors = [], [], []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out, err = task.run(), None
        except Exception as exc:    # an op that raises is a failed op
            out, err = None, type(exc).__name__
        op_s.append(time.perf_counter() - t0)
        results.append(out)
        errors.append(err)
    return Pass(tracer is not None, time.perf_counter() - start, op_s,
                results, errors)


def run_traced(tasks) -> Pass:
    import spans
    tracer = spans.Tracer()
    with spans.installed(tracer):
        p = run_pass(tasks, tracer)
    p.spans = tracer.spans
    return p


def measure(tasks, seconds: float, trace: bool) -> list:
    """Rounds of one pass (untraced then traced, with `trace`) while another
    round is expected to end within `seconds`; at least one round."""
    passes = []
    rounds = 0
    start = time.perf_counter()
    while True:
        passes.append(run_pass(tasks))
        if trace:
            passes.append(run_traced(tasks))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to having the inputs
    built, over SETUP_PROBES child processes run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: setup probe failed with code {code}")
        times.append(t1 - t0)
    return statistics.median(times)


def check(passes) -> tuple:
    """(attempted, failures by class, results agree across passes)."""
    failures: dict = {}
    attempted = 0
    ref = passes[0]
    agree = True
    for p in passes:
        for i, (out, err) in enumerate(zip(p.results, p.errors)):
            attempted += 1
            if err is not None:
                failures[err] = failures.get(err, 0) + 1
            elif not out.ok:
                failures["BoundMissed"] = failures.get("BoundMissed", 0) + 1
            first = ref.results[i]
            if (out is None) != (first is None) or \
                    (out is not None and out.values != first.values):
                agree = False
    return attempted, failures, agree


def percentiles(samples):
    deciles = statistics.quantiles(samples, n=10)
    return statistics.median(samples), deciles[8]


def kind_summary(passes, tasks) -> dict:
    by_kind: dict = {}
    for p in passes:
        if p.traced:
            continue
        for task, t in zip(tasks, p.op_s):
            by_kind.setdefault(task.kind, []).append(t)
    return {k: (len(v), statistics.median(v) * 1e3) for k, v in by_kind.items()}


def end_to_end(passes, tasks, setup_s):
    import workloads
    plain = [p for p in passes if not p.traced]
    samples = [t for p in plain for t in p.op_s]
    p50, p90 = percentiles(samples)
    kinds = [t.kind for t in tasks]
    return {
        "wall_s": (statistics.median(p.wall_s for p in plain), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "margin_digits": (workloads.margin_digits(kinds, plain[0].results),
                          "digits"),
    }, len(samples)


def per_layer(passes, workload, seed):
    import spans
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    reduced = [spans.layer_metrics(p.spans) for p in traced]
    out = {k: (statistics.median(r[k] for r in reduced), spans.UNITS[k])
           for k in reduced[0]}
    out["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in plain) - 1.0, "ratio")
    OUT.mkdir(exist_ok=True)
    path = spans.write_spans(OUT / f"spans-{workload}-seed{seed}.tsv",
                             [p.spans for p in traced])
    return out, path, sum(len(p.spans) for p in traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    use_source_tree()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.build(workloads.generate(args.workload, args.seed))
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    tasks = workloads.build(workloads.generate(args.workload, args.seed))
    passes = measure(tasks, args.seconds, bool(args.trace))
    attempted, failures, agree = check(passes)
    failed = sum(failures.values())

    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} ops/pass {len(tasks)} "
          f"passes {len(passes)} (traced {sum(p.traced for p in passes)}), "
          f"closed loop, 1 caller")
    for kind, (n, ms) in sorted(kind_summary(passes, tasks).items()):
        print(f"#   {kind:<12} {n:5d} ops  median {ms:10.3f} ms")
    print(f"# fail_frac {failed / attempted:.6g} ({failed}/{attempted} ops) "
          f"by class {json.dumps(failures, sort_keys=True)}; "
          f"passes agree bitwise: {agree}")
    for task, out, err in zip(tasks, passes[0].results, passes[0].errors):
        if err is not None or not out.ok:
            missed = err or [(c.name, c.value, c.bound) for c in out.checks
                             if not c.ok]
            print(f"#   failed {json.dumps(task.params)}: {missed}")
    if args.trace:
        metrics, path, n_spans = per_layer(passes, args.workload, args.seed)
        print(f"# {n_spans} spans written to {path.relative_to(ROOT)}")
    else:
        metrics, n_samples = end_to_end(passes, tasks, setup_s)
        print(f"# per-op percentiles over {n_samples} op samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(agree and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
