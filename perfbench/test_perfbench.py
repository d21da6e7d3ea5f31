"""Self-tests of the benchmark.

Run with `PYTHONPATH=src python3 -m pytest perfbench` from the repository
root. They pin what the measurements rely on: seeded generation, wrappers
that still find every boundary function of `isqwave`, traced results equal
to untraced ones, and the self-time reduction.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)
    # the 90th percentile needs ten samples beyond it in a single pass
    assert len(first) >= 100


def test_every_boundary_function_resolves_in_its_layer():
    found = spans.boundary_functions()
    assert len(found) == len(spans.BOUNDARY)
    for layer, name, fn in found:
        assert fn.__module__ == f"isqwave.{layer}", (layer, name)


def test_install_wraps_every_binding_and_restores_it():
    originals = {name: fn for _, name, fn in spans.boundary_functions()}
    mods = spans.isqwave_modules()
    bound = [(m, n) for m in mods for n, fn in originals.items()
             if m.__dict__.get(n) is fn]
    with spans.installed(spans.Tracer()):
        for m, n in bound:
            assert getattr(m, n).__wrapped__ is originals[n], (m.__name__, n)
    for m, n in bound:
        assert getattr(m, n) is originals[n]


def _small(op):
    """The same op at a size that runs in well under a second."""
    op = dict(op)
    sizes = {"mode-sum": ("n_max", 12), "sign-audit": ("min_kept", 40)}
    if op["kind"] in sizes:
        key, value = sizes[op["kind"]]
        op[key] = value
    if op["kind"] in ("flow", "strike"):
        op["s_span"] = 0.05
    return op


def test_traced_results_equal_untraced_bitwise():
    for workload in workloads.WORKLOADS:
        ops = {}
        for op in workloads.generate(workload, 3):
            # the first involution op is the coarsest size, 80 points
            ops.setdefault(op["kind"], _small(op))
        ops = list(ops.values())
        plain = [t.run() for t in workloads.build(ops)]
        tracer = spans.Tracer()
        tasks = workloads.build(ops)
        with spans.installed(tracer):
            traced = [t.run() for t in tasks]
        assert [o.values for o in traced] == [o.values for o in plain]
        layers = {spans.LAYER_OF[s[3]] for s in tracer.spans}
        assert layers, workload


def test_self_time_subtracts_children():
    # parent 0..10 s with children 2..5 and 6..7, one grandchild 3..4
    fake = [(3, 2, 0, "bessel_j", 3.0, 4.0, None, None),
            (2, 1, 0, "integrate_adaptive", 2.0, 5.0, None, 30),
            (4, 1, 0, "integrate_adaptive", 6.0, 7.0, None, 15),
            (1, 0, 0, "mode_kernel", 0.0, 10.0, None, "II")]
    selfs = spans.self_times(fake)
    assert selfs == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    m = spans.layer_metrics(fake)
    assert m["kernel.self_s"] == 6.0
    assert m["quadrature.self_s"] == 3.0
    assert m["quadrature.evals"] == 45
    assert m["quadrature.evals_per_kernel_value"] == 45
    assert m["kernel.mode_kernel.us_II"] == 10.0e6


def test_margin_digits_is_the_tightest_kinds_lower_quartile():
    def out(*checks):
        return workloads.Outcome((), checks)
    acc = [out(workloads.Check("a", 10.0 ** -k, 1.0, True, True))
           for k in range(1, 12)]          # 1 .. 11 digits
    other = out(workloads.Check("c", 0.9, 1.0, True, False),
                workloads.Check("d", 0.0, 1.0, True, True))
    kinds = ["jump"] * len(acc) + ["hardy"]
    # inclusive lower quartile of 1..11 is 3.5; inequality and zero-error
    # checks do not count
    assert workloads.margin_digits(kinds, acc + [other]) == pytest.approx(3.5)
    assert workloads.margin_digits(["x"], [acc[4]]) == pytest.approx(5.0)
    assert math.isinf(workloads.margin_digits([], []))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "propagator",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
