"""Finite-difference solver and its cross-check against the analytic kernels.

These are the only tests where the two independent code paths meet: the
leapfrog field (no special functions involved) against the mollified region
integrals.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from isqwave.kernel import KernelPoint, mode_params
from isqwave.oracle import (
    BoundaryContamination,
    CFLViolation,
    CompareReport,
    FDConfig,
    compare_kernel,
    leakage_ratio,
    mollified_kernel,
    solve_mode,
)

# quick configuration: coarse but comfortably inside all tolerances
QUICK = dict(r_max=4.0, dr=4e-3, dt=3.2e-3, T=2.5, mollifier_width=2.4e-2)

SAMPLES_II = [(0.7, 1.2), (1.5, 1.2), (1.6, 2.2), (2.4, 2.2), (1.3, 1.6)]
SAMPLES_III = [(0.4, 2.2), (0.8, 2.2), (0.3, 1.6)]


def points(pairs):
    return [KernelPoint(r1, 1.0, t) for r1, t in pairs]


class TestConfigValidation:
    def test_negative_lengths(self):
        with pytest.raises(ValueError):
            FDConfig(r_max=-4.0, dr=1e-3, dt=8e-4, T=1.0,
                     mollifier_width=1e-2, nu=0.5)

    def test_mollifier_too_narrow(self):
        with pytest.raises(ValueError):
            FDConfig(r_max=4.0, dr=1e-2, dt=8e-3, T=1.0,
                     mollifier_width=2e-2, nu=0.5)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            FDConfig(r_max=4.0, dr=1e-3, dt=8e-4, T=1.0,
                     mollifier_width=1e-2, nu=-0.5)

    @pytest.mark.parametrize("name", ["r_max", "dr", "dt", "T",
                                      "mollifier_width", "nu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field(self, name, value):
        with pytest.raises(ValueError):
            FDConfig(**{**QUICK, "nu": 0.5, name: value})


class TestSolveGuards:
    def test_cfl_grid_bound(self):
        cfg = FDConfig(r_max=4.0, dr=4e-3, dt=3.9e-3, T=1.0,
                       mollifier_width=2.4e-2, nu=0.0)
        with pytest.raises(CFLViolation):
            solve_mode(cfg, 1.0)

    def test_cfl_mode_bound(self):
        # dt = 0.5 dr passes the grid bound but not nu = 2's 0.42 dr
        cfg = FDConfig(r_max=4.0, dr=4e-3, dt=2e-3, T=1.0,
                       mollifier_width=2.4e-2, nu=2.0)
        with pytest.raises(CFLViolation):
            solve_mode(cfg, 1.0)

    def test_boundary_contamination(self):
        cfg = FDConfig(r_max=3.0, dr=4e-3, dt=3.2e-3, T=2.5,
                       mollifier_width=2.4e-2, nu=0.5)
        with pytest.raises(BoundaryContamination):
            solve_mode(cfg, 1.0)

    def test_source_window(self):
        cfg = FDConfig(**QUICK, nu=0.5)
        with pytest.raises(ValueError):
            solve_mode(cfg, 0.05)


@pytest.fixture(scope="module")
def field():
    return solve_mode(FDConfig(**QUICK, nu=0.5), 1.0)


class TestSolveProperties:

    def test_pinned_values(self, field):
        # taken from the allocating leapfrog before it ran on buffers
        assert field.slices.shape == (80, 1000)
        assert float(field.slices.sum()).hex() == "0x1.c064e83824a4cp+13"
        assert float(field.energies[-1]).hex() == "0x1.76c8ce8b0cdf2p+2"
        assert field.sample(1.5, 2.2).hex() == "0x1.a204b772d38e4p-2"

    def test_initial_displacement_zero(self, field):
        assert not field.slices[0].any()

    def test_energy_conserved(self, field):
        e = field.energies
        drift = abs(e[-1] - e[0]) / e[0]
        assert drift < 1e-3

    def test_finite_propagation_speed(self, field):
        # points well ahead of the arriving front must be numerically silent
        quiet = [KernelPoint(3.0, 1.0, 0.5), KernelPoint(3.5, 1.0, 1.0)]
        assert leakage_ratio(field, quiet) < 1e-10

    def test_region_i_leakage_near_front(self, field):
        near = [KernelPoint(2.6, 1.0, 1.5), KernelPoint(3.0, 1.0, 1.9)]
        assert leakage_ratio(field, near) < 1e-3

    def test_leakage_rejects_wrong_region(self, field):
        with pytest.raises(ValueError):
            leakage_ratio(field, [KernelPoint(1.0, 1.0, 1.5)])

    def test_sample_range_checks(self, field):
        with pytest.raises(ValueError):
            field.sample(5.0, 1.0)
        with pytest.raises(ValueError):
            field.sample(1.0, 99.0)


class TestSolveMemo:
    def test_identical_call_returns_the_same_field(self):
        first = solve_mode(FDConfig(**QUICK, nu=0.5), 1.0)
        assert solve_mode(FDConfig(**QUICK, nu=0.5), 1.0) is first

    def test_other_source_or_step_solves_afresh(self):
        cfg = FDConfig(**QUICK, nu=0.5)
        first = solve_mode(cfg, 1.0)
        moved = solve_mode(cfg, 1.1)
        assert moved is not first and moved.r0 == 1.1
        finer = solve_mode(replace(cfg, dt=3e-3), 1.0)
        assert finer is not first and finer.config.dt == 3e-3
        assert not np.array_equal(finer.times, first.times)
        # one entry: the first problem is solved again, to the same bytes
        again = solve_mode(cfg, 1.0)
        assert again is not first
        assert again.slices.tobytes() == first.slices.tobytes()

    def test_field_arrays_are_read_only(self, field):
        for arr in (field.r, field.times, field.slices, field.energies):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(ValueError):
            field.slices[1, 2] = 0.0

    def test_guards_run_on_every_call(self):
        cfg = FDConfig(r_max=4.0, dr=4e-3, dt=2e-3, T=1.0,
                       mollifier_width=2.4e-2, nu=2.0)
        for _ in range(2):
            with pytest.raises(CFLViolation):
                solve_mode(cfg, 1.0)
        window = FDConfig(**QUICK, nu=0.5)
        solve_mode(window, 1.0)
        with pytest.raises(ValueError):
            solve_mode(window, 0.05)


class TestCompareKernel:
    def test_quarter_coupling_agreement(self):
        m = mode_params(0, 0.25)
        cfg = FDConfig(**QUICK, nu=m.nu)
        rep = compare_kernel(m, cfg, points(SAMPLES_II + SAMPLES_III))
        assert isinstance(rep, CompareReport)
        assert rep.max_rel_err < 0.02
        assert rep.mean_rel_err <= rep.max_rel_err
        # frozen magnitude from the validated run at this resolution
        assert rep.max_rel_err == pytest.approx(7.8e-4, abs=4e-4)

    def test_free_mode_agreement(self):
        m = mode_params(0, 0.0)
        cfg = FDConfig(**QUICK, nu=0.0)
        rep = compare_kernel(m, cfg, points(SAMPLES_II))
        assert rep.max_rel_err < 0.02

    def test_order_two_convergence(self):
        m = mode_params(0, 0.25)
        errs = []
        for dr in (4e-3, 2e-3):
            cfg = FDConfig(r_max=4.0, dr=dr, dt=0.8 * dr, T=2.5,
                           mollifier_width=2.4e-2, nu=m.nu)
            errs.append(compare_kernel(m, cfg, points(SAMPLES_II)).max_rel_err)
        order = math.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.3

    def test_mode_mismatch_rejected(self):
        cfg = FDConfig(**QUICK, nu=0.5)
        with pytest.raises(ValueError):
            compare_kernel(mode_params(1, 0.0), cfg, points(SAMPLES_II))

    def test_near_cone_sample_rejected(self):
        m = mode_params(0, 0.25)
        cfg = FDConfig(**QUICK, nu=m.nu)
        bad = [KernelPoint(1.0, 1.0, 2.0 + 1e-3)]
        with pytest.raises(ValueError):
            compare_kernel(m, cfg, bad)

    def test_mollified_kernel_close_to_pointwise(self):
        # smoothing is a second-order perturbation away from the cones
        from isqwave.kernel import mode_kernel
        m = mode_params(0, 0.25)
        p = KernelPoint(1.5, 1.0, 1.2)
        smoothed = mollified_kernel(m, p, 1.2e-2, 1e-3)
        assert smoothed == pytest.approx(mode_kernel(m, p), rel=1e-3)
