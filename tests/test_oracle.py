"""Finite-difference solver and its cross-check against the analytic kernels.

These are the only tests where the two independent code paths meet: the
leapfrog field (no special functions involved) against the mollified region
integrals.
"""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from isqwave import oracle
from isqwave.checks import oracle_config
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

    @pytest.mark.parametrize("r0", [math.inf, -math.inf, math.nan])
    def test_non_finite_source_radius(self, r0):
        # inf used to meet the contamination guard ("front reaches inf")
        with pytest.raises(ValueError, match="r0 must be finite"):
            solve_mode(FDConfig(**QUICK, nu=0.5), r0)


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

    def test_peak_copies_no_slices(self, field):
        # np.abs(slices) would allocate a second field for one number
        tracemalloc.start()
        try:
            value = field.peak()
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert top < field.slices.nbytes / 10
        assert value == float(np.max(np.abs(field.slices)))


def full_grid_leapfrog(cfg, r0):
    """Every cell at every step, in the solver's operation order."""
    n, dr, dt = int(round(cfg.r_max / cfg.dr)), cfg.dr, cfg.dt
    r, faces = (np.arange(n) + 0.5) * dr, np.arange(n + 1) * dr

    def lap(u):
        flux = np.zeros(n + 1)
        flux[1:-1] = faces[1:-1] * (u[1:] - u[:-1]) / dr
        flux[-1] = faces[-1] * (0.0 - u[-1]) / dr
        return (flux[1:] - flux[:-1]) / (r * dr) - cfg.nu * cfg.nu * u / (r * r)

    phi = oracle._mollifier(r, r0, cfg.mollifier_width, dr)
    prev, cur = np.zeros(n), dt * phi + (dt ** 3 / 6.0) * lap(phi)
    nt = math.ceil(cfg.T / dt)
    slices, times, energies = [np.zeros(n)], [0.0], []
    for step in range(1, nt + 1):
        nxt = 2.0 * cur - prev + dt * dt * lap(cur)
        if step % oracle.STORE_EVERY == 0 or step == nt:
            slices.append(cur)
            times.append(step * dt)
            dens = (((nxt - prev) / (2.0 * dt)) ** 2 + np.gradient(cur, dr) ** 2
                    + (cfg.nu * cur / r) ** 2)
            energies.append(0.5 * float(np.sum(dens * r) * dr))
        prev, cur = cur, nxt
    return np.array(slices), np.array(times), np.array(energies)


class TestDependenceWindow:
    # the solver steps only the cells its wave can have reached; each case is
    # compared bit for bit with a march over the whole grid
    @pytest.mark.parametrize("cfg, r0, reaches_ends", [
        (oracle_config(1e-3), 1.0, True),
        (FDConfig(r_max=4.0, dr=1e-3, dt=8e-4, T=0.3, mollifier_width=1.2e-2,
                  nu=0.5), 1.0, False),
        (FDConfig(**QUICK, nu=0.0), 1.0, True),
        (FDConfig(**QUICK, nu=0.5), 1.0, True),
    ], ids=["origin-and-wall", "short-T", "nu-0", "quick"])
    def test_matches_the_full_grid_march(self, cfg, r0, reaches_ends):
        slices, times, energies = full_grid_leapfrog(cfg, r0)
        field = solve_mode(cfg, r0)
        assert field.slices.tobytes() == slices.tobytes()
        assert field.times.tobytes() == times.tobytes()
        assert field.energies.tobytes() == energies.tobytes()
        # the band of non-zero cells touches the origin and the wall, or neither
        ends = slices[-1][[0, -1]] != 0.0
        assert ends.all() if reaches_ends else not ends.any()


class TestSolveMemo:
    def test_identical_call_returns_the_same_field(self):
        first = solve_mode(FDConfig(**QUICK, nu=0.5), 1.0)
        assert solve_mode(FDConfig(**QUICK, nu=0.5), 1.0) is first

    def test_other_source_or_step_solves_afresh(self):
        cfg = FDConfig(**QUICK, nu=0.5)
        first = solve_mode(cfg, 1.0)
        moved = solve_mode(cfg, 1.1)
        assert moved is not first
        assert moved.slices.tobytes() == oracle._leapfrog(cfg, 1.1).slices.tobytes()
        finer = solve_mode(replace(cfg, dt=3e-3), 1.0)
        assert finer is not first
        assert finer.times.tobytes() == oracle._leapfrog(
            replace(cfg, dt=3e-3), 1.0).times.tobytes()
        assert not np.array_equal(finer.times, first.times)
        # one entry: the first problem is solved again, to the same bytes
        again = solve_mode(cfg, 1.0)
        assert again is not first
        assert again.slices.tobytes() == first.slices.tobytes()

    def test_held_field_is_freed_before_a_new_solve(self, monkeypatch):
        # a miss empties the slot before it builds, so the old field's slices
        # are not alive beside the new ones (sources unused by other tests)
        cfg = FDConfig(**QUICK, nu=0.5)
        held = weakref.ref(solve_mode(cfg, 1.05))
        assert held() is not None
        build, alive = oracle._leapfrog, []

        def watched(*args):
            alive.append(held() is not None)
            return build(*args)

        monkeypatch.setattr(oracle, "_leapfrog", watched)
        solve_mode(cfg, 1.15)
        assert alive == [False] and list(oracle._field_slot) == [(cfg, 1.15)]

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

    def test_empty_sample_list_rejected(self):
        # numpy's max over no analytic values raised its own message
        cfg = FDConfig(**QUICK, nu=0.5)
        with pytest.raises(ValueError, match="at least one sample point"):
            compare_kernel(mode_params(0, 0.25), cfg, [])

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

    @pytest.mark.parametrize("sigma, dr", [(0.0, 1e-3), (-1e-2, 1e-3), (1e-2, 0.0),
                                           (1e-2, -1e-3), (math.nan, 1e-3),
                                           (1e-2, math.nan), (math.inf, 1e-3),
                                           (1e-2, math.inf)])
    def test_mollified_kernel_refuses_bad_widths(self, sigma, dr):
        # sigma = 0 or dr < 0 summed no source radius and gave 0.0 where the
        # kernel is 0.381; a NaN met int() with its own message
        m = mode_params(0, 0.3)
        with pytest.raises(ValueError, match="sigma and dr must be finite and > 0"):
            mollified_kernel(m, KernelPoint(1.6, 1.0, 1.9), sigma, dr)
