"""Hankel transform and radial operator checks.

The oracle here is analytic: the order-0 transform of exp(-r^2/2) is
exp(-lam^2/2), and L_nu applied to r^2 exp(-r^2/2) has a closed form.
The involution defect has no closed form; it is checked for smallness
and strict decrease under refinement.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isqwave import hankel
from isqwave.hankel import (
    GridTooCoarse,
    RadialField,
    RadialGrid,
    TailTooFat,
    apply_radial_operator,
    graded_grid,
    hankel_transform,
    norm_r_dr,
    verify_involution,
)

R_MAX = 12.0


def gaussian_field(n):
    g = graded_grid(R_MAX, n)
    return RadialField(g, np.exp(-g.points ** 2 / 2))


class TestGrids:
    def test_graded_grid_shape(self):
        g = graded_grid(R_MAX, 120)
        assert len(g) == 120
        assert g.points[0] < 2e-4 * R_MAX
        assert g.points[-1] == R_MAX
        assert np.all(np.diff(g.points) > 0)

    def test_refinement_shrinks_spacing_everywhere(self):
        coarse = graded_grid(R_MAX, 100)
        fine = graded_grid(R_MAX, 200)
        assert fine.points[0] < coarse.points[0]
        assert np.diff(fine.points).max() < 0.6 * np.diff(coarse.points).max()

    def test_grading_refines_near_origin(self):
        g = graded_grid(R_MAX, 120)
        h = np.diff(g.points)
        assert h[0] < h[-1] / 20

    def test_rejects_nonpositive_points(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([0.0, 1.0, 2.0]), 2.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            RadialGrid(np.array([1.0, 0.5, 2.0]), 2.0)

    def test_field_shape_mismatch(self):
        g = graded_grid(R_MAX, 40)
        with pytest.raises(ValueError):
            RadialField(g, np.zeros(3))


class TestTransform:
    def test_gaussian_self_transform(self):
        # H_0 of exp(-r^2/2) is exp(-lam^2/2)
        f = gaussian_field(320)
        out = RadialGrid(np.linspace(1e-3, 4.0, 81), 4.0)
        h = hankel_transform(f, 0.0, out)
        err = np.max(np.abs(h.values - np.exp(-out.points ** 2 / 2)))
        assert err < 1e-6

    def test_linearity(self):
        g = graded_grid(R_MAX, 100)
        f1 = RadialField(g, np.exp(-g.points ** 2 / 2))
        f2 = RadialField(g, g.points ** 2 * np.exp(-g.points ** 2 / 2))
        out = RadialGrid(np.linspace(0.1, 3.0, 25), 3.0)
        ha = hankel_transform(f1, 1.0, out)
        hb = hankel_transform(f2, 1.0, out)
        both = RadialField(g, 2.0 * f1.values - 3.0 * f2.values)
        hc = hankel_transform(both, 1.0, out)
        assert np.allclose(hc.values, 2.0 * ha.values - 3.0 * hb.values,
                           rtol=0, atol=1e-12)

    def test_zero_field(self):
        g = graded_grid(R_MAX, 60)
        h = hankel_transform(RadialField(g, np.zeros(len(g))), 0.5, g)
        assert np.all(h.values == 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_fewer_than_four_radii_raise(self, n):
        # the local cubic interpolant needs four input samples
        g = RadialGrid(np.linspace(0.5, 2.0, n), 2.0)
        with pytest.raises(GridTooCoarse):
            hankel_transform(RadialField(g, np.zeros(n)), 0.0, g)

    def test_tail_too_fat(self):
        g = graded_grid(R_MAX, 100)
        bad = RadialField(g, np.exp(-((g.points - 11.0) ** 2)))
        with pytest.raises(TailTooFat):
            hankel_transform(bad, 0.0, g)

    def test_plancherel_improves_with_refinement(self):
        errs = []
        for n in (80, 160):
            f = gaussian_field(n)
            h = hankel_transform(f, 0.0, f.grid)
            errs.append(abs(norm_r_dr(h) - norm_r_dr(f)) / norm_r_dr(f))
        assert errs[1] < errs[0]
        assert errs[0] < 1e-3


def test_table_slot_never_serves_stale_values():
    # transforms onto one output grid alternate in order, in r_max (which
    # moves every node) and in field values; each must give the bits of a
    # first call made with an empty slot
    out = RadialGrid(np.linspace(0.1, 4.0, 30), 4.0)
    fields = []
    for r_max in (12.0, 9.7):
        g = graded_grid(r_max, 80)
        for width in (1.0, 0.8):
            vals = g.points * np.exp(-g.points ** 2 / (2 * width ** 2))
            fields.append(RadialField(g, vals))
    cases = [(f, nu) for f in fields for nu in (1.0, 2.5)]
    first = []
    for f, nu in cases:
        hankel._table_slot.clear()
        first.append(hankel_transform(f, nu, out).values)
    for k in (0, 3, 1, 0, 5, 4, 7, 2, 6, 6, 0):
        f, nu = cases[k]
        again = hankel_transform(f, nu, out).values
        assert again.tobytes() == first[k].tobytes(), k


def test_another_grid_misses_the_slot(monkeypatch):
    # same order, wavenumbers and r_max, but the second field lies on other
    # radii: the grid is part of the slot key, so the second transform
    # builds its own table and basis and gives the bits of a cold transform
    out = RadialGrid(np.linspace(0.1, 4.0, 30), 4.0)
    grids = [graded_grid(R_MAX, 80), graded_grid(R_MAX, 96)]
    fields = [RadialField(g, g.points * np.exp(-g.points ** 2 / 2))
              for g in grids]
    cold = []
    for f in fields:
        hankel._table_slot.clear()
        cold.append(hankel_transform(f, 1.5, out).values)
    builds = []
    basis = hankel._cubic_basis
    monkeypatch.setattr(hankel, "_cubic_basis",
                        lambda xs, q: builds.append(len(xs)) or basis(xs, q))
    hankel._table_slot.clear()
    hankel_transform(fields[0], 1.5, out)
    again = hankel_transform(fields[1], 1.5, out).values
    assert builds == [80, 96]
    assert len(hankel._table_slot) == 1
    assert again.tobytes() == cold[1].tobytes()


def test_pairs_build_one_basis_and_hold_nothing_after(monkeypatch):
    # the eigen pair and the involution pair: one table, one basis, and an
    # empty slot once the second transform has run
    builds = []
    basis = hankel._cubic_basis
    monkeypatch.setattr(hankel, "_cubic_basis",
                        lambda xs, q: builds.append(len(xs)) or basis(xs, q))
    g = graded_grid(R_MAX, 160)
    fld = RadialField(g, g.points ** 2 * np.exp(-g.points ** 2 / 2))
    lam = RadialGrid(np.linspace(0.05, 6.0, 4), 6.0)
    hankel._table_slot.clear()
    hankel_transform(apply_radial_operator(fld, 2.0), 2.0, lam)
    hankel_transform(fld, 2.0, lam)
    assert builds == [160] and not hankel._table_slot
    verify_involution(fld, 2.0)
    assert builds == [160, 160] and not hankel._table_slot


class TestInvolution:
    def test_defect_small_and_decreasing(self):
        d_base = verify_involution(gaussian_field(80), 0.0)
        d_fine = verify_involution(gaussian_field(160), 0.0)
        assert d_base < 1e-3
        assert d_fine < d_base

    def test_defect_magnitude_frozen(self):
        # regression pin from the validated implementation
        d = verify_involution(gaussian_field(80), 0.0)
        assert d == pytest.approx(5.7e-5, abs=3e-5)


class TestRadialOperator:
    def test_against_closed_form(self):
        # L_nu (r^2 e^{-r^2/2}) = (4 - nu^2 - 6 r^2 + r^4) e^{-r^2/2}
        g = graded_grid(R_MAX, 300)
        r = g.points
        u = RadialField(g, r ** 2 * np.exp(-r ** 2 / 2))
        nu = 2.0
        lu = apply_radial_operator(u, nu)
        exact = (4.0 - nu ** 2 - 6.0 * r ** 2 + r ** 4) * np.exp(-r ** 2 / 2)
        err = np.max(np.abs(lu.values[1:-1] - exact[1:-1]))
        assert err < 5e-3

    def test_order_two_convergence(self):
        errs = []
        for n in (150, 300):
            g = graded_grid(R_MAX, n)
            r = g.points
            nu = 1.0
            u = RadialField(g, r ** 2 * np.exp(-r ** 2 / 2))
            lu = apply_radial_operator(u, nu)
            exact = (4.0 - nu ** 2 - 6.0 * r ** 2 + r ** 4) * np.exp(-r ** 2 / 2)
            errs.append(np.max(np.abs(lu.values[1:-1] - exact[1:-1])))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.5

    def test_too_coarse_raises(self):
        g = graded_grid(R_MAX, 4)
        if len(g) >= 16:
            pytest.skip("grading produced enough points")
        with pytest.raises(GridTooCoarse):
            apply_radial_operator(RadialField(g, np.ones(len(g))), 0.0)


class TestEigenRelation:
    def test_transform_diagonalizes_operator(self):
        # H_nu(L_nu g) should equal -lam^2 H_nu(g) up to discretization
        nu = 2.0
        g = graded_grid(R_MAX, 160)
        vals = g.points ** 2 * np.exp(-g.points ** 2 / 2)
        fld = RadialField(g, vals)
        lam_grid = RadialGrid(np.linspace(0.05, 6.0, 120), 6.0)
        hl = hankel_transform(apply_radial_operator(fld, nu), nu, lam_grid)
        hg = hankel_transform(fld, nu, lam_grid)
        target = -lam_grid.points ** 2 * hg.values
        rel = np.linalg.norm(hl.values - target) / np.linalg.norm(target)
        assert rel < 1e-2


@settings(max_examples=15, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_transform_linear_in_field(a, b):
    g = graded_grid(R_MAX, 60)
    out = RadialGrid(np.linspace(0.2, 2.0, 10), 2.0)
    f1 = np.exp(-g.points ** 2 / 2)
    f2 = g.points * np.exp(-g.points ** 2 / 2)
    h1 = hankel_transform(RadialField(g, f1), 0.5, out).values
    h2 = hankel_transform(RadialField(g, f2), 0.5, out).values
    hc = hankel_transform(RadialField(g, a * f1 + b * f2), 0.5, out).values
    assert np.allclose(hc, a * h1 + b * h2, rtol=0, atol=1e-10)
