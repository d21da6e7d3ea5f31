"""Inequality layer and commutant sign audit tests.

The cutoff calculus is pinned against mpmath quadrature, the Hardy and
norm-equivalence machinery against closed forms and randomized suites,
and the Hamilton derivative against its finite-difference twin along the
integrated flow.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp

from isqwave import energy as en
from isqwave.geodesic import FlowState, circle

mp.mp.dps = 30


def gaussian_profile(points=4000, r_max=6.0):
    r = np.linspace(1e-4, r_max, points)
    return en.radial_test_function(
        lambda rr: rr * np.exp(-rr ** 2),
        lambda rr: (1.0 - 2.0 * rr ** 2) * np.exp(-rr ** 2), r)


class TestCutoffs:
    def test_plateau_and_support(self):
        assert en.cutoff_chi(0.0) == 1.0
        assert en.cutoff_chi(-1.0) == 1.0
        assert en.cutoff_chi(1.0) == 1.0
        for x in (-2.0, 2.0, -3.5, 3.5):
            assert en.cutoff_chi(x) == 0.0
        assert en.cutoff_chi_tilde(0.0) == 0.0
        assert en.cutoff_chi_tilde(-1.0) == 0.0
        assert en.cutoff_chi_tilde(1.0) == 1.0
        assert en.cutoff_chi_tilde(5.0) == 1.0

    def test_edge_midpoint_symmetry(self):
        # the edge integrand is even, so the half-way value is exactly 1/2
        assert en.cutoff_chi_tilde(0.5) == pytest.approx(0.5, abs=1e-15)
        assert en.cutoff_chi(-1.5) == pytest.approx(0.5, abs=1e-15)
        assert en.cutoff_chi(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_bump_mass_against_mpmath(self):
        ref = mp.quad(lambda u: mp.exp(-2 / (1 - u ** 2)), [-1, 1])
        assert abs(en.BUMP_MASS - float(ref)) < 1e-15

    def test_edges_against_mpmath(self):
        total = mp.quad(lambda u: mp.exp(-2 / (1 - u ** 2)), [-1, 1])
        for v in (-0.8, -0.3, 0.0, 0.2, 0.5, 0.9):
            part = mp.quad(lambda u: mp.exp(-2 / (1 - u ** 2)), [-1, v])
            want = float(part / total)
            got = en.cutoff_chi_tilde((v + 1.0) / 2.0)
            assert abs(got - want) < 1e-12

    def test_derivative_identities_by_finite_difference(self):
        h = 5e-7
        for x in (-1.9, -1.5, -1.1, -0.5, 0.7, 1.2, 1.5, 1.9):
            fd = (en.cutoff_chi(x + h) - en.cutoff_chi(x - h)) / (2 * h)
            assert abs(fd - en.cutoff_chi_prime(x)) < 1e-8
        for x in (0.1, 0.35, 0.5, 0.8, 0.95):
            fd = (en.cutoff_chi_tilde(x + h) - en.cutoff_chi_tilde(x - h)) / (2 * h)
            assert abs(fd - en.cutoff_chi_tilde_prime(x)) < 1e-8

    def test_edge_generators_are_squares_of_declared_bumps(self):
        for x in (-1.7, 1.3, 0.4):
            assert en.cutoff_chi_prime(x) == en.phi1(x) ** 2 - en.phi2(x) ** 2
            assert en.cutoff_chi_tilde_prime(x) == en.phi3(x) ** 2

    @given(st.floats(min_value=-4.0, max_value=4.0))
    def test_chi_stays_in_unit_interval(self, x):
        assert 0.0 <= en.cutoff_chi(x) <= 1.0
        assert 0.0 <= en.cutoff_chi_tilde(x) <= 1.0

    @given(st.floats(min_value=-1.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_chi_tilde_monotone(self, x, step):
        assert en.cutoff_chi_tilde(x) <= en.cutoff_chi_tilde(x + step) + 1e-15


class TestTestFunctionValidation:
    def test_rejects_bad_grids(self):
        phi, _ = en.polar_quadrature(8)
        good = np.linspace(0.1, 1.0, 16)
        u = np.ones((16, 8))
        with pytest.raises(ValueError):
            en.TestFunction(r=good[::-1], phi=phi, u=u, du_r=u, du_phi=u)
        with pytest.raises(ValueError):
            en.TestFunction(r=good - 0.2, phi=phi, u=u, du_r=u, du_phi=u)
        with pytest.raises(ValueError):
            en.TestFunction(r=good, phi=phi, u=u[:, :4], du_r=u, du_phi=u)
        bad = u.copy()
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            en.TestFunction(r=good, phi=phi, u=bad, du_r=u, du_phi=u)

    def test_rejects_foreign_angular_nodes(self):
        r = np.linspace(0.1, 1.0, 64)
        phi = np.linspace(0.1, math.pi - 0.1, 8)
        u = np.exp(-((r[:, None] - 0.5) / 0.1) ** 2) * np.ones((1, 8))
        tf = en.TestFunction(r=r, phi=phi, u=u, du_r=np.zeros_like(u),
                             du_phi=np.zeros_like(u))
        with pytest.raises(ValueError, match="polar_quadrature"):
            en.hardy_check(tf, 3)


class TestHardy:
    def test_gaussian_example(self):
        lhs, rhs, ratio = en.hardy_check(gaussian_profile(), 3)
        assert lhs > 0 and rhs > 0
        # closed form for r exp(-r^2): moment ratio 4/7
        assert ratio == pytest.approx(4.0 / 7.0, abs=1e-8)
        assert ratio <= 4.0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_suite_respects_bound(self, n):
        bound = (2.0 / (n - 2)) ** 2
        for tf in en.random_suite(n):
            _, _, ratio = en.hardy_check(tf, n)
            assert 0.0 < ratio <= bound * 1.02

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sharpness_family(self, n):
        lam = (n - 2) / 2.0
        bound = 1.0 / lam ** 2
        previous = 0.0
        for eps in (0.5, 0.25, 0.1):
            _, _, ratio = en.hardy_check(en.sharpness_profile(n, eps), n)
            predicted = 1.0 / (lam ** 2 + eps ** 2 / 2.0)
            assert ratio == pytest.approx(predicted, rel=1e-10)
            assert previous < ratio < bound
            previous = ratio

    def test_annulus_consistency(self):
        # support in [1, 2] gives the pointwise bound lhs <= sup(1/r^2) l2
        r = np.linspace(0.5, 2.5, 3000)

        def fn(rr):
            out = np.zeros_like(rr)
            x = (rr - 1.5) / 0.5
            m = np.abs(x) < 1
            out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2))
            return out

        def dfn(rr):
            out = np.zeros_like(rr)
            x = (rr - 1.5) / 0.5
            m = np.abs(x) < 1
            out[m] = np.exp(-1.0 / (1.0 - x[m] ** 2)) \
                * (-2.0 * x[m] / (1.0 - x[m] ** 2) ** 2) / 0.5
            return out

        tf = en.radial_test_function(fn, dfn, r)
        lhs, _, _ = en.hardy_check(tf, 3)
        aw = en.angular_weights(3, *en.polar_quadrature(32))
        l2 = float(np.trapezoid(r ** 2 * (tf.u ** 2 @ aw), r))
        assert lhs <= l2 * (1.0 + 1e-12)

    def test_rejects_inadmissible_functions(self):
        tf = gaussian_profile(points=512)
        with pytest.raises(ValueError):
            en.hardy_check(tf, 2)
        flagged = en.TestFunction(r=tf.r, phi=tf.phi, u=tf.u, du_r=tf.du_r,
                                  du_phi=tf.du_phi, compact_support=False)
        with pytest.raises(ValueError):
            en.hardy_check(flagged, 3)
        flat = en.TestFunction(r=tf.r, phi=tf.phi, u=tf.u, du_r=tf.du_r,
                               du_phi=tf.du_phi, origin_order=0)
        with pytest.raises(ValueError):
            en.hardy_check(flat, 3)

    def test_under_resolved_grid_is_refused(self):
        r = np.linspace(0.05, 1.0, 9)
        tf = en.radial_test_function(
            lambda rr: np.sin(40.0 * rr) * np.exp(-5.0 * (rr - 0.5) ** 2),
            lambda rr: (40.0 * np.cos(40.0 * rr)
                        - 10.0 * (rr - 0.5) * np.sin(40.0 * rr))
            * np.exp(-5.0 * (rr - 0.5) ** 2), r)
        with pytest.raises(en.GridTolerance):
            en.hardy_check(tf, 3)


class TestQuadraticForm:
    def test_free_potential_equals_gradient_energy(self):
        tf = gaussian_profile()
        q = en.quadratic_form(tf, en.constant_potential(0.0), 3)
        assert q == en.gradient_norm_sq(tf, 3)

    def test_constant_potential_linearity(self):
        tf = gaussian_profile()
        grad = en.gradient_norm_sq(tf, 3)
        lhs, _, _ = en.hardy_check(tf, 3)
        q = en.quadratic_form(tf, en.constant_potential(0.7), 3)
        assert q == pytest.approx(grad + 0.7 * lhs, rel=1e-12)

    def test_quadratic_homogeneity(self):
        tf = gaussian_profile()
        doubled = en.TestFunction(r=tf.r, phi=tf.phi, u=2 * tf.u,
                                  du_r=2 * tf.du_r, du_phi=2 * tf.du_phi)
        f = en.constant_potential(0.4)
        assert en.quadratic_form(doubled, f, 3) == \
            pytest.approx(4.0 * en.quadratic_form(tf, f, 3), rel=1e-12)

    def test_potential_escaping_declared_bounds_is_rejected(self):
        tf = gaussian_profile(points=512)
        lying = en.PotentialProfile(
            func=lambda r, phi: np.full(np.broadcast_shapes(
                np.shape(r), np.shape(phi)), 1.0),
            sup_bound=0.5, lower_bound=-0.5)
        with pytest.raises(ValueError, match="declared bounds"):
            en.quadratic_form(tf, lying, 3)


class TestEigensolvers:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_free_sphere_minimum_is_zero(self, n):
        assert abs(en.sphere_min_eigenvalue(lambda ph: 0.0 * ph, n)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_constant_potential_shifts_exactly(self, n):
        base = en.sphere_min_eigenvalue(lambda ph: 0.0 * ph, n)
        shifted = en.sphere_min_eigenvalue(lambda ph: 0.0 * ph + 0.37, n)
        assert shifted - base == pytest.approx(0.37, abs=1e-10)

    def test_array_and_callable_agree(self):
        nodes = en.sphere_polar_nodes(200)
        fv = np.cos(nodes)
        a = en.sphere_min_eigenvalue(fv, 3)
        b = en.sphere_min_eigenvalue(lambda ph: np.cos(ph), 3)
        assert a == b


class TestNormEquivalence:
    def test_free_potential_in_four_dimensions_is_the_equality_case(self):
        tf = en.random_suite(4, count=1)[0]
        ok1, ok2, delta = en.norm_equivalence_check(
            tf, en.constant_potential(0.0), 4)
        assert ok1 and ok2
        assert delta == pytest.approx(1.0, abs=1e-8)

    def test_unit_potential_in_three_dimensions(self):
        tf = en.random_suite(3, count=1)[0]
        ok1, ok2, delta = en.norm_equivalence_check(
            tf, en.constant_potential(1.0), 3)
        assert ok1 and ok2
        # delta^2 = min eig(-Lap + 1 + 1/4) = 5/4; c2 = 5, c1 = 5/9
        assert delta ** 2 == pytest.approx(1.25, abs=1e-8)

    def test_mildly_negative_potential(self):
        lam_sq = 0.25
        tf = en.random_suite(3, count=1)[0]
        ok1, ok2, delta = en.norm_equivalence_check(
            tf, en.constant_potential(-lam_sq / 2.0), 3)
        assert ok1 and ok2
        assert delta ** 2 == pytest.approx(0.125, abs=1e-8)

    def test_supercritical_potential_raises(self):
        tf = en.random_suite(3, count=1)[0]
        with pytest.raises(en.PositivityFailure):
            en.norm_equivalence_check(tf, en.constant_potential(-0.35), 3)

    def test_one_eigen_solve_for_a_constant_potential(self, monkeypatch):
        # every radius samples the same potential row
        calls = []
        solve = en.sphere_min_eigenvalue

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(en, "sphere_min_eigenvalue", counted)
        tf = en.random_suite(3, count=1)[0]
        assert en._support_radii(tf, 3).size > 1
        en.norm_equivalence_check(tf, en.constant_potential(1.0), 3)
        assert len(calls) == 1

    def test_radial_potential_takes_minimum_over_radii(self, monkeypatch):
        # f = 1/(1 + r) falls with r: delta^2 sits at the outermost
        # supported radius, below its value at the innermost one, and
        # every radius has its own row, so none may share a solve
        n, m = 3, 200
        fpot = en.PotentialProfile(
            func=lambda r, phi: 1.0 / (1.0 + r) + 0.0 * phi,
            sup_bound=1.0, lower_bound=0.0)
        tf = en.random_suite(n, count=1)[0]
        radii = en._support_radii(tf, n)
        nodes = en.sphere_polar_nodes(m)
        per_radius = [en.sphere_min_eigenvalue(fpot.func(r, nodes), n, m)
                      + 0.25 for r in radii]
        calls = []
        solve = en.sphere_min_eigenvalue

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(en, "sphere_min_eigenvalue", counted)
        ok1, ok2, delta = en.norm_equivalence_check(tf, fpot, n, m)
        assert ok1 and ok2
        assert len(calls) == radii.size
        assert delta ** 2 == min(per_radius)
        assert min(per_radius) == per_radius[-1] < per_radius[0]

    def test_identical_rows_share_one_solve(self, monkeypatch):
        # two plateaus: rows inside each are bit-identical, across differ
        fpot = en.PotentialProfile(
            func=lambda r, phi: np.where(r < 1.0, 0.8, 0.3) + 0.0 * phi,
            sup_bound=0.8, lower_bound=0.3)
        radii = np.linspace(0.5, 1.5, 9)
        calls = []
        solve = en.sphere_min_eigenvalue

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(en, "sphere_min_eigenvalue", counted)
        gap = en._sphere_gap_sq(fpot, radii, 4)
        assert len(calls) == 2
        assert gap == solve(np.full(200, 0.3), 4) + 1.0

    def test_suite_has_no_violations(self):
        f = en.constant_potential(1.0)
        for tf in en.random_suite(3):
            ok1, ok2, _ = en.norm_equivalence_check(tf, f, 3)
            assert ok1 and ok2


def params(**kw):
    base = dict(C=1.0, delta=0.3, alpha=1.0, t0=0.0, tau0=1.0)
    base.update(kw)
    return en.CommutantParams(**base)


def state(r=0.5, xi_hat=0.0, zeta_hat=0.0, t=0.0, tau=1.5, theta=0.0):
    return FlowState(t=t, r=r, theta=(theta,), tau=tau,
                     xi=xi_hat * tau, zeta=(zeta_hat * tau,))


class TestCommutantSymbol:
    def test_interior_point_value(self):
        p = params()
        pt = FlowState(t=0.0, r=0.0, theta=(0.0,), tau=3.0, xi=0.0,
                       zeta=(0.0,))
        got = en.commutant_symbol(p, pt)
        # e^0 chi(0) chi~(2 delta)^2 chi~(2) chi(0) with 2 delta = 0.6
        assert got == pytest.approx(en.cutoff_chi_tilde(0.6) ** 2, abs=1e-15)
        assert got > 0.0

    def test_support_kills(self):
        p = params()
        assert en.commutant_symbol(p, state(tau=1.0)) == 0.0
        assert en.commutant_symbol(p, state(tau=0.5)) == 0.0
        assert en.commutant_symbol(p, state(tau=-2.0)) == 0.0
        assert en.commutant_symbol(p, state(xi_hat=0.6, tau=2.0)) == 0.0
        assert en.commutant_symbol(p, state(xi_hat=-0.7, tau=2.0)) == 0.0
        # r^2 beyond the step-cutoff credit
        assert en.commutant_symbol(p, state(r=1.5, tau=2.0)) == 0.0
        # far off the characteristic surface band
        assert en.commutant_symbol(p, state(r=0.2, zeta_hat=1.4, tau=2.0)) == 0.0

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            en.commutant_symbol(params(), state(tau=0.0))

    @given(st.floats(min_value=-0.7, max_value=0.7),
           st.floats(min_value=0.05, max_value=1.4),
           st.floats(min_value=1.05, max_value=3.0),
           st.floats(min_value=-1.5, max_value=1.5))
    @settings(max_examples=60, deadline=None)
    def test_symbol_is_nonnegative(self, xi_hat, r, tau, t):
        value = en.commutant_symbol(params(alpha=2.0),
                                    state(r=r, xi_hat=xi_hat, t=t, tau=tau))
        assert value >= 0.0


class TestClassification:
    def test_plateau_point_is_main_and_matches_hand_value(self):
        p = params(alpha=2.5)
        pt = state(r=0.4, xi_hat=0.25, zeta_hat=math.sqrt(0.05))
        a = en.commutant_symbol(p, pt)
        assert a > 0.0
        value, label = en.hamilton_derivative_symbol(p, pt)
        assert label == "main b2"
        # every cutoff sits on a plateau, so only the exponential term moves
        xh_dot = -(pt.xi ** 2 + pt.zeta[0] ** 2) / (pt.r ** 2 * pt.tau)
        assert value == pytest.approx(p.C * xh_dot * a, rel=1e-13)
        assert value < 0.0

    def test_rising_edge_point_is_good_sign_and_negative(self):
        p = params(alpha=1.0)
        pt = state(r=0.3, xi_hat=-0.45, zeta_hat=math.sqrt(0.05), tau=1.4)
        assert en.commutant_symbol(p, pt) > 0.0
        value, label = en.hamilton_derivative_symbol(p, pt)
        assert label == "good-sign g"
        assert value < 0.0

    def test_falling_edge_point_is_the_hypothesis_class(self):
        p = params(alpha=1.0)
        pt = state(r=0.3, xi_hat=0.45, zeta_hat=0.1, tau=1.4)
        assert en.commutant_symbol(p, pt) > 0.0
        value, label = en.hamilton_derivative_symbol(p, pt)
        assert label == "hypothesis e1"
        assert value > 0.0

    def test_surface_band_edge_is_elliptic(self):
        p = params(alpha=13.0)
        pt = state(r=0.9, xi_hat=0.1, zeta_hat=math.sqrt(0.35), tau=1.3)
        assert en.commutant_symbol(p, pt) > 0.0
        _, label = en.hamilton_derivative_symbol(p, pt)
        assert label == "elliptic e2"

    def test_momentum_starved_step_edge_defeats_every_alpha(self):
        # with xi = zeta = 0 the alpha lever multiplies zero: the t-step
        # edge term is positive no matter how large alpha is, so the point
        # cannot be counted good-sign and is classified mixed
        pt = state(r=0.05, xi_hat=0.0, zeta_hat=0.0, t=-0.5, tau=1.2)
        values = []
        for alpha in (1.0, 1e3, 1e6):
            value, label = en.hamilton_derivative_symbol(params(alpha=alpha), pt)
            assert label == "mixed"
            assert value > 1e-3
            values.append(value)
        assert abs(values[0] - values[-1]) < 1e-15

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            en.hamilton_derivative_symbol(params(), state(r=0.0))

    def test_tau_squaring_to_zero_is_a_typed_error(self):
        # tau ** 2 underflows to 0 below about 1e-154, where |zeta/tau|^2
        # cannot be formed; the symbol itself is 0 there (tau <= tau0)
        pt = state(r=1.0, tau=1.1565366374289877e-189)
        with pytest.raises(en.TauUnderflow):
            en.hamilton_derivative_symbol(params(), pt)
        with pytest.raises(en.EnergyError):
            en.classify_point(params(), pt)
        assert en.commutant_symbol(params(), pt) == 0.0

    def test_negative_frequency_sheet_is_flat(self):
        value, label = en.hamilton_derivative_symbol(params(), state(tau=-1.5))
        assert value == 0.0
        assert label == "main b2"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            en.hamilton_derivative_symbol(params(), state(), method="spectral")
        with pytest.raises(ValueError):
            en.hamilton_derivative_symbol(params(), state(), method="fd",
                                          fd_step=0.0)


class TestDualRoute:
    def test_transition_stress_point(self):
        p = params(alpha=2.5)
        pt = state(r=0.8, xi_hat=0.35, zeta_hat=0.4, t=-0.25, tau=1.4,
                   theta=0.3)
        va, la = en.hamilton_derivative_symbol(p, pt, method="analytic")
        vf, lf = en.hamilton_derivative_symbol(p, pt, method="fd",
                                               fd_step=1e-5)
        assert la == lf
        assert abs(va - vf) < 1e-6

    def test_agreement_across_all_classes(self):
        p = params(alpha=4.0)
        seen = set()
        for pt in en.sample_states(p, 0, 400):
            va, label = en.hamilton_derivative_symbol(p, pt, method="analytic")
            if label in seen:
                continue
            vf, _ = en.hamilton_derivative_symbol(p, pt, method="fd",
                                                  fd_step=1e-5)
            assert abs(va - vf) < 1e-6, label
            seen.add(label)
        assert seen == {"main b2", "good-sign g", "hypothesis e1",
                        "elliptic e2", "mixed"}


class TestAudit:
    def test_samples_are_deterministic_and_in_support(self):
        p = params(alpha=2.5)
        first = en.sample_states(p, 0, 200)
        again = en.sample_states(p, 0, 200)
        assert first == again
        positive = sum(en.commutant_symbol(p, pt) > 0.0 for pt in first)
        assert positive >= 195

    def test_audit_passes_above_threshold(self):
        res = en.sign_audit(params(alpha=4.0), min_kept=1500)
        assert res.kept >= 1500
        assert res.max_value <= 1e-12
        assert set(res.counts) <= {"main b2", "good-sign g", "hypothesis e1",
                                   "elliptic e2", "mixed"}

    def test_audit_fails_below_threshold(self):
        res = en.sign_audit(params(alpha=2.0), min_kept=10000)
        assert res.max_value > 1e-12

    def test_alpha_star_brackets_the_flip(self):
        astar = en.alpha_star(probe_kept=800, verify_kept=2500)
        assert 1.5 < astar < 6.0
        res = en.sign_audit(params(alpha=astar), min_kept=2500)
        assert res.max_value <= 1e-12

    def test_audit_pinned_at_alpha_four(self):
        res = en.sign_audit(params(alpha=4.0), min_kept=1500)
        assert (res.scanned, res.kept) == (8192, 1941)
        assert res.max_value.hex() == "-0x1.79108f7a89018p-933"
        assert res.counts == {"mixed": 3098, "hypothesis e1": 1437,
                              "good-sign g": 1763, "elliptic e2": 1705,
                              "main b2": 189}

    def test_one_zeta_norm_per_scanned_sample(self, monkeypatch):
        calls = []
        norm = en.zeta_norm_sq

        def counted(*args):
            calls.append(1)
            return norm(*args)

        monkeypatch.setattr(en, "zeta_norm_sq", counted)
        res = en.sign_audit(params(alpha=4.0), min_kept=100, batch=256)
        assert len(calls) == res.scanned


AUDIT_ALPHAS = (1.0, 2.0, 2.487, 4.0, 13.0)


class TestSharedEvaluation:
    """The audit evaluates each sample once; its symbol value, derivative,
    class and audited flag must equal, bit for bit, the public functions
    composed the way the audit rule reads."""

    @pytest.mark.parametrize("alpha", AUDIT_ALPHAS)
    def test_audit_samples_match_the_public_composition(self, alpha):
        p = params(alpha=alpha)
        scan = en.AuditScan(p)
        kept, worst = 0, -math.inf
        for pt, value, label, audited in scan.samples(0, 600):
            want, want_label = en.hamilton_derivative_symbol(p, pt)
            assert value.hex() == want.hex()
            assert label == want_label == en.classify_point(p, pt)
            assert audited == (want_label in ("main b2", "good-sign g")
                               and en.commutant_symbol(p, pt) > 0.0)
            if audited:
                kept += 1
                worst = max(worst, want)
        assert (scan.kept, scan.max_value.hex()) == (kept, worst.hex())
        assert sum(scan.counts.values()) == 600

    @given(xi_hat=st.floats(-0.8, 0.8), zeta_hat=st.floats(0.0, 1.5),
           r=st.floats(0.01, 1.5), t=st.floats(-1.5, 1.5),
           tau=st.one_of(st.floats(-3.0, -0.05), st.floats(0.05, 3.0)),
           alpha=st.sampled_from(AUDIT_ALPHAS))
    @settings(max_examples=200, deadline=None)
    def test_evaluation_matches_each_definition(self, xi_hat, zeta_hat, r, t,
                                                tau, alpha):
        p = params(alpha=alpha)
        pt = state(r=r, xi_hat=xi_hat, zeta_hat=zeta_hat, t=t, tau=tau)
        a, value, label = en._evaluate(p, pt, circle())
        assert a.hex() == en.commutant_symbol(p, pt).hex()
        want, want_label = en.hamilton_derivative_symbol(p, pt)
        assert value.hex() == want.hex()
        assert label == want_label == en.classify_point(p, pt)
