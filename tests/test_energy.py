"""Inequality layer and commutant sign audit tests.

The cutoff calculus is pinned against mpmath quadrature, the Hardy and
norm-equivalence machinery against closed forms and randomized suites,
and the Hamilton derivative against its finite-difference twin along the
integrated flow.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mpmath as mp

from isqwave import energy as en
from isqwave.geodesic import FlowState, circle, integrate_flow, sphere_chart
from isqwave.quadrature import gauss_legendre

mp.mp.dps = 30


def gaussian_profile(points=4000, r_max=6.0):
    r = np.linspace(1e-4, r_max, points)
    return en.radial_test_function(
        lambda rr: rr * np.exp(-rr ** 2),
        lambda rr: (1.0 - 2.0 * rr ** 2) * np.exp(-rr ** 2), r)


def _scalar_edge(v):
    """The squared-bump edge one v at a time: 64 Gauss-Legendre nodes
    through np.exp and the weights' dot with that one row of values."""
    if v <= -1.0 or v >= 1.0:
        return 0.0 if v <= -1.0 else 1.0
    half = 0.5 * (v + 1.0)
    gl_x, gl_w = gauss_legendre(64)
    x = -1.0 + half * (gl_x + 1.0)
    with np.errstate(divide="ignore"):
        y = np.exp(-2.0 / (1.0 - x * x))
    return min(1.0, max(0.0, half * float(gl_w @ y) / en.BUMP_MASS))


def _scalar_cutoffs(cuts):
    return [1.0 - _scalar_edge(v) if falling else _scalar_edge(v)
            for v, falling in cuts]


_edge_args = st.one_of(st.floats(-1.5, 1.5), st.floats(-1.0, -0.9999),
                       st.floats(0.9999, 1.0))


@given(st.lists(st.tuples(_edge_args, st.booleans()), max_size=40))
@settings(max_examples=200, deadline=None)
def test_batched_cutoffs_are_the_scalar_edges(cuts):
    assert [v.hex() for v in en._cutoffs(cuts)] == \
        [v.hex() for v in _scalar_cutoffs(cuts)]


def test_batched_cutoffs_across_exp_blocks():
    # more edges than one np.exp block holds
    rng = np.random.default_rng(7)
    cuts = [(float(v), bool(f)) for v, f in
            zip(rng.uniform(-1.1, 1.1, 5000), rng.integers(0, 2, 5000))]
    assert [v.hex() for v in en._cutoffs(cuts)] == \
        [v.hex() for v in _scalar_cutoffs(cuts)]


def test_cutoffs_split_across_exp_blocks_keep_their_bits():
    # each cut's factor depends on its own row alone, wherever the 512-row
    # np.exp blocks fall: the batched stencil and audit rely on this
    rng = np.random.default_rng(11)
    cuts = [(float(v), bool(f)) for v, f in
            zip(rng.uniform(-1.05, 1.05, 1300), rng.integers(0, 2, 1300))]
    whole = [v.hex() for v in en._cutoffs(cuts)]
    for k in (1, 5, 300, 511, 512, 513, 700, 1299):
        parts = en._cutoffs(cuts[:k]) + en._cutoffs(cuts[k:])
        assert [v.hex() for v in parts] == whole, k


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
            assert abs(fd - en._slope(*en._chi_cut(x))) < 1e-8
        for x in (0.1, 0.35, 0.5, 0.8, 0.95):
            fd = (en.cutoff_chi_tilde(x + h) - en.cutoff_chi_tilde(x - h)) / (2 * h)
            assert abs(fd - en._slope(2.0 * x - 1.0, False)) < 1e-8

    def test_slope_is_the_squared_edge_generators_bit_for_bit(self):
        # chi' = phi1^2 - phi2^2 and chi~' = phi3^2, with the generators
        # phi1, phi2, phi3 = _K_NORM bump(2 x + 3), bump(2 x - 3), bump(2 x - 1)
        def gen(v):
            return en._K_NORM * en.bump(v)

        edges = [e for x in (-2.0, -1.0, 0.0, 1.0, 2.0)
                 for e in (math.nextafter(x, -3.0), x, math.nextafter(x, 3.0))]
        grid = [-0.0, 0.0, -1.5, 1.5, 0.5, *edges,
                *np.linspace(-2.5, 2.5, 1001).tolist()]
        for x in grid:
            chi = gen(2.0 * x + 3.0) ** 2 - gen(2.0 * x - 3.0) ** 2
            tilde = gen(2.0 * x - 1.0) ** 2
            assert en._slope(*en._chi_cut(x)).hex() == chi.hex(), x
            assert en._slope(2.0 * x - 1.0, False).hex() == tilde.hex(), x

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
        # an empty grid has no rule: it once reached hardy_check's gauss_legendre(0)
        r = np.linspace(0.1, 1.0, 64)
        for phi in (np.linspace(0.1, math.pi - 0.1, 8), np.array([])):
            u = np.exp(-((r[:, None] - 0.5) / 0.1) ** 2) * np.ones((1, phi.size))
            with pytest.raises(ValueError, match="polar_quadrature"):
                en.TestFunction(r=r, phi=phi, u=u, du_r=np.zeros_like(u),
                                du_phi=np.zeros_like(u))


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
        assert abs(en.sphere_min_eigenvalue(np.zeros(200), n)) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_constant_potential_shifts_exactly(self, n):
        base = en.sphere_min_eigenvalue(np.zeros(200), n)
        shifted = en.sphere_min_eigenvalue(np.full(200, 0.37), n)
        assert shifted - base == pytest.approx(0.37, abs=1e-10)


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
        assert en._support_radii(tf, en._weights_for(tf, 3)).size > 1
        en.norm_equivalence_check(tf, en.constant_potential(1.0), 3)
        assert len(calls) == 1

    def test_radial_potential_takes_minimum_over_radii(self, monkeypatch):
        # f = 1/(1 + r) falls with r: delta^2 sits at the outermost
        # supported radius, below its value at the innermost one, and
        # every radius has its own row, so none may share a solve
        n = 3
        fpot = en.PotentialProfile(
            func=lambda r, phi: 1.0 / (1.0 + r) + 0.0 * phi,
            sup_bound=1.0, lower_bound=0.0)
        tf = en.random_suite(n, count=1)[0]
        radii = en._support_radii(tf, en._weights_for(tf, n))
        nodes = en.sphere_polar_nodes()
        per_radius = [en.sphere_min_eigenvalue(fpot.func(r, nodes), n)
                      + 0.25 for r in radii]
        calls = []
        solve = en.sphere_min_eigenvalue

        def counted(*args):
            calls.append(1)
            return solve(*args)

        monkeypatch.setattr(en, "sphere_min_eigenvalue", counted)
        ok1, ok2, delta = en.norm_equivalence_check(tf, fpot, n)
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

    def test_r_squared_tau_underflow_is_a_typed_error(self):
        # r^2 tau = 1e-350 underflows to 0 although tau ** 2 = 1e-300 does
        # not; the xi_hat rate divides by it, on the scalar and batch paths
        pt = FlowState(t=0.0, r=1e-100, theta=(0.0,), tau=1e-150, xi=0.0,
                       zeta=(0.0,))
        with pytest.raises(en.TauUnderflow):
            en.hamilton_derivative_symbol(params(), pt)
        with pytest.raises(en.TauUnderflow):
            en._evaluate(params(), [state(), pt], circle())

    def test_r_squared_underflow_is_a_typed_error(self):
        # r^2 = 1e-340 underflows to 0, and the momentum ratio of the
        # domination test divides by it, on the scalar and batch paths, as
        # do the fd route and its flow; the symbol divides by nothing there
        pt = FlowState(t=0.0, r=1e-170, theta=(0.0,), tau=1.5, xi=0.0,
                       zeta=(0.0,))
        with pytest.raises(en.TauUnderflow):
            en.classify_point(params(), pt)
        with pytest.raises(en.TauUnderflow):
            en.hamilton_derivative_symbol(params(), pt)
        with pytest.raises(en.TauUnderflow):
            en.hamilton_derivative_symbol(params(), pt, method="fd")
        with pytest.raises(en.TauUnderflow):
            en._evaluate(params(), [state(), pt], circle())
        assert en.commutant_symbol(params(), pt) > 0.0

    def test_r_squared_underflow_refused_on_the_negative_sheet(self):
        # at tau <= 0 a and H_p a vanish, yet r^2 = 0 is refused first, so
        # the analytic and fd routes and the classification agree there
        for tau in (-1.5, -1e-300):
            pt = FlowState(t=0.0, r=1e-170, theta=(0.0,), tau=tau, xi=0.0,
                           zeta=(0.0,))
            for method in ("analytic", "fd"):
                with pytest.raises(en.TauUnderflow):
                    en.hamilton_derivative_symbol(params(), pt, method=method)
            with pytest.raises(en.TauUnderflow):
                en.classify_point(params(), pt)
            assert en.commutant_symbol(params(), pt) == 0.0

    @pytest.mark.parametrize("p, pt", [
        # tau ** 2 overflows
        (params(), FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1e200, xi=1e200,
                             zeta=(1e200,))),
        # exp(C xi_hat) overflows inside the widened support
        (params(delta=1e300), state(r=1.0, xi_hat=1000.0)),
    ])
    def test_overflow_is_a_typed_error(self, p, pt):
        calls = [lambda: en.commutant_symbol(p, pt),
                 lambda: en.hamilton_derivative_symbol(p, pt),
                 lambda: en._evaluate(p, [state(), pt], circle())]
        if pt.tau > 1e100:
            calls += [lambda: en.classify_point(p, pt),
                      lambda: en.hamilton_derivative_symbol(p, pt,
                                                            method="fd")]
        for call in calls:
            with pytest.raises(en.SymbolOverflow):
                call()

    def test_subnormal_r_squared_rate_overflow_is_a_typed_error(self):
        # r^2 = 1e-320 is subnormal: the xi_hat rate overflows, which left
        # nan on the analytic route and -inf on the fd route
        pt = FlowState(t=0.0, r=1e-160, theta=(0.1,), tau=1.5, xi=0.1,
                       zeta=(0.2,))
        for method in ("analytic", "fd"):
            with pytest.raises(en.SymbolOverflow):
                en.hamilton_derivative_symbol(params(), pt, method=method)
        with pytest.raises(en.SymbolOverflow):
            en._evaluate(params(), [state(), pt], circle())

    def test_negative_frequency_sheet_is_flat(self):
        value, label = en.hamilton_derivative_symbol(params(), state(tau=-1.5))
        assert value == 0.0
        assert label == "main b2"

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            en.hamilton_derivative_symbol(params(), state(), method="spectral")


class TestDualRoute:
    def test_transition_stress_point(self):
        p = params(alpha=2.5)
        pt = state(r=0.8, xi_hat=0.35, zeta_hat=0.4, t=-0.25, tau=1.4,
                   theta=0.3)
        va, la = en.hamilton_derivative_symbol(p, pt, method="analytic")
        vf, lf = en.hamilton_derivative_symbol(p, pt, method="fd")
        assert la == lf
        assert abs(va - vf) < 1e-6

    def test_agreement_across_all_classes(self):
        p = params(alpha=4.0)
        seen = set()
        for pt in en.sample_states(p, 0, 400):
            va, label = en.hamilton_derivative_symbol(p, pt, method="analytic")
            if label in seen:
                continue
            vf, _ = en.hamilton_derivative_symbol(p, pt, method="fd")
            assert abs(va - vf) < 1e-6, label
            seen.add(label)
        assert seen == {"main b2", "good-sign g", "hypothesis e1",
                        "elliptic e2", "mixed"}

    @pytest.mark.parametrize("r", [0.5, 1e-3, 1e-6])
    def test_fd_floor_is_absolute_in_r_squared(self, r):
        # H_p a = 0 at xi = zeta = 0, t = t0; the fd route reads roundoff
        # of about 5e-12 / r^2 there, as its docstring states
        pt = state(r=r, tau=1.5)
        va, _ = en.hamilton_derivative_symbol(params(), pt)
        vf, _ = en.hamilton_derivative_symbol(params(), pt, method="fd")
        assert va == 0.0
        assert abs(vf - va) <= 1e-10 / r ** 2


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
        assert res.max_value.hex() == "-0x1.79108f7a890a6p-933"
        assert res.counts == {"mixed": 3098, "hypothesis e1": 1437,
                              "good-sign g": 1763, "elliptic e2": 1705,
                              "main b2": 189}

    def test_audit_pinned_at_alpha_2487(self):
        res = en.sign_audit(params(alpha=2.487), min_kept=1500)
        assert (res.scanned, res.kept) == (6144, 1569)
        assert res.max_value.hex() == "-0x1.b77a97fe21111p-935"
        assert res.counts == {"mixed": 2238, "hypothesis e1": 877,
                              "good-sign g": 1544, "elliptic e2": 1450,
                              "main b2": 35}

    @pytest.mark.parametrize("chart", [circle(), sphere_chart()])
    def test_samples_pinned(self, chart):
        # Halton samples 101..103, pinned as float.hex; the sphere adds the
        # mid-chart angle pi/2 and a zero second momentum
        rows = [["-0x1.4f6af468606a0p-3", "0x1.0157b8325f8a9p+0",
                 "0x1.45fb68879eafep+2", "0x1.832c6e043b3d6p+0",
                 "0x1.2a66cd612542cp-1", "0x1.1c9f6b377818fp+0"],
                ["0x1.8e4edbdcd7eeep-4", "0x1.96c729d8e2a74p-2",
                 "0x1.64ea27b4415d9p+2", "0x1.b1b810ecf56bep+0",
                 "-0x1.1c8934e6c27c3p-3", "0x1.ee1bf023cd188p-1"],
                ["0x1.d7649a08c5ec8p-2", "0x1.fb79786a05911p-1",
                 "0x1.83d8e6e0e40b3p+2", "0x1.e043b3d5af9a7p+0",
                 "0x1.7d29ecdf43f2dp-2", "0x1.f80892541acc5p+0"]]
        extra = chart.dim - 1
        got = en.sample_states(params(alpha=2.487), 100, 3, chart)
        for st, (t, r, theta, tau, xi, zeta) in zip(got, rows):
            want = [t, r, theta] + [(math.pi / 2).hex()] * extra \
                + [tau, xi, zeta] + ["0x0.0p+0"] * extra
            assert [v.hex() for v in (st.t, st.r, *st.theta, st.tau, st.xi,
                                      *st.zeta)] == want

    def test_one_exp_block_per_halton_batch(self, monkeypatch):
        # the edge nodes of a whole batch go through np.exp together, in
        # blocks of at most 512 edges x 64 nodes
        sizes = []
        exp = np.exp

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted)
        # 100 samples have at most 5 x 100 <= 512 edges: one block each
        scan = en.AuditScan(params(alpha=4.0))
        while scan.kept < 100:
            scan.scan(scan.scanned, 100)
        assert len(sizes) == scan.scanned // 100
        sizes.clear()
        res = en.sign_audit(params(alpha=4.0), min_kept=100)
        batches = res.scanned // 2048
        assert batches <= len(sizes) <= 5 * 2048 // 512 * batches
        assert max(sizes) <= 512 * 64

    def test_one_zeta_norm_per_scanned_sample(self, monkeypatch):
        calls = []
        norm = en.zeta_norm_sq

        def counted(*args):
            calls.append(1)
            return norm(*args)

        monkeypatch.setattr(en, "zeta_norm_sq", counted)
        scan = en.AuditScan(params(alpha=4.0))
        while scan.kept < 100:
            scan.scan(scan.scanned, 256)
        assert len(calls) == scan.scanned


AUDIT_ALPHAS = (1.0, 2.0, 2.487, 4.0, 13.0)


def _reference_states(p, start, count, dim):
    """sample_states as one scalar radical inverse per index and base: the
    loop the batched Halton digits must reproduce bit for bit."""
    def halton(index, base):
        f, out = 1.0, 0.0
        while index > 0:
            f /= base
            out += f * (index % base)
            index //= base
        return out

    two_d = 2.0 * p.delta
    xi_lo = max(-two_d, -two_d / p.alpha)
    rows = []
    for i in range(start + 1, start + count + 1):
        q = [halton(i, b) for b in (2, 3, 5, 7, 11, 13)]
        xh = xi_lo + q[1] * (two_d - xi_lo)
        credit = p.alpha * xh + two_d
        r = max(1e-3, math.sqrt(q[0] * max(credit, 0.0)))
        t = p.t0 + (2.0 * q[3] - 1.0) * math.sqrt(max(credit, 0.0))
        band_lo = max(0.0, r * r - xh * xh - two_d)
        band_hi = max(band_lo, r * r - xh * xh + two_d)
        zh = math.sqrt(band_lo + q[2] * (band_hi - band_lo))
        tau = p.tau0 + 2.0 * q[4]
        theta = (2.0 * math.pi * q[5],) + (math.pi / 2.0,) * (dim - 1)
        zeta = (zh * tau,) + (0.0,) * (dim - 1)
        rows.append((t, r, *theta, tau, xh * tau, *zeta))
    return [[v.hex() for v in row] for row in rows]


@given(start=st.one_of(st.integers(-100, 10 ** 7),
                       st.integers(2 ** 63 - 10 ** 4, 2 ** 63 - 1)),
       count=st.integers(0, 50), sphere=st.booleans(),
       alpha=st.sampled_from(AUDIT_ALPHAS))
@settings(max_examples=150, deadline=None)
@example(start=2 ** 63 - 4, count=3, sphere=False, alpha=1.0)
@example(start=-5, count=2048, sphere=False, alpha=2.487)
@example(start=10 ** 6, count=2048, sphere=True, alpha=4.0)
@example(start=2 ** 62, count=2048, sphere=False, alpha=13.0)
def test_samples_match_the_scalar_radical_inverse(start, count, sphere, alpha):
    # up to the last int64 index, 2**63 - 1; the 2048-sample examples are
    # blocks in which the bases run out of digits in turn
    count = min(count, 2 ** 63 - 1 - start)
    p, g = params(alpha=alpha), sphere_chart() if sphere else circle()
    got = [[v.hex() for v in (s.t, s.r, *s.theta, s.tau, s.xi, *s.zeta)]
           for s in en.sample_states(p, start, count, g)]
    assert got == _reference_states(p, start, count, g.dim)


def test_samples_past_int64_raise():
    with pytest.raises(OverflowError):
        en.sample_states(params(), 2 ** 63 - 2, 2)


@pytest.mark.parametrize("chart", [circle(), sphere_chart()])
def test_samples_and_scan_rows_are_flow_states(chart):
    p = params(alpha=2.487)
    assert all(type(st) is FlowState for st in en.sample_states(p, 0, 50, chart))
    assert all(type(row[0]) is FlowState
               for row in en.AuditScan(p, chart).scan(0, 50))


def test_wide_delta_samples_stay_finite_off_an_empty_band():
    # for delta > 1/2 the |zeta_hat| band can be empty: those samples get
    # zeta = 0, which lies off the support, so they are never audited
    p = params(alpha=1.0, delta=1.0)
    states = en.sample_states(p, 0, 4096)
    assert all(math.isfinite(v) for st in states
               for v in (st.t, st.r, *st.theta, st.tau, st.xi, *st.zeta))
    empty = [st for st in states if st.zeta == (0.0,)]
    assert len(empty) == 667
    assert all(en.commutant_symbol(p, st) == 0.0 for st in empty)
    scan = en.AuditScan(p)
    rows = scan.scan(0, 4096)
    assert all(math.isfinite(value) for _, value, _, _ in rows)
    assert not any(audited for st, _, _, audited in rows if st.zeta == (0.0,))
    assert scan.scanned == 4096


def _reference_fd(p, pt, g):
    """The fd route composed as two integrate_flow calls and six
    commutant_symbol calls (the base point twice): the float operations
    the batched stencil must reproduce.  Returns (value, stencil states)."""
    rates, states = [], []
    for step in (en._FD_STEP, 0.5 * en._FD_STEP):
        traj = integrate_flow(pt, g, 2.0 * step, step, system="rescaled")
        a0, a1, a2 = (en.commutant_symbol(p, s, g) for s in traj.states[:3])
        states += traj.states[:3]
        rates.append((-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * step))
    return (4.0 * rates[1] - rates[0]) / 3.0 / pt.r ** 2, states


def _chart_state(sphere, r, xi_hat, zeta_hat, t, tau, theta):
    if not sphere:
        return state(r=r, xi_hat=xi_hat, zeta_hat=zeta_hat, t=t, tau=tau,
                     theta=theta)
    return FlowState(t=t, r=r, theta=(1.0 + 0.5 * math.sin(theta), theta),
                     tau=tau, xi=xi_hat * tau,
                     zeta=(0.6 * zeta_hat * tau, 0.8 * zeta_hat * tau))


# xi_hat within 1e-5 of the live band's ends +-2 delta (delta = 0.3), and
# tau within 1e-6 of tau0 = 1: stencil states there leave the support
_band_edge = st.floats(-1e-5, 1e-5)
_fd_xi_hat = st.one_of(st.floats(-0.8, 0.8), _band_edge.map(lambda e: 0.6 + e),
                       _band_edge.map(lambda e: -0.6 + e))
_fd_tau = st.one_of(st.floats(-3.0, -0.05), st.floats(0.05, 3.0),
                    st.floats(1.0 - 1e-6, 1.0 + 1e-6))


class TestBatchedStencil:
    @given(sphere=st.booleans(), r=st.floats(0.01, 1.5), xi_hat=_fd_xi_hat,
           zeta_hat=st.floats(0.0, 1.5), t=st.floats(-1.5, 1.5), tau=_fd_tau,
           theta=st.floats(-3.0, 3.0), alpha=st.sampled_from(AUDIT_ALPHAS))
    @settings(max_examples=150, deadline=None)
    def test_fd_route_is_the_composed_stencil(self, sphere, r, xi_hat,
                                              zeta_hat, t, tau, theta, alpha):
        g = sphere_chart() if sphere else circle()
        p = params(alpha=alpha)
        pt = _chart_state(sphere, r, xi_hat, zeta_hat, t, tau, theta)
        want, _ = _reference_fd(p, pt, g)
        got, _ = en.hamilton_derivative_symbol(p, pt, g, method="fd")
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("sphere", [False, True])
    @pytest.mark.parametrize("xi_hat", [0.6 + 2e-6, -0.6 + 2e-6])
    def test_stencils_that_cross_the_band_edge(self, sphere, xi_hat):
        # xi_hat falls along the flow: the stencil enters the live band at
        # +2 delta and leaves it at -2 delta
        g = sphere_chart() if sphere else circle()
        p = params(alpha=4.0)
        pt = _chart_state(sphere, 0.9, xi_hat, 0.5, 0.1, 1.5, 0.7)
        want, states = _reference_fd(p, pt, g)
        live = [abs(s.xi / s.tau) < 0.6 for s in states]
        assert any(live) and not all(live)
        got, _ = en.hamilton_derivative_symbol(p, pt, g, method="fd")
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("chart", [circle(), sphere_chart()])
    def test_commutants_are_the_one_point_symbol(self, chart):
        # live and dead points interleaved (tau <= tau0, off the xi_hat
        # band), so every live point's five cuts must land at its own stride
        p = params(alpha=2.487)
        live = en.sample_states(p, 40, 30, chart)
        points = [q for pt in live for q in
                  (pt, pt._replace(tau=0.5 * pt.tau), pt._replace(xi=pt.tau))]
        got = en._commutants(p, points, chart)
        want = [en.commutant_symbol(p, pt, chart) for pt in points]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert sum(v > 0.0 for v in got) >= 25


class TestSharedEvaluation:
    """The audit evaluates each sample once; its symbol value, derivative,
    class and audited flag must equal, bit for bit, the public functions
    composed the way the audit rule reads."""

    @pytest.mark.parametrize("alpha", AUDIT_ALPHAS)
    def test_audit_samples_match_the_public_composition(self, alpha):
        p = params(alpha=alpha)
        scan = en.AuditScan(p)
        kept, worst = 0, -math.inf
        for pt, value, label, audited in scan.scan(0, 600):
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
        a, value, label = en._evaluate(p, [pt], circle())[0]
        assert a.hex() == en.commutant_symbol(p, pt).hex()
        want, want_label = en.hamilton_derivative_symbol(p, pt)
        assert value.hex() == want.hex()
        assert label == want_label == en.classify_point(p, pt)
