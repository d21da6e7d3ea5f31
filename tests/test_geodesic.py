"""Bicharacteristic flow checks.

The oracles are closed-form trajectories: radial characteristics of the
singular system are straight lines r = r0 - tau*s with xi = tau*r, and the
rescaled system at unit angular momentum follows the secant family
(r, xi) = (A sec(s - s0), -tan(s - s0)).  Conservation laws (sigma, tau,
cyclic momenta) are checked against drift at fixed step.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isqwave import geodesic
from isqwave.geodesic import (
    ORIGIN_RADIUS,
    FlowState,
    OriginReached,
    OriginSingularity,
    StepUnderflow,
    Trajectory,
    characteristic_value,
    circle,
    hamilton_rhs,
    integrate_flow,
    rescaled_rhs,
    sec_envelope_bound,
    sphere_chart,
    trace_through_origin,
    zeta_norm_sq,
)


def radial_state(r=1.0, xi=1.0, tau=1.0):
    return FlowState(t=0.0, r=r, theta=(0.0,), tau=tau, xi=xi, zeta=(0.0,))


def secant_state(u0=0.5):
    # lies on the rescaled closed-form orbit r = sec(s - u0) at |zeta| = 1
    return FlowState(t=0.0, r=1.0 / math.cos(u0), theta=(0.2,), tau=1.0,
                     xi=math.tan(u0), zeta=(1.0,))


class TestStateAndMetrics:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FlowState(t=0.0, r=1.0, theta=(0.0, 0.0), tau=1.0, xi=0.0,
                      zeta=(1.0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FlowState(t=0.0, r=math.inf, theta=(0.0,), tau=1.0, xi=0.0,
                      zeta=(0.0,))

    def test_xi_hat(self):
        s = FlowState(t=0.0, r=1.0, theta=(0.0,), tau=2.0, xi=0.5,
                      zeta=(0.0,))
        assert s.xi_hat == 0.25

    def test_zeta_norm_on_sphere(self):
        g = sphere_chart()
        s = FlowState(t=0.0, r=1.0, theta=(math.pi / 2, 0.0), tau=1.0,
                      xi=0.0, zeta=(0.3, 0.4))
        # at the equator sin(phi) = 1, so the norm is Euclidean
        assert zeta_norm_sq(s, g) == pytest.approx(0.25, abs=1e-15)

    def test_characteristic_value_vanishes_on_characteristics(self):
        g = circle()
        s = FlowState(t=0.0, r=2.0, theta=(0.1,), tau=1.0, xi=1.2,
                      zeta=(math.sqrt(4.0 - 1.44),))
        assert characteristic_value(s, g) == pytest.approx(0.0, abs=1e-14)


class TestRightHandSides:
    def test_radial_line_satisfies_singular_system(self):
        # r = r0 - tau*s, xi = tau*r, t = s*tau: derivative (tau, -tau, 0, -tau^2)
        g = circle()
        tau = 1.3
        for r in (0.2, 0.7, 1.5):
            v = hamilton_rhs(radial_state(r=r, xi=tau * r, tau=tau), g)
            assert abs(v.t - tau) < 1e-14
            assert abs(v.r + tau) < 1e-14
            assert abs(v.xi + tau ** 2) < 1e-12
            assert v.tau == 0.0
            assert v.theta == (0.0,)
            assert v.zeta == (0.0,)

    def test_secant_family_satisfies_rescaled_system(self):
        g = circle()
        for u in (-0.4, 0.0, 0.3, 0.9, 1.2):
            s = FlowState(t=0.0, r=1.0 / math.cos(u), theta=(0.0,), tau=1.0,
                          xi=-math.tan(u), zeta=(1.0,))
            v = rescaled_rhs(s, g)
            sec, tan = 1.0 / math.cos(u), math.tan(u)
            assert abs(v.r - sec * tan) < 1e-10 * sec ** 2
            assert abs(v.xi + sec ** 2) < 1e-10 * sec ** 2
            assert abs(v.t - sec ** 2) < 1e-10 * sec ** 2
            assert abs(v.theta[0] - 0.5) < 1e-14

    def test_tau_is_constant_for_both_systems(self):
        g = circle()
        s = FlowState(t=0.1, r=0.9, theta=(0.3,), tau=1.7, xi=-0.4,
                      zeta=(0.8,))
        assert hamilton_rhs(s, g).tau == 0.0
        assert rescaled_rhs(s, g).tau == 0.0

    def test_momentum_scaling_degrees(self):
        # position rates are degree 1 in (tau, xi, zeta), momentum rates degree 2
        g = sphere_chart()
        lam = 3.0
        s = FlowState(t=0.0, r=1.4, theta=(1.1, 0.2), tau=0.9, xi=0.5,
                      zeta=(0.3, 0.6))
        s2 = FlowState(t=0.0, r=1.4, theta=(1.1, 0.2), tau=lam * 0.9,
                       xi=lam * 0.5, zeta=(lam * 0.3, lam * 0.6))
        for rhs in (hamilton_rhs, rescaled_rhs):
            v, w = rhs(s, g), rhs(s2, g)
            assert w.t == pytest.approx(lam * v.t, rel=1e-14)
            assert w.r == pytest.approx(lam * v.r, rel=1e-14)
            assert w.xi == pytest.approx(lam ** 2 * v.xi, rel=1e-14)
            for i in range(2):
                assert w.theta[i] == pytest.approx(lam * v.theta[i], rel=1e-13)
                if v.zeta[i] != 0.0:
                    assert w.zeta[i] == pytest.approx(lam ** 2 * v.zeta[i],
                                                      rel=1e-13)

    def test_rescaled_is_r_squared_times_singular(self):
        g = sphere_chart()
        s = FlowState(t=0.0, r=0.8, theta=(1.3, -0.2), tau=1.1, xi=-0.6,
                      zeta=(0.5, 0.2))
        v, w = hamilton_rhs(s, g), rescaled_rhs(s, g)
        r2 = s.r ** 2
        assert w.t == pytest.approx(r2 * v.t, rel=1e-14)
        assert w.r == pytest.approx(r2 * v.r, rel=1e-14)
        assert w.xi == pytest.approx(r2 * v.xi, rel=1e-14)
        for i in range(2):
            assert w.theta[i] == pytest.approx(r2 * v.theta[i], rel=1e-13)

    def test_singular_system_rejects_zero_radius(self):
        g = circle()
        with pytest.raises(OriginSingularity):
            hamilton_rhs(radial_state(r=1e-13), g)

    def test_rescaled_is_smooth_at_zero_radius(self):
        g = circle()
        s = FlowState(t=0.0, r=0.0, theta=(0.0,), tau=1.0, xi=0.4,
                      zeta=(0.5,))
        v = rescaled_rhs(s, g)
        assert v.r == 0.0
        assert v.xi == pytest.approx(-(0.16 + 0.25), abs=1e-15)


class TestIntegration:
    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            integrate_flow(radial_state(), circle(), 1.0, 1e-3, "other")

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_flow(radial_state(), circle(), 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_flow(radial_state(), circle(), -1.0, 1e-3)

    def test_rejects_state_of_another_dimension(self):
        with pytest.raises(ValueError, match="angles"):
            integrate_flow(radial_state(), sphere_chart(), 1.0, 1e-3)

    def test_closed_form_secant_trajectory(self):
        g = circle()
        u0 = 0.5
        traj = integrate_flow(secant_state(u0), g, 1.4, 1e-3, "rescaled")
        worst = 0.0
        for sv, s in zip(traj.s_values, traj.states):
            u = sv - u0
            worst = max(worst,
                        abs(s.r - 1.0 / math.cos(u)),
                        abs(s.xi + math.tan(u)),
                        abs(s.t - (math.tan(u) + math.tan(u0))),
                        abs(s.theta[0] - (0.2 + sv / 2)))
        assert worst < 1e-10

    def test_sigma_and_tau_conserved_at_fine_step(self):
        g = circle()
        s0 = FlowState(t=0.0, r=1.3, theta=(0.4,), tau=1.2, xi=-0.3,
                       zeta=(0.7,))
        traj = integrate_flow(s0, g, 1.0, 1e-4, "full")
        sig = traj.sigma_values
        assert np.max(np.abs(sig - sig[0])) < 1e-8
        assert all(s.tau == 1.2 for s in traj.states)

    def test_grid_lands_on_macro_multiples(self):
        traj = integrate_flow(radial_state(xi=-0.5), circle(), 0.5, 0.1)
        assert np.allclose(traj.s_values, np.arange(6) * 0.1, atol=1e-12)

    def test_characteristic_invariant_of_rescaled_flow(self):
        # r^2 tau^2 - xi^2 - |zeta|^2 obeys p' = -2 xi p, so it is preserved
        # exactly when it starts at zero
        g = circle()
        s0 = FlowState(t=0.0, r=1.2, theta=(0.1,), tau=1.0, xi=0.4,
                       zeta=(math.sqrt(1.2 ** 2 - 0.4 ** 2),))
        traj = integrate_flow(s0, g, 1.0, 1e-3, "rescaled")
        p = [s.r ** 2 * s.tau ** 2 - s.xi ** 2 - s.zeta[0] ** 2
             for s in traj.states]
        assert max(abs(v) for v in p) < 1e-12


class TestOriginStrike:
    def test_striking_flow_raises_with_trajectory(self):
        g = circle()
        with pytest.raises(OriginReached) as exc:
            integrate_flow(radial_state(), g, 2.0, 1e-3, "full")
        traj = exc.value.trajectory
        assert isinstance(traj, Trajectory)
        last = traj.states[-1]
        # the substep clamp halves r toward the threshold, never jumps past it
        assert ORIGIN_RADIUS / 4 < last.r < ORIGIN_RADIUS
        assert abs(traj.s_values[-1] - 1.0) < 1e-5
        assert np.all(np.diff(traj.s_values) > 0)
        assert np.nanmax(np.abs(traj.sigma_values)) < 1e-8

    def test_outgoing_flow_does_not_strike(self):
        g = circle()
        traj = integrate_flow(radial_state(xi=-1.0), g, 1.0, 1e-3, "full")
        assert traj.states[-1].r == pytest.approx(2.0, rel=1e-10)

    def test_rescaled_striking_flow_stalls(self):
        # same initial data under the rescaled field: r and xi decay toward
        # the radial point (0, 0) without the sign of xi_hat ever flipping
        g = circle()
        traj = integrate_flow(radial_state(), g, 50.0, 1e-2, "rescaled")
        xi_hat = np.array([state.xi / state.tau for state in traj.states])
        assert np.all(xi_hat > 0)
        assert xi_hat[-1] < 0.05
        assert traj.states[-1].r < 0.05
        assert traj.states[-1].r == pytest.approx(1.0 / 51.0, rel=1e-6)


class TestBridgedTrace:
    def test_matches_straight_line_pullback(self):
        g = circle()
        traj = trace_through_origin(radial_state(), g, 2.0, 1e-3)
        xi_err = max(abs(state.xi / state.tau - (1.0 - sv))
                     for sv, state in zip(traj.s_values, traj.states))
        r_err = max(abs(s.r - abs(1.0 - sv))
                    for sv, s in zip(traj.s_values, traj.states))
        t_err = max(abs(s.t - sv)
                    for sv, s in zip(traj.s_values, traj.states))
        assert xi_err < 1e-6
        assert r_err < 1e-6
        assert t_err < 1e-6

    def test_xi_hat_flips_sign(self):
        g = circle()
        traj = trace_through_origin(radial_state(r=0.6, xi=0.6), g, 1.2, 1e-3)
        first, last = traj.states[0], traj.states[-1]
        assert first.xi / first.tau > 0 > last.xi / last.tau
        assert np.all(np.diff(traj.s_values) > 0)

    def test_scales_with_tau(self):
        g = circle()
        tau = 2.0
        traj = trace_through_origin(radial_state(xi=2.0, tau=tau), g,
                                    1.0, 1e-3)
        # strike at s = r0/tau = 0.5, then outgoing
        err = max(abs(state.xi / state.tau - (1.0 - tau * sv))
                  for sv, state in zip(traj.s_values, traj.states))
        assert err < 1e-6

    def test_requires_zero_angular_momentum(self):
        with pytest.raises(ValueError):
            trace_through_origin(
                FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=1.0,
                          zeta=(1e-3,)), circle(), 1.0, 1e-3)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            trace_through_origin(radial_state(tau=-1.0), circle(), 1.0, 1e-3)


class TestEnvelope:
    def test_bound_value(self):
        g = circle()
        s = FlowState(t=0.0, r=2.0, theta=(0.0,), tau=1.0, xi=0.8,
                      zeta=(1.3,))
        expected = 2.0 * math.sqrt(1.69 / (1.69 + 0.64))
        assert sec_envelope_bound(s, g) == pytest.approx(expected, rel=1e-14)

    def test_requires_angular_momentum(self):
        with pytest.raises(ValueError):
            sec_envelope_bound(radial_state(), circle())

    def test_secant_orbit_attains_bound(self):
        g = circle()
        s0 = secant_state(0.5)
        bound = sec_envelope_bound(s0, g)
        assert bound == pytest.approx(1.0, rel=1e-14)
        traj = integrate_flow(s0, g, 1.5, 1e-3, "rescaled")
        rmin = min(s.r for s in traj.states)
        assert rmin >= bound - 1e-6
        assert rmin <= bound + 1e-5

    def test_generic_orbit_respects_bound(self):
        g = circle()
        s0 = FlowState(t=0.0, r=2.0, theta=(0.0,), tau=1.0, xi=0.8,
                       zeta=(1.3,))
        bound = sec_envelope_bound(s0, g)
        traj = integrate_flow(s0, g, 1.0, 1e-3, "rescaled")
        rmin = min(s.r for s in traj.states)
        assert rmin >= bound - 1e-6
        assert rmin <= bound + 1e-5

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_derivative_is_step_underflow(self):
        # zeta^2 overflows in the very first field evaluation, the one that
        # also sets the step size; that is a blow-up like any other stage's
        s0 = FlowState(t=0.0, r=2.0, theta=(0.0,), tau=1.0, xi=1.0,
                       zeta=(1e160,))
        with pytest.raises(StepUnderflow, match="finite-parameter blow-up"):
            integrate_flow(s0, circle(), 0.5, 0.01, "rescaled")

    def test_outgoing_rescaled_flow_blows_up_as_underflow(self):
        # past the secant pole the field diverges at finite parameter; the
        # integrator must report that as StepUnderflow, not a raw overflow
        g = circle()
        with pytest.raises(StepUnderflow):
            integrate_flow(secant_state(0.5), g, 4.0, 1e-3, "rescaled")


def _xi_of_r(traj, r_grid):
    """Interpolate xi over a monotone-decreasing prefix of the r values."""
    r = np.array([s.r for s in traj.states])
    x = np.array([s.xi for s in traj.states])
    stop = int(np.argmin(r))
    return np.interp(r_grid, r[:stop + 1][::-1], x[:stop + 1][::-1])


class TestParametrizationMatch:
    def test_full_and_rescaled_trace_the_same_curve(self):
        # reparametrize both trajectories by r and compare xi(r)
        g = circle()
        s0 = FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=0.5,
                       zeta=(0.9,))
        full = integrate_flow(s0, g, 0.8, 1e-4, "full")
        resc = integrate_flow(s0, g, 0.8, 1e-4, "rescaled")
        r_lo = max(min(s.r for s in full.states),
                   min(s.r for s in resc.states))
        grid = np.linspace(r_lo + 1e-6, 1.0 - 1e-6, 200)
        gap = np.max(np.abs(_xi_of_r(full, grid) - _xi_of_r(resc, grid)))
        assert gap < 1e-6


class TestSphereFlow:
    def test_conservation_on_sphere(self):
        g = sphere_chart()
        s0 = FlowState(t=0.0, r=1.5, theta=(1.0, 0.3), tau=1.1, xi=0.2,
                       zeta=(0.4, 0.7))
        traj = integrate_flow(s0, g, 1.0, 1e-3, "full")
        sig = traj.sigma_values
        assert np.max(np.abs(sig - sig[0])) < 1e-8
        # psi is a cyclic angle, so its momentum is exactly constant
        assert all(s.zeta[1] == 0.7 for s in traj.states)
        zn0 = zeta_norm_sq(s0, g)
        drift = max(abs(zeta_norm_sq(s, g) - zn0) for s in traj.states)
        assert drift < 1e-8

    def test_chart_stays_away_from_poles(self):
        g = sphere_chart()
        s0 = FlowState(t=0.0, r=1.5, theta=(1.0, 0.3), tau=1.1, xi=0.2,
                       zeta=(0.4, 0.7))
        traj = integrate_flow(s0, g, 1.0, 1e-3, "full")
        phis = [s.theta[0] for s in traj.states]
        assert 0.2 < min(phis) and max(phis) < math.pi - 0.2


@settings(max_examples=25, deadline=None)
@given(
    xi=st.floats(-1.5, 1.5),
    z=st.floats(-1.5, 1.5),
    lam=st.floats(0.1, 4.0),
)
def test_scaling_property_of_both_fields(xi, z, lam):
    g = circle()
    a = FlowState(t=0.0, r=1.1, theta=(0.2,), tau=1.0, xi=xi, zeta=(z,))
    b = FlowState(t=0.0, r=1.1, theta=(0.2,), tau=lam, xi=lam * xi,
                  zeta=(lam * z,))
    for rhs in (hamilton_rhs, rescaled_rhs):
        v, w = rhs(a, g), rhs(b, g)
        assert w.r == pytest.approx(lam * v.r, rel=1e-12, abs=1e-12)
        assert w.xi == pytest.approx(lam ** 2 * v.xi, rel=1e-12, abs=1e-12)
        assert w.t == pytest.approx(lam * v.t, rel=1e-12, abs=1e-12)


def _packed(state):
    return [state.t, state.r, *state.theta, state.tau, state.xi, *state.zeta]


def _bits(values):
    return [float(v).hex() for v in values]


class TestPackedField:
    @pytest.mark.parametrize("chart, s0", [
        (circle(), FlowState(t=0.0, r=1.3, theta=(0.4,), tau=1.2, xi=-0.3,
                             zeta=(0.7,))),
        (sphere_chart(), FlowState(t=0.0, r=1.5, theta=(1.0, 0.3), tau=1.1,
                                   xi=0.2, zeta=(0.4, 0.7))),
    ])
    @pytest.mark.parametrize("system", ["full", "rescaled"])
    def test_four_field_evaluations_per_substep(self, monkeypatch, chart, s0,
                                                system):
        # at step 1e-3 these flows never halve a step, so each of the 50
        # macro steps is one RK4 substep: k1 (which also sets the step) and
        # three more stages
        calls = []
        field = geodesic._field

        def counted(*args):
            calls.append(1)
            return field(*args)

        monkeypatch.setattr(geodesic, "_field", counted)
        traj = integrate_flow(s0, chart, 0.05, 1e-3, system)
        assert len(traj.states) == 51
        assert len(calls) == 4 * 50


@settings(max_examples=60, deadline=None)
@given(
    sphere=st.booleans(),
    r=st.floats(0.05, 3.0),
    phi=st.floats(0.3, 2.8),
    psi=st.floats(-3.0, 3.0),
    tau=st.floats(0.5, 2.0),
    xi=st.floats(-2.0, 2.0),
    z1=st.floats(-1.5, 1.5),
    z2=st.floats(-1.5, 1.5),
)
def test_wrappers_are_the_packed_field(sphere, r, phi, psi, tau, xi, z1, z2):
    if sphere:
        g, theta, zeta = sphere_chart(), (phi, psi), (z1, z2)
    else:
        g, theta, zeta = circle(), (phi,), (z1,)
    s = FlowState(t=0.3, r=r, theta=theta, tau=tau, xi=xi, zeta=zeta)
    for rhs, singular in ((hamilton_rhs, True), (rescaled_rhs, False)):
        assert _bits(_packed(rhs(s, g))) == _bits(
            geodesic._field(_packed(s), g, g.dim, singular))
