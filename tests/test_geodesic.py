"""Bicharacteristic flow checks.

The oracles are closed-form trajectories: radial characteristics of the
singular system are straight lines r = r0 - tau*s with xi = tau*r, and the
rescaled system at unit angular momentum follows the secant family
(r, xi) = (A sec(s - s0), -tan(s - s0)).  Conservation laws (sigma, tau,
cyclic momenta) are checked against drift at fixed step.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isqwave import geodesic
from isqwave.geodesic import (
    ORIGIN_RADIUS,
    FlowState,
    GeodesicError,
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
        with pytest.raises(ValueError, match="equal dimension"):
            FlowState(t=0.0, r=1.0, theta=(0.0, 0.0), tau=1.0, xi=0.0,
                      zeta=(1.0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FlowState(t=0.0, r=math.inf, theta=(0.0,), tau=1.0, xi=0.0,
                      zeta=(0.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["t", "r", "tau", "xi", "theta", "zeta"])
    def test_constructor_rejects_every_nonfinite_field(self, bad, field):
        fields = dict(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=0.0,
                      zeta=(0.0,))
        fields[field] = (bad,) if field in ("theta", "zeta") else bad
        with pytest.raises(ValueError, match="flow state must be finite"):
            FlowState(**fields)

    def test_constructor_makes_float_tuples(self):
        s = FlowState(0.0, 1.0, [np.float64(0.5)], 1.0, 0.0, np.array([1]))
        assert type(s.theta) is tuple and type(s.zeta) is tuple
        assert [type(v) for v in s.theta + s.zeta] == [float, float]

    def test_flows_yield_flow_states(self):
        traj = integrate_flow(secant_state(), circle(), 0.5, 0.1)
        bridged = trace_through_origin(radial_state(), circle(), 2.0, 1e-2)
        assert all(type(st) is FlowState
                   for st in traj.states + bridged.states)

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

    def test_chart_rejects_a_state_of_another_dimension(self):
        flat = FlowState(t=0.0, r=1.0, theta=(0.5,), tau=1.0, xi=0.0,
                         zeta=(0.3,))
        round_ = FlowState(t=0.0, r=1.0, theta=(0.5, 0.1), tau=1.0, xi=0.0,
                           zeta=(0.3, 0.4))
        with pytest.raises(ValueError):
            zeta_norm_sq(round_, circle())
        with pytest.raises(ValueError):
            zeta_norm_sq(flat, sphere_chart())

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


# The matrix form of each chart: numpy's inverse metric k^{ij}, its angle
# derivatives d[l, i, j] = d k^{ij} / d theta_l, and the field built from
# them with matmul and einsum. The charts' plain-float terms must round
# exactly as this does; it is the reference, not a second implementation.
def _matrix_chart(name, theta):
    if name == "circle":
        return np.ones((1, 1)), np.zeros((1, 1, 1))
    s, c = math.sin(theta[0]), math.cos(theta[0])
    d = np.zeros((2, 2, 2))
    d[0, 1, 1] = -2.0 * c / s ** 3
    return np.array([[1.0, 0.0], [0.0, 1.0 / (s * s)]]), d


def _matrix_terms(name, theta, zeta):
    k_inv, dk_inv = _matrix_chart(name, theta)
    z = np.array(zeta)
    kz = k_inv @ z
    return kz.tolist(), float(z @ kz), \
        np.einsum("lij,i,j->l", dk_inv, z, z).tolist()


def _matrix_field(y, name, d, singular):
    r, tau, xi = y[1], y[2 + d], y[3 + d]
    kz, zkz, dz = (np.array(v) for v in _matrix_terms(name, y[2:2 + d],
                                                     y[4 + d:]))
    zkz = float(zkz)
    if singular:
        r2 = r ** 2
        return [tau, -xi / r, *(kz / (2.0 * r2)).tolist(), 0.0,
                -(xi ** 2 + zkz) / r2, *(-dz / (4.0 * r2)).tolist()]
    return [r ** 2 * tau, -r * xi, *(kz / 2.0).tolist(), 0.0,
            -(xi ** 2 + zkz), *(-dz / 4.0).tolist()]


# sphere states whose |zeta|_k^2 the plain sum z0 z0 + kz1 z1 rounds
# differently from BLAS's fused multiply-add
FMA_STATES = ((0.396, 0.144, -0.537), (0.357, 0.03, -1.85),
              (1.371, -1.721, -1.637))
_signed = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, -0.0)),
                    st.floats(-1e-160, 1e-160))


def test_fma_states_need_the_fused_rounding():
    for phi, z0, z1 in FMA_STATES:
        s = math.sin(phi)
        kz1 = 1.0 / (s * s) * z1
        plain = z0 * z0 + kz1 * z1
        assert plain != sphere_chart().terms((phi, 0.0), (z0, z1))[1]


@settings(max_examples=300, deadline=None)
@given(sphere=st.booleans(), r=st.floats(0.01, 3.0), phi=st.floats(0.05, 3.09),
       psi=st.floats(-3.0, 3.0), tau=st.floats(0.5, 2.0),
       xi=st.floats(-2.0, 2.0), z1=_signed, z2=_signed)
@example(sphere=True, r=1.1, phi=FMA_STATES[0][0], psi=0.2, tau=1.0, xi=0.3,
         z1=FMA_STATES[0][1], z2=FMA_STATES[0][2])
@example(sphere=True, r=0.7, phi=FMA_STATES[1][0], psi=-1.0, tau=1.3, xi=-0.4,
         z1=FMA_STATES[1][1], z2=FMA_STATES[1][2])
@example(sphere=True, r=2.0, phi=FMA_STATES[2][0], psi=2.5, tau=0.8, xi=1.5,
         z1=FMA_STATES[2][1], z2=FMA_STATES[2][2])
@example(sphere=True, r=1.0, phi=0.5, psi=0.0, tau=1.0, xi=0.0, z1=-0.0,
         z2=-0.0)
@example(sphere=False, r=1.0, phi=0.5, psi=0.0, tau=1.0, xi=0.0, z1=-0.0,
         z2=0.0)
def test_float_field_is_the_matrix_form(sphere, r, phi, psi, tau, xi, z1, z2):
    if sphere:
        g, theta, zeta = sphere_chart(), (phi, psi), (z1, z2)
    else:
        g, theta, zeta = circle(), (phi,), (z1,)
    kz, zkz, dk = g.terms(theta, zeta)
    want_kz, want_zkz, want_dk = _matrix_terms(g.name, theta, zeta)
    assert _bits(kz) + _bits([zkz]) + _bits(dk) == \
        _bits(want_kz) + _bits([want_zkz]) + _bits(want_dk)
    y = _packed(FlowState(t=0.3, r=r, theta=theta, tau=tau, xi=xi,
                          zeta=zeta))
    for singular in (True, False):
        assert _bits(geodesic._field(y, g, g.dim, singular)) == \
            _bits(_matrix_field(y, g.name, g.dim, singular))


PINNED_STARTS = {
    "circle": FlowState(t=0.0, r=1.3, theta=(0.4,), tau=1.2, xi=-0.3,
                        zeta=(0.7,)),
    "sphere": FlowState(t=0.0, r=1.5, theta=(1.0, 0.3), tau=1.1, xi=0.2,
                        zeta=(0.4, 0.7)),
}


class TestPinnedBits:
    """Last states and sigma, as float.hex, of flows traced when the charts
    still built numpy matrices; the float terms must not move a bit."""

    @pytest.mark.parametrize("chart, system, last, sigma", [
        ("circle", "full",
         ["0x1.3333333333333p-1", "0x1.70d5dcae5c4b3p+0",
          "0x1.f9d76f12b297ap-2", "0x1.3333333333333p+0",
          "-0x1.e2ea7d6cbd5efp-2", "0x1.6666666666666p-1"],
         "0x1.18c831ed770c3p+0"),
        ("circle", "rescaled",
         ["0x1.40f01d3ad42fap+0", "0x1.a3fb2ce50a3f7p+0",
          "0x1.266666666665dp-1", "0x1.3333333333333p+0",
          "-0x1.512c897ff2ab5p-1", "0x1.6666666666666p-1"],
         "0x1.18c831ed7522ap+0"),
        ("sphere", "full",
         ["0x1.1999999999999p-1", "0x1.774ad1a4b20c8p+0",
          "0x1.0c6f9c079584dp+0", "0x1.a3cad9b059698p-2",
          "0x1.199999999999ap+0", "0x1.d0f2c01e2f160p-10",
          "0x1.c9a183c54b024p-2", "0x1.6666666666666p-1"],
         "0x1.a08944ab8c412p-1"),
        ("sphere", "rescaled",
         ["0x1.342e2f3e8290ep+0", "0x1.832688354b1dap+0",
          "0x1.1cc15324a04aep+0", "0x1.105a84dcaf184p-1",
          "0x1.199999999999ap+0", "-0x1.def96a3a3942dp-3",
          "0x1.f86da843eb52ep-2", "0x1.6666666666666p-1"],
         "0x1.a08944ab9665bp-1"),
    ])
    def test_integrate_flow(self, chart, system, last, sigma):
        g = circle() if chart == "circle" else sphere_chart()
        traj = integrate_flow(PINNED_STARTS[chart], g, 0.5, 1e-2, system)
        assert len(traj.states) == 51
        assert _bits(_packed(traj.states[-1])) == last
        assert float(traj.sigma_values[-1]).hex() == sigma

    def test_trace_through_origin(self):
        s0 = radial_state(r=0.75, xi=0.75)
        traj = trace_through_origin(s0, circle(), 1.5, 1e-2)
        assert len(traj.states) == 152
        assert _bits(_packed(traj.states[-1])) == [
            "0x1.8000000000002p+0", "0x1.8000000000001p-1", "0x0.0p+0",
            "0x1.0000000000000p+0", "-0x1.8000000000001p-1", "0x0.0p+0"]
        assert float(traj.s_values[-1]).hex() == "0x1.8000000000000p+0"
        assert min(st.r for st in traj.states).hex() == "0x1.47ae147ae1440p-21"


HUGE = 1e200                # finite, but its square overflows a double


class TestTypedOverflow:
    """Python's float ** raises OverflowError on finite huge states; each
    entry point raises a typed error instead."""

    @pytest.mark.parametrize("s0, system", [
        (FlowState(t=0.0, r=HUGE, theta=(0.0,), tau=1.0, xi=0.0, zeta=(1.0,)),
         "rescaled"),
        (FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=HUGE, zeta=(1.0,)),
         "full"),
    ], ids=["rescaled-r", "full-xi"])
    def test_integrate_flow(self, s0, system):
        with pytest.raises(StepUnderflow, match="flow state must be finite"):
            integrate_flow(s0, circle(), 1.0, 0.1, system)

    def test_trace_through_origin(self):
        s0 = radial_state(r=0.75, xi=HUGE)
        with pytest.raises(StepUnderflow, match="flow state must be finite"):
            trace_through_origin(s0, circle(), 1.5, 1e-2)

    @pytest.mark.parametrize("rhs", [hamilton_rhs, rescaled_rhs])
    def test_right_hand_sides(self, rhs):
        with pytest.raises(GeodesicError):
            rhs(radial_state(r=1.0, xi=HUGE), circle())

    @pytest.mark.parametrize("r, xi", [(HUGE, 0.5), (1.0, HUGE)])
    def test_characteristic_value(self, r, xi):
        with pytest.raises(GeodesicError):
            characteristic_value(radial_state(r=r, xi=xi), circle())

    def test_sec_envelope_bound(self):
        s = FlowState(t=0.0, r=1.0, theta=(0.0,), tau=1.0, xi=HUGE,
                      zeta=(1.0,))
        with pytest.raises(GeodesicError):
            sec_envelope_bound(s, circle())


# two-term dots where the plain-float path must hand over to np.dot, or
# where its split and sum are exact only just
_EDGE = (0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-150,
         -1e-150, 1e150, 1e-300, -1e300, 1e-140, 1e140, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan, 1.0, -0.7, 3.0)


def _dot_draws():
    rng = random.Random(20091)
    draws = [(z, k) for z in ((0.4, 0.7), (-1.3, 2.1)) for k in
             [(a, b) for a in _EDGE for b in _EDGE]]
    draws += [((a, b), (c, e)) for a, b, c, e in
              (rng.sample(_EDGE, 4) for _ in range(4000))]
    for _ in range(20000):
        # the sphere chart's own pairs, and pairs across the whole exponent range
        phi, z0, z1 = rng.uniform(0.05, 3.09), rng.uniform(-3, 3), rng.uniform(-3, 3)
        s = math.sin(phi)
        draws.append(((z0, z1), (z0 + 0.0, 1.0 / (s * s) * z1 + 0.0)))
        draws.append(tuple(tuple(rng.choice((-1.0, 1.0)) * rng.random()
                                 * 10.0 ** rng.randint(-160, 160)
                                 for _ in range(2)) for _ in range(2)))
    return draws


class TestFusedDot:
    @pytest.mark.parametrize("fuses", [True, False])
    def test_is_numpys_dot_bit_for_bit(self, monkeypatch, fuses):
        # where this process's BLAS does not fuse, or is made to look so,
        # every pair goes to np.dot; either way the rounding is numpy's
        monkeypatch.setattr(geodesic, "_DOT_FUSES", geodesic._DOT_FUSES and fuses)
        with np.errstate(all="ignore"):
            for z, k in _dot_draws():
                assert geodesic._fused_dot(z, k).hex() == \
                    float(np.dot(z, k)).hex(), (z, k)

    def test_skips_numpy_inside_the_exact_range(self, monkeypatch):
        if not geodesic._DOT_FUSES:
            pytest.skip("this BLAS does not fuse the two-term dot")

        def refused(*args):
            raise AssertionError("np.dot called")

        monkeypatch.setattr(geodesic.np, "dot", refused)
        for phi, z0, z1 in FMA_STATES:
            sphere_chart().terms((phi, 0.0), (z0, z1))


class TestStageChecks:
    def test_finite_coordinates_whose_sum_overflows(self):
        # t and theta enter no circle field: the flow must run as from
        # t = theta = 0, though the float sum of its state is inf
        g, base = circle(), PINNED_STARTS["circle"]
        far = base._replace(t=1.5e308, theta=(1.5e308,))
        for system in ("full", "rescaled"):
            ref = integrate_flow(base, g, 0.2, 1e-2, system)
            got = integrate_flow(far, g, 0.2, 1e-2, system)
            assert all(st.t == 1.5e308 and st.theta == (1.5e308,)
                       for st in got.states)
            assert [_bits((st.r, st.tau, st.xi, *st.zeta)) for st in got.states] \
                == [_bits((st.r, st.tau, st.xi, *st.zeta)) for st in ref.states]
            assert got.sigma_values.tobytes() == ref.sigma_values.tobytes()
            assert got.s_values.tobytes() == ref.s_values.tobytes()

    @pytest.mark.parametrize("bad", [(math.nan,), (math.inf, -math.inf)])
    def test_non_finite_stage_is_step_underflow(self, bad):
        # a chart whose curvature term turns non-finite once theta passes 0.5
        def terms(th, z):
            dk = bad if th[0] > 0.5 else (0.0,) * len(bad)
            return (z[0] + 0.0,), z[0] * z[0], dk

        g = geodesic.SphereMetric(dim=len(bad), terms=terms, name="bad")
        s0 = FlowState(t=0.0, r=1.0, theta=(0.0,) * len(bad), tau=1.0,
                       xi=0.0, zeta=(1.0,) * len(bad))
        with pytest.raises(StepUnderflow, match=r"^flow diverged at s=[\d.]+ "
                           r"\(finite-parameter blow-up\): flow state must be "
                           r"finite$"):
            integrate_flow(s0, g, 2.0, 1e-2, "rescaled")

    def test_non_finite_start_is_step_underflow(self):
        s0 = FlowState._make((0.0, 1.0, (0.0,), 1.0, math.nan, (0.5,)))
        with pytest.raises(StepUnderflow, match=r"^flow diverged at s=0 "):
            integrate_flow(s0, circle(), 0.1, 1e-2, "full")
