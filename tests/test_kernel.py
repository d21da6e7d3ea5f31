"""Region kernels, diffractive machinery, mode synthesis.

Oracle layers, in order of independence:
  (1) closed forms at nu = 1/2 (region II is t-independent, region III is 0),
  (2) the free case a = 0 where the full mode sum has the elementary value
      (t^2 - R^2)^(-1/2),
  (3) a phi-substitution quadrature for the diffractive integral,
  (4) high-precision mpmath evaluations of the region integrals, frozen below
      (same formulas, independent integrator: they pin the quadrature path).
"""

import cmath
import math
import random
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isqwave import kernel
from isqwave.kernel import (
    ConeProximity,
    KernelPoint,
    ModeParams,
    Region,
    classify_region,
    cone_limits,
    cone_sides,
    diffractive_integral,
    diffractive_jump,
    is_mode_jump_nonzero,
    mode_kernel,
    mode_params,
    synthesize_kernel,
    verify_lipschitz_hankel,
)
from isqwave.quadrature import GAUSS_LADDER, BadHint, integrate_adaptive, integrate_smooth

mp.mp.dps = 30


def order_only(nu: float) -> ModeParams:
    """Mode with n = 0 and the coupling that produces the requested order."""
    return ModeParams(n=0, a=nu * nu, nu=nu)


def diffractive_oracle(nu, beta):
    """Independent route: s = beta sin(phi) regularizes the endpoint."""
    nu, beta = mp.mpf(nu), mp.mpf(beta)
    half_pi = mp.pi / 2

    def f(phi):
        u = (half_pi - phi) / 2
        s = beta * mp.sin(phi)
        den = 4 * mp.sinh((beta + s) / 2) * mp.sinh(beta * mp.sin(u) ** 2)
        return beta * mp.sin(2 * u) * mp.e ** (-nu * s) / mp.sqrt(den)

    return float(mp.quad(f, [0, half_pi]))


# mpmath evaluations of the region integrals (30 digits), frozen
KII_ORACLE = {
    (1.2, 0.8, 1.3, 1.6): 0.11189003633571468,
    (3.5, 1.1, 0.9, 1.4): -0.022806810205189314,
}
KIII_ORACLE = {
    (0.9, 0.7, 1.1, 2.3): -0.071410741836970747,
    (2.0, 1.0, 1.0, 2.5): 0.012037060526546726,
    (1.0, 1.0, 1.0, 2.5): -0.064024807250372858,
}


class TestClassifyRegion:
    def test_region_i(self):
        assert classify_region(KernelPoint(2.0, 0.5, 1.0)) is Region.I

    def test_region_ii(self):
        assert classify_region(KernelPoint(1.0, 1.0, 1.0)) is Region.II

    def test_region_iii(self):
        assert classify_region(KernelPoint(1.0, 1.0, 3.0)) is Region.III

    def test_cone_bands(self):
        p = KernelPoint(1.0, 1.0, 2.0 + 1e-9)
        assert classify_region(p) is Region.DIFFRACTIVE_CONE
        q = KernelPoint(1.5, 0.5, 1.0 + 1e-9)
        assert classify_region(q) is Region.MAIN_CONE

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            classify_region(KernelPoint(1, 1, 1), eps_cone=0.0)

    @settings(max_examples=100, deadline=None)
    @given(r1=st.floats(0.1, 5), r2=st.floats(0.1, 5), t=st.floats(0.01, 12))
    def test_total_function(self, r1, r2, t):
        assert classify_region(KernelPoint(r1, r2, t)) in Region


class TestModeParams:
    def test_factory(self):
        m = mode_params(3, 0.5)
        assert m.nu == pytest.approx(math.sqrt(9.5))
        assert m.nu >= abs(m.n)

    def test_inconsistent_nu_rejected(self):
        with pytest.raises(ValueError):
            ModeParams(n=1, a=0.0, nu=1.5)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            mode_params(0, -0.1)

    def test_kernel_point_validation(self):
        with pytest.raises(ValueError):
            KernelPoint(0.0, 1.0, 1.0)


class TestModeKernel:
    def test_region_i_exact_zero(self):
        m = mode_params(2, 1.3)
        for p in (KernelPoint(2.0, 0.5, 1.0), KernelPoint(0.3, 3.0, 2.0)):
            assert mode_kernel(m, p) == 0.0

    def test_half_order_region_ii_closed_form(self):
        # at nu = 1/2 the region II value is (1/2)(r1 r2)^(-1/2), t-free
        m = mode_params(0, 0.25)
        for r1, r2, t in ((1.0, 1.3, 1.1), (0.6, 0.9, 1.2), (1.0, 1.3, 2.0)):
            want = 0.5 / math.sqrt(r1 * r2)
            assert mode_kernel(m, KernelPoint(r1, r2, t)) == pytest.approx(
                want, abs=1e-11)

    def test_half_order_region_iii_vanishes(self):
        m = mode_params(0, 0.25)
        for p in (KernelPoint(1.0, 1.3, 3.0), KernelPoint(0.5, 0.7, 4.0)):
            assert abs(mode_kernel(m, p)) < 1e-12

    def test_region_ii_against_frozen_oracle(self):
        for (nu, r1, r2, t), want in KII_ORACLE.items():
            got = mode_kernel(order_only(nu), KernelPoint(r1, r2, t))
            assert got == pytest.approx(want, abs=5e-12)

    def test_region_iii_against_frozen_oracle(self):
        for (nu, r1, r2, t), want in KIII_ORACLE.items():
            got = mode_kernel(order_only(nu), KernelPoint(r1, r2, t))
            assert got == pytest.approx(want, abs=5e-12)

    def test_integer_order_has_no_diffractive_term(self):
        # sin(pi nu) = 0 at nu = 1: region III is the plain s-integral, and
        # the frozen oracle above was computed with the diffractive term
        # multiplied by sin(pi); equality is the vanishing statement.
        got = mode_kernel(mode_params(1, 0.0), KernelPoint(1.0, 1.0, 2.5))
        assert got == pytest.approx(KIII_ORACLE[(1.0, 1.0, 1.0, 2.5)], abs=5e-12)

    def test_cone_proximity_raised(self):
        m = mode_params(0, 0.25)
        with pytest.raises(ConeProximity):
            mode_kernel(m, KernelPoint(1.0, 1.0, 2.0 + 1e-9))

    @settings(max_examples=20, deadline=None)
    @given(r1=st.floats(0.3, 2.0), r2=st.floats(0.3, 2.0),
           t=st.floats(0.05, 5.0), nu=st.floats(0.1, 4.0))
    def test_symmetry_in_radii(self, r1, r2, t, nu):
        p = KernelPoint(r1, r2, t)
        if classify_region(p, 1e-3) not in (Region.II, Region.III):
            return
        m = order_only(nu)
        k1 = mode_kernel(m, p)
        k2 = mode_kernel(m, KernelPoint(r2, r1, t))
        assert k1 == pytest.approx(k2, abs=1e-9)


def adaptive_reference(nu, p):
    """mode_kernel's region integrals, with the same substitutions, on
    adaptive Gauss-Kronrod over scalar math callbacks."""
    r1, r2, t = p.r1, p.r2, p.t

    def quad(f, b):
        return integrate_adaptive(f, 0.0, b, 1e-11).value

    if t < r1 + r2:
        s_star = math.acos(min(1.0, max(-1.0, (r1 * r1 + r2 * r2 - t * t)
                                        / (2.0 * r1 * r2))))
        c = 4.0 * r1 * r2

        def region_ii(w):
            den = c * math.sin(s_star - 0.5 * w * w) * math.sin(0.5 * w * w)
            return 2.0 * w * math.cos(nu * (s_star - w * w)) / math.sqrt(den)

        return quad(region_ii, math.sqrt(s_star)) / math.pi
    beta = math.acosh((t * t - r1 * r1 - r2 * r2) / (2.0 * r1 * r2))
    c = r1 * r2

    def main(s):
        return math.cos(nu * s) / math.sqrt(
            c * (2.0 * math.cosh(beta) + 2.0 * math.cos(s)))

    def diffractive(w):
        den = 4.0 * math.sinh(beta - 0.5 * w * w) * math.sinh(0.5 * w * w)
        return 2.0 * w * math.exp(-nu * (beta - w * w)) / math.sqrt(den)

    diff = quad(diffractive, math.sqrt(beta))
    return (quad(main, math.pi)
            - math.sin(math.pi * nu) * diff / math.sqrt(c)) / math.pi


class TestGaussLadderKernel:
    """mode_kernel on the Gauss-Legendre ladder against adaptive GK15."""

    def test_mode_sum_ranges(self):
        # the benchmark's mode sums: a = 0, nu <= 300 between the cones
        # (opening angle s* in [1.2, 2]) and nu <= 150 behind the outer cone
        rng = random.Random(8)
        for _ in range(10):
            r1, r2 = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
            s_star = rng.uniform(1.2, 2.0)
            t = math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(s_star))
            for n in (0, rng.randrange(1, 300), 300):
                p = KernelPoint(r1, r2, t)
                assert mode_kernel(mode_params(n, 0.0), p) == pytest.approx(
                    adaptive_reference(float(n), p), abs=1e-12)
        for _ in range(6):
            r1, r2 = rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4)
            p = KernelPoint(r1, r2, (r1 + r2) * rng.uniform(1.1, 1.6))
            for n in (0, rng.randrange(1, 150), 150):
                assert mode_kernel(mode_params(n, 0.0), p) == pytest.approx(
                    adaptive_reference(float(n), p), abs=1e-12)

    def test_cone_limit_offsets(self):
        # the points cone_limits evaluates for the benchmark's jump draws:
        # n <= 3, a in (0.05, 3.95), r2 and t - r2 in (0.5, 1.5)
        rng = random.Random(9)
        for _ in range(4):
            m = mode_params(rng.randrange(4), rng.uniform(0.05, 3.95))
            r2 = rng.uniform(0.5, 1.5)
            t = r2 + rng.uniform(0.5, 1.5)
            r1c = t - r2
            deltas = [0.04 * r1c * r2 / (2.0 * t * (1.0 + m.nu ** 2)) * 0.5 ** k
                      for k in range(6)]
            eps = 0.5 * deltas[-1]
            for d in deltas:
                for r1 in (r1c - d, r1c + d):
                    p = KernelPoint(r1, r2, t)
                    assert mode_kernel(m, p, eps_cone=eps) == pytest.approx(
                        adaptive_reference(m.nu, p), abs=1e-12)

    def test_adaptive_fallback_pin(self):
        # 1e-7 behind the outer cone the main term peaks at s = pi with
        # width ~6e-4, and no ladder rule settles; the value is the one the
        # adaptive-only evaluator gave
        got = mode_kernel(mode_params(1, 0.3), KernelPoint(1 - 1e-7, 1.0, 2.0),
                          eps_cone=5e-8)
        assert abs(got - (-2.1082595206645958)) < 1e-12


def legendre_kernel(nu, r1, r2, t):
    """The kernel's closed forms in Legendre functions of order nu - 1/2 at
    u = (r1^2 + r2^2 - t^2)/(2 r1 r2), at 30 digits: P(u)/(2 sqrt(r1 r2))
    between the cones, cos(pi nu) Q(-u)/(pi sqrt(r1 r2)) behind the outer one."""
    r1, r2, t = mp.mpf(r1), mp.mpf(r2), mp.mpf(t)
    u = (r1 * r1 + r2 * r2 - t * t) / (2 * r1 * r2)
    if t < r1 + r2:
        value = mp.legenp(nu - 0.5, 0, u, type=2) / (2 * mp.sqrt(r1 * r2))
    else:
        value = (mp.cos(mp.pi * nu) * mp.legenq(nu - 0.5, 0, -u, type=3)
                 / (mp.pi * mp.sqrt(r1 * r2)))
    return mp.re(value)


class TestClosedForms:
    """mode_kernel against the Legendre closed forms, an oracle independent of
    the region integrals; behind the outer cone it ties the main term and the
    sin(pi nu) diffractive term to one function. The error is relative where
    |K| > 1 and absolute elsewhere. Measured over 9000 draws of these ranges,
    edges included: 2.1e-14 between the cones (next to the inner cone, at
    r2 = 0.1) and 1.5e-15 behind the outer cone."""

    @staticmethod
    def error(nu, r1, r2, t):
        want = legendre_kernel(nu, r1, r2, t)
        got = mode_kernel(order_only(nu), KernelPoint(r1, r2, t))
        return float(abs(got - want) / max(1, abs(want)))

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(0.0, 6.0), r1=st.floats(0.1, 3.0), r2=st.floats(0.1, 3.0),
           x=st.floats(0.01, 0.99))
    def test_region_ii(self, nu, r1, r2, x):
        lo, hi = abs(r1 - r2), r1 + r2
        assert self.error(nu, r1, r2, lo + (hi - lo) * x) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(nu=st.floats(0.0, 6.0), r1=st.floats(0.1, 3.0), r2=st.floats(0.1, 3.0),
           x=st.floats(1.01, 3.0))
    def test_region_iii(self, nu, r1, r2, x):
        assert self.error(nu, r1, r2, (r1 + r2) * x) <= 1e-14

    def test_cone_sides_per_offset(self):
        # each side of cone_sides at its default offsets, so that the
        # kernel's error next to the outer cone is seen apart from
        # extrapolate_to_cone's; draws from the benchmark's jump ranges.
        # Measured over 25,200 sides of 2,100 draws: 1.24e-12 behind the
        # cone, 9.8e-13 in front of it, both at the largest offset
        rng = random.Random(17)
        for _ in range(24):
            m = mode_params(rng.randrange(4), rng.uniform(0.05, 3.95))
            r2 = rng.uniform(0.5, 1.5)
            t = r2 + rng.uniform(0.5, 1.5)
            deltas, sides = cone_sides(m, r2, t)
            for d, pair in zip(deltas, sides):
                for got, r1 in zip(pair, (t - r2 - d, t - r2 + d)):
                    want = legendre_kernel(m.nu, r1, r2, t)
                    assert float(abs(got - want) / max(1, abs(want))) <= 5e-12


class TestNodeTables:
    """The integrands keep their mode-independent node terms per point; a value
    must not depend on what was evaluated before it."""

    @staticmethod
    def forget():
        kernel._node_slots.clear()

    def cold(self, nu, p):
        self.forget()
        return mode_kernel(order_only(nu), p).hex()

    def after(self, visits, nu, p):
        self.forget()
        for m_nu, q in visits:
            mode_kernel(order_only(m_nu), q)
        return mode_kernel(order_only(nu), p).hex()

    @pytest.mark.parametrize("p", [KernelPoint(1.2, 0.9, 1.5),
                                   KernelPoint(1.2, 0.9, 2.8)])
    def test_warm_equals_cold(self, p):
        for nu in (0.0, 1.3, 7.0, 120.0):
            others = [(n + 0.25, p) for n in range(4)]
            assert self.after(others, nu, p) == self.cold(nu, p)

    @pytest.mark.parametrize("p", [KernelPoint(1.2, 0.9, 1.5),
                                   KernelPoint(1.2, 0.9, 2.8)])
    def test_same_angle_other_radii(self, p):
        # doubling r1, r2 and t keeps s* (between the cones) or beta (behind
        # the outer cone) to the bit, and quadruples r1 r2
        q = KernelPoint(2.0 * p.r1, 2.0 * p.r2, 2.0 * p.t)
        visits = [(0.5, p), (1.5, p), (2.5, p)]
        assert self.after(visits, 3.5, q) == self.cold(3.5, q)

    def test_memo_is_bounded(self):
        self.forget()
        for i in range(40):
            for p in (KernelPoint(1.0 + 0.01 * i, 0.9, 1.5),
                      KernelPoint(1.0 + 0.01 * i, 0.9, 2.8)):
                for n in (0, 60, 150):
                    mode_kernel(mode_params(n, 0.0), p)
        assert len(kernel._node_slots) <= 3
        size = sum(a.nbytes for _, tables in kernel._node_slots.values()
                   for fx in (tables or {}).values() for a in fx
                   if isinstance(a, np.ndarray))
        assert 0 < size < 500_000

    def test_first_visit_fills_its_slots(self):
        self.forget()
        mode_kernel(order_only(1.3), KernelPoint(1.2, 0.9, 2.8))
        assert kernel._node_slots
        assert all(tables for _, tables in kernel._node_slots.values())

    def test_region_iii_mode_sum_fills_both_slots(self):
        self.forget()
        p = KernelPoint(1.2, 0.9, 2.8)
        for n in range(4):
            mode_kernel(mode_params(n, 0.3), p)
        beta = math.acosh((p.t ** 2 - p.r1 ** 2 - p.r2 ** 2) / (2 * p.r1 * p.r2))
        assert kernel._node_slots.keys() == {"III", "diffractive"}
        assert kernel._node_slots["III"][0] == ("III", beta, p.r1 * p.r2)
        assert kernel._node_slots["diffractive"][0] == ("diffractive", beta)
        assert all(tables for _, tables in kernel._node_slots.values())

    def sweep(self, modes, p, eps=None):
        """The values of modes visited in turn at p, each one's cold value, and
        after each visit the node count of every kind's held block (0: none)."""
        self.forget()
        warm, blocks = [], []
        for m in modes:
            warm.append(mode_kernel(m, p, eps).hex())
            blocks.append({kind: len(tables["block"][2]) if "block" in tables else 0
                           for kind, (_, tables) in kernel._node_slots.items()})
        cold = []
        for m in modes:
            self.forget()
            cold.append(mode_kernel(m, p, eps).hex())
        return warm, cold, blocks

    @pytest.mark.parametrize("order", [range(301), range(300, -1, -1)],
                             ids=["rising", "falling"])
    def test_region_ii_depth_sweeps(self, order):
        # the held depth follows the modes up or down the ladder
        p = KernelPoint(1.2, 0.9, 1.5)
        warm, cold, blocks = self.sweep([mode_params(n, 0.3) for n in order], p)
        assert warm == cold
        sizes = [b["II"] for b in blocks[1:]]
        assert len(set(sizes)) >= 3
        assert (sizes[-1] > sizes[0]) == (order.step > 0)

    def test_region_iii_sum_holds_both_blocks(self):
        p = KernelPoint(1.2, 0.9, 2.8)
        warm, cold, blocks = self.sweep([mode_params(n, 0.3) for n in range(151)], p)
        assert warm == cold
        assert blocks[0] == {"III": 0, "diffractive": 0}
        assert all(b["III"] and b["diffractive"] for b in blocks[1:])

    def test_held_block_falls_to_adaptive(self):
        # the adaptive-fallback point of TestGaussLadderKernel: no rung of
        # the main term settles, so its block holds the whole ladder
        p = KernelPoint(1 - 1e-7, 1.0, 2.0)
        modes = [mode_params(n, 0.3) for n in (1, 2, 3)]
        warm, cold, blocks = self.sweep(modes, p, 5e-8)
        assert warm == cold
        assert [b["III"] for b in blocks] == [0] + [sum(GAUSS_LADDER)] * 2

    def test_held_depth_costs_one_wave_and_no_factors(self, monkeypatch):
        calls = {"factors": 0, "wave": 0, "nodes": 0}

        def factors(w):
            calls["factors"] += 1
            return 2.0 * w, 1.5 - w * w, np.sqrt(2.0 + np.cos(w))

        def wave(z):
            calls["wave"] += 1
            calls["nodes"] += z.size
            return np.cos(z)

        results = []

        def spy(*args):
            results.append(integrate_smooth(*args))
            return results[-1]

        monkeypatch.setattr(kernel, "integrate_smooth", spy)
        self.forget()
        key = ("counted", 1.5)
        # (rate, factors calls, wave calls, evaluations, rungs): a first mode
        # at the key forms 2 rungs; a deeper one evaluates that block once
        # and forms rungs 3 and 4; the depth then falls, each mode covered
        # by the last
        for rate, *want in ((20.0, 2, 2, 96, 2), (90.0, 2, 3, 480, 4),
                            (89.0, 0, 1, 480, 4), (40.0, 0, 1, 480, 3),
                            (3.0, 0, 1, 224, 2)):
            before = dict(calls)
            kernel._integrate_modes(key, factors, wave, rate, 0.0, 1.2)
            res = results[-1]
            assert [calls["factors"] - before["factors"],
                    calls["wave"] - before["wave"], res.evaluations,
                    res.rungs] == want
            # evaluations counts the nodes at which the integrand was evaluated
            assert res.evaluations == calls["nodes"] - before["nodes"]


class TestDiffractiveIntegral:
    def test_against_substitution_oracle(self):
        assert diffractive_integral(0.0, 1.0) == pytest.approx(
            diffractive_oracle(0, 1), abs=1e-8)
        assert diffractive_integral(2.2, 0.7) == pytest.approx(
            diffractive_oracle(2.2, 0.7), abs=1e-8)

    def test_frozen_oracle_values(self):
        assert diffractive_integral(0.0, 1.0) == pytest.approx(
            1.4779028237691938, abs=1e-11)
        assert diffractive_integral(2.2, 0.7) == pytest.approx(
            0.6457517304048349, abs=1e-11)

    def test_small_beta_limit_with_first_order_term(self):
        # value = pi/2 - nu*beta + O((nu beta)^2); the raw pi/2 distance is
        # therefore nu*beta, not smaller (see the acceptance suite).
        beta = 1e-4
        for nu in (0.5, 1.2, 3.7):
            v = diffractive_integral(nu, beta)
            assert abs(v - (math.pi / 2 - nu * beta)) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            diffractive_integral(1.0, 0.0)
        with pytest.raises(ValueError):
            diffractive_integral(-0.5, 1.0)

    def test_past_sinh_overflow(self):
        # from beta ~ 709.09 on 4 sinh(beta) overflows. There the value is
        # e^(-beta/2) int_0^beta e^(-nu s) (1 - e^(s - beta))^(-1/2) ds up to
        # a factor 1 + O(e^(-beta)): 2 e^(-beta/2) at nu = 1/2 (the rest is
        # O(e^(-beta/4)) relative), and 2 artanh(sqrt(1 - e^(-beta)))
        # e^(-beta/2) at nu = 0. Measured: 4e-14 relative at most.
        for nu, beta in ((0.5, 800.0), (0.5, 1000.0), (0.0, 800.0)):
            b = mp.mpf(beta)
            if nu:
                want = 2 * mp.exp(-b / 2)
            else:
                want = 2 * mp.atanh(mp.sqrt(1 - mp.exp(-b))) * mp.exp(-b / 2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = diffractive_integral(nu, beta)
            assert abs(got - want) <= 1e-12 * want, (nu, beta, got)
        assert diffractive_integral(0.5, 1600.0) == 0.0     # below the doubles

    def test_bits_kept_below_sinh_overflow(self):
        assert diffractive_integral(0.5, 709.0).hex() == "0x1.7a9ecccf4a78bp-511"
        assert diffractive_integral(3.0, 709.08).hex() == "0x1.a549b24ada41dp-514"

    @settings(max_examples=25, deadline=None)
    @given(nu1=st.floats(0.0, 3.0), dnu=st.floats(0.1, 2.0),
           beta=st.floats(0.05, 3.0))
    def test_monotone_decreasing_in_nu(self, nu1, dnu, beta):
        lo = diffractive_integral(nu1 + dnu, beta)
        hi = diffractive_integral(nu1, beta)
        assert lo <= hi + 1e-12


class TestDiffractiveJump:
    def test_quarter_coupling(self):
        m = mode_params(0, 0.25)
        assert diffractive_jump(m, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)

    def test_free_case_zero(self):
        for n in range(0, 6):
            m = mode_params(n, 0.0)
            assert diffractive_jump(m, 0.7, 1.9) == pytest.approx(0.0, abs=1e-12)

    def test_integer_order_from_nonzero_coupling(self):
        m = mode_params(1, 3.0)  # nu = 2
        assert diffractive_jump(m, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_radial_scaling(self):
        m = mode_params(0, 0.25)
        j1 = diffractive_jump(m, 1.0, 1.0)
        j2 = diffractive_jump(m, 2.0, 2.0)
        assert j1 == pytest.approx(2.0 * j2, rel=1e-14)


class TestJumpNonzeroPredicate:
    def test_spec_triples(self):
        assert not is_mode_jump_nonzero(1, 3.0)
        assert is_mode_jump_nonzero(0, 0.25)
        assert not is_mode_jump_nonzero(2, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 8), m=st.integers(1, 8))
    def test_resonant_couplings_are_zero(self, n, m):
        # a = m^2 + 2 n m makes nu = n + m an integer
        a = float(m * m + 2 * n * m)
        assert not is_mode_jump_nonzero(n, a)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 8), a=st.floats(0.01, 20.0))
    def test_matches_integrality_of_nu(self, n, a):
        nu = math.sqrt(n * n + a)
        expected = abs(nu - round(nu)) > 1e-9
        if abs(nu - round(nu)) < 1e-10 or expected:
            assert is_mode_jump_nonzero(n, a) == expected


class TestConeLimits:
    def test_quarter_coupling_reference(self):
        m = mode_params(0, 0.25)
        got = cone_limits(m, 1.0, 2.0)
        assert got == pytest.approx(-0.5, abs=1e-3)

    def test_matches_jump_formula_tightly(self):
        m = mode_params(0, 0.25)
        got = cone_limits(m, 1.0, 2.0)
        assert got == pytest.approx(diffractive_jump(m, 1.0, 1.0), abs=5e-6)

    def test_free_case_no_jump(self):
        for n in (0, 1, 5, 10):
            m = mode_params(n, 0.0)
            assert abs(cone_limits(m, 1.0, 2.0)) < 1e-6

    def test_integer_order_no_jump(self):
        m = mode_params(1, 3.0)
        assert abs(cone_limits(m, 1.0, 2.0)) < 1e-6

    def test_radial_scaling_of_jump(self):
        m = mode_params(0, 0.25)
        # t adjusted so the cone point r1 = t - r2 stays at 1
        j_half = cone_limits(m, 0.5, 1.5)
        want = diffractive_jump(m, 1.0, 0.5)
        assert j_half == pytest.approx(want, abs=1e-4)

    def test_off_coupling_value(self):
        m = mode_params(0, 0.6)
        got = cone_limits(m, 1.0, 2.0)
        assert got == pytest.approx(diffractive_jump(m, 1.0, 1.0), abs=1e-5)

    def test_validation(self):
        m = mode_params(0, 0.25)
        with pytest.raises(ValueError):
            cone_limits(m, 1.0, 0.8)
        with pytest.raises(ValueError):
            cone_sides(m, 1.0, 2.0, [1e-3, 2e-3])

    @pytest.mark.parametrize("deltas", [[math.nan], [1e-3, math.nan],
                                        [math.inf, 1e-3]])
    def test_non_finite_offsets_refused(self, deltas):
        # NaN compares False with 0, so it met KernelPoint's own refusal
        with pytest.raises(ValueError, match="delta_list must hold positive finite"):
            cone_sides(mode_params(0, 0.25), 1.0, 2.0, deltas)


# the adaptive-fallback point of TestGaussLadderKernel and its cone band
FALLBACK_POINT, FALLBACK_EPS = KernelPoint(1 - 1e-7, 1.0, 2.0), 5e-8
ROW_MODES = [(0, 0.25), (1, 0.3), (2, 3.29), (7, 0.84), (0, 0.0), (3, 0.05)]


def loop_values(m, points, eps=None):
    return [mode_kernel(m, p, eps).hex() for p in points]


def row_values(m, points, eps=None):
    return [v.hex() for v in kernel.mode_kernel_rows(m, points, eps)]


@st.composite
def mixed_points(draw):
    """Points in regions I, II and III (t up to 2.5 (r1 + r2)), off the cone
    bands at FALLBACK_EPS, with the fallback point at a drawn place."""
    radii = st.floats(0.1, 3.0)
    points = []
    for _ in range(draw(st.integers(0, 14))):
        r1, r2 = draw(radii), draw(radii)
        p = KernelPoint(r1, r2, draw(st.floats(0.02, 2.5)) * (r1 + r2))
        if classify_region(p, FALLBACK_EPS) in (Region.I, Region.II, Region.III):
            points.append(p)
    points.insert(draw(st.integers(0, len(points))), FALLBACK_POINT)
    return points


class TestModeKernelRows:
    """mode_kernel_rows against a mode_kernel loop, hex for hex."""

    @settings(max_examples=25, deadline=None)
    @given(points=mixed_points(), modes=st.lists(st.sampled_from(ROW_MODES),
                                                 min_size=1, max_size=3))
    def test_mixed_regions_equal_the_loop(self, points, modes):
        for n, a in modes:
            m = mode_params(n, a)
            assert row_values(m, points, FALLBACK_EPS) == loop_values(m, points, FALLBACK_EPS)

    def test_many_region_iii_points(self):
        # 160 points behind the outer cone, at the default bands: each row's
        # 2c and cosh(beta) must be the doubles mode_kernel forms
        rng = random.Random(20)
        points = []
        for _ in range(160):
            r1, r2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            points.append(KernelPoint(r1, r2, (r1 + r2) * rng.uniform(1.01, 4.0)))
        for n, a in ROW_MODES[:3]:
            m = mode_params(n, a)
            assert row_values(m, points) == loop_values(m, points)

    def test_rescaled_diffractive_point(self):
        # beta ~ 709.2, past asinh(DBL_MAX / 4), where 4 sinh(beta) overflows
        points = [KernelPoint(1e-154, 1e-154, 1.0), KernelPoint(1.2, 0.9, 2.8)]
        m = mode_params(1, 0.3)
        assert row_values(m, points) == loop_values(m, points)

    @settings(max_examples=15, deadline=None)
    @given(points=mixed_points(), where=st.integers(0, 20),
           cone=st.sampled_from(["inner", "outer"]))
    def test_cone_band_point_is_refused_like_the_loop(self, points, where, cone):
        r1, r2 = 0.8, 1.3
        t = abs(r1 - r2) if cone == "inner" else r1 + r2
        points.insert(min(where, len(points)), KernelPoint(r1, r2, t))
        m = mode_params(1, 0.3)
        with pytest.raises(ConeProximity) as loop_error:
            loop_values(m, points, FALLBACK_EPS)
        with pytest.raises(ConeProximity) as row_error:
            row_values(m, points, FALLBACK_EPS)
        assert str(row_error.value) == str(loop_error.value)

    def test_empty_list(self):
        assert kernel.mode_kernel_rows(mode_params(0, 0.25), []) == []

    def test_unsettled_row_goes_straight_to_the_adaptive_rule(self, monkeypatch):
        # 1e-7 inside the outer cone no Gauss rule settles the main integral;
        # the row ladder has formed its nodes, so integrate_smooth would only
        # evaluate them again before reaching the same adaptive value
        calls = []

        def spy(name, fn):
            def wrapped(f, a, b, *args):
                calls.append((name, a, b))
                return fn(f, a, b, *args)
            return wrapped

        monkeypatch.setattr(kernel, "integrate_smooth", spy("smooth", integrate_smooth))
        monkeypatch.setattr(kernel, "integrate_adaptive",
                            spy("adaptive", integrate_adaptive), raising=False)
        cone_sides(mode_params(1, 0.3), 1.0, 2.0, [1e-3, 1e-5, 1e-7])
        assert calls == [("adaptive", 0.0, math.pi)]

    def test_held_node_terms_untouched(self):
        p = KernelPoint(1.2, 0.9, 2.8)
        mode_kernel(mode_params(2, 0.3), p)
        mode_kernel(mode_params(2, 0.3), KernelPoint(1.2, 0.9, 1.5))

        def held():
            return {kind: (key, id(tables), sorted(map(str, tables)))
                    for kind, (key, tables) in kernel._node_slots.items()}

        before = held()
        kernel.mode_kernel_rows(mode_params(3, 0.3),
                                [p, KernelPoint(1.0, 0.7, 1.2), FALLBACK_POINT],
                                FALLBACK_EPS)
        assert held() == before


class TestEnvelope:
    """Points below 2^-512 or whose geometry leaves the doubles raise KernelError."""

    @pytest.mark.parametrize("p", [KernelPoint(1e200, 1e200, 1e200),   # II: 0.0 before
                                   KernelPoint(1.0, 1.0, 1e160),        # III: t^2 = inf
                                   KernelPoint(1e-200, 1e-200, 1e-200)])  # II: 0 / 0
    def test_outside_the_doubles_is_refused(self, p, monkeypatch):
        m = mode_params(1, 0.3)
        with pytest.raises(kernel.KernelError, match="envelope"):
            mode_kernel(m, p)

        def no_ladder(*args):
            raise AssertionError("a ladder ran")

        monkeypatch.setattr(kernel, "integrate_smooth_rows", no_ladder)
        with pytest.raises(kernel.KernelError, match="envelope"):
            kernel.mode_kernel_rows(m, [KernelPoint(1.2, 0.9, 2.8), p])


class TestSynthesize:
    def test_zero_angle_sum_is_real(self):
        p = KernelPoint(1.0, 1.0, 1.5)
        s = synthesize_kernel(0.7, p, 0.0, 12)
        assert isinstance(s, float)

    def test_region_i_partial_sums_vanish(self):
        p = KernelPoint(2.0, 0.5, 1.0)
        for n_max in (0, 3, 9):
            assert synthesize_kernel(1.7, p, 0.3, n_max) == 0.0

    def test_free_case_matches_plane_propagator(self):
        # sum -> (t^2 - R^2)^(-1/2), R^2 = r1^2 + r2^2 - 2 r1 r2 cos(dtheta);
        # partial sums oscillate, so average them over the trailing window
        p = KernelPoint(1.0, 1.0, 1.5)
        n_max = 400
        kernels = [mode_kernel(mode_params(n, 0.0), p) for n in range(n_max + 1)]
        for dtheta in (0.0, 0.7):
            terms = [kernels[0]]
            for n in range(1, n_max + 1):
                terms.append(2.0 * math.cos(n * dtheta) * kernels[n])
            partial = np.cumsum(terms)
            avg = float(np.mean(partial[n_max // 2:]))
            rr = 2.0 - 2.0 * math.cos(dtheta)
            want = 1.0 / math.sqrt(1.5 ** 2 - rr)
            tol = 5e-4 if dtheta == 0.0 else 1e-3
            assert abs(avg - want) < tol, (dtheta, avg, want)

    def test_matches_mode_kernel_sum(self):
        p = KernelPoint(0.9, 1.2, 1.6)
        a, dtheta = 0.5, 0.4
        direct = sum(
            cmath.exp(1j * n * dtheta) * mode_kernel(mode_params(n, a), p)
            for n in range(-5, 6))
        assert synthesize_kernel(a, p, dtheta, 5) == pytest.approx(direct, abs=1e-12)

    def test_frozen_values(self):
        # float.hex of the values before the node tables of the integrands
        p2, p3 = KernelPoint(1.2, 0.9, 1.5), KernelPoint(1.2, 0.9, 2.8)
        assert synthesize_kernel(0.7, p2, 0.35, 80).hex() == "0x1.486967a02c443p-3"
        assert synthesize_kernel(0.7, p3, 0.35, 80).hex() == "-0x1.2f4e0d251da01p-4"

    def test_mode_decay_envelope(self):
        p = KernelPoint(1.0, 1.2, 1.5)
        mags = [abs(mode_kernel(mode_params(n, 0.3), p)) for n in range(15)]
        env = [max(mags[k], mags[k + 1]) for k in range(len(mags) - 1)]
        peak = int(np.argmax(env))
        for k in range(peak, len(env) - 1):
            assert env[k + 1] <= env[k] + 1e-12


class TestLipschitzHankel:
    def test_reference_points(self):
        assert verify_lipschitz_hankel(0.5, 1.0, 1.0, 1.0) < 1e-6
        assert verify_lipschitz_hankel(0.8, 0.7, 1.3, 2.0) < 1e-6

    def test_swap_stability(self):
        a = verify_lipschitz_hankel(1.3, 0.6, 1.4, 1.5)
        b = verify_lipschitz_hankel(1.3, 1.4, 0.6, 1.5)
        assert a < 1e-6 and b < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_lipschitz_hankel(0.5, -1.0, 1.0, 1.0)

    def test_order_above_the_envelope_is_a_typed_refusal(self):
        # the docstring's envelope: on r1 in {0.5, 1, 1.5, 2} x t in {0.8, 1.5,
        # 2.2, 3}, r2 = 1, the LHS tail check first refuses a point at nu = 2.3
        with pytest.raises(BadHint, match="decay slower than hinted"):
            verify_lipschitz_hankel(2.3, 0.5, 1.0, 3.0)
        assert verify_lipschitz_hankel(2.2, 0.5, 1.0, 3.0) < 1e-6
