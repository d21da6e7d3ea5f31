import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isqwave import specfun
from isqwave.quadrature import integrate_adaptive
from isqwave.specfun import (
    BESSEL_Z_MAX,
    MILLER_ORDER_RATIO,
    MILLER_Z_MAX,
    DomainError,
    bessel_j,
    bessel_j_array,
    gamma,
    legendre_q_shifted,
)

mpmath.mp.dps = 30


# ---- oracles, coded before anything that uses them ----

def half_integer_j(z: float) -> float:
    # closed form for order one-half
    return math.sqrt(2.0 / (math.pi * z)) * math.sin(z)


def poisson_integral_j(nu: float, z: float) -> float:
    # J_nu(z) = (z/2)^nu / (Gamma(1/2) Gamma(nu+1/2)) * int_-1^1 (1-t^2)^(nu-1/2) e^{izt} dt,
    # reduced to twice the cosine half-integral by symmetry
    def f(t):
        return (1.0 - t * t) ** (nu - 0.5) * math.cos(z * t)
    r = integrate_adaptive(f, 0.0, 0.999999, 1e-12)
    # the stump beyond the split point still matters for nu near 1/2
    def g(w):  # t = 1 - w^2
        t = 1.0 - w * w
        return 2.0 * w * (1.0 - t * t) ** (nu - 0.5) * math.cos(z * t)
    r2 = integrate_adaptive(g, 0.0, math.sqrt(1e-6), 1e-13)
    val = 2.0 * (r.value + r2.value)
    return (z / 2.0) ** nu / (gamma(0.5) * gamma(nu + 0.5)) * val


def q_degree_zero(Z: float) -> float:
    return 0.5 * math.log((Z + 1.0) / (Z - 1.0))


def q_degree_one(Z: float) -> float:
    return 0.5 * Z * math.log((Z + 1.0) / (Z - 1.0)) - 1.0


# ---- gamma ----

def test_gamma_unit():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_factorial():
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-12)


def test_gamma_against_stdlib_lgamma():
    worst = 0.0
    x = 0.5
    while x <= 50.0:
        rel = abs(gamma(x) - math.exp(math.lgamma(x))) / math.exp(math.lgamma(x))
        worst = max(worst, rel)
        x += 0.17
    assert worst <= 1e-12


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(0.0)
    with pytest.raises(DomainError):
        gamma(-2.5)


def test_gamma_up_to_overflow():
    # finite up to x ~ 171.62, where Gamma leaves the double range
    assert gamma(150.0) == pytest.approx(math.gamma(150.0), rel=1e-12)
    with pytest.raises(DomainError):
        gamma(172.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 29.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


# ---- bessel_j ----

def test_j0_at_origin():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.3, 0.0) == 0.0


def test_half_order_zero_at_pi():
    assert abs(bessel_j(0.5, math.pi)) < 1e-10


def test_half_order_closed_form_grid():
    for z in (0.3, 1.0, 2.7, 9.9, 19.0, 26.0, 44.0):
        assert bessel_j(0.5, z) == pytest.approx(half_integer_j(z), abs=1e-12)


def test_against_poisson_integral():
    assert bessel_j(2.3, 1.7) == pytest.approx(
        poisson_integral_j(2.3, 1.7), abs=1e-8)
    assert bessel_j(0.9, 6.2) == pytest.approx(
        poisson_integral_j(0.9, 6.2), abs=1e-8)


def test_against_mpmath_grid():
    # spans both evaluation branches and their crossover
    pts = [(0.0, 0.5), (0.0, 20.0), (0.0, 20.5), (0.0, 50.0),
           (0.5, 3.1), (1.2, 25.0), (2.3, 1.7), (3.7, 30.0),
           (9.0, 12.01), (12.0, 24.0), (12.0, 50.0), (15.0, 20.0),
           (0.25, 20.0), (0.25, 20.01), (7.3, 9.0), (11.7, 16.0)]
    for nu, z in pts:
        ref = float(mpmath.besselj(nu, z))
        assert abs(bessel_j(nu, z) - ref) <= 1e-10, (nu, z)


def test_array_matches_scalar():
    z = np.array([0.0, 0.1, 3.0, 19.9, 20.1, 37.0, 50.0])
    for nu in (0.0, 0.5, 1.2, 4.0, 12.0):
        vals = bessel_j_array(nu, z)
        for zi, vi in zip(z, vals):
            assert vi == pytest.approx(bessel_j(nu, float(zi)), abs=1e-13)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def row_strategy(nu: float, width: int):
    """One row of arguments: mixed zero / Miller / large-z elements, only
    large-z ones, or ones above MILLER_Z_MAX kept on Miller by nu >= 0.75 z."""
    large = st.floats(MILLER_Z_MAX, 400.0, exclude_min=True)
    by_order = st.floats(MILLER_Z_MAX, max(MILLER_Z_MAX, nu / MILLER_ORDER_RATIO))
    mixed = st.one_of(st.just(0.0), st.floats(1e-3, MILLER_Z_MAX), large, by_order)
    return st.one_of(*(st.lists(e, min_size=width, max_size=width)
                       for e in (mixed, large, by_order)))


@settings(max_examples=80, deadline=None)
@given(st.floats(0.0, 60.0), st.integers(1, 6), st.integers(1, 9), st.data())
def test_rows_match_one_dimensional_calls(nu, n_rows, width, data):
    z = np.array([data.draw(row_strategy(nu, width)) for _ in range(n_rows)])
    table = bessel_j_array(nu, z)
    for row, vals in zip(z, table):
        assert same_bits(vals, bessel_j_array(nu, row)), (nu, row)


def test_rows_with_three_miller_starts(monkeypatch):
    # each row's largest Miller element sets its own start; the shared
    # recurrence must give every row the bits of its own 1-D call. Starts
    # rise row by row here, so the rows run in reverse order.
    nu = 1.3
    z = np.array([[0.2, 0.0, 0.7, 45.0],
                  [3.0, 25.0, 1.5, 0.0],
                  [19.5, 8.0, 60.0, 0.4]])
    miller = [row[(row > 0.0) & (row <= MILLER_Z_MAX)] for row in z]
    starts = [specfun._miller_start(nu, m.max()) for m in miller]
    assert starts == sorted(set(starts))
    # one run per start, from the highest down to the next, over the
    # elements of the rows that have joined by then
    ends = starts[::-1][1:] + [0]
    prefixes = np.cumsum([len(m) for m in miller][::-1]).tolist()
    expected = list(zip(starts[::-1], ends, prefixes))

    runs = []
    steps = specfun._miller_steps

    def recorded(mu, m, zk, weight, n_hi, n_lo, r, u, p):
        # the elements joining here enter as their own 1-D run starts
        joined = runs[-1][2] if runs else 0
        for state, start in zip((r, u, p), (0.0, weight[n_hi], 1.0)):
            state = np.broadcast_to(state, np.shape(zk))[joined:]
            assert np.all(state == start), (n_hi, state)
        runs.append((n_hi, n_lo, np.size(zk)))
        return steps(mu, m, zk, weight, n_hi, n_lo, r, u, p)

    monkeypatch.setattr(specfun, "_miller_steps", recorded)
    table = bessel_j_array(nu, z)
    monkeypatch.undo()
    assert runs == expected
    for row, vals in zip(z, table):
        assert same_bits(vals, bessel_j_array(nu, row))
        for zi, vi in zip(row, vals):
            assert abs(vi - float(mpmath.besselj(nu, zi))) <= 1e-13, zi


def test_recurrence_in_order():
    rng = np.random.default_rng(24301)
    for _ in range(40):
        nu = rng.uniform(1.0, 10.0)
        z = rng.uniform(0.1, 40.0)
        lhs = bessel_j(nu - 1.0, z) + bessel_j(nu + 1.0, z)
        rhs = 2.0 * nu / z * bessel_j(nu, z)
        assert abs(lhs - rhs) < 1e-8, (nu, z)


def test_ode_residual():
    h = 1e-4
    for nu in (0.0, 0.7, 1.5, 2.3):
        for z in (0.5, 1.1, 2.0, 2.9):
            jm, j0, jp = (bessel_j(nu, z - h), bessel_j(nu, z),
                          bessel_j(nu, z + h))
            d1 = (jp - jm) / (2 * h)
            d2 = (jp - 2 * j0 + jm) / (h * h)
            res = z * z * d2 + z * d1 + (z * z - nu * nu) * j0
            assert abs(res) < 1e-6, (nu, z)


def test_amplitude_bound():
    rng = np.random.default_rng(7)
    for _ in range(200):
        nu = rng.uniform(0.0, 14.0)
        z = rng.uniform(0.0, 50.0)
        assert abs(bessel_j(nu, z)) <= 1.0 + 1e-12


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 300.0),
       st.one_of(st.floats(0.0, 1e4), st.floats(0.0, 2.2e-308),
                 st.floats(1e4, BESSEL_Z_MAX)))
def test_property_against_mpmath(nu, z):
    # z draws include subnormals and reach the envelope's 2^40, where the
    # phase z - (2 mu + 1) pi/4 rounds by up to half an ulp of z;
    # where |J| underflows both sides are ~0
    value = bessel_j(nu, z)
    assert abs(value - float(mpmath.besselj(nu, z))) <= 1e-10, (nu, z)
    assert bessel_j_array(nu, np.array([z]))[0] == value


def test_arguments_above_the_envelope_are_refused():
    # at z = 1e17 the double-precision phase puts J 0.9 off in relative
    # terms; 2^40 is the last argument served
    assert abs(bessel_j(0.3, BESSEL_Z_MAX)
               - float(mpmath.besselj(0.3, BESSEL_Z_MAX))) <= 1e-10
    for z in (math.nextafter(BESSEL_Z_MAX, math.inf), 1e15, 1e17):
        with pytest.raises(DomainError):
            bessel_j(0.3, z)
        with pytest.raises(DomainError):
            bessel_j_array(1.7, np.array([[25.0, z], [1.0, 2.0]]))


def reduced_by_factors(mu: float, z):
    # the phase expansion with each sign taken as a factor (-1.0)^j
    mu4 = 4.0 * mu * mu
    P, Q, term = 1.0, 0.0, 1.0
    for k in range(1, 30):
        term = term * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * z)
        if k % 2 == 1:
            Q = Q + term * (-1.0) ** ((k - 1) // 2)
        else:
            P = P + term * (-1.0) ** (k // 2)
    omega = z - mu * math.pi / 2.0 - math.pi / 4.0
    return np.sqrt(2.0 / (math.pi * z)) * (P * np.cos(omega) - Q * np.sin(omega))


def two_pass_large_z(nu: float, z):
    # one single-order pass per reduced order, then upward recurrence
    m = math.floor(nu)
    mu0 = nu - m
    j_lo = reduced_by_factors(mu0, z)
    if m == 0:
        return j_lo
    j_hi = reduced_by_factors(mu0 + 1.0, z)
    for k in range(1, m):
        j_lo, j_hi = j_hi, (2.0 * (mu0 + k) / z) * j_hi - j_lo
    return j_hi


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 12),
       st.lists(st.floats(MILLER_Z_MAX, BESSEL_Z_MAX, exclude_min=True),
                min_size=1, max_size=12), st.integers(1, 3))
def test_order_pair_pass_keeps_each_orders_bits(mu0, m, zs, n_rows):
    # the (2, k) phase-expansion pass gives each order the bits of its own
    # single-order pass, on a 1-D array and through bessel_j_array on a
    # table; the scalar path gives the single-order passes' bits
    z = np.array(zs)
    pair = specfun._bessel_asymptotic_reduced(np.array([[mu0], [mu0 + 1.0]]), z)
    for row, mu in zip(pair, (mu0, mu0 + 1.0)):
        assert same_bits(row, reduced_by_factors(mu, z)), mu
    nu = mu0 + m            # below 0.75 * 20: every z here is on large z
    table = np.stack([np.roll(z, k) for k in range(n_rows)])
    assert same_bits(bessel_j_array(nu, table),
                     np.stack([two_pass_large_z(nu, row) for row in table]))
    for zi in zs:
        assert bessel_j(nu, zi).hex() == float(two_pass_large_z(nu, zi)).hex()


def test_large_order_pins():
    # nu >= 0.75 z with z far above 20: the Miller branch at large order
    for nu, z in [(80.0, 100.0), (120.0, 150.0), (200.0, 260.0)]:
        ref = float(mpmath.besselj(nu, z))
        assert abs(bessel_j(nu, z) - ref) <= 1e-12, (nu, z)


def test_bessel_domain():
    with pytest.raises(DomainError):
        bessel_j(0.5, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-0.1, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bessel_j(1.0, bad)
        with pytest.raises(DomainError):
            bessel_j_array(1.0, np.array([1.0, bad]))


# ---- legendre_q_shifted ----

def test_q_zero_closed_form():
    assert legendre_q_shifted(0.5, 2.0) == pytest.approx(
        q_degree_zero(2.0), abs=1e-9)


def test_q_one_closed_form():
    assert legendre_q_shifted(1.5, 2.0) == pytest.approx(
        q_degree_one(2.0), abs=1e-9)


def test_q_against_mpmath():
    # mpmath's legenq on the real axis Z > 1 carries an imaginary part from
    # the cut convention; the real part is the function computed here.
    for nu, Z in [(0.5, 1.0 + 1e-6), (0.5, 1.5), (1.5, 5.0), (2.5, 3.0),
                  (0.0, 2.0), (3.2, 1.01), (1.2, 1000.0), (0.0, 1000.0)]:
        ref = float(mpmath.re(mpmath.legenq(nu - 0.5, 0, Z)))
        assert abs(legendre_q_shifted(nu, Z) - ref) <= 1e-9, (nu, Z)


def test_q_monotone_in_argument():
    for nu in (0.0, 0.5, 1.7):
        vals = [legendre_q_shifted(nu, Z) for Z in (1.1, 1.5, 2.5, 6.0, 30.0)]
        assert all(a > b for a, b in zip(vals, vals[1:])), nu


def test_q_domain():
    with pytest.raises(DomainError):
        legendre_q_shifted(0.5, 1.0)
    with pytest.raises(DomainError):
        legendre_q_shifted(0.5, 0.3)
