import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isqwave.quadrature import (
    GAUSS_LADDER,
    BadHint,
    NonConvergence,
    NonFinite,
    QuadResult,
    gauss_legendre,
    integrate_adaptive,
    integrate_decaying,
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_smooth_rows,
)

TOL = 1e-10


def test_cosine_over_half_period_vanishes():
    r = integrate_adaptive(math.cos, 0.0, math.pi, 1e-12)
    assert abs(r.value) < 1e-12


def test_constant():
    r = integrate_adaptive(lambda s: 1.0, 0.0, 1.0, TOL)
    assert abs(r.value - 1.0) < 1e-13


def test_monomial():
    r = integrate_adaptive(lambda s: s * s, 0.0, 1.0, 1e-12)
    assert abs(r.value - 1.0 / 3.0) < 1e-12


def test_result_invariants():
    r = integrate_adaptive(lambda s: math.exp(-s * s), -1.0, 3.0, TOL)
    assert isinstance(r, QuadResult)
    assert r.error_estimate >= 0.0
    assert r.evaluations >= 1


def test_degenerate_interval():
    r = integrate_adaptive(lambda s: 7.0, 2.0, 2.0, TOL)
    assert r.value == 0.0
    assert r.evaluations >= 1


def test_interior_nan_raises():
    def f(s):
        return float("nan") if 0.49 < s < 0.51 else 1.0
    with pytest.raises(NonFinite):
        integrate_adaptive(f, 0.0, 1.0, TOL)


def test_budget_exhaustion_raises():
    # barely-integrable interior spike defeats the subdivision budget
    def f(s):
        d = abs(s - 1.0 / math.sqrt(2.0))
        return min(d ** -0.999, 1e300) if d > 0 else 1e300
    with pytest.raises(NonConvergence):
        integrate_adaptive(f, 0.0, 1.0, 1e-10)


def test_inverse_sqrt_endpoint():
    r = integrate_endpoint_singular(lambda s: 1.0 / math.sqrt(1.0 - s),
                                    0.0, 1.0, TOL)
    assert abs(r.value - 2.0) < 1e-10


def test_circular_arc_weight():
    beta = 0.3
    r = integrate_endpoint_singular(
        lambda s: 1.0 / math.sqrt(beta * beta - s * s), 0.0, beta, TOL)
    assert abs(r.value - math.pi / 2.0) < 1e-10


def test_linear_times_inverse_sqrt():
    # antiderivative gives exactly 4/3
    r = integrate_endpoint_singular(lambda s: s / math.sqrt(1.0 - s),
                                    0.0, 1.0, TOL)
    assert abs(r.value - 4.0 / 3.0) < 1e-10


def test_singular_routine_on_smooth_integrand_matches_adaptive():
    f = lambda s: math.cos(3.0 * s) * math.exp(s)
    ra = integrate_adaptive(f, 0.2, 1.7, TOL)
    rs = integrate_endpoint_singular(f, 0.2, 1.7, TOL)
    assert abs(ra.value - rs.value) < 1e-8


def test_exponential_tail():
    r = integrate_decaying(lambda s: math.exp(-s), 0.0, TOL,
                           decay_rate_hint=1.0)
    assert abs(r.value - 1.0) < 1e-10


def test_faster_decay_than_hint_is_fine():
    r = integrate_decaying(lambda s: math.exp(-2.0 * s), 0.0, TOL,
                           decay_rate_hint=1.5)
    assert abs(r.value - 0.5) < 1e-10


def test_damped_oscillation():
    # Laplace transform of cos at 1: 1/(1+1) = 1/2
    r = integrate_decaying(lambda s: math.exp(-s) * math.cos(s), 0.0, 1e-10,
                           decay_rate_hint=1.0)
    assert abs(r.value - 0.5) < 1e-8


def test_polynomial_decay_contradicts_hint():
    with pytest.raises(BadHint):
        integrate_decaying(lambda s: 1.0 / (1.0 + s * s), 0.0, TOL,
                           decay_rate_hint=1.0)


def test_zero_tail_function():
    r = integrate_decaying(lambda s: 0.0, 0.0, TOL, decay_rate_hint=1.0)
    assert r.value == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_linearity(alpha, beta):
    f = lambda s: math.sin(2.0 * s)
    g = lambda s: s * s - 0.5
    combo = lambda s: alpha * f(s) + beta * g(s)
    rf = integrate_adaptive(f, 0.0, 2.0, TOL)
    rg = integrate_adaptive(g, 0.0, 2.0, TOL)
    rc = integrate_adaptive(combo, 0.0, 2.0, TOL)
    bound = (abs(alpha) + 1) * rf.error_estimate \
        + (abs(beta) + 1) * rg.error_estimate + rc.error_estimate + 1e-12
    assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= bound


def test_interval_additivity():
    f = lambda s: math.exp(-s) * math.cos(4.0 * s)
    whole = integrate_adaptive(f, 0.0, 3.0, TOL)
    left = integrate_adaptive(f, 0.0, 1.1, TOL)
    right = integrate_adaptive(f, 1.1, 3.0, TOL)
    bound = whole.error_estimate + left.error_estimate \
        + right.error_estimate + 1e-12
    assert abs(whole.value - (left.value + right.value)) <= bound


def test_ladder_rules_exact_on_even_monomials():
    # the n-point rule integrates every polynomial of degree <= 2n - 1;
    # 8 is hankel's panel rule, 64 (energy's edge rule) a ladder rung
    for n in (8, *GAUSS_LADDER):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0.0)
        for k in range(n):
            assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) < 1e-14, (n, k)


@pytest.mark.parametrize("n", [0, -3])
def test_rule_without_nodes_is_refused(n):
    # n = 0 once raised ZeroDivisionError from the Tricomi guesses
    with pytest.raises(ValueError, match="n >= 1"):
        gauss_legendre(n)


def test_largest_rule_weights_against_mpmath():
    # the largest ladder rule, and hankel's 8 and energy's 64 points
    for n in (8, 64, 1024):
        x, w = gauss_legendre(n)
        with mp.workdps(30):
            for i in (0, 1, min(300, n - 1), n // 2):
                # one Newton step from the double node is accurate far beyond
                # double precision; the weight is 2 (1 - x^2) / (n P_{n-1})^2
                r = mp.mpf(float(x[i]))
                p, q = mp.legendre(n, r), mp.legendre(n - 1, r)
                r -= p * (1 - r * r) / (n * (q - r * p))
                want = 2 * (1 - r * r) / (n * mp.legendre(n - 1, r)) ** 2
                assert abs(float((w[i] - want) / want)) < 1e-12, (n, i)


def test_smooth_settles_on_the_ladder():
    r = integrate_smooth(np.cos, 0.0, 1.0, 1e-12)
    assert abs(r.value - math.sin(1.0)) < 1e-14
    # 32 and 64 points agree: the count is the sum over the sizes tried
    assert r.evaluations == 32 + 64
    assert 0.0 <= r.error_estimate <= 1e-12


def test_smooth_falls_back_to_adaptive():
    # a kink: Gauss-Legendre converges only algebraically, so no two ladder
    # sizes agree to 1e-10 and the adaptive rule bisects onto the kink
    r = integrate_smooth(lambda s: np.abs(s - 1.0 / 3.0), 0.0, 1.0, TOL)
    assert abs(r.value - 5.0 / 18.0) < 1e-10
    assert r.evaluations > sum(GAUSS_LADDER)


def test_smooth_fallback_errors_propagate():
    def spike(s):
        d = np.abs(s - 1.0 / math.sqrt(2.0))
        return np.minimum(np.where(d > 0, d, 1e-300) ** -0.999, 1e300)
    with pytest.raises(NonConvergence):
        integrate_smooth(spike, 0.0, 1.0, 1e-10)
    with pytest.raises(NonFinite):
        integrate_smooth(lambda s: np.where(np.abs(s - 0.5) < 0.05, np.nan, 1.0),
                         0.0, 1.0, TOL)


def test_no_rule_built_at_import():
    # every module: rules are built on first use, and none comes from numpy.polynomial
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import importlib, pkgutil, sys, isqwave\n"
            "for mod in pkgutil.iter_modules(isqwave.__path__):\n"
            "    importlib.import_module('isqwave.' + mod.name)\n"
            "from isqwave.quadrature import gauss_legendre\n"
            "print(gauss_legendre.cache_info().currsize,"
            " 'numpy.polynomial' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["0", "False"]


def test_smooth_rejects_bad_input():
    # as integrate_adaptive does: a reversed interval would flip the sign,
    # and with tol = 0 two equal ladder values would still "settle"
    with pytest.raises(ValueError):
        integrate_smooth(np.cos, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_smooth(np.cos, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_smooth(np.cos, 0.0, 1.0, -1e-10)


ENTRY_CALLS = {
    "smooth-tol": lambda f, x: integrate_smooth(f, 0.0, 10.0, x),
    "smooth-a": lambda f, x: integrate_smooth(f, x, 10.0),
    "smooth-b": lambda f, x: integrate_smooth(f, 0.0, x),
    "adaptive-tol": lambda f, x: integrate_adaptive(f, 0.0, 50.0, x),
    "adaptive-a": lambda f, x: integrate_adaptive(f, x, 1.0),
    "adaptive-b": lambda f, x: integrate_adaptive(f, 0.0, x),
    "singular-tol": lambda f, x: integrate_endpoint_singular(f, 0.0, 1.0, x),
    "singular-a": lambda f, x: integrate_endpoint_singular(f, x, 1.0),
    "singular-b": lambda f, x: integrate_endpoint_singular(f, 0.0, x),
    "decaying-a": lambda f, x: integrate_decaying(f, x),
    "decaying-tol": lambda f, x: integrate_decaying(f, 0.0, x),
    "decaying-hint": lambda f, x: integrate_decaying(f, 0.0, decay_rate_hint=x),
    "smooth-rows-tol": lambda f, x: integrate_smooth_rows(lambda _, s: f(s), [0.0], [9.0], x),
    "smooth-rows-a": lambda f, x: integrate_smooth_rows(lambda _, s: f(s), [0.0, x], [9.0] * 2),
    "smooth-rows-b": lambda f, x: integrate_smooth_rows(lambda _, s: f(s), [0.0], [x]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ENTRY_CALLS.values(), ids=ENTRY_CALLS.keys())
def test_non_finite_arguments_rejected_at_entry(entry, bad):
    # without the entry check, integrate_adaptive(cos, 0, 50, tol=nan) gave
    # 2.058 (the integral is -0.262), integrate_smooth ran its whole ladder
    # before the adaptive routine's one-panel value, and an infinite bound
    # met math.cos(inf)
    calls = []

    def f(s):
        calls.append(s)
        return np.exp(-s) * np.cos(s)

    with pytest.raises(ValueError, match="must be finite"):
        entry(f, bad)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-9])
def test_decaying_rejects_non_positive_tol_at_entry(tol):
    # without the check, tol = 0 raised ZeroDivisionError from the truncation
    # point's log(2 M / (kappa tol)), and a negative tol a math domain error
    calls = []

    def f(s):
        calls.append(s)
        return math.exp(-s)

    with pytest.raises(ValueError, match="tol and decay_rate_hint > 0"):
        integrate_decaying(f, 0.0, tol)
    assert calls == []


@pytest.mark.parametrize("tol", [0.0, -1e-9])
def test_endpoint_singular_names_its_own_arguments(tol):
    # before the entry check, a tol <= 0 reached integrate_adaptive, whose
    # message named the mapped half-interval [0, sqrt(m - a)] and tol / 2
    calls = []

    def f(s):
        calls.append(s)
        return 1.0 / math.sqrt(1.7 - s)

    with pytest.raises(ValueError, match=f"tol > 0: got 0.2, 1.7, {tol!r}$"):
        integrate_endpoint_singular(f, 0.2, 1.7, tol)
    assert calls == []


def test_smooth_block_serves_its_rungs():
    # f on the concatenated nodes of the first three rules: the ladder takes
    # each rule's slice, stops where it did without the block, and counts
    # every node of the block as evaluated
    cold = integrate_smooth(np.cos, 0.0, 1.0, 1e-12)
    assert (cold.evaluations, cold.rungs) == (96, 2)
    nodes = np.concatenate([0.5 + 0.5 * gauss_legendre(n)[0] for n in GAUSS_LADDER[:3]])
    calls = []

    def f(s):
        calls.append(len(s))
        return np.cos(s)

    held = integrate_smooth(f, 0.0, 1.0, 1e-12, np.cos(nodes))
    assert (held.value.hex(), held.evaluations, held.rungs, calls) == \
        (cold.value.hex(), 224, 2, [])
    short = integrate_smooth(f, 0.0, 1.0, 1e-12, np.cos(nodes[:32]))
    assert (short.value.hex(), short.evaluations, short.rungs, calls) == \
        (cold.value.hex(), 96, 2, [64])


def row_integrand(x, p, q, k):
    """exp(p x) cos(q x), plus k |x - 0.3|: a kink no Gauss rule settles."""
    return np.exp(p * x) * np.cos(q * x) + k * np.abs(x - 0.3)


def rows_against_scalar(a, b, p, q, k, tol):
    cols = [np.array(v)[:, None] for v in (p, q, k)]
    shapes = []

    def f(rows, x):
        shapes.append(x.shape)
        return row_integrand(x, *(col[rows] for col in cols))

    got = integrate_smooth_rows(f, a, b, tol)
    for i, res in enumerate(got):
        want = integrate_smooth(lambda x: row_integrand(x, p[i], q[i], k[i]), a[i], b[i], tol)
        if res is None:
            # no rule settled: integrate_smooth's own value is adaptive's
            assert want.rungs == len(GAUSS_LADDER)
            assert want.evaluations > sum(GAUSS_LADDER)
        else:
            assert (res.value.hex(), res.error_estimate.hex(), res.evaluations,
                    res.rungs) == (want.value.hex(), want.error_estimate.hex(),
                                   want.evaluations, want.rungs)
    return got, shapes


row = st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0), st.floats(-2.0, 2.0),
                st.floats(0.0, 300.0), st.sampled_from([0.0, 0.0, 0.0, 1.0]))


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(row, max_size=40), tol=st.sampled_from([1e-13, 1e-10, 1e-6]))
def test_smooth_rows_equal_integrate_smooth(rows, tol):
    # each row is integrate_smooth's QuadResult, field for field, or None
    # exactly where integrate_smooth falls back to the adaptive rule
    a = [lo for lo, width, *_ in rows]
    b = [lo + width for lo, width, *_ in rows]
    p, q, k = ([r[i] for r in rows] for i in (2, 3, 4))
    rows_against_scalar(a, b, p, q, k, tol)


def test_smooth_rows_chunks_and_shrinks():
    # 70 rows, half of them kinked: each rule evaluates the rows not yet
    # settled, in chunks of at most 2^15 nodes
    n = 70
    k = [float(i % 2) for i in range(n)]
    got, shapes = rows_against_scalar([0.0] * n, [1.0] * n, [0.5] * n,
                                      list(np.linspace(1.0, 200.0, n)), k, 1e-11)
    assert all(r is None for r in got[1::2])
    assert all(r is not None for r in got[0::2])
    assert max(rows * nodes for rows, nodes in shapes) <= 2 ** 15
    per_rule = {}
    for rows, nodes in shapes:
        per_rule[nodes] = per_rule.get(nodes, 0) + rows
    assert list(per_rule) == list(GAUSS_LADDER)
    assert per_rule[GAUSS_LADDER[0]] == n
    assert per_rule[GAUSS_LADDER[-1]] == n // 2
    assert list(per_rule.values()) == sorted(per_rule.values(), reverse=True)


def test_smooth_rows_reject_bad_rows():
    f = lambda r, s: np.cos(s)  # noqa: E731
    with pytest.raises(ValueError, match="need a <= b"):
        integrate_smooth_rows(f, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        integrate_smooth_rows(f, [0.0, 0.0], [1.0])
    # no rows: no rule is evaluated
    assert integrate_smooth_rows(lambda r, s: 1 / 0, [], []) == []
