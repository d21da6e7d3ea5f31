"""Acceptance gate: ten numbered criteria, one test and one verdict each.

Run with `pytest -v tests/test_acceptance.py` to get a pass or fail line
per criterion.  Every tolerance here is final; loosening one to make a
red line green is never acceptable.

Criterion 1 checks the beta -> 0 limit of the cone-edge integral, not
its value at a fixed offset.  Since I(nu, beta) = pi/2 - nu*beta +
O(beta^2), the raw gap at beta = 1e-4 is nu*1e-4, above the 1e-5 bound
for every order tested.  One Richardson step from that offset,
2 I(nu, beta/2) - I(nu, beta), cancels the nu*beta term and leaves an
O(beta^2) estimate of the limit, which is what is held to 1e-5 against
pi/2 (see README).

The measurements come from `isqwave.checks`, which `isqwave verify` runs
too; the bounds are written out here.
"""

import math

from isqwave import checks
from isqwave.energy import (
    CommutantParams,
    alpha_star,
    constant_potential,
    hardy_check,
    norm_equivalence_check,
    random_suite,
    sign_audit,
)
from isqwave.kernel import (
    diffractive_integral,
    is_mode_jump_nonzero,
    verify_lipschitz_hankel,
)

SEED = 0x5EED


def test_criterion_01_diffractive_limit():
    # the beta -> 0 limit of the cone-edge integral, extrapolated from
    # beta = 1e-4 and beta/2, against pi/2
    beta = 1e-4
    for nu in (0.5, 1.2, 3.7):
        limit = checks.diffractive_limit(nu, beta)
        assert abs(limit - math.pi / 2) < 1e-5, \
            (f"nu={nu}: raw |I - pi/2| = "
             f"{abs(diffractive_integral(nu, beta) - math.pi / 2):.3e}, "
             f"extrapolated |L - pi/2| = {abs(limit - math.pi / 2):.3e}")


def test_criterion_02_jump_reproduction():
    jump = checks.cone_jump(0, 0.25)
    assert abs(jump - (-0.5)) < 1e-3


def test_criterion_03_free_case_null_control():
    for n in range(-10, 11):
        jump = checks.cone_jump(n, 0.0)
        assert abs(jump) < 1e-6, f"mode {n}: jump {jump:.3e}"


def test_criterion_04_exclusion_condition():
    assert is_mode_jump_nonzero(1, 3.0) is False
    measured = checks.cone_jump(1, 3.0)
    assert abs(measured) < 1e-6


def test_criterion_05_lipschitz_hankel_identity():
    for nu in (0.5, 1.2, 2.5):
        for r1 in (0.5, 1.0, 2.0):        # r1/r2 ratios at r2 = 1
            for t in (0.8, 1.5, 3.0):
                residual = verify_lipschitz_hankel(nu, r1, 1.0, t)
                assert residual < 1e-6, \
                    f"(nu={nu}, r1={r1}, t={t}): residual {residual:.3e}"


def test_criterion_06_involution_and_eigen_relation():
    base = checks.involution_defect(80)
    refined = checks.involution_defect(160)
    assert base < 1e-3
    assert refined < base
    assert checks.eigen_relation_defect() < 1e-2


def test_criterion_07_oracle_cross_validation():
    points = checks.acceptance_samples()
    assert len(points) >= 20

    fine = checks.oracle_errors(1e-3, points)
    assert fine.max() <= 0.02

    assert checks.leakage(1e-3) < 1e-3

    coarse = checks.oracle_errors(2e-3, points)
    assert abs(checks.convergence_order(coarse, fine) - 2.0) <= 0.3


def test_criterion_08_bicharacteristic_flow():
    # zero angular momentum, inward: must strike the origin
    assert checks.strike_radius(1e-4) < 1e-6

    # unit angular momentum: radius stays above the secant envelope
    assert checks.envelope_dip(1e-4) <= 1e-6

    # characteristic value and tau conserved along the singular system
    assert checks.conservation_drift(1e-4) < 1e-8

    # the full and rescaled parametrizations draw one curve
    assert checks.parametrization_gap(1e-4) < 1e-6


def test_criterion_09_hardy_and_norm_equivalence():
    fpot = constant_potential(1.0)
    for n in (3, 4, 5):
        bound = (2.0 / (n - 2)) ** 2
        for tf in random_suite(n, count=20, seed=SEED):
            ratio = hardy_check(tf, n)[2]
            assert ratio <= bound * (1.0 + 1e-9), \
                f"n={n}: ratio {ratio:.6f} beyond {bound:.6f}"
            lower_ok, upper_ok, _ = norm_equivalence_check(tf, fpot, n)
            assert lower_ok and upper_ok, f"n={n}: equivalence violated"


def test_criterion_10_commutant_sign_audit():
    star = alpha_star()

    audit = sign_audit(CommutantParams(alpha=star), min_kept=10000)
    assert audit.kept >= 10000
    assert audit.max_value <= 1e-12, \
        f"alpha*={star:.6f}: worst H_p a = {audit.max_value:.3e}"

    assert checks.dual_route_gap(star, 100, SEED) <= 1e-6
