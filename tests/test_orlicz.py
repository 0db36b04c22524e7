"""Tests for Young functions, duals, closed-form Delta_2 constants, Luxemburg norms."""
import math

import numpy as np
import pytest

from spme.orlicz import (
    DiscreteMeasure,
    LogPowerYoung,
    PowerSumYoung,
    YoungFunctionError,
    dual_eval,
    luxemburg_norm,
    young_dual,
)


def grid_measure(n: int) -> DiscreteMeasure:
    h = 1.0 / (n + 1)
    return DiscreteMeasure(np.full(n, h))


def dual_brute(young, s, r_hi=10.0, n=200_001):
    """Independent dense-grid sup oracle for the convex dual, step-refined."""
    r = np.linspace(0.0, r_hi, n)
    vals = r * abs(s) - np.asarray(young(r))
    i = int(np.argmax(vals))
    lo, hi = r[max(i - 1, 0)], r[min(i + 1, n - 1)]
    r2 = np.linspace(lo, hi, n)
    return max(float(np.max(r2 * abs(s) - np.asarray(young(r2)))), 0.0)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_square():
    N = PowerSumYoung((1.0,), (2.0,))
    assert N(3.0) == 9.0
    assert N(-3.0) == 9.0
    assert N(0.0) == 0.0


def test_eval_power_sum():
    # coefficients (1, 1) on exponents r+1 = (2, 4): N(2) = 4 + 16
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    assert N(2.0) == 20.0


def test_eval_log_power():
    N = LogPowerYoung(theta=2.0, power=1.0)
    assert N(1.0) == pytest.approx(math.log(2.0), rel=1e-12)


def test_eval_vectorised_and_even():
    N = PowerSumYoung((0.5, 2.0), (1.5, 3.0))
    s = np.linspace(-4, 4, 17)
    np.testing.assert_allclose(N(s), N(-s), rtol=0, atol=0)


def assert_young(young):
    """Check the defining Young-function properties on a log-spaced grid.

    121 points over [1e-6, 1e6]: N(0) = 0, evenness, strict monotonicity,
    midpoint convexity, N(s)/s nondecreasing, and N(s)/s falling off toward 0
    and growing toward infinity across the grid.
    """
    s_grid = np.geomspace(1e-6, 1e6, 121)
    vals = np.asarray(young(s_grid), dtype=float)
    assert abs(float(np.asarray(young(0.0)))) <= 1e-300
    np.testing.assert_allclose(np.asarray(young(-s_grid), dtype=float), vals,
                               rtol=1e-12, atol=0.0)
    assert np.all(np.diff(vals) > 0)
    mids = np.asarray(young(0.5 * (s_grid[:-1] + s_grid[1:])), dtype=float)
    assert np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) * (1 + 1e-9))
    slope = vals / s_grid
    assert np.all(np.diff(slope) >= -1e-12 * slope[:-1])
    assert slope[0] < 0.1 * slope[len(slope) // 2]
    assert slope[-1] > 10.0 * slope[len(slope) // 2]


def test_validate_young_families():
    assert_young(PowerSumYoung((1.0,), (2.0,)))
    assert_young(PowerSumYoung((1.0, 0.3), (1.5, 4.0)))
    assert_young(LogPowerYoung(2.0, 1.0))


def test_bad_parameters_rejected():
    with pytest.raises(YoungFunctionError):
        PowerSumYoung((1.0,), (1.0,))  # not superlinear
    with pytest.raises(YoungFunctionError):
        PowerSumYoung((-1.0,), (2.0,))
    with pytest.raises(YoungFunctionError):
        LogPowerYoung(1.0, 1.0)
    with pytest.raises(YoungFunctionError):
        LogPowerYoung(2.0, 0.5)


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------


def test_dual_square_closed_form():
    # N(s) = s^2 has dual s^2/4, so N*(2) = 1
    N = PowerSumYoung((1.0,), (2.0,))
    assert dual_eval(N, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_dual_at_zero():
    for N in (
        PowerSumYoung((1.0,), (2.0,)),
        PowerSumYoung((1.0, 1.0), (2.0, 4.0)),
        LogPowerYoung(2.0, 1.0),
    ):
        assert dual_eval(N, 0.0) == 0.0


def test_dual_quartic_against_grid_oracle():
    N = PowerSumYoung((1.0,), (4.0,))
    # frozen from the dense grid-search oracle over r in [0, 10] (see dual_brute)
    assert dual_eval(N, 1.0) == pytest.approx(0.4724703937105774, abs=1e-8)
    assert dual_brute(N, 1.0) == pytest.approx(0.4724703937105774, abs=1e-8)
    assert dual_eval(N, 2.5) == pytest.approx(1.603102450009403, abs=1e-8)


def test_dual_power_sum_numeric_against_oracle():
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    # frozen dense-grid sup oracle values for N = s^2 + s^4
    assert dual_eval(N, 0.7) == pytest.approx(0.11191041068871423, abs=1e-8)
    assert dual_eval(N, 3.0) == pytest.approx(1.3731329879373275, abs=1e-8)
    for s in (0.05, 0.3, 1.7, 9.0):
        assert dual_eval(N, s) == pytest.approx(dual_brute(N, s, r_hi=12.0), abs=1e-7)


def test_dual_log_power_matches_oracle():
    N = LogPowerYoung(2.0, 1.0)
    for s in (0.2, 1.0, 4.0):
        assert dual_eval(N, s) == pytest.approx(dual_brute(N, s, r_hi=40.0), abs=1e-7)


def test_dual_is_young_function():
    assert_young(young_dual(PowerSumYoung((1.0,), (2.0,))))
    assert_young(young_dual(PowerSumYoung((1.0, 0.5), (2.0, 3.0))))


def test_dual_round_trip_single_power():
    # Legendre involution: numerically computed (N*)* recovers N
    for coeff, p in ((1.0, 2.0), (0.7, 3.0), (2.0, 1.5)):
        N = PowerSumYoung((coeff,), (p,))
        Nstar = young_dual(N)
        s = np.geomspace(1e-2, 1e2, 41)
        # force the numeric maximisation path for the outer dual
        roundtrip = np.array([dual_brute_free(Nstar, float(x)) for x in s])
        np.testing.assert_allclose(roundtrip, np.asarray(N(s)), rtol=1e-6)


def dual_brute_free(young, s):
    """Numeric dual without the closed-form shortcut (bracket + golden)."""
    from spme.orlicz import _dual_numeric

    return _dual_numeric(young, s)


def test_dual_doubling_bound():
    # For N(s) = sum_i d_i |s|^{r_i+1}: N*(2s) <= theta^{r+1} N*(s),
    # theta = 2^{1/min r_i}; equality (factor 4) for the single power r = 1.
    N = PowerSumYoung((1.0, 2.0), (2.5, 4.0))  # r_i = 1.5, 3
    r_min = 1.5
    theta = 2.0 ** (1.0 / r_min)
    s = np.geomspace(1e-2, 1e2, 31)
    lhs = np.array([dual_eval(N, 2.0 * x) for x in s])
    rhs = theta ** (r_min + 1.0) * np.array([dual_eval(N, x) for x in s])
    assert np.all(lhs <= rhs * (1 + 1e-9))

    sq = PowerSumYoung((1.0,), (2.0,))
    ratios = np.array([dual_eval(sq, 2.0 * x) / dual_eval(sq, x) for x in s])
    np.testing.assert_allclose(ratios, 4.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# Delta_2
# ---------------------------------------------------------------------------


def assert_doubling(N, exact):
    """N(2s) <= C_N N(s) and N*(2t) <= C_N* N*(t) on a log grid, tight if exact."""
    c_n, c_nstar = N.delta2_constants()
    s = np.geomspace(1e-3, 1e3, 61)
    n_ratio = np.asarray(N(2.0 * s)) / np.asarray(N(s))
    dual_ratio = np.asarray(dual_eval(N, 2.0 * s)) / np.asarray(dual_eval(N, s))
    for ratio, c in ((n_ratio, c_n), (dual_ratio, c_nstar)):
        assert np.all(ratio <= c * (1 + 1e-9))
        if exact:
            np.testing.assert_allclose(ratio, c, rtol=1e-12)


def test_delta2_square():
    N = PowerSumYoung((1.0,), (2.0,))
    assert N.delta2_constants() == (4.0, 4.0)
    assert_doubling(N, exact=True)


def test_delta2_fast_diffusion():
    N = PowerSumYoung((1.0,), (1.5,))
    assert N.delta2_constants() == pytest.approx((2.0**1.5, 8.0), rel=1e-12)
    assert_doubling(N, exact=True)


def test_delta2_power_sum():
    # C_N from the top exponent 4, C_N* from the bottom one: 2^(1.5/0.5) = 8
    N = PowerSumYoung((1.0, 0.3), (1.5, 4.0))
    assert N.delta2_constants() == (16.0, 8.0)
    assert_doubling(N, exact=False)


def test_delta2_log_power():
    # C_N = 2^(theta+r) since log(1+2s) <= 2 log(1+s); C_N* = 2^(theta/(theta-1))
    N = LogPowerYoung(2.0, 1.0, coeff=0.5)
    assert N.delta2_constants() == (8.0, 4.0)
    assert_doubling(N, exact=False)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------


def test_luxemburg_zero_field():
    m = grid_measure(16)
    N = PowerSumYoung((1.0,), (2.0,))
    assert luxemburg_norm(np.zeros(16), N, m) == 0.0


def test_luxemburg_indicator_unit_mass():
    # indicator of a set of measure one under N = s^2: m(N(1/lam)) = 1/lam^2
    w = np.full(4, 0.25)
    m = DiscreteMeasure(w)
    f = np.ones(4)
    N = PowerSumYoung((1.0,), (2.0,))
    assert luxemburg_norm(f, N, m) == pytest.approx(1.0, rel=1e-9)


def test_luxemburg_is_weighted_l2_for_square():
    m = grid_measure(64)
    rng = np.random.default_rng(20240811)
    f = rng.normal(0.0, 1.0, 64) * 1.7
    N = PowerSumYoung((1.0,), (2.0,))
    l2 = math.sqrt(m.integrate(f**2))
    assert luxemburg_norm(f, N, m) == pytest.approx(l2, rel=1e-9)
    # frozen: the weighted L2 value of this seeded field
    assert l2 == pytest.approx(1.9589752407043977, rel=1e-12)


def test_luxemburg_matches_scan_oracle():
    # frozen from a dense geometric lambda scan of the unit-ball criterion
    m = grid_measure(64)
    rng = np.random.default_rng(20240811)
    f = rng.normal(0.0, 1.0, 64) * 1.7
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    assert luxemburg_norm(f, N, m) == pytest.approx(2.8233788830557014, abs=1e-8)


def test_luxemburg_homogeneity_and_triangle():
    m = grid_measure(48)
    N = PowerSumYoung((1.0, 0.5), (2.0, 3.0))
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = rng.normal(0.0, 1.0, 48)
        g = rng.normal(0.0, 1.0, 48)
        a = float(rng.uniform(-3.0, 3.0))
        nf = luxemburg_norm(f, N, m)
        ng = luxemburg_norm(g, N, m)
        nfg = luxemburg_norm(f + g, N, m)
        naf = luxemburg_norm(a * f, N, m)
        assert nfg <= (nf + ng) * (1 + 1e-8) + 1e-12
        assert naf == pytest.approx(abs(a) * nf, rel=1e-8, abs=1e-12)


def test_luxemburg_unit_ball_tightness():
    m = grid_measure(32)
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    rng = np.random.default_rng(99)
    for _ in range(200):
        f = rng.normal(0.0, 2.0, 32)
        nf = luxemburg_norm(f, N, m)
        assert m.integrate(np.asarray(N(f / nf))) <= 1.0 + 1e-12
        assert m.integrate(np.asarray(N(f / (nf * (1.0 - 1e-6))))) > 1.0


# ---------------------------------------------------------------------------
# Hoelder inequality
# ---------------------------------------------------------------------------


def test_holder_zero():
    m = grid_measure(8)
    N = PowerSumYoung((1.0,), (2.0,))
    f, g = np.zeros(8), np.ones(8)
    lhs = m.integrate(np.abs(f * g))
    bound = 2.0 * luxemburg_norm(f, N, m) * luxemburg_norm(g, young_dual(N), m)
    assert lhs == 0.0
    assert bound == 0.0


def test_holder_square_vs_cauchy_schwarz():
    # with N = s^2 the Luxemburg norm is the weighted L2 norm and the dual
    # norm is proportional to it, so the bound must dominate Cauchy-Schwarz/2
    m = grid_measure(32)
    N = PowerSumYoung((1.0,), (2.0,))
    rng = np.random.default_rng(3)
    for _ in range(25):
        f = rng.normal(0.0, 1.0, 32)
        g = rng.normal(0.0, 1.5, 32)
        lhs = m.integrate(np.abs(f * g))
        bound = 2.0 * luxemburg_norm(f, N, m) * luxemburg_norm(g, young_dual(N), m)
        cs = math.sqrt(m.integrate(f**2)) * math.sqrt(m.integrate(g**2))
        assert lhs <= cs * (1 + 1e-12)
        assert lhs <= bound


def test_holder_indicator():
    w = np.full(5, 0.2)
    m = DiscreteMeasure(w)
    f = np.ones(5)
    N = PowerSumYoung((1.0,), (2.0,))
    lhs = m.integrate(np.abs(f * f))
    bound = 2.0 * luxemburg_norm(f, N, m) * luxemburg_norm(f, young_dual(N), m)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert lhs <= bound


def test_holder_power_sum_random():
    m = grid_measure(24)
    N = PowerSumYoung((1.0, 1.0), (2.0, 4.0))
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.normal(0.0, 1.0, 24)
        g = rng.normal(0.0, 1.0, 24)
        lhs = m.integrate(np.abs(f * g))
        bound = 2.0 * luxemburg_norm(f, N, m) * luxemburg_norm(g, young_dual(N), m)
        assert lhs <= bound
