import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravphase.units import DimensionlessParams
from gravphase.variance import (
    VarianceBreakdown,
    beta,
    i7,
    i8,
    integrand_I,
    phase_variance,
)

# reference values computed once with 50-digit arithmetic, frozen here
TOTAL_MU1_RHO1_TAU3 = 0.22815585056082687
TOTAL_MU1_RHO1_TAU01 = 0.022935073561553256
TOTAL_MU1_RHO03_TAU1 = 0.016737014598560304


def _d(mu, rho, tau):
    return DimensionlessParams(mu=mu, rho=rho, tau_max=tau)


def test_i7_closed_form():
    # i7 = (2 sqrt(2) / sqrt(pi)) mu asinh(tau_max)
    pref = 2.0 * math.sqrt(2.0) / math.sqrt(math.pi)
    assert math.isclose(i7(_d(1.0, 1.0, 3.0)), pref * math.asinh(3.0), rel_tol=1e-15)
    assert math.isclose(
        i7(_d(7.0, 0.5, 0.25)), 7.0 * pref * math.asinh(0.25), rel_tol=1e-15
    )


def test_i8_equals_i7_at_zero_separation():
    d = _d(1.0, 0.0, 2.0)
    assert i8(d) == i7(d)
    assert phase_variance(d).total == 0.0


def test_frozen_totals():
    assert math.isclose(
        phase_variance(_d(1.0, 1.0, 3.0)).total, TOTAL_MU1_RHO1_TAU3, rel_tol=1e-12
    )
    assert math.isclose(
        phase_variance(_d(1.0, 1.0, 0.1)).total, TOTAL_MU1_RHO1_TAU01, rel_tol=1e-12
    )
    assert math.isclose(
        phase_variance(_d(1.0, 0.3, 1.0)).total, TOTAL_MU1_RHO03_TAU1, rel_tol=1e-12
    )


def test_breakdown_is_consistent_decomposition():
    vb = phase_variance(_d(3.7, 1.3, 2.1))
    assert isinstance(vb, VarianceBreakdown)
    # consistent to a rounding error of the larger term
    assert abs((vb.i7 - vb.i8) - vb.total) <= 4e-16 * vb.i7
    assert vb.total >= 0.0
    assert vb.quadrature_error_estimate < 1e-8 * max(vb.total, 1.0)


def test_total_is_continuous_where_the_u_rule_starts():
    # from rho = sqrt(2)/2 up, where beta at tau = 0 passes 1/2, the u rule
    # joins the theta piece; the last pair below straddles that point
    for rho in (0.35, 0.49, 0.51, 0.8):
        lo = phase_variance(_d(1.0, rho * 0.9999, 1.0)).total
        hi = phase_variance(_d(1.0, rho * 1.0001, 1.0)).total
        assert lo < hi
        assert math.isclose(lo, hi, rel_tol=1e-3)
    # direct cross-check near rho = 0.5
    t_lo = phase_variance(_d(1.0, 0.4999999, 1.0)).total
    t_hi = phase_variance(_d(1.0, 0.5000001, 1.0)).total
    assert math.isclose(t_lo, t_hi, rel_tol=1e-5)
    # and straddling rho = sqrt(2)/2 itself
    t_lo = phase_variance(_d(1.0, math.sqrt(0.5) * (1.0 - 1e-7), 1.0)).total
    t_hi = phase_variance(_d(1.0, math.sqrt(0.5) * (1.0 + 1e-7), 1.0)).total
    assert t_lo < t_hi
    assert math.isclose(t_lo, t_hi, rel_tol=1e-6)


def test_integrand_shape():
    # I(beta) = beta - (sqrt(pi)/2) erf(beta) is positive and increasing
    b1 = integrand_I(1.0, 0.5)
    b2 = integrand_I(1.0, 0.1)
    assert 0.0 < b1 < b2  # beta falls with tau, so does I
    assert beta(1.0, 0.0) == 1.0 / math.sqrt(2.0)


def test_small_beta_series_matches_direct():
    from scipy.special import erf as _erf

    # direct subtraction is cancellation-safe only for moderate beta
    for b in (0.2, 0.3, 0.5):
        direct = b - math.sqrt(math.pi) / 2.0 * float(_erf(b))
        via = integrand_I(b * math.sqrt(2.0), 0.0)  # beta(rho, 0) = rho/sqrt(2)
        assert math.isclose(via, direct, rel_tol=1e-12)
    # below that, check against the leading series terms instead
    for b in (1e-5, 1e-3, 1e-2):
        series = b**3 / 3.0 - b**5 / 10.0 + b**7 / 42.0
        via = integrand_I(b * math.sqrt(2.0), 0.0)
        assert math.isclose(via, series, rel_tol=1e-12)


def test_I_over_beta2_matches_mpmath_across_the_series_switch():
    # the direct form (b - sqrt(pi)/2 erf b) / b^2 cancels as b falls (1.4e-14
    # on [0.25, 0.5]); the series takes over wherever it would lose 1e-15
    mp = pytest.importorskip("mpmath")
    from gravphase.variance import _I_over_beta2

    with mp.workdps(40):
        for j in range(1501):
            b = 0.25 + 0.75 * j / 1500
            x = mp.mpf(b)
            exact = (x - mp.sqrt(mp.pi) / 2 * mp.erf(x)) / (x * x)
            assert abs(mp.mpf(_I_over_beta2(b)) - exact) <= 1e-15 * exact


@settings(max_examples=40, deadline=None)
@given(
    mu=st.floats(1e-4, 1e6),
    rho=st.floats(0.01, 30.0),
    tau=st.floats(0.01, 100.0),
)
def test_linearity_in_mu(mu, rho, tau):
    base = phase_variance(_d(1.0, rho, tau)).total
    scaled = phase_variance(_d(mu, rho, tau)).total
    assert math.isclose(scaled, mu * base, rel_tol=1e-13)


@settings(max_examples=30, deadline=None)
@given(
    rho=st.floats(0.05, 10.0),
    tau1=st.floats(0.01, 50.0),
    factor=st.floats(1.1, 10.0),
)
def test_monotone_in_tau(rho, tau1, factor):
    v1 = phase_variance(_d(1.0, rho, tau1)).total
    v2 = phase_variance(_d(1.0, rho, tau1 * factor)).total
    assert v2 > v1 * (1.0 - 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    rho1=st.floats(0.02, 5.0),
    factor=st.floats(1.1, 8.0),
    tau=st.floats(0.05, 20.0),
)
def test_monotone_in_rho(rho1, factor, tau):
    v1 = phase_variance(_d(1.0, rho1, tau)).total
    v2 = phase_variance(_d(1.0, rho1 * factor, tau)).total
    assert v2 > v1 * (1.0 - 1e-12)


def test_short_time_linear_growth():
    # for tau << 1 the variance is 2 mu tau [sqrt(2/pi) - erf(rho/sqrt2)/rho]
    from scipy.special import erf as _erf

    mu, rho, tau = 5.0, 1.2, 1e-5
    bracket = math.sqrt(2.0 / math.pi) - float(_erf(rho / math.sqrt(2.0))) / rho
    expected = 2.0 * mu * tau * bracket
    got = phase_variance(_d(mu, rho, tau)).total
    assert math.isclose(got, expected, rel_tol=1e-4)


def test_saturation_at_large_tau():
    # once the packets outgrow their separation the variance stops growing
    v1 = phase_variance(_d(1.0, 1.0, 1e4)).total
    v2 = phase_variance(_d(1.0, 1.0, 1e8)).total
    assert v2 < v1 * 1.001


def test_deep_spreading_regime_stable():
    # the substituted integrand must survive extreme horizons
    v = phase_variance(_d(1.0, 2.0, 1e12)).total
    assert math.isfinite(v) and v > 0.0


# (mu, rho, tau_max) covering the theta piece alone (rho <= sqrt(2)/2, out
# to tau_max = 1e300, past the overflow of 1 + tau^2 at 1.34e154), the
# closed form alone (beta >= 6 up to tau_max), the closed form with the
# u rule, the u rule with the theta rule, all three pieces, the seams, and
# the critical-length line tau = rho^2 up to rho = 1e96
GOLDEN_POINTS = [
    (1.0, 0.01, 1e-3), (1.0, 0.1, 1.0), (1.0, 0.3, 1.0), (1.0, 0.5, 10.0),
    (1.0, 0.6, 2.0), (1.0, 0.7, 1e6), (1.0, 0.7071, 0.1),
    (1.0, 1.0, 0.5), (1.0, 2.0, 1.0), (1.0, 5.0, 2.0), (1.0, 8.0, 5.0),
    (1.0, 0.72, 0.5), (1.0, 1.0, 3.0), (1.0, 1.0, 1e4), (1.0, 3.0, 100.0),
    (1.0, 8.0, 1e12), (1.0, 8.4, 1e300), (1.0, 1.0, 1.0),
    (1.0, 8.485281374238571, 3.0), (1.0, 8.485281374238571, 1e3),
    (1.0, 20.0, 0.5), (1.0, 1e3, 10.0), (1.0, 1e6, 1e4), (1.0, 1e30, 1e20),
    (1.0, 1e96, 1e90),
    (1.0, 20.0, 10.0), (1.0, 1e3, 500.0), (1.0, 1e10, 3e9),
    (1.0, 20.0, 100.0), (1.0, 1e3, 1e6), (1.0, 6.2e4, 1.4e17), (1.0, 1e8, 1e18),
    (1e-3, 5.0, 7.0), (42.0, 1e4, 1e8), (0.2, 0.4, 3.0), (7.5, 2.5, 0.01),
    (1.0, 0.5, 1e200), (1.0, 0.01, 1e300), (1.0, 0.7, 1e155),
] + [(1.0, r, r * r) for r in (0.6, 0.9, 3.0, 9.0, 30.0, 1e2, 1e3, 1e5, 1e8, 1e12,
                               1e20, 1e34, 1e50, 1e70, 1e96)]


def _mp_total(mu, rho, tau):
    """DeltaPhi^2 at 34 digits from the single integrand, by mpmath quadrature."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(34):
        mu, rho, tau = mp.mpf(mu), mp.mpf(rho), mp.mpf(tau)
        r, u_max = rho / mp.sqrt(2), mp.asinh(tau)

        def big_i(b):  # b - int_0^b exp(-x^2) dx, by series where it cancels
            if b < mp.mpf("1e-6"):
                return b**3 * (mp.mpf(1) / 3 - b * b / 10 + b**4 / 42)
            return b - mp.sqrt(mp.pi) / 2 * mp.erf(b)

        acc = mp.mpf(0)
        u_a = min(mp.acosh(r / 6), u_max) if r > 6 else mp.mpf(0)
        if u_a > 0:  # erf = 1 - erfc; erfc < 1e-44 where beta > 10
            acc += r * u_a - mp.sqrt(mp.pi) / 2 * mp.sinh(u_a)
            u_10 = min(mp.acosh(r / 10), u_a) if r > 10 else mp.mpf(0)
            acc += mp.sqrt(mp.pi) / 2 * mp.quad(
                lambda u: mp.erfc(r / mp.cosh(u)) * mp.cosh(u), [u_10, u_a])
        u_b = min(mp.acosh(2 * r), u_max) if r > 0.5 else mp.mpf(0)
        if u_b > u_a:
            acc += mp.quad(lambda u: big_i(r / mp.cosh(u)) * mp.cosh(u),
                           mp.linspace(u_a, u_b, 4))
        if u_max > u_b:  # tau = cot(theta) on the far tail
            acc += mp.quad(lambda t: big_i(r * mp.sin(t)) / mp.sin(t) ** 2,
                           [mp.atan2(1, tau), mp.atan2(1, mp.sinh(u_b))])
        return 4 * mu / (mp.sqrt(mp.pi) * rho) * acc


@pytest.mark.parametrize("mu, rho, tau", GOLDEN_POINTS)
def test_total_matches_mpmath(mu, rho, tau):
    ref = _mp_total(mu, rho, tau)
    vb = phase_variance(_d(mu, rho, tau))
    err = float(abs(vb.total - ref))
    assert err <= 1e-14 * float(ref)
    assert vb.quadrature_error_estimate >= err


def test_gauss_legendre_rule_is_exact_for_its_degree():
    from gravphase.variance import gauss_legendre

    for n in (6, 10, 20, 24):
        rule = gauss_legendre(n)
        assert [t for t, _ in rule] == sorted(t for t, _ in rule)
        # int_0^1 x^k dx = 1/(k+1) for every k < 2n
        for k in range(2 * n):
            assert math.isclose(sum(w * t**k for t, w in rule), 1.0 / (k + 1),
                                rel_tol=1e-14)


# just above rho = sqrt(2)/2 the theta piece spans angles next to pi/2;
# just below it, the theta piece runs alone, all the way to pi/2
SEAM_POINTS = [(1.0, 0.70710678395716364, 0.00013079)] + [
    (mu, math.sqrt(0.5) * (1.0 + sign * 10.0**-k), tau)
    for sign in (1, -1)
    for k in (3, 6, 9, 12, 15)
    for mu, tau in ((1.0, 1e-6), (0.1, 1e-2), (10.0, 1.0), (1.0, 1e3))
]


@pytest.mark.parametrize("mu, rho, tau", SEAM_POINTS)
def test_total_matches_mpmath_near_seam(mu, rho, tau):
    test_total_matches_mpmath(mu, rho, tau)


def test_integrand_beyond_squared_overflow():
    # beta^2 overflows above 1.3e154, where I(beta) = beta - sqrt(pi)/2 is beta
    for b in (1e151, 1e200, 1e300):
        assert math.isclose(integrand_I(b * math.sqrt(2.0), 0.0), b, rel_tol=1e-15)


@pytest.mark.parametrize("rho", [1e155, 1.2e155, 1e160, 1e200, 1e250])
def test_saturated_variance_past_cosh_squared_overflow(rho):
    # from rho ~ 1.1e155 the head's (cosh u0)^2 overflows; at tau = 1e300 >> rho
    # the total is the ceiling F_inf = sqrt(2/pi) (2 ln rho + gamma + ln 2 - 2)
    # + O(rho^-2)
    v = phase_variance(_d(1.0, rho, 1e300))
    f_inf = math.sqrt(2.0 / math.pi) * (2.0 * math.log(rho) + 0.57721566490153286
                                        + math.log(2.0) - 2.0)
    assert math.isclose(v.total, f_inf, rel_tol=1e-14)
    assert math.isfinite(v.quadrature_error_estimate)


# one point per path of phase_variance, with the rule orders its total uses
# (beta <= 1/2 all the way at rho = 0.5; beta >= 6 all the way at rho = 100,
# tau = 1; at rho = 2 the theta piece is empty up to tau = 1 and present at
# tau = 10)
LAZY_POINTS = {
    "theta_only": ((1.0, 0.5, 1.0), {10}),
    "head_only": ((1.0, 100.0, 1.0), set()),
    "split": ((1.0, 2.0, 1.0), {28}),
    "split_theta_tail": ((1.0, 2.0, 10.0), {28, 10}),
}
LOWER_ORDER = {28: 24, 10: 6}


@pytest.fixture
def rule_orders(monkeypatch):
    """The n of every gauss_legendre(n) that the variance module requests."""
    import gravphase.variance as variance

    seen = []
    real = variance.gauss_legendre

    def recording(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr(variance, "gauss_legendre", recording)
    return seen


@pytest.mark.parametrize("point, orders", LAZY_POINTS.values(), ids=list(LAZY_POINTS))
def test_error_estimate_runs_lower_order_rules_only_when_read(point, orders, rule_orders):
    vb = phase_variance(_d(*point))
    assert set(rule_orders) == orders
    rule_orders.clear()
    first = vb.quadrature_error_estimate
    assert set(rule_orders) == {LOWER_ORDER[n] for n in orders}
    assert vb.quadrature_error_estimate.hex() == first.hex()
    assert first >= 0.0


@pytest.mark.parametrize("point", [p for p, _ in LAZY_POINTS.values()], ids=list(LAZY_POINTS))
def test_breakdown_pickles_bit_for_bit(point):
    import pickle

    vb = phase_variance(_d(*point))
    copy = pickle.loads(pickle.dumps(vb))
    for name in ("i7", "i8", "total", "quadrature_error_estimate"):
        assert getattr(copy, name).hex() == getattr(vb, name).hex()


def test_roots_request_only_the_high_order_rules(rule_orders):
    from gravphase.criteria import critical_length, damping_time
    from gravphase.units import CODATA2018, make_params

    a = 1e-6
    for mu in (0.5, 1.0, 5.0, 1e2, 1e4):
        m = (mu * CODATA2018.hbar**2 / (CODATA2018.G * a)) ** (1.0 / 3.0)
        for rho in (0.5, 2.0, 10.0, 1e3):
            damping_time(make_params(m, a, rho * a, 1.0))
        critical_length(m, a)
    assert set(rule_orders) == {28, 10}


def test_small_rho_total_at_largest_mu():
    # 4 mu / rho overflows, times an empty u piece that would give NaN; the
    # total is the leading term of its rho^2 series, mu rho^2 / (3 sqrt(pi))
    # at tau_max = 1, 1.8806e-33 (the next term is rho^2 = 1e-340 smaller)
    vb = phase_variance(_d(1e308, 1e-170, 1.0))
    assert math.isclose(vb.total, 1e308 * 1e-170 * 1e-170 / (3.0 * math.sqrt(math.pi)),
                        rel_tol=1e-14)
    assert math.isfinite(vb.quadrature_error_estimate)


def test_u_piece_factor_at_largest_mu():
    # 4 mu overflows from mu = 4.5e307; the u-piece factor divides mu first,
    # so the variance stays linear in mu up to the largest double
    vb = phase_variance(_d(1e308, 3.0, 1.0))
    assert vb.total == 7.470909922915282e+307
    assert math.isclose(vb.total, 1e308 * phase_variance(_d(1.0, 3.0, 1.0)).total,
                        rel_tol=1e-14)
    assert math.isfinite(vb.i8) and math.isfinite(vb.quadrature_error_estimate)
