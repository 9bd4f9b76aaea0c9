import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravphase.criteria import (
    T_CAP_DEFAULT,
    BracketError,
    Method,
    Regime,
    Threshold,
    classify,
    critical_length,
    critical_mass,
    damping_time,
    damping_time_short,
    decoherence_summary,
    width_from_density,
)
from gravphase.units import (
    CODATA2018, DimensionlessParams, coupling, make_params, nondimensionalize,
)
from gravphase.variance import phase_variance

HBAR = CODATA2018.hbar
G = CODATA2018.G

# m chosen so that mu = G m^3 a / hbar^2 hits a target at width a
def _mass_for_mu(mu, a):
    return (mu * HBAR**2 / (G * a)) ** (1.0 / 3.0)


# (3 sqrt(2 pi) pi^2 / 2)^(1/4): large-mu limit of rho_c mu^(1/4),
# frozen from a 40-digit evaluation
MACRO_CONSTANT = 2.4681425242288561
CRITICAL_MASS_1000 = 1.0683974442934248e-17


def test_threshold_default():
    assert Threshold().variance_threshold == math.pi**2
    with pytest.raises(ValueError):
        Threshold(variance_threshold=-1.0)


def test_damping_time_short_agreement():
    # deep in the frozen-width regime the root-found time matches the
    # closed form; mu = 1e4 keeps T well below the spreading time
    a = 1e-6
    m = _mass_for_mu(1e4, a)
    p = make_params(m, a, a, 1.0)
    th = Threshold()
    t_full = damping_time(p, th)
    t_short = damping_time_short(p, threshold=th.variance_threshold)
    assert t_full < 0.01 * m * a**2 / HBAR
    assert math.isclose(t_full, t_short, rel_tol=5e-4)


def test_damping_time_decreases_with_mass():
    a = 1e-6
    times = [
        damping_time(make_params(_mass_for_mu(mu, a), a, a, 1.0))
        for mu in (1e3, 1e4, 1e5)
    ]
    assert times[0] > times[1] > times[2]


def test_damping_time_zero_separation_sentinel():
    p = make_params(1e-16, 1e-6, 0.0, 1.0)
    assert damping_time(p, t_cap=1e6) == 1e6


def test_damping_time_tau_unit_underflow_raises():
    # m a^2 underflows to 0 while mu (6e-183) is still in range
    with pytest.raises(OverflowError, match="m a"):
        damping_time(make_params(1e-30, 1e-150, 1e-150, 1.0))


def test_damping_time_saturation_sentinel():
    # micro regime: the variance saturates below the threshold, so the
    # cap comes back instead of a root
    a = 1e-6
    p = make_params(_mass_for_mu(0.01, a), a, 10.0 * a, 1.0)
    assert damping_time(p, t_cap=1e12) == 1e12


def test_damping_time_where_the_cap_lies_past_tau_1e154():
    # rho = 0.5 and a time unit of 1.1e-151 s put the cap at tau = 9e168,
    # past 1.34e154 where 1 + tau^2 overflows; the variance there is the
    # saturated one, far above pi^2, and the root lies at tau = 0.16, 1.2%
    # above the short-time closed form
    p = make_params(1.18e15, 1e-100, 5e-101, 1.0)
    th = Threshold()
    t = damping_time(p, th)
    assert t != T_CAP_DEFAULT
    at_root = nondimensionalize(make_params(p.m, p.a, p.R, t))
    assert abs(phase_variance(at_root).total / th.variance_threshold - 1.0) <= 1e-9
    assert math.isclose(t, damping_time_short(p, threshold=th.variance_threshold),
                        rel_tol=0.02)


def test_damping_time_short_zero_separation():
    p = make_params(1e-16, 1e-6, 0.0, 1.0)
    assert damping_time_short(p) == math.inf


def test_damping_time_short_small_rho_series_continuity():
    # the series branch below rho = 0.1 must join the direct formula
    a = 1e-6
    m = 1e-16
    t1 = damping_time_short(make_params(m, a, 0.0999999 * a, 1.0))
    t2 = damping_time_short(make_params(m, a, 0.1000001 * a, 1.0))
    assert math.isclose(t1, t2, rel_tol=1e-5)


def test_critical_length_macro_constant():
    a = 1e-6
    mu = 1e8
    clr = critical_length(_mass_for_mu(mu, a), a)
    rho_c = clr.l_c / a
    assert clr.method is Method.FULL_QUADRATURE
    assert math.isclose(rho_c * mu**0.25, MACRO_CONSTANT, rel_tol=1e-4)
    # asymptote field carries the closed-form macro law
    assert clr.asymptote_method is Method.MACRO_ASYMPTOTIC
    assert math.isclose(clr.asymptote, a * mu**-0.25, rel_tol=1e-12)


def test_critical_length_macro_a_scaling():
    # L_c with a^(3/4) at fixed large mass: one decade, endpoints
    m = _mass_for_mu(1e6, 1e-6)
    l1 = critical_length(m, 1e-6).l_c
    l2 = critical_length(m, 1e-5).l_c
    slope = math.log10(l2 / l1)
    assert abs(slope - 0.75) < 0.02


def test_critical_length_micro_asymptote_field():
    a = 1e-6
    clr = critical_length(_mass_for_mu(0.5, a), a)
    assert clr.asymptote_method is Method.MICRO_ASYMPTOTIC
    assert math.isclose(clr.asymptote, a * 0.5**-0.5, rel_tol=1e-12)


def test_critical_length_deep_micro_not_bracketable():
    # saturation pushes the root beyond any representable separation
    a = 1e-6
    with pytest.raises(BracketError) as err:
        critical_length(_mass_for_mu(1e-8, a), a)
    lo, hi = err.value.scanned
    assert hi > lo > 0.0


def test_boundary_identity_at_mu_one():
    # at mu = 1 both asymptotic laws collapse to L_c = a = hbar^2 / G m^3
    a = 1e-6
    m = _mass_for_mu(1.0, a)
    l_chr = HBAR**2 / (G * m**3)
    macro = l_chr**0.25 * a**0.75
    micro = math.sqrt(l_chr * a)
    assert math.isclose(macro, a, rel_tol=1e-12)
    assert math.isclose(micro, a, rel_tol=1e-12)
    assert math.isclose(macro, micro, rel_tol=1e-12)


def test_critical_mass_frozen_value():
    assert math.isclose(critical_mass(1000.0), CRITICAL_MASS_1000, rel_tol=1e-13)
    assert 1e-18 <= critical_mass(1000.0) <= 1e-16


def test_critical_mass_density_scaling():
    # m_c scales as density^(1/10)
    ratio = critical_mass(8000.0) / critical_mass(1000.0)
    assert math.isclose(ratio, 8.0**0.1, rel_tol=1e-12)
    with pytest.raises(ValueError, match="density"):
        critical_mass(0.0)


def test_width_from_density_round_trip():
    m, rho_d = 3e-15, 2500.0
    a = width_from_density(m, rho_d)
    assert math.isclose(4.0 / 3.0 * math.pi * a**3 * rho_d, m, rel_tol=1e-12)


def test_classify_regimes():
    rho_d = 1000.0
    m_c = critical_mass(rho_d)
    assert classify(1e-3 * m_c, rho_d) is Regime.QUANTUM
    assert classify(1e3 * m_c, rho_d) is Regime.CLASSICAL
    assert classify(m_c, rho_d) is Regime.BOUNDARY


def test_classify_self_consistency_at_critical_mass():
    # at m = m_c the derived width satisfies mu = 1 exactly by construction
    rho_d = 1000.0
    m_c = critical_mass(rho_d)
    a = width_from_density(m_c, rho_d)
    mu = nondimensionalize(make_params(m_c, a, 0.0, 1.0)).mu
    assert math.isclose(mu, 1.0, rel_tol=1e-12)


@settings(max_examples=25, deadline=None)
@given(m=st.floats(1e-18, 1e-14), rho_d=st.floats(100.0, 20000.0))
def test_classify_monotone_in_mass(m, rho_d):
    # heavier objects can only move toward the classical side
    r1 = classify(m, rho_d)
    r2 = classify(m * 10.0, rho_d)
    order = {Regime.QUANTUM: 0, Regime.BOUNDARY: 1, Regime.CLASSICAL: 2}
    assert order[r2] >= order[r1]


def test_decoherence_summary_bundles():
    a = 1e-6
    m = _mass_for_mu(1e4, a)
    p = make_params(m, a, a, 1.0)
    s = decoherence_summary(p, density=1000.0)
    assert s.damping_time == damping_time(p)
    assert s.critical_length == critical_length(m, a).l_c
    assert s.critical_mass == critical_mass(1000.0)
    assert s.regime is classify(m, 1000.0, a=a)


@pytest.mark.xfail(
    strict=True,
    reason="the full solution is not sandwiched by the asymptotic laws near "
    "mu = 1: saturation inflates rho_c far beyond both closed forms",
)
def test_critical_length_between_asymptotes_mid_mu():
    a = 1e-6
    for mu in (0.1, 1.0, 10.0):
        m = _mass_for_mu(mu, a)
        full = critical_length(m, a).l_c
        macro = a * mu**-0.25
        micro = a * mu**-0.5
        lo, hi = min(macro, micro), max(macro, micro)
        assert lo / 3.0 <= full <= hi * 3.0


@pytest.mark.xfail(
    strict=True,
    reason="for mu <= 0.01 the variance saturates two orders of magnitude "
    "below the pi^2 threshold, so no finite damping time exists and the "
    "closed-form micro estimate cannot be matched within a factor of 3",
)
def test_micro_damping_time_within_factor_three():
    a = 1e-6
    m = _mass_for_mu(0.01, a)
    p = make_params(m, a, 10.0 * a, 1.0)
    t_cap = 1e18
    t_full = damping_time(p, t_cap=t_cap)
    assert t_full < t_cap, "variance never reaches the threshold"
    t_micro = HBAR * a / (G * m**2)
    assert t_full / t_micro <= 3.0 and t_micro / t_full <= 3.0


def test_brentq_known_root_within_brentq_tolerance():
    from gravphase.criteria import _brentq

    root = 2.0 ** (1.0 / 3.0)
    for xtol, rtol in ((2e-12, 1e-10), (1e-3, 1e-10), (2e-12, 1e-6), (1e-300, 1e-15)):
        x = _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, xtol=xtol, rtol=rtol)
        # brentq stops once the bracket is within xtol + rtol |x|
        assert abs(x - root) <= xtol + rtol * abs(x)
    # near zero the absolute tolerance governs
    x = _brentq(lambda x: x - 1e-13, -1.0, 1.0)
    assert abs(x - 1e-13) <= 2e-12


def test_brentq_same_root_and_calls_as_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    from gravphase.criteria import _brentq

    fns = [lambda x: x**3 - 2.0, lambda x: math.cos(x) - x,
           lambda x: math.tanh(50.0 * (x - 0.7)), lambda x: math.exp(x) - 2.0]
    for f in fns:
        for a, b in ((-1.0, 2.0), (0.0, 1.0), (-3.0, 5.0)):
            if (f(a) < 0.0) == (f(b) < 0.0):
                continue
            calls = [[], []]
            ours = _brentq(lambda x: calls[0].append(x) or f(x), a, b)
            ref = optimize.brentq(lambda x: calls[1].append(x) or f(x), a, b, rtol=1e-10)
            assert ours == ref
            assert calls[0] == calls[1]


def test_brentq_rejects_bad_bracket_and_reports_nonconvergence():
    from gravphase.criteria import _brentq

    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RuntimeError, match="3 iterations"):
        _brentq(lambda x: x**3 - 2.0, 0.0, 2.0, maxiter=3)


def test_damping_time_short_matches_mpmath():
    # a = 1 m makes rho = R exactly; the reference is the closed form at 40 digits
    mp = pytest.importorskip("mpmath")
    m = 1e-16
    for i in range(26):
        rho = 0.1 + 0.01 * i
        with mp.workdps(40):
            r = mp.mpf(rho)
            bracket = mp.sqrt(2 / mp.pi) - mp.erf(r / mp.sqrt(2)) / r
            ref = mp.mpf(HBAR) / (mp.mpf(G) * mp.mpf(m) ** 2) / bracket
        t = damping_time_short(make_params(m, 1.0, rho, 1.0))
        assert abs(t - float(ref)) <= 2e-14 * float(ref), rho


def test_damping_time_short_far_separation():
    # R / a beyond 1e154, where (R / a)^2 overflows: the bracket is sqrt(2/pi) / a
    m, a = 1e-16, 1e-160
    t = damping_time_short(make_params(m, a, 1e-5, 1.0))
    assert math.isclose(t, HBAR * a / (G * m**2 * math.sqrt(2.0 / math.pi)), rel_tol=1e-14)


def test_roots_evaluate_no_point_twice(monkeypatch):
    import gravphase.criteria as criteria

    seen = []
    real = criteria.phase_variance

    def counted(d):
        seen.append((d.mu, d.rho, d.tau_max))
        return real(d)

    monkeypatch.setattr(criteria, "phase_variance", counted)
    a = 1e-6
    for mu in (0.5, 1.0, 5.0, 1e2, 1e4, 1e8):
        m = _mass_for_mu(mu, a)
        pair = make_params(m, a, 10.0 * a, 1.0)
        # a cap just above the root makes the scan end on the cap itself
        # (at mu = 5 it steps from tau0 = 1.41 straight to the cap, 2.14)
        t_cap = 1.001 * damping_time(pair)
        for solve in (lambda: critical_length(m, a), lambda: damping_time(pair),
                      lambda: damping_time(pair, t_cap=t_cap)):
            seen.clear()
            solve()
            assert seen and len(set(seen)) == len(seen)


def test_critical_length_root_between_last_scan_point_and_cap():
    # at mu = 0.02691 the root sits near rho = 9.5e99, above the last
    # eightfold scan point below the 1e100 cap (5.4e99)
    a = 1e-6
    m = _mass_for_mu(0.02691, a)
    rho_c = critical_length(m, a).l_c / a
    assert 5.5e99 < rho_c <= 1e100
    d = DimensionlessParams(mu=coupling(m, a), rho=rho_c, tau_max=rho_c**2)
    assert math.isclose(phase_variance(d).total, math.pi**2, rel_tol=1e-9)


@pytest.mark.parametrize("mu", [1e14, 6e14, 1e21, 6e50, 1e100])
def test_damping_time_below_first_scan_point(mu):
    # the root lies far below tau = 1, deep in the linear regime, where the
    # root-found time is the closed form at the same threshold
    a = 1e-6
    m = _mass_for_mu(mu, a)
    p = make_params(m, a, 10.0 * a, 1.0)
    t_short = damping_time_short(p, threshold=math.pi**2)
    assert math.isclose(damping_time(p), t_short, rel_tol=1e-9)


@pytest.mark.parametrize("mu", [6e34, 6e50])
def test_critical_length_below_first_scan_point(mu):
    # rho_c ~ 2.47 mu^(-1/4) lies far below 1e-3, and within 1e-10 of the
    # scan's first point, its macro limit
    a = 1e-6
    m = _mass_for_mu(mu, a)
    rho_c = critical_length(m, a).l_c / a
    d = DimensionlessParams(mu=coupling(m, a), rho=rho_c, tau_max=rho_c**2)
    assert math.isclose(phase_variance(d).total, math.pi**2, rel_tol=1e-9)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0**x)


@settings(max_examples=300, deadline=None)
@given(m=_log_uniform(-60, 103), a=_log_uniform(-320, 300), rho=_log_uniform(-20, 300),
       threshold=_log_uniform(-3, 3))
def test_roots_end_in_bounded_work(m, a, rho, threshold):
    # each root returns or raises BracketError or OverflowError within 1000
    # variance calls, so a spinning scan fails here instead of hanging
    import gravphase.criteria as criteria

    calls = [0]
    real = criteria.phase_variance

    def counted(d):
        calls[0] += 1
        if calls[0] > 1000:
            pytest.fail(f"more than 1000 variance calls, at {d}")
        return real(d)

    th = Threshold(variance_threshold=threshold)
    solves = [lambda: critical_length(m, a, th=th).l_c]
    try:
        pair = make_params(m, a, rho * a, 1.0)
        solves.append(lambda: damping_time(pair, th))
    except ValueError:  # R = rho a overflows
        pass
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria, "phase_variance", counted)
        for solve, bound in zip(solves, (math.inf, T_CAP_DEFAULT)):
            calls[0] = 0
            try:
                value = solve()
            except (BracketError, OverflowError):
                continue
            assert 0.0 <= value <= bound


def test_damping_time_in_the_logarithmic_regime_starts_at_the_i7_bound(monkeypatch):
    # tau >> 1 at large rho, where the variance grows like ln tau: the
    # linear-regime seed lies decades below the root, the I7 bound does not
    import gravphase.criteria as criteria

    calls = [0]
    real = criteria.phase_variance

    def counted(d):
        calls[0] += 1
        return real(d)

    m, a, threshold = 3.57e27, 2.61e-144, 0.376
    pair = make_params(m, a, 2.57e228 * a, 1.0)
    monkeypatch.setattr(criteria, "phase_variance", counted)
    t = damping_time(pair, Threshold(variance_threshold=threshold))
    assert calls[0] <= 8
    at_root = make_params(m, a, pair.R, t)
    assert abs(real(nondimensionalize(at_root)).total / threshold - 1.0) <= 1e-10


def test_critical_length_near_largest_mu():
    # mu = 1.57e308, where sqrt(2) mu overflows: the lower bound rho_0 must
    # still be formed without overflow
    m, a = 5.844151499172407e74, 1.310009072459035e26
    mu = coupling(m, a)
    clr = critical_length(m, a)
    assert clr.method is Method.FULL_QUADRATURE
    assert math.isclose(clr.l_c / a, MACRO_CONSTANT * mu**-0.25, rel_tol=1e-9)


@pytest.mark.parametrize("m, a", [(math.nan, 1e-7), (1e-17, math.inf), (math.inf, 1e-7),
                                  (1e-17, -1e-7)])
def test_critical_length_rejects_non_finite_inputs(m, a):
    field = "mass" if not 0 < m < math.inf else "width"
    with pytest.raises(ValueError, match=field):
        critical_length(m, a)


@pytest.mark.parametrize("density", [0.0, -1.0, math.nan, math.inf])
def test_classify_given_width_ignores_density(density):
    # with the width given, the density is never used
    m, a = 1e-17, 1e-7
    assert classify(m, density, a=a) is classify(m, 1000.0, a=a)


@pytest.mark.parametrize("density", [0.0, -1.0, math.nan, math.inf])
def test_classify_derived_width_rejects_bad_density(density):
    with pytest.raises(ValueError, match="density"):
        classify(1e-17, density)


EULER_GAMMA = 0.57721566490153286


def _closed_form_rho_c(mu):
    # ln rho_c = pi^2 / (2 sqrt(2/pi) mu) + 1 - (gamma + ln 2) / 2
    return math.exp(math.pi**2 / (2.0 * math.sqrt(2.0 / math.pi) * mu)
                    + 1.0 - (EULER_GAMMA + math.log(2.0)) / 2.0)


def _root_found_rho_c(mu):
    # the scan plus Brent that critical_length runs where rho_c < 1e6
    import gravphase.criteria as criteria

    g = lambda rho: criteria._total(mu, rho, rho * rho) - math.pi**2
    rho_0 = (math.pi**2 / mu * 3.0 * math.sqrt(math.pi / 2.0)) ** 0.25
    return criteria._root(g, rho_0, 1e100, "critical length")


def _mp_variance_on_diagonal(mu, rho):
    """DeltaPhi^2(mu, rho, tau = rho^2) at 30 digits as i7 - i8, for rho >= 1e3.

    i7 = (2 sqrt 2 / sqrt pi) mu asinh(tau) and
    i8 = (2 mu / rho) int_0^asinh(tau) erf(rho / (sqrt 2 cosh u)) cosh u du;
    below u_9, where the erf argument is at least 9, erf = 1 to 1e-36.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        mu, rho = mp.mpf(mu), mp.mpf(rho)
        s2 = mp.sqrt(2)
        u_max = mp.asinh(rho * rho)
        i7 = 2 * s2 / mp.sqrt(mp.pi) * mu * u_max
        u_9 = mp.acosh(rho / (9 * s2))
        pts = [u_9, mp.acosh(rho / s2), mp.acosh(10 * rho / s2), u_max]
        tail = mp.quad(lambda u: mp.erf(rho / (s2 * mp.cosh(u))) * mp.cosh(u), pts)
        return i7 - 2 * mu / rho * (mp.sinh(u_9) + tail)


@pytest.mark.parametrize("mu", [0.4598, 0.3, 0.1, 0.05, 0.03])
def test_critical_length_closed_form_meets_threshold(mu):
    # mu = 0.46 itself lies just above the crossover (rho_c = 0.995e6)
    a = 1e-6
    m = _mass_for_mu(mu, a)
    clr = critical_length(m, a)
    assert clr.method is Method.MICRO_CLOSED_FORM
    rho_c = clr.l_c / a
    ref = _mp_variance_on_diagonal(coupling(m, a), rho_c)
    assert abs(float(ref) - math.pi**2) <= 1e-12 * math.pi**2


@pytest.mark.parametrize("mu", [0.4596, 0.4598, 0.45985, 0.4599, 0.46, 0.4605])
def test_critical_length_closed_form_matches_root_finder_at_crossover(mu):
    # the crossover rho_c = 1e6 sits at mu = 0.459822 for the pi^2 threshold
    a = 1e-6
    m = _mass_for_mu(mu, a)
    mu = coupling(m, a)
    closed, found = _closed_form_rho_c(mu), _root_found_rho_c(mu)
    assert math.isclose(closed, found, rel_tol=1e-10)
    clr = critical_length(m, a)
    want = Method.MICRO_CLOSED_FORM if closed >= 1e6 else Method.FULL_QUADRATURE
    assert clr.method is want
    want_rho = closed if want is Method.MICRO_CLOSED_FORM else found
    assert math.isclose(clr.l_c / a, want_rho, rel_tol=1e-15)


def test_critical_length_monotone_in_mass_across_crossover():
    a = 1e-6
    rows = [critical_length(_mass_for_mu(0.459 + 2e-5 * i, a), a) for i in range(81)]
    assert {r.method for r in rows} == {Method.MICRO_CLOSED_FORM, Method.FULL_QUADRATURE}
    lengths = [r.l_c for r in rows]
    assert all(l1 > l2 for l1, l2 in zip(lengths, lengths[1:]))


@pytest.mark.parametrize("mu, threshold, method", [
    (0.9, 2.0 * math.pi**2, Method.MICRO_CLOSED_FORM),  # rho_c = 1.4e6
    (0.9, math.pi**2, Method.FULL_QUADRATURE),
    (0.1, 1.0, Method.FULL_QUADRATURE),  # rho_c = 760
    (0.02, 0.5 * math.pi**2, Method.MICRO_CLOSED_FORM),
])
def test_critical_length_branch_follows_threshold(mu, threshold, method):
    a = 1e-6
    m = _mass_for_mu(mu, a)
    clr = critical_length(m, a, th=Threshold(variance_threshold=threshold))
    assert clr.method is method
    rho_c = clr.l_c / a
    d = DimensionlessParams(mu=coupling(m, a), rho=rho_c, tau_max=rho_c**2)
    assert math.isclose(phase_variance(d).total, threshold, rel_tol=1e-9)


def test_critical_length_cap_unchanged_by_closed_form():
    # rho_c = 1e100 at mu = 0.0269024...; a relative 1e-9 either side moves
    # ln rho_c by 2.3e-7, which both the closed form and the scan resolve
    a = 1e-6
    mu_cap = math.pi**2 / (2.0 * math.sqrt(2.0 / math.pi)) / (
        math.log(1e100) - 1.0 + (EULER_GAMMA + math.log(2.0)) / 2.0)
    inside = _mass_for_mu(mu_cap * (1.0 + 1e-9), a)
    rho_c = critical_length(inside, a).l_c / a
    assert 0.9999e100 < rho_c <= 1e100
    assert math.isclose(rho_c, _root_found_rho_c(coupling(inside, a)), rel_tol=1e-10)
    past = _mass_for_mu(mu_cap * (1.0 - 1e-9), a)
    with pytest.raises(BracketError, match="critical length root not bracketable"):
        _root_found_rho_c(coupling(past, a))
    with pytest.raises(BracketError, match="critical length root not bracketable") as err:
        critical_length(past, a)
    assert err.value.scanned == (1e6, 1e100)


def test_damping_time_that_underflows_raises():
    # the root tau is positive, but tau times the time unit m a^2 / hbar
    # underflows to 0 s: no damping time is representable
    pair = make_params(5.02e93, 5.48e-133, 2.0988e-22, 1.0)
    th = Threshold(variance_threshold=72.5)
    with pytest.raises(OverflowError, match="damping time underflows"):
        damping_time(pair, th)
    with pytest.raises(OverflowError, match="short-time damping time underflows"):
        damping_time_short(pair, threshold=th.variance_threshold)


@pytest.mark.parametrize("m, a, R", [(1e-14, 1e-7, 1e-300), (1e-25, 1e100, 1e-100)])
def test_short_damping_time_that_overflows_raises(m, a, R):
    # the true times are about 1e584 s and 1e525 s; inf is kept for R = 0
    pair = make_params(m, a, R, 1.0)
    with pytest.raises(OverflowError, match="short-time damping time overflows"):
        damping_time_short(pair)
    assert damping_time_short(make_params(m, a, 0.0, 1.0)) == math.inf


@pytest.mark.parametrize("m, how", [(1e-200, "overflows"), (1e200, "underflows")])
def test_short_damping_time_with_mass_squared_out_of_range_raises(m, how):
    # m^2 underflows to 0 (ZeroDivisionError) or overflows (OverflowError)
    # before any range check; the times are about 1e377 s and 1e-423 s
    with pytest.raises(OverflowError, match=f"short-time damping time {how}"):
        damping_time_short(make_params(m, 1e-7, 1e-6, 1.0))


def test_short_damping_time_with_mass_squared_out_of_range_is_finite_where_the_time_is():
    # m^2 underflows, but a width of 1e-300 m brings the time back in range:
    # at R = a the time goes as a / m^2, which is 1e100 in both calls
    t = damping_time_short(make_params(1e-200, 1e-300, 1e-300, 1.0))
    ref = damping_time_short(make_params(1e-100, 1e-100, 1e-100, 1.0))
    assert math.isclose(t, ref, rel_tol=1e-14)


def test_short_damping_time_with_subnormal_mass_squared_keeps_its_precision():
    # G m^2 is subnormal from m of about 1.8e-149 down to 2.7e-157: the
    # time must still go exactly as 1 / m^2 there
    ms = [1e-140, 1e-145, 1e-150, 1e-155, 1e-160]
    scaled = [damping_time_short(make_params(m, 1e-7, 1e-6, 1.0)) * m * m for m in ms]
    for value in scaled[1:]:
        assert math.isclose(value, scaled[0], rel_tol=1e-14)
