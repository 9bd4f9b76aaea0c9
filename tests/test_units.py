import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravphase.units import (
    CODATA2018,
    NATURAL,
    DimensionlessParams,
    PhysicalConstants,
    make_params,
    nondimensionalize,
    redimensionalize,
    scaled_time,
    spreading_width,
    time_unit,
)


def test_codata_values():
    assert CODATA2018.G == 6.67430e-11
    assert CODATA2018.hbar == 1.0545718176461565e-34
    assert NATURAL.G == 1.0 and NATURAL.hbar == 1.0


def test_kappa_formula():
    m = 2.5e-17
    assert CODATA2018.kappa(m) == CODATA2018.G * m * m / CODATA2018.hbar


def test_constants_validation():
    with pytest.raises(ValueError, match="G"):
        PhysicalConstants(G=-1.0)
    with pytest.raises(ValueError, match="hbar"):
        PhysicalConstants(hbar=0.0)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(m=-1e-17, a=1e-6, R=0.0, T=1.0), "m"),
        (dict(m=1e-17, a=0.0, R=0.0, T=1.0), "a"),
        (dict(m=1e-17, a=1e-6, R=-1e-7, T=1.0), "R"),
        (dict(m=1e-17, a=1e-6, R=0.0, T=0.0), "T"),
        (dict(m=math.nan, a=1e-6, R=0.0, T=1.0), "m"),
        (dict(m=1e-17, a=math.inf, R=0.0, T=1.0), "a"),
    ],
)
def test_make_params_names_offending_field(kwargs, field):
    with pytest.raises(ValueError) as err:
        make_params(**kwargs)
    assert field in str(err.value)


def test_dimensionless_groups_formula():
    p = make_params(1e-17, 1e-7, 3e-8, 2.0)
    d = nondimensionalize(p)
    c = CODATA2018
    assert d.mu == c.G * p.m**3 * p.a / c.hbar**2
    assert d.rho == p.R / p.a
    assert d.tau_max == c.hbar * p.T / (p.m * p.a**2)


def test_dimensionless_validation():
    with pytest.raises(ValueError, match="mu"):
        DimensionlessParams(mu=0.0, rho=1.0, tau_max=1.0)
    with pytest.raises(ValueError, match="rho"):
        DimensionlessParams(mu=1.0, rho=-0.5, tau_max=1.0)
    with pytest.raises(ValueError, match="tau_max"):
        DimensionlessParams(mu=1.0, rho=1.0, tau_max=0.0)


def test_natural_units_identity():
    # with G = hbar = m = 1 the groups reduce to bare products
    p = make_params(1.0, 2.0, 3.0, 4.0)
    d = nondimensionalize(p, NATURAL)
    assert d.mu == 2.0
    assert d.rho == 1.5
    assert d.tau_max == 1.0


def test_overflow_raises():
    p = make_params(1e200, 1e200, 0.0, 1.0)
    with pytest.raises(OverflowError):
        nondimensionalize(p)


def test_underflow_raises():
    # tau underflows to zero for an absurdly heavy, wide packet
    p = make_params(1e250, 1e30, 0.0, 1e-300)
    with pytest.raises(OverflowError):
        nondimensionalize(p)


def test_tau_unit_underflow_raises():
    # m a^2 underflows to 0 although mu (6e-183) is still in range
    p = make_params(1e-30, 1e-150, 1e-150, 1.0)
    with pytest.raises(OverflowError, match="m a"):
        scaled_time(p.m, p.a, p.T)
    with pytest.raises(OverflowError, match="m a"):
        time_unit(p.m, p.a)
    with pytest.raises(OverflowError):
        nondimensionalize(p)
    assert time_unit(2.0, 3.0, NATURAL) == 18.0


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(1e-20, 1e-10),
    a=st.floats(1e-9, 1e-3),
    rho=st.floats(0.0, 50.0),
    tau=st.floats(1e-3, 1e3),
)
def test_round_trip_anchored_by_mass(m, a, rho, tau):
    p = make_params(m, a, rho * a, tau * m * a**2 / CODATA2018.hbar)
    d = nondimensionalize(p)
    q = redimensionalize(d, p.m)
    assert q.m == p.m
    assert math.isclose(q.a, p.a, rel_tol=1e-12)
    assert math.isclose(q.R, p.R, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(q.T, p.T, rel_tol=1e-12)


def test_spreading_width_initial_and_growth():
    p = make_params(1e-17, 1e-7, 0.0, 1.0)
    assert spreading_width(p, 0.0) == p.a**2
    t_unit = p.m * p.a**2 / CODATA2018.hbar
    # at t = t_unit the packet has doubled its squared width
    assert math.isclose(spreading_width(p, t_unit), 2.0 * p.a**2, rel_tol=1e-12)
    with pytest.raises(ValueError, match="t"):
        spreading_width(p, -1.0)


def test_spreading_width_natural_units():
    p = make_params(1.0, 1.0, 0.0, 1.0)
    assert spreading_width(p, 3.0, NATURAL) == 1.0 + 9.0
