import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravphase import oracle
from gravphase.oracle import (
    erf_identity_check,
    i4_closed_form,
    i6_closed_form,
    mc_i4_spatial,
    mc_i6_spatial,
    sn_cancellation_check,
)

N_FAST = 10**4
N_MED = 10**5


def test_i4_closed_form_values():
    assert math.isclose(i4_closed_form(1.0), math.sqrt(2.0 / math.pi), rel_tol=1e-15)
    # scales as C1^(-1/2)
    assert math.isclose(
        i4_closed_form(4.0), 0.5 * i4_closed_form(1.0), rel_tol=1e-15
    )


def test_i6_closed_form_limits():
    # R -> 0: erf(x) ~ 2x/sqrt(pi), so i6 -> -2 sqrt(2/(pi C1)) = -2 i4
    small = i6_closed_form(1.0, 1e-8)
    assert math.isclose(small, -2.0 * i4_closed_form(1.0), rel_tol=1e-8)
    # R -> inf: erf -> 1, so i6 -> -2/R
    assert math.isclose(i6_closed_form(1.0, 50.0), -2.0 / 50.0, rel_tol=1e-12)


@pytest.mark.parametrize("c1", [0.25, 1.0, 4.0])
def test_mc_i4_matches_closed_form(c1):
    est = mc_i4_spatial(c1, N_MED, seed=42)
    target = i4_closed_form(c1)
    assert abs(est.value - target) < 3.0 * est.standard_error
    assert abs(est.value - target) <= 0.01 * target
    assert est.n_samples == N_MED and est.seed == 42


@pytest.mark.parametrize("ratio", [0.5, 1.0, 3.0])
def test_mc_i6_matches_closed_form(ratio):
    est = mc_i6_spatial(1.0, ratio, N_MED, seed=42)
    target = i6_closed_form(1.0, ratio)
    assert abs(est.value - target) < 3.0 * est.standard_error
    assert abs(est.value - target) <= 0.01 * abs(target)


def test_mc_determinism_and_seed_sensitivity():
    a = mc_i4_spatial(1.0, N_FAST, seed=7)
    b = mc_i4_spatial(1.0, N_FAST, seed=7)
    c = mc_i4_spatial(1.0, N_FAST, seed=8)
    assert a == b
    assert c.value != a.value


def test_mc_worker_count_invariance():
    # fixed batch decomposition means the thread count cannot change bits
    serial = mc_i4_spatial(1.0, 3 * 10**5, seed=11, workers=1)
    threaded = mc_i4_spatial(1.0, 3 * 10**5, seed=11, workers=4)
    assert serial == threaded
    s6 = mc_i6_spatial(1.0, 1.5, 3 * 10**5, seed=11, workers=1)
    t6 = mc_i6_spatial(1.0, 1.5, 3 * 10**5, seed=11, workers=3)
    assert s6 == t6


def test_cancellation_check_worker_count_invariance():
    # its four single-density streams run through the same batch kernel
    one, three = (sn_cancellation_check(1.0, 1.0, N_PARTIAL, 23, workers=w) for w in (1, 3))
    assert one == three


def test_mc_se_scales_as_inverse_sqrt_n():
    se_small = mc_i4_spatial(1.0, N_FAST, seed=3).standard_error
    se_big = mc_i4_spatial(1.0, 16 * N_FAST, seed=3).standard_error
    assert math.isclose(se_big / se_small, 0.25, rel_tol=0.15)


def test_mc_se_matches_population_value():
    # Var(1/|w|) = (1 - 2/pi)/sigma^2 with sigma^2 = C1 for the i4 kernel
    est = mc_i4_spatial(1.0, N_MED, seed=5)
    predicted = math.sqrt((1.0 - 2.0 / math.pi) / 1.0 / N_MED)
    assert math.isclose(est.standard_error, predicted, rel_tol=0.05)


def test_cancellation_report():
    rep = sn_cancellation_check(1.0, 1.0, N_MED, seed=42)
    # the analytic route is translation invariance, exact by construction
    assert rep.analytic_difference == 0.0
    # i2 realizes the change of variables that maps it onto i1
    assert rep.i2 == rep.i1
    assert math.isclose(rep.ratio_i3_i1, -2.0, rel_tol=0.02)
    assert abs(rep.sum_value) < 3.0 * rep.combined_se
    assert rep.combined_se > 0.0
    assert rep.n_samples == N_MED


def test_cancellation_deterministic():
    r1 = sn_cancellation_check(0.5, 2.0, N_FAST, seed=9)
    r2 = sn_cancellation_check(0.5, 2.0, N_FAST, seed=9)
    assert r1 == r2


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**63 - 1))
def test_mc_deterministic_for_any_seed(seed):
    assert mc_i4_spatial(2.0, N_FAST, seed) == mc_i4_spatial(2.0, N_FAST, seed)


@pytest.mark.parametrize("ratio", [0.1, 1.0, 5.0])
def test_erf_identity_residual(ratio):
    assert erf_identity_check(ratio, 1.0) < 1e-12


def test_erf_identity_other_widths():
    for c1 in (0.25, 4.0):
        assert erf_identity_check(1.0, c1) < 1e-12


def test_mc_argument_validation():
    with pytest.raises(ValueError, match="C1"):
        mc_i4_spatial(-1.0, N_FAST, seed=1)
    with pytest.raises(ValueError, match="samples"):
        mc_i4_spatial(1.0, 100, seed=1)
    with pytest.raises(ValueError, match="R"):
        mc_i6_spatial(1.0, -0.5, N_FAST, seed=1)


def test_erf_identity_far_separation():
    # panels cover only [c - 15, c + 15] once c is large
    assert erf_identity_check(1e4, 1.0) < 1e-12
    assert erf_identity_check(40.0, 0.5) < 1e-12
    assert erf_identity_check(0.0, 1.0) == 0.0


N_PARTIAL = 3 * oracle._BATCH + 17  # three full batches and a partial one
C1S = (0.25, 1.0, 4.0)
RS = (0.5, 0.8, 1.0, 3.0)


@pytest.mark.parametrize("workers", [1, 3])
def test_multi_point_calls_equal_single_calls(workers):
    shared4 = mc_i4_spatial(C1S, N_PARTIAL, 13, workers=workers)
    assert shared4 == [mc_i4_spatial(c, N_PARTIAL, 13, workers=workers) for c in C1S]
    shared6 = mc_i6_spatial(1.7, RS, N_PARTIAL, 13, workers=workers)
    assert shared6 == [mc_i6_spatial(1.7, r, N_PARTIAL, 13, workers=workers) for r in RS]
    # a one-element sequence is a list of one; a scalar stays a scalar
    assert mc_i4_spatial([2.0], N_FAST, 13) == [mc_i4_spatial(2.0, N_FAST, 13)]


def test_multi_point_argument_validation():
    with pytest.raises(ValueError, match="C1"):
        mc_i4_spatial((1.0, 0.0), N_FAST, seed=1)
    with pytest.raises(ValueError, match="R"):
        mc_i6_spatial(1.0, (0.5, -0.5), N_FAST, seed=1)
    with pytest.raises(ValueError, match="at least one"):
        mc_i4_spatial((), N_FAST, seed=1)


@pytest.mark.parametrize("workers", [1, 3])
def test_persistent_scratch_leaves_no_trace(workers, monkeypatch):
    # each thread keeps its draw buffers from call to call: a short call
    # between two long ones must give what calls on fresh buffers give
    sizes = (N_PARTIAL, N_FAST, N_PARTIAL)
    for call in (lambda n: mc_i6_spatial(1.0, RS, n, 31, workers=workers),
                 lambda n: sn_cancellation_check(1.0, 1.0, n, 31, workers=workers)):
        reused = [call(n) for n in sizes]
        fresh = []
        for n in sizes:
            monkeypatch.setattr(oracle, "_scratch", threading.local())
            fresh.append(call(n))
        assert reused == fresh


def _value_se(est):
    return est.value, est.standard_error


def _sum_combined_se(rep):
    # the deterministic terms cancel exactly: the target is 0
    return rep.sum_value, rep.combined_se


@pytest.mark.parametrize("estimate, target", [
    (lambda seed: _value_se(mc_i4_spatial(0.25, 2 * N_FAST, seed, workers=1)),
     i4_closed_form(0.25)),
    (lambda seed: _value_se(mc_i6_spatial(1.0, 1.0, 2 * N_FAST, seed, workers=1)),
     i6_closed_form(1.0, 1.0)),
    (lambda seed: _value_se(mc_i6_spatial(1.0, 3.0, 2 * N_FAST, seed, workers=1)),
     i6_closed_form(1.0, 3.0)),
    (lambda seed: _sum_combined_se(sn_cancellation_check(1.0, 1.0, 2 * N_FAST, seed, workers=1)),
     0.0),
], ids=["i4", "i6", "i6-R3", "cancellation"])
def test_mc_pulls_across_seeds_are_standard(estimate, target):
    # (value - target) / SE over 200 independent seeds is centred, with unit
    # spread: the reported standard error is calibrated
    pulls = [(value - target) / se for value, se in map(estimate, range(200))]
    mean = math.fsum(pulls) / len(pulls)
    sd = math.sqrt(math.fsum((p - mean) ** 2 for p in pulls) / (len(pulls) - 1))
    assert abs(mean) < 4.0 / math.sqrt(len(pulls))
    assert 0.8 < sd < 1.2


def test_i4_rows_are_exact_power_of_two_rescalings():
    # the sampling scales sqrt(C1) = 1/2, 1, 2 divide one shared draw
    quarter, one, four = mc_i4_spatial(C1S, N_PARTIAL, 17, workers=1)
    assert quarter.value == 2.0 * one.value and four.value == 0.5 * one.value
    assert quarter.standard_error == 2.0 * one.standard_error
    assert four.standard_error == 0.5 * one.standard_error
