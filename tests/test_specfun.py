"""Special-function layer against independent oracles.

mpmath supplies the gamma oracle and a complex-parameter Jacobi value, scipy
the real-parameter Jacobi oracle; complex-parameter Jacobi values are also
pinned by the three-term recurrence and by explicit low-degree expansions.
Jacobi values are summed from ``jacobi_series_coefficients``.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsusy.errors import DegreeCapError, DomainError
from ptsusy.specfun import (
    DEGREE_CAP,
    jacobi_series_coefficients,
    log_abs_gamma,
    log_abs_gamma_point,
    log_gamma,
    pochhammer,
)

from oracles import fraction_loop_log_abs_gamma, log_pochhammer, scaled_phase_sum

mpmath.mp.dps = 40


def series_jacobi(n, a, b, z):
    """P_n^(a,b)(z) as sum_k c_k u^k with u = (1 - z)/2."""
    u = (1.0 - np.asarray(z, dtype=complex)) / 2.0
    return sum(c * u**k for k, c in enumerate(jacobi_series_coefficients(n, complex(a), complex(b))))


def test_log_gamma_frozen_values():
    # literals precomputed with mpmath.loggamma at 40 digits
    val = log_gamma(2 + 3j)
    assert abs(val - (-2.0928517530927333 + 2.3023965434668676j)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5723649429247001) < 1e-14
    # integer arguments reduce to log factorials
    assert abs(log_gamma(6.0) - math.log(120.0)) < 1e-13


def test_log_gamma_against_mpmath_grid():
    pts = [0.3 + 0.0j, 1.7 - 2.2j, 4.0 + 9.0j, -0.7 + 1.3j, -2.3 - 0.4j, 12.5 + 3.0j]
    for z in pts:
        ref = complex(mpmath.loggamma(z))
        got = complex(log_gamma(z))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_vectorized():
    zs = np.array([1.0 + 1j, 2.5 - 0.5j, 7.0 + 0.0j])
    got = log_gamma(zs)
    for z, g in zip(zs, got):
        assert abs(g - complex(mpmath.loggamma(complex(z)))) < 1e-12


@given(
    st.floats(min_value=0.2, max_value=20.0),
    st.floats(min_value=-15.0, max_value=15.0),
)
@settings(max_examples=60, deadline=None)
def test_log_gamma_recurrence(x, y):
    z = complex(x, y)
    # Gamma(z+1)/Gamma(z) = z, branch-safe via exponentials
    ratio = np.exp(log_gamma(z + 1.0) - log_gamma(z))
    assert abs(ratio - z) <= 1e-11 * max(1.0, abs(z))


@given(
    st.floats(min_value=0.2, max_value=15.0),
    st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_log_gamma_conjugation(x, y):
    z = complex(x, y)
    assert abs(log_gamma(np.conj(z)) - np.conj(log_gamma(z))) < 1e-12 * max(
        1.0, abs(log_gamma(z))
    )


def test_reflection_formula():
    for z in (0.3 + 0.7j, 0.5 + 0.0j, 0.9 - 2.0j):
        lhs = np.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = math.pi / np.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("x", [-1e8, -1e5, -10.7, -0.76, 0.3])
def test_log_gamma_left_half_plane_against_mpmath(x):
    # down to Re z = -1e8: the reflection formula costs the same at any |Re z|
    for y in (0.3, -0.3, 5.0, -5.0, 300.0, -300.0):
        ref = complex(mpmath.loggamma(mpmath.mpc(x, y)))
        got = complex(log_gamma(complex(x, y)))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (x, y)


def test_log_gamma_left_half_plane_vectorized_and_real_segment():
    zs = np.array([-1e8 + 0.3j, -3.5 - 2.0j, 0.3 + 0.0j, 0.1 + 0.0j])
    got = log_gamma(zs)
    for z, g in zip(zs, got):
        assert abs(g - complex(mpmath.loggamma(complex(z)))) <= 1e-12 * max(1.0, abs(g))
    # on (0, 1/2) of the real axis the value is real
    assert got[2].imag == 0.0 and got[3].imag == 0.0


def test_log_gamma_rejects_non_finite():
    for z in (math.nan, complex(1.0, math.inf), complex(-math.inf, 1.0)):
        with pytest.raises(DomainError):
            log_gamma(z)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.0 + 1j, complex(math.nan, 0.0)]))


ABS_GAMMA_X = (0.5, 2.0, 3.03, 7.5)
ABS_GAMMA_Y = np.array([0.0, 1e-3, -1e-3, 1.0, -1.0, 30.0, -30.0, 1e3, -1e3, 1e5, -1e5])


# the mpmath check also reaches x = 62 (nu = 60 at level 0) and |y| up to the 1e150 limit
ABS_GAMMA_Y_WIDE = np.concatenate((ABS_GAMMA_Y, [1e8, -1e8, 1e12, -1e12, 1e149, -1e149]))


@pytest.mark.parametrize("x", ABS_GAMMA_X + (22.0, 62.0))
def test_log_abs_gamma_against_mpmath(x):
    got = log_abs_gamma(x, ABS_GAMMA_Y_WIDE)
    for y, g in zip(ABS_GAMMA_Y_WIDE, got):
        ref = float(mpmath.loggamma(mpmath.mpc(x, y)).real)
        assert abs(g - ref) <= 1e-13 * max(1.0, abs(ref)), (x, y)


@pytest.mark.parametrize("x", ABS_GAMMA_X)
def test_log_abs_gamma_matches_the_complex_sum(x):
    got = log_abs_gamma(x, ABS_GAMMA_Y)
    ref = log_gamma(x + 1j * ABS_GAMMA_Y).real
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@given(
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=-1e4, max_value=1e4),
)
@settings(max_examples=60, deadline=None)
def test_log_abs_gamma_is_even_in_y(x, y):
    ys = np.array([y, -y])
    got = log_abs_gamma(x, ys)
    assert abs(got[0] - got[1]) <= 1e-15 * max(1.0, abs(got[0]))
    ref = log_gamma(complex(x, y)).real
    assert abs(got[0] - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("x", [0.5, 3.03, 22.0, 62.0])
def test_log_abs_gamma_batch_matches_one_point_calls(x):
    # the partial fractions are one BLAS product, whose rounding may depend
    # on the batch size; a batch of 4,099 y spread over nine decades of |y|
    # stays within a few ulps of one-point calls
    rng = np.random.default_rng(11)
    ys = rng.standard_normal(4099) * 10.0 ** rng.uniform(-3.0, 6.0, 4099)
    batch = log_abs_gamma(x, ys)
    single = np.array([log_abs_gamma(x, y) for y in ys])
    assert np.all(np.abs(batch - single) <= 4e-15 * np.maximum(1.0, np.abs(single)))


@pytest.mark.parametrize("x", ABS_GAMMA_X + (22.0, 62.0))
def test_log_abs_gamma_matches_the_fraction_loop(x):
    # the matrix product sums the loop's terms in another order: a few ulps
    ys = np.concatenate((ABS_GAMMA_Y_WIDE, np.random.default_rng(13).standard_normal(500) * 50.0))
    got = log_abs_gamma(x, ys)
    ref = fraction_loop_log_abs_gamma(x, ys)
    assert np.all(np.abs(got - ref) <= 4e-15 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("x", ABS_GAMMA_X + (22.0, 62.0))
def test_log_abs_gamma_point_matches_the_array_sum(x):
    # the same partial fractions summed in Python floats: a few ulps
    ys = np.concatenate((ABS_GAMMA_Y_WIDE, np.random.default_rng(17).standard_normal(200) * 10.0 ** 4))
    want = log_abs_gamma(x, ys)
    got = np.array([log_abs_gamma_point(x, y) for y in ys.tolist()])
    assert np.all(np.abs(got - want) <= 4e-15 * np.maximum(1.0, np.abs(want)))
    assert type(log_abs_gamma_point(x, 0.7)) is float
    for bad in ((0.49, 0.0), (math.nan, 0.0), (x, math.inf), (x, math.nan), (x, 1e200)):
        with pytest.raises(DomainError):
            log_abs_gamma_point(*bad)


def test_log_abs_gamma_shapes_and_domain():
    ys = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    got = log_abs_gamma(2.5, ys)
    assert got.shape == ys.shape
    assert np.array_equal(got.ravel(), log_abs_gamma(2.5, ys.ravel()))
    assert type(log_abs_gamma(2.5, 0.7)) is float
    assert log_abs_gamma(2.5, 0.7) == log_abs_gamma(2.5, np.array([0.7]))[0]
    for x in (0.49, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            log_abs_gamma(x, ys)
    for y in (math.nan, math.inf, 1e200):
        with pytest.raises(DomainError):
            log_abs_gamma(2.5, np.array([0.0, y]))


def test_gamma_poles_raise():
    from ptsusy.errors import PoleError

    for z in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_pochhammer_basic():
    assert pochhammer(3.0, 0) == 1.0
    assert pochhammer(3.0, 4) == pytest.approx(3 * 4 * 5 * 6)
    a = 1.5 - 2.0j
    want = a * (a + 1) * (a + 2)
    assert abs(pochhammer(a, 3) - want) < 1e-13 * abs(want)


def test_log_pochhammer_matches_direct():
    a = 0.7 + 1.9j
    for k in (1, 2, 5, 9):
        got = np.exp(log_pochhammer(a, k))
        assert abs(got - pochhammer(a, k)) < 1e-11 * abs(got)


def test_jacobi_real_parameters_match_scipy():
    xs = np.linspace(-0.9, 0.9, 7)
    for n in range(6):
        for a, b in ((0.0, 0.0), (1.5, 0.5), (2.0, 3.0)):
            ref = scipy.special.eval_jacobi(n, a, b, xs)
            got = series_jacobi(n, a, b, xs)
            assert np.max(np.abs(got - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_jacobi_low_degree_complex_explicit():
    a = -3.0 + 0.4j
    b = np.conj(a)
    z = 0.3 + 1.1j
    p0 = series_jacobi(0, a, b, z)
    p1 = series_jacobi(1, a, b, z)
    assert abs(p0 - 1.0) < 1e-14
    want1 = (a + 1.0) + (a + b + 2.0) * (z - 1.0) / 2.0
    assert abs(p1 - want1) < 1e-13 * max(1.0, abs(want1))


def test_jacobi_three_term_recurrence_complex():
    # recurrence with complex parameters pins every degree to the previous two
    rng = np.random.default_rng(5)
    for _ in range(8):
        a = complex(rng.uniform(-4, 2), rng.uniform(-3, 3))
        b = np.conj(a)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        vals = [series_jacobi(n, a, b, z) for n in range(8)]
        for n in range(1, 7):
            c1 = 2 * (n + 1) * (n + a + b + 1) * (2 * n + a + b)
            c2 = (2 * n + a + b + 1) * (a * a - b * b)
            c3 = pochhammer(2 * n + a + b, 3)
            c4 = 2 * (n + a) * (n + b) * (2 * n + a + b + 2)
            lhs = c1 * vals[n + 1]
            rhs = (c2 + c3 * z) * vals[n] - c4 * vals[n - 1]
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) < 1e-10 * scale


def test_jacobi_series_coefficients_consistent_with_eval():
    a = -4.0 + 0.5j
    b = np.conj(a)
    z = 0.4 + 0.3j
    ref = complex(mpmath.jacobi(5, a, b, z))
    assert abs(series_jacobi(5, a, b, z) - ref) < 1e-12 * max(1.0, abs(ref))


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapError):
        jacobi_series_coefficients(DEGREE_CAP + 1, 0.5, 0.5)


def test_scaled_phase_sum_cancellation_tracking():
    # terms are complex logs; equal magnitudes with opposite phases cancel
    log_mag, total = scaled_phase_sum([0.0 + 0.0j, complex(0.0, math.pi)])
    assert abs(total) < 1e-15
    # a dominant term sets the scale
    log_mag, total = scaled_phase_sum([10.0 + 0.0j, 0.0 + 0.0j])
    value = np.exp(log_mag) * total
    assert abs(value - (math.e**10 + 1.0)) < 1e-9 * math.e**10
