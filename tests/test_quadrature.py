"""Adaptive quadrature and Richardson differentiation against known integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec

from ptsusy.errors import NonFiniteIntegrandError, SubdivisionLimitError
from ptsusy.quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    derivative,
    integrate_interval,
    integrate_real_line,
)


def test_sine_squared_half():
    res = integrate_interval(lambda x: np.sin(np.pi * x) ** 2, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-12


def test_polynomial_exact_on_single_panel():
    res = integrate_interval(lambda x: 3.0 * x**2, 0.0, 2.0)
    assert abs(res.value - 8.0) < 1e-12


def test_oscillatory():
    res = integrate_interval(lambda x: np.cos(40.0 * np.pi * x) ** 2, 0.0, 1.0)
    assert abs(res.value - 0.5) < 1e-10


def test_complex_integrand():
    res = integrate_interval(lambda x: np.exp(2j * np.pi * x), 0.0, 1.0)
    assert abs(res.value) < 1e-12


def test_endpoint_singularity_with_substitution():
    cfg = QuadratureConfig(endpoint_substitution=True)
    res = integrate_interval(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, cfg)
    assert abs(res.value - 2.0) < 1e-9
    res = integrate_interval(lambda x: np.log(x), 1e-300, 1.0, cfg)
    assert abs(res.value + 1.0) < 1e-8


def test_error_estimate_is_honest():
    # reported estimate bounds the true error on a corpus of known integrals
    cases = [
        (lambda x: np.sin(np.pi * x) ** 2, 0.0, 1.0, 0.5),
        (lambda x: np.exp(-x), 0.0, 10.0, 1.0 - math.exp(-10.0)),
        (lambda x: x**0.5, 0.0, 1.0, 2.0 / 3.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0, 2.0 * math.atan(4.0)),
    ]
    cfg = QuadratureConfig(endpoint_substitution=True)
    for f, a, b, truth in cases:
        res = integrate_interval(f, a, b, cfg)
        actual = abs(res.value - truth)
        assert actual <= max(10.0 * res.error, 1e-11)


def test_subdivision_limit_raises():
    cfg = QuadratureConfig(max_subdivisions=8, abs_tol=1e-15, rel_tol=1e-15)
    with pytest.raises(SubdivisionLimitError):
        # non-integrable endpoint: refinement cannot terminate
        integrate_interval(lambda x: 1.0 / x, 0.0, 1.0, cfg)


def test_nonfinite_integrand_raises():
    with pytest.raises(NonFiniteIntegrandError):
        integrate_interval(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0)


def _components(x):
    # monomials, Fourier modes and an endpoint-singular inverse square root
    x = np.asarray(x, dtype=float)
    return np.array(
        [
            np.ones_like(x),
            x,
            x**4,
            np.exp(2j * np.pi * x),
            np.exp(6j * np.pi * x),
            np.cos(40.0 * np.pi * x) ** 2,
            1.0 / np.sqrt(x),
        ]
    )


COMPONENT_INTEGRALS = np.array([1.0, 0.5, 0.2, 0.0, 0.0, 0.5, 2.0])


def test_vector_integrand_matches_scalar_calls_and_truth():
    cfg = QuadratureConfig(endpoint_substitution=True)
    res = integrate_interval(_components, 0.0, 1.0, cfg)
    assert res.value.shape == res.error.shape == COMPONENT_INTEGRALS.shape
    assert type(res.evaluations) is int
    # the floor 2e-16 |I| of a reported error can sit a rounding of the
    # result below the accumulated summation error, hence one eps * |I|
    actual = np.abs(res.value - COMPONENT_INTEGRALS)
    assert np.all(actual <= res.error + np.finfo(float).eps * COMPONENT_INTEGRALS)
    for k in range(len(COMPONENT_INTEGRALS)):
        scalar = integrate_interval(lambda x: _components(x)[k], 0.0, 1.0, cfg)
        assert abs(scalar.value - res.value[k]) <= scalar.error + res.error[k]


def test_vector_integrand_matches_scipy_quad_vec():
    cfg = QuadratureConfig(endpoint_substitution=True)
    res = integrate_interval(_components, 0.0, 1.0, cfg)
    ref, ref_err = quad_vec(_components, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
    assert np.all(np.abs(res.value - ref) <= res.error + ref_err)


def test_vector_leading_shape_is_kept():
    res = integrate_interval(lambda x: np.array([[x, x**2], [x**3, 4.0 * x**3]]), 0.0, 1.0)
    assert res.value.shape == res.error.shape == (2, 2)
    assert np.allclose(res.value, [[0.5, 1.0 / 3.0], [0.25, 1.0]], rtol=0, atol=1e-15)


def test_scalar_integrand_keeps_scalar_types():
    res = integrate_interval(lambda x: np.exp(x), 0.0, 1.0)
    assert type(res.value) is complex
    assert type(res.error) is float
    assert type(res.evaluations) is int


def test_nonfinite_component_raises():
    with pytest.raises(NonFiniteIntegrandError):
        integrate_interval(lambda x: np.array([x, np.where(x > 0.5, np.nan, 1.0)]), 0.0, 1.0)


def test_one_unconverged_component_exhausts_the_budget():
    cfg = QuadratureConfig(max_subdivisions=8, abs_tol=1e-15, rel_tol=1e-15)
    integrate_interval(lambda x: x**2, 0.0, 1.0, cfg)  # converges on its own
    with pytest.raises(SubdivisionLimitError):
        integrate_interval(lambda x: np.array([x**2, 1.0 / x]), 0.0, 1.0, cfg)


def test_real_line_gaussian():
    res = integrate_real_line(lambda u: np.exp(-(u**2)), 1.0, DEFAULT_CONFIG)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_real_line_sech_with_wrong_scale_hint():
    # int sech = pi; expansion must recover from a hint 10x too small
    res = integrate_real_line(lambda u: 1.0 / np.cosh(u), 0.1, DEFAULT_CONFIG)
    assert abs(res.value - math.pi) < 1e-9


def test_real_line_two_sided_exponential():
    res = integrate_real_line(lambda u: np.exp(-np.abs(u) / 3.0), 3.0, DEFAULT_CONFIG)
    assert abs(res.value - 6.0) <= max(10.0 * res.error, 1e-9)


def test_derivative_first_and_second_order():
    val, err = derivative(math.sin, 0.3, order=1)
    assert abs(val - math.cos(0.3)) < 1e-10
    val, err = derivative(math.sin, 0.3, order=2)
    assert abs(val + math.sin(0.3)) < 1e-7
    val, err = derivative(lambda x: x**3 - 2.0 * x, 1.1, order=1)
    assert abs(val - (3 * 1.1**2 - 2.0)) < 1e-9
