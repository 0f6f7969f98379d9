"""Adaptive quadrature and Richardson differentiation against known integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec

from ptsusy.errors import NonFiniteIntegrandError, SubdivisionLimitError, TailBoundError
from ptsusy.quadrature import (
    BASE_RULE_ORDER,
    DEFAULT_CONFIG,
    QuadratureConfig,
    integrate_interval,
    integrate_real_line,
)

from oracles import derivative, panelwise_integrate, panelwise_real_line


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
    assert np.all(np.abs(res.value - COMPONENT_INTEGRALS) <= res.error)
    for k in range(len(COMPONENT_INTEGRALS)):
        scalar = integrate_interval(lambda x: _components(x)[k], 0.0, 1.0, cfg)
        assert abs(scalar.value - res.value[k]) <= scalar.error + res.error[k]


@pytest.mark.parametrize("substitute", [False, True])
def test_reported_error_covers_summation_rounding(substitute):
    # int_0^1 x dx sums to 0.5 - 1.1e-16; the reported error is at least the
    # stopping test's rounding floor, 1e-16 |I| per segment, so it covers that
    res = integrate_interval(lambda x: x, 0.0, 1.0, QuadratureConfig(endpoint_substitution=substitute))
    assert abs(res.value - 0.5) <= res.error


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


class Counting:
    """Integrand wrapper that records the number of abscissas of every call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(x.size)
        return self.f(x)


SUBSTITUTED = QuadratureConfig(endpoint_substitution=True)
TIGHT = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)

# (integrand, a, b, config): no split, a few splits, many splits, scalar and
# vector valued, with and without the endpoint substitution
BATCHING_CASES = {
    "polynomial": (lambda x: 3.0 * x**2, 0.0, 2.0, DEFAULT_CONFIG),
    "complex_mode": (lambda x: np.exp(2j * np.pi * x), 0.0, 1.0, DEFAULT_CONFIG),
    "oscillatory": (lambda x: np.cos(40.0 * np.pi * x) ** 2, 0.0, 1.0, TIGHT),
    "peak": (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, DEFAULT_CONFIG),
    "inverse_sqrt": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, SUBSTITUTED),
    "log": (lambda x: np.log(x), 1e-300, 1.0, SUBSTITUTED),
    "components": (_components, 0.0, 1.0, SUBSTITUTED),
    "two_log_singularities": (
        lambda x: np.array([np.log(np.abs(x - 0.3)), np.log(np.abs(x - 0.71))]),
        0.0,
        1.0,
        TIGHT,
    ),
    "matrix": (lambda x: np.array([[x, np.sin(9.0 * x)], [np.exp(-x), 1.0 / (0.01 + x * x)]]), -1.0, 2.0, TIGHT),
}


@pytest.mark.parametrize("case", BATCHING_CASES.values(), ids=BATCHING_CASES.keys())
def test_batched_panels_match_panelwise_oracle_bit_for_bit(case):
    f, a, b, cfg = case
    batched, panelwise = Counting(f), Counting(f)
    res = integrate_interval(batched, a, b, cfg)
    ref = panelwise_integrate(panelwise, a, b, cfg)
    assert np.asarray(res.value).tobytes() == np.asarray(ref.value).tobytes()
    assert np.asarray(res.error).tobytes() == np.asarray(ref.error).tobytes()
    assert type(res.value) is type(ref.value) and type(res.error) is type(ref.error)
    # the oracle evaluates 3 panels per initial segment and 6 per split; the
    # batched loop makes one call for the 12 initial panels and one call of
    # 4 quarter panels per split, reusing the halves as the children's coarse
    order = BASE_RULE_ORDER
    splits = (ref.evaluations // order - 12) // 6
    assert ref.evaluations == order * (12 + 6 * splits)
    assert len(batched.sizes) == 1 + splits
    assert res.evaluations == sum(batched.sizes) == order * (12 + 4 * splits)
    assert sum(panelwise.sizes) == ref.evaluations


def test_batching_cases_cover_splits():
    splits = []
    for f, a, b, cfg in BATCHING_CASES.values():
        counted = Counting(f)
        integrate_interval(counted, a, b, cfg)
        splits.append(len(counted.sizes) - 1)
    assert min(splits) == 0 and max(splits) >= 50


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_subdivision_limit_matches_panelwise_oracle(vector):
    cfg = QuadratureConfig(max_subdivisions=8, abs_tol=1e-15, rel_tol=1e-15)
    f = (lambda x: np.array([x**2, 1.0 / x])) if vector else (lambda x: 1.0 / x)
    counted = Counting(f)
    with pytest.raises(SubdivisionLimitError) as batched:
        integrate_interval(counted, 0.0, 1.0, cfg)
    with pytest.raises(SubdivisionLimitError) as panelwise:
        panelwise_integrate(f, 0.0, 1.0, cfg)
    assert str(batched.value) == str(panelwise.value)
    assert "within 8 panels" in str(batched.value)
    assert len(counted.sizes) == 1 + (cfg.max_subdivisions - 4)


def _nan_near(x0, width, f):
    def g(x):
        return np.where(np.abs(x - x0) < width, np.nan, f(x))

    return g


NONFINITE_CASES = {
    # non-finite on an initial panel: its coarse panel is named first
    "initial": (lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, DEFAULT_CONFIG),
    # only reached after refinement focuses on the singular point
    "refined": (_nan_near(0.3, 1e-5, lambda x: 1.0 / np.sqrt(np.abs(x - 0.3))), 0.0, 1.0, DEFAULT_CONFIG),
    "refined_vector": (
        _nan_near(0.3, 1e-5, lambda x: np.array([x, 1.0 / np.sqrt(np.abs(x - 0.3))])),
        0.0,
        1.0,
        DEFAULT_CONFIG,
    ),
    "substituted": (_nan_near(0.7, 1e-6, lambda x: 1.0 / np.abs(x - 0.7) ** 0.25), 0.0, 1.0, SUBSTITUTED),
}


@pytest.mark.parametrize("case", NONFINITE_CASES.values(), ids=NONFINITE_CASES.keys())
def test_nonfinite_panel_named_as_panelwise_oracle(case):
    f, a, b, cfg = case
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteIntegrandError) as batched:
            integrate_interval(f, a, b, cfg)
        with pytest.raises(NonFiniteIntegrandError) as panelwise:
            panelwise_integrate(f, a, b, cfg)
    assert str(batched.value) == str(panelwise.value)


REAL_LINE_CASES = {
    "gaussian": (lambda u: np.exp(-(u**2)), 1.0),
    "sech_wrong_scale": (lambda u: 1.0 / np.cosh(u), 0.1),
    "two_sided_exponential": (lambda u: np.exp(-np.abs(u) / 3.0), 3.0),
    "complex_shifted": (lambda u: np.exp(-((u - 1.0) ** 2) + 2j * u) / (1.0 + u * u), 1.0),
}


@pytest.mark.parametrize("case", REAL_LINE_CASES.values(), ids=REAL_LINE_CASES.keys())
def test_real_line_matches_panelwise_oracle_with_one_probe_fewer(case):
    f, scale = case
    batched, panelwise = Counting(f), Counting(f)
    res = integrate_real_line(batched, scale, DEFAULT_CONFIG)
    ref = panelwise_real_line(panelwise, scale, DEFAULT_CONFIG)
    assert res.value == ref.value and res.error == ref.error
    assert res.evaluations == sum(batched.sizes)
    # the first truncation check reads the ends of the 65-point probe
    assert batched.sizes[0] == panelwise.sizes[0] == 65
    assert batched.sizes.count(2) == panelwise.sizes.count(2) - 1


def test_real_line_vector_components_match_scalar_calls():
    # components of different decay share one truncation point and one set
    # of panels; each must lie within its reported error of its own call
    cases = [REAL_LINE_CASES[k] for k in ("gaussian", "complex_shifted", "two_sided_exponential")]
    scale = max(s for _, s in cases)
    res = integrate_real_line(lambda u: np.array([f(u) for f, _ in cases]), scale, DEFAULT_CONFIG)
    assert res.value.shape == res.error.shape == (len(cases),)
    for k, (f, own_scale) in enumerate(cases):
        scalar = integrate_real_line(f, own_scale, DEFAULT_CONFIG)
        assert abs(res.value[k] - scalar.value) <= res.error[k]


def test_real_line_vector_errors_name_the_truncation_points():
    # a component that never decays keeps the tails uncertified; a component
    # that is NaN at the ends is caught at the truncation points
    gaussian = REAL_LINE_CASES["gaussian"][0]
    flat = np.ones_like
    with pytest.raises(TailBoundError) as scalar:
        integrate_real_line(flat, 1.0, DEFAULT_CONFIG)
    with pytest.raises(TailBoundError) as vector:
        integrate_real_line(lambda u: np.array([gaussian(u), flat(u)]), 1.0, DEFAULT_CONFIG)
    assert str(vector.value) == str(scalar.value)
    assert "could not certify tails out to |u|" in str(vector.value)

    def nan_ends(u):
        return np.array([gaussian(u), np.where(np.abs(u) >= 8.0, np.nan, 1.0)])

    with pytest.raises(NonFiniteIntegrandError, match="at the truncation points"):
        integrate_real_line(nan_ends, 1.0, DEFAULT_CONFIG)
