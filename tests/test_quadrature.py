"""Adaptive quadrature and Richardson differentiation against known integrals."""

import math
import time
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad_vec

from ptsusy import quadrature
from ptsusy.errors import DomainError, NonFiniteIntegrandError, SubdivisionLimitError, TailBoundError
from ptsusy.quadrature import (
    BASE_RULE_ORDER,
    DEFAULT_CONFIG,
    QuadratureConfig,
    gauss_romanovski,
    integrate_interval,
    integrate_real_line,
)

from oracles import _panel_value, derivative, panelwise_integrate, panelwise_real_line


def test_gauss_rule_literals_are_leggauss_bit_for_bit():
    # the module writes the rule out so that no process imports
    # numpy.polynomial; every quadrature result depends on these bits
    nodes, weights = np.polynomial.legendre.leggauss(BASE_RULE_ORDER)
    for got, want in ((quadrature._NODES, nodes), (quadrature._WEIGHTS, weights)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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


def test_subdivision_limit_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 8)
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
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


def test_zero_components_give_empty_results():
    # a vector integrand of leading shape (0,) or (2, 0) converges at once
    for shape, cfg in (((0,), DEFAULT_CONFIG), ((2, 0), SUBSTITUTED)):
        res = integrate_interval(lambda x: np.zeros(shape + x.shape), 0.0, 1.0, cfg)
        assert res.value.shape == res.error.shape == shape
        assert res.evaluations == 12 * BASE_RULE_ORDER
    res = integrate_real_line(lambda u: np.zeros((0, u.size)), 1.0, DEFAULT_CONFIG)
    assert res.value.shape == res.error.shape == (0,)


@pytest.mark.parametrize(
    "fields",
    [
        {"rel_tol": math.nan},
        {"abs_tol": math.nan},
        {"abs_tol": math.inf},
        {"rel_tol": -math.inf},
        {"abs_tol": -1e-12},
    ],
    ids=repr,
)
def test_config_rejects_bad_tolerances_and_budgets(fields):
    with pytest.raises(DomainError):
        QuadratureConfig(**fields)
    with pytest.raises(DomainError):
        replace(DEFAULT_CONFIG, **fields)


def test_config_accepts_zero_tolerances_and_small_budgets():
    for cfg in (QuadratureConfig(abs_tol=0.0), QuadratureConfig(rel_tol=0.0)):
        res = integrate_interval(lambda x: 3.0 * x**2, 0.0, 2.0, cfg)
        assert abs(res.value - 8.0) < 1e-12


def test_one_unconverged_component_exhausts_the_budget(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 8)
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    integrate_interval(lambda x: x**2, 0.0, 1.0, cfg)  # converges on its own
    with pytest.raises(SubdivisionLimitError):
        integrate_interval(lambda x: np.array([x**2, 1.0 / x]), 0.0, 1.0, cfg)


def both_signs(f):
    # a whole-line integrand folded onto the half line [0, inf)
    return lambda u: f(u) + f(-u)


def test_real_line_gaussian():
    res = integrate_real_line(both_signs(lambda u: np.exp(-(u**2))), 1.0, DEFAULT_CONFIG)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_real_line_sech_with_wrong_scale_hint():
    # int sech = pi over the whole line; expansion must recover from a hint 10x too small
    res = integrate_real_line(both_signs(lambda u: 1.0 / np.cosh(u)), 0.1, DEFAULT_CONFIG)
    assert abs(res.value - math.pi) < 1e-9


def test_real_line_two_sided_exponential():
    res = integrate_real_line(both_signs(lambda u: np.exp(-np.abs(u) / 3.0)), 3.0, DEFAULT_CONFIG)
    assert abs(res.value - 6.0) <= max(10.0 * res.error, 1e-9)


def test_interval_narrow_for_its_magnitude_is_rejected():
    # at a = 1e17 the nodes of [a, a + 16] round to multiples of 16, and the
    # Gaussian read 2.6e-27 with error 1.0e-42 where sqrt(pi) is right
    a = 1e17
    with pytest.raises(ValueError, match="cannot resolve"):
        integrate_interval(lambda u: np.exp(-((u - a - 8.0) ** 2)), a, a + 16.0)
    res = integrate_interval(lambda u: np.exp(-((u - 8.0) ** 2)), 0.0, 16.0)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10
    # the bound is b - a > 2**-30 max(|a|, |b|)
    with pytest.raises(ValueError, match="cannot resolve"):
        integrate_interval(np.ones_like, 1.0, 1.0 + 2.0**-31)
    assert integrate_interval(np.ones_like, 1.0, 1.0 + 2.0**-29).value == 2.0**-29


def test_derivative_first_and_second_order():
    val, err = derivative(math.sin, 0.3, order=1)
    assert abs(val - math.cos(0.3)) < 1e-10
    val, err = derivative(math.sin, 0.3, order=2)
    assert abs(val + math.sin(0.3)) < 1e-7
    val, err = derivative(lambda x: x**3 - 2.0 * x, 1.1, order=1)
    assert abs(val - (3 * 1.1**2 - 2.0)) < 1e-9


class Counting:
    """Integrand wrapper that records the abscissas of every call and their number."""

    def __init__(self, f):
        self.f = f
        self.sizes = []
        self.calls = []

    def __call__(self, x):
        self.sizes.append(x.size)
        self.calls.append(x.copy())
        return self.f(x)


SUBSTITUTED = QuadratureConfig(endpoint_substitution=True)
TIGHT = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-13)
LOOSE = QuadratureConfig(abs_tol=1e-5, rel_tol=1e-5)


def _tiled(x):
    # one bump on every quarter of [0, 1], read off a grid of 1/1024, so that
    # translated panels see bit-equal values and their errors tie
    k = np.rint(x * 1024.0).astype(int) % 256
    return np.exp(-(((k - 128) / 40.0) ** 2))


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
    "tied_quarters": (_tiled, 0.0, 1.0, LOOSE),
}


def _oracle_splits(batched, panelwise):
    # The oracle's split indices of every round call of the batched run, in
    # call order: the oracle evaluates 3 panels per initial segment and 6 per
    # split, coarse, left and right of each child, and a round call holds the
    # 4 quarter panels (left and right of each child) of each of its splits.
    order = BASE_RULE_ORDER
    splits = (len(panelwise.calls) - 12) // 6
    index = {
        np.concatenate([panelwise.calls[12 + 6 * i + k] for k in (1, 2, 4, 5)]).tobytes(): i for i in range(splits)
    }
    assert len(index) == splits
    step = 4 * order
    return [[index[call[j : j + step].tobytes()] for j in range(0, call.size, step)] for call in batched.calls[1:]]


@pytest.mark.parametrize("case", BATCHING_CASES.values(), ids=BATCHING_CASES.keys())
def test_batched_panels_match_panelwise_oracle_bit_for_bit(case):
    f, a, b, cfg = case
    batched, panelwise = Counting(f), Counting(f)
    res = integrate_interval(batched, a, b, cfg)
    ref = panelwise_integrate(panelwise, a, b, cfg)
    assert np.asarray(res.value).tobytes() == np.asarray(ref.value).tobytes()
    assert np.asarray(res.error).tobytes() == np.asarray(ref.error).tobytes()
    assert type(res.value) is type(ref.value) and type(res.error) is type(ref.error)
    # the batched loop makes one call for the 12 initial panels and one call
    # per refinement round, of the 4 quarter panels of each split the round
    # takes, reusing the halves as the children's coarse; no evaluated panel
    # goes unused
    order = BASE_RULE_ORDER
    splits = (ref.evaluations // order - 12) // 6
    assert ref.evaluations == order * (12 + 6 * splits)
    assert res.evaluations == sum(batched.sizes) == order * (12 + 4 * splits)
    assert sum(panelwise.sizes) == ref.evaluations
    assert batched.calls[0].tobytes() == np.concatenate(panelwise.calls[:12]).tobytes()
    # the split abscissas are the oracle's panels 1, 2, 4 and 5 of each
    # split, as a multiset; a round takes its splits in the oracle's order
    got = np.sort(np.concatenate([np.zeros(0)] + batched.calls[1:]))
    quarters = [panelwise.calls[12 + 6 * i + k] for i in range(splits) for k in (1, 2, 4, 5)]
    want = np.sort(np.concatenate([np.zeros(0)] + quarters))
    assert got.tobytes() == want.tobytes()
    rounds = _oracle_splits(batched, panelwise)
    assert sorted(i for r in rounds for i in r) == list(range(splits))
    assert all(r == sorted(r) for r in rounds)
    assert len(batched.sizes) <= 1 + splits


def _modes(x):
    # 66 products of smooth modes, the shape of the integrand of an 11-state Gram matrix
    k = np.arange(66)[:, None]
    return np.sin((k % 11 + 1) * x) * np.cos((k // 11 + 1) * x)


@pytest.mark.parametrize("substitution", [None, (-0.3, 1.7)], ids=["plain", "substituted"])
@pytest.mark.parametrize(
    "f",
    [_modes, lambda x: _modes(x) * np.exp(1j * x), lambda x: np.cos(x), lambda x: np.exp(1j * x) * np.ones((3, 4, 1))],
    ids=["real", "complex", "scalar", "complex_3x4"],
)
def test_panel_sums_are_the_same_alone_and_in_a_round(f, substitution):
    # a panel's sums are one dot of its weights with its values, so a call on
    # 24 panels gives each panel the bits of a call on it alone, and those of
    # the panel-by-panel oracle's rule; with the substitution the panels lie
    # in t, mapped through x = a + h (1 - cos t)
    rng = np.random.default_rng(5)
    lo = np.sort(rng.uniform(0.0, 3.0, 24))
    hi = lo + rng.uniform(1e-3, 0.1, 24)
    sums, bad = quadrature._panel_values(f, *quadrature._rule(lo, hi, substitution))
    assert bad == [] and sums.dtype == complex and sums.shape[-1] == 24
    for k in range(24):
        alone, _ = quadrature._panel_values(f, *quadrature._rule(lo[k : k + 1], hi[k : k + 1], substitution))
        assert alone[..., 0].tobytes() == sums[..., k].tobytes()
        assert _panel_value(f, lo[k], hi[k], BASE_RULE_ORDER, substitution).tobytes() == sums[..., k].tobytes()


def test_constants_integrate_exactly():
    # the Gauss weights sum to exactly 2.0 in the dot, so a panel of the
    # constant 1 sums to exactly twice its half width, and an interval of
    # dyadic ends to exactly its length
    assert np.vecdot(quadrature._WEIGHTS, np.ones(BASE_RULE_ORDER)) == 2.0
    rng = np.random.default_rng(11)
    lo = rng.uniform(-5.0, 5.0, 40)
    hi = lo + 10.0 ** rng.uniform(-8.0, 1.0, 40)
    sums, _ = quadrature._panel_values(np.ones_like, *quadrature._rule(lo, hi))
    assert np.array_equal(sums, 2.0 * (0.5 * (hi - lo)))
    for a, b in ((0.0, 1.0), (-3.0, 5.0), (1.0, 1.0 + 2.0**-29), (2.0**-40, 2.0**-38), (-1e6, 3e6)):
        res = integrate_interval(np.ones_like, a, b)
        assert res.value == b - a and res.evaluations == 12 * BASE_RULE_ORDER


def _floor_dominated(seed: int, count: int = 300):
    # peaks, Gaussians on a slope and powers of x at zero tolerances, with and
    # without the substitution: the rounding-noise floor ends every integral
    rng = np.random.default_rng(seed)
    for i in range(count):
        c, w, p = rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-3.0, -0.5), rng.uniform(0.0, 3.0)
        f = (
            lambda x, c=c, w=w: 1.0 / (w * w + (x - c) ** 2),
            lambda x, c=c, w=w: np.exp(-(((x - c) / w) ** 2)) + x,
            lambda x, p=p: x**p,
        )[i % 3]
        yield f, QuadratureConfig(abs_tol=0.0, rel_tol=0.0, endpoint_substitution=bool(i % 2))


def test_rounds_evaluate_no_split_the_loop_leaves_unmade():
    # The floor grows with every split.  Held to the floor at the first split
    # of their round, rounds evaluated splits that the loop never made in 6 of
    # these 300 integrals (360 abscissas); held to the floor at the last split
    # a round can make, in none.  Every 10th integral matches the oracle.
    unused = 0
    for i, (f, cfg) in enumerate(_floor_dominated(4)):
        counted = Counting(f)
        res = integrate_interval(counted, 0.0, 1.0, cfg)
        unused += sum(counted.sizes) - res.evaluations
        if i % 10 == 0:
            ref = panelwise_integrate(f, 0.0, 1.0, cfg)
            assert (res.value, res.error) == (ref.value, ref.error)
            assert (ref.evaluations // BASE_RULE_ORDER - 12) // 6 == (res.evaluations // BASE_RULE_ORDER - 12) // 4
    assert unused == 0


def test_rounds_take_fewer_calls_than_splits():
    # the 4 initial segments of cos^2(40 pi x) all miss the tight tolerance,
    # and so do their 8 children: their splits go to f in two round calls
    f, a, b, cfg = BATCHING_CASES["oscillatory"]
    counted = Counting(f)
    res = integrate_interval(counted, a, b, cfg)
    splits = (res.evaluations // BASE_RULE_ORDER - 12) // 4
    assert splits == 12
    assert len(counted.sizes) < 1 + splits


def test_batching_cases_cover_splits():
    splits = []
    for f, a, b, cfg in BATCHING_CASES.values():
        res = integrate_interval(f, a, b, cfg)
        splits.append((res.evaluations // BASE_RULE_ORDER - 12) // 4)
    assert min(splits) == 0 and max(splits) >= 50


def test_tied_panels_pop_in_the_order_they_were_made():
    # the four initial segments tie, and so do the translated children of
    # each split; the loop must split them first made, first split, as the
    # panel-by-panel oracle does, node for node: each round takes its splits
    # in the oracle's order, and the first round takes the four quarters
    batched, panelwise = Counting(_tiled), Counting(_tiled)
    integrate_interval(batched, 0.0, 1.0, LOOSE)
    panelwise_integrate(panelwise, 0.0, 1.0, LOOSE)
    rounds = _oracle_splits(batched, panelwise)
    splits = (len(panelwise.calls) - 12) // 6
    assert splits >= 20 and sorted(i for r in rounds for i in r) == list(range(splits))
    assert rounds[0][:4] == [0, 1, 2, 3]
    assert [int(4.0 * batched.calls[1][60 * k]) for k in range(4)] == [0, 1, 2, 3]
    for r in rounds:
        assert r == sorted(r), r
    assert max(len(r) for r in rounds) == quadrature.MAX_ROUND_SPLITS


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_subdivision_limit_matches_panelwise_oracle(monkeypatch, vector):
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 8)
    cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15)
    f = (lambda x: np.array([x**2, 1.0 / x])) if vector else (lambda x: 1.0 / x)
    counted = Counting(f)
    with pytest.raises(SubdivisionLimitError) as batched:
        integrate_interval(counted, 0.0, 1.0, cfg)
    with pytest.raises(SubdivisionLimitError) as panelwise:
        panelwise_integrate(f, 0.0, 1.0, cfg)
    assert str(batched.value) == str(panelwise.value)
    assert "within 8 panels" in str(batched.value)
    assert len(counted.sizes) == 1 + (quadrature.MAX_SUBDIVISIONS - 4)


def test_panel_budget_path_raises_in_bounded_time():
    # sin(1e7 x^2) at zero tolerances spends the whole panel budget, 16,380
    # splits.  One split per call took 0.47 s on a 2-core machine; a round
    # that scanned the whole heap for its segments took 30 s.
    calls = []

    def chirp(x):
        calls.append(x.size)
        return np.sin(1e7 * x * x)

    start = time.perf_counter()
    with pytest.raises(SubdivisionLimitError) as exc:
        integrate_interval(chirp, 0.0, 1.0, QuadratureConfig(abs_tol=0.0, rel_tol=0.0))
    elapsed = time.perf_counter() - start
    assert str(exc.value) == "no convergence within 16384 panels (residual error 5.100e-02, tolerance 0.000e+00)"
    assert elapsed < 5.0
    assert len(calls) < quadrature.MAX_SUBDIVISIONS - 4


def _nan_near(x0, width, f):
    def g(x):
        return np.where(np.abs(x - x0) < width, np.nan, f(x))

    return g


def _nan_at(points, f):
    # NaN at the given abscissas alone, each the middle node of one panel
    def g(x):
        return np.where(np.isin(x, points), np.nan, f(x))

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
    # The first round of two_log_singularities takes [0, 0.25], [0.5, 0.75]
    # and [0.75, 1], which the one-split loop makes its 1st, 5th and 72nd
    # splits.  A NaN at the middle node of the quarter panel [0.875, 0.9375]
    # is named after 71 splits.
    "later_split_of_round": (_nan_at([0.90625], BATCHING_CASES["two_log_singularities"][0]), 0.0, 1.0, TIGHT),
    # A NaN in a quarter panel of [0.5, 0.75], from that first round, and
    # one in [0.28125, 0.3125], a quarter of the 2nd split, which a later
    # round evaluates: the one-split loop meets the second first.
    "later_round_reached_first": (
        _nan_at([0.59375, 0.296875], BATCHING_CASES["two_log_singularities"][0]),
        0.0,
        1.0,
        TIGHT,
    ),
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


def test_nonfinite_panel_of_a_round_raises_when_its_split_is_reached():
    # the NaN's split is evaluated in the first round call, and raised only
    # when the loop reaches it, after every split the oracle makes before it
    f, a, b, cfg = NONFINITE_CASES["later_split_of_round"]
    counted = Counting(f)
    with pytest.raises(NonFiniteIntegrandError, match=r"inside \[0\.875, 0\.9375\]"):
        integrate_interval(counted, a, b, cfg)
    assert 0.90625 in counted.calls[1]
    assert len(counted.calls) > 2


REAL_LINE_CASES = {
    "gaussian": (lambda u: np.exp(-(u**2)), 1.0),
    "sech_wrong_scale": (lambda u: 1.0 / np.cosh(u), 0.1),
    "two_sided_exponential": (lambda u: np.exp(-np.abs(u) / 3.0), 3.0),
    "complex_shifted": (lambda u: np.exp(-((u - 1.0) ** 2) + 2j * u) / (1.0 + u * u), 1.0),
}


@pytest.mark.parametrize("case", REAL_LINE_CASES.values(), ids=REAL_LINE_CASES.keys())
def test_real_line_matches_panelwise_oracle_with_one_probe_fewer(case):
    # the whole-line integrands folded onto [0, inf)
    f, scale = case
    batched, panelwise = Counting(both_signs(f)), Counting(both_signs(f))
    res = integrate_real_line(batched, scale, DEFAULT_CONFIG)
    ref = panelwise_real_line(panelwise, scale, DEFAULT_CONFIG)
    assert res.value == ref.value and res.error == ref.error
    assert res.evaluations == sum(batched.sizes)
    # the first truncation check reads the far end of the 33-point probe
    assert batched.sizes[0] == panelwise.sizes[0] == 33
    assert batched.sizes.count(1) == panelwise.sizes.count(1) - 1


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
    assert "could not certify the tail out to u = " in str(vector.value)

    def nan_ends(u):
        return np.array([gaussian(u), np.where(np.abs(u) >= 8.0, np.nan, 1.0)])

    with pytest.raises(NonFiniteIntegrandError, match="at the truncation points"):
        integrate_real_line(nan_ends, 1.0, DEFAULT_CONFIG)


def test_half_line_gaussian_and_sech():
    res = integrate_real_line(lambda u: np.exp(-(u**2)), 1.0, DEFAULT_CONFIG)
    assert abs(res.value - 0.5 * math.sqrt(math.pi)) < 1e-10
    # a hint 10x too small: the one truncation point has to grow
    res = integrate_real_line(lambda u: 1.0 / np.cosh(u), 0.1, DEFAULT_CONFIG)
    assert abs(res.value - 0.5 * math.pi) < 1e-9


HALF_LINE_CASES = {
    "gaussian_at_0": (lambda u: np.exp(-(u**2)), 1.0),
    "sech_wrong_scale_at_0": (lambda u: 1.0 / np.cosh(u), 0.1),
    "two_sided_exponential_at_0": (lambda u: np.exp(-np.abs(u) / 3.0), 3.0),
    # the integral over [-1.5, inf), shifted onto [0, inf)
    "complex_shifted_at_-1.5": (lambda u: REAL_LINE_CASES["complex_shifted"][0](u - 1.5), 1.0),
}


@pytest.mark.parametrize("case", HALF_LINE_CASES.values(), ids=HALF_LINE_CASES.keys())
def test_half_line_matches_panelwise_oracle_with_one_probe_fewer(case):
    f, scale = case
    batched, panelwise = Counting(f), Counting(f)
    res = integrate_real_line(batched, scale, DEFAULT_CONFIG)
    ref = panelwise_real_line(panelwise, scale, DEFAULT_CONFIG)
    assert res.value == ref.value and res.error == ref.error
    assert res.evaluations == sum(batched.sizes)
    # the first truncation check reads the far end of the 33-point probe,
    # and each growth step probes one point
    assert batched.sizes[0] == panelwise.sizes[0] == 33
    assert batched.calls[0][0] == 0.0 and batched.calls[0][-1] == 8.0 * scale
    assert batched.sizes.count(1) == panelwise.sizes.count(1) - 1
    assert min(float(x.min()) for x in batched.calls) == 0.0


def test_half_line_tail_grows_one_truncation_point():
    f = Counting(lambda u: 1.0 / np.cosh(u))
    integrate_real_line(f, 0.1, DEFAULT_CONFIG)
    cuts = [float(x[0]) for x in f.calls if x.size == 1]
    assert len(cuts) >= 3
    u, want = 8.0 * 0.1, []
    for _ in cuts:
        u *= 1.6
        want.append(u)
    assert cuts == want


def test_half_line_tail_bound_error_names_the_one_truncation_point():
    flat = Counting(np.ones_like)
    with pytest.raises(TailBoundError, match="could not certify the tail out to u = ") as batched:
        integrate_real_line(flat, 1.0, DEFAULT_CONFIG)
    with pytest.raises(TailBoundError) as panelwise:
        panelwise_real_line(np.ones_like, 1.0, DEFAULT_CONFIG)
    assert str(batched.value) == str(panelwise.value)
    assert flat.sizes == [33] + [1] * 59
    assert all(x.min() >= 0.0 for x in flat.calls)


@pytest.mark.parametrize("scale", [math.inf, 1e308, math.nan, 0.0, -1.0], ids=repr)
def test_real_line_rejects_a_decay_scale_without_a_finite_probe(scale):
    # inf and 1e308 once reached linspace and blamed the integrand
    def unreached(u):
        raise AssertionError("the integrand was called")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="decay_scale must be positive with 8 \\* decay_scale finite"):
            integrate_real_line(unreached, scale, DEFAULT_CONFIG)


#: (P, G, N) of the Gauss-Romanovski rules checked against adaptive moments:
#: G of both signs, P whole and not, and N - 1 up to the last whole number
#: under P/2, where the moments of degree 2N - 1 <= P are still bounded in theta
ROMANOVSKI_CASES = [(2.0, 0.0, 1), (4.0, 0.0, 2), (9.0, -3.0, 5), (13.2, -40.0, 6), (6.5, 2.5, 3), (20.4, -80.0, 10)]


def _romanovski_moments(P: float, G: float, count: int) -> list:
    # m_k = int w t^k dt, k < count, to 30 digits: m_0 = mu0 from mpmath's
    # gamma, then Pearson's equation (sigma w)' = tau w, sigma = 1 + t^2 and
    # tau = -P t - G, integrated against t^k: (k - P) m_(k+1) = G m_k - k m_(k-1)
    with mpmath.workdps(30):
        mu0 = mpmath.pi * mpmath.exp(G * mpmath.pi / 2) * mpmath.gamma(P + 1)
        moments = [mu0 / (2**P * abs(mpmath.gamma(1 + P / 2 + 0.5j * G)) ** 2)]
        for k in range(count - 1):
            previous = moments[k - 1] if k else 0
            moments.append((G * moments[k] - k * previous) / (k - P))
        return moments


@pytest.mark.parametrize(("P", "G", "N"), ROMANOVSKI_CASES, ids=str)
def test_gauss_romanovski_is_exact_to_degree_2n_minus_1(P, G, N):
    # the rule's moments of degree k <= 2N - 1 against the exact ones, each
    # within 1e-14 of the moment of |t|^k, the scale it can cancel from,
    # which for odd k is at most sqrt(m_(k-1) m_(k+1)) where that exists
    nodes, log_w = gauss_romanovski(P, G, N)
    assert nodes.shape == log_w.shape == (N,) and np.all(np.diff(nodes) > 0.0)
    w = np.exp(log_w)
    count = 2 * N + 1 if 2 * N < P + 1 else 2 * N
    moments = [float(m) for m in _romanovski_moments(P, G, count)]
    for k in range(2 * N):
        scale = abs(moments[k])
        if k % 2 and k + 1 < count:
            scale = max(scale, math.sqrt(moments[k - 1] * moments[k + 1]))
        assert abs(float(w @ nodes**k) - moments[k]) <= 1e-14 * scale, k


def test_gauss_romanovski_weights_sum_to_the_closed_form_mu0():
    # mu0 = pi e^(G pi / 2) Gamma(P + 1) / (2^P |Gamma(1 + P/2 + iG/2)|^2);
    # at G = 0 and P = 2 it is pi / 2, at P = 4 it is 3 pi / 8
    for P, want in ((2.0, math.pi / 2.0), (4.0, 3.0 * math.pi / 8.0)):
        for N in range(1, int(P / 2) + 1):
            _, log_w = gauss_romanovski(P, 0.0, N)
            assert math.isclose(float(np.exp(log_w).sum()), want, rel_tol=1e-14), (P, N)
    # at large |G| the weights stay in log space: e^(G pi / 2) alone is 1e-682
    nodes, log_w = gauss_romanovski(12.0, -1000.0, 4)
    assert np.isfinite(log_w).all() and np.all(nodes > 0.0)


def test_gauss_romanovski_is_cached_and_read_only():
    first = gauss_romanovski(9.0, -3.0, 5)
    assert gauss_romanovski(9.0, -3.0, 5) is first
    for array in first:
        assert not array.flags.writeable


@pytest.mark.parametrize(
    ("P", "G", "N"),
    [
        (2.0, 0.0, 2),
        (4.0, 1.0, 3),
        (5.0, 0.0, 4),
        (4.0, 0.0, 0),
        (4.0, 0.0, 1.0),
        (4.0, 0.0, True),
        (math.inf, 0.0, 1),
        (4.0, math.nan, 1),
    ],
    ids=str,
)
def test_gauss_romanovski_without_a_rule_raises(P, G, N):
    # N - 1 < P/2 is where the moments of degree 2N - 1 exist; N is a whole
    # int, P and G finite
    with pytest.raises(DomainError, match="Gauss-Romanovski"):
        gauss_romanovski(P, G, N)
