"""Coherent states: master integral closed form, normalization, the
lowering-operator eigenrelation, overlap algebra, and the completeness kernel."""

import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ptsusy.coherent import (
    CoherentState,
    PhasePoint,
    cs_log_normalization,
    cs_overlap,
    identity_gram_projection,
    resolution_kernel,
)
from ptsusy.errors import DomainError
from ptsusy.operators import apply_word
from ptsusy.quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from ptsusy.specfun import log_gamma
from ptsusy.spectrum import ModelParams
from ptsusy.wavefn import eigenfunction

from conftest import DEFAULT, interior_grid
from oracles import (
    cs_normalization,
    log_master_integral,
    master_integral,
    operand_jet,
    pairwise_gram,
    superpotential,
    two_sided_resolution_kernel,
)

QCFG = QuadratureConfig(endpoint_substitution=True)


def quad_inner(f, g, length):
    eps = 1e-9 * length
    return integrate_interval(
        lambda x: np.conj(f(x)) * g(x), eps, length - eps, QCFG
    ).value


def test_master_integral_trivial_values():
    assert master_integral(0.0, 0.0) == pytest.approx(0.5, rel=1e-13)
    assert master_integral(1.0, 0.0) == pytest.approx(0.375, rel=1e-13)


def test_master_integral_pure_oscillation():
    # int_0^1 sin(pi x)^2 exp(2 pi i x) dx = -1/4 exactly
    got = master_integral(0.0, 2.0j * math.pi)
    assert got.real == pytest.approx(-0.25, abs=1e-13)
    assert abs(got.imag) < 1e-13


def test_master_integral_against_quadrature_sweep():
    rng = np.random.default_rng(11)
    for _ in range(12):
        d = rng.uniform(-0.9, 4.0)
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        ref = integrate_interval(
            lambda x: np.sin(np.pi * x) ** (2 * d + 2) * np.exp(z * x), 0.0, 1.0, QCFG
        ).value
        got = master_integral(d, z)
        assert abs(got - ref) < 1e-10 * max(abs(ref), 1e-3)


def test_master_integral_domain_guard():
    with pytest.raises(DomainError):
        master_integral(-1.5, 0.0)


def test_log_master_handles_huge_drift():
    # |Re z| = 400 overflows the plain form; the log form stays finite
    lm = log_master_integral(1.0, 400.0)
    assert np.isfinite(lm.real) and lm.real > 50.0


def test_normalization_unit_at_symmetric_midpoint():
    p = ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    assert cs_normalization(p, 0, 0.5) == pytest.approx(1.0, rel=1e-14)


def test_normalization_two_routes(swept_params):
    # closed-form log R against direct quadrature of the tilted ground state
    L = swept_params.length
    for m in (0, 1):
        for qfrac in (0.3, 0.5, 0.62):
            st = CoherentState(swept_params, m, PhasePoint(qfrac * L, 1.5))
            norm = quad_inner(st, st, L).real
            assert norm == pytest.approx(1.0, abs=1e-10)


def test_normalization_survives_wall_adjacent_label():
    # cot(pi q / L) ~ 30 here; everything stays in log space
    st = CoherentState(DEFAULT, 0, PhasePoint(0.01, 0.0))
    assert np.isfinite(st.log_R)
    assert quad_inner(st, st, DEFAULT.length).real == pytest.approx(1.0, abs=1e-9)


def test_eigenrelation_of_lowering_operator():
    xs = interior_grid(DEFAULT, 41, clamp=0.05)
    for m in (0, 1, 2):
        st = CoherentState(DEFAULT, m, PhasePoint(0.37, 2.5))
        lhs = apply_word(DEFAULT, (("A", m),), st, xs)
        rhs = st.eigenvalue * st(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_eigenvalue_components():
    st = CoherentState(DEFAULT, 1, PhasePoint(0.4, -3.0))
    z = st.eigenvalue
    assert z.real == pytest.approx(superpotential(DEFAULT, 1, 0.4), rel=1e-12)
    assert z.imag == pytest.approx(-3.0, rel=1e-15)


def test_overlap_closed_form_vs_quadrature():
    a = CoherentState(DEFAULT, 1, PhasePoint(0.25, -2.0))
    b = CoherentState(DEFAULT, 1, PhasePoint(0.6, 5.0))
    got = cs_overlap(a, b)
    ref = quad_inner(a, b, DEFAULT.length)
    assert abs(got - ref) < 1e-12


def test_overlap_hermiticity_and_bound():
    pts = [PhasePoint(0.2, -4.0), PhasePoint(0.45, 0.0), PhasePoint(0.7, 3.0)]
    states = [CoherentState(DEFAULT, 0, pt) for pt in pts]
    for i, a in enumerate(states):
        for b in states[i:]:
            ab = cs_overlap(a, b)
            ba = cs_overlap(b, a)
            assert abs(ab - np.conj(ba)) < 1e-12
            assert abs(ab) <= 1.0 + 1e-12
    # distinct labels overlap strictly below unity
    assert abs(cs_overlap(states[0], states[2])) < 0.999


def test_overlap_far_apart_in_momentum():
    # one of dp + 2 +- tau has real part about -1.6e5, which log_gamma
    # reflects at the cost of any other point; the closed form then holds to
    # the rounding of its phase Delta p L / (2 hbar) = 5e5
    p = replace(DEFAULT, beta=0.0)
    a = CoherentState(p, 0, PhasePoint(0.3, 0.0))
    b = CoherentState(p, 0, PhasePoint(0.3, 1e6))
    dp, s = a._dp, a._dp + 1.0
    with mpmath.workdps(40):
        ua, ub = mpmath.mpf(a._u), mpmath.mpf(b._u)
        tau = 1j * (-mpmath.pi * s * (ua + ub) + 1j * mpmath.mpf(1e6)) / (2.0 * mpmath.pi)
        ref = complex(
            mpmath.exp(
                mpmath.loggamma(mpmath.mpc(dp + 2.0, s * ua)).real
                + mpmath.loggamma(mpmath.mpc(dp + 2.0, s * ub)).real
                + 0.5j * mpmath.mpf(1e6)
                - mpmath.loggamma(dp + 2.0 + tau)
                - mpmath.loggamma(dp + 2.0 - tau)
            )
        )
    got = cs_overlap(a, b)
    assert abs(got - ref) <= 1e-9 * abs(ref)
    assert abs(cs_overlap(b, a) - np.conj(got)) <= 1e-9 * abs(ref)


def test_overlap_requires_same_level_and_model():
    a = CoherentState(DEFAULT, 0, PhasePoint(0.3, 0.0))
    b = CoherentState(DEFAULT, 1, PhasePoint(0.3, 0.0))
    with pytest.raises(DomainError):
        cs_overlap(a, b)


def test_negative_level_rejected():
    with pytest.raises(DomainError, match="m=-1"):
        CoherentState(DEFAULT, -1, PhasePoint(0.3, 0.0))
    with pytest.raises(DomainError, match="m=-1"):
        cs_log_normalization(DEFAULT, -1, 0.3)
    with pytest.raises(DomainError, match="m=-1"):
        resolution_kernel(DEFAULT, -1, 0.5)


@pytest.mark.parametrize("m", ["1", None], ids=repr)
def test_level_that_is_no_number_rejected(m):
    # the sign test ran first and raised TypeError comparing m with 0
    calls = (
        lambda: CoherentState(DEFAULT, m, PhasePoint(0.3, 0.0)),
        lambda: cs_log_normalization(DEFAULT, m, 0.3),
        lambda: resolution_kernel(DEFAULT, m, 0.5),
        lambda: identity_gram_projection(DEFAULT, m, 0),
    )
    for call in calls:
        with pytest.raises(DomainError, match=f"level indices must be integers, got {re.escape(repr(m))}"):
            call()


def test_fractional_level_rejected():
    pt = PhasePoint(0.3, 0.0)
    with pytest.raises(DomainError, match="integers"):
        CoherentState(DEFAULT, 0.5, pt)
    with pytest.raises(DomainError, match="integers"):
        cs_log_normalization(DEFAULT, 0.5, 0.3)
    with pytest.raises(DomainError, match="integers"):
        resolution_kernel(DEFAULT, 0.5, 0.5)
    # an integral float is the integer level
    st = CoherentState(DEFAULT, 1.0, pt)
    assert st.m == 1 and st.log_R == CoherentState(DEFAULT, 1, pt).log_R
    assert resolution_kernel(DEFAULT, 1.0, 0.5) == resolution_kernel(DEFAULT, 1, 0.5)


def test_bool_level_rejected():
    # a bool is no level, though it is an Integral
    with pytest.raises(DomainError, match="integers, got True"):
        resolution_kernel(DEFAULT, True, 0.5)
    with pytest.raises(DomainError, match="integers, got False"):
        resolution_kernel(DEFAULT, False, np.array([0.3, 0.5]))
    with pytest.raises(DomainError, match="integers, got True"):
        CoherentState(DEFAULT, True, PhasePoint(0.3, 0.0))


def test_phase_point_domain_guard():
    with pytest.raises(DomainError):
        CoherentState(DEFAULT, 0, PhasePoint(0.0, 0.0))
    with pytest.raises(DomainError):
        CoherentState(DEFAULT, 0, PhasePoint(DEFAULT.length, 0.0))


@pytest.mark.parametrize(
    ("q", "p"), [(0.3, math.nan), (0.3, math.inf), (0.3, -math.inf), (math.nan, 1.0), (math.inf, 1.0)]
)
def test_phase_point_rejects_nonfinite_labels(q, p):
    # a NaN momentum once gave a state of value nan+nanj and an eigenvalue
    # with a NaN imaginary part, and an infinite one RuntimeWarnings
    with pytest.raises(DomainError, match="phase-space labels must be finite"):
        PhasePoint(q, p)


def test_endpoints_zero_and_operator_words_interior_only():
    st = CoherentState(DEFAULT, 0, PhasePoint(0.4, 1.0))
    vals = st(np.array([0.0, 0.5, 1.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] == pytest.approx(st(0.5), rel=1e-14)
    # operator words are evaluated on the open interval only
    for x in (0.0, DEFAULT.length, 1.3 * DEFAULT.length, np.array([0.5, 0.0]), math.nan):
        with pytest.raises(DomainError):
            apply_word(DEFAULT, (("A", 0),), st, x)


def test_cot_terms_match_values():
    # the state's values are the empty word of its cotangent form, against
    # the exp formula of the Taylor oracle's order 0
    st = CoherentState(DEFAULT, 1, PhasePoint(0.3, 2.0))
    xs = np.array([0.2, 0.55])
    assert np.array_equal(st(xs), apply_word(DEFAULT, (), st, xs))
    assert np.allclose(st(xs), operand_jet(st, xs, 0).value, rtol=1e-12)


def test_resolution_kernel_unity():
    xs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
    for m in (0, 1):
        g = resolution_kernel(DEFAULT, m, xs)
        assert np.max(np.abs(np.asarray(g) - 1.0)) < 1e-8


def test_resolution_kernel_batch_matches_one_point_calls():
    # one call over x from next to a wall to the midpoint shares its t nodes;
    # each row is normalized to G(x), so no component starves the others
    xs = np.array([1e-6, 1e-3, 0.02, 0.3, 0.5, 0.77, 0.999]) * DEFAULT.length
    batch = resolution_kernel(DEFAULT, 0, xs)
    single = np.array([resolution_kernel(DEFAULT, 0, x) for x in xs])
    assert np.max(np.abs(batch - single)) < 1e-9
    assert np.max(np.abs(batch - 1.0)) < 1e-8
    assert np.max(np.abs(single - 1.0)) < 1e-8


# the benchmark's kernel points, in units of L
KERNEL_X = np.array((1e-3, 5e-3, 0.02) + tuple(j / 16.0 for j in range(1, 16)) + (0.98, 0.995, 0.999))


@pytest.mark.parametrize("params", [DEFAULT, replace(DEFAULT, nu=0.0, beta=0.0)], ids=["nu1b2", "nu0b0"])
def test_resolution_kernel_real_sum_matches_the_complex_sum(monkeypatch, params):
    import ptsusy.coherent as coherent

    xs = KERNEL_X * params.length
    real = [resolution_kernel(params, m, xs) for m in (0, 1, 2)]
    monkeypatch.setattr(coherent, "log_abs_gamma", lambda x, y: log_gamma(x + 1j * np.asarray(y)).real)
    for m, g in zip((0, 1, 2), real):
        assert np.max(np.abs(g - resolution_kernel(params, m, xs))) < 1e-13


@pytest.mark.parametrize(
    "params",
    [DEFAULT, replace(DEFAULT, nu=0.0, beta=0.0), replace(DEFAULT, nu=5.0, beta=50.0)],
    ids=["nu1b2", "nu0b0", "nu5b50"],
)
def test_folded_kernel_matches_the_two_sided_route(params):
    xs = KERNEL_X * params.length
    for m in (0, 1, 2):
        folded, two_sided = resolution_kernel(params, m, xs), two_sided_resolution_kernel(params, m, xs)
        assert np.max(np.abs(folded - two_sided)) < 1e-9, m


def test_folded_kernel_takes_one_log_gamma_per_node(monkeypatch):
    # every node t >= 0 of the half-line integral serves u and -u with one
    # log|Gamma| value: no negative argument, one point per row and node
    import ptsusy.coherent as coherent

    ys, results = [], []
    real_lag, real_line = coherent.log_abs_gamma, coherent.integrate_real_line

    def lag(x, y):
        ys.append(np.asarray(y).ravel())
        return real_lag(x, y)

    def line(*args, **kwargs):
        results.append(real_line(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(coherent, "log_abs_gamma", lag)
    monkeypatch.setattr(coherent, "integrate_real_line", line)
    xs = KERNEL_X * DEFAULT.length
    resolution_kernel(DEFAULT, 1, xs)
    assert min(float(y.min()) for y in ys) == 0.0
    assert sum(y.size for y in ys) == xs.size * results[0].evaluations


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 'Resolve the near-wall layer of the resolution kernel': the Gauss nodes "
    "step over the u-integrand's layer of width about 1 at d' < 1, so G misses 3.29e-6",
)
def test_resolution_kernel_near_wall_layer():
    # criterion 10's bound at nu = 0, m = 0, one point 1e-3 L from the wall
    p = replace(DEFAULT, nu=0.0, beta=0.0)
    assert abs(resolution_kernel(p, 0, 1e-3 * p.length) - 1.0) < 1e-6


def test_resolution_kernel_keeps_the_input_shape():
    xs = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])
    g = resolution_kernel(DEFAULT, 1, xs)
    assert g.shape == xs.shape
    assert np.array_equal(g.ravel(), resolution_kernel(DEFAULT, 1, xs.ravel()))
    assert type(resolution_kernel(DEFAULT, 1, 0.3)) is float
    for shape in ((0,), (0, 3)):
        empty = resolution_kernel(DEFAULT, 1, np.zeros(shape))
        assert empty.shape == shape and empty.dtype == float


def test_resolution_kernel_beta_independent():
    p0 = replace(DEFAULT, beta=0.0)
    a = resolution_kernel(DEFAULT, 0, 0.37)
    b = resolution_kernel(p0, 0, 0.37)
    assert a == pytest.approx(b, abs=1e-14)


def test_resolution_kernel_domain():
    for x in (0.0, math.nan):
        with pytest.raises(DomainError):
            resolution_kernel(DEFAULT, 0, x)


def test_gram_projection_identity_small():
    mat = identity_gram_projection(DEFAULT, 0, 3)
    assert np.max(np.abs(mat - np.eye(3))) < 1e-8


def test_gram_projection_on_no_states_is_empty():
    # the 0 x 0 matrix, as gram_matrix([]) gives
    mat = identity_gram_projection(DEFAULT, 1, 0)
    assert mat.shape == (0, 0) and mat.dtype == complex
    for m in (-1, 0.5):
        with pytest.raises(DomainError):
            identity_gram_projection(DEFAULT, m, 0)


@pytest.mark.parametrize("size", [-1, 2.5, True, math.nan, math.inf, "2", None])
def test_gram_projection_rejects_a_size_that_is_no_count(size):
    # a DomainError naming the size, before any state is built
    with pytest.raises(DomainError, match=re.escape(f"size must be a nonnegative whole number of states, got {size!r}")):
        identity_gram_projection(DEFAULT, 0, size)


@pytest.mark.parametrize("size", [2.0, np.int64(2), np.float64(2.0)])
def test_gram_projection_accepts_whole_number_sizes(size):
    mat = identity_gram_projection(DEFAULT, 0, size)
    assert mat.shape == (2, 2)
    assert mat.tobytes() == identity_gram_projection(DEFAULT, 0, 2).tobytes()


def test_gram_projection_agrees_with_pairwise_oracle(monkeypatch):
    import ptsusy.coherent as coherent
    import ptsusy.wavefn as wavefn

    reported = []

    def recorded(*args):
        reported.append(integrate_interval(*args))
        return reported[-1]

    # the projection is the triangle integral of gram_matrix, with G as its weight
    monkeypatch.setattr(wavefn, "integrate_interval", recorded)
    # looser than the defaults: this compares two routes, not the identity
    config = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-7, rel_tol=1e-7)
    monkeypatch.setattr(coherent, "_PROJECTION_CONFIG", config)
    monkeypatch.setattr(coherent, "_KERNEL_CONFIG", replace(DEFAULT_CONFIG, abs_tol=1e-8, rel_tol=1e-8))
    m, size = 1, 2
    mat = identity_gram_projection(DEFAULT, m, size)
    (res,) = reported
    funcs = [eigenfunction(DEFAULT, m, n) for n in range(size)]
    L = DEFAULT.length
    ref, ref_err = pairwise_gram(funcs, 1e-6 * L, (1.0 - 1e-6) * L, config, lambda x: resolution_kernel(DEFAULT, m, x))
    rows, cols = np.triu_indices(size)
    assert np.all(np.abs(mat[rows, cols] - ref[rows, cols]) <= res.error + ref_err[rows, cols])
    # lower triangle filled as the conjugate of the upper one, diagonal included
    want = np.zeros_like(mat)
    want[rows, cols] = res.value
    want[cols, rows] = np.conj(res.value)
    assert np.array_equal(mat, want)


def test_log_normalization_closed_form_value():
    # direct transcription of the gamma-ratio form at a hand-checked point
    q = 0.5
    m = 0
    # u = 0 at the midpoint: log R = Re lg(nu+2) - Re lg(nu+2+i beta/(nu+1)) - beta pi/(2(nu+1))
    want = (
        log_gamma(DEFAULT.nu + 2.0).real
        - log_gamma(complex(DEFAULT.nu + 2.0, DEFAULT.beta / (DEFAULT.nu + 1.0))).real
        - DEFAULT.beta * math.pi / (2.0 * (DEFAULT.nu + 1.0))
    )
    assert cs_log_normalization(DEFAULT, m, q) == pytest.approx(want, rel=1e-13)
