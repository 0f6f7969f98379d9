"""Eigenfunction layer: normalization constants against an independent
high-precision quadrature oracle, orthonormality, Taylor-jet derivatives
against finite differences, the superpotential log-derivative law, and the
product-form normalization against the double-sum oracle.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from ptsusy import specfun, wavefn
from ptsusy.coherent import CoherentState, PhasePoint
from ptsusy.errors import DegreeCapError, DomainError
from ptsusy.operators import _OperandStack, apply_word
from ptsusy.quadrature import QuadratureConfig, integrate_interval
from ptsusy.spectrum import LEVEL_CAP, LevelIndex, ModelParams
from ptsusy.wavefn import (
    EigenFamily,
    EigenFunction,
    eigenfunction,
    gram_matrix,
    ground_table,
    log_ground_constant,
    normalization_K,
)

from conftest import DEFAULT, PARAM_GRID, interior_grid
from oracles import derivative as fd_derivative
from oracles import (
    LossOfSignificanceError,
    full_length_rows,
    mp_eigenfunctions,
    mp_partner,
    normalization_double_sum,
    pairwise_gram,
    shifted_normalization_K,
    superpotential,
)

NORM_CFG = QuadratureConfig(endpoint_substitution=True)


def quad_norm(func, length):
    eps = 1e-9 * length
    res = integrate_interval(lambda x: np.abs(func(x)) ** 2, eps, length - eps, NORM_CFG)
    return float(res.value.real)


# (nu, beta, n) -> K, precomputed with 40-digit mpmath quadrature of the
# unnormalized closed form (sine power x exponential tilt x Jacobi factor)
K_ORACLE = {
    (1.0, 2.0, 5): 19.951397090958945514,
    (1.5, 2.5, 12): 516.51920362158186378,
    (0.5, 3.0, 8): 231.32762082449783938,
    (2.5, 0.0, 10): 41.658608163198601419,
    (0.0, 1.0, 15): 50957.898707877391667,
}


def test_normalization_product_form_vs_oracle():
    for (nu, beta, n), ref in K_ORACLE.items():
        p = ModelParams(nu=nu, beta=beta, hbar=1.0, length=1.0, mass=0.5)
        got = math.exp(normalization_K(p, n))
        assert got == pytest.approx(ref, rel=5e-13)


def test_normalization_double_sum_agrees_at_low_degree():
    # the printed double-sum route is usable at small n; cross-check the routes
    for n in range(0, 6):
        a = math.exp(normalization_K(DEFAULT, n))
        b = math.exp(normalization_double_sum(DEFAULT, n))
        assert a == pytest.approx(b, rel=1e-8)


def test_double_sum_guards_catastrophic_cancellation():
    with pytest.raises(LossOfSignificanceError):
        normalization_double_sum(DEFAULT, 12)


def test_ground_constant_symmetric_well():
    # nu=0, beta=0, L=1: phi_0 = sqrt(2) sin(pi x)
    p = ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    assert math.exp(log_ground_constant(0.0, 0.0, 1.0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )
    f = eigenfunction(p, 0, 0)
    assert f(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-13)
    xs = interior_grid(p, 17)
    assert np.allclose(f(xs), np.sqrt(2.0) * np.sin(np.pi * xs), rtol=1e-13)


# nu = 0.123: (nu + m) + j and nu + (m + j) round apart at 88 of the 231
# entries, and 54 of their ground constants differ, so the table's order of
# operations is pinned
TABLE_PARAMS = PARAM_GRID + [ModelParams(nu=0.123, beta=2.0456, hbar=1.0, length=1.0, mass=0.5)]


@pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"nu{p.nu}b{p.beta}L{p.length}")
def test_ground_ladder_matches_scalar_route_bit_for_bit(p):
    # row m of the table is the ground ladder of level m
    table = ground_table(p)
    assert table.shape == (LEVEL_CAP + 1, LEVEL_CAP + 1)
    for m in range(LEVEL_CAP + 1):
        for j in range(LEVEL_CAP + 1):
            if m + j > LEVEL_CAP:
                assert math.isnan(table[m, j]), (m, j)
                continue
            scalar = log_ground_constant((p.nu + m) + j, p.beta, p.length)
            assert isinstance(scalar, float)
            assert table[m, j].hex() == scalar.hex(), (m, j)


@pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"nu{p.nu}b{p.beta}L{p.length}")
def test_every_log_K_matches_the_shifted_parameter_route(p):
    # the route EigenFunction took before the table: normalization_K at a
    # ModelParams whose strength index is shifted by the level
    for m in range(LEVEL_CAP + 1):
        for n in range(LEVEL_CAP + 1 - m):
            got = EigenFunction(p, LevelIndex(m=m, n=n)).log_K
            assert float(got).hex() == float(shifted_normalization_K(p, m, n)).hex(), (m, n)


def test_ground_ladder_is_read_only():
    table = ground_table(DEFAULT)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    with pytest.raises(ValueError):
        table += 1.0


def test_states_of_every_level_cost_one_log_gamma_call_and_no_params(monkeypatch):
    # a parameter set no other test builds, so every cache starts cold
    p = ModelParams(nu=0.8123, beta=1.4321, hbar=1.0, length=1.0, mass=0.5)
    calls = []
    built = []

    def counted(z):
        calls.append(np.size(z))
        return specfun.log_gamma(z)

    original = ModelParams.__post_init__

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(wavefn, "log_gamma", counted)
    monkeypatch.setattr(ModelParams, "__post_init__", spy)
    states = [EigenFunction(p, LevelIndex(m=m, n=n)) for m in range(11) for n in range(11)]
    assert calls == [(LEVEL_CAP + 1) * (LEVEL_CAP + 2) // 2]
    assert built == []
    assert all(math.isfinite(f.log_K) for f in states)


@pytest.mark.parametrize("n", [2.0, np.int64(2), np.float64(2.0)])
def test_whole_number_indices_are_ints(n):
    # past the caches, which would hand back the entry an int index made
    assert normalization_K.__wrapped__(DEFAULT, n) == normalization_K(DEFAULT, 2)
    idx = LevelIndex(m=n, n=n)
    assert type(idx.m) is int and type(idx.n) is int
    f = EigenFunction(DEFAULT, LevelIndex(m=0, n=n))
    assert type(f.idx.n) is int
    xs = interior_grid(DEFAULT, 7)
    assert f(xs).tobytes() == eigenfunction(DEFAULT, 0, 2)(xs).tobytes()


@pytest.mark.parametrize("n", [2.5, -1, math.nan, math.inf, "2"])
def test_bad_indices_raise_domain_error(n):
    with pytest.raises(DomainError):
        normalization_K(DEFAULT, n)
    with pytest.raises(DomainError):
        eigenfunction(DEFAULT, 0, n)
    with pytest.raises(DomainError):
        LevelIndex(m=0, n=n)


def test_bool_indices_build_no_state():
    # eigenfunction(p, True, True) once built the state (1, 1); with (1, 1)
    # and K_1 cached first, a bool must still miss their cache entries
    for m, n in ((1, 1), (1, 0), (0, 0)):
        eigenfunction(DEFAULT, m, n)
    normalization_K(DEFAULT, 1)
    for m, n in ((True, True), (True, 0), (0, False)):
        with pytest.raises(DomainError, match="integers"):
            eigenfunction(DEFAULT, m, n)
    with pytest.raises(DomainError, match="integers"):
        normalization_K(DEFAULT, True)


def test_index_above_level_cap_raises_before_the_ladder():
    with pytest.raises(DegreeCapError):
        normalization_K(DEFAULT, LEVEL_CAP + 1)
    with pytest.raises(DegreeCapError):
        eigenfunction(DEFAULT, 0, LEVEL_CAP + 1)


def test_unit_norm_across_parameters(swept_params):
    for n in (0, 1, 4):
        f = eigenfunction(swept_params, 0, n)
        assert quad_norm(f, swept_params.length) == pytest.approx(1.0, abs=5e-11)


def test_unit_norm_hierarchy_levels():
    for m in (1, 2, 3):
        for n in (0, 2, 5):
            f = eigenfunction(DEFAULT, m, n)
            assert quad_norm(f, DEFAULT.length) == pytest.approx(1.0, abs=5e-11)


def test_unit_norm_high_degree_noise_floor():
    # the two-sided binomial sum keeps the evaluation error far below the
    # norm tolerance up to the level cap.  The Jacobi series it replaced lost
    # about 6e-8 at n = 20, and the default tolerances raised
    # SubdivisionLimitError there; both states now meet the low-degree bound
    f = eigenfunction(DEFAULT, 0, 15)
    assert quad_norm(f, DEFAULT.length) == pytest.approx(1.0, abs=5e-11)
    p = ModelParams(nu=2.5, beta=3.0, hbar=1.0, length=1.0, mass=0.5)
    assert quad_norm(eigenfunction(p, 0, 20), p.length) == pytest.approx(1.0, abs=5e-11)


def test_endpoints_exact_zero():
    f = eigenfunction(DEFAULT, 1, 3)
    assert f(0.0) == 0.0
    assert f(DEFAULT.length) == 0.0
    vals = f(np.array([0.0, 0.5, 1.0]))
    assert vals[0] == 0.0 and vals[2] == 0.0


def test_outside_box_rejected():
    f = eigenfunction(DEFAULT, 0, 0)
    with pytest.raises(DomainError):
        f(-0.1)
    with pytest.raises(DomainError):
        f(1.2)


@pytest.mark.parametrize(
    "func",
    [
        eigenfunction(DEFAULT, 0, 1),
        CoherentState(DEFAULT, 0, PhasePoint(0.4, 1.0)),
    ],
    ids=["eigenfunction", "coherent_state"],
)
def test_nan_position_rejected(func):
    # NaN fails every comparison, so it must not slip past the box guard as 0
    for x in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            func(x)


def test_taylor_rejects_walls_and_outside():
    # the jet exists on the open interval only: all NaN at the walls, and
    # no eigenfunction outside the box
    f = eigenfunction(DEFAULT, 0, 2)
    for x in (0.0, DEFAULT.length, 1.3 * DEFAULT.length, np.array([0.5, 0.0]), math.nan):
        with pytest.raises(DomainError):
            f.taylor(x, 1)


def test_ground_state_log_derivative_is_superpotential():
    # hbar phi0'/phi0 = -W at every level: the defining factorization relation
    for m in (0, 1, 2):
        f = eigenfunction(DEFAULT, m, 0)
        xs = interior_grid(DEFAULT, 23, clamp=0.08)
        lhs = DEFAULT.hbar * f.taylor(xs, 1).c[1] / f(xs)
        rhs = -superpotential(DEFAULT, m, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_derivative_matches_finite_differences():
    f = eigenfunction(DEFAULT, 0, 3)
    for x0 in (0.21, 0.5, 0.83):
        want, _ = fd_derivative(f, x0, order=1, h0=1e-3)
        assert f.taylor(x0, 1).c[1] == pytest.approx(want, rel=1e-8)


def test_taylor_consistent_with_call_and_derivative():
    f = eigenfunction(DEFAULT, 1, 2)
    xs = np.array([0.3, 0.62])
    jet = f.taylor(xs, 2)
    assert np.allclose(jet.value, f(xs), rtol=1e-12)
    # a lower-order jet is the truncation of a higher-order one
    assert np.allclose(f.taylor(xs, 1).c, jet.c[:2], rtol=1e-13)
    for x0, c2 in zip(xs, jet.c[2]):
        want, _ = fd_derivative(f, x0, order=2, h0=1e-3)
        assert 2.0 * c2 == pytest.approx(want, rel=1e-6)


def test_gram_matrix_orthonormal():
    funcs = [eigenfunction(DEFAULT, 0, n) for n in range(6)]
    g = gram_matrix(funcs, DEFAULT.length)
    assert np.max(np.abs(g - np.eye(6))) < 1e-10


def test_gram_matrix_level_two():
    funcs = [eigenfunction(DEFAULT, 2, n) for n in range(4)]
    g = gram_matrix(funcs, DEFAULT.length)
    assert np.max(np.abs(g - np.eye(4))) < 1e-10


# the acceptance configuration of criterion 1
ORTHONORMALITY_CONFIG = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-8)


@pytest.mark.parametrize("m", [0, 10])
def test_gram_matrix_agrees_with_pairwise_oracle(monkeypatch, m):
    import ptsusy.wavefn as wavefn

    reported = []

    def recorded(*args):
        reported.append(integrate_interval(*args))
        return reported[-1]

    monkeypatch.setattr(wavefn, "integrate_interval", recorded)
    funcs = [eigenfunction(DEFAULT, m, n) for n in range(11)]
    gram = gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG)
    (res,) = reported
    ref, ref_err = pairwise_gram(funcs, 0.0, DEFAULT.length, ORTHONORMALITY_CONFIG)
    rows, cols = np.triu_indices(11)
    assert np.all(np.abs(gram[rows, cols] - ref[rows, cols]) <= res.error + ref_err[rows, cols])
    # lower triangle filled as the conjugate of the upper one, diagonal included
    want = np.zeros_like(gram)
    want[rows, cols] = res.value
    want[cols, rows] = np.conj(res.value)
    assert np.array_equal(gram, want)


@pytest.mark.parametrize("m", [0, 10])
def test_gram_matrix_point_budget(m):
    # one evaluation of every function per node; the per-pair loop this
    # replaced took 25,380 points at m = 0 and 42,840 at m = 10
    points = [0]

    def counted(f):
        def g(x):
            points[0] += np.size(x)
            return f(x)

        return g

    funcs = [counted(eigenfunction(DEFAULT, m, n)) for n in range(11)]
    gram = gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-8
    assert points[0] <= 5000


# the parameter sets of the checks against the mpmath route: the tests'
# default, one in a non-unit gauge, the symmetric infinite well and the CLI
# default; the first two also serve the family checks
MP_PARAMS = [
    DEFAULT,
    ModelParams(nu=0.37, beta=0.0, hbar=2.0, length=2.0, mass=1.0),
    ModelParams(nu=0.0, beta=0.0),
    ModelParams(nu=1.0, beta=0.0),
]
MP_IDS = ["default", "gauge2", "well", "cli_default"]
FAMILY_PARAMS = MP_PARAMS[:2]


def _bulk(p):
    # 41 points of [0.1 L, 0.9 L]
    return np.linspace(0.1 * p.length, 0.9 * p.length, 41)


def _family_points(p):
    # exactly 0 and L, a scalar, one point, and a 2-d grid
    grid = np.concatenate([[0.0], interior_grid(p, 59, clamp=0.01), [p.length]])
    return [grid, 0.3 * p.length, grid[[17]], grid[1:].reshape(6, 10)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _short_of_the_reference(worst: str, over: int) -> pytest.MarkDecorator:
    # the rows cancel too hard for 1e-11 at large nu and beta; a three-term
    # recurrence for the Fourier rows and for Q should make these pass
    return pytest.mark.xfail(strict=True, reason=f"worst {worst} of a state's largest value, {over} of 121 states over 1e-11")


# (nu, beta) beyond MP_PARAMS
LARGE_SETS = {
    "nu20b200": ModelParams(nu=20.0, beta=200.0),
    "nu60b5": ModelParams(nu=60.0, beta=5.0),
    "nu0.2b400": ModelParams(nu=0.2, beta=400.0),
}


def _large_params(*worst) -> list:
    # LARGE_SETS, each with a route's measured worst error and count of states over the bound
    return [pytest.param(p, marks=_short_of_the_reference(*w), id=i) for (i, p), w in zip(LARGE_SETS.items(), worst)]


@lru_cache(maxsize=None)
def _per_state_reference(p):
    # the 60-digit Jacobi series of every state of levels 0-10, n 0-10 at
    # _bulk(p), computed once per set for both routes; read-only
    rows = mp_eigenfunctions(_levels_0_to_10(p), _bulk(p))
    rows.flags.writeable = False
    return rows


def _rows_match_per_state_reference(p, evaluate):
    # every state of levels 0-10, n 0-10 as a row of one evaluation, against
    # the 60-digit Jacobi series of each state
    states = _levels_0_to_10(p)
    rows = evaluate(states, _bulk(p))
    for f, row, want in zip(states, rows, _per_state_reference(p)):
        assert np.max(np.abs(row - want)) <= 1e-11 * np.max(np.abs(want)), f.idx


MP_CASES = [pytest.param(p, id=i) for p, i in zip(MP_PARAMS, MP_IDS)]


@pytest.mark.parametrize("p", MP_CASES + _large_params(("7.6e-11", 11), ("3.2e-9", 36), ("6.5e-9", 42)))
def test_family_rows_match_per_state_reference(p):
    # the Jacobi series in double erred up to 1.4e-9 here at level 10
    _rows_match_per_state_reference(p, lambda states, xs: EigenFamily(states)(xs))


@pytest.mark.parametrize("p", MP_CASES + _large_params(("6.3e-11", 8), ("2.6e-9", 36), ("4.5e-9", 42)))
def test_fold_rows_match_per_state_reference(p):
    # the second route: the states' cotangent form, the empty word that
    # operator words extend, stacked into one fold
    _rows_match_per_state_reference(p, lambda states, xs: apply_word(p, (), _OperandStack(states), xs))


def _levels_0_to_10(p):
    return [eigenfunction(p, m, n) for m in range(11) for n in range(11)]


def test_states_are_real_positive_phase():
    # the chain-adapted phase makes every bound state real valued: the
    # complex route that sums all n + 1 Fourier coefficients carries an
    # imaginary part of roundoff only, and the package returns float rows
    for p in MP_PARAMS:
        states = _levels_0_to_10(p)
        xs = interior_grid(p, 31)
        assert EigenFamily(states)(xs).dtype == np.float64
        assert eigenfunction(p, 0, 4)(xs).dtype == np.float64
        for f, row in zip(states, full_length_rows(states, xs)):
            assert np.max(np.abs(row.imag)) <= 1e-12 * np.max(np.abs(row.real)), (p, f.idx)


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_fourier_rows_are_conjugate_symmetric(p):
    # G_(n - k) = conj G_k, which the real rows rely on, holds to a few ulps
    eps = np.finfo(float).eps
    for f in _levels_0_to_10(p):
        g = f._fourier
        assert np.all(np.abs(g[::-1] - g.conj()) <= 4.0 * eps * np.abs(g)), f.idx


def _horner_bound(f, x):
    # 4 (n + 1) eps envelope(x) sum_k |G_k|, the roundoff of a Horner pass
    # over the Fourier row of state f at x: the conditioning of its sum
    theta = np.pi * np.asarray(x) / f.params.length
    with np.errstate(divide="ignore"):  # log sin 0 = -inf gives the wall's envelope 0
        envelope = np.exp(f.log_K + f._gamma * x + (f._nu_eff + 1.0) * np.log(np.sin(theta)))
    return 4.0 * (f.idx.n + 1) * np.finfo(float).eps * envelope * np.sum(np.abs(f._fourier))


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_half_rows_match_full_length_route(p):
    # the upper-half real sum against the real part of the full complex sum.
    # Both are Horner passes whose roundoff is at most a few (n + 1) eps
    # envelope(x) sum_k |G_k|; at level 10, n 10 that reaches 4.9e-13 to
    # 7.8e-13 of max |phi| on these grids, where both routes also differ from
    # the 60-digit route by 3e-13 to 9e-13, so the bound is the conditioning
    # of the sum and not a fixed fraction of max |phi|
    xs = np.concatenate([interior_grid(p, 59, clamp=0.01), np.array([1e-6, 1e-3, 0.999]) * p.length])
    states = _levels_0_to_10(p)
    for f, row, old in zip(states, EigenFamily(states)(xs), full_length_rows(states, xs)):
        assert np.all(np.abs(row - old.real) <= _horner_bound(f, xs)), f.idx


@pytest.mark.parametrize(
    "p",
    FAMILY_PARAMS + [ModelParams(nu=20.0, beta=200.0), ModelParams(nu=0.2, beta=400.0)],
    ids=["default", "gauge2", "nu20b200", "nu0.2b400"],
)
def test_one_state_calls_match_family_rows(p):
    # a one-state call is the one-row family and keeps shape and type.  Its
    # values are the rows of a family of levels 0-10, n 0-10 bit for bit at
    # every point, a scalar and a one-point array included: a lone point is
    # evaluated as two, as numpy rounds a complex product in a loop of one
    # element otherwise.  A shuffled copy of the family gives the same rows
    # bit for bit
    states = [eigenfunction(p, m, n) for m in range(11) for n in range(11)]
    family = EigenFamily(states)
    order = np.random.default_rng(5).permutation(len(states))
    shuffled = EigenFamily([states[i] for i in order])
    for x in _family_points(p):
        rows = family(x)
        assert rows.shape == (len(states),) + np.shape(x)
        assert _same_bits(shuffled(x)[np.argsort(order)], rows), np.shape(x)
        for f, row in zip(states, rows):
            alone = f(x)
            assert np.shape(alone) == np.shape(x) and type(alone) is (float if np.ndim(x) == 0 else np.ndarray)
            assert _same_bits(alone, row), (f.idx, np.shape(x))
        walls = np.isin(np.asarray(x), [0.0, p.length])
        assert np.all(rows[:, walls] == 0.0)


def test_family_returns_rows_in_input_order():
    # degrees out of order, levels mixed, tied degrees and a repeated state:
    # each row is bit for bit the row of the same state in the sorted family
    cells = ((3, 2), (0, 7), (5, 0), (1, 1), (2, 9), (6, 2), (0, 7), (4, 4))
    states = [eigenfunction(DEFAULT, m, n) for m, n in cells]
    ordered = sorted(range(len(cells)), key=lambda i: -cells[i][1])
    xs = np.linspace(0.0, DEFAULT.length, 41)
    rows = EigenFamily(states)(xs)
    sorted_rows = EigenFamily([states[i] for i in ordered])(xs)
    for i, row in zip(ordered, sorted_rows):
        assert _same_bits(rows[i], row), cells[i]


def test_family_rejects_nan_outside_and_mixed_params():
    family = EigenFamily([eigenfunction(DEFAULT, 1, n) for n in range(4)])
    for x in (math.nan, np.array([0.5, math.nan]), -0.1, np.array([[0.5, 1.2]])):
        with pytest.raises(DomainError):
            family(x)
    with pytest.raises(DomainError):
        EigenFamily([eigenfunction(DEFAULT, 0, 1), eigenfunction(PARAM_GRID[0], 0, 1)])


def test_empty_family_raises_domain_error():
    with pytest.raises(DomainError, match="at least one state"):
        EigenFamily(())


def test_gram_matrix_of_no_functions_is_empty():
    gram = gram_matrix([], DEFAULT.length)
    assert gram.shape == (0, 0) and gram.dtype == complex


@pytest.mark.parametrize("m", [0, 7])
def test_gram_matrix_family_byte_equal_to_plain_callables(m):
    # eigenfunctions of one model go through one family per call; the same
    # states wrapped as plain callables take one call each per node array,
    # which runs the same operations on every row
    funcs = [eigenfunction(DEFAULT, m, n) for n in range(11)]
    plain = [lambda x, f=f: f(x) for f in funcs]
    batched = gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG)
    assert batched.tobytes() == gram_matrix(plain, DEFAULT.length, ORTHONORMALITY_CONFIG).tobytes()


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_partner_explicit_matches_per_state_reference(p):
    # the 60-digit explicit first-level form against each level-1 state
    xs = _bulk(p)
    for n in range(10):
        want = mp_partner(p, n, xs)
        assert np.max(np.abs(eigenfunction(p, 1, n)(xs) - want)) <= 1e-11 * np.max(np.abs(want)), n


def test_parity_at_zero_tilt():
    # beta = 0 leaves a symmetric well: phi_n(L-x) = (-1)^n phi_n(x)
    p = ModelParams(nu=1.5, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    xs = interior_grid(p, 19)
    for n in range(4):
        f = eigenfunction(p, 0, n)
        lhs = f(p.length - xs)
        rhs = (-1.0) ** n * f(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * np.max(np.abs(rhs))


def test_hierarchy_identity_shifted_family():
    # a level-m state equals the level-0 state of the (nu+m, beta) model
    shifted = ModelParams(
        nu=DEFAULT.nu + 2.0,
        beta=DEFAULT.beta,
        hbar=DEFAULT.hbar,
        length=DEFAULT.length,
        mass=DEFAULT.mass,
    )
    xs = interior_grid(DEFAULT, 25)
    lhs = eigenfunction(DEFAULT, 2, 3)(xs)
    rhs = eigenfunction(shifted, 0, 3)(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


def test_partner_level_closed_form_two_routes():
    # the explicit mixed-angle formula for level 1 against the shifted family
    xs = interior_grid(DEFAULT, 41, clamp=0.03)
    for n in range(4):
        lhs = mp_partner(DEFAULT, n, xs)
        rhs = eigenfunction(DEFAULT, 1, n)(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_partner_route_other_parameters(swept_params):
    xs = interior_grid(swept_params, 21, clamp=0.05)
    lhs = mp_partner(swept_params, 1, xs)
    rhs = eigenfunction(swept_params, 1, 1)(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_eigenfunction_cache_returns_same_object():
    assert eigenfunction(DEFAULT, 0, 3) is eigenfunction(DEFAULT, 0, 3)


def test_energy_property():
    f = eigenfunction(DEFAULT, 1, 2)
    from ptsusy.spectrum import energy

    assert f.energy == energy(DEFAULT, LevelIndex(m=1, n=2))
