"""Eigenfunction layer: normalization constants against an independent
high-precision quadrature oracle, orthonormality, Taylor-jet derivatives
against finite differences, the superpotential log-derivative law, and the
product-form normalization against the double-sum oracle.
"""

import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from ptsusy import operators, specfun, wavefn
from ptsusy.coherent import CoherentState, PhasePoint
from ptsusy.errors import DegreeCapError, DomainError
from ptsusy.operators import apply_word
from ptsusy.quadrature import QuadratureConfig, integrate_interval
from ptsusy.spectrum import LEVEL_CAP, LevelIndex, ModelParams
from ptsusy.wavefn import (
    EigenFunction,
    eigenfunction,
    gram_matrix,
    log_ground_constant,
    normalization_K,
    state_table,
)

from conftest import DEFAULT, PARAM_GRID, interior_grid
from oracles import derivative as fd_derivative
from oracles import (
    LossOfSignificanceError,
    convolution_cot_q,
    fourier_row,
    full_length_rows,
    mp_eigenfunctions,
    mp_partner,
    normalization_double_sum,
    pairwise_gram,
    per_state_cot_q,
    per_state_log_K,
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
# entries, and 54 of their ground constants differ, so the order of
# operations of the state table's ground constants is pinned
TABLE_PARAMS = PARAM_GRID + [ModelParams(nu=0.123, beta=2.0456, hbar=1.0, length=1.0, mass=0.5)]


@pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"nu{p.nu}b{p.beta}L{p.length}")
def test_ground_ladder_matches_scalar_route_bit_for_bit(p):
    # the ground ladders of every level, one log_ground_constant call on the
    # 231 index arrays of the state table, against the scalar call at (nu + m) + j
    r = np.arange(LEVEL_CAP + 1)
    m, j = np.nonzero(np.add.outer(r, r) <= LEVEL_CAP)
    ladder = log_ground_constant((p.nu + m) + j, p.beta, p.length)
    assert ladder.shape == (231,)
    for k, (level, rung) in enumerate(zip(m.tolist(), j.tolist())):
        scalar = log_ground_constant((p.nu + level) + rung, p.beta, p.length)
        assert isinstance(scalar, float)
        assert ladder[k].hex() == scalar.hex(), (level, rung)


@pytest.mark.parametrize("p", TABLE_PARAMS, ids=lambda p: f"nu{p.nu}b{p.beta}L{p.length}")
def test_every_log_K_matches_the_shifted_parameter_route(p):
    # the route EigenFunction took before the table: normalization_K at a
    # ModelParams whose strength index is shifted by the level
    for m in range(LEVEL_CAP + 1):
        for n in range(LEVEL_CAP + 1 - m):
            got = EigenFunction(p, LevelIndex(m=m, n=n)).log_K
            assert float(got).hex() == float(shifted_normalization_K(p, m, n)).hex(), (m, n)


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


def _state_digests(p, cot_terms) -> list:
    # one sha256 per state of p under the cap, of its (log K, gamma, a, Q)
    # from cot_terms(m, n): the three floats by their hex form, Q by its bytes
    digests = []
    for m in range(LEVEL_CAP + 1):
        for n in range(LEVEL_CAP + 1 - m):
            log_k, gamma, power, q = cot_terms(m, n)
            assert q.dtype == np.float64 and q.shape == (n + 1,), (m, n)
            text = " ".join(float(v).hex() for v in (log_k, gamma, power))
            digests.append(hashlib.sha256(text.encode() + q.tobytes()).hexdigest())
    return digests


def _table_terms(p):
    def terms(m, n):
        (term,) = EigenFunction(p, LevelIndex(m=m, n=n)).cot_terms
        return term

    return terms


def _per_state_terms(p):
    # each state by its own recurrence and its own product form, as every
    # EigenFunction built them before the table
    def terms(m, n):
        s = n + (p.nu + m) + 1.0
        return per_state_log_K(p, m, n), -p.beta * math.pi / (p.length * s), s, per_state_cot_q(p, m, n)

    return terms


STATE_TABLE_SETS = [
    DEFAULT,
    ModelParams(nu=0.37, beta=0.0, hbar=2.0, length=2.0, mass=1.0),
    ModelParams(nu=0.0, beta=0.0),
    ModelParams(nu=0.2, beta=400.0),
    ModelParams(nu=20.0, beta=200.0),
    ModelParams(nu=60.0, beta=5.0),
    TABLE_PARAMS[-1],
]


def test_state_table_is_the_per_state_route_bit_for_bit():
    # every state under the cap read from its parameter set's table against
    # the same state by its own recurrence and product form, hashed: on the
    # named sets and 300 seeded ones with nu up to 100 and beta up to 500
    # (69,300 states).  numpy's ** 2 or np.log in the table's build in place
    # of np.float_power or math.log fails it.  About 1.5 s on 2 cores
    rng = np.random.default_rng(20)
    sweep = [ModelParams(nu=rng.uniform(0.0, 100.0), beta=rng.uniform(0.0, 500.0)) for _ in range(300)]
    start = time.perf_counter()
    for p in STATE_TABLE_SETS + sweep:
        got, want = _state_digests(p, _table_terms(p)), _state_digests(p, _per_state_terms(p))
        assert got == want, (p, [i for i, (g, w) in enumerate(zip(got, want)) if g != w][:5])
    assert time.perf_counter() - start < 30.0


def test_state_table_is_read_only_and_states_keep_their_own_q():
    table = state_table(DEFAULT)
    for array in table:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0
    assert table.log_K.shape == (LEVEL_CAP + 1, LEVEL_CAP + 1)
    assert np.isnan(table.log_K[1, LEVEL_CAP]) and not np.isnan(table.log_K[1, LEVEL_CAP - 1])
    ((log_k, _, _, q),) = eigenfunction(DEFAULT, 3, 4).cot_terms
    assert q.tobytes() == table.cot_q(3, 4).tobytes()
    assert log_k == table.log_K[3, 4] and normalization_K(DEFAULT, 4) == table.log_K[0, 4]
    # a cached state holds no table once the table cache lets it go
    state_table.cache_clear()
    ((_, _, _, q),) = eigenfunction(DEFAULT, 3, 4).cot_terms
    assert not q.flags.writeable and q.base is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("nu", "beta"), [(1e150, 0.0), (0.0, 1e150), (1.0, 1e30), (0.0, 0.0)])
def test_state_table_builds_silently_at_the_corners(nu, beta):
    # the rung factors or the Q of the high states overflow at the first
    # three; the build raises and warns nothing, and only a call that reads
    # such a state warns (see test_overflowing_stack_rows_warn_only_when_read)
    p = ModelParams(nu=nu, beta=beta)
    table = state_table.__wrapped__(p)
    assert math.isfinite(table.log_K[0, 0]) and np.all(np.isfinite(table.cot_q(0, 1)))
    ((log_k, _, _, q),) = EigenFunction(p, LevelIndex(m=0, n=0)).cot_terms
    assert log_k == table.log_K[0, 0] and q.tolist() == [1.0]


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
    # the cotangent form keeps the evaluation error far below the norm
    # tolerance up to the level cap.  The Jacobi series summed in double lost
    # about 6e-8 at n = 20, and the default tolerances raised
    # SubdivisionLimitError there; both states meet the low-degree bound
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
def test_gram_matrix_point_budget(monkeypatch, m):
    # one evaluation of every function per node, all in one pass of the
    # stacked operand; the per-pair loop this replaced took 25,380 function
    # points at m = 0 and 42,840 at m = 10. A point is one function at one
    # node, so a pass counts its rows times its nodes
    points = []
    real = operators._evaluate

    def counted(params, plan, x):
        points.append((len(plan.order), np.size(x)))
        return real(params, plan, x)

    monkeypatch.setattr(operators, "_evaluate", counted)
    funcs = [eigenfunction(DEFAULT, m, n) for n in range(11)]
    gram = gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG)
    assert np.max(np.abs(gram - np.eye(11))) < 1e-8
    assert points and all(rows == 11 for rows, _ in points)
    assert sum(rows * size for rows, size in points) <= 5000


# the parameter sets of the checks against the mpmath route: the tests'
# default, one in a non-unit gauge, the symmetric infinite well and the CLI
# default; the first two also serve the checks of single calls
MP_PARAMS = [
    DEFAULT,
    ModelParams(nu=0.37, beta=0.0, hbar=2.0, length=2.0, mass=1.0),
    ModelParams(nu=0.0, beta=0.0),
    ModelParams(nu=1.0, beta=0.0),
]
MP_IDS = ["default", "gauge2", "well", "cli_default"]


def _bulk(p):
    # 41 points of [0.1 L, 0.9 L]
    return np.linspace(0.1 * p.length, 0.9 * p.length, 41)


def _call_points(p):
    # exactly 0 and L, a scalar, one point, and a 2-d grid
    grid = np.concatenate([[0.0], interior_grid(p, 59, clamp=0.01), [p.length]])
    return [grid, 0.3 * p.length, grid[[17]], grid[1:].reshape(6, 10)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _stacked_rows(states, x):
    # the empty word of the states stacked as one operand: the values
    # gram_matrix integrates, one row per state
    (rows,) = operators._stacked_words(states[0].params, [((), tuple(states), 1.0)])(x)
    return rows


# (nu, beta) beyond MP_PARAMS
LARGE_SETS = {
    "nu20b200": ModelParams(nu=20.0, beta=200.0),
    "nu60b5": ModelParams(nu=60.0, beta=5.0),
    "nu0.2b400": ModelParams(nu=0.2, beta=400.0),
}


@pytest.mark.parametrize(
    "p",
    [pytest.param(p, id=i) for p, i in zip(MP_PARAMS, MP_IDS)]
    + [
        pytest.param(LARGE_SETS["nu20b200"], id="nu20b200"),
        pytest.param(LARGE_SETS["nu60b5"], id="nu60b5"),
        # the monomial coefficients of the recurrence Q cancel too hard for 1e-11 here
        pytest.param(
            LARGE_SETS["nu0.2b400"],
            id="nu0.2b400",
            marks=pytest.mark.xfail(strict=True, reason="worst 1.0e-10 of a state's largest value, 17 of 121 states over 1e-11"),
        ),
    ],
)
def test_fold_rows_match_per_state_reference(p):
    # every state of levels 0-10, n 0-10 as a row of one stacked fold of its
    # cotangent form, the empty word that operator words extend.  With Q
    # from the recurrence the worst reads 2.9e-13 at (20, 200) and 1.5e-14 at
    # (60, 5); at (0.2, 400) the monomial coefficients themselves hold 8.6e-11
    _rows_match_per_state_reference(p, lambda states, xs: apply_word(p, (), tuple(states), xs))


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_family_rows_match_per_state_reference(p):
    # the same family, every state called alone: the call reads its row of
    # the fold of its level's stack.  The calls equal the stacked rows bit
    # for bit (test_one_state_calls_match_family_rows), so at the large sets
    # the fold test above stands for them
    _rows_match_per_state_reference(p, lambda states, xs: np.array([f(xs) for f in states]))


@pytest.mark.parametrize("m, n", [(4, 3), (6, 5)])
def test_states_keep_their_relative_accuracy_at_both_walls(m, n):
    # at 0.999 L the angle pi x / L once carried the rounding of pi, and the
    # wall power multiplied it: 1.3e-13 and 1.7e-13 off the 60-digit series,
    # against 1.3e-15 and 5.1e-15 at 0.001 L.  The angle is now taken from
    # the distance to the nearer wall: 1.9e-16 and 1.3e-15 at 0.999 L
    p = MP_PARAMS[MP_IDS.index("gauge2")]
    f = eigenfunction(p, m, n)
    xs = np.array([0.001, 0.999]) * p.length
    want = mp_eigenfunctions([f], xs)[0]
    assert np.all(np.abs(f(xs) - want) <= 1e-14 * np.abs(want))


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
    for f, row, want in zip(states, evaluate(states, _bulk(p)), _per_state_reference(p)):
        assert np.max(np.abs(row - want)) <= 1e-11 * np.max(np.abs(want)), f.idx


@pytest.mark.parametrize("p", [DEFAULT, *LARGE_SETS.values()], ids=["default", *LARGE_SETS])
def test_recurrence_q_matches_the_convolution_q(p):
    # Q by the three-term recurrence against Q summed from the Fourier row by
    # convolutions, relative to its largest coefficient: 9.0e-15 at worst
    for m in range(6):
        for n in range(12):
            f = eigenfunction(p, m, n)
            ((_, _, power, q),) = f.cot_terms
            want = convolution_cot_q(f)
            assert power == n + (p.nu + m) + 1.0 and q.dtype == np.float64 and q.shape == want.shape, f.idx
            assert np.max(np.abs(q - want)) <= 1e-14 * np.max(np.abs(want)), f.idx


def _levels_0_to_10(p):
    return [eigenfunction(p, m, n) for m in range(11) for n in range(11)]


def test_states_are_real_positive_phase():
    # the chain-adapted phase makes every bound state real valued: the
    # complex route that sums all n + 1 Fourier coefficients carries an
    # imaginary part of roundoff only, and a state's call returns floats
    for p in MP_PARAMS:
        states = _levels_0_to_10(p)
        xs = interior_grid(p, 31)
        for f, row in zip(states, full_length_rows(states, xs)):
            assert f(xs).dtype == np.float64, (p, f.idx)
            assert np.max(np.abs(row.imag)) <= 1e-12 * np.max(np.abs(row.real)), (p, f.idx)


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_fourier_rows_are_conjugate_symmetric(p):
    # G_(n - k) = conj G_k, which makes the full-length rows real, holds to a few ulps
    eps = np.finfo(float).eps
    for f in _levels_0_to_10(p):
        g = fourier_row(f)
        assert np.all(np.abs(g[::-1] - g.conj()) <= 4.0 * eps * np.abs(g)), f.idx


@pytest.mark.parametrize(
    "p",
    MP_PARAMS[:2] + [LARGE_SETS["nu20b200"], LARGE_SETS["nu0.2b400"]],
    ids=["default", "gauge2", "nu20b200", "nu0.2b400"],
)
def test_one_state_calls_match_family_rows(p):
    # a state's call keeps shape and type and is exactly 0 on the walls.  At
    # interior points it is bit for bit its row of one stacked evaluation of
    # the family of levels 0-10, n 0-10, the route of gram_matrix, a scalar
    # and a one-point array included; a shuffled stack gives the same rows
    states = _levels_0_to_10(p)
    order = np.random.default_rng(5).permutation(len(states))
    for x in _call_points(p):
        arr = np.asarray(x)
        interior = (arr > 0.0) & (arr < p.length)
        rows = _stacked_rows(states, arr[interior])
        assert _same_bits(_stacked_rows([states[i] for i in order], arr[interior])[np.argsort(order)], rows), arr.shape
        for f, row in zip(states, rows):
            alone = f(x)
            assert np.shape(alone) == arr.shape and type(alone) is (float if arr.ndim == 0 else np.ndarray)
            assert _same_bits(np.asarray(alone)[interior], row), (f.idx, arr.shape)
            assert np.all(np.asarray(alone)[~interior] == 0.0)


def test_family_returns_rows_in_input_order():
    # degrees out of order, levels mixed, tied degrees and a repeated state:
    # each row of a stacked evaluation is bit for bit the row of the same
    # state in the stack sorted by degree
    cells = ((3, 2), (0, 7), (5, 0), (1, 1), (2, 9), (6, 2), (0, 7), (4, 4))
    states = [eigenfunction(DEFAULT, m, n) for m, n in cells]
    ordered = sorted(range(len(cells)), key=lambda i: -cells[i][1])
    xs = np.linspace(0.0, DEFAULT.length, 41)[1:-1]
    rows = _stacked_rows(states, xs)
    sorted_rows = _stacked_rows([states[i] for i in ordered], xs)
    for i, row in zip(ordered, sorted_rows):
        assert _same_bits(rows[i], row), cells[i]


def test_family_rejects_nan_outside_and_mixed_params():
    # a state's call and the stacked evaluation of its family reject NaN and
    # points outside the box, and a Gram matrix states of two ModelParams
    family = [eigenfunction(DEFAULT, 1, n) for n in range(4)]
    for x in (math.nan, np.array([0.5, math.nan]), -0.1, np.array([[0.5, 1.2]])):
        with pytest.raises(DomainError):
            family[2](x)
        with pytest.raises(DomainError):
            _stacked_rows(family, x)
    with pytest.raises(DomainError, match="one ModelParams"):
        gram_matrix([eigenfunction(DEFAULT, 0, 1), eigenfunction(PARAM_GRID[0], 0, 1)], DEFAULT.length)


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("name", ["nu0.2b400", "nu60b5"])
def test_gram_matrix_orthonormal_off_the_benchmark_sets(name, m):
    # the two-sided Fourier sum that once valued bare states cancelled here,
    # and both configurations raised SubdivisionLimitError after about 1.2 s
    # at (0.2, 400), the default one also at (60, 5).  Valued by their
    # cotangent form, |G - I| reads at most 1.1e-11 at (0.2, 400) and 2.0e-13
    # at (60, 5), in a few milliseconds
    p = LARGE_SETS[name]
    funcs = [eigenfunction(p, m, n) for n in range(11)]
    for config in (None, ORTHONORMALITY_CONFIG):
        start = time.perf_counter()
        gram = gram_matrix(funcs, p.length, config)
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(gram - np.eye(11))) < 1e-8


def test_gram_matrix_of_no_functions_is_empty():
    gram = gram_matrix([], DEFAULT.length)
    assert gram.shape == (0, 0) and gram.dtype == complex


# operands of gram_matrix: states of two levels, coherent states, some near
# a wall, and the suite's bumps
STACKED_GRAM_OPERANDS = {
    "eigen": lambda: [eigenfunction(DEFAULT, m, n) for m in (0, 3) for n in (0, 2, 5)],
    "coherent": lambda: [CoherentState(DEFAULT, 1, PhasePoint(q, p)) for q in (0.02, 0.3, 0.6) for p in (-2.0, 1.5)],
    "bumps": lambda: [operators._bump(DEFAULT, seed) for seed in (101, 102, 201, 202)],
}


@pytest.mark.parametrize("kind", list(STACKED_GRAM_OPERANDS))
def test_stacked_gram_matches_each_operand_alone(monkeypatch, kind):
    # the operands are stacked into one fold and evaluated once per integrand
    # call; each row is bit for bit the operand's own call, so the matrix is
    # the one the per-operand route integrates, and it agrees with one
    # adaptive integral per pair within the two error bounds
    funcs = STACKED_GRAM_OPERANDS[kind]()
    integrands, evaluations = [0], [0]
    real_interval, real_words = wavefn.integrate_interval, operators._stacked_words
    results = []

    def recorded_interval(f, *args):
        def counted(x):
            integrands[0] += 1
            return f(x)

        results.append(real_interval(counted, *args))
        return results[-1]

    def recorded_words(*args, **kwargs):
        evaluate = real_words(*args, **kwargs)

        def counted(x):
            evaluations[0] += 1
            return evaluate(x)

        return counted

    monkeypatch.setattr(wavefn, "integrate_interval", recorded_interval)
    monkeypatch.setattr(operators, "_stacked_words", recorded_words)
    gram = gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG)
    (res,) = results
    assert integrands[0] >= 1 and evaluations[0] == integrands[0]
    monkeypatch.undo()

    def per_operand_words(params, requests):
        # the stack of _gram valued one operand call at a time; the calls
        # themselves take the real route
        ((_, stack, _),) = requests
        if isinstance(stack, tuple):
            return lambda x: [np.array([f(x) for f in stack])]
        return real_words(params, requests)

    monkeypatch.setattr(operators, "_stacked_words", per_operand_words)
    per_operand = wavefn._gram(funcs, 0.0, DEFAULT.length, ORTHONORMALITY_CONFIG)
    monkeypatch.undo()
    k = len(funcs)
    assert gram.tobytes() == per_operand.tobytes()
    ref, ref_err = pairwise_gram(funcs, 0.0, DEFAULT.length, ORTHONORMALITY_CONFIG)
    rows, cols = np.triu_indices(k)
    assert np.all(np.abs(gram[rows, cols] - ref[rows, cols]) <= res.error + ref_err[rows, cols])
    if kind != "bumps":
        assert np.max(np.abs(gram.diagonal() - 1.0)) < 1e-8


def test_equal_stacks_are_one_fold_and_a_repeated_gram_adds_none():
    # a stack is the tuple of its operands: the same members in the same
    # order are one key of the fold memo, the same members in another order
    # another.  A Gram stacks its operands anew on every call; the first call
    # folds the stack once, and a later call of the same operands finds that
    # fold and returns the same bytes
    states = [eigenfunction(DEFAULT, 2, n) for n in range(4)]
    stack, same, turned = tuple(states), tuple(list(states)), tuple(states[::-1])
    assert stack == same and hash(stack) == hash(same) and stack != turned
    misses = operators._fold.cache_info().misses
    for func in (stack, same, turned):
        operators._fold(DEFAULT, (), func, 1.0)
    assert operators._fold.cache_info().misses == misses + 2
    coherent = [CoherentState(DEFAULT, 1, PhasePoint(q, p)) for q, p in ((0.3, 2.0), (0.6, -1.0))]
    for funcs, folds in ((coherent, 1), (states, 0)):
        size = operators._fold.cache_info().currsize
        grams = [gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG) for _ in range(3)]
        assert operators._fold.cache_info().currsize == size + folds
        assert all(g.tobytes() == grams[0].tobytes() for g in grams[1:])


def test_equal_coherent_states_built_apart_share_one_gram_fold():
    # a coherent state is a value of (params, m, point): the Grams of two
    # lists of equal states, built apart, fold one stack and are the same
    # bytes; a list with a new phase point folds a new stack
    def states(points):
        return [CoherentState(DEFAULT, 1, PhasePoint(q, p)) for q, p in points]

    points = ((0.2, -2.0), (0.2, 1.5), (0.6, -2.0), (0.6, 1.5))
    first, second = states(points), states(points)
    assert first == second and first[0] is not second[0] and hash(first[0]) == hash(second[0])
    assert first[0] != CoherentState(DEFAULT, 2, first[0].point) and first[0] != CoherentState(OTHER, 1, first[0].point)
    size = operators._fold.cache_info().currsize
    grams = [gram_matrix(funcs, DEFAULT.length, ORTHONORMALITY_CONFIG) for funcs in (first, second)]
    assert operators._fold.cache_info().currsize == size + 1
    assert grams[0].tobytes() == grams[1].tobytes()
    gram_matrix(states(points[:3] + ((0.7, 1.5),)), DEFAULT.length, ORTHONORMALITY_CONFIG)
    assert operators._fold.cache_info().currsize == size + 2


OTHER = ModelParams(nu=2.5, beta=1.0)


ONE_MODEL = "one ModelParams"


@pytest.mark.parametrize(
    ("operands", "length", "match"),
    [
        (lambda: [eigenfunction(DEFAULT, 0, 0), eigenfunction(OTHER, 0, 1)], DEFAULT.length, ONE_MODEL),
        (
            lambda: [CoherentState(DEFAULT, 0, PhasePoint(0.3, 1.0)), CoherentState(OTHER, 0, PhasePoint(0.3, 1.0))],
            DEFAULT.length,
            ONE_MODEL,
        ),
        (lambda: [operators._bump(DEFAULT, 101), operators._bump(OTHER, 101)], DEFAULT.length, ONE_MODEL),
        (lambda: [lambda x: np.sin(np.pi * x) * np.sqrt(2.0)], DEFAULT.length, ONE_MODEL),
        (lambda: [eigenfunction(DEFAULT, 0, 0), lambda x: np.sin(np.pi * x)], DEFAULT.length, ONE_MODEL),
        (lambda: [tuple(operators.test_corpus(DEFAULT, 0))], DEFAULT.length, ONE_MODEL),
        # over [0, 0.5] the diagonal read 0.81, 0.42 and 0.53 with no error,
        # and over [0, 2] the nodes past the wall raised a confusing error
        (lambda: [eigenfunction(DEFAULT, 0, n) for n in range(3)], 0.5, r"\[0, 0\.5\] .* length 1\.0"),
        (lambda: [eigenfunction(DEFAULT, 0, n) for n in range(3)], 2.0, r"\[0, 2\.0\] .* length 1\.0"),
    ],
    ids=[
        "eigen_mixed_params",
        "coherent_mixed_params",
        "bump_mixed_params",
        "plain_callable",
        "eigen_and_plain",
        "no_params",
        "length_0.5",
        "length_2.0",
    ],
)
def test_gram_matrix_rejects_operands_it_cannot_stack(operands, length, match):
    # one ModelParams, params and cot_terms on every operand, and the
    # operands' own length
    with pytest.raises(DomainError, match=match):
        gram_matrix(operands(), length)


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
