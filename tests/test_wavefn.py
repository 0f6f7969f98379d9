"""Eigenfunction layer: normalization constants against an independent
high-precision quadrature oracle, orthonormality, Taylor-jet derivatives
against finite differences, the superpotential log-derivative law, and the
product-form normalization against the double-sum oracle.
"""

import math

import numpy as np
import pytest

from ptsusy.coherent import CoherentState, PhasePoint
from ptsusy.errors import DomainError, LossOfSignificanceError
from ptsusy.quadrature import QuadratureConfig, integrate_interval
from ptsusy.spectrum import LevelIndex, ModelParams
from ptsusy.wavefn import (
    EigenFamily,
    eigenfunction,
    gram_matrix,
    log_ground_constant,
    normalization_K,
    partner_eigenfunction_explicit,
)

from conftest import DEFAULT, PARAM_GRID, interior_grid
from oracles import derivative as fd_derivative
from oracles import (
    mp_eigenfunctions,
    mp_partner,
    normalization_double_sum,
    pairwise_gram,
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
        got = normalization_K(p, n).K
        assert got == pytest.approx(ref, rel=5e-13)


def test_normalization_double_sum_agrees_at_low_degree():
    # the printed double-sum route is usable at small n; cross-check the routes
    for n in range(0, 6):
        a = normalization_K(DEFAULT, n).K
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


def test_states_are_real_positive_phase():
    # the chain-adapted phase makes every bound state real valued
    f = eigenfunction(DEFAULT, 0, 4)
    vals = f(interior_grid(DEFAULT, 31))
    assert np.max(np.abs(vals.imag)) < 1e-12 * np.max(np.abs(vals.real))


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
        lambda x: partner_eigenfunction_explicit(DEFAULT, 1, x),
    ],
    ids=["eigenfunction", "coherent_state", "partner_explicit"],
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


@pytest.mark.parametrize("p", MP_PARAMS, ids=MP_IDS)
def test_family_rows_match_per_state_reference(p):
    # every state of levels 0-10, n 0-10 as a row of one family, against the
    # 60-digit Jacobi series of each state; the Jacobi series in double
    # erred up to 1.4e-9 here at level 10
    xs = _bulk(p)
    states = [eigenfunction(p, m, n) for m in range(11) for n in range(11)]
    rows = EigenFamily(states)(xs)
    for f, row, want in zip(states, rows, mp_eigenfunctions(states, xs)):
        assert np.max(np.abs(row - want)) <= 1e-11 * np.max(np.abs(want)), f.idx


@pytest.mark.parametrize("p", FAMILY_PARAMS, ids=["default", "gauge2"])
def test_one_state_calls_match_family_rows(p):
    # a one-state call is the one-row family and keeps shape and type.  Its
    # values agree with the rows of a family of levels 0-10, n 0-10 bit for
    # bit on a grid; at one point numpy's broadcast loops round the Horner
    # steps differently (measured up to 3.7e-14 of the largest row), well
    # inside the evaluation error against the mpmath route
    states = [eigenfunction(p, m, n) for m in range(11) for n in range(11)]
    family = EigenFamily(states)
    for x in _family_points(p):
        rows = family(x)
        assert rows.shape == (len(states),) + np.shape(x)
        for f, row in zip(states, rows):
            alone = f(x)
            assert np.shape(alone) == np.shape(x) and type(alone) is (complex if np.ndim(x) == 0 else np.ndarray)
            if np.size(x) > 1:
                assert _same_bits(alone, row), (f.idx, np.shape(x))
            assert np.all(np.abs(alone - row) <= 1e-13 * np.max(np.abs(rows))), (f.idx, np.shape(x))
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
    xs = _bulk(p)
    for n in range(10):
        want = mp_partner(p, n, xs)
        assert np.max(np.abs(partner_eigenfunction_explicit(p, n, xs) - want)) <= 1e-11 * np.max(np.abs(want)), n
    # shape and type follow x, and the walls are exact zeros
    for x in _family_points(p):
        got = partner_eigenfunction_explicit(p, 3, x)
        assert np.shape(got) == np.shape(x) and type(got) is (complex if np.ndim(x) == 0 else np.ndarray)
        assert np.all(np.asarray(got)[np.isin(np.asarray(x), [0.0, p.length])] == 0.0)


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
        lhs = partner_eigenfunction_explicit(DEFAULT, n, xs)
        rhs = eigenfunction(DEFAULT, 1, n)(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_partner_route_other_parameters(swept_params):
    xs = interior_grid(swept_params, 21, clamp=0.05)
    lhs = partner_eigenfunction_explicit(swept_params, 1, xs)
    rhs = eigenfunction(swept_params, 1, 1)(xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))


def test_eigenfunction_cache_returns_same_object():
    assert eigenfunction(DEFAULT, 0, 3) is eigenfunction(DEFAULT, 0, 3)


def test_energy_property():
    f = eigenfunction(DEFAULT, 1, 2)
    from ptsusy.spectrum import energy

    assert f.energy == energy(DEFAULT, LevelIndex(m=1, n=2))
