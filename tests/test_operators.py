"""Factorization operators: superpotential values, the three potential
routes, word application, and the identity verification suite including its
negative control."""

import math
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

from ptsusy import cli, operators, quadrature
from ptsusy.coherent import CoherentState, PhasePoint
from ptsusy.errors import DegreeCapError, DomainError
from ptsusy.operators import (
    EDGE_CLAMP,
    TrigPolyBump,
    _rel,
    apply_word,
    default_grid,
    verify_operator_identities,
)
from ptsusy.quadrature import QuadratureConfig
from ptsusy.spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy
from ptsusy.wavefn import eigenfunction

from conftest import DEFAULT, clear_memos, interior_grid
from oracles import (
    SuperPotential,
    per_identity_quadratures,
    grouped_evaluate,
    jet_apply_word,
    operand_jet,
    potential,
    split_terms,
    superpotential,
    two_pass_step,
)

MANDATORY = {
    "ground_state_annihilation",
    "factorization",
    "intertwining_single",
    "intertwining_chain",
    "supercharge_commutator",
    "product_BdagB",
    "supercharge_anticommutator_block0",
    "product_BBdag",
    "supercharge_anticommutator_block1",
    "ladder_action",
    "mean_BBdag",
    "mean_BdagB",
    "adjoint_consistency",
    "eigen_residual",
}

INFORMATIONAL = {"mixed_product", "partial_chain_product", "partial_chain_means"}


def test_superpotential_midpoint_value():
    # cot vanishes at the midpoint, leaving the tilt term alone
    for m in (0, 1, 2):
        want = math.pi * DEFAULT.hbar * DEFAULT.beta / (DEFAULT.length * (DEFAULT.nu + m + 1.0))
        assert superpotential(DEFAULT, m, 0.5 * DEFAULT.length) == pytest.approx(want, rel=1e-14)


def test_superpotential_quarter_point_symmetric():
    p = ModelParams(nu=1.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    want = -(math.pi * p.hbar / p.length) * (p.nu + 1.0)
    assert superpotential(p, 0, 0.25) == pytest.approx(want, rel=1e-14)


def test_superpotential_object_and_domain():
    w = SuperPotential(params=DEFAULT, m=0)
    assert w(0.5) == pytest.approx(superpotential(DEFAULT, 0, 0.5), rel=1e-15)
    with pytest.raises(DomainError):
        w(0.0)
    with pytest.raises(DomainError):
        w(DEFAULT.length)
    with pytest.raises(DomainError):
        w(math.nan)


def superpotential_derivative(params, m, x):
    # closed form W_m' = (pi^2 hbar / L^2)(nu + m + 1)(1 + cot^2)
    cot = 1.0 / np.tan(math.pi * np.asarray(x) / params.length)
    return (math.pi / params.length) ** 2 * params.hbar * (params.nu + m + 1.0) * (1.0 + cot * cot)


def test_superpotential_derivative_matches_fd():
    from oracles import derivative as fd

    w = SuperPotential(params=DEFAULT, m=1)
    for x0 in (0.2, 0.5, 0.77):
        want, _ = fd(lambda t: w(float(t)), x0, order=1)
        assert superpotential_derivative(DEFAULT, 1, x0) == pytest.approx(want, rel=1e-9)


def test_potential_three_routes_agree():
    # closed form against (W^2 - hbar W') / 2M + E_0^(1) and against the
    # level-zero potential plus the m-dependent 1/sin^2 increment
    m = 1
    xs = interior_grid(DEFAULT, 41)
    v0 = potential(DEFAULT, m, xs)
    w = superpotential(DEFAULT, m, xs)
    dw = superpotential_derivative(DEFAULT, m, xs)
    v1 = (w * w - DEFAULT.hbar * dw) / (2.0 * DEFAULT.mass) + energy(DEFAULT, LevelIndex(m, 0))
    inv_s2 = 1.0 / np.sin(math.pi * xs / DEFAULT.length) ** 2
    v2 = potential(DEFAULT, 0, xs) + DEFAULT.epsilon0 * m * (2.0 * DEFAULT.nu + m + 1.0) * inv_s2
    scale = np.max(np.abs(v0))
    assert np.max(np.abs(v1 - v0)) < 1e-10 * scale
    assert np.max(np.abs(v2 - v0)) < 1e-10 * scale


def test_potential_rejects_walls():
    for x in (0.0, math.nan):
        with pytest.raises(DomainError):
            potential(DEFAULT, 0, x)


def test_ground_state_annihilated():
    for m in (0, 1, 2):
        f = eigenfunction(DEFAULT, m, 0)
        grid = default_grid(DEFAULT)
        out = apply_word(DEFAULT, (("A", m),), f, grid)
        assert np.max(np.abs(out)) < 1e-10 * np.max(np.abs(f(grid)))


def test_hamiltonian_two_forms_agree_on_bump():
    bump = TrigPolyBump(DEFAULT, np.random.default_rng(7).normal(size=4))
    grid = default_grid(DEFAULT)
    direct = apply_word(DEFAULT, (("H", 1),), bump, grid)
    chained = apply_word(DEFAULT, (("A", 1), ("Adag", 1)), bump, grid)
    fact = chained / (2.0 * DEFAULT.mass) + energy(DEFAULT, LevelIndex(1, 0)) * bump(grid)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(direct - fact)) < 1e-9 * scale


def test_eigen_relation_through_word():
    f = eigenfunction(DEFAULT, 1, 2)
    e = energy(DEFAULT, LevelIndex(m=1, n=2))
    grid = interior_grid(DEFAULT, 31, clamp=0.1)
    lhs = apply_word(DEFAULT, (("H", 1),), f, grid)
    assert np.max(np.abs(lhs - e * f(grid))) < 1e-9 * abs(e) * np.max(np.abs(f(grid)))


def test_ladder_chain_matches_gap_factor():
    from ptsusy.spectrum import gap_factor_M

    n, m = 1, 1
    top = eigenfunction(DEFAULT, 0, n + m + 1)
    target = eigenfunction(DEFAULT, m + 1, n)
    grid = interior_grid(DEFAULT, 31, clamp=0.1)
    out = apply_word(DEFAULT, tuple(("A", k) for k in range(m + 1)), top, grid)
    pref = (math.pi * DEFAULT.hbar / DEFAULT.length) ** (m + 1) * gap_factor_M(DEFAULT, n, m)
    assert np.max(np.abs(out - pref * target(grid))) < 1e-9 * pref * np.max(
        np.abs(target(grid))
    )


def test_apply_word_rejects_wall_points():
    f = eigenfunction(DEFAULT, 0, 0)
    L = DEFAULT.length
    bad = [0.0, L, math.nan, math.inf, -math.inf]
    for xs in bad + [np.array([0.5 * L, x]) for x in bad] + [np.array([[x], [0.5 * L]]) for x in bad]:
        with pytest.raises(DomainError):
            apply_word(DEFAULT, (("A", 0),), f, xs)


BAD_ENTRIES = [("A", -1), ("A", 1.5), ("H", -2), ("A", True), ("B", 0)]
# a shift only after "H", finite, real and no bool, and nothing after it
BAD_ENTRIES += [("A", 1, 2.0), ("H", 1, math.nan), ("H", 1, math.inf), ("H", 1, True), ("H", 1, "x"), ("H", 1, 1.0, 2.0)]
# an entry is a tuple of 2 items, or of 3 for "H": not a shorter tuple, a
# string (the word "AB" is the entries "A" and "B") or a list
BAD_ENTRIES += [("A",), (), "A", "AB", ["H", 0], ["H", 0, 1.0]]


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
def test_apply_word_rejects_an_entry_that_is_no_operator(entry):
    # the levels once gave finite values for operators that do not exist;
    # ("A", True) hashes as ("A", 1) and ("H", 1, True) as ("H", 1, 1.0), so
    # the check comes before the fold memo, which holds both here
    f = eigenfunction(DEFAULT, 0, 1)
    x = np.array([0.3, 0.6])
    apply_word(DEFAULT, (("H", 0), ("A", 1)), f, x)
    apply_word(DEFAULT, (("H", 0), ("H", 1, 1.0)), f, x)
    with pytest.raises(DomainError, match="unknown operator kind 'B'|level indices must|a shifted entry is|a word entry is"):
        apply_word(DEFAULT, (("H", 0), entry), f, x)


@pytest.mark.parametrize(
    "operand",
    [
        lambda: eigenfunction(DEFAULT, 0, 1),
        lambda: operators._bump(DEFAULT, 101),
        lambda: CoherentState(DEFAULT, 0, PhasePoint(0.3, 2.0)),
        lambda: operators._OperandStack(operators.test_corpus(DEFAULT, 0)),
    ],
    ids=["eigenfunction", "bump", "coherent", "stack"],
)
def test_apply_word_rejects_an_operand_of_another_length(operand):
    # an operand of length 1 under params of length 2 once gave the values of
    # another function, even at 1.5, outside the operand's box; the check
    # comes before the fold memo
    f = operand()
    info = operators._fold.cache_info()
    for word in ((), (("A", 0),)):
        with pytest.raises(DomainError, match=r"length 1\.0 under params of length 2\.0"):
            apply_word(replace(DEFAULT, length=2.0), word, f, [0.25, 0.5, 1.5])
    assert operators._fold.cache_info() == info
    # another nu and beta on the same box are accepted
    assert np.isfinite(apply_word(replace(DEFAULT, nu=2.0, beta=1.0), (("A", 0),), f, [0.25, 0.5])).all()


def test_apply_word_accepts_an_empty_grid():
    word = (("A", 0), ("H", 1))
    assert apply_word(DEFAULT, word, eigenfunction(DEFAULT, 0, 1), np.array([])).shape == (0,)
    stack = operators._OperandStack(operators.test_corpus(DEFAULT, 0))
    assert apply_word(DEFAULT, word, stack, np.zeros((0, 2))).shape == (6, 0, 2)


def test_word_acts_left_entry_first():
    # (A then Adag) differs from (Adag then A); pin the ordering convention
    f = eigenfunction(DEFAULT, 0, 1)
    grid = interior_grid(DEFAULT, 11, clamp=0.2)
    ad_then_a = apply_word(DEFAULT, (("Adag", 0), ("A", 0)), f, grid)
    a_then_ad = apply_word(DEFAULT, (("A", 0), ("Adag", 0)), f, grid)
    e1 = energy(DEFAULT, LevelIndex(m=0, n=1))
    e0 = energy(DEFAULT, LevelIndex(m=0, n=0))
    two_m = 2.0 * DEFAULT.mass
    # A Adag acting after: AdagA = 2M(H - E0) on level 0
    want_aa = two_m * (e1 - e0) * f(grid)
    assert np.max(np.abs(a_then_ad - want_aa)) < 1e-9 * np.max(np.abs(want_aa))
    assert np.max(np.abs(ad_then_a - want_aa)) > 1e-3 * np.max(np.abs(want_aa))


def test_trig_poly_bump_deterministic_and_zero_at_walls():
    b1 = TrigPolyBump(DEFAULT, np.random.default_rng(42).normal(size=4))
    b2 = TrigPolyBump(DEFAULT, np.random.default_rng(42).normal(size=4))
    b3 = TrigPolyBump(DEFAULT, np.random.default_rng(43).normal(size=4))
    xs = interior_grid(DEFAULT, 9)
    assert np.array_equal(b1(xs), b2(xs))
    assert not np.array_equal(b1(xs), b3(xs))
    # sin^2 envelope: the wall values vanish to rounding of sin(pi)
    assert abs(b1(0.0)) < 1e-30 and abs(b1(DEFAULT.length)) < 1e-30


def test_bump_literals_are_default_rng_bit_for_bit():
    # the suite writes its bump coefficients out so that no process imports
    # numpy.random; every bump residual depends on these bits
    for seed, coeffs in operators._BUMP_COEFFS.items():
        want = np.random.default_rng(seed).normal(size=4)
        got = operators._bump(DEFAULT, seed).coeffs
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), seed


def test_default_grid_interior():
    g = default_grid(DEFAULT, size=101)
    assert g[0] == EDGE_CLAMP * DEFAULT.length
    assert g[-1] == (1.0 - EDGE_CLAMP) * DEFAULT.length
    assert len(g) == 101


def test_edge_clamp_constant_sane():
    assert 0.0 < EDGE_CLAMP < 1e-3


def test_identity_suite_structure_and_pass():
    results = verify_operator_identities(DEFAULT, 2, 1)
    names = [r.name for r in results]
    assert MANDATORY <= set(names)
    assert INFORMATIONAL <= set(names)
    for r in results:
        if r.informational:
            assert r.passed is None and r.threshold is None
        else:
            assert r.passed is True, f"{r.name}: {r.max_residual:.3e} vs {r.threshold:.1e}"
        j = r.to_jsonable()
        assert j["name"] == r.name and "max_residual" in j


def test_identity_suite_other_indices():
    for n, m in ((0, 0), (3, 2), (1, 3)):
        results = verify_operator_identities(DEFAULT, n, m)
        bad = [r.name for r in results if r.passed is False]
        assert not bad, f"(n={n}, m={m}) failed: {bad}"


def test_identity_suite_sweep(swept_params):
    results = verify_operator_identities(swept_params, 2, 1)
    bad = [r.name for r in results if r.passed is False]
    assert not bad, f"failed: {bad}"


def test_informational_variants_recorded():
    results = {r.name: r for r in verify_operator_identities(DEFAULT, 2, 1)}
    mixed = results["mixed_product"]
    assert mixed.details.get("matching_variant") in ("lambda_form", "theta_form")
    partial = results["partial_chain_product"]
    assert "mass_prefactor" in partial.details and "index_prefactor" in partial.details
    assert partial.details["matching_variant"] == "mass_prefactor"
    # n < m: the theta form, its operator polynomial folded on the row of
    # the level stack that phi_up is, holds at roundoff
    theta = {r.name: r for r in verify_operator_identities(DEFAULT, 1, 3)}["mixed_product"]
    assert theta.details["matching_variant"] == "theta_form" and theta.max_residual < 1e-13


@pytest.mark.parametrize(
    ("n", "m", "keys"),
    [(2, 1, ("lambda_lambdadag", "lambdadag_lambda")), (1, 3, ("theta_thetadag", "thetadag_theta"))],
)
def test_partial_chain_means_record_quadrature_provenance(n, m, keys):
    means = {r.name: r for r in verify_operator_identities(DEFAULT, n, m)}["partial_chain_means"]
    assert set(means.details) == set(keys) | {"quad_error", "quad_evaluations"}
    assert means.details["quad_error"] > 0.0 and means.details["quad_evaluations"] > 0
    # the residual is the worst of the residual keys, not of the provenance
    assert means.max_residual == max(means.details[k] for k in keys)


def test_package_errors_become_rows_of_their_identity(monkeypatch):
    # a panel budget and tolerances that these integrals cannot meet: each
    # records the error, mandatory ones as failed and informational ones as
    # skipped, and the other identities keep their verdicts
    monkeypatch.setattr(quadrature, "MAX_SUBDIVISIONS", 4)
    monkeypatch.setattr(operators, "_SUITE_CONFIG", QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30))
    results = {r.name: r for r in verify_operator_identities(DEFAULT, 2, 1, grid_size=21)}
    # every row of the cell's shared integral, and adjointness of its own
    for name in ("mean_BBdag", "mean_BdagB", "adjoint_consistency", "eigen_residual", "partial_chain_means"):
        row = results[name]
        assert row.max_residual == "SubdivisionLimitError" and "4 panels" in row.details["error"], name
        assert row.passed is (None if row.informational else False), name
    for name in ("factorization", "product_BdagB", "supercharge_anticommutator_block0", "mixed_product"):
        assert not isinstance(results[name].max_residual, str), name
    assert results["factorization"].passed is True


def test_a_cell_integrates_its_quadrature_rows_once(monkeypatch):
    # with the level rows warm, the chain means, the partial-chain means and
    # the eigen residual of a cell are the components of one integral, whose
    # abscissa count every one of their rows reports
    verify_operator_identities(DEFAULT, 2, 1)
    calls = []

    def spy(*args, _real=operators.integrate_interval, **kwargs):
        calls.append(_real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(operators, "integrate_interval", spy)
    results = {r.name: r for r in verify_operator_identities(DEFAULT, 3, 1)}
    (quad,) = calls
    assert quad.value.shape == (5,)
    for name in ("mean_BBdag", "mean_BdagB", "eigen_residual", "partial_chain_means"):
        assert results[name].details["quad_evaluations"] == quad.evaluations, name


@pytest.mark.parametrize(
    ("params", "n", "m"),
    [
        (DEFAULT, 2, 1),
        (DEFAULT, 1, 3),
        (DEFAULT, 0, 1),
        (DEFAULT, 6, 5),
        (ModelParams(nu=1.0, beta=0.0, length=1e-4), 2, 1),
    ],
    ids=["2-1", "1-3", "0-1", "6-5", "length1e-4"],
)
def test_shared_quadrature_matches_one_integral_per_identity(params, n, m):
    # each component of the shared integral against its own adaptive
    # integral, within the sum of both error bounds: a relative residual
    # |M - T| / max(|M|, |T|) moves by at most |dM| / |T|, an integral against
    # zero by |dM|, and the eigen residual's square by |dM|.  (0, 1) is the
    # annihilating theta case, whose closed form vanishes.
    results = {r.name: r for r in verify_operator_identities(params, n, m)}
    reference = per_identity_quadratures(params, n, m)
    assert set(reference) == {name for name in results if "quad_error" in results[name].details} - {
        "adjoint_consistency"
    }
    for name, components in reference.items():
        row = results[name]
        for key, ref in components.items():
            got = row.details.get(key, row.max_residual)
            bound = row.details["quad_error"] + ref.error
            if name == "eigen_residual":
                assert abs(got**2 - ref.residual**2) <= bound, (name, got, ref)
            elif ref.target is None:
                assert abs(got - ref.residual) <= bound, (name, key, got, ref)
            else:
                assert abs(got - ref.residual) * abs(ref.target) <= bound, (name, key, got, ref)
    if n == 0 and m == 1:
        assert reference["partial_chain_means"]["theta_thetadag"].target is None


@pytest.mark.parametrize(("n", "m"), [(6, 2), (6, 3)])
def test_negative_control_means_are_integrated_alone(n, m):
    # Under the sign flip no closed form describes a chain mean: at (6, 2)
    # mean_BdagB reads 5.8e6 times its target.  As a component of the shared
    # integral it drew every split, the partial-chain means never met their
    # tolerance, and after 2**14 panels (4 s) eigen_residual, which the flip
    # must leave intact, failed with them.  Alone, each is the integral it
    # was before the cell shared one.
    start = time.perf_counter()
    results = {r.name: r for r in verify_operator_identities(DEFAULT, n, m, sign=-1.0)}
    assert time.perf_counter() - start < 2.0
    assert results["eigen_residual"].passed is True
    assert not isinstance(results["partial_chain_means"].max_residual, str)
    reference = per_identity_quadratures(DEFAULT, n, m, sign=-1.0)
    for name in ("mean_BBdag", "mean_BdagB"):
        assert results[name].max_residual == reference[name][name].residual, name
        assert results[name].details["quad_error"] == reference[name][name].error, name
        assert results[name].passed is False, name


@pytest.mark.parametrize(("n", "m", "degree"), [(0, 17, 21), (2, 17, 21), (0, 19, 23), (30, 0, 31)])
def test_cell_above_the_level_cap_is_rejected_up_front(monkeypatch, n, m, degree):
    # the mandatory identities need degree max(n + m + 1, m + 4); above the
    # cap the call raises before it builds any state or row
    def no_states(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(operators, "eigenfunction", no_states)
    with pytest.raises(DegreeCapError, match=f"needs states of degree {degree}, which exceeds cap 20"):
        verify_operator_identities(DEFAULT, n, m)


@pytest.mark.parametrize(("n", "m"), [(True, 0), (0, True), (1, False), (0.5, 0), (0, 1.5)])
def test_cell_with_a_non_index_is_rejected_up_front(monkeypatch, n, m):
    # a bool or a fraction is no index: DomainError before any state or row,
    # where (0, True) once ran the suite at m = 1 and (0.5, 0) raised TypeError
    def no_states(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(operators, "eigenfunction", no_states)
    with pytest.raises(DomainError, match="level indices must be integers"):
        verify_operator_identities(DEFAULT, n, m)


@pytest.mark.parametrize("grid_size", [0, -1, 2, 2.5, True, "5"])
def test_grid_size_below_three_or_not_whole_is_rejected_up_front(monkeypatch, grid_size):
    # 0 and -1 raised numpy's ValueError, 2.5 and "5" a TypeError, and True
    # ran a grid of one point under the memo key of 1
    def no_rows(*args):
        raise AssertionError("the level rows were reached")

    monkeypatch.setattr(operators, "_level_identities", no_rows)
    message = f"grid_size must be a whole number of at least 3, got {grid_size!r}"
    with pytest.raises(DomainError, match=re.escape(message)):
        verify_operator_identities(DEFAULT, 1, 0, grid_size=grid_size)


@pytest.mark.parametrize("grid_size", [3, np.int64(161)])
def test_grid_size_whole_numbers_from_three_accepted(grid_size):
    results = verify_operator_identities(DEFAULT, 1, 0, grid_size=grid_size)
    assert {r.grid_size for r in results} == {int(grid_size)}
    assert all(type(r.grid_size) is int for r in results)
    assert all(r.passed for r in results if not r.informational)


@pytest.mark.parametrize("sign", [0.0, 2.0, math.nan, True, np.True_, "1"], ids=repr)
def test_sign_other_than_plus_or_minus_one_is_rejected_up_front(monkeypatch, sign):
    # 0.0 and 2.0 ran with a scaled superpotential and failed 12 rows, nan
    # failed 8, and True ran as +1; only the numbers 1 and -1 are signs.
    # apply_word gave another operator at 0.0 and 2.0 and exact zeros at nan
    def unreached(*args):
        raise AssertionError("the level rows or a fold were reached")

    f = eigenfunction(DEFAULT, 1, 2)
    monkeypatch.setattr(operators, "_level_identities", unreached)
    monkeypatch.setattr(operators, "_fold", unreached)
    for call in (
        lambda: verify_operator_identities(DEFAULT, 1, 0, sign=sign),
        lambda: apply_word(DEFAULT, (("A", 1),), f, [0.3, 0.6], sign),
    ):
        with pytest.raises(DomainError, match=re.escape(f"sign must be 1 or -1 (the negative control), got {sign!r}")):
            call()


@pytest.mark.parametrize("sign", [1, -1, 1.0, -1.0], ids=repr)
def test_sign_plus_or_minus_one_runs(sign):
    results = verify_operator_identities(DEFAULT, 1, 0, sign=sign)
    mandatory = [r.passed for r in results if not r.informational]
    # +1 certifies the cell; the -1 negative control must fail some row
    assert all(mandatory) if sign > 0 else not all(mandatory)


def test_every_pointwise_identity_uses_the_one_grid(monkeypatch):
    # every word evaluated at grid_size points sees default_grid itself; the
    # chains of depth three and beyond once went to a [0.1 L, 0.9 L] grid.
    # The spy records the points of every request of a stacked evaluator,
    # which apply_word, the stacked grid rows and the integrands all go through
    grids = []
    real = operators._stacked_words

    def spy(params, requests):
        requests = list(requests)
        evaluate = real(params, requests)

        def recorded(x):
            grids.extend(np.asarray(x) for _ in requests)
            return evaluate(x)

        return recorded

    monkeypatch.setattr(operators, "_stacked_words", spy)
    verify_operator_identities(DEFAULT, 3, 2)
    on_grid = [x for x in grids if x.size == 161]
    assert len(on_grid) >= 10
    for x in on_grid:
        np.testing.assert_array_equal(x, default_grid(DEFAULT))


@pytest.mark.parametrize(("n", "m"), [(0, 16), (19, 0)])
def test_cells_at_the_level_cap_are_certified(n, m):
    results = verify_operator_identities(DEFAULT, n, m)
    assert all(r.passed for r in results if not r.informational)


def test_negative_control_sign_flip():
    results = {r.name: r for r in verify_operator_identities(DEFAULT, 2, 1, sign=-1.0)}
    # the factorization-dependent identities must fail by a wide margin
    for name in ("ground_state_annihilation", "factorization", "intertwining_chain", "ladder_action"):
        assert results[name].passed is False
        assert results[name].max_residual > 1e-2
    # structural checks hold for any real superpotential
    assert results["adjoint_consistency"].passed is True
    assert results["eigen_residual"].passed is True


def _words(m, rng):
    # every single step at levels m and m + 1, then random words of depth
    # 2..m+3 over A, Adag and H at levels 0..m+1
    kinds = ("A", "Adag", "H")
    words = [((kind, level),) for kind in kinds for level in (m, m + 1)]
    for depth in range(2, m + 4):
        for _ in range(2):
            words.append(tuple((kinds[rng.integers(3)], int(rng.integers(m + 2))) for _ in range(depth)))
    return words


@pytest.mark.parametrize("m", range(4))
def test_stacked_operand_matches_per_operand_fold(m):
    rng = np.random.default_rng(40 + m)
    members = operators.test_corpus(DEFAULT, m)
    stack = operators._OperandStack(members)
    for grid in (default_grid(DEFAULT), interior_grid(DEFAULT, 161, clamp=0.1)):
        for word in _words(m, rng):
            for sign in (1.0, -1.0):
                stacked = apply_word(DEFAULT, word, stack, grid, sign)
                assert stacked.shape == (len(members),) + grid.shape
                for f, row in zip(members, stacked):
                    np.testing.assert_array_equal(row, apply_word(DEFAULT, word, f, grid, sign), err_msg=str(word))


def _chain_words(m):
    # B = A_m ... A_0 and B^dag, as the product identities spell them
    return tuple(("A", k) for k in range(m + 1)), tuple(("Adag", k) for k in range(m, -1, -1))


def _count_steps(monkeypatch):
    # every step taken, as (kind, level, sign, shift)
    steps = []
    step = operators._step

    def counted_step(params, kind, level, terms, sign, shift=0.0):
        steps.append((kind, level, sign, shift))
        return step(params, kind, level, terms, sign, shift)

    monkeypatch.setattr(operators, "_step", counted_step)
    return steps


def _record_folds(monkeypatch):
    # the fold memo, every key (params, word, operand, sign) it is asked
    # for, through the module name as _fold asks for a prefix, and every step
    seen, fold = set(), operators._fold

    def recorded_fold(params, word, func, sign):
        seen.add((params, word, func, sign))
        return fold(params, word, func, sign)

    monkeypatch.setattr(operators, "_fold", recorded_fold)
    return fold, seen, _count_steps(monkeypatch)


def test_verify_folds_each_prefix_once(monkeypatch):
    memo, seen, steps = _record_folds(monkeypatch)
    cells = [(n, m, sign) for n, m in ((3, 2), (3, 3), (2, 3)) for sign in (1.0, -1.0)]
    rows = [[r.to_jsonable() for r in verify_operator_identities(DEFAULT, n, m, sign=sign)] for n, m, sign in cells]
    # one miss per key asked for, and every one still in the memo, so no key
    # was folded twice, and the quadrature integrands, called once per
    # refinement round, add no folds; every step extends a folded prefix,
    # the shifted H steps of mixed_product's operator polynomial (n < m) too
    info = memo.cache_info()
    assert info.misses == info.currsize == len(seen)
    assert any(s[3] != 0.0 for s in steps)
    assert len(steps) == sum(1 for key in seen if key[1])
    # each cell alone, with both memos cleared, gives the same rows
    monkeypatch.undo()
    for (n, m, sign), want in zip(cells, rows):
        clear_memos()
        assert [r.to_jsonable() for r in verify_operator_identities(DEFAULT, n, m, sign=sign)] == want, (n, m, sign)


def test_a_cell_reuses_the_folds_of_an_earlier_cell(monkeypatch):
    steps = _count_steps(monkeypatch)
    cold_rows = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 3)]
    cold = len(steps)
    clear_memos()
    verify_operator_identities(DEFAULT, 3, 2)
    steps.clear()
    warm_rows = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 3)]
    # word_b on phi_3 and the chains of level 2 are folded already
    assert 0 < len(steps) < cold
    assert warm_rows == cold_rows


def test_a_repeated_cell_takes_no_step(monkeypatch):
    # every word of a cell n < m, the operator polynomial prod_k (H - E_k)
    # of mixed_product included, is kept in the fold memo: run again, the
    # cell folds nothing
    steps = _count_steps(monkeypatch)
    want = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 2, 4)]
    assert [s for s in steps if s[3] != 0.0] == [("H", 3, 1.0, energy(DEFAULT, LevelIndex(0, k))) for k in range(3)]
    steps.clear()
    assert [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 2, 4)] == want
    assert steps == []


def test_cells_share_the_corpus_stacks_of_their_levels(monkeypatch):
    # cell m folds the words of its level rows on the corpus stacks of levels
    # 0, m and m + 1; cell m + 1 builds equal stacks of levels 0 and m + 1,
    # which find their folds in the memo
    on_stacks = []
    fold = operators._fold.__wrapped__

    def counted(params, word, func, sign):
        if word and isinstance(func, operators._OperandStack):
            on_stacks.append(func)
        return fold(params, word, func, sign)

    monkeypatch.setattr(operators, "_fold", lru_cache(maxsize=None)(counted))
    cold_rows = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 1, 3)]
    cold = list(on_stacks)
    clear_memos()
    verify_operator_identities(DEFAULT, 1, 2)
    on_stacks.clear()
    warm_rows = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 1, 3)]
    assert warm_rows == cold_rows
    assert len(on_stacks) < len(cold)
    # on level 0 the chain words of cell 2, B = A_2 A_1 A_0 and H_0 B, are
    # prefixes of those of cell 3: only A_3 on each and H_4 after B are new
    assert on_stacks.count(operators._OperandStack(operators.test_corpus(DEFAULT, 0))) == 3


def _alone(params, word, f, sign, grid, shifts=()):
    # word on the state f folded alone and with no memo, then an H step of
    # its last level per shift, as mixed_product folds its operator polynomial
    terms = operators._Terms.of(params, f.cot_terms)
    for kind, level in word:
        terms = operators._step(params, kind, level, terms, sign)
    for shift in shifts:
        terms = operators._step(params, "H", f.idx.m, terms, sign, shift=shift)
    return operators._members(f, operators._evaluate(params, operators._plan(terms), grid))


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("params", [DEFAULT, ModelParams(nu=0.0, beta=0.0)], ids=["default", "well"])
def test_level_stack_rows_match_each_state_folded_alone(monkeypatch, params, sign):
    # the words of cells (4, 1) and (1, 3), B, B^dag, Lambda or Theta and H,
    # on every state of the level each acts on: the row a state reads from
    # its level stack's fold is, bit for bit, the state folded alone, and a
    # call plans that one row
    grid = default_grid(params)
    rows, evaluate = [], operators._evaluate

    def recorded(params, plan, x):
        rows.append(len(plan.order))
        return evaluate(params, plan, x)

    monkeypatch.setattr(operators, "_evaluate", recorded)
    for n, m in ((4, 1), (1, 3)):
        word_b, word_bdag = _chain_words(m)
        partial = tuple(("A", k) for k in range(m + 1, n + 1)) or tuple(("Adag", k) for k in range(m, n, -1))
        for level, word in ((0, word_b), (m + 1, word_bdag), (m + 1, partial), (m, (("H", m),))):
            for k in range(LEVEL_CAP - level + 1):
                f = eigenfunction(params, level, k)
                got = apply_word(params, word, f, grid, sign)
                assert got.tobytes() == _alone(params, word, f, sign, grid).tobytes(), (word, level, k)
        # the theta form of mixed_product: the operator polynomial folded on
        # Theta's fold of the stack, and each row planned alone; the same
        # word with its shifts as ("H", level, e) entries reads those rows
        shifts = [energy(params, LevelIndex(0, j)) for j in range(n + 1)]
        terms = operators._fold(params, partial, operators._level_stack(params, m + 1), sign)
        for shift in shifts:
            terms = operators._step(params, "H", m + 1, terms, sign, shift=shift)
        shifted = partial + tuple(("H", m + 1, shift) for shift in shifts)
        for k in range(len(terms.gamma)):
            f = eigenfunction(params, m + 1, k)
            got = operators._evaluate(params, operators._plan(terms, cuts=[slice(k, k + 1)]), grid)[0]
            assert got.tobytes() == _alone(params, partial, f, sign, grid, shifts).tobytes(), k
            assert apply_word(params, shifted, f, grid, sign).tobytes() == got.tobytes(), k
    assert set(rows) == {1}


#: The rows of verify_operator_identities at nu 1, beta 1e30, cell (1, 0), as
#: the fold of each state alone gave them: (name, residual, passed).  The
#: factorization residual is read on grid points of both halves of the box,
#: those of the right half valued from their distance to the right wall.
BETA_1E30_ROWS = [
    ("ground_state_annihilation", 0.0, True),
    ("factorization", 1.000000000000009, False),
    ("intertwining_single", 4.32706206778858e-16, True),
    ("intertwining_chain", 4.32706206778858e-16, True),
    ("supercharge_commutator", 4.32706206778858e-16, True),
    ("product_BdagB", 0.0, True),
    ("supercharge_anticommutator_block0", 0.0, True),
    ("product_BBdag", 0.0, True),
    ("supercharge_anticommutator_block1", 0.0, True),
    ("ladder_action", 0.0, True),
    ("mean_BBdag", 1.0, False),
    ("mean_BdagB", 1.0, False),
    ("adjoint_consistency", 0.0, True),
    ("eigen_residual", 0.0, True),
    ("mixed_product", 0.0, None),
    ("partial_chain_product", 0.0, None),
    ("partial_chain_means", 1.0, None),
]


@pytest.mark.filterwarnings("error")
def test_overflowing_stack_rows_warn_only_when_read():
    # at beta 1e30 the folds of the high states of level 0 overflow; a cell
    # that reads only low rows of the stack raises no warning and gives the
    # rows of each state folded alone, and a call that reads an overflowed
    # row is warned
    params = ModelParams(nu=1.0, beta=1e30)
    rows = verify_operator_identities(params, 1, 0)
    assert [(r.name, r.max_residual, r.passed) for r in rows] == BETA_1E30_ROWS
    bdag_b = (("A", 0), ("Adag", 0))
    assert not np.isfinite(operators._fold(params, bdag_b, operators._level_stack(params, 0), 1.0).band).all()
    with pytest.warns(RuntimeWarning, match="not finite"):
        apply_word(params, bdag_b, eigenfunction(params, 0, 10), default_grid(params))


def test_a_stalled_informational_component_leaves_the_mandatory_verdicts(monkeypatch):
    # the partial-chain means share one integral with the chain means and
    # the eigen residual; when they cannot converge, their row alone records
    # the error, and the mandatory components are integrated without them
    want = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 1)]
    real = operators._integrate_components

    def stalled(params, components, lo, hi):
        # an informational integrand that oscillates far below any panel's width
        noisy = lambda f: lambda values: f(values) * (1.0 + 1e-3 * np.sin(1e9 * np.abs(values)))
        components = [c if c.name in operators.MANDATORY else c._replace(integrand=noisy(c.integrand)) for c in components]
        return real(params, components, lo, hi)

    monkeypatch.setattr(operators, "_integrate_components", stalled)
    clear_memos()
    got = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 1)]
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        if g["name"] == "partial_chain_means":
            assert g["max_residual"] == "SubdivisionLimitError" and w["max_residual"] < 1e-12
        else:
            assert g["passed"] == w["passed"] and not isinstance(g["max_residual"], str), g["name"]
    assert all(g["passed"] for g in got if not g["informational"])


def _small_memo(monkeypatch, size):
    # the fold memo at another bound; its prefixes go through the same name
    small = lru_cache(maxsize=size)(operators._fold.__wrapped__)
    monkeypatch.setattr(operators, "_fold", small)
    return small


def test_fold_memo_stays_within_its_bound(monkeypatch):
    # cells of one level share their states' folds through the level stacks,
    # so both signs on two parameter sets are needed to fill the memo
    for params in (DEFAULT, ModelParams(nu=0.0, beta=0.0)):
        for sign in (1.0, -1.0):
            for m in range(5):
                for n in range(7):
                    verify_operator_identities(params, n, m, sign=sign)
    info = operators._fold.cache_info()
    assert info.maxsize == info.currsize == operators.FOLD_MEMO_SIZE < info.misses
    # a small memo evicts folds, and any that a later word needs is folded
    # again to the same values
    want = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 2)]
    small = _small_memo(monkeypatch, 16)
    clear_memos()
    assert [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 2)] == want
    assert small.cache_info().currsize == 16 < small.cache_info().misses


def test_fold_memo_keys_the_sign():
    # the negative control never reads a fold of sign +1
    f = eigenfunction(DEFAULT, 0, 3)
    word, _ = _chain_words(2)
    grid = default_grid(DEFAULT)
    plus = apply_word(DEFAULT, word, f, grid, 1.0)
    misses = operators._fold.cache_info().misses
    minus = apply_word(DEFAULT, word, f, grid, -1.0)
    # every prefix of the word, the empty one too, is folded again
    assert operators._fold.cache_info().misses == misses + len(word) + 1
    assert np.max(np.abs(plus - minus)) > 1e-3 * np.max(np.abs(plus))
    plus_rows = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 2, 1)]
    warm = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 2, 1, sign=-1.0)]
    clear_memos()
    assert np.array_equal(apply_word(DEFAULT, word, f, grid, -1.0), minus)
    assert [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 2, 1, sign=-1.0)] == warm
    assert warm != plus_rows


@dataclass
class _ByValue:
    # an operand compared by value, so not hashable
    inner: object

    @property
    def cot_terms(self):
        return self.inner.cot_terms

    def __call__(self, x):
        return self.inner(x)


@dataclass(unsafe_hash=True)
class _HashableByValue(_ByValue):
    # compared and hashed by value
    pass


def test_fold_memo_keys_operands_by_equality(monkeypatch):
    # the operand is part of the memo's key: an unhashable one is refused
    # before any step, and operands equal by value share one fold
    f = eigenfunction(DEFAULT, 1, 2)
    word = (("A", 1), ("H", 1), ("Adag", 0))
    grid = default_grid(DEFAULT)
    steps = _count_steps(monkeypatch)
    with pytest.raises(TypeError, match="unhashable"):
        apply_word(DEFAULT, word, _ByValue(f), grid)
    assert not steps
    operand, twin = _HashableByValue(f), _HashableByValue(f)
    assert operand == twin and operand is not twin
    got = apply_word(DEFAULT, word, operand, grid)
    assert np.array_equal(apply_word(DEFAULT, word, twin, grid), got)
    assert len(steps) == len(word)
    assert np.array_equal(got, apply_word(DEFAULT, word, f, grid))


def _two_pass_fold(word, func, sign):
    terms = split_terms(operators._Terms.of(DEFAULT, func.cot_terms))
    for kind, level in word:
        terms = two_pass_step(DEFAULT, kind, level, terms, sign)
    return terms


def _same_bits(got, want):
    # the band of Q and magnitude rows against the two arrays, byte for byte
    got = split_terms(got)
    return all(getattr(got, name).tobytes() == getattr(want, name).tobytes() for name in ("coeffs", "mag"))


@pytest.mark.parametrize("m", range(4))
def test_stacked_step_matches_two_pass_step(m):
    # Q and its magnitudes in one band, against the step that folds them
    # one after the other; each word is then extended by a shifted H step,
    # as mixed_product folds its operator polynomial
    rng = np.random.default_rng(40 + m)
    corpus = operators.test_corpus(DEFAULT, m)
    # a coherent state folds in complex128, alone and stacked with the real corpus
    coherent = CoherentState(DEFAULT, m, PhasePoint(0.3, 2.0))
    shift = energy(DEFAULT, LevelIndex(0, m))
    for word in _words(m, rng):
        for f in [operators._OperandStack(corpus)] + corpus + [coherent, operators._OperandStack(corpus + [coherent])]:
            for sign in (1.0, -1.0):
                got, want = operators._fold(DEFAULT, word, f, sign), _two_pass_fold(word, f, sign)
                assert _same_bits(got, want), (word, sign, f)
                got = operators._step(DEFAULT, "H", m + 1, got, sign, shift=shift)
                want = two_pass_step(DEFAULT, "H", m + 1, want, sign, shift=shift)
                assert _same_bits(got, want), (word, sign, f)


def test_step_factors_follow_hbar():
    # params that differ only in hbar fold one operand to their own bands,
    # each the two-pass step's
    terms = operators._Terms.of(DEFAULT, eigenfunction(DEFAULT, 1, 2).cot_terms)
    bands = {}
    for hbar in (1.0, 2.0, 1.0):
        p = replace(DEFAULT, hbar=hbar)
        for kind in ("A", "Adag", "H"):
            for sign in (1.0, -1.0):
                got = operators._step(p, kind, 1, terms, sign)
                assert _same_bits(got, two_pass_step(p, kind, 1, split_terms(terms), sign)), (hbar, kind, sign)
                bands.setdefault((kind, sign), set()).add(got.band.tobytes())
    assert all(len(found) == 2 for found in bands.values())


LEVEL_ROWS = (
    "ground_state_annihilation",
    "factorization",
    "intertwining_single",
    "intertwining_chain",
    "supercharge_commutator",
    "adjoint_consistency",
)


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_level_rows_from_a_warm_memo_equal_cold_ones(sign):
    # cold: the level rows and the folds both computed anew
    for m in range(6):
        clear_memos()
        warm = [[r.to_jsonable() for r in verify_operator_identities(DEFAULT, n, m, sign=sign)] for n in range(7)]
        assert operators._level_identities.cache_info().hits == 6
        for n in range(7):
            clear_memos()
            cold = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, n, m, sign=sign)]
            assert warm[n] == cold, (n, m)


def test_mutating_a_returned_row_leaves_the_memo_unchanged():
    first = verify_operator_identities(DEFAULT, 2, 1)
    want = [r.to_jsonable() for r in first]
    for r in first:
        r.details["tampered"] = True
        r.indices["n"] = 99
        r.max_residual = "tampered"
    again = verify_operator_identities(DEFAULT, 2, 1)
    assert operators._level_identities.cache_info().hits == 1
    assert [r.to_jsonable() for r in again] == want


def test_level_rows_carry_their_own_cells_indices():
    cells = [(0, 2), (3, 2), (5, 2)]
    runs = [verify_operator_identities(DEFAULT, n, m) for n, m in cells]
    assert operators._level_identities.cache_info().hits == 2
    for (n, m), results in zip(cells, runs):
        level = [r for r in results if r.name in LEVEL_ROWS]
        assert [r.name for r in level] == list(LEVEL_ROWS)
        assert all(r.indices == {"n": n, "m": m} for r in results)
    # no two rows share an indices or a details object, within or across cells
    rows = [r for results in runs for r in results]
    assert len({id(r.indices) for r in rows}) == len({id(r.details) for r in rows}) == len(rows)


# the cells whose operand corpus at level m + 1 needs degree m + 4 > LEVEL_CAP
CAP_CELLS = {(0, 17), (0, 18), (0, 19), (1, 17), (1, 18), (2, 17)}


def test_every_cell_under_the_level_cap_is_certified():
    # every cell n + m <= 19 that eigenfunction(0, n + m + 1) allows: on the
    # test point, the symmetric well and the CLI default, every mandatory row
    # passes except at the six cells rejected up front
    start = time.perf_counter()
    for params in (DEFAULT, ModelParams(nu=0.0, beta=0.0), ModelParams(**cli._DEFAULTS)):
        capped, failed = set(), []
        for total in range(20):
            for m in range(total + 1):
                try:
                    results = verify_operator_identities(params, total - m, m)
                except DegreeCapError:
                    capped.add((total - m, m))
                    continue
                failed += [(total - m, m, r.name) for r in results if not r.informational and not r.passed]
        assert not failed, params
        assert capped == CAP_CELLS, params
    assert time.perf_counter() - start < 30.0


# The mandatory rows that fail away from the checked (nu, beta) range, every
# cell n + m <= cap: all three sets are empty.  Alias rows are counted out; a
# package error, recorded as the residual's name, would be counted in, and
# none occurs.  Any change of these sets is a change of verdicts that the
# change making it must explain.
FALSE_FAIL_REGISTER = {
    (0.2, 400.0, 6): {},
    (60.0, 5.0, 10): {},
    (20.0, 200.0, 10): {},
}


@pytest.mark.parametrize(("nu", "beta", "cap"), list(FALSE_FAIL_REGISTER), ids=lambda v: f"{v:g}")
def test_false_fail_register_at_large_nu_and_beta(nu, beta, cap):
    params = ModelParams(nu=nu, beta=beta)
    failed, errors = set(), {}
    for total in range(cap + 1):
        for m in range(total + 1):
            for r in verify_operator_identities(params, total - m, m):
                if not r.informational and not r.passed and "alias_of" not in r.details:
                    failed.add((total - m, m, r.name))
                    if isinstance(r.max_residual, str):
                        errors[total - m, m, r.name] = r.max_residual
    want = FALSE_FAIL_REGISTER[nu, beta, cap]
    assert failed == {(n, m, name) for name, cells in want.items() for n, m in cells}
    assert not errors


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("operand", ("corpus", "eigenfunction"))
def test_shared_folds_are_bit_identical(monkeypatch, operand, sign):
    word_b, word_bdag = _chain_words(2)
    word = word_b + word_bdag
    if operand == "corpus":
        func = operators._OperandStack(operators.test_corpus(DEFAULT, 0))
    else:
        func = eigenfunction(DEFAULT, 0, 3)
    grid = default_grid(DEFAULT)
    prefixes = tuple(word[:i] for i in range(1, len(word) + 1))
    cold = {}
    for w in prefixes:
        clear_memos()
        cold[w] = apply_word(DEFAULT, w, func, grid, sign)
    # the whole word first, so that its prefixes are looked up, not folded
    clear_memos()
    for w in (word,) + prefixes:
        assert np.array_equal(apply_word(DEFAULT, w, func, grid, sign), cold[w]), w
    info = operators._fold.cache_info()
    assert info.misses == info.currsize == len(word) + 1
    # in a memo just large enough for the word, a fold looked up again
    # outlives the older ones: after two new folds evict two entries, the
    # refreshed word[:1] is a hit and word[:2], next in line, is folded again
    small = _small_memo(monkeypatch, len(word) + 1)
    apply_word(DEFAULT, word, func, grid, sign)
    apply_word(DEFAULT, word[:1], func, grid, sign)
    for n in (5, 6):
        operators._fold(DEFAULT, (), eigenfunction(DEFAULT, 1, n), sign)
    misses = small.cache_info().misses
    apply_word(DEFAULT, word[:1], func, grid, sign)
    assert small.cache_info().misses == misses
    apply_word(DEFAULT, word[:2], func, grid, sign)
    assert small.cache_info().misses == misses + 1


class _Cut(BaseException):
    # an interruption no handler of the package catches, as a signal's can be
    pass


def _run_cut(n, m, at=lambda frame, event: False):
    # verify_operator_identities(n, m), cut at the first line event in
    # operators.py, numbered from 1, for which at(frame, number) holds;
    # returns the count of line events seen and whether the run was cut
    seen = [0]

    def on_line(frame, event, arg):
        if event == "line":
            seen[0] += 1
            if at(frame, seen[0]):
                raise _Cut
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == operators.__file__ else None

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        verify_operator_identities(DEFAULT, n, m)
        return seen[0], False
    except _Cut:
        return seen[0], True
    finally:
        sys.settrace(outer)


def test_an_interrupted_cell_leaves_the_memos_consistent():
    # the benchmark cuts verdicts with SIGALRM at any bytecode: cut cell
    # (3, 2) at 40 line events spread over a cold run, and before each line
    # of _DDx's widening at its first run, then run the whole cell on what
    # the cut left in the memos; its rows are the cold rows
    cold = [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 2)]
    clear_memos()
    # an uncut run that counts the line events of _DDx.__call__ per line
    ddx, runs = operators._DDx.__call__.__code__, Counter()
    events, _ = _run_cut(3, 2, lambda frame, _: frame.f_code is ddx and runs.update([frame.f_lineno]))
    # the widening's lines run on fewer calls than the lines around them
    widening = [line for line, count in runs.items() if count < max(runs.values())]
    assert len(widening) >= 3
    cuts = [lambda _, number, k=k: number == k for k in np.linspace(1, events, 40).astype(int).tolist()]
    cuts += [lambda frame, _, line=line: frame.f_code is ddx and frame.f_lineno == line for line in widening]
    for cut in cuts:
        clear_memos()
        assert _run_cut(3, 2, cut)[1]
        assert [r.to_jsonable() for r in verify_operator_identities(DEFAULT, 3, 2)] == cold


def test_one_pass_horner_rows_match_each_term_alone():
    # the lowering chain leaves the rows at different degrees, so they join
    # the Horner loop at different powers
    word_b, _ = _chain_words(1)
    terms = operators._fold(DEFAULT, word_b, operators._OperandStack(operators.test_corpus(DEFAULT, 0)), 1.0)
    plan = operators._plan(terms)
    degree = terms.power[plan.order] - plan.sin_power
    assert len(set(degree.tolist())) > 2
    assert list(degree) == sorted(degree, reverse=True)
    grid = default_grid(DEFAULT)
    rows = operators._evaluate(DEFAULT, plan, grid)
    for i, row in enumerate(rows):
        # term i alone: its Q row and its magnitude row
        one = slice(i, i + 1)
        alone = terms._replace(log_c=terms.log_c[one], gamma=terms.gamma[one], power=terms.power[one], band=terms.band[:, one])
        assert np.array_equal(row, operators._evaluate(DEFAULT, operators._plan(alone), grid)[0]), i


@pytest.mark.parametrize("m", range(3))
def test_one_pass_horner_matches_per_degree_loops(m):
    rng = np.random.default_rng(40 + m)
    stack = operators._OperandStack(operators.test_corpus(DEFAULT, m))
    for grid in (default_grid(DEFAULT), np.array([EDGE_CLAMP, 0.5, 1.0 - EDGE_CLAMP]) * DEFAULT.length):
        for word in _words(m, rng):
            for sign in (1.0, -1.0):
                terms = operators._fold(DEFAULT, word, stack, sign)
                got = operators._evaluate(DEFAULT, operators._plan(terms), grid)
                assert np.array_equal(got, grouped_evaluate(DEFAULT, split_terms(terms), grid)), (word, sign)


@pytest.mark.parametrize("m", range(4))
def test_word_matches_jet_oracle(m):
    # the cotangent fold against the Taylor-jet fold on the bulk grid; an
    # annihilated result is measured in the word's natural unit instead
    rng = np.random.default_rng(40 + m)
    bulk = interior_grid(DEFAULT, 161, clamp=0.1)
    corpus = operators.test_corpus(DEFAULT, m)
    operands = corpus + [CoherentState(DEFAULT, m, PhasePoint(0.3, 2.0)), operators._OperandStack(corpus)]
    for word in _words(m, rng):
        order = sum(2 if kind == "H" else 1 for kind, _ in word)
        for f in operands:
            size = max(float(np.max(np.abs(g(bulk)))) for g in getattr(f, "funcs", [f]))
            unit = (math.pi * DEFAULT.hbar / DEFAULT.length) ** order * size
            for sign in (1.0, -1.0):
                got = apply_word(DEFAULT, word, f, bulk, sign)
                want = jet_apply_word(DEFAULT, word, f, bulk, sign)
                scale = max(float(np.max(np.abs(want))), unit)
                assert np.max(np.abs(got - want)) < 1e-10 * scale, (word, sign, f)


# an operand of each kind and the dtype its folds take
LONE_POINT_OPERANDS = {
    "eigenfunction": (lambda: eigenfunction(DEFAULT, 1, 2), np.float64),
    "corpus": (lambda: operators._OperandStack(operators.test_corpus(DEFAULT, 1)), np.float64),
    "coherent": (lambda: CoherentState(DEFAULT, 1, PhasePoint(0.3, 2.0)), np.complex128),
}


@pytest.mark.parametrize("operand", list(LONE_POINT_OPERANDS))
def test_word_value_does_not_depend_on_the_other_points(operand):
    # a scalar is one point of a 1-d grid: no separate 0-d arithmetic
    make, dtype = LONE_POINT_OPERANDS[operand]
    f = make()
    grid = default_grid(DEFAULT)
    for word in ((), (("H", 1), ("A", 1)), (("A", 1), ("A", 2), ("Adag", 2))):
        values = apply_word(DEFAULT, word, f, grid)
        assert values.dtype == dtype, word
        for i, x in enumerate(grid):
            at_scalar = apply_word(DEFAULT, word, f, x)
            assert np.shape(at_scalar) == values.shape[:-1]
            assert np.array_equal(at_scalar, values[..., i]), (word, i)
        assert np.array_equal(apply_word(DEFAULT, word, f, grid[57:58]), values[..., 57:58]), word


def _first_quadrature_nodes(params):
    # the abscissas of a suite integral's first call: 12 panels of 15 nodes
    calls = []
    lo, hi = EDGE_CLAMP * params.length, (1.0 - EDGE_CLAMP) * params.length
    quadrature.integrate_interval(lambda x: calls.append(x) or np.ones_like(x), lo, hi, operators._SUITE_CONFIG)
    return calls[0]


def test_stacked_words_match_each_word_alone():
    # one call with words of depth 0-6 (H words among them) on eigenfunctions,
    # a bump and a corpus stack at both signs, in a shuffled order: each
    # result is its own apply_word, bit for bit and in its dtype, at the
    # identity grid, the first quadrature nodes, one scalar point and no point
    rng = np.random.default_rng(31)
    corpus = operators._OperandStack(operators.test_corpus(DEFAULT, 1))
    operands = [eigenfunction(DEFAULT, 0, 3), eigenfunction(DEFAULT, 2, 1), operators._bump(DEFAULT, 201), corpus]
    kinds = ("A", "Adag", "H")
    words = [(), (("H", 1),), (("H", 0), ("H", 2))]
    words += [tuple((kinds[rng.integers(3)], int(rng.integers(3))) for _ in range(depth)) for depth in range(1, 7)]
    requests = [(word, f, sign) for word in words for f in operands for sign in (1.0, -1.0)]
    requests = [requests[i] for i in rng.permutation(len(requests))]
    nodes = _first_quadrature_nodes(DEFAULT)
    assert nodes.size == 180
    for x in (default_grid(DEFAULT), nodes, 0.3 * DEFAULT.length, np.array([])):
        for (word, f, sign), got in zip(requests, operators._stacked_words(DEFAULT, requests)(x), strict=True):
            want = apply_word(DEFAULT, word, f, x, sign)
            assert np.shape(got) == np.shape(want) and got.dtype == want.dtype, (word, sign)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (word, sign)
    # coherent states stack with each other in complex128, but not with real operands
    coherent = [CoherentState(DEFAULT, 1, PhasePoint(q, 2.0)) for q in (0.3, 0.6)]
    pair = [((("A", 1),), coherent[0], 1.0), ((("H", 1), ("Adag", 1)), coherent[1], -1.0)]
    for (word, f, sign), got in zip(pair, operators._stacked_words(DEFAULT, pair)(nodes)):
        assert got.dtype == np.complex128 and got.tobytes() == apply_word(DEFAULT, word, f, nodes, sign).tobytes()
    with pytest.raises(DomainError, match="one dtype, got complex128 and float64"):
        operators._stacked_words(DEFAULT, pair + [((), operands[0], 1.0)])


def test_a_mixed_stack_folds_in_complex():
    # a coherent state makes the stack of the level corpus complex; the real
    # members' rows carry an imaginary part of exactly 0 and match their own
    # float64 folds up to the last bits of exp
    rng = np.random.default_rng(42)
    corpus = operators.test_corpus(DEFAULT, 2)
    mixed = operators._OperandStack(corpus + [CoherentState(DEFAULT, 2, PhasePoint(0.3, 2.0))])
    grid = default_grid(DEFAULT)
    for word in [()] + _words(2, rng):
        rows = apply_word(DEFAULT, word, mixed, grid)
        assert rows.dtype == np.complex128
        for f, row in zip(corpus, rows):
            alone = apply_word(DEFAULT, word, f, grid)
            assert alone.dtype == np.float64 and not row.imag.any(), (word, f)
            assert np.max(np.abs(row.real - alone)) <= 1e-15 * np.max(np.abs(alone)), (word, f)


def test_bump_values_match_the_sine_sum():
    # the bump's values come from its cotangent form, against the sine sum of
    # the Taylor oracle's order 0, and exactly 0 on the walls
    bump = TrigPolyBump(DEFAULT, np.random.default_rng(7).normal(size=4))
    xs = np.linspace(0.0, DEFAULT.length, 41)
    values = bump(xs)
    assert values.dtype == np.float64 and values[0] == values[-1] == 0.0
    want = operand_jet(bump, xs[1:-1], 0).value.real
    assert np.max(np.abs(values[1:-1] - want)) <= 1e-14 * np.max(np.abs(want))
    assert type(bump(float(xs[12]))) is float and bump(float(xs[12])) == values[12]
    for x in (-0.1, 1.1 * DEFAULT.length, math.nan):
        with pytest.raises(DomainError):
            bump(x)


def test_lowering_chain_exact_up_to_the_walls():
    # the chain lowers the degree of Q from n + m + 1 to n - m - 1; its top
    # coefficients cancel to roundoff, which must not swamp the value at the
    # quadrature clamp, where cot^(2m+2) would amplify it by ~1e65
    from ptsusy.spectrum import gap_factor_M

    n, m = 6, 5
    xs = np.array([EDGE_CLAMP, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - EDGE_CLAMP]) * DEFAULT.length
    out = apply_word(DEFAULT, tuple(("A", k) for k in range(m + 1)), eigenfunction(DEFAULT, 0, n + m + 1), xs)
    pref = (math.pi * DEFAULT.hbar / DEFAULT.length) ** (m + 1) * gap_factor_M(DEFAULT, n, m)
    want = pref * eigenfunction(DEFAULT, m + 1, n)(xs)
    assert np.all(np.abs(out - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize(("n", "m"), [(6, 0), (0, 5), (6, 5)])
def test_formerly_hanging_cells_finish_fast(n, m):
    start = time.perf_counter()
    results = verify_operator_identities(DEFAULT, n, m)
    assert time.perf_counter() - start < 2.0
    for r in results:
        assert r.details.get("quad_evaluations", 0) <= 1000, r.name
    assert not [r.name for r in results if r.passed is False]


def test_product_bdagb_passes_on_the_index_grid():
    bad = []
    for m in range(6):
        for n in range(7):
            res = {r.name: r for r in verify_operator_identities(DEFAULT, n, m)}["product_BdagB"]
            if not res.passed:
                bad.append((n, m, res.max_residual))
    assert not bad


def test_product_bdagb_scale_does_not_rest_on_exact_annihilation(monkeypatch):
    # For n <= m the chain annihilates phi_n and the factor E_n - E_n of the
    # scale vanishes.  With the noise floor off, the fold leaves roundoff
    # where the chain should vanish; scaled by the nonvanishing factors it
    # stays a roundoff-sized residual (it read 1e298 with the zero factor).
    # On [0.1 L, 0.9 L]: near the walls cot^j amplifies that roundoff, which
    # the floor would drop, far beyond the threshold.
    monkeypatch.setattr(operators, "NOISE_FLOOR", 0.0)
    monkeypatch.setattr(operators, "default_grid", lambda p, size=161: interior_grid(p, size, clamp=0.1))
    res = {r.name: r for r in verify_operator_identities(DEFAULT, 5, 5)}["product_BdagB"]
    assert res.details["annihilating_branch"] is True
    assert res.max_residual < 1e-9


def test_eigen_residual_does_not_depend_on_the_energy_scale():
    # |H phi / E - phi|^2 is integrated in units of 1: in a gauge where E is
    # near 1e9, |H phi - E phi|^2 in units of E^2 was roundoff far above its
    # absolute tolerance and spent the whole panel budget (3.3 s) on it
    small = ModelParams(nu=1.0, beta=0.0, length=1e-4)
    res = {r.name: r for r in verify_operator_identities(small, 2, 1)}["eigen_residual"]
    assert res.passed is True and res.max_residual < 1e-12
    assert res.details["quad_evaluations"] <= 1000


def _per_operand_residuals(params, n, m, sign):
    """factorization and both intertwining residuals, one operand at a time."""
    grid = default_grid(params)
    two_m = 2.0 * params.mass
    e0_m = energy(params, LevelIndex(m, 0))

    def op_floor(f, depth):
        unit = (math.pi * params.hbar / params.length) ** (depth - 2)
        return params.epsilon0 * unit * float(np.max(np.abs(apply_word(params, (), f, grid))))

    def worst_of(funcs, lhs_word, rhs_word, depth, worst=0.0):
        for f in funcs:
            lhs = apply_word(params, lhs_word, f, grid, sign)
            rhs = apply_word(params, rhs_word, f, grid, sign)
            scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), op_floor(f, depth))
            worst = max(worst, _rel(lhs, rhs, scale=scale))
        return worst

    fact = 0.0
    for f in operators.test_corpus(params, m):
        direct = apply_word(params, (("H", m),), f, grid)
        chained = apply_word(params, (("A", m), ("Adag", m)), f, grid, sign)
        fact = max(fact, _rel(chained / two_m + e0_m * apply_word(params, (), f, grid), direct))
    single = worst_of(operators.test_corpus(params, m), (("A", m), ("H", m + 1)), (("H", m), ("A", m)), 3)
    single = worst_of(
        operators.test_corpus(params, m + 1), (("Adag", m), ("H", m)), (("H", m + 1), ("Adag", m)), 3, single
    )
    word_b = tuple(("A", k) for k in range(m + 1))
    chain = worst_of(operators.test_corpus(params, 0), word_b + (("H", m + 1),), (("H", 0),) + word_b, m + 3)
    return {"factorization": fact, "intertwining_single": single, "intertwining_chain": chain}


@pytest.mark.parametrize(("n", "m", "sign"), [(0, 0, 1.0), (2, 1, 1.0), (1, 3, 1.0), (2, 1, -1.0)])
def test_stacked_identities_match_per_operand_recomputation(n, m, sign):
    results = {r.name: r for r in verify_operator_identities(DEFAULT, n, m, sign=sign)}
    for name, residual in _per_operand_residuals(DEFAULT, n, m, sign).items():
        assert results[name].max_residual == residual, name
        assert results[name].passed == (residual < results[name].threshold)
