"""Factorization operators: superpotential values, the three potential
routes, word application, and the identity verification suite including its
negative control."""

import math

import numpy as np
import pytest

from ptsusy import jets
from ptsusy.errors import DomainError
from ptsusy.operators import (
    EDGE_CLAMP,
    SuperPotential,
    TrigPolyBump,
    apply_word,
    default_grid,
    potential,
    superpotential,
    superpotential_jet,
    verify_operator_identities,
)
from ptsusy.spectrum import LevelIndex, ModelParams, energy
from ptsusy.wavefn import eigenfunction

from conftest import DEFAULT, interior_grid

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


def test_superpotential_derivative_matches_fd():
    # coefficient 1 of the jet that operator words fold is W'
    from ptsusy.quadrature import derivative as fd

    w = SuperPotential(params=DEFAULT, m=1)
    for x0 in (0.2, 0.5, 0.77):
        want, _ = fd(lambda t: w(float(t)), x0, order=1)
        jet = superpotential_jet(DEFAULT, 1, jets.Jet.variable(x0, 1))
        assert jet.c[0] == pytest.approx(w(x0), rel=1e-14)
        assert jet.c[1] == pytest.approx(want, rel=1e-9)


def test_potential_three_routes_agree():
    # closed form against (W^2 - hbar W') / 2M + E_0^(1) and against the
    # level-zero potential plus the m-dependent 1/sin^2 increment
    m = 1
    xs = interior_grid(DEFAULT, 41)
    v0 = potential(DEFAULT, m, xs)
    w = superpotential(DEFAULT, m, xs)
    dw = superpotential_jet(DEFAULT, m, jets.Jet.variable(xs, 1)).c[1].real
    v1 = (w * w - DEFAULT.hbar * dw) / (2.0 * DEFAULT.mass) + energy(DEFAULT, LevelIndex(m, 0))
    inv_s2 = 1.0 / np.sin(math.pi * xs / DEFAULT.length) ** 2
    v2 = potential(DEFAULT, 0, xs) + DEFAULT.epsilon0 * m * (2.0 * DEFAULT.nu + m + 1.0) * inv_s2
    scale = np.max(np.abs(v0))
    assert np.max(np.abs(v1 - v0)) < 1e-10 * scale
    assert np.max(np.abs(v2 - v0)) < 1e-10 * scale


def test_potential_rejects_walls():
    with pytest.raises(DomainError):
        potential(DEFAULT, 0, 0.0)


def test_ground_state_annihilated():
    for m in (0, 1, 2):
        f = eigenfunction(DEFAULT, m, 0)
        grid = default_grid(DEFAULT)
        out = apply_word(DEFAULT, (("A", m),), f, grid)
        assert np.max(np.abs(out)) < 1e-10 * np.max(np.abs(f(grid)))


def test_hamiltonian_two_forms_agree_on_bump():
    bump = TrigPolyBump(DEFAULT, 7)
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
    with pytest.raises(DomainError):
        apply_word(DEFAULT, (("A", 0),), f, np.array([0.0, 0.5]))


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
    b1 = TrigPolyBump(DEFAULT, 42)
    b2 = TrigPolyBump(DEFAULT, 42)
    b3 = TrigPolyBump(DEFAULT, 43)
    xs = interior_grid(DEFAULT, 9)
    assert np.array_equal(b1(xs), b2(xs))
    assert not np.array_equal(b1(xs), b3(xs))
    # sin^2 envelope: the wall values vanish to rounding of sin(pi)
    assert abs(b1(0.0)) < 1e-30 and abs(b1(DEFAULT.length)) < 1e-30


def test_default_grid_interior():
    g = default_grid(DEFAULT, size=101)
    assert g[0] >= 0.02 * DEFAULT.length
    assert g[-1] <= 0.98 * DEFAULT.length
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


def test_negative_control_sign_flip():
    results = {r.name: r for r in verify_operator_identities(DEFAULT, 2, 1, sign=-1.0)}
    # the factorization-dependent identities must fail by a wide margin
    for name in ("ground_state_annihilation", "factorization", "intertwining_chain", "ladder_action"):
        assert results[name].passed is False
        assert results[name].max_residual > 1e-2
    # structural checks hold for any real superpotential
    assert results["adjoint_consistency"].passed is True
    assert results["eigen_residual"].passed is True
