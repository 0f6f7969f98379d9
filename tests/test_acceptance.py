"""End-to-end acceptance suite.

One test per promised property of the library, each asserted at its
published tolerance.  The pytest -v line of each test is the pass/fail
record; worst-case residuals print under -s.  Runtime-limited sweeps
assert their own wall-clock budget so a regression in speed fails the
same test as a regression in accuracy.
"""

import math
import time

import numpy as np
import pytest

from ptsusy.coherent import (
    CoherentState,
    PhasePoint,
    cs_overlap,
    identity_gram_projection,
    resolution_kernel,
)
from ptsusy.operators import apply_word, verify_operator_identities
from ptsusy.quadrature import QuadratureConfig, integrate_interval
from ptsusy.spectrum import LevelIndex, ModelParams, energy, gap_factor_M
from ptsusy.wavefn import eigenfunction, gram_matrix

from oracles import master_integral, mp_partner

DEFAULT = ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=0.5)
NU_BETA_GRID = [(nu, beta) for nu in (0.5, 1.0, 2.5) for beta in (0.0, 1.0, 3.0)]


def _params(nu: float, beta: float) -> ModelParams:
    return ModelParams(nu=nu, beta=beta, hbar=1.0, length=1.0, mass=0.5)


@pytest.fixture(scope="module")
def identity_runs():
    """Identity-suite reports for every (n, m) with n <= 3, m <= 2."""
    runs = {}
    for m in range(3):
        for n in range(4):
            runs[(n, m)] = {r.name: r for r in verify_operator_identities(DEFAULT, n, m)}
    return runs


@pytest.fixture(scope="module")
def corrupted_run():
    """Same suite with the superpotential sign flipped: the negative control."""
    return {r.name: r for r in verify_operator_identities(DEFAULT, 2, 1, sign=-1.0)}


def test_criterion_01_orthonormality():
    # Gram matrix of the first 11 states at every hierarchy level m <= 10,
    # swept over the (nu, beta) grid.  Quadrature tolerance sits two orders
    # below the acceptance bound but above the evaluation noise floor of the
    # deepest states.
    cfg = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-8)
    t0 = time.monotonic()
    worst = 0.0
    where = None
    for nu, beta in NU_BETA_GRID:
        p = _params(nu, beta)
        for m in range(11):
            funcs = [eigenfunction(p, m, n) for n in range(11)]
            gram = gram_matrix(funcs, p.length, cfg)
            dev = float(np.max(np.abs(gram - np.eye(11))))
            if dev > worst:
                worst, where = dev, (nu, beta, m)
    elapsed = time.monotonic() - t0
    print(f"orthonormality: worst |Gram - I| = {worst:.3e} at (nu, beta, m) = {where}, "
          f"{elapsed:.1f} s")
    assert worst < 1e-8
    assert elapsed < 60.0


def test_criterion_02_eigen_residual():
    # L2 residual of the eigenvalue relation, relative to the eigenvalue,
    # for every level m <= 2 and index n <= 5 on the full parameter grid.
    cfg = QuadratureConfig(endpoint_substitution=True)
    t0 = time.monotonic()
    worst = 0.0
    for nu, beta in NU_BETA_GRID + [(DEFAULT.nu, DEFAULT.beta)]:
        p = _params(nu, beta)
        lo, hi = 1e-6 * p.length, (1.0 - 1e-6) * p.length
        for m in range(3):
            for n in range(6):
                f = eigenfunction(p, m, n)
                e_val = energy(p, LevelIndex(m, n))

                def resid_sq(x):
                    return np.abs(apply_word(p, (("H", m),), f, x) - e_val * f(x)) ** 2

                r2 = integrate_interval(resid_sq, lo, hi, cfg).value.real
                worst = max(worst, math.sqrt(max(r2, 0.0)) / abs(e_val))
    elapsed = time.monotonic() - t0
    print(f"eigen residual: worst = {worst:.3e}, {elapsed:.1f} s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_03_annihilation_and_factorization(identity_runs):
    # The level-m lowering operator kills the level-m ground state, and the
    # factorized Hamiltonian matches the direct one on the operand corpus.
    worst_ann = worst_fact = 0.0
    for report in identity_runs.values():
        ann = report["ground_state_annihilation"]
        fact = report["factorization"]
        assert ann.passed and fact.passed
        worst_ann = max(worst_ann, ann.max_residual)
        worst_fact = max(worst_fact, fact.max_residual)
    print(f"annihilation worst = {worst_ann:.3e}, factorization worst = {worst_fact:.3e}")
    assert worst_ann < 1e-9
    assert worst_fact < 1e-9


def test_criterion_04_ladder_chain_action(identity_runs):
    # Chain of lowering operators maps the base state n+m+1 onto the level
    # m+1 state n with the closed-form gap prefactor, pointwise and in mean
    # value, for every n <= 3, m <= 2.
    worst_point = worst_mean = 0.0
    seen_bdagb = 0
    for (n, m), report in identity_runs.items():
        act = report["ladder_action"]
        assert act.passed
        worst_point = max(worst_point, act.max_residual)
        mean_up = report["mean_BBdag"]
        assert mean_up.passed
        worst_mean = max(worst_mean, mean_up.max_residual)
        if n > m:
            mean_dn = report["mean_BdagB"]
            assert mean_dn.passed
            worst_mean = max(worst_mean, mean_dn.max_residual)
            seen_bdagb += 1
        else:
            assert "mean_BdagB" not in report
    print(f"ladder action worst = {worst_point:.3e}, mean identities worst = {worst_mean:.3e}")
    assert seen_bdagb == sum(1 for (n, m) in identity_runs if n > m)
    assert worst_point < 1e-8
    assert worst_mean < 1e-8


def test_criterion_05_intertwining(identity_runs):
    # Single-step and full-chain intertwining relations on the corpus.
    worst = 0.0
    for report in identity_runs.values():
        single = report["intertwining_single"]
        chain = report["intertwining_chain"]
        assert single.passed and chain.passed
        worst = max(worst, single.max_residual, chain.max_residual)
    print(f"intertwining worst = {worst:.3e}")
    assert worst < 1e-7


def test_criterion_06_product_identities(identity_runs):
    # Ordered chain products acting on eigenstates reduce to scalar energy
    # products; ambiguous printed variants are evaluated both ways and
    # reported informationally, never silently asserted.
    worst = 0.0
    for (n, m), report in identity_runs.items():
        down = report["product_BdagB"]
        up = report["product_BBdag"]
        assert down.passed and up.passed
        worst = max(worst, down.max_residual, up.max_residual)
        if n != m:
            mixed = report["mixed_product"]
            assert mixed.informational
            assert mixed.passed is None
            assert mixed.details["matching_variant"] in ("lambda_form", "theta_form")
        if n > m:
            partial = report["partial_chain_product"]
            assert partial.informational and partial.passed is None
            assert partial.details["matching_variant"] in ("mass_prefactor", "index_prefactor")
    print(f"product identities worst = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_07_first_level_explicit_form():
    # The explicit first-level closed form, at 60 digits, agrees pointwise
    # with the state built by one ladder step from the base family.
    worst = 0.0
    for p in (DEFAULT, _params(0.5, 3.0)):
        grid = np.linspace(0.02 * p.length, 0.98 * p.length, 241)
        for n in range(4):
            pref = (math.pi * p.hbar / p.length) * gap_factor_M(p, n, 0)
            ladder = apply_word(p, (("A", 0),), eigenfunction(p, 0, n + 1), grid) / pref
            explicit = mp_partner(p, n, grid)
            scale = float(np.max(np.abs(explicit)))
            worst = max(worst, float(np.max(np.abs(ladder - explicit))) / scale)
    print(f"first-level explicit vs ladder worst = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_08_master_integral():
    # Closed form of the weighted exponential moment against quadrature for
    # 50 random parameter pairs.
    rng = np.random.default_rng(20260814)
    cfg = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-13, rel_tol=1e-12)
    worst = 0.0
    for _ in range(50):
        delta = rng.uniform(-1.0 + 1e-3, 4.0)
        radius = 10.0 * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        z = radius * complex(math.cos(angle), math.sin(angle))
        closed = master_integral(delta, z)

        def integrand(t):
            return np.sin(math.pi * t) ** (2.0 * delta + 2.0) * np.exp(z * t)

        quad = integrate_interval(integrand, 0.0, 1.0, cfg).value
        worst = max(worst, abs(closed - quad) / abs(closed))
    print(f"master integral worst relative = {worst:.3e}")
    assert worst < 1e-10


def test_criterion_09_coherent_states():
    # Normalization, closed-form overlaps against quadrature, Hermiticity,
    # and the Cauchy-Schwarz bound on a phase-space grid at levels 0 and 1.
    cfg = QuadratureConfig(endpoint_substitution=True, abs_tol=1e-12, rel_tol=1e-11)
    qs = [0.2, 0.35, 0.5, 0.65, 0.8]
    ps = [-6.0, -2.0, 0.0, 2.0, 6.0]
    worst_norm = worst_pair = worst_herm = worst_excess = 0.0
    for m in (0, 1):
        states = [CoherentState(DEFAULT, m, PhasePoint(q, p)) for q in qs for p in ps]
        for st in states:
            nrm = integrate_interval(
                lambda x: np.abs(st(x)) ** 2, 0.0, DEFAULT.length, cfg
            ).value.real
            worst_norm = max(worst_norm, abs(nrm - 1.0), abs(cs_overlap(st, st) - 1.0))
        subset = states[::4]
        for i, a in enumerate(subset):
            for b in subset[i + 1:]:
                closed = cs_overlap(a, b)
                quad = integrate_interval(
                    lambda x: np.conj(a(x)) * b(x), 0.0, DEFAULT.length, cfg
                ).value
                worst_pair = max(worst_pair, abs(closed - quad))
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                forward, backward = cs_overlap(a, b), cs_overlap(b, a)
                worst_herm = max(worst_herm, abs(forward - np.conj(backward)))
                worst_excess = max(worst_excess, abs(forward) - 1.0)
    print(f"normalization worst = {worst_norm:.3e}, overlap vs quadrature worst = "
          f"{worst_pair:.3e}, hermiticity worst = {worst_herm:.3e}, "
          f"Cauchy-Schwarz excess = {worst_excess:.3e}")
    assert worst_norm < 1e-8
    assert worst_pair < 1e-8
    assert worst_herm < 1e-10
    assert worst_excess < 1e-10


def test_criterion_10_resolution_of_identity():
    # Phase-space completeness: the reproducing kernel equals 1 across the
    # box and the Gram projection of the identity is the identity matrix.
    t0 = time.monotonic()
    x_grid = np.arange(1, 42) * DEFAULT.length / 42.0
    worst_kernel = 0.0
    for m in (0, 1):
        kernel = resolution_kernel(DEFAULT, m, x_grid)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(kernel - 1.0))))
    worst_proj = 0.0
    for m in (0, 1):
        proj = identity_gram_projection(DEFAULT, m, 5)
        worst_proj = max(worst_proj, float(np.max(np.abs(proj - np.eye(5)))))
    elapsed = time.monotonic() - t0
    print(f"resolution kernel worst = {worst_kernel:.3e}, projection worst = "
          f"{worst_proj:.3e}, {elapsed:.1f} s")
    assert worst_kernel < 1e-6
    assert worst_proj < 1e-6
    assert elapsed < 120.0


def test_criterion_11_negative_control(identity_runs, corrupted_run):
    # Flipping the superpotential sign must break annihilation,
    # factorization, and both intertwining relations while leaving the
    # structural checks (adjointness, eigen residual) intact.  Guards
    # against a suite that would pass vacuously.
    broken = (
        "ground_state_annihilation",
        "factorization",
        "intertwining_single",
        "intertwining_chain",
    )
    healthy = identity_runs[(2, 1)]
    for name in broken:
        assert healthy[name].passed
        entry = corrupted_run[name]
        assert entry.passed is False
        assert entry.max_residual > 1e-3 * max(entry.threshold, 1e-12)
        assert entry.max_residual > 1e-2
    for name in ("adjoint_consistency", "eigen_residual"):
        assert corrupted_run[name].passed
    print("negative control: sign flip breaks "
          + ", ".join(broken)
          + " and leaves adjointness and eigen residuals intact")
