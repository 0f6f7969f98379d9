"""First-order ladder operators, Hamiltonians, and the identity verification suite.

Operator words (ladder steps and Hamiltonian applications at chosen hierarchy
levels) are folded over Taylor jets of the operand, so arbitrarily nested
applications stay exact to rounding.  Operands must expose ``taylor(x, order)``,
as eigenfunctions, coherent states and the smooth test bumps do.

The verification suite evaluates every operator identity of the hierarchy on
sample grids and reports one relative residual per identity, flagging the
deliberately ambiguous ones as informational rather than asserting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import jets
from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, IntegralResult, QuadratureConfig, integrate_interval
from .spectrum import LevelIndex, ModelParams, energy, gap_factor_M, gap_factor_N
from .wavefn import eigenfunction

#: Relative clamp keeping operator evaluations away from the wall singularities.
EDGE_CLAMP = 1e-6


@dataclass(frozen=True)
class SuperPotential:
    """Closed-form superpotential of hierarchy level m.

    ``sign=-1`` yields a deliberately corrupted operator family used as the
    negative control in the verification suite; every factorization identity
    must then fail by a wide margin.
    """

    params: ModelParams
    m: int
    sign: float = 1.0

    def __call__(self, x):
        p = self.params
        arr = np.asarray(x, dtype=float)
        if np.any((arr <= 0.0) | (arr >= p.length)):
            raise DomainError("superpotential defined on the open interval (0, L)")
        theta = math.pi * arr / p.length
        s = p.nu + self.m + 1.0
        w = -(math.pi * p.hbar / p.length) * (s / np.tan(theta) - p.beta / s)
        return self.sign * w


def superpotential(params: ModelParams, m: int, x, sign: float = 1.0):
    """W_m(x); real, diverging to -inf at the left wall and +inf at the right."""
    return SuperPotential(params, m, sign)(x)


def superpotential_jet(params: ModelParams, m: int, X: jets.Jet, sign: float = 1.0) -> jets.Jet:
    """Jet of W_m along the variable jet X."""
    theta = X * (math.pi / params.length)
    s, c = jets.sin_cos(theta)
    lvl = params.nu + m + 1.0
    return ((c / s) * lvl - params.beta / lvl) * (-sign * math.pi * params.hbar / params.length)


def potential(params: ModelParams, m: int, x):
    """Potential of hierarchy level m: e0 times the strength (nu+m)(nu+m+1)
    on 1/sin^2 plus the cotangent tilt -2 beta cot."""
    arr = np.asarray(x, dtype=float)
    if np.any((arr <= 0.0) | (arr >= params.length)):
        raise DomainError("potential defined on the open interval (0, L)")
    theta = math.pi * arr / params.length
    lvl = params.nu + m
    return params.epsilon0 * (
        (lvl * (lvl + 1.0)) / np.sin(theta) ** 2 - 2.0 * params.beta / np.tan(theta)
    )


def _potential_jet(params: ModelParams, m: int, X: jets.Jet) -> jets.Jet:
    theta = X * (math.pi / params.length)
    s, c = jets.sin_cos(theta)
    lvl = params.nu + m
    inv_s2 = 1.0 / (s * s)
    return (inv_s2 * (lvl * (lvl + 1.0)) - (c / s) * (2.0 * params.beta)) * params.epsilon0


class TrigPolyBump:
    """Smooth Dirichlet test function: sin^2 envelope times a random sine sum."""

    def __init__(self, params: ModelParams, seed: int, n_modes: int = 4):
        self.params = params
        rng = np.random.default_rng(seed)
        self.coeffs = rng.normal(size=n_modes)

    def __call__(self, x):
        theta = math.pi * np.asarray(x, dtype=float) / self.params.length
        acc = np.zeros_like(theta)
        for j, cj in enumerate(self.coeffs, start=1):
            acc += cj * np.sin(j * theta)
        return np.sin(theta) ** 2 * acc

    def taylor(self, x, order: int) -> jets.Jet:
        X = jets.Jet.variable(np.asarray(x, dtype=float), order)
        theta = X * (math.pi / self.params.length)
        s, _ = jets.sin_cos(theta)
        acc = jets.Jet.constant(0.0, order, np.shape(x))
        for j, cj in enumerate(self.coeffs, start=1):
            sj, _ = jets.sin_cos(theta * float(j))
            acc = acc + sj * float(cj)
        return s * s * acc


def _word_order(word) -> int:
    return sum(2 if kind == "H" else 1 for kind, _ in word)


def apply_word(params: ModelParams, word, func, x, sign: float = 1.0):
    """Apply a sequence of operators (first entry acts first) at points x.

    Word entries are ("A", level), ("Adag", level), or ("H", level).  Returns
    the complex values of the resulting function at x.
    """
    arr = np.asarray(x, dtype=float)
    if np.any((arr <= 0.0) | (arr >= params.length)):
        raise DomainError("operator applications need interior sample points")
    order = _word_order(word)
    fj = func.taylor(arr, order)
    X = jets.Jet.variable(arr, order)
    hbar = params.hbar
    for kind, level in word:
        if kind == "A":
            w = superpotential_jet(params, level, X.truncate(fj.order), sign)
            fj = fj.derivative() * hbar + w.truncate(fj.order - 1) * fj
        elif kind == "Adag":
            w = superpotential_jet(params, level, X.truncate(fj.order), sign)
            fj = fj.derivative() * (-hbar) + w.truncate(fj.order - 1) * fj
        elif kind == "H":
            v = _potential_jet(params, level, X.truncate(fj.order))
            kinetic = fj.derivative().derivative() * (-(hbar**2) / (2.0 * params.mass))
            fj = kinetic + v.truncate(fj.order - 2) * fj
        else:
            raise ValueError(f"unknown operator kind {kind!r}")
    return fj.value


def default_grid(params: ModelParams, size: int = 161, clamp: float = 0.02) -> np.ndarray:
    """Uniform interior grid clamped away from the walls.

    Identity checks default to a bulk clamp of 0.02 L: within a few times
    1e-3 L of a wall the 1/sin^2 singularity amplifies jet roundoff up to the
    size of the values themselves for depth >= 3 operator words, which says
    nothing about the identities.  Quadrature keeps the much smaller
    EDGE_CLAMP since integrals weight the edge region by its tiny measure.
    """
    L = params.length
    return np.linspace(clamp * L, (1.0 - clamp) * L, size)


# ---------------------------------------------------------------------------
# Identity verification suite
# ---------------------------------------------------------------------------


@dataclass
class IdentityResult:
    name: str
    indices: dict
    max_residual: float
    threshold: float | None
    passed: bool | None
    informational: bool
    grid_size: int
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "indices": self.indices,
            "max_residual": self.max_residual,
            "threshold": self.threshold,
            "passed": self.passed,
            "informational": self.informational,
            "grid_size": self.grid_size,
            "details": self.details,
        }


def _rel(lhs: np.ndarray, rhs: np.ndarray, scale: float | None = None) -> float:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    num = float(np.max(np.abs(lhs - rhs)))
    if scale is None:
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return num / max(scale, 1e-300)


def _norm_sq(params: ModelParams, word, func, config: QuadratureConfig, sign: float = 1.0) -> IntegralResult:
    L = params.length

    def integrand(x):
        vals = apply_word(params, word, func, x, sign)
        return np.abs(vals) ** 2

    return integrate_interval(integrand, EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, config)


def _quad_details(*results: IntegralResult) -> dict:
    # provenance of a quadrature residual: summed error bound and abscissas
    return {
        "quad_error": sum(r.error for r in results),
        "quad_evaluations": sum(r.evaluations for r in results),
    }


def test_corpus(params: ModelParams, m: int, n_eigen: int = 4, n_bumps: int = 2):
    """Standard operand set: low eigenfunctions of level m plus seeded bumps."""
    funcs = [eigenfunction(params, m, n) for n in range(n_eigen)]
    funcs += [TrigPolyBump(params, seed) for seed in (101, 102)[:n_bumps]]
    return funcs


def verify_operator_identities(
    params: ModelParams,
    n: int,
    m: int,
    grid_size: int = 161,
    sign: float = 1.0,
    config: QuadratureConfig | None = None,
) -> list[IdentityResult]:
    """Evaluate the full operator identity suite at indices (n, m).

    Mandatory identities carry thresholds and a pass flag; identities whose
    printed form is ambiguous are evaluated in every well-formed variant and
    reported as informational, with the matching variant recorded.

    Depth-1 and depth-2 words are checked on [0.02 L, 0.98 L].  Chains of
    depth three and beyond use the bulk span [0.1 L, 0.9 L]: closer to a wall
    the 1/sin^2 singularity amplifies jet roundoff past any fixed tolerance,
    which measures the floating point format rather than the identities.  The
    wall behavior itself is still pinned by the eigen-residual quadrature,
    whose integrals run to within 1e-6 L of the walls.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, abs_tol=1e-13, rel_tol=1e-11)
    grid = default_grid(params, grid_size)
    bulk = default_grid(params, grid_size, clamp=0.1)
    results: list[IdentityResult] = []
    hbar, L, mass = params.hbar, params.length, params.mass
    two_m = 2.0 * mass
    e0_level = lambda k: energy(params, LevelIndex(0, k))
    idx = {"n": n, "m": m}

    def add(name, res, threshold, informational=False, details=None, indices=None):
        results.append(
            IdentityResult(
                name=name,
                indices=indices or dict(idx),
                max_residual=res,
                threshold=threshold,
                passed=None if informational else bool(res < threshold),
                informational=informational,
                grid_size=grid_size,
                details=details or {},
            )
        )

    # Ground-state annihilation at level m.
    ground = eigenfunction(params, m, 0)
    ann = apply_word(params, (("A", m),), ground, grid, sign)
    add(
        "ground_state_annihilation",
        _rel(ann, np.zeros_like(ann), scale=float(np.max(np.abs(ground(grid))))),
        1e-9,
    )

    # Factorized Hamiltonian A_m^dag A_m / 2M + E_0^(m) reproduces the direct
    # one on the corpus.
    corpus_m = test_corpus(params, m)
    e0_m = energy(params, LevelIndex(m, 0))
    worst = 0.0
    for f in corpus_m:
        direct = apply_word(params, (("H", m),), f, grid)
        chained = apply_word(params, (("A", m), ("Adag", m)), f, grid, sign)
        fact = chained / two_m + e0_m * np.asarray(f(grid), dtype=complex)
        worst = max(worst, _rel(fact, direct))
    add("factorization", worst, 1e-9)

    # Single-step intertwining, both directions.  The scale floor keeps the
    # annihilated ground state from turning into a noise-over-noise ratio.
    def op_floor(f, depth):
        return params.epsilon0 * (math.pi * hbar / L) ** (depth - 2) * float(
            np.max(np.abs(f(bulk)))
        )

    worst = 0.0
    for f in corpus_m:
        lhs = apply_word(params, (("A", m), ("H", m + 1)), f, bulk, sign)
        rhs = apply_word(params, (("H", m), ("A", m)), f, bulk, sign)
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), op_floor(f, 3))
        worst = max(worst, _rel(lhs, rhs, scale=scale))
    corpus_up = test_corpus(params, m + 1)
    for f in corpus_up:
        lhs = apply_word(params, (("Adag", m), ("H", m)), f, bulk, sign)
        rhs = apply_word(params, (("H", m + 1), ("Adag", m)), f, bulk, sign)
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), op_floor(f, 3))
        worst = max(worst, _rel(lhs, rhs, scale=scale))
    add("intertwining_single", worst, 1e-7)

    # Chain intertwining (equivalently, the supercharge commutator component).
    word_b = tuple(("A", k) for k in range(m + 1))
    worst = 0.0
    corpus_0 = test_corpus(params, 0)
    for f in corpus_0:
        lhs = apply_word(params, word_b + (("H", m + 1),), f, bulk, sign)
        rhs = apply_word(params, (("H", 0),) + word_b, f, bulk, sign)
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), op_floor(f, m + 3))
        worst = max(worst, _rel(lhs, rhs, scale=scale))
    add("intertwining_chain", worst, 1e-7)
    add("supercharge_commutator", worst, 1e-7, details={"alias_of": "intertwining_chain"})

    # Product identities on eigenstates (the supercharge anticommutator blocks).
    # For n <= m one energy factor vanishes and the content is annihilation of
    # the chain; the scale then substitutes the base energy quantum.
    word_bdag = tuple(("Adag", k) for k in range(m, -1, -1))
    phi_n = eigenfunction(params, 0, n)
    lhs = apply_word(params, word_b + word_bdag, phi_n, bulk, sign)
    scalar = two_m ** (m + 1)
    scale = two_m ** (m + 1) * float(np.max(np.abs(phi_n(bulk))))
    for k in range(m + 1):
        scalar *= e0_level(n) - e0_level(k)
        scale *= max(abs(e0_level(n) - e0_level(k)), params.epsilon0)
    res_bdagb = _rel(lhs, scalar * phi_n(bulk), scale=scale)
    add("product_BdagB", res_bdagb, 1e-9, details={"annihilating_branch": n <= m})
    add("supercharge_anticommutator_block0", res_bdagb, 1e-9, details={"alias_of": "product_BdagB"})

    phi_up = eigenfunction(params, m + 1, n)
    lhs = apply_word(params, word_bdag + word_b, phi_up, bulk, sign)
    scalar = two_m ** (m + 1)
    e_up = energy(params, LevelIndex(m + 1, n))
    for k in range(m + 1):
        scalar *= e_up - e0_level(k)
    res_bbdag = _rel(lhs, scalar * phi_up(bulk))
    add("product_BBdag", res_bbdag, 1e-9)
    add("supercharge_anticommutator_block1", res_bbdag, 1e-9, details={"alias_of": "product_BBdag"})

    # Chain action with the closed-form gap factor.
    phi_top = eigenfunction(params, 0, n + m + 1)
    lhs = apply_word(params, word_b, phi_top, bulk, sign)
    pref = (math.pi * hbar / L) ** (m + 1) * gap_factor_M(params, n, m)
    add("ladder_action", _rel(lhs, pref * phi_up(bulk)), 1e-8)

    # Mean values of the chain products by quadrature.
    quad = _norm_sq(params, word_bdag, phi_up, config, sign)
    mean = float(quad.value.real)
    add("mean_BBdag", _rel(np.array([mean]), np.array([pref**2])), 1e-8, details=_quad_details(quad))
    if n > m:
        quad = _norm_sq(params, word_b, phi_n, config, sign)
        mean = float(quad.value.real)
        pref_n = (math.pi * hbar / L) ** (m + 1) * gap_factor_M(params, n - m - 1, m)
        add("mean_BdagB", _rel(np.array([mean]), np.array([pref_n**2])), 1e-8, details=_quad_details(quad))

    # Adjoint consistency; bumps keep both inner products away from zero.
    psi = TrigPolyBump(params, 201)
    phi = TrigPolyBump(params, 202)
    lo, hi = EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L

    def inner_left(x):
        return np.conj(apply_word(params, (("A", m),), psi, x, sign)) * phi(x)

    def inner_right(x):
        return np.conj(psi(x)) * apply_word(params, (("Adag", m),), phi, x, sign)

    quad_a = integrate_interval(inner_left, lo, hi, config)
    quad_b = integrate_interval(inner_right, lo, hi, config)
    va, vb = quad_a.value, quad_b.value
    add(
        "adjoint_consistency",
        abs(va - vb) / max(abs(va), abs(vb), 1e-300),
        1e-9,
        details=_quad_details(quad_a, quad_b),
    )

    # Eigen-residual of the level-m state n.
    phi_m = eigenfunction(params, m, n)
    e_val = energy(params, LevelIndex(m, n))

    def resid_sq(x):
        return np.abs(apply_word(params, (("H", m),), phi_m, x) - e_val * phi_m(x)) ** 2

    quad = integrate_interval(resid_sq, lo, hi, config)
    r2 = quad.value.real
    add("eigen_residual", math.sqrt(max(r2, 0.0)) / abs(e_val), 1e-6, details=_quad_details(quad))

    # Mixed chain products: evaluate every well-formed printed variant.
    # The operand index n keeps the chains from annihilating either side.
    if n != m:
        psi_mixed = eigenfunction(params, m + 1, n)
        word_bn = tuple(("A", k) for k in range(n + 1))
        lhs = apply_word(params, word_bdag + word_bn, psi_mixed, bulk, sign)
        details = {}
        best = None
        if n > m:
            lam = tuple(("A", k) for k in range(m + 1, n + 1))
            scalar = two_m ** (m + 1)
            e_psi = energy(params, LevelIndex(m + 1, n))
            for k in range(m + 1):
                scalar *= e_psi - e0_level(k)
            rhs = scalar * apply_word(params, lam, psi_mixed, bulk, sign)
            details["lambda_form"] = _rel(lhs, rhs)
            best = "lambda_form"
        if n < m:
            theta = tuple(("Adag", k) for k in range(m, n, -1))
            # theta first, then the operator polynomial prod_k (H - E_k) folded directly
            order = _word_order(theta) + 2 * (n + 1)
            fj = psi_mixed.taylor(bulk, order)
            X = jets.Jet.variable(bulk, order)
            for kind, level in theta:
                w = superpotential_jet(params, level, X.truncate(fj.order), sign)
                fj = fj.derivative() * (-hbar) + w.truncate(fj.order - 1) * fj
            for k in range(n + 1):
                v = _potential_jet(params, n + 1, X.truncate(fj.order))
                hfj = fj.derivative().derivative() * (-(hbar**2) / (2.0 * mass)) + v.truncate(
                    fj.order - 2
                ) * fj
                fj = hfj + fj.truncate(hfj.order) * (-e0_level(k))
            rhs = two_m ** (n + 1) * fj.value
            details["theta_form"] = _rel(lhs, rhs)
            best = "theta_form"
        if "lambda_form" in details and "theta_form" in details:
            best = min(details, key=details.get)
        details["matching_variant"] = best
        add("mixed_product", min(v for k, v in details.items() if k != "matching_variant"), None, informational=True, details=details)

    # Partial-chain products with both candidate prefactors.
    if n > m:
        lam = tuple(("A", k) for k in range(m + 1, n + 1))
        lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
        phi_hi = eigenfunction(params, n + 1, 0)
        e_hi = energy(params, LevelIndex(n + 1, 0))
        lhs = apply_word(params, lam_dag + lam, phi_hi, bulk, sign)
        core = 1.0
        for k in range(m + 1, n + 1):
            core *= e_hi - e0_level(k)
        variants = {
            "mass_prefactor": _rel(lhs, two_m ** (n - m) * core * phi_hi(bulk)),
            "index_prefactor": _rel(lhs, (2.0 * m) ** (n - m) * core * phi_hi(bulk))
            if m > 0
            else float("inf"),
        }
        variants["matching_variant"] = min(
            (k for k in ("mass_prefactor", "index_prefactor")), key=lambda k: variants[k]
        )
        add(
            "partial_chain_product",
            variants[variants["matching_variant"]],
            None,
            informational=True,
            details=variants,
        )

    # Partial-chain mean values (quadrature route).
    mean_details = {}
    if n > m:
        lam = tuple(("A", k) for k in range(m + 1, n + 1))
        lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
        state_hi = eigenfunction(params, n + 1, n)
        mean = float(_norm_sq(params, lam_dag, state_hi, config).value.real)
        target = (hbar * math.pi / L) ** (2 * (n - m)) * gap_factor_N(params, n, n) / gap_factor_N(
            params, n, m
        )
        mean_details["lambda_lambdadag"] = _rel(np.array([mean]), np.array([target]))
        state_mid = eigenfunction(params, m + 1, n)
        mean = float(_norm_sq(params, lam, state_mid, config).value.real)
        ratio = gap_factor_M(params, m, n) / gap_factor_M(params, n, m)
        target = ((hbar * math.pi / L) ** (n - m) * ratio) ** 2
        mean_details["lambdadag_lambda"] = _rel(np.array([mean]), np.array([target]))
    if n < m:
        theta = tuple(("Adag", k) for k in range(m, n, -1))
        theta_dag = tuple(("A", k) for k in range(n + 1, m + 1))
        state_hi = eigenfunction(params, n + 1, n)
        mean = float(_norm_sq(params, theta_dag, state_hi, config).value.real)
        unit = (hbar * math.pi / L) ** (2 * (m - n))
        target = unit * gap_factor_N(params, n, m) / gap_factor_N(params, n, n)
        if target == 0.0:
            # closed-form factor vanishes (m >= 2n+1): the chain annihilates
            # the state, so compare the mean against zero in natural units
            mean_details["theta_thetadag"] = mean / unit
        else:
            mean_details["theta_thetadag"] = _rel(np.array([mean]), np.array([target]))
        state_mid = eigenfunction(params, m + 1, n)
        mean = float(_norm_sq(params, theta, state_mid, config).value.real)
        ratio = gap_factor_M(params, n, m) / gap_factor_M(params, m, n)
        target = ((hbar * math.pi / L) ** (m - n) * ratio) ** 2
        mean_details["thetadag_theta"] = _rel(np.array([mean]), np.array([target]))
    if mean_details:
        add(
            "partial_chain_means",
            max(mean_details.values()),
            None,
            informational=True,
            details=mean_details,
        )

    return results
