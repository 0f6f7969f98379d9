"""Normalized eigenfunctions of the well hierarchy.

The base family (level m = 0) is evaluated from its closed form: a sine-power
envelope, a real exponential tilt, and a Jacobi polynomial with conjugate
complex parameters evaluated on the imaginary cotangent line.  Each function
carries the constant phase (-i)**n, which makes every member real valued and
gives every ladder relation a positive connection constant.

Normalization constants come from an exact product form: the ground constant
of the index-shifted family times explicit positive factors, one per rung.
The equivalent gamma / Pochhammer double sum is kept as a secondary route for
cross-checks; it is analytically identical but numerically ill conditioned
(its terms cancel roughly like 10**n), so it guards itself and is never used
in production.

A level-m state is the level-zero closed form of the family whose strength
index is shifted by m, with the same phase convention; the ladder-chain
construction of the same state lives in the operator layer and is compared
against this closed form by the test suite rather than being collapsed into
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import jets
from .errors import DegreeCapError, DomainError, LossOfSignificanceError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from .specfun import (
    jacobi_series_coefficients,
    log_gamma,
    log_pochhammer,
    scaled_phase_sum,
)
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy


@dataclass(frozen=True)
class NormalizationData:
    """Normalization constant for one base state, kept in log form.

    O_value / T_value (and their logs) are only populated by the double-sum
    route; the production product form has no use for them.
    """

    log_K: float
    O_value: float | None = None
    T_value: float | None = None
    log_O: float | None = None
    log_T: float | None = None

    @property
    def K(self) -> float:
        return math.exp(self.log_K)


def _check_degree(n: int, cap: int):
    if n > cap:
        raise DegreeCapError(f"combined level degree {n} exceeds cap {cap}")


def log_ground_constant(nu: float, beta: float, length: float) -> float:
    """log of the ground-state constant of the family with the given indices.

    2**(nu+1) |Gamma(nu+2 + i beta/(nu+1))| exp(beta pi / (2(nu+1)))
    divided by sqrt(L Gamma(2 nu + 3)).
    """
    s = nu + 1.0
    return (
        (nu + 1.0) * math.log(2.0)
        + log_gamma(complex(nu + 2.0, beta / s)).real
        + beta * math.pi / (2.0 * s)
        - 0.5 * math.log(length)
        - 0.5 * math.lgamma(2.0 * nu + 3.0)
    )


@lru_cache(maxsize=2048)
def normalization_K(params: ModelParams, n: int, cap: int = LEVEL_CAP) -> NormalizationData:
    """Normalization constant of the n-th base eigenfunction, in log form.

    Product route: the ground constant of the family with strength index
    nu + n times

        s**n sqrt(n! (n + 2 nu + 2)_n / prod_{j=1..n} ((nu + j)^2 s^2 + beta^2))

    with s = n + nu + 1.  One factor per ladder rung, every factor positive,
    so this stays accurate at any degree, unlike the equivalent double sum.
    """
    if n < 0:
        raise DomainError("excitation number must be nonnegative")
    _check_degree(n, cap)
    nu, beta, L = params.nu, params.beta, params.length
    s = n + nu + 1.0
    log_k0 = log_ground_constant(nu + n, beta, L)
    log_rungs = n * math.log(s) if n else 0.0
    log_rungs += 0.5 * (
        math.lgamma(n + 1.0)
        + math.lgamma(2.0 * n + 2.0 * nu + 2.0)
        - math.lgamma(n + 2.0 * nu + 2.0)
    )
    for j in range(1, n + 1):
        log_rungs -= 0.5 * math.log((nu + j) ** 2 * s * s + beta * beta)
    return NormalizationData(log_K=log_k0 + log_rungs)


@lru_cache(maxsize=512)
def normalization_double_sum(params: ModelParams, n: int, cap: int = LEVEL_CAP) -> NormalizationData:
    """Normalization constant through the conjugate-symmetric double sum.

    Analytically identical to ``normalization_K`` but the terms cancel roughly
    like 10**n, so this route is for cross-checking at small n only.  The sum
    is accumulated as scaled complex exponentials so no intermediate gamma
    value ever overflows; a surviving imaginary part or a cancellation past
    ten digits raises ``LossOfSignificanceError`` instead of returning a
    silently wrong constant.
    """
    if n < 0:
        raise DomainError("excitation number must be nonnegative")
    _check_degree(n, cap)
    nu, beta, L = params.nu, params.beta, params.length
    s = n + nu + 1.0
    b = beta / s

    # T factor: n! over the modulus of a never-vanishing Pochhammer product.
    log_abs_poch = 0.0
    for j in range(n):
        re = -nu - n + j
        mag2 = re * re + b * b
        if mag2 < 1e-12:
            raise LossOfSignificanceError(
                "normalization Pochhammer factor vanishes to working precision"
            )
        log_abs_poch += 0.5 * math.log(mag2)
    log_T = math.lgamma(n + 1.0) - log_abs_poch

    # Overlap double sum in scaled log space.
    ib = 1j * b
    side_minus = []  # k side, carries -ib in the Pochhammer and +ib in the gamma
    side_plus = []
    for k in range(n + 1):
        shared = log_pochhammer(-n, k) + log_pochhammer(-2.0 * nu - n - 1.0, k) - math.lgamma(k + 1.0)
        side_minus.append(shared - log_pochhammer(-nu - n - ib, k) - log_gamma(n + nu + 2.0 - k + ib))
        side_plus.append(shared - log_pochhammer(-nu - n + ib, k) - log_gamma(n + nu + 2.0 - k - ib))
    term_logs = []
    for k in range(n + 1):
        for t in range(n + 1):
            term_logs.append(
                side_minus[k] + side_plus[t] + log_gamma(2.0 * n + 2.0 * nu - k - t + 3.0)
            )
    log_mag, unit = scaled_phase_sum(term_logs)
    sum_abs = math.fsum(math.exp(lt.real - log_mag) for lt in term_logs)
    if abs(unit) < 1e-10 * sum_abs:
        raise LossOfSignificanceError("normalization double sum cancelled past ten digits")
    if abs(unit.imag) > 1e-10 * abs(unit.real) or unit.real <= 0.0:
        raise LossOfSignificanceError("normalization double sum lost conjugate symmetry")
    log_O = log_mag + math.log(unit.real)

    log_K = (
        (n + nu + 1.0) * math.log(2.0)
        - 0.5 * math.log(L)
        + log_T
        + beta * math.pi / (2.0 * s)
        - 0.5 * log_O
    )
    return NormalizationData(
        log_K=log_K,
        O_value=math.exp(log_O),
        T_value=math.exp(log_T),
        log_O=log_O,
        log_T=log_T,
    )


def _ladder_phase(n: int) -> complex:
    # (-i)**n; with this choice every state is real valued and every ladder
    # step carries a positive connection constant.
    return (-1j) ** (n % 4)


def _poly_envelope(coeffs, deg: int, v, w):
    # sum_k c_k v^k w^(deg-k) == sin^deg * P_deg(i cot), bounded for all x in [0, L].
    # Fixed descending-coefficient-magnitude order with Kahan accumulation.
    order = sorted(range(deg + 1), key=lambda k: abs(coeffs[k]) * 0.5**k, reverse=True)
    vp = [None] * (deg + 1)
    wp = [None] * (deg + 1)
    vk = np.ones_like(v)
    wk = np.ones_like(w)
    for k in range(deg + 1):
        vp[k] = vk
        wp[k] = wk
        vk = vk * v
        wk = wk * w
    total = np.zeros_like(v)
    comp = np.zeros_like(v)
    for k in order:
        term = coeffs[k] * vp[k] * wp[deg - k] - comp
        t = total + term
        comp = (t - total) - term
        total = t
    return total


class EigenFunction:
    """One normalized bound state; callable on scalars or arrays of x.

    Every level evaluates its own closed form: level m, state n is the
    level-zero state n of the family with strength index nu + m.  The same
    function built by folding the ladder chain over the base family (see the
    operator layer) agrees with this pointwise; the test suite checks that
    instead of assuming it.
    """

    def __init__(self, params: ModelParams, idx: LevelIndex, cap: int = LEVEL_CAP):
        _check_degree(idx.m + idx.n, cap)
        self.params = params
        self.idx = idx
        n = idx.n
        self._deg = n
        self._nu_eff = params.nu + idx.m
        norm = normalization_K(replace(params, nu=self._nu_eff), n, cap)
        self.norm_data = norm
        self.phase = _ladder_phase(n)
        s = n + self._nu_eff + 1.0
        self._s = s
        self._gamma = -params.beta * math.pi / (params.length * s)
        alpha = complex(-s, params.beta / s)
        self._coeffs = jacobi_series_coefficients(n, alpha, alpha.conjugate())
        self._coeffs_d = (
            jacobi_series_coefficients(n - 1, alpha + 1.0, alpha.conjugate() + 1.0)
            if n >= 1
            else (0.0 + 0.0j,)
        )

    @property
    def energy(self) -> float:
        return energy(self.params, self.idx)

    def _prepare(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        L = self.params.length
        if np.any((arr < 0.0) | (arr > L)):
            raise DomainError("x outside the box [0, L]")
        return arr, scalar

    def __call__(self, x):
        arr, scalar = self._prepare(x)
        p = self.params
        theta = math.pi * arr / p.length
        w = np.sin(theta)
        v = -0.5j * np.exp(1j * theta)
        poly = _poly_envelope(self._coeffs, self._deg, v.astype(complex), w.astype(complex))
        out = np.zeros(arr.shape, dtype=complex)
        # mask on x, not on sin: sin(pi * L / L) is a subnormal, not an exact 0
        interior = (arr > 0.0) & (arr < p.length)
        envelope = np.exp(
            self.norm_data.log_K
            + self._gamma * arr[interior]
            + (self._nu_eff + 1.0) * np.log(w[interior])
        )
        out[interior] = self.phase * envelope * poly[interior]
        return complex(out[0]) if scalar else out

    def derivative(self, x):
        arr, scalar = self._prepare(x)
        p = self.params
        n = self._deg
        if np.any((arr <= 0.0) | (arr >= p.length)):
            raise DomainError("derivative defined on the open interval (0, L)")
        theta = math.pi * arr / p.length
        w = np.sin(theta).astype(complex)
        c = np.cos(theta)
        v = -0.5j * np.exp(1j * theta)
        bracket = (self._s * c - (p.beta / self._s) * np.sin(theta)) * _poly_envelope(
            self._coeffs, n, v, w
        )
        if n >= 1:
            bracket = bracket + (0.5j * (n + 2.0 * self._nu_eff + 1.0)) * _poly_envelope(
                self._coeffs_d, n - 1, v, w
            )
        envelope = np.exp(self.norm_data.log_K + self._gamma * arr + self._nu_eff * np.log(w.real))
        out = self.phase * (math.pi / p.length) * envelope * bracket
        return complex(out[0]) if scalar else out

    def taylor(self, x, order: int) -> jets.Jet:
        """Taylor jet at interior point(s) x; batch axes follow the shape of x."""
        p = self.params
        X = jets.Jet.variable(np.asarray(x, dtype=float), order)
        theta = X * (math.pi / p.length)
        s, c = jets.sin_cos(theta)
        u = (1.0 - 1j * (c / s)) * 0.5
        poly = jets.polyval(self._coeffs, u)
        env = jets.exp(X * self._gamma + jets.log(s) * (self._nu_eff + self._deg + 1.0))
        return env * poly * (self.phase * math.exp(self.norm_data.log_K))


@lru_cache(maxsize=1024)
def eigenfunction(params: ModelParams, m: int, n: int, cap: int = LEVEL_CAP) -> EigenFunction:
    """Cached EigenFunction factory."""
    return EigenFunction(params, LevelIndex(m=m, n=n), cap)


def eval_eigenfunction(params: ModelParams, n: int, x):
    """Value(s) of the n-th base eigenfunction at x in [0, L]."""
    return eigenfunction(params, 0, n)(x)


def eval_eigenfunction_derivative(params: ModelParams, n: int, x):
    """Closed-form d/dx of the n-th base eigenfunction on the open interval."""
    return eigenfunction(params, 0, n).derivative(x)


def hierarchy_eigenfunction(params: ModelParams, idx: LevelIndex, x):
    """Value(s) of the n-th eigenfunction of hierarchy level m.

    Every level uses its own closed form: the level-zero state n of the
    family with strength index nu + m.  For m = 0 this is exactly
    ``eval_eigenfunction``.
    """
    return eigenfunction(params, idx.m, idx.n)(x)


def partner_eigenfunction_explicit(params: ModelParams, n: int, x):
    """First-level eigenfunction from its explicit closed form.

    Independent of the ladder fold: a cosine rotated by the mixing angle
    multiplies the degree n + 1 polynomial and an imaginary companion term
    carries the parameter-shifted degree n polynomial.  Used as the second
    route when validating the chain construction.
    """
    from .spectrum import phase_alpha

    nu, beta, L, hbar, mass = params.nu, params.beta, params.length, params.hbar, params.mass
    s1 = n + nu + 2.0
    a1 = complex(-s1, beta / s1)
    norm = normalization_K(params, n + 1)
    e_top = energy(params, LevelIndex(0, n + 1))
    e_bot = energy(params, LevelIndex(0, 0))
    gap = e_top - e_bot
    mean_gap = gap / (n + 1.0)
    amp = math.sqrt(2.0 * mass * (n + 1.0) ** 2 * mean_gap / (n + 2.0 * nu + 3.0))
    alpha_mix = phase_alpha(params, n)
    c_top = jacobi_series_coefficients(n + 1, a1, a1.conjugate())
    c_shift = jacobi_series_coefficients(n, a1 + 1.0, a1.conjugate() + 1.0)

    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any((arr < 0.0) | (arr > L)):
        raise DomainError("x outside the box [0, L]")
    theta = math.pi * arr / L
    w = np.sin(theta).astype(complex)
    v = -0.5j * np.exp(1j * theta)
    out = np.zeros(arr.shape, dtype=complex)
    interior = (arr > 0.0) & (arr < L)
    bracket = amp * np.cos(theta - alpha_mix) * _poly_envelope(c_top, n + 1, v, w) + (
        0.5j * math.pi * hbar * (n + 2.0 * nu + 2.0) / L
    ) * _poly_envelope(c_shift, n, v, w)
    envelope = np.exp(
        norm.log_K
        - beta * math.pi * arr[interior] / (L * s1)
        + nu * np.log(w[interior].real)
    )
    phase = _ladder_phase(n + 1)
    out[interior] = phase * envelope * bracket[interior] / math.sqrt(2.0 * mass * gap)
    return complex(out[0]) if scalar else out


def gram_matrix(
    functions,
    length: float,
    config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Hermitian Gram matrix of callables over [0, length] by adaptive quadrature.

    The upper triangle is one vector-valued integral: every function is
    evaluated once per node, and every entry meets its own tolerance.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, endpoint_substitution=True)
    k = len(functions)
    rows, cols = np.triu_indices(k)

    def integrand(t):
        phi = np.array([f(t) for f in functions])
        return np.conj(phi[rows]) * phi[cols]

    value = integrate_interval(integrand, 0.0, length, config).value
    gram = np.zeros((k, k), dtype=complex)
    gram[rows, cols] = value
    gram[cols, rows] = np.conj(value)
    return gram
