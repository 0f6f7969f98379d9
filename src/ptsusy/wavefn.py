"""Normalized eigenfunctions of the well hierarchy.

The base family (level m = 0) is evaluated from its closed form: a sine-power
envelope, a real exponential tilt, and a Jacobi polynomial with conjugate
complex parameters evaluated on the imaginary cotangent line.  Each function
carries the constant phase (-i)**n, which makes every member real valued and
gives every ladder relation a positive connection constant.

Normalization constants come from an exact product form: the ground constant
of the index-shifted family times explicit positive factors, one per rung.
Derivatives of any order come from the Taylor jets that ``EigenFunction.taylor``
emits on the open interval.

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
from .errors import DegreeCapError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from .specfun import jacobi_series_coefficients, log_gamma
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy


@dataclass(frozen=True)
class NormalizationData:
    """Normalization constant for one base state, kept in log form."""

    log_K: float

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
    so this stays accurate at any degree.
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
        self._gamma = -params.beta * math.pi / (params.length * s)
        alpha = complex(-s, params.beta / s)
        self._coeffs = jacobi_series_coefficients(n, alpha, alpha.conjugate())

    @property
    def energy(self) -> float:
        return energy(self.params, self.idx)

    def __call__(self, x):
        p = self.params
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if not np.all((arr >= 0.0) & (arr <= p.length)):
            raise DomainError("x outside the box [0, L]")
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

    def taylor(self, x, order: int) -> jets.Jet:
        """Taylor jet at interior point(s) x; batch axes follow the shape of x.

        Coefficient k is the k-th derivative over k!.  The jet exists only on
        the open interval (0, L); anywhere else raises ``DomainError``.
        """
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not np.all((arr > 0.0) & (arr < p.length)):
            raise DomainError("Taylor jets defined on the open interval (0, L)")
        X = jets.Jet.variable(arr, order)
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
    if not np.all((arr >= 0.0) & (arr <= L)):
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
