"""Model parameters, level indexing, energy levels, and spectral gap factors."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Default cap on combined excitation + hierarchy depth for eigenfunction work.
LEVEL_CAP = 20


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the trigonometric well on [0, L].

    nu >= 0 controls the centrifugal strength, beta >= 0 the asymmetry tilt.
    Defaults pick the dimensionless gauge hbar = 1, L = 1, 2*mass = 1, in which
    the energy unit epsilon0 equals pi**2.
    """

    nu: float
    beta: float
    hbar: float = 1.0
    length: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        for name in ("nu", "beta", "hbar", "length", "mass"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not (self.nu >= 0.0):
            raise DomainError("nu must be >= 0")
        if not (self.beta >= 0.0):
            raise DomainError("beta must be >= 0")
        if not (self.hbar > 0.0 and self.length > 0.0 and self.mass > 0.0):
            raise DomainError("hbar, length, mass must be positive")

    @property
    def epsilon0(self) -> float:
        """Base energy unit hbar^2 pi^2 / (2 m L^2)."""
        return self.hbar**2 * math.pi**2 / (2.0 * self.mass * self.length**2)


@dataclass(frozen=True)
class LevelIndex:
    """Hierarchy level m >= 0 and excitation number n >= 0 within that level."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DomainError("level indices must be nonnegative")
        if self.m != int(self.m) or self.n != int(self.n):
            raise DomainError("level indices must be integers")


def energy(params: ModelParams, idx: LevelIndex) -> float:
    """Energy of the n-th state at hierarchy level m.

    The whole hierarchy shares one closed form through the shifted principal
    quantum number n + m + nu + 1, which makes the shift law
    E_n^(m+1) = E_{n+1}^(m) an exact identity of this function.
    """
    s = idx.n + idx.m + params.nu + 1.0
    return params.epsilon0 * (s * s - params.beta**2 / (s * s))


def ground_energy(params: ModelParams, m: int) -> float:
    """Ground-state energy of hierarchy level m."""
    return energy(params, LevelIndex(m=m, n=0))


def _gap_product_logs(factors) -> float:
    # All gap-factor pieces are positive in the supported index range, so a
    # plain log sum is safe; a zero factor short-circuits to -inf.
    total = 0.0
    for f in factors:
        if f == 0.0:
            return -math.inf
        if f < 0.0:
            raise DomainError("gap factor product hit a negative factor")
        total += math.log(f)
    return total


def _m_squared_factors(params: ModelParams, n: int, m: int):
    nu, beta = params.nu, params.beta
    top = n + m + nu + 2.0
    for k in range(m + 1):
        yield (n + m - k + 1.0)
        yield (n + m + 2.0 * nu + k + 3.0)
        yield 1.0 + beta**2 / ((k + nu + 1.0) * top) ** 2


def gap_factor_M(params: ModelParams, n: int, m: int) -> float:
    """Ladder-chain gap factor M(n, m) > 0, the positive square root of M^2.

    M^2 is a product of per-rung energy gaps; it is evaluated in log space and
    exponentiated, so deep chains cannot overflow intermediate products.
    """
    if n < 0 or m < 0:
        raise DomainError("gap_factor_M needs n >= 0 and m >= 0")
    log_m2 = _gap_product_logs(_m_squared_factors(params, n, m))
    return math.exp(0.5 * log_m2)


def gap_factor_N(params: ModelParams, n: int, m: int) -> float:
    """Diagonal-chain gap factor N(n, m) >= 0.

    Vanishes identically once m >= 2n + 1 (a chain rung meets its own energy),
    which is the correct physical zero rather than an error.
    """
    if n < 0 or m < 0:
        raise DomainError("gap_factor_N needs n >= 0 and m >= 0")
    nu, beta = params.nu, params.beta
    top = 2.0 * n + nu + 2.0
    factors = []
    for k in range(m + 1):
        factors.append(2.0 * n - k + 1.0)
        factors.append(2.0 * n + 2.0 * nu + k + 3.0)
        factors.append(1.0 + beta**2 / ((k + nu + 1.0) * top) ** 2)
    log_n = _gap_product_logs(factors)
    return 0.0 if log_n == -math.inf else math.exp(log_n)


def phase_alpha(params: ModelParams, n: int) -> float:
    """Mixing angle arctan(beta / ((nu + 1)(nu + n + 2))) of the first-level closed form."""
    if n < 0:
        raise DomainError("phase_alpha needs n >= 0")
    return math.atan(params.beta / ((params.nu + 1.0) * (params.nu + n + 2.0)))
