"""Model parameters, level indexing, energy levels, and spectral gap factors."""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DomainError

#: Default cap on combined excitation + hierarchy depth for eigenfunction work.
LEVEL_CAP = 20


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the trigonometric well on [0, L].

    nu >= 0 controls the centrifugal strength, beta >= 0 the asymmetry tilt.
    Defaults pick the dimensionless gauge hbar = 1, L = 1, 2*mass = 1, in which
    the energy unit epsilon0 equals pi**2.  A gauge whose epsilon0 is not a
    positive normal float, or whose energies up to ``LEVEL_CAP`` overflow,
    raises ``DomainError``.
    """

    nu: float
    beta: float
    hbar: float = 1.0
    length: float = 1.0
    mass: float = 0.5

    def __post_init__(self):
        for name in ("nu", "beta", "hbar", "length", "mass"):
            value = getattr(self, name)
            # as level_number: no bool, string or complex passes as a number
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not (self.nu >= 0.0):
            raise DomainError("nu must be >= 0")
        if not (self.beta >= 0.0):
            raise DomainError("beta must be >= 0")
        if not (self.hbar > 0.0 and self.length > 0.0 and self.mass > 0.0):
            raise DomainError("hbar, length, mass must be positive")
        self._check_scale()
        # the hash of the fields, computed once: every memo of the package
        # keys on the params.  It is not a field, so ==, repr, asdict and
        # replace see the five fields alone
        object.__setattr__(self, "_hash", hash((self.nu, self.beta, self.hbar, self.length, self.mass)))

    def __hash__(self) -> int:
        return self._hash

    def _check_scale(self):
        # epsilon0 must be a positive normal float and every energy up to
        # LEVEL_CAP finite.  Python's ** raises where * gives inf, so epsilon0
        # out of range may also come as OverflowError or ZeroDivisionError.
        try:
            e0 = self.epsilon0
        except (OverflowError, ZeroDivisionError):
            e0 = 0.0
        if not (sys.float_info.min <= e0 < math.inf):
            raise DomainError(
                "hbar, length and mass must give a positive normal float epsilon0 = hbar^2 pi^2 / (2 mass length^2), "
                f"got hbar {self.hbar!r}, length {self.length!r}, mass {self.mass!r}"
            )
        # energy() is epsilon0 (s^2 - beta^2 / s^2) with s from nu + 1 up to
        # LEVEL_CAP + nu + 1: at most epsilon0 s^2 at the top level or
        # epsilon0 beta^2 / s^2 at the bottom one in size
        top, low = LEVEL_CAP + self.nu + 1.0, self.nu + 1.0
        if not math.isfinite(e0 * (top * top)):
            raise DomainError(f"nu must keep the energies up to level {LEVEL_CAP} finite, got {self.nu!r}")
        if not math.isfinite(e0 * (self.beta * self.beta / (low * low))):
            raise DomainError(f"beta must keep the energies up to level {LEVEL_CAP} finite, got {self.beta!r}")

    @property
    def epsilon0(self) -> float:
        """Base energy unit hbar^2 pi^2 / (2 m L^2)."""
        return self.hbar**2 * math.pi**2 / (2.0 * self.mass * self.length**2)


def level_number(value) -> int:
    """A level or excitation index as an ``int``, or ``DomainError``.

    Accepts any integer type and any real whole number (2.0, ``np.int64(2)``);
    a fraction, a non-finite value, a ``bool`` or a non-number is rejected, so
    an index never reaches ``range`` or an array subscript as anything but an
    int.
    """
    if type(value) is int and value >= 0:  # the common case; a bool is not an int here
        return value
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        raise DomainError(f"level indices must be integers, got {value!r}")
    value = int(value)
    if value < 0:
        raise DomainError("level indices must be nonnegative")
    return value


@dataclass(frozen=True)
class LevelIndex:
    """Hierarchy level m >= 0 and excitation number n >= 0 within that level.

    Whole-number values such as 2.0 are stored as ``int``, the way
    ``ModelParams`` stores its fields as ``float``.
    """

    m: int
    n: int

    def __post_init__(self):
        for name in ("m", "n"):
            object.__setattr__(self, name, level_number(getattr(self, name)))


def energy(params: ModelParams, idx: LevelIndex) -> float:
    """Energy of the n-th state at hierarchy level m.

    The whole hierarchy shares one closed form through the shifted principal
    quantum number n + m + nu + 1, which makes the shift law
    E_n^(m+1) = E_{n+1}^(m) an exact identity of this function.
    """
    return diagonal_energy(params, idx.n + idx.m)


def diagonal_energy(params: ModelParams, k: int) -> float:
    """The energy of every state with n + m = k, an int the caller has
    checked: ``energy`` without building a ``LevelIndex``, bit for bit."""
    s = k + params.nu + 1.0
    return params.epsilon0 * (s * s - params.beta**2 / (s * s))


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


def _gap_exp(log_value: float) -> float:
    # a gap factor from its log, 0 for -inf; past double range a DomainError
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"gap factor e^{log_value:.6g} exceeds double range") from None


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
    exponentiated, so deep chains cannot overflow intermediate products.  A
    factor past double range raises ``DomainError``.
    """
    n, m = level_number(n), level_number(m)
    return _gap_exp(0.5 * _gap_product_logs(_m_squared_factors(params, n, m)))


def gap_factor_N(params: ModelParams, n: int, m: int) -> float:
    """Diagonal-chain gap factor N(n, m) >= 0.

    N(n, m) is the product M^2(2n - m, m): the same rungs, read from the
    top level 2n + 1.  It vanishes identically once m >= 2n + 1 (a chain rung
    meets its own energy), which is the correct physical zero rather than an
    error.  A factor past double range raises ``DomainError``.
    """
    n, m = level_number(n), level_number(m)
    return _gap_exp(_gap_product_logs(_m_squared_factors(params, 2 * n - m, m)))

