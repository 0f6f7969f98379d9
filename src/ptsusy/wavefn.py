"""Normalized eigenfunctions of the well hierarchy.

The base family (level m = 0) is evaluated from its closed form: a sine-power
envelope, a real exponential tilt, and a Jacobi polynomial with conjugate
complex parameters evaluated on the imaginary cotangent line.  Each function
carries the constant phase (-i)**n, which makes every member real valued and
gives every ladder relation a positive connection constant.

Normalization constants come from an exact product form: the ground constant
of the index-shifted family times explicit positive factors, one per rung.

The Jacobi factor is summed in its two-sided binomial form (DLMF 18.5.8).
At z = i cot theta, (z -+ 1) / 2 = i e^(+-i theta) / (2 sin theta), so

    sin^n P_n^(alpha, conj alpha)(i cot theta) = (i/2)^n sum_k F_k e^(i (2k - n) theta),
    F_k = C(n + alpha, n - k) C(n + conj alpha, k),

a finite Fourier series with products for coefficients, no cancellation;
the phase turns (i/2)^n into 2^-n.  Horner's rule in e^(2 i theta) on the
unit circle is backward stable.  ``EigenFamily`` evaluates states of one
``ModelParams`` in one Horner pass; ``gram_matrix`` and
``coherent.identity_gram_projection`` build one family per call, and a single
state's call is the one-row family.  Operator words act on the cotangent form
of ``EigenFunction.cot_terms``, the same sum with e^(+-i theta) =
sin theta (cot theta +- i); ``EigenFunction.taylor`` emits its Taylor jets on
the open interval, which only the tests use, as the independent route.

A level-m state is the level-zero closed form of the family whose strength
index is shifted by m, with the same phase convention; the ladder-chain
construction of the same state lives in the operator layer and is compared
against this closed form by the test suite rather than being collapsed into
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import jets
from .errors import DegreeCapError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from .specfun import log_gamma
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy, phase_alpha


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


def _fourier_coefficients(n: int, alpha: complex) -> np.ndarray:
    # F_k = C(n + alpha, n - k) C(n + conj alpha, k), k = 0..n; binomials of
    # conjugate arguments are conjugate, and each is a product of its factors
    w = n + alpha
    binom = [1.0 + 0.0j]
    for j in range(n):
        binom.append(binom[-1] * (w - j) / (j + 1))
    binom = np.array(binom)
    return binom[::-1] * binom.conj()


def _leading_loop(degree: np.ndarray) -> tuple:
    # Horner's loop over rows of falling degree: (power j, count of leading
    # rows whose degree exceeds j) from the top degree down, so that a row
    # joins at its own degree and sees the operations it would see alone
    powers = np.arange(degree[0] - 1, -1, -1)
    return tuple(zip(powers.tolist(), np.searchsorted(-degree, -powers).tolist()))


class _FourierRows:
    """Rows sum_k G_k e^(i (2k - d) theta) of coefficient rows G given by
    falling degree d: one Horner pass in z = e^(2 i theta) at the 1-d angles
    theta, which a row joins at its own degree, then e^(-i d theta)."""

    def __init__(self, rows):
        degree = np.array([len(g) - 1 for g in rows])
        self.coeffs = np.zeros((len(rows), degree[0] + 1), dtype=complex)
        for out, g in zip(self.coeffs, rows):
            out[: len(g)] = g
        self.top = self.coeffs[np.arange(len(rows)), degree]
        self.loop = _leading_loop(degree)
        self.turn = -1j * degree[:, None]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        z = np.exp(2j * theta)
        acc = np.repeat(self.top[:, None], theta.size, axis=1)
        for j, k in self.loop:
            acc[:k] = acc[:k] * z + self.coeffs[:k, j, None]
        return acc * np.exp(self.turn * theta)


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
        self._nu_eff = params.nu + idx.m
        self.norm_data = normalization_K(replace(params, nu=self._nu_eff), n, cap)
        s = n + self._nu_eff + 1.0
        self._gamma = -params.beta * math.pi / (params.length * s)
        # the phase (-i)^n times (i/2)^n leaves 2^-n
        self._fourier = _fourier_coefficients(n, complex(-s, params.beta / s)) * 0.5**n

    @property
    def energy(self) -> float:
        return energy(self.params, self.idx)

    def __call__(self, x):
        row = self._family(x)[0]
        return complex(row) if row.ndim == 0 else row

    @cached_property
    def _family(self) -> "EigenFamily":
        return EigenFamily((self,))

    @cached_property
    def cot_terms(self) -> tuple:
        """The state as one term (log C, gamma, a, Q) of the cotangent form
        C e^(gamma x) sin^a Q(cot) that operator words act on, a = nu + m + n + 1:
        e^(+-i theta) = sin (cot +- i) turns the Fourier sum into
        Q(c) = sum_k 2^-n F_k (c + i)^k (c - i)^(n - k)."""
        n = self.idx.n
        down = [np.ones(1, dtype=complex)]
        for _ in range(n):
            down.append(np.convolve(down[-1], [-1j, 1.0]))
        q = self._fourier[n:]
        for k in range(n - 1, -1, -1):
            q = np.convolve(q, [1j, 1.0]) + self._fourier[k] * down[n - k]
        return ((self.norm_data.log_K, self._gamma, self._nu_eff + n + 1.0, q),)

    def taylor(self, x, order: int) -> jets.Jet:
        """Taylor jet at interior point(s) x; batch axes follow the shape of x.

        Coefficient k is the k-th derivative over k!.  The jet exists only on
        the open interval (0, L); anywhere else raises ``DomainError``.
        """
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not np.all((arr > 0.0) & (arr < p.length)):
            raise DomainError("Taylor jets defined on the open interval (0, L)")
        ((log_c, gamma, power, q),) = self.cot_terms
        X = jets.Jet.variable(arr, order)
        s, c = jets.sin_cos(X * (math.pi / p.length))
        env = jets.exp(X * gamma + jets.log(s) * power)
        return env * jets.polyval(q, c / s) * math.exp(log_c)


class EigenFamily:
    """Eigenfunctions of one ``ModelParams``, any levels, evaluated together.

    Calling it at x returns shape (len(states),) + shape(x), row i the values
    of ``states[i]``.  The rows are held by falling degree n, each with its
    2^-n F_k, log K, gamma and nu + m + 1.  A call runs one ``_FourierRows``
    pass, so a row goes through the same operations in any family, takes
    the envelope of every row in one expression and puts the rows back in
    the order given.
    """

    def __init__(self, states):
        states = tuple(states)
        self.params = states[0].params
        if any(f.params != self.params for f in states):
            raise DomainError("an eigenfunction family shares one ModelParams")
        by_degree = sorted(range(len(states)), key=lambda i: -states[i].idx.n)
        rows = [states[i] for i in by_degree]
        self._sums = _FourierRows([f._fourier for f in rows])
        env = np.array([[[f.norm_data.log_K], [f._gamma], [f._nu_eff + 1.0]] for f in rows])
        self._log_K, self._gamma, self._power = env.transpose(1, 0, 2)  # each (rows, 1)
        self._inverse = None if by_degree == list(range(len(states))) else np.argsort(by_degree)

    def __call__(self, x) -> np.ndarray:
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not ((arr >= 0.0) & (arr <= p.length)).all():
            raise DomainError("x outside the box [0, L]")
        flat = arr.ravel()
        theta = math.pi * flat / p.length
        poly = self._sums(theta)
        out = np.zeros(poly.shape, dtype=complex)
        # mask on x, not on sin: sin(pi * L / L) is a subnormal, not an exact 0
        interior = (flat > 0.0) & (flat < p.length)
        cols = slice(None) if interior.all() else interior  # a mask costs more on rows
        expo = self._log_K + self._gamma * flat[cols] + self._power * np.log(np.sin(theta[cols]))
        out[:, cols] = np.exp(expo) * poly[:, cols]
        if self._inverse is not None:
            out = out[self._inverse]
        return out.reshape((len(out),) + arr.shape)


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
    nu, beta, L, hbar, mass = params.nu, params.beta, params.length, params.hbar, params.mass
    s1 = n + nu + 2.0
    a1 = complex(-s1, beta / s1)
    norm = normalization_K(params, n + 1)
    gap = energy(params, LevelIndex(0, n + 1)) - energy(params, LevelIndex(0, 0))
    amp = math.sqrt(2.0 * mass * (n + 1.0) ** 2 * (gap / (n + 1.0)) / (n + 2.0 * nu + 3.0))
    alpha_mix = phase_alpha(params, n)

    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= L)):
        raise DomainError("x outside the box [0, L]")
    flat = arr.ravel()
    theta = math.pi * flat / L
    out = np.zeros(flat.shape, dtype=complex)
    interior = (flat > 0.0) & (flat < L)
    # sin^(n+1) P_(n+1)^(a1, conj a1) and sin^n P_n^(a1+1, conj a1+1) under the phase
    # (-i)^(n+1): 2^-(n+1), and -i 2^-n, which cancels the i of the companion term
    top, shift = _FourierRows(
        [_fourier_coefficients(n + 1, a1) * 0.5 ** (n + 1), _fourier_coefficients(n, a1 + 1.0) * 0.5**n]
    )(theta)
    bracket = amp * np.cos(theta - alpha_mix) * top + (0.5 * math.pi * hbar * (n + 2.0 * nu + 2.0) / L) * shift
    envelope = np.exp(norm.log_K - beta * math.pi * flat[interior] / (L * s1) + nu * np.log(np.sin(theta[interior])))
    out[interior] = envelope * bracket[interior] / math.sqrt(2.0 * mass * gap)
    return complex(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def gram_matrix(
    functions,
    length: float,
    config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Hermitian Gram matrix of callables over [0, length] by adaptive quadrature.

    The upper triangle is one vector-valued integral: every function is
    evaluated once per node, and every entry meets its own tolerance.  When
    every function is an ``EigenFunction`` of one ``ModelParams``, one
    ``EigenFamily`` built per call evaluates them all at each node, each row
    bit for bit what its state gives alone at the same nodes; other
    callables are called one by one.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, endpoint_substitution=True)
    k = len(functions)
    rows, cols = np.triu_indices(k)
    if k and all(isinstance(f, EigenFunction) and f.params == functions[0].params for f in functions):
        values = EigenFamily(functions)
    else:
        values = lambda t: np.array([f(t) for f in functions])

    def integrand(t):
        phi = values(t)
        return np.conj(phi[rows]) * phi[cols]

    value = integrate_interval(integrand, 0.0, length, config).value
    gram = np.zeros((k, k), dtype=complex)
    gram[rows, cols] = value
    gram[cols, rows] = np.conj(value)
    return gram
