"""Normalized eigenfunctions of the well hierarchy.

The base family (level m = 0) is evaluated from its closed form: a sine-power
envelope, a real exponential tilt, and a Jacobi polynomial with conjugate
complex parameters evaluated on the imaginary cotangent line.  Each function
carries the constant phase (-i)**n, which makes every member real valued and
gives every ladder relation a positive connection constant.

Normalization constants come from an exact product form: the ground constant
of the index-shifted family times explicit positive factors, one per rung.
State n of level m is base state n of the family with strength index nu + m,
so its ground constant is the base one at (nu + m) + n.  Every ground
constant one ``ModelParams`` can reach, entry (m, j) for m + j <= LEVEL_CAP,
sits in one read-only table, computed in one vectorised ``log_gamma`` call
over its 231 entries on first use and cached (``ground_table``).  A state
reads its entry and forms its rung factors at nu + m directly, so no state
builds a shifted ``ModelParams``, and every entry is bit for bit what the
scalar ``log_ground_constant`` gives at (nu + m) + j.
``CoherentState`` has no level cap and keeps the scalar call.

The Jacobi factor is summed in its two-sided binomial form (DLMF 18.5.8).
At z = i cot theta, (z -+ 1) / 2 = i e^(+-i theta) / (2 sin theta), so

    sin^n P_n^(alpha, conj alpha)(i cot theta) = (i/2)^n sum_k F_k e^(i (2k - n) theta),
    F_k = C(n + alpha, n - k) C(n + conj alpha, k),

a finite Fourier series with products for coefficients, no cancellation; the
phase turns (i/2)^n into 2^-n.  As F_(n - k) = conj F_k, the sum is twice the
real part of its upper half: Horner's rule in e^(2 i theta) on the unit
circle, backward stable, over about n/2 terms.  ``EigenFamily`` evaluates
states of one ``ModelParams`` in one Horner pass over their upper halves,
zero-padded to the longest: a shorter row stays an exact zero up to its own
top coefficient, so each row goes through the same operations alone, in
any family and in any order.  ``gram_matrix`` and
``coherent.identity_gram_projection`` build one family per call, and a
single state's call is the one-row family.
Operator words act on the cotangent form of ``EigenFunction.cot_terms``, the
same sum with e^(+-i theta) = sin theta (cot theta +- i);
``EigenFunction.taylor`` emits its Taylor jets on the open interval, which
only the tests use, as the independent route; it imports ``jets`` on its
first call, so no other use of this module loads that layer.

A level-m state is the level-zero closed form of the family whose strength
index is shifted by m, with the same phase convention; the ladder-chain
construction of the same state lives in the operator layer and is compared
against this closed form by the test suite rather than being collapsed into
it.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegreeCapError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from .specfun import log_gamma
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy, level_number


def _check_degree(n: int):
    if n > LEVEL_CAP:
        raise DegreeCapError(f"combined level degree {n} exceeds cap {LEVEL_CAP}")


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def log_ground_constant(nu, beta: float, length: float):
    """log of the ground-state constant of the family with the given indices.

    2**(nu+1) |Gamma(nu+2 + i beta/(nu+1))| exp(beta pi / (2(nu+1)))
    divided by sqrt(L Gamma(2 nu + 3)).

    nu is a scalar or an array; the result has its shape (a float for a
    scalar).  An array costs one ``log_gamma`` call for all its entries, and
    every entry is bit for bit the scalar call's value: the arithmetic is
    elementwise IEEE and Gamma(2 nu + 3) goes through ``math.lgamma`` per
    entry.
    """
    nu = np.asarray(nu, dtype=float)
    s = nu + 1.0
    out = (
        (nu + 1.0) * math.log(2.0)
        + log_gamma((nu + 2.0) + 1j * (beta / s)).real
        + beta * math.pi / (2.0 * s)
        - 0.5 * math.log(length)
        - 0.5 * _lgamma(2.0 * nu + 3.0)
    )
    return out[()]


@lru_cache(maxsize=256)
def ground_table(params: ModelParams) -> np.ndarray:
    """log_ground_constant((nu + m) + j, beta, L) at row m, column j, read-only.

    Row m is the ground ladder of level m.  The table is filled for
    m + j <= LEVEL_CAP in one vectorised pass per ``ModelParams``, NaN beyond
    the cap: every state of every level reads its ground constant from it.
    Entry (m, j) is bit for bit the scalar call at (nu + m) + j, the strength
    index of level m shifted by j.
    """
    r = np.arange(LEVEL_CAP + 1)
    m, j = np.nonzero(np.add.outer(r, r) <= LEVEL_CAP)
    table = np.full((LEVEL_CAP + 1, LEVEL_CAP + 1), np.nan)
    table[m, j] = log_ground_constant((params.nu + m) + j, params.beta, params.length)
    table.flags.writeable = False
    return table


def _log_K(params: ModelParams, m: int, n: int) -> float:
    # log K of state n of level m: base state n at strength index nu + m;
    # m + n must be checked against the cap first
    nu, beta = params.nu + m, params.beta
    s = n + nu + 1.0
    log_rungs = n * math.log(s) if n else 0.0
    log_rungs += 0.5 * (
        math.lgamma(n + 1.0)
        + math.lgamma(2.0 * n + 2.0 * nu + 2.0)
        - math.lgamma(n + 2.0 * nu + 2.0)
    )
    for j in range(1, n + 1):
        log_rungs -= 0.5 * math.log((nu + j) ** 2 * s * s + beta * beta)
    return ground_table(params)[m, n] + log_rungs


@lru_cache(maxsize=2048, typed=True)  # typed: True must not hit the entry of 1
def normalization_K(params: ModelParams, n: int) -> float:
    """log K, the log of the normalization constant of the n-th base eigenfunction.

    Product route: the ground constant of the family with strength index
    nu + n, entry (0, n) of ``ground_table(params)``, times

        s**n sqrt(n! (n + 2 nu + 2)_n / prod_{j=1..n} ((nu + j)^2 s^2 + beta^2))

    with s = n + nu + 1.  One factor per ladder rung, every factor positive,
    so this stays accurate at any degree.  It is the level m = 0 case of the
    constant every ``EigenFunction`` forms at nu + m.  n must be a whole
    number in [0, LEVEL_CAP]; it is checked before it indexes the table.
    """
    n = level_number(n)
    _check_degree(n)
    return _log_K(params, 0, n)


def _fourier_coefficients(n: int, alpha: complex) -> np.ndarray:
    # F_k = C(n + alpha, n - k) C(n + conj alpha, k), k = 0..n; binomials of
    # conjugate arguments are conjugate, and each is a product of its factors
    w = n + alpha
    binom = [1.0 + 0.0j]
    for j in range(n):
        binom.append(binom[-1] * (w - j) / (j + 1))
    binom = np.array(binom)
    return binom[::-1] * binom.conj()


def _upper_half(g: np.ndarray) -> np.ndarray:
    # H_j = 2 G_(ceil(d/2) + j), j <= d/2, of a row G_(d - k) = conj G_k of degree d; a middle G_(d/2) counts once
    half = 2.0 * g[len(g) // 2 :]
    half[0] *= 0.5 if len(g) % 2 else 1.0
    return half


class EigenFunction:
    """One normalized bound state, real valued; callable on scalars or arrays of x.

    Every level evaluates its own closed form: level m, state n is the
    level-zero state n of the family with strength index nu + m.  Its log K
    is that state's product form at nu + m, with its ground constant read
    from entry (m, n) of the parameter set's ``ground_table``; no shifted
    ``ModelParams`` is built.  The same function built by folding the ladder
    chain over the base family (see the operator layer) agrees with this
    pointwise; the test suite checks that instead of assuming it.
    """

    def __init__(self, params: ModelParams, idx: LevelIndex):
        _check_degree(idx.m + idx.n)
        self.params = params
        self.idx = idx
        n = idx.n
        self._nu_eff = params.nu + idx.m
        self.log_K = _log_K(params, idx.m, n)
        s = n + self._nu_eff + 1.0
        self._gamma = -params.beta * math.pi / (params.length * s)
        # the phase (-i)^n times (i/2)^n leaves 2^-n
        self._fourier = _fourier_coefficients(n, complex(-s, params.beta / s)) * 0.5**n
        self._half = _upper_half(self._fourier)

    @property
    def energy(self) -> float:
        return energy(self.params, self.idx)

    def __call__(self, x):
        row = self._family(x)[0]
        return float(row) if row.ndim == 0 else row

    @cached_property
    def _family(self) -> "EigenFamily":
        return EigenFamily((self,))

    @cached_property
    def cot_terms(self) -> tuple:
        """The state as one term (log C, gamma, a, Q) of the cotangent form
        C e^(gamma x) sin^a Q(cot) that operator words act on, a = nu + m + n + 1:
        e^(+-i theta) = sin (cot +- i) turns the Fourier sum into
        Q(c) = sum_k 2^-n F_k (c + i)^k (c - i)^(n - k), real by the phase
        convention: the convolutions' imaginary part is roundoff and dropped."""
        n = self.idx.n
        down = [np.ones(1, dtype=complex)]
        for _ in range(n):
            down.append(np.convolve(down[-1], [-1j, 1.0]))
        q = self._fourier[n:]
        for k in range(n - 1, -1, -1):
            q = np.convolve(q, [1j, 1.0]) + self._fourier[k] * down[n - k]
        return ((self.log_K, self._gamma, self._nu_eff + n + 1.0, q.real),)

    def taylor(self, x, order: int) -> jets.Jet:
        """Taylor jet at interior point(s) x; batch axes follow the shape of x.

        Coefficient k is the k-th derivative over k!.  The jet exists only on
        the open interval (0, L); anywhere else raises ``DomainError``.
        """
        from . import jets  # the one use of jets in the package, so no report loads it

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

    Calling it at x returns floats of shape (len(states),) + shape(x), row i the
    values of ``states[i]``.  Row i holds the upper half H of the Fourier row
    2^-n F_k of ``states[i]``, zero-padded to the longest, and its log K, gamma
    and nu + m + 1.  A call sums Re[w^(n mod 2) sum_j H_j z^j], w = e^(i theta),
    z = w^2, in one Horner pass in z over all rows, then takes the envelope of
    every row in one expression.  As z is finite, a row's padding stays an
    exact zero up to its own top coefficient, where +-0 z + H_top = H_top; from
    there the row sees the operations it would see alone, in any family, in
    any order and at any number of points (a lone point is taken twice).
    """

    def __init__(self, states):
        states = tuple(states)
        if not states:
            raise DomainError("an eigenfunction family needs at least one state")
        self.params = states[0].params
        if any(f.params != self.params for f in states):
            raise DomainError("an eigenfunction family shares one ModelParams")
        self._table = np.zeros((len(states), max(len(f._half) for f in states)), dtype=complex)
        for row, f in zip(self._table, states):
            row[: len(f._half)] = f._half
        self._odd = np.flatnonzero([f.idx.n % 2 for f in states])
        env = np.array([[[f.log_K], [f._gamma], [f._nu_eff + 1.0]] for f in states])
        self._log_K, self._gamma, self._power = env.transpose(1, 0, 2)  # each (rows, 1)

    def __call__(self, x) -> np.ndarray:
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not ((arr >= 0.0) & (arr <= p.length)).all():
            raise DomainError("x outside the box [0, L]")
        # a lone point taken twice: numpy rounds one-element complex loops otherwise
        flat = np.resize(arr, max(arr.size, 2))
        theta = math.pi * flat / p.length
        w = np.exp(1j * theta)
        z = w * w
        acc = np.repeat(self._table[:, -1:], flat.size, axis=1)
        for j in range(self._table.shape[1] - 2, -1, -1):
            acc *= z
            acc += self._table[:, j, None]
        if self._odd.size:
            acc[self._odd] *= w
        out = np.zeros(acc.shape)
        # mask on x, not on sin: sin(pi * L / L) is a subnormal, not an exact 0
        interior = (flat > 0.0) & (flat < p.length)
        cols = slice(None) if interior.all() else interior  # a mask costs more on rows
        expo = self._log_K + self._gamma * flat[cols] + self._power * np.log(np.sin(theta[cols]))
        out[:, cols] = np.exp(expo) * acc.real[:, cols]
        return out[:, : arr.size].reshape((len(out),) + arr.shape)


@lru_cache(maxsize=1024, typed=True)  # typed: True must not hit the entry of 1
def eigenfunction(params: ModelParams, m: int, n: int) -> EigenFunction:
    """Cached EigenFunction factory."""
    return EigenFunction(params, LevelIndex(m=m, n=n))


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
    bit for bit what its state gives alone at the same nodes, and the
    integrand is real; other callables are called one by one.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, endpoint_substitution=True)
    k = len(functions)
    if not k:
        return np.zeros((0, 0), dtype=complex)
    rows, cols = np.triu_indices(k)
    if all(isinstance(f, EigenFunction) and f.params == functions[0].params for f in functions):
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
