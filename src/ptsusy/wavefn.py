"""Normalized eigenfunctions of the well hierarchy.

The base family (level m = 0) is evaluated from its closed form: a sine-power
envelope, a real exponential tilt, and a Jacobi polynomial with conjugate
complex parameters evaluated on the imaginary cotangent line.  Each function
carries the constant phase (-i)**n, which makes every member real valued and
gives every ladder relation a positive connection constant.

Normalization constants come from an exact product form: the ground constant
of the index-shifted family times explicit positive factors, one per rung.
The Jacobi factor times its sine power is a compensated sum in a fixed order
per state.  ``EigenFamily`` evaluates states of one ``ModelParams`` together:
one table of powers and one compensated sum for all rows, each row bit for
bit what the state gives alone.  ``gram_matrix`` and
``coherent.identity_gram_projection`` build one family per call, and a single
state's call is the one-row family.
Operator words act on the cotangent form that ``EigenFunction.cot_terms``
gives; ``EigenFunction.taylor`` still emits Taylor jets on the open interval,
which only the tests use, as the independent route.

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


def _kahan_order(coeffs) -> tuple:
    # fixed order of sum_k c_k v^k w^(deg-k): descending |c_k| 2^-k
    order = sorted(range(len(coeffs)), key=lambda k: abs(coeffs[k]) * 0.5**k, reverse=True)
    return tuple(order), tuple(coeffs[k] for k in order)


class _EnvelopeSums:
    """Rows sum_k c_k v^k w^(deg-k) == sin^deg * P_deg(i cot), bounded on [0, L].

    Built from rows (order, ordered coefficients) by falling degree.  A call
    builds the v^k and w^k tables once and runs one Kahan loop: step j adds
    term order[j] of the leading rows whose degree reaches j and sets the
    others aside, so each row goes through the operations of its own sum.
    """

    def __init__(self, rows):
        self.rows = len(rows)
        self.top = len(rows[0][0]) - 1
        self.steps = []
        for j in range(self.top + 1):
            live = [(order[j], len(order) - 1 - order[j], coeffs[j]) for order, coeffs in rows if len(order) > j]
            if len(live) == 1:
                # scalar times 1-d row, as a one-state sum multiplies: numpy
                # can round a complex (1, 1) * (1,) product differently
                ((power, other, coef),) = live
                self.steps.append((1, coef, power, other))
            else:
                power, other, coef = (np.array(c) for c in zip(*live))
                self.steps.append((len(live), coef.astype(complex)[:, None], power, other))

    def __call__(self, v, w):
        """Rows at the 1-d complex points v = -i e^(i theta) / 2, w = sin theta."""
        vp = [np.ones(v.size, dtype=complex)]
        wp = [vp[0]]
        for _ in range(self.top):
            vp.append(vp[-1] * v)
            wp.append(wp[-1] * w)
        if self.rows > 1:
            vp, wp = np.array(vp), np.array(wp)
        live = self.rows
        # a one-row plan sums on 1-d rows, as a one-state sum does
        total = np.zeros((live, v.size) if live > 1 else v.size, dtype=complex)
        comp = np.zeros(total.shape, dtype=complex)
        done = []
        for k, coef, vk, wk in self.steps:
            if k < live:
                done.append(total[k:])
                total, comp, live = total[:k], comp[:k], k
            term = coef * vp[vk] * wp[wk] - comp
            t = total + term
            comp = (t - total) - term
            total = t
        return np.concatenate([total, *done[::-1]]) if done else total.reshape(self.rows, v.size)


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
        row = self._family(x)[0]
        return complex(row) if row.ndim == 0 else row

    @cached_property
    def _kahan(self) -> tuple:
        return _kahan_order(self._coeffs)

    @cached_property
    def _family(self) -> "EigenFamily":
        return EigenFamily((self,))

    @cached_property
    def cot_terms(self) -> tuple:
        """The state as one term (log C, gamma, a, Q) of the cotangent form
        C e^(gamma x) sin^a Q(cot) that operator words act on: v / sin =
        (1 - i cot) / 2 turns the Jacobi series into Q, and a = nu + m + n + 1."""
        q = np.array([self._coeffs[-1]], dtype=complex)
        for ck in self._coeffs[-2::-1]:
            q = np.convolve(q, [0.5, -0.5j])
            q[0] += ck
        return ((self.norm_data.log_K, self._gamma, self._nu_eff + self._deg + 1.0, self.phase * q),)

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


class EigenFamily:
    """Eigenfunctions of one ``ModelParams``, any levels, evaluated together.

    Calling it at x returns shape (len(states),) + shape(x), and row i equals
    ``states[i](x)`` bit for bit.  The plan holds the rows by falling degree,
    each with its state's Kahan order, log K, gamma, nu + m + 1 and phase.  A
    call runs one ``_EnvelopeSums`` pass, takes the envelope of every row in
    one expression and scatters the rows back to the order given.
    """

    def __init__(self, states):
        states = tuple(states)
        self.params = states[0].params
        if any(f.params != self.params for f in states):
            raise DomainError("an eigenfunction family shares one ModelParams")
        by_degree = sorted(range(len(states)), key=lambda i: -states[i]._deg)
        rows = [states[i] for i in by_degree]
        self._sums = _EnvelopeSums([f._kahan for f in rows])
        env = np.array([[[f.norm_data.log_K], [f._gamma], [f._nu_eff + 1.0]] for f in rows])
        self._log_K, self._gamma, self._power = env.transpose(1, 0, 2)  # each (rows, 1)
        self._phase = np.array([[f.phase] for f in rows])
        self._inverse = None if by_degree == list(range(len(states))) else np.argsort(by_degree)

    def __call__(self, x) -> np.ndarray:
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not ((arr >= 0.0) & (arr <= p.length)).all():
            raise DomainError("x outside the box [0, L]")
        flat = arr.ravel()
        theta = math.pi * flat / p.length
        w = np.sin(theta)
        v = -0.5j * np.exp(1j * theta)
        poly = self._sums(v, w.astype(complex))
        out = np.zeros(poly.shape, dtype=complex)
        # mask on x, not on sin: sin(pi * L / L) is a subnormal, not an exact 0
        interior = (flat > 0.0) & (flat < p.length)
        cols = slice(None) if interior.all() else interior  # a mask costs more on rows
        expo = self._log_K + self._gamma * flat[cols] + self._power * np.log(w[cols])
        out[:, cols] = self._phase * np.exp(expo) * poly[:, cols]
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
    from .spectrum import phase_alpha

    nu, beta, L, hbar, mass = params.nu, params.beta, params.length, params.hbar, params.mass
    s1 = n + nu + 2.0
    a1 = complex(-s1, beta / s1)
    norm = normalization_K(params, n + 1)
    gap = energy(params, LevelIndex(0, n + 1)) - energy(params, LevelIndex(0, 0))
    amp = math.sqrt(2.0 * mass * (n + 1.0) ** 2 * (gap / (n + 1.0)) / (n + 2.0 * nu + 3.0))
    alpha_mix = phase_alpha(params, n)
    c_top = jacobi_series_coefficients(n + 1, a1, a1.conjugate())
    c_shift = jacobi_series_coefficients(n, a1 + 1.0, a1.conjugate() + 1.0)

    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= L)):
        raise DomainError("x outside the box [0, L]")
    flat = arr.ravel()
    theta = math.pi * flat / L
    w = np.sin(theta).astype(complex)
    v = -0.5j * np.exp(1j * theta)
    out = np.zeros(flat.shape, dtype=complex)
    interior = (flat > 0.0) & (flat < L)
    top, shift = _EnvelopeSums([_kahan_order(c_top), _kahan_order(c_shift)])(v, w)
    bracket = amp * np.cos(theta - alpha_mix) * top + (0.5j * math.pi * hbar * (n + 2.0 * nu + 2.0) / L) * shift
    envelope = np.exp(norm.log_K - beta * math.pi * flat[interior] / (L * s1) + nu * np.log(w[interior].real))
    out[interior] = _ladder_phase(n + 1) * envelope * bracket[interior] / math.sqrt(2.0 * mass * gap)
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
    ``EigenFamily`` built per call evaluates them all at each node, with the
    values each gives alone; other callables are called one by one.
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
