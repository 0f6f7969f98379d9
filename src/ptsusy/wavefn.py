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
over its 231 entries (``ground_table``), bit for bit what the scalar
``log_ground_constant`` gives at (nu + m) + j.  ``CoherentState`` has no
level cap and keeps the scalar call.

A state's values come from its cotangent form, ``EigenFunction.cot_terms``:
with e^(+-i theta) = sin theta (cot theta +- i), the Jacobi factor on the
imaginary cotangent line is sin^n times a real polynomial Q in cot theta,
which Jacobi's three-term recurrence builds with no cancelling step.  Q
depends on the state through S = n + nu + m + 1 and n alone (the shift law
E_n^(m+1) = E_(n+1)^(m)), so the states of one S are successive steps of
one recurrence.  ``state_table`` holds every state under the cap of one
``ModelParams``, its log K and its Q, read-only: built once, when the set's
first state is asked for and never at import, with the recurrence run for
every distinct S at once and the rung factors of every log K in one masked
pass.  Each entry is bit for bit the state's own scalar route
(``tests/oracles.py``), and no state builds a shifted ``ModelParams``.
A call is ``operators.operand_values``, the empty word of
the operator layer: a bare state reads its row of the memoized fold of its
level's stack, with exact zeros on the walls.  ``gram_matrix`` and
``coherent.identity_gram_projection`` stack their operands, eigenfunctions
or not, as one operand of that layer, value its empty word once per
integrand call outside the fold memo, as the stack is built per call, and
share one triangle integral (``_gram``).  Each row is bit for bit the
operand's own call at the same interior nodes.  The operator layer imports
``EigenFunction`` and ``eigenfunction`` from this module, so this module
imports it at its foot, after both are defined.
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
from typing import NamedTuple

import numpy as np

from .errors import DegreeCapError, DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval
from .specfun import log_gamma
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy, level_number


def _check_degree(n: int):
    if n > LEVEL_CAP:
        raise DegreeCapError(f"combined level degree {n} exceeds cap {LEVEL_CAP}")


def _per_entry(fn, x) -> np.ndarray:
    # fn (math.log, math.lgamma) on every entry of x, an array of x's shape:
    # each value bit for bit the scalar call's, where numpy's own log may
    # round apart
    x = np.asarray(x, dtype=float)
    return np.array(list(map(fn, x.ravel().tolist()))).reshape(x.shape)


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
        - 0.5 * _per_entry(math.lgamma, 2.0 * nu + 3.0)
    )
    return out[()]


@lru_cache(maxsize=256)
def ground_table(params: ModelParams) -> np.ndarray:
    """log_ground_constant((nu + m) + j, beta, L) at row m, column j, read-only.

    Row m is the ground ladder of level m.  The table is filled for
    m + j <= LEVEL_CAP in one vectorised pass per ``ModelParams``, NaN beyond
    the cap, when the set's ``state_table`` is built: every log K there is
    its entry (m, n) plus the rung factors.  Entry (m, j) is bit for bit the
    scalar call at (nu + m) + j, the strength index of level m shifted by j.
    """
    r = np.arange(LEVEL_CAP + 1)
    m, j = np.nonzero(np.add.outer(r, r) <= LEVEL_CAP)
    table = np.full((LEVEL_CAP + 1, LEVEL_CAP + 1), np.nan)
    table[m, j] = log_ground_constant((params.nu + m) + j, params.beta, params.length)
    table.flags.writeable = False
    return table


class StateTable(NamedTuple):
    """Every state of one ``ModelParams`` under ``LEVEL_CAP``, read-only.

    ``log_K[m, n]`` is log K of state n of level m, NaN past the cap.  The
    Q of every state (its cotangent polynomial, lowest power first) sits in
    ``q``, one state after the other, state (m, n) at ``start[m, n]`` with
    its n + 1 coefficients; ``cot_q`` hands out that slice as a view.
    """

    log_K: np.ndarray
    q: np.ndarray
    start: np.ndarray

    def cot_q(self, m: int, n: int) -> np.ndarray:
        i = self.start[m, n]
        return self.q[i : i + n + 1]


def _rungs(params: ModelParams, m: np.ndarray, n: np.ndarray, s: np.ndarray) -> np.ndarray:
    # log of the rung factors of log K of states (m, n) at S = s:
    # n log S + (lgamma(n + 1) + lgamma(2n + 2nu' + 2) - lgamma(n + 2nu' + 2)) / 2
    # - sum_{j=1..n} log((nu' + j)^2 S^2 + beta^2) / 2 with nu' = nu + m,
    # the terms of j taken in rising j, every log per entry
    nu, beta = params.nu + m, params.beta
    out = n * _per_entry(math.log, s)
    out += 0.5 * (
        _per_entry(math.lgamma, n + 1.0)
        + _per_entry(math.lgamma, 2.0 * n + 2.0 * nu + 2.0)
        - _per_entry(math.lgamma, n + 2.0 * nu + 2.0)
    )
    state, j = np.nonzero(n[:, None] > np.arange(LEVEL_CAP))
    factors = np.float_power(nu[state] + (j + 1), 2.0) * s[state] * s[state] + beta * beta
    logs = np.zeros((len(n), LEVEL_CAP))
    # a state past its last rung reads 0.0 there, and x - 0.5 * 0.0 is x
    logs[state, j] = _per_entry(math.log, factors)
    for column in logs.T:
        out -= 0.5 * column
    return out


def _cot_polynomials(beta: float, n: np.ndarray, s: np.ndarray, first: np.ndarray) -> np.ndarray:
    # the Q of every state, state i from first[i] on: Jacobi's recurrence
    # (DLMF 18.9.1) on cot, run once per distinct S for all the states of that
    # S, each S advanced only up to its deepest n, so no denominator vanishes.
    # Squares go through float_power, pow as Python's ** calls it
    deepest = {}
    for value, k in zip(s.tolist(), n.tolist()):
        deepest[value] = max(deepest.get(value, 0), k)
    # deepest first, so the rows still live at a step are a prefix
    values = sorted(deepest, key=deepest.get, reverse=True)
    S, depth = np.array(values), np.array([deepest[v] for v in values])
    rank = {v: i for i, v in enumerate(values)}
    row = np.array([rank[v] for v in s.tolist()])
    live = np.count_nonzero(depth[:, None] > np.arange(LEVEL_CAP + 1), axis=0).tolist()
    # the factors of every step taken, row r from Q_j to Q_(j+1) at j < depth[r]
    r, j = np.nonzero(np.arange(1, LEVEL_CAP + 1) < depth[:, None])
    j += 1
    s_j = S[r]
    two = 2.0 * (j - s_j)
    den = (j + 1) * (j - 2.0 * s_j + 1.0)
    factors = np.zeros((3, len(S), LEVEL_CAP + 1, 1))
    factors[0, r, j, 0] = (two + 1.0) * (two + 2.0) / (2.0 * den)
    factors[1, r, j, 0] = -4.0 * beta * (two + 1.0) / (2.0 * den * two)
    factors[2, r, j, 0] = (np.float_power(j - s_j, 2.0) + np.float_power(beta / s_j, 2.0)) * (two + 2.0) / (den * two)
    # Q_k of row r in columns 1 .. k + 1 of q[k, r], column 0 and the rest
    # 0.0, so the slices from 0, 1 and 1 are the zero-padded c Q_k, Q_k and
    # Q_(k-1) of one step
    q = np.zeros((LEVEL_CAP + 1, len(S), LEVEL_CAP + 2))
    q[0, :, 1] = 1.0
    q[1, :, 1], q[1, :, 2] = beta / S, 1.0 - S
    for k in range(1, LEVEL_CAP):
        if not live[k]:
            break
        a, b, c = factors[:, : live[k], k]
        q[k + 1, : live[k], 1 : k + 3] = (
            a * q[k, : live[k], : k + 2] + b * q[k, : live[k], 1 : k + 3] + c * q[k - 1, : live[k], 1 : k + 3]
        )
    state = np.repeat(np.arange(len(n)), n + 1)
    return q[n[state], row[state], 1 + np.arange(len(state)) - first[state]]


@lru_cache(maxsize=256)
def state_table(params: ModelParams) -> StateTable:
    """Every state of ``params`` with m + n <= LEVEL_CAP: log K and Q, read-only.

    Built once per ``ModelParams``, when its first state is asked for.  State
    n of level m is base state n at strength index nu + m, so S = n + nu +
    m + 1 sets its Q and the states of one S are successive members of one
    three-term recurrence: Q is run once per distinct S across all S at
    once, each advanced only to the deepest n that S has.  log K is the
    ground constant of ``ground_table`` plus the rung factors of every state
    in one masked pass, each state's terms taken in the order of the scalar
    product form.  Every entry is bit for bit the per-state route: squares
    by ``np.float_power`` (pow, as Python's ** calls it), logs and log-gammas
    per entry.  The build runs with numpy's warnings off: a state whose
    factors overflow holds inf or NaN, and only a call that reads it warns.
    """
    r = np.arange(LEVEL_CAP + 1)
    m, n = np.nonzero(np.add.outer(r, r) <= LEVEL_CAP)
    s = n + (params.nu + m) + 1.0
    log_K = np.full((LEVEL_CAP + 1, LEVEL_CAP + 1), np.nan)
    first = np.concatenate([[0], np.cumsum(n + 1)[:-1]])
    start = np.zeros((LEVEL_CAP + 1, LEVEL_CAP + 1), dtype=int)
    start[m, n] = first
    ground = ground_table(params)[m, n]
    with np.errstate(all="ignore"):
        log_K[m, n] = ground + _rungs(params, m, n, s)
        q = _cot_polynomials(params.beta, n, s, first)
    for array in (log_K, q, start):
        array.flags.writeable = False
    return StateTable(log_K, q, start)


@lru_cache(maxsize=2048, typed=True)  # typed: True must not hit the entry of 1
def normalization_K(params: ModelParams, n: int) -> float:
    """log K, the log of the normalization constant of the n-th base eigenfunction.

    Product route: the ground constant of the family with strength index
    nu + n, entry (0, n) of ``ground_table(params)``, times

        s**n sqrt(n! (n + 2 nu + 2)_n / prod_{j=1..n} ((nu + j)^2 s^2 + beta^2))

    with s = n + nu + 1.  One factor per ladder rung, every factor positive,
    so this stays accurate at any degree.  It is entry (0, n) of
    ``state_table(params)``, the level m = 0 case of the constant every
    ``EigenFunction`` reads at nu + m.  n must be a whole number in
    [0, LEVEL_CAP]; it is checked before it indexes the table.
    """
    n = level_number(n)
    _check_degree(n)
    return state_table(params).log_K[0, n]


class EigenFunction:
    """One normalized bound state, real valued; callable on scalars or arrays of x.

    Every level evaluates its own closed form: level m, state n is the
    level-zero state n of the family with strength index nu + m.  Its log K
    (that state's product form at nu + m) and its Q are entry (m, n) of the
    parameter set's ``state_table``, read when the state is built, which
    builds the table if it is the set's first state; no shifted
    ``ModelParams`` is built.  A call is the state's empty word in the
    operator layer (``operators.operand_values``): a float for a scalar x,
    an array of the shape of x otherwise, exactly 0 on the walls, and
    ``DomainError`` for x outside [0, L] or NaN.  The same function built by
    folding the ladder chain over the base family (see the operator layer)
    agrees with this pointwise; the test suite checks that instead of
    assuming it.
    """

    def __init__(self, params: ModelParams, idx: LevelIndex):
        _check_degree(idx.m + idx.n)
        self.params = params
        self.idx = idx
        m, n = idx.m, idx.n
        table = state_table(params)
        self._nu_eff = params.nu + m
        self.log_K = table.log_K[m, n]
        self._q = table.cot_q(m, n)
        self._s = n + self._nu_eff + 1.0
        self._gamma = -params.beta * math.pi / (params.length * self._s)

    @property
    def energy(self) -> float:
        return energy(self.params, self.idx)

    def __call__(self, x):
        return operators.operand_values(self, x)

    @cached_property
    def cot_terms(self) -> tuple:
        """The state as one term (log C, gamma, a, Q) of the cotangent form
        C e^(gamma x) sin^a Q(cot) that operator words act on, a = nu + m + n + 1.

        Q(c) = (-i)^n P_n^(alpha, conj alpha)(i c), alpha = -S + i beta / S and
        S = a, the Fourier sum with e^(+-i theta) = sin (cot +- i), every
        coefficient real under the phase, lowest power first.  Q is a
        read-only view of the state's row of ``state_table``, which builds it
        by Jacobi's three-term recurrence (DLMF 18.9.1): Q_0 = 1,
        Q_1 = beta / S + (1 - S) c and Q_(k+1) = (A_k c + b_k) Q_k + C_k Q_(k-1).
        No denominator vanishes for k < n < S.  Unlike the two-sided binomial
        sum over the Fourier row (DLMF 18.5.8), whose terms cancel at large
        nu or beta, no step cancels."""
        return ((self.log_K, self._gamma, self._s, self._q),)

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


@lru_cache(maxsize=1024, typed=True)  # typed: True must not hit the entry of 1
def eigenfunction(params: ModelParams, m: int, n: int) -> EigenFunction:
    """Cached EigenFunction factory."""
    return EigenFunction(params, LevelIndex(m=m, n=n))


@lru_cache(maxsize=64)
def _triangle(k: int) -> tuple:
    # the row and column indices of the upper triangle of a k x k matrix, read-only
    indices = np.triu_indices(k)
    for index in indices:
        index.flags.writeable = False
    return indices


def _gram(functions, lo: float, hi: float, config: QuadratureConfig, weight=None) -> np.ndarray:
    # the Hermitian matrix of int conj(phi_i) w phi_j over [lo, hi], phi_i the
    # operands and w = weight(x), 1 if None.  The operands are stacked as one
    # and valued by its empty word, folded outside the memo, as no later call
    # could find a stack built per call.  The upper triangle is one
    # vector-valued integral, the lower one its conjugate
    k = len(functions)
    if not k:
        return np.zeros((0, 0), dtype=complex)
    params = getattr(functions[0], "params", None)
    if params is None or any(getattr(f, "params", None) != params or not hasattr(f, "cot_terms") for f in functions):
        raise DomainError("a Gram matrix needs operands of one ModelParams with cot_terms")
    words = operators._stacked_words(params, [((), operators._OperandStack(functions), 1.0)], memo=False)
    rows, cols = _triangle(k)

    def integrand(x):
        (phi,) = words(x)
        # conj of real rows is a copy of the same bits
        left = np.conj(phi[rows]) if np.iscomplexobj(phi) else phi[rows]
        if weight is None:
            return left * phi[cols]
        return left * weight(x) * phi[cols]

    value = integrate_interval(integrand, lo, hi, config).value
    gram = np.zeros((k, k), dtype=complex)
    gram[rows, cols] = value
    gram[cols, rows] = np.conj(value)
    return gram


def gram_matrix(
    functions,
    length: float,
    config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Hermitian Gram matrix of operands of one ``ModelParams`` over [0, length].

    The upper triangle is one vector-valued adaptive integral: every operand
    is evaluated once per node, and every entry meets its own tolerance.
    The operands (eigenfunctions, coherent states, bumps) are stacked as one
    operand of the operator layer and valued by its empty word in one pass
    per integrand call, each row bit for bit the operand's own call at the
    same interior nodes; the integrand is real when every operand is.
    Operands of different ``ModelParams``, or without ``params`` and
    ``cot_terms``, raise ``DomainError``.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, endpoint_substitution=True)
    return _gram(functions, 0.0, length, config)


# the operator layer imports EigenFunction and eigenfunction from this module,
# so it is imported here, after both, whichever of the two modules loads first
from . import operators  # noqa: E402
