"""First-order ladder operators, Hamiltonians, and the identity verification suite.

Operator words (ladder steps and Hamiltonian applications at chosen hierarchy
levels) act on the cotangent form of their operand: a sum of terms

    C e^(gamma x) sin(theta)^a Q(cot theta),    theta = pi x / L,

each given by an operand's ``cot_terms`` as a tuple (log C, gamma, a, Q) with
Q the coefficients of a polynomial in c = cot theta, lowest first.  With
k = pi / L, d/dx keeps C, gamma and a and maps Q to
(gamma + a k c) Q - k (1 + c^2) Q'.  The superpotential W_m is a degree-1
polynomial in c and the potential V_m a degree-2 one (the shape invariance
of the hierarchy), so a whole word is folded once on the coefficients of Q,
exactly up to rounding and independently of where it is evaluated.  The
coefficients that are roundoff (``NOISE_FLOOR``) are dropped, and a term of
degree d is evaluated as C e^(gamma x) s^(a-d) sum_j q_j cos^j s^(d-j) with
s = sin theta, which stays bounded up to the walls.  Eigenfunctions,
coherent states and the smooth test bumps provide ``cot_terms``, and a
corpus of operands can be stacked into one, so that one fold serves every
member.  The operators are real, so eigenfunctions and bumps fold in float64
and coherent states, whose gamma is complex, in complex128.  The empty word
gives the values of bumps and coherent states (``operand_values``).

A word is folded one operator at a time on top of the fold of its prefix.
Q and the magnitudes each of its coefficients was summed from are held as
one band of rows, so a step is one pass with the signed multipliers on the
Q rows and their absolute values on the magnitude rows, kept as read-only
columns per set of factor values.  A bounded ``lru_cache`` keyed on
(params, prefix, operand, sign) keeps each fold with its plan: the rows in
falling degree and, per power, Q cut at the noise floor.  The plan is
evaluated in one Horner pass in place, which a row joins at its own degree,
so each row sees the same operations as when it is evaluated alone.

The verification suite evaluates every operator identity of the hierarchy on
one sample grid or by quadrature and reports one relative residual per
identity, flagging the deliberately ambiguous ones as informational rather
than asserting them.
Its words, the integrands of its quadratures included, share the fold
memo with every other call, so a prefix that several identities or cells
apply to one operand is folded once.  The identities that depend on the
level m alone are computed once per (params, m, grid size, sign), and their
rows are kept in a bounded memo across calls; each call receives copies
stamped with its own indices.
"""

from __future__ import annotations

import math
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import DegreeCapError, DomainError, PtsusyError
from .quadrature import DEFAULT_CONFIG, IntegralResult, integrate_interval
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy, gap_factor_M, gap_factor_N, level_number
from .wavefn import eigenfunction

#: Relative clamp keeping the identity grid and the quadratures off the walls.
EDGE_CLAMP = 1e-6
#: Tolerances of the suite's quadratures; the eigen-residual lowers abs_tol to 1e-16.
_SUITE_CONFIG = replace(DEFAULT_CONFIG, abs_tol=1e-13, rel_tol=1e-11)
#: The operator kinds of a word entry.
_KINDS = ("A", "Adag", "H")


class TrigPolyBump:
    """Smooth Dirichlet test function: sin^2 times a random four-mode sine sum, valued by its cot form."""

    def __init__(self, params: ModelParams, seed: int):
        self.params = params
        self.coeffs = np.random.default_rng(seed).normal(size=4)

    def __call__(self, x):
        return operand_values(self, x)

    @cached_property
    def cot_terms(self) -> tuple:
        # sin j theta = s^j Im (c + i)^j and s^-2 = 1 + c^2: the odd modes and
        # the even modes are one term s^a Q(c) each, a = 2 + the top mode
        terms = []
        for first in (1, 2):
            modes = range(first, len(self.coeffs) + 1, 2)
            a = modes[-1] + 2
            q = np.zeros(a - 2)
            for j in modes:
                mode = np.ones(1, dtype=complex)
                for _ in range(j):
                    mode = np.convolve(mode, [1j, 1.0])
                mode = mode.imag[:j]
                for _ in range((a - j - 2) // 2):
                    mode = np.convolve(mode, [1.0, 0.0, 1.0])
                q += self.coeffs[j - 1] * mode
            terms.append((0.0, 0.0, float(a), q))
        return tuple(terms)


#: A folded coefficient of Q no larger than this fraction of the sum of the
#: magnitudes it was computed from is zero to working precision.  Near a wall
#: cot^j amplifies such noise without bound: a chain that lowers the degree of
#: its operand leaves its top coefficients at roundoff, not at zero.
NOISE_FLOOR = 1e-12


class _Terms(NamedTuple):
    # cotangent terms as arrays over its r terms; band holds Q, zero-padded to
    # a common width, in rows :r and, per coefficient, the sum of the
    # magnitudes it came from in rows r:, so that a step folds both in one pass
    log_c: np.ndarray
    gamma: np.ndarray
    power: np.ndarray
    band: np.ndarray
    d_dx: "_DDx"

    @classmethod
    def of(cls, params: ModelParams, terms) -> "_Terms":
        log_c, gamma, power, qs = zip(*terms)
        gamma, power = np.array(gamma), np.array(power)
        coeffs = np.zeros((len(qs), max(map(len, qs))), dtype=np.result_type(gamma, *{q.dtype for q in qs}))
        for row, q in zip(coeffs, qs):
            row[: len(q)] = q
        return cls(np.array(log_c), gamma, power, np.concatenate([coeffs, np.abs(coeffs)]), _DDx(params, gamma, power))


class _DDx:
    # d/dx on a band: coefficient j of the new Q is
    # gamma q_j + k (a - j + 1) q_(j-1) - k (j + 1) q_(j+1), and of the
    # magnitudes the same sum with every multiplier's absolute value.  The
    # multipliers depend on the operand alone and grow with the widest band.
    def __init__(self, params: ModelParams, gamma: np.ndarray, power: np.ndarray):
        self.k, self.power = math.pi / params.length, power[:, None]
        self.gamma = np.concatenate([gamma, np.abs(gamma)])[:, None]
        self.rise = self.fall = np.zeros((len(self.gamma), 0))

    def __call__(self, band: np.ndarray) -> np.ndarray:
        n = band.shape[1]
        # fall is widened last, so a widening cut short by a signal is redone
        if self.fall.shape[1] < n:
            rise, fall = self.k * (self.power - np.arange(2 * n)), -self.k * np.arange(1, 2 * n + 1)
            self.rise = np.concatenate([rise, np.abs(rise)])
            self.fall = np.repeat([fall, np.abs(fall)], len(self.power), axis=0)
        out = np.zeros((band.shape[0], n + 1), dtype=band.dtype)
        np.multiply(self.gamma, band, out=out[:, :n])
        out[:, 1:] += self.rise[:, :n] * band
        out[:, : n - 1] += self.fall[:, : n - 1] * band[:, 1:]
        return out


def _step(params: ModelParams, kind: str, level: int, terms: _Terms, sign: float, shift: float = 0.0) -> _Terms:
    # one operator applied to the band, its signed factors on the Q rows and
    # their absolute values on the magnitude rows; an "H" step subtracts shift * Q
    if kind in ("A", "Adag"):
        lvl = params.nu + level + 1.0
        unit = -sign * math.pi * params.hbar / params.length
        factors = (params.hbar if kind == "A" else -params.hbar, (-params.beta / lvl) * unit, lvl * unit)
        derived = terms.d_dx(terms.band)
    else:  # "H"; apply_word has checked the kind
        lvl = params.nu + level
        strength = lvl * (lvl + 1.0) * params.epsilon0
        scale = -(params.hbar**2) / (2.0 * params.mass)
        factors = (scale, strength - shift, -2.0 * params.beta * params.epsilon0, strength)
        derived = terms.d_dx(terms.d_dx(terms.band))
    # column 0 scales the derivative, columns 1: are the polynomial in c
    scale, *poly = _factor_columns(factors, len(terms.gamma))
    n = terms.band.shape[1]
    times = np.zeros(derived.shape, dtype=derived.dtype)
    for i, column in enumerate(poly):
        times[:, i : i + n] += column * terms.band
    return terms._replace(band=derived * scale + times)


@lru_cache(maxsize=1024)
def _factor_columns(factors: tuple, rows: int) -> tuple:
    # a step's factors as read-only columns (see _step), keyed on their values
    table = np.repeat([factors, np.abs(factors)], rows, axis=0)
    table.setflags(write=False)
    return tuple(table[:, i : i + 1] for i in range(len(factors)))


class _Plan(NamedTuple):
    # a folded word prepared for evaluation, rows sorted by falling degree d:
    # each row's q_d, per power j < top degree the leading row count still in
    # Horner's loop and their q_j (Q cut at the noise floor) as a column, the
    # term index of each row, and the exponent's coefficients with a - d
    top: np.ndarray
    loop: tuple
    order: np.ndarray
    log_c: np.ndarray
    gamma: np.ndarray
    sin_power: np.ndarray


def _leading_loop(degree: np.ndarray) -> tuple:
    # Horner's loop over rows of falling degree: (power j, count of leading
    # rows whose degree exceeds j) from the top degree down, so that a row
    # joins at its own degree and sees the operations it would see alone
    powers = np.arange(degree[0] - 1, -1, -1)
    return tuple(zip(powers.tolist(), np.searchsorted(-degree, -powers).tolist()))


def _plan(terms: _Terms) -> _Plan:
    # Coefficients under the noise floor are dropped and every term is
    # evaluated at the degree d of its top remaining coefficient, so a row
    # does not depend on the other terms it is stacked with.
    q, mag = terms.band[: len(terms.gamma)], terms.band[len(terms.gamma) :].real
    q = np.where(np.abs(q) > NOISE_FLOOR * mag, q, 0.0)
    degree = ((q != 0.0) * np.arange(q.shape[1])).max(axis=1)
    order = np.argsort(-degree, kind="stable")
    degree, q = degree[order], q[order]
    loop = tuple((k, q[:k, j, None]) for j, k in _leading_loop(degree))
    return _Plan(q[np.arange(len(q)), degree], loop, order, terms.log_c[order], terms.gamma[order], terms.power[order] - degree)


def _evaluate(params: ModelParams, plan: _Plan, x: np.ndarray) -> np.ndarray:
    # rows of C e^(gamma x) s^(a-d) sum_j q_j cos^j s^(d-j) at the 1-d points
    # x, in term order.  One Horner pass runs from the top degree down, in
    # place; a row joins it at its own degree, so it sees the same operations
    # in the same order as when it is evaluated alone.
    theta = x * (math.pi / params.length)
    s, cos = np.sin(theta), np.cos(theta)
    acc = np.repeat(plan.top[:, None], x.size, axis=1)
    s_pow = np.ones(acc.shape)
    for k, q_j in plan.loop:
        lead, lead_pow = acc[:k], s_pow[:k]
        lead_pow *= s
        lead *= cos
        lead += q_j * lead_pow
    expo = plan.log_c[:, None] + plan.gamma[:, None] * x + plan.sin_power[:, None] * np.log(s)
    rows = np.empty_like(acc)
    rows[plan.order] = np.exp(expo) * acc
    return rows


#: The most folds the fold memo keeps; the least recently used goes first.
#: A cold pass of the benchmark's ``verify`` (seed 1) takes 2,206, 2,136 and
#: 2,090 steps at 256, 512 and 1,024 folds; with no bound 2,090 (74 warm),
#: but peak RSS is 43.3 MB, against 39.9 MB at 512.
FOLD_MEMO_SIZE = 512


class _Fold:
    # a word folded on an operand, and its evaluation plan once asked for
    def __init__(self, terms: _Terms):
        self.terms = terms

    @cached_property
    def plan(self) -> _Plan:
        return _plan(self.terms)


@lru_cache(maxsize=FOLD_MEMO_SIZE)
def _fold(params: ModelParams, word: tuple, func, sign: float) -> _Fold:
    # the fold of word on func, extending the fold of word[:-1] by one step;
    # the prefix is looked up through the module name, so a (params, prefix,
    # operand, sign) is folded once while the memo holds it
    if not word:
        return _Fold(_Terms.of(params, func.cot_terms))
    return _Fold(_step(params, *word[-1], _fold(params, word[:-1], func, sign).terms, sign))


def _check_sign(sign) -> None:
    if isinstance(sign, bool) or not isinstance(sign, numbers.Real) or sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1 (the negative control), got {sign!r}")


def apply_word(params: ModelParams, word, func, x, sign: float = 1.0):
    """Apply a sequence of operators (first entry acts first) at points x.

    Word entries are ("A", level), ("Adag", level), or ("H", level), with a
    level that ``level_number`` accepts; any other entry, or a ``sign`` (the
    superpotential's factor, -1 the negative control) other than the numbers
    1 and -1, raises ``DomainError`` before the fold memo is consulted.
    Returns the values of the resulting function at x, of shape x.shape, in
    the dtype of the operand's Q and gamma (float64 for eigenfunctions and
    bumps, complex128 for coherent states).  The word is folded on the
    operand's ``cot_terms`` and the result is evaluated at x, a scalar being
    one point of a 1-d grid, so the value at a point does not depend on the
    other points.  A stacked operand (``_OperandStack`` of k functions) gives
    shape (k, *x.shape), row i bit-identical to applying the word to member i
    alone when the members share a dtype.

    The fold of every (params, prefix, operand, sign) and its evaluation plan
    are kept in a process-wide ``lru_cache`` of ``FOLD_MEMO_SIZE`` entries,
    and a word extends its longest folded prefix, so calls that repeat a word
    or share a prefix do not fold it again.  The operand must be hashable and
    keep its ``cot_terms``; equal operands share their folds.  The values are
    bit-identical with a warm memo and a cold one.
    """
    _check_sign(sign)
    arr = np.asarray(x, dtype=float)
    # NaN fails both comparisons; an empty x passes
    if not (arr.min(initial=math.inf) > 0.0 and arr.max(initial=-math.inf) < params.length):
        raise DomainError("operator applications need interior sample points")
    word = tuple(word)
    # one pass, before the memo, whose keys hash ("A", True) as ("A", 1)
    for kind, level in word:
        if kind not in _KINDS:
            raise DomainError(f"unknown operator kind {kind!r}")
        if type(level) is not int or level < 0:
            level_number(level)
    fold = _fold(params, word, func, sign)
    out = _members(func, _evaluate(params, fold.plan, arr.ravel()))
    return out.reshape(out.shape[:-1] + arr.shape)[()]


def operand_values(func, x):
    """An operand's values on [0, L]: its empty word at interior points and
    exactly 0 on the walls.  x outside [0, L] or NaN raises ``DomainError``;
    a scalar x gives a Python float or complex."""
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= func.params.length)).all():
        raise DomainError("x outside the box [0, L]")
    # the walls are masked before the fold takes log(sin)
    interior = (arr > 0.0) & (arr < func.params.length)
    values = apply_word(func.params, (), func, arr[interior])
    out = np.zeros(arr.shape, dtype=values.dtype)
    out[interior] = values
    return out.item() if arr.ndim == 0 else out


def _members(func, rows: np.ndarray) -> np.ndarray:
    # the evaluated term rows summed per member, in term order, from 0
    if not isinstance(func, _OperandStack):
        return sum(rows)
    out = np.zeros((len(func.funcs), rows.shape[1]), dtype=rows.dtype)
    for i, row in zip(func.owner, rows):
        out[i] += row
    return out


class _OperandStack:
    """Several operands as one, for ``apply_word``: the members' cotangent
    terms side by side, each tagged with the member it belongs to."""

    def __init__(self, funcs):
        self.funcs = list(funcs)
        self.cot_terms = tuple(t for f in self.funcs for t in f.cot_terms)
        self.owner = np.array([i for i, f in enumerate(self.funcs) for _ in f.cot_terms])

    def __iter__(self):
        return iter(self.funcs)


def default_grid(params: ModelParams, size: int = 161) -> np.ndarray:
    """The identity grid: ``size`` uniform points from EDGE_CLAMP L to
    (1 - EDGE_CLAMP) L, the bounds of the suite's quadratures."""
    L = params.length
    return np.linspace(EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, size)


# ---------------------------------------------------------------------------
# Identity verification suite
# ---------------------------------------------------------------------------


@dataclass
class IdentityResult:
    name: str
    indices: dict
    max_residual: float | str
    threshold: float | None
    passed: bool | None
    informational: bool
    grid_size: int
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return asdict(self)


def _rel(lhs, rhs, scale: float | None = None) -> float:
    num = float(np.abs(lhs - rhs).max())
    if scale is None:
        scale = max(float(np.abs(lhs).max()), float(np.abs(rhs).max()))
    return num / max(scale, 1e-300)


def _quad_details(*results: IntegralResult) -> dict:
    # provenance of a quadrature residual: error bound summed over results and
    # components, and abscissas
    return {
        "quad_error": float(sum(np.sum(r.error) for r in results)),
        "quad_evaluations": sum(r.evaluations for r in results),
    }


@lru_cache(maxsize=256)
def _bump(params: ModelParams, seed: int) -> TrigPolyBump:
    # one bump per (params, seed), so its cotangent terms are computed once
    return TrigPolyBump(params, seed)


def test_corpus(params: ModelParams, m: int):
    """Standard operand set: the four lowest eigenfunctions of level m plus two seeded bumps."""
    return [eigenfunction(params, m, n) for n in range(4)] + [_bump(params, 101), _bump(params, 102)]


#: The mandatory identities in report order: name -> (threshold, names of alias rows).
MANDATORY = {
    "ground_state_annihilation": (1e-9, ()),
    "factorization": (1e-9, ()),
    "intertwining_single": (1e-7, ()),
    "intertwining_chain": (1e-7, ("supercharge_commutator",)),
    "product_BdagB": (1e-9, ("supercharge_anticommutator_block0",)),
    "product_BBdag": (1e-9, ("supercharge_anticommutator_block1",)),
    "ladder_action": (1e-8, ()),
    "mean_BBdag": (1e-8, ()),
    "mean_BdagB": (1e-8, ()),
    "adjoint_consistency": (1e-9, ()),
    "eigen_residual": (1e-6, ()),
}


@contextmanager
def _identity(results: list, indices: dict, grid_size: int, name: str):
    # yields the recorder of one identity's residual, a row for the name and
    # one per alias (informational if not in MANDATORY), or records a package error
    threshold, aliases = MANDATORY.get(name, (None, ()))

    def record(res, details=None):
        passed = None if threshold is None else not isinstance(res, str) and bool(res < threshold)
        for i, row in enumerate((name, *aliases)):
            extra = (details or {}) if i == 0 else {"alias_of": name}
            results.append(IdentityResult(row, dict(indices), res, threshold, passed, threshold is None, grid_size, extra))

    try:
        yield record
    except PtsusyError as exc:
        record(type(exc).__name__, {"error": str(exc)})


@lru_cache(maxsize=256)
def _level_identities(
    params: ModelParams, m: int, grid_size: int, sign: float
) -> tuple[tuple[IdentityResult, ...], tuple[IdentityResult, ...]]:
    # The identities of level m that do not depend on the state n: the rows
    # that lead the report and the adjoint row that follows the chain means.
    # The rows are shared by every caller; ``verify_operator_identities``
    # hands out copies.
    grid = default_grid(params, grid_size)
    head: list[IdentityResult] = []
    tail: list[IdentityResult] = []
    idx = {"m": m}
    two_m = 2.0 * params.mass
    # the standard operands of a level as one stack: a word folds all members
    # at once, and residuals are taken member by member
    corpus = lru_cache(maxsize=None)(lambda level: _OperandStack(test_corpus(params, level)))

    # Ground-state annihilation at level m.
    with _identity(head, idx, grid_size, "ground_state_annihilation") as record:
        ground = eigenfunction(params, m, 0)
        ann = apply_word(params, (("A", m),), ground, grid, sign)
        record(_rel(ann, 0.0, scale=float(np.max(np.abs(apply_word(params, (), ground, grid, sign))))))

    # Factorized Hamiltonian A_m^dag A_m / 2M + E_0^(m) reproduces the direct
    # one on the corpus.
    with _identity(head, idx, grid_size, "factorization") as record:
        e0_m = energy(params, LevelIndex(m, 0))
        direct = apply_word(params, (("H", m),), corpus(m), grid)
        chained = apply_word(params, (("A", m), ("Adag", m)), corpus(m), grid, sign)
        fact = chained / two_m + e0_m * apply_word(params, (), corpus(m), grid, sign)
        record(max(_rel(f, d) for f, d in zip(fact, direct)))

    # Single-step intertwining, both directions.  An annihilated member, such
    # as the ground state under A_m, folds to exactly 0 on both sides.
    def worst_of(stack, lhs_word, rhs_word, worst=0.0):
        lhs = apply_word(params, lhs_word, stack, grid, sign)
        rhs = apply_word(params, rhs_word, stack, grid, sign)
        return max([worst] + [_rel(lf, rf) for lf, rf in zip(lhs, rhs)])

    with _identity(head, idx, grid_size, "intertwining_single") as record:
        worst = worst_of(corpus(m), (("A", m), ("H", m + 1)), (("H", m), ("A", m)))
        record(worst_of(corpus(m + 1), (("Adag", m), ("H", m)), (("H", m + 1), ("Adag", m)), worst))

    # Chain intertwining (equivalently, the supercharge commutator component).
    word_b = tuple(("A", k) for k in range(m + 1))
    with _identity(head, idx, grid_size, "intertwining_chain") as record:
        record(worst_of(corpus(0), word_b + (("H", m + 1),), (("H", 0),) + word_b))

    # Adjoint consistency, <A psi, phi> and <psi, A^dag phi> as one two-component
    # integral; bumps keep both inner products away from zero.
    psi, phi = _bump(params, 201), _bump(params, 202)

    def inner_pair(x):
        left = np.conj(apply_word(params, (("A", m),), psi, x, sign)) * apply_word(params, (), phi, x, sign)
        right = np.conj(apply_word(params, (), psi, x, sign)) * apply_word(params, (("Adag", m),), phi, x, sign)
        return np.stack([left, right])

    with _identity(tail, idx, grid_size, "adjoint_consistency") as record:
        L = params.length
        quad = integrate_interval(inner_pair, EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, _SUITE_CONFIG)
        va, vb = quad.value.tolist()
        record(abs(va - vb) / max(abs(va), abs(vb), 1e-300), _quad_details(quad))

    return tuple(head), tuple(tail)


def verify_operator_identities(
    params: ModelParams,
    n: int,
    m: int,
    grid_size: int = 161,
    sign: float = 1.0,
) -> list[IdentityResult]:
    """Evaluate the full operator identity suite at indices (n, m).

    The identities of ``MANDATORY`` carry its thresholds and a pass flag;
    those whose printed form is ambiguous are evaluated in every well-formed
    variant and reported as informational, with the matching one recorded.

    The mandatory identities need states of degree up to max(n + m + 1, m + 4),
    the latter for the operand corpus of level m + 1.  Above ``LEVEL_CAP``
    the cell cannot be certified and raises ``DegreeCapError`` up front, and
    an index that ``level_number`` rejects raises ``DomainError``.  Any other
    ``PtsusyError`` inside one identity, such as an informational state above
    the cap or an integral out of panels, ends only that identity: its rows
    carry the error's type name as the residual and its message under
    "error" in details, and are not passed if mandatory, skipped if
    informational.

    Five identities do not depend on n: ground-state annihilation,
    factorization, single-step and chain intertwining (with its
    ``supercharge_commutator`` alias) and adjoint consistency.  Their rows
    are computed once per (params, m, grid_size, sign) and kept in a
    bounded memo (``_level_identities``, 256 keys); a row recording a
    package error is kept like any other.  A call that shares the key
    reuses them, each a copy with this cell's indices and its own details,
    and evaluates only the identities that depend on n.  The values are the
    same bit for bit as a call with an empty memo.

    Every pointwise identity is checked on ``default_grid(params, grid_size)``;
    a ``grid_size`` that is not a whole number of at least 3 raises
    ``DomainError``, as does a ``sign`` other than the numbers 1 and -1 (a
    bool included).  The words of the call go through the fold memo of
    ``apply_word``, an operand's own values included (its empty word); the
    rows do not depend on what it holds.
    """
    n, m = level_number(n), level_number(m)
    _check_sign(sign)
    try:  # a count of points, read as level_number reads an index
        size = level_number(grid_size)
    except DomainError:
        size = 0
    if size < 3:
        raise DomainError(f"grid_size must be a whole number of at least 3, got {grid_size!r}")
    grid_size = size
    degree = max(n + m + 1, m + 4)
    if degree > LEVEL_CAP:
        raise DegreeCapError(f"cell (n={n}, m={m}) needs states of degree {degree}, which exceeds cap {LEVEL_CAP}")
    head, tail = _level_identities(params, m, grid_size, sign)
    grid = default_grid(params, grid_size)
    idx = {"n": n, "m": m}

    def stamped(rows):
        # copies of memoized level rows with this cell's indices and their own
        # details, so that no caller can reach a memoized row
        return [IdentityResult(**{**vars(r), "indices": dict(idx), "details": dict(r.details)}) for r in rows]

    results = stamped(head)
    L = params.length
    # the unit pi hbar / L of the ladder-chain prefactors
    rung = math.pi * params.hbar / L
    lo, hi = EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L
    two_m = 2.0 * params.mass
    e0_level = lambda k: energy(params, LevelIndex(0, k))
    # the chain B = A_m ... A_0 and its adjoint, and the partial chains
    # Lambda (levels m+1..n, empty unless n > m) and Theta (levels n+1..m,
    # empty unless m > n) with their adjoints; the first entry acts first
    word_b = tuple(("A", k) for k in range(m + 1))
    word_bdag = tuple(("Adag", k) for k in range(m, -1, -1))
    lam = tuple(("A", k) for k in range(m + 1, n + 1))
    lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
    theta = tuple(("Adag", k) for k in range(m, n, -1))
    theta_dag = tuple(("A", k) for k in range(n + 1, m + 1))
    # state n of levels 0, m and m + 1, each of degree at most n + m + 1
    phi_n, phi_m, phi_up = (eigenfunction(params, level, n) for level in (0, m, m + 1))
    phi_up_grid = apply_word(params, (), phi_up, grid, sign)

    def chain_eigenvalue(e, levels):
        # (2M)^len(levels) prod_k (e - E_0^(k)), multiplied in level order
        value = two_m ** len(levels)
        for k in levels:
            value *= e - e0_level(k)
        return value

    def chain_mean(word, state, target, chain_sign=1.0, unit=1.0):
        # the quadrature of |word state|^2 / unit and its residual relative to
        # target; a target of None stands for a closed form that vanishes
        # identically, and the residual is then the mean itself
        def integrand(x):
            return np.abs(apply_word(params, word, state, x, chain_sign)) ** 2 / unit

        quad = integrate_interval(integrand, lo, hi, _SUITE_CONFIG)
        mean = float(quad.value.real)
        return quad, mean if target is None else _rel(mean, target)

    identity = partial(_identity, results, idx, grid_size)

    # Product identities on eigenstates (the supercharge anticommutator blocks).
    # For n <= m one energy factor vanishes and the content is annihilation of
    # the chain: the residual is scaled by the other factors, so it does not
    # rest on the fold leaving the chain exactly 0.
    with identity("product_BdagB") as record:
        lhs = apply_word(params, word_b + word_bdag, phi_n, grid, sign)
        phi_n_grid = apply_word(params, (), phi_n, grid, sign)
        scale = two_m ** (m + 1) * float(np.max(np.abs(phi_n_grid)))
        for k in range(m + 1):
            if k != n:
                scale *= abs(phi_n.energy - e0_level(k))
        rhs = chain_eigenvalue(phi_n.energy, range(m + 1)) * phi_n_grid
        record(_rel(lhs, rhs, scale=scale), {"annihilating_branch": n <= m})

    eig_up = chain_eigenvalue(phi_up.energy, range(m + 1))
    with identity("product_BBdag") as record:
        lhs = apply_word(params, word_bdag + word_b, phi_up, grid, sign)
        record(_rel(lhs, eig_up * phi_up_grid))

    # Chain action with the closed-form gap factor.
    pref = rung ** (m + 1) * gap_factor_M(params, n, m)
    with identity("ladder_action") as record:
        lhs = apply_word(params, word_b, eigenfunction(params, 0, n + m + 1), grid, sign)
        record(_rel(lhs, pref * phi_up_grid))

    # Mean values of the chain products by quadrature.
    with identity("mean_BBdag") as record:
        quad, res = chain_mean(word_bdag, phi_up, pref**2, sign)
        record(res, _quad_details(quad))
    if n > m:
        with identity("mean_BdagB") as record:
            pref_n = rung ** (m + 1) * gap_factor_M(params, n - m - 1, m)
            quad, res = chain_mean(word_b, phi_n, pref_n**2, sign)
            record(res, _quad_details(quad))

    results.extend(stamped(tail))

    # Eigen-residual of the level-m state n, relative to its energy.  A
    # residual at the 1e-6 threshold squares to 1e-12; an absolute tolerance
    # of 1e-16 resolves it to 1e-8 and leaves the roundoff below unresolved.
    with identity("eigen_residual") as record:
        e_val = phi_m.energy

        def resid_sq(x):
            return np.abs(apply_word(params, (("H", m),), phi_m, x) / e_val - apply_word(params, (), phi_m, x)) ** 2

        quad = integrate_interval(resid_sq, lo, hi, replace(_SUITE_CONFIG, abs_tol=1e-16))
        record(math.sqrt(max(quad.value.real, 0.0)), _quad_details(quad))

    # Mixed chain products: evaluate every well-formed printed variant.
    # The operand index n keeps the chains from annihilating either side.
    if n != m:
        with identity("mixed_product") as record:
            lhs = apply_word(params, word_bdag + word_b[: n + 1] + lam, phi_up, grid, sign)
            details = {}
            if n > m:
                rhs = eig_up * apply_word(params, lam, phi_up, grid, sign)
                details["lambda_form"] = _rel(lhs, rhs)
            else:
                # theta first, then the operator polynomial prod_k (H - E_k) folded directly
                terms = _fold(params, theta, phi_up, sign).terms
                for k in range(n + 1):
                    terms = _step(params, "H", n + 1, terms, sign, shift=e0_level(k))
                rhs = two_m ** (n + 1) * _members(phi_up, _evaluate(params, _plan(terms), grid))
                details["theta_form"] = _rel(lhs, rhs)
            (best,) = details
            details["matching_variant"] = best
            record(details[best], details)

    # Partial-chain products with both candidate prefactors.
    if n > m:
        with identity("partial_chain_product") as record:
            phi_hi = eigenfunction(params, n + 1, 0)
            lhs = apply_word(params, lam_dag + lam, phi_hi, grid, sign)
            core = 1.0
            for k in range(m + 1, n + 1):
                core *= phi_hi.energy - e0_level(k)
            phi_hi_grid = apply_word(params, (), phi_hi, grid, sign)
            variants = {
                "mass_prefactor": _rel(lhs, two_m ** (n - m) * core * phi_hi_grid),
                "index_prefactor": _rel(lhs, (2.0 * m) ** (n - m) * core * phi_hi_grid) if m > 0 else float("inf"),
            }
            variants["matching_variant"] = min(("mass_prefactor", "index_prefactor"), key=lambda k: variants[k])
            record(variants[variants["matching_variant"]], variants)

    # Partial-chain mean values (quadrature route).
    if n != m:
        with identity("partial_chain_means") as record:
            state_hi = eigenfunction(params, n + 1, n)
            if n > m:
                target = rung ** (2 * (n - m)) * gap_factor_N(params, n, n) / gap_factor_N(params, n, m)
                means = {"lambda_lambdadag": chain_mean(lam_dag, state_hi, target)}
                ratio = gap_factor_M(params, m, n) / gap_factor_M(params, n, m)
                means["lambdadag_lambda"] = chain_mean(lam, phi_up, (rung ** (n - m) * ratio) ** 2)
            else:
                unit = rung ** (2 * (m - n))
                target = unit * gap_factor_N(params, n, m) / gap_factor_N(params, n, n)
                if target == 0.0:
                    # closed-form factor vanishes (m >= 2n+1): the chain annihilates
                    # the state, so the mean is integrated against zero in natural units
                    means = {"theta_thetadag": chain_mean(theta_dag, state_hi, None, unit=unit)}
                else:
                    means = {"theta_thetadag": chain_mean(theta_dag, state_hi, target)}
                ratio = gap_factor_M(params, n, m) / gap_factor_M(params, m, n)
                means["thetadag_theta"] = chain_mean(theta, phi_up, (rung ** (m - n) * ratio) ** 2)
            residuals = {key: res for key, (_, res) in means.items()}
            record(max(residuals.values()), {**residuals, **_quad_details(*(quad for quad, _ in means.values()))})

    return results
