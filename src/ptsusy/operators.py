"""First-order ladder operators, Hamiltonians, and the identity verification suite.

Operator words (ladder steps and Hamiltonian applications at chosen hierarchy
levels, an entry ("H", level, e) standing for H_level - e, so that an operator
polynomial prod_k (H - E_k) is a word) act on the cotangent form of their
operand: a sum of terms

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
s = sin theta, which stays bounded up to the walls; theta is taken from the
distance to the nearer wall, so that s keeps its relative accuracy at both
(for x near L, pi x / L would carry the rounding of pi).  Eigenfunctions,
coherent states and the smooth test bumps provide ``cot_terms``, and a
corpus of operands can be stacked into one, so that one fold serves every
member.  A bare eigenfunction is folded as its row of its level's stack
(``_level_stack``, every state n <= LEVEL_CAP - m of level m), so one fold
of a word serves every state of the level, and a call plans only the rows
it reads, each bit for bit the state folded alone.  At very large beta the
high states of a stack overflow in their folds; a RuntimeWarning reports
that only for a row a call reads.  The operators are real,
so eigenfunctions and bumps fold in float64 and coherent states, whose
gamma is complex, in complex128.  The empty word gives the values of every
operand, eigenfunctions included (``operand_values``).

A word is folded one operator at a time on top of the fold of its prefix.
Q and the magnitudes each of its coefficients was summed from are the two
planes of one band, so a step is one pass with the signed multipliers on
the Q plane and their absolute values on the magnitude plane, each pair
broadcast over the rows.  A bounded ``lru_cache`` keyed on
(params, prefix, operand, sign) keeps each fold.  The words wanted at the
same points go into one plan over the rows of their folds that they read,
cut straight from both planes of each band and built once per call: the
rows in falling degree and, per power, Q cut at the noise floor.
The plan is evaluated in one Horner pass in place per node set, which a row
joins at its own degree, so each row sees the same operations as when its
word is evaluated alone, and each result is bit-identical to it.
``wavefn.gram_matrix`` stacks its operands into one and evaluates its empty
word this way, once per integrand call.  A stack is a value: stacks of the
same members in the same order are one key of the memo.

The verification suite evaluates every operator identity of the hierarchy on
one sample grid or by quadrature and reports one relative residual per
identity, flagging the deliberately ambiguous ones as informational rather
than asserting them.
Its words, the integrands of its quadratures included, share the fold
memo with every other call, so a prefix that several identities or cells
apply to one level's states is folded once.  The words of a cell's
pointwise rows, mixed_product's operator polynomial among them, are
evaluated in one stacked call.  The quadrature rows of a cell (the chain
means, the partial-chain means and the eigen residual) are the components
of one integral on shared panels, each scaled so that one tolerance is its
own; the words of that integral are folded and planned once per cell and
evaluated in one pass per node batch.  If that integral fails, the
informational components keep the error and the mandatory ones are
integrated again without them.  The identities that depend on the
level m alone are computed once per (params, m, grid size, sign), and their
rows are kept in a bounded memo across calls; each call receives copies
stamped with its own indices.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import DegreeCapError, DomainError, PtsusyError
from .quadrature import DEFAULT_CONFIG, integrate_interval
from .spectrum import LEVEL_CAP, LevelIndex, ModelParams, energy, gap_factor_M, gap_factor_N, level_number
from .wavefn import EigenFunction, eigenfunction

#: Relative clamp keeping the identity grid and the quadratures off the walls.
EDGE_CLAMP = 1e-6
#: Tolerances of the suite's quadratures; the eigen-residual lowers abs_tol to 1e-16.
_SUITE_CONFIG = replace(DEFAULT_CONFIG, abs_tol=1e-13, rel_tol=1e-11)
#: The operator kinds of a word entry.
_KINDS = ("A", "Adag", "H")


#: The suite's bump coefficients by seed: numpy.random.default_rng(seed).normal(size=4)
#: written out; importing numpy.random costs about 13 ms per process
_BUMP_COEFFS = {
    101: (-0.7901524999630146, -2.0346254818318728, 0.6033017469247647, 0.7442945298799118),
    102: (0.6257293982571508, 2.164325358952666, 0.9555405586957074, -1.0802324230246478),
    201: (1.9289571893320223, -0.6076825118909078, -2.0716992356741057, -0.8010096944383682),
    202: (1.8117203538153117, -0.7290535593099604, -1.085626486216842, -0.4019110540118985),
}


class TrigPolyBump:
    """Smooth Dirichlet test function: sin^2 times a four-mode sine sum, valued by its cot form."""

    def __init__(self, params: ModelParams, coeffs):
        self.params = params
        self.coeffs = np.array(coeffs, dtype=float)

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
    # a common width, in plane 0 and, per coefficient, the sum of the
    # magnitudes it came from in plane 1, so that a step folds both in one pass
    log_c: np.ndarray
    gamma: np.ndarray
    power: np.ndarray
    band: np.ndarray
    d_dx: "_DDx"

    @classmethod
    def of(cls, params: ModelParams, terms) -> "_Terms":
        log_c, gamma, power, qs = zip(*terms)
        gamma, power = np.array(gamma), np.array(power)
        band = np.zeros((2, len(qs), max(map(len, qs))), dtype=np.result_type(gamma, *{q.dtype for q in qs}))
        for row, q in zip(band[0], qs):
            row[: len(q)] = q
        np.abs(band[0], out=band[1])
        return cls(np.array(log_c), gamma, power, band, _DDx(params, gamma, power))


class _DDx:
    # d/dx on a band: coefficient j of the new Q is
    # gamma q_j + k (a - j + 1) q_(j-1) - k (j + 1) q_(j+1), and of the
    # magnitudes the same sum with every multiplier's absolute value.  The
    # multipliers depend on the operand alone, broadcast over the band's rows
    # as gamma (2, r, 1), rise (2, r, N) and fall (2, 1, N), and grow with N.
    def __init__(self, params: ModelParams, gamma: np.ndarray, power: np.ndarray):
        self.k, self.power = math.pi / params.length, power[:, None]
        self.gamma = np.array([gamma, np.abs(gamma)])[:, :, None]
        self.rise = self.fall = np.zeros((2, 1, 0))

    def __call__(self, band: np.ndarray) -> np.ndarray:
        n = band.shape[-1]
        # fall is widened last, so a widening cut short by a signal is redone
        if self.fall.shape[-1] < n:
            rise, fall = self.k * (self.power - np.arange(2 * n)), -self.k * np.arange(1, 2 * n + 1)
            self.rise = np.array([rise, np.abs(rise)])
            self.fall = np.array([fall, np.abs(fall)])[:, None]
        out = np.zeros(band.shape[:2] + (n + 1,), dtype=band.dtype)
        np.multiply(self.gamma, band, out=out[..., :n])
        out[..., 1:] += self.rise[..., :n] * band
        out[..., : n - 1] += self.fall[..., : n - 1] * band[..., 1:]
        return out


def _step(params: ModelParams, kind: str, level: int, terms: _Terms, sign: float, shift: float = 0.0) -> _Terms:
    # one operator applied to the band, its signed factors on the Q plane and
    # their absolute values on the magnitude plane; "H" subtracts shift * Q
    if kind in ("A", "Adag"):
        lvl = params.nu + level + 1.0
        unit = -sign * math.pi * params.hbar / params.length
        factors = (params.hbar if kind == "A" else -params.hbar, (-params.beta / lvl) * unit, lvl * unit)
        derivatives = 1
    else:  # "H"; apply_word has checked the kind
        lvl = params.nu + level
        strength = lvl * (lvl + 1.0) * params.epsilon0
        scale = -(params.hbar**2) / (2.0 * params.mass)
        factors = (scale, strength - shift, -2.0 * params.beta * params.epsilon0, strength)
        derivatives = 2
    # each factor as a (2, 1, 1) pair over the planes: the first scales the
    # derivative, the others are the polynomial in c
    scale, *poly = np.array([factors, np.abs(factors)]).T[:, :, None, None]
    n = terms.band.shape[-1]
    # rows fold silently: one that overflows warns in _plan, if a call reads it
    with np.errstate(over="ignore", invalid="ignore"):
        derived = terms.band
        for _ in range(derivatives):
            derived = terms.d_dx(derived)
        times = np.zeros(derived.shape, dtype=derived.dtype)
        for i, factor in enumerate(poly):
            times[..., i : i + n] += factor * terms.band
        return terms._replace(band=derived * scale + times)


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


def _plan(*folded: _Terms, cuts=()) -> _Plan:
    # The rows of every fold, one after another, or of each fold the term
    # rows its slice in cuts selects, read straight from its band.
    # Coefficients under the noise floor are dropped and every term is
    # evaluated at the degree d of its top remaining coefficient, so a row
    # does not depend on the other rows it is stacked with, in its own fold
    # or in another.  A row read whose fold overflowed, a coefficient or a
    # magnitude that is not finite, raises a RuntimeWarning; the rows of a
    # fold that are not read raise none.
    cuts = cuts or (slice(None),) * len(folded)
    parts = [t.band[:, cut] for t, cut in zip(folded, cuts)]
    read = np.zeros((2, sum(p.shape[1] for p in parts), max(p.shape[2] for p in parts)), dtype=parts[0].dtype)
    start = 0
    for part in parts:
        read[:, start : start + part.shape[1], : part.shape[2]] = part
        start += part.shape[1]
    log_c, gamma, power = (np.concatenate([getattr(t, name)[cut] for t, cut in zip(folded, cuts)]) for name in ("log_c", "gamma", "power"))
    if not np.isfinite(read).all():
        warnings.warn("overflow encountered in folding a word: coefficients that are not finite", RuntimeWarning)
    q = np.where(np.abs(read[0]) > NOISE_FLOOR * read[1].real, read[0], 0.0)
    degree = ((q != 0.0) * np.arange(q.shape[1])).max(axis=1)
    order = np.argsort(-degree, kind="stable")
    degree, q = degree[order], q[order]
    loop = tuple((k, q[:k, j, None]) for j, k in _leading_loop(degree))
    return _Plan(q[np.arange(len(q)), degree], loop, order, log_c[order], gamma[order], power[order] - degree)


def _evaluate(params: ModelParams, plan: _Plan, x: np.ndarray) -> np.ndarray:
    # rows of C e^(gamma x) s^(a-d) sum_j q_j cos^j s^(d-j) at the 1-d points
    # x, in term order.  One Horner pass runs from the top degree down, in
    # place; a row joins it at its own degree, so it sees the same operations
    # in the same order as when it is evaluated alone.  theta is taken from
    # the distance to the nearer wall, L - x being exact for x >= L/2, so
    # that sin keeps its relative accuracy near x = L; cos takes the sign of
    # L/2 - x.
    length = params.length
    theta = np.minimum(x, length - x) * (math.pi / length)
    s, cos = np.sin(theta), np.copysign(np.cos(theta), 0.5 * length - x)
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
#: The benchmark's ``verify`` cells (seed 1, 92 cells on two parameter sets)
#: fold 824 keys, mixed_product's shifted H steps included.  Passes one to
#: four take 788, 512, 512 and 512 steps at 256 folds, 766, 491, 426 and 426
#: at 512 (740, 446, 0 and 0 without its ``HANG_CELLS``), and 766, 0, 0 and 0
#: at 1,024.  Peak RSS of a benchmark run of ``verify``, one cold pass, is
#: 42.3 MB at 256 folds, 43.7 MB at 512 and 45.1 MB at 1,024.  ``verify``
#: makes no Gram; a ``gram`` pass adds one key per Gram call, the empty word
#: of its stack (33 at each of seeds 1-3), and a warm pass adds none.
FOLD_MEMO_SIZE = 512


@lru_cache(maxsize=FOLD_MEMO_SIZE)
def _fold(params: ModelParams, word: tuple, func, sign: float) -> _Terms:
    # the fold of word on func, extending the fold of word[:-1] by one step;
    # the prefix is looked up through the module name, so a (params, prefix,
    # operand, sign) is folded once while the memo holds it
    if not word:
        return _Terms.of(params, func.cot_terms)
    kind, level, *shift = word[-1]
    return _step(params, kind, level, _fold(params, word[:-1], func, sign), sign, *shift)


def _check_sign(sign) -> None:
    if isinstance(sign, bool) or not isinstance(sign, numbers.Real) or sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1 (the negative control), got {sign!r}")


def apply_word(params: ModelParams, word, func, x, sign: float = 1.0):
    """Apply a sequence of operators (first entry acts first) at points x.

    Word entries are ("A", level), ("Adag", level), ("H", level), or
    ("H", level, e) for H_level - e, e a finite real number and not a bool,
    with a level that ``level_number`` accepts, each entry a tuple; any other
    entry (a list, a string, a tuple of other length), a ``sign`` (the
    superpotential's factor, -1 the negative control) other than the numbers
    1 and -1, or an operand or stack member whose ``params.length`` is not
    ``params.length`` raises ``DomainError`` before the fold memo is consulted.
    Returns the values of the resulting function at x, of shape x.shape, in
    the dtype of the operand's Q and gamma (float64 for eigenfunctions and
    bumps, complex128 for coherent states).  The word is folded on the
    operand's ``cot_terms`` and the result is evaluated at x, a scalar being
    one point of a 1-d grid, so the value at a point does not depend on the
    other points.  A stacked operand (``_OperandStack`` of k functions) gives
    shape (k, *x.shape), row i bit-identical to applying the word to member i
    alone when the members share a dtype.  An ``EigenFunction`` is folded as
    its row of its level's stack (the states of its own params), so a word on
    any state of a level is folded once for every state of it, and only that
    row is evaluated.  A fold that overflows raises a RuntimeWarning only if
    a row of it that the call reads is not finite.

    The fold of every (params, prefix, operand, sign) is kept in a
    process-wide ``lru_cache`` of ``FOLD_MEMO_SIZE`` entries, and a word
    extends its longest folded prefix, so calls that repeat a word or share a
    prefix do not fold it again; the evaluation plan is built per call.  The
    operand must be hashable and keep its ``cot_terms``; equal operands share
    their folds.  The values are bit-identical with a warm memo and a cold one,
    and to the state's own fold for an eigenfunction.

    This is ``_stacked_words`` with one request, evaluated once.
    """
    (values,) = _stacked_words(params, [(word, func, sign)])(x)
    return values


def _stacked_words(params: ModelParams, requests):
    # The (word, operand, sign) requests checked and folded as by apply_word,
    # with one plan over the rows of their folds that they read, built once
    # per call: a bare eigenfunction reads its row of the fold of its
    # level's stack (``_level_stack``), any other operand its own fold.
    # Returns the evaluator of that plan, which maps points x to one array per
    # request, each bit for bit and in the dtype of its word applied alone:
    # one Horner pass, which each row joins at its own degree, and every other
    # operation elementwise.  The requests of one call share a dtype: float64
    # and complex128 operands together raise DomainError.  A caller that
    # wants the same words at many node sets keeps the evaluator.
    requests = [(tuple(word), func, sign) for word, func, sign in requests]
    # one pass, before the memo, whose keys hash ("A", True) as ("A", 1)
    for word, func, sign in requests:
        _check_sign(sign)
        for member in func.funcs if isinstance(func, _OperandStack) else (func,):
            if (length := getattr(member, "params", params).length) != params.length:
                raise DomainError(f"an operand of length {length} under params of length {params.length}")
        for entry in word:
            if type(entry) is not tuple or not (len(entry) == 2 or len(entry) == 3 and entry[0] == "H"):
                raise DomainError(f"a word entry is a tuple (kind, level) or ('H', level, e), got {entry!r}")
            kind, level, *shift = entry
            if kind not in _KINDS:
                raise DomainError(f"unknown operator kind {kind!r}")
            e = shift[0] if shift else None
            if shift and (isinstance(e, bool) or not isinstance(e, numbers.Real) or not abs(e) <= sys.float_info.max):
                raise DomainError(f"a shifted entry is ('H', level, e), e finite and real, got {entry!r}")
            if type(level) is not int or level < 0:
                level_number(level)
    folds, cuts = [], []
    for word, func, sign in requests:
        if isinstance(func, EigenFunction):
            # a bare state is its row of its level's stack, which shares
            # every fold with the other states of the level
            folds.append(_fold(params, word, _level_stack(func.params, func.idx.m), sign))
            cuts.append(slice(func.idx.n, func.idx.n + 1))
        else:
            folds.append(_fold(params, word, func, sign))
            cuts.append(slice(None))
    if any(f.band.dtype != folds[0].band.dtype for f in folds):
        dtypes = sorted({str(f.band.dtype) for f in folds})
        raise DomainError(f"the words of one call need operands of one dtype, got {' and '.join(dtypes)}")
    plan = _plan(*folds, cuts=cuts)
    members = [(func, len(f.gamma[cut])) for (_, func, _), f, cut in zip(requests, folds, cuts)]

    def evaluate(x) -> list:
        arr = np.asarray(x, dtype=float)
        # NaN fails both comparisons; an empty x passes
        if not (arr.min(initial=math.inf) > 0.0 and arr.max(initial=-math.inf) < params.length):
            raise DomainError("operator applications need interior sample points")
        rows = _evaluate(params, plan, arr.ravel())
        out, start = [], 0
        for func, count in members:
            values = _members(func, rows[start : start + count])
            out.append(values.reshape(values.shape[:-1] + arr.shape)[()])
            start += count
        return out

    return evaluate


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
    # the evaluated term rows summed per member, in term order, from 0; where
    # every member has one term, its row as it is
    if not isinstance(func, _OperandStack):
        return rows[0] if len(rows) == 1 else sum(rows)
    if len(rows) == len(func.funcs):
        return rows
    out = np.zeros((len(func.funcs), rows.shape[1]), dtype=rows.dtype)
    for i, row in zip(func.owner, rows):
        out[i] += row
    return out


class _OperandStack:
    """Several operands as one, for ``apply_word``: the members' cotangent
    terms side by side, each tagged with the member it belongs to.  A value:
    stacks of the same members in the same order are equal and hash alike,
    so they share their folds."""

    def __init__(self, funcs):
        self.funcs = tuple(funcs)
        self.cot_terms = tuple(t for f in self.funcs for t in f.cot_terms)
        self.owner = np.array([i for i, f in enumerate(self.funcs) for _ in f.cot_terms])

    def __eq__(self, other):
        return isinstance(other, _OperandStack) and self.funcs == other.funcs

    def __hash__(self):
        return hash(self.funcs)


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


def _quad_details(error: float, evaluations: int) -> dict:
    # provenance of a quadrature residual: its error bound and the abscissas
    # of the integral it came from
    return {"quad_error": float(error), "quad_evaluations": evaluations}


@lru_cache(maxsize=256)
def _bump(params: ModelParams, seed: int) -> TrigPolyBump:
    # one bump per (params, seed), so its cotangent terms are computed once
    return TrigPolyBump(params, _BUMP_COEFFS[seed])


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


def passes(residual: float | str, threshold: float) -> bool:
    """The suite's pass rule: a residual passes strictly below its threshold,
    and a residual that is an error's name never passes."""
    return not isinstance(residual, str) and bool(residual < threshold)


@contextmanager
def _identity(results: list, indices: dict, grid_size: int, name: str):
    # yields the recorder of one identity's residual, a row for the name and
    # one per alias (informational if not in MANDATORY), or records a package error
    threshold, aliases = MANDATORY.get(name, (None, ()))

    def record(res, details=None):
        passed = None if threshold is None else passes(res, threshold)
        for i, row in enumerate((name, *aliases)):
            extra = (details or {}) if i == 0 else {"alias_of": name}
            results.append(IdentityResult(row, dict(indices), res, threshold, passed, threshold is None, grid_size, extra))

    try:
        yield record
    except PtsusyError as exc:
        record(type(exc).__name__, {"error": str(exc)})


@lru_cache(maxsize=256)
def _level_stack(params: ModelParams, level: int) -> _OperandStack:
    # every state of a level under the cap as one stack, member n the state
    # n: a word on any state of the level is folded once for all of them,
    # and each request plans only its own row
    return _OperandStack(eigenfunction(params, level, n) for n in range(LEVEL_CAP - level + 1))


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
    # at once, and residuals are taken member by member.  Equal stacks share
    # their folds, so the levels m and m + 1 of two cells fold once.
    corpus = {level: _OperandStack(test_corpus(params, level)) for level in {0, m, m + 1}}

    # Every word of the pointwise rows at the grid in one call, in report
    # order: annihilation, factorization, single-step intertwining both ways
    # and chain intertwining.  The corpus of level m + 1 holds states of
    # degree m + 4, which the caller has checked against the cap.
    ground = eigenfunction(params, m, 0)
    word_b = tuple(("A", k) for k in range(m + 1))
    requests = [
        ((("A", m),), ground, sign),
        ((), ground, sign),
        ((("H", m),), corpus[m], 1.0),
        ((("A", m), ("Adag", m)), corpus[m], sign),
        ((), corpus[m], sign),
        ((("A", m), ("H", m + 1)), corpus[m], sign),
        ((("H", m), ("A", m)), corpus[m], sign),
        ((("Adag", m), ("H", m)), corpus[m + 1], sign),
        ((("H", m + 1), ("Adag", m)), corpus[m + 1], sign),
        (word_b + (("H", m + 1),), corpus[0], sign),
        ((("H", 0),) + word_b, corpus[0], sign),
    ]
    ann, ground_grid, direct, chained, values, *pairs = _stacked_words(params, requests)(grid)

    # Ground-state annihilation at level m.
    with _identity(head, idx, grid_size, "ground_state_annihilation") as record:
        record(_rel(ann, 0.0, scale=float(np.max(np.abs(ground_grid)))))

    # Factorized Hamiltonian A_m^dag A_m / 2M + E_0^(m) reproduces the direct
    # one on the corpus.
    with _identity(head, idx, grid_size, "factorization") as record:
        fact = chained / two_m + energy(params, LevelIndex(m, 0)) * values
        record(max(_rel(f, d) for f, d in zip(fact, direct)))

    # Single-step intertwining, both directions.  An annihilated member, such
    # as the ground state under A_m, folds to exactly 0 on both sides.
    def worst_of(lhs, rhs, worst=0.0):
        return max([worst] + [_rel(lf, rf) for lf, rf in zip(lhs, rhs)])

    with _identity(head, idx, grid_size, "intertwining_single") as record:
        record(worst_of(*pairs[2:4], worst_of(*pairs[:2])))

    # Chain intertwining (equivalently, the supercharge commutator component).
    with _identity(head, idx, grid_size, "intertwining_chain") as record:
        record(worst_of(*pairs[4:]))

    # Adjoint consistency, <A psi, phi> and <psi, A^dag phi> as one two-component
    # integral; bumps keep both inner products away from zero.
    psi, phi = _bump(params, 201), _bump(params, 202)
    words = _stacked_words(
        params, [((("A", m),), psi, sign), ((), phi, sign), ((), psi, sign), ((("Adag", m),), phi, sign)]
    )

    def inner_pair(x):
        a_psi, phi_x, psi_x, adag_phi = words(x)
        return np.stack([np.conj(a_psi) * phi_x, np.conj(psi_x) * adag_phi])

    with _identity(tail, idx, grid_size, "adjoint_consistency") as record:
        L = params.length
        quad = integrate_interval(inner_pair, EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, _SUITE_CONFIG)
        va, vb = quad.value.tolist()
        record(abs(va - vb) / max(abs(va), abs(vb), 1e-300), _quad_details(np.sum(quad.error), quad.evaluations))

    return tuple(head), tuple(tail)


class _Component(NamedTuple):
    # one quadrature residual of an identity cell: its identity and residual
    # key, the requests of the words its integrand needs, the integrand from
    # their values, the factor from its error bound to the units of its row,
    # and the residual from its integral
    name: str
    key: str
    requests: tuple
    integrand: Callable[..., np.ndarray]
    error_unit: float
    residual: Callable[[float], float]


def _integrate_components(params: ModelParams, components: list, lo: float, hi: float):
    # one integral of the components on shared panels; every word they need
    # is folded and planned once and evaluated in one pass per node batch
    words = _stacked_words(params, [request for c in components for request in c.requests])

    def integrand(x):
        values = iter(words(x))
        return np.stack([c.integrand(*(next(values) for _ in c.requests)) for c in components])

    return integrate_interval(integrand, lo, hi, _SUITE_CONFIG)


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
    rows do not depend on what it holds.  The words of the pointwise rows are
    evaluated at the grid in one stacked pass per cell and one for the
    level rows; their operands are of degree at most the one checked up
    front, so no state they need is refused by the cap.

    The quadrature rows of the cell are one ``integrate_interval`` call, a
    component per residual on shared panels: ``mean_BBdag``, ``mean_BdagB``
    (n > m), the two partial-chain means (n != m) and ``eigen_residual``.  A
    chain mean is divided by its closed-form target, so that it integrates
    to about 1 and its residual is its scaled mean against 1; the mean of a
    chain that annihilates its state (the theta case, m >= 2n + 1) is
    divided by the natural unit and is its own residual.  The eigen residual
    |H phi / E - phi|^2 is weighted by ``_SUITE_CONFIG.abs_tol / 1e-16``, so
    that its tolerance is max(1e-16, 1e-11 |I|) in its own units.  Every
    component then meets the one tolerance it met as an integral of its own,
    and no component outweighs the others so far that it draws every split
    of the panels.  Each row reports its own components' error bound, in the
    units of its unscaled integrand, and the abscissas of the shared
    integral.  A ``PtsusyError`` of that integral is recorded in the
    informational rows it serves, and the mandatory components are then
    integrated again without them, so that an informational component that
    cannot converge leaves the mandatory verdicts as they are; an error of
    the mandatory integral is recorded in the row of every identity it
    serves.  The pointwise rows keep their verdicts.  The
    partial-chain means need the state n of level n + 1 (degree 2n + 1):
    above the cap that row alone records ``DegreeCapError``, and the other
    components still integrate.  Under the negative control (sign -1) no
    closed form describes the chain means ``mean_BBdag`` and ``mean_BdagB``,
    so each is integrated alone and unscaled, as its own identity.
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
    # Every word of the pointwise rows at the grid in one call, by name; the
    # operands are of degree at most n + m + 1, under the cap checked above.
    pointwise = {
        "phi_up": ((), phi_up),
        "BdagB": (word_b + word_bdag, phi_n),
        "phi_n": ((), phi_n),
        "BBdag": (word_bdag + word_b, phi_up),
        "ladder": (word_b, eigenfunction(params, 0, n + m + 1)),
    }
    if n != m:
        pointwise["mixed"] = (word_bdag + word_b[: n + 1] + lam, phi_up)
    if n > m:
        phi_hi = eigenfunction(params, n + 1, 0)
        pointwise.update(lam=(lam, phi_up), partial=(lam_dag + lam, phi_hi), phi_hi=((), phi_hi))
    elif n < m:  # Theta, then the operator polynomial prod_k (H_(n+1) - E_0^(k))
        pointwise["theta"] = (theta + tuple(("H", n + 1, e0_level(k)) for k in range(n + 1)), phi_up)
    requests = [(word, func, sign) for word, func in pointwise.values()]
    at_grid = dict(zip(pointwise, _stacked_words(params, requests)(grid)))
    phi_up_grid = at_grid["phi_up"]

    def chain_eigenvalue(e, levels):
        # (2M)^len(levels) prod_k (e - E_0^(k)), multiplied in level order
        value = two_m ** len(levels)
        for k in levels:
            value *= e - e0_level(k)
        return value

    def mean(name, key, word, state, target, chain_sign=1.0, unit=1.0):
        # |word state|^2 as a component of a quadrature, divided by its
        # closed-form target, so that it integrates to about 1.  A target of
        # None stands for a closed form that vanishes identically: the mean
        # in units of unit is then the residual.  A target that is 0 or not
        # finite, and a chain of the negative control, which no closed form
        # describes, are integrated unscaled.
        if target is None:
            scale, error_unit = unit, 1.0
        elif chain_sign > 0 and math.isfinite(target) and target != 0.0:
            scale = target
            error_unit = abs(scale)
        else:
            scale = error_unit = 1.0
        return _Component(
            name,
            key,
            ((word, state, chain_sign),),
            lambda values: np.abs(values) ** 2 / scale,
            error_unit,
            lambda value: value if target is None else _rel(value, target / scale),
        )

    def partial_means():
        # the components of the partial-chain means, on the state n of level n + 1
        name = "partial_chain_means"
        state_hi = eigenfunction(params, n + 1, n)
        if n > m:
            target = rung ** (2 * (n - m)) * gap_factor_N(params, n, n) / gap_factor_N(params, n, m)
            ratio = gap_factor_M(params, m, n) / gap_factor_M(params, n, m)
            return [
                mean(name, "lambda_lambdadag", lam_dag, state_hi, target),
                mean(name, "lambdadag_lambda", lam, phi_up, (rung ** (n - m) * ratio) ** 2),
            ]
        unit = rung ** (2 * (m - n))
        target = unit * gap_factor_N(params, n, m) / gap_factor_N(params, n, n)
        ratio = gap_factor_M(params, n, m) / gap_factor_M(params, m, n)
        # a closed-form factor that vanishes (m >= 2n + 1): the chain
        # annihilates the state, so the mean is integrated against zero in
        # natural units
        return [
            mean(name, "theta_thetadag", theta_dag, state_hi, None if target == 0.0 else target, unit=unit),
            mean(name, "thetadag_theta", theta, phi_up, (rung ** (m - n) * ratio) ** 2),
        ]

    identity = partial(_identity, results, idx, grid_size)

    # Product identities on eigenstates (the supercharge anticommutator blocks).
    # For n <= m one energy factor vanishes and the content is annihilation of
    # the chain: the residual is scaled by the other factors, so it does not
    # rest on the fold leaving the chain exactly 0.
    with identity("product_BdagB") as record:
        lhs, phi_n_grid = at_grid["BdagB"], at_grid["phi_n"]
        scale = two_m ** (m + 1) * float(np.max(np.abs(phi_n_grid)))
        for k in range(m + 1):
            if k != n:
                scale *= abs(phi_n.energy - e0_level(k))
        rhs = chain_eigenvalue(phi_n.energy, range(m + 1)) * phi_n_grid
        record(_rel(lhs, rhs, scale=scale), {"annihilating_branch": n <= m})

    eig_up = chain_eigenvalue(phi_up.energy, range(m + 1))
    with identity("product_BBdag") as record:
        record(_rel(at_grid["BBdag"], eig_up * phi_up_grid))

    # Chain action with the closed-form gap factor.
    pref = rung ** (m + 1) * gap_factor_M(params, n, m)
    with identity("ladder_action") as record:
        record(_rel(at_grid["ladder"], pref * phi_up_grid))

    # The quadrature rows of the cell are the components of one integral on
    # shared panels: the chain means, the partial-chain means and the eigen
    # residual, each scaled so that _SUITE_CONFIG's one tolerance is its own.
    # The partial means need the state n of level n + 1, of degree 2n + 1,
    # which may exceed the cap: their identity alone then records the error,
    # and the other components still integrate.
    components = [mean("mean_BBdag", "mean_BBdag", word_bdag, phi_up, pref**2, sign)]
    if n > m:
        pref_n = rung ** (m + 1) * gap_factor_M(params, n - m - 1, m)
        components.append(mean("mean_BdagB", "mean_BdagB", word_b, phi_n, pref_n**2, sign))
    outcomes = {}
    if n != m:
        try:
            components += partial_means()
        except PtsusyError as exc:
            outcomes["partial_chain_means"] = exc
    # Eigen-residual of the level-m state n, relative to its energy.  A
    # residual at the 1e-6 threshold squares to 1e-12; weighted by
    # abs_tol / 1e-16, its tolerance is max(1e-16, rel_tol * |I|) in the
    # units of |H phi / E - phi|^2, which resolves it to 1e-8 and leaves the
    # roundoff below unresolved.
    weight, e_val = _SUITE_CONFIG.abs_tol / 1e-16, phi_m.energy
    components.append(
        _Component(
            "eigen_residual",
            "eigen_residual",
            (((("H", m),), phi_m, 1.0), ((), phi_m, 1.0)),
            lambda h_phi, phi: np.abs(h_phi / e_val - phi) ** 2 * weight,
            1.0 / weight,
            lambda value: math.sqrt(max(value / weight, 0.0)),
        )
    )
    # A chain mean of the negative control (sign -1) may exceed the others by
    # orders of magnitude and draw every split of a shared integral, so that
    # the others never meet their tolerance (see integrate_interval): each is
    # integrated alone.
    # An informational component that stalls the shared integral keeps its
    # error, and the mandatory components are integrated again without it.
    groups = [[c for c in components if c.requests[0][2] > 0]]
    groups += [[c] for c in components if c.requests[0][2] < 0]
    while groups:
        group = groups.pop(0)
        try:
            quad = _integrate_components(params, group, lo, hi)
        except PtsusyError as exc:
            mandatory = [c for c in group if c.name in MANDATORY]
            retry = 0 < len(mandatory) < len(group)
            outcomes.update((c.name, exc) for c in group if not retry or c.name not in MANDATORY)
            if retry:
                groups.insert(0, mandatory)
            continue
        for c, value, error in zip(group, quad.value.real.tolist(), quad.error.tolist()):
            residuals, details = outcomes.setdefault(c.name, ({}, _quad_details(0.0, quad.evaluations)))
            residuals[c.key] = c.residual(value)
            details["quad_error"] += error * c.error_unit

    def integrated(name):
        # the residuals of identity name's components by key, and the error
        # bound (in the units of its unscaled integrand, |word state|^2 / unit
        # for a vanishing target) and abscissas of their integral; a package
        # error from its state or from that integral ends the identity
        outcome = outcomes[name]
        if isinstance(outcome, PtsusyError):
            raise outcome
        return outcome

    # Mean values of the chain products by quadrature.
    for name in ("mean_BBdag", "mean_BdagB") if n > m else ("mean_BBdag",):
        with identity(name) as record:
            residuals, details = integrated(name)
            record(residuals[name], details)

    results.extend(stamped(tail))

    with identity("eigen_residual") as record:
        residuals, details = integrated("eigen_residual")
        record(residuals["eigen_residual"], details)

    # Mixed chain products: evaluate every well-formed printed variant.
    # The operand index n keeps the chains from annihilating either side.
    if n != m:
        with identity("mixed_product") as record:
            form, rhs = ("lambda_form", eig_up * at_grid["lam"]) if n > m else ("theta_form", two_m ** (n + 1) * at_grid["theta"])
            residual = _rel(at_grid["mixed"], rhs)
            record(residual, {form: residual, "matching_variant": form})

    # Partial-chain products with both candidate prefactors.
    if n > m:
        with identity("partial_chain_product") as record:
            lhs, phi_hi_grid = at_grid["partial"], at_grid["phi_hi"]
            core = 1.0
            for k in range(m + 1, n + 1):
                core *= phi_hi.energy - e0_level(k)
            variants = {
                "mass_prefactor": _rel(lhs, two_m ** (n - m) * core * phi_hi_grid),
                "index_prefactor": _rel(lhs, (2.0 * m) ** (n - m) * core * phi_hi_grid) if m > 0 else float("inf"),
            }
            variants["matching_variant"] = min(("mass_prefactor", "index_prefactor"), key=lambda k: variants[k])
            record(variants[variants["matching_variant"]], variants)

    # Partial-chain mean values (quadrature route).
    if n != m:
        with identity("partial_chain_means") as record:
            residuals, details = integrated("partial_chain_means")
            record(max(residuals.values()), {**residuals, **details})

    return results
