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
member.

A word is folded one operator at a time on top of the fold of its prefix.
Calls that share a ``folds`` dict fold each (operand, prefix, sign) once and
keep it there, together with each folded word's evaluation plan: Q cut at
the noise floor, the degree of every row and the rows in falling degree.
The plan is evaluated in one Horner pass, which a row joins at its own
degree, so each row goes through the same operations as when it is
evaluated alone.

The verification suite evaluates every operator identity of the hierarchy on
sample grids and reports one relative residual per identity, flagging the
deliberately ambiguous ones as informational rather than asserting them.
One call shares one ``folds`` dict among all its words, including the
integrands of its quadratures, and drops it on return.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PtsusyError
from .quadrature import DEFAULT_CONFIG, IntegralResult, QuadratureConfig, integrate_interval
from .spectrum import LevelIndex, ModelParams, energy, gap_factor_M, gap_factor_N
from .wavefn import _leading_loop, eigenfunction

#: Relative clamp keeping operator evaluations away from the wall singularities.
EDGE_CLAMP = 1e-6


class TrigPolyBump:
    """Smooth Dirichlet test function: sin^2 envelope times a random sine sum."""

    def __init__(self, params: ModelParams, seed: int, n_modes: int = 4):
        self.params = params
        rng = np.random.default_rng(seed)
        self.coeffs = rng.normal(size=n_modes)

    def __call__(self, x):
        theta = math.pi * np.asarray(x, dtype=float) / self.params.length
        acc = np.zeros_like(theta)
        for j, cj in enumerate(self.coeffs, start=1):
            acc += cj * np.sin(j * theta)
        return np.sin(theta) ** 2 * acc

    @cached_property
    def cot_terms(self) -> tuple:
        # sin j theta = s^j Im (c + i)^j and s^-2 = 1 + c^2: the odd modes and
        # the even modes are one term s^a Q(c) each, a = 2 + the top mode
        terms = []
        for first in (1, 2):
            modes = range(first, len(self.coeffs) + 1, 2)
            if not modes:
                continue
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
            terms.append((0.0, 0.0, float(a), q.astype(complex)))
        return tuple(terms)


#: A folded coefficient of Q no larger than this fraction of the sum of the
#: magnitudes it was computed from is zero to working precision.  Near a wall
#: cot^j amplifies such noise without bound: a chain that lowers the degree of
#: its operand leaves its top coefficients at roundoff, not at zero.
NOISE_FLOOR = 1e-12


class _Terms(NamedTuple):
    # cotangent terms as arrays over terms, Q zero-padded to a common width;
    # mag holds, per coefficient of Q, the sum of the magnitudes it came from
    log_c: np.ndarray
    gamma: np.ndarray
    power: np.ndarray
    coeffs: np.ndarray
    mag: np.ndarray

    @classmethod
    def of(cls, terms) -> "_Terms":
        log_c, gamma, power, qs = zip(*terms)
        coeffs = np.zeros((len(qs), max(map(len, qs))), dtype=complex)
        for row, q in zip(coeffs, qs):
            row[: len(q)] = q
        return cls(np.array(log_c), np.array(gamma, dtype=complex), np.array(power), coeffs, np.abs(coeffs))


def _d_dx(params: ModelParams, terms: _Terms, q: np.ndarray, lift=np.positive) -> np.ndarray:
    # coefficient j of the new Q: gamma q_j + k (a - j + 1) q_(j-1) - k (j + 1) q_(j+1);
    # with lift=np.abs, the same sum over magnitudes
    k = math.pi / params.length
    n = q.shape[1]
    j = np.arange(n)
    out = np.zeros((q.shape[0], n + 1), dtype=q.dtype)
    out[:, :n] = lift(terms.gamma)[:, None] * q
    out[:, 1:] += lift(k * (terms.power[:, None] - j)) * q
    out[:, : n - 1] += lift(-k * j[1:]) * q[:, 1:]
    return out


def _times(poly, q: np.ndarray) -> np.ndarray:
    # product with the polynomial poly in c, lowest coefficient first
    n = q.shape[1]
    out = np.zeros((q.shape[0], n + len(poly) - 1), dtype=q.dtype)
    for i, p in enumerate(poly):
        out[:, i : i + n] += p * q
    return out


def _step(params: ModelParams, kind: str, level: int, terms: _Terms, sign: float, shift: float = 0.0) -> _Terms:
    # one operator applied to Q and to its magnitudes; an "H" step subtracts shift * Q
    if kind in ("A", "Adag"):
        lvl = params.nu + level + 1.0
        unit = -sign * math.pi * params.hbar / params.length
        poly = ((-params.beta / lvl) * unit, lvl * unit)
        scale = params.hbar if kind == "A" else -params.hbar

        def op(q, lift):
            return _d_dx(params, terms, q, lift) * lift(scale) + _times(lift(poly), q)

    elif kind == "H":
        lvl = params.nu + level
        strength = lvl * (lvl + 1.0) * params.epsilon0
        poly = (strength - shift, -2.0 * params.beta * params.epsilon0, strength)
        scale = -(params.hbar**2) / (2.0 * params.mass)

        def op(q, lift):
            return _d_dx(params, terms, _d_dx(params, terms, q, lift), lift) * lift(scale) + _times(lift(poly), q)

    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return terms._replace(coeffs=op(terms.coeffs, np.positive), mag=op(terms.mag, np.abs))


class _Plan(NamedTuple):
    # a folded word prepared for evaluation, rows sorted by falling degree d:
    # Q cut at the noise floor, each row's q_d, the leading row count still in
    # Horner's loop at each power j < top degree, the term index of each row,
    # and the exponent's coefficients with the sine power a - d
    q: np.ndarray
    top: np.ndarray
    loop: tuple
    order: np.ndarray
    log_c: np.ndarray
    gamma: np.ndarray
    sin_power: np.ndarray


def _plan(terms: _Terms) -> _Plan:
    # Coefficients under the noise floor are dropped and every term is
    # evaluated at the degree d of its top remaining coefficient, so a row
    # does not depend on the other terms it is stacked with.
    q = np.where(np.abs(terms.coeffs) > NOISE_FLOOR * terms.mag, terms.coeffs, 0.0)
    nonzero = q != 0.0
    degree = np.where(nonzero.any(axis=1), q.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    order = np.argsort(-degree, kind="stable")
    degree = degree[order]
    q = q[order]
    top = q[np.arange(len(q)), degree]
    return _Plan(q, top, _leading_loop(degree), order, terms.log_c[order], terms.gamma[order], terms.power[order] - degree)


def _evaluate(params: ModelParams, plan: _Plan, x: np.ndarray) -> np.ndarray:
    # rows of C e^(gamma x) s^(a-d) sum_j q_j cos^j s^(d-j) at the 1-d points
    # x, in term order.  One Horner pass runs from the top degree down; a row
    # joins it at its own degree, so it sees the same operations in the same
    # order as when it is evaluated alone.
    theta = x * (math.pi / params.length)
    s, cos = np.sin(theta), np.cos(theta)
    acc = np.repeat(plan.top[:, None], x.size, axis=1)
    s_pow = np.ones(acc.shape)
    for j, k in plan.loop:
        s_pow[:k] *= s
        acc[:k] = acc[:k] * cos + plan.q[:k, j, None] * s_pow[:k]
    expo = plan.log_c[:, None] + plan.gamma[:, None] * x + plan.sin_power[:, None] * np.log(s)
    rows = np.empty_like(acc)
    rows[plan.order] = np.exp(expo) * acc
    return rows


class _Fold:
    # a word folded on an operand; the operand is kept so that its id, part
    # of the key in a folds dict, is not reused while the dict lives
    def __init__(self, func, terms: _Terms):
        self.func = func
        self.terms = terms

    @cached_property
    def plan(self) -> _Plan:
        return _plan(self.terms)


def _fold(params: ModelParams, word: tuple, func, sign: float, folds: dict) -> _Fold:
    # the fold of word on func, extending the fold of word[:-1] by one step;
    # every (operand, prefix, sign) is folded once per folds dict
    key = (id(func), word, sign)
    if key not in folds:
        if word:
            terms = _step(params, *word[-1], _fold(params, word[:-1], func, sign, folds).terms, sign)
        else:
            terms = _Terms.of(func.cot_terms)
        folds[key] = _Fold(func, terms)
    return folds[key]


def apply_word(params: ModelParams, word, func, x, sign: float = 1.0, *, folds: dict | None = None):
    """Apply a sequence of operators (first entry acts first) at points x.

    Word entries are ("A", level), ("Adag", level), or ("H", level).  Returns
    the complex values of the resulting function at x, of shape x.shape.  The
    word is folded on the operand's ``cot_terms`` and the result is evaluated
    at x, a scalar being one point of a 1-d grid, so the value at a point
    does not depend on the other points.  A stacked operand (``_OperandStack``
    of k functions) gives shape (k, *x.shape), row i bit-identical to
    applying the word to member i alone.

    ``folds`` is a dict shared by calls that may repeat words or their
    prefixes: the fold of each (operand, prefix, sign) and the evaluation plan
    of each word are then computed once and kept in it, and a word extends
    its longest folded prefix.  The values are bit-identical either way.  The
    dict holds its operands, so it should live no longer than one batch of
    calls.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < params.length)):
        raise DomainError("operator applications need interior sample points")
    fold = _fold(params, tuple(word), func, sign, {} if folds is None else folds)
    out = _members(func, _evaluate(params, fold.plan, arr.ravel()))
    return out.reshape(out.shape[:-1] + arr.shape)[()]


def _members(func, rows: np.ndarray) -> np.ndarray:
    # the evaluated term rows summed per member, in term order
    stacked = isinstance(func, _OperandStack)
    owner = func.owner if stacked else np.zeros(len(rows), dtype=int)
    out = np.zeros((owner[-1] + 1, rows.shape[1]), dtype=complex)
    for i, row in zip(owner, rows):
        out[i] += row
    return out if stacked else out[0]


class _OperandStack:
    """Several operands as one, for ``apply_word``: the members' cotangent
    terms side by side, each tagged with the member it belongs to."""

    def __init__(self, funcs):
        self.funcs = list(funcs)
        self.cot_terms = tuple(t for f in self.funcs for t in f.cot_terms)
        self.owner = np.array([i for i, f in enumerate(self.funcs) for _ in f.cot_terms])

    def __iter__(self):
        return iter(self.funcs)


def default_grid(params: ModelParams, size: int = 161, clamp: float = 0.02) -> np.ndarray:
    """Uniform interior grid clamped away from the walls.

    Identity checks use a clamp of 0.02 L, and 0.1 L for chains of depth
    three and beyond (see ``verify_operator_identities``).  Quadrature keeps
    the much smaller EDGE_CLAMP since integrals weight the edge region by its
    tiny measure.
    """
    L = params.length
    return np.linspace(clamp * L, (1.0 - clamp) * L, size)


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


def _rel(lhs: np.ndarray, rhs: np.ndarray, scale: float | None = None) -> float:
    lhs = np.asarray(lhs)
    rhs = np.asarray(rhs)
    num = float(np.max(np.abs(lhs - rhs)))
    if scale is None:
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return num / max(scale, 1e-300)


def _norm_sq(params: ModelParams, word, func, config: QuadratureConfig, sign: float, folds: dict, unit=1.0):
    # the squared norm of the word applied to func, in units of unit
    L = params.length

    def integrand(x):
        vals = apply_word(params, word, func, x, sign, folds=folds)
        return np.abs(vals) ** 2 / unit

    return integrate_interval(integrand, EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, config)


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


def test_corpus(params: ModelParams, m: int, n_eigen: int = 4, n_bumps: int = 2):
    """Standard operand set: low eigenfunctions of level m plus seeded bumps."""
    funcs = [eigenfunction(params, m, n) for n in range(n_eigen)]
    funcs += [_bump(params, seed) for seed in (101, 102)[:n_bumps]]
    return funcs


def verify_operator_identities(
    params: ModelParams,
    n: int,
    m: int,
    grid_size: int = 161,
    sign: float = 1.0,
    config: QuadratureConfig | None = None,
) -> list[IdentityResult]:
    """Evaluate the full operator identity suite at indices (n, m).

    Mandatory identities carry thresholds and a pass flag; identities whose
    printed form is ambiguous are evaluated in every well-formed variant and
    reported as informational, with the matching variant recorded.  A
    ``PtsusyError`` inside one identity, such as a state above the level cap
    or an integral out of panels, ends only that identity: its rows carry
    the error's type name as the residual and its message under "error" in
    details, and are not passed if mandatory, skipped if informational.

    Depth-1 and depth-2 words are checked on [0.02 L, 0.98 L] and chains of
    depth three and beyond on the bulk span [0.1 L, 0.9 L].  The bulk span is
    load-bearing.  On nu = 1, beta = 2 the residuals are the same at 1e-3 L
    as in the bulk, but on nu = 0, beta = 0 the ``product_BBdag`` residual
    grows toward the walls with the chain depth: at a 1e-3 L clamp it fails
    at 17 of the cells n, m <= 8, all with m >= 5 (2.0e-5 at (3, 6)), and
    on [0.02 L, 0.98 L] at (2, 8) (2.4e-9).  The wall behavior is pinned by
    the quadrature identities, whose integrals run to within 1e-6 L of the
    walls.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, abs_tol=1e-13, rel_tol=1e-11)
    grid = default_grid(params, grid_size)
    bulk = default_grid(params, grid_size, clamp=0.1)
    results: list[IdentityResult] = []
    hbar, L = params.hbar, params.length
    two_m = 2.0 * params.mass
    e0_level = lambda k: energy(params, LevelIndex(0, k))
    idx = {"n": n, "m": m}
    # one fold per (operand, word prefix, sign) for this call's words
    folds: dict = {}
    # the standard operands of a level as one stack, built once per call: a
    # word folds all members at once, and residuals are taken member by member
    corpus = lru_cache(maxsize=None)(lambda level: _OperandStack(test_corpus(params, level)))
    on_bulk = lru_cache(maxsize=None)(lambda state: state(bulk))

    @contextmanager
    def identity(*names, threshold=None):
        # yields the recorder of one identity's residual, a row per name with
        # the later names aliases of the first, or records a package error
        def record(res, details=None):
            passed = None if threshold is None else not isinstance(res, str) and bool(res < threshold)
            for i, name in enumerate(names):
                extra = (details or {}) if i == 0 else {"alias_of": names[0]}
                results.append(IdentityResult(name, dict(idx), res, threshold, passed, threshold is None, grid_size, extra))

        try:
            yield record
        except PtsusyError as exc:
            record(type(exc).__name__, {"error": str(exc)})

    # Ground-state annihilation at level m.
    with identity("ground_state_annihilation", threshold=1e-9) as record:
        ground = eigenfunction(params, m, 0)
        ann = apply_word(params, (("A", m),), ground, grid, sign, folds=folds)
        record(_rel(ann, np.zeros_like(ann), scale=float(np.max(np.abs(ground(grid))))))

    # Factorized Hamiltonian A_m^dag A_m / 2M + E_0^(m) reproduces the direct
    # one on the corpus.
    with identity("factorization", threshold=1e-9) as record:
        e0_m = energy(params, LevelIndex(m, 0))
        worst = 0.0
        direct = apply_word(params, (("H", m),), corpus(m), grid, folds=folds)
        chained = apply_word(params, (("A", m), ("Adag", m)), corpus(m), grid, sign, folds=folds)
        for f, d, c in zip(corpus(m), direct, chained):
            fact = c / two_m + e0_m * np.asarray(f(grid), dtype=complex)
            worst = max(worst, _rel(fact, d))
        record(worst)

    # Single-step intertwining, both directions.  An annihilated member, such
    # as the ground state under A_m, folds to exactly 0 on both sides.
    def worst_of(stack, lhs_word, rhs_word, worst=0.0):
        lhs = apply_word(params, lhs_word, stack, bulk, sign, folds=folds)
        rhs = apply_word(params, rhs_word, stack, bulk, sign, folds=folds)
        return max([worst] + [_rel(lf, rf) for lf, rf in zip(lhs, rhs)])

    with identity("intertwining_single", threshold=1e-7) as record:
        worst = worst_of(corpus(m), (("A", m), ("H", m + 1)), (("H", m), ("A", m)))
        record(worst_of(corpus(m + 1), (("Adag", m), ("H", m)), (("H", m + 1), ("Adag", m)), worst))

    # Chain intertwining (equivalently, the supercharge commutator component).
    word_b = tuple(("A", k) for k in range(m + 1))
    with identity("intertwining_chain", "supercharge_commutator", threshold=1e-7) as record:
        record(worst_of(corpus(0), word_b + (("H", m + 1),), (("H", 0),) + word_b))

    # Product identities on eigenstates (the supercharge anticommutator blocks).
    # For n <= m one energy factor vanishes and the content is annihilation of
    # the chain: the residual is scaled by the other factors, so it does not
    # rest on the fold leaving the chain exactly 0.
    word_bdag = tuple(("Adag", k) for k in range(m, -1, -1))
    with identity("product_BdagB", "supercharge_anticommutator_block0", threshold=1e-9) as record:
        phi_n = eigenfunction(params, 0, n)
        lhs = apply_word(params, word_b + word_bdag, phi_n, bulk, sign, folds=folds)
        scalar = two_m ** (m + 1)
        phi_n_bulk = on_bulk(phi_n)
        scale = two_m ** (m + 1) * float(np.max(np.abs(phi_n_bulk)))
        for k in range(m + 1):
            scalar *= e0_level(n) - e0_level(k)
            if k != n:
                scale *= abs(e0_level(n) - e0_level(k))
        record(_rel(lhs, scalar * phi_n_bulk, scale=scale), {"annihilating_branch": n <= m})

    with identity("product_BBdag", "supercharge_anticommutator_block1", threshold=1e-9) as record:
        phi_up = eigenfunction(params, m + 1, n)
        lhs = apply_word(params, word_bdag + word_b, phi_up, bulk, sign, folds=folds)
        scalar = two_m ** (m + 1)
        e_up = energy(params, LevelIndex(m + 1, n))
        for k in range(m + 1):
            scalar *= e_up - e0_level(k)
        record(_rel(lhs, scalar * on_bulk(phi_up)))

    # Chain action with the closed-form gap factor.
    pref = (math.pi * hbar / L) ** (m + 1) * gap_factor_M(params, n, m)
    with identity("ladder_action", threshold=1e-8) as record:
        lhs = apply_word(params, word_b, eigenfunction(params, 0, n + m + 1), bulk, sign, folds=folds)
        record(_rel(lhs, pref * on_bulk(eigenfunction(params, m + 1, n))))

    # Mean values of the chain products by quadrature.
    with identity("mean_BBdag", threshold=1e-8) as record:
        quad = _norm_sq(params, word_bdag, eigenfunction(params, m + 1, n), config, sign, folds)
        record(_rel(np.array([quad.value.real]), np.array([pref**2])), _quad_details(quad))
    if n > m:
        with identity("mean_BdagB", threshold=1e-8) as record:
            quad = _norm_sq(params, word_b, eigenfunction(params, 0, n), config, sign, folds)
            pref_n = (math.pi * hbar / L) ** (m + 1) * gap_factor_M(params, n - m - 1, m)
            record(_rel(np.array([quad.value.real]), np.array([pref_n**2])), _quad_details(quad))

    # Adjoint consistency, <A psi, phi> and <psi, A^dag phi> as one two-component
    # integral; bumps keep both inner products away from zero.
    psi, phi = _bump(params, 201), _bump(params, 202)
    lo, hi = EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L

    def inner_pair(x):
        left = np.conj(apply_word(params, (("A", m),), psi, x, sign, folds=folds)) * phi(x)
        return np.stack([left, np.conj(psi(x)) * apply_word(params, (("Adag", m),), phi, x, sign, folds=folds)])

    with identity("adjoint_consistency", threshold=1e-9) as record:
        quad = integrate_interval(inner_pair, lo, hi, config)
        va, vb = quad.value.tolist()
        record(abs(va - vb) / max(abs(va), abs(vb), 1e-300), _quad_details(quad))

    # Eigen-residual of the level-m state n, relative to its energy.  A
    # residual at the 1e-6 threshold squares to 1e-12; an absolute tolerance
    # of 1e-16 resolves it to 1e-8 and leaves the roundoff below unresolved.
    with identity("eigen_residual", threshold=1e-6) as record:
        phi_m = eigenfunction(params, m, n)
        e_val = energy(params, LevelIndex(m, n))

        def resid_sq(x):
            return np.abs(apply_word(params, (("H", m),), phi_m, x, folds=folds) / e_val - phi_m(x)) ** 2

        quad = integrate_interval(resid_sq, lo, hi, replace(config, abs_tol=1e-16))
        record(math.sqrt(max(quad.value.real, 0.0)), _quad_details(quad))

    # Mixed chain products: evaluate every well-formed printed variant.
    # The operand index n keeps the chains from annihilating either side.
    if n != m:
        with identity("mixed_product") as record:
            psi_mixed = eigenfunction(params, m + 1, n)
            word_bn = tuple(("A", k) for k in range(n + 1))
            lhs = apply_word(params, word_bdag + word_bn, psi_mixed, bulk, sign, folds=folds)
            details = {}
            if n > m:
                lam = tuple(("A", k) for k in range(m + 1, n + 1))
                scalar = two_m ** (m + 1)
                e_psi = energy(params, LevelIndex(m + 1, n))
                for k in range(m + 1):
                    scalar *= e_psi - e0_level(k)
                rhs = scalar * apply_word(params, lam, psi_mixed, bulk, sign, folds=folds)
                details["lambda_form"] = _rel(lhs, rhs)
            else:
                theta = tuple(("Adag", k) for k in range(m, n, -1))
                # theta first, then the operator polynomial prod_k (H - E_k) folded directly
                terms = _fold(params, theta, psi_mixed, sign, folds).terms
                for k in range(n + 1):
                    terms = _step(params, "H", n + 1, terms, sign, shift=e0_level(k))
                rhs = two_m ** (n + 1) * _members(psi_mixed, _evaluate(params, _plan(terms), bulk))
                details["theta_form"] = _rel(lhs, rhs)
            (best,) = details
            details["matching_variant"] = best
            record(details[best], details)

    # Partial-chain products with both candidate prefactors.
    if n > m:
        with identity("partial_chain_product") as record:
            lam = tuple(("A", k) for k in range(m + 1, n + 1))
            lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
            phi_hi = eigenfunction(params, n + 1, 0)
            e_hi = energy(params, LevelIndex(n + 1, 0))
            lhs = apply_word(params, lam_dag + lam, phi_hi, bulk, sign, folds=folds)
            core = 1.0
            for k in range(m + 1, n + 1):
                core *= e_hi - e0_level(k)
            phi_hi_bulk = on_bulk(phi_hi)
            variants = {
                "mass_prefactor": _rel(lhs, two_m ** (n - m) * core * phi_hi_bulk),
                "index_prefactor": _rel(lhs, (2.0 * m) ** (n - m) * core * phi_hi_bulk) if m > 0 else float("inf"),
            }
            variants["matching_variant"] = min(("mass_prefactor", "index_prefactor"), key=lambda k: variants[k])
            record(variants[variants["matching_variant"]], variants)

    # Partial-chain mean values (quadrature route).
    if n != m:
        with identity("partial_chain_means") as record:
            mean_details = {}
            mean_quads = []

            def chain_mean(word, state, unit=1.0) -> float:
                quad = _norm_sq(params, word, state, config, 1.0, folds, unit)
                mean_quads.append(quad)
                return float(quad.value.real)

            state_hi = eigenfunction(params, n + 1, n)
            state_mid = eigenfunction(params, m + 1, n)
            if n > m:
                lam = tuple(("A", k) for k in range(m + 1, n + 1))
                lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
                mean = chain_mean(lam_dag, state_hi)
                target = (hbar * math.pi / L) ** (2 * (n - m)) * gap_factor_N(params, n, n) / gap_factor_N(params, n, m)
                mean_details["lambda_lambdadag"] = _rel(np.array([mean]), np.array([target]))
                mean = chain_mean(lam, state_mid)
                ratio = gap_factor_M(params, m, n) / gap_factor_M(params, n, m)
                target = ((hbar * math.pi / L) ** (n - m) * ratio) ** 2
                mean_details["lambdadag_lambda"] = _rel(np.array([mean]), np.array([target]))
            else:
                theta = tuple(("Adag", k) for k in range(m, n, -1))
                theta_dag = tuple(("A", k) for k in range(n + 1, m + 1))
                unit = (hbar * math.pi / L) ** (2 * (m - n))
                target = unit * gap_factor_N(params, n, m) / gap_factor_N(params, n, n)
                if target == 0.0:
                    # closed-form factor vanishes (m >= 2n+1): the chain annihilates
                    # the state, so the mean is integrated against zero in natural units
                    mean_details["theta_thetadag"] = chain_mean(theta_dag, state_hi, unit)
                else:
                    mean_details["theta_thetadag"] = _rel(np.array([chain_mean(theta_dag, state_hi)]), np.array([target]))
                mean = chain_mean(theta, state_mid)
                ratio = gap_factor_M(params, n, m) / gap_factor_M(params, m, n)
                target = ((hbar * math.pi / L) ** (m - n) * ratio) ** 2
                mean_details["thetadag_theta"] = _rel(np.array([mean]), np.array([target]))
            record(max(mean_details.values()), {**mean_details, **_quad_details(*mean_quads)})

    return results
