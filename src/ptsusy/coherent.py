"""Coherent states of the lowering operator at a fixed hierarchy level.

A state is labelled by a phase-space point (q, p): it is the ground state of
the level tilted by exp((W(q) + i p) x / hbar) and renormalized.  Because the
ground state's own exponential tilt cancels the magnetic part of W exactly,
everything reduces to one analytic family of integrals

    (1/L) int_0^L sin(pi x / L)^(2 d + 2) exp(z x / L) dx
        = Gamma(2d+3) exp(z/2) / (4**(d+1) Gamma(d+2+iz/2pi) Gamma(d+2-iz/2pi))

valid for d > -3/2 and any complex z.  Normalization constants, overlaps, and
the diagonal kernel of the phase-space completeness relation are all assembled
from this in log space, so wall-adjacent points (where cot(pi q/L) blows up)
stay finite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .operators import EDGE_CLAMP, operand_values
from .quadrature import DEFAULT_CONFIG, integrate_real_line
from .specfun import log_abs_gamma, log_gamma
from .spectrum import ModelParams, level_number
from .wavefn import _gram, eigenfunction, log_ground_constant

_LN4 = math.log(4.0)
#: Most points one ``log_abs_gamma`` call of ``resolution_kernel`` receives;
#: its working array is 14 x block floats.  Larger is faster but bigger: a warm
#: ``completeness`` benchmark pass (seed 1, 2-core x86, median of 5 processes)
#: took 7.2, 6.5 and 6.6 ms at 4096, 16384 and no bound, and the processes
#: peaked at 37.9, 40.0 and 42.8 MB RSS.
_KERNEL_BLOCK = 4096
#: Tolerances of the u-integral of ``resolution_kernel``.
_KERNEL_CONFIG = replace(DEFAULT_CONFIG, abs_tol=1e-10, rel_tol=1e-9)
#: Tolerances of the x-integral of ``identity_gram_projection``.
_PROJECTION_CONFIG = replace(DEFAULT_CONFIG, endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-9)


@dataclass(frozen=True)
class PhasePoint:
    """Position-momentum label of a coherent state; q strictly inside (0, L).

    Both labels must be finite; ``CoherentState`` checks the range of q.
    """

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise DomainError(f"phase-space labels must be finite, got q={self.q!r}, p={self.p!r}")


def _level_width(params: ModelParams, m: int) -> float:
    # d' = nu + m: effective sine power index of the level-m ground state;
    # only a number is compared with 0, so "1" or None reaches level_number
    if isinstance(m, numbers.Real) and m < 0:
        raise DomainError(f"hierarchy level must be nonnegative, got m={m}")
    return params.nu + level_number(m)


def _cot_q(params: ModelParams, q: float) -> float:
    if not 0.0 < q < params.length:
        raise DomainError("phase-space position must lie strictly inside (0, L)")
    return 1.0 / math.tan(math.pi * q / params.length)


def cs_log_normalization(params: ModelParams, m: int, q: float) -> float:
    """log R(q): the constant restoring unit norm after the exponential tilt.

    R**2 = |Gamma(d'+2 + i(d'+1)u)|**2 e**(pi (d'+1) u)
           / (|Gamma(d'+2 + i beta/(d'+1))|**2 e**(beta pi/(d'+1)))
    with d' = nu + m and u = cot(pi q / L).
    """
    dp = _level_width(params, m)
    u = _cot_q(params, q)
    s = dp + 1.0
    return (
        log_gamma(complex(dp + 2.0, s * u)).real
        + 0.5 * math.pi * s * u
        - log_gamma(complex(dp + 2.0, params.beta / s)).real
        - 0.5 * params.beta * math.pi / s
    )


class CoherentState:
    """Normalized lowering-operator eigenstate at hierarchy level m.

    Satisfies A_m eta = (W_m(q) + i p) eta pointwise; callable on scalars or
    arrays of [0, L] through its cotangent form, one term with Q = 1.  A
    value of (params, m, point), so equal states built apart share folds.
    """

    def __init__(self, params: ModelParams, m: int, point: PhasePoint):
        self.params = params
        dp = _level_width(params, m)
        self.m = int(m)
        self.point = point
        self._dp = dp
        s = dp + 1.0
        u = _cot_q(params, point.q)
        self._u = u
        self.log_R = cs_log_normalization(params, self.m, point.q)
        self._log_K0 = log_ground_constant(dp, params.beta, params.length)
        # growth rate of eta / sin^(d'+1); the beta tilts have cancelled
        self._rate = complex(-math.pi * s * u / params.length, point.p / params.hbar)

    def __eq__(self, other):
        return isinstance(other, CoherentState) and (self.params, self.m, self.point) == (other.params, other.m, other.point)

    def __hash__(self):
        return hash((self.params, self.m, self.point))

    @property
    def eigenvalue(self) -> complex:
        """W_m(q) + i p, the lowering-operator eigenvalue."""
        p = self.params
        s = self._dp + 1.0
        w_q = -(math.pi * p.hbar / p.length) * (s * self._u - p.beta / s)
        return complex(w_q, self.point.p)

    def __call__(self, x):
        return operand_values(self, x)

    @property
    def cot_terms(self) -> tuple:
        """(log C, gamma, a, Q) of the one term C e^(gamma x) sin^a Q(cot), gamma complex."""
        return ((self.log_R + self._log_K0, self._rate, self._dp + 1.0, np.ones(1)),)


def cs_overlap(a: CoherentState, b: CoherentState) -> complex:
    """Inner product <a|b> in fully reduced log form.

    The q-dependent exponentials cancel analytically against the master
    integral's exp(z/2), leaving gamma factors only, so wall-adjacent labels
    do not overflow.  Both states must live at the same hierarchy level of the
    same model.
    """
    if a.params != b.params or a.m != b.m:
        raise DomainError("overlap defined for states of one level of one model")
    dp = a._dp
    s = dp + 1.0
    L = a.params.length
    hbar = a.params.hbar
    zL = -math.pi * s * (a._u + b._u) + 1j * (b.point.p - a.point.p) * L / hbar
    tau = 1j * zL / (2.0 * math.pi)
    log_ov = (
        log_gamma(complex(dp + 2.0, s * a._u)).real
        + log_gamma(complex(dp + 2.0, s * b._u)).real
        + 0.5j * (b.point.p - a.point.p) * L / hbar
        - log_gamma(dp + 2.0 + tau)
        - log_gamma(dp + 2.0 - tau)
    )
    return complex(np.exp(log_ov))


def resolution_kernel(params: ModelParams, m: int, x) -> np.ndarray:
    """Diagonal kernel G(x) of the phase-space completeness integral.

    G(x) = |phi_0(x)|**2 int_0^L R(q)**2 exp(2 W_m(q) x / hbar) dq after the
    momentum integral with measure dq dp / (2 pi hbar) has produced its delta.
    The completeness relation is G identically 1.  In the cotangent variable

      G(x) = 4**(d'+1) / (pi Gamma(2d'+3)) sin(pi x/L)**(2d'+2)
             * int_R exp(2 Re lgamma(d'+2 + i(d'+1)u) + pi(d'+1)u(1-2x/L))
                     / (1+u**2) du

    independent of beta: the tilt cancels between R**2 and the ground state.
    Re lgamma(d'+2 + i(d'+1)u) = log|Gamma| is even in u, since
    Gamma(conj z) = conj Gamma(z), and so is 1 + u**2, so only the drift
    pi(d'+1)(1-2x/L) u is odd and the integral folds onto u >= 0:

      G(x) = 4**(d'+1) / (pi Gamma(2d'+3)) sin(pi x/L)**(2d'+2)
             * int_0^inf exp(2 Re lgamma(d'+2 + i(d'+1)u)) / (1+u**2)
                     * (e^(d u) + e^(-d u)) du,   d = pi(d'+1)(1-2x/L),

    one half-line integral in which each node costs one log|Gamma| for both
    signs of u.  The two exponentials are summed as they are, since
    2 cosh(d u) alone can overflow where the product does not.
    The u-integrand decays at least like exp(-|u| / decay(x)) with
    decay(x) = 1 / (2 pi (d'+1) min(x/L, 1 - x/L)).  Substituting
    u = decay(x) t gives every x the same decay in t, so all x share one set
    of t nodes and the whole array is one vector-valued half-line integral
    (``integrate_real_line``, to the tolerances ``_KERNEL_CONFIG``).
    The front factor and the Jacobian decay(x) sit in the exponent, so each
    component integrates to G(x) itself, about 1.  Without that, near-wall
    components are many orders of magnitude larger than the others, and
    since refinement is ranked by absolute error the small ones never
    converge.  The integrand is evaluated in blocks of rows, at most
    ``_KERNEL_BLOCK`` points per ``log_abs_gamma`` call: only Re lgamma is
    needed, and ``log_abs_gamma`` sums it in real arithmetic, its partial
    fractions as one matrix product, where ``log_gamma`` (its reference in
    the tests) would pay for the whole complex sum.

    Because the panels are shared, G(x) depends on the other points of the
    call: the panels they ask for refine its integral further, which moves
    it by about its tolerance.  The integrand moves with the block too, by
    a few ulps, since the matrix product may round by its size.  Near a
    wall with d' < 1 the u-integrand has a layer of width about 1 around
    u = 0, width about 2 pi min(x/L, 1 - x/L) in t, at the end t = 0 of the
    half line, that the nodes can miss: at nu = 0, m = 0 and x = 1e-3 L a
    one-point call reads 1 - 3.3e-6.
    """
    dp = _level_width(params, m)
    s = dp + 1.0
    L = params.length
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr > 0.0) & (arr < L)):
        raise DomainError("kernel defined on the open interval (0, L)")
    xs = arr.ravel()
    decay = 1.0 / (2.0 * math.pi * s * np.minimum(xs / L, 1.0 - xs / L))
    drift = math.pi * s * (1.0 - 2.0 * xs / L)
    log_front = (
        (dp + 1.0) * _LN4
        - math.log(math.pi)
        - math.lgamma(2.0 * dp + 3.0)
        + (2.0 * dp + 2.0) * np.log(np.sin(math.pi * xs / L))
        + np.log(decay)
    )

    def integrand(t):
        # row i is the u-integrand of x_i at u = decay_i t and at -u, times
        # decay_i and the front factor, so every row integrates to G(x_i) over t >= 0
        out = np.empty((xs.size, t.size))
        step = max(1, _KERNEL_BLOCK // t.size)
        for lo in range(0, xs.size, step):
            rows = slice(lo, lo + step)
            u = decay[rows, None] * t
            base = 2.0 * log_abs_gamma(dp + 2.0, s * u) + log_front[rows, None] - np.log1p(u * u)
            tilt = drift[rows, None] * u
            # the u-integrand at +u and at -u: two exps, not 2 cosh(tilt), which may overflow
            out[rows] = np.exp(base + tilt) + np.exp(base - tilt)
        return out

    g = integrate_real_line(integrand, 1.0, _KERNEL_CONFIG).value.real.reshape(arr.shape)
    return g if np.ndim(x) else float(g.ravel()[0])


def identity_gram_projection(params: ModelParams, m: int, size: int) -> np.ndarray:
    """Project the phase-space completeness integral onto low eigenstates.

    Returns the matrix int conj(phi_i) G phi_j dx for i, j < size, which is
    the identity matrix when the coherent family resolves unity.  The kernel
    G is evaluated pointwise inside the quadrature, so this is a genuine
    double-integral check, not a restatement of orthonormality.  The matrix
    is the triangle integral of ``wavefn.gram_matrix`` with G as its weight,
    conj(phi_i) G phi_j multiplied in that order: the upper triangle is one
    vector-valued integral, so G is computed once per node, and the states,
    stacked as one operand of the operator layer, are valued there by its
    empty word in one pass.

    Each integrand call, one per refinement round of the x-integral,
    computes G at all its nodes with one ``resolution_kernel`` call, whose
    panels those nodes share.  So the integrand's value at a node depends on
    the other nodes of the call,
    which the ``quadrature`` contract rules out, but only by about the
    kernel's own tolerance (``_KERNEL_CONFIG``; see ``resolution_kernel`` for
    the near-wall case at d' < 1).  The x-integral runs over
    [EDGE_CLAMP L, (1 - EDGE_CLAMP) L], the bounds of the identity suite's
    quadratures, to the tolerances ``_PROJECTION_CONFIG``.  No states (size
    0) give the empty complex matrix; the level is checked for every size.
    """
    try:  # a count of states, as level_number reads an index
        size = level_number(size)
    except DomainError:
        raise DomainError(f"size must be a nonnegative whole number of states, got {size!r}") from None
    _level_width(params, m)  # the kernel's check of the level, for every size
    states = [eigenfunction(params, m, n) for n in range(size)]
    L = params.length
    kernel = lambda x: resolution_kernel(params, m, x)
    return _gram(states, EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L, _PROJECTION_CONFIG, weight=kernel)
