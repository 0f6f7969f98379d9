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
from dataclasses import dataclass, replace

import numpy as np

from . import jets
from .errors import DomainError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_interval, integrate_real_line
from .specfun import log_gamma
from .spectrum import ModelParams
from .wavefn import eigenfunction, log_ground_constant

_LN4 = math.log(4.0)


@dataclass(frozen=True)
class PhasePoint:
    """Position-momentum label of a coherent state; q strictly inside (0, L)."""

    q: float
    p: float


def master_integral(delta: float, z: complex) -> complex:
    """The normalized sine-power exponential moment, dimensionless form.

    Equals (1/L) int_0^L sin(pi x/L)**(2 delta + 2) exp(z x / L) dx for any
    complex z; requires delta > -3/2 so the endpoint power is integrable.
    """
    return complex(np.exp(log_master_integral(delta, z)))


def log_master_integral(delta: float, z: complex) -> complex:
    """Principal log of the master integral; safe for large |Re z|."""
    if delta <= -1.5:
        raise DomainError("master integral needs delta > -3/2")
    tau = 1j * complex(z) / (2.0 * math.pi)
    return (
        log_gamma(2.0 * delta + 3.0)
        + 0.5 * complex(z)
        - (delta + 1.0) * _LN4
        - log_gamma(delta + 2.0 + tau)
        - log_gamma(delta + 2.0 - tau)
    )


def _level_width(params: ModelParams, m: int) -> float:
    # d' = nu + m: effective sine power index of the level-m ground state
    if m < 0:
        raise DomainError(f"hierarchy level must be nonnegative, got m={m}")
    return params.nu + m


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


def cs_normalization(params: ModelParams, m: int, q: float) -> float:
    return math.exp(cs_log_normalization(params, m, q))


class CoherentState:
    """Normalized lowering-operator eigenstate at hierarchy level m.

    Satisfies A_m eta = (W_m(q) + i p) eta pointwise; callable on scalars or
    arrays, with exact Taylor jets for operator applications.
    """

    def __init__(self, params: ModelParams, m: int, point: PhasePoint):
        self.params = params
        self.m = int(m)
        self.point = point
        dp = _level_width(params, self.m)
        self._dp = dp
        s = dp + 1.0
        u = _cot_q(params, point.q)
        self._u = u
        self.log_R = cs_log_normalization(params, self.m, point.q)
        self._log_K0 = log_ground_constant(dp, params.beta, params.length)
        L = params.length
        # growth rate of eta / sin^(d'+1); the beta tilts have cancelled
        self._rate = complex(-math.pi * s * u / L, point.p / params.hbar)

    @property
    def eigenvalue(self) -> complex:
        """W_m(q) + i p, the lowering-operator eigenvalue."""
        p = self.params
        s = self._dp + 1.0
        w_q = -(math.pi * p.hbar / p.length) * (s * self._u - p.beta / s)
        return complex(w_q, self.point.p)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        L = self.params.length
        if not np.all((arr >= 0.0) & (arr <= L)):
            raise DomainError("x outside the box [0, L]")
        theta = math.pi * arr / L
        w = np.sin(theta)
        out = np.zeros(arr.shape, dtype=complex)
        interior = (arr > 0.0) & (arr < L)
        out[interior] = np.exp(
            self.log_R
            + self._log_K0
            + self._rate * arr[interior]
            + (self._dp + 1.0) * np.log(w[interior])
        )
        return complex(out[0]) if scalar else out

    def taylor(self, x, order: int) -> jets.Jet:
        """Taylor jet at interior point(s) x; ``DomainError`` outside (0, L)."""
        L = self.params.length
        arr = np.asarray(x, dtype=float)
        if not np.all((arr > 0.0) & (arr < L)):
            raise DomainError("Taylor jets defined on the open interval (0, L)")
        X = jets.Jet.variable(arr, order)
        s, _ = jets.sin_cos(X * (math.pi / L))
        return jets.exp(X * self._rate + jets.log(s) * (self._dp + 1.0)) * math.exp(
            self.log_R + self._log_K0
        )


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


def resolution_kernel(
    params: ModelParams,
    m: int,
    x,
    config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Diagonal kernel G(x) of the phase-space completeness integral.

    G(x) = |phi_0(x)|**2 int_0^L R(q)**2 exp(2 W_m(q) x / hbar) dq after the
    momentum integral with measure dq dp / (2 pi hbar) has produced its delta.
    The completeness relation is G identically 1.  In the cotangent variable

      G(x) = 4**(d'+1) / (pi Gamma(2d'+3)) sin(pi x/L)**(2d'+2)
             * int_R exp(2 Re lgamma(d'+2 + i(d'+1)u) + pi(d'+1)u(1-2x/L))
                     / (1+u**2) du

    independent of beta: the tilt cancels between R**2 and the ground state.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, abs_tol=1e-10, rel_tol=1e-9)
    dp = _level_width(params, m)
    s = dp + 1.0
    L = params.length
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr > 0.0) & (arr < L)):
        raise DomainError("kernel defined on the open interval (0, L)")
    log_front = (dp + 1.0) * _LN4 - math.log(math.pi) - math.lgamma(2.0 * dp + 3.0)
    out = np.empty(arr.shape, dtype=float)
    for i, xi in enumerate(arr.ravel()):
        drift = math.pi * s * (1.0 - 2.0 * xi / L)

        def integrand(u):
            u = np.asarray(u, dtype=float)
            zg = np.empty(u.shape, dtype=complex)
            zg.real = dp + 2.0
            zg.imag = s * u
            expo = 2.0 * log_gamma(zg).real + drift * u
            return np.exp(expo) / (1.0 + u * u)

        decay = 1.0 / (2.0 * math.pi * s * min(xi / L, 1.0 - xi / L))
        res = integrate_real_line(integrand, decay, config)
        theta = math.pi * xi / L
        out.ravel()[i] = math.exp(
            log_front + (2.0 * dp + 2.0) * math.log(math.sin(theta))
        ) * float(res.value.real)
    return out if np.ndim(x) else float(out.ravel()[0])


def identity_gram_projection(
    params: ModelParams,
    m: int,
    size: int,
    config: QuadratureConfig | None = None,
    kernel_config: QuadratureConfig | None = None,
) -> np.ndarray:
    """Project the phase-space completeness integral onto low eigenstates.

    Returns the matrix int conj(phi_i) G phi_j dx for i, j < size, which is
    the identity matrix when the coherent family resolves unity.  The kernel
    G is evaluated pointwise inside the quadrature, so this is a genuine
    double-integral check, not a restatement of orthonormality.  The upper
    triangle is one vector-valued integral, so G is computed once per node.
    """
    if config is None:
        config = replace(DEFAULT_CONFIG, endpoint_substitution=True, abs_tol=1e-9, rel_tol=1e-9)
    funcs = [eigenfunction(params, m, n) for n in range(size)]
    L = params.length
    lo, hi = 1e-6 * L, (1.0 - 1e-6) * L
    rows, cols = np.triu_indices(size)

    def integrand(x):
        g = resolution_kernel(params, m, x, kernel_config)
        phi = np.array([f(x) for f in funcs])
        return np.conj(phi[rows]) * g * phi[cols]

    value = integrate_interval(integrand, lo, hi, config).value
    out = np.zeros((size, size), dtype=complex)
    out[rows, cols] = value
    out[cols, rows] = np.conj(value)
    return out
