"""Reference routes that only the tests use.

``pairwise_gram`` is the per-pair loop that ``gram_matrix`` and
``identity_gram_projection`` ran before they became one vector-valued
integral: every upper-triangle entry is its own scalar adaptive integral,
with its own panels and its own error bound.

``normalization_double_sum`` is the independent route to the eigenfunction
normalization constant that ``wavefn.normalization_K`` computes by its
product form: the gamma / Pochhammer double sum.  It is analytically
identical but numerically ill conditioned (its terms cancel roughly like
10**n), so it guards itself and serves as a cross-check at small n only.
"""

import cmath
import math

import numpy as np

from ptsusy.errors import DegreeCapError, DomainError, LossOfSignificanceError, PoleError
from ptsusy.quadrature import integrate_interval
from ptsusy.specfun import log_gamma
from ptsusy.spectrum import LEVEL_CAP


def pairwise_gram(functions, a, b, config, weight=None):
    """Matrix of int_a^b conj(f_i) w f_j dx, one adaptive integral per pair.

    weight defaults to 1.  Returns (matrix, error): the lower triangle is
    the conjugate of the upper one, diagonal included, and error holds each
    entry's reported bound.
    """
    k = len(functions)
    gram = np.zeros((k, k), dtype=complex)
    error = np.zeros((k, k))
    for i in range(k):
        fi = functions[i]
        for j in range(i, k):
            fj = functions[j]
            if weight is None:
                integrand = lambda t: np.conj(fi(t)) * fj(t)
            else:
                integrand = lambda t: np.conj(fi(t)) * weight(t) * fj(t)
            res = integrate_interval(integrand, a, b, config)
            gram[i, j] = res.value
            gram[j, i] = np.conj(res.value)
            error[i, j] = error[j, i] = res.error
    return gram, error


def log_pochhammer(a: complex, k: int) -> complex:
    """Sum of principal logs of the factors of (a)_k; raises on a zero factor."""
    a = complex(a)
    total = 0.0 + 0.0j
    for j in range(int(k)):
        f = a + j
        if f == 0:
            raise PoleError("log_pochhammer hit an exactly zero factor")
        total += cmath.log(f)
    return total


def _compensated_scalar_sum(terms) -> complex:
    # Descending-magnitude compensated accumulation, real and imaginary parts
    # summed separately with exact fsum.
    ordered = sorted(terms, key=abs, reverse=True)
    return complex(math.fsum(t.real for t in ordered), math.fsum(t.imag for t in ordered))


def scaled_phase_sum(log_terms) -> tuple[float, complex]:
    """Sum terms given as complex logs, returning (log_magnitude, unit_sum).

    The value represented is exp(log_magnitude) * unit_sum where unit_sum is an
    O(1) complex number.  Terms are rescaled by the largest magnitude before
    summation so the result never overflows; the compensated accumulation keeps
    cancellation noise at the level of the largest term times machine epsilon.
    """
    logs = list(log_terms)
    if not logs:
        return (-math.inf, 0.0 + 0.0j)
    mstar = max(lt.real for lt in logs)
    if mstar == -math.inf:
        return (-math.inf, 0.0 + 0.0j)
    scaled = [cmath.exp(lt - mstar) for lt in logs]
    return (mstar, _compensated_scalar_sum(scaled))


def normalization_double_sum(params, n: int, cap: int = LEVEL_CAP) -> float:
    """log K of the n-th base eigenfunction through the conjugate-symmetric double sum.

    The sum is accumulated as scaled complex exponentials so no intermediate
    gamma value ever overflows; a surviving imaginary part or a cancellation
    past ten digits raises ``LossOfSignificanceError`` instead of returning a
    silently wrong constant.
    """
    if n < 0:
        raise DomainError("excitation number must be nonnegative")
    if n > cap:
        raise DegreeCapError(f"combined level degree {n} exceeds cap {cap}")
    nu, beta, L = params.nu, params.beta, params.length
    s = n + nu + 1.0
    b = beta / s

    # T factor: n! over the modulus of a never-vanishing Pochhammer product.
    log_abs_poch = 0.0
    for j in range(n):
        re = -nu - n + j
        mag2 = re * re + b * b
        if mag2 < 1e-12:
            raise LossOfSignificanceError(
                "normalization Pochhammer factor vanishes to working precision"
            )
        log_abs_poch += 0.5 * math.log(mag2)
    log_T = math.lgamma(n + 1.0) - log_abs_poch

    # Overlap double sum in scaled log space.
    ib = 1j * b
    side_minus = []  # k side, carries -ib in the Pochhammer and +ib in the gamma
    side_plus = []
    for k in range(n + 1):
        shared = log_pochhammer(-n, k) + log_pochhammer(-2.0 * nu - n - 1.0, k) - math.lgamma(k + 1.0)
        side_minus.append(shared - log_pochhammer(-nu - n - ib, k) - log_gamma(n + nu + 2.0 - k + ib))
        side_plus.append(shared - log_pochhammer(-nu - n + ib, k) - log_gamma(n + nu + 2.0 - k - ib))
    term_logs = []
    for k in range(n + 1):
        for t in range(n + 1):
            term_logs.append(
                side_minus[k] + side_plus[t] + log_gamma(2.0 * n + 2.0 * nu - k - t + 3.0)
            )
    log_mag, unit = scaled_phase_sum(term_logs)
    sum_abs = math.fsum(math.exp(lt.real - log_mag) for lt in term_logs)
    if abs(unit) < 1e-10 * sum_abs:
        raise LossOfSignificanceError("normalization double sum cancelled past ten digits")
    if abs(unit.imag) > 1e-10 * abs(unit.real) or unit.real <= 0.0:
        raise LossOfSignificanceError("normalization double sum lost conjugate symmetry")
    log_O = log_mag + math.log(unit.real)

    return (
        (n + nu + 1.0) * math.log(2.0)
        - 0.5 * math.log(L)
        + log_T
        + beta * math.pi / (2.0 * s)
        - 0.5 * log_O
    )
