"""Complex special-function kernels: log-gamma, Pochhammer products, Jacobi coefficients.

Everything here works for complex parameters, which the rest of the package relies on:
the eigenfunction polynomials carry conjugate complex Jacobi parameters and the
normalization constants and coherent-state kernels need gamma functions of
complex argument.

``log_gamma`` is the general complex log-gamma.  Beside it, ``log_abs_gamma``
gives only its real part, log|Gamma(x + iy)| on a line of fixed x, summed in
real arithmetic over arrays of y as one matrix product, whose rounding may
depend on the batch: the resolution kernel needs nothing else, at hundreds of
thousands of points per pass, and ``log_gamma`` is its tests' reference.

Jacobi polynomials are supplied as their power-series coefficients in
(1 - z)/2.  Nothing in the package sums them (``wavefn`` uses the two-sided
binomial form): the tests do, and the benchmark in ``perfbench/`` reads
their cache, so they stay here until it stops.  Values that can overflow are
handled by the callers in log space.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegreeCapError, DomainError, PoleError

# Hard ceiling on polynomial degree.  Beyond this the terminating hypergeometric
# sum starts losing more digits than the package tolerances allow.
DEGREE_CAP = 40

_LOG_2PI = math.log(2.0 * math.pi)

# Lanczos approximation, g = 607/128, 15 terms.  Gives exp-level relative error
# within a few ulps of the double-precision floor for Re z >= 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_right(z: np.ndarray) -> np.ndarray:
    # Valid for Re z >= 0.5 only; the left half plane is reflected into it.
    zz = z - 1.0
    acc = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # Principal Log sin(pi z), finite for any |Im z|.  With n = round(x) and
    # x - n exact, sin and cos of a = pi x are (-1)^n sin(pi (x - n)) and
    # (-1)^n cos(pi (x - n)), with exact zeros at integers.  With b = pi y and
    # E = e^(-2|b|), |sin|^2 = (cosh 2b - cos 2a) / 2 is written as
    # e^(2|b|) ((1 - E)^2 + 4 E sin^2 a) / 4 and the argument as
    # atan2(cos a tanh b, sin a), both free of overflow.
    n = np.round(z.real)
    sign = 1.0 - 2.0 * np.fmod(np.abs(n), 2.0)
    f = np.pi * (z.real - n)
    sin_a = sign * np.sin(f)
    cos_a = sign * np.cos(f)
    b = np.pi * z.imag
    e = np.exp(-2.0 * np.abs(b))
    log_mod = np.abs(b) - math.log(2.0) + 0.5 * np.log(np.expm1(-2.0 * np.abs(b)) ** 2 + 4.0 * e * sin_a**2)
    return log_mod + 1j * np.arctan2(cos_a * np.tanh(b), sin_a)


def log_gamma(z):
    """Principal-branch complex log-gamma.

    Args:
        z: complex scalar or array.  The nonpositive real axis raises
            ``PoleError`` (poles at the integers, no principal branch between
            them), and a non-finite value raises ``DomainError``.

    Returns:
        log(Gamma(z)) on the principal analytic continuation (imaginary part is
        continuous, not reduced mod 2*pi).  Shape follows the input.

    For Re z >= 0.5 this is the complex Lanczos sum.  For Re z < 0.5 it is
    the reflection formula
    ``log pi - Log sin(pi z) - log_gamma(1 - z) + 2 pi i sgn(Im z) floor(Re z / 2 + 1/4)``,
    whose last term moves the principal Log of the sine onto the continuous
    branch; its cost does not depend on |Re z|.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if not np.all(np.isfinite(arr)):
        raise DomainError("log_gamma argument must be finite")
    on_real_axis = arr.imag == 0.0
    nonpos_int = on_real_axis & (arr.real <= 0.0) & (arr.real == np.round(arr.real))
    if np.any(nonpos_int):
        raise PoleError("log_gamma pole at nonpositive integer argument")
    if np.any(on_real_axis & (arr.real < 0.0)):
        raise PoleError("log_gamma branch undefined on the negative real axis")

    out = np.empty_like(arr)
    right = arr.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_right(arr[right])
    left = ~right
    if np.any(left):
        zl = arr[left]
        branch = np.sign(zl.imag) * np.floor(0.5 * zl.real + 0.25)
        out[left] = math.log(math.pi) - _log_sin_pi(zl) - _lanczos_right(1.0 - zl) + 2j * math.pi * branch

    return out[0] if scalar else out


@lru_cache(maxsize=64)
def _lanczos_rows(x: float) -> tuple:
    # read-only M = [c_i a_i; -c_i] and a_i^2 of log_abs_gamma, a_i = x - 1 + i
    a = x - 1.0 + np.arange(1.0, len(_LANCZOS_C))
    c = np.array(_LANCZOS_C[1:])
    m, a2 = np.stack((c * a, -c)), a * a
    m.flags.writeable = a2.flags.writeable = False
    return m, a2


def log_abs_gamma(x: float, y):
    """log|Gamma(x + iy)| for a real scalar x >= 0.5 and a real array y.

    The real part of ``log_gamma`` on a line Re z = x, summed in real
    arithmetic: the resolution kernel needs only this part, at thousands of
    points per call, and the complex sum pays for 14 complex divisions and
    two complex logarithms per point.  Same g and coefficients as
    ``log_gamma``, which stays the general function and this one's reference.
    With a_i = x - 1 + i and r_i = 1 / (a_i^2 + y^2), the partial fractions
    c_i / (a_i + iy) sum to Re S = c_0 + sum c_i a_i r_i and Im S = -y sum c_i
    r_i: one matrix product of M = [c_i a_i; -c_i], built once per x, and the
    (14, N) array of r_i.  BLAS may order that sum by N, so a value can differ
    from a one-point call by a few ulps.  |y| must stay below 1e150, where
    y^2 is finite.  Returns an array of y's shape, or a float for a scalar y.
    """
    x = float(x)
    if not x >= 0.5 or not math.isfinite(x):
        raise DomainError(f"log_abs_gamma needs a finite x >= 0.5, got {x!r}")
    scalar = np.ndim(y) == 0
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.abs(y).max(initial=0.0) < 1e150:
        raise DomainError("log_abs_gamma needs finite |y| < 1e150")
    m, a2 = _lanczos_rows(x)
    y2 = y * y
    r = np.add.outer(a2, y2.ravel())
    np.divide(1.0, r, out=r)  # in place; faster than np.reciprocal on floats
    re, im = (m @ r).reshape((2,) + y.shape)
    re += _LANCZOS_C[0]
    im *= y
    t = x - 0.5 + _LANCZOS_G
    # log|S|^2 overwrites re and (x - 1/2) log|t + iy| overwrites y2
    re *= re
    im *= im
    re += im
    np.log(re, out=re)
    y2 += t * t
    np.log(y2, out=y2)
    y2 *= 0.5 * (x - 0.5)
    out = np.arctan2(y, t)
    out *= y
    np.subtract(y2, out, out=out)
    out += 0.5 * re + (0.5 * _LOG_2PI - t)
    return float(out[0]) if scalar else out


def pochhammer(a, k: int):
    """Rising factorial (a)_k as an explicit k-term product.

    Computed as a direct product, never as a gamma ratio, so zeros of
    individual factors come out exactly zero instead of as 0/0 noise.
    """
    if k < 0 or k != int(k):
        raise ValueError("pochhammer order must be a nonnegative integer")
    a = complex(a) if np.ndim(a) == 0 else np.asarray(a, dtype=complex)
    result = np.ones_like(a) if np.ndim(a) else 1.0 + 0.0j
    for j in range(int(k)):
        result = result * (a + j)
    return result


@lru_cache(maxsize=4096)
def jacobi_series_coefficients(n: int, alpha: complex, beta: complex) -> tuple:
    """Coefficients c_k of P_n^(alpha,beta)(z) = sum_k c_k ((1-z)/2)^k.

    From the terminating hypergeometric representation
    P_n = ((alpha+1)_n / n!) * 2F1(-n, n+alpha+beta+1; alpha+1; (1-z)/2).
    """
    if n < 0:
        raise ValueError("polynomial degree must be nonnegative")
    if n > DEGREE_CAP:
        raise DegreeCapError(f"jacobi degree {n} exceeds cap {DEGREE_CAP}")
    alpha = complex(alpha)
    beta = complex(beta)
    pref = pochhammer(alpha + 1.0, n) / math.factorial(n)
    coeffs = []
    term = 1.0 + 0.0j
    for k in range(n + 1):
        coeffs.append(pref * term)
        # ratio from t_k to t_{k+1} of 2F1(-n, n+a+b+1; a+1; u)
        if k < n:
            num = (-n + k) * (n + alpha + beta + 1.0 + k)
            den = (alpha + 1.0 + k) * (k + 1.0)
            term = term * num / den
    return tuple(coeffs)
