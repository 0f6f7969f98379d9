"""Complex special-function kernels: log-gamma, Pochhammer products, Jacobi coefficients.

Everything here works for complex parameters, which the rest of the package relies on:
the eigenfunction polynomials carry conjugate complex Jacobi parameters and the
normalization constants and coherent-state kernels need gamma functions of
complex argument.  Jacobi polynomials are supplied as their power-series
coefficients in (1 - z)/2.  Nothing in the package sums them (``wavefn``
uses the two-sided binomial form): the tests do, and the benchmark in
``perfbench/`` reads their cache, so they stay here until it stops.
Values that can overflow are handled by the callers in log space; this module
only promises accurate complex values for moderate arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DegreeCapError, PoleError

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
    # Valid for Re z >= 0.5 only; callers shift into this half plane first.
    zz = z - 1.0
    acc = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * _LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(acc)


def log_gamma(z):
    """Principal-branch complex log-gamma.

    Args:
        z: complex scalar or array.  Nonpositive integers raise ``PoleError``.

    Returns:
        log(Gamma(z)) on the principal analytic continuation (imaginary part is
        continuous, not reduced mod 2*pi).  Shape follows the input.

    For Re z < 0.5 the value is lifted with the recurrence
    ``log_gamma(z) = log_gamma(z + k) - sum_j Log(z + j)``, which reproduces the
    principal branch away from the negative real axis.  Arguments on the
    negative real axis itself (other than poles) are outside the supported
    domain of this branch bookkeeping and are rejected.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()

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
        shift = np.ceil(0.5 - zl.real).astype(int)
        kmax = int(shift.max())
        acc = np.zeros_like(zl)
        w = zl.copy()
        for step in range(kmax):
            live = step < shift
            acc[live] += np.log(w[live])
            w[live] += 1.0
        out[left] = _lanczos_right(w) - acc

    return out[0] if scalar else out


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
