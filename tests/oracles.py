"""Reference routes that only the tests use.

``pairwise_gram`` is the per-pair loop that ``gram_matrix`` and
``identity_gram_projection`` ran before they became one vector-valued
integral: every upper-triangle entry is its own scalar adaptive integral,
with its own panels and its own error bound.
"""

import numpy as np

from ptsusy.quadrature import integrate_interval


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
