"""Adaptive quadrature and finite-difference oracles.

This module is the independent numerical referee for every closed form in the
package, so it deliberately avoids the analytic machinery of the other modules:
plain panel-adaptive Gauss-Legendre integration, an exponential-tail wrapper
for real-line integrals, and Richardson-extrapolated central differences.
Integrands must accept numpy arrays of abscissas and return arrays of values
(real or complex).

``integrate_interval`` is vector valued: an integrand may return an array of
shape (..., n_nodes) whose last axis runs over the abscissas, and every
leading component is integrated on one shared set of panels.  Each component
carries its own error bound and must meet its own tolerance, so a Gram matrix
costs one evaluation of every function per node instead of one adaptive
integral per matrix entry.  A one-dimensional integrand is the special case
with an empty leading shape.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    NonFiniteIntegrandError,
    StepUnderflowError,
    SubdivisionLimitError,
    TailBoundError,
)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrator.

    abs_tol and rel_tol combine as max(abs_tol, rel_tol * |integral|);
    endpoint_substitution maps the panel through x = a + (b-a)(1 - cos t)/2,
    which clusters nodes at both ends and tames algebraic endpoint behavior.
    """

    base_rule_order: int = 15
    max_subdivisions: int = 2**14
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    endpoint_substitution: bool = False


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    """Integral estimate, error bound and abscissa count.

    value and error are a complex and a float for a one-dimensional
    integrand, and arrays of the integrand's leading shape otherwise.
    """

    value: complex | np.ndarray
    error: float | np.ndarray
    evaluations: int


@lru_cache(maxsize=32)
def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _modulus(z):
    # hypot rounds exactly as abs(complex); numpy's complex absolute does not
    return np.hypot(np.real(z), np.imag(z))


def _panel_value(f, a: float, b: float, order: int) -> np.ndarray:
    nodes, weights = _gauss_rule(order)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    vals = np.asarray(f(xs))
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrandError(f"integrand not finite inside [{a!r}, {b!r}]")
    return np.asarray((weights * vals).sum(axis=-1) * half, dtype=complex)


def integrate_interval(f, a: float, b: float, config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over [a, b] to the configured tolerance, componentwise.

    Args:
        f: vectorized integrand, called with an ndarray of n points in (a, b).
            It returns shape (n,) for a scalar integrand or (..., n) for a
            vector of integrands: the last axis is the node axis.
        a, b: finite endpoints, a < b.
        config: tolerances, panel budget, and the endpoint substitution flag.

    Each panel is integrated by the Gauss rule on itself and on its two
    halves; the discrepancy is that panel's error, per component.  The
    integral stops when every component k has total error within
    max(abs_tol, rel_tol * |I_k|), or within its rounding-noise floor.
    Until then the panel whose largest component error is largest is split.

    Returns:
        IntegralResult with the estimate and a conservative error bound (sum
        of per-panel discrepancies), both of the integrand's leading shape,
        and the number of abscissas.  For a scalar integrand the value is a
        complex and the error a float.

    Raises:
        SubdivisionLimitError: panel budget exhausted before every component
            reached its tolerance.
        NonFiniteIntegrandError: integrand produced NaN or infinity.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError("integrate_interval needs finite endpoints with a < b")

    if config.endpoint_substitution:
        span = b - a

        def g(t):
            x = a + span * 0.5 * (1.0 - np.cos(t))
            return f(x) * (span * 0.5 * np.sin(t))

        inner = replace(config, endpoint_substitution=False)
        return integrate_interval(g, 0.0, math.pi, inner)

    order = config.base_rule_order
    evals = [0]

    def panel(lo: float, hi: float) -> np.ndarray:
        evals[0] += order
        return _panel_value(f, lo, hi, order)

    def make_segment(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        coarse = panel(lo, hi)
        left = panel(lo, mid)
        right = panel(mid, hi)
        fine = left + right
        err = _modulus(coarse - fine)
        return (lo, hi, fine, err, left, right)

    counter = itertools.count()
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    n_init = 4
    edges = np.linspace(a, b, n_init + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = make_segment(float(lo), float(hi))
        total += seg[2]
        total_err += seg[3]
        heapq.heappush(heap, (-float(seg[3].max()), next(counter), seg))

    n_segments = n_init
    while True:
        size = _modulus(total)
        tol = np.maximum(config.abs_tol, config.rel_tol * size)
        # Floor: panel discrepancies cannot resolve below the rounding noise of
        # the accumulated panel values themselves.
        floor = 1e-16 * size * max(1, n_segments)
        target = np.maximum(tol, floor)
        if (total_err <= target).all():
            break
        if n_segments >= config.max_subdivisions:
            worst = np.unravel_index(np.argmax(total_err - target), np.shape(total_err))
            raise SubdivisionLimitError(
                f"no convergence within {config.max_subdivisions} panels "
                f"(residual error {total_err[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        neg_err, _, seg = heapq.heappop(heap)
        lo, hi, fine, err, left, right = seg
        if -neg_err <= 0.0:
            break  # best refinement already exact; nothing more to gain
        mid = 0.5 * (lo + hi)
        total -= fine
        total_err -= err
        for child_lo, child_hi in ((lo, mid), (mid, hi)):
            child = make_segment(child_lo, child_hi)
            total += child[2]
            total_err += child[3]
            heapq.heappush(heap, (-float(child[3].max()), next(counter), child))
        n_segments += 1

    reported = np.maximum(total_err, 2e-16 * size)
    if np.ndim(total) == 0:
        return IntegralResult(value=complex(total), error=float(reported), evaluations=evals[0])
    return IntegralResult(value=total, error=reported, evaluations=evals[0])


def integrate_real_line(
    f,
    decay_scale: float,
    config: QuadratureConfig = DEFAULT_CONFIG,
    max_expansions: int = 60,
) -> IntegralResult:
    """Integrate f over the whole real line assuming exponential tail decay.

    Args:
        f: vectorized integrand.
        decay_scale: s such that |f(u)| falls off roughly like exp(-|u|/s) for
            large |u|; used for the initial truncation and the tail bound.
        config: interval-integration tolerances.
        max_expansions: growth steps allowed while certifying the tails.

    The truncation point U grows until (|f(U)| + |f(-U)|) * 4 s sits below a
    quarter of the active tolerance; probing f itself (rather than trusting a
    pure exponential model) keeps algebraic prefactors honest.

    Raises:
        TailBoundError: tails could not be certified within the expansion budget.
    """
    if not decay_scale > 0.0:
        raise ValueError("decay_scale must be positive")

    u0 = 8.0 * decay_scale
    probe = np.linspace(-u0, u0, 65)
    rough = abs(np.trapezoid(np.asarray(f(probe)), probe))

    u = u0
    for _ in range(max_expansions):
        edge = np.asarray(f(np.array([-u, u])))
        if not np.all(np.isfinite(edge)):
            raise NonFiniteIntegrandError("integrand not finite at the truncation points")
        tail = float(np.sum(np.abs(edge))) * decay_scale * 4.0
        tol = max(config.abs_tol, config.rel_tol * max(rough, 0.0))
        if tail <= 0.25 * max(tol, 1e-300):
            core = integrate_interval(f, -u, u, config)
            return IntegralResult(core.value, core.error + tail, core.evaluations + 2)
        u *= 1.6
    raise TailBoundError(f"could not certify tails out to |u| = {u:.3e}")


def derivative(f, x: float, order: int = 1, h0: float | None = None, levels: int = 6):
    """Richardson-extrapolated central difference of order 1 or 2.

    Args:
        f: scalar-or-vectorized function of one real variable.
        x: evaluation point.
        order: 1 for f', 2 for f''.
        h0: starting step; default 0.05 * (1 + |x|).
        levels: extrapolation depth.

    Returns:
        (value, error_estimate) with the error taken from the last diagonal
        increment of the extrapolation table.

    Raises:
        StepUnderflowError: steps too small to move x at machine precision.
    """
    if order not in (1, 2):
        raise ValueError("derivative supports order 1 or 2 only")
    if h0 is None:
        h0 = 0.05 * (1.0 + abs(x))
    if h0 <= 0.0:
        raise StepUnderflowError("h0 must be positive")
    smallest = h0 / 2.0 ** (levels - 1)
    if x + smallest == x or smallest < 4e-13 * max(1.0, abs(x)):
        raise StepUnderflowError("finite-difference step underflows at this x")

    def sample(t: float) -> complex:
        # scalar call; accept scalar or length-1 array results
        return complex(np.asarray(f(t)).ravel()[0])

    def central(h: float) -> complex:
        fp = sample(x + h)
        fm = sample(x - h)
        if order == 1:
            return (fp - fm) / (2.0 * h)
        return (fp - 2.0 * sample(x) + fm) / (h * h)

    rows = []
    best = None
    best_err = math.inf
    for i in range(levels):
        h = h0 / 2.0**i
        row = [central(h)]
        for j in range(1, i + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - rows[i - 1][j - 1]) / (factor - 1.0))
        rows.append(row)
        if i > 0:
            err = abs(row[-1] - rows[i - 1][-1])
            if err <= best_err:
                best_err = err
                best = row[-1]
    return best, best_err
