"""Adaptive quadrature.

This module is the independent numerical referee for every closed form in the
package, so it deliberately avoids the analytic machinery of the other modules:
plain panel-adaptive Gauss-Legendre integration and an exponential-tail
wrapper for real-line integrals.
Integrands must accept numpy arrays of abscissas and return arrays of values
(real or complex).  An integrand's value at a node must not depend on the
other nodes of the same call: ``integrate_interval`` calls it once per
refinement step with the nodes of several panels, and ``integrate_real_line``
reads its first truncation check off the ends of its coarse probe.  One
caller bends this rule: the integrand of ``coherent.identity_gram_projection``
computes its resolution kernel at all nodes of a call on shared panels, so a
node's value moves with the other nodes by about the kernel's tolerance.

Both integrators are vector valued: an integrand may return an array of
shape (..., n_nodes) whose last axis runs over the abscissas, and every
leading component is integrated on one shared set of panels.  Each component
carries its own error bound and must meet its own tolerance, so a Gram matrix
costs one evaluation of every function per node instead of one adaptive
integral per matrix entry.  ``integrate_real_line`` also takes each
component's rough size and tail bound on its own, and grows one truncation
point until every component's tail is certified.  A one-dimensional
integrand is the special case with an empty leading shape.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NonFiniteIntegrandError, SubdivisionLimitError, TailBoundError


#: Gauss-Legendre nodes per panel.
BASE_RULE_ORDER = 15
#: Growth steps ``integrate_real_line`` may take while certifying the tails.
MAX_EXPANSIONS = 60


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the adaptive integrator.

    abs_tol and rel_tol combine as max(abs_tol, rel_tol * |integral|);
    endpoint_substitution maps the panel through x = a + (b-a)(1 - cos t)/2,
    which clusters nodes at both ends and tames algebraic endpoint behavior.
    """

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


@lru_cache(maxsize=1)
def _gauss_rule():
    # built on first use: importing numpy.polynomial costs every process about 1.7 MB
    return np.polynomial.legendre.leggauss(BASE_RULE_ORDER)


def _modulus(z):
    # hypot rounds exactly as abs(complex); numpy's complex absolute does not
    return np.hypot(np.real(z), np.imag(z))


def _panel_values(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Gauss sums of f over the panels [lo[k], hi[k]] from one call of f.

    Returns shape (..., n_panels).  A non-finite value raises naming the
    first panel, in the order given, that holds one.
    """
    nodes, weights = _gauss_rule()
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
    vals = np.asarray(f(xs.ravel()))
    vals = vals.reshape(vals.shape[:-1] + xs.shape)
    finite = np.isfinite(vals).reshape(-1, *xs.shape).all(axis=(0, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteIntegrandError(f"integrand not finite inside [{float(lo[k])!r}, {float(hi[k])!r}]")
    return np.asarray((weights * vals).sum(axis=-1) * half, dtype=complex)


def integrate_interval(f, a: float, b: float, config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over [a, b] to the configured tolerance, componentwise.

    Args:
        f: vectorized integrand, called with an ndarray of n points in (a, b).
            It returns shape (n,) for a scalar integrand or (..., n) for a
            vector of integrands: the last axis is the node axis.  Its value
            at a node must not depend on the other nodes in the call.
        a, b: finite endpoints, a < b.
        config: tolerances, panel budget, and the endpoint substitution flag.

    Each panel is integrated by the Gauss rule on itself and on its two
    halves; the discrepancy is that panel's error, per component.  The
    integral stops when every component k has total error within
    max(abs_tol, rel_tol * |I_k|), or within its rounding-noise floor.
    Until then the panel whose largest component error is largest is split.
    That ranking is by absolute error, so components of very different
    magnitude starve the small ones: the large components keep drawing the
    splits while a small one that has not met its own tolerance waits, and
    the panel budget can run out first.  Scale the components to comparable
    size before stacking them.

    f is called once per refinement step: once for the 12 panels of the 4
    initial segments (each segment and its two halves), then once per split
    for the 4 quarter panels of the two children, whose own Gauss values
    are the halves already computed.  Results are the same as integrating
    panel by panel; a non-finite value names the first affected panel in
    that panel-by-panel order.

    Returns:
        IntegralResult with the estimate and a conservative error bound (sum
        of per-panel discrepancies, at least the rounding-noise floor of the
        stopping test), both of the integrand's leading shape,
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

    evaluations = 0
    counter = itertools.count()
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0

    def add_segments(lo: np.ndarray, hi: np.ndarray, coarse: np.ndarray | None = None) -> None:
        # One call of f for the halves of every segment [lo[k], hi[k]], and for
        # the segments themselves unless their values are given.  Panels are
        # laid out coarse, left, right per segment, the order in which a
        # panel-by-panel loop would meet them.
        nonlocal evaluations, total, total_err
        mid = 0.5 * (lo + hi)
        if coarse is None:
            lows, highs = np.stack([lo, lo, mid], axis=-1), np.stack([hi, mid, hi], axis=-1)
        else:
            lows, highs = np.stack([lo, mid], axis=-1), np.stack([mid, hi], axis=-1)
        vals = _panel_values(f, lows.ravel(), highs.ravel())
        evaluations += lows.size * BASE_RULE_ORDER
        vals = vals.reshape(vals.shape[:-1] + lows.shape)
        if coarse is None:
            coarse = vals[..., 0]
        left, right = vals[..., -2], vals[..., -1]
        fine = left + right
        err = _modulus(coarse - fine)
        for k in range(len(lo)):
            seg = (float(lo[k]), float(hi[k]), fine[..., k], err[..., k], left[..., k], right[..., k])
            total += seg[2]
            total_err += seg[3]
            heapq.heappush(heap, (-float(seg[3].max()), next(counter), seg))

    n_init = 4
    edges = np.linspace(a, b, n_init + 1)
    add_segments(edges[:-1], edges[1:])

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
        # the children's coarse panels are the halves already evaluated
        add_segments(np.array([lo, mid]), np.array([mid, hi]), np.stack([left, right], axis=-1))
        n_segments += 1

    reported = np.maximum(total_err, floor)
    if np.ndim(total) == 0:
        return IntegralResult(value=complex(total), error=float(reported), evaluations=evaluations)
    return IntegralResult(value=total, error=reported, evaluations=evaluations)


def integrate_real_line(f, decay_scale: float, config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over the whole real line assuming exponential tail decay.

    Args:
        f: vectorized integrand, shape (n,) or (..., n) as for
            ``integrate_interval``.
        decay_scale: s such that |f(u)| falls off roughly like exp(-|u|/s) for
            large |u|; used for the initial truncation and the tail bound.
        config: interval-integration tolerances.

    The truncation point U grows until, for every component k,
    (|f_k(U)| + |f_k(-U)|) * 4 s sits below a quarter of that component's
    tolerance max(abs_tol, rel_tol * rough_k), where rough_k is a trapezoid
    estimate of |I_k| on a 65-point probe of [-8 s, 8 s].  Probing f itself
    (rather than trusting a pure exponential model) keeps algebraic
    prefactors honest.  The reported error adds each component's tail bound
    to its core error.  The reported evaluations count every abscissa passed
    to f: the probe, the truncation checks and the core integral.

    Raises:
        TailBoundError: tails could not be certified within MAX_EXPANSIONS
            growth steps.
    """
    if not decay_scale > 0.0:
        raise ValueError("decay_scale must be positive")

    u0 = 8.0 * decay_scale
    probe = np.linspace(-u0, u0, 65)
    probe_vals = np.asarray(f(probe))
    rough = np.abs(np.trapezoid(probe_vals, probe))
    tol = np.fmax(config.abs_tol, config.rel_tol * rough)  # fmax: a NaN rough leaves abs_tol

    u = u0
    evaluations = probe.size
    for expansion in range(MAX_EXPANSIONS):
        if expansion:
            edge = np.asarray(f(np.array([-u, u])))
            evaluations += 2
        else:
            edge = probe_vals[..., [0, -1]]  # linspace ends are exactly -u0 and u0
        if not np.all(np.isfinite(edge)):
            raise NonFiniteIntegrandError("integrand not finite at the truncation points")
        tail = np.abs(edge).sum(axis=-1) * decay_scale * 4.0
        if np.all(tail <= 0.25 * np.maximum(tol, 1e-300)):
            core = integrate_interval(f, -u, u, config)
            if np.ndim(tail) == 0:
                tail = float(tail)
            return IntegralResult(core.value, core.error + tail, core.evaluations + evaluations)
        u *= 1.6
    raise TailBoundError(f"could not certify tails out to |u| = {u:.3e}")
