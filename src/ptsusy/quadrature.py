"""Adaptive quadrature, and the Gauss rule of the well's eigenstate weight.

This module is the independent numerical referee for every closed form in the
package, so it deliberately avoids the analytic machinery of the other modules:
plain panel-adaptive Gauss-Legendre integration and an exponential-tail
wrapper for integrals over the half line [0, inf).  Integrands must accept
numpy arrays of abscissas and return arrays of values (real or complex).  An
integrand's value at a node must not depend on the other nodes of the same
call: ``integrate_interval`` calls it once per refinement round with the
nodes of several panels, and ``integrate_real_line`` reads its first
truncation check off the far end of its coarse probe.  One caller bends
this rule: the integrand of ``coherent.identity_gram_projection`` computes
its resolution kernel at all nodes of a call on shared panels, so a node's
value moves with the other nodes by about the kernel's tolerance; and the
kernel's inner integrand by a few ulps, as ``specfun.log_abs_gamma`` sums a
block of nodes in one matrix product, whose rounding may depend on its size.

Both integrators are vector valued: an integrand may return an array of
shape (..., n_nodes) whose last axis runs over the abscissas, and every
leading component is integrated on one shared set of panels.  Each component
carries its own error bound and must meet its own tolerance, so a Gram matrix
costs one evaluation of every function per node instead of one adaptive
integral per matrix entry.  ``integrate_real_line`` also takes each
component's rough size and tail bound on its own, and grows one truncation
point until every component's tail is certified.  A one-dimensional
integrand is the special case with an empty leading shape.

A panel's Gauss sum is one ``np.vecdot`` of its node weights with its
values, times its half width, and one call sums every panel of a round.
That dot rounds a panel's sum the same whether the panel is summed alone or
with others, so the batched integrator matches one that integrates panel by
panel, bit for bit.  The endpoint substitution is part of the rule: its
map moves the nodes and its Jacobian scales their weights.

``gauss_romanovski`` is the one fixed rule: the N-node Gauss rule of the
Romanovski weight (1 + t^2)^(-P/2-1) e^(G arccot t) on the real line,
cached per (P, G, N).  With t = cot(pi x / L) it integrates the square of
an eigenstate's term K e^(gamma x) sin^a Q(cot) over the whole box exactly,
at P = 2a, G = 2 gamma L / pi and N = deg Q + 1.  Its nodes are the
eigenvalues of the Jacobi matrix of the weight's three-term recurrence, its
weights Christoffel numbers, and its total mass mu0 a closed form whose
log-gamma comes from ``specfun``, the one analytic piece this module uses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NonFiniteIntegrandError, SubdivisionLimitError, TailBoundError
from .specfun import log_abs_gamma_point


#: Gauss-Legendre nodes per panel.
BASE_RULE_ORDER = 15
#: Growth steps ``integrate_real_line`` may take while certifying the tails.
MAX_EXPANSIONS = 60
#: Panels ``integrate_interval`` may split an interval into before it gives up.
MAX_SUBDIVISIONS = 2**14
#: Splits ``integrate_interval`` may evaluate in one integrand call.
MAX_ROUND_SPLITS = 16


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the adaptive integrator.

    abs_tol and rel_tol, finite and nonnegative, combine as max(abs_tol,
    rel_tol * |integral|); endpoint_substitution lays the panels out in t on
    [0, pi] and maps each node to x = a + (b-a)(1 - cos t)/2, its weight
    carrying the Jacobian (b-a) sin t / 2, which clusters nodes at both ends
    and tames algebraic endpoint behavior.  The panel budget is
    ``MAX_SUBDIVISIONS``.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    endpoint_substitution: bool = False

    def __post_init__(self):
        if not all(0.0 <= tol < math.inf for tol in (self.abs_tol, self.rel_tol)):
            raise DomainError(f"need finite, nonnegative tolerances: {self!r}")


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


# numpy.polynomial.legendre.leggauss(BASE_RULE_ORDER) written out; importing numpy.polynomial costs 1.7 ms, 1.1 MB
_NODES = np.array([
    -0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701, -0.5709721726085388,
    -0.3941513470775634, -0.20119409399743451, 0.0, 0.20119409399743451, 0.3941513470775634,
    0.5709721726085388, 0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_WEIGHTS = np.array([
    0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444, 0.16626920581699398,
    0.1861610000155622, 0.1984314853271116, 0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
    0.16626920581699398, 0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])


def _modulus(z):
    # hypot rounds exactly as abs(complex); numpy's complex absolute does not
    return np.hypot(z.real, z.imag)


def _rule(lo: np.ndarray, hi: np.ndarray, substitution=None) -> tuple:
    # The abscissas and node weights of the Gauss rule on the panels
    # [lo[k], hi[k]], one row per panel, and the panels' half widths.  With
    # substitution (a, h) the panels lie in t (see _substitute).
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    if substitution is None:
        return t, _WEIGHTS, half
    return _substitute(substitution, half, 1.0 - np.cos(t), np.sin(t))


def _substitute(substitution: tuple, half: np.ndarray, one_minus_cos: np.ndarray, sin: np.ndarray) -> tuple:
    # the rule of panels in t of half widths half under the substitution
    # (a, h): a node t maps to x = a + h (1 - cos t), and its weight carries
    # the Jacobian h sin t
    a, h = substitution
    return a + h * one_minus_cos, _WEIGHTS * (h * sin), half


def _start(a: float, b: float) -> tuple:
    # the 4 initial segments of [a, b], their ends lo and hi, and their 12
    # panels laid out coarse, left, right per segment
    edges = np.linspace(a, b, 5)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    panel_lo, panel_hi = np.array([[lo, lo, mid], [hi, mid, hi]]).transpose(0, 2, 1).reshape(2, -1)
    return lo, hi, panel_lo, panel_hi


def _substitution_start() -> tuple:
    # the start of every substituted integral, in t on [0, pi], and its
    # panels' half widths, 1 - cos and sin of their nodes
    start = _start(0.0, math.pi)
    t, _, half = _rule(*start[2:])
    return start, (half, 1.0 - np.cos(t), np.sin(t))


_SUBSTITUTED_START, _SUBSTITUTED_NODES = _substitution_start()


def _panel_values(f, xs: np.ndarray, weights: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, list]:
    """Gauss sums of f over panels from one call of f.

    xs holds each panel's abscissas, one row per panel, weights its node
    weights (broadcast against xs) and half its half width.  A panel's sums
    are one ``np.vecdot`` over its row, which gives the same bits whether the
    panel is summed alone or with others.  Returns the sums, shape (...,
    n_panels), and the indices of the panels that hold a non-finite value, in
    order; the sum of such a panel is 0.  A non-finite value makes its sum
    non-finite, so the values are read only when a sum is.
    """
    vals = np.asarray(f(xs.ravel()))
    vals = vals.reshape(vals.shape[:-1] + xs.shape)
    sums = np.asarray(np.vecdot(weights, vals) * half, dtype=complex)
    bad = []
    if not np.isfinite(sums).all():
        finite = np.isfinite(vals).reshape(-1, *xs.shape).all(axis=(0, 2))
        sums[..., ~finite] = 0.0
        bad = np.flatnonzero(~finite).tolist()
    return sums, bad


def _nonfinite(lo: np.ndarray, hi: np.ndarray, k: int) -> str:
    return f"integrand not finite inside [{float(lo[k])!r}, {float(hi[k])!r}]"


def _segments(lo: np.ndarray, hi: np.ndarray, coarse: np.ndarray, left: np.ndarray, right: np.ndarray) -> list:
    # (key, segment) per segment [lo[k], hi[k]] from its Gauss values on itself
    # and on its halves, the last axis running over the segments.  A segment
    # holds its ends, value, error and halves, views of one block copied out
    # for it alone, so that no segment keeps its round's arrays alive; its key
    # is its largest error (0 with no components).
    fine = left + right
    err = _modulus(coarse - fine)
    keys = err.reshape(-1, len(lo)).max(axis=0, initial=0.0).tolist()
    blocks = np.array([fine, err, left, right])
    out = []
    for key, lo_k, hi_k, block in zip(keys, lo.tolist(), hi.tolist(), blocks.transpose(-1, *range(blocks.ndim - 1))):
        fine_k, err_k, left_k, right_k = block.copy()
        out.append((key, (lo_k, hi_k, fine_k, err_k.real, left_k, right_k)))
    return out


def _split_round(f, substitution, parents: list) -> list:
    # The children of every parent segment from one call of f on the 4
    # quarter panels of each: per parent its two (key, segment) in order, or
    # the message naming the first non-finite of its quarter panels.  The
    # children's coarse panels are the parent's halves, already evaluated.
    points = []
    for lo, hi, *_ in parents:
        mid = 0.5 * (lo + hi)
        points.append((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi))
    points = np.array(points)
    panel_lo, panel_hi = points[:, :-1].ravel(), points[:, 1:].ravel()
    vals, bad = _panel_values(f, *_rule(panel_lo, panel_hi, substitution))
    vals = vals.reshape(vals.shape[:-1] + (-1, 2))
    coarse = np.stack([half for parent in parents for half in parent[4:]], axis=-1)
    children = _segments(points[:, 0:3:2].ravel(), points[:, 2::2].ravel(), coarse, vals[..., 0], vals[..., 1])
    out = [children[2 * j : 2 * j + 2] for j in range(len(parents))]
    for k in reversed(bad):
        out[k // 4] = _nonfinite(panel_lo, panel_hi, k)
    return out


def integrate_interval(f, a: float, b: float, config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over [a, b] to the configured tolerance, componentwise.

    Args:
        f: vectorized integrand, called with an ndarray of n points in (a, b).
            It returns shape (n,) for a scalar integrand or (..., n) for a
            vector of integrands: the last axis is the node axis.  Its value
            at a node must not depend on the other nodes in the call.
        a, b: finite endpoints, a < b, with b - a above 2**-30 max(|a|, |b|)
            so that the Gauss nodes of the first panels are distinct numbers.
        config: tolerances and the endpoint substitution flag.

    Each panel is integrated by the Gauss rule on itself and on its two
    halves; the discrepancy is that panel's error, per component.  With the
    endpoint substitution the panels lie in t on [0, pi]: f is called at
    x = a + (b - a)(1 - cos t)/2 for each node t, whose Gauss weight carries
    the Jacobian (b - a) sin t / 2.  A panel's sum is one ``np.vecdot`` of
    its weights with its values, times its half width; the panels of a call
    are summed in one dot, which gives each panel the bits it gets alone.  The
    integral stops when every component k has total error within
    max(abs_tol, rel_tol * |I_k|), or within its rounding-noise floor.
    Until then the panel whose largest component error is largest is split,
    the first made among equals.  That ranking is by absolute error, so
    components of very different magnitude starve the small ones: the large
    components keep drawing the splits while a small one that has not met
    its own tolerance waits, and the panel budget can run out first.  Scale
    the components to comparable size before stacking them, or integrate
    them one at a time, as ``operators.verify_operator_identities`` does
    with each quadrature row that has no Gauss-Romanovski rule.

    f is called once for the 12 panels of the 4 initial segments (each
    segment and its two halves), then once per refinement round.  A round
    takes the segment the loop pops next and the ones after it in pop order
    while the errors of the segments not taken still miss the target, so
    that the loop must split every one of them before it can stop.  It stops
    early at a segment whose children are evaluated already, at the panel
    budget, or at ``MAX_ROUND_SPLITS``.  Its call holds the 4 quarter panels
    of each split, the children's own Gauss values being the halves already
    computed.  The loop then splits one segment at a time, in the order and
    with the sums of a loop that evaluates each split alone, so results are
    the same as integrating panel by panel.  The segments a round takes are
    held to the rounding-noise floor at the most splits the round can make,
    which the floor reaches no earlier, so that the loop splits each of them
    unless |I| moves.  A non-finite value raises when the loop reaches its
    split, naming the first affected panel (in t under the substitution) in
    that panel-by-panel order.

    Returns:
        IntegralResult with the estimate and a conservative error bound (sum
        of per-panel discrepancies, at least the rounding-noise floor of the
        stopping test), both of the integrand's leading shape, and the
        number of abscissas of the panels they are built from.  For a scalar
        integrand the value is a complex and the error a float.

    Raises:
        ValueError: endpoints not finite, not a < b, or too close together
            for their magnitude.
        SubdivisionLimitError: panel budget exhausted before every component
            reached its tolerance.
        NonFiniteIntegrandError: integrand produced NaN or infinity.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise ValueError("integrate_interval needs finite endpoints with a < b")
    if b - a <= 2.0**-30 * max(abs(a), abs(b)):
        # the nodes would round onto a few representable numbers and the
        # panel discrepancies vanish with them: a wrong value, a tiny error
        raise ValueError(f"integrate_interval cannot resolve [{a!r}, {b!r}]: b - a is below 2**-30 max(|a|, |b|)")

    if config.endpoint_substitution:
        # the panels lie in t on [0, pi], all integrals starting on the same ones
        substitution = (a, (b - a) * 0.5)
        lo, hi, panel_lo, panel_hi = _SUBSTITUTED_START
        start = _substitute(substitution, *_SUBSTITUTED_NODES)
    else:
        substitution = None
        lo, hi, panel_lo, panel_hi = _start(a, b)
        start = _rule(panel_lo, panel_hi)

    counter = itertools.count()
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0

    def push(segments: list) -> None:
        nonlocal total, total_err
        for key, seg in segments:
            total += seg[2]
            total_err += seg[3]
            heapq.heappush(heap, (-key, next(counter), seg))

    vals, bad = _panel_values(f, *start)
    if bad:
        raise NonFiniteIntegrandError(_nonfinite(panel_lo, panel_hi, bad[0]))
    vals = vals.reshape(vals.shape[:-1] + (4, 3))
    push(_segments(lo, hi, vals[..., 0], vals[..., 1], vals[..., 2]))
    evaluations = 12 * BASE_RULE_ORDER

    # counter number of a segment on the heap -> what its split adds: its two
    # children, or the message of its first non-finite quarter panel
    children = {}
    n_segments = 4
    while True:
        size = _modulus(total)
        tol = np.maximum(config.abs_tol, config.rel_tol * size)
        # Floor: panel discrepancies cannot resolve below the rounding noise of
        # the accumulated panel values themselves.
        floor = 1e-16 * size * max(1, n_segments)
        target = np.maximum(tol, floor)
        if (total_err <= target).all():
            break
        if n_segments >= MAX_SUBDIVISIONS:
            worst = np.unravel_index(np.argmax(total_err - target), np.shape(total_err))
            raise SubdivisionLimitError(
                f"no convergence within {MAX_SUBDIVISIONS} panels "
                f"(residual error {total_err[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        top = heapq.heappop(heap)
        neg_err, number, seg = top
        if -neg_err <= 0.0:
            break  # best refinement already exact; nothing more to gain
        if number not in children:
            # A round: this segment, and the next ones in pop order while the
            # errors of the segments not taken still miss the target, so that
            # the loop must split each before it can converge.  The floor grows
            # with every split, so they are held to the floor at the most
            # splits the round can make: a taken segment whose children then
            # go unused, and uncounted, needs |I| to move at the round.
            taken = [top]
            rest = total_err - seg[3]
            room = min(MAX_ROUND_SPLITS, MAX_SUBDIVISIONS - n_segments - len(children))
            reach = np.maximum(tol, 1e-16 * size * (n_segments + room))
            while len(taken) < room and np.any(rest > reach) and heap:
                neg_key, following, _ = heap[0]
                if neg_key >= 0.0 or following in children:
                    break
                taken.append(heapq.heappop(heap))
                rest = rest - taken[-1][2][3]
            for entry in taken[1:]:
                heapq.heappush(heap, entry)
            children.update(zip((entry[1] for entry in taken), _split_round(f, substitution, [entry[2] for entry in taken])))
        split = children.pop(number)
        if isinstance(split, str):
            raise NonFiniteIntegrandError(split)
        total -= seg[2]
        total_err -= seg[3]
        push(split)
        evaluations += 4 * BASE_RULE_ORDER
        n_segments += 1

    reported = np.maximum(total_err, floor)
    if np.ndim(total) == 0:
        return IntegralResult(value=complex(total), error=float(reported), evaluations=evaluations)
    return IntegralResult(value=total, error=reported, evaluations=evaluations)


def integrate_real_line(f, decay_scale: float, config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate f over the half line [0, inf) only, assuming an exponential tail.

    A whole-line integral is that of f(u) + f(-u) over [0, inf).

    Args:
        f: vectorized integrand, shape (n,) or (..., n) as for
            ``integrate_interval``.
        decay_scale: s such that |f(u)| falls off roughly like exp(-u/s) for
            large u; used for the initial truncation and the tail bound.
            8 s must be finite.
        config: interval-integration tolerances.

    The truncation point U grows until, for every component k,
    |f_k(U)| * 4 s sits below a quarter of that component's tolerance
    max(abs_tol, rel_tol * rough_k), where rough_k is a trapezoid estimate
    of |I_k| on a 33-point probe of [0, 8 s], and the core integral runs
    over [0, U].  The first truncation check reads the probe's far end.
    Probing f itself (rather than trusting a pure exponential model) keeps
    algebraic prefactors honest.  The reported error adds each component's
    tail bound to its core error.  The reported evaluations count every
    abscissa passed to f: the probe, one point per growth step and the core
    integral.

    Raises:
        ValueError: decay_scale not positive or 8 s not finite.
        TailBoundError: the tail could not be certified within
            MAX_EXPANSIONS growth steps.
    """
    u0 = 8.0 * decay_scale
    if not (decay_scale > 0.0 and math.isfinite(u0)):
        raise ValueError(f"decay_scale must be positive with 8 * decay_scale finite, got {decay_scale!r}")

    probe = np.linspace(0.0, u0, 33)  # its last point is exactly u0
    probe_vals = np.asarray(f(probe))
    rough = np.abs(np.trapezoid(probe_vals, probe))
    tol = np.fmax(config.abs_tol, config.rel_tol * rough)  # fmax: a NaN rough leaves abs_tol

    u = u0
    evaluations = probe.size
    for expansion in range(MAX_EXPANSIONS):
        if expansion:
            edge = np.asarray(f(np.array([u])))
            evaluations += 1
        else:
            edge = probe_vals[..., -1:]
        if not np.all(np.isfinite(edge)):
            raise NonFiniteIntegrandError("integrand not finite at the truncation points")
        tail = np.abs(edge).sum(axis=-1) * decay_scale * 4.0
        if np.all(tail <= 0.25 * np.maximum(tol, 1e-300)):
            core = integrate_interval(f, 0.0, u, config)
            if np.ndim(tail) == 0:
                tail = float(tail)
            return IntegralResult(core.value, core.error + tail, core.evaluations + evaluations)
        u *= 1.6
    raise TailBoundError(f"could not certify the tail out to u = {u:.3e}")


#: The most Gauss-Romanovski rules ``gauss_romanovski`` keeps; the least
#: recently used goes first.
ROMANOVSKI_CACHE_SIZE = 1024


@lru_cache(maxsize=ROMANOVSKI_CACHE_SIZE, typed=True)  # typed: True and 1.0 must not hit the entry of 1
def gauss_romanovski(P: float, G: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """The N-node Gauss rule of the Romanovski weight on the real line.

    The weight is w(t) = (1 + t^2)^(-P/2-1) e^(G arccot t), arccot in
    (0, pi): with t = cot theta, sin^P theta e^(G theta) d theta.  Its
    moments of degree below P + 1 are finite, so the rule, exact for every
    polynomial of degree at most 2N - 1, exists while N - 1 < P/2; other
    arguments raise ``DomainError``.  Returns the nodes, rising, and the log
    of their weights, read-only, kept per (P, G, N).

    The monic orthogonal polynomials of w (Romanovski, or pseudo-Jacobi,
    polynomials: Jacobi's with alpha = conj(beta) = -P/2 - 1 - iG/2 on the
    imaginary line) satisfy t p_k = p_(k+1) + b_k p_k + c_k p_(k-1) with
    b_k = -G (P + 2) / (u (u - 2)) and c_k = k (P + 2 - k) (u^2 + G^2) /
    (u^2 (u^2 - 1)), u = P + 2 - 2k.  The nodes are the eigenvalues of the
    Jacobi matrix (Golub and Welsch, Math. Comp. 23 (1969) 221), from
    ``numpy.linalg.eigvalsh``.  The weights are Christoffel numbers,
    mu0 / sum_k r_k(t)^2 over the orthonormal polynomials scaled to r_0 = 1,
    summed along the recurrence in Python floats, not mu0 v_0^2 from the
    eigenvectors, which loses digits at large |G|.  mu0 = pi e^(G pi/2)
    Gamma(P + 1) / (2^P |Gamma(1 + P/2 + iG/2)|^2) is the integral of w,
    taken in log space with ``specfun.log_abs_gamma_point``.
    """
    if not (math.isfinite(P) and math.isfinite(G)) or type(N) is not int or not 0 < N or not 2 * (N - 1) < P:
        raise DomainError(f"no {N!r}-node Gauss-Romanovski rule at P = {P!r}, G = {G!r}: it needs N - 1 < P/2")
    b, root_c = [], []
    for k in range(N):
        u = P + 2.0 - 2.0 * k
        b.append(-G * (P + 2.0) / (u * (u - 2.0)))
        if k:
            root_c.append(math.sqrt(k * (P + 2.0 - k) / (u * u - 1.0)) * math.hypot(u, G) / u)
    jacobi = np.diag(b)
    jacobi.flat[N :: N + 1] = root_c  # the subdiagonal, which eigvalsh reads
    nodes = np.linalg.eigvalsh(jacobi)
    log_mu0 = math.log(math.pi) + 0.5 * math.pi * G + math.lgamma(P + 1.0) - P * math.log(2.0)
    log_mu0 -= 2.0 * log_abs_gamma_point(1.0 + 0.5 * P, 0.5 * G)
    log_weights = []
    for t in nodes.tolist():
        r_prev, r, total, c_prev = 0.0, 1.0, 1.0, 0.0
        for b_k, c_k in zip(b, root_c):
            r_prev, r = r, ((t - b_k) * r - c_prev * r_prev) / c_k
            c_prev = c_k
            total += r * r
        log_weights.append(log_mu0 - math.log(total))
    log_weights = np.array(log_weights)
    nodes.flags.writeable = log_weights.flags.writeable = False
    return nodes, log_weights
