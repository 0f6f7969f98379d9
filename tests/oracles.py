"""Reference routes that only the tests use.

``pairwise_gram`` is the per-pair loop that ``gram_matrix`` and
``identity_gram_projection`` ran before they became one vector-valued
integral: every upper-triangle entry is its own scalar adaptive integral,
with its own panels and its own error bound.

``panelwise_integrate`` and ``panelwise_real_line`` are the adaptive
integrator as it was before ``integrate_interval`` batched its panels: one
integrand call per 15-node panel, the coarse panel of every child segment
evaluated again, and a separate call for the first truncation check.  The
batched integrator must reproduce their values, errors and errors raised bit
for bit, with fewer integrand calls, on the half line [0, inf).  Both take
the same per-panel rule (``_panel_value``): one ``np.vecdot`` of the node
weights with the values, the endpoint substitution moving the nodes and
scaling the weights by its Jacobian.

``two_sided_resolution_kernel`` is ``coherent.resolution_kernel`` without
the fold onto u >= 0: two half-line integrals, one for each sign of u, each
taking log|Gamma| at its own u.  The folded integral puts its nodes
elsewhere, so the two agree to the kernel's tolerance, not bit for bit.

``serial_jet_mul`` is the jet product as it was before ``Jet.__mul__``
accumulated whole coefficient slices: a double loop over (k, j) with one
numpy product per term.  The sliced product adds the same terms in the same
order, so it must agree bit for bit.

``jet_apply_word`` is the operator-word fold as it was before words acted
on the cotangent form: every operand emits its Taylor jet at the sample
points, and each operator step is exact series arithmetic on the jets, with
cot and 1/sin^2 of the grid as jets too.  It shares nothing with
``operators.apply_word`` but the closed-form coefficients of W_m and V_m, so
the two must agree to the jets' roundoff.

``two_pass_step`` is one operator step of the word fold as it was before
``operators._step`` held Q and its magnitudes as the two planes of one
band: the operator runs twice, once on Q with the signed multipliers and
once on the magnitudes with their absolute values, and every d/dx builds
its multipliers again.  Each coefficient goes through the same operations in
both, so they must agree bit for bit.

``grouped_evaluate`` is the evaluation of folded cotangent terms as it was
before ``operators._evaluate`` ran one Horner pass over prepared rows: one
Horner loop per distinct row degree.  Each row goes through the same
operations in both, the angle taken from the nearer wall, so they must agree
bit for bit.

``SuperPotential``, ``superpotential`` and ``potential`` are the closed forms
of W_m and V_m on the grid.  The package folds them into operator words as
cotangent polynomials and never evaluates them pointwise; the tests check
the hierarchy's potential relations and the eigenfunctions' log-derivative
against them.

``log_master_integral`` is the master integral of the coherent states in log
space; the package builds its gamma ratios inline.  ``master_integral`` and
``cs_normalization`` are the exp forms of it and of
``coherent.cs_log_normalization``, and the tests compare the plain values.

``normalization_double_sum`` is the independent route to the eigenfunction
normalization constant that ``wavefn.normalization_K`` computes by its
product form: the gamma / Pochhammer double sum.  It is analytically
identical but numerically ill conditioned (its terms cancel roughly like
10**n), so it guards itself and serves as a cross-check at small n only.

``shifted_normalization_K`` is log K of state n of level m as
``wavefn.EigenFunction`` once formed it: the base constant of a
``ModelParams`` whose strength index is shifted to nu + m.  It builds that
shifted parameter set and its own table; the package reads entry (m, n) of
the table of the unshifted set, and the two agree bit for bit.

``per_state_log_K`` and ``per_state_cot_q`` are log K and Q of one state as
``wavefn.EigenFunction`` built them before ``wavefn.state_table``: the
product form's rung factors summed one at a time on Python floats, and
Jacobi's three-term recurrence run for that state alone.  The table runs
the recurrence once per distinct S for all states and the rung factors in
one masked pass, and every entry agrees with these bit for bit.

``mp_eigenfunctions`` and ``mp_partner`` are the eigenfunctions and the
explicit first-level form of Bergeron et al. (J. Phys. A 45 (2012) 244028)
from the Jacobi polynomials at 60 digits
on the imaginary cotangent line, with the package's own log K:
P_n^(a, b) = (a + 1)_n / n! 2F1(-n, n + a + b + 1; a + 1; (1 - z) / 2),
as ``mpmath.jacobi`` sums it, with the prefactor taken once per polynomial.
They share no summation with the three-term recurrence of ``wavefn``, and
at 60 digits the cancellation of the hypergeometric series costs nothing.

``fourier_row`` is the Jacobi factor of a state in its two-sided binomial
form (DLMF 18.5.8), which the package summed before every state was valued
by its cotangent form: at z = i cot theta, (z -+ 1) / 2 =
i e^(+-i theta) / (2 sin theta), so

    sin^n P_n^(alpha, conj alpha)(i cot theta) = (i/2)^n sum_k F_k e^(i (2k - n) theta),
    F_k = C(n + alpha, n - k) C(n + conj alpha, k),

and the phase (-i)^n turns (i/2)^n into 2^-n.  Its terms cancel at large nu
or beta, where the three-term recurrence of ``EigenFunction.cot_terms``
does not.  ``full_length_rows`` sums it: one complex Horner pass in
e^(2 i theta) over all n + 1 coefficients, then the turn e^(-i n theta),
complex rows out.  Its imaginary part is roundoff, so it is the check that
the phase convention makes every state real, and its real part is an
independent route to the state's values.  ``convolution_cot_q`` builds Q
from it.

``fraction_loop_log_abs_gamma`` is ``specfun.log_abs_gamma`` as it was
before its partial fractions became one matrix product: one fraction at a
time over arrays of y's shape, then the same real-arithmetic tail.  The
product sums the same terms in another order, so the two agree to a few
ulps, not bit for bit.

``gap_factor_N_loop`` is ``spectrum.gap_factor_N`` as it was before it
became the M^2 product M^2(2n - m, m): its own loop over the rungs of the
diagonal chain.  Both take the same factors in the same order, so they must
agree bit for bit, the zero branch included.

``per_identity_quadratures`` is the quadrature rows of an identity cell as
they were before the cell integrated them as components of one integral:
each chain mean |word state|^2 and the eigen residual |H phi / E - phi|^2
is its own adaptive integral on its own panels, the means to
``operators._SUITE_CONFIG`` and the residual with abs_tol lowered to 1e-16.
The shared panels differ, so the two agree within the sum of their error
bounds, not bit for bit.

``derivative`` is the Richardson-extrapolated central difference that
checks the Taylor jets and the superpotential's derivative;
``ground_energy`` is the level's n = 0 energy by name.

``LossOfSignificanceError`` is the error ``normalization_double_sum``
raises when its terms cancel past ten digits; ``phase_alpha`` is the mixing
angle of the first-level form.
"""

import cmath
import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import mpmath
import numpy as np

from ptsusy import jets, quadrature
from ptsusy.coherent import _KERNEL_BLOCK, _KERNEL_CONFIG, CoherentState, cs_log_normalization
from ptsusy.errors import (
    DegreeCapError,
    DomainError,
    NonFiniteIntegrandError,
    PoleError,
    PtsusyError,
    SubdivisionLimitError,
    TailBoundError,
)
from ptsusy.operators import _SUITE_CONFIG, EDGE_CLAMP, NOISE_FLOOR, TrigPolyBump, _OperandStack, _rel, apply_word
from ptsusy.quadrature import (
    BASE_RULE_ORDER,
    DEFAULT_CONFIG,
    MAX_EXPANSIONS,
    IntegralResult,
    integrate_interval,
    integrate_real_line,
)
from ptsusy.specfun import _LANCZOS_C, _LANCZOS_G, _LOG_2PI, log_abs_gamma, log_gamma
from ptsusy.spectrum import (
    LEVEL_CAP,
    LevelIndex,
    ModelParams,
    _gap_product_logs,
    energy,
    gap_factor_M,
    gap_factor_N,
)
from ptsusy.wavefn import eigenfunction, log_ground_constant, normalization_K


def serial_jet_mul(a, b):
    """Coefficients of the product of two jets, term by term."""
    n = min(a.order, b.order)
    out = np.zeros((n + 1,) + np.broadcast_shapes(a.c.shape[1:], b.c.shape[1:]), dtype=complex)
    for k in range(n + 1):
        for j in range(k + 1):
            out[k] += a.c[j] * b.c[k - j]
    return out


def operand_jet(func, x, order: int) -> jets.Jet:
    """Taylor jet of an operand at the points x; a stack has its members on
    the axis after the Taylor axis."""
    if isinstance(func, _OperandStack):
        return jets.Jet(np.stack([operand_jet(f, x, order).c for f in func.funcs], axis=1))
    X = jets.Jet.variable(np.asarray(x, dtype=float), order)
    s, _ = jets.sin_cos(X * (math.pi / func.params.length))
    if isinstance(func, TrigPolyBump):
        acc = jets.Jet.constant(0.0, order, np.shape(x))
        for j, cj in enumerate(func.coeffs, start=1):
            sj, _ = jets.sin_cos(X * (j * math.pi / func.params.length))
            acc = acc + sj * float(cj)
        return s * s * acc
    if isinstance(func, CoherentState):
        return jets.exp(X * func._rate + jets.log(s) * (func._dp + 1.0)) * math.exp(func.log_R + func._log_K0)
    return func.taylor(x, order)


def _jet_step(params, kind, level, fj, cot, csc2, sign):
    hbar = params.hbar
    if kind in ("A", "Adag"):
        lvl = params.nu + level + 1.0
        w = (cot.truncate(fj.order - 1) * lvl - params.beta / lvl) * (-sign * math.pi * hbar / params.length)
        return fj.derivative() * (hbar if kind == "A" else -hbar) + w * fj
    if kind == "H":
        lvl = params.nu + level
        c, c2 = cot.truncate(fj.order - 2), csc2.truncate(fj.order - 2)
        v = (c2 * (lvl * (lvl + 1.0)) - c * (2.0 * params.beta)) * params.epsilon0
        kinetic = fj.derivative().derivative() * (-(hbar**2) / (2.0 * params.mass))
        return kinetic + v * fj
    raise ValueError(f"unknown operator kind {kind!r}")


@dataclass(frozen=True)
class SuperPotential:
    """Closed-form superpotential of hierarchy level m.

    ``sign=-1`` gives the sign-flipped family that ``verify`` uses as its
    negative control.
    """

    params: ModelParams
    m: int
    sign: float = 1.0

    def __call__(self, x):
        p = self.params
        arr = np.asarray(x, dtype=float)
        if not np.all((arr > 0.0) & (arr < p.length)):
            raise DomainError("superpotential defined on the open interval (0, L)")
        theta = math.pi * arr / p.length
        s = p.nu + self.m + 1.0
        w = -(math.pi * p.hbar / p.length) * (s / np.tan(theta) - p.beta / s)
        return self.sign * w


def superpotential(params, m: int, x, sign: float = 1.0):
    """W_m(x); real, diverging to -inf at the left wall and +inf at the right."""
    return SuperPotential(params, m, sign)(x)


def potential(params, m: int, x):
    """Potential of hierarchy level m: e0 times the strength (nu+m)(nu+m+1)
    on 1/sin^2 plus the cotangent tilt -2 beta cot."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < params.length)):
        raise DomainError("potential defined on the open interval (0, L)")
    theta = math.pi * arr / params.length
    lvl = params.nu + m
    return params.epsilon0 * (
        (lvl * (lvl + 1.0)) / np.sin(theta) ** 2 - 2.0 * params.beta / np.tan(theta)
    )


def jet_apply_word(params, word, func, x, sign=1.0):
    """``operators.apply_word`` folded over Taylor jets of the operand."""
    arr = np.asarray(x, dtype=float)
    order = sum(2 if kind == "H" else 1 for kind, _ in word)
    fj = operand_jet(func, arr, order)
    s, c = jets.sin_cos(jets.Jet.variable(arr, order) * (math.pi / params.length))
    cot, csc2 = c / s, 1.0 / (s * s)
    for kind, level in word:
        fj = _jet_step(params, kind, level, fj, cot, csc2, sign)
    return fj.value


class SplitTerms(NamedTuple):
    """Cotangent terms with Q and the magnitudes it came from as two arrays."""

    log_c: np.ndarray
    gamma: np.ndarray
    power: np.ndarray
    coeffs: np.ndarray
    mag: np.ndarray


def split_terms(terms) -> SplitTerms:
    """The ``SplitTerms`` of folded ``operators._Terms``, whose band holds
    Q in plane 0 and the magnitudes in plane 1."""
    coeffs, mag = terms.band
    return SplitTerms(terms.log_c, terms.gamma, terms.power, coeffs, mag.real)


def _two_pass_d_dx(params, terms, q, lift=np.positive):
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


def _two_pass_times(poly, q):
    # product with the polynomial poly in c, lowest coefficient first
    n = q.shape[1]
    out = np.zeros((q.shape[0], n + len(poly) - 1), dtype=q.dtype)
    for i, p in enumerate(poly):
        out[:, i : i + n] += p * q
    return out


def two_pass_step(params, kind, level, terms: SplitTerms, sign, shift=0.0) -> SplitTerms:
    """One operator applied to Q and, separately, to its magnitudes; an "H"
    step subtracts shift * Q."""
    if kind in ("A", "Adag"):
        lvl = params.nu + level + 1.0
        unit = -sign * math.pi * params.hbar / params.length
        poly = ((-params.beta / lvl) * unit, lvl * unit)
        scale = params.hbar if kind == "A" else -params.hbar

        def op(q, lift):
            return _two_pass_d_dx(params, terms, q, lift) * lift(scale) + _two_pass_times(lift(poly), q)

    elif kind == "H":
        lvl = params.nu + level
        strength = lvl * (lvl + 1.0) * params.epsilon0
        poly = (strength - shift, -2.0 * params.beta * params.epsilon0, strength)
        scale = -(params.hbar**2) / (2.0 * params.mass)

        def op(q, lift):
            d2 = _two_pass_d_dx(params, terms, _two_pass_d_dx(params, terms, q, lift), lift)
            return d2 * lift(scale) + _two_pass_times(lift(poly), q)

    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return terms._replace(coeffs=op(terms.coeffs, np.positive), mag=op(terms.mag, np.abs))


def grouped_evaluate(params, terms: SplitTerms, x):
    """Rows of folded cotangent terms at the 1-d points x, one Horner loop
    per degree."""
    q = np.where(np.abs(terms.coeffs) > NOISE_FLOOR * terms.mag, terms.coeffs, 0.0)
    nonzero = q != 0.0
    degree = np.where(nonzero.any(axis=1), q.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    # theta from the distance to the nearer wall, cos signed by the side of
    # the midpoint, as the operator layer takes them
    theta = np.minimum(x, params.length - x) * (math.pi / params.length)
    s, cos = np.sin(theta), np.copysign(np.cos(theta), 0.5 * params.length - x)
    log_s = np.log(s)
    rows = np.empty((len(q), x.size), dtype=complex)
    for d in np.unique(degree):
        sel = degree == d
        acc = np.broadcast_to(q[sel, d, None], (np.count_nonzero(sel), x.size))
        s_pow = np.ones_like(s)
        for j in range(d - 1, -1, -1):
            s_pow = s_pow * s
            acc = acc * cos + q[sel, j, None] * s_pow
        expo = terms.log_c[sel, None] + terms.gamma[sel, None] * x + (terms.power[sel, None] - d) * log_s
        rows[sel] = np.exp(expo) * acc
    return rows


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


def _modulus(z):
    return np.hypot(np.real(z), np.imag(z))


def _panel_value(f, a, b, order, substitution=None):
    """The Gauss sum of f over the panel [a, b] by the rule of
    ``integrate_interval``: one ``np.vecdot`` of the node weights with the
    values, times the half width.  With substitution (x0, h) the panel lies
    in t, a node t maps to x = x0 + h (1 - cos t) and its weight carries the
    Jacobian h sin t."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    xs = 0.5 * (a + b) + half * nodes
    if substitution is not None:
        x0, h = substitution
        weights = weights * (h * np.sin(xs))
        xs = x0 + h * (1.0 - np.cos(xs))
    vals = np.asarray(f(xs))
    if not np.isfinite(vals).all():
        raise NonFiniteIntegrandError(f"integrand not finite inside [{a!r}, {b!r}]")
    return np.asarray(np.vecdot(weights, vals) * half, dtype=complex)


def panelwise_integrate(f, a, b, config=DEFAULT_CONFIG):
    """``integrate_interval`` with one integrand call per panel."""
    substitution = None
    if config.endpoint_substitution:
        substitution, a, b = (a, (b - a) * 0.5), 0.0, math.pi

    order = BASE_RULE_ORDER
    evals = 0

    def make_segment(lo, hi):
        nonlocal evals
        evals += 3 * order
        mid = 0.5 * (lo + hi)
        coarse = _panel_value(f, lo, hi, order, substitution)
        left = _panel_value(f, lo, mid, order, substitution)
        right = _panel_value(f, mid, hi, order, substitution)
        fine = left + right
        return (lo, hi, fine, _modulus(coarse - fine))

    counter = itertools.count()
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    edges = np.linspace(a, b, 5)
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = make_segment(float(lo), float(hi))
        total += seg[2]
        total_err += seg[3]
        heapq.heappush(heap, (-float(seg[3].max()), next(counter), seg))
    n_segments = 4
    while True:
        size = _modulus(total)
        tol = np.maximum(config.abs_tol, config.rel_tol * size)
        target = np.maximum(tol, 1e-16 * size * n_segments)
        if (total_err <= target).all():
            break
        if n_segments >= quadrature.MAX_SUBDIVISIONS:
            worst = np.unravel_index(np.argmax(total_err - target), np.shape(total_err))
            raise SubdivisionLimitError(
                f"no convergence within {quadrature.MAX_SUBDIVISIONS} panels "
                f"(residual error {total_err[worst]:.3e}, tolerance {tol[worst]:.3e})"
            )
        neg_err, _, (lo, hi, fine, err) = heapq.heappop(heap)
        if -neg_err <= 0.0:
            break
        mid = 0.5 * (lo + hi)
        total -= fine
        total_err -= err
        for child_lo, child_hi in ((lo, mid), (mid, hi)):
            child = make_segment(child_lo, child_hi)
            total += child[2]
            total_err += child[3]
            heapq.heappush(heap, (-float(child[3].max()), next(counter), child))
        n_segments += 1

    reported = np.maximum(total_err, 1e-16 * size * n_segments)
    if np.ndim(total) == 0:
        return IntegralResult(complex(total), float(reported), evals)
    return IntegralResult(total, reported, evals)


def panelwise_real_line(f, decay_scale, config=DEFAULT_CONFIG):
    """``integrate_real_line`` on ``panelwise_integrate``, probing every truncation point."""
    u0 = 8.0 * decay_scale
    probe = np.linspace(0.0, u0, 33)
    rough = abs(np.trapezoid(np.asarray(f(probe)), probe))
    u = u0
    for _ in range(MAX_EXPANSIONS):
        edge = np.asarray(f(np.array([u])))
        if not np.all(np.isfinite(edge)):
            raise NonFiniteIntegrandError("integrand not finite at the truncation points")
        tail = float(np.sum(np.abs(edge))) * decay_scale * 4.0
        tol = max(config.abs_tol, config.rel_tol * max(rough, 0.0))
        if tail <= 0.25 * max(tol, 1e-300):
            core = panelwise_integrate(f, 0.0, u, config)
            return IntegralResult(core.value, core.error + tail, core.evaluations + 1)
        u *= 1.6
    raise TailBoundError(f"could not certify the tail out to u = {u:.3e}")


def two_sided_resolution_kernel(params, m: int, x):
    """``coherent.resolution_kernel`` as the sum of its half-line integrals over u >= 0 and u <= 0."""
    dp = params.nu + m
    s = dp + 1.0
    L = params.length
    xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    decay = 1.0 / (2.0 * math.pi * s * np.minimum(xs / L, 1.0 - xs / L))
    drift = math.pi * s * (1.0 - 2.0 * xs / L)
    log_front = (
        (dp + 1.0) * math.log(4.0)
        - math.log(math.pi)
        - math.lgamma(2.0 * dp + 3.0)
        + (2.0 * dp + 2.0) * np.log(np.sin(math.pi * xs / L))
        + np.log(decay)
    )

    def half(sign):
        # the u-integrand at u = sign * decay_i * t, log|Gamma| taken at that u
        def integrand(t):
            out = np.empty((xs.size, t.size))
            step = max(1, _KERNEL_BLOCK // t.size)
            for lo in range(0, xs.size, step):
                rows = slice(lo, lo + step)
                u = sign * decay[rows, None] * t
                expo = (
                    2.0 * log_abs_gamma(dp + 2.0, s * u) + drift[rows, None] * u + log_front[rows, None] - np.log1p(u * u)
                )
                out[rows] = np.exp(expo)
            return out

        return integrate_real_line(integrand, 1.0, _KERNEL_CONFIG).value.real

    return (half(1.0) + half(-1.0)).reshape(np.shape(x))


def log_master_integral(delta: float, z: complex) -> complex:
    """Principal log of the master integral; safe for large |Re z|.

    The master integral is (1/L) int_0^L sin(pi x/L)**(2 delta + 2)
    exp(z x / L) dx for any complex z; it needs delta > -3/2 so the endpoint
    power is integrable.
    """
    if delta <= -1.5:
        raise DomainError("master integral needs delta > -3/2")
    tau = 1j * complex(z) / (2.0 * math.pi)
    return (
        log_gamma(2.0 * delta + 3.0)
        + 0.5 * complex(z)
        - (delta + 1.0) * math.log(4.0)
        - log_gamma(delta + 2.0 + tau)
        - log_gamma(delta + 2.0 - tau)
    )


def master_integral(delta: float, z: complex) -> complex:
    """(1/L) int_0^L sin(pi x/L)**(2 delta + 2) exp(z x / L) dx, delta > -3/2."""
    return complex(np.exp(log_master_integral(delta, z)))


def cs_normalization(params, m: int, q: float) -> float:
    """R(q), the coherent-state normalization constant."""
    return math.exp(cs_log_normalization(params, m, q))


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


def per_state_log_K(params, m: int, n: int) -> float:
    """log K of state n of level m by its own product form, one state at a
    time on Python floats: the scalar ground constant at (nu + m) + n plus
    the rung factors at nu + m, accumulated in rising rung order."""
    nu, beta = params.nu + m, params.beta
    s = n + nu + 1.0
    log_rungs = n * math.log(s) if n else 0.0
    log_rungs += 0.5 * (
        math.lgamma(n + 1.0)
        + math.lgamma(2.0 * n + 2.0 * nu + 2.0)
        - math.lgamma(n + 2.0 * nu + 2.0)
    )
    for j in range(1, n + 1):
        log_rungs -= 0.5 * math.log((nu + j) ** 2 * s * s + beta * beta)
    return log_ground_constant(nu + n, beta, params.length) + log_rungs


def per_state_cot_q(params, m: int, n: int) -> np.ndarray:
    """Q of state n of level m by Jacobi's three-term recurrence (DLMF 18.9.1)
    run for that state alone on Python floats, S = n + (nu + m) + 1:
    Q_0 = 1, Q_1 = beta / S + (1 - S) c and
    Q_(k+1) = (A_k c + b_k) Q_k + C_k Q_(k-1), lowest power first."""
    beta, s = params.beta, n + (params.nu + m) + 1.0
    q_prev, q = [1.0], [beta / s, 1.0 - s]
    for k in range(1, n):
        two = 2.0 * (k - s)
        den = (k + 1) * (k - 2.0 * s + 1.0)
        a = (two + 1.0) * (two + 2.0) / (2.0 * den)
        b = -4.0 * beta * (two + 1.0) / (2.0 * den * two)
        c = ((k - s) ** 2 + (beta / s) ** 2) * (two + 2.0) / (den * two)
        q_prev, q = q, [a * lo + b * mid + c * hi for lo, mid, hi in zip([0.0, *q], [*q, 0.0], [*q_prev, 0.0, 0.0])]
    return np.array(q if n else q_prev)


def shifted_normalization_K(params, m: int, n: int) -> float:
    """log K of state n of level m: base state n of the family at strength index nu + m."""
    return normalization_K(replace(params, nu=params.nu + m), n)


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


def ground_energy(params, m: int) -> float:
    """Ground-state energy of hierarchy level m."""
    return energy(params, LevelIndex(m=m, n=0))


def gap_factor_N_loop(params, n: int, m: int) -> float:
    """N(n, m) from its own list of rung factors, read from the top level 2n + 1."""
    nu, beta = params.nu, params.beta
    top = 2.0 * n + nu + 2.0
    factors = []
    for k in range(m + 1):
        factors.append(2.0 * n - k + 1.0)
        factors.append(2.0 * n + 2.0 * nu + k + 3.0)
        factors.append(1.0 + beta**2 / ((k + nu + 1.0) * top) ** 2)
    log_n = _gap_product_logs(factors)
    return 0.0 if log_n == -math.inf else math.exp(log_n)


class StepUnderflowError(PtsusyError, ValueError):
    """Finite-difference step too small to resolve at machine precision."""


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


class LossOfSignificanceError(PtsusyError, ArithmeticError):
    """A cancellation-prone sum lost too many significant digits."""


def phase_alpha(params, n: int) -> float:
    """Mixing angle arctan(beta / ((nu + 1)(nu + n + 2))) of the first-level closed form."""
    return math.atan(params.beta / ((params.nu + 1.0) * (params.nu + n + 2.0)))


def _mp_points(x, length):
    # (x, sin theta, (1 - i cot theta) / 2) at every point, as mpmath numbers
    out = []
    for xv in np.ravel(x):
        theta = mpmath.pi * mpmath.mpf(xv) / length
        out.append((mpmath.mpf(xv), mpmath.sin(theta), (1 - 1j * mpmath.cot(theta)) / 2))
    return out


def _mp_jacobi(n, a):
    # P_n^(a, conj a) at the point u = (1 - z) / 2, as mpmath.jacobi sums it
    b = mpmath.conj(a)
    pref = mpmath.rf(a + 1, n) / mpmath.factorial(n)
    return lambda u: pref * mpmath.hyp2f1(-n, n + a + b + 1, a + 1, u)


def mp_eigenfunctions(states, x, dps=60):
    """Rows of the eigenfunctions ``states``, all of one model, at the
    interior points x: (-i)^n K e^(gamma x) sin^(nu + m + n + 1) P_n(i cot)."""
    p = states[0].params
    rows = []
    with mpmath.workdps(dps):
        points = _mp_points(x, p.length)
        for f in states:
            n, nu = f.idx.n, p.nu + f.idx.m
            s = n + nu + 1.0
            jacobi = _mp_jacobi(n, mpmath.mpc(-s, p.beta / s))
            const = (-1j) ** n * mpmath.exp(f.log_K)
            rate = -p.beta * mpmath.pi / (p.length * s)
            rows.append([complex(const * mpmath.exp(rate * xv) * sn ** (nu + n + 1) * jacobi(u)) for xv, sn, u in points])
    return np.array(rows).reshape((len(states),) + np.shape(x))


def mp_partner(params, n: int, x, dps=60):
    """First-level state n from its explicit closed form at the interior points x.

    A cosine rotated by the mixing angle ``phase_alpha`` multiplies the
    degree n + 1 polynomial, and an imaginary companion term carries the
    parameter-shifted degree n polynomial.  It shares no step with the
    ladder fold, so it is the second route to the level-1 states.
    """
    nu, beta, L, hbar, mass = params.nu, params.beta, params.length, params.hbar, params.mass
    log_K = normalization_K(params, n + 1)
    gap = energy(params, LevelIndex(0, n + 1)) - energy(params, LevelIndex(0, 0))
    amp = math.sqrt(2.0 * mass * (n + 1.0) ** 2 * (gap / (n + 1.0)) / (n + 2.0 * nu + 3.0))
    out = []
    with mpmath.workdps(dps):
        s1 = n + nu + 2.0
        a1 = mpmath.mpc(-s1, beta / s1)
        top, shift = _mp_jacobi(n + 1, a1), _mp_jacobi(n, a1 + 1)
        alpha_mix = phase_alpha(params, n)
        const = (-1j) ** (n + 1) * mpmath.exp(log_K) / mpmath.sqrt(2.0 * mass * gap)
        for xv, sn, u in _mp_points(x, L):
            theta = mpmath.pi * xv / L
            bracket = amp * mpmath.cos(theta - alpha_mix) * sn ** (n + 1) * top(u) + (
                0.5j * mpmath.pi * hbar * (n + 2 * nu + 2) / L
            ) * sn**n * shift(u)
            out.append(complex(const * mpmath.exp(-beta * mpmath.pi * xv / (L * s1)) * sn**nu * bracket))
    return np.array(out).reshape(np.shape(x))


def fourier_row(f) -> np.ndarray:
    """G_k = 2^-n F_k, k = 0..n, of the eigenfunction f: F_k = C(n + alpha, n - k)
    C(n + conj alpha, k), alpha = -S + i beta / S, S = nu + m + n + 1.  The
    binomials of conjugate arguments are conjugate, each a product of its
    factors, so G_(n - k) = conj G_k up to rounding."""
    ((_, _, s, _),) = f.cot_terms
    n = f.idx.n
    w = n + complex(-s, f.params.beta / s)
    binom = [1.0 + 0.0j]
    for j in range(n):
        binom.append(binom[-1] * (w - j) / (j + 1))
    binom = np.array(binom)
    return binom[::-1] * binom.conj() * 0.5**n


def full_length_rows(states, x):
    """Complex rows of the eigenfunctions ``states``, all of one model, at the
    interior points x: K e^(gamma x) sin^(nu + m + 1) e^(-i n theta)
    sum_k G_k e^(2 i k theta), every G_k of ``fourier_row`` summed."""
    p = states[0].params
    x = np.asarray(x, dtype=float)
    theta = math.pi * x / p.length
    z = np.exp(2j * theta)
    rows = []
    for f in states:
        g = fourier_row(f)
        acc = np.full(theta.shape, g[-1])
        for g_k in g[-2::-1]:
            acc = acc * z + g_k
        ((log_k, gamma, _, _),) = f.cot_terms
        envelope = np.exp(log_k + gamma * x + (p.nu + f.idx.m + 1.0) * np.log(np.sin(theta)))
        rows.append(envelope * acc * np.exp(-1j * f.idx.n * theta))
    return np.array(rows)


def convolution_cot_q(f) -> np.ndarray:
    """Q of the eigenfunction f's cotangent form summed from its Fourier row,
    Q(c) = sum_k 2^-n F_k (c + i)^k (c - i)^(n - k), by two convolution
    loops, with the imaginary part, roundoff by the phase convention,
    dropped; ``EigenFunction.cot_terms`` builds Q by the Jacobi recurrence."""
    n, g = f.idx.n, fourier_row(f)
    down = [np.ones(1, dtype=complex)]
    for _ in range(n):
        down.append(np.convolve(down[-1], [-1j, 1.0]))
    q = g[n:]
    for k in range(n - 1, -1, -1):
        q = np.convolve(q, [1j, 1.0]) + g[k] * down[n - k]
    return q.real


def fraction_loop_log_abs_gamma(x: float, y):
    """log|Gamma(x + iy)| for a real x >= 0.5 and a real array y, summing the
    Lanczos partial fractions c_i / (a + iy), a = x - 1 + i, one at a time
    and then the tail of ``specfun.log_abs_gamma`` in its order of steps."""
    y = np.asarray(y, dtype=float)
    y2 = y * y
    re = np.full(y.shape, _LANCZOS_C[0])
    im = np.zeros(y.shape)
    for i in range(1, len(_LANCZOS_C)):
        a = x - 1.0 + i
        r = _LANCZOS_C[i] / (y2 + a * a)
        im -= r
        re += a * r
    im *= y
    t = x - 0.5 + _LANCZOS_G
    log_s2 = np.log(re * re + im * im)
    log_t = 0.5 * (x - 0.5) * np.log(y2 + t * t)
    return (log_t - y * np.arctan2(y, t)) + (0.5 * log_s2 + (0.5 * _LOG_2PI - t))


class QuadratureComponent(NamedTuple):
    """One quadrature residual of an identity row: the residual, the error
    bound of its integral and the closed-form target it is relative to (None
    where the residual is the integral itself)."""

    residual: float
    error: float
    target: float | None


def per_identity_quadratures(params, n: int, m: int, sign: float = 1.0) -> dict:
    """The quadrature rows of cell (n, m), one adaptive integral each.

    Returns {row name: {residual key: QuadratureComponent}} for mean_BBdag,
    mean_BdagB (n > m), partial_chain_means (n != m) and eigen_residual.
    """
    L = params.length
    lo, hi = EDGE_CLAMP * L, (1.0 - EDGE_CLAMP) * L
    rung = math.pi * params.hbar / L
    word_b = tuple(("A", k) for k in range(m + 1))
    word_bdag = tuple(("Adag", k) for k in range(m, -1, -1))
    lam = tuple(("A", k) for k in range(m + 1, n + 1))
    lam_dag = tuple(("Adag", k) for k in range(n, m, -1))
    theta = tuple(("Adag", k) for k in range(m, n, -1))
    theta_dag = tuple(("A", k) for k in range(n + 1, m + 1))
    phi_n, phi_m, phi_up = (eigenfunction(params, level, n) for level in (0, m, m + 1))

    def chain_mean(word, state, target, chain_sign=1.0, unit=1.0):
        def integrand(x):
            return np.abs(apply_word(params, word, state, x, chain_sign)) ** 2 / unit

        quad = integrate_interval(integrand, lo, hi, _SUITE_CONFIG)
        mean = float(quad.value.real)
        return QuadratureComponent(mean if target is None else _rel(mean, target), quad.error, target)

    pref = rung ** (m + 1) * gap_factor_M(params, n, m)
    rows = {"mean_BBdag": {"mean_BBdag": chain_mean(word_bdag, phi_up, pref**2, sign)}}
    if n > m:
        pref_n = rung ** (m + 1) * gap_factor_M(params, n - m - 1, m)
        rows["mean_BdagB"] = {"mean_BdagB": chain_mean(word_b, phi_n, pref_n**2, sign)}
    if n != m:
        state_hi = eigenfunction(params, n + 1, n)
        if n > m:
            target = rung ** (2 * (n - m)) * gap_factor_N(params, n, n) / gap_factor_N(params, n, m)
            ratio = gap_factor_M(params, m, n) / gap_factor_M(params, n, m)
            rows["partial_chain_means"] = {
                "lambda_lambdadag": chain_mean(lam_dag, state_hi, target),
                "lambdadag_lambda": chain_mean(lam, phi_up, (rung ** (n - m) * ratio) ** 2),
            }
        else:
            unit = rung ** (2 * (m - n))
            target = unit * gap_factor_N(params, n, m) / gap_factor_N(params, n, n)
            ratio = gap_factor_M(params, n, m) / gap_factor_M(params, m, n)
            rows["partial_chain_means"] = {
                "theta_thetadag": chain_mean(theta_dag, state_hi, None if target == 0.0 else target, unit=unit),
                "thetadag_theta": chain_mean(theta, phi_up, (rung ** (m - n) * ratio) ** 2),
            }

    def resid_sq(x):
        return np.abs(apply_word(params, (("H", m),), phi_m, x) / phi_m.energy - apply_word(params, (), phi_m, x)) ** 2

    quad = integrate_interval(resid_sq, lo, hi, replace(_SUITE_CONFIG, abs_tol=1e-16))
    residual = math.sqrt(max(quad.value.real, 0.0))
    rows["eigen_residual"] = {"eigen_residual": QuadratureComponent(residual, quad.error, None)}
    return rows
