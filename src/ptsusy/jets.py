"""Truncated Taylor-series (jet) arithmetic.

``EigenFunction.taylor`` emits the Taylor jet of an eigenfunction at sample
points, and the test suite folds operator words over jets as the check,
independent of the cotangent fold in ``operators``, that words are applied
right.  Coefficient arrays carry the truncation order on the leading axis and
broadcast over any trailing batch axes, so whole sample grids are processed
at once.

Coefficient k of a product, a quotient, ``sin_cos``, ``exp`` or ``log``
depends only on the coefficients <= k of the arguments, through a sequence of
operations that does not depend on the truncation order, so a jet computed at
order N and truncated to n is bit-identical to the same jet computed at
order n.
"""

from __future__ import annotations

import numpy as np


class Jet:
    """Taylor coefficients c[k] = f^(k)(x0) / k! up to a fixed order."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.asarray(c, dtype=complex)

    @property
    def order(self) -> int:
        return self.c.shape[0] - 1

    @property
    def value(self):
        return self.c[0]

    @classmethod
    def variable(cls, x, order: int) -> "Jet":
        x = np.asarray(x, dtype=complex)
        c = np.zeros((order + 1,) + x.shape, dtype=complex)
        c[0] = x
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def constant(cls, v, order: int, shape=()) -> "Jet":
        c = np.zeros((order + 1,) + tuple(shape), dtype=complex)
        c[0] = v
        return cls(c)

    def derivative(self) -> "Jet":
        # Jet of f' at the same point, one order lower.
        if self.order < 1:
            raise ValueError("jet order too low to differentiate")
        k = np.arange(1, self.order + 1).reshape((-1,) + (1,) * (self.c.ndim - 1))
        return Jet(k * self.c[1:])

    def __add__(self, other):
        if isinstance(other, Jet):
            n = min(self.order, other.order)
            return Jet(self.c[: n + 1] + other.c[: n + 1])
        c = self.c.copy()
        c[0] = c[0] + other
        return Jet(c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=complex))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c * np.asarray(other, dtype=complex))
        n = min(self.order, other.order)
        a, b = self.c, other.c
        batch = a.shape[1:]
        if b.shape[1:] != batch:
            batch = np.broadcast_shapes(batch, b.shape[1:])
            a, b = _lift(a, batch), _lift(b, batch)
        out = np.zeros((n + 1,) + batch, dtype=complex)
        # out[k] += a[j] b[k - j] for every k >= j at once; each out[k] still
        # sums its terms in the order j = 0..k
        for j in range(n + 1):
            if batch:
                out[j:] += a[j] * b[: n + 1 - j]
            else:
                # numpy rounds a product of two complex scalars without the
                # fused multiply-add its array loops may use; keep that rounding
                for k in range(j, n + 1):
                    out[k] += a[j] * b[k - j]
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.c / np.asarray(other, dtype=complex))
        n = min(self.order, other.order)
        a, b = self.c, other.c
        out = np.zeros((n + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]), dtype=complex)
        for k in range(n + 1):
            acc = a[k] + np.zeros(out.shape[1:], dtype=complex)
            for j in range(k):
                acc = acc - out[j] * b[k - j]
            out[k] = acc / b[0]
        return Jet(out)

    def __rtruediv__(self, other):
        return Jet.constant(other, self.order, self.c.shape[1:]) / self


def _lift(c, batch):
    # prepend unit batch axes so that every coefficient slice broadcasts
    # against a stack of coefficients
    return c.reshape(c.shape[:1] + (1,) * (len(batch) - c.ndim + 1) + c.shape[1:])


def sin_cos(u: Jet) -> tuple[Jet, Jet]:
    """Jets of sin(u) and cos(u), computed jointly from the ODE recurrence."""
    n = u.order
    shape = u.c.shape[1:]
    s = np.zeros((n + 1,) + shape, dtype=complex)
    c = np.zeros((n + 1,) + shape, dtype=complex)
    s[0] = np.sin(u.c[0])
    c[0] = np.cos(u.c[0])
    du = [j * u.c[j] for j in range(n + 1)]  # du[j] is coefficient j - 1 of u'
    for k in range(1, n + 1):
        ss = np.zeros(shape, dtype=complex)
        cc = np.zeros(shape, dtype=complex)
        for j in range(1, k + 1):
            ss += du[j] * c[k - j]
            cc += du[j] * s[k - j]
        s[k] = ss / k
        c[k] = -cc / k
    return Jet(s), Jet(c)


def exp(u: Jet) -> Jet:
    n = u.order
    e = np.zeros_like(u.c)
    e[0] = np.exp(u.c[0])
    du = [j * u.c[j] for j in range(n + 1)]
    for k in range(1, n + 1):
        acc = np.zeros(u.c.shape[1:], dtype=complex)
        for j in range(1, k + 1):
            acc += du[j] * e[k - j]
        e[k] = acc / k
    return Jet(e)


def log(u: Jet) -> Jet:
    n = u.order
    l = np.zeros_like(u.c)
    l[0] = np.log(u.c[0])
    for k in range(1, n + 1):
        acc = k * u.c[k]
        for j in range(1, k):
            acc = acc - j * l[j] * u.c[k - j]
        l[k] = acc / (k * u.c[0])
    return Jet(l)


def polyval(coeffs, u: Jet) -> Jet:
    """Horner evaluation of sum_k coeffs[k] * u**k on a jet argument."""
    acc = Jet.constant(coeffs[-1], u.order, u.c.shape[1:])
    for ck in reversed(coeffs[:-1]):
        acc = acc * u + ck
    return acc
