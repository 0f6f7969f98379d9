"""Truncated Taylor arithmetic against analytic derivative tables."""

import math

import numpy as np
import pytest

from ptsusy import jets

from oracles import serial_jet_mul


def coeffs_of(jet, k):
    return np.asarray(jet.c[k])


def test_variable_and_arithmetic():
    x = np.array([0.5, 2.0])
    X = jets.Jet.variable(x, 3)
    F = X * X + 2.0 * X - 1.0
    # f = x^2 + 2x - 1, f' = 2x + 2, f''/2! = 1, f'''/3! = 0
    assert np.allclose(coeffs_of(F, 0), x * x + 2 * x - 1)
    assert np.allclose(coeffs_of(F, 1), 2 * x + 2)
    assert np.allclose(coeffs_of(F, 2), 1.0)
    assert np.allclose(coeffs_of(F, 3), 0.0)


def test_division_matches_series():
    x = np.array([0.3])
    X = jets.Jet.variable(x, 4)
    G = 1.0 / (1.0 + X)
    # geometric series around x0: coefficients (-1)^k / (1+x0)^(k+1)
    for k in range(5):
        want = (-1.0) ** k / (1.0 + 0.3) ** (k + 1)
        assert np.allclose(coeffs_of(G, k), want, rtol=1e-12)


def test_sin_cos_exp_log_jets():
    x = np.array([0.7])
    X = jets.Jet.variable(x, 5)
    S, C = jets.sin_cos(X)
    E = jets.exp(X)
    Lg = jets.log(X)
    for k in range(6):
        fact = math.factorial(k)
        # derivative cycles of sine
        want_s = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)][k % 4](0.7)
        assert np.allclose(coeffs_of(S, k) * fact, want_s, rtol=1e-11)
        assert np.allclose(coeffs_of(E, k) * fact, math.exp(0.7), rtol=1e-11)
    # log derivatives: (-1)^(k-1) (k-1)! / x^k
    for k in range(1, 6):
        want = (-1.0) ** (k - 1) / (k * 0.7**k)
        assert np.allclose(coeffs_of(Lg, k), want, rtol=1e-11)


def test_power_jet():
    x = np.array([1.3])
    X = jets.Jet.variable(x, 3)
    P = jets.exp(jets.log(X) * 2.5)
    assert np.allclose(coeffs_of(P, 0), 1.3**2.5)
    assert np.allclose(coeffs_of(P, 1), 2.5 * 1.3**1.5)
    assert np.allclose(coeffs_of(P, 2), 2.5 * 1.5 * 1.3**0.5 / 2.0)


def test_polyval_jet_matches_horner():
    x = np.array([0.4])
    X = jets.Jet.variable(x, 2)
    coeffs = (1.0 + 0j, -2.0 + 1j, 0.5 + 0j)
    P = jets.polyval(coeffs, X)
    val = coeffs[0] + coeffs[1] * 0.4 + coeffs[2] * 0.16
    dval = coeffs[1] + 2 * coeffs[2] * 0.4
    assert np.allclose(coeffs_of(P, 0), val)
    assert np.allclose(coeffs_of(P, 1), dval)


def test_derivative_extraction():
    x = np.array([0.25, 0.75])
    X = jets.Jet.variable(x, 4)
    S, _ = jets.sin_cos(X * math.pi)
    d2 = S.derivative().derivative().value
    assert np.allclose(d2, -math.pi**2 * np.sin(math.pi * x), rtol=1e-11)


def test_truncate():
    x = np.array([0.5])
    X = jets.Jet.variable(x, 5)
    E = jets.exp(X)
    T = E.truncate(2)
    assert T.order == 2
    assert np.allclose(coeffs_of(T, 2), coeffs_of(E, 2))


def test_composition_against_finite_difference():
    # the superpotential-like composite 1/tan at a bulk point
    from ptsusy.quadrature import derivative as fd

    def g(t):
        return math.exp(0.3 * t) / math.tan(t)

    x0 = 1.1
    X = jets.Jet.variable(np.array([x0]), 2)
    S, C = jets.sin_cos(X)
    G = jets.exp(X * 0.3) * (C / S)
    val, _ = fd(lambda t: g(float(t)), x0, order=1)
    assert np.allclose(G.derivative().value[0], val, rtol=1e-9)


def _random_jet(rng, order, shape):
    c = rng.normal(size=(order + 1,) + shape) + 1j * rng.normal(size=(order + 1,) + shape)
    return jets.Jet(c)


# (left batch shape, right batch shape): equal, broadcast against a stack,
# scalar against a grid, and two shapes that both broadcast
BATCH_SHAPES = [((), ()), ((7,), (7,)), ((7,), (3, 7)), ((3, 7), (7,)), ((), (3, 7)), ((3, 1), (1, 5))]


@pytest.mark.parametrize("shapes", BATCH_SHAPES, ids=str)
def test_product_bit_identical_to_serial_oracle(shapes):
    rng = np.random.default_rng(5)
    for order in range(13):
        for other in (order, max(order - 2, 0), order + 1):
            a = _random_jet(rng, order, shapes[0])
            b = _random_jet(rng, other, shapes[1])
            np.testing.assert_array_equal((a * b).c, serial_jet_mul(a, b))


def test_coefficients_independent_of_truncation_order():
    # apply_word computes its angle jets once at the word order and truncates
    # them at every step, which needs exactly this
    rng = np.random.default_rng(9)
    top = 12
    u, v = _random_jet(rng, top, (5,)), _random_jet(rng, top, (5,))
    ops = {
        "sin_cos": lambda a, b: jets.sin_cos(a),
        "mul": lambda a, b: (a * b,),
        "div": lambda a, b: (a / b,),
        "exp": lambda a, b: (jets.exp(a),),
        "log": lambda a, b: (jets.log(a),),
    }
    for name, op in ops.items():
        full = op(u, v)
        for n in range(top + 1):
            for jf, jn in zip(full, op(u.truncate(n), v.truncate(n))):
                np.testing.assert_array_equal(jf.truncate(n).c, jn.c, err_msg=f"{name} at order {n}")
