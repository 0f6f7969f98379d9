"""Spectrum closed forms: exact rational multiples of the energy quantum,
the hierarchy shift law, and gap-factor/energy consistency."""

import math
import pickle
import re
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptsusy.errors import DomainError
from ptsusy.spectrum import (
    LEVEL_CAP,
    LevelIndex,
    ModelParams,
    diagonal_energy,
    energy,
    gap_factor_M,
    gap_factor_N,
    level_number,
)

from conftest import PARAM_GRID
from oracles import gap_factor_N_loop, ground_energy, phase_alpha

P = ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=0.5)


def test_energy_quantum_default_gauge():
    # hbar = 1, L = 1, mass = 1/2 makes the quantum exactly pi^2
    assert P.epsilon0 == pytest.approx(math.pi**2, rel=1e-15)


def test_ground_energy_known_value():
    # nu=1, beta=2: (nu+1)^2 - beta^2/(nu+1)^2 = 4 - 1 = 3
    assert ground_energy(P, 0) == pytest.approx(3.0 * math.pi**2, rel=1e-14)


def test_symmetric_well_squares():
    p = ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    for n in range(4):
        want = (n + 1) ** 2 * math.pi**2
        assert energy(p, LevelIndex(m=0, n=n)) == pytest.approx(want, rel=1e-14)


def test_scaling_in_length_and_mass():
    base = energy(P, LevelIndex(m=0, n=2))
    doubled = ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=2.0, mass=0.5)
    assert energy(doubled, LevelIndex(m=0, n=2)) == pytest.approx(base / 4.0, rel=1e-14)
    heavy = ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=1.0)
    assert energy(heavy, LevelIndex(m=0, n=2)) == pytest.approx(base / 2.0, rel=1e-14)


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_shift_law_is_bit_exact(n, m):
    # the level-(m+1) spectrum is the level-m spectrum minus its ground state
    assert energy(P, LevelIndex(m=m + 1, n=n)) == energy(P, LevelIndex(m=m, n=n + 1))


def test_diagonal_energy_is_energy_bit_for_bit():
    for p in PARAM_GRID + [ModelParams(nu=0.123, beta=2.0456), ModelParams(nu=60.0, beta=1e4)]:
        for m in range(LEVEL_CAP + 1):
            for n in range(LEVEL_CAP + 1 - m):
                assert diagonal_energy(p, n + m) == energy(p, LevelIndex(m=m, n=n)), (p, m, n)


def test_equal_params_built_apart_hash_alike():
    # the hash is computed once, from the five fields; it is the value the
    # generated dataclass hash had, and ==, repr, asdict and replace see the
    # fields alone
    fields = {"nu": 1.0, "beta": 2.0, "hbar": 1.0, "length": 1.0, "mass": 0.5}
    twins = [ModelParams(1, 2), ModelParams(**fields), replace(ModelParams(3.0, 0.0), nu=np.float64(1.0), beta=2)]
    twins.append(pickle.loads(pickle.dumps(P)))
    for twin in twins:
        assert twin == P and twin is not P and hash(twin) == hash(P) == hash(tuple(fields.values()))
        assert {P: "found"}[twin] == "found"
    assert repr(P) == "ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=0.5)"
    assert asdict(P) == fields
    other = replace(P, beta=3.0)
    assert other != P and other.beta == 3.0 and hash(other) == hash((1.0, 3.0, 1.0, 1.0, 0.5))
    with pytest.raises(AttributeError):
        P.nu = 2.0


@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_energy_increasing_in_n(nu, beta, n):
    p = ModelParams(nu=nu, beta=beta, hbar=1.0, length=1.0, mass=0.5)
    assert energy(p, LevelIndex(m=0, n=n + 1)) > energy(p, LevelIndex(m=0, n=n))


def test_gap_factor_m_squared_energy_product():
    # M(n, m)^2 = prod_k (E_(n+m+1) - E_k) / eps0 over the level-0 spectrum
    for n in range(0, 4):
        for m in range(0, 3):
            e_top = energy(P, LevelIndex(m=0, n=n + m + 1))
            prod = 1.0
            for k in range(m + 1):
                prod *= (e_top - energy(P, LevelIndex(m=0, n=k))) / P.epsilon0
            got = gap_factor_M(P, n, m) ** 2
            assert got == pytest.approx(prod, rel=1e-12)


def test_gap_factor_n_zero_branch():
    # N vanishes identically once m >= 2n + 1
    assert gap_factor_N(P, 1, 3) == 0.0
    assert gap_factor_N(P, 0, 1) == 0.0
    assert gap_factor_N(P, 2, 1) > 0.0


def test_gap_factor_n_is_the_m_squared_product_bit_for_bit():
    # N(n, m) = M^2(2n - m, m), read through the same rungs in the same
    # order as the loop it replaced, zero branch (m >= 2n + 1) included
    zeros = 0
    for p in PARAM_GRID:
        for n in range(25):
            for m in range(45):
                want = gap_factor_N_loop(p, n, m)
                assert gap_factor_N(p, n, m) == want, (p, n, m)
                zeros += want == 0.0
    assert zeros == len(PARAM_GRID) * sum(max(0, 45 - (2 * n + 1)) for n in range(25))


def test_gap_factor_n_energy_product():
    # N(n, m) = prod_k (E_(2n+1) - E_k) / eps0, no square root
    for n in range(1, 4):
        for m in range(0, min(2 * n, 3)):
            e_diag = energy(P, LevelIndex(m=0, n=2 * n + 1))
            prod = 1.0
            for k in range(m + 1):
                prod *= (e_diag - energy(P, LevelIndex(m=0, n=k))) / P.epsilon0
            assert gap_factor_N(P, n, m) == pytest.approx(prod, rel=1e-12)


def test_gap_factor_frozen_values():
    # nu=1, beta=2: E_1/eps0 = 77/9, E_0/eps0 = 3, so M(0,0) = sqrt(50/9)
    assert gap_factor_M(P, 0, 0) == pytest.approx(math.sqrt(50.0 / 9.0), rel=1e-13)
    # N(1,0) = (E_3 - E_0)/eps0 = (25 - 4/25) - 3 = 546/25
    assert gap_factor_N(P, 1, 0) == pytest.approx(546.0 / 25.0, rel=1e-13)


@pytest.mark.parametrize(("gap", "n", "m"), [(gap_factor_N, 1, 1), (gap_factor_M, 0, 3)], ids=["N", "M"])
def test_gap_factor_past_double_range_raises_domain_error(gap, n, m):
    # at nu 0, beta 1e80 each rung factor 1 + beta^2 / ((k + 1) top)^2 is
    # about 1e159: math.exp of the log sum raised OverflowError, which
    # ptsusy spectrum --gap-factors printed as a traceback with exit 1
    with pytest.raises(DomainError, match="exceeds double range"):
        gap(ModelParams(0.0, 1e80), n, m)


@pytest.mark.parametrize("gap", [gap_factor_M, gap_factor_N], ids=lambda f: f.__name__)
@pytest.mark.parametrize("index", [0.5, True, -1, 2.0], ids=repr)
def test_gap_factors_read_indices_as_level_numbers(gap, index):
    # a fraction, a bool or a negative is no level, in either slot; a
    # whole-number float is the level of that int
    if type(index) is float and index.is_integer():
        assert gap(P, index, 1) == gap(P, 2, 1) and gap(P, 1, index) == gap(P, 1, 2)
        return
    for args in ((index, 0), (0, index)):
        with pytest.raises(DomainError):
            gap(P, *args)


def test_phase_alpha_closed_form():
    # the mixing angle of the first-level form that criterion 7 checks against
    assert phase_alpha(P, 0) == pytest.approx(math.atan(2.0 / (2.0 * 3.0)), rel=1e-15)
    p0 = ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    assert phase_alpha(p0, 3) == 0.0


def test_invalid_parameters_rejected():
    with pytest.raises(DomainError):
        ModelParams(nu=-0.6, beta=0.0, hbar=1.0, length=1.0, mass=0.5)
    with pytest.raises(DomainError):
        ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=-1.0, mass=0.5)
    with pytest.raises(DomainError):
        LevelIndex(m=-1, n=0)


@pytest.mark.parametrize(("m", "n"), [(True, 0), (0, False), (True, True)])
def test_bool_level_indices_rejected(m, n):
    # bool is an Integral, but True is not level 1
    with pytest.raises(DomainError, match="level indices must be integers, got (True|False)"):
        LevelIndex(m, n)


@pytest.mark.parametrize(
    ("value", "message"),
    [
        (True, "level indices must be integers, got True"),
        (2.5, "level indices must be integers, got 2.5"),
        (math.nan, "level indices must be integers, got nan"),
        ("2", "level indices must be integers, got '2'"),
        (None, "level indices must be integers, got None"),
        (-1, "level indices must be nonnegative"),
    ],
)
def test_rejected_level_numbers_keep_their_messages(value, message):
    # the plain-int fast path lets none of these through: a bool is not of
    # type int, and a negative int falls through to the full check
    with pytest.raises(DomainError) as info:
        level_number(value)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field", ["nu", "beta", "hbar", "length", "mass"])
def test_nonfinite_parameters_rejected(field, value):
    kwargs = {"nu": 1.0, "beta": 2.0, "hbar": 1.0, "length": 1.0, "mass": 0.5, field: value}
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("value", [None, 1j, "1", True], ids=repr)
@pytest.mark.parametrize("field", ["nu", "beta", "hbar", "length", "mass"])
def test_parameters_that_are_no_real_number_rejected(field, value):
    # None and 1j once raised a bare TypeError from float(), and "1" and True
    # passed as 1.0, where level_number rejects "2" and True
    kwargs = {"nu": 1.0, "beta": 2.0, "hbar": 1.0, "length": 1.0, "mass": 0.5, field: value}
    with pytest.raises(DomainError, match=f"{field} must be a real number, got {re.escape(repr(value))}"):
        ModelParams(**kwargs)


def test_numpy_and_integer_parameters_accepted_as_floats():
    p = ModelParams(nu=np.float64(1.0), beta=np.int64(2), hbar=np.float32(1.0), length=1, mass=0.5)
    assert p == P and all(type(getattr(p, k)) is float for k in ("nu", "beta", "hbar", "length", "mass"))


@pytest.mark.parametrize(
    ("field", "value"),
    [("beta", 1e200), ("nu", 1e160), ("length", 1e200), ("length", 1e-200), ("hbar", 1e-200), ("hbar", 1e160), ("mass", 1e-310)],
    ids=repr,
)
def test_gauge_outside_double_range_rejected(field, value):
    # epsilon0 = hbar^2 pi^2 / (2 mass L^2) must be a positive normal float
    # and every energy up to LEVEL_CAP finite: beta 1e200 and length 1e200
    # raised OverflowError, length 1e-200 ZeroDivisionError, nu 1e160 gave
    # energies of inf and hbar 1e-200 energies of 0.0
    kwargs = {"nu": 1.0, "beta": 2.0, "hbar": 1.0, "length": 1.0, "mass": 0.5, field: value}
    with pytest.raises(DomainError, match=f"{field} .*{re.escape(repr(value))}"):
        ModelParams(**kwargs)


@pytest.mark.parametrize("field", ["nu", "beta", "hbar", "length", "mass"])
@pytest.mark.parametrize("value", [1e-150, 1e150])
def test_gauge_inside_double_range_keeps_every_energy_finite(field, value):
    p = ModelParams(**{"nu": 1.0, "beta": 2.0, "hbar": 1.0, "length": 1.0, "mass": 0.5, field: value})
    assert sys.float_info.min <= p.epsilon0 < math.inf
    for level in range(LEVEL_CAP + 1):
        assert math.isfinite(energy(p, LevelIndex(m=level, n=0))), level
