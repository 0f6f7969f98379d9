import numpy as np
import pytest

from ptsusy import operators
from ptsusy.spectrum import ModelParams

DEFAULT = ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=0.5)

# small parameter sweep shared by several modules: symmetric well, tilted
# well, non-integer strength, and a non-unit gauge
PARAM_GRID = [
    ModelParams(nu=0.0, beta=0.0, hbar=1.0, length=1.0, mass=0.5),
    ModelParams(nu=1.0, beta=2.0, hbar=1.0, length=1.0, mass=0.5),
    ModelParams(nu=2.5, beta=1.0, hbar=1.0, length=1.0, mass=0.5),
    ModelParams(nu=0.5, beta=3.0, hbar=2.0, length=3.0, mass=1.5),
]


def clear_memos():
    """Empty the level-row, level-stack and fold memos of ``operators``."""
    operators._level_identities.cache_clear()
    operators._level_stack.cache_clear()
    operators._fold.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos():
    # verify_operator_identities keeps the level rows of earlier calls and
    # apply_word the folds; a test that patches the quadrature, the fold, the
    # noise floor or the states must not see rows or folds an earlier test
    # computed without the patch
    clear_memos()


@pytest.fixture
def params():
    return DEFAULT


@pytest.fixture(params=PARAM_GRID, ids=lambda p: f"nu{p.nu}b{p.beta}L{p.length}")
def swept_params(request):
    return request.param


def interior_grid(params, count=61, clamp=0.05):
    L = params.length
    return np.linspace(clamp * L, (1.0 - clamp) * L, count)
