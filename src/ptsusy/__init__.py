"""Trigonometric Poschl-Teller SUSY hierarchy: spectra, eigenfunctions,
factorization operators, and coherent states, with verification oracles.
"""

from .coherent import (
    CoherentState,
    PhasePoint,
    cs_overlap,
    identity_gram_projection,
    resolution_kernel,
)
from .errors import (
    DegreeCapError,
    DomainError,
    NonFiniteIntegrandError,
    PoleError,
    PtsusyError,
    SubdivisionLimitError,
    TailBoundError,
)
from .operators import (
    IdentityResult,
    apply_word,
    verify_operator_identities,
)
from .quadrature import QuadratureConfig, integrate_interval, integrate_real_line
from .spectrum import (
    LevelIndex,
    ModelParams,
    energy,
    gap_factor_M,
    gap_factor_N,
)
from .wavefn import (
    EigenFunction,
    eigenfunction,
    gram_matrix,
    normalization_K,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentState",
    "DegreeCapError",
    "DomainError",
    "EigenFunction",
    "IdentityResult",
    "LevelIndex",
    "ModelParams",
    "NonFiniteIntegrandError",
    "PhasePoint",
    "PoleError",
    "PtsusyError",
    "QuadratureConfig",
    "SubdivisionLimitError",
    "TailBoundError",
    "apply_word",
    "cs_overlap",
    "eigenfunction",
    "energy",
    "gap_factor_M",
    "gap_factor_N",
    "gram_matrix",
    "identity_gram_projection",
    "integrate_interval",
    "integrate_real_line",
    "normalization_K",
    "resolution_kernel",
    "verify_operator_identities",
    "__version__",
]
