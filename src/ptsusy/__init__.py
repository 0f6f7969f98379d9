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
    LossOfSignificanceError,
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
    phase_alpha,
)
from .wavefn import (
    EigenFunction,
    eigenfunction,
    gram_matrix,
    normalization_K,
    partner_eigenfunction_explicit,
)

__version__ = "0.1.0"

__all__ = [
    "CoherentState",
    "DegreeCapError",
    "DomainError",
    "EigenFunction",
    "IdentityResult",
    "LevelIndex",
    "LossOfSignificanceError",
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
    "partner_eigenfunction_explicit",
    "phase_alpha",
    "resolution_kernel",
    "verify_operator_identities",
    "__version__",
]
