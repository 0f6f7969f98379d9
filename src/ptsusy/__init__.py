"""Trigonometric Poschl-Teller SUSY hierarchy: spectra, eigenfunctions,
factorization operators, and coherent states, with verification oracles.

``import ptsusy`` loads no layer and no numpy.  Each public name, and each
submodule name, loads its defining module on first access (PEP 562), so a
program pays only for the layers it uses: ``ptsusy.energy`` loads
``spectrum`` and ``errors`` and no numpy, ``ptsusy.apply_word`` the operator
layer and the layers below it.  A name is read from its module on every
access and never stored here, so a binding replaced in the defining module
is what the package hands out.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name by the submodule that defines it
_HOME = {
    "CoherentState": "coherent",
    "PhasePoint": "coherent",
    "cs_overlap": "coherent",
    "identity_gram_projection": "coherent",
    "resolution_kernel": "coherent",
    "DegreeCapError": "errors",
    "DomainError": "errors",
    "NonFiniteIntegrandError": "errors",
    "PoleError": "errors",
    "PtsusyError": "errors",
    "SubdivisionLimitError": "errors",
    "TailBoundError": "errors",
    "IdentityResult": "operators",
    "apply_word": "operators",
    "verify_operator_identities": "operators",
    "QuadratureConfig": "quadrature",
    "integrate_interval": "quadrature",
    "integrate_real_line": "quadrature",
    "LevelIndex": "spectrum",
    "ModelParams": "spectrum",
    "energy": "spectrum",
    "gap_factor_M": "spectrum",
    "gap_factor_N": "spectrum",
    "EigenFunction": "wavefn",
    "eigenfunction": "wavefn",
    "gram_matrix": "wavefn",
    "normalization_K": "wavefn",
}
_SUBMODULES = ("cli", "coherent", "errors", "jets", "operators", "quadrature", "specfun", "spectrum", "wavefn")

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
