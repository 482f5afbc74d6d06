"""Decomposition-of-identity measures for log-concave functions in John position.

Construction by finite-dimensional convex minimization over weighted
trace-zero block matrices, verification of the contact-point decomposition
conditions, and numerical validation of the r -> 1 limit behavior of the
band functionals at small dimension.

Importing the package loads none of its submodules: each name below is
imported from its submodule on first use (PEP 562), so a command that never
touches the band functionals never compiles `rfamily`.
"""

import importlib

_EXPORTS = {
    "blockmat": ("BlockMat", "EPoint", "s_trace", "sdet1_param", "trace0_basis"),
    "contact": ("ContactSet", "DecompositionReport", "cross_fixture", "detect_contacts",
                "make_tangent_instance", "two_level_cross_fixture", "verify_decomposition"),
    "isotropy": ("DiscreteMeasure", "IsotropyReport", "MinimizerResult", "calibrated_measure",
                 "check_isotropy", "coercivity_witness", "counting_measure", "extract_measure",
                 "functional_gradient", "minimize_functional"),
    "logconcave": ("LogConcaveFn", "check_proper", "make_log_concave"),
    "profiles": ("ConvolutionProfile", "PiecewiseLinear", "ProfilePair", "canonical_pair",
                 "validate_profiles"),
    "rfamily": ("QuadratureSpec", "RSweepResult", "band_functional", "concentration_integral",
                "minimize_band", "r_sweep", "rescaled_band_functional"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
