"""Decomposition-of-identity measures for log-concave functions in John position.

Construction by finite-dimensional convex minimization over weighted
trace-zero block matrices, verification of the contact-point decomposition
conditions, and numerical validation of the r -> 1 limit behavior of the
band functionals at small dimension.
"""

from .blockmat import BlockMat, EPoint, s_trace, sdet1_param, trace0_basis
from .contact import (ContactSet, DecompositionReport, cross_fixture, detect_contacts,
                      make_tangent_instance, two_level_cross_fixture,
                      verify_decomposition)
from .isotropy import (DiscreteMeasure, IsotropyReport, MinimizerResult,
                       calibrated_measure, check_isotropy, coercivity_witness,
                       counting_measure, extract_measure, functional_gradient,
                       functional_value, minimize_functional)
from .logconcave import LogConcaveFn, check_proper, make_log_concave
from .profiles import (ConvolutionProfile, PiecewiseLinear, ProfilePair, canonical_pair,
                       validate_profiles)
from .rfamily import (QuadratureSpec, RSweepResult, band_functional,
                      concentration_integral, minimize_band, r_sweep,
                      rescaled_band_functional)

__version__ = "0.1.0"
