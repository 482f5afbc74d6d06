import importlib
import subprocess
import sys

import pytest

import fjohn

# every name `fjohn` exports, by the submodule that defines it
EXPORTS = {
    "blockmat": ["BlockMat", "EPoint", "s_trace", "sdet1_param", "trace0_basis"],
    "contact": ["ContactSet", "DecompositionReport", "cross_fixture", "detect_contacts",
                "make_tangent_instance", "two_level_cross_fixture", "verify_decomposition"],
    "isotropy": ["DiscreteMeasure", "IsotropyReport", "MinimizerResult", "calibrated_measure",
                 "check_isotropy", "coercivity_witness", "counting_measure", "extract_measure",
                 "functional_gradient", "minimize_functional"],
    "logconcave": ["LogConcaveFn", "check_proper", "make_log_concave"],
    "profiles": ["ConvolutionProfile", "PiecewiseLinear", "ProfilePair", "canonical_pair",
                 "validate_profiles"],
    "rfamily": ["QuadratureSpec", "RSweepResult", "band_functional", "concentration_integral",
                "minimize_band", "r_sweep", "rescaled_band_functional"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_export_is_listed():
    assert sorted(fjohn.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module,name", NAMES)
def test_export_is_its_submodules_object(module, name):
    assert getattr(fjohn, name) is getattr(importlib.import_module(f"fjohn.{module}"), name)
    assert name in fjohn.__all__ and name in dir(fjohn)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fjohn.no_such_name
    assert not hasattr(fjohn, "no_such_name")


def test_from_import_of_names_and_submodules_in_a_fresh_interpreter():
    code = ("import sys\n"
            "from fjohn import r_sweep, minimize_functional, BlockMat\n"
            "from fjohn import cli, isotropy\n"
            "assert r_sweep is sys.modules['fjohn.rfamily'].r_sweep\n"
            "assert cli is sys.modules['fjohn.cli'] and isotropy is sys.modules['fjohn.isotropy']\n"
            "assert BlockMat is sys.modules['fjohn.blockmat'].BlockMat\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
