import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import fjohn
from fjohn import blockmat, contact, isotropy, logconcave, profiles, rfamily
from fjohn.errors import DimensionMismatch

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


@pytest.mark.parametrize("build, error, message", [
    (lambda: logconcave.PiecewiseLogAffine(np.ones((2, 1)), np.ones(3)), DimensionMismatch,
     "piece counts of a and b differ"),
    (lambda: blockmat.BlockMat(np.ones((2, 3)), 1.0), DimensionMismatch,
     r"diag must be square, got shape \(2, 3\)"),
    (lambda: blockmat.EPoint(blockmat.BlockMat.identity(2), np.zeros(3)), DimensionMismatch,
     r"shift must have length 2, got \(3,\)"),
    (lambda: isotropy.DiscreteMeasure(np.zeros((2, 1)), np.ones(3)), ValueError,
     "points/masses length mismatch"),
    (lambda: isotropy.counting_measure([[0.0], [0.5]])._subset(np.array([True, True]),
                                                               [1.0, 0.0]),
     ValueError, "masses must be positive and finite"),
    (lambda: profiles.PiecewiseLinear(np.array([0.0]), np.ones(1), np.zeros(1)), ValueError,
     "need one more piece than breaks"),
], ids=["log-affine-piece-counts", "blockmat-not-square", "epoint-shift-length",
        "measure-lengths", "measure-subset-mass", "piecewise-linear-pieces"])
def test_constructor_guards(build, error, message):
    # each guard raises its own exception, not one a later step would raise on the same input
    with pytest.raises(error, match=message) as caught:
        build()
    assert type(caught.value) is error


def _perfbench_spans():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_reaches_every_name_and_keyword_it_uses():
    # perfbench's tracer rebinds these names and its workloads make these calls;
    # a name or keyword cut from the package would fail only the traced benchmark
    spans = _perfbench_spans()
    for module, name in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(importlib.import_module(f"fjohn.{module}"), name)), (module, name)
    h, p, w, s, nu, F = object(), np.zeros((1, 1)), np.ones(1), 1.0, object(), object()
    inspect.signature(contact.detect_contacts).bind(h, s, grid_per_axis=201)
    inspect.signature(isotropy.coercivity_witness).bind(h, s, nu, n_dirs=1000)
    inspect.signature(isotropy.minimize_functional).bind(h, s, nu, F)
    inspect.signature(contact.verify_decomposition).bind(p, w, h, s)
    inspect.signature(logconcave.make_log_concave).bind(p, w, s, None)
    inspect.signature(rfamily.QuadratureSpec).bind(x_nodes_per_axis=64)
    inspect.signature(blockmat.sdet1_param).bind(p, s)  # band_n2 draws its positions with it
    # the tracer reads these arguments by position when they are not keywords
    assert list(inspect.signature(contact.detect_contacts).parameters)[2] == "grid_per_axis"
    assert list(inspect.signature(rfamily.band_functional).parameters)[5] == "quad"


def test_from_import_of_names_and_submodules_in_a_fresh_interpreter():
    code = ("import sys\n"
            "from fjohn import r_sweep, minimize_functional, BlockMat\n"
            "from fjohn import cli, isotropy\n"
            "assert r_sweep is sys.modules['fjohn.rfamily'].r_sweep\n"
            "assert cli is sys.modules['fjohn.cli'] and isotropy is sys.modules['fjohn.isotropy']\n"
            "assert BlockMat is sys.modules['fjohn.blockmat'].BlockMat\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
