#!/usr/bin/env python3
"""Regenerate the frozen oracle expectations used by the test suite.

Every derived number asserted in the tests is computed here by an
independent route (root finding on closed-form derivative branches, grid
search, trapezoid convolution) and stored with its tolerance.  Run from the
repository root:

    python3 scripts/gen_expectations.py

Every value is stored rounded to 1/1000 of its tolerance (a power of ten),
which moves it by at most tol/2000.  The trapezoid sums round differently
across numpy builds (e.g. `F_at_0` 0.6666666649999999 against 0.666666665),
and the rounding absorbs that, so a regenerated file is byte-stable unless a
value lies within its last bits of a rounding boundary.  CI compares a
regenerated file with the committed one within the stored tolerances.
"""

import json
import math
import pathlib
import sys

import numpy as np
from scipy.optimize import brentq

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the oracles live with the tests, not in the package

from fjohn.blockmat import trace0_array  # noqa: E402
from fjohn.profiles import canonical_pair  # noqa: E402
from oracles import GridSpec, convolve_numeric, grid_minimize  # noqa: E402

OUT = ROOT / "tests" / "data" / "expected.json"


def F_closed(x):
    if x <= -2.0:
        return 0.0
    if x <= 0.0:
        return (x + 2.0) ** 3 / 12.0
    return x * x / 2.0 + x + 2.0 / 3.0


def Fp_closed(x):
    if x <= -2.0:
        return 0.0
    if x <= 0.0:
        return (x + 2.0) ** 2 / 4.0
    return x + 1.0


def counting_two_level_n1_s1():
    """Stationary point and value for the counting measure on the standard fixture.

    Atoms at +-rho1, +-rho2 with rho1^2=0.4, rho2^2=0.8, s=1.  By symmetry
    the shift is zero and beta = -M, so the problem is scalar:
        phi(m) = 2 sqrt(0.6) F(-m/3) + 2 sqrt(0.2) F(3m)
    """
    h1, h2 = math.sqrt(0.6), math.sqrt(0.2)

    def dphi(m):
        return -(2.0 / 3.0) * h1 * Fp_closed(-m / 3.0) + 6.0 * h2 * Fp_closed(3.0 * m)

    m0 = brentq(dphi, -0.66, -1e-6, xtol=1e-14)
    value = 2 * h1 * F_closed(-m0 / 3.0) + 2 * h2 * F_closed(3.0 * m0)
    lam = 0.5 * (2.0 / h1 * Fp_closed(-m0 / 3.0) + 2.0 / h2 * Fp_closed(3.0 * m0))
    return m0, value, lam


def grid_value_two_level():
    """Grid-search value for the same instance, fully independent of descent."""
    rho1, rho2 = math.sqrt(0.4), math.sqrt(0.8)
    pts = np.array([rho1, -rho1, rho2, -rho2])
    hp = np.sqrt(1.0 - pts**2)
    basis = trace0_array(1, 1.0)  # rows (M, beta, w)
    # coordinates of the argument gradient per atom: arg_i(p) = <gvec_i, coords>
    gvecs = np.array([[(u * u * m + u * w) / hv**2 + beta for m, beta, w in basis]
                      for u, hv in zip(pts, hp)])

    def batch(coords):
        args = coords @ gvecs.T
        F = np.where(args <= -2.0, 0.0,
                     np.where(args <= 0.0, (args + 2.0) ** 3 / 12.0,
                              args**2 / 2.0 + args + 2.0 / 3.0))
        return F @ hp

    grid = GridSpec(center=np.zeros(2), half_width=4.0, points_per_axis=401, refinements=2)
    point, value = grid_minimize(None, basis, grid, objective_batch=batch)
    return value


def rounded(value, tol: float):
    """value (a number or a list) rounded to tol/1000, for a tol that is a power of ten."""
    digits = 3 - round(math.log10(tol))
    if isinstance(value, list):
        return [round(float(v), digits) for v in value]
    return round(float(value), digits)


def main():
    pair = canonical_pair()
    gbar = lambda u: pair.g(-np.asarray(u))
    m0, val, lam = counting_two_level_n1_s1()
    expectations = {
        "two_level_weights_n1_s1": {
            "value": [0.75, 0.25],
            "tol": 1e-12,
            "oracle": "2x2 linear solve of the per-axis and corner conditions",
            "params": {"n": 1, "s": 1.0, "rho1_sq": 0.4, "rho2_sq": 0.8},
        },
        "functional_value_at_zero_n1_s1": {
            "value": (2 * math.sqrt(0.6) + 2 * math.sqrt(0.2)) * (2.0 / 3.0),
            "tol": 1e-12,
            "oracle": "direct arithmetic, F(0) = 2/3",
            "params": {"nu": "counting"},
        },
        "tangent_intercept_u05_s1": {
            "value": -0.5 * math.log(0.75) - 1.0 / 3.0,
            "tol": 1e-12,
            "oracle": "closed-form tangent of -(1/2) log(1 - x^2) at 0.5",
            "params": {},
        },
        "F_at_0": {
            "value": convolve_numeric(pair.f, gbar, 0.0, 1e-4),
            "tol": 1e-7,
            "oracle": "trapezoid convolution, step 1e-4",
            "params": {},
        },
        "F_at_1": {
            "value": convolve_numeric(pair.f, gbar, 1.0, 1e-4),
            "tol": 1e-7,
            "oracle": "trapezoid convolution, step 1e-4",
            "params": {},
        },
        "Fprime_at_0": {
            "value": (convolve_numeric(pair.f, gbar, 1e-6, 1e-5)
                      - convolve_numeric(pair.f, gbar, -1e-6, 1e-5)) / 2e-6,
            "tol": 1e-5,
            "oracle": "central difference of the trapezoid convolution",
            "params": {},
        },
        "counting_min_M_n1_s1": {
            "value": m0,
            "tol": 1e-10,
            "oracle": "brentq root of the scalar stationarity equation",
            "params": {"nu": "counting"},
        },
        "counting_min_value_n1_s1": {
            "value": val,
            "tol": 1e-10,
            "oracle": "closed-form value at the brentq stationary point",
            "params": {"nu": "counting"},
        },
        "counting_min_value_grid_n1_s1": {
            "value": grid_value_two_level(),
            "tol": 1e-6,
            "oracle": "grid search 401^2, half-width 4, 2 refinements",
            "params": {"nu": "counting"},
        },
        "counting_lambda_n1_s1": {
            "value": lam,
            "tol": 1e-10,
            "oracle": "trace formula at the brentq stationary point",
            "params": {"nu": "counting"},
        },
    }
    for entry in expectations.values():
        entry["value"] = rounded(entry["value"], entry["tol"])
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(expectations, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    for k, v in expectations.items():
        print(f"  {k}: {v['value']}")


if __name__ == "__main__":
    main()
