"""Acceptance suite: one test (or sub-series test) per criterion.

Each test prints a PASS/FAIL line (run with -s to see them live).  The
secant criterion 9c is known to fail: the rescaled band minimizers converge
to the curvature-weighted limit point, which is a different stationary
problem than the discrete contact functional the reference comes from; see
the acceptance notes in the README.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fjohn.blockmat import BlockMat, EPoint, sdet1_param, trace0_array
from fjohn.contact import cross_fixture, two_level_cross_fixture, verify_decomposition
from fjohn.errors import DivergingIterates
from fjohn.isotropy import (calibrated_measure, check_isotropy, coercivity_witness,
                            counting_measure, extract_measure, functional_gradient,
                            minimize_functional)
from fjohn.logconcave import eval_h_many
from fjohn.profiles import ConvolutionProfile, canonical_pair, validate_profiles
from fjohn.rfamily import (QuadratureSpec, band_functional, r_sweep,
                           rescaled_band_functional)
from oracles import (GridSpec, convolve_numeric, functional_value, grid_minimize,
                     project_trace0)

PAIR = canonical_pair()
F = ConvolutionProfile(PAIR)
QUAD_TOL = 1e-6  # the quadrature error 960 nodes per axis hold at n = 1 (QuadratureSpec)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}{' (' + detail + ')' if detail else ''}")


@pytest.fixture(scope="module")
def two_level():
    return two_level_cross_fixture(1, 1.0, 0.4, 0.8)


@pytest.fixture(scope="module")
def counting_run(two_level):
    h, cs, w = two_level
    nu = counting_measure(cs.points)
    res = minimize_functional(h, 1.0, nu, F)
    mu = extract_measure(res, h, 1.0, nu, F)
    return nu, res, mu


@pytest.fixture(scope="module")
def sweep(two_level, counting_run):
    h, cs, w = two_level
    _, ref, mu0 = counting_run
    t0 = time.time()
    result = r_sweep(h, 1.0, PAIR, [0.8, 0.9, 0.95, 0.99], QuadratureSpec(), ref, mu0)
    result.elapsed = time.time() - t0
    return result


def test_c1_decomposition_identities():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3):
        for s in (0.5, 1.0, 2.0):
            h, cs, w = cross_fixture(n, s)
            rep = verify_decomposition(cs.points, w, h, s)
            worst = max(worst, rep.residual_a, rep.residual_b,
                        rep.residual_c, rep.residual_d)
            assert rep.ok
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "decomposition identities", ok,
           f"max residual {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_c2_constructive_isotropy(two_level, counting_run):
    h, cs, w = two_level
    t0 = time.time()
    nu_cal = calibrated_measure(cs.points, w, h, 1.0)
    res_cal = minimize_functional(h, 1.0, nu_cal, F)
    mu_cal = extract_measure(res_cal, h, 1.0, nu_cal, F)
    ok = np.linalg.norm(res_cal.point.vec) <= 1e-8
    ok &= abs(res_cal.lam - 1.0) <= 1e-8
    ok &= bool(np.allclose(np.sort(mu_cal.masses), [0.25, 0.25, 0.75, 0.75], atol=1e-8))

    _, res_cnt, mu_cnt = counting_run
    iso = check_isotropy(mu_cnt, 1.0)
    ok &= iso.residual_iso <= 1e-8
    ok &= iso.residual_center <= 1e-10
    ok &= res_cnt.lam > 0.0
    elapsed = time.time() - t0
    ok &= elapsed < 5.0
    report(2, "constructive isotropy", ok,
           f"calibrated |p|={np.linalg.norm(res_cal.point.vec):.1e}, lam={res_cal.lam:.10f}, "
           f"counting res_iso={iso.residual_iso:.1e}, {elapsed:.1f}s")
    assert ok


def test_c3_gradient_correctness():
    fixtures = [
        (two_level_cross_fixture(1, 1.0, 0.4, 0.8), 1.0),
        (two_level_cross_fixture(1, 2.0, 0.3, 0.7), 2.0),
        (two_level_cross_fixture(2, 1.0, 0.4, 0.8), 1.0),
    ]
    rng = np.random.default_rng(12345)
    worst = 0.0
    checked = 0
    while checked < 100:
        (h, cs, w), s = fixtures[checked % 3]
        nu = counting_measure(cs.points)
        n = cs.points.shape[1]
        basis = trace0_array(n, s)
        p = rng.normal(scale=1.2, size=len(basis)) @ basis
        d = rng.normal(size=len(basis)) @ basis
        d = d * (1.0 / np.linalg.norm(d))
        g = float(np.dot(functional_gradient(h, s, nu, F, EPoint.from_vec(p, n)).vec, d))
        step = 1e-6
        fd = (functional_value(h, s, nu, F, EPoint.from_vec(p + step * d, n))
              - functional_value(h, s, nu, F, EPoint.from_vec(p - step * d, n))) / (2 * step)
        if abs(g) < 1e-8:
            continue
        worst = max(worst, abs(fd - g) / abs(g))
        checked += 1
    ok = worst <= 1e-5
    report(3, "gradient correctness", ok, f"worst relative error {worst:.2e}")
    assert ok


def test_c4_oracle_equivalence(two_level, counting_run):
    t0 = time.time()
    worst = 0.0
    for rho1_sq, rho2_sq in ((0.4, 0.8), (0.3, 0.7)):
        h, cs, w = two_level_cross_fixture(1, 1.0, rho1_sq, rho2_sq)
        nu = counting_measure(cs.points)
        res = minimize_functional(h, 1.0, nu, F)

        # independent objective: direct arithmetic on precomputed atom data,
        # closed-form profile branches, no calls into the minimized path
        pts = cs.points.ravel()
        hp = np.sqrt(1.0 - pts**2)
        basis = trace0_array(1, 1.0)  # rows (M, beta, w)
        gvecs = np.array([
            [(u * u * m + u * w) / hv**2 + beta for m, beta, w in basis]
            for u, hv in zip(pts, hp)])

        def batch(coords):
            args = coords @ gvecs.T
            vals = np.where(args <= -2.0, 0.0,
                            np.where(args <= 0.0, (args + 2.0) ** 3 / 12.0,
                                     args**2 / 2.0 + args + 2.0 / 3.0))
            return vals @ hp

        grid = GridSpec(center=np.zeros(2), half_width=4.0,
                        points_per_axis=401, refinements=2)
        _, grid_val = grid_minimize(None, basis, grid, objective_batch=batch)
        worst = max(worst, abs(grid_val - res.value))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(4, "oracle equivalence", ok, f"max value gap {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_c5_coercivity_equivalence(two_level):
    # degenerate fixture: the witness must fail exactly on the analytic flat
    # direction and the minimizer must report it
    h_cross, cs_cross, _ = cross_fixture(1, 1.0)
    nu_cross = counting_measure(cs_cross.points)
    wit = coercivity_witness(h_cross, 1.0, nu_cross, n_dirs=1000)
    labels = {lbl for lbl, _, _ in wit.failures}
    ok = not wit.ok
    ok &= labels == {"identity-flat(+)", "identity-flat(-)"}
    ok &= all(abs(v) <= 1e-12 for _, _, v in wit.failures)
    flat = project_trace0(EPoint(BlockMat(np.eye(1), -1.0), np.zeros(1)), 1.0).vec
    flat = flat * (1.0 / np.linalg.norm(flat))
    try:
        minimize_functional(h_cross, 1.0, nu_cross, F)
        diverged = False
        align = 0.0
    except DivergingIterates as exc:
        diverged = True
        align = abs(np.dot(exc.direction.vec, flat))
    ok &= diverged and align == pytest.approx(1.0, abs=1e-9)

    h, cs, w = two_level
    nu = counting_measure(cs.points)
    wit2 = coercivity_witness(h, 1.0, nu, n_dirs=1000)
    ok &= wit2.ok and wit2.margin >= 0.05
    res = minimize_functional(h, 1.0, nu, F)
    ok &= res.converged
    report(5, "coercivity equivalence", ok,
           f"flat max {max((abs(v) for _, _, v in wit.failures), default=0):.1e}, "
           f"two-level margin {wit2.margin:.3f}")
    assert ok


def test_c6_profile_closed_form():
    gbar = lambda u: PAIR.g(-np.asarray(u))
    worst = 0.0
    for x in np.linspace(-3.0, 3.0, 601):
        worst = max(worst, abs(float(F(float(x)))
                               - convolve_numeric(PAIR.f, gbar, float(x), 1e-4)))
    ok = worst <= 1e-6
    ok &= abs(float(F(0.0)) - 2.0 / 3.0) <= 1e-7
    ok &= abs(float(F.derivs(0.0)[0]) - 1.0) <= 1e-7
    ok &= abs(float(F(1.0)) - 13.0 / 6.0) <= 1e-7
    ok &= all(validate_profiles(PAIR).values())
    xs = np.linspace(-3.0, 3.0, 601)
    vals = np.asarray(F(xs), dtype=float)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    ok &= bool(np.all(vals >= 0.0) and np.all(np.diff(vals) >= -1e-12))
    ok &= bool(np.all(second >= -1e-12))
    ok &= bool(np.all(second[xs[1:-1] >= 0.0] > 0.0))
    report(6, "profile closed form", ok, f"max conv gap {worst:.2e}")
    assert ok


def test_c7_functional_relation(two_level):
    h, _, _ = two_level
    quad = QuadratureSpec()
    rng = np.random.default_rng(777)
    worst = 0.0
    for r in (0.8, 0.9):
        for _ in range(50):
            S = rng.normal(scale=0.12, size=(1, 1))
            A, alpha = sdet1_param(0.5 * (S + S.T), 1.0)
            v = rng.normal(scale=0.12, size=1)
            p = EPoint(BlockMat(A, alpha), v)
            lhs = band_functional(h, 1.0, PAIR, r, p, quad)
            resc = EPoint(BlockMat((A - np.eye(1)) / (1 - r), (alpha - 1.0) / (1 - r)),
                          v / (1 - r))
            rhs = rescaled_band_functional(h, 1.0, PAIR, r, resc, quad)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst <= 2 * QUAD_TOL
    report(7, "functional relation", ok, f"worst gap {worst:.2e} vs {2*QUAD_TOL:.0e}")
    assert ok


def test_c8_band_property_suite(two_level):
    h, _, _ = two_level
    quad = QuadratureSpec()
    rng = np.random.default_rng(4242)
    ok = True
    # positivity on the cone
    for r in (0.8, 0.9):
        for _ in range(50):
            S = rng.normal(scale=0.3, size=(1, 1))
            A, alpha = sdet1_param(0.5 * (S + S.T), 1.0)
            p = EPoint(BlockMat(A, alpha * rng.uniform(1.0, 1.6)),
                       rng.normal(scale=0.3, size=1))
            ok &= band_functional(h, 1.0, PAIR, r, p, quad) > 0.0
    # mixed convexity
    worst_gap = 0.0
    for r in (0.8, 0.9):
        for _ in range(200):
            pts = []
            for _ in range(2):
                S = rng.normal(scale=0.2, size=(1, 1))
                A, alpha = sdet1_param(0.5 * (S + S.T), 1.0)
                pts.append(EPoint(BlockMat(A, alpha), rng.normal(scale=0.2, size=1)))
            lam = rng.uniform(0, 1)
            mix = EPoint(
                BlockMat(lam * pts[0].mat.diag + (1 - lam) * pts[1].mat.diag,
                         pts[0].mat.corner**lam * pts[1].mat.corner ** (1 - lam)),
                lam * pts[0].shift + (1 - lam) * pts[1].shift)
            lhs = band_functional(h, 1.0, PAIR, r, mix, quad)
            rhs = (lam * band_functional(h, 1.0, PAIR, r, pts[0], quad)
                   + (1 - lam) * band_functional(h, 1.0, PAIR, r, pts[1], quad))
            gap = (lhs - rhs) / max(1.0, abs(rhs))
            worst_gap = max(worst_gap, gap)
            ok &= gap <= 2 * QUAD_TOL
    # identity value bounded by the explicit constant, uniformly in r
    xs = np.linspace(-3, 3, 2001)[:, None]
    sup_h = float(np.max(eval_h_many(h, xs)))
    bound = 2.0 * sup_h**2 * 2.0 * 0.5
    ident = EPoint(BlockMat.identity(1, 1.0), np.zeros(1))
    for r in (0.8, 0.9, 0.95, 0.99):
        ok &= band_functional(h, 1.0, PAIR, r, ident, quad) <= bound
    report(8, "band property suite", ok, f"worst convexity gap {worst_gap:.2e}")
    assert ok


def test_c9a_distance_to_identity(sweep):
    dist = sweep.series("dist_to_identity")
    ok = bool(np.all(np.diff(dist) < 0.0)) and dist[-1] <= 0.05
    report("9a", "band minimizers approach identity", ok,
           f"series {np.array2string(dist, precision=5)}")
    assert ok


def test_c9b_normalized_trace(sweep):
    nst = sweep.series("normalized_s_trace")
    ok = bool(np.all(np.diff(nst) < 0.0)) and nst[-1] <= 0.05
    report("9b", "normalized weighted trace vanishes", ok,
           f"series {np.array2string(nst, precision=6)}")
    assert ok


def test_c9c_secant_to_reference(sweep):
    # Known red: the rescaled minimizers converge to the curvature-weighted
    # limit of the band family, not to the discrete contact-functional
    # reference, so the secant plateaus near 0.38 instead of entering the
    # 10*(1-r_last) ball.  Kept as stated; see README acceptance notes.
    sec = sweep.series("secant_to_reference")
    bound = 10.0 * (1.0 - sweep.schedule[-1])
    ok = bool(np.all(np.diff(sec) < 0.0)) and sec[-1] <= bound
    report("9c", "secant to reference minimizer", ok,
           f"series {np.array2string(sec, precision=4)}, final bound {bound:.2f}")
    assert ok, ("rescaled band minimizers converge to the curvature-weighted "
                "limit, which differs from the contact-functional reference")


def test_c9e_secant_to_limit(sweep):
    # the rescaled minimizers against the minimizer of the curvature-weighted limit
    # functional (`isotropy.limit_reference`), the point 9c's series levels off away from
    sec = sweep.series("secant_to_limit")
    bound = 10.0 * (1.0 - sweep.schedule[-1])
    ok = bool(np.all(np.diff(sec) < 0.0)) and sec[-1] <= bound
    report("9e", "secant to limit minimizer", ok,
           f"series {np.array2string(sec, precision=4)}, final bound {bound:.2f}")
    assert ok


def test_c9d_measure_integrals(sweep):
    last = sweep.entries[-1]
    rel = np.max(np.abs(last.mu_integrals - last.mu_reference)
                 / np.abs(last.mu_reference))
    errs = [np.max(np.abs(e.mu_integrals - e.mu_reference) / np.abs(e.mu_reference))
            for e in sweep.entries]
    ok = bool(np.all(np.diff(errs) < 0.0)) and rel <= 0.05
    ok &= sweep.elapsed < 600.0
    report("9d", "concentration measure matches extraction", ok,
           f"relative errors {np.array2string(np.array(errs), precision=4)}, "
           f"sweep {sweep.elapsed:.0f}s")
    assert ok


def test_c10_determinism(tmp_path):
    cli = [sys.executable, "-m", "fjohn.cli"]
    inst = tmp_path / "inst.json"
    emit = subprocess.run(cli + ["fixture", "two-level-cross", "--n", "1", "--s", "1.0",
                                 "--out", str(inst)], capture_output=True, text=True)
    assert emit.returncode == 0
    ok = True
    for cmd in (["verify", "--instance", str(inst)],
                ["minimize-i1", "--instance", str(inst)],
                ["coercivity", "--instance", str(inst)]):
        runs = [subprocess.run(cli + cmd, capture_output=True, text=True).stdout
                for _ in range(2)]
        ok &= runs[0] == runs[1] and len(runs[0]) > 0
    report(10, "deterministic reports", ok)
    assert ok
