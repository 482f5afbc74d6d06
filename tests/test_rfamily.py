import dataclasses
import importlib.util
import itertools
import json
import pathlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from fjohn import cli, rfamily
from fjohn.blockmat import BlockMat, EPoint, s_trace, sdet1_param, trace0_array
from fjohn.contact import detect_contacts, make_tangent_instance, two_level_cross_fixture
from fjohn.errors import (BadR, DivergingIterates, NotConverged, NotInBr, NotJohnPosition,
                          NotProper, SingularA)
from fjohn.isotropy import (counting_measure, extract_measure, limit_reference,
                            minimize_functional)
from fjohn.logconcave import PiecewiseLogAffine, eval_h_many, make_log_concave
from fjohn.profiles import ConvolutionProfile, PiecewiseLinear, ProfilePair, canonical_pair
from fjohn.rfamily import (QuadratureSpec, _envelope_breaks_1d, band_functional,
                           concentration_integral, default_bumps, minimize_band, r_sweep,
                           rescaled_band_functional, stationarity_multiplier, trapezoid_bump)
from oracles import (band_walk, density_sums, envelope_breaks_scan,
                     fd_newton_minimize, inner_band_alone, inner_curvature, kink_hessian,
                     pl_deriv, psi_gradient, s_det, sorted_inner_band, theta_point, x_grid)

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"
S = 1.0
QUAD_TOL = 1e-6  # the quadrature error 960 nodes per axis hold at n = 1 (QuadratureSpec)
CONVERGED_STOPS = (rfamily.CONVERGED, rfamily.RESOLVED)  # both stop at a minimum


@pytest.fixture(scope="module")
def fixture():
    h, cs, w = two_level_cross_fixture(1, S, 0.4, 0.8)
    return h, cs, w


@pytest.fixture(scope="module")
def quad():
    return QuadratureSpec()


def identity_point(n=1):
    return EPoint(BlockMat.identity(n, 1.0), np.zeros(n))


def random_unit_sdet_members(n, s, count, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        Sm = rng.normal(scale=scale, size=(n, n))
        A, alpha = sdet1_param(0.5 * (Sm + Sm.T), s)
        out.append(EPoint(BlockMat(A, alpha), rng.normal(scale=scale, size=n)))
    return out


class TestBandFunctional:
    def test_bad_r(self, fixture, quad):
        h, _, _ = fixture
        with pytest.raises(BadR):
            band_functional(h, S, canonical_pair(), 0.3, identity_point(), quad)

    def test_band_radius_invariant(self, fixture, quad):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), quad)
        for r in (0.8, 0.9, 0.95, 0.99):
            need = np.sqrt(1.0 + 2.0 * (1.0 - r) * np.exp(-rfamily._min_psi(h.form)) ** (2.0 / S))
            assert band.radii(r)[0] >= need - 1e-12

    def test_refinement_stability(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        fine = QuadratureSpec(x_nodes_per_axis=2 * quad.x_nodes_per_axis)
        pts = [identity_point()] + random_unit_sdet_members(1, S, 3, seed=10)
        for r in (0.8, 0.9):
            for p in pts:
                v1 = band_functional(h, S, pair, r, p, quad)
                v2 = band_functional(h, S, pair, r, p, fine)
                assert abs(v1 - v2) <= 5 * QUAD_TOL * max(1.0, abs(v1))

    def test_positivity_on_cone(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        rng = np.random.default_rng(11)
        for r in (0.8, 0.9):
            for p in random_unit_sdet_members(1, S, 50, seed=17, scale=0.3):
                scale = rng.uniform(1.0, 1.5)
                q = EPoint(BlockMat(p.mat.diag, p.mat.corner * scale), p.shift)
                assert band_functional(h, S, pair, r, q, quad) > 0.0

    def test_identity_upper_bound(self, fixture, quad):
        # explicit constant: 2 (sup h^(1/s))^(n+1) vol(B^n) integral_{-1}^0 f
        h, _, _ = fixture
        pair = canonical_pair()
        xs = np.linspace(-3, 3, 2001)[:, None]
        sup_h = float(np.max(eval_h_many(h, xs) ** (1.0 / S)))
        f_int = 0.5  # integral of (t+1) over [-1, 0]
        bound = 2.0 * sup_h**2 * 2.0 * f_int
        for r in (0.8, 0.9, 0.95, 0.99):
            assert band_functional(h, S, pair, r, identity_point(), quad) <= bound

    def test_convex_star(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        rng = np.random.default_rng(23)
        members = random_unit_sdet_members(1, S, 60, seed=29, scale=0.25)
        for r in (0.8, 0.9):
            for _ in range(30):
                i, j = rng.integers(0, len(members), size=2)
                p, q = members[i], members[j]
                lam = rng.uniform(0, 1)
                mixA = lam * p.mat.diag + (1 - lam) * q.mat.diag
                mix_alpha = p.mat.corner**lam * q.mat.corner ** (1 - lam)
                mix = EPoint(BlockMat(mixA, mix_alpha),
                             lam * p.shift + (1 - lam) * q.shift)
                lhs = band_functional(h, S, pair, r, mix, quad)
                rhs = (lam * band_functional(h, S, pair, r, p, quad)
                       + (1 - lam) * band_functional(h, S, pair, r, q, quad))
                assert lhs <= rhs + 2 * QUAD_TOL * max(1.0, abs(rhs))

    def test_uniform_coercivity_along_rays(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        rng = np.random.default_rng(31)
        for r in (0.8, 0.9, 0.95, 0.99):
            for k in range(5):
                gen = rng.normal(size=2)
                gen *= 0.35 / np.linalg.norm(gen)
                vals = []
                for tau in (0.0, 10.0):
                    A, alpha = sdet1_param(np.array([[tau * gen[0]]]), S)
                    p = EPoint(BlockMat(A, alpha), np.array([tau * gen[1]]))
                    vals.append(band_functional(h, S, pair, r, p, quad))
                assert vals[1] >= 10.0 * vals[0]


class TestBandRadius:
    def test_tangent_instance_band_is_enclosed(self, quad):
        # one piece on a domain of radius 8: sup h^2 = 62,671 sits at x = -8, far
        # outside [-2, 2], and the band reaches the domain's edge; the expected
        # values are band_functional on the domain radius with 9600 nodes, where
        # 960 nodes agree to 5e-7
        inst = json.loads((INSTANCES / "tangent_n1_s1.json").read_text())
        h = cli.build_h(inst)
        pair = canonical_pair()
        assert np.exp(-rfamily._min_psi(h.form)) ** (2.0 / S) == pytest.approx(62670.82, rel=1e-6)
        radius, reach = rfamily._Band(h, S, pair, quad).radii(0.8)
        assert radius == reach == 8.0
        for v, want in ((0.4, 1.8334019), (0.5, 2.9710297), (-0.3, np.inf)):
            p = EPoint(BlockMat(np.eye(1), 1.0), np.array([v]))
            assert band_functional(h, S, pair, 0.8, p, quad) == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sup_is_attained_on_coercive_psi(self, n, quad):
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        rng = np.random.default_rng(n)
        X = np.vstack([np.zeros((1, n)), rng.uniform(-3.0, 3.0, size=(20000, n)),
                       rng.normal(scale=0.2, size=(20000, n))])
        sampled = float(np.max(eval_h_many(h, X) ** (2.0 / S)))
        # the radii bound sup h^(2/s) by exp(-min psi)^2 times 1 + 1e-7, and the
        # fixture's psi is least at 0
        sup = float(np.exp(-rfamily._min_psi(h.form)) ** (2.0 / S)) * 1.0000001
        assert sup == float(eval_h_many(h, np.zeros((1, n)))[0] ** 2) * 1.0000001
        assert sampled <= sup <= sampled * (1.0 + 2e-7)
        radius, reach = rfamily._Band(h, S, canonical_pair(), quad).radii(0.8)
        assert radius == reach == np.sqrt(1.0 + 2.0 * (1.0 - 0.8) * sup)

    def test_non_coercive_pieces_use_the_domain_bound(self, quad):
        # psi = max(x, 2x) has a vertex at 0 but falls to -3 at x = -3 on |x| <= 3
        def band(domain_radius):
            h = make_log_concave([[1.0], [2.0]], [0.0, 0.0], S, domain_radius)
            return rfamily._Band(h, S, canonical_pair(), quad)

        assert np.exp(-rfamily._min_psi(band(3.0).h.form)) ** (2.0 / S) == pytest.approx(
            np.exp(6.0), rel=2e-7)
        radius, reach = band(3.0).radii(0.99)
        assert radius == reach == 3.0
        radius, reach = band(1.0).radii(0.99)
        assert radius == reach == 1.0
        with pytest.raises(NotProper):
            band(None)


class TestRescaledBandFunctional:
    def test_origin_matches_identity(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        for r in (0.8, 0.9):
            lhs = rescaled_band_functional(h, S, pair, r, EPoint.from_vec(np.zeros(3), 1), quad)
            rhs = band_functional(h, S, pair, r, identity_point(), quad)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_reparametrization_identity(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        for r in (0.8, 0.9):
            for p in random_unit_sdet_members(1, S, 20, seed=37):
                lhs = band_functional(h, S, pair, r, p, quad)
                resc = EPoint(
                    BlockMat((p.mat.diag - np.eye(1)) / (1 - r),
                             (p.mat.corner - 1.0) / (1 - r)),
                    p.shift / (1 - r))
                rhs = rescaled_band_functional(h, S, pair, r, resc, quad)
                assert abs(lhs - rhs) <= 2 * QUAD_TOL * max(1.0, abs(lhs))

    def test_not_in_domain(self, fixture, quad):
        h, _, _ = fixture
        r = 0.9
        p = EPoint(BlockMat(np.array([[-1.0 / (1 - r)]]), 0.0), np.zeros(1))
        with pytest.raises(NotInBr):
            rescaled_band_functional(h, S, canonical_pair(), r, p, quad)

    def test_uniform_convergence_to_finite_contact_limit(self, fixture):
        # with finitely many contacts the r -> 1 limit functional vanishes,
        # so the sup over a compact grid must decrease along the schedule
        h, _, _ = fixture
        pair = canonical_pair()
        basis = trace0_array(1, S)
        rng = np.random.default_rng(41)
        grid_pts = [EPoint.from_vec(c @ basis, 1) for c in rng.uniform(-1, 1, size=(11, 2)) * 2]
        sups = []
        for r, nodes in ((0.9, 960), (0.99, 1600), (0.999, 4000)):
            q = QuadratureSpec(x_nodes_per_axis=nodes)
            sups.append(max(abs(rescaled_band_functional(h, S, pair, r, p, q))
                            for p in grid_pts))
        assert sups[0] > sups[1] > sups[2]


def _triangle_square_n2():
    """The benchmark's n = 2 instance up to a reflection: h tangent at a triangle at
    sqrt 0.4, theta = 0.3 + 2 pi j/3, and a square at sqrt 0.8, theta = 0.3 + pi/4 + pi j/2."""
    angles = np.concatenate([0.3 + 2.0 * np.pi * np.arange(3) / 3.0,
                             0.3 + np.pi / 4.0 + np.pi * np.arange(4) / 2.0])
    radii = np.sqrt([0.4] * 3 + [0.8] * 4)
    points = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return make_tangent_instance(points, S)


class TestPositiveDefiniteBlock:
    # a nonzero determinant passes -I and diag(1, -1); the band functional and its
    # measure are defined on positive definite blocks only
    @pytest.mark.parametrize("n", [1, 2])
    def test_indefinite_block_is_rejected(self, n):
        h = two_level_cross_fixture(1, S, 0.4, 0.8)[0] if n == 1 else _triangle_square_n2()
        pair, r, quad = canonical_pair(), 0.8, QuadratureSpec(x_nodes_per_axis=96)
        blocks = [-np.eye(n)] + ([np.diag([1.0, -1.0])] if n == 2 else [])
        for A in blocks:
            p = EPoint(BlockMat(A, 1.0), np.zeros(n))
            with pytest.raises(SingularA):
                band_functional(h, S, pair, r, p, quad)
            with pytest.raises(SingularA):
                concentration_integral(h, S, pair, r, p, lambda x: np.ones(len(x)), quad)
            with pytest.raises(SingularA):
                stationarity_multiplier(h, S, pair, r, p, quad)
            # I + (1-r) M = A
            rescaled = EPoint(BlockMat((A - np.eye(n)) / (1.0 - r), 0.0), np.zeros(n))
            with pytest.raises(NotInBr):
                rescaled_band_functional(h, S, pair, r, rescaled, quad)
        # the identity passes every check
        ident = identity_point(n)
        assert 0.0 < band_functional(h, S, pair, r, ident, quad) < np.inf
        assert stationarity_multiplier(h, S, pair, r, ident, quad) > 0.0


def _traced_peak(evaluate, monkeypatch=None):
    """evaluate()'s result and its tracemalloc peak, after one untraced warm-up call.

    With monkeypatch, the band walk's free list is emptied after the warm-up,
    so the traced call builds its buffer and the peak counts it."""
    evaluate()
    if monkeypatch is not None:
        monkeypatch.setattr(rfamily, "_FREE", [])
    tracemalloc.start()
    try:
        return evaluate(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _band_n2_call():
    """One band_functional call on the n = 2 instance's default 921,600-node grid."""
    h = _triangle_square_n2()
    A, alpha = sdet1_param(np.array([[0.1, -0.05], [-0.05, -0.08]]), S)
    p = EPoint(BlockMat(A, alpha), np.array([0.05, -0.1]))
    return lambda: band_functional(h, S, canonical_pair(), 0.8, p, QuadratureSpec())


def test_band_functional_allocates_one_block(monkeypatch):
    # an n = 2 evaluation on the default 921,600-node grid reduces every block as it is
    # walked, so its peak allocation is a few blocks' temporaries, not grid-sized buffers.
    # The traced call builds its workspace.  Measured: 4.81 MB (5.58 MB when every block
    # allocated its own temporaries); the bound is 1.25 times the latter, which a kernel
    # that kept its last call's pass arrays (7.29 MB) failed
    value, peak = _traced_peak(_band_n2_call(), monkeypatch)
    assert 0.0 < value < np.inf
    assert peak <= 6.97e6, f"peak {peak / 1e6:.2f} MB"


def test_band_functional_reuses_its_workspace():
    # a second call walks the workspace the first one left on the free list: it allocates
    # only index arrays and a few small ones.  Measured: 0.63 MB; the bound is 1.25 times
    # that, which a walk that built its workspace again (4.81 MB) fails
    value, peak = _traced_peak(_band_n2_call())
    assert 0.0 < value < np.inf
    assert peak <= 0.79e6, f"peak {peak / 1e6:.2f} MB"


def test_band_value_grad_allocates_one_block(monkeypatch):
    # one Newton evaluation (value, gradient, Hessian and the kept arrays) on the n = 2
    # instance at 480 nodes per axis, building its workspace.  Measured: 12.20 MB (9.96 MB
    # when every block allocated its own temporaries, 11.0 MB when I'' came from a second
    # kernel after the walk's); the bound is 1.25 times 9.96 MB
    band = rfamily._Band(_triangle_square_n2(), S, canonical_pair(),
                         QuadratureSpec(x_nodes_per_axis=480))
    value, peak = _traced_peak(lambda: rfamily._band_value_grad(
        band, 0.8, np.zeros(len(band.basis)))[0], monkeypatch)
    assert 0.0 < value < np.inf
    assert peak <= 12.45e6, f"peak {peak / 1e6:.2f} MB"


def _compass_minimize(band, r, max_iter=400):
    """The compass search and finite-difference polish the Newton minimizer replaced.

    Kept as the reference oracle of `_minimize_band`: derivative-free steps
    of 0.25 (1-r) halved down to 1e-7 (1-r), a position already visited is
    not evaluated again, then a gradient polish on central differences.
    Starts at the identity and returns (point, value).
    """
    n = band.h.n
    seen = {}

    def obj(theta):
        p = theta_point(theta, n, S)
        key = (p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes())
        if key not in seen:
            seen[key] = rfamily._band_value(band, r, p)
        return seen[key]

    theta = np.zeros(n * (n + 1) // 2 + n)
    value = obj(theta)
    step, evals = 0.25 * (1.0 - r), 0
    while step > 1e-7 * (1.0 - r) and evals < 60 * max_iter:
        improved = False
        for k in range(len(theta)):
            for sgn in (1.0, -1.0):
                cand = theta.copy()
                cand[k] += sgn * step
                val = obj(cand)
                evals += 1
                if val < value - 1e-15:
                    theta, value, improved = cand, val, True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5
    fd = 1e-7
    for _ in range(20):
        g = np.array([(obj(theta + e) - obj(theta - e)) / (2.0 * fd)
                      for e in fd * np.eye(len(theta))])
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        stepg, moved = (1.0 - r) * 0.01 / max(gn, 1e-30), False
        for _ in range(20):
            cand = theta - stepg * g
            val = obj(cand)
            if val < value - 1e-15:
                theta, value, moved = cand, val, True
                break
            stepg *= 0.5
        if not moved:
            break
    return theta_point(theta, n, S), value


class TestBandGradient:
    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_matches_central_differences_n1(self, fixture, quad, r):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), quad)
        rng = np.random.default_rng(int(100 * r))

        def value_at(th):
            return band_functional(h, S, canonical_pair(), r, theta_point(th, 1, S), quad)

        step, worst = 1e-6, 0.0
        for _ in range(20):
            theta = rng.normal(scale=0.3 * (1.0 - r), size=2)
            value, grad, _, _ = rfamily._band_value_grad(band, r, theta)
            fd = np.array([(value_at(theta + e) - value_at(theta - e)) / (2.0 * step)
                           for e in step * np.eye(2)])
            worst = max(worst, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        assert worst <= 1e-4

    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_matches_central_differences_n2(self, r):
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis=96)
        band = rfamily._Band(h, S, canonical_pair(), quad)
        rng = np.random.default_rng(int(200 * r))

        def value_at(th):
            return band_functional(h, S, canonical_pair(), r, theta_point(th, 2, S), quad)

        step = 1e-6
        for _ in range(3):
            theta = rng.normal(scale=0.3 * (1.0 - r), size=5)
            _, grad, _, _ = rfamily._band_value_grad(band, r, theta)
            fd = np.array([(value_at(theta + e) - value_at(theta - e)) / (2.0 * step)
                           for e in step * np.eye(5)])
            assert np.linalg.norm(fd - grad) <= 1e-4 * np.linalg.norm(grad)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_is_band_value(self, n):
        # the minimizer's own map from theta to (A, alpha, v) is the linear chart
        # A = I + S, alpha = det(A)^(-1/s), bit for bit
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis={1: 960, 2: 96, 3: 32}[n])
        rng = np.random.default_rng(67 + n)
        band = rfamily._Band(h, S, canonical_pair(), quad)
        for r in (0.8, 0.95):
            for _ in range(5):
                theta = rng.normal(scale=0.05, size=n * (n + 1) // 2 + n)
                p = theta_point(theta, n, S)
                value = rfamily._band_value_grad(band, r, theta)[0]
                assert 0.0 < value == rfamily._band_value(band, r, p)
                assert value == band_functional(h, S, canonical_pair(), r, p, quad)

    def test_barrier_has_no_gradient(self):
        # a shift that pushes the band beyond the bounded domain of h
        form = two_level_cross_fixture(1, S, 0.4, 0.8)[0].form
        bounded = make_log_concave(form.a, form.b, S, domain_radius=1.2)
        band = rfamily._Band(bounded, S, canonical_pair(), QuadratureSpec())
        theta = np.array([0.0, 0.5])
        assert rfamily._band_value(band, 0.9, theta_point(theta, 1, S)) == float("inf")
        assert rfamily._band_value_grad(band, 0.9, theta) == (float("inf"), None, None, None)

    @pytest.mark.parametrize("n", [1, 2])
    def test_block_not_positive_definite_is_beyond_the_barrier(self, n):
        # theta with S = -1.5 I stands for the block A = I + S = -I/2, which is no position.
        # At n = 2 det A = 1/4 > 0, so only the eigenvalues can tell
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=96))
        M = -1.5 * np.eye(n)
        theta = band.basis @ np.concatenate([M.ravel(), [-np.trace(M) / S], np.zeros(n)])
        assert rfamily._band_value_grad(band, 0.9, theta) == (float("inf"), None, None, None)


def _octahedron_cube_n3():
    """h tangent at an octahedron at sqrt 0.4 and a cube at sqrt 0.8, turned off the axes."""
    rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    octahedron = np.concatenate([np.eye(3), -np.eye(3)])
    cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / np.sqrt(3.0)
    return make_tangent_instance(np.concatenate([np.sqrt(0.4) * octahedron,
                                                 np.sqrt(0.8) * cube]) @ rot.T, S)


def _ci_custom_pair():
    """The custom pair CI sweeps with: f kinks at -0.3 and 0.4, g kinks at -1, -0.2 and 1."""
    f = PiecewiseLinear.from_knots([-1.0, -0.3, 0.4], [0.0, 0.35, 1.1], right_slope=2.0)
    g = PiecewiseLinear.from_knots([-1.0, -0.2, 1.0], [1.0, 0.7, 0.0])
    return ProfilePair(f=f, g=g)


def _hessian_error(band, r, theta):
    """Relative distance of `_band_value_grad`'s Hessian from central differences of its
    gradient, with step 1e-4 (1-r)."""
    hess = rfamily._band_value_grad(band, r, theta)[2]
    step = 1e-4 * (1.0 - r)
    fd = np.array([(rfamily._band_value_grad(band, r, theta + e)[1]
                    - rfamily._band_value_grad(band, r, theta - e)[1]) / (2.0 * step)
                   for e in step * np.eye(len(theta))])
    return np.linalg.norm(hess - fd) / np.linalg.norm(fd)


class TestBandHessian:
    @pytest.mark.parametrize("pair, s", [("canonical", S), ("ci-custom", S), ("canonical", 2.0)])
    @pytest.mark.parametrize("r", [0.8, 0.95])
    def test_matches_central_differences_n1(self, fixture, quad, pair, s, r):
        # the n = 1 grid moves with theta, so this is the continuum functional's Hessian,
        # one point term per kink of psi included (without it: up to 17% off).  Measured:
        # 3e-9 to 3e-5 on the canonical pair, 2e-7 to 1.6e-5 on the custom one, whose
        # interior g kink at -0.2 adds a term to I'', and 1.6e-5 to 4e-5 at s = 2 (h
        # tangent at +-sqrt 0.4 and +-sqrt 0.8), where every 1/s factor shows
        pair = canonical_pair() if pair == "canonical" else _ci_custom_pair()
        h = fixture[0] if s == S else make_tangent_instance(
            np.sqrt([0.8, 0.4, 0.4, 0.8])[:, None] * np.array([[-1.0], [-1.0], [1.0], [1.0]]), s)
        band = rfamily._Band(h, s, pair, quad)
        rng = np.random.default_rng(int(1000 * r))
        for theta in [np.zeros(2)] + [rng.normal(scale=0.3 * (1.0 - r), size=2)
                                      for _ in range(3)]:
            assert _hessian_error(band, r, theta) <= 1e-4

    @pytest.mark.parametrize("pair, s", [("canonical", S), ("ci-custom", S), ("canonical", 2.0)])
    @pytest.mark.parametrize("r", [0.8, 0.95])
    def test_kink_term_matches_its_own_kernel_call(self, fixture, quad, pair, s, r):
        # psi's open kinks join the walk's one `_inner_band` call after the near grid nodes.
        # The kernel integrates every node on its own, so the flat Hessian is bit for bit the
        # grid's (a band whose kinks have no slope jump adds a kink term of zeros) plus the
        # term from a kernel call on the kinks alone (`oracles.kink_hessian`)
        pair = canonical_pair() if pair == "canonical" else _ci_custom_pair()
        h = fixture[0] if s == S else make_tangent_instance(
            np.sqrt([0.8, 0.4, 0.4, 0.8])[:, None] * np.array([[-1.0], [-1.0], [1.0], [1.0]]), s)
        band, smooth = rfamily._Band(h, s, pair, quad), rfamily._Band(h, s, pair, quad)
        smooth.jumps = np.zeros_like(band.jumps)
        rng = np.random.default_rng(int(1000 * r))
        for theta in [np.zeros(2)] + [rng.normal(scale=0.3 * (1.0 - r), size=2)
                                      for _ in range(3)]:
            Sm, v = band.split(theta)
            A, alpha = sdet1_param(Sm, s)
            term = kink_hessian(band, r, A, alpha, v)
            assert np.any(term != 0.0)
            want = rfamily._band_sums(smooth, [(r, A, alpha, v)])[0][2] + term
            assert np.array_equal(rfamily._band_sums(band, [(r, A, alpha, v)])[0][2], want)

    def test_kink_open_where_no_grid_node_is_near(self, monkeypatch):
        # with g's top kink at -0.5 a node is near only where |x|^2 - 1 < -(1-r) h^(2/s).
        # psi falls with slope -300, then -250 from its kink at -0.999, where
        # (1-r) h^(2/s) = 1e-3, and is flat from -0.699: on the 25-node grid (radius 1.2)
        # that holds on a sliver around the kink between two nodes, -1.003 and -0.993.  The
        # walk still makes its one kernel call, on psi's two kinks alone, of which the kernel
        # finds the one at -0.999 open, and that kink's term is the whole Hessian
        r = 0.9
        psi_k = -0.5 * np.log(1e-3 / (1.0 - r))
        h = make_log_concave(np.array([[-300.0], [-250.0], [0.0]]),
                             psi_k + np.array([-299.7, -249.75, -75.0]), S, domain_radius=1.2)
        pair = ProfilePair(f=canonical_pair().f,
                           g=PiecewiseLinear.from_knots([-1.0, -0.5], [1.0, 0.0]))
        band = rfamily._Band(h, S, pair, QuadratureSpec(x_nodes_per_axis=25))
        assert np.allclose(band.breaks, [-0.999, -0.699])
        A, alpha, v = np.eye(1), 10.0, np.zeros(1)
        calls, inner_band = [], rfamily._inner_band

        def spy_inner_band(f, g, r, c2, den, r2m1, derivs, scratch):
            out = inner_band(f, g, r, c2, den, r2m1, derivs, scratch)
            calls.append((len(c2), out[0].tolist()))
            return out

        monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
        value, _, hess, kept = rfamily._band_sums(band, [(r, A, alpha, v)])[0]
        assert calls == [(2, [0])] and value == 0.0 and sum(len(w) for _, w in kept) == 0
        term = kink_hessian(band, r, A, alpha, v)
        assert np.any(term != 0.0) and np.array_equal(hess, term)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_central_differences_fixed_grid(self, n):
        # at n >= 2 the grid is fixed and the Hessian is that of the sum wherever it exists.
        # The differences are taken where the minimizer starts: at theta = 0 and at the
        # sweep's start, the block exp((1-r) M_lim) and shift (1-r) w_lim of the limit
        # point.  A difference step that lets a node cross a kink of psi moves them by far
        # more (20% at a seeded random theta on the n = 2 instance, and 13-49% at r = 0.8),
        # which is not a fault of the Hessian.  Measured: 1.6e-9 at n = 2 and 6e-9 to 1.7e-8
        # at n = 3
        h, nodes = (_triangle_square_n2(), 240) if n == 2 else (_octahedron_cube_n3(), 64)
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=nodes))
        limit = limit_reference(h, S, canonical_pair()).point
        r = 0.95
        step = sdet1_param((1.0 - r) * limit.mat.diag, S)[0] - np.eye(n)
        start = band.basis @ np.concatenate([step.ravel(), [-np.trace(step) / S],
                                             (1.0 - r) * limit.shift])
        for theta in (np.zeros(len(band.basis)), start):
            assert _hessian_error(band, r, theta) <= 1e-6


class TestGridCap:
    """MAX_WALK_ARRAY bounds x_nodes_per_axis ** max(1, n - 1); construction only, no band
    is evaluated."""

    @pytest.mark.parametrize("n, nodes", [(1, 960), (2, 960), (3, 960), (2, 1600), (2, 240),
                                          (1, 480), (2, 96), (3, 96), (1, 64), (3, 32),
                                          (3, 144), (3, 192)])
    def test_admits_every_count_in_use(self, n, nodes):
        QuadratureSpec(x_nodes_per_axis=nodes).check_grid(n)

    @pytest.mark.parametrize("n, nodes", [(1, 4194305), (2, 4194305), (3, 2049)])
    def test_band_refuses_the_first_count_above(self, n, nodes):
        power = max(1, n - 1)
        assert (nodes - 1) ** power <= rfamily.MAX_WALK_ARRAY < nodes ** power
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        with pytest.raises(ValueError, match="band-walk array"):
            rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=nodes))
        rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=nodes - 1))


class TestMinimizeBand:
    @pytest.mark.parametrize("r", [0.8, 0.9, 0.99])
    def test_lands_on_compass_minimizer(self, fixture, quad, r):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), quad)
        ref_point, ref_value = _compass_minimize(band, r)
        res, _ = rfamily._minimize_band(band, r, None)
        assert res.stop_reason in CONVERGED_STOPS and res.evaluations <= 6  # Newton takes 4
        assert np.linalg.norm(res.point.vec - ref_point.vec) / (1.0 - r) <= 1e-5
        assert res.value <= ref_value * (1.0 + 1e-10)
        assert res.value == band_functional(h, S, canonical_pair(), r, res.point, quad)

    @pytest.mark.parametrize("n, r", [(1, 0.8), (1, 0.9), (1, 0.99), (2, 0.9), (2, 0.95)])
    def test_lands_on_fd_newton_minimizer(self, n, r):
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        band = rfamily._Band(h, S, canonical_pair(),
                             QuadratureSpec(x_nodes_per_axis=960 if n == 1 else 96))
        ref_point, ref_value, ref_evals, _ = fd_newton_minimize(band, r)
        res, _ = rfamily._minimize_band(band, r, None)
        assert res.stop_reason in CONVERGED_STOPS
        assert np.linalg.norm(res.point.vec - ref_point.vec) / (1.0 - r) <= 1e-5
        assert res.value <= ref_value * (1.0 + 1e-10)
        assert res.evaluations < ref_evals

    def test_resolved_stop_is_an_fd_newton_stop(self):
        # on the coarse n = 2 grid at r = 0.8 both loops stop RESOLVED: the nodes cross
        # the kinks of psi, so the discrete minimum is fixed only to about the difference
        # step, and the two paths end at different such points.  Started where the
        # exact-Newton loop stopped, the FD-Newton loop finds no step either.
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=96))
        res, _ = rfamily._minimize_band(band, 0.8, None)
        assert res.stop_reason == rfamily.RESOLVED
        point, value, _, stop = fd_newton_minimize(band, 0.8, res.point)  # x0 goes through A - I
        assert stop == rfamily.RESOLVED and value == pytest.approx(res.value, rel=1e-14)
        assert np.linalg.norm(point.vec - res.point.vec) <= 1e-12

    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_same_loop_at_n2(self, r):
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis=96)
        band = rfamily._Band(h, S, canonical_pair(), quad)
        res, _ = rfamily._minimize_band(band, r, None)
        assert res.stop_reason in CONVERGED_STOPS and res.evaluations <= 60
        assert s_det(res.point.mat, S) == pytest.approx(1.0, abs=1e-10)
        assert res.value == band_functional(h, S, canonical_pair(), r, res.point, quad)
        assert res.value < band_functional(h, S, canonical_pair(), r, identity_point(2), quad)

    def test_max_iter_zero_takes_no_step(self, fixture, quad, monkeypatch):
        h, _, _ = fixture
        monkeypatch.setattr(rfamily, "BAND_MAX_ITER", 0)
        band = rfamily._Band(h, S, canonical_pair(), quad)
        res, _ = rfamily._minimize_band(band, 0.9, None)
        assert res.iterations == 0 and res.stop_reason == "max_iter"
        assert np.linalg.norm(res.point.vec - identity_point().vec) == 0.0
        p, lam = minimize_band(h, S, canonical_pair(), 0.9, quad)
        assert np.linalg.norm(p.vec - identity_point().vec) == 0.0 and lam > 0.0

    def test_unit_sdet_and_trend(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        p8, lam8 = minimize_band(h, S, pair, 0.8, quad)
        p9, lam9 = minimize_band(h, S, pair, 0.9, quad)
        for p in (p8, p9):
            assert s_det(p.mat, S) == pytest.approx(1.0, abs=1e-10)
            assert abs(p.shift[0]) <= 1e-6
        d8 = np.linalg.norm(p8.vec - identity_point().vec)
        d9 = np.linalg.norm(p9.vec - identity_point().vec)
        assert d9 < d8
        assert lam8 > 0.0 and lam9 > 0.0


class TestConcentration:
    def test_away_from_contacts_decays(self, fixture, quad):
        # the compactly supported profiles kill the density away from the
        # contact set once the band is thin enough, so the decay ends at
        # exactly zero rather than merely small values
        h, _, _ = fixture
        pair = canonical_pair()
        bump = trapezoid_bump(np.zeros(1), 0.0, 0.15)  # a hat: no flat part
        vals = []
        for r in (0.8, 0.9, 0.95):
            p, _ = minimize_band(h, S, pair, r, quad)
            vals.append(concentration_integral(h, S, pair, r, p, bump, quad))
        assert vals[0] > 0.0
        assert vals[0] >= vals[1] >= vals[2]
        assert vals[2] <= 1e-12

    @pytest.mark.parametrize("n, nodes, schedule, tol", [
        (1, 960, (0.8, 0.9, 0.95, 0.99), 1e-9),
        (2, 240, (0.8, 0.9), 1e-3),
    ], ids=["n1", "n2"])
    def test_shifted_sums_match_unshifted_walk(self, fixture, n, nodes, schedule, tol):
        # lambda_r and every default bump's integral from `_band_sums` (shifted route, through
        # `_band_measure`'s closed forms) against the unshifted density walk of
        # `oracles.density_sums`, at `_minimize_band`'s minimizers and, for the Jacobian
        # alpha^s det A, at a position off their unit-weighted-determinant manifold.  The two
        # routes differ by the quadrature of their grids.  The bounds come from measured moves
        # at these points: at n = 1, on the two-level cross at 960 nodes, <= 1.2e-11 (lambda_r)
        # and 5.8e-11 (integrals); at n = 2, on the triangle plus square at 240 nodes, which is
        # not node-converged, <= 1.2e-4 and 3.4e-4 (r = 0.8, at the minimizer)
        h = fixture[0] if n == 1 else _triangle_square_n2()
        bumps = default_bumps(counting_measure(detect_contacts(h, S).points))
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=nodes))
        for r in schedule:
            p = rfamily._minimize_band(band, r, None)[0].point
            off = EPoint(BlockMat(1.05 * p.mat.diag, 0.95 * p.mat.corner), p.shift)
            for q in (p, off):
                (mu, lam), (want_mu, want_lam) = (rfamily._band_measure(band, r, q, bumps),
                                                  density_sums(band, r, q, bumps))
                assert abs(lam - want_lam) <= tol * abs(want_lam)
                assert np.all(np.abs(mu - want_mu) <= tol * np.abs(want_mu))
                assert np.all(mu != 0.0)
            # the term a_sum . v needs a shift, which the minimizers lack (|v| <= 3.2e-3).  With
            # 0.02 added the bump integrals move by up to 1.4e-4 between the routes at n = 1, so
            # lambda_r alone is compared, within 1e-3: it moved by <= 6.4e-6 at n = 1 and 2.6e-4
            # at n = 2, and dropping the term moves it by 4e-3 to 1.3e-2
            moved = EPoint(off.mat, p.shift + 0.02)
            lam, want_lam = (rfamily._band_measure(band, r, moved, ())[1],
                             density_sums(band, r, moved, ())[1])
            assert abs(lam - want_lam) <= 1e-3 * abs(want_lam)

    def test_sweep_diagnostics(self, fixture, quad):
        h, cs, w = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        sweep = r_sweep(h, S, pair, [0.8, 0.9], quad, ref, mu0)
        dr = sweep.series("dist_to_identity")
        assert np.all(np.isfinite(dr)) and dr[1] < dr[0]
        errs = [np.max(np.abs(e.mu_integrals - e.mu_reference)
                       / np.abs(e.mu_reference)) for e in sweep.entries]
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_diagnostics_are_flat_form_norms(self, n):
        # n = 1 is the acceptance sweep; n = 2 two r on a 240-node grid (two band blocks)
        if n == 1:
            h, cs, _ = two_level_cross_fixture(1, S, 0.4, 0.8)
            points, quad, schedule = cs.points, QuadratureSpec(), [0.8, 0.9, 0.95, 0.99]
        else:
            h = _triangle_square_n2()
            points = detect_contacts(h, S).points
            quad, schedule = QuadratureSpec(x_nodes_per_axis=240), [0.8, 0.9]
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(points)
        ref = minimize_functional(h, S, nu, F)
        sweep = r_sweep(h, S, pair, schedule, quad, ref, extract_measure(ref, h, S, nu, F))
        for e in sweep.entries:
            assert e.error is None
            diff = e.point.vec - identity_point(n).vec
            assert np.array_equal(e.rescaled.vec, diff * (1.0 / (1.0 - e.r)))
            assert e.dist_to_identity == np.linalg.norm(diff)
            assert e.secant_to_reference == np.linalg.norm(e.rescaled.vec - ref.point.vec)
            assert e.normalized_s_trace == (abs(s_trace(e.rescaled.mat, S))
                                            / np.linalg.norm(e.rescaled.vec[:n * n + 1]))

    def test_trapezoid_bump_shape(self):
        b = trapezoid_bump(np.array([0.5]), 0.1, 0.1)
        assert b(np.array([[0.5]]))[0] == 1.0
        assert b(np.array([[0.55]]))[0] == 1.0
        assert b(np.array([[0.75]]))[0] == 0.0


def _loop_x_grid(n, radius, nodes_per_axis, kinks=None):
    """The per-panel loop that `x_grid` replaces, kept as its bit-for-bit reference."""
    per_panel = 8
    panels = max(4, int(np.ceil(nodes_per_axis / per_panel)))
    xi, wi = np.polynomial.legendre.leggauss(per_panel)
    if n == 1 and kinks is not None and len(kinks):
        inner = np.asarray(kinks, dtype=float)
        inner = inner[(inner > -radius + 1e-12) & (inner < radius - 1e-12)]
        base = np.unique(np.concatenate([[-radius, radius], inner]))
        target = 2.0 * radius / panels
        edges = [base[0]]
        for a, b in zip(base[:-1], base[1:]):
            m = max(1, int(np.ceil((b - a) / target)))
            edges.extend(np.linspace(a, b, m + 1)[1:])
        edges = np.array(edges)
    else:
        edges = np.linspace(-radius, radius, panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        xs.append(mid + half * xi)
        ws.append(half * wi)
    x1, w1 = np.concatenate(xs), np.concatenate(ws)
    if n == 1:
        return x1[:, None], w1
    pts = np.stack([m.ravel() for m in np.meshgrid(*([x1] * n), indexing="ij")], axis=1)
    wts = np.prod(np.stack(np.meshgrid(*([w1] * n), indexing="ij"), axis=0), axis=0).ravel()
    return pts, wts


class TestBandGeometry:
    @pytest.mark.parametrize("n, radius, nodes, kinks", [
        (1, 1.37, 960, None),
        (1, 1.37, 960, np.array([-0.61, -0.2, 0.0, 0.2, 0.61, 1.2, 3.0])),
        (1, 2.05, 100, np.array([-1.9999, 0.3333])),
        (2, 1.21, 96, None),
        (3, 0.93, 40, None),
    ])
    def test_x_grid_matches_panel_loop(self, n, radius, nodes, kinks):
        X, W = x_grid(n, radius, nodes, kinks)
        X0, W0 = _loop_x_grid(n, radius, nodes, kinks)
        assert X.shape == X0.shape and W.shape == W0.shape
        assert np.array_equal(X, X0) and np.array_equal(W, W0)

    def test_interleaved_calls_match_calls_alone(self, fixture):
        # no geometry outlives its call: mixing instances, radii and specs
        # must not change a single bit
        pair = canonical_pair()
        other = two_level_cross_fixture(1, S, 0.3, 0.7)[0]
        specs = (QuadratureSpec(), QuadratureSpec(x_nodes_per_axis=480))
        p = random_unit_sdet_members(1, S, 1, seed=43)[0]
        calls = [(h, r, q) for h in (fixture[0], other) for r in (0.8, 0.9) for q in specs]
        alone = [band_functional(h, S, pair, r, p, q) for h, r, q in calls]
        order = np.random.default_rng(47).permutation(len(calls))
        mixed = {}
        for i in order:
            h, r, q = calls[i]
            mixed[i] = band_functional(h, S, pair, r, p, q)
        assert all(mixed[i] == alone[i] for i in range(len(calls)))
        assert len(set(alone)) == len(alone)

    def test_minimize_band_never_revisits(self, fixture, quad, monkeypatch):
        # every value-gradient-Hessian call counts once; none repeats a position, and
        # the acceptance sweep stays within the Newton budget (it takes 4, 4, 3 and 3)
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        seen = {}
        original = rfamily._band_value_grads

        def recording(band, evals):  # a round's (r, theta) pairs
            for r, theta in evals:
                p = theta_point(theta, band.h.n, S)
                seen.setdefault(r, []).append(
                    (p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes()))
            return original(band, evals)

        monkeypatch.setattr(rfamily, "_band_value_grads", recording)
        schedule = [0.8, 0.9, 0.95, 0.99]
        sweep = r_sweep(h, S, pair, schedule, quad, ref, mu0)
        counts = [len(seen[r]) for r in schedule]
        assert counts == [e.solver.evaluations for e in sweep.entries]
        assert all(len(set(calls)) == len(calls) for calls in seen.values())
        assert max(counts) <= 5 and sum(counts) <= 16
        assert all(e.solver.stop_reason in CONVERGED_STOPS for e in sweep.entries)

    def test_sweep_integrals_match_public_calls(self, fixture, quad):
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        bumps = default_bumps(mu0)
        sweep = r_sweep(h, S, pair, [0.8, 0.9], quad, ref, mu0)
        for e in sweep.entries:
            raw = np.array([concentration_integral(h, S, pair, e.r, e.point, b, quad)
                            for b in bumps])
            lam_r = stationarity_multiplier(h, S, pair, e.r, e.point, quad)
            assert e.lambda_r == lam_r
            assert e.value == band_functional(h, S, pair, e.r, e.point, quad)
            assert np.array_equal(e.mu_integrals, ref.lam * raw / ((1.0 - e.r) * lam_r))
            assert e.error is None


def _unblocked_terms(band, r, A, alpha, v, shifted):
    """The whole-grid, row-major band terms that the block walk replaces, kept as its
    bit-for-bit reference: (X, Y, W, h_y, I, I', I'') on the open nodes, I'' from
    `oracles.inner_curvature`, or None.  Also returns the near nodes' kernel inputs
    (c2, den, r2m1) and which of them are open."""
    radius = band.radii(r)[0]
    radius = (radius if shifted else
              float(np.linalg.norm(A, 2) * radius + np.linalg.norm(v)) + 1e-9)
    kinks = None
    if band.breaks is not None:
        a, c = float(A[0, 0]), float(v[0])
        u, c = (a, c) if shifted else (1.0 / a, -c / a)
        kinks = np.concatenate([band.breaks, (band.breaks - c) / u])
    X, W = x_grid(band.h.n, radius, band.quad.x_nodes_per_axis, kinks)
    Z, Y = (X, X @ A.T + v) if shifted else (np.linalg.solve(A, (X - v).T).T, X)
    den = 2.0 * eval_h_many(band.h, Z) ** (2.0 / band.s) * (1.0 - r)
    r2m1 = np.sum(Z * Z, axis=1) - 1.0
    near = np.flatnonzero(r2m1 < den * band.g.breaks[-1])
    h_y = eval_h_many(band.h, Y[near]) ** (1.0 / band.s)
    c2 = (h_y / alpha) ** 2
    if not np.all(c2 > 0.0):
        return None, None
    opened, inner, d_inner, _ = inner_band_alone(band.f, band.g, r, c2, den[near],
                                                 r2m1[near], derivs=True)
    at = near[opened]
    d2_inner = inner_curvature(band.f, band.g, r, c2[opened], den[at], r2m1[at])
    terms = X[at], Y[at], W[at], h_y[opened], inner, d_inner, d2_inner
    return terms, (c2, den[near], r2m1[near], opened)


def _copied(block):
    """A block of the band walk with every grid array copied out of the walk's workspace
    (the n = 1 walk's kink terms left out)."""
    return None if block is None else tuple(np.copy(x) for x in block[:8])


def _walked_terms(band, r, A, alpha, v, shifted, derivs=True):
    """The band walk's open nodes concatenated in walk order, or None when the walk stops
    at the coercive barrier: (X, Y, W, h_y, I, I', I'') from the derivative walk, and
    (W, h_y, I) from the value walk."""
    blocks = [_copied(block) for block in band_walk(band, (r, A, alpha, v), shifted, derivs)]
    if None in blocks:
        assert blocks[-1] is None  # the walk stops at the barrier
        return None
    n = band.h.n
    if not derivs:
        return tuple(np.concatenate(col) for col in zip((np.empty(0),) * 3, *blocks))
    terms = [(np.empty((0, n)),) * 2 + (np.empty(0),) * 5]
    for W, h_y, inner, d_inner, d2_inner, X, Y, _ in blocks:
        terms.append((X, Y, W, h_y, inner, d_inner, d2_inner))
    return tuple(np.concatenate(col) for col in zip(*terms))


def _same_terms(got, ref):
    """Walked and whole-grid terms (`_walked_terms`, `_unblocked_terms`) bit for bit."""
    return all(np.array_equal(a, b) for a, b in zip(got, ref, strict=True))


def _one_block(terms, derivs, form):
    """The whole grid's open-node terms (X, Y, W, h_y, I, I', I'') as one block of the
    band walk, with psi's active piece at Y as `psi_gradient` takes it."""
    if terms is None:
        return None
    X, Y, W, h_y, inner, d_inner, d2_inner = terms
    piece = np.argmax(Y @ form.a.T + form.b, axis=1)
    return (W, h_y, inner, d_inner, d2_inner, X, Y, piece) if derivs else (W, h_y, inner)


class TestBlockedTerms:
    # (x_nodes_per_axis, block constant): 300 nodes are 7 grid rows of 40 at n = 2
    # and 9 rows of 32 at n = 3; n = 1 is always one block
    GRIDS = {1: (200, 300), 2: (40, 300), 3: (32, 300)}

    @staticmethod
    def _positions(n):
        """Two positions inside the domain of h and one that pushes the band out of it."""
        rng = np.random.default_rng(89 + n)
        out = []
        for _ in range(2):
            Sm = rng.normal(scale=0.1, size=(n, n))
            A, alpha = sdet1_param(0.5 * (Sm + Sm.T), S)
            out.append((A, alpha, rng.normal(scale=0.1, size=n)))
        out.append((np.eye(n), 1.0, np.eye(n)[0] * 0.5))
        return out

    @pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
    @pytest.mark.parametrize("mode", ["value", "grad", "density"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_unblocked_terms(self, n, mode, shifted, monkeypatch):
        # mode names what the caller reads: 'value' the open nodes' W, h and I; 'grad'
        # also their coordinates and band-factor arguments; 'density' the by-parts density
        # on them (`_band_sums`'s bump sums in the shifted route), which must carry all of
        # the grid's density: the direct integrand is 0 on every near node that is not open
        nodes, block = self.GRIDS[n]
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", block)
        # on the axis cross every product a . x is exact, so no BLAS kernel's order of
        # summation can move a bit: what is compared is the walk over the blocks
        form = two_level_cross_fixture(n, S, 0.4, 0.8)[0].form
        h = make_log_concave(form.a, form.b, S, domain_radius=1.4)  # h = 0 beyond 1.4
        r = 0.8
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=nodes))
        per_row = len(x_grid(1, 1.0, nodes)[0])
        rows, per_block = per_row ** (n - 1), max(1, block // per_row)
        if n > 1:  # at least three blocks, the last one partial
            assert rows >= 2 * per_block and rows % per_block
        refused = 0
        for A, alpha, v in self._positions(n):
            got = _walked_terms(band, r, A, alpha, v, shifted)
            ref, inputs = _unblocked_terms(band, r, A, alpha, v, shifted)
            assert (got is None) == (ref is None)
            if ref is None:
                refused += 1
                if mode == "density" and shifted:
                    assert rfamily._band_sums(band, [(r, A, alpha, v)]) == [None]
                    with pytest.raises(NotInBr):
                        rfamily._band_measure(band, r, EPoint(BlockMat(A, alpha), v), [])
                continue
            assert _same_terms(got, ref)
            assert len(got[2]) and np.all(got[4] > 0.0)
            if mode == "value":  # the value walk yields the same W, h_y and I
                values = _walked_terms(band, r, A, alpha, v, shifted, derivs=False)
                assert all(np.array_equal(a, b) for a, b in zip(values, ref[2:5], strict=True))
            else:
                assert all(a.shape == (len(got[2]), n) for a in got[:2])
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            if mode == "density":
                c2, den, r2m1, opened = inputs
                direct = _full_inner_band(band.f, band.g, r, c2, den, r2m1, "density", 2)
                shut = np.ones(len(c2), dtype=bool)
                shut[opened] = False
                assert np.any(shut) and not np.any(direct[shut])
                _, Y, W, h_y, inner, d_inner, _ = got
                by_parts = _by_parts(r, c2[opened], inner, d_inner)
                assert np.max(np.abs(by_parts - direct[opened])) <= 1e-13 * np.max(direct)
                if shifted:  # the measure's bump sums: omega/h_y^2 = W by_parts/(-(1-r) alpha h_y)
                    per_h2 = W * by_parts / (-(1.0 - r) * alpha * h_y)
                    kept = rfamily._band_sums(band, [(r, A, alpha, v)])[0][3]
                    for delta in (lambda x: np.ones(len(x)), lambda x: x[:, 0] > 0.0):
                        got_mu = sum(float(np.sum(w * delta(y))) for y, w in kept)
                        want = float(np.sum(per_h2 * delta(Y)))
                        assert abs(got_mu - want) <= 1e-13 * abs(want)
        # the last position lies partly where h = 0: refused
        assert refused == 1

    @pytest.mark.parametrize("shifted", [True, False], ids=["shifted", "unshifted"])
    @pytest.mark.parametrize("case", ["domain-below-band-radius", "multi-kink-pair"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_disk_clipped_blocks(self, n, case, shifted, monkeypatch):
        # blocks that lose the columns no row has inside the grid's disk: the walk must
        # visit fewer nodes than the grid holds, hand `_inner_band` exactly the reference's
        # near nodes in grid order (so it skipped none of them), and match it bit for bit
        nodes, block = self.GRIDS[n]
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", block)
        form = two_level_cross_fixture(n, S, 0.4, 0.8)[0].form
        if case == "domain-below-band-radius":
            # the grid spans the domain radius 1.05, and near nodes lie within 0.5% of it
            # (1.046 at n = 2 and 1.048 at n = 3); near-identity positions keep the band
            # inside the domain
            h, pair = make_log_concave(form.a, form.b, S, domain_radius=1.05), canonical_pair()
            positions = [(np.eye(n), 1.0, np.zeros(n)),
                         (0.99 * np.eye(n), 1.1, 0.005 * np.eye(n)[0])]
        else:
            h, pair = make_log_concave(form.a, form.b, S, domain_radius=1.4), _two_kink_pair()
            positions = self._positions(n)  # the last one is refused
        band = rfamily._Band(h, S, pair, QuadratureSpec(x_nodes_per_axis=nodes))
        if case == "domain-below-band-radius":
            unbounded = make_log_concave(form.a, form.b, S)
            assert (band.radii(0.8)[0] == 1.05
                    < rfamily._Band(unbounded, S, pair, band.quad).radii(0.8)[0])
        visited, kernel_inputs = [], []
        sq_norms, inner_band = rfamily._sq_norms, rfamily._inner_band

        def spy_sq_norms(Z, *scratch):
            visited.append(len(Z))
            return sq_norms(Z, *scratch)

        def spy_inner_band(f, g, r, c2, den, r2m1, derivs, scratch):
            kernel_inputs.append((c2.copy(), den.copy(), r2m1.copy()))  # workspace rows
            return inner_band(f, g, r, c2, den, r2m1, derivs, scratch)

        compared = 0
        for A, alpha, v in positions:
            visited.clear()
            kernel_inputs.clear()
            monkeypatch.setattr(rfamily, "_sq_norms", spy_sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
            got = _walked_terms(band, 0.8, A, alpha, v, shifted)
            monkeypatch.setattr(rfamily, "_sq_norms", sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", inner_band)
            ref, inputs = _unblocked_terms(band, 0.8, A, alpha, v, shifted)
            assert (got is None) == (ref is None)
            if ref is None:
                continue
            compared += 1
            assert sum(visited) < len(x_grid(1, 1.0, nodes)[0]) ** n
            walked = [np.concatenate(col) for col in zip(*kernel_inputs)]
            assert all(np.array_equal(a, b) for a, b in zip(walked, inputs[:3]))
            assert _same_terms(got, ref)
            assert len(got[2]) and np.all(got[4] > 0.0)
        assert compared == 2

    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_shifted_walk_skips_the_far_annulus(self, r, monkeypatch):
        # the shifted n = 2 walk drops the columns where a lower bound on psi over the
        # block's rows keeps every node's band closed: it visits barely more nodes than are
        # near (1.81x at r = 0.8 and 1.42x at 0.9 by the reach clip alone), skipping none
        # that is, bit for bit
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", 300)  # blocks of 2 rows of 120
        form = two_level_cross_fixture(2, S, 0.4, 0.8)[0].form
        h = make_log_concave(form.a, form.b, S, domain_radius=1.4)
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=120))
        visited, near = [], []
        sq_norms, inner_band = rfamily._sq_norms, rfamily._inner_band

        def spy_sq_norms(Z, *scratch):
            visited.append(len(Z))
            return sq_norms(Z, *scratch)

        def spy_inner_band(f, g, r, c2, den, r2m1, derivs, scratch):
            near.append(len(c2))
            return inner_band(f, g, r, c2, den, r2m1, derivs, scratch)

        for A, alpha, v in self._positions(2)[:2]:  # the last one is refused
            visited.clear()
            near.clear()
            monkeypatch.setattr(rfamily, "_sq_norms", spy_sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
            got = _walked_terms(band, r, A, alpha, v, True)
            monkeypatch.setattr(rfamily, "_sq_norms", sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", inner_band)
            ref, inputs = _unblocked_terms(band, r, A, alpha, v, True)
            assert sum(visited) < 1.1 * sum(near) and sum(near) == len(inputs[0])
            assert _same_terms(got, ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_sums_match_whole_grid(self, n, monkeypatch):
        # every consumer reduces each block as it is walked; the reference runs the same
        # consumer on `_unblocked_terms` handed over as one block, i.e. one sum over the
        # whole grid's open nodes.  n = 1 is one block, so the sums are equal; at n >= 2
        # only the order of summation across the blocks differs
        nodes, block = self.GRIDS[n]
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", block)
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis=nodes)
        band = rfamily._Band(h, S, canonical_pair(), quad)
        whole = rfamily._Band(h, S, canonical_pair(), quad)

        def whole_blocks(position, shifted, derivs):
            block = _one_block(_unblocked_terms(band, *position, shifted)[0], derivs, h.form)
            if block is not None and derivs and n == 1:  # psi's kinks in a call of their own
                block += (_kink_terms(band, *position),)
            return iter([block])

        whole.blocks = whole_blocks
        whole.line = lambda positions, shifted, derivs: whole_blocks(*positions, shifted, derivs)
        if n > 1:  # at least three blocks
            per_row = len(x_grid(1, 1.0, nodes)[0])
            assert per_row ** (n - 1) >= 2 * max(1, block // per_row) + 1
        tol = 0.0 if n == 1 else 1e-13
        bumps = [trapezoid_bump(np.full(n, 0.3), 0.2, 0.2), trapezoid_bump(np.zeros(n), 1.0, 0.2)]
        rng = np.random.default_rng(97 + n)
        for _ in range(2):
            theta = rng.normal(scale=0.05, size=n * (n + 1) // 2 + n)
            p = theta_point(theta, n, S)
            got = rfamily._band_value(band, 0.8, p)
            assert abs(got - rfamily._band_value(whole, 0.8, p)) <= tol * got
            (got, grad, hess, _), (want, want_grad, want_hess, _) = (
                rfamily._band_value_grad(b, 0.8, theta) for b in (band, whole))
            assert abs(got - want) <= tol * want
            assert np.linalg.norm(grad - want_grad) <= tol * np.linalg.norm(want_grad)
            assert np.linalg.norm(hess - want_hess) <= tol * np.linalg.norm(want_hess)
            (mu, lam), (want_mu, want_lam) = (rfamily._band_measure(b, 0.8, p, bumps)
                                              for b in (band, whole))
            assert np.all(np.abs(mu - want_mu) <= tol * np.abs(want_mu)) and np.all(mu != 0.0)
            assert abs(lam - want_lam) <= tol * abs(want_lam)


def _kink_terms(band, r, A, alpha, v):
    """psi's open kinks' (x_k, c^2, D_k, I, I') that end an item of the n = 1 walk, from a
    kernel call of their own on the kinks with c^2 > 0."""
    x = (band.breaks - v[0]) / float(A[0, 0])
    den = 2.0 * (1.0 - r) * eval_h_many(band.h, x[:, None]) ** (2.0 / band.s)
    c2 = (band.h_breaks / alpha) ** 2
    k = np.flatnonzero(c2 > 0.0)
    opened, inner, d_inner, _ = inner_band_alone(band.f, band.g, r, c2[k], den[k],
                                                 x[k] * x[k] - 1.0, derivs=True)
    k = k[opened]
    return x[k], c2[k], band.jumps[k], inner, d_inner


def _same_blocks(got, want):
    """Two walks' copied blocks (`_copied`) equal bit for bit, a barrier's None included."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if (a is None) != (b is None):
            return False
        if a is not None and not all(np.array_equal(x, y) for x, y in zip(a, b, strict=True)):
            return False
    return True


class TestWorkspace:
    """Both band walks and their kernel take every array from one `_Scratch`, whose buffer the
    free list keeps."""

    @staticmethod
    def _band(monkeypatch, domain_radius=None, n=2):
        # 40 nodes per axis in blocks of 7 rows: six blocks at n = 2, the last one partial
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", 300)
        form = two_level_cross_fixture(n, S, 0.4, 0.8)[0].form
        h = make_log_concave(form.a, form.b, S, domain_radius=domain_radius)
        return rfamily._Band(h, S, canonical_pair(), QuadratureSpec(x_nodes_per_axis=40))

    @staticmethod
    def _scratch(width, rows):
        """A scratch of rows of `width` on a buffer of `rows` rows, apart from the free list."""
        scratch = rfamily._Scratch.__new__(rfamily._Scratch)
        scratch.width, scratch.top, scratch.buf = width, 0, np.empty(rows * width)
        return scratch

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_live_rows_never_overlap(self, seed):
        # a seeded run of takes, marks and releases on a buffer of 6 rows of 5, against a
        # stack of the live takes: every take is whole rows that share no entry with a live
        # one (past the buffer's end they are fresh arrays), and a release hands back
        # exactly the takes after its mark
        rng = np.random.default_rng(seed)
        scratch = self._scratch(5, 6)
        live, marks = [], []  # (rows, the value written into them); (mark, live takes there)
        high = 0
        for step in range(400):
            move = rng.integers(3)
            if move == 0:
                k = int(rng.integers(4))
                rows = scratch.take(k)
                assert rows.shape == (5 * k,)
                assert not any(np.shares_memory(rows, held) for held, _ in live)
                rows.fill(step)
                live.append((rows, step))
            elif move == 1:
                marks.append((scratch.mark(), len(live)))
            elif marks:
                mark, count = marks[int(rng.integers(len(marks)))]
                marks = [m for m in marks if m[1] <= count and m[0] <= mark]
                scratch.release(mark)
                del live[count:]
            assert all(np.all(held == value) for held, value in live)
            assert scratch.top == sum(len(held) for held, _ in live)
            high = max(high, scratch.top)
        assert high > 30  # some takes went past the buffer's end

    def test_release_frees_only_the_rows_after_its_mark(self):
        scratch = self._scratch(4, 10)
        first = scratch.take(2)
        first.fill(1.0)
        mark = scratch.mark()
        second = scratch.take(3)
        scratch.release(mark)
        third = scratch.take(1)
        assert np.shares_memory(third, second) and not np.shares_memory(third, first)
        third.fill(2.0)
        assert np.all(first == 1.0) and scratch.mark() == mark + 4

    def test_walk_builds_its_buffer_once(self, monkeypatch):
        # a walk that finds the kept buffer too small for its rows (3 of them, of 7 grid rows
        # of 40 nodes) builds one of its high-water up front, its one allocation, and the next
        # walk of that size allocates nothing (np.empty, which the scratch allocates with, is
        # counted).  A walk whose stated rows fall short (the kernel's left out) takes the
        # rest fresh and yields the same blocks
        band = self._band(monkeypatch)
        A, alpha = sdet1_param(np.array([[0.05, 0.02], [0.02, -0.03]]), S)
        args = ((0.8, A, alpha, np.array([0.03, -0.02])), True, True)
        small = np.empty(3 * 280)
        monkeypatch.setattr(rfamily, "_FREE", [small])
        allocations, empty = [], np.empty

        def counting_empty(*shape, **kwargs):
            allocations.append(shape)
            return empty(*shape, **kwargs)

        monkeypatch.setattr(np, "empty", counting_empty)
        built = [_copied(b) for b in band.blocks(*args)]
        kept, = rfamily._FREE
        assert allocations == [(len(kept),)] and len(kept) > len(small)
        again = [_copied(b) for b in band.blocks(*args)]
        monkeypatch.setattr(np, "empty", empty)
        assert allocations == [(len(kept),)] and rfamily._FREE == [kept]
        monkeypatch.setattr(rfamily, "_kernel_rows", lambda kinks, derivs: 0)
        monkeypatch.setattr(rfamily, "_FREE", [])
        short = [_copied(b) for b in band.blocks(*args)]
        assert len(rfamily._FREE[0]) < len(kept)
        assert len(built) >= 3 and _same_blocks(built, again) and _same_blocks(built, short)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("derivs", [False, True])
    @pytest.mark.parametrize("kinks", [2, 9])
    def test_walks_hold_the_rows_they_state(self, n, derivs, kinks, monkeypatch):
        # every scratch of a walk is built for the rows it states, and its takes reach them
        # and stay within them: at n = 1 each kernel call's, on a g with few kinks and with
        # more than the kernel's work arrays
        knots = np.linspace(-1.0, 1.0, kinks)
        pair = ProfilePair(f=canonical_pair().f,
                           g=PiecewiseLinear.from_knots(knots, ((1.0 - knots) / 2.0) ** 2))
        band = self._band(monkeypatch, n=n)
        band = rfamily._Band(band.h, S, pair, band.quad)
        A, alpha = sdet1_param(np.diag(np.linspace(0.05, -0.03, n)), S)
        position = (0.8, A, alpha, np.linspace(0.03, -0.02, n))
        init, take, stated = rfamily._Scratch.__init__, rfamily._Scratch.take, {}

        def spy_init(scratch, width, rows):
            init(scratch, width, rows)
            stated[scratch] = [rows * width, 0]

        def spy_take(scratch, k):
            rows = take(scratch, k)
            stated[scratch][1] = max(stated[scratch][1], scratch.top)
            return rows

        monkeypatch.setattr(rfamily._Scratch, "__init__", spy_init)
        monkeypatch.setattr(rfamily._Scratch, "take", spy_take)
        walk = band.line([position], True, derivs) if n == 1 else band.blocks(position, True,
                                                                               derivs)
        assert None not in list(walk)
        assert stated and all(held == rows for rows, held in stated.values())

    def test_interleaved_walks_match_walks_alone(self, monkeypatch):
        # two walks stepped alternately, one block apart, one shifted and one unshifted at
        # another position, each block copied only once the other walk has stepped too: the
        # second walk finds the free list empty and builds its own workspace, so every
        # array either yields is the one a fresh walk alone yields
        band = self._band(monkeypatch)
        monkeypatch.setattr(rfamily, "_FREE", [])  # the walks alone leave theirs on it
        A1, alpha1 = sdet1_param(np.array([[0.05, 0.02], [0.02, -0.03]]), S)
        A2, alpha2 = sdet1_param(np.array([[-0.04, 0.01], [0.01, 0.06]]), S)
        args = [((0.8, A1, alpha1, np.array([0.03, -0.02])), True, True),
                ((0.9, A2, alpha2, np.array([-0.01, 0.04])), False, True)]
        alone = [[_copied(b) for b in band.blocks(*a)] for a in args]
        assert all(len(blocks) >= 3 and None not in blocks for blocks in alone)
        walks = [band.blocks(*a) for a in args]
        got = [[_copied(next(walks[0]))], []]
        while True:
            blocks = [next(walk, StopIteration) for walk in walks]
            if all(block is StopIteration for block in blocks):
                break
            for held, block in zip(got, blocks):
                if block is not StopIteration:
                    held.append(_copied(block))
        assert all(_same_blocks(g, a) for g, a in zip(got, alone))
        assert len(rfamily._FREE) == 1  # it keeps one of the two workspaces

    @pytest.mark.parametrize("n", [2, 1])
    def test_closed_and_barrier_walks_return_their_workspace(self, n, monkeypatch):
        # a walk closed after its first item, and one that meets the barrier (part of the
        # band where h = 0), give their buffer back to the free list.  At n = 1 both walk a
        # round of two positions, the second one at its barrier
        band = self._band(monkeypatch, domain_radius=1.4, n=n)
        shift = np.eye(n)[0] * 0.5
        ident, shut = (0.8, np.eye(n), 1.0, np.zeros(n)), (0.8, np.eye(n), 1.0, shift)

        def walk(position):
            return (band.blocks(position, True, False) if n == 2 else
                    band.line([ident, shut], True, False))

        monkeypatch.setattr(rfamily, "_FREE", [])
        walking = walk(ident)
        assert next(walking) is not None and rfamily._FREE == []  # the walk holds it
        walking.close()
        assert len(rfamily._FREE) == 1
        workspace = rfamily._FREE[0]
        items = list(walk(shut))
        assert items[-1] is None and rfamily._FREE == [workspace]
        assert n == 2 or items[0] is not None
        p = EPoint(BlockMat(np.eye(n), 1.0), shift)
        assert rfamily._band_value(band, 0.8, p) == np.inf  # stops at the barrier's block
        assert rfamily._FREE == [workspace]

    def test_kept_arrays_outlive_their_block(self, monkeypatch):
        # `_band_sums` keeps copies of each block's Y, which the next block's arrays do not
        # overwrite, and `_measure` sums the bumps over them as over copies of the blocks
        band = self._band(monkeypatch)
        r, (A, alpha) = 0.8, sdet1_param(np.array([[0.05, 0.02], [0.02, -0.03]]), S)
        v = np.array([0.03, -0.02])
        _, grad, _, kept = rfamily._band_sums(band, [(r, A, alpha, v)])[0]
        blocks = [_copied(b) for b in band.blocks((r, A, alpha, v), True, True)]
        assert len(kept) == len(blocks) >= 3
        bumps = [trapezoid_bump(np.array([0.3, 0.3]), 0.2, 0.2),
                 trapezoid_bump(np.zeros(2), 1.0, 0.2)]
        want = np.zeros(len(bumps))
        for (Y, per_h2), (W, h_y, inner, d_inner, _, _, Y_walk, _) in zip(kept, blocks):
            c = h_y / alpha
            wc, c2 = W * c, c * c
            per_h2_walk = wc * (inner + 2.0 * c2 * d_inner) / (h_y * h_y)
            assert np.array_equal(Y, Y_walk) and np.array_equal(per_h2, per_h2_walk)
            for k, delta in enumerate(bumps):
                want[k] += float(np.sum(per_h2_walk * delta(Y_walk)))
        assert not any(np.shares_memory(a[0], b[0]) for a, b in itertools.combinations(kept, 2))
        mu = rfamily._measure(band, r, (A, alpha, v, grad, kept), bumps)[0]
        assert np.array_equal(mu, (-(1.0 - r) * alpha ** S * np.linalg.det(A)) * want)

    def test_free_list_keeps_one_block_at_most(self, monkeypatch):
        # below the 40 nodes per axis a block is one row of 40 nodes, wider than
        # _BLOCK_NODES: that workspace is freed when the walk ends, and the free list keeps
        # no workspace whose rows hold more than one block of _BLOCK_NODES nodes
        band = self._band(monkeypatch)
        p = EPoint(BlockMat(np.eye(2), 1.0), np.zeros(2))
        monkeypatch.setattr(rfamily, "_FREE", [])
        assert 0.0 < rfamily._band_value(band, 0.8, p) < np.inf
        assert len(rfamily._FREE) == 1 and len(rfamily._FREE[0]) % 280 == 0
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", 30)
        monkeypatch.setattr(rfamily, "_FREE", [])
        assert 0.0 < rfamily._band_value(band, 0.8, p) < np.inf
        assert rfamily._FREE == []

    @pytest.mark.parametrize("n", [2, 1])
    def test_wide_walk_leaves_the_kept_buffer(self, n, monkeypatch):
        # a walk whose rows are wider than _BLOCK_NODES (at n = 1 a position of more grid
        # nodes goes to the kernel alone) builds its own buffer and leaves the kept one on the
        # list for the next walk
        band = self._band(monkeypatch, n=n)
        p = EPoint(BlockMat(np.eye(n), 1.0), np.zeros(n))
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", 30)
        kept = np.empty(10)
        monkeypatch.setattr(rfamily, "_FREE", [kept])
        assert 0.0 < rfamily._band_value(band, 0.8, p) < np.inf
        assert len(rfamily._FREE) == 1 and rfamily._FREE[0] is kept

    def test_n1_walks_reuse_the_kept_buffer(self, monkeypatch, fixture, quad):
        # the n = 1 walk takes its kernel's rows from the free list's buffer: a value on either
        # route, a Newton evaluation and a sweep each give it back, and a second call of the
        # same size takes that same buffer in every kernel call and leaves it on the list
        h, cs, _ = fixture
        pair = canonical_pair()
        band = rfamily._Band(h, S, pair, quad)
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        calls = [lambda: band_functional(h, S, pair, 0.8, identity_point(), quad),
                 lambda: rescaled_band_functional(h, S, pair, 0.8, identity_point(), quad),
                 lambda: rfamily._band_value_grad(band, 0.8, np.zeros(len(band.basis)))[0],
                 lambda: r_sweep(h, S, pair, [0.8, 0.9], quad, ref, mu0).entries[-1].value]
        init, buffers = rfamily._Scratch.__init__, []

        def spy_init(scratch, width, rows):
            init(scratch, width, rows)
            buffers.append(scratch.buf)

        for call in calls:
            monkeypatch.setattr(rfamily, "_FREE", [])
            first = call()
            assert len(rfamily._FREE) == 1
            kept = rfamily._FREE[0]
            buffers.clear()
            monkeypatch.setattr(rfamily._Scratch, "__init__", spy_init)
            assert call() == first and 0.0 < first < np.inf
            monkeypatch.setattr(rfamily._Scratch, "__init__", init)
            assert buffers and all(b is kept for b in buffers)
            assert len(rfamily._FREE) == 1 and rfamily._FREE[0] is kept


def _full_inner_band(f_pl, g_pl, r, c2, den, r2m1, mode, gl_nodes):
    """The full-array kernel that _inner_band replaces, kept as its reference.

    Every node runs every segment on a gl_nodes-point Gauss rule, and f and g
    choose their piece at every Gauss node.  mode 'value' integrates
    f(t) g(q(t)), 'grad' f(t) g'(q(t)) (1+(1-r)t)^2/den, and 'density'
    f'(t) (1+(1-r)t) g(q(t)) directly.  c2 > 0 and den > 0.
    """
    omr = 1.0 - r
    g_breaks = g_pl.breaks
    tau2 = (den[:, None] * g_breaks[None, :] - r2m1[:, None]) / c2[:, None]
    tau = np.sqrt(np.clip(tau2, 0.0, None))
    t_roots = (tau - 1.0) / omr
    t_top = t_roots[:, -1]

    cols = [np.full(len(c2), -1.0)]
    cols.extend(np.full(len(c2), fb) for fb in f_pl.breaks if fb > -1.0)
    cols.extend(t_roots[:, k] for k in range(len(g_breaks)))
    B = np.stack(cols, axis=1)
    B = np.clip(B, -1.0, np.maximum(t_top, -1.0)[:, None])
    B.sort(axis=1)

    nodes, wts = np.polynomial.legendre.leggauss(gl_nodes)
    qlo, qhi = g_breaks[0] - 1.0, g_breaks[-1] + 1.0
    total = np.zeros(len(c2))
    for j in range(B.shape[1] - 1):
        a, b = B[:, j], B[:, j + 1]
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        seg = np.zeros(len(c2))
        for xi, wi in zip(nodes, wts):
            t = mid + half * xi
            tau_t = 1.0 + omr * t
            q = np.clip((r2m1 + c2 * tau_t**2) / den, qlo, qhi)
            if mode == "value":
                vals = f_pl(t) * g_pl(q)
            elif mode == "grad":
                vals = f_pl(t) * pl_deriv(g_pl, q) * tau_t**2 / den
            else:
                vals = pl_deriv(f_pl, t) * tau_t * g_pl(q)
            seg += wi * vals
        total += half * seg
    return total


def _custom_pair():
    """Convex f with a kink at -0.3 (> -1) and g with three kinks."""
    f = PiecewiseLinear.from_knots([-1.0, -0.3, 0.4], [0.0, 0.35, 1.1], right_slope=2.0)
    g = PiecewiseLinear.from_knots([-1.0, -0.2, 1.0], [1.0, 0.6, 0.0])
    return ProfilePair(f=f, g=g)


def _kernel_inputs(seed, count=4000):
    """Band-kernel inputs, c2 > 0 and den > 0 as `_Band` guarantees, open and closed nodes."""
    rng = np.random.default_rng(seed)
    c2 = rng.uniform(0.05, 3.0, size=count)
    den = rng.uniform(0.01, 1.2, size=count)
    r2m1 = rng.uniform(-0.9, 1.5, size=count)
    return c2, den, r2m1


def _kernel(pair, r, c2, den, r2m1):
    """`_inner_band`'s I and I' on every node, 0 where the band is closed, and the open mask."""
    opened, inner, d_inner, _ = inner_band_alone(pair.f, pair.g, r, c2, den, r2m1, derivs=True)
    out = np.zeros((2, len(c2)))
    out[0, opened], out[1, opened] = inner, d_inner
    is_open = np.zeros(len(c2), dtype=bool)
    is_open[opened] = True
    return out[0], out[1], is_open


def _by_parts(r, c2, inner, d_inner):
    """The density integral from I and I': -(1-r)(I + 2 c2 I')."""
    return -(1.0 - r) * (inner + 2.0 * c2 * d_inner)


PAIRS = pytest.mark.parametrize("pair", [canonical_pair(), _custom_pair()],
                                ids=["canonical", "custom"])


class TestInnerBandKernel:
    @PAIRS
    @pytest.mark.parametrize("mode", ["value", "density"])
    @pytest.mark.parametrize("r, gl_nodes", [(0.8, 4), (0.93, 6), (0.6, 2)])
    def test_matches_full_array_kernel(self, pair, mode, r, gl_nodes):
        # the reference on gl_nodes points per segment: I bit for bit on the same 2-point
        # rule and to rounding on more; the by-parts density against the direct integrand
        c2, den, r2m1 = _kernel_inputs(int(100 * r) + gl_nodes)
        inner, d_inner, is_open = _kernel(pair, r, c2, den, r2m1)
        ref = _full_inner_band(pair.f, pair.g, r, c2, den, r2m1, mode, gl_nodes)
        if mode == "value" and gl_nodes == 2:
            assert np.array_equal(inner, ref)
        elif mode == "value":
            assert np.max(np.abs(inner - ref)) <= 1e-14 * np.max(ref)
        else:
            got = _by_parts(r, c2, inner, d_inner)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)
        # the inputs exercise both the open and the closed path
        assert 0.1 < np.mean(is_open) < 0.9
        assert not np.any(ref[~is_open])

    @PAIRS
    @pytest.mark.parametrize("r", [0.8, 0.93])
    def test_grad_mode(self, pair, r):
        # I' is the derivative in c2 of I, the row the gradient reads
        c2, den, r2m1 = _kernel_inputs(71)
        value, d_value, is_open = _kernel(pair, r, c2, den, r2m1)
        assert np.array_equal(value, _full_inner_band(pair.f, pair.g, r, c2, den, r2m1,
                                                      "value", 2))
        assert not np.any(d_value[~is_open])
        step = 1e-6 * c2
        fd = (_kernel(pair, r, c2 + step, den, r2m1)[0]
              - _kernel(pair, r, c2 - step, den, r2m1)[0]) / (2 * step)
        assert np.allclose(d_value, fd, rtol=1e-6, atol=1e-8 * np.max(np.abs(fd)))
        assert np.mean(d_value != 0.0) > 0.1

    @PAIRS
    @pytest.mark.parametrize("r", [0.6, 0.8, 0.93])
    def test_two_nodes_match_eight(self, pair, r):
        # the integrands are cubic on every segment: 8 Gauss nodes add only rounding
        c2, den, r2m1 = _kernel_inputs(int(1000 * r))
        inner, d_inner, _ = _kernel(pair, r, c2, den, r2m1)
        for got, mode in ((inner, "value"), (d_inner, "grad")):
            ref = _full_inner_band(pair.f, pair.g, r, c2, den, r2m1, mode, 8)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @PAIRS
    @pytest.mark.parametrize("mode", ["value", "density"])
    def test_all_closed(self, pair, mode):
        c2, den, _ = _kernel_inputs(7, count=500)
        r2m1 = den * pair.g.breaks[-1] + np.linspace(0.0, 2.0, 500)  # q(-1) above g's top kink
        opened, inner, d_inner, d2_inner = inner_band_alone(pair.f, pair.g, 0.8, c2, den, r2m1,
                                                            derivs=True)
        assert opened.shape == inner.shape == d_inner.shape == d2_inner.shape == (0,)
        ref = _full_inner_band(pair.f, pair.g, 0.8, c2, den, r2m1, mode, 2)
        assert ref.shape == (500,) and not np.any(ref)

    def test_band_inputs_n2(self):
        # the inputs band_functional builds on an n = 2 grid, both pairs
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        p = random_unit_sdet_members(2, S, 1, seed=61)[0]
        A, alpha, v = p.mat.diag, p.mat.corner, p.shift
        X, _ = x_grid(2, 1.4, 120)
        Y = X @ A.T + v
        den = 2.0 * eval_h_many(h, X) ** (2.0 / S) * 0.15
        r2m1 = np.sum(X * X, axis=1) - 1.0
        c2 = (eval_h_many(h, Y) ** (1.0 / S) / alpha) ** 2
        for pair in (canonical_pair(), _custom_pair()):
            inner, d_inner, is_open = _kernel(pair, 0.85, c2, den, r2m1)
            ref = _full_inner_band(pair.f, pair.g, 0.85, c2, den, r2m1, "value", 2)
            assert np.array_equal(inner, ref)
            direct = _full_inner_band(pair.f, pair.g, 0.85, c2, den, r2m1, "density", 2)
            got = _by_parts(0.85, c2, inner, d_inner)
            assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(direct)
            assert 0.0 < np.mean(is_open) < 1.0


def _two_kink_pair():
    """Convex f with kinks at -0.5 and 0.3 (both > -1), g with a flat middle piece."""
    f = PiecewiseLinear.from_knots([-1.0, -0.5, 0.3], [0.0, 0.2, 0.8], right_slope=1.5)
    g = PiecewiseLinear.from_knots([-1.0, -0.4, 0.2, 1.0], [1.0, 0.6, 0.6, 0.0])
    return ProfilePair(f=f, g=g)


def _inputs_with_top(pair, r, tau_top, seed):
    """Kernel inputs whose top pullback is (tau_top - 1)/(1-r): open where tau_top > r."""
    c2, den, _ = _kernel_inputs(seed, count=len(tau_top))
    return c2, den, den * pair.g.breaks[-1] - c2 * tau_top ** 2


class TestPairKernel:
    """_inner_band against the sorted-merge kernel it replaces, bit for bit."""

    ALL_PAIRS = pytest.mark.parametrize("pair", [canonical_pair(), _custom_pair(),
                                                 _two_kink_pair()],
                                        ids=["canonical", "custom", "two-kink"])

    @staticmethod
    def _same(pair, r, c2, den, r2m1):
        # (open, I, I') against the sorted-merge kernel, I'' against `oracles.inner_curvature`
        # on the open nodes, and the value-only call's (open, I) against the full one's
        got = inner_band_alone(pair.f, pair.g, r, c2, den, r2m1, derivs=True)
        at = got[0]
        ref = (*sorted_inner_band(pair.f, pair.g, r, c2, den, r2m1),
               inner_curvature(pair.f, pair.g, r, c2[at], den[at], r2m1[at]))
        value = inner_band_alone(pair.f, pair.g, r, c2, den, r2m1, derivs=False)
        for a, b in zip(got, ref, strict=True):
            assert np.array_equal(a, b, equal_nan=True)
        for a, b in zip(value, got[:2], strict=True):
            assert np.array_equal(a, b, equal_nan=True)
        return got[:3]

    @ALL_PAIRS
    @pytest.mark.parametrize("r", [0.6, 0.8, 0.93])
    def test_random_inputs(self, pair, r):
        opened, inner, _ = self._same(pair, r, *_kernel_inputs(int(1000 * r) + 5))
        assert 0 < len(opened) < 4000 and np.all(inner >= 0.0)

    @ALL_PAIRS
    def test_f_kinks_above_the_top(self, pair):
        # t_top below the least kink of f above -1 on every node (the canonical f has none)
        r = 0.8
        least = min([fb for fb in pair.f.breaks if fb > -1.0], default=0.0)
        tau_top = np.random.default_rng(3).uniform(r + 0.01, 1.0 + (1.0 - r) * least, size=2000)
        c2, den, r2m1 = _inputs_with_top(pair, r, tau_top, 31)
        opened, _, _ = self._same(pair, r, c2, den, r2m1)
        t_top = (tau_top - 1.0) / (1.0 - r)
        assert len(opened) == 2000 and np.all(t_top < least)

    @ALL_PAIRS
    def test_pullbacks_clip_to_minus_one(self, pair):
        # q(-1) = (r2m1 + c2 r^2)/den between the lowest and the top kink of g: the
        # pullbacks of the kinks below it clip to -1, the top one does not
        r = 0.85
        c2, den, _ = _kernel_inputs(41, count=2000)
        lo, top = pair.g.breaks[0], pair.g.breaks[-1]
        r2m1 = den * np.random.default_rng(5).uniform(lo, top, size=2000) - c2 * r * r
        opened, _, _ = self._same(pair, r, c2, den, r2m1)
        assert len(opened) == 2000

    @ALL_PAIRS
    def test_pullback_on_an_f_kink(self, pair):
        # nodes whose pullback of a kink of g is a kink of f (-1 included) exactly, found
        # by walking r2m1 over a few ulps from the exact-arithmetic value; t = (tau - 1)/(1-r)
        # reaches a given kink only for some r, so several are tried
        kinks = [fb for fb in pair.f.breaks if fb >= -1.0]
        hit_kinks = set()
        for r in (0.57, 0.6, 0.75, 0.95):
            omr = 1.0 - r
            c2, den, _ = _kernel_inputs(43, count=300)
            rows = []
            for fk, gb in itertools.product(kinks, pair.g.breaks[:-1]):
                r2m1 = den * gb - c2 * (1.0 + omr * fk) ** 2
                for _ in range(16):
                    t = (np.sqrt(np.maximum((den * gb - r2m1) / c2, 0.0)) - 1.0) / omr
                    hit = t == fk
                    if np.any(hit):
                        hit_kinks.add(fk)
                    rows.append((c2[hit], den[hit], r2m1[hit]))
                    r2m1 = np.where(t < fk, np.nextafter(r2m1, -np.inf),
                                    np.nextafter(r2m1, np.inf))
            c2, den, r2m1 = (np.concatenate(col) for col in zip(*rows))
            opened, _, _ = self._same(pair, r, c2, den, r2m1)
            assert len(opened) == len(c2)
        assert hit_kinks == set(kinks)

    @ALL_PAIRS
    def test_nan_nodes_reach_the_result(self, pair):
        c2, den, r2m1 = _kernel_inputs(47, count=1000)
        bad = np.arange(0, 1000, 97)
        c2 = c2.copy()
        c2[bad] = np.nan
        opened, inner, d_inner = self._same(pair, 0.8, c2, den, r2m1)
        at = np.isin(opened, bad)
        assert np.count_nonzero(at) == len(bad)
        assert np.all(np.isnan(inner[at])) and np.all(np.isnan(d_inner[at]))
        assert not np.any(np.isnan(inner[~at]))

    @ALL_PAIRS
    def test_all_closed(self, pair):
        c2, den, _ = _kernel_inputs(7, count=500)
        r2m1 = den * pair.g.breaks[-1] + np.linspace(0.0, 2.0, 500)
        opened, inner, d_inner = self._same(pair, 0.8, c2, den, r2m1)
        assert opened.shape == inner.shape == d_inner.shape == (0,)


class TestKernelDerivatives:
    """The kernel's I'' against `oracles.inner_curvature`, the second kernel it replaces, bit
    for bit, and which walks ask the kernel for derivatives."""

    @pytest.mark.parametrize("pair", [canonical_pair(), _ci_custom_pair()],
                             ids=["canonical", "ci-custom"])
    @pytest.mark.parametrize("r", [0.8, 0.95, 0.99])
    def test_fuzz_inputs(self, pair, r):
        # the kernel fuzz inputs, with NaN on some nodes in each of c2, den and r2m1
        c2, den, r2m1 = (x.copy() for x in _kernel_inputs(int(1000 * r) + 9))
        c2[::101], den[33::101], r2m1[66::101] = np.nan, np.nan, np.nan
        opened, _, _, d2_inner = inner_band_alone(pair.f, pair.g, r, c2, den, r2m1,
                                                  derivs=True)
        want = inner_curvature(pair.f, pair.g, r, c2[opened], den[opened], r2m1[opened])
        assert np.array_equal(d2_inner, want, equal_nan=True)
        finite = d2_inner[np.isfinite(d2_inner)]
        assert 0 < len(opened) < len(c2) and len(finite) < len(opened)  # closed and NaN nodes
        assert np.count_nonzero(finite) > 0.1 * len(finite)

    @pytest.mark.parametrize("case", ["canonical", "ci-custom", "s2", "n2"])
    @pytest.mark.parametrize("r", [0.8, 0.95, 0.99])
    def test_walk_inputs(self, fixture, case, r, monkeypatch):
        # every kernel call of `_band_value_grad`'s walk: at n = 1 psi's kinks join the
        # grid's call; s = 2 is h tangent at +-sqrt 0.4 and +-sqrt 0.8
        pair = _ci_custom_pair() if case == "ci-custom" else canonical_pair()
        s, h, nodes = S, fixture[0], 960
        if case == "s2":
            s, h = 2.0, make_tangent_instance(np.sqrt([0.8, 0.4, 0.4, 0.8])[:, None]
                                              * np.array([[-1.0], [-1.0], [1.0], [1.0]]), 2.0)
        elif case == "n2":
            h, nodes = _triangle_square_n2(), 96
        band = rfamily._Band(h, s, pair, QuadratureSpec(x_nodes_per_axis=nodes))
        calls, inner_band = [], rfamily._inner_band

        def spy_inner_band(f, g, r, c2, den, r2m1, derivs, scratch):
            out = inner_band(f, g, r, c2, den, r2m1, derivs, scratch)
            # the walk's arrays are workspace rows, which its next block overwrites
            calls.append(tuple(np.copy(x) for x in (c2, den, r2m1, *out)))
            return out

        monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
        rng = np.random.default_rng(int(1000 * r))
        for theta in (np.zeros(len(band.basis)), rng.normal(scale=0.3 * (1.0 - r),
                                                            size=len(band.basis))):
            assert np.isfinite(rfamily._band_value_grad(band, r, theta)[0])
        assert calls
        for c2, den, r2m1, opened, _, _, d2_inner in calls:
            assert np.array_equal(d2_inner, inner_curvature(pair.f, pair.g, r, c2[opened],
                                                            den[opened], r2m1[opened]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_only_the_minimizer_asks_for_derivatives(self, n, monkeypatch):
        h = two_level_cross_fixture(1, S, 0.4, 0.8)[0] if n == 1 else _triangle_square_n2()
        pair, r, quad = canonical_pair(), 0.9, QuadratureSpec(x_nodes_per_axis=96)
        asked, inner_band = [], rfamily._inner_band

        def spy_inner_band(f, g, r, c2, den, r2m1, derivs, scratch):
            asked.append(derivs)
            return inner_band(f, g, r, c2, den, r2m1, derivs, scratch)

        monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
        p = random_unit_sdet_members(n, S, 1, seed=5)[0]
        rescaled = EPoint(BlockMat((p.mat.diag - np.eye(n)) / (1.0 - r),
                                   (p.mat.corner - 1.0) / (1.0 - r)), p.shift / (1.0 - r))
        assert np.isfinite(band_functional(h, S, pair, r, p, quad))
        assert np.isfinite(rescaled_band_functional(h, S, pair, r, rescaled, quad))
        assert asked and not any(asked)
        asked.clear()
        band = rfamily._Band(h, S, pair, quad)
        assert np.isfinite(rfamily._band_value_grad(band, r, np.zeros(len(band.basis)))[0])
        assert asked and all(derivs is True for derivs in asked)


class TestBandPreconditions:
    """`_Band` refuses what would break the band kernel's by-parts identities."""

    def test_domain_inside_unit_ball(self, fixture, quad):
        form = fixture[0].form
        cut = make_log_concave(form.a, form.b, S, domain_radius=0.9)
        with pytest.raises(NotJohnPosition):
            rfamily._Band(cut, S, canonical_pair(), quad)
        rfamily._Band(make_log_concave(form.a, form.b, S, domain_radius=1.0), S,
                      canonical_pair(), quad).radii(0.8)

    def test_h_underflows_on_unit_ball(self, quad):
        h = make_log_concave([[1.0], [-1.0]], [800.0, 800.0], S)
        with pytest.raises(NotJohnPosition):
            rfamily._Band(h, S, canonical_pair(), quad).radii(0.8)

    @pytest.mark.parametrize("f_ys, g_ys", [([0.2, 1.1], [1.0, 0.0]), ([0.0, 1.1], [1.0, 0.1])],
                             ids=["f-at-minus-one", "g-at-top-kink"])
    def test_pair_boundary_terms(self, fixture, quad, f_ys, g_ys):
        pair = ProfilePair(f=PiecewiseLinear.from_knots([-1.0, 0.4], f_ys, right_slope=1.0),
                           g=PiecewiseLinear.from_knots([-1.0, 1.0], g_ys))
        with pytest.raises(ValueError):
            rfamily._Band(fixture[0], S, pair, quad)
        with pytest.raises(ValueError):
            rfamily.check_band_pair(pair)


def _envelope_from_kinks(kinks, slopes, rng):
    """Max-affine form whose envelope kinks are the given points, plus dominated pieces."""
    b = [0.0]
    for k, x in enumerate(kinks):  # piece k + 1 meets piece k at x
        b.append(b[k] + (slopes[k] - slopes[k + 1]) * x)
    a, b = list(slopes), b
    for k, x in enumerate(kinks):
        # below both neighbours by 0.5 everywhere: slope between theirs, through the kink
        ad = rng.uniform(slopes[k], slopes[k + 1])
        a.append(ad)
        b.append(slopes[k] * x + b[k] - 0.5 - ad * x)
    j = rng.integers(len(slopes))  # a parallel copy under a hull piece
    a.append(slopes[j])
    b.append(b[j] - 1.0)
    order = rng.permutation(len(a))
    return PiecewiseLogAffine(np.array(a)[order, None], np.array(b)[order])


class TestEnvelopeBreaks:
    def test_closed_form_equals_scan(self):
        rng = np.random.default_rng(53)
        checked = 0
        for _ in range(40):
            m = int(rng.integers(1, 7))
            kinks = np.sort(rng.uniform(-8.0, 8.0, size=m))
            if m > 1 and np.min(np.diff(kinks)) < 0.1:
                continue  # pieces narrower than this can fall between scan samples
            checked += 1
            slopes = np.sort(rng.choice(np.arange(-6.0, 7.0), size=m + 1, replace=False))
            form = _envelope_from_kinks(kinks, slopes, rng)
            found, hull_slopes = _envelope_breaks_1d(form)
            # the hull's slopes are psi's gradient between its kinks and beyond them
            sides = np.concatenate([found[:1] - 1.0, 0.5 * (found[:-1] + found[1:]),
                                    found[-1:] + 1.0])
            assert np.array_equal(hull_slopes, slopes)
            assert np.array_equal(hull_slopes, psi_gradient(form, sides[:, None])[:, 0])
            for lo, hi in ((-10.0, 10.0), (-3.0, 2.5)):
                closed = found[(found > lo) & (found < hi)]
                scan = envelope_breaks_scan(form, lo, hi)
                assert np.array_equal(closed, scan)
                assert closed == pytest.approx(kinks[(kinks > lo) & (kinks < hi)], abs=1e-12)
        assert checked >= 20

    def test_narrow_middle_piece(self):
        # psi = max(-x + 0.0013, 0.0005, x - 0.0013): the flat piece wins only
        # on (0.0008, 0.0018), between two samples of the 4097-point scan
        form = PiecewiseLogAffine(np.array([[-1.0], [0.0], [1.0]]),
                                  np.array([0.0013, 0.0005, -0.0013]))
        assert envelope_breaks_scan(form, -10.0, 10.0) == pytest.approx([0.0013])
        closed, _ = _envelope_breaks_1d(form)
        closed = closed[(closed > -10.0) & (closed < 10.0)]
        assert closed == pytest.approx([0.0008, 0.0018], abs=1e-15)

    def test_no_kinks(self):
        for a, b in (([[2.0]], [0.5]), ([[1.0], [1.0]], [0.0, 3.0])):
            form = PiecewiseLogAffine(np.array(a), np.array(b))
            assert len(_envelope_breaks_1d(form)[0]) == 0


class TestSweepFromLimit:
    """Every r starts from the limit alone, so a row depends on nothing but its r."""

    def test_row_is_independent_of_the_schedule(self, fixture, quad):
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        alone = r_sweep(h, S, pair, [0.99], quad, ref, mu0).entries[0]
        full = r_sweep(h, S, pair, [0.8, 0.9, 0.95, 0.99], quad, ref, mu0).entries[-1]
        assert np.array_equal(alone.point.vec, full.point.vec)
        assert np.array_equal(alone.mu_integrals, full.mu_integrals)
        for name in ("value", "lambda_r", "dist_to_identity", "normalized_s_trace",
                     "secant_to_reference", "secant_to_limit"):
            assert getattr(alone, name) == getattr(full, name), name
        for name in ("value", "evaluations", "iterations", "stop_reason", "grad_norm"):
            assert getattr(alone.solver, name) == getattr(full.solver, name), name

    def test_one_band_geometry_per_sweep(self, fixture, quad, monkeypatch):
        # psi's minimum (and with it the band checks, the kinks and the basis) is built
        # once per sweep, not once per r
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        calls, min_psi = [], rfamily._min_psi

        def spy(form):
            calls.append(form)
            return min_psi(form)

        monkeypatch.setattr(rfamily, "_min_psi", spy)
        sweep = r_sweep(h, S, pair, [0.8, 0.9, 0.95, 0.99], quad, ref, mu0)
        assert all(e.error is None for e in sweep.entries)
        assert len(calls) == 1

    def test_reports_the_limit_point(self, fixture, quad):
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        sweep = r_sweep(h, S, pair, [0.9], quad, ref, extract_measure(ref, h, S, nu, F))
        limit = limit_reference(h, S, pair).point
        assert np.array_equal(sweep.limit.vec, limit.vec)
        e = sweep.entries[0]
        assert e.secant_to_limit == float(np.linalg.norm(e.rescaled.vec - limit.vec))

    def test_non_coercive_contact_set_raises_before_any_r(self, monkeypatch):
        # the axis cross at n = 2 is flat along M_12 on its contact set; the sweep
        # reads neither the reference nor its measure before the limit's gate
        h, _, _ = two_level_cross_fixture(2, S, 0.4, 0.8)

        def no_band(*args):
            raise AssertionError("a band was built")

        monkeypatch.setattr(rfamily, "_Band", no_band)
        with pytest.raises(DivergingIterates, match="limit functional is not coercive"):
            r_sweep(h, S, canonical_pair(), [0.8, 0.9], QuadratureSpec(x_nodes_per_axis=96),
                    None, None)


def _held_arrays(obj):
    """Every numpy array that obj holds through attributes, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for item in vars(obj).values():
            yield from _held_arrays(item)


class TestSweepReadsTheMinimizersWalk:
    """A row's lambda_r and bump integrals come from the minimizer's accepted evaluation."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rows_equal_the_measure_at_their_points(self, n, monkeypatch):
        # the acceptance fixture at 960 nodes, the triangle plus square at 240 and the
        # rotated octahedron plus cube at 64.  The sweep walks the grid once per
        # round and no more: at n = 1 one line walk evaluates every pending r, with one
        # kernel call per walk (their grids fit one), psi's kinks included; at n >= 2 a
        # round is one evaluation, one tensor walk of one position.  Every row is bit for bit `_band_measure` walked at its
        # point, though the RSweepResult holds no array of the open nodes
        if n == 1:
            h, cs, _ = two_level_cross_fixture(1, S, 0.4, 0.8)
            points, quad, schedule = cs.points, QuadratureSpec(), [0.8, 0.9, 0.95, 0.99]
        else:
            h = _triangle_square_n2() if n == 2 else _octahedron_cube_n3()
            points = detect_contacts(h, S).points
            quad, schedule = QuadratureSpec(x_nodes_per_axis=240 if n == 2 else 64), [0.8, 0.9]
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        walks, kernel_calls = [], []  # per walk, the positions it takes
        blocks, line, inner_band = rfamily._Band.blocks, rfamily._Band.line, rfamily._inner_band

        def spy_blocks(band, position, *args):
            walks.append(1)
            return blocks(band, position, *args)

        def spy_line(band, positions, *args):
            walks.append(len(positions))
            return line(band, positions, *args)

        def spy_inner_band(*args):
            kernel_calls.append(len(args[3]))
            return inner_band(*args)

        monkeypatch.setattr(rfamily._Band, "blocks", spy_blocks)
        monkeypatch.setattr(rfamily._Band, "line", spy_line)
        monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
        sweep = r_sweep(h, S, pair, schedule, quad, ref, mu0)
        monkeypatch.setattr(rfamily._Band, "blocks", blocks)
        monkeypatch.setattr(rfamily._Band, "line", line)
        monkeypatch.setattr(rfamily, "_inner_band", inner_band)
        evaluations = [e.solver.evaluations for e in sweep.entries]
        assert len(walks) == (max(evaluations) if n == 1 else sum(evaluations))
        assert sum(walks) == sum(evaluations)
        if n == 1:
            assert len(kernel_calls) == len(walks)
        band, bumps = rfamily._Band(h, S, pair, quad), default_bumps(mu0)
        least_open = np.inf
        for e in sweep.entries:
            assert e.error is None
            mu, lam = rfamily._band_measure(band, e.r, e.point, bumps)
            assert e.lambda_r == lam
            assert np.array_equal(e.mu_integrals, ref.lam * mu / ((1.0 - e.r) * lam))
            kept = rfamily._band_sums(band, [(e.r, e.point.mat.diag, e.point.mat.corner,
                                              e.point.shift)])[0][3]
            least_open = min(least_open, sum(len(w) for _, w in kept))
        assert max(a.size for a in _held_arrays(sweep)) < least_open


class TestSweepErrors:
    @staticmethod
    def _failing_at(monkeypatch, bad_r):
        # the band functional reads +inf at every point of bad_r, its start included
        original = rfamily._band_value_grads

        def flaky(band, evals):
            return [(np.inf, None, None, None) if r == bad_r else value
                    for (r, _), value in zip(evals, original(band, evals))]

        monkeypatch.setattr(rfamily, "_band_value_grads", flaky)

    def test_r_of_one_raises_bad_r(self, fixture, quad):
        # no check before the minimizer: its first evaluation raises BadR at r = 1
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        with pytest.raises(BadR, match=r"r=1.0 outside"):
            r_sweep(h, S, pair, [0.9, 1.0], quad, ref, extract_measure(ref, h, S, nu, F))

    def test_failed_r_keeps_reason(self, fixture, quad, monkeypatch):
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        self._failing_at(monkeypatch, 0.9)
        sweep = r_sweep(h, S, pair, [0.8, 0.9, 0.95], quad, ref, mu0)
        bad = sweep.entries[1]
        assert bad.point is None and np.isnan(bad.lambda_r) and np.isnan(bad.value)
        assert np.all(np.isnan(bad.mu_integrals))
        assert bad.error == "NotConverged: the functional is infinite at the starting point"
        for e in (sweep.entries[0], sweep.entries[2]):
            assert e.error is None and np.isfinite(e.lambda_r) and e.point is not None

    def test_cli_reports_error_deterministically(self, tmp_path, monkeypatch, capsys):
        inst = tmp_path / "inst.json"
        assert cli.main(["fixture", "two-level-cross", "--n", "1", "--s", "1.0",
                         "--out", str(inst)]) == 0
        doc = json.loads(inst.read_text())
        doc["r_schedule"] = [0.8, 0.9]
        inst.write_text(json.dumps(doc))
        self._failing_at(monkeypatch, 0.8)
        capsys.readouterr()
        outs = []
        for _ in range(2):
            assert cli.main(["sweep-r", "--instance", str(inst)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        rows = json.loads(outs[0])["result"]["entries"]
        assert rows[0]["error"] == "NotConverged: the functional is infinite at the starting point"
        assert rows[0]["lambda_r"] == "nan" and rows[0]["minimizer"] is None
        assert rows[1]["error"] is None and rows[1]["lambda_r"] > 0.0
        assert rows[0]["evaluations"] is None and rows[0]["stop_reason"] is None
        assert rows[1]["evaluations"] > 0
        # nothing passes from one r to the next: the row after the failed r is the row
        # that r gives alone
        assert rows[1]["stop_reason"] in CONVERGED_STOPS
        doc["r_schedule"] = [0.9]
        inst.write_text(json.dumps(doc))
        assert cli.main(["sweep-r", "--instance", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["entries"] == rows[1:]


def _bits(x) -> bytes:
    """The bytes of a float or an array of them: equal bits, -0.0 and NaN included."""
    return np.asarray(x, dtype=float).tobytes()


class TestSweepRounds:
    """`r_sweep` minimizes its r's in rounds, one walk a round; each row is its r's alone."""

    SCHEDULE = [0.8, 0.9, 0.95, 0.99]

    @staticmethod
    def _problem(name, monkeypatch):
        """(h, reference, its measure) of the 9c instance or perfbench's first sweep instance."""
        if name == "9c":
            h, cs, _ = two_level_cross_fixture(1, S, 0.4, 0.8)
            points = cs.points
        else:
            path = INSTANCES.parent / "perfbench" / "instances.py"
            spec = importlib.util.spec_from_file_location("perfbench_instances", path)
            module = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
            spec.loader.exec_module(module)
            inst = module.sweep_instances(501, 1)[0]
            assert inst.s == S
            h, points = inst.h, inst.points
        F = ConvolutionProfile(canonical_pair())
        nu = counting_measure(points)
        ref = minimize_functional(h, S, nu, F)
        return h, ref, extract_measure(ref, h, S, nu, F)

    @staticmethod
    def _rows(entries):
        """Every field of the rows and of their solver records, as bytes and strings."""
        rows = []
        for e in entries:
            points = [None if p is None else _bits(p.vec) for p in (e.point, e.rescaled)]
            record = None if e.solver is None else (
                _bits(e.solver.point.vec), _bits(e.solver.value), e.solver.evaluations,
                e.solver.iterations, e.solver.stop_reason, _bits(e.solver.grad_norm))
            rows.append((_bits([e.r, e.lambda_r, e.value, e.dist_to_identity,
                                e.normalized_s_trace, e.secant_to_reference, e.secant_to_limit]),
                         _bits(e.mu_integrals), _bits(e.mu_reference), e.error, *points, record))
        return rows

    @pytest.mark.parametrize("name", ["9c", "perfbench-sweep-501"])
    def test_rounds_match_each_r_alone(self, name, monkeypatch):
        # every r minimized by itself, `_minimize_band` from the sweep's start plus
        # `_measure` of its accepted walk, gives the sweep's row bit for bit; the sweep
        # walks once per round, every r of the schedule in one walk
        h, ref, mu0 = self._problem(name, monkeypatch)
        pair, quad = canonical_pair(), QuadratureSpec()
        walks, line = [], rfamily._Band.line

        def spy_line(band, positions, *args):
            walks.append(len(positions))
            return line(band, positions, *args)

        monkeypatch.setattr(rfamily._Band, "line", spy_line)
        sweep = r_sweep(h, S, pair, self.SCHEDULE, quad, ref, mu0)
        monkeypatch.setattr(rfamily._Band, "line", line)
        evaluations = [e.solver.evaluations for e in sweep.entries]
        assert len(walks) == max(evaluations) and walks[0] == len(self.SCHEDULE)
        assert sum(walks) == sum(evaluations)

        band, bumps = rfamily._Band(h, S, pair, quad), default_bumps(mu0)
        limit = limit_reference(h, S, pair).point
        ident = identity_point().vec
        for r, e in zip(self.SCHEDULE, sweep.entries):
            omr = 1.0 - r
            step = sdet1_param(omr * limit.mat.diag, S)[0] - np.eye(1)
            start = band.basis @ np.concatenate([step.ravel(), [-np.trace(step) / S],
                                                 omr * limit.shift])
            solver, walk = rfamily._minimize_band(band, r, start)
            mu, lam = rfamily._measure(band, r, walk, bumps)
            rescaled = EPoint.from_vec((solver.point.vec - ident) * (1.0 / omr), 1)
            flat = rescaled.vec
            alone = rfamily.SweepEntry(
                r=r, point=solver.point, rescaled=rescaled, lambda_r=lam, value=solver.value,
                dist_to_identity=float(np.linalg.norm(solver.point.vec - ident)),
                normalized_s_trace=abs(s_trace(rescaled.mat, S)) / float(np.linalg.norm(flat[:2])),
                secant_to_reference=float(np.linalg.norm(flat - ref.point.vec)),
                secant_to_limit=float(np.linalg.norm(flat - limit.vec)),
                mu_integrals=ref.lam * mu / (omr * lam), mu_reference=e.mu_reference,
                solver=solver)
            assert self._rows([e]) == self._rows([alone])

    def test_failed_r_leaves_the_other_rows_bit_for_bit(self, monkeypatch):
        # r = 0.9 reads +inf at its start and stops there; the rows of the r's that shared
        # its rounds are the rows of the sweep without the failure
        h, ref, mu0 = self._problem("9c", monkeypatch)
        pair, quad = canonical_pair(), QuadratureSpec()
        want = self._rows(r_sweep(h, S, pair, self.SCHEDULE, quad, ref, mu0).entries)
        TestSweepErrors._failing_at(monkeypatch, 0.9)
        got = r_sweep(h, S, pair, self.SCHEDULE, quad, ref, mu0).entries
        assert got[1].error == "NotConverged: the functional is infinite at the starting point"
        assert got[1].point is None and got[1].solver is None
        assert [row for i, row in enumerate(self._rows(got)) if i != 1] == want[:1] + want[2:]

    def test_unresolved_r_fails_with_its_reason(self, monkeypatch):
        # at r = 1 - 1e-10 no node of the 960-node grid lies inside the band, so every sum
        # is 0: the row fails and names the cause, nothing warns, and the row of r = 0.9
        # is the row it gets alone
        h, ref, mu0 = self._problem("9c", monkeypatch)
        pair, quad = canonical_pair(), QuadratureSpec()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = r_sweep(h, S, pair, [0.9, 0.9999999999], quad, ref, mu0).entries
        assert got[1].error == ("BadR: the grid of 960 nodes per axis resolves no node of the "
                                "band at r = 0.9999999999")
        assert got[1].point is None and got[1].solver is None and np.isnan(got[1].lambda_r)
        want = r_sweep(h, S, pair, [0.9], quad, ref, mu0).entries
        assert self._rows(got[:1]) == self._rows(want)

    @pytest.mark.parametrize("bad", [0.5, 1.2])
    def test_r_outside_the_open_interval_raises_bad_r(self, bad, monkeypatch):
        h, ref, mu0 = self._problem("9c", monkeypatch)
        with pytest.raises(BadR, match=rf"r={bad} outside \(1/2, 1\)"):
            r_sweep(h, S, canonical_pair(), [0.8, bad, 0.9], QuadratureSpec(), ref, mu0)

    def test_small_blocks_take_one_r_per_kernel_call(self, monkeypatch):
        # below one grid's nodes a kernel call holds one r: every round's walk calls the
        # kernel once per r, and every row is the row of the calls that take all four
        h, ref, mu0 = self._problem("9c", monkeypatch)
        pair, quad = canonical_pair(), QuadratureSpec()
        want = r_sweep(h, S, pair, self.SCHEDULE, quad, ref, mu0)
        kernel_calls, inner_band = [], rfamily._inner_band

        def spy_inner_band(*args):
            kernel_calls.append(len(np.unique(args[2])))  # the r's of the call's nodes
            return inner_band(*args)

        monkeypatch.setattr(rfamily, "_BLOCK_NODES", 1000)
        monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
        got = r_sweep(h, S, pair, self.SCHEDULE, quad, ref, mu0)
        assert kernel_calls == [1] * sum(e.solver.evaluations for e in want.entries)
        assert self._rows(got.entries) == self._rows(want.entries)

    def test_a_round_is_each_evaluation_alone(self):
        # one walk of four (r, theta) at n = 1 with h = 0 beyond 1.4: one theta puts part
        # of its band there (its barrier), one has no positive definite A (no walk); the
        # two others get what their evaluations alone get, bit for bit, kept walks included,
        # and nothing warns on the shut position's closed nodes
        form = two_level_cross_fixture(1, S, 0.4, 0.8)[0].form
        h = make_log_concave(form.a, form.b, S, domain_radius=1.4)
        band = rfamily._Band(h, S, canonical_pair(), QuadratureSpec())
        evals = [(0.8, np.array([0.01, 0.02])), (0.9, np.array([0.0, 0.5])),
                 (0.95, np.array([-0.02, -0.01])), (0.99, np.array([-3.0, 0.0]))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rfamily._band_value_grads(band, evals)
        assert [np.isfinite(g[0]) for g in got] == [True, False, True, False]
        for (r, theta), (value, grad, hess, walk) in zip(evals, got):
            want = rfamily._band_value_grad(band, r, theta)
            assert _bits(value) == _bits(want[0])
            if walk is None:
                assert want[1:] == (None, None, None)
                continue
            assert _bits(grad) == _bits(want[1]) and _bits(hess) == _bits(want[2])
            (Y, per_h2), = walk[4]
            (want_Y, want_per_h2), = want[3][4]
            assert _bits(Y) == _bits(want_Y) and _bits(per_h2) == _bits(want_per_h2)
