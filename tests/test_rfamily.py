import itertools
import json
import pathlib
import tracemalloc

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
from oracles import (envelope_breaks_scan, fd_newton_minimize, pl_deriv, s_det,
                     sorted_inner_band, theta_point, x_grid)

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
        for r in (0.8, 0.9, 0.95, 0.99):
            need = np.sqrt(1.0 + 2.0 * (1.0 - r) * np.exp(-rfamily._min_psi(h.form)) ** (2.0 / S))
            assert rfamily._Band(h, S, canonical_pair(), r, quad).radius >= need - 1e-12

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
        band = rfamily._Band(h, S, pair, 0.8, quad)
        assert band.radius == band.reach == 8.0
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
        band = rfamily._Band(h, S, canonical_pair(), 0.8, quad)
        assert band.radius == band.reach == np.sqrt(1.0 + 2.0 * (1.0 - 0.8) * sup)

    def test_non_coercive_pieces_use_the_domain_bound(self, quad):
        # psi = max(x, 2x) has a vertex at 0 but falls to -3 at x = -3 on |x| <= 3
        def band(domain_radius):
            h = make_log_concave([[1.0], [2.0]], [0.0, 0.0], S, domain_radius)
            return rfamily._Band(h, S, canonical_pair(), 0.99, quad)

        assert np.exp(-rfamily._min_psi(band(3.0).h.form)) ** (2.0 / S) == pytest.approx(
            np.exp(6.0), rel=2e-7)
        assert band(3.0).radius == band(3.0).reach == 3.0
        assert band(1.0).radius == band(1.0).reach == 1.0
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


def test_band_functional_allocates_one_block():
    # an n = 2 evaluation on the default 921,600-node grid reduces every block as it is
    # walked, so its peak allocation is a few blocks' temporaries, not grid-sized buffers
    h = _triangle_square_n2()
    A, alpha = sdet1_param(np.array([[0.1, -0.05], [-0.05, -0.08]]), S)
    p = EPoint(BlockMat(A, alpha), np.array([0.05, -0.1]))
    band_functional(h, S, canonical_pair(), 0.8, p, QuadratureSpec(x_nodes_per_axis=64))
    tracemalloc.start()
    try:
        value = band_functional(h, S, canonical_pair(), 0.8, p, QuadratureSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value < np.inf
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


def _compass_minimize(band, max_iter=400):
    """The compass search and finite-difference polish the Newton minimizer replaced.

    Kept as the reference oracle of `_minimize_band`: derivative-free steps
    of 0.25 (1-r) halved down to 1e-7 (1-r), a position already visited is
    not evaluated again, then a gradient polish on central differences.
    Starts at the identity and returns (point, value).
    """
    n, r = band.h.n, band.r
    seen = {}

    def obj(theta):
        p = theta_point(theta, n, S)
        key = (p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes())
        if key not in seen:
            seen[key] = rfamily._band_value(band, p)
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
        band = rfamily._Band(h, S, canonical_pair(), r, quad)
        rng = np.random.default_rng(int(100 * r))

        def value_at(th):
            return band_functional(h, S, canonical_pair(), r, theta_point(th, 1, S), quad)

        step, worst = 1e-6, 0.0
        for _ in range(20):
            theta = rng.normal(scale=0.3 * (1.0 - r), size=2)
            value, grad = rfamily._band_value_grad(band, theta)
            fd = np.array([(value_at(theta + e) - value_at(theta - e)) / (2.0 * step)
                           for e in step * np.eye(2)])
            worst = max(worst, np.linalg.norm(fd - grad) / np.linalg.norm(grad))
        assert worst <= 1e-4

    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_matches_central_differences_n2(self, r):
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis=96)
        band = rfamily._Band(h, S, canonical_pair(), r, quad)
        rng = np.random.default_rng(int(200 * r))

        def value_at(th):
            return band_functional(h, S, canonical_pair(), r, theta_point(th, 2, S), quad)

        step = 1e-6
        for _ in range(3):
            theta = rng.normal(scale=0.3 * (1.0 - r), size=5)
            _, grad = rfamily._band_value_grad(band, theta)
            fd = np.array([(value_at(theta + e) - value_at(theta - e)) / (2.0 * step)
                           for e in step * np.eye(5)])
            assert np.linalg.norm(fd - grad) <= 1e-4 * np.linalg.norm(grad)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_value_is_band_value(self, n):
        # the minimizer's own map from theta to (A, alpha, v) is the sdet1_param one,
        # bit for bit
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis={1: 960, 2: 96, 3: 32}[n])
        rng = np.random.default_rng(67 + n)
        for r in (0.8, 0.95):
            band = rfamily._Band(h, S, canonical_pair(), r, quad)
            for _ in range(5):
                theta = rng.normal(scale=0.05, size=n * (n + 1) // 2 + n)
                p = theta_point(theta, n, S)
                value, _ = rfamily._band_value_grad(band, theta)
                assert 0.0 < value == rfamily._band_value(band, p)
                assert value == band_functional(h, S, canonical_pair(), r, p, quad)

    def test_barrier_has_no_gradient(self):
        # a shift that pushes the band beyond the bounded domain of h
        form = two_level_cross_fixture(1, S, 0.4, 0.8)[0].form
        bounded = make_log_concave(form.a, form.b, S, domain_radius=1.2)
        band = rfamily._Band(bounded, S, canonical_pair(), 0.9, QuadratureSpec())
        theta = np.array([0.0, 0.5])
        assert rfamily._band_value(band, theta_point(theta, 1, S)) == float("inf")
        assert rfamily._band_value_grad(band, theta) == (float("inf"), None)


class TestMinimizeBand:
    @pytest.mark.parametrize("r", [0.8, 0.9, 0.99])
    def test_lands_on_compass_minimizer(self, fixture, quad, r):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), r, quad)
        ref_point, ref_value = _compass_minimize(band)
        res = rfamily._minimize_band(band, None, 400)
        assert res.stop_reason in CONVERGED_STOPS and res.evaluations <= 40
        assert np.linalg.norm(res.point.vec - ref_point.vec) / (1.0 - r) <= 1e-5
        assert res.value <= ref_value * (1.0 + 1e-10)
        assert res.value == band_functional(h, S, canonical_pair(), r, res.point, quad)

    @pytest.mark.parametrize("n, r", [(1, 0.8), (1, 0.9), (1, 0.99), (2, 0.9), (2, 0.95)])
    def test_lands_on_fd_newton_minimizer(self, n, r):
        h = two_level_cross_fixture(n, S, 0.4, 0.8)[0]
        band = rfamily._Band(h, S, canonical_pair(), r,
                             QuadratureSpec(x_nodes_per_axis=960 if n == 1 else 96))
        ref_point, ref_value, ref_evals, _ = fd_newton_minimize(band)
        res = rfamily._minimize_band(band, None, 400)
        assert res.stop_reason in CONVERGED_STOPS and res.hessian_builds == 1
        assert np.linalg.norm(res.point.vec - ref_point.vec) / (1.0 - r) <= 1e-5
        assert res.value <= ref_value * (1.0 + 1e-10)
        assert res.evaluations < ref_evals

    def test_resolved_stop_is_an_fd_newton_stop(self):
        # on the coarse n = 2 grid at r = 0.8 both loops stop RESOLVED: the nodes cross
        # the kinks of psi, so the discrete minimum is fixed only to about the difference
        # step, and the two paths end at different such points.  Started where the
        # quasi-Newton loop stopped, the FD-Newton loop finds no step either.
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        band = rfamily._Band(h, S, canonical_pair(), 0.8, QuadratureSpec(x_nodes_per_axis=96))
        res = rfamily._minimize_band(band, None, 400)
        assert res.stop_reason == rfamily.RESOLVED
        point, value, _, stop = fd_newton_minimize(band, res.point)  # x0 goes through log(A)
        assert stop == rfamily.RESOLVED and value == pytest.approx(res.value, rel=1e-14)
        assert np.linalg.norm(point.vec - res.point.vec) <= 1e-12

    @pytest.mark.parametrize("scale", [1e6, 1e4, 1e-4, 1e-6])
    def test_badly_scaled_model_reaches_oracle(self, fixture, quad, monkeypatch, scale):
        # the limit's model Hessian scaled far off the true curvature: a stiff one predicts
        # tiny steps and a decrease below rounding at once (trusted, it crawls to max_iter),
        # a soft one overshoots by its scale; the first step's curvature rescales it, and
        # every r still reaches the oracle
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        original = rfamily._minimize_band

        def miscaled(band, theta0, max_iter, hessian):
            return original(band, theta0, max_iter, None if hessian is None else scale * hessian)

        monkeypatch.setattr(rfamily, "_minimize_band", miscaled)
        with np.errstate(over="ignore", invalid="ignore"):  # soft models step beyond the barrier
            sweep = r_sweep(h, S, pair, [0.8, 0.9, 0.95, 0.99], quad, ref, mu0)
        for e in sweep.entries:
            band = rfamily._Band(h, S, pair, e.r, quad)
            ref_point, ref_value, _, _ = fd_newton_minimize(band)
            assert e.solver.stop_reason in CONVERGED_STOPS
            assert np.linalg.norm(e.point.vec - ref_point.vec) / (1.0 - e.r) <= 1e-5
            assert e.value <= ref_value * (1.0 + 1e-10)

    @pytest.mark.parametrize("r", [0.8, 0.9])
    def test_same_loop_at_n2(self, r):
        h = two_level_cross_fixture(2, S, 0.4, 0.8)[0]
        quad = QuadratureSpec(x_nodes_per_axis=96)
        band = rfamily._Band(h, S, canonical_pair(), r, quad)
        res = rfamily._minimize_band(band, None, 400)
        assert res.stop_reason in CONVERGED_STOPS and res.evaluations <= 60
        assert s_det(res.point.mat, S) == pytest.approx(1.0, abs=1e-10)
        assert res.value == band_functional(h, S, canonical_pair(), r, res.point, quad)
        assert res.value < band_functional(h, S, canonical_pair(), r, identity_point(2), quad)

    def test_max_iter_zero_takes_no_step(self, fixture, quad):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), 0.9, quad)
        res = rfamily._minimize_band(band, None, 0)
        assert res.iterations == 0 and res.stop_reason == "max_iter"
        assert np.linalg.norm(res.point.vec - identity_point().vec) == 0.0
        p, lam = minimize_band(h, S, canonical_pair(), 0.9, quad, max_iter=0)
        assert np.linalg.norm(p.vec - identity_point().vec) == 0.0 and lam > 0.0

    def test_negative_max_iter_raises_before_any_work(self, fixture, quad, monkeypatch):
        h, _, _ = fixture
        band = rfamily._Band(h, S, canonical_pair(), 0.9, quad)
        evaluated = []
        monkeypatch.setattr(rfamily, "_band_value_grad", lambda *args: evaluated.append(1))
        with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
            rfamily._minimize_band(band, None, -1)
        monkeypatch.setattr(rfamily, "_Band", lambda *args: evaluated.append(1))
        with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
            minimize_band(h, S, canonical_pair(), 0.9, quad, max_iter=-1)
        assert evaluated == []

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
        # every value(+gradient) call counts once; none repeats a position, the
        # acceptance sweep stays within the quasi-Newton budget, and no r builds a
        # difference Hessian: each starts from the limit's model
        h, cs, _ = fixture
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        nu = counting_measure(cs.points)
        ref = minimize_functional(h, S, nu, F)
        mu0 = extract_measure(ref, h, S, nu, F)
        seen = {}
        original = rfamily._band_value_grad

        def recording(band, theta):
            p = theta_point(theta, band.h.n, S)
            seen.setdefault(band.r, []).append(
                (p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes()))
            return original(band, theta)

        monkeypatch.setattr(rfamily, "_band_value_grad", recording)
        schedule = [0.8, 0.9, 0.95, 0.99]
        sweep = r_sweep(h, S, pair, schedule, quad, ref, mu0)
        counts = [len(seen[r]) for r in schedule]
        assert counts == [e.solver.evaluations for e in sweep.entries]
        assert all(len(set(calls)) == len(calls) for calls in seen.values())
        assert np.median(counts) <= 20 and max(counts) <= 40 and sum(counts) <= 30
        assert sum(e.solver.hessian_builds for e in sweep.entries) == 0
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


def _unblocked_terms(band, A, alpha, v, shifted):
    """The whole-grid, row-major band terms that the block walk replaces, kept as its
    bit-for-bit reference: (X, Y, W, h_y, I, I') on the open nodes, or None.  Also returns
    the near nodes' kernel inputs (c2, den, r2m1) and which of them are open."""
    radius = (band.radius if shifted else
              float(np.linalg.norm(A, 2) * band.radius + np.linalg.norm(v)) + 1e-9)
    kinks = None
    if band.breaks is not None:
        a, c = float(A[0, 0]), float(v[0])
        u, c = (a, c) if shifted else (1.0 / a, -c / a)
        kinks = np.concatenate([band.breaks, (band.breaks - c) / u])
    X, W = x_grid(band.h.n, radius, band.quad.x_nodes_per_axis, kinks)
    Z, Y = (X, X @ A.T + v) if shifted else (np.linalg.solve(A, (X - v).T).T, X)
    den = 2.0 * eval_h_many(band.h, Z) ** (2.0 / band.s) * (1.0 - band.r)
    r2m1 = np.sum(Z * Z, axis=1) - 1.0
    near = np.flatnonzero(r2m1 < den * band.g.breaks[-1])
    h_y = eval_h_many(band.h, Y[near]) ** (1.0 / band.s)
    c2 = (h_y / alpha) ** 2
    if not np.all(c2 > 0.0):
        return None, None
    opened, inner, d_inner = rfamily._inner_band(band.f, band.g, band.r, c2, den[near],
                                                 r2m1[near])
    at = near[opened]
    terms = X[at], Y[at], W[at], h_y[opened], inner, d_inner
    return terms, (c2, den[near], r2m1[near], opened)


def _walked_terms(band, A, alpha, v, shifted):
    """`_Band.blocks`'s open nodes (X[at], Y[opened], W, h_y, I, I') concatenated in walk
    order, or None when the walk stops at the coercive barrier."""
    blocks = list(band.blocks(A, alpha, v, shifted))
    if None in blocks:
        assert blocks[-1] is None  # the walk stops at the barrier
        return None
    n = band.h.n
    terms = [(np.empty((0, n)),) * 2 + (np.empty(0),) * 4]
    for W, h_y, inner, d_inner, X, at, Y, opened in blocks:
        terms.append((X.take(at, axis=0), Y.take(opened, axis=0), W, h_y, inner, d_inner))
    return tuple(np.concatenate(col) for col in zip(*terms))


def _one_block(terms):
    """The whole grid's open-node terms (X, Y, W, h_y, I, I') as one block of `_Band.blocks`."""
    if terms is None:
        return None
    X, Y, W, h_y, inner, d_inner = terms
    every = np.arange(len(W))
    return W, h_y, inner, d_inner, X, every, Y, every


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
        # on them (`_density_sums`'s in the unshifted route), which must carry all of the
        # grid's density: the direct integrand is 0 on every near node that is not open
        nodes, block = self.GRIDS[n]
        monkeypatch.setattr(rfamily, "_BLOCK_NODES", block)
        # on the axis cross every product a . x is exact, so no BLAS kernel's order of
        # summation can move a bit: what is compared is the walk over the blocks
        form = two_level_cross_fixture(n, S, 0.4, 0.8)[0].form
        h = make_log_concave(form.a, form.b, S, domain_radius=1.4)  # h = 0 beyond 1.4
        band = rfamily._Band(h, S, canonical_pair(), 0.8, QuadratureSpec(x_nodes_per_axis=nodes))
        per_row = len(x_grid(1, 1.0, nodes)[0])
        rows, per_block = per_row ** (n - 1), max(1, block // per_row)
        if n > 1:  # at least three blocks, the last one partial
            assert rows >= 2 * per_block and rows % per_block
        refused = 0
        for A, alpha, v in self._positions(n):
            got = _walked_terms(band, A, alpha, v, shifted)
            ref, inputs = _unblocked_terms(band, A, alpha, v, shifted)
            assert (got is None) == (ref is None)
            if ref is None:
                refused += 1
                if mode == "density" and not shifted:
                    with pytest.raises(NotInBr):
                        rfamily._density_sums(band, EPoint(BlockMat(A, alpha), v), [])
                continue
            assert all(np.array_equal(a, b) for a, b in zip(got[2:], ref[2:]))
            assert len(got[2]) and np.all(got[4] > 0.0)
            if mode != "value":
                assert all(a.shape == (len(got[2]), n) for a in got[:2])
                assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
            if mode == "density":
                c2, den, r2m1, opened = inputs
                direct = _full_inner_band(band.f, band.g, band.r, c2, den, r2m1, "density", 2)
                shut = np.ones(len(c2), dtype=bool)
                shut[opened] = False
                assert np.any(shut) and not np.any(direct[shut])
                X, _, W, h_y, inner, d_inner = got
                by_parts = _by_parts(band.r, c2[opened], inner, d_inner)
                assert np.max(np.abs(by_parts - direct[opened])) <= 1e-13 * np.max(direct)
                if not shifted:  # the density the measure uses, times h^(1/s) / alpha^(S-1)
                    density = by_parts * alpha ** (S - 1.0) / h_y
                    point = EPoint(BlockMat(A, alpha), v)
                    for delta in (lambda x: np.ones(len(x)), lambda x: x[:, 0] > 0.0):
                        got_mu = rfamily._density_sums(band, point, [delta])[0][0]
                        want = float(np.sum(W * delta(X) * density))
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
        band = rfamily._Band(h, S, pair, 0.8, QuadratureSpec(x_nodes_per_axis=nodes))
        if case == "domain-below-band-radius":
            unbounded = make_log_concave(form.a, form.b, S)
            assert band.radius == 1.05 < rfamily._Band(unbounded, S, pair, 0.8, band.quad).radius
        visited, kernel_inputs = [], []
        sq_norms, inner_band = rfamily._sq_norms, rfamily._inner_band

        def spy_sq_norms(Z):
            visited.append(len(Z))
            return sq_norms(Z)

        def spy_inner_band(f, g, r, c2, den, r2m1):
            kernel_inputs.append((c2, den, r2m1))
            return inner_band(f, g, r, c2, den, r2m1)

        compared = 0
        for A, alpha, v in positions:
            visited.clear()
            kernel_inputs.clear()
            monkeypatch.setattr(rfamily, "_sq_norms", spy_sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", spy_inner_band)
            got = _walked_terms(band, A, alpha, v, shifted)
            monkeypatch.setattr(rfamily, "_sq_norms", sq_norms)
            monkeypatch.setattr(rfamily, "_inner_band", inner_band)
            ref, inputs = _unblocked_terms(band, A, alpha, v, shifted)
            assert (got is None) == (ref is None)
            if ref is None:
                continue
            compared += 1
            assert sum(visited) < len(x_grid(1, 1.0, nodes)[0]) ** n
            walked = [np.concatenate(col) for col in zip(*kernel_inputs)]
            assert all(np.array_equal(a, b) for a, b in zip(walked, inputs[:3]))
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
            assert len(got[2]) and np.all(got[4] > 0.0)
        assert compared == 2

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
        band = rfamily._Band(h, S, canonical_pair(), 0.8, quad)
        whole = rfamily._Band(h, S, canonical_pair(), 0.8, quad)
        whole.blocks = lambda A, alpha, v, shifted: iter(
            [_one_block(_unblocked_terms(band, A, alpha, v, shifted)[0])])
        if n > 1:  # at least three blocks
            per_row = len(x_grid(1, 1.0, nodes)[0])
            assert per_row ** (n - 1) >= 2 * max(1, block // per_row) + 1
        tol = 0.0 if n == 1 else 1e-13
        bumps = [trapezoid_bump(np.full(n, 0.3), 0.2, 0.2), trapezoid_bump(np.zeros(n), 1.0, 0.2)]
        rng = np.random.default_rng(97 + n)
        for _ in range(2):
            theta = rng.normal(scale=0.05, size=n * (n + 1) // 2 + n)
            p = theta_point(theta, n, S)
            got = rfamily._band_value(band, p)
            assert abs(got - rfamily._band_value(whole, p)) <= tol * got
            (got, grad), (want, want_grad) = (rfamily._band_value_grad(b, theta)
                                              for b in (band, whole))
            assert abs(got - want) <= tol * want
            assert np.linalg.norm(grad - want_grad) <= tol * np.linalg.norm(want_grad)
            (mu, lam), (want_mu, want_lam) = (rfamily._density_sums(b, p, bumps)
                                              for b in (band, whole))
            assert np.all(np.abs(mu - want_mu) <= tol * np.abs(want_mu)) and np.all(mu != 0.0)
            assert abs(lam - want_lam) <= tol * abs(want_lam)


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
    opened, inner, d_inner = rfamily._inner_band(pair.f, pair.g, r, c2, den, r2m1)
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
        opened, inner, d_inner = rfamily._inner_band(pair.f, pair.g, 0.8, c2, den, r2m1)
        assert opened.shape == inner.shape == d_inner.shape == (0,)
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
        got = rfamily._inner_band(pair.f, pair.g, r, c2, den, r2m1)
        ref = sorted_inner_band(pair.f, pair.g, r, c2, den, r2m1)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b, equal_nan=True)
        return got

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


class TestBandPreconditions:
    """`_Band` refuses what would break the band kernel's by-parts identities."""

    def test_domain_inside_unit_ball(self, fixture, quad):
        form = fixture[0].form
        cut = make_log_concave(form.a, form.b, S, domain_radius=0.9)
        with pytest.raises(NotJohnPosition):
            rfamily._Band(cut, S, canonical_pair(), 0.8, quad)
        rfamily._Band(make_log_concave(form.a, form.b, S, domain_radius=1.0), S,
                      canonical_pair(), 0.8, quad)

    def test_h_underflows_on_unit_ball(self, quad):
        h = make_log_concave([[1.0], [-1.0]], [800.0, 800.0], S)
        with pytest.raises(NotJohnPosition):
            rfamily._Band(h, S, canonical_pair(), 0.8, quad)

    @pytest.mark.parametrize("f_ys, g_ys", [([0.2, 1.1], [1.0, 0.0]), ([0.0, 1.1], [1.0, 0.1])],
                             ids=["f-at-minus-one", "g-at-top-kink"])
    def test_pair_boundary_terms(self, fixture, quad, f_ys, g_ys):
        pair = ProfilePair(f=PiecewiseLinear.from_knots([-1.0, 0.4], f_ys, right_slope=1.0),
                           g=PiecewiseLinear.from_knots([-1.0, 1.0], g_ys))
        with pytest.raises(ValueError):
            rfamily._Band(fixture[0], S, pair, 0.8, quad)
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
            for lo, hi in ((-10.0, 10.0), (-3.0, 2.5)):
                closed = _envelope_breaks_1d(form)
                closed = closed[(closed > lo) & (closed < hi)]
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
        closed = _envelope_breaks_1d(form)
        closed = closed[(closed > -10.0) & (closed < 10.0)]
        assert closed == pytest.approx([0.0008, 0.0018], abs=1e-15)

    def test_no_kinks(self):
        for a, b in (([[2.0]], [0.5]), ([[1.0], [1.0]], [0.0, 3.0])):
            form = PiecewiseLogAffine(np.array(a), np.array(b))
            assert len(_envelope_breaks_1d(form)) == 0


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
        for name in ("value", "evaluations", "iterations", "stop_reason", "grad_norm",
                     "hessian_builds"):
            assert getattr(alone.solver, name) == getattr(full.solver, name), name

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


class TestSweepErrors:
    @staticmethod
    def _failing_at(monkeypatch, bad_r):
        original = rfamily._minimize_band

        def flaky(band, theta0, max_iter, hessian):
            if band.r == bad_r:
                raise NotConverged("band functional infinite at the starting point")
            return original(band, theta0, max_iter, hessian)

        monkeypatch.setattr(rfamily, "_minimize_band", flaky)

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
        assert bad.error == "NotConverged: band functional infinite at the starting point"
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
        assert rows[0]["error"] == "NotConverged: band functional infinite at the starting point"
        assert rows[0]["lambda_r"] == "nan" and rows[0]["minimizer"] is None
        assert rows[1]["error"] is None and rows[1]["lambda_r"] > 0.0
        assert rows[0]["evaluations"] is None and rows[0]["stop_reason"] is None
        assert rows[1]["evaluations"] > 0
        # nothing passes from one r to the next: the row after the failed r is the row
        # that r gives alone, and starts from the limit's model without a difference Hessian
        assert rows[0]["hessian_builds"] is None and rows[1]["hessian_builds"] == 0
        assert rows[1]["stop_reason"] in CONVERGED_STOPS
        doc["r_schedule"] = [0.9]
        inst.write_text(json.dumps(doc))
        assert cli.main(["sweep-r", "--instance", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["entries"] == rows[1:]
