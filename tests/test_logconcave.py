import numpy as np
import pytest

from fjohn.blockmat import BlockMat, EPoint
from fjohn.contact import make_tangent_instance
from fjohn.errors import NotProper, SubgradientAmbiguous, ZeroValue
from fjohn.logconcave import (EllipsoidHeightPower, LogConcaveFn, SLiftingPoint,
                              check_proper, eval_h, eval_h_many, grad_h_pow, height_fn,
                              make_log_concave, s_lifting_contains, s_volume_ellipsoid,
                              s_volume_unit_ball)


def unit_ball_point(n=2):
    return EPoint(BlockMat.identity(n, 1.0), np.zeros(n))


class TestEvalH:
    def test_constant(self):
        h = make_log_concave([[0.0, 0.0]], [0.0], 1.0)
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((20, 2)):
            assert eval_h(h, x) == 1.0

    def test_tangent_fixture_contact_value(self):
        for s in (0.5, 1.0, 2.0):
            u = np.array([0.5, -0.2])
            h = make_tangent_instance([u], s)
            assert eval_h(h, u) ** (1.0 / s) == pytest.approx(
                np.sqrt(1 - u @ u), rel=1e-13)

    def test_hemisphere_power_at_origin(self):
        for s in (0.5, 2.0):
            h = LogConcaveFn(2, s, EllipsoidHeightPower(unit_ball_point(), power=s))
            assert eval_h(h, np.zeros(2)) == pytest.approx(1.0)

    def test_domain_cutoff(self):
        h = make_log_concave([[0.0]], [0.0], 1.0, domain_radius=2.0)
        assert eval_h(h, np.array([1.9])) == 1.0
        assert eval_h(h, np.array([2.1])) == 0.0


class TestGrad:
    def test_constant_zero(self):
        h = make_log_concave([[0.0, 0.0]], [0.0], 1.0)
        assert np.allclose(grad_h_pow(h, np.ones(2), 1.0), 0.0)

    def test_single_piece_closed_form(self):
        a, b, s = np.array([0.7, -0.3]), 0.2, 1.7
        h = make_log_concave([a], [b], s)
        rng = np.random.default_rng(1)
        for x in rng.standard_normal((10, 2)):
            psi = a @ x + b
            want = -(a / s) * np.exp(-psi / s)
            assert np.allclose(grad_h_pow(h, x, s), want, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = make_tangent_instance([[0.5, 0.0], [-0.3, 0.4], [0.0, -0.6]], 1.5)
        s = 1.5
        checked = 0
        while checked < 100:
            x = rng.uniform(-0.9, 0.9, size=2)
            try:
                g = grad_h_pow(h, x, s)
            except SubgradientAmbiguous:
                continue
            fd = np.zeros(2)
            step = 1e-6
            ok = True
            for i in range(2):
                e = np.zeros(2)
                e[i] = step
                try:
                    fp = eval_h(h, x + e) ** (1 / s)
                    fm = eval_h(h, x - e) ** (1 / s)
                except ZeroValue:
                    ok = False
                    break
                fd[i] = (fp - fm) / (2 * step)
            if not ok:
                continue
            # skip points where a kink sits inside the difference stencil
            vals = h.form.a @ x + h.form.b
            top = np.sort(vals)[-2:]
            if top[1] - top[0] < 10 * step * np.max(np.abs(h.form.a)):
                continue
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(g), 1e-12)
            checked += 1

    def test_kink_ambiguity(self):
        h = make_log_concave([[1.0], [-1.0]], [0.0, 0.0], 1.0)
        with pytest.raises(SubgradientAmbiguous):
            grad_h_pow(h, np.zeros(1), 1.0)

    def test_zero_value(self):
        h = make_log_concave([[0.0]], [0.0], 1.0, domain_radius=1.0)
        with pytest.raises(ZeroValue):
            grad_h_pow(h, np.array([1.5]), 1.0)


class TestHeightFn:
    def test_unit_ball_center(self):
        assert height_fn(unit_ball_point(), np.zeros(2)) == pytest.approx(1.0)

    def test_unit_ball_boundary(self):
        assert height_fn(unit_ball_point(), np.array([1.0, 0.0])) == 0.0

    def test_scaled(self):
        E = EPoint(BlockMat(2 * np.eye(2), 3.0), np.zeros(2))
        want = 3.0 * np.sqrt(3.0) / 2.0
        assert height_fn(E, np.array([1.0, 0.0])) == pytest.approx(want, rel=1e-12)

    def test_log_concave_and_support(self):
        E = EPoint(BlockMat(np.array([[2.0, 0.3], [0.3, 1.0]]), 1.7),
                   np.array([0.1, -0.2]))
        rng = np.random.default_rng(4)
        for _ in range(2000):
            x, y = rng.uniform(-3, 3, size=(2, 2))
            lam = rng.uniform(0, 1)
            hx, hy = height_fn(E, x), height_fn(E, y)
            hmid = height_fn(E, lam * x + (1 - lam) * y)
            assert hmid >= hx**lam * hy ** (1 - lam) - 1e-12
        # vanishes outside the shadow ellipsoid
        A, a = E.mat.diag, E.shift
        for _ in range(200):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            assert height_fn(E, a + A @ d * 1.0001) == 0.0


class TestSLifting:
    def test_inside(self):
        h = make_log_concave([[0.0, 0.0]], [0.0], 1.0)
        assert s_lifting_contains(h, SLiftingPoint(np.zeros(2), 0.5), 1.0)

    def test_outside(self):
        h = make_log_concave([[0.0, 0.0]], [0.0], 1.0)
        assert not s_lifting_contains(h, SLiftingPoint(np.zeros(2), 1.5), 1.0)

    def test_tangency_boundary(self):
        u = np.array([0.5])
        h = make_tangent_instance([u], 1.0)
        xi = np.sqrt(1 - 0.25)
        assert s_lifting_contains(h, SLiftingPoint(u, xi), 1.0)
        assert not s_lifting_contains(h, SLiftingPoint(u, xi + 1e-9), 1.0)


class TestSVolume:
    def test_line_values(self):
        assert s_volume_unit_ball(1, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-10)
        assert s_volume_unit_ball(1, 0.0) == pytest.approx(2.0, rel=1e-10)

    def test_disk(self):
        assert s_volume_unit_ball(2, 2.0) == pytest.approx(np.pi / 2.0, rel=1e-10)

    def test_fractional_exponent_beta_identity(self):
        # radial reduction has the closed form surface * B(n/2, s/2+1) / 2
        from math import gamma
        for n, s in [(1, 0.5), (2, 0.7), (3, 1.3)]:
            want = np.pi ** (n / 2) * gamma(s / 2 + 1) / gamma(s / 2 + n / 2 + 1)
            assert s_volume_unit_ball(n, s) == pytest.approx(want, rel=1e-8)

    def test_ellipsoid_identity_transform(self):
        E = unit_ball_point()
        assert s_volume_ellipsoid(E, 2.0) == pytest.approx(np.pi / 2.0, rel=1e-10)

    def test_ellipsoid_scaling(self):
        E = EPoint(BlockMat(2.0 * np.eye(1), 1.0), np.zeros(1))
        assert s_volume_ellipsoid(E, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-10)

    def test_unit_sdet_family_invariance(self):
        from fjohn.blockmat import sdet1_param
        rng = np.random.default_rng(6)
        s = 1.3
        vals = []
        for _ in range(5):
            S = rng.standard_normal((2, 2))
            A, alpha = sdet1_param(0.5 * (S + S.T), s)
            vals.append(s_volume_ellipsoid(EPoint(BlockMat(A, alpha), np.zeros(2)), s))
        assert np.ptp(vals) <= 1e-10 * abs(vals[0])


class TestLogConcavity:
    def test_sampled_inequality(self):
        h = make_tangent_instance([[0.4], [-0.7], [0.1]], 1.0)
        rng = np.random.default_rng(8)
        X = rng.uniform(-2, 2, size=(10000, 1))
        Y = rng.uniform(-2, 2, size=(10000, 1))
        lam = rng.uniform(0, 1, size=10000)
        hx = eval_h_many(h, X)
        hy = eval_h_many(h, Y)
        hmid = eval_h_many(h, lam[:, None] * X + (1 - lam[:, None]) * Y)
        assert np.all(hmid - hx**lam * hy ** (1 - lam) >= -1e-12)


class TestProperness:
    def test_cross_pieces_proper(self):
        h = make_tangent_instance([[0.5], [-0.5]], 1.0)
        check_proper(h)

    def test_single_piece_unbounded_not_proper(self):
        h = make_log_concave([[1.0]], [0.0], 1.0)
        with pytest.raises(NotProper):
            check_proper(h)

    def test_single_piece_bounded_proper(self):
        h = make_log_concave([[1.0]], [0.0], 1.0, domain_radius=3.0)
        check_proper(h)

    def test_zero_domain_radius_not_proper(self):
        h = make_log_concave([[1.0]], [0.0], 1.0, domain_radius=0.0)
        with pytest.raises(NotProper):
            check_proper(h)

    def test_positive_span_needs_all_directions(self):
        # gradients spanning only a half-space in n=2
        h = make_log_concave([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0], 1.0)
        with pytest.raises(NotProper):
            check_proper(h)
