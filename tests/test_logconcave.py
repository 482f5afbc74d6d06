import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from scipy import integrate, optimize

from fjohn import logconcave
from fjohn.blockmat import BlockMat, EPoint
from fjohn.contact import cross_fixture, make_tangent_instance, two_level_cross_fixture
from fjohn.errors import NoCertificate, NotProper, SubgradientAmbiguous, ZeroValue
from fjohn.isotropy import _Atoms, counting_measure
from fjohn.logconcave import (EllipsoidHeightPower, LogConcaveFn, SLiftingPoint,
                              _nnls, _positive_span, check_proper, eval_h, eval_h_many,
                              grad_h_pow, height_fn, make_log_concave, s_lifting_contains,
                              s_volume_ellipsoid, s_volume_unit_ball)

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


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


class TestPsiEvalMany:
    @staticmethod
    def _row_major(form, X):
        return np.max(X @ form.a.T + form.b, axis=1)

    def test_shipped_instances(self):
        rng = np.random.default_rng(19)
        for path in sorted(INSTANCES.glob("*.json")):
            inst = json.loads(path.read_text())
            h = make_log_concave([p["a"] for p in inst["h"]["pieces"]],
                                 [p["b"] for p in inst["h"]["pieces"]], inst["s"])
            X = rng.uniform(-2.5, 2.5, size=(20000, h.n))
            got = logconcave.psi_eval_many(h.form, X)
            assert got.shape == (len(X),)
            np.testing.assert_allclose(got, self._row_major(h.form, X), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_max_affine_forms(self, n):
        rng = np.random.default_rng(23 + n)
        for k in (1, 2, 7, 30):
            h = make_log_concave(rng.normal(scale=3.0, size=(k, n)), rng.normal(size=k), 1.0)
            for count in (1, 5, 4099):
                X = rng.normal(scale=2.0, size=(count, n))
                got = logconcave.psi_eval_many(h.form, X)
                np.testing.assert_allclose(got, self._row_major(h.form, X),
                                           rtol=1e-15, atol=0.0)


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

    def test_radial_quadrature(self):
        for n, s in [(1, 1.0), (2, 0.5), (3, 2.0), (3, 1.3)]:
            radial, _ = integrate.quad(lambda t: t ** (n - 1) * (1 - t * t) ** (s / 2), 0, 1,
                                       epsabs=0.0, epsrel=1e-12)
            surface = 2 * np.pi ** (n / 2) / math.gamma(n / 2)
            assert s_volume_unit_ball(n, s) == pytest.approx(surface * radial, rel=1e-10)

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
        with pytest.raises(NotProper, match=r"d = \[0\.0, -1\.0\]"):
            check_proper(h)


def lp_spans(a):
    """Oracle: rank n and a strictly positive convex combination of the rows is 0 (HiGHS LP)."""
    k, n = a.shape
    if k < n + 1 or np.linalg.matrix_rank(a) < n:
        return False
    # max t s.t. sum lam_j a_j = 0, sum lam_j = 1, lam_j >= t
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([a.T, np.zeros((n, 1))]), np.hstack([np.ones(k), 0.0])])
    b_eq = np.zeros(n + 1)
    b_eq[-1] = 1.0
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    res = optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] * (k + 1), method="highs")
    assert res.success, res.message
    return -res.fun > 1e-12


def assert_certificate(a, spans, cert):
    """y > 0 with a^T y = 0 and rank n, or d != 0 with a d <= 0, both relative to the row norms."""
    norms = np.linalg.norm(a, axis=1)
    if spans:
        assert np.linalg.matrix_rank(a) == a.shape[1]
        assert np.all(cert > 0)
        assert np.linalg.norm(a.T @ cert) <= 1e-8 * np.sum(cert * norms)
    else:
        assert np.linalg.norm(cert) > 0
        assert np.all(a @ cert <= 1e-9 * np.linalg.norm(cert) * norms)


def random_gradient_sets(seed, count):
    """Random sets at n = 1-3: plain, biased into a half-space, of rank below n, and thin.

    A thin set lies within a small angle 1e-6...1e-2 on the positive side of
    a hyperplane, so it does not span but its NNLS residual is small; every
    other one of them gains a row on the negative side, which may make it span.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, kind = 1 + i % 3, (i // 3) % 4
        k = int(rng.integers(1, 12))
        a = rng.standard_normal((k, n)) * rng.uniform(0.01, 100.0, size=(k, 1))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        if kind == 1:
            a -= 2.0 * np.minimum(a @ u, 0.0)[:, None] * u  # reflect into <a, u> >= 0
        elif kind == 2:
            a[:, -1] = a[:, :-1] @ rng.standard_normal(n - 1) if n > 1 else 0.0
        elif kind == 3:
            a -= np.outer(a @ u, u)
            a += np.outer(np.linalg.norm(a, axis=1) * 10.0 ** rng.uniform(-6, -2), u)
            if i % 2:
                a = np.vstack([a, -u + 0.1 * rng.standard_normal(n)])
        yield a


def _plane_rotation(n, i, j, angle):
    R = np.eye(n)
    R[i, i] = R[j, j] = np.cos(angle)
    R[i, j], R[j, i] = -np.sin(angle), np.sin(angle)
    return R


def two_level_frames(n):
    """Rotated two-level tight frames: a pair, a triangle and a square, an octahedron and a cube."""
    if n == 1:
        inner = outer = np.array([[1.0], [-1.0]])
        R = np.eye(1)
    elif n == 2:
        tri, sq = np.arange(3) * 2 * np.pi / 3, np.arange(4) * np.pi / 2 + np.pi / 4
        inner = np.stack([np.cos(tri), np.sin(tri)], axis=1)
        outer = np.stack([np.cos(sq), np.sin(sq)], axis=1)
        R = _plane_rotation(2, 0, 1, 0.3)
    else:
        inner = np.vstack([np.eye(3), -np.eye(3)])
        outer = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / np.sqrt(3.0)
        R = _plane_rotation(3, 0, 1, 0.3) @ _plane_rotation(3, 1, 2, 0.7)
    return np.vstack([np.sqrt(0.4) * inner, np.sqrt(0.8) * outer]) @ R.T


def max_affine_instances():
    """(label, h, contact points) for the shipped, fixture and benchmark-style instances."""
    for path in sorted(INSTANCES.glob("*.json")):
        inst = json.loads(path.read_text())
        h = make_log_concave([p["a"] for p in inst["h"]["pieces"]],
                             [p["b"] for p in inst["h"]["pieces"]], inst["s"])
        yield path.stem, h, np.array(inst["contacts"]["points"])
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for s in (1.0, 2.0):
            h, cs, _ = cross_fixture(n, s)
            yield f"cross_n{n}_s{s}", h, cs.points
        h, cs, _ = two_level_cross_fixture(n, 1.0, 0.4, 0.8)
        yield f"two_level_n{n}", h, cs.points
        pts = two_level_frames(n)
        yield f"frames_n{n}", make_tangent_instance(pts, 1.0), pts
        for j in range(4):
            pts = rng.standard_normal((int(rng.integers(1, 3 * n + 3)), n))
            pts *= rng.uniform(0.2, 0.9, size=(len(pts), 1)) / np.linalg.norm(pts, axis=1)[:, None]
            yield f"random_n{n}_{j}", make_tangent_instance(pts, 1.5), pts


class TestNNLS:
    def test_matches_scipy_nnls(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, k = rng.integers(1, 6), rng.integers(1, 12)
            E, f = rng.standard_normal((m, k)), rng.standard_normal(m)
            z = _nnls(E, f)
            _, want = optimize.nnls(E, f)
            assert np.all(z >= 0.0)
            assert np.linalg.norm(E @ z - f) == pytest.approx(want, rel=1e-10, abs=1e-12)
            w = E.T @ (f - E @ z)  # optimality: w <= 0, and w = 0 where z > 0
            assert np.all(w <= 1e-10)
            assert np.all(np.abs(w[z > 0]) <= 1e-10)


class TestPositiveSpan:
    def test_random_sets_agree_with_lp(self):
        verdicts = []
        for a in random_gradient_sets(seed=5, count=600):
            spans, cert = _positive_span(a)
            assert spans == lp_spans(a), a
            assert_certificate(a, spans, cert)
            verdicts.append(spans)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_instances_agree_with_lp(self):
        """Piece gradients (properness) and design matrices (coercivity) of max-affine h."""
        seen = set()
        for label, h, pts in max_affine_instances():
            for what, a in (("gradients", h.form.a),
                            ("phi", _Atoms(h, h.s, counting_measure(pts)).phi)):
                spans, cert = _positive_span(a)
                assert spans == lp_spans(a), (label, what)
                assert_certificate(a, spans, cert)
                seen.add((what, spans))
        assert seen == {(w, v) for w in ("gradients", "phi") for v in (True, False)}

    def test_axis_cross_design_matrix_is_rank_deficient(self):
        h, cs, _ = two_level_cross_fixture(2, 1.0, 0.4, 0.8)
        phi = _Atoms(h, 1.0, counting_measure(cs.points)).phi
        spans, d = _positive_span(phi)
        assert not spans
        assert np.linalg.norm(phi @ d) <= 1e-12

    def test_half_space_direction(self):
        spans, d = _positive_span(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
        assert not spans
        assert d / np.linalg.norm(d) == pytest.approx([0.0, -1.0], abs=1e-15)

    def test_basis_never_spans(self):
        spans, d = _positive_span(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert not spans
        assert np.all(np.array([[2.0, 0.0], [0.0, 3.0]]) @ d < 0)

    def test_scaling_rows_keeps_the_verdict(self):
        a = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        for scale in ([1.0, 1.0, 1.0], [1e-6, 1.0, 1e6]):
            spans, y = _positive_span(a * np.array(scale)[:, None])
            assert spans
            assert_certificate(a * np.array(scale)[:, None], spans, y)

    def test_unchecked_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(logconcave, "_nnls", lambda E, f: np.zeros(E.shape[1]))
        with pytest.raises(NoCertificate):
            _positive_span(np.array([[1.0], [-1.0], [-1.0]]))
