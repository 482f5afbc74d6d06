import itertools
import json
import pathlib

import numpy as np
import pytest
from scipy import optimize

from fjohn import logconcave
from fjohn.contact import cross_fixture, make_tangent_instance, two_level_cross_fixture
from fjohn.errors import NoCertificate, NotProper
from fjohn.isotropy import _Atoms, counting_measure
from fjohn.logconcave import (_nnls, _positive_span, check_proper, eval_h_many,
                              make_log_concave)
from oracles import lp_spans

INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


class TestEvalH:
    def test_constant(self):
        h = make_log_concave([[0.0, 0.0]], [0.0], 1.0)
        rng = np.random.default_rng(0)
        for x in rng.standard_normal((20, 2)):
            assert eval_h_many(h, x[None])[0] == 1.0

    def test_tangent_fixture_contact_value(self):
        for s in (0.5, 1.0, 2.0):
            u = np.array([0.5, -0.2])
            h = make_tangent_instance([u], s)
            assert eval_h_many(h, u[None])[0] ** (1.0 / s) == pytest.approx(
                np.sqrt(1 - u @ u), rel=1e-13)

    def test_domain_cutoff(self):
        h = make_log_concave([[0.0]], [0.0], 1.0, domain_radius=2.0)
        assert eval_h_many(h, np.array([[1.9]]))[0] == 1.0
        assert eval_h_many(h, np.array([[2.1]]))[0] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_domain_cutoff_matches_np_sum_bits(self, n):
        # the radius test sums squares column by column; np.sum's rows are the reference
        rng = np.random.default_rng(41 + n)
        radius = 1.3
        X = rng.normal(size=(50000, n))
        X[::2] *= radius / np.linalg.norm(X[::2], axis=1)[:, None]  # on the sphere, up to rounding
        X[1::2] *= rng.uniform(0.9, 1.1, size=(len(X[1::2]), 1))
        h = make_log_concave(rng.normal(size=(5, n)), rng.normal(size=5), 1.0, radius)
        want = np.where(np.sum(X * X, axis=1) <= radius**2,
                        np.exp(-logconcave.psi_eval_many(h.form, X)), 0.0)
        assert 0 < np.count_nonzero(want == 0.0) < len(X)
        assert np.array_equal(logconcave._sq_norms(X), np.sum(X * X, axis=1))
        assert np.array_equal(eval_h_many(h, X), want)


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

    def test_a_huge_row_keeps_the_rank(self):
        # the rank is taken on unit rows: against the singular value 1e308 the others
        # fell below the rank threshold, and these slopes read as not spanning
        a = np.array([[1e308, 0.0], [-2.83, 0.0], [0.0, 2.83], [0.0, -2.83]])
        spans, y = _positive_span(a)
        assert spans and np.all(y > 0.0)
        norms = np.array([1e308, 2.83, 2.83, 2.83])
        weights = norms * y  # on the unit rows
        assert np.linalg.norm((a / norms[:, None]).T @ weights) <= 1e-12 * weights.sum()

    def test_unchecked_certificate_raises(self, monkeypatch):
        # the closed form gives the row 1.0 a weight of -2, so the (patched) NNLS decides
        monkeypatch.setattr(logconcave, "_nnls", lambda E, f: np.zeros(E.shape[1]))
        with pytest.raises(NoCertificate):
            _positive_span(np.array([[1.0], [0.01], [0.01], [0.01], [-0.01]]))

    @pytest.mark.parametrize("nonzero", [-0.9807074973666587, 0.9137633127354792, 14.29])
    def test_zero_rows_and_one_row_do_not_span(self, nonzero):
        # the projection leaves the nonzero row a weight of 0 or of rounding size
        # (4.4e-16 for the first after two zero rows), with a residual that passes:
        # SPAN_FLOOR is what refuses it
        for zeros in (1, 2, 5):
            a = np.vstack([np.zeros((zeros, 1)), [[nonzero]]])
            spans, d = _positive_span(a)
            assert not spans
            assert_certificate(a, spans, d)

    def test_pipeline_inputs_need_no_nnls(self, monkeypatch):
        """The gradients `check_proper` takes and the design matrices of the shipped
        instances, the two-level cross and rotated two-level frames are decided by the
        rank test or the closed form alone."""
        def no_nnls(E, f):
            raise AssertionError("NNLS reached")

        rng = np.random.default_rng(23)
        cases = []
        for path in sorted(INSTANCES.glob("*.json")):
            inst = json.loads(path.read_text())
            h = make_log_concave([p["a"] for p in inst["h"]["pieces"]],
                                 [p["b"] for p in inst["h"]["pieces"]], inst["s"],
                                 inst["h"]["domain_radius"])
            cases.append((h, np.array(inst["contacts"]["points"])))
        h, cs, _ = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        cases.append((h, cs.points))
        for n in (1, 2, 3):
            for _ in range(3):
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                pts = two_level_frames(n) @ q
                cases.append((make_tangent_instance(pts, 1.0), pts))
        phis = [_Atoms(h, h.s, counting_measure(pts)).phi for h, pts in cases]
        monkeypatch.setattr(logconcave, "_nnls", no_nnls)
        verdicts = set()
        for (h, _), phi in zip(cases, phis):
            check_proper(h)
            verdicts.add(_positive_span(phi)[0])
        assert verdicts == {True, False}
