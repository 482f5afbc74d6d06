import numpy as np
import pytest

from fjohn.blockmat import BlockMat, EPoint, s_trace, sdet1_param, trace0_array, trace0_basis
from oracles import gram_schmidt_basis, project_trace0, s_det


def _identity_direction(n, s):
    """The distinguished direction (identity block with corner s, zero shift)."""
    return EPoint(BlockMat.identity(n, s))


class TestSDet:
    def test_identity(self):
        assert s_det(BlockMat.identity(2, 1.0), 0.5) == pytest.approx(1.0)

    def test_scaled(self):
        assert s_det(BlockMat(2 * np.eye(2), 4.0), 0.5) == pytest.approx(8.0)

    def test_n1(self):
        assert s_det(BlockMat(np.array([[3.0]]), 2.0), 2.0) == pytest.approx(12.0)

    def test_nonpositive_corner(self):
        with pytest.raises(ValueError):
            s_det(BlockMat(np.eye(2), -1.0), 0.5)
        # integer exponent is fine
        assert s_det(BlockMat(np.eye(2), -1.0), 2.0) == pytest.approx(1.0)


class TestSTrace:
    def test_basic(self):
        assert s_trace(BlockMat(np.eye(2), 3.0), 2.0) == pytest.approx(8.0)

    def test_zero(self):
        assert s_trace(BlockMat(np.zeros((3, 3)), 0.0), 7.0) == 0.0

    def test_trace_zero_member(self):
        assert s_trace(BlockMat(np.array([[1.0]]), -1.0), 1.0) == 0.0

    def test_equals_inner_with_identity_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 4)
            s = rng.uniform(0.3, 3.0)
            M = rng.standard_normal((n, n))
            p = EPoint(BlockMat(M + M.T, rng.standard_normal()), rng.standard_normal(n))
            assert np.dot(p.vec, _identity_direction(n, s).vec) == pytest.approx(
                s_trace(p.mat, s), abs=1e-12)


class TestProjectTrace0:
    def test_kills_identity_direction(self):
        q = project_trace0(_identity_direction(2, 1.5), 1.5)
        assert np.linalg.norm(q.vec) < 1e-14

    def test_fixes_trace_zero(self):
        p = EPoint(BlockMat(np.array([[1.0]]), -1.0), np.array([2.0]))
        q = project_trace0(p, 1.0)
        assert np.linalg.norm(q.vec - p.vec) < 1e-14

    def test_forced_example(self):
        p = EPoint(BlockMat(np.array([[1.0]]), 0.0), np.zeros(1))
        q = project_trace0(p, 1.0)
        assert q.mat.diag[0, 0] == pytest.approx(0.5)
        assert q.mat.corner == pytest.approx(-0.5)
        assert abs(s_trace(q.mat, 1.0)) < 1e-12

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n, s = int(rng.integers(1, 4)), rng.uniform(0.3, 3.0)
            M = rng.standard_normal((n, n))
            p = EPoint(BlockMat(M + M.T, rng.standard_normal()), rng.standard_normal(n))
            q = project_trace0(p, s)
            size = max(1.0, np.linalg.norm(p.vec))
            assert abs(s_trace(q.mat, s)) <= 1e-12 * size
            assert abs(np.dot(q.vec, _identity_direction(n, s).vec)) <= 1e-12 * size
            assert np.linalg.norm(project_trace0(q, s).vec - q.vec) <= 1e-12 * size


class TestSdet1Param:
    def test_zero(self):
        A, alpha = sdet1_param(np.zeros((2, 2)), 1.0)
        assert np.allclose(A, np.eye(2)) and alpha == pytest.approx(1.0)

    def test_log2(self):
        A, alpha = sdet1_param(np.array([[np.log(2.0)]]), 1.0)
        assert A[0, 0] == pytest.approx(2.0)
        assert alpha == pytest.approx(0.5)

    def test_traceless(self):
        t = 0.73
        A, alpha = sdet1_param(np.diag([t, -t]), 2.0)
        assert np.allclose(np.diag(A), [np.exp(t), np.exp(-t)])
        assert alpha == pytest.approx(1.0)

    def test_random_unit_sdet(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n, s = int(rng.integers(1, 4)), rng.uniform(0.3, 3.0)
            S = rng.standard_normal((n, n))
            S = (S + S.T) * (5.0 / max(np.linalg.norm(S + S.T), 1e-9)) * rng.uniform(0, 1)
            A, alpha = sdet1_param(S, s)
            assert np.linalg.eigvalsh(A)[0] > 1e-10 * np.linalg.norm(A) and alpha > 0.0
            assert 1.0 - 1e-12 <= s_det(BlockMat(A, alpha), s) <= 1.0 + 1e-10


class TestSEPlus:
    def test_amgm_convexity(self):
        # convex combinations of cone members keep weighted determinant >= 1
        rng = np.random.default_rng(9)
        for _ in range(300):
            n, s = int(rng.integers(1, 4)), rng.uniform(0.3, 3.0)
            pts = []
            for _ in range(2):
                S = rng.standard_normal((n, n))
                A, alpha = sdet1_param(0.5 * (S + S.T), s)
                scale = rng.uniform(1.0, 2.0)
                pts.append(EPoint(BlockMat(A, alpha * scale ** (1.0 / s))).vec)
            lam = rng.uniform(0.0, 1.0)
            mix = EPoint.from_vec(lam * pts[0] + (1.0 - lam) * pts[1], n).mat
            assert s_det(mix, s) >= 1.0 - 1e-9


class TestTrace0Basis:
    @pytest.mark.parametrize("n,s", [(1, 1.0), (2, 0.5), (3, 2.0)])
    def test_orthonormal_and_complete(self, n, s):
        basis = trace0_basis(n, s)
        assert len(basis) == n * (n + 1) // 2 + n
        for i, bi in enumerate(basis):
            assert abs(s_trace(bi.mat, s)) < 1e-12
            for j, bj in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert np.dot(bi.vec, bj.vec) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.5])
    def test_matches_gram_schmidt(self, n, s):
        got = trace0_array(n, s)
        want = gram_schmidt_basis(n, s)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14
        assert all(np.array_equal(b.vec, row) for b, row in zip(trace0_basis(n, s), got))

    def test_one_shared_read_only_array(self):
        basis = trace0_array(2, 1.5)
        assert trace0_array(2, 1.5) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0] = 1.0


class TestFlatForm:
    def test_round_trip_and_inner(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            M = rng.standard_normal((n, n))
            p = EPoint(BlockMat(M + M.T, rng.standard_normal()), rng.standard_normal(n))
            v = p.vec
            assert v.shape == (n * n + 1 + n,)
            assert np.array_equal(EPoint.from_vec(v, n).vec, v)
            frobenius = np.sum(p.mat.diag**2) + p.mat.corner**2 + np.dot(p.shift, p.shift)
            assert np.dot(p.vec, p.vec) == pytest.approx(frobenius, rel=1e-14)

