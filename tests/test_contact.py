import numpy as np
import pytest

from fjohn.contact import (DecompositionReport, cross_fixture, detect_contacts,
                           make_tangent_instance, two_level_cross_fixture, verify_decomposition)
from fjohn.errors import InfeasibleWeights, NotJohnPosition, PointOnBoundary
from fjohn.isotropy import DiscreteMeasure, check_isotropy
from fjohn.logconcave import eval_h_many, make_log_concave
from oracles import (grid_candidates, grid_contacts, hemisphere_gap, merged_contact_set,
                     pairwise_contact_set)


class TestMakeTangentInstance:
    def test_piece_coefficients(self, expected):
        h = make_tangent_instance([[0.5]], 1.0)
        assert h.form.a[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert h.form.b[0] == pytest.approx(expected["tangent_intercept_u05_s1"]["value"],
                                            abs=expected["tangent_intercept_u05_s1"]["tol"])
        assert eval_h_many(h, np.array([[0.5]]))[0] == pytest.approx(np.sqrt(0.75), rel=1e-13)

    def test_apex_piece(self):
        h = make_tangent_instance([[0.0]], 1.0)
        assert h.form.a[0, 0] == 0.0
        assert h.form.b[0] == 0.0
        xs = np.linspace(-0.99, 0.99, 201)[:, None]
        assert np.all(hemisphere_gap(h, 1.0, xs) >= -1e-14)

    def test_symmetric_points_symmetric_h(self):
        h = make_tangent_instance([[0.6], [-0.6]], 2.0)
        xs = np.linspace(-1.5, 1.5, 301)[:, None]
        assert np.allclose(eval_h_many(h, xs), eval_h_many(h, -xs))

    def test_dominates_with_equality_only_at_points(self):
        pts = np.array([[0.5], [-0.3]])
        h = make_tangent_instance(pts, 1.0)
        xs = np.linspace(-0.999, 0.999, 2001)[:, None]
        gaps = hemisphere_gap(h, 1.0, xs)
        assert np.all(gaps >= -1e-14)
        far = np.min(np.abs(xs - pts.ravel()), axis=1) > 0.05
        assert np.min(gaps[far]) > 1e-4

    def test_boundary_point_rejected(self):
        with pytest.raises(PointOnBoundary):
            make_tangent_instance([[1.0]], 1.0)


class TestCrossFixture:
    def test_n1_s1_arithmetic(self):
        h, cs, w = cross_fixture(1, 1.0)
        rho = np.sqrt(0.5)
        assert np.allclose(sorted(cs.points.ravel()), [-rho, rho])
        assert np.allclose(w, 1.0)
        rep = verify_decomposition(cs.points, w, h, 1.0)
        assert rep.ok and max(rep.residual_a, rep.residual_b,
                              rep.residual_c, rep.residual_d) <= 1e-12

    def test_n2_s2(self):
        h, cs, w = cross_fixture(2, 2.0)
        assert np.allclose(np.sum(cs.points**2, axis=1), 0.5)
        rep = verify_decomposition(cs.points, w, h, 2.0)
        assert rep.residual_b <= 1e-12 and rep.residual_c <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 2.0, 3.7])
    def test_radius_identity_regression(self, n, s):
        # rho^2 = n/(n+s) is equivalent to n(1-rho^2)/rho^2 = s
        rho_sq = n / (n + s)
        assert n * (1 - rho_sq) / rho_sq == pytest.approx(s, rel=1e-12)
        h, cs, w = cross_fixture(n, s)
        rep = verify_decomposition(cs.points, w, h, s)
        assert rep.ok

    def test_unit_multiplier(self):
        for n, s in [(1, 1.0), (2, 2.0), (3, 0.5)]:
            _, cs, w = cross_fixture(n, s)
            iso = check_isotropy(DiscreteMeasure(cs.points, w), s)
            assert iso.lam == pytest.approx(1.0, abs=1e-12)
            assert iso.residual_iso <= 1e-12
            assert iso.residual_center <= 1e-12


class TestTwoLevelCrossFixture:
    def test_weights_n1_s1(self, expected):
        h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        want = expected["two_level_weights_n1_s1"]["value"]
        assert np.allclose(sorted(set(np.round(w, 9))), sorted([want[1], want[0]]))
        rep = verify_decomposition(cs.points, w, h, 1.0)
        assert rep.ok
        assert max(rep.residual_b, rep.residual_c, rep.residual_d) <= 1e-10

    def test_symmetry_gives_zero_center(self):
        h, cs, w = two_level_cross_fixture(2, 1.5, 0.3, 0.7)
        rep = verify_decomposition(cs.points, w, h, 1.5)
        assert rep.residual_d <= 1e-15

    def test_bad_params(self):
        with pytest.raises(InfeasibleWeights):
            two_level_cross_fixture(1, 1.0, 0.8, 0.4)
        with pytest.raises(InfeasibleWeights):
            two_level_cross_fixture(1, 1.0, 0.4, 1.2)

    def test_infeasible_weights(self):
        # both radii above the single-level radius force a negative weight
        with pytest.raises(InfeasibleWeights):
            two_level_cross_fixture(1, 1.0, 0.6, 0.9)


class TestVerifyDecomposition:
    def test_perturbed_weight_fails(self):
        h, cs, w = cross_fixture(2, 1.0)
        w2 = w.copy()
        w2[0] *= 1.1
        rep = verify_decomposition(cs.points, w2, h, 1.0)
        assert rep.residual_b > 1e-3 and rep.residual_c > 1e-3
        assert not rep.ok

    def test_uniform_scaling(self):
        h, cs, w = cross_fixture(2, 1.0)
        t = 1.37
        rep = verify_decomposition(cs.points, t * w, h, 1.0)
        assert rep.residual_d <= 1e-14
        assert rep.residual_b == pytest.approx(abs(t - 1) * np.sqrt(2), rel=1e-10)

    def test_nan_residual_fails(self):
        # ok and the report's pass object come from one rule, under which NaN fails
        rep = DecompositionReport(0.0, float("nan"), 0.0, 0.0, True)
        assert not rep.ok
        assert rep.as_dict()["pass"] == {"a": True, "b": False, "c": True, "d": True}
        assert rep.as_dict()["ok"] is False


class TestDetectContacts:
    def test_nan_gap_names_its_piece(self):
        # 4|a|^2 overflows: the tangency point and gap are NaN, and the piece was skipped
        h = cross_fixture(2, 2.0)[0]
        a = h.form.a.copy()
        a[0] = [1e308, 0.0]
        big = make_log_concave(a, h.form.b, 2.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotJohnPosition, match="gap of piece 0 is not a number"):
                detect_contacts(big, 2.0)

    def test_single_tangent_point(self):
        h = make_tangent_instance([[0.5]], 1.0)
        cs = detect_contacts(h, 1.0, grid_per_axis=101)
        assert cs.points.shape[0] == 1
        assert abs(cs.points[0, 0] - 0.5) <= 1e-8

    def test_two_level_returns_all_four(self):
        h, cset, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        cs = detect_contacts(h, 1.0, grid_per_axis=201)
        assert cs.points.shape[0] == 4
        found = np.sort(cs.points.ravel())
        want = np.sort(cset.points.ravel())
        assert np.max(np.abs(found - want)) <= 1e-6

    def test_n2_cross_returns_all(self):
        h, cset, w = cross_fixture(2, 2.0)
        cs = detect_contacts(h, 2.0, grid_per_axis=41)
        assert cs.points.shape[0] == 4
        dmax = max(min(np.linalg.norm(p - q) for q in cset.points) for p in cs.points)
        assert dmax <= 1e-6

    def test_n2_off_axis_tangent_points(self):
        pts = np.array([[0.3, 0.4], [-0.5, 0.1], [0.1, -0.6]])
        h = make_tangent_instance(pts, 1.5)
        cs = detect_contacts(h, 1.5, grid_per_axis=61)
        assert cs.points.shape[0] == 3
        dmax = max(min(np.linalg.norm(p - q) for q in pts) for p in cs.points)
        assert dmax <= 1e-6

    def test_not_john_position(self):
        # shrinking h pushes it below the hemisphere at the contact points
        h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        shrunk = make_log_concave(h.form.a, h.form.b - np.log(0.9), 1.0)
        with pytest.raises(NotJohnPosition):
            detect_contacts(shrunk, 1.0, grid_per_axis=101)

    def test_no_contact_not_john(self):
        # lowering every b lifts h off the hemisphere everywhere: nothing touches
        h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        lifted = make_log_concave(h.form.a, h.form.b - 0.1, 1.0)
        with pytest.raises(NotJohnPosition, match="touches the hemisphere nowhere"):
            detect_contacts(lifted, 1.0)

    def test_domain_radius_below_one_not_john(self):
        # the contacts lie inside radius 0.9, but h vanishes on 0.9 < |x| < 1
        h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        cut = make_log_concave(h.form.a, h.form.b, 1.0, domain_radius=0.9)
        with pytest.raises(NotJohnPosition):
            detect_contacts(cut, 1.0)

    def test_close_contacts_not_merged(self):
        # -0.61792 and -0.60585 are about one step of a 201 grid apart
        pts = np.array([-0.82355, -0.69337, -0.61792, -0.60585, 0.59407, 0.83231])[:, None]
        h = make_tangent_instance(pts, 1.5)
        cs = detect_contacts(h, 1.5, grid_per_axis=201)
        assert cs.points.shape == (6, 1)
        assert np.max(np.abs(cs.points - pts)) <= 1e-12

    def test_merge_is_greedy_in_candidate_order(self):
        # a candidate goes only if it lies within 1e-6 of an earlier kept one, so a
        # chain 0.8e-6 apart keeps its ends when it starts at an end, and only its
        # middle when it starts there; the kept points come out sorted
        h = two_level_cross_fixture(1, 1.0, 0.4, 0.8)[0]
        a, b, c = 0.5, 0.5 + 0.8e-6, 0.5 + 1.6e-6
        for order, kept in (([c, a, b], [a, c]), ([b, a, c], [b])):
            cs = merged_contact_set(h, 1.0, np.array(order)[:, None], gap_tol=1.0)
            assert cs.points[:, 0].tolist() == kept


class TestMergeMatchesPairLoop:
    """`_merge_contacts`'s distance-matrix merge keeps what the pair loop keeps, in its order."""

    @staticmethod
    def assert_same(h, s, candidates, gap_tol=1.0):
        got = merged_contact_set(h, s, candidates, gap_tol)
        want = pairwise_contact_set(h, s, candidates, gap_tol)
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()
        assert got.h_values.tobytes() == want.h_values.tobytes()
        return got

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_clusters_and_pairs(self, n):
        h = two_level_cross_fixture(n, 1.0, 0.4, 0.8)[0]
        rng = np.random.default_rng(n)
        centers = rng.uniform(-0.5, 0.5, size=(5, n))
        clusters = np.repeat(centers, 4, axis=0) + 1e-7 * rng.standard_normal((20, n))
        step = rng.standard_normal((5, n))
        step *= 2e-6 / np.linalg.norm(step, axis=1, keepdims=True)
        pairs = np.vstack([centers + 0.1, centers + 0.1 + step])
        for cands, kept in ((clusters, 5), (pairs, 10)):
            for perm in (np.arange(len(cands)), rng.permutation(len(cands))):
                assert len(self.assert_same(h, 1.0, cands[perm]).points) == kept

    def test_chain_depends_on_order(self):
        # links 0.8e-6 apart: which links survive depends on where the walk starts
        h = two_level_cross_fixture(2, 1.0, 0.4, 0.8)[0]
        chain = np.array([0.3, -0.2]) + np.outer(np.arange(6) * 0.8e-6, [0.6, 0.8])
        assert len(self.assert_same(h, 1.0, chain).points) == 3
        assert len(self.assert_same(h, 1.0, chain[[1, 4, 0, 2, 3, 5]]).points) == 2
        rng = np.random.default_rng(7)
        for _ in range(40):
            self.assert_same(h, 1.0, chain[rng.permutation(6)])

    def test_grid_oracle_candidates(self):
        # two grid minimizers refine onto the same contact, which the merge joins
        rng = np.random.default_rng(200)
        pts = _spread_points(rng, 2, 4, 0.1)
        h = make_tangent_instance(pts, 1.5)
        cands = grid_candidates(h, 1.5, 61)
        cs = self.assert_same(h, 1.5, cands, gap_tol=1e-8)
        assert len(cands) > len(cs.points) == 4


def _spread_points(rng, n, count, min_dist):
    """Seeded points with |u| <= 0.85, pairwise at least min_dist apart."""
    pts = []
    while len(pts) < count:
        u = rng.uniform(-0.85, 0.85, size=n)
        if np.linalg.norm(u) <= 0.85 and all(np.linalg.norm(u - q) >= min_dist for q in pts):
            pts.append(u)
    return np.array(sorted(pts, key=tuple))


class TestClosedFormMatchesGrid:
    @pytest.mark.parametrize("n,grid", [(1, 201), (2, 61), (3, 21)])
    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_random_tangent_instances(self, n, grid, s):
        rng = np.random.default_rng(100 * n + int(10 * s))
        pts = _spread_points(rng, n, 4, 3 * 2.0 / (grid - 1))
        h = make_tangent_instance(pts, s)
        exact = detect_contacts(h, s)
        scan = grid_contacts(h, s, grid)
        assert exact.points.shape == pts.shape == scan.points.shape
        assert np.max(np.abs(exact.points - pts)) <= 1e-12
        assert np.max(np.abs(exact.points - scan.points)) <= 1e-6
        assert np.allclose(exact.h_values, scan.h_values, rtol=0, atol=1e-6)
