import json
import pathlib

import numpy as np
import pytest

from fjohn import cli
from fjohn.blockmat import BlockMat, EPoint, trace0_array
from fjohn.contact import (cross_fixture, detect_contacts, make_tangent_instance,
                           two_level_cross_fixture)
from fjohn.errors import AtomOffContactSet, DivergingIterates, NotConverged
from fjohn.isotropy import (WITHIN_TOL, DiscreteMeasure, MinimizerResult, _Atoms, _newton,
                            calibrated_measure, check_isotropy, coercivity_witness,
                            counting_measure, extract_measure, functional_gradient,
                            limit_reference, minimize_functional)
from fjohn.logconcave import _positive_span, psi_gradient
from fjohn.profiles import (ConvolutionProfile, LimitProfile, PiecewiseLinear, ProfilePair,
                            canonical_pair)
from oracles import functional_value, lp_spans, project_trace0

F = ConvolutionProfile(canonical_pair())
S = 1.0
INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


def ungated(h, s, nu):
    """`minimize_functional`'s Newton loop from the origin, without its coercivity gate.

    The result's multiplier is NaN: the tests that reach the loop this way do not read it.
    """
    at = _Atoms(h, s, nu)
    c, _, value, gnorm, it, evals = _newton(at.phi, at.w, F, np.zeros(len(at.basis)),
                                            1e-10, 2000)
    return MinimizerResult(point=EPoint.from_vec(c @ at.basis, at.n), value=value,
                           projected_grad_norm=gnorm, lam=float("nan"), iterations=it,
                           converged=True, evaluations=evals, stop_reason=WITHIN_TOL)


@pytest.fixture(scope="module")
def two_level():
    h, cs, w = two_level_cross_fixture(1, S, 0.4, 0.8)
    return h, cs, w


class TestFunctionalValue:
    def test_counting_at_origin(self, two_level, expected):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        val = functional_value(h, S, nu, F, EPoint.from_vec(np.zeros(3), 1))
        exp = expected["functional_value_at_zero_n1_s1"]
        assert val == pytest.approx(exp["value"], abs=exp["tol"])

    def test_pure_vertical_shift(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        hp = cs.h_values
        rng = np.random.default_rng(0)
        for beta in rng.uniform(-3, 3, size=10):
            p = EPoint(BlockMat(np.zeros((1, 1)), beta), np.zeros(1))
            want = float(F(beta)) * float(np.sum(hp))
            assert functional_value(h, S, nu, F, p) == pytest.approx(want, rel=1e-12)

    def test_midpoint_convexity(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        basis = trace0_array(1, S)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            p = EPoint.from_vec(rng.normal(scale=2.0, size=len(basis)) @ basis, 1)
            q = EPoint.from_vec(rng.normal(scale=2.0, size=len(basis)) @ basis, 1)
            vm = functional_value(h, S, nu, F, EPoint.from_vec(0.5 * (p.vec + q.vec), 1))
            assert vm <= 0.5 * (functional_value(h, S, nu, F, p)
                                + functional_value(h, S, nu, F, q)) + 1e-10

    def test_atom_off_contact_set(self, two_level):
        h, cs, w = two_level
        nu = DiscreteMeasure(np.array([[0.1]]), np.array([1.0]))
        with pytest.raises(AtomOffContactSet):
            functional_value(h, S, nu, F, EPoint.from_vec(np.zeros(3), 1))


class TestFunctionalGradient:
    def test_matches_finite_differences(self):
        fixtures = [
            two_level_cross_fixture(1, 1.0, 0.4, 0.8),
            two_level_cross_fixture(1, 2.0, 0.3, 0.7),
            two_level_cross_fixture(2, 1.0, 0.4, 0.8),
        ]
        rng = np.random.default_rng(2)
        s_list = [1.0, 2.0, 1.0]
        checked = 0
        for (h, cs, w), s in zip(fixtures, s_list):
            nu = counting_measure(cs.points)
            n = cs.points.shape[1]
            basis = trace0_array(n, s)
            for _ in range(34):
                p = EPoint.from_vec(rng.normal(scale=1.0, size=len(basis)) @ basis, n)
                d = rng.normal(size=len(basis)) @ basis
                d = d * (1.0 / np.linalg.norm(d))
                g = functional_gradient(h, s, nu, F, p)
                step = 1e-6
                fd = (functional_value(h, s, nu, F, EPoint.from_vec(p.vec + step * d, n))
                      - functional_value(h, s, nu, F, EPoint.from_vec(p.vec - step * d, n))
                      ) / (2 * step)
                want = np.dot(g.vec, d)
                assert fd == pytest.approx(want, rel=1e-5, abs=1e-9)
                checked += 1
        assert checked >= 100

    def test_calibrated_gradient_is_identity_direction(self, two_level):
        h, cs, w = two_level
        nu = calibrated_measure(cs.points, w, h, S)
        g = functional_gradient(h, S, nu, F, EPoint.from_vec(np.zeros(3), 1))
        # conditions (b),(c),(d) collapse the gradient onto the identity direction
        assert g.mat.diag[0, 0] == pytest.approx(float(F.deriv(0.0)), rel=1e-12)
        assert g.mat.corner == pytest.approx(S * float(F.deriv(0.0)), rel=1e-12)
        assert np.allclose(g.shift, 0.0, atol=1e-14)

    def test_dead_zone_zero_gradient(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        p = EPoint(BlockMat(np.zeros((1, 1)), -3.0), np.zeros(1))
        g = functional_gradient(h, S, nu, F, p)
        assert np.linalg.norm(g.vec) == 0.0


class TestMinimize:
    def test_not_converged_carries_the_record(self):
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        h = cli.build_h(inst)
        nu = cli.build_nu(inst, h)
        with pytest.raises(NotConverged) as caught:
            minimize_functional(h, inst["s"], nu, F, max_iter=2)
        exc = caught.value
        assert str(exc) == "projected gradient 2.965e-01 above tol 1.0e-10"
        assert exc.reason == "max_iter" and exc.iterations == 2
        assert f"{exc.grad_norm:.3e}" == "2.965e-01"
        # one value at the start and at least one Armijo trial per step
        full = minimize_functional(h, inst["s"], nu, F)
        assert 3 <= exc.evaluations < full.evaluations and full.iterations > 2

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_raises_before_any_work(self, two_level, monkeypatch,
                                                       max_iter):
        h, cs, _ = two_level
        built = []
        monkeypatch.setattr(_Atoms, "__init__", lambda self, *args: built.append(1))
        with pytest.raises(ValueError, match=f"max_iter must be at least 1, got {max_iter}"):
            minimize_functional(h, S, counting_measure(cs.points), F, max_iter=max_iter)
        assert built == []

    def test_calibrated_recovers_construction(self, two_level):
        h, cs, w = two_level
        nu = calibrated_measure(cs.points, w, h, S)
        res = minimize_functional(h, S, nu, F)
        assert res.converged
        assert np.linalg.norm(res.point.vec) <= 1e-8
        assert res.lam == pytest.approx(1.0, abs=1e-8)
        mu = extract_measure(res, h, S, nu, F)
        assert np.allclose(np.sort(mu.masses), [0.25, 0.25, 0.75, 0.75], atol=1e-8)

    def test_counting_minimizer(self, two_level, expected):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        res = minimize_functional(h, S, nu, F)
        assert res.converged and res.projected_grad_norm <= 1e-10
        assert np.linalg.norm(res.point.vec) > 0.1
        exp_m = expected["counting_min_M_n1_s1"]
        assert res.point.mat.diag[0, 0] == pytest.approx(exp_m["value"], abs=1e-8)
        exp_v = expected["counting_min_value_n1_s1"]
        assert res.value == pytest.approx(exp_v["value"], abs=1e-9)
        exp_l = expected["counting_lambda_n1_s1"]
        assert res.lam == pytest.approx(exp_l["value"], abs=1e-8)
        assert res.lam > 0.0
        mu = extract_measure(res, h, S, nu, F)
        iso = check_isotropy(mu, S)
        assert iso.residual_iso <= 1e-8
        assert iso.residual_center <= 1e-10

    def test_cross_fixture_reports_flat_direction(self):
        h, cs, w = cross_fixture(1, 1.0)
        nu = counting_measure(cs.points)
        with pytest.raises(DivergingIterates) as exc:
            minimize_functional(h, 1.0, nu, F)
        d = exc.value.direction
        flat = project_trace0(EPoint(BlockMat(np.eye(1), -1.0), np.zeros(1)), 1.0).vec
        flat = flat * (1.0 / np.linalg.norm(flat))
        align = abs(np.dot(d.vec, flat))
        assert align == pytest.approx(1.0, abs=1e-9)

    def test_cross_fixture_override_still_stationary_at_origin(self):
        # the origin happens to be stationary for the counting measure; the
        # coercivity gate, not descent, is what flags the degeneracy
        h, cs, w = cross_fixture(1, 1.0)
        nu = counting_measure(cs.points)
        res = ungated(h, 1.0, nu)
        assert res.converged
        assert np.linalg.norm(res.point.vec) <= 1e-10

    def test_stationarity_implies_isotropy_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            r1 = rng.uniform(0.15, 0.45)
            r2 = rng.uniform(r1 + 0.1, min(2 * r1 + 0.2, 0.9))
            try:
                h, cs, w = two_level_cross_fixture(1, 1.0, r1, r2)
            except Exception:
                continue
            nu = counting_measure(cs.points)
            res = minimize_functional(h, 1.0, nu, F)
            mu = extract_measure(res, h, 1.0, nu, F)
            iso = check_isotropy(mu, 1.0)
            assert iso.residual_iso <= 1e-8
            assert iso.residual_center <= 1e-10
            assert res.lam > 0.0


def off_axis_two_level(n, rho1_sq=0.4, rho2_sq=0.8):
    """Tangent h and counting measure on two tight-frame levels, turned off the axes.

    The levels are a +-pair at n = 1, a triangle and a square at n = 2, an
    octahedron and a cube at n = 3.
    """
    if n == 1:
        inner_level = outer_level = np.array([[1.0], [-1.0]])
    elif n == 2:
        tri = np.arange(3) * 2.0 * np.pi / 3.0 + 0.3
        sq = np.arange(4) * np.pi / 2.0 + np.pi / 4.0 + 0.3
        inner_level = np.stack([np.cos(tri), np.sin(tri)], axis=1)
        outer_level = np.stack([np.cos(sq), np.sin(sq)], axis=1)
    else:
        rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        inner_level = np.vstack([np.eye(3), -np.eye(3)]) @ rot.T
        cube = np.array(np.meshgrid(*[[-1.0, 1.0]] * 3)).reshape(3, -1).T / np.sqrt(3.0)
        outer_level = cube @ rot.T
    pts = np.vstack([np.sqrt(rho1_sq) * inner_level, np.sqrt(rho2_sq) * outer_level])
    return make_tangent_instance(pts, S), counting_measure(pts)


class TestNewton:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_off_axis_converges_in_few_steps(self, n):
        h, nu = off_axis_two_level(n)
        res = minimize_functional(h, S, nu, F)
        assert res.iterations <= 10
        assert res.projected_grad_norm <= 1e-10
        iso = check_isotropy(extract_measure(res, h, S, nu, F), S)
        assert iso.residual_iso <= 1e-8
        assert iso.residual_center <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_custom_pair_converges(self, n):
        # a piecewise-linear pair other than the canonical one: f's slope
        # triples at 0.5 and g has a kink at 0
        steep = ProfilePair(
            f=PiecewiseLinear.from_knots([-1.0, 0.5], [0.0, 1.5], right_slope=3.0),
            g=PiecewiseLinear.from_knots([-1.0, 0.0, 1.0], [1.0, 0.7, 0.0]))
        F_steep = ConvolutionProfile(steep)
        h, nu = off_axis_two_level(n)
        res = minimize_functional(h, S, nu, F_steep)
        assert res.converged and res.iterations <= 10
        assert res.projected_grad_norm <= 1e-10 and res.lambda_gap <= 1e-8
        iso = check_isotropy(extract_measure(res, h, S, nu, F_steep), S)
        assert iso.residual_iso <= 1e-8
        assert iso.residual_center <= 1e-8

    def test_reports_evaluations_and_stop(self):
        # every value of the functional is one call of F: the start and each Armijo trial
        calls = []

        class Counted(ConvolutionProfile):
            def __call__(self, x):
                calls.append(x)
                return super().__call__(x)

        h, nu = off_axis_two_level(2)
        res = minimize_functional(h, S, nu, Counted(canonical_pair()))
        assert res.evaluations == len(calls) >= res.iterations > 1
        assert res.stop_reason == WITHIN_TOL

    def test_converges_from_next_to_the_minimizer(self):
        # there the decrease a Newton step promises is below the rounding of
        # the value, which the Armijo test alone cannot confirm
        rng = np.random.default_rng(7)
        for n in (1, 2):
            h, nu = off_axis_two_level(n)
            best = minimize_functional(h, S, nu, F, tol=1e-14)
            basis = trace0_array(n, S)
            for scale in (1e-9, 1e-10):
                for _ in range(20):
                    x0 = EPoint.from_vec(
                        best.point.vec + scale * rng.standard_normal(len(basis)) @ basis, n)
                    res = minimize_functional(h, S, nu, F, x0=x0)
                    assert res.iterations <= 5
                    assert np.linalg.norm(res.point.vec - best.point.vec) <= 1e-9

    def test_singular_hessian_leaves_flat_direction_alone(self):
        # every atom is on an axis: the functional is constant along M_12
        h, cs, w = two_level_cross_fixture(2, S, 0.4, 0.8)
        nu = counting_measure(cs.points)
        at = _Atoms(h, S, nu)
        assert np.linalg.matrix_rank(at.phi) == at.phi.shape[1] - 1 == 4
        res = ungated(h, S, nu)
        assert res.projected_grad_norm <= 1e-10
        assert abs(res.point.mat.diag[0, 1]) <= 1e-12
        iso = check_isotropy(extract_measure(res, h, S, nu, F), S)
        assert iso.residual_iso <= 1e-8
        assert iso.residual_center <= 1e-8


class TestLimitReference:
    """`limit_reference`: the minimizer of L = sum_i W_i H_n((phi c)_i) on the contact set."""

    @staticmethod
    def _limit(h, s, n):
        """L over flat points, with det K_i taken by numpy rather than in closed form."""
        at = _Atoms(h, s, counting_measure(detect_contacts(h, s).points))
        K = [(4.0 / s**2) * hp**2 * np.outer(a, a) + 2.0 * np.eye(n)
             for hp, a in zip(at.h_pow, psi_gradient(h.form, at.X))]
        W = at.w * (at.h_pow**2) ** (n / 2) / np.sqrt(np.linalg.det(K))
        H = LimitProfile(F, n)
        return at, W, H

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stationary_with_its_hessian(self, n):
        h, _ = off_axis_two_level(n)
        lim = limit_reference(h, S, canonical_pair())
        at, W, H = self._limit(h, S, n)
        z = at.features @ lim.point.vec
        assert lim.value == pytest.approx(float(np.dot(W, H(z))), rel=1e-13)
        grad = at.basis @ (at.features.T @ (W * H.deriv(z)))  # on the trace-zero subspace
        assert np.linalg.norm(grad) <= 1e-10
        assert lim.point.vec == pytest.approx(at.basis.T @ (at.basis @ lim.point.vec), abs=1e-15)
        # the flat Hessian against central differences of the flat gradient
        step = 1e-6
        cols = [(at.features.T @ (W * H.deriv(at.features @ (lim.point.vec + step * e)))
                 - at.features.T @ (W * H.deriv(at.features @ (lim.point.vec - step * e))))
                / (2.0 * step) for e in np.eye(at.features.shape[1])]
        assert lim.hessian == pytest.approx(np.array(cols).T, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_limit_measure_is_isotropic(self, n):
        # stationarity on the trace-zero subspace makes the masses W_i H_n'(z_i)/h_i^(2/s)
        # a centered decomposition of the identity, whatever the positive weights
        h, _ = off_axis_two_level(n)
        lim = limit_reference(h, S, canonical_pair())
        at, W, H = self._limit(h, S, n)
        masses = W * H.deriv(at.features @ lim.point.vec) / at.h_pow**2
        iso = check_isotropy(DiscreteMeasure(at.X, masses), S)
        assert iso.residual_iso <= 1e-10 and iso.residual_center <= 1e-10 and iso.lam > 0.0

    def test_uses_the_contact_set_not_a_measure(self, two_level):
        # the limit of the band family never sees nu: only h, s and the pair enter
        h, cs, _ = two_level
        lim = limit_reference(h, S, canonical_pair())
        ref = minimize_functional(h, S, counting_measure(cs.points), F)
        assert np.linalg.norm(lim.point.vec - ref.point.vec) > 0.3  # the 9c gap

    def test_non_coercive_contact_set_raises(self):
        h, _, _ = two_level_cross_fixture(2, S, 0.4, 0.8)
        with pytest.raises(DivergingIterates, match=r"limit functional is not coercive") as exc:
            limit_reference(h, S, canonical_pair())
        assert abs(exc.value.direction.mat.diag[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-12)


class TestAtomsBuiltOnce:
    def test_one_construction_per_minimization(self, two_level, monkeypatch):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        built = []
        original = _Atoms.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_Atoms, "__init__", counting)
        minimize_functional(h, S, nu, F)
        assert len(built) == 1


class TestFeatureOracles:
    """`_Atoms.features` against the per-atom formulas it replaced."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(23)
        for n in (1, 2, 3):
            h, nu = off_axis_two_level(n)
            masses = rng.uniform(0.2, 2.0, size=len(nu.masses))
            yield h, DiscreteMeasure(nu.points, masses), rng
        h, cs, _ = two_level_cross_fixture(2, 2.0, 0.3, 0.7)
        yield h, counting_measure(cs.points), rng

    def test_args_and_gradient_match_per_atom_formulas(self):
        checked = 0
        for h, nu, rng in self._cases():
            n, s = h.n, h.s
            at = _Atoms(h, s, nu)
            X, h2 = nu.points, at.h_pow**2
            for _ in range(20):
                M = rng.standard_normal((n, n))
                p = EPoint(BlockMat(M + M.T, rng.standard_normal()), rng.standard_normal(n))
                want = np.sum(X * (X @ p.mat.diag.T + p.shift), axis=1) / h2 + p.mat.corner
                got = at.args(p)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
                c = nu.masses / at.h_pow * F.deriv(want)
                ref = EPoint(BlockMat((X.T * c) @ X, float(np.dot(c, h2))), c @ X).vec
                g = functional_gradient(h, s, nu, F, p).vec
                assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))
                checked += 1
        assert checked == 80


class TestExtractMeasure:
    def test_scaling_nu_scales_weights(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        res = minimize_functional(h, S, nu, F)
        mu = extract_measure(res, h, S, nu, F)
        t = 3.7
        nu2 = DiscreteMeasure(cs.points, t * nu.masses)
        res2 = minimize_functional(h, S, nu2, F)
        mu2 = extract_measure(res2, h, S, nu2, F)
        assert np.allclose(mu2.masses, t * mu.masses, rtol=1e-7)

    def test_symmetric_weights(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        res = minimize_functional(h, S, nu, F)
        mu = extract_measure(res, h, S, nu, F)
        by_point = {round(float(p), 9): m for p, m in zip(mu.points.ravel(), mu.masses)}
        for p, m in by_point.items():
            assert m == pytest.approx(by_point[-p], abs=1e-10)


class TestDiscreteMeasure:
    def test_coincident_atoms_name_the_first_pair(self):
        with pytest.raises(ValueError, match="atoms 0 and 2 coincide"):
            DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
                            np.ones(4))
        with pytest.raises(ValueError, match="atoms 1 and 2 coincide"):
            DiscreteMeasure(np.array([[0.0], [0.5], [0.5 + 5e-10]]), np.ones(3))
        assert len(DiscreteMeasure(np.array([[0.0], [0.5], [0.5 + 2e-9]]), np.ones(3)).points) == 3

    @pytest.mark.parametrize("points,masses,message", [
        ([[0.0], [np.nan]], [1.0, 1.0], "points must be finite"),
        ([[0.0], [np.inf]], [1.0, 1.0], "points must be finite"),
        ([[0.0], [0.5]], [1.0, np.nan], "masses must be positive and finite"),
        ([[0.0], [0.5]], [np.inf, 1.0], "masses must be positive and finite"),
        ([[0.0], [0.5]], [1.0, 0.0], "masses must be positive and finite"),
    ])
    def test_rejects_non_finite_atoms(self, points, masses, message):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(np.array(points), np.array(masses))


class TestCheckIsotropy:
    def test_cross_weights(self):
        _, cs, w = cross_fixture(2, 2.0)
        iso = check_isotropy(DiscreteMeasure(cs.points, w), 2.0)
        assert iso.lam == pytest.approx(1.0, abs=1e-12)
        assert iso.residual_iso <= 1e-12
        assert iso.residual_center <= 1e-12
        assert iso.nonneg and iso.nonzero

    def test_single_atom_not_isotropic(self):
        mu = DiscreteMeasure(np.zeros((1, 2)), np.array([2.0]))
        iso = check_isotropy(mu, 2.0)
        assert iso.residual_iso > 0.1


class TestCoercivityWitness:
    def test_two_level_passes_with_margin(self, two_level):
        h, cs, w = two_level
        wit = coercivity_witness(h, S, counting_measure(cs.points), n_dirs=1000)
        assert wit.ok
        assert wit.margin >= 0.1

    def test_cross_fails_only_on_flat_direction(self):
        h, cs, w = cross_fixture(1, 1.0)
        wit = coercivity_witness(h, 1.0, counting_measure(cs.points), n_dirs=500)
        assert not wit.ok
        labels = {lbl for lbl, _, _ in wit.failures}
        assert labels == {"identity-flat(+)", "identity-flat(-)"}
        for _, _, val in wit.failures:
            assert abs(val) <= 1e-12

    def test_cross_flat_direction_all_s(self):
        for n, s in [(1, 0.5), (1, 2.0), (2, 1.0)]:
            h, cs, w = cross_fixture(n, s)
            wit = coercivity_witness(h, s, counting_measure(cs.points), n_dirs=50)
            assert not wit.ok

    def test_single_atom_at_origin_fails(self):
        # tangent instance touching at the origin only: shift directions give
        # a zero expression and the +identity-flat direction a negative one
        from fjohn.contact import make_tangent_instance
        h = make_tangent_instance([[0.0]], 1.0)
        nu = DiscreteMeasure(np.zeros((1, 1)), np.array([1.0]))
        wit = coercivity_witness(h, 1.0, nu, n_dirs=50)
        assert not wit.ok
        labels = {lbl for lbl, _, _ in wit.failures}
        assert "identity-flat(+)" in labels
        assert "shift(+e0)" in labels and "shift(-e0)" in labels

    def test_single_contact_point_off_axis_n2(self):
        from fjohn.contact import make_tangent_instance
        h2, _, _ = cross_fixture(2, 2.0)
        nu = DiscreteMeasure(np.array([[np.sqrt(0.5), 0.0]]), np.array([1.0]))
        wit = coercivity_witness(h2, 2.0, nu, n_dirs=50)
        assert not wit.ok

    def test_failing_samples_are_named_by_index(self):
        # one atom: the labelled directions fail first, then every sampled direction
        # i with no positive argument, as sample{i}
        h2, _, _ = cross_fixture(2, 2.0)
        nu = DiscreteMeasure(np.array([[np.sqrt(0.5), 0.0]]), np.array([1.0]))
        wit = coercivity_witness(h2, 2.0, nu, n_dirs=50)
        at, basis = _Atoms(h2, 2.0, nu), trace0_array(2, 2.0)
        coeffs = np.random.default_rng(0).standard_normal((50, len(basis)))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        failing = [f"sample{i}" for i, c in enumerate(coeffs)
                   if np.max(at.args(EPoint.from_vec(c @ basis, 2))) <= 1e-12]
        labels = [lbl for lbl, _, _ in wit.failures]
        assert 0 < len(failing) < 50
        assert labels[len(labels) - len(failing):] == failing
        assert not any(lbl.startswith("sample") for lbl in labels[:len(labels) - len(failing)])

    @pytest.mark.parametrize("build,s", [
        (lambda s: cross_fixture(1, s), 1.0), (lambda s: cross_fixture(2, s), 2.0),
        (lambda s: two_level_cross_fixture(1, s, 0.4, 0.8), 1.0),
        (lambda s: two_level_cross_fixture(2, s, 0.4, 0.8), 1.0)])
    def test_matmul_margin_matches_per_direction(self, build, s):
        h, cs, w = build(s)
        nu = counting_measure(cs.points)
        wit = coercivity_witness(h, s, nu, n_dirs=300)
        # reference: every direction as an EPoint, evaluated on its own
        at, n, basis = _Atoms(h, s, nu), h.n, trace0_array(h.n, s)
        flat = EPoint(BlockMat(np.eye(n), -n / s), np.zeros(n)).vec
        flat = flat * (1.0 / np.linalg.norm(flat))
        dirs = [("identity-flat(+)", flat), ("identity-flat(-)", -1.0 * flat)]
        for j in range(n):
            e = EPoint(BlockMat(np.zeros((n, n)), 0.0), np.eye(n)[j]).vec
            dirs += [(f"shift(+e{j})", e), (f"shift(-e{j})", -1.0 * e)]
        coeffs = np.random.default_rng(0).standard_normal((300, len(basis)))
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        dirs += [(f"sample{i}", c @ basis) for i, c in enumerate(coeffs)]
        best = [float(np.max(at.args(EPoint.from_vec(d, n)))) for _, d in dirs]
        # when no labelled direction fails, a flat direction of the exact
        # test is one more (the n = 2 two-level cross, flat along M_12)
        spans, d = _positive_span(at.phi)
        if min(best) > 1e-12 and not spans:
            cert = d @ basis
            dirs.append(("certificate", cert * (1.0 / np.linalg.norm(cert))))
            best.append(float(np.max(at.args(EPoint.from_vec(dirs[-1][1], n)))))
        assert wit.n_checked == len(dirs) == 2 + 2 * n + 300 + (dirs[-1][0] == "certificate")
        assert abs(wit.margin - min(best)) <= 1e-14
        assert [lbl for lbl, _, _ in wit.failures] == [
            lbl for (lbl, _), b in zip(dirs, best) if b <= 1e-12 or lbl == "certificate"]


def _spread_points(rng, n, count, min_dist, half=None):
    """Seeded points with |u|^2 uniform in [0.2, 0.9], pairwise at least min_dist apart.

    As `test_contact._spread_points`, but the radii straddle n/(n+s): along the
    identity-flat direction (Id, -n/s) an atom's argument grows only if
    |u|^2 > n/(n+s), and against it only if |u|^2 < n/(n+s), so points in
    |u| <= 0.85 are rarely coercive at n >= 2.  With a unit vector `half` every point
    has <u, half> > 0, so no atom's argument grows along the shift -half.
    """
    pts = []
    while len(pts) < count:
        u = rng.standard_normal(n)
        u *= np.sqrt(rng.uniform(0.2, 0.9)) / np.linalg.norm(u)
        if ((half is None or u @ half > 0)
                and all(np.linalg.norm(u - q) >= min_dist for q in pts)):
            pts.append(u)
    return np.array(sorted(pts, key=tuple))


class TestCoercivityGate:
    """`minimize_functional` decides coercivity exactly, by `_positive_span` on phi."""

    @pytest.fixture(scope="class")
    def cross_n2(self):
        # every atom is on an axis: phi has rank 4 of 5, flat along M_12
        h, cs, _ = two_level_cross_fixture(2, S, 0.4, 0.8)
        return h, counting_measure(cs.points)

    def test_two_level_cross_n2_rejected_along_m12(self, cross_n2):
        h, nu = cross_n2
        with pytest.raises(DivergingIterates, match=r"d = \[") as exc:
            minimize_functional(h, S, nu, F)
        d = exc.value.direction
        assert np.linalg.norm(d.vec) == pytest.approx(1.0, abs=1e-12)
        assert abs(d.mat.diag[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        rest = np.delete(d.vec, [1, 2])  # M_12 and M_21 in the flat form
        assert np.max(np.abs(rest)) <= 1e-12

    def test_witness_fails_on_the_certificate(self, cross_n2):
        # every labelled and sampled direction has an atom with a positive
        # argument; only the exact test finds the flat direction
        h, nu = cross_n2
        wit = coercivity_witness(h, S, nu, n_dirs=1000)
        assert not wit.ok
        assert [lbl for lbl, _, _ in wit.failures] == ["certificate"]
        _, d, top = wit.failures[0]
        assert abs(d.mat.diag[0, 1]) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert abs(top) <= 1e-12
        assert wit.n_checked == 2 + 2 * 2 + 1000 + 1
        assert wit.margin == top

    def test_random_tangent_instances_agree_with_lp(self):
        rng = np.random.default_rng(19)
        outcomes = set()
        for i in range(90):
            n = 1 + i % 3
            s = (1.0, 2.0)[(i // 3) % 2]
            d = n * (n + 1) // 2 + n
            half = None
            if i % 4 == 3:
                half = rng.standard_normal(n)
                half /= np.linalg.norm(half)
            pts = _spread_points(rng, n, int(rng.integers(d + 1, 3 * d + 1)), 0.05, half)
            h = make_tangent_instance(pts, s)
            nu = DiscreteMeasure(pts, rng.uniform(0.2, 2.0, size=len(pts)))
            at = _Atoms(h, s, nu)
            spans = lp_spans(at.phi)
            try:
                res = minimize_functional(h, s, nu, F)
            except DivergingIterates as exc:
                assert not spans, i
                direction = exc.direction
                assert np.max(at.args(direction)) <= 1e-9 * np.linalg.norm(direction.vec), i
            else:
                assert spans, i
                iso = check_isotropy(extract_measure(res, h, s, nu, F), s)
                assert iso.residual_iso <= 1e-10 and iso.residual_center <= 1e-10, i
            outcomes.add((n, spans, half is not None))
        # each n has certified instances, uncertified ones, and half-ball ones
        assert {(n, True, False) for n in (1, 2, 3)} <= outcomes
        assert {(n, False, True) for n in (1, 2, 3)} <= outcomes
