import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

from fjohn import cli, isotropy, rfamily
from fjohn.blockmat import BlockMat, EPoint, trace0_array
from fjohn.contact import (cross_fixture, detect_contacts, make_tangent_instance,
                           two_level_cross_fixture)
from fjohn.errors import AllWeightsZero, AtomOffContactSet, DivergingIterates, NotConverged
from fjohn.isotropy import (NEWTON_TOL, WITHIN_TOL, DiscreteMeasure, MinimizerResult, _Atoms,
                            _minimize, calibrated_measure, check_isotropy, coercivity_witness,
                            counting_measure, extract_measure, functional_gradient,
                            limit_reference, minimize_functional)
from fjohn.logconcave import _positive_span, make_log_concave
from fjohn.profiles import (ConvolutionProfile, LimitProfile, PiecewiseLinear, ProfilePair,
                            canonical_pair)
from oracles import functional_value, lp_spans, project_trace0, psi_gradient

F = ConvolutionProfile(canonical_pair())
S = 1.0
INSTANCES = pathlib.Path(__file__).resolve().parents[1] / "instances"


def ungated(h, s, nu):
    """`minimize_functional`'s Newton loop from the origin, without its coercivity gate.

    The result's multiplier is NaN: the tests that reach the loop this way do not read it.
    """
    at = _Atoms(h, s, nu)
    run = _minimize(at.phi, at.w, F, np.zeros(len(at.basis)))
    return MinimizerResult(point=EPoint.from_vec(run.x @ at.basis, at.n), value=run.value,
                           projected_grad_norm=run.grad_norm, lam=float("nan"),
                           iterations=run.steps, converged=True, evaluations=run.evaluations,
                           stop_reason=WITHIN_TOL)


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

    def test_nan_gap_is_named(self):
        # psi = max(inf x, -x) is NaN at 0 (inf * 0) and +inf at 0.5, where h = 0 and the
        # gap is -0.87: the NaN atom must fail the gap test, not hide the other atom's gap
        h = make_log_concave([[np.inf], [-1.0]], [0.0, 0.0], S)
        nu = counting_measure(np.array([[0.0], [0.5]]))
        with np.errstate(invalid="ignore"), pytest.raises(
                AtomOffContactSet,
                match=r"^atom 0 at \[0\.0\] has hemisphere gap nan, outside \+-1\.0e-08$"):
            _Atoms(h, S, nu)

    def test_h_vanishing_next_to_the_sphere(self):
        # h = e^-800 = 0 at an atom with |x|^2 = 1 - 2^-52, as near the sphere as a float
        # |x|^2 but one gets: the gap -2^-26 still exceeds GAP_TOL in absolute value
        x = 1.0 - 2.0 ** -53
        assert x * x == 1.0 - 2.0 ** -52
        h = make_log_concave([[0.0]], [800.0], S)
        # the atom is named in full: numpy's default print would round it to [1.]
        with pytest.raises(AtomOffContactSet,
                           match=rf"^atom 0 at \[{x!r}\] has hemisphere gap -1\.490e-08,"):
            _Atoms(h, S, counting_measure(np.array([[x]])))


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
        assert g.mat.diag[0, 0] == pytest.approx(float(F.derivs(0.0)[0]), rel=1e-12)
        assert g.mat.corner == pytest.approx(S * float(F.derivs(0.0)[0]), rel=1e-12)
        assert np.allclose(g.shift, 0.0, atol=1e-14)

    def test_dead_zone_zero_gradient(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        p = EPoint(BlockMat(np.zeros((1, 1)), -3.0), np.zeros(1))
        g = functional_gradient(h, S, nu, F, p)
        assert np.linalg.norm(g.vec) == 0.0


class TestMinimize:
    def test_not_converged_carries_the_record(self, monkeypatch):
        inst = json.loads((INSTANCES / "two_level_n1_s1.json").read_text())
        h = cli.build_h(inst)
        nu = cli.build_nu(inst, h)
        full = minimize_functional(h, inst["s"], nu, F)
        monkeypatch.setattr(isotropy, "NEWTON_MAX_ITER", 2)
        with pytest.raises(NotConverged) as caught:
            minimize_functional(h, inst["s"], nu, F)
        exc = caught.value
        assert str(exc) == "projected gradient 2.956e-02 above tol 1.0e-10"
        assert exc.reason == "max_iter" and exc.iterations == 2
        assert f"{exc.grad_norm:.3e}" == "2.956e-02"
        # one value at the start and at least one Armijo trial per step
        assert 3 <= exc.evaluations < full.evaluations and full.iterations > 2

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
        assert res.iterations <= 9
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
        assert res.converged and res.iterations <= 9
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

    def test_line_search_floor_and_infinite_start(self, two_level, monkeypatch):
        # `_newton` fed values that rise at every call: no Armijo trial passes, so the
        # halved step reaches the caller's floor from the start, and no step is taken
        h, cs, _ = two_level
        at = _Atoms(h, S, counting_measure(cs.points))
        start = np.zeros(len(at.basis))
        calls = []

        class Rising(ConvolutionProfile):  # F' and F'' of F, and values that never fall
            def __call__(self, x):
                calls.append(1)
                return np.full_like(x, float(len(calls)))

        with pytest.raises(NotConverged) as caught:
            _minimize(at.phi, at.w, Rising(canonical_pair()), start)
        exc = caught.value
        assert exc.reason == "no descent" and exc.iterations == 0
        assert exc.evaluations == len(calls) > 2
        assert str(exc) == f"no descent along the Newton step, grad {exc.grad_norm:.3e}"
        assert exc.grad_norm > NEWTON_TOL

        band = rfamily._Band(h, S, canonical_pair(), rfamily.QuadratureSpec(x_nodes_per_axis=120))
        real = rfamily._band_value_grads
        calls.clear()

        def rising(band, evals):
            value, *rest = real(band, evals)[0]
            calls.append(1)
            return [(value * len(calls), *rest)]

        monkeypatch.setattr(rfamily, "_band_value_grads", rising)
        res, _ = rfamily._minimize_band(band, 0.9)
        assert res.stop_reason == rfamily.RESOLVED and res.iterations == 0
        assert res.evaluations == len(calls) > 2
        assert res.value == real(band, [(0.9, start)])[0][0]
        assert np.array_equal(res.point.mat.diag, np.eye(1)) and res.point.mat.corner == 1.0

        class Infinite(ConvolutionProfile):
            def __call__(self, x):
                return np.full_like(x, np.inf)

        with pytest.raises(NotConverged) as caught:
            _minimize(at.phi, at.w, Infinite(canonical_pair()), start)
        exc = caught.value
        assert exc.reason == "infinite start" and exc.iterations == 0 and exc.evaluations == 1

    def test_flat_value_stops_without_a_step(self, two_level, monkeypatch):
        # F = 1 everywhere with the canonical F' and F'': each trial's value equals the start's,
        # and once 2e-4 t times the predicted decrease is below half an ulp of it, the Armijo
        # bound rounds to the value itself; a trial that does not fall is still no descent
        h, cs, _ = two_level
        at = _Atoms(h, S, counting_measure(cs.points))

        class Flat(ConvolutionProfile):
            def __call__(self, x):
                return np.ones_like(x)

        monkeypatch.setattr(isotropy, "NEWTON_MAX_ITER", 3)
        with pytest.raises(NotConverged) as caught:
            _minimize(at.phi, at.w, Flat(canonical_pair()), np.zeros(len(at.basis)))
        exc = caught.value
        assert exc.reason == "no descent" and exc.iterations == 0 and exc.evaluations == 53

    def test_converges_from_next_to_the_minimizer(self, monkeypatch):
        # there the decrease a Newton step promises is below the rounding of
        # the value, which the Armijo test alone cannot confirm
        rng = np.random.default_rng(7)
        for n in (1, 2):
            h, nu = off_axis_two_level(n)
            with monkeypatch.context() as tight:
                tight.setattr(isotropy, "NEWTON_TOL", 1e-14)
                best = minimize_functional(h, S, nu, F)
            at = _Atoms(h, S, nu)
            for scale in (1e-9, 1e-10):
                for _ in range(20):
                    x0 = best.point.vec + scale * rng.standard_normal(len(at.basis)) @ at.basis
                    run = _minimize(at.phi, at.w, F, at.basis @ x0)
                    assert run.steps <= 4
                    assert np.linalg.norm(run.x @ at.basis - best.point.vec) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_hessian_leaves_flat_direction_alone(self, n):
        # every atom is on an axis: the functional is constant along each M_ij, i < j.
        # A step that only floors the Hessian's zero eigenvalues drifts along them
        # (1.26e-9 at n = 3); `_newton_step` drops them, as a least-squares solve does
        h, cs, w = two_level_cross_fixture(n, S, 0.4, 0.8)
        nu = counting_measure(cs.points)
        at = _Atoms(h, S, nu)
        flat = n * (n - 1) // 2  # the M_ij, i < j
        assert np.linalg.matrix_rank(at.phi) == at.phi.shape[1] - flat == n * (n + 3) // 2 - flat
        res = ungated(h, S, nu)
        assert res.projected_grad_norm <= 1e-10
        assert np.max(np.abs(res.point.mat.diag[np.triu_indices(n, 1)])) <= 1e-12
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
        grad = at.basis @ (at.features.T @ (W * H.derivs(z)[0]))  # on the trace-zero subspace
        assert np.linalg.norm(grad) <= 1e-10
        assert lim.point.vec == pytest.approx(at.basis.T @ (at.basis @ lim.point.vec), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_limit_measure_is_isotropic(self, n):
        # stationarity on the trace-zero subspace makes the masses W_i H_n'(z_i)/h_i^(2/s)
        # a centered decomposition of the identity, whatever the positive weights
        h, _ = off_axis_two_level(n)
        lim = limit_reference(h, S, canonical_pair())
        at, W, H = self._limit(h, S, n)
        masses = W * H.derivs(at.features @ lim.point.vec)[0] / at.h_pow**2
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

    @staticmethod
    def _spy(monkeypatch):
        """Lists that grow by one per `_Atoms` build and per `_positive_span` call."""
        built, spans = [], []
        init, positive_span = _Atoms.__init__, isotropy._positive_span

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        def counting_span(a):
            spans.append(1)
            return positive_span(a)

        monkeypatch.setattr(_Atoms, "__init__", counting_init)
        monkeypatch.setattr(isotropy, "_positive_span", counting_span)
        return built, spans

    def test_one_build_and_one_verdict_per_contact_problem(self, two_level, monkeypatch):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        built, spans = self._spy(monkeypatch)
        wit = coercivity_witness(h, S, nu)
        res = minimize_functional(h, S, nu, F)
        extract_measure(res, h, S, nu, F)
        functional_gradient(h, S, nu, F, res.point)
        assert wit.ok and len(built) == 1 and len(spans) == 1

    def test_other_objects_or_another_s_rebuild(self, two_level, monkeypatch):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        at = isotropy._atoms(h, S, nu)
        built, _ = self._spy(monkeypatch)
        assert isotropy._atoms(h, 1, nu) is at  # an equal s
        twin_nu = counting_measure(cs.points)  # equal values, another object
        twin_h = type(h)(h.n, h.s, h.form)
        # one part in 1e12 moves h^(1/s) far less than GAP_TOL: the atoms stay contacts
        for args in ((h, S, twin_nu), (twin_h, S, nu), (h, S * (1.0 + 1e-12), nu)):
            assert isotropy._atoms(*args) is not at
            assert isotropy._atoms(*args) is isotropy._atoms(*args)
        assert len(built) == 3

    def test_arrays_are_read_only(self, two_level):
        h, cs, w = two_level
        at = isotropy._atoms(h, S, counting_measure(cs.points))
        for name in ("X", "m", "h_pow", "w", "features", "basis", "phi"):
            assert not getattr(at, name).flags.writeable, name
        h2, cs2, _ = two_level_cross_fixture(2, S, 0.4, 0.8)  # not coercive: a flat direction
        flat = isotropy._atoms(h2, S, counting_measure(cs2.points)).flat_direction
        assert flat is not None and not flat.flags.writeable

    @staticmethod
    def _chain(h, s, nu, F, fresh):
        """Witness, minimizer and extracted measure as plain values; each step builds its
        own `_Atoms` when `fresh`.  A functional that is not coercive ends the chain at
        the minimizer's DivergingIterates (message and direction)."""
        def step(fn, *args):
            if fresh:
                isotropy._LAST.clear()
            return fn(*args)

        wit = step(coercivity_witness, h, s, nu)
        out = [wit.margin, wit.n_checked, wit.ok,
               [(lbl, d.vec.tolist(), val) for lbl, d, val in wit.failures]]
        try:
            res = step(minimize_functional, h, s, nu, F)
        except DivergingIterates as exc:
            return out + [str(exc), exc.direction.vec.tolist()]
        mu = step(extract_measure, res, h, s, nu, F)
        return out + [res.point.vec.tolist(), res.value, res.lam, res.lambda_gap,
                      res.projected_grad_norm, res.iterations, res.evaluations,
                      mu.points.tolist(), mu.masses.tolist()]

    @staticmethod
    def _problems(monkeypatch):
        """(name, h, s, nu, F) of the shipped instances and perfbench's certify_instances(501)."""
        for path in sorted(INSTANCES.glob("*.json")):
            inst = json.loads(path.read_text())
            h = cli.build_h(inst)
            yield (path.stem, h, inst["s"], cli.build_nu(inst, h),
                   ConvolutionProfile(cli.build_valid_profile(inst)))
        path = INSTANCES.parent / "perfbench" / "instances.py"
        spec = importlib.util.spec_from_file_location("perfbench_instances", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
        spec.loader.exec_module(module)
        for inst in module.certify_instances(501):
            cs = detect_contacts(inst.h, inst.s)
            yield inst.name, inst.h, inst.s, counting_measure(cs.points), F

    def test_shared_and_fresh_builds_agree_bit_for_bit(self, monkeypatch):
        names = []
        for name, h, s, nu, prof in self._problems(monkeypatch):
            assert self._chain(h, s, nu, prof, False) == self._chain(h, s, nu, prof, True), name
            names.append(name)
        assert names == ["cross_n2_s2", "tangent_n1_s1", "two_level_n1_s1",
                         "gen_n1", "gen_n2", "gen_n3"]


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
                c = nu.masses / at.h_pow * F.derivs(want)[0]
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

    def test_measure_equals_a_validated_one(self, two_level):
        # extraction validates only the new masses: the points are a subset of nu's
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        mu = extract_measure(minimize_functional(h, S, nu, F), h, S, nu, F)
        ref = DiscreteMeasure(mu.points.copy(), mu.masses.copy())
        assert type(mu) is DiscreteMeasure
        assert np.array_equal(mu.points, ref.points) and np.array_equal(mu.masses, ref.masses)
        assert mu.points.shape == (len(cs.points), 1)
        assert not mu.points.flags.writeable and not mu.masses.flags.writeable

    def test_all_weights_zero(self, two_level):
        h, cs, w = two_level
        nu = counting_measure(cs.points)
        # beta = -3 puts every argument where F' = 0
        res = MinimizerResult(point=EPoint(BlockMat(np.zeros((1, 1)), -3.0), np.zeros(1)),
                              value=0.0, projected_grad_norm=0.0, lam=0.0, iterations=0,
                              converged=True, evaluations=0, stop_reason=WITHIN_TOL)
        with pytest.raises(AllWeightsZero):
            extract_measure(res, h, S, nu, F)


class TestDiscreteMeasure:
    def test_coincident_atoms_name_the_first_pair(self):
        with pytest.raises(ValueError, match="atoms 0 and 2 coincide"):
            DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
                            np.ones(4))
        with pytest.raises(ValueError, match="atoms 0 and 3 coincide"):  # row-major, not by column
            DiscreteMeasure(np.array([[0.0], [0.5], [0.5], [0.0]]), np.ones(4))
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

    @pytest.mark.parametrize("points,first", [([[0.0, 0.5], [1e308, 0.0]], 1),
                                              ([[1e154, 0.0], [-1e154, 0.0]], 0)],
                             ids=["square-overflows", "distance-square-overflows"])
    def test_rejects_atoms_whose_distances_can_overflow(self, points, first):
        with np.errstate(over="raise"):  # rejected before any overflow
            with pytest.raises(ValueError, match=rf"atom {first} is too large: 4\|x\|\^2"):
                DiscreteMeasure(np.array(points), np.ones(2))

    def test_rejects_no_atom(self):
        # ([], []) is no atom, although np.atleast_2d([]) would make it one in R^0
        for points, masses in ((np.zeros((0, 2)), np.zeros(0)), ([], [])):
            with pytest.raises(ValueError, match="at least one atom"):
                DiscreteMeasure(points, masses)

    @pytest.mark.parametrize("points, masses",
                             [([], [1.0]), ([[]], [1.0]), ([[], []], [1.0, 1.0])])
    def test_rejects_points_without_coordinates(self, points, masses):
        # np.atleast_2d([]) has shape (1, 0): one atom in R^0, not a measure
        with pytest.raises(ValueError, match="at least one coordinate"):
            DiscreteMeasure(points, masses)


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

    def test_second_call_reuses_the_direction_table(self, monkeypatch):
        tables = []
        built = isotropy._witness_directions

        def spy(*key):
            tables.append(built(*key))
            return tables[-1]

        monkeypatch.setattr(isotropy, "_witness_directions", spy)
        h, cs, w = two_level_cross_fixture(2, S, 0.4, 0.8)
        for _ in range(2):
            coercivity_witness(h, S, counting_measure(cs.points), n_dirs=40)
        (first, labels), (second, again) = tables
        assert second is first and again is labels
        assert first.shape == (2 + 2 * 2 + 40, 2 * 2 + 1 + 2) and len(labels) == 2 + 2 * 2

    def test_direction_table_is_read_only(self):
        # one atom: named failures only, each an EPoint built from a row of the shared table
        h2, _, _ = cross_fixture(2, 2.0)
        nu = DiscreteMeasure(np.array([[np.sqrt(0.5), 0.0]]), np.array([1.0]))
        wit = coercivity_witness(h2, 2.0, nu, n_dirs=50)
        dirs, _ = isotropy._witness_directions(2, 2.0, 50)
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0
        assert 0 < len(wit.failures) <= 2 + 2 * 2 + 1
        assert not any(lbl.startswith("sample") for lbl, _, _ in wit.failures)
        for _, point, _ in wit.failures:
            for arr in (point.mat.diag, point.shift):
                assert not arr.flags.writeable and not np.shares_memory(arr, dirs)

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
        # only a flat direction of the exact test makes failures: the named rows
        # with no positive argument or, when there are none, that direction (the
        # n = 2 two-level cross, flat along M_12)
        spans, d = _positive_span(at.phi)
        failing = [lbl for (lbl, _), b in zip(dirs[:2 + 2 * n], best) if b <= 1e-12]
        if not spans and not failing:
            cert = d @ basis
            dirs.append(("certificate", cert * (1.0 / np.linalg.norm(cert))))
            best.append(float(np.max(at.args(EPoint.from_vec(dirs[-1][1], n)))))
            failing = ["certificate"]
        assert wit.n_checked == len(dirs) == 2 + 2 * n + 300 + (dirs[-1][0] == "certificate")
        assert abs(wit.margin - min(best)) <= 1e-14
        assert [lbl for lbl, _, _ in wit.failures] == ([] if spans else failing)


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
            # the witness's verdict is the exact one; its failures are flat rows
            wit = coercivity_witness(h, s, nu)
            assert wit.ok == spans, i
            assert 0 < len(wit.failures) <= 2 + 2 * n + 1 or spans, i
            assert all(val <= 1e-12 for _, _, val in wit.failures), i
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
