import json

import numpy as np
import pytest

from fjohn import cli, rfamily
from fjohn.blockmat import BlockMat, EPoint, s_det, sdet1_param
from fjohn.contact import two_level_cross_fixture
from fjohn.errors import BadR, NotConverged, NotInBr
from fjohn.isotropy import counting_measure, extract_measure, minimize_functional
from fjohn.logconcave import PiecewiseLogAffine, eval_h_many
from fjohn.oracle import envelope_breaks_scan
from fjohn.profiles import ConvolutionProfile, canonical_pair
from fjohn.rfamily import (QuadratureSpec, _envelope_breaks_1d, _x_grid, band_functional,
                           band_radius, concentration_integral, default_bumps, hat_bump,
                           minimize_band, r_sweep, rescaled_band_functional,
                           stationarity_multiplier, sup_h_pow2, trapezoid_bump)

S = 1.0


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

    def test_band_radius_invariant(self, fixture):
        h, _, _ = fixture
        for r in (0.8, 0.9, 0.95, 0.99):
            need = np.sqrt(1.0 + 2.0 * (1.0 - r) * sup_h_pow2(h, S))
            assert band_radius(h, S, r) >= need - 1e-12

    def test_refinement_stability(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        fine = QuadratureSpec(x_nodes_per_axis=2 * quad.x_nodes_per_axis,
                              t_nodes=2 * quad.t_nodes, tol=quad.tol)
        pts = [identity_point()] + random_unit_sdet_members(1, S, 3, seed=10)
        for r in (0.8, 0.9):
            for p in pts:
                v1 = band_functional(h, S, pair, r, p, quad)
                v2 = band_functional(h, S, pair, r, p, fine)
                assert abs(v1 - v2) <= 5 * quad.tol * max(1.0, abs(v1))

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
                assert lhs <= rhs + 2 * quad.tol * max(1.0, abs(rhs))

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


class TestRescaledBandFunctional:
    def test_origin_matches_identity(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        for r in (0.8, 0.9):
            lhs = rescaled_band_functional(h, S, pair, r, EPoint.zero(1), quad)
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
                assert abs(lhs - rhs) <= 2 * quad.tol * max(1.0, abs(lhs))

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
        from fjohn.blockmat import trace0_basis, from_coords
        basis = trace0_basis(1, S)
        rng = np.random.default_rng(41)
        grid_pts = [from_coords(c, basis) for c in rng.uniform(-1, 1, size=(11, 2)) * 2]
        sups = []
        for r, nodes in ((0.9, 960), (0.99, 1600), (0.999, 4000)):
            q = QuadratureSpec(x_nodes_per_axis=nodes)
            sups.append(max(abs(rescaled_band_functional(h, S, pair, r, p, q))
                            for p in grid_pts))
        assert sups[0] > sups[1] > sups[2]


class TestMinimizeBand:
    def test_unit_sdet_and_trend(self, fixture, quad):
        h, _, _ = fixture
        pair = canonical_pair()
        p8, lam8 = minimize_band(h, S, pair, 0.8, quad)
        p9, lam9 = minimize_band(h, S, pair, 0.9, quad)
        for p in (p8, p9):
            assert s_det(p.mat, S) == pytest.approx(1.0, abs=1e-10)
            assert abs(p.shift[0]) <= 1e-6
        d8 = (p8 - identity_point()).norm()
        d9 = (p9 - identity_point()).norm()
        assert d9 < d8
        assert lam8 > 0.0 and lam9 > 0.0


class TestConcentration:
    def test_away_from_contacts_decays(self, fixture, quad):
        # the compactly supported profiles kill the density away from the
        # contact set once the band is thin enough, so the decay ends at
        # exactly zero rather than merely small values
        h, _, _ = fixture
        pair = canonical_pair()
        bump = hat_bump(np.zeros(1), 0.15)
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

    def test_trapezoid_bump_shape(self):
        b = trapezoid_bump(np.array([0.5]), 0.1, 0.1)
        assert b(np.array([[0.5]]))[0] == 1.0
        assert b(np.array([[0.55]]))[0] == 1.0
        assert b(np.array([[0.75]]))[0] == 0.0


def _loop_x_grid(n, radius, nodes_per_axis, kinks=None):
    """The per-panel loop that _x_grid replaces, kept as its bit-for-bit reference."""
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
    ])
    def test_x_grid_matches_panel_loop(self, n, radius, nodes, kinks):
        X, W = _x_grid(n, radius, nodes, kinks)
        X0, W0 = _loop_x_grid(n, radius, nodes, kinks)
        assert X.shape == X0.shape and W.shape == W0.shape
        assert np.array_equal(X, X0) and np.array_equal(W, W0)

    def test_interleaved_calls_match_calls_alone(self, fixture):
        # no geometry outlives its call: mixing instances, radii and specs
        # must not change a single bit
        pair = canonical_pair()
        other = two_level_cross_fixture(1, S, 0.3, 0.7)[0]
        specs = (QuadratureSpec(), QuadratureSpec(x_nodes_per_axis=480, t_nodes=6))
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
        h, _, _ = fixture
        seen = []
        original = rfamily._band_value

        def recording(band, p):
            seen.append((p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes()))
            return original(band, p)

        monkeypatch.setattr(rfamily, "_band_value", recording)
        minimize_band(h, S, canonical_pair(), 0.9, quad)
        assert len(seen) > 50
        assert len(set(seen)) == len(seen)

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
                closed = _envelope_breaks_1d(form, lo, hi)
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
        closed = _envelope_breaks_1d(form, -10.0, 10.0)
        assert closed == pytest.approx([0.0008, 0.0018], abs=1e-15)

    def test_no_kinks(self):
        for a, b in (([[2.0]], [0.5]), ([[1.0], [1.0]], [0.0, 3.0])):
            form = PiecewiseLogAffine(np.array(a), np.array(b))
            assert len(_envelope_breaks_1d(form, -np.inf, np.inf)) == 0


class TestSweepErrors:
    @staticmethod
    def _failing_at(monkeypatch, bad_r):
        original = rfamily._minimize_band

        def flaky(band, x0, max_iter):
            if band.r == bad_r:
                raise NotConverged("band functional infinite at the starting point")
            return original(band, x0, max_iter)

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
