import numpy as np
import pytest

from fjohn.blockmat import BlockMat, EPoint, sdet1_param, trace0_array
from fjohn.contact import two_level_cross_fixture
from fjohn.isotropy import calibrated_measure
from fjohn.profiles import ConvolutionProfile, canonical_pair
from fjohn.rfamily import QuadratureSpec, band_functional
from oracles import (GridSpec, convolve_numeric, dense_quadrature_band, functional_value,
                     grid_minimize)


class TestGridMinimize:
    def test_quadratic_bowl(self):
        basis = trace0_array(1, 1.0)
        grid = GridSpec(center=np.array([1.0, -2.0]), half_width=4.0,
                        points_per_axis=41, refinements=1)
        point, value = grid_minimize(lambda p: np.linalg.norm(p.vec) ** 2, basis, grid)
        assert value <= (2 * 4.0 / 40) ** 2
        assert np.linalg.norm(point.vec) <= 2 * 4.0 / 40

    def test_even_points_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(center=np.zeros(2), half_width=1.0, points_per_axis=40)

    def test_calibrated_two_level_minimum_at_origin(self):
        h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
        nu = calibrated_measure(cs.points, w, h, 1.0)
        F = ConvolutionProfile(canonical_pair())
        basis = trace0_array(1, 1.0)
        grid = GridSpec(center=np.zeros(2), half_width=2.0, points_per_axis=81,
                        refinements=1)
        point, value = grid_minimize(
            lambda p: functional_value(h, 1.0, nu, F, p), basis, grid)
        want = float(F(0.0)) * float(np.sum(nu.masses * cs.h_values))
        assert value == pytest.approx(want, rel=1e-4)
        assert np.linalg.norm(point.vec) <= 0.05


class TestConvolveNumeric:
    def test_values(self, expected):
        pair = canonical_pair()
        gbar = lambda u: pair.g(-np.asarray(u))
        assert convolve_numeric(pair.f, gbar, 0.0, 1e-4) == pytest.approx(
            2.0 / 3.0, abs=1e-7)
        assert convolve_numeric(pair.f, gbar, -2.0, 1e-4) == 0.0

    def test_linearity_in_f(self):
        pair = canonical_pair()
        gbar = lambda u: pair.g(-np.asarray(u))
        doubled = lambda t: 2.0 * pair.f(t)
        for x in (-1.0, 0.0, 1.5):
            assert convolve_numeric(doubled, gbar, x, 1e-4) == pytest.approx(
                2.0 * convolve_numeric(pair.f, gbar, x, 1e-4), rel=1e-12)


@pytest.fixture(scope="module")
def setup():
    h, cs, w = two_level_cross_fixture(1, 1.0, 0.4, 0.8)
    return h, canonical_pair(), QuadratureSpec()


class TestDenseQuadrature:

    def test_identity_r08(self, setup):
        h, pair, quad = setup
        ident = EPoint(BlockMat.identity(1, 1.0), np.zeros(1))
        dense = dense_quadrature_band(h, 1.0, pair, 0.8, ident)
        band = band_functional(h, 1.0, pair, 0.8, ident, quad)
        assert dense == pytest.approx(band, rel=1e-4)

    def test_moved_position_both_routes_agree(self, setup):
        h, pair, quad = setup
        A, alpha = sdet1_param(np.array([[0.15]]), 1.0)
        p = EPoint(BlockMat(A, alpha), np.array([0.07]))
        for r in (0.8, 0.9):
            dense = dense_quadrature_band(h, 1.0, pair, r, p,
                                          x_nodes=6000, y_nodes=6000)
            band = band_functional(h, 1.0, pair, r, p, quad)
            assert dense == pytest.approx(band, rel=1e-4)

    def test_zero_outside_support(self, setup):
        # a tiny corner keeps the scaled height below the profile threshold
        h, pair, quad = setup
        p = EPoint(BlockMat(np.eye(1), 0.05), np.zeros(1))
        dense = dense_quadrature_band(h, 1.0, pair, 0.8, p)
        band = band_functional(h, 1.0, pair, 0.8, p, quad)
        assert dense == 0.0
        assert band == 0.0
