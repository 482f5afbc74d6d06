import numpy as np
import pytest

from fjohn.oracle import convolve_numeric
from fjohn.profiles import (ConvolutionProfile, PiecewiseLinear, ProfilePair,
                            canonical_pair, validate_profiles)


class TestCanonicalPair:
    def test_f_values(self):
        f = canonical_pair().f
        assert f(-2.0) == 0.0
        assert f(0.0) == 1.0
        assert f(1.0) == 2.0

    def test_g_values(self):
        g = canonical_pair().g
        assert g(-1.0) == pytest.approx(1.0)
        assert g(0.0) == pytest.approx(0.5)
        assert g(1.0) == 0.0

    def test_all_properties_pass(self):
        rep = validate_profiles(canonical_pair())
        assert rep.ok, rep.failed()


class TestValidateProfiles:
    def test_constant_g_fails_support(self):
        pair = ProfilePair(f=canonical_pair().f, g=lambda x: np.ones_like(np.asarray(x)))
        rep = validate_profiles(pair)
        assert "g5_zero_right" in rep.failed()

    def test_flat_f_fails_strict_increase(self):
        pair = ProfilePair(f=lambda x: np.maximum(np.asarray(x, dtype=float), 0.0) ** 2,
                           g=canonical_pair().g)
        rep = validate_profiles(pair)
        assert "f4_strictly_increasing" in rep.failed()


class TestConvolutionProfile:
    def test_frozen_values(self, expected):
        F = ConvolutionProfile(canonical_pair())
        assert F(0.0) == pytest.approx(expected["F_at_0"]["value"],
                                       abs=expected["F_at_0"]["tol"])
        assert F(1.0) == pytest.approx(expected["F_at_1"]["value"],
                                       abs=expected["F_at_1"]["tol"])
        assert F.deriv(0.0) == pytest.approx(expected["Fprime_at_0"]["value"],
                                             abs=expected["Fprime_at_0"]["tol"])
        assert F(-3.0) == 0.0

    def test_exact_branch_values(self):
        F = ConvolutionProfile(canonical_pair())
        assert F(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert F.deriv(0.0) == pytest.approx(1.0, abs=1e-15)
        assert F(1.0) == pytest.approx(13.0 / 6.0, abs=1e-15)

    def test_matches_numeric_convolution_on_grid(self):
        pair = canonical_pair()
        F = ConvolutionProfile(pair)
        gbar = lambda u: pair.g(-np.asarray(u))
        for x in np.linspace(-3.0, 3.0, 601):
            assert F(float(x)) == pytest.approx(
                convolve_numeric(pair.f, gbar, float(x), 1e-4), abs=1e-6)

    def test_c1_gluing(self):
        F = ConvolutionProfile(canonical_pair())
        for x0 in (-2.0, 0.0):
            eps = 1e-9
            assert abs(F(x0 + eps) - F(x0 - eps)) < 1e-8
            assert abs(F.deriv(x0 + eps) - F.deriv(x0 - eps)) < 1e-8
        # exact branch agreement at the seams
        assert (0.0 + 2.0) ** 3 / 12.0 == pytest.approx(0.0**2 / 2 + 0.0 + 2.0 / 3.0)
        assert (-2.0 + 2.0) ** 3 / 12.0 == 0.0

    def test_convexity_class(self):
        F = ConvolutionProfile(canonical_pair())
        xs = np.linspace(-3.0, 3.0, 601)
        vals = np.asarray(F(xs), dtype=float)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-12)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-12)
        pos = xs[1:-1] >= 0.0
        assert np.all(second[pos] > 0.0)
        assert F.deriv(0.0) >= 1.0 - 1e-12

    def test_deriv2_closed_form(self):
        F = ConvolutionProfile(canonical_pair())
        xs = np.linspace(-3.0, 3.0, 601)
        want = np.where(xs <= -2.0, 0.0, np.where(xs <= 0.0, (xs + 2.0) / 2.0, 1.0))
        assert np.max(np.abs(F.deriv2(xs) - want)) <= 1e-15
        assert F.deriv2(0.5) == 1.0


class TestCustomPair:
    @staticmethod
    def make_pair():
        f = PiecewiseLinear(np.array([-1.0, 0.5]), np.array([0.0, 1.0, 3.0]),
                            np.array([0.0, 1.0, 0.0]))
        g = PiecewiseLinear.from_knots([-1.0, 0.0, 1.0], [1.0, 0.7, 0.0])
        return ProfilePair(f=f, g=g, name="steep")

    def test_validates(self):
        rep = validate_profiles(self.make_pair())
        assert rep.ok, rep.failed()

    def test_numeric_profile_in_class(self):
        pair = self.make_pair()
        F = ConvolutionProfile(pair)
        xs = np.linspace(-3.0, 3.0, 121)
        vals = np.array([F(float(x)) for x in xs])
        assert np.all(vals >= -1e-12)
        assert np.all(np.diff(vals) >= -1e-10)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.all(second >= -1e-10)

    def test_numeric_matches_trapezoid(self):
        pair = self.make_pair()
        F = ConvolutionProfile(pair)
        gbar = lambda u: pair.g(-np.asarray(u))
        for x in (-1.5, -0.3, 0.0, 0.8, 2.0):
            assert F(x) == pytest.approx(convolve_numeric(pair.f, gbar, x, 1e-4),
                                         abs=1e-6)

    def test_deriv2_matches_central_differences(self):
        pair = self.make_pair()
        F = ConvolutionProfile(pair)
        # F'' has kinks where a kink of f meets a shifted kink of g
        kinks = np.subtract.outer(pair.f.breaks, pair.g.breaks).ravel()
        xs = np.linspace(-3.0, 3.0, 241)
        xs = xs[np.min(np.abs(xs[:, None] - kinks), axis=1) > 1e-3]
        step = 1e-5
        fd = np.array([(F.deriv(x + step) - F.deriv(x - step)) / (2 * step) for x in xs])
        assert np.max(np.abs(F.deriv2(xs) - fd)) <= 1e-8
        assert np.all(F.deriv2(xs) >= 0.0)


class TestPiecewiseLinear:
    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0]))

    def test_right_hand_derivative_at_kink(self):
        f = canonical_pair().f
        assert f.deriv(-1.0) == 1.0
        g = canonical_pair().g
        assert g.deriv(-1.0) == -0.5
        assert g.deriv(1.0) == 0.0
