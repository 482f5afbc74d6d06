import numpy as np
import pytest

from fjohn.profiles import (ConvolutionProfile, LimitProfile, PiecewiseLinear, ProfilePair,
                            _distinct, canonical_pair, validate_profiles)
from oracles import convolve_numeric, convolve_pl, pl_deriv, radial_quad


def _oracle(pair, xs):
    """F and F' by `convolve_pl`, and F'' = sum_k J_k f(x + b_k)."""
    f, g = pair.f, pair.g
    return (convolve_pl(f, g, xs), convolve_pl(f, g, xs, order=1),
            f(np.add.outer(xs, g.breaks)) @ np.diff(g.slopes))


def _canonical_closed(x):
    """Oracle: the canonical pair's F, F', F'' in closed form."""
    x = np.asarray(x, dtype=float)
    return (np.where(x <= -2.0, 0.0,
                     np.where(x <= 0.0, (x + 2.0) ** 3 / 12.0, x * x / 2.0 + x + 2.0 / 3.0)),
            np.where(x <= -2.0, 0.0, np.where(x <= 0.0, (x + 2.0) ** 2 / 4.0, x + 1.0)),
            np.where(x <= -2.0, 0.0, np.where(x <= 0.0, (x + 2.0) / 2.0, 1.0)))


def _steep_pair():
    """f with a kink at 0.5 where its slope triples, g with a kink at 0."""
    f = PiecewiseLinear(np.array([-1.0, 0.5]), np.array([0.0, 1.0, 3.0]),
                        np.array([0.0, 1.0, 0.0]))
    g = PiecewiseLinear.from_knots([-1.0, 0.0, 1.0], [1.0, 0.7, 0.0])
    return ProfilePair(f=f, g=g)


def _three_kink_pair():
    """The custom pair of test_rfamily: f kinks at -1, -0.3 and 0.4; g at -1, -0.2, 1."""
    f = PiecewiseLinear.from_knots([-1.0, -0.3, 0.4], [0.0, 0.35, 1.1], right_slope=2.0)
    g = PiecewiseLinear.from_knots([-1.0, -0.2, 1.0], [1.0, 0.6, 0.0])
    return ProfilePair(f=f, g=g)


def _random_pair(seed):
    """A valid piecewise-linear pair: 1-3 kinks in f beyond -1, 0-3 in g inside (-1, 1).

    Kinks are at least 0.1 apart, which bounds the jumps of g' by 20.  Much
    closer kinks make F'' = sum_k J_k f(x + b_k) a sum of large terms that
    cancel, and the oracle's own rounding then exceeds the 1e-14 tolerance.
    """
    rng = np.random.default_rng(seed)

    def kinks(lo, hi, count):
        while True:
            x = np.sort(rng.uniform(lo, hi, size=count))
            if np.all(np.diff(np.concatenate([[-1.0], x, [max(hi, 1.0)]])) >= 0.1):
                return x

    fx = np.concatenate([[-1.0], kinks(-1.0, 2.0, rng.integers(1, 4))])
    slopes = np.sort(rng.uniform(0.1, 3.0, size=len(fx)))  # increasing: convex
    fy = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(fx))])
    f = PiecewiseLinear.from_knots(fx, fy, right_slope=slopes[-1])
    gx = np.concatenate([[-1.0], kinks(-1.0, 1.0, rng.integers(0, 4)), [1.0]])
    gy = np.concatenate([[1.0], np.sort(rng.uniform(0.05, 1.0, size=len(gx) - 2))[::-1], [0.0]])
    return ProfilePair(f=f, g=PiecewiseLinear.from_knots(gx, gy))


PAIRS = ([("canonical", canonical_pair), ("steep", _steep_pair),
          ("three-kink", _three_kink_pair)]
         + [(f"random-{seed}", lambda seed=seed: _random_pair(seed)) for seed in range(20)])


def _gap(got, want, scale):
    return np.max(np.abs(got - want) / np.maximum(1.0, scale))


class TestAgainstOracles:
    """The piecewise cubic against segment quadrature and the closed form.

    F and F' must hold to 1e-14 max(1, |value|).  The oracle's F'' is a sum
    of terms J_k f(x + b_k) that cancel, so its own rounding grows with
    their size: on the random pairs F'' is held to 1e-14 times the sum of
    their magnitudes, and on the shipped and test pairs to the tolerance of
    F and F'.
    """

    @pytest.mark.parametrize("make", [m for _, m in PAIRS], ids=[i for i, _ in PAIRS])
    def test_matches_segment_oracle(self, make):
        pair = make()
        assert validate_profiles(pair).ok
        F = ConvolutionProfile(pair)
        breaks = np.unique(np.subtract.outer(pair.f.breaks, pair.g.breaks))
        xs = np.concatenate([np.linspace(-3.0, 3.0, 6001), breaks])
        want, want1, want2 = _oracle(pair, xs)
        assert _gap(F(xs), want, np.abs(want)) <= 1e-14
        assert _gap(F.deriv(xs), want1, np.abs(want1)) <= 1e-14
        terms = np.abs(pair.f(np.add.outer(xs, pair.g.breaks))) @ np.abs(np.diff(pair.g.slopes))
        assert _gap(F.deriv2(xs), want2, terms) <= 1e-14
        if make in (canonical_pair, _steep_pair, _three_kink_pair):
            assert _gap(F.deriv2(xs), want2, np.abs(want2)) <= 1e-14
        assert np.all(F(xs[xs <= -2.0]) == 0.0)

    def test_canonical_matches_closed_form(self):
        F = ConvolutionProfile(canonical_pair())
        xs = np.concatenate([np.linspace(-3.0, 3.0, 6001), [-2.0, 0.0]])
        for got, want in zip((F(xs), F.deriv(xs), F.deriv2(xs)), _canonical_closed(xs)):
            assert _gap(got, want, np.abs(want)) <= 1e-14


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
        one = PiecewiseLinear(np.array([]), np.array([0.0]), np.array([1.0]))
        rep = validate_profiles(ProfilePair(f=canonical_pair().f, g=one))
        assert "g5_zero_right" in rep.failed()

    def test_flat_f_fails_strict_increase(self):
        flat = PiecewiseLinear.from_knots([-1.0, 0.0], [0.0, 0.0], right_slope=1.0)
        rep = validate_profiles(ProfilePair(f=flat, g=canonical_pair().g))
        assert "f4_strictly_increasing" in rep.failed()

    @pytest.mark.parametrize("side", ["f", "g"])
    def test_pair_takes_piecewise_linear_only(self, side):
        pair = canonical_pair()
        other = {"f": pair.f, "g": pair.g, side: lambda x: getattr(pair, side)(x)}
        with pytest.raises(ValueError, match=f"profile {side} must be PiecewiseLinear"):
            ProfilePair(**other)


_pl = PiecewiseLinear.from_knots
_FALLING_F = _pl([-1.0, 3.5, 4.0], [0.0, 1.0, 0.5])  # convex and increasing on [-3, 3] only


class TestExactChecks:
    """A pair is decided on all of R: each failure below lies outside [-3, 3]."""

    @pytest.mark.parametrize("pair, failed", [
        (ProfilePair(_FALLING_F, canonical_pair().g), ["f2_convex", "f4_strictly_increasing"]),
        (ProfilePair(_pl([-3.5, -1.0, 0.5], [0.0, 0.0, 1.0], left_slope=-0.2, right_slope=1.0),
                     canonical_pair().g), ["f3_zero_left"]),
        (ProfilePair(canonical_pair().f, _pl([-4.0, -3.5, -1.0, 1.0], [1.2, 1.0, 1.0, 0.0])),
         ["g3_one_left"]),
        (ProfilePair(canonical_pair().f, _pl([-1.0, 1.0, 3.2, 4.0], [1.0, 0.0, 0.0, -0.5])),
         ["g5_zero_right"]),
    ], ids=["f-falls-after-3.5", "f-nonzero-left-of-3.5", "g-not-one-left-of-3.5",
            "g-negative-after-3.2"])
    def test_failure_outside_the_grid(self, pair, failed):
        assert validate_profiles(pair).failed() == failed

    @pytest.mark.parametrize("make", [canonical_pair, _steep_pair, _three_kink_pair],
                             ids=["canonical", "steep", "three-kink"])
    def test_shipped_and_test_pairs_pass(self, make):
        rep = validate_profiles(make())
        assert rep.ok, rep.failed()
        assert [c.name for c in rep.checks] == [
            "f1_lipschitz", "g1_lipschitz", "f2_convex", "f3_zero_left",
            "f4_strictly_increasing", "g2_nonincreasing", "g3_one_left",
            "g4_positive_inside", "g5_zero_right"]

    def test_g_zero_at_an_inner_kink(self):
        g = _pl([-1.0, 0.2, 1.0], [1.0, 0.0, 0.0])  # g = 0 on [0.2, 1): not positive inside
        assert validate_profiles(ProfilePair(canonical_pair().f, g)).failed() == [
            "g4_positive_inside"]


class TestDistinct:
    def test_matches_np_unique_bit_for_bit(self):
        # np.unique is the reference: repeats, signed zeros, infinities and 2-d input
        rng = np.random.default_rng(3)
        cases = [np.round(rng.normal(size=(7, 5)), 1), np.array([0.0, -0.0, 0.0, -1.0, -0.0]),
                 np.array([np.inf, 1.0, -np.inf, np.inf]), np.array([2.5]), np.zeros(0)]
        for x in cases:
            got, want = _distinct(x), np.unique(x)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
        want = _canonical_closed(xs)[2]
        assert np.max(np.abs(F.deriv2(xs) - want)) <= 1e-15
        assert F.deriv2(0.5) == 1.0


class TestCustomPair:
    make_pair = staticmethod(_steep_pair)

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


class TestLimitProfile:
    """H_n, H_n' and H_n'' of `LimitProfile`, the radial profile of the band family's limit."""

    PAIRS = [canonical_pair(), _steep_pair(), _three_kink_pair()]

    @staticmethod
    def _args(F):  # left of F's first break, on every piece, and right of the last
        return np.linspace(F.breaks[0] - 0.5, F.breaks[-1] + 3.0, 31)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_quadrature(self, n):
        for pair in self.PAIRS:
            F = ConvolutionProfile(pair)
            H = LimitProfile(F, n)
            a = self._args(F)
            for got, fn in ((H(a), F), (H.deriv(a), F.deriv), (H.deriv2(a), F.deriv2)):
                want = np.array([radial_quad(fn, n, x, F.breaks) for x in a])
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_h2_is_half_the_integral_of_F(self):
        # n = 2: H_2(a) = (1/2) integral_{-inf}^a F, here from the antiderivative of each
        # cubic piece in its own local variable
        for pair in self.PAIRS:
            F = ConvolutionProfile(pair)
            a = self._args(F)
            want = np.zeros_like(a)
            for left, right, c in zip(F.breaks, np.append(F.breaks[1:], np.inf), F.coef[1:]):
                x = np.clip(a, left, right) - left
                want += 0.5 * sum(c[k] * x ** (k + 1) / (k + 1) for k in range(4))
            assert LimitProfile(F, 2)(a) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_h1_is_half_the_line_integral(self):
        # n = 1: H_1(a) = (1/2) integral over R of F(a - sigma^2), by Gauss-Legendre between
        # the sigma where a - sigma^2 crosses a break: exact on each polynomial piece
        xi, wi = np.polynomial.legendre.leggauss(8)
        for pair in self.PAIRS:
            F = ConvolutionProfile(pair)
            a = self._args(F)
            want = np.zeros_like(a)
            for i, x in enumerate(a):
                root = np.sqrt(np.maximum(x - F.breaks, 0.0))
                ends = np.unique(np.concatenate([-root, root]))
                for lo, hi in zip(ends[:-1], ends[1:]):
                    sigma = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xi
                    want[i] += 0.25 * (hi - lo) * np.dot(wi, F(x - sigma * sigma))
            assert LimitProfile(F, 1)(a) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_zero_left_of_F_and_shape_kept(self):
        F = ConvolutionProfile(canonical_pair())
        H = LimitProfile(F, 3)
        assert H(-2.0) == 0.0 and H.deriv(-5.0) == 0.0 and H.deriv2(-2.5) == 0.0
        assert np.shape(H(0.5)) == () and H(np.zeros((2, 3))).shape == (2, 3)


class TestPiecewiseLinear:
    def test_continuity_enforced(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0]))

    def test_right_hand_derivative_at_kink(self):
        f = canonical_pair().f
        assert pl_deriv(f, -1.0) == 1.0
        g = canonical_pair().g
        assert pl_deriv(g, -1.0) == -0.5
        assert pl_deriv(g, 1.0) == 0.0
