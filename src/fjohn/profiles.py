"""Profile functions f, g and their convolution profile F.

f is zero left of -1, convex and strictly increasing afterwards; g is one
left of -1, nonincreasing, positive on (-1, 1) and zero from 1 on.  Both
are piecewise linear, in the canonical pair and in every custom one, which
makes the convolution F(x) = integral f(t) g(t - x) dt piecewise
polynomial and lets the band quadratures integrate it segment-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function on R.

    `breaks` are the k sorted kink locations; `slopes` and `intercepts` give
    the k+1 affine pieces on (-inf, b_1], [b_1, b_2], ..., [b_k, inf).
    Evaluation at a kink uses the right-hand piece (the sides agree there).
    """

    breaks: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        br = np.atleast_1d(np.asarray(self.breaks, dtype=float))
        sl = np.atleast_1d(np.asarray(self.slopes, dtype=float))
        ic = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if len(sl) != len(br) + 1 or len(ic) != len(br) + 1:
            raise ValueError("need one more piece than breaks")
        if np.any(np.diff(br) <= 0):
            raise ValueError("breaks must be strictly increasing")
        for i, b in enumerate(br):
            left = sl[i] * b + ic[i]
            right = sl[i + 1] * b + ic[i + 1]
            if abs(left - right) > 1e-12 * (1.0 + abs(left)):
                raise ValueError(f"discontinuity at break {b}: {left} vs {right}")
        for arr, name in ((br, "breaks"), (sl, "slopes"), (ic, "intercepts")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="right")
        return self.slopes[idx] * x + self.intercepts[idx]

    @staticmethod
    def from_knots(xs, ys, left_slope: float = 0.0, right_slope: float = 0.0) -> "PiecewiseLinear":
        """Interpolate the knot list, extending with the given outer slopes."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        slopes = [left_slope]
        intercepts = [ys[0] - left_slope * xs[0]]
        for i in range(len(xs) - 1):
            m = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            slopes.append(m)
            intercepts.append(ys[i] - m * xs[i])
        slopes.append(right_slope)
        intercepts.append(ys[-1] - right_slope * xs[-1])
        return PiecewiseLinear(xs, np.array(slopes), np.array(intercepts))


@dataclass(frozen=True)
class ProfilePair:
    """The profile functions f and g, both `PiecewiseLinear`.

    That form is what every consumer relies on: `validate_profiles` decides
    the pair exactly on all of R, the convolution profile is one piecewise
    cubic, and the band quadratures integrate segment-exactly.  Anything
    else raises ValueError here.
    """

    f: PiecewiseLinear
    g: PiecewiseLinear

    def __post_init__(self):
        for name, fn in (("f", self.f), ("g", self.g)):
            if not isinstance(fn, PiecewiseLinear):
                raise ValueError(f"profile {name} must be PiecewiseLinear, got {type(fn).__name__}")


def canonical_pair() -> ProfilePair:
    """f: 0 then x+1 from -1; g: 1, then (1-x)/2 on (-1,1), then 0."""
    f = PiecewiseLinear(np.array([-1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    g = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([0.0, -0.5, 0.0]),
                        np.array([1.0, 0.5, 0.0]))
    return ProfilePair(f=f, g=g)


@dataclass
class PropertyCheck:
    name: str
    ok: bool


@dataclass
class ProfileReport:
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.ok]


_TOL = 1e-12  # rounding allowed in the "= 0", "= 1" and "nondecreasing slope" checks


def validate_profiles(pair: ProfilePair) -> ProfileReport:
    """Check the nine profile properties, each decided exactly on all of R by `_exact_checks`."""
    return ProfileReport([PropertyCheck(name, bool(ok))
                          for name, ok in _exact_checks(pair.f, pair.g)])


def _exact_checks(f: PiecewiseLinear, g: PiecewiseLinear):
    """The nine properties of a piecewise-linear pair as (name, verdict), on all of R.

    A continuous piecewise-linear function is constant (increasing, ...) on
    an interval exactly when every piece meeting it has slope 0 (> 0, ...),
    and it equals a constant there when it also does at one point: so each
    property reads the slopes of the pieces meeting (-inf, -1), (-1, inf)
    or (1, inf) and the values at -1 and 1.  g > 0 on (-1, 1) holds when it
    does at the kinks inside and at the midpoints between them and +-1, and
    g(-1), g(1) >= 0: each piece is then positive inside its segment.
    """
    def slopes_on(pl, lo, hi):  # piece k spans [b_(k-1), b_k]: those meeting (lo, hi)
        b = pl.breaks
        return pl.slopes[np.searchsorted(b, lo, side="right"):np.searchsorted(b, hi) + 1]

    def finite(pl):
        return np.all(np.isfinite(pl.slopes)) and np.all(np.isfinite(pl.intercepts))

    inside = g.breaks[(g.breaks > -1.0) & (g.breaks < 1.0)]
    ends = np.concatenate([[-1.0], inside, [1.0]])
    return [
        ("f1_lipschitz", finite(f)),
        ("g1_lipschitz", finite(g)),
        ("f2_convex", np.all(np.diff(f.slopes) >= -_TOL)),
        ("f3_zero_left", np.all(np.abs(slopes_on(f, -np.inf, -1.0)) <= _TOL)
         and abs(f(-1.0)) <= _TOL),
        ("f4_strictly_increasing", np.all(slopes_on(f, -1.0, np.inf) > 0.0)),
        ("g2_nonincreasing", np.all(g.slopes <= _TOL)),
        ("g3_one_left", np.all(np.abs(slopes_on(g, -np.inf, -1.0)) <= _TOL)
         and abs(g(-1.0) - 1.0) <= _TOL),
        ("g4_positive_inside", np.all(g(inside) > 0.0)
         and np.all(g(0.5 * (ends[:-1] + ends[1:])) > 0.0) and np.all(g(ends[[0, -1]]) >= 0.0)),
        ("g5_zero_right", np.all(np.abs(slopes_on(g, 1.0, np.inf)) <= _TOL)
         and abs(g(1.0)) <= _TOL),
    ]


class ConvolutionProfile:
    """F(x) = integral f(t) g(t - x) dt with F' and F''; nondecreasing and convex.

    For a piecewise-linear pair F'' is piecewise linear: integrating
    integral f(t) g''(t - x) dt by parts gives F''(x) = sum_k J_k f(x + b_k)
    over the kinks b_k of g, with J_k the jump of g' there.  Its breaks are
    the differences of a kink of f and a kink of g, and it is 0 left of
    them (f vanishes left of -1, g right of 1).  So F is one piecewise
    cubic, built once by integrating F'' twice from 0: row i of `coef`
    holds a0..a3 in powers of u = x - `lefts`[i].  The canonical pair
    yields 0, (x+2)^3/12 on [-2, 0] and x^2/2 + x + 2/3 from 0 on.
    """

    def __init__(self, pair: ProfilePair):
        f, g = pair.f, pair.g
        jumps = np.diff(g.slopes)
        self.breaks = np.unique(np.subtract.outer(f.breaks, g.breaks))
        ends = np.append(self.breaks, self.breaks[-1] + 2.0)
        # f's piece per kink of g taken at each piece's midpoint: at a break
        # (f_kink - g_kink) + g_kink can round to the other side of f_kink
        kf = np.searchsorted(f.breaks, np.add.outer(0.5 * (ends[:-1] + ends[1:]), g.breaks),
                             side="right")
        slope = f.slopes[kf] @ jumps
        d2 = f(np.add.outer(self.breaks, g.breaks)) @ jumps
        width = np.diff(self.breaks)
        d1 = np.concatenate([[0.0], np.cumsum((d2[:-1] + 0.5 * slope[:-1] * width) * width)])
        d0 = np.concatenate([[0.0], np.cumsum(
            ((slope[:-1] * width / 6.0 + 0.5 * d2[:-1]) * width + d1[:-1]) * width)])
        self.lefts = np.concatenate([self.breaks[:1], self.breaks])
        self.coef = np.zeros((len(self.lefts), 4))
        self.coef[1:] = np.stack([d0, d1, 0.5 * d2, slope / 6.0], axis=1)

    def _local(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breaks, x, side="right")
        return x - self.lefts[idx], self.coef[idx].T

    def __call__(self, x):
        u, (a0, a1, a2, a3) = self._local(x)
        return ((a3 * u + a2) * u + a1) * u + a0

    def deriv(self, x):
        u, (_, a1, a2, a3) = self._local(x)
        return (3.0 * a3 * u + 2.0 * a2) * u + a1

    def deriv2(self, x):
        u, (_, _, a2, a3) = self._local(x)
        return 6.0 * a3 * u + 2.0 * a2
