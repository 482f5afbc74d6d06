"""Log-concave functions h = exp(-psi), ellipsoid height functions and s-volumes.

psi is a maximum of affine pieces (optionally restricted to a ball), which
keeps evaluation exact, makes gradients piecewise constant, and is closed
under the tangent constructions used to build test instances.  The ellipsoid
height form covers the hemisphere-type functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .blockmat import EPoint, is_spd
from .errors import DimensionMismatch, NotProper, SingularA, SubgradientAmbiguous, ZeroValue

KINK_REL_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseLogAffine:
    """psi(x) = max_j (<a_j, x> + b_j), h = exp(-psi); zero outside the domain ball."""

    a: np.ndarray  # (k, n)
    b: np.ndarray  # (k,)
    domain_radius: float | None = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch("piece counts of a and b differ")
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class EllipsoidHeightPower:
    """h = scale * height_fn(E, .)**power."""

    E: EPoint
    power: float
    scale: float = 1.0

    @property
    def n(self) -> int:
        return self.E.n


@dataclass(frozen=True)
class LogConcaveFn:
    n: int
    s: float
    form: PiecewiseLogAffine | EllipsoidHeightPower


@dataclass(frozen=True)
class SLiftingPoint:
    x: np.ndarray
    xi: float


def height_fn(E: EPoint, x: np.ndarray) -> float:
    """Height of the ellipsoid (A, alpha, a) above x: alpha*sqrt(1 - |A^-1(x-a)|^2)."""
    A, alpha, a = E.mat.diag, E.mat.corner, E.shift
    if not is_spd(A) or alpha <= 0:
        raise SingularA("ellipsoid block must be SPD with positive corner")
    z = np.linalg.solve(A, np.asarray(x, dtype=float) - a)
    q = 1.0 - float(np.dot(z, z))
    return alpha * np.sqrt(q) if q > 0.0 else 0.0


def psi_eval(form: PiecewiseLogAffine, x: np.ndarray) -> float:
    return float(np.max(form.a @ np.asarray(x, dtype=float) + form.b))


def psi_eval_many(form: PiecewiseLogAffine, X: np.ndarray) -> np.ndarray:
    """Vectorized psi over rows of X, ignoring the domain ball."""
    return np.max(X @ form.a.T + form.b, axis=1)


def eval_h(h: LogConcaveFn, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    form = h.form
    if isinstance(form, PiecewiseLogAffine):
        if form.domain_radius is not None and np.dot(x, x) > form.domain_radius**2:
            return 0.0
        return float(np.exp(-psi_eval(form, x)))
    return form.scale * height_fn(form.E, x) ** form.power


def eval_h_many(h: LogConcaveFn, X: np.ndarray) -> np.ndarray:
    """Vectorized eval_h over rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    form = h.form
    if isinstance(form, PiecewiseLogAffine):
        vals = np.exp(-psi_eval_many(form, X))
        if form.domain_radius is not None:
            vals = np.where(np.sum(X * X, axis=1) <= form.domain_radius**2, vals, 0.0)
        return vals
    return np.array([eval_h(h, x) for x in X])


def active_piece(form: PiecewiseLogAffine, x: np.ndarray, strict: bool = True) -> int:
    """Index of the maximizing affine piece; raise if the top two are near-tied."""
    vals = form.a @ np.asarray(x, dtype=float) + form.b
    order = np.argsort(vals)
    j = int(order[-1])
    if strict and len(vals) > 1:
        gap = vals[j] - vals[order[-2]]
        if gap <= KINK_REL_TOL * (1.0 + abs(vals[j])):
            raise SubgradientAmbiguous(f"pieces {j} and {int(order[-2])} tied at x={x}")
    return j


def grad_psi(form: PiecewiseLogAffine, x: np.ndarray, strict: bool = True) -> np.ndarray:
    return form.a[active_piece(form, x, strict=strict)].copy()


def grad_h_pow(h: LogConcaveFn, x: np.ndarray, s: float) -> np.ndarray:
    """Gradient of h**(1/s) at x.

    For the max-affine form this is -(a_j/s) * h(x)**(1/s) with a_j the unique
    active piece; raises SubgradientAmbiguous at kinks and ZeroValue where h
    vanishes.
    """
    x = np.asarray(x, dtype=float)
    hx = eval_h(h, x)
    if hx <= 0.0:
        raise ZeroValue(f"h({x}) = 0")
    form = h.form
    if isinstance(form, PiecewiseLogAffine):
        a = grad_psi(form, x)
        return -(a / s) * hx ** (1.0 / s)
    # scale * height**power: chain rule through the height function
    E, p = form.E, form.power
    A, alpha, a0 = E.mat.diag, E.mat.corner, E.shift
    z = np.linalg.solve(A, x - a0)
    q = 1.0 - float(np.dot(z, z))
    if q <= 0.0:
        raise ZeroValue("gradient undefined on the boundary of the shadow ellipsoid")
    hgt = alpha * np.sqrt(q)
    grad_height = -alpha * np.linalg.solve(A.T, z) / np.sqrt(q)
    c = form.scale ** (1.0 / s)
    return c * (p / s) * hgt ** (p / s - 1.0) * grad_height


def s_lifting_contains(h: LogConcaveFn, p: SLiftingPoint, s: float) -> bool:
    """|xi| <= h(x)**(1/s), with an absolute slack of 1e-12."""
    return abs(p.xi) <= eval_h(h, p.x) ** (1.0 / s) + 1e-12


def s_volume_unit_ball(n: int, s: float) -> float:
    """Integral of (1 - |x|^2)**(s/2) over the unit ball, via the radial reduction."""
    if n == 1:
        surface = 2.0
    else:
        from math import gamma, pi

        surface = 2.0 * pi ** (n / 2.0) / gamma(n / 2.0)
    if n == 1:
        val, _ = integrate.quad(lambda t: (1.0 - t * t) ** (s / 2.0), -1.0, 1.0,
                                epsabs=0.0, epsrel=1e-11, limit=200)
        return float(val)
    val, _ = integrate.quad(lambda t: t ** (n - 1) * (1.0 - t * t) ** (s / 2.0), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-11, limit=200)
    return float(surface * val)


def s_volume_ellipsoid(E: EPoint, s: float) -> float:
    """Scaling law: unit-ball s-volume times corner**s * det(block)."""
    A, alpha = E.mat.diag, E.mat.corner
    if not is_spd(A) or alpha <= 0:
        raise SingularA("ellipsoid block must be SPD with positive corner")
    return s_volume_unit_ball(E.n, s) * alpha**s * float(np.linalg.det(A))


def _positively_spans(a: np.ndarray) -> bool:
    """True iff the rows of a positively span R^n.

    Equivalent to the origin lying in the interior of their convex hull:
    rank n and a strictly positive convex combination of the rows is zero.
    """
    k, n = a.shape
    if k < n + 1 or np.linalg.matrix_rank(a) < n:
        return False
    # max t s.t. sum lam_j a_j = 0, sum lam_j = 1, lam_j >= t
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([a.T, np.zeros((n, 1))]), np.hstack([np.ones(k), 0.0])])
    b_eq = np.zeros(n + 1)
    b_eq[-1] = 1.0
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    b_ub = np.zeros(k)
    res = optimize.linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] * k + [(None, None)], method="highs")
    return bool(res.success and -res.fun > 1e-12)


def check_proper(h: LogConcaveFn) -> None:
    """Raise NotProper unless h has a finite positive integral.

    Max-affine h with unbounded domain must have coercive psi, certified
    exactly by an LP: the pieces' gradients positively span R^n.  On a domain
    ball of positive radius h is positive and bounded, so proper; a radius
    <= 0 leaves a null support.  Ellipsoid-height forms are always proper.
    """
    form = h.form
    if isinstance(form, EllipsoidHeightPower):
        return
    if form.domain_radius is None:
        if not _positively_spans(form.a):
            raise NotProper("unbounded domain and piece gradients do not positively span R^n")
    elif form.domain_radius <= 0.0:
        raise NotProper(f"domain radius {form.domain_radius} leaves h a null support")


def make_log_concave(a, b, s: float, domain_radius: float | None = None) -> LogConcaveFn:
    form = PiecewiseLogAffine(np.atleast_2d(np.asarray(a, dtype=float)),
                              np.atleast_1d(np.asarray(b, dtype=float)),
                              domain_radius)
    return LogConcaveFn(n=form.n, s=s, form=form)
