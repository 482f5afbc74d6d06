"""Contact sets, tangency-built test instances, and decomposition certificates.

A contact point is where h**(1/s) meets the hemisphere height
sqrt(1 - |x|^2).  Instances are built so that the hemisphere is touched
exactly at prescribed interior points: each point contributes the supporting
tangent of the convex function -(s/2) log(1 - |x|^2), and the maximum of
those tangents stays below that function everywhere else, so h dominates the
hemisphere power with equality exactly at the construction points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWeights, NotJohnPosition, PointOnBoundary
from .logconcave import LogConcaveFn, _check_unit_ball, eval_h_many, make_log_concave

GAP_TOL = 1e-8  # the largest hemisphere gap of a contact point, wherever contacts are decided
# GAP_TOL^2 < 2^-53 <= 1 - |x|^2 for every float |x|^2 < 1: where h = 0, |gap| > GAP_TOL
DECOMPOSITION_TOL = 1e-8  # the largest residual of a decomposition condition that passes


@dataclass(frozen=True)
class ContactSet:
    points: np.ndarray  # (k, n)
    h_values: np.ndarray  # h(u_i)**(1/s)


@dataclass(frozen=True)
class DecompositionReport:
    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    weights_positive: bool  # every weight a finite number > 0, as John's c_i must be

    def _passes(self) -> dict:
        """Condition -> residual <= DECOMPOSITION_TOL, the one pass rule (a NaN residual fails)."""
        return {k: getattr(self, f"residual_{k}") <= DECOMPOSITION_TOL for k in "abcd"}

    @property
    def ok(self) -> bool:
        return self.weights_positive and all(self._passes().values())

    def as_dict(self) -> dict:
        return {**vars(self), "tol": DECOMPOSITION_TOL, "pass": self._passes(), "ok": self.ok}


def _hemisphere_gap(h_pow: np.ndarray, X: np.ndarray) -> np.ndarray:
    """h(x)**(1/s) - sqrt(1 - |x|^2) at the rows of X, from h_pow = h**(1/s) there.

    Nonnegative on the unit ball in John position, and zero at the contacts.
    +inf where |x|^2 >= 1, since a contact lies in the open unit ball (NaN stays NaN).
    """
    r2 = np.sum(X * X, axis=1)
    return np.where(r2 >= 1.0, np.inf, h_pow - np.sqrt(np.clip(1.0 - r2, 0.0, None)))


def make_tangent_instance(points, s: float, domain_radius: float | None = None) -> LogConcaveFn:
    """Log-concave h touching the hemisphere power exactly at the given points.

    Tangent pieces: a_i = s*u_i/(1-|u_i|^2), b_i = -(s/2)log(1-|u_i|^2) - <a_i, u_i>.
    Needs every point strictly inside the unit ball.
    """
    U = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = np.sum(U * U, axis=1)
    if np.any(r2 >= 1.0):
        raise PointOnBoundary("tangent construction needs points inside the open unit ball")
    a = s * U / (1.0 - r2)[:, None]
    b = -(s / 2.0) * np.log(1.0 - r2) - np.sum(a * U, axis=1)
    return make_log_concave(a, b, s, domain_radius)


def _axis_cross(n: int, s: float,
                levels: list[tuple[float, float]]) -> tuple[LogConcaveFn, ContactSet, np.ndarray]:
    """Tangent instance at the points +-rho e_j, one ring per (rho^2, weight) level.

    Returns h, the contact set (the points in ring, axis, sign order, with
    their h**(1/s)) and one weight per point.
    """
    pts = []
    for rho_sq, _ in levels:
        E = np.sqrt(rho_sq) * np.eye(n)
        pts.append(np.stack([E, -E], axis=1).reshape(2 * n, n))
    points = np.vstack(pts)
    weights = np.repeat([c for _, c in levels], 2 * n)
    h = make_tangent_instance(points, s)
    h_pow = eval_h_many(h, points) ** (1.0 / s)
    return h, ContactSet(points=points, h_values=h_pow), weights


def cross_fixture(n: int, s: float):
    """Axis-cross instance: points +-rho e_j with rho^2 = n/(n+s), equal weights.

    The weights c = (n+s)/(2n) satisfy all four decomposition conditions
    exactly.  Degenerate for the minimization (one flat direction), so it is
    used for certificate tests only.
    """
    return _axis_cross(n, s, [(n / (n + s), (n + s) / (2.0 * n))])


def two_level_cross_fixture(n: int, s: float, rho1_sq: float, rho2_sq: float):
    """Axis cross at two radii; weights solve the per-axis and corner conditions.

    2*c1*rho1^2 + 2*c2*rho2^2 = 1        (per-axis identity condition)
    2n*c1*(1-rho1^2) + 2n*c2*(1-rho2^2) = s   (corner condition)

    At n = 1 the contact functional is coercive (Phi has full rank and its
    rows positively span).  At n = 2 and 3 it is not: the axis cross makes
    Phi (`isotropy._Atoms.phi`) rank 4 of 5 and 6 of 9, flat along the
    off-diagonal entries of the block, so `logconcave._positive_span` is
    False there.
    """
    if not 0.0 < rho1_sq < rho2_sq < 1.0:
        raise InfeasibleWeights(f"need 0 < rho1_sq < rho2_sq < 1, got {rho1_sq}, {rho2_sq}")
    A = np.array([[2.0 * rho1_sq, 2.0 * rho2_sq],
                  [2.0 * n * (1.0 - rho1_sq), 2.0 * n * (1.0 - rho2_sq)]])
    c1, c2 = np.linalg.solve(A, np.array([1.0, s]))
    if c1 <= 0.0 or c2 <= 0.0:
        raise InfeasibleWeights(f"nonpositive weights c1={c1:.6g}, c2={c2:.6g}")
    return _axis_cross(n, s, [(rho1_sq, c1), (rho2_sq, c2)])


def verify_decomposition(points, weights, h: LogConcaveFn, s: float) -> DecompositionReport:
    """Residuals of the four decomposition-of-identity conditions, and the weights' sign.

    Small residuals on weights of either sign are not a decomposition, so `ok` needs both.
    """
    U = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.asarray(weights, dtype=float)
    n = U.shape[1]
    h_pow = eval_h_many(h, U) ** (1.0 / s)
    res_a = float(np.max(np.abs(_hemisphere_gap(h_pow, U))))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is an inf (or NaN) residual
        res_b = float(np.linalg.norm((U.T * c) @ U - np.eye(n), ord="fro"))
        res_d = float(np.linalg.norm(c @ U))
    res_c = float(abs(np.dot(c, h_pow**2) - s))
    positive = bool(np.all((c > 0.0) & np.isfinite(c)))
    return DecompositionReport(res_a, res_b, res_c, res_d, positive)


def _merge_contacts(X: np.ndarray, h_pow: np.ndarray, gaps: np.ndarray) -> ContactSet:
    """The rows of X with gap <= GAP_TOL, deduplicated at 1e-6 and sorted, with their h**(1/s).

    The merge is greedy in candidate order: a candidate goes when it lies
    within 1e-6 of an earlier kept one.  One k x k matrix holds the
    distances, each taken with the dot product `np.linalg.norm` takes of a
    single difference (so the 1e-6 test matches a pair loop bit for bit),
    and the loop walks the candidates, not the pairs.
    """
    on = gaps <= GAP_TOL
    X, h_pow = X[on], h_pow[on]
    diff = X[:, None, :] - X[None, :, :]
    close = np.sqrt(np.vecdot(diff, diff)) <= 1e-6
    keep = np.ones(len(X), dtype=bool)
    for i in range(len(X)):
        if keep[i]:
            keep[i + 1:] &= ~close[i, i + 1:]
    X, h_pow = X[keep], h_pow[keep]
    order = np.lexsort(X.T[::-1])  # lexicographic in the coordinates, as tuples sort
    return ContactSet(points=X[order], h_values=h_pow[order])


def detect_contacts(h: LogConcaveFn, s: float, grid_per_axis: int | None = None) -> ContactSet:
    """Contact set of h**(1/s) with the hemisphere, in closed form.

    psi <= -(s/2) log(1 - |x|^2) with a strictly convex right side, so piece
    j can touch only at its tangency point u_j = rho_j a_j/|a_j| with
    s rho_j/(1 - rho_j^2) = |a_j| (u_j = 0 when a_j = 0), and h^(1/s)
    dominates the hemisphere and touches it iff the gap is nonnegative at
    every u_j, zero at some u_j, and domain_radius >= 1.  Raises
    NotJohnPosition otherwise.  Touching is not John position, which needs a
    decomposition of the identity on the contact set (`verify_decomposition`
    checks one for given weights): `tangent_n1_s1` touches at one point and
    has none.  A gap below
    -GAP_TOL is a fall below the hemisphere, and one of at most GAP_TOL a
    contact, as in `isotropy._Atoms`; an h whose least gap exceeds GAP_TOL
    touches the hemisphere nowhere.
    So does a NaN gap, naming the piece (a slope whose 4|a_j|^2 overflows has a NaN u_j).

    grid_per_axis is accepted and ignored, as the instance file's
    `tolerances.grid_per_axis` is in schema version 1.  The tests check
    this closed form against a grid scan of the same set.
    """
    _check_unit_ball(h)
    form = h.form
    norm = np.linalg.norm(form.a, axis=1)
    rho = 2.0 * norm / (s + np.sqrt(s * s + 4.0 * norm * norm))
    U = form.a * np.divide(rho, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]
    h_pow = eval_h_many(h, U) ** (1.0 / s)
    gaps = _hemisphere_gap(h_pow, U)
    j = int(np.argmin(gaps))  # the first NaN, if any
    if np.isnan(gaps[j]):
        raise NotJohnPosition(f"the hemisphere gap of piece {j} is not a number")
    if gaps[j] < -GAP_TOL:
        raise NotJohnPosition(
            f"h**(1/s) falls below the hemisphere by {-gaps[j]:.3e} at {U[j]} (piece {j})")
    if gaps[j] > GAP_TOL:
        raise NotJohnPosition(f"h**(1/s) touches the hemisphere nowhere: the least gap is "
                              f"{gaps[j]:.3e} at {U[j]} (piece {j})")
    return _merge_contacts(U, h_pow, gaps)
