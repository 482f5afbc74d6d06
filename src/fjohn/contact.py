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
from .logconcave import LogConcaveFn, PiecewiseLogAffine, eval_h_many, make_log_concave

GOLD = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ContactSet:
    points: np.ndarray  # (k, n)
    gap_tol: float
    h_values: np.ndarray  # h(u_i)**(1/s)
    continuum: bool = False

    @property
    def k(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class DecompositionReport:
    residual_a: float
    residual_b: float
    residual_c: float
    residual_d: float
    tol: float

    @property
    def pass_a(self) -> bool:
        return self.residual_a <= self.tol

    @property
    def pass_b(self) -> bool:
        return self.residual_b <= self.tol

    @property
    def pass_c(self) -> bool:
        return self.residual_c <= self.tol

    @property
    def pass_d(self) -> bool:
        return self.residual_d <= self.tol

    @property
    def ok(self) -> bool:
        return self.pass_a and self.pass_b and self.pass_c and self.pass_d

    def as_dict(self) -> dict:
        return {
            "residual_a": self.residual_a,
            "residual_b": self.residual_b,
            "residual_c": self.residual_c,
            "residual_d": self.residual_d,
            "tol": self.tol,
            "pass": {"a": self.pass_a, "b": self.pass_b, "c": self.pass_c, "d": self.pass_d},
            "ok": self.ok,
        }


def hemisphere_gap(h: LogConcaveFn, s: float, X: np.ndarray) -> np.ndarray:
    """h(x)**(1/s) - sqrt(1 - |x|^2) on rows of X (nonnegative in John position)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r2 = np.sum(X * X, axis=1)
    hemi = np.sqrt(np.clip(1.0 - r2, 0.0, None))
    return eval_h_many(h, X) ** (1.0 / s) - hemi


def make_tangent_instance(points, s: float, domain_radius: float | None = None) -> LogConcaveFn:
    """Log-concave h touching the hemisphere power exactly at the given points.

    Tangent pieces: a_i = s*u_i/(1-|u_i|^2), b_i = -(s/2)log(1-|u_i|^2) - <a_i, u_i>.
    Needs every point strictly inside the unit ball.
    """
    U = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = np.sum(U * U, axis=1)
    if np.any(r2 >= 1.0):
        raise PointOnBoundary("tangent construction needs interior points")
    a = s * U / (1.0 - r2)[:, None]
    b = -(s / 2.0) * np.log(1.0 - r2) - np.sum(a * U, axis=1)
    return make_log_concave(a, b, s, domain_radius)


def _contact_set_for(h: LogConcaveFn, s: float, points: np.ndarray,
                     gap_tol: float = 1e-10) -> ContactSet:
    vals = eval_h_many(h, points) ** (1.0 / s)
    return ContactSet(points=points, gap_tol=gap_tol, h_values=vals)


def cross_fixture(n: int, s: float):
    """Axis-cross instance: points +-rho e_j with rho^2 = n/(n+s), equal weights.

    The weights c = (n+s)/(2n) satisfy all four decomposition conditions
    exactly.  Degenerate for the minimization (one flat direction), so it is
    used for certificate tests only.
    """
    rho = np.sqrt(n / (n + s))
    pts = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = rho
        pts.extend([e.copy(), -e.copy()])
    points = np.array(pts)
    weights = np.full(2 * n, (n + s) / (2.0 * n))
    h = make_tangent_instance(points, s)
    return h, _contact_set_for(h, s, points), weights


def two_level_cross_fixture(n: int, s: float, rho1_sq: float, rho2_sq: float):
    """Axis cross at two radii; weights solve the per-axis and corner conditions.

    2*c1*rho1^2 + 2*c2*rho2^2 = 1        (per-axis identity condition)
    2n*c1*(1-rho1^2) + 2n*c2*(1-rho2^2) = s   (corner condition)

    Coercive for the minimization (unlike the single-level cross).
    """
    if not 0.0 < rho1_sq < rho2_sq < 1.0:
        raise InfeasibleWeights(f"need 0 < rho1_sq < rho2_sq < 1, got {rho1_sq}, {rho2_sq}")
    A = np.array([[2.0 * rho1_sq, 2.0 * rho2_sq],
                  [2.0 * n * (1.0 - rho1_sq), 2.0 * n * (1.0 - rho2_sq)]])
    c1, c2 = np.linalg.solve(A, np.array([1.0, s]))
    if c1 <= 0.0 or c2 <= 0.0:
        raise InfeasibleWeights(f"nonpositive weights c1={c1:.6g}, c2={c2:.6g}")
    pts, wts = [], []
    for rho_sq, c in ((rho1_sq, c1), (rho2_sq, c2)):
        rho = np.sqrt(rho_sq)
        for j in range(n):
            e = np.zeros(n)
            e[j] = rho
            pts.extend([e.copy(), -e.copy()])
            wts.extend([c, c])
    points = np.array(pts)
    weights = np.array(wts)
    h = make_tangent_instance(points, s)
    return h, _contact_set_for(h, s, points), weights


def verify_decomposition(points, weights, h: LogConcaveFn, s: float,
                         tol: float = 1e-8) -> DecompositionReport:
    """Residuals of the four decomposition-of-identity conditions."""
    U = np.atleast_2d(np.asarray(points, dtype=float))
    c = np.asarray(weights, dtype=float)
    n = U.shape[1]
    r2 = np.sum(U * U, axis=1)
    h_pow = eval_h_many(h, U) ** (1.0 / s)
    res_a = float(np.max(np.abs(h_pow - np.sqrt(np.clip(1.0 - r2, 0.0, None)))))
    M = (U.T * c) @ U
    res_b = float(np.linalg.norm(M - np.eye(n), ord="fro"))
    res_c = float(abs(np.dot(c, h_pow**2) - s))
    res_d = float(np.linalg.norm(c @ U))
    return DecompositionReport(res_a, res_b, res_c, res_d, tol)


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - GOLD * (b - a)
    d = a + GOLD * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLD * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLD * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _refine_contact(h: LogConcaveFn, s: float, x0: np.ndarray, step: float) -> np.ndarray:
    """Coordinate descent with golden-section line searches, then a Newton polish.

    Golden section alone localizes a smooth minimum only to sqrt(eps); the
    finite-difference Newton steps push interior tangency contacts to ~1e-11.
    """
    x = np.array(x0, dtype=float)
    n = len(x)

    def phi_at(y):
        return float(hemisphere_gap(h, s, y[None, :])[0])

    width = step
    for _ in range(80):
        moved = 0.0
        for i in range(n):
            rest = np.dot(x, x) - x[i] * x[i]
            cap = np.sqrt(max(1.0 - rest, 0.0))
            lo = max(x[i] - width, -cap)
            hi = min(x[i] + width, cap)
            if hi <= lo:
                continue

            def along(t, i=i):
                y = x.copy()
                y[i] = t
                return phi_at(y)

            t_new = _golden_section(along, lo, hi, 1e-12)
            moved = max(moved, abs(t_new - x[i]))
            x[i] = t_new
        width = max(width * 0.5, 1e-8)
        if moved < 1e-10:
            break

    fd = 1e-5
    for _ in range(6):
        if np.dot(x, x) > (1.0 - 10 * fd) ** 2:
            break
        grad = np.zeros(n)
        hess = np.zeros((n, n))
        base = phi_at(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = fd
            fp, fm = phi_at(x + ei), phi_at(x - ei)
            grad[i] = (fp - fm) / (2 * fd)
            hess[i, i] = (fp - 2 * base + fm) / fd**2
        for i in range(n):
            for j in range(i + 1, n):
                ei = np.zeros(n)
                ei[i] = fd
                ej = np.zeros(n)
                ej[j] = fd
                hess[i, j] = hess[j, i] = (
                    phi_at(x + ei + ej) - phi_at(x + ei - ej)
                    - phi_at(x - ei + ej) + phi_at(x - ei - ej)) / (4 * fd**2)
        try:
            delta = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(delta)) or np.linalg.norm(delta) > 10 * step:
            break
        y = x + delta
        if np.dot(y, y) >= 1.0 or phi_at(y) > base + 1e-15:
            break
        x = y
        if np.linalg.norm(delta) < 1e-12:
            break
    return x


def _contact_set(h: LogConcaveFn, s: float, candidates, gap_tol: float) -> ContactSet:
    """Candidates with gap <= gap_tol, deduplicated at 1e-6 and sorted."""
    X = np.asarray(candidates, dtype=float).reshape(-1, h.n)
    kept = []
    for x in X[hemisphere_gap(h, s, X) <= gap_tol]:
        if not any(np.linalg.norm(x - y) <= 1e-6 for y in kept):
            kept.append(x)
    kept.sort(key=lambda p: tuple(p))
    points = np.array(kept) if kept else np.zeros((0, h.n))
    vals = (eval_h_many(h, points) ** (1.0 / s)) if kept else np.zeros(0)
    return ContactSet(points=points, gap_tol=gap_tol, h_values=vals)


def _grid_contacts(h: LogConcaveFn, s: float, grid_per_axis: int = 101,
                   gap_tol: float = 1e-8) -> ContactSet:
    """Ball grid scan plus coordinate-descent refinement, for any form of h.

    Raises NotJohnPosition when h**(1/s) drops below the hemisphere anywhere
    on the grid.  When at least half of the grid is in contact the set is
    returned as-is with continuum=True.  Contacts closer than about one grid
    step are merged.
    """
    n = h.n
    axes = [np.linspace(-1.0, 1.0, grid_per_axis)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    inside = np.sum(X * X, axis=1) <= 1.0
    X = X[inside]
    gaps = hemisphere_gap(h, s, X)
    if np.min(gaps) < -gap_tol:
        worst = X[int(np.argmin(gaps))]
        raise NotJohnPosition(
            f"h**(1/s) falls below the hemisphere by {-np.min(gaps):.3e} near {worst}")

    if np.mean(gaps <= gap_tol) >= 0.5:
        vals = eval_h_many(h, X) ** (1.0 / s)
        return ContactSet(points=X, gap_tol=gap_tol, h_values=vals, continuum=True)

    # local minimizers on the grid: no neighbor (one step along any axis) is lower
    gap_map = {tuple(np.round(x, 12)): g for x, g in zip(X, gaps)}
    step = 2.0 / (grid_per_axis - 1)
    candidates = []
    for x, g in zip(X, gaps):
        best = True
        for i in range(n):
            for sgn in (-1.0, 1.0):
                y = x.copy()
                y[i] += sgn * step
                gy = gap_map.get(tuple(np.round(y, 12)))
                if gy is not None and gy < g:
                    best = False
                    break
            if not best:
                break
        if best:
            candidates.append(x)

    return _contact_set(h, s, [_refine_contact(h, s, x, step) for x in candidates], gap_tol)


def detect_contacts(h: LogConcaveFn, s: float, grid_per_axis: int = 101,
                    gap_tol: float = 1e-8) -> ContactSet:
    """Contact set of h**(1/s) with the hemisphere.

    For max-affine h the contacts are exact: psi <= -(s/2) log(1 - |x|^2)
    with a strictly convex right side, so piece j can touch only at its
    tangency point u_j = rho_j a_j/|a_j| with s rho_j/(1 - rho_j^2) = |a_j|
    (u_j = 0 when a_j = 0), and h is in John position iff the gap is
    nonnegative at every u_j and domain_radius >= 1.  Raises
    NotJohnPosition otherwise; the set is never a continuum.

    grid_per_axis only matters when h is not max-affine: then the grid scan
    `_grid_contacts` is used.
    """
    form = h.form
    if not isinstance(form, PiecewiseLogAffine):
        return _grid_contacts(h, s, grid_per_axis, gap_tol)
    if form.domain_radius is not None and form.domain_radius < 1.0:
        raise NotJohnPosition(
            f"domain radius {form.domain_radius} < 1: h vanishes inside the unit ball")
    norm = np.linalg.norm(form.a, axis=1)
    rho = 2.0 * norm / (s + np.sqrt(s * s + 4.0 * norm * norm))
    U = form.a * np.divide(rho, norm, out=np.zeros_like(norm), where=norm > 0.0)[:, None]
    gaps = hemisphere_gap(h, s, U)
    j = int(np.argmin(gaps))
    if gaps[j] < -gap_tol:
        raise NotJohnPosition(
            f"h**(1/s) falls below the hemisphere by {-gaps[j]:.3e} at {U[j]} (piece {j})")
    return _contact_set(h, s, U, gap_tol)
