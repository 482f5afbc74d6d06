"""Brute-force reference computations the tests check the package against.

These share as little as possible with what they check: grid search instead
of descent, trapezoid sums instead of closed forms, raw (x, y) grids instead
of the band substitution, sorted merges instead of fixed segment pairs,
Gram-Schmidt instead of a QR.  Slow on purpose.  The package never imports
this module; `scripts/gen_expectations.py` reaches it through `sys.path`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from fjohn import isotropy, rfamily
from fjohn.blockmat import BlockMat, EPoint, s_trace, trace0_array
from fjohn.contact import ContactSet, _hemisphere_gap, _merge_contacts
from fjohn.errors import NotConverged, NotInBr, NotJohnPosition, SingularA
from fjohn.isotropy import DiscreteMeasure, _Atoms
from fjohn.logconcave import LogConcaveFn, PiecewiseLogAffine, eval_h_many
from fjohn.profiles import ConvolutionProfile, PiecewiseLinear, ProfilePair

GOLD = (np.sqrt(5.0) - 1.0) / 2.0


# --- block matrices ---------------------------------------------------------------------

def s_det(b: BlockMat, s: float) -> float:
    """corner**s * det(diag).  Needs corner > 0 when s is not an integer."""
    if b.corner <= 0 and s != int(s):
        raise ValueError(f"corner={b.corner} with non-integer s={s}")
    return float(b.corner**s * np.linalg.det(b.diag))


def project_trace0(p: EPoint, s: float) -> EPoint:
    """Orthogonal projection onto the weighted-trace-zero subspace.

    Subtracts the component along (Id + s-corner, 0); idempotent, and the
    image is exactly the kernel of s_trace.
    """
    n = p.n
    coeff = s_trace(p.mat, s) / (n + s * s)
    diag = p.mat.diag - coeff * np.eye(n)
    return EPoint(BlockMat(diag, p.mat.corner - coeff * s), p.shift)


def gram_schmidt_basis(n: int, s: float) -> np.ndarray:
    """Gram-Schmidt over the symmetric unit blocks, the corner and the shifts,
    each projected off the identity direction; a candidate that vanishes is dropped.

    One flat `EPoint.vec` per row: the reference for the closed form of `trace0_array`.
    """
    cands = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            cands.append(EPoint(BlockMat(E, 0.0), np.zeros(n)))
    cands.append(EPoint(BlockMat(np.zeros((n, n)), 1.0), np.zeros(n)))
    cands += [EPoint(BlockMat(np.zeros((n, n)), 0.0), w) for w in np.eye(n)]
    basis = []
    for c in cands:
        v = project_trace0(c, s).vec
        for b in basis:
            v = v - float(np.dot(v, b)) * b
        if np.linalg.norm(v) > 1e-12:
            basis.append(v * (1.0 / np.linalg.norm(v)))
    return np.array(basis)


# --- positive span ------------------------------------------------------------------------

def lp_spans(a):
    """Oracle: rank n and a strictly positive convex combination of the rows is 0 (HiGHS LP).

    The reference for `logconcave._positive_span`; scipy is imported here only.
    """
    from scipy import optimize

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
    res = optimize.linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                           bounds=[(None, None)] * (k + 1), method="highs")
    assert res.success, res.message
    return -res.fun > 1e-12


# --- grid search --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    center: np.ndarray
    half_width: float
    points_per_axis: int = 401
    refinements: int = 1

    def __post_init__(self):
        if self.points_per_axis % 2 == 0:
            raise ValueError("points_per_axis must be odd so the center is included")
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        c.flags.writeable = False
        object.__setattr__(self, "center", c)


def grid_minimize(objective, basis: np.ndarray, grid: GridSpec, objective_batch=None):
    """Exhaustive minimization over a tensor grid in subspace coordinates.

    `basis` holds one flat `EPoint.vec` per row, as `trace0_array(n, s)`
    gives it, and coordinates c stand for the point with flat form
    c @ basis.  Each refinement re-centers on the best point and shrinks the
    half-width by 10x.  `objective_batch`, when given, maps an (m, dim)
    coordinate array to m values and avoids per-point Python dispatch.
    """
    n = math.isqrt(basis.shape[1])  # a row has n^2 + 1 + n entries
    center = grid.center.copy()
    half = grid.half_width
    best_coords, best_val = None, np.inf
    for _ in range(grid.refinements + 1):
        axes = [np.linspace(c - half, c + half, grid.points_per_axis) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)
        if objective_batch is not None:
            vals = np.asarray(objective_batch(coords), dtype=float)
        else:
            vals = np.array([objective(EPoint.from_vec(c @ basis, n)) for c in coords])
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_coords = coords[k].copy()
        center = coords[k].copy()
        half /= 10.0
    return EPoint.from_vec(best_coords @ basis, n), best_val


# --- contacts -----------------------------------------------------------------------------

def envelope_breaks_scan(form: PiecewiseLogAffine, lo: float, hi: float) -> np.ndarray:
    """Kinks of a 1-D max-affine envelope on [lo, hi] from a 4097-point argmax scan.

    Each switch of the maximizing piece between neighbouring samples reports
    the crossing of the two pieces, so a piece that wins only between two
    samples is missed and its neighbours' crossing reported instead.
    """
    a, b = form.a[:, 0], form.b
    idx = np.argmax(np.outer(np.linspace(lo, hi, 4097), a) + b, axis=1)
    crossings = [(b[j] - b[i]) / (a[i] - a[j]) for i, j in zip(idx[:-1], idx[1:]) if a[i] != a[j]]
    return np.array(sorted(x for x in crossings if lo < x < hi))


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


def hemisphere_gap(h: LogConcaveFn, s: float, X) -> np.ndarray:
    """h(x)**(1/s) - sqrt(1 - |x|^2) on rows of X, through `contact._hemisphere_gap`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _hemisphere_gap(eval_h_many(h, X) ** (1.0 / s), X)


def merged_contact_set(h: LogConcaveFn, s: float, candidates, gap_tol: float) -> ContactSet:
    """Candidates with gap <= gap_tol through the package's merge, `contact._merge_contacts`.

    What `contact.detect_contacts` does with its tangency points, on any
    candidates; `pairwise_contact_set` is its reference.  The merge keeps
    gaps up to `contact.GAP_TOL`, so the candidates are filtered by
    `gap_tol` first and handed in with a gap of 0.
    """
    X = np.asarray(candidates, dtype=float).reshape(-1, h.n)
    h_pow = eval_h_many(h, X) ** (1.0 / s)
    on = _hemisphere_gap(h_pow, X) <= gap_tol
    return _merge_contacts(X[on], h_pow[on], np.zeros(int(np.sum(on))))


def pairwise_contact_set(h: LogConcaveFn, s: float, candidates, gap_tol: float) -> ContactSet:
    """Candidates with gap <= gap_tol, merged at 1e-6 one pair at a time, and sorted.

    The reference for `merged_contact_set`: a candidate is kept unless it
    lies within 1e-6 of an earlier kept one, tested pair by pair, and h is
    evaluated again at the kept points.
    """
    X = np.asarray(candidates, dtype=float).reshape(-1, h.n)
    kept = []
    for x in X[hemisphere_gap(h, s, X) <= gap_tol]:
        if not any(np.linalg.norm(x - y) <= 1e-6 for y in kept):
            kept.append(x)
    kept.sort(key=lambda p: tuple(p))
    points = np.array(kept) if kept else np.zeros((0, h.n))
    vals = (eval_h_many(h, points) ** (1.0 / s)) if kept else np.zeros(0)
    return ContactSet(points=points, h_values=vals)


def grid_candidates(h: LogConcaveFn, s: float, grid_per_axis: int = 101,
                    gap_tol: float = 1e-8) -> list[np.ndarray]:
    """The refined grid minimizers of the hemisphere gap that `grid_contacts` merges.

    Raises NotJohnPosition when h**(1/s) drops below the hemisphere anywhere
    on the grid.
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

    return [_refine_contact(h, s, x, step) for x in candidates]


def grid_contacts(h: LogConcaveFn, s: float, grid_per_axis: int = 101,
                  gap_tol: float = 1e-8) -> ContactSet:
    """Contact set by a ball grid scan plus coordinate-descent refinement.

    The cross-check for the closed form of `contact.detect_contacts`: it
    uses h only through its values.  Raises NotJohnPosition when h**(1/s)
    drops below the hemisphere anywhere on the grid.  Contacts closer than
    about one grid step are merged.
    """
    return pairwise_contact_set(h, s, grid_candidates(h, s, grid_per_axis, gap_tol), gap_tol)


# --- contact functional -------------------------------------------------------------------

def functional_value(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                     F: ConvolutionProfile, p: EPoint) -> float:
    """Weighted sum of h^(1/s) F(arg) over the atoms of nu, at the point p.

    The value the Newton loop of `isotropy.minimize_functional` descends,
    taken at any point, for finite differences and grid searches.  Raises
    AtomOffContactSet as `isotropy._Atoms` does.
    """
    at = _Atoms(h, s, nu)
    return float(np.dot(at.m, at.h_pow * F(at.args(p))))


# --- profiles -----------------------------------------------------------------------------

def radial_quad(fn, n: int, a: float, breaks) -> float:
    """Oracle for `profiles.LimitProfile`: integral_0^inf rho^(n-1) fn(a - rho^2) d rho.

    fn is F, F' or F'', which vanish left of breaks[0]; the rho-range is split
    where a - rho^2 crosses a break, so every piece is a polynomial in rho
    that scipy's adaptive quadrature (imported here only) takes exactly.
    """
    from scipy import integrate

    ends = np.sqrt(np.maximum(a - np.asarray(breaks, dtype=float), 0.0))
    ends = np.unique(np.concatenate([[0.0], ends]))
    return float(sum(integrate.quad(lambda rho: rho ** (n - 1) * fn(a - rho * rho), lo, hi,
                                    epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for lo, hi in zip(ends[:-1], ends[1:])))


def pl_deriv(pl: PiecewiseLinear, x):
    """Right-hand derivative of a piecewise-linear function."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(pl.breaks, x, side="right")
    return pl.slopes[idx] + np.zeros_like(x)


def convolve_numeric(f, g_bar, x: float, step: float = 1e-4) -> float:
    """Trapezoid rule for integral of f(t) g_bar(x - t) dt over t in [-1, x + 1]."""
    lo, hi = -1.0, x + 1.0
    if hi <= lo:
        return 0.0
    m = max(2, int(np.ceil((hi - lo) / step)) + 1)
    t = np.linspace(lo, hi, m)
    vals = np.asarray(f(t), dtype=float) * np.asarray(g_bar(x - t), dtype=float)
    return float(np.trapezoid(vals, t))


# 4-node Gauss-Legendre rule on [-1, 1]: exact on each segment of `convolve_pl`,
# where the integrand is a product of two linear pieces
_GL4_NODES, _GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)


def convolve_pl(f: PiecewiseLinear, g: PiecewiseLinear, xs, order: int = 0) -> np.ndarray:
    """Integral of f(t) g(t - x) dt (order 0) or f(t) (-g')(t - x) dt (order 1).

    The integrand is supported on t in [-1, x + 1] and is piecewise polynomial
    between the kinks of f and the shifted kinks of g; fixed-order
    Gauss-Legendre per segment is exact.  Every x gets the same number of
    cuts, clipped to its support, so a segment of zero length adds 0.
    """
    xs = np.asarray(xs, dtype=float)[:, None]
    lo, hi = -1.0, np.maximum(xs + 1.0, -1.0)
    cuts = np.concatenate([np.full_like(xs, lo), hi, f.breaks + 0.0 * xs, g.breaks + xs], axis=1)
    cuts = np.sort(np.minimum(np.maximum(cuts, lo), hi), axis=1)
    mid, half = 0.5 * (cuts[:, :-1] + cuts[:, 1:]), 0.5 * (cuts[:, 1:] - cuts[:, :-1])
    t = mid[..., None] + half[..., None] * _GL4_NODES
    u = t - xs[..., None]
    vals = f(t) * (g(u) if order == 0 else -pl_deriv(g, u))
    return np.sum(half * (vals @ _GL4_WEIGHTS), axis=1)


# --- band functionals ---------------------------------------------------------------------

def x_grid(n: int, radius: float, nodes_per_axis: int, kinks=None):
    """Tensor grid of `rfamily._axis_rule` on [-radius, radius]^n: nodes (N, n), weights (N,).

    Node i0 * P^(n-1) + ... + i_(n-1) is (x[i0], ..., x[i_(n-1)]) for the
    P nodes x of the axis rule.  `_Band.blocks` walks this order in blocks
    without building the grid; this whole-grid form is its reference.
    Kinks are used for n = 1 only.
    """
    x1, w1 = rfamily._axis_rule(radius, nodes_per_axis, kinks if n == 1 else None)
    pts = np.stack([m.ravel() for m in np.meshgrid(*([x1] * n), indexing="ij")], axis=1)
    return pts, functools.reduce(np.multiply.outer, [w1] * n).ravel()


def psi_gradient(form: PiecewiseLogAffine, X: np.ndarray) -> np.ndarray:
    """The gradient of psi at the rows of X: the slope of the active piece (first on a tie).

    From a product of its own in (nodes, pieces) layout, the reference for
    the active piece that `eval_h_many` finds in its (pieces, nodes) product.
    """
    return form.a[np.argmax(X @ form.a.T + form.b, axis=1)]


def inner_band_alone(f_pl, g_pl, r, c2, den, r2m1, derivs):
    """`rfamily._inner_band` on a scratch of its own, which goes back to the free list.

    The arrays it returns are copies, so a later walk, which reuses the
    scratch's buffer, leaves them as they are.
    """
    with rfamily._Scratch(len(c2), rfamily._kernel_rows(len(g_pl.breaks), derivs)) as scratch:
        return tuple(x.copy() for x in rfamily._inner_band(f_pl, g_pl, r, c2, den, r2m1, derivs,
                                                           scratch))


def sorted_inner_band(f_pl, g_pl, r, c2, den, r2m1):
    """The sorted-merge kernel that `rfamily._inner_band` replaces, its bit-for-bit reference.

    Each node stacks -1, the kinks of f above -1 and the pullbacks of the
    kinks of g, clipped to [-1, t_top], sorts them, and picks the pieces of
    f and g on every segment at its midpoint.
    """
    omr = 1.0 - r
    g_breaks = g_pl.breaks

    def pullback(gb):
        tau2 = (den[:, None] * gb[None, :] - r2m1[:, None]) / c2[:, None]
        return (np.sqrt(np.maximum(tau2, 0.0)) - 1.0) / omr

    is_open = np.flatnonzero(~(pullback(g_breaks[-1:])[:, 0] <= -1.0))
    c2, den, r2m1 = c2[is_open], den[is_open], r2m1[is_open]
    t_roots = pullback(g_breaks)
    t_top = t_roots[:, -1:]

    cols = [np.full(len(c2), -1.0)]
    cols.extend(np.full(len(c2), fb) for fb in f_pl.breaks if fb > -1.0)
    cols.extend(t_roots[:, k] for k in range(len(g_breaks)))
    B = np.minimum(np.maximum(np.stack(cols, axis=1), -1.0), t_top)
    B.sort(axis=1)

    xi = rfamily._gauss(2)[0][:, None]
    qlo, qhi = g_breaks[0] - 1.0, g_breaks[-1] + 1.0
    inner = np.zeros(len(c2))
    d_inner = np.zeros(len(c2))
    for j in range(B.shape[1] - 1):
        a, b = B[:, j], B[:, j + 1]
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        kf = np.searchsorted(f_pl.breaks, mid, side="right")
        kg = np.searchsorted(g_breaks, (r2m1 + c2 * (1.0 + omr * mid)**2) / den, side="right")
        f_slope, f_icpt = f_pl.slopes[kf], f_pl.intercepts[kf]
        g_slope, g_icpt = g_pl.slopes[kg], g_pl.intercepts[kg]
        t = mid + half * xi
        tau2 = (1.0 + omr * t) ** 2
        q = np.minimum(np.maximum((r2m1 + c2 * tau2) / den, qlo), qhi)
        f_t = f_slope * t + f_icpt
        vals = f_t * (g_slope * q + g_icpt)
        d_vals = f_t * tau2
        inner += half * (vals[0] + vals[1])
        d_inner += (half * g_slope) * (d_vals[0] + d_vals[1])
    return is_open, inner, d_inner / den


def inner_curvature(f_pl, g_pl, r, c2, den, r2m1):
    """I'' = dI'/dc2 on open nodes (`_inner_band`'s inputs there): one point term per kink of g.

    The second kernel that `rfamily._inner_band` replaces with the I'' it
    reduces from its own pullbacks, kept as its bit-for-bit reference.
    g' jumps by D_k at g's kink k (by minus its last slope at the top one,
    above which the band ends), so I'' = sum_k D_k f(t_k) (tau_k^2/den)^2/q'(t_k)
    = sum_k D_k f(t_k) tau_k^3/(2 c2 (1-r) den) over the kinks whose pullback
    t_k lies above -1 (f(-1) = 0), with tau = 1 + (1-r) t, q' = 2 c2 (1-r) tau/den.
    The sum runs kink by kink at each node, in g's order, from 0.
    """
    jumps = np.append(g_pl.slopes[1:-1], 0.0) - g_pl.slopes[:-1]
    tau = np.sqrt(np.maximum((np.multiply.outer(g_pl.breaks, den) - r2m1) / c2, 0.0))
    terms = np.where(tau > r, f_pl((tau - 1.0) / (1.0 - r)) * tau ** 3, 0.0)
    total = np.zeros(terms.shape[1:])
    for jump, row in zip(jumps, terms):
        total = total + jump * row
    return total / (2.0 * (1.0 - r) * c2 * den)


def dense_quadrature_band(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                          p: EPoint, x_nodes: int = 4000, y_nodes: int = 4000,
                          radius: float | None = None) -> float:
    """Raw midpoint-rule double integral of the band functional, no substitution.

    Only trustworthy for r <= 0.9 where the band is thick; agreement with the
    band-substitution path within 1e-4 relative is the validation target.
    """
    n = h.n
    if n != 1:
        raise ValueError("dense reference implemented for n = 1")
    A, alpha, v = p.mat.diag, p.mat.corner, p.shift
    probe = np.linspace(-2.0, 2.0, 401)[:, None]
    sup_h2s = float(np.max(eval_h_many(h, probe) ** (2.0 / s))) * 1.0000001
    if radius is None:
        radius = float(np.sqrt(1.0 + 2.0 * (1.0 - r) * sup_h2s)) + 1e-6
    y_hi = radius

    xs = (np.arange(x_nodes) + 0.5) / x_nodes * 2 * radius - radius
    ys = (np.arange(y_nodes) + 0.5) / y_nodes * y_hi
    wx = 2 * radius / x_nodes
    wy = y_hi / y_nodes

    X = xs[:, None]
    h_x2s = eval_h_many(h, X) ** (2.0 / s)
    h_Axv = eval_h_many(h, X @ A.T + v) ** (1.0 / s)
    if np.any(h_Axv == 0.0):
        return float("inf")

    total = 0.0
    omr = 1.0 - r
    for j in range(y_nodes):
        y = ys[j]
        z = alpha * y / h_Axv
        with np.errstate(divide="ignore"):
            garg = ((xs * xs + y * y - 1.0) / (2.0 * h_x2s) + 1.0 - 1.0) / omr
        fvals = np.asarray(pair.f((z - 1.0) / omr), dtype=float)
        gvals = np.asarray(pair.g(np.clip(garg, -2.0, 2.0)), dtype=float)
        total += float(np.dot(fvals, gvals))
    return total * wx * wy / omr


def band_walk(band, position, shifted: bool, derivs: bool):
    """The band walk of one position (r, A, alpha, v): `_Band.line` at n = 1, else `blocks`."""
    if band.h.n == 1:
        return band.line([position], shifted, derivs)
    return band.blocks(position, shifted, derivs)


def density_sums(band, r: float, minimizer: EPoint, bumps) -> tuple[np.ndarray, float]:
    """Every bump's integral against the concentration measure at r, and the multiplier.

    The unshifted density walk that `rfamily._band_measure` replaced, kept as
    its second-route reference: it walks the band (`band_walk`) in the factor
    argument x (band variable A^-1 (x - v)) and sums the density directly.
    One walk of the density alpha^(s-1) D / h^(1/s), with D the integral of
    f'(t) (1+(1-r)t) g(q(t)) dt.  By parts, since f(t) (1+(1-r)t) g(q(t))
    vanishes at both ends of the band (`check_band_pair`), and with
    dq/dt = 2 c^2 (1+(1-r)t)(1-r)/den, D = -(1-r)(I + 2 c^2 I').  Each block
    adds its share of every integral and of the multiplier's numerator.
    Raises SingularA unless the block is SPD with a positive corner, and
    NotInBr when part of the band lies where h vanishes (band functional +inf).
    """
    A, alpha, v = minimizer.mat.diag, minimizer.mat.corner, minimizer.shift
    if not rfamily._positive(A, alpha):
        raise SingularA("block must be positive definite with positive corner")
    s = band.s
    integrals, moment = np.zeros(len(bumps)), 0.0
    for block in band_walk(band, (r, A, alpha, v), shifted=False, derivs=True):
        if block is None:
            raise NotInBr("the band reaches where h vanishes")
        W, h_x, inner, d_inner, _, X = block[:6]
        c2 = (h_x / alpha) ** 2
        density = (-(1.0 - r) * alpha ** (s - 1.0)) * (inner + 2.0 * c2 * d_inner) / h_x
        for k, delta in enumerate(bumps):
            integrals[k] += float(np.sum(W * np.asarray(delta(X), dtype=float) * density))
        slope = psi_gradient(band.h.form, X)
        contraction = h_x**2 * ((1.0 / s) * np.sum(slope * X, axis=1) + s)
        moment += float(np.sum(W * density * contraction))
    return integrals, moment / ((1.0 - r) * (band.h.n + s * s))


def kink_hessian(band, r: float, A: np.ndarray, alpha: float, v: np.ndarray) -> np.ndarray:
    """The n = 1 kink term of `rfamily._band_sums`' flat Hessian, from a kernel call of its own.

    The separate `_inner_band` call on psi's open kinks that the term took
    before the kinks joined the walk's call, kept as its bit-for-bit
    reference: per open kink y_k, -(da_k/s) Phi_u dy dy^T/A at
    x_k = (y_k - v)/A, dy = (x_k, 0, 1), Phi_u = c (I + 2 c^2 I').  The
    3 x 3 zero matrix when no kink is open.
    """
    s, hess = band.s, np.zeros((3, 3))
    a, x = float(A[0, 0]), (band.breaks - v[0]) / float(A[0, 0])
    den, r2m1 = 2.0 * (1.0 - r) * eval_h_many(band.h, x[:, None]) ** (2.0 / s), x * x - 1.0
    c2 = (band.h_breaks / alpha) ** 2
    k = np.flatnonzero((den * band.g.breaks[-1] - r2m1 > c2 * r * r) & (c2 > 0.0))  # open
    if len(k):
        opened, inner, d_inner, _ = inner_band_alone(band.f, band.g, r, c2[k], den[k], r2m1[k],
                                                     derivs=True)
        k, c2 = k[opened], c2[k[opened]]
        dy = np.zeros((len(k), 3))
        dy[:, 0], dy[:, 2] = x[k], 1.0
        phi_u = np.sqrt(c2) * (inner + 2.0 * c2 * d_inner)
        hess += (dy.T * (-band.jumps[k] / (s * a) * phi_u)) @ dy
    return hess


def theta_point(theta, n: int, s: float):
    """The position at theta, coordinates on the rows of `trace0_array`, in the linear chart.

    theta @ trace0_array(n, s) is the flat form (S, -tr S/s, shift); the block is
    I + S and the corner det(I + S)^(-1/s), from the eigenvalues of the block by
    the expression of `rfamily._band_value_grad`.
    """
    flat = theta @ trace0_array(n, s)
    A = np.eye(n) + flat[:n * n].reshape(n, n)
    alpha = float(np.exp(-np.sum(np.log(np.linalg.eigh(A)[0])) / s))
    return EPoint(BlockMat(A, alpha), flat[n * n + 1:])


def fd_newton_minimize(band, r: float, x0=None, max_iter=400):
    """Newton on difference Hessians, the reference of the exact-Newton `rfamily._minimize_band`.

    Every step builds the Hessian from forward differences of the analytic
    gradient (step fd = 1e-4 (1-r)), takes the minimizers' Newton step
    (`isotropy._newton_step`) and halves it under Armijo in a loop of its own;
    it stops once the fresh Hessian predicts a decrease below ROUNDING of the
    value (CONVERGED) or the halved step falls below fd without a decrease
    (RESOLVED).  Returns (point, value, evaluations, stop_reason).
    """
    n, s = band.h.n, band.s
    basis = trace0_array(n, s)
    evals = 0

    def evaluate(theta):
        nonlocal evals
        evals += 1
        return rfamily._band_value_grad(band, r, theta)[:2]

    if x0 is not None:  # the coordinates of (A - I, -tr(A - I)/s, shift), on the basis's span
        S_0 = x0.mat.diag - np.eye(n)
        theta = basis @ np.concatenate([S_0.ravel(), [-np.trace(S_0) / s], x0.shift])
    else:
        theta = np.zeros(len(basis))
    value, grad = evaluate(theta)
    fd = 1e-4 * (1.0 - r)
    hess, it, stop = None, 0, rfamily.CONVERGED
    while hess is None or isotropy._newton_step(hess, grad)[1] > rfamily.ROUNDING * value:
        if it == max_iter:
            stop = "max_iter"
            break
        cols = []
        for unit in np.eye(len(theta)):
            for step in (fd, -fd):
                g_k = evaluate(theta + step * unit)[1]
                if g_k is not None:
                    break
            else:
                raise NotConverged(f"coercive barrier within {fd:.1e} of the iterate at r={r}")
            cols.append((g_k - grad) / step)
        hess = 0.5 * (np.array(cols) + np.array(cols).T)
        delta, decrease = isotropy._newton_step(hess, grad)
        if decrease <= rfamily.ROUNDING * value:
            break
        t = 1.0
        while True:
            c_value, c_grad = evaluate(theta + t * delta)
            if c_value <= value - 2e-4 * t * decrease:
                break
            t *= 0.5
            if t * np.linalg.norm(delta) < fd:
                stop = rfamily.RESOLVED
                break
        if stop == rfamily.RESOLVED:
            break
        theta, value, grad, it = theta + t * delta, c_value, c_grad, it + 1
    return theta_point(theta, n, s), value, evals, stop
