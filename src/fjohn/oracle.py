"""Brute-force reference computations used to validate the main code paths.

These share as little as possible with what they check: grid search instead
of descent, trapezoid sums instead of closed forms, raw (x, y) grids instead
of the band substitution.  Slow on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockmat import EPoint
from .logconcave import LogConcaveFn, PiecewiseLogAffine, eval_h_many
from .profiles import ProfilePair


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


def grid_minimize(objective, subspace_basis: list[EPoint], grid: GridSpec,
                  objective_batch=None):
    """Exhaustive minimization over a tensor grid in subspace coordinates.

    Each refinement re-centers on the best point and shrinks the half-width
    by 10x.  `objective_batch`, when given, maps an (m, dim) coordinate array
    to m values and avoids per-point Python dispatch.
    """
    dim = len(subspace_basis)
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
            vals = np.empty(coords.shape[0])
            for i in range(coords.shape[0]):
                p = EPoint.zero(subspace_basis[0].n)
                for c, b in zip(coords[i], subspace_basis):
                    p = p + float(c) * b
                vals[i] = objective(p)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_coords = coords[k].copy()
        center = coords[k].copy()
        half /= 10.0
    point = EPoint.zero(subspace_basis[0].n)
    for c, b in zip(best_coords, subspace_basis):
        point = point + float(c) * b
    return point, best_val


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


def convolve_numeric(f, g_bar, x: float, step: float = 1e-4) -> float:
    """Trapezoid rule for integral of f(t) g_bar(x - t) dt over t in [-1, x + 1]."""
    lo, hi = -1.0, x + 1.0
    if hi <= lo:
        return 0.0
    m = max(2, int(np.ceil((hi - lo) / step)) + 1)
    t = np.linspace(lo, hi, m)
    vals = np.asarray(f(t), dtype=float) * np.asarray(g_bar(x - t), dtype=float)
    return float(np.trapezoid(vals, t))


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
