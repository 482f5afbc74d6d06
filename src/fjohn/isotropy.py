"""Contact functional over weighted atoms: evaluation, minimization, extraction.

For a positive measure on the contact set, the functional

    sum_i m_i h(x_i)**(1/s) F(<x_i, M x_i + w>/h(x_i)**(2/s) + beta)

is convex in (M, beta, w).  Minimizing it over the weighted-trace-zero
subspace and reading off the stationarity multiplier produces a centered
isotropic measure supported on the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockmat import (BlockMat, EPoint, from_coords, identity_direction, inner,
                       project_trace0, trace0_basis)
from .contact import hemisphere_gap
from .errors import (AllWeightsZero, AtomOffContactSet, DivergingIterates, NotConverged,
                     ZeroValueAtom)
from .logconcave import LogConcaveFn, eval_h_many
from .profiles import ConvolutionProfile


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms (x_i, m_i) with positive masses and pairwise-distinct points."""

    points: np.ndarray  # (k, n)
    masses: np.ndarray  # (k,)

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.points, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if P.shape[0] != m.shape[0]:
            raise ValueError("points/masses length mismatch")
        if np.any(m <= 0.0):
            raise ValueError("masses must be positive")
        for i in range(P.shape[0]):
            for j in range(i + 1, P.shape[0]):
                if np.linalg.norm(P[i] - P[j]) < 1e-9:
                    raise ValueError(f"atoms {i} and {j} coincide")
        P.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "masses", m)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))


@dataclass
class MinimizerResult:
    point: EPoint
    value: float
    projected_grad_norm: float
    lam: float
    iterations: int
    converged: bool
    lambda_gap: float = 0.0


@dataclass
class IsotropyReport:
    lam: float
    residual_iso: float
    residual_center: float
    nonneg: bool
    nonzero: bool

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "residual_iso": self.residual_iso,
            "residual_center": self.residual_center,
            "nonneg": self.nonneg,
            "nonzero": self.nonzero,
        }


@dataclass
class WitnessReport:
    margin: float
    n_checked: int
    failures: list = field(default_factory=list)  # (label, direction EPoint, max_expr)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Atoms:
    """Cached per-atom quantities for one (h, s, nu) combination."""

    def __init__(self, h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                 contact_tol: float = 1e-8):
        gaps = hemisphere_gap(h, s, nu.points)
        if np.max(np.abs(gaps)) > contact_tol:
            i = int(np.argmax(np.abs(gaps)))
            raise AtomOffContactSet(
                f"atom {nu.points[i]} has contact gap {gaps[i]:.3e} > {contact_tol:.1e}")
        hv = eval_h_many(h, nu.points)
        if np.any(hv <= 0.0):
            raise ZeroValueAtom("h vanishes at an atom")
        self.X = nu.points
        self.m = nu.masses
        self.h_pow = hv ** (1.0 / s)          # h^(1/s)
        self.h_pow2 = self.h_pow**2           # h^(2/s)
        self.n = nu.points.shape[1]
        self.s = s

    def args(self, p: EPoint) -> np.ndarray:
        """<x_i, M x_i + w>/h_i^(2/s) + beta for all atoms."""
        Mx = self.X @ p.mat.diag.T + p.shift
        return np.sum(self.X * Mx, axis=1) / self.h_pow2 + p.mat.corner


def functional_value(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                     F: ConvolutionProfile, p: EPoint) -> float:
    """Weighted sum of h^(1/s) F(arg) over the atoms."""
    at = _Atoms(h, s, nu)
    return float(np.dot(at.m, at.h_pow * F(at.args(p))))


def functional_gradient(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, p: EPoint) -> EPoint:
    """Gradient as a pair: sum_i m_i/h_i^(1/s) F'(arg_i) (x_i x_i^T + h_i^(2/s) corner, x_i)."""
    return _gradient(_Atoms(h, s, nu), F, p)


def _gradient(at: _Atoms, F: ConvolutionProfile, p: EPoint) -> EPoint:
    c = at.m / at.h_pow * F.deriv(at.args(p))
    return EPoint(BlockMat((at.X.T * c) @ at.X, float(np.dot(c, at.h_pow2))), c @ at.X)


def coercivity_witness(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                       n_dirs: int = 1000, seed: int = 0) -> WitnessReport:
    """Directional positivity check for coercivity on the trace-zero subspace.

    For each unit direction (M, beta, w) the witness needs some atom with
    <x, Mx + w>/h^(2/s) + beta > 0.  Sampled directions (seeded) are checked
    together with the analytic flat candidates: the identity-block direction
    with corner -n/s, and the coordinate shift directions.
    """
    at = _Atoms(h, s, nu)
    n = at.n
    basis = trace0_basis(n, s)
    rng = np.random.default_rng(seed)

    dirs: list[tuple[str, EPoint]] = []
    flat = EPoint(BlockMat(np.eye(n), -n / s), np.zeros(n))
    flat = flat * (1.0 / flat.norm())
    dirs.append(("identity-flat(+)", flat))
    dirs.append(("identity-flat(-)", -1.0 * flat))
    for j in range(n):
        w = np.zeros(n)
        w[j] = 1.0
        e = EPoint(BlockMat.zero(n), w)
        dirs.append((f"shift(+e{j})", e))
        dirs.append((f"shift(-e{j})", -1.0 * e))
    coeffs = rng.standard_normal((n_dirs, len(basis)))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)

    # args is linear in the direction: the sampled ones are one matmul with
    # the (k, d) feature matrix of the basis
    phi = np.array([at.args(b) for b in basis]).T
    best = np.concatenate([[np.max(at.args(d)) for _, d in dirs],
                           np.max(coeffs @ phi.T, axis=1)])
    failures = []
    for i in np.flatnonzero(best <= 1e-12):
        if i < len(dirs):
            label, d = dirs[i]
        else:
            label, d = f"sample{i - len(dirs)}", from_coords(coeffs[i - len(dirs)], basis)
        failures.append((label, d, float(best[i])))
    return WitnessReport(margin=float(np.min(best)), n_checked=len(best), failures=failures)


def _lambda_two_ways(at: _Atoms, F: ConvolutionProfile, grad: EPoint,
                     p: EPoint) -> tuple[float, float]:
    n, s = at.n, at.s
    lam_a = inner(grad, identity_direction(n, s)) / (n + s * s)
    lam_b = float(np.dot(at.m / at.h_pow, F.deriv(at.args(p)))) / (n + s)
    return lam_a, lam_b


def minimize_functional(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, tol: float = 1e-10,
                        max_iter: int = 2000, check_coercivity: bool = True,
                        x0: EPoint | None = None, seed: int = 0) -> MinimizerResult:
    """Minimize the contact functional on the weighted-trace-zero subspace.

    Projected gradient descent with Armijo backtracking (c = 1e-4, shrink
    0.5, initial step 1) until value comparisons hit float resolution, then a
    Newton polish on the analytic gradient in orthonormal subspace
    coordinates to push the projected gradient norm to `tol`.  The
    multiplier is computed both from the identity-direction contraction and
    from the plain trace formula; the two must agree to 1e-8, which doubles
    as a contact-set sanity check.
    """
    at = _Atoms(h, s, nu)
    if check_coercivity:
        wit = coercivity_witness(h, s, nu, n_dirs=200, seed=seed)
        if not wit.ok:
            label, d, best = wit.failures[0]
            raise DivergingIterates(
                f"flat direction detected ({label}, max expression {best:.2e}); "
                "the functional is not coercive for this measure", direction=d)

    basis = trace0_basis(at.n, s)

    def grad_coords(c: np.ndarray) -> np.ndarray:
        g = _gradient(at, F, from_coords(c, basis))
        return np.array([inner(g, b) for b in basis])

    def value_at(c: np.ndarray) -> float:
        return float(np.dot(at.m, at.h_pow * F(at.args(from_coords(c, basis)))))

    start = project_trace0(x0, s) if x0 is not None else EPoint.zero(at.n)
    c = np.array([inner(start, b) for b in basis])
    value = value_at(c)
    it = 0
    for it in range(1, max_iter + 1):
        g = grad_coords(c)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= max(tol, 1e-7):
            break
        step, accepted = 1.0, False
        while step > 1e-16:
            cand = c - step * g
            new_value = value_at(cand)
            if new_value <= value - 1e-4 * step * gnorm * gnorm:
                c, value = cand, new_value
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # below line-search resolution; Newton polish takes over
        if np.linalg.norm(c) > 1e6:
            p = from_coords(c, basis)
            raise DivergingIterates("iterates escaped beyond norm 1e6",
                                    direction=p * (1.0 / p.norm()))

    # Newton polish: finite-difference Hessian of the analytic gradient
    g = grad_coords(c)
    gnorm = float(np.linalg.norm(g))
    fd = 1e-6
    for _ in range(60):
        if gnorm <= tol:
            break
        dim = len(c)
        H = np.zeros((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = fd
            H[:, j] = (grad_coords(c + e) - grad_coords(c - e)) / (2.0 * fd)
        H = 0.5 * (H + H.T)
        try:
            delta = np.linalg.solve(H + 1e-14 * np.eye(dim), -g)
        except np.linalg.LinAlgError:
            raise NotConverged(f"singular Hessian during polish, grad {gnorm:.3e}")
        step = 1.0
        improved = False
        for _ in range(25):
            g_new = grad_coords(c + step * delta)
            if np.linalg.norm(g_new) < gnorm:
                c = c + step * delta
                g, gnorm = g_new, float(np.linalg.norm(g_new))
                improved = True
                break
            step *= 0.5
        if not improved:
            break

    if gnorm > tol:
        raise NotConverged(f"projected gradient {gnorm:.3e} above tol {tol:.1e}")

    p = from_coords(c, basis)
    value = value_at(c)
    grad = _gradient(at, F, p)
    lam_a, lam_b = _lambda_two_ways(at, F, grad, p)
    gap = abs(lam_a - lam_b)
    if gap > 1e-8:
        raise NotConverged(f"multiplier cross-check failed: {lam_a:.12g} vs {lam_b:.12g}")
    return MinimizerResult(point=p, value=value, projected_grad_norm=float(gnorm),
                           lam=float(lam_a), iterations=it, converged=True,
                           lambda_gap=float(gap))


def extract_measure(res: MinimizerResult, h: LogConcaveFn, s: float,
                    nu: DiscreteMeasure, F: ConvolutionProfile) -> DiscreteMeasure:
    """Atoms (x_i, m_i/h_i^(1/s) F'(arg_i)); zero-weight atoms are dropped."""
    at = _Atoms(h, s, nu)
    w = at.m / at.h_pow * F.deriv(at.args(res.point))
    keep = w > 0.0
    if not np.any(keep):
        raise AllWeightsZero("every extracted weight vanished")
    return DiscreteMeasure(at.X[keep], w[keep])


def check_isotropy(mu: DiscreteMeasure, s: float, tol: float = 1e-8) -> IsotropyReport:
    """Least-squares multiplier and residuals of the isotropy/centering identities."""
    U, m = mu.points, mu.masses
    n = U.shape[1]
    r2 = np.sum(U * U, axis=1)
    T_diag = (U.T * m) @ U
    T_corner = float(np.dot(m, 1.0 - r2))
    lam = (np.trace(T_diag) + s * T_corner) / (n + s * s)
    res_iso = float(np.sqrt(np.linalg.norm(T_diag - lam * np.eye(n), ord="fro") ** 2
                            + (T_corner - lam * s) ** 2))
    res_center = float(np.linalg.norm(m @ U))
    return IsotropyReport(lam=float(lam), residual_iso=res_iso, residual_center=res_center,
                          nonneg=bool(np.all(m >= 0.0)), nonzero=bool(np.sum(m) > 0.0))


def counting_measure(points) -> DiscreteMeasure:
    P = np.atleast_2d(np.asarray(points, dtype=float))
    return DiscreteMeasure(P, np.ones(P.shape[0]))


def calibrated_measure(points, weights, h: LogConcaveFn, s: float) -> DiscreteMeasure:
    """Masses c_i h_i^(1/s): makes the origin the exact minimizer with multiplier F'(0)."""
    P = np.atleast_2d(np.asarray(points, dtype=float))
    hv = eval_h_many(h, P) ** (1.0 / s)
    return DiscreteMeasure(P, np.asarray(weights, dtype=float) * hv)
