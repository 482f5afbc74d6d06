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

from .blockmat import EPoint, s_trace, trace0_array
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


WITHIN_TOL = "projected gradient within tol"  # the stop of a `minimize_functional` that returns


@dataclass
class MinimizerResult:
    point: EPoint
    value: float
    projected_grad_norm: float
    lam: float
    iterations: int
    converged: bool
    evaluations: int  # values of the functional, the start and every Armijo trial included
    stop_reason: str
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
    """Cached per-atom quantities for one (h, s, nu) combination.

    The argument of F is linear in (M, beta, w): in the flat form `EPoint.vec`
    it is `features @ p.vec`, row i of `features` being
    (x_i x_i^T / h_i^(2/s), 1, x_i / h_i^(2/s)).  On the weighted-trace-zero
    subspace, with coordinates c in the rows of the orthonormal `basis`
    array, it is `phi @ c` for the (k x d) design matrix
    phi = features basis^T, so the functional there is
    sum_i w_i F((phi c)_i) with weights `w` = m h^(1/s).
    """

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
        X = nu.points
        k, n = X.shape
        self.X = X
        self.m = nu.masses
        self.h_pow = hv ** (1.0 / s)          # h^(1/s)
        self.n = n
        self.s = s
        self.w = self.m * self.h_pow
        Y = X / (self.h_pow**2)[:, None]
        self.features = np.hstack([(Y[:, :, None] * X[:, None, :]).reshape(k, n * n),
                                   np.ones((k, 1)), Y])
        self.basis = trace0_array(n, s)
        self.phi = self.features @ self.basis.T

    def args(self, p: EPoint) -> np.ndarray:
        """<x_i, M x_i + w>/h_i^(2/s) + beta for all atoms."""
        return self.features @ p.vec

    def point(self, v: np.ndarray) -> EPoint:
        return EPoint.from_vec(v, self.n)


def functional_value(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                     F: ConvolutionProfile, p: EPoint) -> float:
    """Weighted sum of h^(1/s) F(arg) over the atoms."""
    at = _Atoms(h, s, nu)
    return float(np.dot(at.m, at.h_pow * F(at.args(p))))


def functional_gradient(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, p: EPoint) -> EPoint:
    """Gradient as a pair: sum_i m_i/h_i^(1/s) F'(arg_i) (x_i x_i^T + h_i^(2/s) corner, x_i)."""
    at = _Atoms(h, s, nu)
    return _gradient(at, F.deriv(at.args(p)))


def _gradient(at: _Atoms, dF: np.ndarray) -> EPoint:
    """The gradient at a point where the arguments have F' = `dF`."""
    return at.point(at.features.T @ (at.w * dF))


def coercivity_witness(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                       n_dirs: int = 1000, seed: int = 0) -> WitnessReport:
    """Directional positivity check for coercivity on the trace-zero subspace.

    For each unit direction (M, beta, w) the witness needs some atom with
    <x, Mx + w>/h^(2/s) + beta > 0.  Sampled directions (seeded) are checked
    together with the analytic flat candidates: the identity-block direction
    with corner -n/s, and the coordinate shift directions.
    """
    return _witness(_Atoms(h, s, nu), n_dirs, seed)


def _witness(at: _Atoms, n_dirs: int, seed: int) -> WitnessReport:
    n = at.n
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((n_dirs, len(at.basis)))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    dirs = np.zeros((2 + 2 * n + n_dirs, at.features.shape[1]))
    dirs[0, :n * n:n + 1], dirs[0, n * n] = 1.0, -n / at.s
    dirs[0] /= np.linalg.norm(dirs[0])
    dirs[1] = -dirs[0]
    dirs[2:2 + 2 * n:2, n * n + 1:] = np.eye(n)
    dirs[3:2 + 2 * n:2, n * n + 1:] = -np.eye(n)
    dirs[2 + 2 * n:] = coeffs @ at.basis
    labels = ["identity-flat(+)", "identity-flat(-)"]
    labels += [f"shift({sign}e{j})" for j in range(n) for sign in "+-"]
    labels += [f"sample{i}" for i in range(n_dirs)]

    # args is linear in the direction: every direction is one column of one matmul
    best = np.max(at.features @ dirs.T, axis=0)
    failures = [(labels[i], at.point(dirs[i]), float(best[i]))
                for i in np.flatnonzero(best <= 1e-12)]
    return WitnessReport(margin=float(np.min(best)), n_checked=len(best), failures=failures)


def minimize_functional(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, tol: float = 1e-10,
                        max_iter: int = 2000, check_coercivity: bool = True,
                        x0: EPoint | None = None, seed: int = 0) -> MinimizerResult:
    """Minimize the contact functional on the weighted-trace-zero subspace.

    Exact Newton on the design matrix of `_Atoms`: with z = phi c the
    gradient is phi^T (w F'(z)) and the Hessian phi^T diag(w F''(z)) phi.
    The step is the minimum-norm least-squares solution, so a singular
    Hessian (a flat direction of the functional, which the gradient has no
    component along) leaves that direction alone.  Armijo backtracking on
    the value (c = 1e-4, halving) until the projected gradient norm is at
    most `tol` (the stop WITHIN_TOL; every other end raises NotConverged
    with the same counts, the last gradient norm and a `reason`: "max_iter",
    "no descent" or "multiplier cross-check"); `iterations` counts the
    gradient evaluations and `evaluations` the values, Armijo trials
    included.  F'' > 0 wherever F' > 0, so every Newton step is a
    descent direction.  The multiplier is computed both from the
    identity-direction contraction and from the plain trace formula; the
    two must agree to 1e-8, which doubles as a contact-set sanity check.
    """
    at = _Atoms(h, s, nu)
    if check_coercivity:
        wit = _witness(at, 200, seed)
        if not wit.ok:
            label, d, best = wit.failures[0]
            raise DivergingIterates(
                f"flat direction detected ({label}, max expression {best:.2e}); "
                "the functional is not coercive for this measure", direction=d)

    phi, w = at.phi, at.w
    # the basis rows are orthonormal and orthogonal to (Id + s-corner, 0)
    c = at.basis @ x0.vec if x0 is not None else np.zeros(len(at.basis))
    z = phi @ c
    value = float(np.dot(w, F(z)))
    evals = 1
    for it in range(1, max_iter + 1):
        g = phi.T @ (w * F.deriv(z))
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            break
        hess = (phi.T * (w * F.deriv2(z))) @ phi
        delta = np.linalg.lstsq(hess, -g, rcond=None)[0]
        slope = float(np.dot(g, delta))
        step = 1.0
        while True:
            cand = c + step * delta
            z_cand = phi @ cand
            new_value = float(np.dot(w, F(z_cand)))
            evals += 1
            # a predicted decrease (-slope/2) below the rounding of the value
            # is invisible to the Armijo test: take the full step then
            if new_value <= value + 1e-4 * step * slope or -slope <= 1e-12 * value:
                break
            step *= 0.5
            if step < 1e-16:
                raise NotConverged(f"no descent along the Newton step, grad {gnorm:.3e}",
                                   reason="no descent", iterations=it, evaluations=evals,
                                   grad_norm=gnorm)
        c, z, value = cand, z_cand, new_value
        if np.linalg.norm(c) > 1e6:
            raise DivergingIterates("iterates escaped beyond norm 1e6",
                                    direction=at.point(c @ at.basis / np.linalg.norm(c)))
    else:
        raise NotConverged(f"projected gradient {gnorm:.3e} above tol {tol:.1e}",
                           reason="max_iter", iterations=it, evaluations=evals, grad_norm=gnorm)

    dF = F.deriv(z)
    lam_a = s_trace(_gradient(at, dF).mat, s) / (at.n + s * s)
    lam_b = float(np.dot(at.m / at.h_pow, dF)) / (at.n + s)
    gap = abs(lam_a - lam_b)
    if gap > 1e-8:
        raise NotConverged(f"multiplier cross-check failed: {lam_a:.12g} vs {lam_b:.12g}",
                           reason="multiplier cross-check", iterations=it, evaluations=evals,
                           grad_norm=gnorm)
    return MinimizerResult(point=at.point(c @ at.basis), value=value, projected_grad_norm=gnorm,
                           lam=float(lam_a), iterations=it, converged=True,
                           evaluations=evals, stop_reason=WITHIN_TOL, lambda_gap=float(gap))


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
