"""Contact functional over weighted atoms: evaluation, minimization, extraction.

For a positive measure on the contact set, the functional

    sum_i m_i h(x_i)**(1/s) F(<x_i, M x_i + w>/h(x_i)**(2/s) + beta)

is convex in (M, beta, w).  Minimizing it over the weighted-trace-zero
subspace and reading off the stationarity multiplier produces a centered
isotropic measure supported on the atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .blockmat import EPoint, s_trace, trace0_array
from .contact import GAP_TOL, _hemisphere_gap, detect_contacts
from .errors import (AllWeightsZero, AtomOffContactSet, DivergingIterates, NotConverged,
                     ZeroValueAtom)
from .logconcave import LogConcaveFn, _positive_span, eval_h_many, psi_gradient

if TYPE_CHECKING:
    from .profiles import ConvolutionProfile, ProfilePair


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
        if not np.all(np.isfinite(P)):
            raise ValueError("atom points must be finite")
        if not np.all((m > 0.0) & np.isfinite(m)):
            raise ValueError("masses must be positive and finite")
        close = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2) < 1e-9
        i, j = np.nonzero(np.triu(close, 1))  # row-major: the first pair first
        if len(i):
            raise ValueError(f"atoms {i[0]} and {j[0]} coincide")
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

    An atom whose hemisphere gap exceeds `contact.GAP_TOL` in absolute value,
    the bound `detect_contacts` lists contacts by, raises AtomOffContactSet.
    The argument of F is linear in (M, beta, w): in the flat form `EPoint.vec`
    it is `features @ p.vec`, row i of `features` being
    (x_i x_i^T / h_i^(2/s), 1, x_i / h_i^(2/s)).  On the weighted-trace-zero
    subspace, with coordinates c in the rows of the orthonormal `basis`
    array, it is `phi @ c` for the (k x d) design matrix
    phi = features basis^T, so the functional there is
    sum_i w_i F((phi c)_i) with weights `w` = m h^(1/s).
    """

    def __init__(self, h: LogConcaveFn, s: float, nu: DiscreteMeasure):
        X = nu.points
        hv = eval_h_many(h, X)
        self.h_pow = hv ** (1.0 / s)          # h^(1/s)
        gaps = _hemisphere_gap(self.h_pow, X)
        if np.max(np.abs(gaps)) > GAP_TOL:
            i = int(np.argmax(np.abs(gaps)))
            raise AtomOffContactSet(
                f"atom {X[i]} has contact gap {gaps[i]:.3e} > {GAP_TOL:.1e}")
        if np.any(hv <= 0.0):
            raise ZeroValueAtom("h vanishes at an atom")
        k, n = X.shape
        self.X = X
        self.m = nu.masses
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


def functional_gradient(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, p: EPoint) -> EPoint:
    """Gradient as a pair: sum_i m_i/h_i^(1/s) F'(arg_i) (x_i x_i^T + h_i^(2/s) corner, x_i)."""
    at = _Atoms(h, s, nu)
    return _gradient(at, F.deriv(at.args(p)))


def _gradient(at: _Atoms, dF: np.ndarray) -> EPoint:
    """The gradient at a point where the arguments have F' = `dF`."""
    return EPoint.from_vec(at.features.T @ (at.w * dF), at.n)


def coercivity_witness(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                       n_dirs: int = 1000) -> WitnessReport:
    """Directional positivity check for coercivity on the trace-zero subspace.

    For each unit direction (M, beta, w) the witness needs some atom with
    <x, Mx + w>/h^(2/s) + beta > 0.  `n_dirs` sampled directions, always the
    same ones (drawn from `default_rng(0)`), are checked as a diagnostic
    together with the analytic flat candidates: the identity-block direction
    with corner -n/s, and the coordinate shift directions.  When none of
    them fails, the certificate direction of `_positive_span` on the design
    matrix, if the rows do not positively span, is one more checked
    direction and a failure labelled "certificate"; so `ok` is exact, the
    same decision `minimize_functional` gates on.
    """
    at = _Atoms(h, s, nu)
    n = at.n
    coeffs = np.random.default_rng(0).standard_normal((n_dirs, len(at.basis)))
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

    # args is linear in the direction: every direction is one column of one matmul
    best = np.max(at.features @ dirs.T, axis=0)
    failures = [(labels[i] if i < len(labels) else f"sample{i - len(labels)}",
                 EPoint.from_vec(dirs[i], at.n), float(best[i]))
                for i in np.flatnonzero(best <= 1e-12)]
    margin, n_checked = float(np.min(best)), len(best)
    if not failures:
        d = _flat_direction(at)
        if d is not None:
            top = float(np.max(at.features @ d))
            failures.append(("certificate", EPoint.from_vec(d, at.n), top))
            margin, n_checked = min(margin, top), n_checked + 1
    return WitnessReport(margin=margin, n_checked=n_checked, failures=failures)


def _flat_direction(at: _Atoms) -> np.ndarray | None:
    """None if the rows of `phi` positively span, else a unit flat `d @ basis` with phi d <= 0.

    The contact functional sum_i w_i F((phi c)_i) is coercive exactly when
    no direction d != 0 has phi d <= 0 (F is nondecreasing, bounded below
    and unbounded to the right), which `_positive_span` decides with a
    checked certificate.
    """
    spans, d = _positive_span(at.phi)
    if spans:
        return None
    return d @ at.basis / np.linalg.norm(d)  # the basis rows are orthonormal


def _require_coercive(at: _Atoms, what: str) -> None:
    """Raise DivergingIterates, naming the certificate direction, unless `_flat_direction` is None."""
    d = _flat_direction(at)
    if d is not None:
        shown = np.round(d, 6) + 0.0
        raise DivergingIterates(f"the {what}: no atom's argument grows along d = {shown.tolist()}",
                                direction=EPoint.from_vec(d, at.n))


def _newton(phi: np.ndarray, w: np.ndarray, F: ConvolutionProfile, c: np.ndarray,
            tol: float, max_iter: int):
    """Minimize sum_i w_i F((phi c)_i) over c from `c`, for both Newton minimizers of this module.

    Returns (c, z = phi c, value, gradient norm, iterations, evaluations); a
    stop short of `tol` raises NotConverged with the same counts.  It does
    not check coercivity: on a functional that is not coercive it may run to
    `max_iter` or stop at a stationary point.
    """
    z = phi @ c
    value = float(np.dot(w, F(z)))
    evals = 1
    for it in range(1, max_iter + 1):
        g = phi.T @ (w * F.deriv(z))
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            return c, z, value, gnorm, it, evals
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
    raise NotConverged(f"projected gradient {gnorm:.3e} above tol {tol:.1e}",
                       reason="max_iter", iterations=it, evaluations=evals, grad_norm=gnorm)


def minimize_functional(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, tol: float = 1e-10,
                        max_iter: int = 2000, x0: EPoint | None = None) -> MinimizerResult:
    """Minimize the contact functional on the weighted-trace-zero subspace.

    The functional must be coercive, which is decided exactly first: unless
    the rows of the design matrix phi of `_Atoms` positively span the
    subspace (`_positive_span`), DivergingIterates carries the unit
    certificate direction `d @ basis`, along which no atom's argument grows,
    and the message names it rounded to 6 digits.  Then exact Newton on phi
    (`_newton`): with z = phi c the gradient is phi^T (w F'(z)) and the
    Hessian phi^T diag(w F''(z)) phi.  The step is the minimum-norm
    least-squares solution, so a singular Hessian (F'' = 0 on some atoms)
    leaves its null directions alone, which the gradient has no component
    along.
    Armijo backtracking on the value (c = 1e-4, halving) until the projected
    gradient norm is at most `tol` (the stop WITHIN_TOL; every other end
    raises NotConverged with the same counts, the last gradient norm and a
    `reason`: "max_iter", "no descent" or "multiplier cross-check");
    `iterations` counts the gradient evaluations and `evaluations` the
    values, Armijo trials included.  F'' > 0 wherever F' > 0, so every
    Newton step is a descent direction, and descent keeps the iterates in
    the start's sublevel set, which coercivity bounds.  The multiplier is
    computed both from the identity-direction contraction and from the
    plain trace formula; the two must agree to 1e-8, which doubles as a
    contact-set sanity check.  A `max_iter` below 1 raises ValueError
    before any work.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    at = _Atoms(h, s, nu)
    _require_coercive(at, "contact functional is not coercive for this measure")

    # the basis rows are orthonormal and orthogonal to (Id + s-corner, 0)
    c0 = at.basis @ x0.vec if x0 is not None else np.zeros(len(at.basis))
    c, z, value, gnorm, it, evals = _newton(at.phi, at.w, F, c0, tol, max_iter)

    dF = F.deriv(z)
    lam_a = s_trace(_gradient(at, dF).mat, s) / (at.n + s * s)
    lam_b = float(np.dot(at.m / at.h_pow, dF)) / (at.n + s)
    gap = abs(lam_a - lam_b)
    if gap > 1e-8:
        raise NotConverged(f"multiplier cross-check failed: {lam_a:.12g} vs {lam_b:.12g}",
                           reason="multiplier cross-check", iterations=it, evaluations=evals,
                           grad_norm=gnorm)
    return MinimizerResult(point=EPoint.from_vec(c @ at.basis, at.n), value=value,
                           projected_grad_norm=gnorm, lam=float(lam_a), iterations=it,
                           converged=True, evaluations=evals, stop_reason=WITHIN_TOL,
                           lambda_gap=float(gap))


@dataclass
class LimitReference:
    """The minimizer of the curvature-weighted limit functional and its flat Hessian there."""

    point: EPoint
    value: float
    hessian: np.ndarray  # features^T diag(W H_n''(z)) features: in the flat form `EPoint.vec`


def limit_reference(h: LogConcaveFn, s: float, pair: ProfilePair) -> LimitReference:
    """Minimize the r -> 1 limit of the band functionals, L(c) = sum_i W_i H_n((phi c)_i).

    The band functional never sees a measure, so neither does its limit:
    the atoms are the contact set of h (`detect_contacts`) with unit masses,
    and phi is their design matrix (`_Atoms`).  The weights are
    W_i = w_i (h_i^(2/s))^(n/2) / sqrt(det K_i) with w_i = h_i^(1/s) and
    K_i = (4/s^2) h_i^(2/s) a_i a_i^T + 2 I, a_i the gradient of psi at the
    contact; det K_i = 2^n (1 + (2/s^2) h_i^(2/s) |a_i|^2).  H_n is
    `LimitProfile`.  W > 0 and H_n is nondecreasing, convex, bounded below
    and unbounded above, as F is, so the same exact gate as
    `minimize_functional` decides coercivity (DivergingIterates with the
    certificate direction), and the same Newton loop (`_newton`) minimizes,
    from c = 0, to `minimize_functional`'s default tolerances.
    """
    from .profiles import ConvolutionProfile, LimitProfile  # not loaded by `coercivity`

    at = _Atoms(h, s, counting_measure(detect_contacts(h, s).points))
    _require_coercive(at, "limit functional is not coercive on the contact set")
    h2s = at.h_pow**2
    slope2 = np.sum(psi_gradient(h.form, at.X) ** 2, axis=1)
    W = at.w * h2s ** (0.5 * at.n) / np.sqrt(2.0**at.n * (1.0 + 2.0 / (s * s) * h2s * slope2))
    H = LimitProfile(ConvolutionProfile(pair), at.n)
    c, z, value = _newton(at.phi, W, H, np.zeros(len(at.basis)), 1e-10, 2000)[:3]
    hessian = (at.features.T * (W * H.deriv2(z))) @ at.features
    return LimitReference(point=EPoint.from_vec(c @ at.basis, at.n), value=value,
                          hessian=hessian)


def extract_measure(res: MinimizerResult, h: LogConcaveFn, s: float,
                    nu: DiscreteMeasure, F: ConvolutionProfile) -> DiscreteMeasure:
    """Atoms (x_i, m_i/h_i^(1/s) F'(arg_i)); zero-weight atoms are dropped."""
    at = _Atoms(h, s, nu)
    w = at.m / at.h_pow * F.deriv(at.args(res.point))
    keep = w > 0.0
    if not np.any(keep):
        raise AllWeightsZero("every extracted weight vanished")
    return DiscreteMeasure(at.X[keep], w[keep])


def check_isotropy(mu: DiscreteMeasure, s: float) -> IsotropyReport:
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
