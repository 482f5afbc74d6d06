"""Contact functional over weighted atoms: evaluation, minimization, extraction.

For a positive measure on the contact set, the functional

    sum_i m_i h(x_i)**(1/s) F(<x_i, M x_i + w>/h(x_i)**(2/s) + beta)

is convex in (M, beta, w).  Minimizing it over the weighted-trace-zero
subspace and reading off the stationarity multiplier produces a centered
isotropic measure supported on the atoms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .blockmat import EPoint, trace0_array
from .contact import GAP_TOL, _hemisphere_gap, detect_contacts
from .errors import AllWeightsZero, AtomOffContactSet, DivergingIterates, NotConverged
from .logconcave import LogConcaveFn, _check_points, _positive_span, eval_h_many

if TYPE_CHECKING:
    from .profiles import ConvolutionProfile, ProfilePair


@dataclass(frozen=True)
class DiscreteMeasure:
    """At least one weighted atom (x_i, m_i), with positive masses and pairwise-distinct points.

    Points have at least one coordinate, and every point has a finite 4|x|^2
    (`logconcave._check_points`), so no distance |x_i - x_j| between two overflows.
    """

    points: np.ndarray  # (k, n)
    masses: np.ndarray  # (k,)

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if m.shape[0] == 0:  # before np.atleast_2d, which makes [] one atom in R^0
            raise ValueError("a measure needs at least one atom")
        P = np.atleast_2d(np.asarray(self.points, dtype=float))
        if P.shape[1] == 0:
            raise ValueError("atom points need at least one coordinate")
        if P.shape[0] != m.shape[0]:
            raise ValueError("points/masses length mismatch")
        _check_points(P, "atom")
        if not np.all((m > 0.0) & np.isfinite(m)):
            raise ValueError("masses must be positive and finite")
        close = np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2) < 1e-9
        if np.count_nonzero(close) > len(P):  # the diagonal alone is k entries
            i, j = np.nonzero(np.triu(close, 1))  # row-major: the first pair first
            raise ValueError(f"atoms {i[0]} and {j[0]} coincide")
        self._freeze(P, m)

    def _freeze(self, P: np.ndarray, m: np.ndarray) -> None:
        P.flags.writeable = False
        m.flags.writeable = False
        object.__setattr__(self, "points", P)
        object.__setattr__(self, "masses", m)

    def _subset(self, keep: np.ndarray, masses: np.ndarray) -> DiscreteMeasure:
        """The atoms at `keep` with new `masses`: only those are checked, the points were."""
        m = np.asarray(masses, dtype=float)
        if not np.all((m > 0.0) & np.isfinite(m)):
            raise ValueError("masses must be positive and finite")
        sub = object.__new__(DiscreteMeasure)
        sub._freeze(self.points[keep], m)
        return sub


WITHIN_TOL = "projected gradient within tol"  # the stop of a `minimize_functional` that returns


@dataclass
class Minimum:
    """What one `_newton` run found, and how it got there: the record of every minimizer."""

    point: EPoint
    value: float
    iterations: int  # Newton steps taken
    evaluations: int  # values of the functional, the start and every Armijo trial included
    projected_grad_norm: float  # the gradient's norm in the minimizer's coordinates at `point`
    stop_reason: str


@dataclass
class MinimizerResult(Minimum):
    """The contact functional's `Minimum`, with its stationarity multiplier."""

    lam: float
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
        fields = dict(vars(self))
        fields["lambda"] = fields.pop("lam")  # the report's name for the multiplier
        return fields


@dataclass
class WitnessReport:
    margin: float
    n_checked: int
    failures: list = field(default_factory=list)  # (label, direction EPoint, max_expr)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Atoms:
    """Cached per-atom quantities for one (h, s, nu) combination, every array read-only.

    An atom whose hemisphere gap exceeds `contact.GAP_TOL` in absolute value,
    the bound `detect_contacts` lists contacts by, or is NaN (the first NaN
    is named), and so every atom where h = 0, raises AtomOffContactSet.
    The argument of F is linear in (M, beta, w): in the flat form `EPoint.vec`
    it is `features @ p.vec`, row i of `features` being
    (x_i x_i^T / h_i^(2/s), 1, x_i / h_i^(2/s)).  On the weighted-trace-zero
    subspace, with coordinates c in the rows of the orthonormal `basis`
    array, it is `phi @ c` for the (k x d) design matrix
    phi = features basis^T, so the functional there is
    sum_i w_i F((phi c)_i) with weights `w` = m h^(1/s).  `flat_direction`
    decides coercivity on first use and keeps the verdict.  Build through
    `_atoms`, which hands the same object to every step of one contact problem.
    """

    def __init__(self, h: LogConcaveFn, s: float, nu: DiscreteMeasure):
        X = nu.points
        self.h_pow = eval_h_many(h, X) ** (1.0 / s)  # h^(1/s)
        gaps = _hemisphere_gap(self.h_pow, X)
        if not np.max(np.abs(gaps)) <= GAP_TOL:  # NaN fails too
            i = int(np.argmax(np.abs(gaps)))  # the first NaN, if any
            raise AtomOffContactSet(f"atom {i} at {X[i].tolist()} has hemisphere gap "
                                    f"{gaps[i]:.3e}, outside +-{GAP_TOL:.1e}")
        k, n = X.shape
        self.X = X
        self.m = nu.masses
        self.n = n
        self.w = self.m * self.h_pow
        Y = X / (self.h_pow**2)[:, None]
        self.features = np.hstack([(Y[:, :, None] * X[:, None, :]).reshape(k, n * n),
                                   np.ones((k, 1)), Y])
        self.basis = trace0_array(n, s)
        self.phi = self.features @ self.basis.T
        for a in (self.h_pow, self.w, self.features, self.phi):
            a.flags.writeable = False

    @functools.cached_property
    def flat_direction(self) -> np.ndarray | None:
        """None if the rows of `phi` positively span, else a unit flat `d @ basis` with phi d <= 0.

        The contact functional sum_i w_i F((phi c)_i) is coercive exactly when
        no direction d != 0 has phi d <= 0 (F is nondecreasing, bounded below
        and unbounded to the right), which `_positive_span` decides with a
        checked certificate.
        """
        spans, d = _positive_span(self.phi)
        if spans:
            return None
        d = d @ self.basis / np.linalg.norm(d)  # the basis rows are orthonormal
        d.flags.writeable = False
        return d

    def args(self, p: EPoint) -> np.ndarray:
        """<x_i, M x_i + w>/h_i^(2/s) + beta for all atoms."""
        return self.features @ p.vec


_LAST: list = []  # [h, s, nu, _Atoms] of the last `_atoms` build, or empty


def _atoms(h: LogConcaveFn, s: float, nu: DiscreteMeasure) -> _Atoms:
    """`_Atoms(h, s, nu)`, reusing the last build for the same h and nu objects and an equal s.

    Safe because h, its form and nu are frozen and hold read-only arrays, as
    does `_Atoms`; keeping h and nu alive keeps their ids from being reused.
    So the witness, minimization and extraction of one contact problem share
    one build and one coercivity verdict.
    """
    if _LAST and _LAST[0] is h and _LAST[2] is nu and _LAST[1] == s:
        return _LAST[3]
    at = _Atoms(h, s, nu)
    _LAST[:] = [h, s, nu, at]
    return at


def functional_gradient(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile, p: EPoint) -> EPoint:
    """Gradient as a pair: sum_i m_i/h_i^(1/s) F'(arg_i) (x_i x_i^T + h_i^(2/s) corner, x_i)."""
    at = _atoms(h, s, nu)
    return EPoint.from_vec(at.features.T @ (at.w * F.derivs(at.args(p))[0]), at.n)


def coercivity_witness(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                       n_dirs: int = 1000) -> WitnessReport:
    """Coercivity on the trace-zero subspace: the exact verdict, its evidence and a margin.

    Coercive means every unit direction (M, beta, w) has an atom with
    <x, Mx + w>/h^(2/s) + beta > 0.  `ok` is the exact decision of
    `_Atoms.flat_direction`, the one `minimize_functional` gates on.  Only when it
    finds a flat direction are there `failures`: the named directions of
    `_witness_directions` whose largest argument is at most 1e-12, or, when
    none is, the certificate direction, labelled "certificate".  `margin` is
    the least largest argument over the named rows, the `n_dirs` fixed
    samples and a listed certificate (`n_checked` of them): an estimate of
    the exact margin from above, which never decides `ok`.
    """
    at = _atoms(h, s, nu)
    dirs, labels = _witness_directions(at.n, s, n_dirs)
    # args is linear in the direction: every direction is one column of one matmul
    best = np.max(at.features @ dirs.T, axis=0)
    margin, n_checked = float(np.min(best)), len(best)
    d = at.flat_direction
    if d is None:
        return WitnessReport(margin=margin, n_checked=n_checked)
    failures = [(lbl, EPoint.from_vec(dirs[i], at.n), float(best[i]))
                for i, lbl in enumerate(labels) if best[i] <= 1e-12]
    if not failures:
        top = float(np.max(at.features @ d))
        failures.append(("certificate", EPoint.from_vec(d, at.n), top))
        margin, n_checked = min(margin, top), n_checked + 1
    return WitnessReport(margin=margin, n_checked=n_checked, failures=failures)


@functools.lru_cache(maxsize=16)
def _witness_directions(n: int, s: float, n_dirs: int) -> tuple[np.ndarray, tuple[str, ...]]:
    """The witness's unit directions, one flat `EPoint.vec` per row, and the named rows' labels.

    The 2 + 2n named rows: the identity-block direction with corner -n/s,
    its negative, and the coordinate shifts +-e_j; then `n_dirs` unlabelled
    samples, normalised `default_rng(0)` normals on the rows of
    `trace0_array(n, s)`.  One read-only table per (n, s, n_dirs) is built on
    first use; `maxsize` bounds how many a caller's choices of `n_dirs` keep alive.
    """
    basis = trace0_array(n, s)
    coeffs = np.random.default_rng(0).standard_normal((n_dirs, len(basis)))
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    dirs = np.zeros((2 + 2 * n + n_dirs, basis.shape[1]))
    dirs[0, :n * n:n + 1], dirs[0, n * n] = 1.0, -n / s
    dirs[0] /= np.linalg.norm(dirs[0])
    dirs[1] = -dirs[0]
    dirs[2:2 + 2 * n:2, n * n + 1:] = np.eye(n)
    dirs[3:2 + 2 * n:2, n * n + 1:] = -np.eye(n)
    dirs[2 + 2 * n:] = coeffs @ basis
    dirs.flags.writeable = False
    labels = ["identity-flat(+)", "identity-flat(-)"]
    labels += [f"shift({sign}e{j})" for j in range(n) for sign in "+-"]
    return dirs, tuple(labels)


def _require_coercive(at: _Atoms, what: str) -> None:
    """Raise DivergingIterates, naming the certificate direction, unless `flat_direction` is None."""
    d = at.flat_direction
    if d is not None:
        shown = np.round(d, 6) + 0.0
        raise DivergingIterates(f"the {what}: no atom's argument grows along d = {shown.tolist()}",
                                direction=EPoint.from_vec(d, at.n))


NEWTON_TOL = 1e-10  # the gradient norm at which the contact and limit minimizers stop
NEWTON_MAX_ITER = 2000  # the Newton steps the contact and limit minimizers may take
ROUNDING = 1e-12  # relative level of the value below which a predicted decrease is not resolved
CONVERGED = "predicted decrease below rounding"  # the band minimizer's stop


class _Descent(NamedTuple):
    """What `_newton` did: the last accepted x, its value and payload, and how it got there."""

    x: np.ndarray
    value: float
    payload: object
    grad_norm: float
    steps: int
    evaluations: int  # `evaluate` calls, the start and every Armijo trial included
    stop_reason: str  # WITHIN_TOL, CONVERGED, "max_iter" or "no descent"


def _minimum(run: _Descent, point: EPoint) -> Minimum:
    """The record of a finished `_newton` run whose last x stands for `point`."""
    return Minimum(point=point, value=run.value, iterations=run.steps, evaluations=run.evaluations,
                   projected_grad_norm=run.grad_norm, stop_reason=run.stop_reason)


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step on the Hessian, eigenvalues floored in magnitude, and its predicted decrease.

    Eigenvalues within d eps of the largest in magnitude get no component (least
    squares drops that null space too); the others are floored at 1e-8 of it.
    """
    lam, V = np.linalg.eigh(hess)
    size = np.abs(lam)
    top = max(size[0], size[-1])  # eigh sorts lam
    proj = V.T @ grad
    coef = proj / np.maximum(size, 1e-8 * top or 1.0)  # 1.0 on a zero Hessian: never 0/0
    coef[size <= len(size) * np.finfo(float).eps * top] = 0.0
    return -(V @ coef), 0.5 * float(np.dot(coef, proj))


def _newton(x: np.ndarray, gtol: float | None, max_steps: int, floor: float):
    """Damped Newton from x, the one loop of the contact, limit and band minimizers.

    A generator: it yields every point it needs evaluated, is sent back the
    point's (value, gradient, Hessian, payload), and returns a `_Descent`.
    `_drive` evaluates one loop's points one at a time; `rfamily.r_sweep`
    drives the loops of all its r's in rounds.  An infinite value is a
    rejection, and at x raises NotConverged ("infinite start").  The loop ends
    WITHIN_TOL at a gradient norm <= gtol, before the step; CONVERGED, if gtol is
    None, at a `_newton_step` that predicts a decrease below ROUNDING of the value
    (else taken whole: Armijo cannot resolve it); "max_iter" after max_steps steps;
    "no descent" once the step, halved until the value falls by 2e-4 t times the
    predicted decrease (Armijo), is shorter than floor.  The fall must be strict:
    where 2e-4 t times the decrease is below half an ulp of the value, the Armijo
    bound rounds to the value itself.
    """
    value, grad, hess, payload = yield x
    evals, steps = 1, 0
    if not np.isfinite(value):
        raise NotConverged("the functional is infinite at the starting point",
                           reason="infinite start", iterations=0, evaluations=evals)
    while True:
        gnorm = float(np.linalg.norm(grad))
        if gtol is not None and gnorm <= gtol:
            return _Descent(x, value, payload, gnorm, steps, evals, WITHIN_TOL)
        delta, decrease = _newton_step(hess, grad)
        whole = decrease <= ROUNDING * value
        reason = CONVERGED if whole and gtol is None else "max_iter" if steps == max_steps else None
        if reason is not None:
            return _Descent(x, value, payload, gnorm, steps, evals, reason)
        t = 1.0
        while True:
            trial = yield x + t * delta
            evals += 1
            if whole or (trial[0] < value and trial[0] <= value - 2e-4 * t * decrease):
                break
            t *= 0.5
            if t * np.linalg.norm(delta) < floor:
                return _Descent(x, value, payload, gnorm, steps, evals, "no descent")
        x, (value, grad, hess, payload), steps = x + t * delta, trial, steps + 1


def _drive(loop, evaluate) -> _Descent:
    """Run a `_newton` loop to its end, sending it evaluate(x) for every x it yields."""
    try:
        x = next(loop)
        while True:
            x = loop.send(evaluate(x))
    except StopIteration as stop:
        return stop.value


def _minimize(phi: np.ndarray, w: np.ndarray, F: ConvolutionProfile, c: np.ndarray) -> _Descent:
    """Minimize sum_i w_i F((phi c)_i) from `c` by `_newton`, to a gradient norm of NEWTON_TOL.

    The payload is F'(phi c).  Any other stop (the line search below 1e-16 in
    c, NEWTON_MAX_ITER steps) raises NotConverged; coercivity is not checked.
    """
    def evaluate(c):
        z = phi @ c
        dF, d2F = F.derivs(z)
        return float(np.dot(w, F(z))), phi.T @ (w * dF), (phi.T * (w * d2F)) @ phi, dF

    run = _drive(_newton(c, NEWTON_TOL, NEWTON_MAX_ITER, 1e-16), evaluate)
    if run.stop_reason != WITHIN_TOL:
        raise NotConverged(f"no descent along the Newton step, grad {run.grad_norm:.3e}"
                           if run.stop_reason == "no descent" else
                           f"projected gradient {run.grad_norm:.3e} above tol {NEWTON_TOL:.1e}",
                           reason=run.stop_reason, iterations=run.steps,
                           evaluations=run.evaluations, grad_norm=run.grad_norm)
    return run


def minimize_functional(h: LogConcaveFn, s: float, nu: DiscreteMeasure,
                        F: ConvolutionProfile) -> MinimizerResult:
    """Minimize the contact functional on the weighted-trace-zero subspace.

    The functional must be coercive, which is decided exactly first: unless
    the rows of the design matrix phi of `_Atoms` positively span the
    subspace (`_positive_span`), DivergingIterates carries the unit
    certificate direction `d @ basis`, along which no atom's argument grows,
    and the message names it rounded to 6 digits.  Then exact Newton on phi
    from c = 0 (`_minimize`), whose descent stays in the start's sublevel
    set, which coercivity bounds.  The multiplier is computed both from the
    identity-direction contraction and from the plain trace formula; the two
    must agree to 1e-8 (else NotConverged, "multiplier cross-check"), which
    doubles as a contact-set sanity check.
    """
    at = _atoms(h, s, nu)
    _require_coercive(at, "contact functional is not coercive for this measure")
    run = _minimize(at.phi, at.w, F, np.zeros(len(at.basis)))
    n, g = at.n, at.features.T @ (at.w * run.payload)  # the gradient's flat form
    lam_a = (s * g[n * n] + np.trace(g[:n * n].reshape(n, n))) / (n + s * s)
    lam_b = float(np.dot(at.m / at.h_pow, run.payload)) / (at.n + s)
    gap = abs(lam_a - lam_b)
    if gap > 1e-8:
        raise NotConverged(f"multiplier cross-check failed: {lam_a:.12g} vs {lam_b:.12g}",
                           reason="multiplier cross-check", iterations=run.steps,
                           evaluations=run.evaluations, grad_norm=run.grad_norm)
    return MinimizerResult(**vars(_minimum(run, EPoint.from_vec(run.x @ at.basis, at.n))),
                           lam=float(lam_a), converged=True, lambda_gap=float(gap))


def limit_reference(h: LogConcaveFn, s: float, pair: ProfilePair) -> Minimum:
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
    certificate direction), and `_minimize` runs from c = 0.
    """
    from .profiles import ConvolutionProfile, LimitProfile  # not loaded by `coercivity`

    at = _atoms(h, s, counting_measure(detect_contacts(h, s).points))
    _require_coercive(at, "limit functional is not coercive on the contact set")
    h2s = at.h_pow**2
    piece = np.empty(len(at.X), np.intp)  # psi's active piece at each contact
    eval_h_many(h, at.X, None, np.empty((len(h.form.b), len(at.X))), piece)
    slope2 = np.sum(h.form.a[piece] ** 2, axis=1)
    W = at.w * h2s ** (0.5 * at.n) / np.sqrt(2.0**at.n * (1.0 + 2.0 / (s * s) * h2s * slope2))
    H = LimitProfile(ConvolutionProfile(pair), at.n)
    run = _minimize(at.phi, W, H, np.zeros(len(at.basis)))
    return _minimum(run, EPoint.from_vec(run.x @ at.basis, at.n))


def extract_measure(res: MinimizerResult, h: LogConcaveFn, s: float,
                    nu: DiscreteMeasure, F: ConvolutionProfile) -> DiscreteMeasure:
    """Atoms (x_i, m_i/h_i^(1/s) F'(arg_i)); zero-weight atoms are dropped."""
    at = _atoms(h, s, nu)
    w = at.m / at.h_pow * F.derivs(at.args(res.point))[0]
    keep = w > 0.0
    if not np.any(keep):
        raise AllWeightsZero("every extracted weight vanished")
    return nu._subset(keep, w[keep])


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
