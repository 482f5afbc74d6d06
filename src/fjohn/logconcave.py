"""Log-concave functions h = exp(-psi) with max-affine psi, and their properness.

psi is a maximum of affine pieces (optionally restricted to a ball), which
keeps evaluation exact, makes gradients piecewise constant, and is closed
under the tangent constructions used to build test instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoCertificate, NotProper

SPAN_TOL = 1e-9
SPAN_FLOOR = 1e-3  # least weight on a unit row for `_positive_span`'s closed-form certificate


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
class LogConcaveFn:
    n: int
    s: float
    form: PiecewiseLogAffine


def psi_eval_many(form: PiecewiseLogAffine, X: np.ndarray) -> np.ndarray:
    """Vectorized psi over rows of X, ignoring the domain ball.

    The (k, N) layout puts the long axis last, so the max over the k pieces
    runs along contiguous rows instead of over k-wide rows of an (N, k) array.
    The intercepts are added in place, so a call builds one (k, N) array.
    """
    vals = form.a @ X.T
    vals += form.b[:, None]
    return np.max(vals, axis=0)


def psi_gradient(form: PiecewiseLogAffine, X: np.ndarray) -> np.ndarray:
    """The gradient of psi at the rows of X: the slope of the active piece (first on a tie)."""
    return form.a[np.argmax(X @ form.a.T + form.b, axis=1)]


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """np.sum(X * X, axis=1) bit for bit, without numpy's slow reduce over short rows.

    numpy sums the rows of an (N, n) array column by column; so does this.
    """
    out = X[:, 0] * X[:, 0]
    for k in range(1, X.shape[1]):
        out += X[:, k] * X[:, k]
    return out


def eval_h_many(h: LogConcaveFn, X: np.ndarray) -> np.ndarray:
    """h over the rows of X: exp(-psi), and 0 outside the domain ball."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    form = h.form
    vals = psi_eval_many(form, X)
    np.negative(vals, out=vals)
    np.exp(vals, out=vals)
    if form.domain_radius is not None:
        vals = np.where(_sq_norms(X) <= form.domain_radius**2, vals, 0.0)
    return vals


def _nnls(E: np.ndarray, f: np.ndarray) -> np.ndarray:
    """argmin |E z - f| over z >= 0, by Lawson and Hanson's active-set method.

    C. Lawson and R. Hanson, *Solving Least Squares Problems* (1974), ch. 23:
    the passive set P gains the index of the largest dual w = E^T (f - E z);
    while the least-squares solution on P leaves the orthant, z moves toward
    it until a passive component reaches 0, and that index leaves P.  The
    method stops when no dual component is positive.
    """
    k = E.shape[1]
    z = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    blocked = np.zeros(k, dtype=bool)
    tol = 10.0 * np.finfo(float).eps * k * (1.0 + np.linalg.norm(f))

    def solve():
        out = np.zeros(k)
        out[passive] = np.linalg.lstsq(E[:, passive], f, rcond=None)[0]
        return out

    for _ in range(4 * k + 4):
        w = E.T @ (f - E @ z)
        w[passive | blocked] = -np.inf
        j = int(np.argmax(w))
        if not w[j] > tol:
            return z
        passive[j] = True
        trial = solve()
        if trial[j] <= 0.0:  # w_j > 0 only by rounding: skip j until z moves
            passive[j], blocked[j] = False, True
            continue
        blocked[:] = False
        while np.any(trial[passive] <= 0.0):
            q = np.flatnonzero(passive & (trial <= 0.0))
            step = z[q] / (z[q] - trial[q])
            i = int(np.argmin(step))
            z = z + step[i] * (trial - z)
            z[q[i]] = 0.0
            passive &= z > 0.0
            z[~passive] = 0.0
            trial = solve()
        z = trial
    raise NoCertificate(f"NNLS did not stop within {4 * k + 4} passes")


def _positive_span(a: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether the rows a_j of a (k x n) positively span R^n, with a checked certificate.

    Returns (True, y): y > 0 and a^T y = 0 with a of rank n (Stiemke), or
    (False, d): d != 0 and a d <= 0, a direction along which no row grows.
    The rank is that of the rows scaled to unit length (zero rows stay 0),
    so one long row cannot push the others below the rank threshold: the
    slopes (1e308, 0), (-2.83, 0), (0, +-2.83) are of rank 2, while the SVD
    of a reads rank 1.  That SVD is taken anyway, for what follows, and the
    unit rows' singular values only when it reads a rank below n: its
    threshold scales with the largest singular value, so a long row can
    make it read too low a rank without bound, and too high a rank only
    within a factor sqrt(k) of rounding.  Rank below n gives d in the kernel of a,
    from the SVD of a.  Otherwise that SVD gives a closed-form candidate
    first: with W the first n left singular vectors of a,
    y = t - W W^T t for t_j = 1/|a_j| has a^T y = 0.  With
    U the rows scaled to unit length, the weights |a_j| y_j on U must be at
    least SPAN_FLOOR and pass the residual check below; then y, scaled to
    min 1, is a zero-residual optimum of the NNLS that follows, so the
    verdict is the same.  The floor keeps rounding from certifying: on zero
    rows plus one nonzero row the projection leaves that row a weight of 0
    or of rounding size (4.4e-16), and the residual check passes.  Otherwise z = argmin_{z >= 0}
    |U^T z + U^T 1|: a zero residual r = U^T (1 + z) gives y = 1 + z
    (rescaled back to a), and a nonzero one gives d = -r, since the
    optimality conditions read U r >= 0.  (k = n rows of rank n always end
    in d.)  Each certificate is checked to SPAN_TOL relative to its scale;
    if neither holds, NoCertificate.
    """
    k, n = a.shape

    def rank(sv):
        return np.sum(sv > sv.max(initial=0.0) * (max(k, n) * np.finfo(float).eps))

    left, sv, vt = np.linalg.svd(a)
    norms = np.hypot.reduce(a, axis=1)  # np.linalg.norm squares, and 1e308 squared overflows
    norms[norms == 0.0] = 1.0
    unit = a / norms[:, None]
    if rank(sv) < n and rank(np.linalg.svd(unit, compute_uv=False)) < n:
        return False, vt[-1]
    t = 1.0 / norms
    y = norms * (t - left[:, :n] @ (left[:, :n].T @ t))
    r = unit.T @ y
    if not (y.min() >= SPAN_FLOOR and np.linalg.norm(r) <= SPAN_TOL * y.sum()):
        y = 1.0 + _nnls(unit.T, -unit.sum(axis=0))
        r = unit.T @ y
    if np.linalg.norm(r) <= SPAN_TOL * y.sum():
        return True, y / norms
    if np.all(unit @ r >= -SPAN_TOL * np.linalg.norm(r)):
        return False, -r
    raise NoCertificate(f"positive span of {k} rows in R^{n}: residual {np.linalg.norm(r):.3e} "
                        f"certifies neither outcome")


def check_proper(h: LogConcaveFn) -> None:
    """Raise NotProper unless h has a finite positive integral.

    On an unbounded domain psi must be coercive, which is decided
    exactly by `_positive_span`: the pieces' gradients positively span R^n;
    otherwise the message names a direction d along which psi stays
    bounded (no gradient has <a_j, d> > 0).  On a domain
    ball of positive radius h is positive and bounded, so proper; a radius
    <= 0 leaves a null support.
    """
    form = h.form
    if form.domain_radius is None:
        spans, d = _positive_span(form.a)
        if not spans:
            d = np.round(d / np.linalg.norm(d), 6) + 0.0
            raise NotProper("unbounded domain and piece gradients do not positively span "
                            f"R^n: psi stays bounded along d = {d.tolist()}")
    elif form.domain_radius <= 0.0:
        raise NotProper(f"domain radius {form.domain_radius} leaves h a null support")


def make_log_concave(a, b, s: float, domain_radius: float | None = None) -> LogConcaveFn:
    form = PiecewiseLogAffine(np.atleast_2d(np.asarray(a, dtype=float)),
                              np.atleast_1d(np.asarray(b, dtype=float)),
                              domain_radius)
    return LogConcaveFn(n=form.n, s=s, form=form)
