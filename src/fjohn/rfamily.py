"""The r-indexed band functionals, their minimization, and sweep diagnostics.

Both functionals integrate a product f_r(..) g_r(..) over a thin band around
the upper unit hemisphere; the band substitution t = (scaled height - 1)/(1-r)
turns the inner integral into a piecewise-polynomial in t whenever the
profiles are piecewise linear, so it is integrated segment-exactly and the
only quadrature error comes from the outer x grid.  The concentration
measure density and the stationarity multiplier reuse the same machinery
with the derivative profile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .blockmat import BlockMat, EPoint, expm_sym, s_trace
from .errors import BadR, NotConverged, NotInBr, SingularA
from .isotropy import DiscreteMeasure, MinimizerResult
from .logconcave import LogConcaveFn, PiecewiseLogAffine, eval_h_many
from .profiles import PiecewiseLinear, ProfilePair


@dataclass(frozen=True)
class QuadratureSpec:
    """Outer-grid resolution for the band quadratures.

    The inner t-integrals are segment-exact for piecewise-linear profiles,
    so `tol` is governed by the x grid alone; 960 nodes per axis holds the
    default 1e-6 at n = 1 up to r = 0.99 (cost grows like 1/(1-r) beyond).
    """

    x_nodes_per_axis: int = 960
    t_nodes: int = 4
    domain_radius: float | None = None
    tol: float = 1e-6


def sup_h_pow2(h: LogConcaveFn, s: float, probe_radius: float = 2.0) -> float:
    """Upper estimate of sup h**(2/s) over the probe ball (coarse grid maximum)."""
    axes = [np.linspace(-probe_radius, probe_radius, 201 if h.n == 1 else 41)] * h.n
    X = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return float(np.max(eval_h_many(h, X) ** (2.0 / s))) * 1.0000001


def band_radius(h: LogConcaveFn, s: float, r: float) -> float:
    """Radius enclosing the set where the band factor can be nonzero."""
    return float(np.sqrt(1.0 + 2.0 * (1.0 - r) * sup_h_pow2(h, s)))


@functools.lru_cache(maxsize=None)
def _gauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k-node Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(k)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _x_grid(n: int, radius: float, nodes_per_axis: int, kinks=None):
    """Composite 8-node Gauss-Legendre grid on [-radius, radius]^n.

    For n = 1 the panel edges are aligned with the supplied kink locations
    (piece switches of the max-affine exponents), which keeps the integrand
    analytic inside every panel.
    """
    per_panel = 8
    panels = max(4, int(np.ceil(nodes_per_axis / per_panel)))
    xi, wi = _gauss(per_panel)
    if n == 1 and kinks is not None and len(kinks):
        inner = kinks[(kinks > -radius + 1e-12) & (kinks < radius - 1e-12)]
        base = np.unique(np.concatenate([[-radius, radius], inner]))
        target = 2.0 * radius / panels
        edges = [base[:1]]
        for a, b in zip(base[:-1], base[1:]):
            m = max(1, int(np.ceil((b - a) / target)))
            edges.append(np.linspace(a, b, m + 1)[1:])
        edges = np.concatenate(edges)
    else:
        edges = np.linspace(-radius, radius, panels + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[:-1] + edges[1:])
    x1 = (mid[:, None] + half[:, None] * xi).ravel()
    w1 = (half[:, None] * wi).ravel()
    if n == 1:
        return x1[:, None], w1
    pts = np.stack([m.ravel() for m in np.meshgrid(*([x1] * n), indexing="ij")], axis=1)
    wts = np.prod(np.stack(np.meshgrid(*([w1] * n), indexing="ij"), axis=0), axis=0).ravel()
    return pts, wts


def _envelope_breaks_1d(form: PiecewiseLogAffine, lo: float, hi: float) -> np.ndarray:
    """Kink locations of the max-affine envelope inside (lo, hi) (n = 1 only).

    Sweeps the upper hull of the lines in order of slope (of parallel lines
    only the highest can show); each kink is the crossing of two hull
    neighbours, (b_j - b_i)/(a_i - a_j) with i the left piece.
    """
    a, b = form.a[:, 0], form.b
    hull: list[int] = []
    for j in sorted(range(len(a)), key=lambda k: (a[k], -b[k], k)):
        if hull and a[hull[-1]] == a[j]:
            continue
        while len(hull) >= 2:
            i, k = hull[-2], hull[-1]
            if (b[j] - b[i]) / (a[i] - a[j]) > (b[k] - b[i]) / (a[i] - a[k]):
                break
            hull.pop()
        hull.append(j)
    breaks = [(b[j] - b[i]) / (a[i] - a[j]) for i, j in zip(hull[:-1], hull[1:])]
    return np.array([x for x in breaks if lo < x < hi])


def _inner_band(f_pl: PiecewiseLinear, g_pl: PiecewiseLinear, r: float,
                c2: np.ndarray, den: np.ndarray, r2m1: np.ndarray,
                mode: str, gl_nodes: int) -> np.ndarray:
    """Per-node t-integrals over the band.

    mode 'value':   integral of f(t) g(q(t)) dt
    mode 'density': integral of f'(t) (1 + (1-r)t) g(q(t)) dt
    with q(t) = (r2m1 + c2 (1+(1-r)t)^2)/den, increasing in t >= -1.  Between
    the kinks of f and the pullbacks of the kinks of g the integrand is a
    polynomial of degree <= 3, so the per-segment Gauss rule is exact.
    """
    omr = 1.0 - r
    g_breaks = g_pl.breaks
    with np.errstate(divide="ignore", invalid="ignore"):
        tau2 = (den[:, None] * g_breaks[None, :] - r2m1[:, None]) / c2[:, None]
    tau = np.sqrt(np.clip(tau2, 0.0, None))
    t_roots = (tau - 1.0) / omr
    t_top = t_roots[:, -1]

    cols = [np.full(len(c2), -1.0)]
    cols.extend(np.full(len(c2), fb) for fb in f_pl.breaks if fb > -1.0)
    cols.extend(t_roots[:, k] for k in range(len(g_breaks)))
    B = np.stack(cols, axis=1)
    B = np.clip(B, -1.0, np.maximum(t_top, -1.0)[:, None])
    B.sort(axis=1)

    nodes, wts = _gauss(max(gl_nodes, 3))
    qlo, qhi = g_breaks[0] - 1.0, g_breaks[-1] + 1.0
    total = np.zeros(len(c2))
    for j in range(B.shape[1] - 1):
        a, b = B[:, j], B[:, j + 1]
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        seg = np.zeros(len(c2))
        for xi, wi in zip(nodes, wts):
            t = mid + half * xi
            tau_t = 1.0 + omr * t
            num = r2m1 + c2 * tau_t**2
            with np.errstate(divide="ignore", invalid="ignore"):
                q = num / den
            q = np.where(den > 0.0, q, np.where(num > 0.0, np.inf, -np.inf))
            q = np.clip(q, qlo, qhi)
            if mode == "value":
                vals = f_pl(t) * g_pl(q)
            else:
                vals = f_pl.deriv(t) * tau_t * g_pl(q)
            seg += wi * vals
        total += half * seg
    return total


class _Band:
    """What a band quadrature needs that does not depend on the position.

    Built once per (h, s, pair, r, quad) and kept for one call or one
    minimization: the profiles, the band radius and, for n = 1 max-affine
    psi, the kinks of its envelope on the whole line.
    """

    def __init__(self, h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                 quad: QuadratureSpec):
        if not 0.5 < r < 1.0:
            raise BadR(f"r={r} outside (1/2, 1)")
        if not pair.piecewise_linear:
            raise ValueError("band quadrature needs piecewise-linear profile functions")
        self.h, self.s, self.r, self.quad, self.f, self.g = h, s, r, quad, pair.f, pair.g
        self.radius = band_radius(h, s, r)
        if quad.domain_radius is not None:
            if quad.domain_radius < self.radius - 1e-12:
                raise ValueError(f"quadrature radius {quad.domain_radius} below the band "
                                 f"radius {self.radius:.6f}")
            self.radius = float(quad.domain_radius)
        one_d = h.n == 1 and isinstance(h.form, PiecewiseLogAffine)
        self.breaks = _envelope_breaks_1d(h.form, -np.inf, np.inf) if one_d else None

    def terms(self, A: np.ndarray, alpha: float, v: np.ndarray, shifted: bool, mode: str):
        """Grid X, weights W, h^(1/s) at the band-factor argument, and the inner integrals.

        shifted: x is the band variable and the factor is evaluated at Ax + v
        (the band_functional route); otherwise x is the factor argument and
        the band variable is A^-1 (x - v).  For n = 1 the panels follow the
        kinks of psi in both variables.  Returns None in mode 'value' when
        part of the open band lies where h vanishes.
        """
        radius = (self.radius if shifted else
                  float(np.linalg.norm(A, 2) * self.radius + np.linalg.norm(v)) + 1e-9)
        kinks = None
        if self.breaks is not None:
            a, c = float(A[0, 0]), float(v[0])
            u, c = (a, c) if shifted else (1.0 / a, -c / a)
            kinks = np.concatenate([self.breaks, (self.breaks - c) / u])
        X, W = _x_grid(self.h.n, radius, self.quad.x_nodes_per_axis, kinks)
        Z, Y = (X, X @ A.T + v) if shifted else (np.linalg.solve(A, (X - v).T).T, X)

        den = 2.0 * eval_h_many(self.h, Z) ** (2.0 / self.s) * (1.0 - self.r)
        r2m1 = np.sum(Z * Z, axis=1) - 1.0
        h_y = eval_h_many(self.h, Y) ** (1.0 / self.s)
        live = h_y > 0.0
        # q(-1) below the top kink of g: the band is open there
        if mode == "value" and np.any(~live & (r2m1 < den * self.g.breaks[-1])):
            return None
        c2 = np.where(live, h_y / alpha, 1.0) ** 2
        inner = _inner_band(self.f, self.g, self.r, c2, den, r2m1, mode, self.quad.t_nodes)
        return X, W, h_y, np.where(live, inner, 0.0)


def band_functional(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                    p: EPoint, quad: QuadratureSpec) -> float:
    """Band functional at (A, alpha, v): SPD block, positive corner required.

    Returns +inf when the position pushes part of the band outside the
    support of h (the coercive barrier).
    """
    return _band_value(_Band(h, s, pair, r, quad), p)


def _band_value(band: _Band, p: EPoint) -> float:
    A, alpha, v = p.mat.diag, p.mat.corner, p.shift
    if alpha <= 0.0 or np.linalg.det(A) == 0.0:
        raise SingularA("block must be invertible with positive corner")
    terms = band.terms(A, alpha, v, shifted=True, mode="value")
    if terms is None:
        return float("inf")
    _, W, h_y, inner = terms
    return float(np.sum(W * (h_y / alpha) * inner))


def rescaled_band_functional(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                             p: EPoint, quad: QuadratureSpec) -> float:
    """Band functional in rescaled coordinates (M, beta, w).

    Integrates over the unshifted x variable with the inverse-mapped band
    factor, a different route than band_functional, so the exact
    reparametrization identity between the two is a genuine two-route check.
    """
    band = _Band(h, s, pair, r, quad)
    A = np.eye(p.n) + (1.0 - r) * p.mat.diag
    alpha = 1.0 + (1.0 - r) * p.mat.corner
    if abs(np.linalg.det(A)) < 1e-14 or alpha <= 0.0:
        raise NotInBr("identity plus (1-r) M is not invertible (or corner <= 0)")
    terms = band.terms(A, alpha, (1.0 - r) * p.shift, shifted=False, mode="value")
    if terms is None:
        return float("inf")
    _, W, h_x, inner = terms
    return float(alpha ** (s - 1.0) * np.sum(W * h_x * inner))


def _density_terms(band: _Band, minimizer: EPoint):
    """Grid, weights and concentration-measure density at the given position."""
    A, alpha, v = minimizer.mat.diag, minimizer.mat.corner, minimizer.shift
    if alpha <= 0.0:
        raise SingularA("corner must be positive")
    X, W, h_x, inner = band.terms(A, alpha, v, shifted=False, mode="density")
    with np.errstate(divide="ignore", invalid="ignore"):
        density = alpha ** (band.s - 1.0) * inner / h_x
    density = np.where(inner != 0.0, density, 0.0)
    return X, W, density, h_x


def _bump_integral(X, W, density, delta) -> float:
    return float(np.sum(W * np.asarray(delta(X), dtype=float) * density))


def concentration_integral(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                           minimizer: EPoint, delta, quad: QuadratureSpec) -> float:
    """Integral of a compactly supported test function against the band measure."""
    X, W, density, _ = _density_terms(_Band(h, s, pair, r, quad), minimizer)
    return _bump_integral(X, W, density, delta)


def stationarity_multiplier(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                            minimizer: EPoint, quad: QuadratureSpec) -> float:
    """Multiplier from the identity-direction contraction of the measure moments."""
    band = _Band(h, s, pair, r, quad)
    return _multiplier(band, *_density_terms(band, minimizer))


def _multiplier(band: _Band, X, W, density, h_x) -> float:
    h, s, n = band.h, band.s, band.h.n
    if not isinstance(h.form, PiecewiseLogAffine):
        raise ValueError("multiplier needs the max-affine form")
    grad_psi = h.form.a[np.argmax(X @ h.form.a.T + h.form.b, axis=1)]
    contraction = h_x**2 * ((1.0 / s) * np.sum(grad_psi * X, axis=1) + s)
    return float(np.sum(W * density * contraction) / ((1.0 - band.r) * (n + s * s)))


def _logm_sym(A: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(0.5 * (A + A.T))
    if np.any(lam <= 0.0):
        raise SingularA("matrix log of a non-SPD block")
    L = (V * np.log(lam)) @ V.T
    return 0.5 * (L + L.T)


def minimize_band(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                  quad: QuadratureSpec, x0: EPoint | None = None,
                  max_iter: int = 400) -> tuple[EPoint, float]:
    """Minimize the band functional over unit-weighted-determinant positions.

    The block is parametrized as exp(S) with corner exp(-tr S / s), which
    keeps the weighted determinant at exactly 1 (restricting to that manifold
    loses nothing at a minimum).  Derivative-free compass search with a
    shrinking step, then a short finite-difference gradient polish.  The band
    geometry (radius, kinks of psi) is built once per minimization, and a
    position already visited is not evaluated again.  Returns the minimizer
    and the stationarity multiplier.
    """
    band = _Band(h, s, pair, r, quad)
    point, _ = _minimize_band(band, x0, max_iter)
    return point, _multiplier(band, *_density_terms(band, point))


def _minimize_band(band: _Band, x0: EPoint | None, max_iter: int) -> tuple[EPoint, float]:
    """minimize_band on a prepared band geometry: (minimizer, band functional there)."""
    n, s, r = band.h.n, band.s, band.r
    upper = np.triu_indices(n)  # theta = (upper triangle of S, shift)
    dim_s = len(upper[0])

    def to_point(theta: np.ndarray) -> EPoint:
        S = np.zeros((n, n))
        S[upper] = S[upper[::-1]] = theta[:dim_s]
        A = expm_sym(S)
        alpha = float(np.exp(-np.trace(S) / s))
        return EPoint(BlockMat(A, alpha), theta[dim_s:])

    seen: dict[tuple, float] = {}  # thetas a few ulps apart can share a position

    def obj(theta: np.ndarray) -> float:
        p = to_point(theta)
        key = (p.mat.diag.tobytes(), p.mat.corner, p.shift.tobytes())
        if key not in seen:
            seen[key] = _band_value(band, p)
        return seen[key]

    if x0 is not None:
        theta = np.concatenate([_logm_sym(x0.mat.diag)[upper], x0.shift])
    else:
        theta = np.zeros(dim_s + n)
    value = obj(theta)
    if not np.isfinite(value):
        raise NotConverged("band functional infinite at the starting point")

    step = 0.25 * (1.0 - r)
    step_min = 1e-7 * (1.0 - r)
    evals = 0
    while step > step_min and evals < 60 * max_iter:
        improved = False
        for k in range(len(theta)):
            for sgn in (1.0, -1.0):
                cand = theta.copy()
                cand[k] += sgn * step
                val = obj(cand)
                evals += 1
                if val < value - 1e-15:
                    theta, value = cand, val
                    improved = True
                    break
            if improved:
                break
        if not improved:
            step *= 0.5

    # finite-difference gradient polish
    fd = 1e-7
    for _ in range(20):
        g = np.zeros_like(theta)
        for k in range(len(theta)):
            e = np.zeros_like(theta)
            e[k] = fd
            g[k] = (obj(theta + e) - obj(theta - e)) / (2.0 * fd)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        stepg, moved = (1.0 - r) * 0.01 / max(gn, 1e-30), False
        for _ in range(20):
            cand = theta - stepg * g
            val = obj(cand)
            if val < value - 1e-15:
                theta, value, moved = cand, val, True
                break
            stepg *= 0.5
        if not moved:
            break
    return to_point(theta), value


def hat_bump(center, halfwidth: float):
    """Radial hat: 1 at the center, linear to 0 at distance halfwidth."""
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def delta(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X - center, axis=1)
        return np.clip(1.0 - d / halfwidth, 0.0, None)

    return delta


def trapezoid_bump(center, flat: float, taper: float):
    """1 within `flat` of the center, linear to 0 over the extra `taper` width.

    The flat part must cover the concentration band around an atom for its
    integral to approximate the atom mass.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def delta(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X - center, axis=1)
        return np.clip((flat + taper - d) / taper, 0.0, 1.0)

    return delta


def plateau_bump(radius: float, taper: float):
    """1 on the ball of the given radius, linear to 0 over the taper width."""

    def delta(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        d = np.linalg.norm(X, axis=1)
        return np.clip((radius + taper - d) / taper, 0.0, 1.0)

    return delta


@dataclass
class SweepEntry:
    r: float
    point: EPoint
    rescaled: EPoint
    lambda_r: float
    value: float
    dist_to_identity: float
    normalized_s_trace: float
    secant_to_reference: float
    mu_integrals: np.ndarray
    mu_reference: np.ndarray
    error: str | None = None  # "<ExceptionClass>: <message>" when the r failed


@dataclass
class RSweepResult:
    schedule: list
    entries: list = field(default_factory=list)

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(e, name) for e in self.entries])


def default_bumps(reference_measure: DiscreteMeasure):
    """One trapezoid per atom plus a plateau covering the whole contact set."""
    pts = reference_measure.points
    k = pts.shape[0]
    gap = min((np.linalg.norm(pts[i] - pts[j]) for i in range(k) for j in range(i + 1, k)),
              default=0.5)
    bumps = [trapezoid_bump(pts[i], 0.45 * gap, 0.2 * gap) for i in range(k)]
    radius = float(np.max(np.linalg.norm(pts, axis=1)))
    bumps.append(plateau_bump(radius + 0.05, 0.2))
    return bumps


def r_sweep(h: LogConcaveFn, s: float, pair: ProfilePair, schedule,
            quad: QuadratureSpec, reference: MinimizerResult,
            reference_measure: DiscreteMeasure, bumps=None) -> RSweepResult:
    """Minimize the band functional along the schedule and collect diagnostics.

    The concentration-measure integrals are normalized by (1-r) * lambda_r
    and scaled by the reference multiplier, which makes them comparable with
    the reference measure: at the exact minimizer both normalized measures
    satisfy the same identity-direction moment identity.  Each r builds the
    band geometry once and integrates every bump against one density
    evaluation.  A failure at a single r is recorded with its reason and the
    sweep continues.
    """
    if bumps is None:
        bumps = default_bumps(reference_measure)
    ref_integrals = np.array([
        float(np.dot(reference_measure.masses, b(reference_measure.points)))
        for b in bumps
    ])
    n = h.n
    result = RSweepResult(schedule=list(schedule))
    prev = None
    for r in schedule:
        try:
            if prev is not None:
                r_prev, p_prev = prev
                scale = (1.0 - r) / (1.0 - r_prev)
                A0 = np.eye(n) + scale * (p_prev.mat.diag - np.eye(n))
                x0 = EPoint(BlockMat(A0, 1.0 + scale * (p_prev.mat.corner - 1.0)),
                            scale * p_prev.shift)
            else:
                x0 = None
            band = _Band(h, s, pair, r, quad)
            point, value = _minimize_band(band, x0, 400)
            terms = _density_terms(band, point)
            lam_r = _multiplier(band, *terms)
        except (NotConverged, NotInBr, SingularA) as exc:
            nan = float("nan")
            result.entries.append(SweepEntry(
                r=r, point=None, rescaled=None, lambda_r=nan, value=nan,
                dist_to_identity=nan, normalized_s_trace=nan, secant_to_reference=nan,
                mu_integrals=np.full(len(bumps), np.nan), mu_reference=ref_integrals,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        prev = (r, point)
        omr = 1.0 - r
        ident = EPoint(BlockMat.identity(n, 1.0), np.zeros(n))
        diff = point - ident
        rescaled = diff * (1.0 / omr)
        dist = diff.norm()
        nst = abs(s_trace(rescaled.mat, s)) / max(rescaled.mat.frobenius_norm(), 1e-300)
        secant = (rescaled - reference.point).norm()
        mu_vals = np.array([_bump_integral(*terms[:3], b) for b in bumps])
        mu_norm = reference.lam * mu_vals / (omr * lam_r)
        result.entries.append(SweepEntry(
            r=r, point=point, rescaled=rescaled, lambda_r=lam_r, value=value,
            dist_to_identity=dist, normalized_s_trace=nst,
            secant_to_reference=secant, mu_integrals=mu_norm,
            mu_reference=ref_integrals))
    return result
