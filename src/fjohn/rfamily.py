"""The r-indexed band functionals, their minimization, and sweep diagnostics.

Both functionals integrate a product f_r(..) g_r(..) over a thin band around
the upper unit hemisphere; the band substitution t = (scaled height - 1)/(1-r)
turns the inner integral into a piecewise cubic in t whenever the profiles
are piecewise linear, so the 2-point Gauss rule integrates it exactly on
every segment and the only quadrature error comes from the outer x grid.
One kernel gives the inner integral I and its derivative I' in c^2 on the
nodes where the band is open, and everything else is built from those two:
the band functional, its analytic gradient in the minimizer's coordinates
(so the minimizer is quasi-Newton on that gradient), and, by parts, the
concentration-measure density and the stationarity multiplier.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .blockmat import BlockMat, EPoint, s_trace, sdet1_param
from .errors import BadR, NotConverged, NotInBr, NotJohnPosition, NotProper, SingularA
from .isotropy import DiscreteMeasure, MinimizerResult
from .logconcave import (LogConcaveFn, PiecewiseLogAffine, _positive_span, _sq_norms,
                         eval_h_many, psi_eval_many)
from .profiles import PiecewiseLinear, ProfilePair, _distinct


@dataclass(frozen=True)
class QuadratureSpec:
    """Outer-grid resolution for the band quadratures.

    The inner t-integrals are exact for piecewise-linear profiles (2-point
    Gauss on piecewise cubics), so the quadrature error comes from the x
    grid alone; 960 nodes per axis holds it to 1e-6 at n = 1 up to r = 0.99
    (cost grows like 1/(1-r) beyond).  The grid spans the exact band radius
    of `band_radius`.  An instance file's `quadrature.tol`, `t_nodes` and
    `domain_radius` are accepted and ignored in schema version 1.
    The inner kernel integrates only the grid nodes where the band is open,
    so a band evaluation costs in proportion to the open share of the grid
    (about a third of the 921,600 nodes of an n = 2 grid at r = 0.8), not to
    x_nodes_per_axis ** n.  The grid is walked in blocks of about 32k nodes,
    so an evaluation holds one block's temporaries and four floats per open
    node, never the (nodes, n) array of grid points; for n >= 2 a block
    drops the columns outside the grid's disk, where no node is near, so
    the square's corners cost almost nothing.  The outer grid has at
    least 4 panels of 8 nodes per axis, so a count below 25, which it would
    silently raise, is rejected.
    """

    x_nodes_per_axis: int = 960

    def __post_init__(self):
        if not self.x_nodes_per_axis >= 25:
            raise ValueError(f"x_nodes_per_axis must be at least 25, got {self.x_nodes_per_axis}")


def _min_psi(form: PiecewiseLogAffine) -> float:
    """Lower bound on psi over its domain; min psi itself when psi is coercive.

    The larger of two bounds.  A coercive psi (its gradients positively
    span R^n) attains its minimum at a vertex of its epigraph, where n + 1
    pieces with independent (a_j, -1) meet, so min psi is the least psi
    over those vertices: C(k, n + 1) small solves, taken in blocks.
    Without coercivity a vertex proves nothing, since psi can fall below it
    along a direction in which no piece grows.  On a domain ball of radius
    R, psi >= b_j - |a_j| R for every piece j.
    """
    k, n = form.a.shape
    bounds = []
    if form.domain_radius is not None:
        bounds.append(float(np.max(form.b - np.linalg.norm(form.a, axis=1) * form.domain_radius)))
    if _positive_span(form.a)[0]:
        least = np.inf
        subsets = itertools.combinations(range(k), n + 1)
        while block := list(itertools.islice(subsets, 4096)):
            S = np.array(block)
            M = np.concatenate([form.a[S], np.full(S.shape + (1,), -1.0)], axis=2)
            ok = np.linalg.matrix_rank(M) == n + 1
            xt = np.linalg.solve(M[ok], -form.b[S[ok]][..., None])[..., 0]
            least = min(least, float(np.min(psi_eval_many(form, xt[:, :n]), initial=np.inf)))
        bounds.append(least)
    if not bounds:
        raise NotProper("psi is not bounded below: no domain ball and not coercive")
    return max(bounds)


def sup_h_pow2(h: LogConcaveFn, s: float) -> float:
    """Upper bound on sup h**(2/s): exp(-min psi)**(2/s) from `_min_psi`, times 1 + 1e-7."""
    return float(np.exp(-_min_psi(h.form)) ** (2.0 / s)) * 1.0000001


def band_radius(h: LogConcaveFn, s: float, r: float) -> float:
    """Radius enclosing the set where the band factor can be nonzero.

    Where h vanishes, |x| > 1 closes the band, so with a domain ball of
    radius R the radius is capped at max(R, 1).
    """
    return _radius(h, sup_h_pow2(h, s), r, 1.0)


def _radius(h: LogConcaveFn, sup: float, r: float, top: float) -> float:
    """sqrt(1 + 2 (1-r) sup top), capped at max(R, 1) for a domain ball of radius R.

    With sup >= sup h^(2/s), no node beyond it has |x|^2 - 1 below
    den = 2 (1-r) h^(2/s) times top, nor any beyond the cap, where den = 0.
    """
    radius = float(np.sqrt(1.0 + 2.0 * (1.0 - r) * sup * top))
    R = h.form.domain_radius
    return radius if R is None else min(radius, max(R, 1.0))


@functools.lru_cache(maxsize=None)
def _gauss(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only k-node Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(k)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _axis_rule(radius: float, nodes_per_axis: int, kinks=None):
    """Composite 8-node Gauss-Legendre rule (nodes, weights) on [-radius, radius].

    With kink locations supplied, the panel edges are aligned with them
    (piece switches of the max-affine exponents), which keeps the integrand
    analytic inside every panel.  The node count is a multiple of 8.
    """
    per_panel = 8
    panels = max(4, int(np.ceil(nodes_per_axis / per_panel)))
    xi, wi = _gauss(per_panel)
    if kinks is not None and len(kinks):
        inner = kinks[(kinks > -radius + 1e-12) & (kinks < radius - 1e-12)]
        base = _distinct(np.concatenate([[-radius, radius], inner]))
        a, b = base[:-1], base[1:]
        m = np.maximum(1, np.ceil((b - a) / (2.0 * radius / panels))).astype(int)
        # np.linspace(a, b, m + 1)[1:] on every interval at once: k * step + a, last b
        ends = np.cumsum(m)
        k = np.arange(1, ends[-1] + 1) - np.repeat(ends - m, m)
        edges = k * np.repeat((b - a) / m, m) + np.repeat(a, m)
        edges[ends - 1] = b
        edges = np.concatenate([base[:1], edges])
    else:
        edges = np.linspace(-radius, radius, panels + 1)
    half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * wi).ravel()


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


_BLOCK_NODES = 1 << 15  # grid nodes per block of `_Band.terms`: ~32k, so its temporaries stay in cache


def _inner_band(f_pl: PiecewiseLinear, g_pl: PiecewiseLinear, r: float,
                c2: np.ndarray, den: np.ndarray, r2m1: np.ndarray):
    """The inner t-integral I and its derivative I' in c2, on the nodes where the band is open.

    I  = integral of f(t) g(q(t)) dt,
    I' = integral of f(t) g'(q(t)) (1+(1-r)t)^2/den dt,
    with q(t) = (r2m1 + c2 (1+(1-r)t)^2)/den, increasing in t >= -1, for
    c2 > 0 and den > 0 (`_Band` makes sure of both).  Returns (open, I, I'):
    the indices of the open nodes and the two integrals there.  The band is
    open only where the pullback t_top of the top kink of g lies above -1;
    everywhere else each segment end clips to -1 and both integrals are
    exactly 0.  On [-1, t_top] the integrands are polynomials of degree
    <= 3 on the overlap of a piece i of f with the t-range of a piece j of
    g (between the pullbacks of its kinks), so the 2-point Gauss rule is
    exact there, with the slopes and intercepts of i and j as constants.
    The kernel walks every pair (i, j) on every node; an empty overlap has
    b = a and adds exactly 0, and the pairs come in increasing t, so the
    sums run in the order of the sorted segment ends.  A piece of g with
    slope 0 needs no q (0 q + c = c) and adds nothing to I'.  A pair that
    no node reaches is skipped.  Every node is integrated on its own, so
    `_Band.terms` calls this on one block of the grid at a time and gets
    the same bits as on the whole grid.  f(t) g(q(t)) is continuous at
    every segment end and vanishes at the top one, so moving the ends with
    c2 adds no term to I': it is accumulated in the same pass.  The kernel
    works in place: each pullback is computed one g kink at a time into
    its own array, and every pass writes into the same few preallocated
    (2, nodes) work arrays through `out=` ufuncs, each operation on the
    operands and in the order of the plain expression in its comment (up to
    the order of the two factors of a product or terms of a sum, which
    rounds alike), so I and I' keep the bits of those expressions.
    """
    omr = 1.0 - r
    g_breaks = g_pl.breaks

    def pullback(gb, out):  # t with q(t) = gb; -1/(1-r), i.e. tau = 0, where q(tau = 0) >= gb
        # (sqrt(max((den gb - r2m1)/c2, 0)) - 1)/(1-r)
        np.multiply(den, gb, out=out)
        out -= r2m1
        out /= c2
        np.maximum(out, 0.0, out=out)
        np.sqrt(out, out=out)
        out -= 1.0
        out /= omr
        return out

    t_top = pullback(g_breaks[-1], np.empty(len(c2)))
    # ~(t <= -1) rather than t > -1 keeps NaN nodes on the integrating path
    is_open = np.flatnonzero(~(t_top <= -1.0))
    c2, den, r2m1, t_top = c2[is_open], den[is_open], r2m1[is_open], t_top[is_open]
    m = len(c2)
    # the t-ends of f's pieces above -1, and of g's pieces below its top kink in [-1, t_top]
    f_ends = [-1.0, *f_pl.breaks[f_pl.breaks > -1.0], np.inf]
    g_ends = [-1.0]
    for gb in g_breaks[:-1]:  # min(max(pullback, -1), t_top)
        end = pullback(gb, np.empty(m))
        np.maximum(end, -1.0, out=end)
        g_ends.append(np.minimum(end, t_top, out=end))
    g_ends.append(t_top)
    f_first = int(np.count_nonzero(f_pl.breaks <= -1.0))  # the piece of f right of -1
    # each end's least and greatest value: NaN where a node is NaN, and then no pair skips
    g_lows = [np.min(e, initial=np.inf) for e in g_ends]
    g_highs = [np.max(e, initial=-np.inf) for e in g_ends]

    xi = _gauss(2)[0][:, None]  # the 2-point rule: nodes mid + xi half, both weights exactly 1
    qlo, qhi = g_breaks[0] - 1.0, g_breaks[-1] + 1.0
    inner = np.zeros(m)
    d_inner = np.zeros(m)
    # work arrays of every pass: the segment ends, then the Gauss nodes t; half, mid and
    # the row sums; f(t); tau^2 and then d_vals; q and then vals
    ends, half, mid = np.empty((2, m)), np.empty(m), np.empty(m)
    f_t, work, vals = np.empty((2, m)), np.empty((2, m)), np.empty((2, m))
    a, b = ends
    for i, j in itertools.product(range(len(f_ends) - 1), range(len(g_breaks))):
        if f_ends[i] >= g_highs[j + 1] or f_ends[i + 1] <= g_lows[j]:
            continue  # empty on every node
        # a = max(g_j, f_i), b = max(a, min(g_j+1, f_i+1))
        np.maximum(g_ends[j], f_ends[i], out=a)
        np.minimum(g_ends[j + 1], f_ends[i + 1], out=b)
        np.maximum(a, b, out=b)
        # half = (b - a)/2, mid = (a + b)/2, t = mid + half xi: (2, nodes)
        np.subtract(b, a, out=half)
        half *= 0.5
        np.add(a, b, out=mid)
        mid *= 0.5
        t = np.multiply(half, xi, out=ends)
        t += mid
        # f_t = f slope t + f intercept
        np.multiply(t, f_pl.slopes[f_first + i], out=f_t)
        f_t += f_pl.intercepts[f_first + i]
        g_slope, g_icpt = g_pl.slopes[j], g_pl.intercepts[j]
        if g_slope == 0.0:  # vals = f_t g_icpt
            np.multiply(f_t, g_icpt, out=vals)
        else:
            # tau2 = (1 + (1-r) t)^2, q = min(max((r2m1 + c2 tau2)/den, qlo), qhi),
            # vals = f_t (g_slope q + g_icpt)
            tau2 = np.multiply(t, omr, out=work)
            tau2 += 1.0
            np.square(tau2, out=tau2)
            q = np.multiply(tau2, c2, out=vals)
            q += r2m1
            q /= den
            np.maximum(q, qlo, out=q)
            np.minimum(q, qhi, out=q)
            q *= g_slope
            q += g_icpt
            vals *= f_t
            # d_inner += (half g_slope)(d_vals[0] + d_vals[1]) with d_vals = f_t tau2:
            # g' = g_slope is fixed on the overlap, so it is applied here
            d_vals = np.multiply(f_t, tau2, out=work)
            np.add(d_vals[0], d_vals[1], out=mid)
            mid *= np.multiply(half, g_slope, out=d_vals[0])
            d_inner += mid
        # inner += half (vals[0] + vals[1])
        np.add(vals[0], vals[1], out=mid)
        mid *= half
        inner += mid
    return is_open, inner, d_inner / den


def check_band_pair(pair: ProfilePair) -> None:
    """Raise ValueError unless the band kernel applies to the profile pair.

    It needs f(-1) = 0 and g = 0 at the top kink of g: then
    f(t) (1+(1-r)t) g(q(t)) vanishes at both ends of the band, which is what
    lets the density integral be taken by parts and I' skip the moving
    segment ends.
    """
    top = float(pair.g.breaks[-1])
    f_low, g_top = float(pair.f(-1.0)), float(pair.g(top))
    if abs(f_low) > 1e-12:
        raise ValueError(f"band quadrature needs f(-1) = 0, got {f_low!r}")
    if abs(g_top) > 1e-12:
        raise ValueError(f"band quadrature needs g = 0 at its top kink {top!r}, got {g_top!r}")


class _Band:
    """What a band quadrature needs that does not depend on the position.

    Built once per (h, s, pair, r, quad) and kept for one call or one
    minimization: the profiles, the band radius, for n = 1 the kinks of psi
    on the whole line, and the upper-triangle indices of the minimizer's
    coordinates.  It checks up front what the band kernel assumes: the pair
    passes `check_band_pair`, and h > 0 on the closed unit ball without
    underflow of h^(2/s) 2(1-r) there.  Then a node where the band can be
    open (|z|^2 - 1 below den times the top kink of g) has den > 0: den = 0
    would need |z| < 1.
    """

    def __init__(self, h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                 quad: QuadratureSpec):
        if not 0.5 < r < 1.0:
            raise BadR(f"r={r} outside (1/2, 1)")
        check_band_pair(pair)
        form = h.form
        if form.domain_radius is not None and form.domain_radius < 1.0:
            raise NotJohnPosition(f"h vanishes on the unit ball beyond its domain radius "
                                  f"{form.domain_radius}")
        # on |x| <= 1, psi <= max_j (b_j + |a_j|)
        least = np.exp(-np.max(form.b + np.linalg.norm(form.a, axis=1))) ** (2.0 / s)
        if not least * 2.0 * (1.0 - r) > 0.0:
            raise NotJohnPosition("h^(2/s) underflows on the unit ball")
        self.h, self.s, self.r, self.quad, self.f, self.g = h, s, r, quad, pair.f, pair.g
        sup = sup_h_pow2(h, s)
        self.radius = _radius(h, sup, r, 1.0)  # band_radius(h, s, r)
        # no node beyond `reach` in the band variable is near: the same as the radius
        # unless g has a kink beyond 1
        self.reach = _radius(h, sup, r, max(float(pair.g.breaks[-1]), 1.0))
        self.breaks = _envelope_breaks_1d(h.form, -np.inf, np.inf) if h.n == 1 else None
        self.upper = np.triu_indices(h.n)  # theta = (upper triangle of S, shift)
        self.on_diagonal = self.upper[0] == self.upper[1]

    def terms(self, A: np.ndarray, alpha: float, v: np.ndarray, shifted: bool,
              nodes: bool = False):
        """The open nodes' weights W, h^(1/s) at the band-factor argument, I and I'.

        shifted: x is the band variable and the factor is evaluated at Ax + v
        (the band_functional route); otherwise x is the factor argument and
        the band variable is A^-1 (x - v).  For n = 1 the panels follow the
        kinks of psi in both variables.  Returns (X, W, h^(1/s), I, I') on
        the nodes where the band is open, in row-major grid order (node
        i0 P^(n-1) + ... + i_(n-1) is (x[i0], ..., x[i_(n-1)]) for the P
        nodes x of `_axis_rule`), with X their coordinates when `nodes` is
        set and None otherwise; or None when part of the band lies where
        h^(1/s)/alpha vanishes (or its square underflows).  h at the
        band-factor argument is evaluated only where the band can be open
        (q(-1) below the top kink of g).

        The grid is walked in blocks of whole tensor rows, about
        `_BLOCK_NODES` nodes each, so every per-node temporary stays in
        cache.  For n >= 2 a block keeps only the columns (last-axis
        nodes) that some row of the block has inside the disk of `reach`
        (the grid's own radius unless g has a kink beyond 1; in the
        unshifted route mapped like the radius, |x| <= |A| reach + |v|),
        plus 1e-9 for rounding.  No node beyond it is near: there
        |z|^2 - 1 exceeds den times the top kink of g, or h = 0.  So the
        square's corners, 21% of an n = 2 grid, mostly go unvisited.
        What outlives a block is its open nodes' W, h, I and I', written
        in grid order to the front of four arrays with room for the whole
        grid; their rest is never written, so it never becomes resident,
        and the returned arrays are views of the fronts.  W is gathered at
        the open nodes alone, as their row's weight times their column's
        axis weight: the same products as those of the whole tensor grid.

        Each node's arithmetic is the whole grid's.  A block keeps the grid's
        row-major (nodes, n) layout, so every matrix product takes the same
        BLAS path; a column-major block rounds the psi product differently.
        One caveat: OpenBLAS computes the last (count mod 8) columns of a
        product with another micro-kernel, which can round differently,
        mostly when psi has 12 or more pieces.  h at the band-factor argument
        is one product over the near nodes of a block, not of the whole grid,
        so its tail falls on other nodes, and a node's h can move in its last
        bit: seen at 1 node in 32,768 on a rotated n = 3 cross, never on the
        axis crosses or the benchmark's instances.  h on the grid is one
        product over a block's kept columns, so the same holds for it.
        """
        n, s = self.h.n, self.s

        def extent(radius):  # the grid's half-width for a radius in the band variable
            return (radius if shifted else
                    float(np.linalg.norm(A, 2) * radius + np.linalg.norm(v)) + 1e-9)

        kinks = None
        if self.breaks is not None:
            a, c = float(A[0, 0]), float(v[0])
            u, c = (a, c) if shifted else (1.0 / a, -c / a)
            kinks = np.concatenate([self.breaks, (self.breaks - c) / u])
        x1, w1 = _axis_rule(extent(self.radius), self.quad.x_nodes_per_axis, kinks)
        clip2 = (extent(self.reach) + 1e-9) ** 2  # no near node lies beyond; 1e-9 for rounding
        P = len(x1)
        w_rows = functools.reduce(np.multiply.outer, [w1] * (n - 1), np.ones(1)).ravel()
        # four arrays, not one (4, nodes) buffer: after freeing that larger buffer the
        # allocator kept ~3 MB more of the process resident on the benchmark's n = 2 grid
        out, filled = [np.empty(P ** n) for _ in range(4)], 0
        kept = [np.empty((0, n))]  # the open nodes' coordinates; the empty start serves a closed band
        rows, step = P ** (n - 1), max(1, _BLOCK_NODES // P)
        c0, c1 = 0, P
        for r0 in range(0, rows, step):
            r1 = min(rows, r0 + step)
            lead = [x1[np.arange(r0, r1) // P ** (n - 2 - k) % P] for k in range(n - 1)]
            if n > 1:  # the columns some row of the block has inside the disk
                least = np.min(functools.reduce(np.add, [x * x for x in lead]))
                cols = np.flatnonzero(x1 * x1 <= clip2 - least)
                if not len(cols):
                    continue
                c0, c1 = cols[0], cols[-1] + 1
            m = c1 - c0
            X = np.empty((r1 - r0, m, n))
            X[..., -1] = x1[c0:c1]
            for k, x in enumerate(lead):
                X[..., k] = x[:, None]
            X = X.reshape(-1, n)
            Z = X if shifted else np.linalg.solve(A, (X - v).T).T
            r2m1 = _sq_norms(Z)
            r2m1 -= 1.0
            den = eval_h_many(self.h, Z)  # 2 h^(2/s) (1-r), in place
            den **= 2.0 / s
            den *= 2.0
            den *= 1.0 - self.r
            near = np.flatnonzero(r2m1 < den * self.g.breaks[-1])
            if not len(near):  # the band is closed on the whole block
                continue
            Y = X.take(near, axis=0)
            if shifted:
                Y = Y @ A.T
                Y += v
            h_near = eval_h_many(self.h, Y) ** (1.0 / s)
            c2 = (h_near / alpha) ** 2
            if not np.all(c2 > 0.0):
                return None
            opened, inner, d_inner = _inner_band(self.f, self.g, self.r, c2, den[near],
                                                 r2m1[near])
            at = near[opened]
            if nodes:
                kept.append(X.take(at, axis=0))
            row, col = np.divmod(at, m)
            for o, got in zip(out, (w_rows[r0 + row] * w1[c0 + col], h_near[opened],
                                    inner, d_inner)):
                o[filled:filled + len(at)] = got
            filled += len(at)
        W, h_y, inner, d_inner = (o[:filled] for o in out)
        return (np.concatenate(kept) if nodes else None), W, h_y, inner, d_inner


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
    terms = band.terms(A, alpha, v, shifted=True)
    if terms is None:
        return float("inf")
    _, W, h_y, inner, _ = terms
    return float(np.sum(W * (h_y / alpha) * inner))


def _band_value_grad(band: _Band, p: EPoint, S: np.ndarray) -> tuple[float, np.ndarray]:
    """Band functional at p = (exp S, exp(-tr S / s), v) and its gradient in theta.

    theta = (upper triangle of S, v), the coordinates of `_minimize_band`.
    The value is `_band_value(band, p)` bit for bit.  With c = h(y)^(1/s)/alpha
    at y = Ax + v and the inner integral I(c^2), each open node contributes
    W c I(c^2), so the gradient is sum W c (I + 2 c^2 I') d(log c), where
    d(log c) = -(1/s) a_j(y) . dy + tr(dS)/s with a_j(y) the active piece of
    psi at y.  dy = dA x + dv; dA = L(S, dS) is the Frechet derivative of
    the symmetric matrix exponential (Daleckii-Krein: in the eigenbasis of
    S, dS scaled entrywise by the divided differences of exp), which is
    self-adjoint, so the S-gradient is L(S, G) for G = sum (weight) a_j x^T.
    Returns (inf, None) beyond the coercive barrier.
    """
    A, alpha, v = p.mat.diag, p.mat.corner, p.shift
    terms = band.terms(A, alpha, v, shifted=True, nodes=True)
    if terms is None:
        return float("inf"), None
    Xn, W, h_y, inner, d_inner = terms
    c = h_y / alpha
    value = float(np.sum(W * c * inner))
    omega = W * c * (inner + 2.0 * c * c * d_inner)
    form = band.h.form
    a_j = form.a[np.argmax((Xn @ A.T + v) @ form.a.T + form.b, axis=1)]
    lam, V = np.linalg.eigh(S)
    half_gap = 0.5 * np.subtract.outer(lam, lam)
    sinhc = np.divide(np.sinh(half_gap), half_gap, out=np.ones_like(half_gap),
                      where=half_gap != 0.0)
    gamma = np.exp(0.5 * np.add.outer(lam, lam)) * sinhc  # divided differences of exp
    G = (a_j.T * omega) @ Xn  # sum omega a_j x^T
    D = V @ ((V.T @ G @ V) * gamma) @ V.T
    s, upper = band.s, band.upper
    g_S = (D + D.T - np.diag(np.diag(D)))[upper] / -s
    g_S[band.on_diagonal] += float(np.sum(omega)) / s
    return value, np.concatenate([g_S, (a_j.T @ omega) / -s])


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
    terms = band.terms(A, alpha, (1.0 - r) * p.shift, shifted=False)
    if terms is None:
        return float("inf")
    _, W, h_x, inner, _ = terms
    return float(alpha ** (s - 1.0) * np.sum(W * h_x * inner))


def _density_terms(band: _Band, minimizer: EPoint):
    """Open nodes, their weights, the concentration-measure density there, and h^(1/s).

    The density is alpha^(s-1) D / h^(1/s) with D the integral of
    f'(t) (1+(1-r)t) g(q(t)) dt.  By parts, since f(t) (1+(1-r)t) g(q(t))
    vanishes at both ends of the band (`check_band_pair`), and with
    dq/dt = 2 c^2 (1+(1-r)t)(1-r)/den, D = -(1-r)(I + 2 c^2 I').  Raises
    NotInBr when part of the band lies where h vanishes, where the band
    functional is +inf.
    """
    A, alpha, v = minimizer.mat.diag, minimizer.mat.corner, minimizer.shift
    if alpha <= 0.0:
        raise SingularA("corner must be positive")
    terms = band.terms(A, alpha, v, shifted=False, nodes=True)
    if terms is None:
        raise NotInBr("the band reaches where h vanishes")
    X, W, h_x, inner, d_inner = terms
    c2 = (h_x / alpha) ** 2
    density = (-(1.0 - band.r) * alpha ** (band.s - 1.0)) * (inner + 2.0 * c2 * d_inner) / h_x
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
    slope = h.form.a[np.argmax(X @ h.form.a.T + h.form.b, axis=1)]  # the gradient of psi
    contraction = h_x**2 * ((1.0 / s) * np.sum(slope * X, axis=1) + s)
    return float(np.sum(W * density * contraction) / ((1.0 - band.r) * (n + s * s)))


def _logm_sym(A: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh(0.5 * (A + A.T))
    if np.any(lam <= 0.0):
        raise SingularA("matrix log of a non-SPD block")
    L = (V * np.log(lam)) @ V.T
    return 0.5 * (L + L.T)


@dataclass
class BandMinimum:
    """What `_minimize_band` found, and how it got there."""

    point: EPoint
    value: float
    evaluations: int  # value-and-gradient calls, Hessian columns and line-search trials included
    iterations: int   # quasi-Newton steps taken
    stop_reason: str  # CONVERGED, RESOLVED or "max_iter"
    grad_norm: float  # norm of the gradient in theta at `point`
    hessian_builds: int  # forward-difference Hessians built
    hessian: np.ndarray = field(repr=False)  # the model Hessian in theta at `point`


CONVERGED = "predicted decrease below rounding"
RESOLVED = "no descent beyond the difference step"
ROUNDING = 1e-12  # relative level of the value below which a predicted decrease is not resolved


def minimize_band(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                  quad: QuadratureSpec, x0: EPoint | None = None,
                  max_iter: int = 400) -> tuple[EPoint, float]:
    """Minimize the band functional over unit-weighted-determinant positions.

    The block is parametrized as exp(S) with corner exp(-tr S / s), which
    keeps the weighted determinant at exactly 1 (restricting to that manifold
    loses nothing at a minimum).  Quasi-Newton in theta = (upper triangle of
    S, shift) on the analytic gradient of `_band_value_grad`: one Hessian
    from differences of that gradient at the start, BFGS updates after every
    step, and Armijo backtracking on the value.  It stops once the decrease
    the model predicts is below the rounding of the value, once no step down
    to the difference step descends on a freshly differenced Hessian, or
    after `max_iter` steps.  The band geometry (radius, kinks of psi) is
    built once per minimization.  Returns the minimizer and the stationarity
    multiplier.
    """
    band = _Band(h, s, pair, r, quad)
    point = _minimize_band(band, x0, max_iter).point
    return point, _multiplier(band, *_density_terms(band, point))


def _minimize_band(band: _Band, x0: EPoint | None, max_iter: int,
                   hessian: np.ndarray | None = None) -> BandMinimum:
    """minimize_band on a prepared band geometry, as a solver record.

    Every evaluation is one `_band_value_grad` call.  Without a `hessian`
    (in theta at x0) the loop starts from one built from forward differences
    of the gradient with step fd = 1e-4 (1-r), theta's scale being 1-r, the
    width of the band; its eigenvalues are floored in magnitude, so the
    model starts positive definite.  Each step is Newton on the model
    (floored again), halved until Armijo (1e-4) holds on the value; +inf
    beyond the coercive barrier is a rejection.  An accepted step s with
    gradient change y updates the model by BFGS, skipped when s.y <= 0, so
    the model stays positive definite.  The minimizer stops (CONVERGED) once
    the model predicts a decrease below ROUNDING of the value: the n = 1
    grid follows the kinks of psi(Ax + v) and moves with theta, so the
    analytic gradient and the discrete values differ at the quadrature
    level (~1e-6 of the gradient, ~1e-12 of the value), and a smaller
    decrease is not resolved.  When the halved step falls below fd without
    a decrease, the model is rebuilt from differences at the same theta and
    the step retried; if a fresh difference Hessian fails too the minimizer
    stops (RESOLVED): that is where the discrete functional stops following
    its Newton model, as on a fixed n >= 2 grid, whose nodes cross the kinks
    of psi one by one.  The record keeps the final model Hessian, which
    `r_sweep` carries to the next r.  A start beyond the coercive barrier,
    or a barrier within fd of an iterate in every direction a difference
    Hessian steps along, raises NotConverged with the iterations and
    evaluations so far.
    """
    n, s, r = band.h.n, band.s, band.r
    upper = band.upper
    dim_s = len(upper[0])
    evals = builds = 0

    def to_point(theta: np.ndarray) -> tuple[EPoint, np.ndarray]:
        S = np.zeros((n, n))
        S[upper] = S[upper[::-1]] = theta[:dim_s]
        return EPoint(BlockMat(*sdet1_param(S, s)), theta[dim_s:]), S

    def evaluate(theta: np.ndarray):
        nonlocal evals
        evals += 1
        return _band_value_grad(band, *to_point(theta))

    def difference_hessian() -> np.ndarray:
        nonlocal builds
        builds += 1
        cols = []
        for unit in np.eye(len(theta)):
            for step in (fd, -fd):  # backwards where the forward point is beyond the barrier
                g_k = evaluate(theta + step * unit)[1]
                if g_k is not None:
                    break
            else:
                raise NotConverged(f"coercive barrier within {fd:.1e} of the iterate at r={r}",
                                   reason="coercive barrier", iterations=it, evaluations=evals,
                                   grad_norm=float(np.linalg.norm(grad)))
            cols.append((g_k - grad) / step)
        lam, V = _floored(0.5 * (np.array(cols) + np.array(cols).T))
        return (V * lam) @ V.T

    if x0 is not None:
        theta = np.concatenate([_logm_sym(x0.mat.diag)[upper], x0.shift])
    else:
        theta = np.zeros(dim_s + n)
    value, grad = evaluate(theta)
    if not np.isfinite(value):
        raise NotConverged("band functional infinite at the starting point",
                           reason="infinite start", iterations=0, evaluations=evals)

    fd = 1e-4 * (1.0 - r)
    it, stop = 0, CONVERGED
    fresh = hessian is None  # the model is a difference Hessian at theta
    hess = difference_hessian() if fresh else hessian
    while True:
        delta, decrease = _newton(hess, grad)
        if decrease <= ROUNDING * value:
            break
        if it == max_iter:
            stop = "max_iter"
            break
        t = 1.0
        while True:
            c_value, c_grad = evaluate(theta + t * delta)
            if c_value <= value - 2e-4 * t * decrease:
                break
            t *= 0.5
            if t * np.linalg.norm(delta) < fd:
                t = 0.0  # no descent down to the difference step
                break
        if t == 0.0:
            if fresh:
                stop = RESOLVED
                break
            hess, fresh = difference_hessian(), True
            continue
        step, change = t * delta, c_grad - grad
        theta, value, grad, it, fresh = theta + step, c_value, c_grad, it + 1, False
        sy = float(np.dot(step, change))
        if sy > 0.0:
            h_step = hess @ step
            hess = (hess - np.outer(h_step, h_step) / np.dot(step, h_step)
                    + np.outer(change, change) / sy)
    return BandMinimum(point=to_point(theta)[0], value=value, evaluations=evals,
                       iterations=it, stop_reason=stop,
                       grad_norm=float(np.linalg.norm(grad)),
                       hessian_builds=builds, hessian=hess)


def _floored(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a symmetric Hessian floored in magnitude, and its eigenvectors."""
    lam, V = np.linalg.eigh(hess)
    return np.maximum(np.abs(lam), 1e-8 * np.max(np.abs(lam))), V


def _newton(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton step on the eigenvalue-floored Hessian and the decrease it predicts."""
    lam, V = _floored(hess)
    coef = (V.T @ grad) / lam
    return -(V @ coef), 0.5 * float(np.dot(coef, V.T @ grad))


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
    solver: BandMinimum | None = None  # the minimizer's record; None when the r failed


@dataclass
class RSweepResult:
    schedule: list
    entries: list = field(default_factory=list)

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(e, name) for e in self.entries])


def default_bumps(reference_measure: DiscreteMeasure):
    """One trapezoid per atom plus one at the origin whose flat part covers the contact set."""
    pts = reference_measure.points
    k = pts.shape[0]
    gap = min((np.linalg.norm(pts[i] - pts[j]) for i in range(k) for j in range(i + 1, k)),
              default=0.5)
    bumps = [trapezoid_bump(pts[i], 0.45 * gap, 0.2 * gap) for i in range(k)]
    radius = float(np.max(np.linalg.norm(pts, axis=1)))
    bumps.append(trapezoid_bump(np.zeros(pts.shape[1]), radius + 0.05, 0.2))
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
    evaluation.  Each r starts from the minimizer of the last r that
    succeeded, rescaled by (1-r)/(1-r_prev) about the identity, and from its
    final model Hessian scaled by (1-r_prev)/(1-r), so only the first r
    builds a difference Hessian unless a later one falls back to it (see
    `_minimize_band`).  A failure at a single r is recorded with
    its reason and the sweep continues.
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
                r_prev, p_prev, hess_prev = prev
                scale = (1.0 - r) / (1.0 - r_prev)
                A0 = np.eye(n) + scale * (p_prev.mat.diag - np.eye(n))
                x0 = EPoint(BlockMat(A0, 1.0 + scale * (p_prev.mat.corner - 1.0)),
                            scale * p_prev.shift)
                hess0 = hess_prev / scale
            else:
                x0 = hess0 = None
            band = _Band(h, s, pair, r, quad)
            solver = _minimize_band(band, x0, 400, hess0)
            point, value = solver.point, solver.value
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
        prev = (r, point, solver.hessian)
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
            mu_reference=ref_integrals, solver=solver))
    return result
