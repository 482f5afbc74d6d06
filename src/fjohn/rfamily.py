"""The r-indexed band functionals, their minimization, and sweep diagnostics.

Both functionals integrate a product f_r(..) g_r(..) over a thin band around
the unit hemisphere xi = sqrt(1 - |x|^2); the band substitution
t = (scaled height - 1)/(1-r) turns the inner integral into a piecewise
cubic in t whenever the profiles are piecewise linear, so the 2-point Gauss
rule integrates it exactly on every segment and the only quadrature error
comes from the outer x grid.
One kernel (`_inner_band`) gives the inner integral I on the nodes where the
band is open, and for the minimizer also its first two derivatives in c^2.
One walk per grid shape feeds it: at n >= 2 `_Band.blocks` walks one
position's tensor grid block by block, and at n = 1 `_Band.line` lays the
grids of every position of a round side by side in one array, psi's kinks
added to its kernel calls.  The value walks sum the band functional, and the
derivative walks (`_band_sums`) give its analytic gradient and Hessian, so
the minimizer is exact Newton.  The derivative walks keep the open nodes'
band-factor arguments and density weights, from which one reduction
(`_measure`) gives the concentration-measure integrals and the stationarity
multiplier in closed form: a sweep reads them from the minimizer's accepted
evaluation and walks no grid after the minimizer.  A sweep runs the Newton
loops of its r's in rounds, and at n = 1 one walk evaluates every r of a
round (`r_sweep`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .blockmat import BlockMat, EPoint, s_trace, sdet1_param, trace0_array
from .errors import BadR, NotConverged, NotInBr, NotJohnPosition, NotProper, SingularA
from . import isotropy  # `isotropy._newton` by attribute: one name for a tracer to patch
from .isotropy import CONVERGED, ROUNDING, DiscreteMeasure, MinimizerResult, limit_reference
from .logconcave import (LogConcaveFn, PiecewiseLogAffine, _positive_span, _sq_norms,
                         eval_h_many, psi_eval_many)
from .profiles import PiecewiseLinear, ProfilePair, _distinct

# Entries of the largest array a band walk holds, which is
# x_nodes_per_axis ** max(1, n - 1): at n = 1 a position's whole grid goes to
# one kernel call (`_Band.line`), whose arrays and kernel rows take about 198
# bytes a node in a value walk and 314 in a derivative walk (0.83 and 1.3 GB
# at the cap, all freed when the walk ends: the free list keeps no rows that
# wide), and at n >= 2 (`_Band.blocks`) the
# row-weight table holds P^(n-1) entries for the P >= x_nodes_per_axis nodes
# per axis, while a block holds at most max(`_BLOCK_NODES`, P) nodes.  It
# admits 2048 nodes per axis at n = 3.
MAX_WALK_ARRAY = 1 << 22


@dataclass(frozen=True)
class QuadratureSpec:
    """Outer-grid resolution for the band quadratures.

    The inner t-integrals are exact for piecewise-linear profiles (2-point
    Gauss on piecewise cubics), so the quadrature error comes from the x
    grid alone; 960 nodes per axis holds it to 1e-6 at n = 1 up to r = 0.99
    (cost grows like 1/(1-r) beyond).  The grid spans the band radius at r
    (`_Band.radii`), and a band evaluation integrates only the nodes where
    the band is open (`_Band.blocks`, `_Band.line`), so it costs in
    proportion to that share of the grid, not to x_nodes_per_axis ** n.  An
    instance file's `quadrature.tol`, `t_nodes` and `domain_radius` are
    accepted and ignored in schema version 1.  x_nodes_per_axis must be an
    integer of at least 25: the outer grid has at least 4 panels of 8 nodes
    per axis, so it would silently raise a smaller count.  `check_grid` bounds the largest
    array of the band walk by MAX_WALK_ARRAY, which `_Band` enforces once
    per (h, s, pair, quad).
    """

    x_nodes_per_axis: int = 960

    def __post_init__(self):
        nodes = self.x_nodes_per_axis
        if type(nodes) is not int or nodes < 25:  # a bool or a fraction is not a node count
            raise ValueError(f"x_nodes_per_axis must be an integer of at least 25, got {nodes!r}")

    def check_grid(self, n: int) -> None:
        """ValueError unless x_nodes_per_axis ** max(1, n - 1) is at most MAX_WALK_ARRAY."""
        entries = self.x_nodes_per_axis ** max(1, n - 1)
        if entries > MAX_WALK_ARRAY:
            raise ValueError(f"x_nodes_per_axis {self.x_nodes_per_axis} at n = {n} needs a "
                             f"band-walk array of {entries} entries, above {MAX_WALK_ARRAY}")


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


def _envelope_breaks_1d(form: PiecewiseLogAffine) -> tuple[np.ndarray, np.ndarray]:
    """Kinks of the max-affine envelope in increasing order, and its hull's slopes (n = 1 only).

    Sweeps the max envelope of the lines in order of slope (of parallel lines
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
    return np.array([(b[j] - b[i]) / (a[i] - a[j]) for i, j in zip(hull[:-1], hull[1:])]), a[hull]


# grid nodes per block of `_Band.blocks` and per kernel call of `_Band.line`: ~32k, so
# temporaries stay in cache
_BLOCK_NODES = 1 << 15
_FREE: list = []  # the buffer a finished band walk left for the next one


class _Scratch(contextlib.AbstractContextManager):
    """Rows of a band walk's arrays, handed out in stack order from one flat buffer.

    `take(k)` returns the next k rows of `width` entries as one flat array
    (a caller uses its first entries), and `release(mark)` hands back every
    row taken after `mark()`.  A walk writes every array it makes into rows
    through numpy's `out=`: the operations and their order are those of
    fresh arrays, so no bit moves.  `rows` is the walk's high-water, the
    most rows it holds at once.  The buffer is the one on the module's free
    list `_FREE` if that holds `rows` rows; otherwise, or when the list
    holds none (a nested or interleaved walk builds its own, so no two live
    walks share rows), the scratch builds one of `rows` rows, so a walk
    allocates its buffer once and up front, at its high-water.  A take past
    the buffer's end is served fresh.  On leaving its `with` block (a
    finished or abandoned walk, or one stopped at the barrier) the scratch
    gives its buffer to the list.  The list keeps one buffer, and none from
    a walk whose rows are wider than `_BLOCK_NODES` nodes, which also
    leaves the kept one on the list.
    """

    def __init__(self, width: int, rows: int):
        self.width, self.top = width, 0
        kept = _FREE.pop() if _FREE and width <= _BLOCK_NODES else np.empty(0)
        self.buf = kept if len(kept) >= rows * width else np.empty(rows * width)

    def take(self, k: int) -> np.ndarray:
        start = self.top
        self.top = end = start + k * self.width
        return self.buf[start:end] if end <= len(self.buf) else np.empty(end - start)

    def mark(self) -> int:
        return self.top

    def release(self, mark: int) -> None:
        self.top = mark

    def __exit__(self, *exc):
        if self.width <= _BLOCK_NODES and not _FREE:
            _FREE.append(self.buf)


def _kernel_rows(kinks: int, derivs: bool) -> int:
    """The rows `_inner_band` holds at once on a g with `kinks` kinks: see its scratch."""
    return 1 + 2 * derivs + 1 + kinks + 3 + max(5 + 2 * derivs, kinks * derivs)


def _inner_band(f_pl: PiecewiseLinear, g_pl: PiecewiseLinear, r,
                c2: np.ndarray, den: np.ndarray, r2m1: np.ndarray, derivs: bool, scratch: _Scratch):
    """The inner t-integral I on the open nodes, and with derivs I' and I'' in c2 there.

    r is one float, or one per node (`_Band.line` walking several r at once):
    every operation on it is elementwise, so a node's integrals are those of
    its own r alone, bit for bit.

    I = integral of f(t) g(q(t)) dt and I' = integral of f(t) g'(q(t)) tau^2/den dt,
    with tau = 1+(1-r)t and q(t) = (r2m1 + c2 tau^2)/den, increasing in t >= -1,
    for c2 > 0 and den > 0 (`_Band` makes sure of both).  Returns (open, I, I',
    I'') with derivs and (open, I) without: the indices of the open nodes and
    the integrals there.  The band is open only where the pullback t_top of
    the top kink of g lies above -1; everywhere else each segment end clips
    to -1 and the integrals are exactly 0.  On [-1, t_top] the integrands are
    polynomials of degree <= 3 on the overlap of a piece i of f with the
    t-range of a piece j of g (between the pullbacks of its kinks), so the
    2-point Gauss rule is exact there, with the slopes and intercepts of i
    and j as constants.  The kernel walks every pair (i, j) on every node;
    an empty overlap has b = a and adds exactly 0, and the pairs come in
    increasing t, so the sums run in the order of the sorted segment ends.
    A piece of g with slope 0 needs no q (0 q + c = c) and adds nothing to
    I'.  A pair that no node reaches is skipped.  Every node is integrated
    on its own, so a band walk calls this on one block of the grid at a
    time.  f(t) g(q(t)) is continuous at every segment end and vanishes at
    the top one, so moving the ends with c2 adds no term to I'.  In I' only
    g' jumps as c2 moves the pullbacks t_k: by D_k at g's kink k (by minus
    its last slope at the top one, where the band ends), so with
    q' = 2 c2 (1-r) tau/den,
    I'' = sum_k D_k f(t_k) (tau_k^2/den)^2/q'(t_k) = sum_k D_k f(t_k) tau_k^3/(2 c2 (1-r) den)
    over the kinks with t_k above -1 (tau_k > r; f(-1) = 0), summed kink by
    kink in g's order at each node, reduced from the pullbacks' tau_k before
    the passes start.  I and I' are accumulated in the same passes, in place:
    every pass writes into the same few (2, nodes) work arrays through `out=`
    ufuncs, each operation on the operands and in the order of the plain
    expression in its comment (up to the order of the two factors of a
    product or terms of a sum, which rounds alike), so the integrals keep
    the bits of those expressions.

    scratch: the walk's `_Scratch`, whose rows hold at least len(c2)
    entries.  The kernel takes every node-sized array from it, the
    integrals' rows first, and releases the rest before it returns, so the
    integrals it returns are views of the rows it took first and the
    caller's next take follows them.  It holds `_kernel_rows` rows at once:
    the integrals' (1, or 3 with derivs), t_top's, the kinks' pullbacks,
    c2, den and |x|^2 - 1 on the open nodes, and then the larger of the
    kinks' I'' terms (with derivs) and the passes' work arrays (5, or 7
    with derivs).
    """
    g_breaks = g_pl.breaks
    kinks = len(g_breaks)
    integrals = [scratch.take(1) for _ in range(1 + 2 * derivs)]  # I, and with derivs I', I''
    mark = scratch.mark()

    def pullback(gb, out):  # tau with q(t) = gb: sqrt(max((den gb - r2m1)/c2, 0))
        np.multiply(den, gb, out=out)
        out -= r2m1
        out /= c2
        np.maximum(out, 0.0, out=out)
        return np.sqrt(out, out=out)

    tau_top = pullback(g_breaks[-1], scratch.take(1)[:len(c2)])
    # tau > r is t > -1 exactly, as 1 - r and tau - 1 (tau in [1/2, 2]) are exact for r in
    # (1/2, 1); ~(tau <= r) rather than tau > r keeps NaN nodes on the integrating path
    is_open = (~(tau_top <= r)).nonzero()[0]
    m = len(is_open)
    if isinstance(r, np.ndarray):  # r per node: its open nodes'
        r = r.take(is_open, mode="clip")
    omr = 1.0 - r
    # each kink's pullback on the open nodes, tau and then t; every (k, m) view of the kernel
    # is contiguous, as numpy's loops over strided rows cost ~0.7 us more a call
    g_ends = scratch.take(kinks)[:kinks * m].reshape(kinks, m)
    tau_top.take(is_open, out=g_ends[-1], mode="clip")  # is_open is in range: no bounds check
    c2, den, r2m1 = (x.take(is_open, out=scratch.take(1)[:m], mode="clip")  # on the open nodes
                     for x in (c2, den, r2m1))
    for gb, row in zip(g_breaks[:-1], g_ends):
        pullback(gb, row)
    if derivs:  # I'' = sum_k D_k terms_k/(2 (1-r) c2 den), terms = f(t) tau^3, 0 where tau <= r
        spare = scratch.mark()
        terms = np.power(g_ends, 3, out=scratch.take(kinks)[:kinks * m].reshape(kinks, m))
        shut = ~(g_ends > r)
    g_ends -= 1.0  # t = (tau - 1)/(1-r)
    g_ends /= omr
    if derivs:
        terms *= f_pl(g_ends)
        terms[shut] = 0.0
        jumps = np.append(g_pl.slopes[1:-1], 0.0) - g_pl.slopes[:-1]
        d2_inner = integrals[2][:m]
        d2_inner.fill(0.0)
        for jump, row in zip(jumps, terms):  # kink by kink, each node on its own
            d2_inner += np.multiply(row, jump, out=row)
        scale = np.multiply(c2, 2.0 * omr, out=terms[0])  # 2 (1-r) c2 den
        scale *= den
        d2_inner /= scale
        shut = None  # freed before the passes
        scratch.release(spare)
    # the t-ends of f's pieces above -1, and of g's pieces below its top kink in [-1, t_top]
    f_ends = [-1.0, *f_pl.breaks[f_pl.breaks > -1.0], np.inf]
    np.minimum(np.maximum(g_ends[:-1], -1.0, out=g_ends[:-1]), g_ends[-1], out=g_ends[:-1])
    g_ends = [-1.0, *g_ends]
    f_first = int(np.count_nonzero(f_pl.breaks <= -1.0))  # the piece of f right of -1
    # each end's least and greatest value: NaN where a node is NaN, and then no pair skips
    g_lows = [np.minimum.reduce(e, initial=np.inf) for e in g_ends]
    g_highs = [np.maximum.reduce(e, initial=-np.inf) for e in g_ends]

    xi = _gauss(2)[0][:, None]  # the 2-point rule: nodes mid + xi half, both weights exactly 1
    qlo, qhi = g_breaks[0] - 1.0, g_breaks[-1] + 1.0
    inner = integrals[0][:m]
    inner.fill(0.0)
    if derivs:
        d_inner = integrals[1][:m]
        d_inner.fill(0.0)
    # work arrays of every pass: half (in tau_top's spent row), mid and the row sums; the
    # segment ends, then the Gauss nodes t, then (without derivs, in place of t) tau^2,
    # then q and vals; f(t); with derivs tau^2 and then d_vals
    half, mid = tau_top[:m], scratch.take(1)[:m]
    passes = scratch.take(4 + 2 * derivs)[:(4 + 2 * derivs) * m].reshape(2 + derivs, 2, m)
    ends, f_t, work = passes[0], passes[1], passes[2] if derivs else None
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
            vals = np.multiply(f_t, g_icpt, out=ends)
        else:
            # tau2 = (1 + (1-r) t)^2, q = min(max((r2m1 + c2 tau2)/den, qlo), qhi),
            # vals = f_t (g_slope q + g_icpt)
            tau2 = np.multiply(t, omr, out=work if derivs else t)  # t is spent
            tau2 += 1.0
            np.square(tau2, out=tau2)
            q = vals = np.multiply(tau2, c2, out=ends)
            q += r2m1
            q /= den
            np.maximum(q, qlo, out=q)
            np.minimum(q, qhi, out=q)
            q *= g_slope
            q += g_icpt
            vals *= f_t
            if derivs:
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
    if derivs:
        d_inner /= den
    scratch.release(mark)  # all but the integrals
    return (is_open, inner, d_inner, d2_inner) if derivs else (is_open, inner)


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
    """What a band quadrature needs that depends on neither r nor the position.

    Built once per (h, s, pair, quad) and shared by every r of a sweep, whose
    every evaluation walks it at its r, with `line` at n = 1 and `blocks`
    above: the profiles, the bounds on h^(2/s) that give the grid radii at r
    (`radii`), for n = 1 the kinks of psi, and the trace-zero basis of the
    minimizer's coordinates.
    It checks up front what the band kernel assumes: the pair passes
    `check_band_pair`, the grid `check_grid`, h > 0 on the closed unit ball,
    and (`radii`) no underflow of h^(2/s) 2(1-r) there.  Then a node where
    the band can be open (|z|^2 - 1 below den = 2(1-r) h^(2/s) times the
    top kink of g) has den > 0: den = 0 would need |z| < 1.

    The grid's radius is sqrt(1 + 2(1-r) e^(-2 min psi/s) (1 + 1e-7)),
    capped at max(R, 1) = R for a domain ball of radius R (R >= 1, as
    checked).  e^(-2 min psi/s) (1 + 1e-7) bounds sup h^(2/s) from above
    (`_min_psi`), so no node beyond the radius has |z|^2 - 1 below den, nor
    any beyond the cap, where h = 0 and |z| > 1 close the band.  `reach` is
    the same bound with den times the top kink of g where that exceeds 1.
    """

    def __init__(self, h: LogConcaveFn, s: float, pair: ProfilePair, quad: QuadratureSpec):
        check_band_pair(pair)
        quad.check_grid(h.n)
        form = h.form
        if form.domain_radius is not None and form.domain_radius < 1.0:
            raise NotJohnPosition(f"h vanishes on the unit ball beyond its domain radius "
                                  f"{form.domain_radius}")
        # on |x| <= 1, psi <= max_j (b_j + |a_j|): least <= h^(2/s) there
        self.least = np.exp(-np.max(form.b + np.linalg.norm(form.a, axis=1))) ** (2.0 / s)
        self.h, self.s, self.quad, self.f, self.g = h, s, quad, pair.f, pair.g
        self.sup = float(np.exp(-_min_psi(form)) ** (2.0 / s)) * 1.0000001  # >= sup h^(2/s)
        self.cap = np.inf if form.domain_radius is None else form.domain_radius  # >= 1, as checked
        self.breaks = None
        if h.n == 1:  # psi's kinks, and its slope jump and h^(1/s) at each
            self.breaks, slopes = _envelope_breaks_1d(form)
            self.jumps = np.diff(slopes)
            self.h_breaks = eval_h_many(h, self.breaks[:, None]) ** (1.0 / s)
        self.basis = trace0_array(h.n, s)

    def radii(self, r: float) -> tuple[float, float]:
        """(radius, reach) of the grid at r; BadR outside (1/2, 1), NotJohnPosition on underflow."""
        if not 0.5 < r < 1.0:
            raise BadR(f"r={r} outside (1/2, 1)")
        if not self.least * 2.0 * (1.0 - r) > 0.0:
            raise NotJohnPosition("h^(2/s) underflows on the unit ball")
        return tuple(min(float(np.sqrt(1.0 + 2.0 * (1.0 - r) * self.sup * top)), self.cap)
                     for top in (1.0, max(float(self.g.breaks[-1]), 1.0)))

    def split(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S, shift) of the flat form theta @ basis: theta are coordinates on the basis rows."""
        n = self.h.n
        flat = theta @ self.basis
        return flat[:n * n].reshape(n, n), flat[n * n + 1:]

    def half_width(self, radius: float, A, v, shifted: bool) -> float:
        """The grid's half-width for a radius in the band variable: |A| radius + |v| unshifted."""
        return (radius if shifted else
                float(np.linalg.norm(A, 2) * radius + np.linalg.norm(v)) + 1e-9)

    def blocks(self, position, shifted: bool, derivs: bool):
        """Walk the tensor grid (n >= 2) block by block at one position, yielding its open nodes.

        position: (r, A, alpha, v).  shifted: x is the band variable and the
        factor is evaluated at Ax + v (every route but one); otherwise x is
        the factor argument and the band variable is A^-1 (x - v)
        (`rescaled_band_functional`).  For each block where the band is open,
        the walk yields its open nodes' (W, h^(1/s), I), and with derivs
        (W, h^(1/s), I, I', I'', X, Y, j): weights, h at the band-factor
        argument, `_inner_band`'s integrals, grid points, band-factor
        arguments and the index j of psi's active piece there, in row-major
        grid order (node i0 P^(n-1) + ... + i_(n-1) is (x[i0], ..., x[i_(n-1)])
        for the P nodes x of `_axis_rule`).  j is the first maximum of the
        (pieces, nodes) product a_j . y + b_j that h at y already takes
        (`eval_h_many`'s piece), found at every near node by one comparison
        per piece.  The walk yields None and stops at the barrier, the first
        block where part of the band lies where h^(1/s)/alpha vanishes (or
        its square underflows).  h at the band-factor argument is evaluated
        only where the band can be open (q(-1) below the top kink of g).
        Callers reduce each block as it comes, so a sum is a sum of block
        sums in grid order (~1e-16 relative from one sum over the grid).

        The grid is walked in blocks of whole tensor rows, about
        `_BLOCK_NODES` nodes each, so every per-node temporary stays in
        cache.  A block keeps only the columns (last-axis nodes) that some
        row of the block has inside the disk of `reach` (the grid's own
        radius unless g has a kink beyond 1; in the unshifted route mapped
        like the radius, |x| <= |A| reach + |v|), plus 1e-9 for rounding.
        No node beyond it is near: there |z|^2 - 1 exceeds den times the top
        kink of g, or h = 0.  So the square's corners, 21% of an n = 2 grid,
        mostly go unvisited.  In the shifted route a block also drops the
        columns where psi's lower bound lb(col) = max_j (min over the rows of
        sum_(k<n-1) a_jk x_k, plus a_j,last x_col + b_j) keeps every row shut:
        x_col^2 + the least row |x|^2 - 1 is at least 2(1-r) max(top kink, 1)
        e^(-2 lb/s) (1 + 1e-7) + 1e-9.  That clips most of the annulus beyond
        |x| = 1 (a band_n2 call visits 428,128 nodes, for 403,900 near at
        r = 0.8).  W is taken at the open nodes from the block's tile of row
        weights times column weights: the same products as those of the
        whole tensor grid.

        Every array a block makes, the kernel's included, is taken from the
        walk's `_Scratch`, rows of min(step, rows) P nodes: the rows that live
        across the kernel call once per walk, and the rest per block, the
        walk's high-water stated up front.  The yielded arrays are views of
        its rows that stay valid only until the walk's next step (the
        consumer may overwrite them); a caller that keeps one copies it
        (`_band_sums`' kept Y).  A walk with more than
        `_BLOCK_NODES` nodes per axis has rows too wide for the free list to
        keep.

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
        r, A, alpha, v = position
        radius, reach = self.radii(r)
        x1, w1 = _axis_rule(self.half_width(radius, A, v, shifted), self.quad.x_nodes_per_axis)
        # no near node lies beyond; 1e-9 for rounding
        clip2 = (self.half_width(reach, A, v, shifted) + 1e-9) ** 2
        P = len(x1)
        w_rows = functools.reduce(np.multiply.outer, [w1] * (n - 1), np.ones(1)).ravel()
        rows, step = P ** (n - 1), max(1, _BLOCK_NODES // P)
        a, b = self.h.form.a, self.h.form.b
        top = 2.0 * (1.0 - r) * max(float(self.g.breaks[-1]), 1.0) * 1.0000001
        # the most rows a walk holds at once: those that live across the kernel call, and
        # then the grid's, the near nodes', the kernel's or the yielded ones
        high = 4 + (2 * n + 1) * derivs + max(n + 2 + len(b), n * (2 - derivs) + len(b),
                                              _kernel_rows(len(self.g.breaks), derivs),
                                              4 + (3 + 2 * n) * derivs)
        with _Scratch(min(step, rows) * P, high) as scratch:
            # the near nodes' h, c2, den and |x|^2 - 1, and with derivs X, Y and psi's active
            # piece there, live across the kernel call
            h_row, c2_row, den_row, r2_row = (scratch.take(1) for _ in range(4))
            if derivs:
                x_rows, y_rows, piece_row = scratch.take(n), scratch.take(n), scratch.take(1)
            base = scratch.mark()
            for r0 in range(0, rows, step):
                scratch.release(base)
                r1 = min(rows, r0 + step)
                lead = [x1[np.arange(r0, r1) // P ** (n - 2 - k) % P] for k in range(n - 1)]
                # the columns some row of the block has inside the disk
                least = np.min(functools.reduce(np.add, [x * x for x in lead], 0.0))
                keep = x1 * x1 <= clip2 - least
                if shifted:  # and where a lower bound on psi over the rows lets h open it
                    row_min = np.min(a[:, :-1] @ np.array(lead), axis=1)
                    lb = np.max((row_min + b)[:, None] + np.outer(a[:, -1], x1), axis=0)
                    with np.errstate(over="ignore"):
                        keep &= x1 * x1 + least - 1.0 < top * np.exp(-lb) ** (2.0 / s) + 1e-9
                cols = np.flatnonzero(keep)
                if not len(cols):
                    continue
                c0, c1 = cols[0], cols[-1] + 1
                nodes = (r1 - r0) * (c1 - c0)
                grid = scratch.take(n)
                X = grid[:nodes * n].reshape(r1 - r0, c1 - c0, n)
                X[..., -1] = x1[c0:c1]
                for k, x in enumerate(lead):
                    X[..., k] = x[:, None]
                X = X.reshape(-1, n)
                spent = scratch.mark()  # the grid's rows below stay until X is taken
                Z = X if shifted else np.linalg.solve(A, (X - v).T).T
                r2m1, den = scratch.take(2)[:2 * nodes].reshape(2, nodes)
                r2m1 = _sq_norms(Z, r2m1, den)
                r2m1 -= 1.0
                psi = scratch.take(len(b))[:len(b) * nodes].reshape(len(b), nodes)
                den = eval_h_many(self.h, Z, den, psi)
                den **= 2.0 / s  # 2 h^(2/s) (1-r), in place
                den *= 2.0
                den *= 1.0 - r
                near = np.flatnonzero(r2m1 < np.multiply(den, self.g.breaks[-1], out=psi[0]))
                if not len(near):  # the band is closed on the whole block
                    continue
                m = len(near)  # near is in range: no bounds check
                den = den.take(near, out=den_row[:m], mode="clip")
                r2m1 = r2m1.take(near, out=r2_row[:m], mode="clip")
                scratch.release(spent)
                # X and Y on the near nodes: with derivs in their rows, else X in the spent
                # rows and Y in the grid's, which is spent once X is taken
                near_x, near_y = (x_rows, y_rows) if derivs else (scratch.take(n), grid)
                Y = X0 = X.take(near, axis=0, out=near_x[:m * n].reshape(m, n), mode="clip")
                if shifted:  # Y @ A.T + v, on numpy's fast paths: A.T contiguous, v by columns
                    Y = np.matmul(X0, np.ascontiguousarray(A.T),
                                  out=near_y[:m * n].reshape(m, n))
                    for k in range(n):
                        Y[:, k] += v[k]
                piece = piece_row[:m].view(np.intp) if derivs else None  # psi's active piece
                h_near = eval_h_many(self.h, Y, h_row[:m],
                                     scratch.take(len(b))[:len(b) * m].reshape(len(b), m), piece)
                h_near **= 1.0 / s
                c2 = np.divide(h_near, alpha, out=c2_row[:m])
                c2 **= 2
                if not np.minimum.reduce(c2, initial=np.inf) > 0.0:  # NaN fails too
                    yield None
                    return
                scratch.release(base)
                opened, *integrals = _inner_band(self.f, self.g, r, c2, den, r2m1, derivs,
                                                 scratch)
                j, tile = len(opened), scratch.take(1)[:nodes]
                np.multiply.outer(w_rows[r0:r1], w1[c0:c1], out=tile.reshape(r1 - r0, -1))
                out = [tile.take(near[opened], out=scratch.take(1)[:j], mode="clip"),
                       h_near.take(opened, out=scratch.take(1)[:j], mode="clip"), *integrals]
                if derivs:
                    out += [x.take(opened, axis=0, out=scratch.take(n)[:j * n].reshape(j, n),
                                   mode="clip") for x in (X0, Y)]
                    out.append(piece.take(opened, out=scratch.take(1)[:j].view(np.intp),
                                          mode="clip"))
                yield tuple(out)

    def line(self, positions, shifted: bool, derivs: bool):
        """Walk the n = 1 grids of every position side by side, yielding each one's open nodes.

        positions: (r, A, alpha, v) tuples, a round of `r_sweep` or a single
        position (the only kind in the unshifted route); shifted as in
        `blocks`.  Each position's grid has its panels at the kinks of psi in
        both variables (`_axis_rule`), and the grids lie one after another in
        one array, every node carrying its position's r, 1 - r, alpha, a = A
        and v: den, Y = xa + v (one product, as a 1 x 1 matmul takes it), c2
        and `_inner_band`'s r.  The positions go to the kernel in calls of at
        most `_BLOCK_NODES` grid nodes (a position with more goes alone).
        Every array operation is elementwise and every product has one term,
        so each position's item is that of a walk of its own, bit for bit,
        wherever it lies in a call.

        The walk yields one item per position, in order.  It is None at the
        position's barrier, where part of its band lies where h^(1/s)/alpha
        vanishes (or its square underflows): its c2 is set to 1 before the
        kernel call, which then integrates its nodes quietly, and no item
        holds those integrals, so the others keep their bits.  Otherwise it
        holds the position's open nodes' arrays as a block of `blocks` does,
        over the whole grid (the grid lies inside the disk that `blocks`
        clips to, so every node is visited, and W is the column weight, the
        row weight being 1.0); j is psi's first maximum, as in `blocks`.  With
        derivs the item ends with a tuple (x_k, c^2, D_k, I, I') on psi's
        kinks y_k where the band is open: the band variable x_k = (y_k - v)/a
        (in both routes), c^2 = (h(y_k)^(1/s)/alpha)^2, psi's slope jump D_k,
        and `_inner_band`'s integrals at den = 2(1-r) h(x_k)^(2/s) and
        |x_k|^2 - 1.  The kinks with c^2 > 0 join the kernel call after the
        grid's near nodes; the kernel integrates every node on its own, so
        they move no bit of the grid's integrals.  h at the band-factor
        argument is evaluated only where the band can be open.

        Each kernel call takes its rows from a `_Scratch` of its own,
        `_kernel_rows` rows of its node count, which it holds until the walk
        resumes after the call's last item, so the items' integrals are views
        of its rows that stay valid only until the walk's next kernel call;
        the other arrays are fresh.  The buffer the free list keeps serves
        every call of a sweep, so a sweep faults almost no kernel row in, also
        where the process hands freed memory back to the system between calls.
        """
        s, top = self.s, self.g.breaks[-1]
        rules = []
        for r, A, _, v in positions:  # each position's grid, its panels at psi's kinks
            a, c = float(A[0, 0]), float(v[0])
            u, c = (a, c) if shifted else (1.0 / a, -c / a)
            rules.append(_axis_rule(self.half_width(self.radii(r)[0], A, v, shifted),
                                    self.quad.x_nodes_per_axis,
                                    np.concatenate([self.breaks, (self.breaks - c) / u])))
        sizes = [len(x) for x, _ in rules]
        starts = [0]  # the first position of each kernel call
        for p in range(1, len(positions)):
            if sum(sizes[starts[-1]:p + 1]) > _BLOCK_NODES:
                starts.append(p)
        for lo, hi in zip(starts, starts[1:] + [len(positions)]):
            batch = positions[lo:hi]
            x1, w1 = (np.concatenate(col) for col in zip(*rules[lo:hi]))
            edges = np.cumsum([0] + sizes[lo:hi])
            params = np.array([(r, 1.0 - r, alpha, A[0, 0], v[0]) for r, A, alpha, v in batch])
            owner = np.repeat(np.arange(hi - lo), sizes[lo:hi])  # each node's position
            X = Z = x1.reshape(-1, 1)
            if not shifted:  # an unshifted walk takes one position
                (_, A, _, v), = batch
                Z = np.linalg.solve(A, (X - v).T).T
            r2m1 = _sq_norms(Z) - 1.0
            den = eval_h_many(self.h, Z) ** (2.0 / s) * 2.0 * params[owner, 1]  # 2 h^(2/s) (1-r)
            near = np.flatnonzero(r2m1 < den * top)
            m, cuts = len(near), np.searchsorted(near, edges)  # each position's near nodes
            den, r2m1, X, at = den[near], r2m1[near], X[near], params[owner[near]]
            Y = X
            if shifted:  # x a + v, the one product a matmul takes
                Y = X * at[:, 3:4]
                Y[:, 0] += at[:, 4]
            piece = np.empty(m, np.intp) if derivs else None  # psi's active piece at Y
            h_y = eval_h_many(self.h, Y, None, np.empty((len(self.h.form.b), m)), piece)
            h_y **= 1.0 / s
            c2 = (h_y / at[:, 2]) ** 2
            shut = [not np.minimum.reduce(c2[i:j], initial=np.inf) > 0.0  # NaN fails too
                    for i, j in zip(cuts[:-1], cuts[1:])]
            for i, j, closed in zip(cuts[:-1], cuts[1:], shut):
                if closed:  # a c2 the kernel takes quietly
                    c2[i:j] = 1.0
            r_node = at[:, 0]
            if derivs:  # psi's kinks y_k with c^2 > 0 join the call after the grid's near nodes
                x_k = (self.breaks - params[:, 4:5]) / params[:, 3:4]
                h_k = eval_h_many(self.h, x_k.reshape(-1)[:, None]).reshape(x_k.shape)
                den_k = 2.0 * params[:, 1:2] * h_k ** (2.0 / s)
                c2_k = (self.h_breaks / params[:, 2:3]) ** 2
                kink = c2_k > 0.0
                kink_edges = np.cumsum([0, *np.count_nonzero(kink, axis=1)])
                jump = np.broadcast_to(self.jumps, kink.shape)[kink]
                x_k, c2_k = x_k[kink], c2_k[kink]
                c2, den = np.concatenate([c2, c2_k]), np.concatenate([den, den_k[kink]])
                r2m1 = np.concatenate([r2m1, x_k * x_k - 1.0])
                r_node = np.concatenate([r_node, np.broadcast_to(params[:, :1], kink.shape)[kink]])
            # the kernel's rows, until its next call
            with _Scratch(len(c2), _kernel_rows(len(self.g.breaks), derivs)) as scratch:
                opened, *integrals = _inner_band(self.f, self.g, r_node, c2, den, r2m1, derivs,
                                                 scratch)
                split = np.searchsorted(opened, m)  # the kinks' open points follow the grid's
                grid = opened[:split]
                out = [w1[near[grid]], h_y[grid], *[e[:split] for e in integrals]]
                open_cuts = np.searchsorted(grid, cuts)
                if derivs:
                    out += [X[grid], Y[grid], piece[grid]]
                    ko = opened[split:] - m
                    kinks = [x_k[ko], c2_k[ko], jump[ko], *[e[split:] for e in integrals[:2]]]
                    kink_cuts = np.searchsorted(ko, kink_edges)
                for p, closed in enumerate(shut):
                    item = tuple(x[open_cuts[p]:open_cuts[p + 1]] for x in out)
                    if derivs:
                        item += (tuple(e[kink_cuts[p]:kink_cuts[p + 1]] for e in kinks),)
                    yield None if closed else item


def _positive(A: np.ndarray, alpha: float) -> bool:
    """alpha > 0 and A positive definite; a nonzero determinant is not enough (-I has one)."""
    return alpha > 0.0 and np.linalg.eigvalsh(A).min() > 0.0


def band_functional(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                    p: EPoint, quad: QuadratureSpec) -> float:
    """Band functional at (A, alpha, v): SPD block, positive corner required (SingularA).

    Returns +inf when the position pushes part of the band outside the
    support of h (the coercive barrier).
    """
    return _band_value(_Band(h, s, pair, quad), r, p)


def _band_value(band: _Band, r: float, p: EPoint) -> float:
    A, alpha, v = p.mat.diag, p.mat.corner, p.shift
    if not _positive(A, alpha):
        raise SingularA("block must be positive definite with positive corner")
    return _value_sum(band, r, A, alpha, v, True)


def _value_sum(band: _Band, r: float, A, alpha, v, shifted: bool) -> float:
    """The sum of W (h^(1/s)/scale) I over the open nodes, block by block; +inf at the barrier."""
    scale = alpha if shifted else 1.0
    position = (r, A, alpha, v)
    value = 0.0
    for block in (band.line([position], shifted, False) if band.h.n == 1 else
                  band.blocks(position, shifted, False)):
        if block is None:
            return float("inf")
        W, h, inner = block  # the walk's views: W (h/scale) I is formed in h, as it rounds alike
        h /= scale
        h *= W
        h *= inner
        value += float(np.sum(h))
    return value


def _band_sums(band: _Band, positions):
    """The open nodes' sums at each position (r, A, alpha, v), from a shifted walk of each.

    One entry per position, None at its barrier, else (value, grad, hess,
    kept): the band functional sum W c I, its gradient and Hessian in the
    flat coordinates (A, log alpha, v) (`EPoint.vec` layout, A
    unconstrained), and per block the open nodes' Y and omega/h_y^2, from
    which `_measure` sums every bump.  At n = 1 one `_Band.line` walks every
    position, one item each; at n >= 2 each position has a `_Band.blocks`
    walk of its own.  Either way a position's sums are those of a walk of
    its own, bit for bit.
    With c = h(y)^(1/s)/alpha at y = Ax + v, u = log c has the gradient -z,
    z = (a_j x^T/s, 1, a_j/s) for the active piece a_j(y) of psi (the walk's
    j), and no curvature off psi's kinks.  A node adds W phi(u) = W c I(c^2),
    so grad = -sum omega z with omega = W phi' = W c (I + 2 c^2 I'), and
    hess = sum W phi'' z z^T with phi'' = c (I + 8 c^2 I' + 4 c^4 I''), all
    three from the walk's kernel (`_inner_band`): at n >= 2, on a fixed grid,
    the exact Hessian of the sum wherever it exists.  The n = 1 grid follows
    psi's kinks y_k, across which u's gradient jumps by -(D_k/s) dy, so
    hess adds per open kink -(D_k/s) Phi_u dy dy^T/A at x_k = (y_k - v)/A,
    dy = (x_k, 0, 1), with Phi_u = c (I + 2 c^2 I'): the kinks' terms that
    ends each item of the n = 1 walk.
    """
    n, s = band.h.n, band.s
    d = n * n + 1 + n
    walks = ([item] for item in band.line(positions, True, True)) if n == 1 else (
        band.blocks(position, True, True) for position in positions)
    sums = []
    for (r, A, alpha, v), walk in zip(positions, walks):
        acc = [0.0, np.zeros(d), np.zeros((d, d)), []]
        for block in walk:
            if block is None:
                acc.clear()
                continue
            W, h_y, inner, d_inner, d2_inner, X, Y, piece = block[:8]
            c = h_y / alpha
            acc[0] += float(np.sum(W * c * inner))
            wc, c2 = W * c, c * c
            omega = wc * (inner + 2.0 * c2 * d_inner)
            z = np.empty((len(W), d))
            z[:, n * n + 1:] = band.h.form.a[piece] / s
            z[:, :n * n] = (z[:, n * n + 1:, None] * X[:, None, :]).reshape(len(W), n * n)
            z[:, n * n] = 1.0
            acc[1] -= omega @ z
            acc[2] += (z.T * (wc * (inner + c2 * (8.0 * d_inner + 4.0 * c2 * d2_inner)))) @ z
            acc[3].append((Y.copy(), omega / (h_y * h_y)))  # Y is the walk's until its next block
            if n == 1:
                x_k, c2, jump, inner, d_inner = block[8]
                dy = np.zeros((len(x_k), 3))
                dy[:, 0], dy[:, 2] = x_k, 1.0
                phi_u = np.sqrt(c2) * (inner + 2.0 * c2 * d_inner)
                acc[2] += (dy.T * (-jump / (s * float(A[0, 0])) * phi_u)) @ dy
        sums.append(tuple(acc) if acc else None)
    return sums


def _band_value_grad(band: _Band, r: float, theta: np.ndarray):
    """Band functional, gradient, Hessian and walk at r and theta; (inf, None, None, None)
    beyond the barrier: `_band_value_grads` of the one pair (r, theta)."""
    return _band_value_grads(band, [(r, theta)])[0]


def _band_value_grads(band: _Band, evals) -> list:
    """`_band_value_grad` at every (r, theta) of evals, from one walk of their positions.

    theta (`_Band.split`) stands for (I + S, det(I + S)^(-1/s), v) with
    (S, -tr S/s, v) = theta @ basis: the block is linear in theta, and only
    log alpha = -log det A/s is not, with first derivative -tr(A^-1 dS)/s and
    second tr(A^-1 dS A^-1 dS')/s.  One eigh of A gives its SPD test (theta
    is beyond the barrier unless A is positive definite), log det A and A^-1.
    With J the basis rows, their corner replaced by -tr(A^-1 dS_k)/s,
    `_band_sums`'s flat derivatives give J grad and
    J hess J^T + grad_(log alpha) tr(A^-1 dS_k A^-1 dS_l)/s.  The walk,
    (A, alpha, v, the flat gradient, `_band_sums`' kept arrays), is what
    `_measure` reduces to lambda_r and the bump integrals at this theta, and
    its (A, alpha, v) is the position whose `_band_value` the value is, bit
    for bit.  The positions inside the barrier go to one `_band_sums` call
    (none walks when there is none).
    """
    n, s = band.h.n, band.s
    out = [(float("inf"), None, None, None)] * len(evals)
    charts, positions = [], []
    for i, (r, theta) in enumerate(evals):
        S, v = band.split(theta)
        A = np.eye(n) + S  # symmetric: theta @ basis has one term in each off-diagonal entry
        lam, V = np.linalg.eigh(A)
        if lam[0] > 0.0:
            charts.append((i, lam, V))
            positions.append((r, A, float(np.exp(-np.sum(np.log(lam)) / s)), v))
    walked = _band_sums(band, positions) if positions else []
    for (i, lam, V), (r, A, alpha, v), sums in zip(charts, positions, walked):
        if sums is None:
            continue
        value, grad, hess, kept = sums
        P = (V / lam) @ V.T @ band.basis[:, :n * n].reshape(-1, n, n)  # A^-1 dS_k
        J = band.basis.copy()
        J[:, n * n] = -np.trace(P, axis1=1, axis2=2) / s
        second = (grad[n * n] / s) * np.einsum("kij,lji->kl", P, P)
        out[i] = value, J @ grad, J @ hess @ J.T + second, (A, alpha, v, grad, kept)
    return out


def rescaled_band_functional(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                             p: EPoint, quad: QuadratureSpec) -> float:
    """Band functional in rescaled coordinates (M, beta, w).

    Integrates over the unshifted x variable with the inverse-mapped band
    factor, a different route than band_functional, so the exact
    reparametrization identity between the two is a genuine two-route check.
    Raises NotInBr unless I + (1-r) M is positive definite and 1 + (1-r) beta > 0.
    """
    band = _Band(h, s, pair, quad)
    A = np.eye(p.n) + (1.0 - r) * p.mat.diag
    alpha = 1.0 + (1.0 - r) * p.mat.corner
    if not _positive(A, alpha):
        raise NotInBr("identity plus (1-r) M is not positive definite (or corner <= 0)")
    shift = (1.0 - r) * p.shift
    return float(alpha ** (s - 1.0) * _value_sum(band, r, A, alpha, shift, False))


def _measure(band: _Band, r: float, walk, bumps) -> tuple[np.ndarray, float]:
    """Every bump's integral against the concentration measure, and the multiplier, of one walk.

    walk is (A, alpha, v, grad, kept): a position, and the flat gradient and
    kept arrays that `_band_sums` walked there.  The measure's density in y is
    alpha^(s-1) D / h^(1/s), with, by parts (`check_band_pair`),
    D = integral f'(t) (1+(1-r)t) g(q(t)) dt = -(1-r)(I + 2 c^2 I').  In the
    band variable (y = Ax + v, Jacobian J = alpha^s det A, 1 on the
    minimizer's manifold) both are closed forms: mu_r(delta) = -(1-r) J
    sum omega delta(Y)/h_y^2, summed block by block, and
    lambda_r = J grad . (A, s, v)/(n + s^2), the derivative along the scaling,
    i.e. the measure's sum of h^(2/s) ((1/s) a_j . y + s) over (1-r)(n + s^2).
    """
    A, alpha, v, grad, kept = walk
    bump_sums = np.zeros(len(bumps))
    for Y, per_h2 in kept:
        for k, delta in enumerate(bumps):
            bump_sums[k] += float(np.sum(per_h2 * delta(Y)))
    s, jac = band.s, alpha ** band.s * np.linalg.det(A)
    lam = jac * (grad @ np.concatenate([A.ravel(), [s], v])) / (band.h.n + s * s)
    return (-(1.0 - r) * jac) * bump_sums, float(lam)


def _band_measure(band: _Band, r: float, p: EPoint, bumps) -> tuple[np.ndarray, float]:
    """Every bump's integral against the concentration measure at r and p, and the multiplier.

    One `_band_sums` walk at p, reduced by `_measure`.  SingularA unless the
    block is SPD with a positive corner; NotInBr when part of the band lies
    where h vanishes.
    """
    A, alpha, v = p.mat.diag, p.mat.corner, p.shift
    if not _positive(A, alpha):
        raise SingularA("block must be positive definite with positive corner")
    sums = _band_sums(band, [(r, A, alpha, v)])[0]
    if sums is None:
        raise NotInBr("the band reaches where h vanishes")
    return _measure(band, r, (A, alpha, v, sums[1], sums[3]), bumps)


def concentration_integral(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                           minimizer: EPoint, delta, quad: QuadratureSpec) -> float:
    """Integral of a compactly supported test function against the band measure."""
    return float(_band_measure(_Band(h, s, pair, quad), r, minimizer, [delta])[0][0])


def stationarity_multiplier(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                            minimizer: EPoint, quad: QuadratureSpec) -> float:
    """Multiplier from the identity-direction contraction of the measure moments."""
    return _band_measure(_Band(h, s, pair, quad), r, minimizer, ())[1]


@dataclass
class BandMinimum:
    """What `_minimize_band` found, and how it got there."""

    point: EPoint
    value: float
    evaluations: int  # value-gradient-Hessian calls, line-search trials included
    iterations: int   # Newton steps taken
    stop_reason: str  # CONVERGED, RESOLVED or "max_iter"
    grad_norm: float  # norm of the gradient in theta at `point`


RESOLVED = "no descent beyond the difference step"
BAND_MAX_ITER = 400  # the Newton steps `_minimize_band` may take


def minimize_band(h: LogConcaveFn, s: float, pair: ProfilePair, r: float,
                  quad: QuadratureSpec) -> tuple[EPoint, float]:
    """Minimize the band functional over unit-weighted-determinant positions.

    The block is I + S with corner det(I + S)^(-1/s), which keeps the weighted
    determinant at 1 (restricting to it loses nothing at a minimum):
    `_minimize_band` from the identity, on a band geometry built for this call.
    Returns the minimizer and the multiplier of its accepted walk (`_measure`).
    """
    band = _Band(h, s, pair, quad)
    solver, walk = _minimize_band(band, r, None)
    return solver.point, _measure(band, r, walk, ())[1]


def _minimize_band(band: _Band, r: float, theta0: np.ndarray | None) -> tuple[BandMinimum, tuple]:
    """minimize_band at r on a prepared band geometry: a solver record and the minimizer's walk.

    theta0 is the start in theta, the coordinates on the rows of `trace0_array`
    (None: theta = 0).  `isotropy._newton` on `_band_value_grad` stops CONVERGED
    at a predicted decrease below ROUNDING of the value: the n = 1 grid moves
    with theta, so the analytic derivatives and the discrete values differ at
    the quadrature level (~1e-6 of the gradient, ~1e-12 of the value).  It
    stops RESOLVED when the halved step falls below the difference step
    1e-4 (1-r), theta's scale being the band's width, without a decrease: there
    the discrete functional stops following its Newton model, as on a fixed
    n >= 2 grid, whose nodes cross the kinks of psi one by one.  The walk is the
    accepted iterate's, whose (A, alpha, v) is the record's point.
    """
    theta = np.zeros(len(band.basis)) if theta0 is None else theta0
    return _band_minimum(isotropy._drive(_band_loop(r, theta),
                                         functools.partial(_band_value_grad, band, r)))


def _band_loop(r: float, theta: np.ndarray):
    """The `isotropy._newton` loop of the band minimizer at r from theta."""
    return isotropy._newton(theta, None, BAND_MAX_ITER, 1e-4 * (1.0 - r))  # the difference step


def _band_minimum(run) -> tuple[BandMinimum, tuple]:
    """The solver record of a finished `_band_loop`, and its accepted iterate's walk."""
    A, alpha, v = run.payload[:3]
    return BandMinimum(point=EPoint(BlockMat(A, alpha), v), value=run.value,
                       evaluations=run.evaluations, iterations=run.steps,
                       stop_reason=RESOLVED if run.stop_reason == "no descent" else run.stop_reason,
                       grad_norm=run.grad_norm), run.payload


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
    secant_to_limit: float
    mu_integrals: np.ndarray
    mu_reference: np.ndarray
    error: str | None = None  # "<ExceptionClass>: <message>" when the r failed
    solver: BandMinimum | None = None  # the minimizer's record; None when the r failed


@dataclass
class RSweepResult:
    schedule: list
    limit: EPoint  # the minimizer of the limit functional (`isotropy.limit_reference`)
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
            reference_measure: DiscreteMeasure) -> RSweepResult:
    """Minimize the band functional along the schedule and collect diagnostics.

    The concentration-measure integrals of the `default_bumps` are
    normalized by (1-r) * lambda_r and scaled by the reference multiplier,
    which makes them comparable with the reference measure: at the exact
    minimizer both normalized measures satisfy the same identity-direction
    moment identity.  One band geometry (`_Band`) serves every r, and the
    walk of the minimizer's accepted evaluation gives every bump integral and
    lambda_r (`_measure`): no grid is walked after the minimizer.

    Every r starts from the curvature-weighted limit (M_lim, beta_lim, w_lim)
    of the band family (`isotropy.limit_reference`, computed once per call
    from h, s and the pair alone: the band functional never sees a measure),
    at the position of unit weighted determinant that stands for (1-r) times
    it: the block `sdet1_param((1-r) M_lim, s)` and the shift (1-r) w_lim,
    written in `_minimize_band`'s chart as theta = basis @ (A0 - I,
    -tr(A0 - I)/s, (1-r) w_lim).  A0 = exp((1-r) M_lim) is positive definite,
    so no start lies beyond the chart's barrier.

    The r's minimizers run in rounds.  Every r's Newton loop (`_band_loop`)
    starts at once; a round evaluates pending points with one
    `_band_value_grads` call and sends each loop its own result.  At n = 1
    a round takes the pending point of every r, and one walk (`_Band.line`)
    evaluates them all, in kernel calls of at most `_BLOCK_NODES` grid
    nodes (an r's grid has about 1,000 at the default 960 nodes, so about
    32 r's share a call): a sweep walks once per round, not once per
    evaluation.  At n >= 2 an r's grid is many blocks, so a round takes the
    first pending r alone, which runs to its end before the next starts: no
    more open-node arrays are alive than one r alone keeps.  A loop's row
    is taken (`_measure`) as soon as it stops, and its walk freed.  Each
    r's item of a round is what its walk alone gives, bit for bit, so
    nothing of one r reaches another (`_Band` holds nothing of r): a row
    depends on its r alone.  An r outside (1/2, 1) raises BadR at its first
    round.  A failure at a single r is recorded with its reason and the
    sweep continues: NotConverged from its loop, or BadR when the walk of
    its minimizer has no open node (the grid resolves no node of the band
    at r, so every sum is 0).  A contact set on which the limit is not
    coercive raises DivergingIterates before any r.  The
    diagnostics are norms of differences of flat forms `EPoint.vec`;
    `secant_to_limit` is the rescaled minimizer's distance to the limit
    point, which `RSweepResult.limit` holds.
    """
    n = h.n
    limit = limit_reference(h, s, pair)
    bumps = default_bumps(reference_measure)
    band = _Band(h, s, pair, quad)
    M_lim, w_lim = limit.point.mat.diag, limit.point.shift
    ref_integrals = np.array([float(np.dot(reference_measure.masses, b(reference_measure.points)))
                              for b in bumps])
    ident = EPoint(BlockMat.identity(n), np.zeros(n)).vec

    def failed(r, exc):  # the row of an r that failed, with the reason
        nan = float("nan")
        return SweepEntry(
            r=r, point=None, rescaled=None, lambda_r=nan, value=nan, dist_to_identity=nan,
            normalized_s_trace=nan, secant_to_reference=nan, secant_to_limit=nan,
            mu_integrals=np.full(len(bumps), np.nan), mu_reference=ref_integrals,
            error=f"{type(exc).__name__}: {exc}")

    def row(r, run):  # the row of an r whose loop stopped
        solver, walk = _band_minimum(run)
        if not any(len(per_h2) for _, per_h2 in walk[4]):  # no node: the sums are all 0
            return failed(r, BadR(f"the grid of {quad.x_nodes_per_axis} nodes per axis "
                                  f"resolves no node of the band at r = {r!r}"))
        mu_vals, lam_r = _measure(band, r, walk, bumps)
        omr, point, value = 1.0 - r, solver.point, solver.value
        diff = point.vec - ident
        rescaled = EPoint.from_vec(diff * (1.0 / omr), n)
        flat = rescaled.vec
        dist = float(np.linalg.norm(diff))
        nst = abs(s_trace(rescaled.mat, s)) / max(float(np.linalg.norm(flat[:n * n + 1])), 1e-300)
        secant = float(np.linalg.norm(flat - reference.point.vec))
        to_limit = float(np.linalg.norm(flat - limit.point.vec))
        mu_norm = reference.lam * mu_vals / (omr * lam_r)
        return SweepEntry(
            r=r, point=point, rescaled=rescaled, lambda_r=lam_r, value=value,
            dist_to_identity=dist, normalized_s_trace=nst,
            secant_to_reference=secant, secant_to_limit=to_limit, mu_integrals=mu_norm,
            mu_reference=ref_integrals, solver=solver)

    loops, rows = {}, {}  # by place in the schedule: (loop, its pending point), and the rows
    for i, r in enumerate(schedule):
        omr = 1.0 - r
        step = sdet1_param(omr * M_lim, s)[0] - np.eye(n)  # A0 - I
        loop = _band_loop(r, band.basis @ np.concatenate([step.ravel(), [-np.trace(step) / s],
                                                           omr * w_lim]))
        loops[i] = loop, next(loop)
    while loops:
        batch = sorted(loops) if n == 1 else [min(loops)]
        values = _band_value_grads(band, [(schedule[i], loops[i][1]) for i in batch])
        for i, value in zip(batch, values):
            loop = loops.pop(i)[0]
            try:
                loops[i] = loop, loop.send(value)
            except StopIteration as stop:
                rows[i] = row(schedule[i], stop.value)
            except NotConverged as exc:
                rows[i] = failed(schedule[i], exc)
    return RSweepResult(schedule=list(schedule), limit=limit.point,
                        entries=[rows[i] for i in range(len(schedule))])
