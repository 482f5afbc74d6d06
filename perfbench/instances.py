"""Seeded tangent instances for the workloads, and the exact coercivity check.

Every instance is a two-level, centrally balanced point set touching the
hemisphere power of a max-affine h (`contact.make_tangent_instance`).  Each
level is a tight frame (a +-pair, a triangle, a square, an octahedron, a
cube), so equal weights per level give the identity condition, and the two
level weights are solved from it and the corner condition as
`contact.two_level_cross_fixture` solves them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from fjohn import contact
from fjohn.blockmat import trace0_basis
from fjohn.logconcave import LogConcaveFn, eval_h_many

S = 1.0
# The ROADMAP baseline radii.  certify keeps them fixed, so that every seed
# hands the grid scan congruent work (see README.md, "Inputs and seeds").
CERTIFY_RHO_SQ = (0.4, 0.8)
SWEEP_RHO1_SQ = (0.3, 0.45)
SWEEP_RHO2_SQ = (0.7, 0.85)
COERCIVE_MARGIN = 1e-9


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    s: float
    h: LogConcaveFn
    points: np.ndarray   # construction (contact) points, one per row
    weights: np.ndarray  # decomposition weights of the construction
    margin: float        # exact coercivity margin of the counting measure


def _levels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of the inner and the outer level."""
    if n == 1:
        pair = np.array([[1.0], [-1.0]])
        return pair, pair
    if n == 2:
        tri = np.arange(3) * 2.0 * np.pi / 3.0
        sq = np.arange(4) * np.pi / 2.0 + np.pi / 4.0
        return (np.stack([np.cos(tri), np.sin(tri)], axis=1),
                np.stack([np.cos(sq), np.sin(sq)], axis=1))
    if n == 3:
        octa = np.vstack([np.eye(3), -np.eye(3)])
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3))) / np.sqrt(3.0)
        return octa, cube
    raise ValueError(f"no point set for n = {n}")


def _plane_rotation(n: int, i: int, j: int, angle: float) -> np.ndarray:
    R = np.eye(n)
    R[i, i] = R[j, j] = np.cos(angle)
    R[i, j], R[j, i] = -np.sin(angle), np.sin(angle)
    return R


def base_rotation(n: int) -> np.ndarray:
    """A fixed rotation that puts every atom off the coordinate axes."""
    if n == 1:
        return np.eye(1)
    if n == 2:
        return _plane_rotation(2, 0, 1, 0.3)
    return (_plane_rotation(3, 0, 1, 0.3) @ _plane_rotation(3, 0, 2, 0.5)
            @ _plane_rotation(3, 1, 2, 0.7))


def two_level(name: str, n: int, s: float, rho1_sq: float, rho2_sq: float,
              rotation: np.ndarray) -> Instance:
    inner, outer = _levels(n)
    k1, k2 = len(inner), len(outer)
    A = np.array([[k1 * rho1_sq / n, k2 * rho2_sq / n],
                  [k1 * (1.0 - rho1_sq), k2 * (1.0 - rho2_sq)]])
    c1, c2 = np.linalg.solve(A, np.array([1.0, s]))
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError(f"{name}: nonpositive weights {c1:.6g}, {c2:.6g}")
    points = np.vstack([np.sqrt(rho1_sq) * inner, np.sqrt(rho2_sq) * outer]) @ rotation.T
    weights = np.concatenate([np.full(k1, c1), np.full(k2, c2)])
    order = np.lexsort(points.T[::-1])  # the order detect_contacts reports
    points, weights = points[order], weights[order]
    h = contact.make_tangent_instance(points, s)
    margin = coercivity_margin(h, s, points)
    if margin <= COERCIVE_MARGIN:
        raise ValueError(f"{name}: counting measure is not coercive (margin {margin:.3e})")
    return Instance(name, n, s, h, points, weights, margin)


def certify_instances(seed: int) -> list[Instance]:
    """n = 1, 2, 3 instances: the fixed rotation, then a seeded reflection of the axes."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for n in (1, 2, 3):
        flip = np.diag(rng.choice([-1.0, 1.0], size=n))
        out.append(two_level(f"gen_n{n}", n, S, *CERTIFY_RHO_SQ, flip @ base_rotation(n)))
    return out


def sweep_instances(seed: int, count: int) -> list[Instance]:
    """n = 1 two-level instances with seeded radii."""
    rng = np.random.default_rng([seed, 2])
    return [two_level(f"sweep{i}", 1, S, rng.uniform(*SWEEP_RHO1_SQ),
                      rng.uniform(*SWEEP_RHO2_SQ), np.eye(1))
            for i in range(count)]


def feature_matrix(h: LogConcaveFn, s: float, points: np.ndarray) -> np.ndarray:
    """Row i: atom i's argument <x, Mx + w>/h^(2/s) + beta along each trace-zero basis element."""
    X = np.atleast_2d(points)
    h2 = eval_h_many(h, X) ** (2.0 / s)
    cols = []
    for b in trace0_basis(X.shape[1], s):
        quad = np.sum(X * (X @ b.mat.diag.T + b.shift), axis=1)
        cols.append(quad / h2 + b.mat.corner)
    return np.stack(cols, axis=1)


def coercivity_margin(h: LogConcaveFn, s: float, points: np.ndarray) -> float:
    """Exact coercivity test of the contact functional of any positive measure on the points.

    Coercive on the trace-zero subspace iff no direction d != 0 has
    Phi d <= 0, iff the rows of Phi positively span it (Stiemke): full
    column rank and some y > 0 with Phi^T y = 0.  Returns the largest t with
    y >= t, sum y = 1; a value <= 0 (or -1 for rank deficiency) means not
    coercive.
    """
    Phi = feature_matrix(h, s, points)
    k, d = Phi.shape
    if np.linalg.matrix_rank(Phi) < d:
        return -1.0
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([Phi.T, np.zeros((d, 1))]),
                      np.hstack([np.ones(k), 0.0])])
    b_eq = np.zeros(d + 1)
    b_eq[-1] = 1.0
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (k + 1), method="highs")
    if not res.success:
        raise RuntimeError(f"coercivity LP failed: {res.message}")
    return float(-res.fun)


def cli_instance(inst: Instance) -> dict:
    """The instance-file form `fjohn.cli` reads."""
    return {
        "version": 1,
        "n": inst.n,
        "s": inst.s,
        "h": {"type": "psi",
              "pieces": [{"a": [float(v) for v in a], "b": float(b)}
                         for a, b in zip(inst.h.form.a, inst.h.form.b)],
              "domain_radius": None},
        "contacts": {"points": inst.points.tolist(), "weights": inst.weights.tolist()},
        "nu": "counting",
        "profile": "canonical",
        "r_schedule": [0.8, 0.9, 0.95, 0.99],
        "quadrature": {"x_nodes_per_axis": 960, "t_nodes": 4, "tol": 1e-6,
                       "domain_radius": None},
        "tolerances": {"gap_tol": 1e-8, "minimize_tol": 1e-10,
                       "decomposition_tol": 1e-8, "grid_per_axis": 201},
        "seed": 0,
        "fixture": {"name": inst.name},
    }
