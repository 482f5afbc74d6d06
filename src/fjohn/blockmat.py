"""Points (M + corner block, shift vector) as frozen values.

A point is an (n+1)x(n+1) block matrix (n x n symmetric block M, scalar corner
beta, zero off-blocks) with a shift vector w in R^n.  Points carry no
arithmetic: all of it is numpy's on the flat form `EPoint.vec` (back with
`EPoint.from_vec`), in which the inner product is a dot product.  Also here:
the weighted trace, the pairs of unit weighted determinant corner^s det(M) as
images of symmetric matrices, and the closed-form orthonormal basis of the
weighted-trace-zero subspace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BlockMat:
    """Symmetric n x n block `diag` plus scalar `corner`, zero off-blocks.

    The stored matrix is mirrored from the upper triangle of the input so
    symmetry is exact.
    """

    diag: np.ndarray
    corner: float

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise DimensionMismatch(f"diag must be square, got shape {d.shape}")
        object.__setattr__(self, "diag", _freeze(np.triu(d) + np.triu(d, 1).T))
        object.__setattr__(self, "corner", float(self.corner))

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @staticmethod
    def identity(n: int, corner: float = 1.0) -> "BlockMat":
        return BlockMat(np.eye(n), corner)


@dataclass(frozen=True)
class EPoint:
    """A pair (block matrix, shift vector in R^n)."""

    mat: BlockMat
    shift: np.ndarray = field(default=None)

    def __post_init__(self):
        w = np.zeros(self.mat.n) if self.shift is None else np.asarray(self.shift, dtype=float)
        if w.shape != (self.mat.n,):
            raise DimensionMismatch(f"shift must have length {self.mat.n}, got {w.shape}")
        object.__setattr__(self, "shift", _freeze(w))

    @property
    def n(self) -> int:
        return self.mat.n

    @property
    def vec(self) -> np.ndarray:
        """Flat form in R^(n^2+1+n): M row-major, then beta, then w."""
        return np.concatenate([self.mat.diag.ravel(), [self.mat.corner], self.shift])

    @staticmethod
    def from_vec(v: np.ndarray, n: int) -> "EPoint":
        return EPoint(BlockMat(v[:n * n].reshape(n, n), v[n * n]), v[n * n + 1:])


def s_trace(b: BlockMat, s: float) -> float:
    """s*corner + trace(diag); equals the inner product with identity+s-corner."""
    return float(s * b.corner + np.trace(b.diag))


def sdet1_param(S: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Map a symmetric matrix S to an SPD pair (A, alpha) of unit weighted determinant.

    A = exp(S), alpha = exp(-trace(S)/s), so alpha**s * det(A) = 1 exactly.
    exp is taken on the eigendecomposition of S's symmetric part.
    """
    S = np.asarray(S, dtype=float)
    lam, V = np.linalg.eigh(0.5 * (S + S.T))
    E = (V * np.exp(lam)) @ V.T
    return 0.5 * (E + E.T), float(np.exp(-np.trace(S) / s))


@functools.lru_cache(maxsize=None)
def trace0_array(n: int, s: float) -> np.ndarray:
    """Orthonormal basis of the weighted-trace-zero subspace, one flat `EPoint.vec` per row.

    Spans {(M, beta, w): M symmetric, s*beta + tr M = 0, w in R^n}; dimension
    n(n+1)/2 + n.  Rows follow the upper triangle of M row by row, then the
    shifts: an off-diagonal (i, j) is (E_ij + E_ji)/sqrt(2), a diagonal k is
    column k of the Q of a QR of the unit diagonal blocks e_k projected off
    (Id + s-corner), signed so that R has a positive diagonal (the
    Gram-Schmidt order), and a shift is a unit vector.  One read-only
    array per (n, s) is built and shared by every caller.
    """
    u = np.append(np.ones(n), s) / np.sqrt(n + s * s)
    Q, R = np.linalg.qr(np.eye(n + 1, n) - np.outer(u, u[:n]))
    Q *= np.sign(np.diag(R))
    i, j = np.triu_indices(n)
    off, diag = np.flatnonzero(i != j), np.flatnonzero(i == j)
    B = np.zeros((len(i) + n, n * n + 1 + n))
    B[off, i[off] * n + j[off]] = B[off, j[off] * n + i[off]] = np.sqrt(0.5)
    B[diag[:, None], np.arange(n) * (n + 1)] = Q[:n].T
    B[diag, n * n] = Q[n]
    B[len(i):, n * n + 1:] = np.eye(n)
    B.flags.writeable = False
    return B


def trace0_basis(n: int, s: float) -> list[EPoint]:
    """The rows of `trace0_array` as points."""
    return [EPoint.from_vec(b, n) for b in trace0_array(n, s)]

