"""Matrix-function kernels and distance measures on SPD matrices.

All matrices are plain float64 ndarrays; symmetry is the caller's contract
and is re-enforced numerically (``(A + A.T) / 2``) before decomposition.
Each public function is that symmetrization plus a private kernel that
takes an exactly symmetric input; :mod:`lglg.descriptor` calls the
kernels, whose inputs are built symmetric, and so skips the symmetrization
passes, which leave such inputs bitwise unchanged.

No run calls a public function of this module. The public
:func:`matrix_log`, :func:`embed_gaussian` and :func:`half_vectorize` are
the test oracles of the private kernels that the block stage calls.
:func:`matrix_exp`, :func:`matrix_sqrt`, :func:`sym_eig`,
:func:`riemannian_distance` and :func:`log_euclidean_distance` serve only
the tests and acceptance criteria 01-03.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPositiveDefinite

#: Relative eigenvalue floor applied inside :func:`matrix_log` by default.
DEFAULT_LOG_FLOOR_REL = 1e-12


class EigenDecomposition(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _symmetrize(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {A.shape}")
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _from_eig(V: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """V diag(fw) V^T, symmetrized, for matrices or stacks of them."""
    return _symmetrize((V * fw[..., None, :]) @ np.swapaxes(V, -1, -2))


def _eig(A: np.ndarray) -> EigenDecomposition:
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix contains NaN or Inf")
    w, V = np.linalg.eigh(A)
    return EigenDecomposition(w[..., ::-1].copy(), V[..., ::-1].copy())


def sym_eig(A: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix, eigenvalues sorted descending.

    A stack of matrices (leading axes) gives stacked results.
    """
    return _eig(_symmetrize(A))


def _log(A: np.ndarray, floor: float | None) -> np.ndarray:
    w, V = _eig(A)
    if floor is None:
        floor = DEFAULT_LOG_FLOOR_REL * np.maximum(w[..., :1], 0.0)
    if np.any((floor <= 0.0) & (w[..., -1:] <= 0.0)):
        raise NotPositiveDefinite("matrix has a non-positive eigenvalue and no floor")
    w = np.maximum(w, floor)
    if np.any(w <= 0.0):
        raise NotPositiveDefinite("matrix not positive definite after flooring")
    return _from_eig(V, np.log(w))


def matrix_log(A: np.ndarray, floor: float | None = None) -> np.ndarray:
    """Matrix logarithm of a symmetric (near-)SPD matrix, or of each matrix
    in a stack.

    Eigenvalues are clamped at ``floor`` before taking logs; by default the
    floor is ``1e-12`` times the largest eigenvalue of each matrix, which
    keeps numerically singular covariance estimates usable.
    """
    return _log(_symmetrize(A), floor)


def matrix_exp(A: np.ndarray) -> np.ndarray:
    """Matrix exponential of a symmetric matrix via eigendecomposition."""
    w, V = sym_eig(A)
    with np.errstate(over="ignore"):
        E = np.exp(w)
    if not np.all(np.isfinite(E)):
        raise NonFinite("matrix exponential overflowed")
    return _from_eig(V, E)


def matrix_sqrt(A: np.ndarray) -> np.ndarray:
    """Principal square root of an SPD matrix."""
    w, V = sym_eig(A)
    if np.any(w[..., -1] <= 0.0):
        raise NotPositiveDefinite("matrix_sqrt requires a positive-definite input")
    return _from_eig(V, np.sqrt(w))


def _check_pair(C1: np.ndarray, C2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    C1 = _symmetrize(C1)
    C2 = _symmetrize(C2)
    if C1.shape != C2.shape or C1.ndim != 2:
        raise DimensionMismatch(f"expected two matrices of one shape: {C1.shape} vs {C2.shape}")
    return C1, C2


def riemannian_distance(C1: np.ndarray, C2: np.ndarray) -> float:
    """Affine-invariant distance sqrt(sum ln^2 lambda_i) over generalized
    eigenvalues of (C1, C2).

    The generalized problem is solved by Cholesky whitening of C2, with
    solves against the factor instead of explicit inverses.
    """
    C1, C2 = _check_pair(C1, C2)
    try:
        L = np.linalg.cholesky(C2)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("second argument is not SPD") from exc
    # L^{-1} C1 L^{-T}: symmetric, same generalized eigenvalues as (C1, C2)
    Y = np.linalg.solve(L, C1)
    M = np.linalg.solve(L, Y.T).T
    w = np.linalg.eigvalsh(_symmetrize(M))
    if w[0] <= 0.0:
        raise NotPositiveDefinite("first argument is not SPD")
    return float(math.sqrt(np.sum(np.log(w) ** 2)))


def log_euclidean_distance(C1: np.ndarray, C2: np.ndarray) -> float:
    """Frobenius distance between matrix logarithms."""
    C1, C2 = _check_pair(C1, C2)
    return float(np.linalg.norm(matrix_log(C1) - matrix_log(C2), "fro"))


def _embed(mu: np.ndarray, C: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(mu)):
        raise NonFinite("mean contains NaN or Inf")
    d = mu.shape[-1]
    M = np.empty(mu.shape[:-1] + (d + 1, d + 1))
    M[..., :d, :d] = C + mu[..., :, None] * mu[..., None, :]
    M[..., :d, d] = mu
    M[..., d, :d] = mu
    M[..., d, d] = 1.0
    return 0.5 * _log(M, None)


def embed_gaussian(mu: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Embed a Gaussian (mu, C) as the symmetric (d+1)x(d+1) matrix

        B = log(M^{1/2}),  M = [[C + mu mu^T, mu], [mu^T, 1]],

    computed as B = (1/2) log M (identical for SPD M, one decomposition).
    Stacks of Gaussians, ``mu`` (..., d) and ``C`` (..., d, d), give stacked
    embeddings.
    """
    mu = np.asarray(mu, dtype=np.float64)
    C = _symmetrize(C)
    if C.shape != mu.shape + (mu.shape[-1],):
        raise DimensionMismatch(f"mean has shape {mu.shape} but covariance is {C.shape}")
    return _embed(mu, C)


@lru_cache(maxsize=8)
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column indices of the lower triangle of an n x n matrix, and
    the mask of its off-diagonal entries. Memoized; the arrays are
    read-only."""
    rows, cols = np.tril_indices(n)
    arrays = rows, cols, rows != cols
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _half_vec(A: np.ndarray) -> np.ndarray:
    # column-major upper triangle == row-major lower triangle for symmetric A
    rows, cols, off = _triangle(A.shape[-1])
    v = A[..., rows, cols]
    v[..., off] *= math.sqrt(2.0)
    return v


def half_vectorize(A: np.ndarray) -> np.ndarray:
    """Upper-triangular vectorization (column-major scan) with sqrt(2)-scaled
    off-diagonals; a stack of matrices gives one row per matrix.

    Preserves the Frobenius inner product, so Euclidean distances between
    half-vectorized matrices equal Frobenius distances between the matrices.
    """
    return _half_vec(_symmetrize(A))
