"""Whitening PCA: fit on gallery features, project and z-score queries."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTrainingSet, DegenerateVector, DimensionMismatch

#: Eigenvalues below this fraction of the largest are treated as rank-deficient.
RANK_CUTOFF_REL = 1e-10

#: Minimum per-vector standard deviation accepted by :func:`zscore`.
ZSCORE_STD_FLOOR = 1e-14


@dataclass(frozen=True)
class ProjectionModel:
    """Training mean, whitening basis and eigenvalues of a fitted WPCA.

    ``basis`` is W = U D^{-1/2}, with the orthonormal principal directions
    as the columns of U and D = diag(``eigvals``). Projection with W whitens
    the training set; ``basis * np.sqrt(eigvals)`` gives U back."""

    train_mean: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)      # input_dim x k, W = U D^{-1/2}
    eigvals: np.ndarray = field(repr=False)    # length k, positive, descending

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]


def fit(features: np.ndarray, k_requested: int) -> ProjectionModel:
    """Fit on an N x input_dim matrix, keeping at most k_requested components.

    When input_dim exceeds N the N x N Gram matrix is eigendecomposed instead
    of the full covariance. Components with eigenvalues below
    ``RANK_CUTOFF_REL`` times the largest are dropped, so k never exceeds the
    numerical rank of the centered data (at most N - 1). The model's basis
    is the whitening basis W, computed without a copy of U beside it.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DegenerateTrainingSet("need at least 2 training rows")
    if not np.all(np.isfinite(X)):
        raise DegenerateTrainingSet("training features contain NaN or Inf")
    n, dim = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean

    c = Xc @ Xc.T / n if dim > n else Xc.T @ Xc / n
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    w, v = w[::-1], v[:, ::-1]
    # zero when the largest eigenvalue is not positive or is NaN (the Gram
    # matrix overflowed). Centring leaves rank N - 1 at most, but rows that
    # differ near rounding level can lift the noise eigenvalue over the cutoff
    rank = min(int(np.sum(w > RANK_CUTOFF_REL * w[0])), n - 1)
    if rank == 0:
        raise DegenerateTrainingSet("training features have rank 0")
    k = min(k_requested, rank)
    w = w[:k]
    if dim > n:
        # columns of Xc^T v / sqrt(n w) are the unit covariance eigenvectors
        # U, whitened in place: one (dim, k) array. Dividing twice gives W
        # the bits of U / sqrt(w); one fused division would round otherwise
        basis = Xc.T @ v[:, :k]
        basis /= np.sqrt(n * w)
        basis /= np.sqrt(w)
    else:
        basis = v[:, :k] / np.sqrt(w)
    return ProjectionModel(train_mean=mean, basis=basis, eigvals=w.copy())


def project(model: ProjectionModel, x: np.ndarray) -> np.ndarray:
    """y = W^T (x - train_mean)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.shape[0] != model.input_dim:
        raise DimensionMismatch(f"vector has dim {x.shape[0]}, model expects {model.input_dim}")
    return model.basis.T @ (x - model.train_mean)


def zscore(y: np.ndarray) -> np.ndarray:
    """Per-vector standardization with population (divisor k) std."""
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] < 2:
        raise DegenerateVector("z-score needs at least 2 components")
    std = float(y.std())
    if std <= ZSCORE_STD_FLOOR:
        raise DegenerateVector("vector has (near-)zero standard deviation")
    return (y - y.mean()) / std
