import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglg import wpca
from lglg.errors import DegenerateTrainingSet, DegenerateVector, DimensionMismatch


def orthonormal_basis(X: np.ndarray, k: int) -> np.ndarray:
    """U, the unit principal directions, as fit computes them before it
    whitens: an independent copy of its steps."""
    n, dim = X.shape
    Xc = X - X.mean(axis=0)
    c = Xc @ Xc.T / n if dim > n else Xc.T @ Xc / n
    w, v = np.linalg.eigh(0.5 * (c + c.T))
    w, v = w[::-1][:k], v[:, ::-1]
    if dim <= n:
        return v[:, :k]
    U = Xc.T @ v[:, :k]
    U /= np.sqrt(n * w)
    return U


class TestFit:
    def test_collinear_points_rank_one(self, rng):
        direction = rng.standard_normal(10)
        X = np.outer([1.0, 2.0, 3.0], direction)
        model = wpca.fit(X, 5)
        assert model.output_dim == 1

    def test_whitening_high_dimensional(self, rng):
        X = rng.standard_normal((50, 2000))
        model = wpca.fit(X, 50)
        assert model.output_dim <= 49
        P = np.vstack([wpca.project(model, x) for x in X])
        cov = P.T @ P / 50
        assert np.max(np.abs(cov - np.eye(model.output_dim))) < 1e-8

    def test_unwhitened_basis_orthonormal(self, rng):
        X = rng.standard_normal((20, 500))
        model = wpca.fit(X, 20)
        U = model.basis * np.sqrt(model.eigvals)
        assert np.linalg.norm(U.T @ U - np.eye(model.output_dim)) < 1e-10
        assert np.all(np.diff(model.eigvals) <= 0.0)
        assert np.all(model.eigvals > 0.0)

    @pytest.mark.parametrize("n, dim, k", [(20, 500, 20), (10, 50, 5), (100, 8, 8), (30, 12, 6)],
                             ids=["gram", "gram_truncated", "covariance", "covariance_truncated"])
    def test_basis_is_u_over_root_eigvals_bitwise(self, rng, n, dim, k):
        # both paths: dim > n eigendecomposes the Gram matrix, dim <= n the
        # covariance. Standardized entries and rankings keep their bits only
        # if W is exactly U / sqrt(eigvals), with U's memory layout
        X = rng.standard_normal((n, dim))
        model = wpca.fit(X, k)
        U = orthonormal_basis(X, model.output_dim)
        W = U / np.sqrt(model.eigvals)
        assert model.basis.shape == W.shape and model.basis.strides == W.strides
        assert model.basis.tobytes() == W.tobytes()

    def test_low_dimensional_path(self, rng):
        X = rng.standard_normal((100, 8))
        model = wpca.fit(X, 8)
        assert model.output_dim == 8
        P = np.vstack([wpca.project(model, x) for x in X])
        cov = P.T @ P / 100
        assert np.max(np.abs(cov - np.eye(8))) < 1e-8

    def test_k_capped_by_rank(self, rng):
        X = rng.standard_normal((10, 300))
        model = wpca.fit(X, 300)
        assert model.output_dim <= 9

    def test_rows_ulps_apart_keep_n_minus_one(self, rng):
        # centring rounds at the rows' own spacing, so the rank-2 centred
        # Gram gets a third eigenvalue above the relative cutoff
        v = rng.uniform(1.0, 2.0, 500)
        X = np.vstack([v] + [v + rng.integers(-2, 3, 500) * np.spacing(v) for _ in range(2)])
        assert wpca.fit(X, 10).output_dim == 2

    def test_degenerate_rank_zero(self):
        with pytest.raises(DegenerateTrainingSet):
            wpca.fit(np.ones((5, 7)), 3)

    def test_needs_two_rows(self, rng):
        with pytest.raises(DegenerateTrainingSet):
            wpca.fit(rng.standard_normal((1, 7)), 3)


class TestProject:
    def test_train_mean_projects_to_zero(self, rng):
        X = rng.standard_normal((20, 100))
        model = wpca.fit(X, 10)
        assert np.allclose(wpca.project(model, model.train_mean), 0.0, atol=1e-12)

    def test_affine_combination_linearity(self, rng):
        X = rng.standard_normal((20, 100))
        model = wpca.fit(X, 10)
        x1, x2 = rng.standard_normal((2, 100))
        a = 0.3
        lhs = wpca.project(model, a * x1 + (1 - a) * x2)
        rhs = a * wpca.project(model, x1) + (1 - a) * wpca.project(model, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_dimension_mismatch(self, rng):
        model = wpca.fit(rng.standard_normal((10, 50)), 5)
        with pytest.raises(DimensionMismatch):
            wpca.project(model, np.zeros(51))

    def test_joint_rotation_invariance_of_distances(self, rng):
        X = rng.standard_normal((30, 40))
        queries = rng.standard_normal((5, 40))
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))

        def pairwise(model, qs):
            P = np.vstack([wpca.project(model, x) for x in qs])
            return np.linalg.norm(P[:, None, :] - P[None, :, :], axis=2)

        d0 = pairwise(wpca.fit(X, 20), queries)
        d1 = pairwise(wpca.fit(X @ q.T, 20), queries @ q.T)
        assert np.max(np.abs(d0 - d1)) < 1e-8


class TestZscore:
    def test_closed_form(self):
        out = wpca.zscore(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [-math.sqrt(1.5), 0.0, math.sqrt(1.5)])

    def test_constant_vector_degenerate(self):
        with pytest.raises(DegenerateVector):
            wpca.zscore(np.full(5, 3.0))

    def test_idempotent(self, rng):
        y = rng.standard_normal(17)
        once = wpca.zscore(y)
        assert np.max(np.abs(wpca.zscore(once) - once)) < 1e-12

    def test_output_invariants(self, rng):
        out = wpca.zscore(rng.standard_normal(33))
        assert abs(out.mean()) < 1e-10
        assert abs(out.std() - 1.0) < 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=3,
            max_size=30,
        )
    )
    def test_invariants_property(self, values):
        y = np.asarray(values)
        if y.std() <= 1e-6:
            return
        out = wpca.zscore(y)
        assert abs(out.mean()) < 1e-8
        assert abs(out.std() - 1.0) < 1e-8
