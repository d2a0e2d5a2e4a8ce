import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_spd, random_symmetric
from lglg import spd
from lglg.errors import DimensionMismatch, NonFinite, NotPositiveDefinite

E = math.e


class TestSymEig:
    def test_identity(self):
        w, v = spd.sym_eig(np.eye(3))
        assert np.allclose(w, 1.0)
        assert np.linalg.norm(v.T @ v - np.eye(3)) < 1e-10

    def test_diag_sorted_descending(self):
        w, v = spd.sym_eig(np.diag([1.0, 4.0]))
        assert np.allclose(w, [4.0, 1.0])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_reconstruction(self, rng):
        a = random_symmetric(rng, 8)
        w, v = spd.sym_eig(a)
        rel = np.linalg.norm((v * w) @ v.T - a) / np.linalg.norm(a)
        assert rel < 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(8)) < 1e-10

    def test_deterministic(self, rng):
        a = random_symmetric(rng, 6)
        w1, v1 = spd.sym_eig(a)
        w2, v2 = spd.sym_eig(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    def test_nonfinite_rejected(self):
        a = np.eye(3)
        a[0, 0] = np.nan
        with pytest.raises(NonFinite):
            spd.sym_eig(a)


class TestMatrixFunctions:
    def test_log_identity_is_zero(self):
        assert np.allclose(spd.matrix_log(np.eye(5)), 0.0, atol=1e-14)

    def test_log_scalar_diag(self):
        out = spd.matrix_log(np.diag([E, E**2]))
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_log_exp_round_trip(self, rng):
        for _ in range(10):
            a = random_spd(rng, 12, eig_range=(0.1, 10.0))
            back = spd.matrix_exp(spd.matrix_log(a))
            assert np.linalg.norm(back - a) / np.linalg.norm(a) < 1e-10

    def test_log_indefinite_without_floor(self):
        with pytest.raises(NotPositiveDefinite):
            spd.matrix_log(np.diag([1.0, -1.0]), floor=0.0)

    def test_exp_zero_is_identity(self):
        assert np.allclose(spd.matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-14)

    def test_exp_scalar(self):
        assert np.allclose(spd.matrix_exp(np.diag([1.0])), np.diag([E]))

    def test_exp_overflow(self):
        with pytest.raises(NonFinite):
            spd.matrix_exp(np.diag([1e4]))

    def test_sqrt_identity(self):
        assert np.allclose(spd.matrix_sqrt(np.eye(3)), np.eye(3))

    def test_sqrt_diag(self):
        assert np.allclose(spd.matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_sqrt_multiply_back(self, rng):
        a = random_spd(rng, 10, eig_range=(0.01, 5.0))
        s = spd.matrix_sqrt(a)
        assert np.linalg.norm(s @ s - a) / np.linalg.norm(a) < 1e-10

    def test_sqrt_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd.matrix_sqrt(np.diag([1.0, 0.0]))

    def test_sqrt_log_identity(self, rng):
        for _ in range(10):
            m = random_spd(rng, 9, eig_range=(0.1, 4.0))
            lhs = spd.matrix_log(spd.matrix_sqrt(m))
            rhs = 0.5 * spd.matrix_log(m)
            assert np.linalg.norm(lhs - rhs) < 1e-10


class TestRiemannianDistance:
    def test_identical_inputs(self, rng):
        a = random_spd(rng, 5)
        assert spd.riemannian_distance(a, a) < 1e-10

    def test_single_generalized_eigenvalue(self):
        c2 = np.eye(4)
        c1 = np.diag([E**2, 1.0, 1.0, 1.0])
        assert abs(spd.riemannian_distance(c1, c2) - 2.0) < 1e-12

    def test_explicit_inverse_oracle(self, rng):
        for _ in range(10):
            c1 = random_spd(rng, 7)
            c2 = random_spd(rng, 7)
            lam = np.linalg.eigvals(np.linalg.inv(c2) @ c1).real
            expected = math.sqrt(np.sum(np.log(lam) ** 2))
            assert abs(spd.riemannian_distance(c1, c2) - expected) < 1e-8

    def test_symmetry(self, rng):
        c1 = random_spd(rng, 6)
        c2 = random_spd(rng, 6)
        d12 = spd.riemannian_distance(c1, c2)
        d21 = spd.riemannian_distance(c2, c1)
        assert abs(d12 - d21) < 1e-10

    def test_affine_invariance(self, rng):
        for _ in range(10):
            c1 = random_spd(rng, 5)
            c2 = random_spd(rng, 5)
            x = rng.standard_normal((5, 5)) + 0.5 * np.eye(5)
            d = spd.riemannian_distance(c1, c2)
            dx = spd.riemannian_distance(x @ c1 @ x.T, x @ c2 @ x.T)
            assert abs(d - dx) < 1e-8 * (1.0 + d)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            spd.riemannian_distance(random_spd(rng, 3), random_spd(rng, 4))

    def test_not_spd(self, rng):
        with pytest.raises(NotPositiveDefinite):
            spd.riemannian_distance(random_spd(rng, 3), np.diag([1.0, 1.0, -1.0]))


class TestLogEuclideanDistance:
    def test_identical_inputs(self, rng):
        a = random_spd(rng, 5)
        assert spd.log_euclidean_distance(a, a) < 1e-12

    def test_diag_closed_form(self):
        d = spd.log_euclidean_distance(np.diag([E, 1.0]), np.diag([1.0, E]))
        assert abs(d - math.sqrt(2.0)) < 1e-12

    def test_independent_logm_oracle(self, rng):
        c1 = random_spd(rng, 6)
        c2 = random_spd(rng, 6)
        expected = np.linalg.norm(scipy.linalg.logm(c1) - scipy.linalg.logm(c2), "fro")
        assert abs(spd.log_euclidean_distance(c1, c2) - expected) < 1e-12

    @pytest.mark.parametrize("metric", [spd.riemannian_distance, spd.log_euclidean_distance])
    def test_triangle_inequality_sampled(self, rng, metric):
        for _ in range(20):
            a, b, c = (random_spd(rng, 4) for _ in range(3))
            assert metric(a, c) <= metric(a, b) + metric(b, c) + 1e-9


class TestEmbedGaussian:
    def test_standard_normal_embeds_to_zero(self):
        b = spd.embed_gaussian(np.zeros(4), np.eye(4))
        assert b.shape == (5, 5)
        assert np.allclose(b, 0.0, atol=1e-12)

    def test_scalar_case(self):
        b = spd.embed_gaussian(np.array([0.0]), np.array([[E**2]]))
        assert np.allclose(b, np.diag([1.0, 0.0]), atol=1e-12)

    def test_size_for_40_subbands(self, rng):
        b = spd.embed_gaussian(rng.standard_normal(40), random_spd(rng, 40))
        assert b.shape == (41, 41)

    def test_injective_on_parameters(self, rng):
        mu = rng.standard_normal(5)
        c = random_spd(rng, 5)
        b1 = spd.embed_gaussian(mu, c)
        b2 = spd.embed_gaussian(mu, c)
        assert np.max(np.abs(b1 - b2)) < 1e-12
        b3 = spd.embed_gaussian(mu + 1e-3, c)
        assert np.linalg.norm(b1 - b3) > 0.0


class TestHalfVectorize:
    def test_2x2(self):
        v = spd.half_vectorize(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(v, [1.0, 2.0 * math.sqrt(2.0), 3.0])

    def test_identity3_layout(self):
        assert np.allclose(spd.half_vectorize(np.eye(3)), [1, 0, 1, 0, 0, 1])

    def test_norm_preservation(self, rng):
        a = random_symmetric(rng, 9)
        b = random_symmetric(rng, 9)
        dv = np.linalg.norm(spd.half_vectorize(a) - spd.half_vectorize(b))
        df = np.linalg.norm(a - b, "fro")
        assert abs(dv - df) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (5, 5),
            elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        )
    )
    def test_norm_preservation_property(self, raw):
        a = 0.5 * (raw + raw.T)
        assert abs(np.linalg.norm(spd.half_vectorize(a)) - np.linalg.norm(a, "fro")) < 1e-9


class TestStacks:
    def test_stacked_equals_per_matrix(self, rng):
        stack = np.stack([random_spd(rng, 6, eig_range=(0.1, 10.0)) for _ in range(5)])
        for f in (spd.matrix_log, spd.matrix_exp, spd.matrix_sqrt, spd.half_vectorize):
            out = f(stack)
            for i in range(len(stack)):
                assert np.array_equal(out[i], f(stack[i]))
        w, v = spd.sym_eig(stack)
        for i in range(len(stack)):
            wi, vi = spd.sym_eig(stack[i])
            assert np.array_equal(w[i], wi) and np.array_equal(v[i], vi)

    def test_distances_reject_stacks(self, rng):
        stack = np.stack([random_spd(rng, 3), random_spd(rng, 3)])
        with pytest.raises(DimensionMismatch):
            spd.log_euclidean_distance(stack, stack)
