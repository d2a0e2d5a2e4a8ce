import math

import numpy as np
import pytest

from lglg import preprocess
from lglg.errors import ConfigError, DegenerateInput, OutOfRange
from lglg.preprocess import (
    PreprocessParams,
    contrast_equalize,
    dog_filter,
    gamma_correct,
    gaussian_kernel_1d,
    preprocess_chain,
)


class TestGammaCorrect:
    def test_identity_at_gamma_one(self, rng):
        image = rng.uniform(0.0, 1.0, (16, 16))
        assert np.array_equal(gamma_correct(image, 1.0), image)

    def test_closed_form(self):
        assert gamma_correct(np.array([[0.25]]), 0.5)[0, 0] == pytest.approx(0.5)

    def test_monotone(self, rng):
        image = rng.uniform(0.0, 1.0, 200)
        out = gamma_correct(image.reshape(10, 20), 0.2).ravel()
        order_in = np.argsort(image)
        assert np.all(np.diff(out[order_in]) >= 0.0)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            gamma_correct(np.array([[1.5]]), 0.5)


class TestDogFilter:
    def test_constant_image_is_zeroed(self):
        out = dog_filter(np.full((20, 20), 0.6), 1.0, 2.0)
        assert np.max(np.abs(out)) < 1e-10

    def test_impulse_center_value(self):
        image = np.zeros((41, 41))
        image[20, 20] = 1.0
        out = dog_filter(image, 1.0, 2.0)
        # independently computed center weights of the sampled 2-D kernels
        expected = 0.0
        for sigma, sign in ((1.0, 1.0), (2.0, -1.0)):
            k1 = gaussian_kernel_1d(sigma)
            expected += sign * np.outer(k1, k1)[len(k1) // 2, len(k1) // 2]
        assert abs(out[20, 20] - expected) < 1e-10

    def test_matches_full_2d_convolution(self, rng):
        image = rng.uniform(0.0, 1.0, (32, 32))
        out = dog_filter(image, 1.0, 2.0)

        def blur_2d(img, sigma):
            k1 = gaussian_kernel_1d(sigma)
            k2 = np.outer(k1, k1)
            r = len(k1) // 2
            padded = np.pad(img, r, mode="symmetric")
            res = np.zeros_like(img)
            for a in range(k2.shape[0]):
                for b in range(k2.shape[1]):
                    res += k2[a, b] * padded[a : a + 32, b : b + 32]
            return res

        oracle = blur_2d(image, 1.0) - blur_2d(image, 2.0)
        assert np.max(np.abs(out - oracle)) < 1e-8

    def test_mean_near_zero(self, rng):
        image = rng.uniform(0.0, 1.0, (40, 40))
        out = dog_filter(image, 1.0, 2.0)
        assert abs(out.mean()) < 1e-3

    def test_rejects_bad_sigmas(self):
        with pytest.raises(ConfigError):
            dog_filter(np.zeros((5, 5)), 2.0, 1.0)


class TestContrastEqualize:
    def test_output_bounded(self, rng):
        out = contrast_equalize(rng.standard_normal((20, 20)) * 50.0, 0.1, 10.0)
        assert np.max(np.abs(out)) < 10.0

    def test_scale_invariance(self, rng):
        image = rng.standard_normal((16, 16))
        a = contrast_equalize(image, 0.1, 10.0)
        b = contrast_equalize(1000.0 * image, 0.1, 10.0)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_zero_image_degenerate(self):
        with pytest.raises(DegenerateInput):
            contrast_equalize(np.zeros((8, 8)), 0.1, 10.0)


def reference_blur(image, sigma):
    """The Gaussian blur by ``np.pad`` and one temporary per tap."""
    k = gaussian_kernel_1d(sigma)
    r = len(k) // 2
    h, w = image.shape
    padded = np.pad(image, [(r, r), (0, 0)], mode="symmetric")
    rows = np.zeros_like(image)
    for i, tap in enumerate(k):
        rows += tap * padded[i : i + h, :]
    padded = np.pad(rows, [(0, 0), (r, r)], mode="symmetric")
    out = np.zeros_like(image)
    for i, tap in enumerate(k):
        out += tap * padded[:, i : i + w]
    return out


class TestSymmetricIndex:
    # radius below, at and above the length; 23 > 3 * 7 reflects four times
    @pytest.mark.parametrize("n, radius", [(7, 3), (7, 7), (7, 23), (1, 4), (2, 9)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_take_is_np_pad_symmetric(self, rng, n, radius, axis):
        image = rng.standard_normal((n, 5) if axis == 0 else (5, n))
        pad = [(0, 0), (0, 0)]
        pad[axis] = (radius, radius)
        expected = np.pad(image, pad, mode="symmetric")
        got = image.take(preprocess.symmetric_index(n, radius), axis=axis)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_read_only_and_memoized(self):
        index = preprocess.symmetric_index(9, 4)
        assert not index.flags.writeable
        assert preprocess.symmetric_index(9, 4) is index

    def test_taps_read_only_and_memoized(self):
        taps = gaussian_kernel_1d(1.5)
        assert not taps.flags.writeable
        assert gaussian_kernel_1d(1.5) is taps

    # the 5x6 image is narrower than the sigma-2 radius of 8
    @pytest.mark.parametrize("shape", [(64, 64), (37, 50), (5, 6)])
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_blur_is_the_np_pad_reference_bitwise(self, rng, shape, sigma):
        image = rng.uniform(0.0, 1.0, shape)
        got = preprocess.gaussian_blur(image, sigma)
        assert got.tobytes() == reference_blur(image, sigma).tobytes()


class TestChain:
    def test_constant_image_degenerate(self):
        with pytest.raises(DegenerateInput):
            preprocess_chain(np.full((16, 16), 0.3), PreprocessParams())

    def test_output_bounded_by_tau(self, rng):
        params = PreprocessParams()
        out = preprocess_chain(rng.uniform(0.0, 1.0, (24, 24)), params)
        assert np.max(np.abs(out)) < params.contrast_tau

    def test_deterministic_bitwise(self, rng):
        image = rng.uniform(0.0, 1.0, (32, 32))
        a = preprocess_chain(image, PreprocessParams())
        b = preprocess_chain(image.copy(), PreprocessParams())
        assert np.array_equal(a, b)

    def test_multiplicative_illumination_invariance_post_dog(self, rng):
        # contrast stage is exactly scale invariant, so scaling the DoG
        # output leaves the chain output unchanged
        image = rng.uniform(0.0, 1.0, (24, 24))
        params = PreprocessParams()
        dog = dog_filter(
            gamma_correct(image, params.gamma),
            params.dog_sigma_inner,
            params.dog_sigma_outer,
        )
        a = contrast_equalize(dog, params.contrast_alpha, params.contrast_tau)
        b = contrast_equalize(3.7 * dog, params.contrast_alpha, params.contrast_tau)
        assert np.max(np.abs(a - b)) < 1e-6

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            PreprocessParams(gamma=0.0)
        with pytest.raises(ConfigError):
            PreprocessParams(contrast_alpha=1.5)

    def test_bounds_are_inclusive(self):
        lo, hi = preprocess.DOG_SIGMA_RANGE
        PreprocessParams(dog_sigma_inner=lo, dog_sigma_outer=hi,
                         contrast_alpha=preprocess.MIN_CONTRAST_ALPHA,
                         contrast_tau=preprocess.MIN_CONTRAST_TAU)
        for field, value in [("dog_sigma_inner", lo * 0.999), ("dog_sigma_outer", hi * 1.001),
                             ("contrast_alpha", preprocess.MIN_CONTRAST_ALPHA * 0.999),
                             ("contrast_tau", preprocess.MIN_CONTRAST_TAU * 0.999)]:
            with pytest.raises(ConfigError):
                PreprocessParams(**{field: value})
