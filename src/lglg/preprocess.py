"""Illumination normalization: gamma correction, DoG filtering, contrast
equalization, applied in that order before feature extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DegenerateInput, OutOfRange

_ZERO_TOL = 1e-12

#: Bounds a config or model file must keep (the defaults are Tan and
#: Triggs' 1 and 2, 0.1 and 10). Below the lower ones the filters' float
#: arithmetic overflows. Each blur runs 2*ceil(4*sigma)+1 taps per axis:
#: at sigma 64 a 256² image's preprocessing took 74 ms against 9 ms at 2
#: (2-vCPU VM), and at 1e12 the taps do not fit in memory.
DOG_SIGMA_RANGE = (1e-3, 64.0)
MIN_CONTRAST_ALPHA = 0.01
MIN_CONTRAST_TAU = 1e-3


@dataclass(frozen=True)
class PreprocessParams:
    gamma: float = 0.2
    dog_sigma_inner: float = 1.0
    dog_sigma_outer: float = 2.0
    contrast_alpha: float = 0.1
    contrast_tau: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")
        lo, hi = DOG_SIGMA_RANGE
        if not lo <= self.dog_sigma_inner < self.dog_sigma_outer <= hi:
            raise ConfigError(
                f"require {lo:g} <= dog_sigma_inner < dog_sigma_outer <= {hi:g}, "
                f"got {self.dog_sigma_inner:g} and {self.dog_sigma_outer:g}"
            )
        if not MIN_CONTRAST_ALPHA <= self.contrast_alpha < 1.0:
            raise ConfigError(f"contrast_alpha must be in [{MIN_CONTRAST_ALPHA:g}, 1), "
                              f"got {self.contrast_alpha:g}")
        if not self.contrast_tau >= MIN_CONTRAST_TAU:
            raise ConfigError(f"contrast_tau must be at least {MIN_CONTRAST_TAU:g}, "
                              f"got {self.contrast_tau:g}")


def gamma_correct(image: np.ndarray, gamma: float) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if image.min() < 0.0 or image.max() > 1.0:
        raise OutOfRange("gamma correction expects pixel values in [0, 1]")
    return image**gamma


@lru_cache(maxsize=8)
def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Sampled, normalized Gaussian with support radius ceil(4*sigma).

    Memoized per sigma; the array is read-only."""
    radius = int(math.ceil(4.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    k.setflags(write=False)
    return k


@lru_cache(maxsize=16)
def symmetric_index(n: int, radius: int) -> np.ndarray:
    """Indices that pad an axis of length ``n`` by ``radius`` on each side:
    ``a.take(symmetric_index(n, r), axis)`` equals ``np.pad(a, r,
    mode="symmetric")`` along that axis, reflections repeated where
    ``radius`` exceeds ``n``. Memoized per (n, radius); read-only."""
    i = np.arange(-radius, n + radius) % (2 * n)
    i = np.where(i < n, i, 2 * n - 1 - i)
    i.setflags(write=False)
    return i


def _blur_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    n = image.shape[axis]
    padded = image.take(symmetric_index(n, len(kernel) // 2), axis=axis)
    out = np.zeros_like(image)
    tap = np.empty_like(image)
    for i, w in enumerate(kernel.tolist()):
        np.multiply(w, padded[i : i + n] if axis == 0 else padded[:, i : i + n], out=tap)
        out += tap
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    k = gaussian_kernel_1d(sigma)
    return _blur_axis(_blur_axis(image, k, 0), k, 1)


def dog_filter(image: np.ndarray, sigma_inner: float, sigma_outer: float) -> np.ndarray:
    """Difference of Gaussians with reflect padding."""
    if sigma_inner >= sigma_outer:
        raise ConfigError("sigma_inner must be smaller than sigma_outer")
    image = np.asarray(image, dtype=np.float64)
    return gaussian_blur(image, sigma_inner) - gaussian_blur(image, sigma_outer)


def contrast_equalize(image: np.ndarray, alpha: float, tau: float) -> np.ndarray:
    """Two-stage robust contrast renormalization followed by a tanh squashing
    that bounds the output in (-tau, tau). Exactly invariant to positive
    rescaling of the input."""
    image = np.asarray(image, dtype=np.float64)
    if np.max(np.abs(image)) < _ZERO_TOL:
        raise DegenerateInput("contrast equalization of a (near-)zero image")
    out = image / np.mean(np.abs(image) ** alpha) ** (1.0 / alpha)
    out = out / np.mean(np.minimum(np.abs(out), tau) ** alpha) ** (1.0 / alpha)
    return tau * np.tanh(out / tau)


def preprocess_chain(image: np.ndarray, params: PreprocessParams) -> np.ndarray:
    """gamma -> DoG -> contrast equalization; expects input in [0, 1]."""
    out = gamma_correct(image, params.gamma)
    out = dog_filter(out, params.dog_sigma_inner, params.dog_sigma_outer)
    return contrast_equalize(out, params.contrast_alpha, params.contrast_tau)
