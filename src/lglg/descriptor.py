"""Per-block Gaussian descriptors and the concatenated image feature.

A preprocessed image is Gabor-decomposed once into a subband stack; blocks
(regular grid or keypoint-centred) index into it, each block yielding a
Gaussian over its per-pixel subband-magnitude vectors, embedded into flat
space and half-vectorized. Configs that differ only in block settings can
share one stack of an image through a dict that the caller passes to
:func:`subbands` for that image.

:func:`block_features` splits an image's block list across cores once;
OpenBLAS runs one thread throughout (:mod:`lglg.parallel`). The helper
threads call only the private kernels, never a public function of this
module.

No run calls :func:`estimate_gaussian`, :func:`block_feature` or
:class:`GaussianDescriptor`. They are the per-block test oracle of
:func:`block_features`; the tests and acceptance criteria 04-05 call
them, and perfbench wraps the first two by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spd
from .config import MODE_KEYPOINT, RunConfig
from .errors import BlockTooLarge, KeypointError, NonFinite, TooFewSamples
from .gabor import build_bank, check_fits, decompose
from .parallel import split
from .preprocess import preprocess_chain

#: Blocks per stacked Gaussian/embedding pass of one thread in
#: :func:`block_features`; bounds each thread's one (blocks, d, pixels)
#: temporary (1.8 MB at d=32, 15x15 blocks).
BLOCK_CHUNK = 32


@dataclass(frozen=True)
class GaussianDescriptor:
    """Mean (..., d) and covariance (..., d, d) of one block or a stack."""

    mu: np.ndarray
    cov: np.ndarray


def partition_blocks(image_shape: tuple[int, int], block_size: int) -> list[tuple[int, int]]:
    """Largest centred grid of non-overlapping square blocks, as (top, left)
    corners in row-major order; leftover margins are split evenly (floor on
    top/left) and discarded."""
    h, w = image_shape
    if block_size > min(h, w):
        raise BlockTooLarge(f"block {block_size} does not fit in image {image_shape}")
    tops = range(h % block_size // 2, h - block_size + 1, block_size)
    lefts = range(w % block_size // 2, w - block_size + 1, block_size)
    return [(top, left) for top in tops for left in lefts]


def keypoint_blocks(
    image_shape: tuple[int, int],
    keypoints: list[tuple[float, float]],
    block_size: int,
) -> list[tuple[int, int]]:
    """One block per keypoint, centred on it and minimally translated to fit
    inside the image. Points are (x, y) pixel coordinates; returned corners
    are (top, left)."""
    h, w = image_shape
    if block_size > min(h, w):
        raise BlockTooLarge(f"block {block_size} does not fit in image {image_shape}")
    rects = []
    for x, y in keypoints:
        top = int(round(y)) - block_size // 2
        left = int(round(x)) - block_size // 2
        top = min(max(top, 0), h - block_size)
        left = min(max(left, 0), w - block_size)
        rects.append((top, left))
    return rects


def _check_samples(pixels: int) -> None:
    if pixels < 2:
        raise TooFewSamples(f"need at least 2 pixels per block, got {pixels}")


def _gaussian(block_stack: np.ndarray, ridge_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Centres ``block_stack``, a float64 array the caller owns, in place."""
    *lead, d, bh, bw = block_stack.shape
    n = bh * bw
    samples = block_stack.reshape(*lead, d, n)
    # NaN or ±inf samples give a mean that is not finite: stop before inf - inf
    with np.errstate(invalid="ignore", over="ignore"):
        mu = samples.mean(axis=-1)
    if not np.isfinite(mu).all():
        raise NonFinite("block samples hold NaN or Inf")
    samples -= mu[..., None]
    cov = samples @ np.swapaxes(samples, -1, -2) / n
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    ridge = ridge_scale * np.trace(cov, axis1=-2, axis2=-1) / d
    return mu, cov + ridge[..., None, None] * np.eye(d)


def estimate_gaussian(block_stack: np.ndarray, ridge_scale: float = 1e-4) -> GaussianDescriptor:
    """MLE Gaussian over the per-pixel subband vectors of one block.

    ``block_stack`` has shape (d, bh, bw); each pixel contributes one
    d-dimensional sample. Covariance uses divisor N, then the ridge
    ``ridge_scale * trace(C)/d * I`` is added. A stack of blocks,
    (..., d, bh, bw), gives one Gaussian per block in stacked arrays.
    """
    bh, bw = block_stack.shape[-2:]
    _check_samples(bh * bw)
    return GaussianDescriptor(*_gaussian(np.array(block_stack, dtype=np.float64), ridge_scale))


def _embed(mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    # cov from _gaussian, the M built from it and the embedding are exactly
    # symmetric, so spd's private kernels skip the public functions'
    # symmetrizations, which would leave them bitwise unchanged
    return spd._half_vec(spd._embed(mu, cov))


def block_feature(g: GaussianDescriptor) -> np.ndarray:
    """Half-vectorized Log-Euclidean embedding; length (d+1)(d+2)/2, one row
    per block for stacked Gaussians."""
    return spd.half_vectorize(spd.embed_gaussian(g.mu, g.cov))


def subbands(image: np.ndarray, config: RunConfig, stacks: dict | None = None) -> np.ndarray:
    """Preprocess, then Gabor-decompose: the (d, h, w) magnitude stack. It
    depends only on ``config.preprocess_params()`` and
    ``config.gabor_params()``; block settings act after it.

    ``stacks`` belongs to one image: a repeat call with the same settings
    returns the stack kept in it, and a new stack replaces the kept one, so
    it holds at most one. Entries under other keys, such as an image path, stay."""
    pre_params, gabor_params = key = (config.preprocess_params(), config.gabor_params())
    if stacks is not None and key in stacks:
        return stacks[key]
    # before the image is preprocessed or the bank built, which a large
    # image or window_len would allocate first
    check_fits(np.shape(image), gabor_params)
    planes = decompose(preprocess_chain(image, pre_params), build_bank(gabor_params))
    if stacks is not None:
        for kept in [k for k in stacks if isinstance(k, tuple)]:
            del stacks[kept]
        stacks[key] = planes
    return planes


def block_features(
    planes: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Per-block Gaussian embeddings of a subband stack, concatenated in
    block order.

    The block list is split across cores once (:func:`lglg.parallel.split`).
    Each thread gathers its blocks ``BLOCK_CHUNK`` at a time with one indexed
    copy from a sliding-window view of the planes as float64, estimates and
    embeds each stack and writes its rows into the feature. The result
    equals concatenating ``block_feature(estimate_gaussian(block))`` over
    the blocks, bit for bit.
    """
    shape = planes.shape[1:]
    bs = config.block_size
    if config.mode == MODE_KEYPOINT:
        if keypoints is None:
            raise KeypointError("keypoint mode requires a keypoint list")
        rects = keypoint_blocks(shape, keypoints, bs)
    else:
        rects = partition_blocks(shape, bs)
    _check_samples(bs * bs)
    d = planes.shape[0]
    rows = np.empty((len(rects), (d + 1) * (d + 2) // 2))
    # (top, left, d, bs, bs): the window at each corner, a view of float64 planes
    windows = sliding_window_view(np.asarray(planes, dtype=np.float64), (bs, bs), axis=(1, 2))
    windows = np.moveaxis(windows, 0, 2)

    def fill(lo: int, hi: int) -> None:
        # helper threads run this: only private kernels, which the traced
        # benchmark does not wrap, so its one span stack sees no thread but
        # the caller
        for i in range(lo, hi, BLOCK_CHUNK):
            j = min(i + BLOCK_CHUNK, hi)
            tops, lefts = zip(*rects[i:j])
            rows[i:j] = _embed(*_gaussian(windows[tops, lefts], config.ridge_scale))

    split(fill, len(rects))
    return rows.ravel()


def image_feature(
    image: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
    stacks: dict | None = None,
) -> np.ndarray:
    """Full extraction for one image: :func:`subbands` (sharing ``stacks``),
    then :func:`block_features`, each split across cores
    (:func:`lglg.parallel.split`)."""
    return block_features(subbands(image, config, stacks), config, keypoints)
