"""Per-block Gaussian descriptors and the concatenated image feature.

A preprocessed image is Gabor-decomposed once into a subband stack; blocks
(regular grid or keypoint-centred) index into it, each block yielding a
Gaussian over its per-pixel subband-magnitude vectors, embedded into flat
space and half-vectorized. Configs that differ only in block settings can
share one stack of an image through a dict that the caller passes to
:func:`subbands` for that image.

:func:`block_features` splits an image's block list across cores once,
and OpenBLAS runs one thread while that split's helpers run; they call
only the private kernels, never a public function of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .config import MODE_KEYPOINT, RunConfig
from .errors import BlockTooLarge, KeypointError, TooFewSamples
from .gabor import build_bank, check_fits, decompose
from .parallel import split
from .preprocess import preprocess_chain

#: Blocks per stacked Gaussian/embedding pass of one thread in
#: :func:`block_features`; bounds each thread's (blocks, d, pixels)
#: temporaries (1.8 MB at d=32, 15x15 blocks).
BLOCK_CHUNK = 32

#: Fewest blocks one thread takes in :func:`block_features`; smaller parts
#: cost more to hand off than they save, so images with fewer than twice
#: this many blocks run on the calling thread.
MIN_SPLIT_BLOCKS = 16


@dataclass(frozen=True)
class BlockGrid:
    block_size: int
    rows: int
    cols: int
    row0: int
    col0: int

    def rects(self) -> list[tuple[int, int]]:
        """Top-left corners in row-major order."""
        return [
            (self.row0 + i * self.block_size, self.col0 + j * self.block_size)
            for i in range(self.rows)
            for j in range(self.cols)
        ]


@dataclass(frozen=True)
class GaussianDescriptor:
    """Mean (..., d) and covariance (..., d, d) of one block or a stack."""

    mu: np.ndarray
    cov: np.ndarray


def partition_blocks(image_shape: tuple[int, int], block_size: int) -> BlockGrid:
    """Largest centred grid of non-overlapping square blocks; leftover margins
    are split evenly (floor on top/left) and discarded."""
    h, w = image_shape
    if block_size > min(h, w):
        raise BlockTooLarge(f"block {block_size} does not fit in image {image_shape}")
    rows = h // block_size
    cols = w // block_size
    return BlockGrid(
        block_size=block_size,
        rows=rows,
        cols=cols,
        row0=(h - rows * block_size) // 2,
        col0=(w - cols * block_size) // 2,
    )


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
    *lead, d, bh, bw = block_stack.shape
    n = bh * bw
    samples = block_stack.reshape(*lead, d, n)
    mu = samples.mean(axis=-1)
    centered = samples - mu[..., None]
    cov = centered @ np.swapaxes(centered, -1, -2) / n
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
    return GaussianDescriptor(*_gaussian(block_stack, ridge_scale))


def _embed(mu: np.ndarray, cov: np.ndarray) -> np.ndarray:
    return spd.half_vectorize(spd.embed_gaussian(mu, cov))


def block_feature(g: GaussianDescriptor) -> np.ndarray:
    """Half-vectorized Log-Euclidean embedding; length (d+1)(d+2)/2, one row
    per block for stacked Gaussians."""
    return _embed(g.mu, g.cov)


def subbands(image: np.ndarray, config: RunConfig, stacks: dict | None = None) -> np.ndarray:
    """Preprocess, then Gabor-decompose: the (d, h, w) magnitude stack. It
    depends only on ``config.preprocess_params()`` and
    ``config.gabor_params()``; block settings act after it.

    ``stacks`` belongs to one image: a repeat call with the same settings
    returns the stack kept in it, and a new stack replaces the kept one, so
    it holds at most one."""
    pre_params, gabor_params = key = (config.preprocess_params(), config.gabor_params())
    if stacks is not None and key in stacks:
        return stacks[key]
    # before the bank is built: a large window_len would allocate it first
    check_fits(np.shape(image), gabor_params.window_len)
    planes = decompose(preprocess_chain(image, pre_params), build_bank(gabor_params))
    if stacks is not None:
        stacks.clear()
        stacks[key] = planes
    return planes


def block_features(
    planes: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Per-block Gaussian embeddings of a subband stack, concatenated in
    block order.

    The block list is split across cores once (:func:`lglg.parallel.split`);
    each thread stacks its blocks ``BLOCK_CHUNK`` at a time, estimates and
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
        rects = partition_blocks(shape, bs).rects()
    _check_samples(bs * bs)
    d = planes.shape[0]
    rows = np.empty((len(rects), (d + 1) * (d + 2) // 2))

    def fill(lo: int, hi: int) -> None:
        # helper threads run this: only private kernels, which the traced
        # benchmark does not wrap, so its one span stack sees no thread but
        # the caller
        for i in range(lo, hi, BLOCK_CHUNK):
            j = min(i + BLOCK_CHUNK, hi)
            blocks = np.stack([planes[:, top : top + bs, left : left + bs] for top, left in rects[i:j]])
            rows[i:j] = _embed(*_gaussian(blocks, config.ridge_scale))

    split(fill, len(rects), MIN_SPLIT_BLOCKS)
    return rows.ravel()


def image_feature(
    image: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
    stacks: dict | None = None,
) -> np.ndarray:
    """Full extraction for one image: :func:`subbands` (sharing ``stacks``),
    then :func:`block_features`. Each split across cores in them holds
    OpenBLAS to one thread while its helper threads run
    (:func:`lglg.parallel.split`)."""
    return block_features(subbands(image, config, stacks), config, keypoints)
