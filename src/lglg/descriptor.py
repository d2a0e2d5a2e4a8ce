"""Per-block Gaussian descriptors and the concatenated image feature.

A preprocessed image is Gabor-decomposed once; blocks (regular grid or
keypoint-centred) index into the subband stack, each block yielding a
Gaussian over its per-pixel subband-magnitude vectors, embedded into flat
space and half-vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spd
from .config import MODE_KEYPOINT, RunConfig
from .errors import BlockTooLarge, KeypointError, TooFewSamples
from .gabor import build_bank, decompose
from .preprocess import preprocess_chain

#: Blocks per stacked Gaussian/embedding pass in :func:`image_feature`; bounds
#: the (blocks, d, pixels) temporaries (3.7 MB at d=32, 15x15 blocks).
BLOCK_CHUNK = 64


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


def estimate_gaussian(block_stack: np.ndarray, ridge_scale: float = 1e-4) -> GaussianDescriptor:
    """MLE Gaussian over the per-pixel subband vectors of one block.

    ``block_stack`` has shape (d, bh, bw); each pixel contributes one
    d-dimensional sample. Covariance uses divisor N, then the ridge
    ``ridge_scale * trace(C)/d * I`` is added. A stack of blocks,
    (..., d, bh, bw), gives one Gaussian per block in stacked arrays.
    """
    *lead, d, bh, bw = block_stack.shape
    n = bh * bw
    if n < 2:
        raise TooFewSamples(f"need at least 2 pixels per block, got {n}")
    samples = block_stack.reshape(*lead, d, n)
    mu = samples.mean(axis=-1)
    centered = samples - mu[..., None]
    cov = centered @ np.swapaxes(centered, -1, -2) / n
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    ridge = ridge_scale * np.trace(cov, axis1=-2, axis2=-1) / d
    return GaussianDescriptor(mu=mu, cov=cov + ridge[..., None, None] * np.eye(d))


def block_feature(g: GaussianDescriptor) -> np.ndarray:
    """Half-vectorized Log-Euclidean embedding; length (d+1)(d+2)/2, one row
    per block for stacked Gaussians."""
    return spd.half_vectorize(spd.embed_gaussian(g.mu, g.cov))


def image_feature(
    image: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Full extraction for one image: preprocess, decompose, per-block
    Gaussian embedding, concatenation in block order.

    Blocks go through the Gaussian estimate and the embedding in stacks of
    up to ``BLOCK_CHUNK``; the result equals concatenating
    ``block_feature(estimate_gaussian(block))`` over the blocks, bit for bit.
    """
    pre = preprocess_chain(image, config.preprocess_params())
    planes = decompose(pre, build_bank(config.gabor_params()))
    bs = config.block_size
    if config.mode == MODE_KEYPOINT:
        if keypoints is None:
            raise KeypointError("keypoint mode requires a keypoint list")
        rects = keypoint_blocks(image.shape, keypoints, bs)
    else:
        rects = partition_blocks(image.shape, bs).rects()
    parts = []
    for i in range(0, len(rects), BLOCK_CHUNK):
        blocks = np.stack(
            [planes[:, top : top + bs, left : left + bs] for top, left in rects[i : i + BLOCK_CHUNK]]
        )
        parts.append(block_feature(estimate_gaussian(blocks, ridge_scale=config.ridge_scale)))
    return np.concatenate(parts, axis=None)
