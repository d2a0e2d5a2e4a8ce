"""Per-block Gaussian descriptors and the concatenated image feature.

A preprocessed image is Gabor-decomposed once into a subband stack; blocks
(regular grid or keypoint-centred) index into it, each block yielding a
Gaussian over its per-pixel subband-magnitude vectors, embedded into flat
space and half-vectorized. Configs that differ only in block settings can
share one stack through :func:`sharing_subbands`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
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


class _SubbandSlot:
    key: tuple | None = None
    planes: np.ndarray | None = None


#: The slot of the open :func:`sharing_subbands` scope; None outside one.
_shared: _SubbandSlot | None = None


@contextlib.contextmanager
def sharing_subbands() -> Iterator[None]:
    """Scope in which :func:`subbands` keeps the stack it computed last and
    returns it again for the same image bytes and subband settings.

    The scope holds one stack: it is emptied before each recompute and when
    the scope exits, so a stack never outlives the image it belongs to."""
    global _shared
    _shared = _SubbandSlot()
    try:
        yield
    finally:
        _shared = None


def subbands(image: np.ndarray, config: RunConfig) -> np.ndarray:
    """Preprocess, then Gabor-decompose: the (d, h, w) magnitude stack. It
    depends only on ``config.preprocess_params()`` and
    ``config.gabor_params()``; block settings act after it. Inside
    :func:`sharing_subbands` a repeat call returns the kept stack."""
    pre_params, gabor_params = config.preprocess_params(), config.gabor_params()
    slot = _shared
    if slot is not None:
        key = (image.shape, image.dtype, image.tobytes(), pre_params, gabor_params)
        if slot.key == key:
            return slot.planes
        slot.key = slot.planes = None
    planes = decompose(preprocess_chain(image, pre_params), build_bank(gabor_params))
    if slot is not None:
        slot.key, slot.planes = key, planes
    return planes


def block_features(
    planes: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Per-block Gaussian embeddings of a subband stack, concatenated in
    block order.

    Blocks go through the Gaussian estimate and the embedding in stacks of
    up to ``BLOCK_CHUNK``; the result equals concatenating
    ``block_feature(estimate_gaussian(block))`` over the blocks, bit for bit.
    """
    shape = planes.shape[1:]
    bs = config.block_size
    if config.mode == MODE_KEYPOINT:
        if keypoints is None:
            raise KeypointError("keypoint mode requires a keypoint list")
        rects = keypoint_blocks(shape, keypoints, bs)
    else:
        rects = partition_blocks(shape, bs).rects()
    parts = []
    for i in range(0, len(rects), BLOCK_CHUNK):
        blocks = np.stack(
            [planes[:, top : top + bs, left : left + bs] for top, left in rects[i : i + BLOCK_CHUNK]]
        )
        parts.append(block_feature(estimate_gaussian(blocks, ridge_scale=config.ridge_scale)))
    return np.concatenate(parts, axis=None)


def image_feature(
    image: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> np.ndarray:
    """Full extraction for one image: :func:`subbands`, then
    :func:`block_features`."""
    return block_features(subbands(image, config), config, keypoints)
