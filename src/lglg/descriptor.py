"""Per-block Gaussian descriptors and the concatenated image feature.

A preprocessed image is Gabor-decomposed once into a subband stack, inside
the box that its blocks cover; blocks (regular grid or keypoint-centred)
index into it, each block yielding a Gaussian over its per-pixel
subband-magnitude vectors, embedded into flat space and half-vectorized.
Configs that differ only in block settings share one stack of an image,
and one split of their blocks, through the :class:`ImageCache` that the
caller builds for that image.

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

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spd
from .config import MODE_KEYPOINT, RunConfig
from .errors import BlockTooLarge, ImageTooLarge, KeypointError, NonFinite, TooFewSamples
from .gabor import MAX_FILTER_BYTES, build_bank, check_fits, decompose
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


@dataclass
class ImageCache:
    """What the extractions of one image under ``configs`` share. The
    caller builds it for the image, fills in ``image`` and ``keypoints``
    once, and passes it to each extraction. :func:`subbands` keeps one
    subband stack in it, ``planes`` under ``subband_key`` (its settings and
    window), and a new stack replaces it; :func:`image_feature` keeps the
    ``features`` it computed, by feature fingerprint, those of later calls
    among them."""

    configs: list[RunConfig]
    image: np.ndarray | None = None
    keypoints: list[tuple[float, float]] | None = None
    subband_key: tuple | None = None
    planes: np.ndarray | None = None
    features: dict[str, np.ndarray] = field(default_factory=dict)


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
    are (top, left). A point that is NaN or infinite raises
    :class:`KeypointError`."""
    h, w = image_shape
    if block_size > min(h, w):
        raise BlockTooLarge(f"block {block_size} does not fit in image {image_shape}")
    rects = []
    for x, y in keypoints:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise KeypointError(f"non-finite key point ({x}, {y})")
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


def _subband_key(config: RunConfig) -> tuple:
    return config.preprocess_params(), config.gabor_params()


def subbands(
    image: np.ndarray,
    config: RunConfig,
    cache: ImageCache | None = None,
    window: tuple[int, int, int, int] | None = None,
) -> np.ndarray:
    """Preprocess, then Gabor-decompose: the (d, h, w) magnitude stack of
    the image, or of its (top, left, bottom, right) ``window``
    (:func:`lglg.gabor.decompose`). It depends only on
    ``config.preprocess_params()``, ``config.gabor_params()`` and the
    window; block settings act after it.

    A repeat call with the same settings, window and ``cache`` returns the
    stack kept in it, and a new stack replaces the kept one."""
    pre_params, gabor_params, _ = key = (*_subband_key(config), window)
    if cache is not None and cache.subband_key == key:
        return cache.planes
    # before the image is preprocessed or the bank built, which a large
    # image or window_len would allocate first
    check_fits(np.shape(image), gabor_params)
    planes = decompose(preprocess_chain(image, pre_params), build_bank(gabor_params), window=window)
    if cache is not None:
        cache.subband_key, cache.planes = key, planes
    return planes


def _block_rects(
    shape: tuple[int, int], config: RunConfig, keypoints: list[tuple[float, float]] | None
) -> list[tuple[int, int]]:
    """The (top, left) corners of ``config``'s blocks in an image of ``shape``."""
    if config.mode == MODE_KEYPOINT:
        if keypoints is None:
            raise KeypointError("keypoint mode requires a keypoint list")
        rects = keypoint_blocks(shape, keypoints, config.block_size)
    else:
        rects = partition_blocks(shape, config.block_size)
    _check_samples(config.block_size**2)
    return rects


def _union_window(
    shape: tuple[int, int], parts: list[tuple[RunConfig, list[tuple[int, int]]]]
) -> tuple[int, int, int, int]:
    """The (top, left, bottom, right) box around every block of ``parts`` in
    an image of ``shape``; the whole image when they have no block."""
    boxes = [(t, l, t + c.block_size, l + c.block_size) for c, rects in parts for t, l in rects]
    if not boxes:
        return (0, 0, *shape)
    tops, lefts, bottoms, rights = zip(*boxes)
    return min(tops), min(lefts), max(bottoms), max(rights)


def _block_features(
    planes: np.ndarray, parts: list[tuple[RunConfig, list[tuple[int, int]]]]
) -> list[np.ndarray]:
    """:func:`block_features` of each (config, block corners) of ``parts``,
    all their blocks split across cores in one :func:`lglg.parallel.split`."""
    d = planes.shape[0]
    planes = np.asarray(planes, dtype=np.float64)
    rows = [np.empty((len(rects), (d + 1) * (d + 2) // 2)) for _, rects in parts]
    # (top, left, d, bs, bs): the window at each corner, a view of the planes
    windows = [
        np.moveaxis(sliding_window_view(planes, (c.block_size,) * 2, axis=(1, 2)), 0, 2)
        for c, _ in parts
    ]
    starts = list(accumulate((len(rects) for _, rects in parts), initial=0))

    def fill(lo: int, hi: int) -> None:
        # helper threads run this: only private kernels, which the traced
        # benchmark does not wrap, so its one span stack sees no thread but
        # the caller
        for (config, rects), view, out, start in zip(parts, windows, rows, starts):
            end = min(hi - start, len(rects))
            for i in range(max(lo - start, 0), end, BLOCK_CHUNK):
                j = min(i + BLOCK_CHUNK, end)
                tops, lefts = zip(*rects[i:j])
                out[i:j] = _embed(*_gaussian(view[tops, lefts], config.ridge_scale))

    split(fill, starts[-1])
    return [r.ravel() for r in rows]


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
    rects = _block_rects(planes.shape[1:], config, keypoints)
    return _block_features(planes, [(config, rects)])[0]


def check_feature_fits(
    image_shape: tuple[int, ...],
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
) -> None:
    """:func:`lglg.gabor.check_fits`, then raise :class:`ImageTooLarge` if
    the image's feature would take more than ``MAX_FILTER_BYTES``: one row
    of (d+1)(d+2)/2 float64 values per block, that is per grid cell or per
    key point."""
    params = config.gabor_params()
    check_fits(image_shape, params)
    h, w = image_shape
    bs = config.block_size
    blocks = len(keypoints or ()) if config.mode == MODE_KEYPOINT else (h // bs) * (w // bs)
    row = (params.num_subbands + 1) * (params.num_subbands + 2) // 2
    need = blocks * row * 8
    if need > MAX_FILTER_BYTES:
        raise ImageTooLarge(
            f"image {tuple(image_shape)} needs {need} bytes of block features ({blocks} blocks "
            f"of {row} values), more than {MAX_FILTER_BYTES}"
        )


def image_feature(
    image: np.ndarray,
    config: RunConfig,
    keypoints: list[tuple[float, float]] | None = None,
    cache: ImageCache | None = None,
) -> np.ndarray:
    """Full extraction for one image: :func:`check_feature_fits` and the
    block list, then :func:`subbands` of the window around the blocks and
    the embeddings that :func:`block_features` gives, each split across
    cores (:func:`lglg.parallel.split`). The feature is that of the whole
    image's planes, bit for bit.

    With ``cache``, built for this image and its ``keypoints``, the first
    call for a subband setting extracts every config the cache lists with
    that setting, one per feature fingerprint: each is checked before the
    image is filtered, the window covers all their blocks, and all their
    blocks go through one split. Their features stay in the cache, and a
    later call for one returns it."""
    cache = ImageCache([config]) if cache is None else cache
    fingerprint = config.feature_fingerprint()
    if fingerprint not in cache.features:
        key = _subband_key(config)
        group = {fingerprint: config}
        for c in cache.configs:
            if _subband_key(c) == key and c.feature_fingerprint() not in cache.features:
                group.setdefault(c.feature_fingerprint(), c)
        shape = np.shape(image)
        for c in group.values():
            check_feature_fits(shape, c, keypoints)
        parts = [(c, _block_rects(shape, c, keypoints)) for c in group.values()]
        # filter only the box the blocks read; corners move to its origin
        window = _union_window(shape, parts)
        top, left = window[:2]
        parts = [(c, [(t - top, l - left) for t, l in rects]) for c, rects in parts]
        planes = subbands(image, config, cache, window=window)
        cache.features.update(zip(group, _block_features(planes, parts)))
    return cache.features[fingerprint]
