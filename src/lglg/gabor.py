"""Complex Gabor kernel bank and magnitude subband decomposition."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .errors import ConfigError, ImageTooSmall, InvalidIndex
from .parallel import split

#: Fewest pixels per plane at which :func:`decompose` splits its planes
#: across cores. Smaller planes take tens of microseconds per FFT, too short
#: to hand between threads: split at 64x64 it ran 0.9-1.4x the serial time.
MIN_SPLIT_PIXELS = 128 * 128


@dataclass(frozen=True)
class GaborParams:
    """Parameters shared by every kernel in a bank.

    ``sigma`` is the Gaussian envelope width in radians (e.g. 1.2*pi);
    ``k_max`` the maximum spatial frequency; ``spacing`` the frequency
    spacing factor between scales; ``window_len`` the odd spatial support
    in pixels.
    """

    directions: int = 8
    scales: int = 4
    sigma: float = math.pi
    k_max: float = math.pi / 2.0
    spacing: float = math.sqrt(2.0)
    window_len: int = 9

    def __post_init__(self):
        if self.directions < 1 or self.scales < 1:
            raise ConfigError("directions and scales must be >= 1")
        if self.sigma <= 0.0 or self.k_max <= 0.0:
            raise ConfigError("sigma and k_max must be positive")
        if self.spacing <= 1.0:
            raise ConfigError("spacing factor must exceed 1")
        if self.window_len < 3 or self.window_len % 2 == 0:
            raise ConfigError("window_len must be odd and >= 3")

    @property
    def num_subbands(self) -> int:
        return self.directions * self.scales


@dataclass(frozen=True)
class GaborKernel:
    u: int
    v: int
    real: np.ndarray = field(repr=False)
    imag: np.ndarray = field(repr=False)


def wave_number(params: GaborParams, v: int) -> float:
    """Spatial frequency of scale v: k_max / spacing^v."""
    return params.k_max / params.spacing**v


def orientation(params: GaborParams, u: int) -> float:
    """Orientation of direction u: pi * (u - 1) / U."""
    return math.pi * (u - 1) / params.directions


def build_kernel(params: GaborParams, u: int, v: int) -> GaborKernel:
    """Build the direction-u, scale-v kernel on an integer grid centred at 0.

    The DC term of the real part is removed with the discretely computed
    envelope mean rather than the continuous exp(-sigma^2/2) constant, so the
    sampled kernel is exactly zero-sum regardless of window truncation.
    """
    if not (1 <= u <= params.directions):
        raise InvalidIndex(f"direction index {u} outside 1..{params.directions}")
    if not (1 <= v <= params.scales):
        raise InvalidIndex(f"scale index {v} outside 1..{params.scales}")
    r = (params.window_len - 1) // 2
    coords = np.arange(-r, r + 1, dtype=np.float64)
    x, y = np.meshgrid(coords, coords, indexing="xy")

    k_v = wave_number(params, v)
    phi = orientation(params, u)
    k2 = k_v * k_v
    sigma2 = params.sigma**2
    envelope = (k2 / sigma2) * np.exp(-k2 * (x * x + y * y) / (2.0 * sigma2))
    phase = k_v * (math.cos(phi) * x + math.sin(phi) * y)
    cos_part = envelope * np.cos(phase)
    dc = cos_part.sum() / envelope.sum()
    return GaborKernel(u=u, v=v, real=cos_part - dc * envelope, imag=envelope * np.sin(phase))


@dataclass(frozen=True, eq=False)
class GaborBank:
    """The U*V kernels of one parameter set, a read-only sequence."""

    params: GaborParams
    kernels: tuple[GaborKernel, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.kernels)

    def __iter__(self):
        return iter(self.kernels)

    def __getitem__(self, p):
        return self.kernels[p]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def build_bank(params: GaborParams) -> GaborBank:
    """All U*V kernels in deterministic order: index p = (v-1)*U + u.

    Memoized per parameter set; the kernel arrays are read-only.
    """
    kernels = []
    for v in range(1, params.scales + 1):
        for u in range(1, params.directions + 1):
            k = build_kernel(params, u, v)
            _read_only(k.real)
            _read_only(k.imag)
            kernels.append(k)
    return GaborBank(params=params, kernels=tuple(kernels))


@lru_cache(maxsize=4)
def kernel_spectra(params: GaborParams, fshape: tuple[int, int]) -> np.ndarray:
    """Real-FFT spectra of every flipped kernel part, zero-padded to
    ``fshape``: shape (U*V, 2, fshape[0], fshape[1]//2 + 1), real part at
    index 0 and imaginary part at 1. Memoized; the array is read-only."""
    bank = build_bank(params)
    spectra = np.empty((len(bank), 2, fshape[0], fshape[1] // 2 + 1), dtype=np.complex128)
    for p, kernel in enumerate(bank):
        for part, taps in enumerate((kernel.real, kernel.imag)):
            spectra[p, part] = sp_fft.rfftn(taps[::-1, ::-1], fshape, axes=(0, 1))
    return _read_only(spectra)


def _pad_reflect(image: np.ndarray, r: int) -> np.ndarray:
    return np.pad(image, r, mode="symmetric")


def _conv_direct(padded: np.ndarray, kernel: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    h, w = out_shape
    out = np.zeros(out_shape)
    for a in range(kernel.shape[0]):
        for b in range(kernel.shape[1]):
            out += kernel[a, b] * padded[a : a + h, b : b + w]
    return out


def check_fits(image_shape: tuple[int, ...], window_len: int) -> None:
    """Raise :class:`ImageTooSmall` unless a 2-D image of this shape holds
    the kernel support."""
    if len(image_shape) != 2:
        raise ImageTooSmall(f"expected a 2-D image, got shape {image_shape}")
    if min(image_shape) < window_len:
        raise ImageTooSmall(f"image {image_shape} smaller than kernel support {window_len}")


def decompose(image: np.ndarray, bank: GaborBank, method: str = "fft") -> np.ndarray:
    """Magnitude subbands of an image: shape (len(bank), H, W).

    Filtering is same-size with reflect padding. ``method`` selects the FFT
    path (default) or the direct spatial path used as its oracle.

    The FFT path takes one real FFT of the padded image and multiplies it by
    each cached kernel spectrum. Its FFT length, product order and output
    slice are those of ``scipy.signal.fftconvolve(padded, flipped_kernel,
    "valid")``, so each plane is bitwise equal to two such convolutions.
    Planes of at least ``MIN_SPLIT_PIXELS`` are split across cores
    (:func:`lglg.parallel.split`); each is computed whole by one thread, so
    the stack does not depend on the split.
    """
    image = np.asarray(image, dtype=np.float64)
    wl = bank[0].real.shape[0]
    check_fits(image.shape, wl)
    if method not in ("fft", "direct"):
        raise ConfigError(f"unknown convolution method {method!r}")

    r = (wl - 1) // 2
    padded = _pad_reflect(image, r)
    planes = np.empty((len(bank), *image.shape))
    if method == "direct":
        for p, kernel in enumerate(bank):
            re = _conv_direct(padded, kernel.real, image.shape)
            im = _conv_direct(padded, kernel.imag, image.shape)
            planes[p] = np.hypot(re, im)
        return planes

    fshape = tuple(sp_fft.next_fast_len(n + wl - 1, real=True) for n in padded.shape)
    spectrum = sp_fft.rfftn(padded, fshape, axes=(0, 1))
    h, w = image.shape
    valid = (slice(wl - 1, wl - 1 + h), slice(wl - 1, wl - 1 + w))
    spectra = kernel_spectra(bank.params, fshape)

    def filter_planes(lo: int, hi: int) -> None:
        for p in range(lo, hi):
            re_k, im_k = spectra[p]
            re = sp_fft.irfftn(spectrum * re_k, fshape, axes=(0, 1))[valid]
            im = sp_fft.irfftn(spectrum * im_k, fshape, axes=(0, 1))[valid]
            planes[p] = np.hypot(re, im)

    if h * w < MIN_SPLIT_PIXELS:
        filter_planes(0, len(bank))
    else:
        split(filter_planes, len(bank))
    return planes
