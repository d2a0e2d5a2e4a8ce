"""Complex Gabor kernel bank and magnitude subband decomposition.

:func:`decompose` filters by FFT: one real FFT of the padded image, times
each kernel part's cached spectrum (:func:`kernel_spectra`, at the size
:func:`fft_shape` gives), then the inverse FFT and one ``hypot`` per
kernel. The products go through the inverse FFT in stacks of kernel parts
of at most ``STACK_BYTES``, so small images make few, large numpy calls
and large ones keep each call's buffers within the cache. The planes are
bitwise those of two ``scipy.signal.fftconvolve`` calls per kernel,
whatever the stacks and the thread split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ImageTooLarge, ImageTooSmall
from .parallel import split

#: Bytes of kernel-part products that :func:`decompose` sends through one
#: inverse FFT call: a stack holds the most whole kernels whose two parts
#: fit, or, where one kernel's parts do not, one part. Each part of an
#: (F0, F1) FFT takes F0*(F1//2 + 1)*16 bytes: 52 KB at 64x64, so a call
#: takes 4 parts, and from 168 KB at 128x128 one part. On one thread of a
#: 2-vCPU VM (2 MB L2 per core), 384 and 512 KB budgets made a 64x64
#: decompose 5 % and 22 % slower than 256 KB, and 512 KB a 48x48 one 45 %.
STACK_BYTES = 256 * 1024

#: Largest bank a config or model file may ask for; the paper's is 8x5 and
#: the default 8x4. The cached kernel spectra take U*V*2*16 bytes per FFT
#: bin, so these bounds hold them to 4 KB per bin (about 170 MB at 256²).
MAX_DIRECTIONS = 16
MAX_SCALES = 8

#: Most bytes that the planes (U*V*H*W*8) and the kernel spectra
#: (U*V*2*F0*(F1//2 + 1)*16 at :func:`fft_shape`) of one image may take;
#: :func:`check_fits` refuses a larger image before it is filtered, where
#: numpy could fail to allocate them with a traceback. Extraction peaks near
#: 1.1 times these in each process that extracts. 2 GiB admits a 1024x1024 image
#: under the paper's 8x5 bank (1.08 GB) and any 256x256 one under the
#: largest bank (0.24 GB at window 9, 1.3 GB at the widest); a 3000x3000 one
#: under the default bank needs 7.1 GB.
MAX_FILTER_BYTES = 2**31

#: Widest kernel shapes a config or model file may ask for: ``sigma`` and
#: ``k_max`` from 1e-3 to 1e3 times pi (the defaults are 1 and 0.5 times
#: pi) and ``spacing`` at most 16. Far outside them the bank's float
#: arithmetic fails: ``spacing**v`` or ``sigma**2`` overflows, or
#: ``sigma**2`` rounds to 0.
SHAPE_RANGE_PI = (1e-3, 1e3)
MAX_SPACING = 16.0


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
        if not (1 <= self.directions <= MAX_DIRECTIONS and 1 <= self.scales <= MAX_SCALES):
            raise ConfigError(
                f"directions must be in 1..{MAX_DIRECTIONS} and scales in 1..{MAX_SCALES}, "
                f"got {self.directions} and {self.scales}"
            )
        lo, hi = SHAPE_RANGE_PI
        if not all(lo * math.pi <= x <= hi * math.pi for x in (self.sigma, self.k_max)):
            raise ConfigError(
                f"sigma and k_max must be {lo:g} to {hi:g} times pi, "
                f"got {self.sigma / math.pi:g} and {self.k_max / math.pi:g} times pi"
            )
        if not 1.0 < self.spacing <= MAX_SPACING:
            raise ConfigError(f"spacing factor must exceed 1 and be at most {MAX_SPACING:g}, "
                              f"got {self.spacing:g}")
        if self.window_len < 3 or self.window_len % 2 == 0:
            raise ConfigError("window_len must be odd and >= 3")

    @property
    def num_subbands(self) -> int:
        return self.directions * self.scales


def wave_number(params: GaborParams, v: int) -> float:
    """Spatial frequency of scale v: k_max / spacing^v."""
    return params.k_max / params.spacing**v


def orientation(params: GaborParams, u: int) -> float:
    """Orientation of direction u: pi * (u - 1) / U."""
    return math.pi * (u - 1) / params.directions


def _kernel(params: GaborParams, u: int, v: int) -> np.ndarray:
    """The direction-u, scale-v kernel on an integer grid centred at 0, as
    one complex array.

    The DC term of the real part is removed with the discretely computed
    envelope mean rather than the continuous exp(-sigma^2/2) constant, so the
    sampled kernel is exactly zero-sum regardless of window truncation.
    """
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
    kernel = (cos_part - dc * envelope).astype(np.complex128)
    kernel.imag = envelope * np.sin(phase)
    return kernel


@dataclass(frozen=True, eq=False)
class GaborBank:
    """The U*V kernels of one parameter set: ``kernels[p]`` is the
    (window_len, window_len) complex kernel p."""

    params: GaborParams
    kernels: np.ndarray = field(repr=False)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def build_bank(params: GaborParams) -> GaborBank:
    """All U*V kernels in deterministic order: index p = (v-1)*U + (u-1).

    Memoized per parameter set; the kernel array is read-only.
    """
    kernels = [_kernel(params, u, v) for v in range(1, params.scales + 1)
               for u in range(1, params.directions + 1)]
    return GaborBank(params=params, kernels=_read_only(np.stack(kernels)))


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) at least ``n``: the real
    FFT length ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fft_shape(image_shape: tuple[int, int], window_len: int) -> tuple[int, int]:
    """FFT size at which :func:`decompose` filters an image of this shape:
    per axis, the reflect-padded length plus ``window_len - 1``, rounded up
    by :func:`next_fast_len`, as ``scipy.signal.fftconvolve`` pads it."""
    return tuple(next_fast_len(n + 2 * (window_len - 1)) for n in image_shape)


@lru_cache(maxsize=4)
def kernel_spectra(params: GaborParams, fshape: tuple[int, int]) -> np.ndarray:
    """Real-FFT spectra of every flipped kernel part, zero-padded to
    ``fshape``: shape (U*V, 2, fshape[0], fshape[1]//2 + 1), real part at
    index 0 and imaginary part at 1. Memoized; the array is read-only."""
    kernels = build_bank(params).kernels
    parts = np.stack((kernels.real, kernels.imag), axis=1)[..., ::-1, ::-1]
    return _read_only(np.fft.rfftn(parts, fshape, axes=(2, 3)))


def _conv_direct(padded: np.ndarray, kernel: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    h, w = out_shape
    out = np.zeros(out_shape)
    for a in range(kernel.shape[0]):
        for b in range(kernel.shape[1]):
            out += kernel[a, b] * padded[a : a + h, b : b + w]
    return out


def check_fits(image_shape: tuple[int, ...], params: GaborParams) -> None:
    """Raise :class:`ImageTooSmall` unless a 2-D image of this shape holds
    the kernel support, and :class:`ImageTooLarge` if its planes and kernel
    spectra would take more than ``MAX_FILTER_BYTES``."""
    if len(image_shape) != 2:
        raise ImageTooSmall(f"expected a 2-D image, got shape {image_shape}")
    if min(image_shape) < params.window_len:
        raise ImageTooSmall(f"image {image_shape} smaller than kernel support {params.window_len}")
    f0, f1 = fft_shape(image_shape, params.window_len)
    need = params.num_subbands * (math.prod(image_shape) * 8 + 2 * f0 * (f1 // 2 + 1) * 16)
    if need > MAX_FILTER_BYTES:
        raise ImageTooLarge(
            f"image {image_shape} needs {need} bytes of Gabor planes and kernel spectra, "
            f"more than {MAX_FILTER_BYTES}"
        )


def decompose(image: np.ndarray, bank: GaborBank) -> np.ndarray:
    """Magnitude subbands of an image: shape (U*V, H, W).

    Filtering is same-size with reflect padding. :func:`decompose_direct`
    is its oracle.

    One real FFT of the padded image is multiplied by each cached kernel
    spectrum. The products go through the inverse FFT in stacks of kernel
    parts, as many as fit in ``STACK_BYTES`` (at least one), one call per
    pass, and one ``hypot`` per stack writes its planes.
    The FFTs go through ``numpy.fft``; FFT length, product order,
    normalization and output slice are those of
    ``scipy.signal.fftconvolve(padded, flipped_kernel, "valid")``, so each
    plane stays bitwise equal to two such convolutions.
    The planes are split across cores (:func:`lglg.parallel.split`); each
    is computed whole by one thread, so the stack does not depend on the
    split.
    """
    image = np.asarray(image, dtype=np.float64)
    check_fits(image.shape, bank.params)
    wl = bank.params.window_len
    padded = np.pad(image, (wl - 1) // 2, mode="symmetric")
    planes = np.empty((len(bank.kernels), *image.shape))
    fshape = fft_shape(image.shape, wl)
    spectrum = np.fft.rfftn(padded, fshape, axes=(0, 1))
    h, w = image.shape
    valid = (slice(wl - 1, wl - 1 + h), slice(wl - 1, wl - 1 + w))
    spectra = kernel_spectra(bank.params, fshape)
    parts = spectra.reshape(-1, *spectrum.shape)  # kernel p's parts at 2p, 2p + 1
    scale = 1.0 / (fshape[0] * fshape[1])
    part = spectrum.nbytes  # one kernel part's product
    kernels = max(1, STACK_BYTES // (2 * part))  # per stack
    per_call = 2 * kernels if 2 * part <= STACK_BYTES else 1  # parts

    def inverse(product: np.ndarray, out: np.ndarray) -> None:
        # The two passes of an unscaled inverse real FFT over the last two
        # axes: columns, then each row on its own, so only the rows that
        # `valid` keeps. Then one multiply by 1/N, as scipy's backward norm
        # does (numpy's default norm scales once per axis); 1/N rounded
        # from double equals scipy's from long double for every 5-smooth N
        # up to 1e12.
        rows = np.fft.ifft(product, axis=-2, norm="forward")[..., valid[0], :]
        np.multiply(np.fft.irfft(rows, fshape[1], axis=-1, norm="forward")[..., valid[1]],
                    scale, out=out)

    def filter_planes(lo: int, hi: int) -> None:
        out = np.empty((2 * min(kernels, hi - lo), h, w))
        for p in range(lo, hi, kernels):
            n = 2 * (min(p + kernels, hi) - p)
            for i in range(0, n, per_call):
                j = min(i + per_call, n)
                inverse(spectrum * parts[2 * p + i : 2 * p + j], out[i:j])
            np.hypot(out[0:n:2], out[1:n:2], out=planes[p : p + n // 2])

    split(filter_planes, len(planes))
    return planes


def decompose_direct(image: np.ndarray, bank: GaborBank) -> np.ndarray:
    """:func:`decompose` by direct spatial convolution, its test oracle:
    two real passes per kernel, then ``hypot``."""
    image = np.asarray(image, dtype=np.float64)
    check_fits(image.shape, bank.params)
    padded = np.pad(image, (bank.params.window_len - 1) // 2, mode="symmetric")
    planes = np.empty((len(bank.kernels), *image.shape))
    for p, kernel in enumerate(bank.kernels):
        re = _conv_direct(padded, kernel.real, image.shape)
        im = _conv_direct(padded, kernel.imag, image.shape)
        planes[p] = np.hypot(re, im)
    return planes
