import math
import tracemalloc

import numpy as np
import pytest

from lglg import gabor, parallel
from lglg.config import RunConfig
from lglg.descriptor import image_feature
from lglg.errors import ConfigError, ImageTooSmall
from lglg.gabor import GaborParams, build_bank, decompose, decompose_direct


def params_8x5():
    return GaborParams(directions=8, scales=5, sigma=1.2 * math.pi, window_len=9)


def grating(size, angle, freq, phase=0.0):
    c = np.arange(size, dtype=float)
    x, y = np.meshgrid(c, c, indexing="xy")
    return np.cos(freq * (math.cos(angle) * x + math.sin(angle) * y) + phase)


class TestParams:
    def test_rejects_even_window(self):
        with pytest.raises(ConfigError):
            GaborParams(window_len=8)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ConfigError):
            GaborParams(spacing=1.0)

    def test_num_subbands(self):
        assert params_8x5().num_subbands == 40

    @pytest.mark.parametrize("directions,scales", [(17, 4), (8, 9), (0, 4), (8, 0)])
    def test_rejects_bank_out_of_bounds(self, directions, scales):
        with pytest.raises(ConfigError, match=r"directions must be in 1\.\.16 and scales in 1\.\.8"):
            GaborParams(directions=directions, scales=scales)

    def test_accepts_largest_bank(self):
        assert GaborParams(directions=16, scales=8).num_subbands == 128

    def test_shape_bounds_are_inclusive(self):
        lo, hi = (x * math.pi for x in gabor.SHAPE_RANGE_PI)
        for sigma, k_max in [(lo, hi), (hi, lo)]:
            GaborParams(sigma=sigma, k_max=k_max, spacing=gabor.MAX_SPACING)
        for field, value in [("sigma", lo * 0.999), ("k_max", hi * 1.001),
                             ("spacing", gabor.MAX_SPACING * 1.001)]:
            with pytest.raises(ConfigError):
                GaborParams(**{field: value})


class TestBuildKernel:
    def test_dc_free_all_kernels(self):
        for k in build_bank(params_8x5()).kernels:
            norm = np.linalg.norm(k.real)
            assert abs(k.real.sum()) < 1e-8 * norm

    def test_imag_antisymmetric(self):
        for k in build_bank(params_8x5()).kernels:
            norm = math.hypot(np.linalg.norm(k.real), np.linalg.norm(k.imag))
            assert np.max(np.abs(k.imag + np.rot90(k.imag, 2))) < 1e-12 * norm
            assert abs(k.imag.sum()) < 1e-8 * norm

    def test_quarter_turn_relates_orthogonal_directions(self):
        p = params_8x5()
        kernels = build_bank(p).kernels
        for v in (1, 3):
            k0 = kernels[(v - 1) * p.directions]
            k90 = kernels[(v - 1) * p.directions + p.directions // 2]
            # rotating the grid clockwise by 90 degrees maps direction 1 onto 1+U/2
            assert np.max(np.abs(np.rot90(k0.real, 3) - k90.real)) < 1e-10
            assert np.max(np.abs(np.rot90(k0.imag, 3) - k90.imag)) < 1e-10

    def test_scale_spacing(self):
        p = params_8x5()
        assert gabor.wave_number(p, 1) / gabor.wave_number(p, 2) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )


class TestBuildBank:
    @pytest.mark.parametrize(
        "u,v,expected", [(8, 4, 32), (8, 5, 40), (1, 1, 1)]
    )
    def test_bank_sizes(self, u, v, expected):
        bank = build_bank(GaborParams(directions=u, scales=v))
        assert bank.kernels.shape == (expected, 9, 9) and bank.kernels.dtype == np.complex128

    def test_ordering_scale_major(self):
        p = GaborParams(directions=3, scales=2)
        kernels = build_bank(p).kernels
        order = [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]
        assert len(kernels) == len(order)
        for k, (u, v) in zip(kernels, order):
            assert np.array_equal(k, gabor._kernel(p, u, v))


class TestDecompose:
    def test_constant_image_all_zero(self):
        bank = build_bank(GaborParams())
        planes = decompose(np.full((32, 32), 0.7), bank)
        assert planes.shape == (32, 32, 32)[:1] + (32, 32)
        assert np.max(planes) < 1e-6 * 0.7

    def test_image_too_small(self):
        bank = build_bank(GaborParams(window_len=9))
        with pytest.raises(ImageTooSmall):
            decompose(np.zeros((8, 20)), bank)

    def test_fft_matches_direct(self, rng):
        bank = build_bank(GaborParams())
        image = rng.standard_normal((64, 64))
        fft = decompose(image, bank)
        direct = decompose_direct(image, bank)
        assert np.max(np.abs(fft - direct)) < 1e-8

    def test_grating_peaks_in_matched_plane(self):
        # window 21 keeps truncation negligible at these frequencies; the
        # 9-pixel production window clips the envelope hard enough to skew
        # the between-scale response ordering
        p = GaborParams(directions=8, scales=4, window_len=21)
        bank = build_bank(p)
        for u, v in [(1, 1), (3, 2), (6, 3), (8, 4)]:
            image = grating(64, gabor.orientation(p, u), gabor.wave_number(p, v))
            planes = decompose(image, bank)
            means = planes.mean(axis=(1, 2))
            assert int(np.argmax(means)) == (v - 1) * p.directions + (u - 1)

    def test_translation_covariance_interior(self, rng):
        bank = build_bank(GaborParams())
        image = rng.standard_normal((48, 48))
        dy, dx = 3, 5
        shifted = np.roll(np.roll(image, dy, axis=0), dx, axis=1)
        a = decompose(image, bank)
        b = decompose(shifted, bank)
        m = 12  # margin covering kernel radius plus the shift
        interior_a = a[:, m : 48 - m - dy, m : 48 - m - dx]
        interior_b = b[:, m + dy : 48 - m, m + dx : 48 - m]
        assert np.max(np.abs(interior_a - interior_b)) < 1e-8

    def test_contrast_negation_invariance(self, rng):
        bank = build_bank(GaborParams())
        image = rng.standard_normal((40, 40))
        image -= image.mean()
        a = decompose(image, bank)
        b = decompose(-image, bank)
        assert np.max(np.abs(a - b)) < 1e-8


def fftconvolve_reference(image, bank):
    """The per-kernel path the shared-spectrum FFT path replaced: two
    ``scipy.signal.fftconvolve`` calls per kernel, then the magnitude."""
    from scipy.signal import fftconvolve

    wl = bank.params.window_len
    padded = np.pad(image, (wl - 1) // 2, mode="symmetric")
    planes = np.empty((len(bank.kernels), *image.shape))
    for p, kernel in enumerate(bank.kernels):
        re = fftconvolve(padded, kernel.real[::-1, ::-1], mode="valid")
        im = fftconvolve(padded, kernel.imag[::-1, ::-1], mode="valid")
        planes[p] = np.hypot(re, im)
    return planes


class TestDecomposeBitwise:
    # FFT lengths (8x4-w9): 80x80, 54x72, 108x54, 120x100, 75x135, so
    # radices 2, 3 and 5 mixed, and odd lengths; then 180x180 and 288x288,
    # where a stack holds one kernel part. The 15 kernels of 5x3 fill no
    # whole number of stacks of two kernels (64x64) or three (37x50). The
    # 128 kernels of the largest bank, at window 31, check its spectra
    @pytest.mark.parametrize("shape", [(64, 64), (37, 50), (91, 37), (100, 81), (59, 117),
                                       (160, 160), (256, 256)])
    @pytest.mark.parametrize(
        "params", [GaborParams(), GaborParams(directions=3, scales=2, window_len=7),
                   GaborParams(directions=5, scales=3),
                   GaborParams(directions=16, scales=8, window_len=31)],
        ids=["8x4-w9", "3x2-w7", "5x3-w9", "16x8-w31"],
    )
    def test_equals_per_kernel_fftconvolve(self, rng, shape, params):
        bank = build_bank(params)
        for image in (rng.uniform(0.0, 1.0, shape), 3.0 * rng.standard_normal(shape)):
            assert np.array_equal(decompose(image, bank), fftconvolve_reference(image, bank))


class TestNextFastLen:
    def test_equals_scipy_real_fast_len(self):
        from scipy.fft import next_fast_len

        assert [gabor.next_fast_len(n) for n in range(1, 5001)] == [
            next_fast_len(n, real=True) for n in range(1, 5001)
        ]


class TestDecomposeCores:
    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_split_equals_one_thread(self, rng, monkeypatch, cores):
        # the 15 planes of a 5x3 bank divide by neither 2 nor 4 cores. Each
        # shape runs with one kernel part per inverse FFT call, then each
        # thread's whole range in one call
        bank = build_bank(GaborParams(directions=5, scales=3))
        for shape in [(128, 128), (64, 64), (37, 50)]:
            image = rng.uniform(0.0, 1.0, shape)
            reference = fftconvolve_reference(image, bank).tobytes()
            for stack_bytes in (0, 2**40):
                monkeypatch.setattr(gabor, "STACK_BYTES", stack_bytes)
                monkeypatch.setattr(parallel, "CORES", 1)
                one = decompose(image, bank).tobytes()
                monkeypatch.setattr(parallel, "CORES", cores)
                split = decompose(image, bank).tobytes()
                assert split == one and split == reference, (shape, stack_bytes)

    # one kernel part of a 64x64 image's 80x80 FFT: 80 * 41 complex values
    PART_64 = 80 * 41 * 16

    @pytest.mark.parametrize(
        "shape, stack_bytes, calls",
        [((64, 64), None, [4] * 7 + [2]),  # 4.99 parts fit: two kernels a stack
         ((64, 64), 3 * PART_64, [2] * 15),  # 3 parts: one kernel
         ((64, 64), PART_64, [1] * 30),  # 1 part: one kernel, its parts apart
         ((64, 64), 0, [1] * 30),  # none: still one part
         ((64, 64), 2**40, [30]),  # all of them: the whole range
         ((160, 160), None, [1] * 30),  # 180x180 FFT, 262080 bytes a part
         ((256, 256), None, [1] * 30)],
        ids=["64-default", "64-three-parts", "64-one-part", "64-zero", "64-whole-range",
             "160-default", "256-default"],
    )
    def test_parts_per_call_follow_stack_bytes(self, monkeypatch, shape, stack_bytes, calls):
        # the leading length of every column transform, on one thread, for
        # the 15 kernels of a 5x3 bank
        monkeypatch.setattr(parallel, "CORES", 1)
        if stack_bytes is not None:
            monkeypatch.setattr(gabor, "STACK_BYTES", stack_bytes)
        leading = []
        ifft = np.fft.ifft
        monkeypatch.setattr(
            np.fft, "ifft", lambda a, **kw: leading.append(a.shape[0]) or ifft(a, **kw)
        )
        decompose(np.zeros(shape), build_bank(GaborParams(directions=5, scales=3)))
        assert leading == calls


class TestCaches:
    def test_bank_memoized_by_value(self):
        assert build_bank(GaborParams(directions=3, scales=2)) is build_bank(
            GaborParams(directions=3, scales=2)
        )
        assert build_bank(GaborParams(directions=3, scales=2)) is not build_bank(
            GaborParams(directions=3, scales=2, window_len=7)
        )

    def test_bank_arrays_read_only(self):
        kernels = build_bank(GaborParams()).kernels
        assert not kernels.flags.writeable
        with pytest.raises(ValueError):
            kernels[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            kernels[0].real[0, 0] = 1.0

    def test_spectra_read_only_and_memoized(self):
        p = GaborParams(directions=3, scales=2, window_len=7)
        spectra = gabor.kernel_spectra(p, (48, 60))
        assert spectra.shape == (6, 2, 48, 31)
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0, 0, 0] = 0.0
        assert gabor.kernel_spectra(GaborParams(directions=3, scales=2, window_len=7), (48, 60)) is spectra

    def test_one_spectra_set_held_across_fft_shapes(self, rng, monkeypatch):
        # four image sizes, four FFT shapes: after the last image only its
        # spectra stay cached (7.5 MB at 96², 20 MB for all four sets)
        monkeypatch.setattr(parallel, "CORES", 1)
        config = RunConfig()
        images = [rng.uniform(0.0, 1.0, (n, n)) for n in (64, 72, 80, 96)]
        gabor.kernel_spectra.cache_clear()
        tracemalloc.start()
        try:
            for image in images:
                image_feature(image, config)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gabor.kernel_spectra.cache_info().currsize == 1
        params = config.gabor_params()
        last = gabor.kernel_spectra(params, gabor.fft_shape((96, 96), params.window_len))
        assert gabor.kernel_spectra.cache_info().hits == 1
        assert held <= last.nbytes + 2**20
