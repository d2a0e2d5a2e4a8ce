import math
import re
import tracemalloc

import numpy as np
import pytest

from lglg import gabor, parallel
from lglg.config import RunConfig
from lglg.descriptor import image_feature, keypoint_blocks, partition_blocks
from lglg.errors import ConfigError, ImageTooSmall, LglgError
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
    # radices 2, 3 and 5 mixed, and odd lengths; then 180x180 and 288x288.
    # The 15 kernels of 5x3 are an odd count, and the 128 kernels of the
    # largest bank, at window 31, check its spectra
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


def union_box(rects, block_size):
    """(top, left, bottom, right) around the blocks at these corners."""
    tops, lefts = zip(*rects)
    return min(tops), min(lefts), max(tops) + block_size, max(lefts) + block_size


class TestDecomposeWindow:
    """A window's planes are the whole image's cut to it, byte for byte,
    whatever the cores."""

    @pytest.mark.parametrize("shape", [(64, 64), (37, 50), (100, 81)])
    @pytest.mark.parametrize(
        "params", [GaborParams(), GaborParams(directions=5, scales=3)], ids=["8x4-w9", "5x3-w9"]
    )
    def test_window_equals_whole_image_cut(self, rng, monkeypatch, shape, params):
        bank = build_bank(params)
        image = rng.uniform(0.0, 1.0, shape)
        h, w = shape
        monkeypatch.setattr(parallel, "CORES", 1)
        whole = decompose(image, bank)
        # the grid's box at each block size, the box of key points some of
        # which clamp at the edges, and the far 1x1 corner
        windows = [union_box(partition_blocks(shape, bs), bs) for bs in (7, 11, 15, 21)]
        points = [(-3.0, 5.0), (w / 2, h + 4.0), (12.5, 20.0)]
        windows += [union_box(keypoint_blocks(shape, points, 11), 11), (h - 1, w - 1, h, w)]
        for t, l, b, r in windows:
            cut = whole[:, t:b, l:r].tobytes()
            for cores in (1, 2, 3):
                monkeypatch.setattr(parallel, "CORES", cores)
                planes = decompose(image, bank, window=(t, l, b, r))
                assert planes.shape == (params.num_subbands, b - t, r - l)
                assert planes.tobytes() == cut, ((t, l, b, r), cores)

    @pytest.mark.parametrize(
        "window", [(5, 5, 5, 20), (5, 5, 20, 5), (20, 5, 10, 30), (5, 30, 40, 10),
                   (-1, 0, 10, 10), (0, 0, 65, 64), (0, 0, 64, 65)],
        ids=["no-rows", "no-cols", "rows-reversed", "cols-reversed", "above", "below", "right"],
    )
    def test_bad_window_refused(self, window):
        with pytest.raises(LglgError, match=re.escape(f"window {window}")):
            decompose(np.zeros((64, 64)), build_bank(GaborParams()), window=window)

    @pytest.mark.parametrize("fshape", [(108, 54), (80, 80), (75, 135), (288, 288)])
    def test_scaled_row_inverse_equals_numpy_irfft(self, rng, fshape):
        # decompose's row inverse calls the private gufunc that np.fft.irfft
        # calls, with 1/N as its scale: it must equal the public call times
        # 1/N, on strided rows as decompose passes them
        n = fshape[1]
        x = rng.standard_normal((3, 20, n // 2 + 1)) + 1j * rng.standard_normal((3, 20, n // 2 + 1))
        rows = x[:, 2:17]
        scale = 1.0 / (fshape[0] * fshape[1])
        out = np.empty((3, 15, n))
        gabor._irfft(rows, scale, axes=[(-1,), (), (-1,)], out=out)
        public = np.multiply(np.fft.irfft(rows, n, axis=-1, norm="forward"), scale)
        assert out.tobytes() == public.tobytes()

    @pytest.mark.parametrize("fshape", [(64, 64), (80, 80), (180, 180), (288, 288)])
    def test_in_place_column_inverse_equals_out_of_place(self, rng, fshape):
        # decompose's column inverse writes into its input: numpy must give
        # the bytes of the call that writes elsewhere, at the FFT shapes of
        # 48², 64², 160² and 256² images under window 9
        f0, f1 = fshape
        shape = (2, f0, f1 // 2 + 1)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out_of_place = np.fft.ifft(a, axis=-2, norm="forward")
        np.fft.ifft(a, axis=-2, norm="forward", out=a)
        assert a.tobytes() == out_of_place.tobytes()


class TestNextFastLen:
    def test_equals_scipy_real_fast_len(self):
        from scipy.fft import next_fast_len

        assert [gabor.next_fast_len(n) for n in range(1, 5001)] == [
            next_fast_len(n, real=True) for n in range(1, 5001)
        ]

    def test_fft_shape_is_one_tuple_for_any_integer_sequence(self):
        # numpy integers first, so that they are what the memo holds if it
        # keeps its key's types
        gabor._fft_shape.cache_clear()
        shapes = [np.array([64, 48]), (np.int64(64), np.int32(48)), [64, 48], (64, 48)]
        got = [gabor.fft_shape(shape, np.int64(9)) for shape in shapes]
        assert got == [(80, 64)] * 4
        assert all(type(s) is tuple and {type(n) for n in s} == {int} for s in got)
        assert gabor._fft_shape.cache_info().currsize == 1


class TestDecomposeCores:
    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_split_equals_one_thread(self, rng, monkeypatch, cores):
        # the 15 planes of a 5x3 bank divide by neither 2 nor 4 cores
        bank = build_bank(GaborParams(directions=5, scales=3))
        for shape in [(128, 128), (64, 64), (37, 50)]:
            image = rng.uniform(0.0, 1.0, shape)
            reference = fftconvolve_reference(image, bank).tobytes()
            monkeypatch.setattr(parallel, "CORES", 1)
            one = decompose(image, bank).tobytes()
            monkeypatch.setattr(parallel, "CORES", cores)
            split = decompose(image, bank).tobytes()
            assert split == one and split == reference, shape

    @pytest.mark.parametrize("size", [48, 64, 160, 256])
    def test_one_kernel_per_pass(self, monkeypatch, size):
        # on one thread, the 15 kernels of a 5x3 bank: one column transform
        # per kernel, of its two parts, written into its input
        monkeypatch.setattr(parallel, "CORES", 1)
        calls = []
        ifft = np.fft.ifft

        def recording(a, **kw):
            calls.append((a.shape[0], kw.get("out") is a))
            return ifft(a, **kw)

        monkeypatch.setattr(np.fft, "ifft", recording)
        decompose(np.zeros((size, size)), build_bank(GaborParams(directions=5, scales=3)))
        assert calls == [(2, True)] * 15


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
