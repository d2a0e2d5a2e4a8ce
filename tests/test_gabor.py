import math

import numpy as np
import pytest

from lglg import gabor, parallel
from lglg.errors import ConfigError, ImageTooSmall, InvalidIndex
from lglg.gabor import GaborParams, build_bank, build_kernel, decompose


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


class TestBuildKernel:
    def test_dc_free_all_kernels(self):
        for k in build_bank(params_8x5()):
            norm = np.linalg.norm(k.real)
            assert abs(k.real.sum()) < 1e-8 * norm

    def test_imag_antisymmetric(self):
        for k in build_bank(params_8x5()):
            norm = math.hypot(np.linalg.norm(k.real), np.linalg.norm(k.imag))
            assert np.max(np.abs(k.imag + np.rot90(k.imag, 2))) < 1e-12 * norm
            assert abs(k.imag.sum()) < 1e-8 * norm

    def test_quarter_turn_relates_orthogonal_directions(self):
        p = params_8x5()
        for v in (1, 3):
            k0 = build_kernel(p, 1, v)
            k90 = build_kernel(p, 1 + p.directions // 2, v)
            # rotating the grid clockwise by 90 degrees maps direction 1 onto 1+U/2
            assert np.max(np.abs(np.rot90(k0.real, 3) - k90.real)) < 1e-10
            assert np.max(np.abs(np.rot90(k0.imag, 3) - k90.imag)) < 1e-10

    def test_scale_spacing(self):
        p = params_8x5()
        assert gabor.wave_number(p, 1) / gabor.wave_number(p, 2) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_invalid_indices(self):
        p = params_8x5()
        with pytest.raises(InvalidIndex):
            build_kernel(p, 0, 1)
        with pytest.raises(InvalidIndex):
            build_kernel(p, 1, 6)


class TestBuildBank:
    @pytest.mark.parametrize(
        "u,v,expected", [(8, 4, 32), (8, 5, 40), (1, 1, 1)]
    )
    def test_bank_sizes(self, u, v, expected):
        bank = build_bank(GaborParams(directions=u, scales=v))
        assert len(bank) == expected

    def test_ordering_scale_major(self):
        bank = build_bank(GaborParams(directions=3, scales=2))
        assert [(k.u, k.v) for k in bank] == [
            (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)
        ]


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
        fft = decompose(image, bank, method="fft")
        direct = decompose(image, bank, method="direct")
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

    wl = bank[0].real.shape[0]
    padded = np.pad(image, (wl - 1) // 2, mode="symmetric")
    planes = np.empty((len(bank), *image.shape))
    for p, kernel in enumerate(bank):
        re = fftconvolve(padded, kernel.real[::-1, ::-1], mode="valid")
        im = fftconvolve(padded, kernel.imag[::-1, ::-1], mode="valid")
        planes[p] = np.hypot(re, im)
    return planes


class TestDecomposeBitwise:
    @pytest.mark.parametrize("shape", [(64, 64), (37, 50)])
    @pytest.mark.parametrize(
        "params", [GaborParams(), GaborParams(directions=3, scales=2, window_len=7)],
        ids=["8x4-w9", "3x2-w7"],
    )
    def test_equals_per_kernel_fftconvolve(self, rng, shape, params):
        bank = build_bank(params)
        for image in (rng.uniform(0.0, 1.0, shape), 3.0 * rng.standard_normal(shape)):
            assert np.array_equal(decompose(image, bank), fftconvolve_reference(image, bank))


class TestDecomposeCores:
    @pytest.mark.parametrize("cores", [2, 3, 4])
    def test_split_equals_one_thread(self, rng, monkeypatch, cores):
        # 128x128 planes split without lowering MIN_SPLIT_PIXELS; the 15
        # planes of a 5x3 bank divide by neither 2 nor 4 cores
        bank = build_bank(GaborParams(directions=5, scales=3))
        image = rng.uniform(0.0, 1.0, (128, 128))
        monkeypatch.setattr(parallel, "CORES", 1)
        one = decompose(image, bank)
        monkeypatch.setattr(parallel, "CORES", cores)
        assert decompose(image, bank).tobytes() == one.tobytes()
        assert decompose(image, bank).tobytes() == fftconvolve_reference(image, bank).tobytes()

    @pytest.mark.parametrize("shape, split", [((64, 64), False), ((127, 129), False), ((128, 128), True)])
    def test_splits_from_min_split_pixels(self, monkeypatch, shape, split):
        monkeypatch.setattr(parallel, "CORES", 2)
        calls = []
        monkeypatch.setattr(gabor, "split", lambda fn, n: calls.append(n) or fn(0, n))
        decompose(np.zeros(shape), build_bank(GaborParams()))
        assert calls == ([32] if split else [])


class TestCaches:
    def test_bank_memoized_by_value(self):
        assert build_bank(GaborParams(directions=3, scales=2)) is build_bank(
            GaborParams(directions=3, scales=2)
        )
        assert build_bank(GaborParams(directions=3, scales=2)) is not build_bank(
            GaborParams(directions=3, scales=2, window_len=7)
        )

    def test_bank_arrays_read_only(self):
        for k in build_bank(GaborParams()):
            assert not k.real.flags.writeable and not k.imag.flags.writeable
        with pytest.raises(ValueError):
            build_bank(GaborParams())[0].real[0, 0] = 1.0

    def test_spectra_read_only_and_memoized(self):
        p = GaborParams(directions=3, scales=2, window_len=7)
        spectra = gabor.kernel_spectra(p, (48, 60))
        assert spectra.shape == (6, 2, 48, 31)
        assert not spectra.flags.writeable
        with pytest.raises(ValueError):
            spectra[0, 0, 0, 0] = 0.0
        assert gabor.kernel_spectra(GaborParams(directions=3, scales=2, window_len=7), (48, 60)) is spectra
