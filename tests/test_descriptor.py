import dataclasses
import math
import threading

import numpy as np
import pytest
import scipy.linalg

from conftest import random_spd
from lglg import descriptor, gabor, parallel, pipeline, spd
from lglg.config import RunConfig
from lglg.descriptor import (
    GaussianDescriptor,
    block_feature,
    block_features,
    estimate_gaussian,
    image_feature,
    keypoint_blocks,
    partition_blocks,
    subbands,
)
from lglg.errors import (
    BlockTooLarge,
    ImageTooSmall,
    KeypointError,
    NonFinite,
    NotPositiveDefinite,
    TooFewSamples,
)
from lglg.formats import load_keypoints, write_pgm
from lglg.gabor import build_bank, decompose
from lglg.preprocess import preprocess_chain


class TestPartitionBlocks:
    def test_128_by_15(self):
        rects = partition_blocks((128, 128), 15)
        assert len(rects) == 64
        assert rects[0] == (4, 4) and rects[-1] == (109, 109)

    def test_exact_fit(self):
        assert partition_blocks((13, 13), 13) == [(0, 0)]

    def test_block_too_large(self):
        with pytest.raises(BlockTooLarge):
            partition_blocks((10, 40), 13)

    def test_blocks_inside_image(self):
        rects = partition_blocks((61, 47), 13)
        for top, left in rects:
            assert 0 <= top and top + 13 <= 61
            assert 0 <= left and left + 13 <= 47
        # 4 rows x 3 columns, row-major, margins 9 and 8 split floor-first
        assert rects == [(top, left) for top in (4, 17, 30, 43) for left in (4, 17, 30)]


class TestKeypointBlocks:
    def test_centered(self):
        rects = keypoint_blocks((64, 64), [(32.0, 32.0)], 22)
        assert rects == [(21, 21)]

    def test_clamped_to_corner(self):
        rects = keypoint_blocks((64, 64), [(0.0, 0.0)], 22)
        assert rects == [(0, 0)]

    def test_21_points(self):
        points = [(float(5 + 2 * i), float(10 + i)) for i in range(21)]
        rects = keypoint_blocks((64, 64), points, 22)
        assert len(rects) == 21
        for top, left in rects:
            assert 0 <= top <= 64 - 22 and 0 <= left <= 64 - 22

    def test_block_too_large(self):
        with pytest.raises(BlockTooLarge):
            keypoint_blocks((20, 20), [(10.0, 10.0)], 22)


class TestLoadKeypoints:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("3 4\n5.5 6.25\n")
        assert load_keypoints(str(p)) == [(3.0, 4.0), (5.5, 6.25)]

    @pytest.mark.parametrize("text", ["", "\n \n\t\n"], ids=["empty", "blank_lines"])
    def test_no_points(self, tmp_path, text):
        p = tmp_path / "a.txt"
        p.write_text(text)
        with pytest.raises(KeypointError, match=f"{p}: no points"):
            load_keypoints(str(p))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("3 4 5\n")
        with pytest.raises(KeypointError):
            load_keypoints(str(p))

    @pytest.mark.parametrize("line", ["nan 3", "3 inf", "-inf 2"])
    def test_non_finite_coordinate(self, tmp_path, line):
        p = tmp_path / "a.txt"
        p.write_text(f"1 2\n{line}\n")
        with pytest.raises(KeypointError, match=f"{p}:2: non-finite"):
            load_keypoints(str(p))


class TestEstimateGaussian:
    def test_identical_pixels(self):
        stack = np.tile(np.array([1.0, 2.0, 3.0])[:, None, None], (1, 4, 4))
        g = estimate_gaussian(stack)
        assert np.allclose(g.mu, [1.0, 2.0, 3.0])
        # trace of the zero covariance is zero, so the ridge is zero too
        assert np.array_equal(g.cov, np.zeros((3, 3)))

    def test_covariance_shape_40_subbands(self, rng):
        g = estimate_gaussian(rng.uniform(0.0, 1.0, (40, 15, 15)))
        assert g.cov.shape == (40, 40)

    def test_double_loop_oracle(self, rng):
        stack = rng.uniform(0.0, 1.0, (6, 8, 8))
        g = estimate_gaussian(stack, ridge_scale=0.0)
        samples = stack.reshape(6, -1).T
        n = samples.shape[0]
        mu = np.zeros(6)
        for s in samples:
            mu += s
        mu /= n
        cov = np.zeros((6, 6))
        for s in samples:
            cov += np.outer(s - mu, s - mu)
        cov /= n
        assert np.max(np.abs(g.mu - mu)) < 1e-12
        assert np.max(np.abs(g.cov - cov)) < 1e-12

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            estimate_gaussian(np.zeros((3, 1, 1)))


class TestBlockFeature:
    def test_standard_normal_is_zero(self):
        g = GaussianDescriptor(mu=np.zeros(5), cov=np.eye(5))
        assert np.allclose(block_feature(g), 0.0, atol=1e-12)

    def test_length_for_40_subbands(self, rng):
        g = GaussianDescriptor(mu=rng.standard_normal(40), cov=random_spd(rng, 40))
        assert block_feature(g).shape == (41 * 42 // 2,)

    def test_distance_matches_embedded_frobenius(self, rng):
        def embed_oracle(g):
            d = g.mu.shape[0]
            m = np.empty((d + 1, d + 1))
            m[:d, :d] = g.cov + np.outer(g.mu, g.mu)
            m[:d, d] = g.mu
            m[d, :d] = g.mu
            m[d, d] = 1.0
            return scipy.linalg.logm(scipy.linalg.sqrtm(m))

        g1 = GaussianDescriptor(mu=rng.standard_normal(8), cov=random_spd(rng, 8))
        g2 = GaussianDescriptor(mu=rng.standard_normal(8), cov=random_spd(rng, 8))
        expected = np.linalg.norm(embed_oracle(g1) - embed_oracle(g2), "fro")
        got = np.linalg.norm(block_feature(g1) - block_feature(g2))
        assert abs(got - expected) < 1e-12


class TestImageFeature:
    def test_grid_length(self, rng):
        cfg = RunConfig(directions=8, scales=5, block_size=15)
        image = rng.uniform(0.0, 1.0, (64, 64))
        feat = image_feature(image, cfg)
        # 4x4 grid of blocks, d=40 subbands -> 16 * 861
        assert feat.shape == (16 * 861,)

    def test_keypoint_length(self, rng):
        cfg = RunConfig(directions=8, scales=5, mode="keypoint", block_size=22)
        image = rng.uniform(0.0, 1.0, (64, 64))
        points = [(float(10 + 2 * i), float(8 + 2 * i)) for i in range(21)]
        feat = image_feature(image, cfg, keypoints=points)
        assert feat.shape == (21 * 861,)

    def test_keypoint_mode_requires_points(self, rng):
        cfg = RunConfig(mode="keypoint")
        with pytest.raises(KeypointError):
            image_feature(rng.uniform(0.0, 1.0, (64, 64)), cfg)

    def test_deterministic_bitwise(self, rng):
        cfg = RunConfig()
        image = rng.uniform(0.0, 1.0, (64, 64))
        assert np.array_equal(image_feature(image, cfg), image_feature(image.copy(), cfg))

    def test_subband_permutation_invariance(self, rng):
        # permuting subband order conjugates each Gaussian identically, so
        # feature distances between two stacks are unchanged
        stack1 = rng.uniform(0.0, 1.0, (6, 10, 10))
        stack2 = rng.uniform(0.0, 1.0, (6, 10, 10))
        perm = rng.permutation(6)

        def feat(stack):
            return block_feature(estimate_gaussian(stack))

        d0 = np.linalg.norm(feat(stack1) - feat(stack2))
        d1 = np.linalg.norm(feat(stack1[perm]) - feat(stack2[perm]))
        assert abs(d0 - d1) < 1e-10


class TestSubbandSplit:
    @pytest.mark.parametrize("cfg, points", [
        (RunConfig(block_size=11), None),
        (RunConfig(mode="keypoint", block_size=22), [(30.0, 30.0), (0.0, 63.0), (12.5, 40.0)]),
    ])
    def test_composition_equals_image_feature(self, rng, cfg, points):
        image = rng.uniform(0.0, 1.0, (64, 64))
        planes = subbands(image, cfg)
        assert planes.shape == (cfg.directions * cfg.scales, 64, 64)
        assert np.array_equal(block_features(planes, cfg, points), image_feature(image, cfg, points))


class TestSubbandsChecksFirst:
    def test_window_checked_before_the_bank_is_built(self, monkeypatch):
        def fail(params):
            raise AssertionError("kernel bank built for an image it cannot filter")

        monkeypatch.setattr(descriptor, "build_bank", fail)
        with pytest.raises(ImageTooSmall, match="smaller than kernel support 301"):
            image_feature(np.zeros((32, 32)), RunConfig(window_len=301))


def feature_bytes(monkeypatch, cores, image, cfg, points=None):
    """``image_feature``'s bytes with ``cores`` threads per split; no thread
    outlives the call."""
    monkeypatch.setattr(parallel, "CORES", cores)
    threads = threading.active_count()
    feature = image_feature(image, cfg, points)
    assert threading.active_count() == threads
    return feature.tobytes()


class TestCoresBitwise:
    """Extraction split across threads equals one thread's, byte for byte."""

    @pytest.mark.parametrize("cores", [2, 3])
    def test_grid_blocks_split_unevenly(self, rng, monkeypatch, cores):
        # 196 blocks split once: 98+98 blocks (three stacks of 32 and one of
        # 2 per thread) or 65+65+66
        cfg = RunConfig(block_size=7)
        image = rng.uniform(0.0, 1.0, (100, 100))
        one = feature_bytes(monkeypatch, 1, image, cfg)
        assert feature_bytes(monkeypatch, cores, image, cfg) == one

    @pytest.mark.parametrize("cores", [2, 3])
    def test_grid_everything_split(self, rng, monkeypatch, cores):
        # planes and blocks split in `cores` parts at 40x40 (25 blocks) as
        # at 100x100, whatever the plane size
        parts = []

        def recording(fn, n):
            out = parallel.split(fn, n)
            parts.append(len(out))
            return out

        monkeypatch.setattr(gabor, "split", recording)
        monkeypatch.setattr(descriptor, "split", recording)
        cfg = RunConfig(block_size=7)
        for shape in [(100, 100), (40, 40)]:
            image = rng.uniform(0.0, 1.0, shape)
            one = feature_bytes(monkeypatch, 1, image, cfg)
            parts.clear()
            assert feature_bytes(monkeypatch, cores, image, cfg) == one, shape
            assert parts == [cores, cores], shape

    @pytest.mark.parametrize("cores", [2, 3])
    def test_keypoint_mode(self, rng, monkeypatch, cores):
        cfg = RunConfig(mode="keypoint", block_size=15)
        image = rng.uniform(0.0, 1.0, (64, 64))
        points = [(float(3 * i), float(2 * i + 5)) for i in range(21)]
        one = feature_bytes(monkeypatch, 1, image, cfg, points)
        assert feature_bytes(monkeypatch, cores, image, cfg, points) == one

    @pytest.mark.parametrize("cores", [2, 4])
    def test_bank_not_divisible_by_cores(self, rng, monkeypatch, cores):
        # 15 subbands: 8+7 planes on 2 cores, 3+4+4+4 on 4
        cfg = RunConfig(directions=5, scales=3, block_size=11)
        image = rng.uniform(0.0, 1.0, (64, 64))
        one = feature_bytes(monkeypatch, 1, image, cfg)
        assert feature_bytes(monkeypatch, cores, image, cfg) == one


class TestWrappedNamesOnCallingThread:
    def test_split_extraction_calls_them_from_the_calling_thread_only(
        self, rng, tmp_path, monkeypatch
    ):
        # perfbench/layers.py wraps these names and keeps one span stack for
        # all threads, so a helper thread must never call one of them
        monkeypatch.setattr(parallel, "CORES", 2)
        idents = []

        def recorder(fn):
            def record(*args, **kwargs):
                idents.append(threading.get_ident())
                return fn(*args, **kwargs)

            return record

        wrapped = [
            (descriptor, ("preprocess_chain", "build_bank", "decompose",
                          "estimate_gaussian", "block_feature")),
            (pipeline, ("image_feature", "read_pgm")),
        ]
        for module, names in wrapped:
            for name in names:
                monkeypatch.setattr(module, name, recorder(getattr(module, name)))
        path = tmp_path / "probe.pgm"
        write_pgm(str(path), rng.integers(0, 256, (100, 100)))
        pipeline.extract_feature(str(path), RunConfig(block_size=7))
        assert len(idents) >= 5 and set(idents) == {threading.get_ident()}


class TestBlasHeldDuringSplitExtraction:
    """Every block stack runs at the one OpenBLAS thread that importing lglg
    sets, however the block list splits, and extraction leaves it so."""

    @pytest.fixture
    def blas(self, monkeypatch, blas_threads):
        """OpenBLAS thread count at each ``descriptor._gaussian`` call, on
        whichever thread runs the blocks."""
        monkeypatch.setattr(parallel, "CORES", 2)
        seen = []
        gaussian = descriptor._gaussian

        def recording(*args):
            seen.append(blas_threads())
            return gaussian(*args)

        monkeypatch.setattr(descriptor, "_gaussian", recording)
        assert blas_threads() == 1
        yield seen
        assert blas_threads() == 1

    def test_split_extraction_runs_one_blas_thread(self, rng, blas):
        image = rng.uniform(0.0, 1.0, (64, 64))
        image_feature(image, RunConfig())
        assert blas == [1, 1]  # two parts of 8 blocks
        with pytest.raises(KeypointError):
            image_feature(image, RunConfig(mode="keypoint"))

    def test_one_blas_thread_however_blocks_split(self, rng, blas):
        image = rng.uniform(0.0, 1.0, (64, 64))
        for block_size, parts in [(15, 2), (21, 2), (32, 2), (64, 1)]:  # 16, 9, 4 and 1 blocks
            blas.clear()
            image_feature(image, RunConfig(block_size=block_size))
            assert blas == [1] * parts

    def test_block_features_alone_holds_blas(self, rng, blas):
        planes = rng.uniform(0.0, 1.0, (4, 5, 5 * 64))  # 64 blocks: two parts of 32
        block_features(planes, RunConfig(block_size=5))
        assert blas == [1, 1]


@pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
class TestBlockBytesAcrossSplitsAndBlasThreads:
    """``block_features`` bytes do not depend on where the block list splits
    nor on the OpenBLAS thread count, and equal the per-block public path
    run outside any split."""

    @pytest.mark.parametrize("mode, block_size, n_blocks", [
        ("grid", 21, 9), ("grid", 15, 16), ("grid", 11, 25), ("grid", 9, 49),
        ("keypoint", 15, 9), ("keypoint", 15, 16), ("keypoint", 11, 25), ("keypoint", 9, 49),
    ])
    def test_same_bytes(self, rng, monkeypatch, mode, block_size, n_blocks):
        cfg = RunConfig(mode=mode, block_size=block_size)
        planes = rng.uniform(0.0, 1.0, (32, 64, 64))  # the default 8x4 bank
        points = None
        if mode == "keypoint":
            points = [(float(x), float(y)) for x, y in rng.uniform(-5.0, 69.0, (n_blocks, 2))]
            rects = keypoint_blocks((64, 64), points, block_size)
        else:
            rects = partition_blocks((64, 64), block_size)
        assert len(rects) == n_blocks
        set_ = parallel._OPENBLAS
        features = set()
        try:
            for threads in (1, 2):
                set_(threads)
                for cores in (1, 2, 3):
                    monkeypatch.setattr(parallel, "CORES", cores)
                    features.add(block_features(planes, cfg, points).tobytes())
                features.add(np.concatenate([
                    block_feature(estimate_gaussian(planes[:, t : t + block_size, l : l + block_size]))
                    for t, l in rects
                ]).tobytes())
        finally:
            set_(1)
        assert len(features) == 1


@pytest.fixture
def decompose_calls(monkeypatch):
    """Records the Gabor settings of every ``descriptor.decompose`` call."""
    calls = []

    def counting(image, bank):
        calls.append(bank.params)
        return decompose(image, bank)

    monkeypatch.setattr(descriptor, "decompose", counting)
    return calls


class TestSharingSubbands:
    def test_block_settings_share_one_stack(self, rng, decompose_calls):
        image = rng.uniform(0.0, 1.0, (64, 64))
        configs = [RunConfig(block_size=b, ridge_scale=r) for b in (11, 15, 21) for r in (1e-4, 0.1)]
        stacks = {}
        shared = [image_feature(image, c, stacks=stacks) for c in configs]
        assert len(decompose_calls) == 1
        alone = [image_feature(image, c) for c in configs]
        assert all(np.array_equal(a, b) for a, b in zip(shared, alone))

    def test_other_settings_recompute_and_replace_the_stack(self, rng, decompose_calls):
        image = rng.uniform(0.0, 1.0, (64, 64))
        stacks = {}
        for sigma_pi in (1.0, 1.2, 1.0):
            planes = subbands(image, RunConfig(sigma_pi=sigma_pi), stacks)
        assert len(decompose_calls) == 3
        assert len(stacks) == 1 and next(iter(stacks.values())) is planes

    def test_no_sharing_without_a_dict(self, rng, decompose_calls):
        image = rng.uniform(0.0, 1.0, (64, 64))
        image_feature(image, RunConfig())
        image_feature(image, RunConfig())
        assert len(decompose_calls) == 2


def gaussian_oracle(block, ridge_scale):
    """One block's Gaussian computed the way the per-block loop did before
    blocks were stacked, with 2-D arrays only."""
    d = block.shape[0]
    samples = block.reshape(d, -1).T
    n = samples.shape[0]
    mu = samples.mean(axis=0)
    centered = samples - mu
    cov = centered.T @ centered / n
    cov = 0.5 * (cov + cov.T)
    ridge = ridge_scale * np.trace(cov) / d
    return mu, cov + ridge * np.eye(d)


def per_block_oracle(block, ridge_scale):
    """One block's feature computed the way the per-block loop did before
    blocks were stacked: 2-D arrays only, eigenpairs reversed to descending
    order before the logarithm."""
    d = block.shape[0]
    mu, cov = gaussian_oracle(block, ridge_scale)
    cov = 0.5 * (cov + cov.T)
    m = np.empty((d + 1, d + 1))
    m[:d, :d] = cov + np.outer(mu, mu)
    m[:d, d] = mu
    m[d, :d] = mu
    m[d, d] = 1.0
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    w = np.maximum(w, 1e-12 * max(float(w[0]), 0.0))
    log_m = (v * np.log(w)) @ v.T
    b = 0.5 * (0.5 * (log_m + log_m.T))
    b = 0.5 * (b + b.T)
    il = np.tril_indices(d + 1)
    out = b[il].copy()
    out[il[0] != il[1]] *= math.sqrt(2.0)
    return out


def per_block_feature(image, cfg, keypoints=None):
    """``image_feature`` as a loop of single-block calls of the public,
    symmetrizing ``spd`` functions."""
    pre = preprocess_chain(image, cfg.preprocess_params())
    planes = decompose(pre, build_bank(cfg.gabor_params()))
    bs = cfg.block_size
    if keypoints is None:
        rects = partition_blocks(image.shape, bs)
    else:
        rects = keypoint_blocks(image.shape, keypoints, bs)
    blocks = [planes[:, top : top + bs, left : left + bs] for top, left in rects]
    gaussians = [estimate_gaussian(b, cfg.ridge_scale) for b in blocks]
    return np.concatenate([spd.half_vectorize(spd.embed_gaussian(g.mu, g.cov)) for g in gaussians])


class TestStackedBitwise:
    def test_single_block_matches_oracle(self, rng):
        for d, side in [(32, 15), (6, 11), (6, 4), (40, 21), (7, 3)]:
            block = rng.uniform(0.0, 1.0, (d, side, side))
            for ridge_scale in (1e-4, 0.0, 0.37):
                g = estimate_gaussian(block, ridge_scale)
                mu, cov = gaussian_oracle(block, ridge_scale)
                assert np.array_equal(g.mu, mu) and np.array_equal(g.cov, cov)
                assert np.array_equal(block_feature(g), per_block_oracle(block, ridge_scale))

    @pytest.mark.parametrize("block_size", [11, 15, 21])
    def test_grid_equals_per_block(self, rng, block_size):
        cfg = RunConfig(block_size=block_size)
        image = rng.uniform(0.0, 1.0, (64, 64))
        assert np.array_equal(image_feature(image, cfg), per_block_feature(image, cfg))

    def test_grid_more_blocks_than_one_chunk(self, rng):
        cfg = RunConfig(directions=3, scales=2, block_size=7)
        image = rng.uniform(0.0, 1.0, (80, 72))
        assert len(partition_blocks(image.shape, 7)) > descriptor.BLOCK_CHUNK
        assert np.array_equal(image_feature(image, cfg), per_block_feature(image, cfg))

    def test_keypoints_overlapping_and_clamped(self, rng):
        cfg = RunConfig(mode="keypoint", block_size=22)
        image = rng.uniform(0.0, 1.0, (64, 64))
        # two overlapping blocks, two clamped into opposite corners, one off-image
        points = [(30.0, 30.0), (33.0, 31.0), (0.0, 0.0), (63.0, 63.0), (-9.0, 70.0)]
        feat = image_feature(image, cfg, keypoints=points)
        assert np.array_equal(feat, per_block_feature(image, cfg, points))
        rects = keypoint_blocks(image.shape, points, 22)
        assert rects[2] == (0, 0) and rects[3] == (42, 42) and rects[4] == (42, 0)

    def test_inputs_keep_their_bytes(self, rng):
        # the Gaussian centres its samples in place, so it must own them
        for stack in (rng.uniform(0.0, 1.0, (3, 6, 5, 5)), rng.integers(0, 256, (3, 6, 5, 5), dtype=np.uint8)):
            before = stack.tobytes()
            estimate_gaussian(stack)
            estimate_gaussian(stack[1])
            assert stack.tobytes() == before
        for planes in (rng.uniform(0.0, 1.0, (6, 20, 20)), rng.integers(0, 256, (6, 20, 20), dtype=np.uint8)):
            before = planes.tobytes()
            block_features(planes, RunConfig(block_size=5))
            block_features(planes, RunConfig(mode="keypoint", block_size=5), [(3.0, 4.0), (3.0, 4.0), (19.0, 0.0)])
            assert planes.tobytes() == before

    def test_stack_too_few_samples(self, rng):
        with pytest.raises(TooFewSamples):
            image_feature(rng.uniform(0.0, 1.0, (32, 32)), RunConfig(block_size=1))
        with pytest.raises(TooFewSamples):
            estimate_gaussian(np.zeros((5, 3, 1, 1)))

    def test_stack_with_nan_raises(self, rng):
        blocks = rng.uniform(0.0, 1.0, (4, 6, 5, 5))
        g = estimate_gaussian(blocks)
        cov = g.cov.copy()
        cov[2, 1, 3] = np.nan
        with pytest.raises(NonFinite):
            block_feature(GaussianDescriptor(mu=g.mu, cov=cov))
        mu = g.mu.copy()
        mu[3, 0] = np.inf
        with pytest.raises(NonFinite):
            block_feature(GaussianDescriptor(mu=mu, cov=g.cov))
        blocks[1, 0, 2, 2] = np.nan
        with pytest.raises(NonFinite):
            block_feature(estimate_gaussian(blocks))

    def test_planes_with_nan_raise(self, rng):
        # block_features embeds through spd's private kernels; ±inf must raise
        # NonFinite too, not the RuntimeWarning of inf - inf
        for value in (np.nan, np.inf, -np.inf):
            planes = rng.uniform(0.0, 1.0, (6, 10, 10))
            planes[2, 7, 4] = value
            with pytest.raises(NonFinite):
                block_features(planes, RunConfig(block_size=5))
            with pytest.raises(NonFinite):
                estimate_gaussian(planes[:, 5:, :5])

    def test_stack_with_indefinite_matrix_raises(self, rng):
        stack = np.stack([random_spd(rng, 4), np.diag([1.0, 1.0, 1.0, -1.0]), np.eye(4)])
        with pytest.raises(NotPositiveDefinite):
            spd.matrix_log(stack, floor=0.0)
        # each matrix gets its own relative floor
        assert np.array_equal(spd.matrix_log(stack)[0], spd.matrix_log(stack[0]))
