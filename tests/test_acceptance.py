"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest -v tests/test_acceptance.py`` or ``-s``)."""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import random_spd
from lglg import pipeline, spd, wpca
from lglg.cli import main
from lglg.descriptor import GaussianDescriptor, block_feature, estimate_gaussian
from lglg.gabor import (
    GaborParams, build_bank, decompose, decompose_direct, orientation, wave_number,
)
from lglg.synthetic import grating, write_benchmark

BENCH_PARAMS = dict(
    directions=8, scales=4, sigma_pi=1.0, window_len=9, block_size=15
)


def _report(num, name):
    print(f"criterion {num:2d} ({name}): PASS")


def test_criterion_01_matrix_round_trips():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(2, 65))
        a = random_spd(rng, n, eig_range=(0.05, 20.0))
        norm = np.linalg.norm(a)
        assert np.linalg.norm(spd.matrix_exp(spd.matrix_log(a)) - a) / norm < 1e-10
        s = spd.matrix_sqrt(a)
        assert np.linalg.norm(s @ s - a) / norm < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, "matrix round trips")


def test_criterion_02_sqrt_log_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 33))
        m = random_spd(rng, n, eig_range=(0.05, 20.0))
        diff = spd.matrix_log(spd.matrix_sqrt(m)) - 0.5 * spd.matrix_log(m)
        assert np.linalg.norm(diff) < 1e-10
    _report(2, "sqrt-log identity")


def test_criterion_03_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        c1 = random_spd(rng, n)
        c2 = random_spd(rng, n)
        x = rng.standard_normal((n, n)) + 0.5 * np.eye(n)
        d = spd.riemannian_distance(c1, c2)
        dx = spd.riemannian_distance(x @ c1 @ x.T, x @ c2 @ x.T)
        assert abs(d - dx) < 1e-8 * (1.0 + d)
    _report(3, "affine invariance")


def test_criterion_04_descriptor_distance_equivalence():
    rng = np.random.default_rng(4)

    def embedded(g):
        d = g.mu.shape[0]
        m = np.empty((d + 1, d + 1))
        m[:d, :d] = g.cov + np.outer(g.mu, g.mu)
        m[:d, d] = g.mu
        m[d, :d] = g.mu
        m[d, d] = 1.0
        return scipy.linalg.logm(scipy.linalg.sqrtm(m))

    for _ in range(100):
        d = int(rng.integers(2, 41))
        g1 = GaussianDescriptor(mu=rng.standard_normal(d), cov=random_spd(rng, d))
        g2 = GaussianDescriptor(mu=rng.standard_normal(d), cov=random_spd(rng, d))
        oracle = np.linalg.norm(embedded(g1) - embedded(g2), "fro")
        got = np.linalg.norm(block_feature(g1) - block_feature(g2))
        assert abs(got - oracle) < 1e-12
    _report(4, "descriptor-distance equivalence")


def test_criterion_05_covariance_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(2, 41))
        side = int(rng.integers(3, 16))
        stack = rng.uniform(0.0, 1.0, (d, side, side))
        g = estimate_gaussian(stack, ridge_scale=0.0)
        samples = stack.reshape(d, -1).T
        n = samples.shape[0]
        mu = np.zeros(d)
        for s in samples:
            mu += s
        mu /= n
        cov = np.zeros((d, d))
        for s in samples:
            cov += np.outer(s - mu, s - mu)
        cov /= n
        assert np.max(np.abs(g.mu - mu)) < 1e-12
        assert np.max(np.abs(g.cov - cov)) < 1e-12
    _report(5, "covariance oracle")


def test_criterion_06_gabor_correctness():
    rng = np.random.default_rng(6)
    bank = build_bank(GaborParams(directions=8, scales=4))
    for k in bank.kernels:
        assert abs(k.real.sum()) < 1e-8 * np.linalg.norm(k.real)

    image = rng.standard_normal((64, 64))
    assert np.max(np.abs(
        decompose(image, bank) - decompose_direct(image, bank)
    )) < 1e-8

    # window 21 keeps envelope truncation negligible for the peak-plane check
    p = GaborParams(directions=8, scales=4, window_len=21)
    wide = build_bank(p)
    for v in range(1, 5):
        for u in range(1, 9):
            g = grating(64, orientation(p, u), wave_number(p, v)) * 2.0 - 1.0
            means = decompose(g, wide).mean(axis=(1, 2))
            assert int(np.argmax(means)) == (v - 1) * 8 + (u - 1)
    _report(6, "gabor correctness")


def test_criterion_07_whitening_and_zscore():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((50, 2000))
    model = wpca.fit(X, 50)
    P = np.vstack([wpca.project(model, x) for x in X])
    cov = P.T @ P / 50
    assert np.max(np.abs(cov - np.eye(model.output_dim))) < 1e-8
    for row in P:
        z = wpca.zscore(row)
        assert abs(z.mean()) < 1e-10
        assert abs(z.std() - 1.0) < 1e-10
    _report(7, "whitening and z-score")


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    from lglg.config import RunConfig

    root = tmp_path_factory.mktemp("acc_bench")
    gallery_manifest, probe_manifest = write_benchmark(
        root, n_classes=10, probes_per_class=5, noise_sigma=0.05, size=64, seed=0
    )
    config = RunConfig(**BENCH_PARAMS)
    return root, gallery_manifest, probe_manifest, config


def test_criterion_08_synthetic_identification(bench):
    _, gallery_manifest, probe_manifest, config = bench
    start = time.perf_counter()
    gallery = pipeline.enroll(pipeline.load_manifest(gallery_manifest), config, jobs=1)
    results = [
        pipeline.identify(gallery, rec.path, config, true_subject=rec.subject_id)
        for rec in pipeline.load_manifest(probe_manifest)
    ]
    elapsed = time.perf_counter() - start
    accuracy = pipeline.rank_accuracy(results, 1)
    assert accuracy >= 0.95
    assert elapsed < 60.0
    _report(8, f"synthetic identification (rank-1 {accuracy:.2f}, {elapsed:.1f}s)")


def test_criterion_09_persistence_bitwise(bench, tmp_path):
    _, gallery_manifest, probe_manifest, config = bench
    gallery = pipeline.enroll(pipeline.load_manifest(gallery_manifest), config)
    path = tmp_path / "gallery.bin"
    pipeline.save_model(gallery, str(path))
    loaded = pipeline.load_model(str(path))
    for rec in pipeline.load_manifest(probe_manifest)[:10]:
        mem = pipeline.identify(gallery, rec.path, config)
        disk = pipeline.identify(loaded, rec.path, config)
        assert mem.ranking == disk.ranking  # exact float equality
    _report(9, "persistence bitwise")


def test_criterion_10_determinism(bench, tmp_path):
    _, gallery_manifest, probe_manifest, config = bench
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "".join(f"{k}={v}\n" for k, v in BENCH_PARAMS.items())
    )
    outputs = []
    for tag in ("run1", "run2"):
        model = tmp_path / f"{tag}.bin"
        csv_out = tmp_path / f"{tag}.csv"
        assert main(["enroll", "--config", str(cfg_path), "--manifest", gallery_manifest,
                     "--out", str(model)]) == 0
        assert main(["evaluate", "--model", str(model), "--manifest", probe_manifest,
                     "--out", str(csv_out)]) == 0
        outputs.append((model.read_bytes(), csv_out.read_bytes()))
    assert outputs[0] == outputs[1]
    _report(10, "determinism")


def test_criterion_11_sweep_layout(tmp_path):
    root = tmp_path / "data"
    gallery_manifest, probe_manifest = write_benchmark(
        root, n_classes=3, probes_per_class=1, seed=2
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("k_requested=16\n")
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text(
        "window_len=9\nsigma_pi=1.0,1.2\ndirections=8\nscales=4\nblock_size=15\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg_path), "--grid", str(grid_path),
                 "--gallery-manifest", gallery_manifest,
                 "--probe-manifest", probe_manifest, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "window_len,sigma_pi,directions,scales,block_size,acc"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 6
    _report(11, "sweep grid layout")
