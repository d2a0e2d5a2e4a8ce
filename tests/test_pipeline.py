import dataclasses
import os
import pickle
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglg import formats, gabor, parallel, pipeline
from lglg.cli import main
from lglg.config import CONFIG_BLOCK_SIZE, RunConfig
from lglg.errors import (
    ChecksumMismatch,
    ConfigError,
    ConfigMismatch,
    DegenerateTrainingSet,
    DimensionMismatch,
    ExtractionError,
    FormatVersionMismatch,
    LglgError,
    ManifestError,
    MissingGroundTruth,
    ModelFormatError,
    NoResults,
)
from lglg.formats import load_manifest, read_pgm, write_pgm
from lglg.pipeline import (
    MatchResult,
    identify,
    load_model,
    rank_accuracy,
    save_model,
)
from lglg.synthetic import write_benchmark
from lglg.wpca import ProjectionModel


class TestManifest:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,subset\na.pgm,s1,fb\nb.pgm,s2,fc\n")
        records = load_manifest(str(p))
        assert [(r.path, r.subject_id, r.subset) for r in records] == [
            ("a.pgm", "s1", "fb"),
            ("b.pgm", "s2", "fc"),
        ]

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,label\na.pgm,s1\n")
        with pytest.raises(ManifestError):
            load_manifest(str(p))

    def test_duplicate_path(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,subset\na.pgm,s1,fb\na.pgm,s2,fb\n")
        with pytest.raises(ManifestError):
            load_manifest(str(p))

    def test_empty_subject(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,subset\na.pgm,,fb\n")
        with pytest.raises(ManifestError):
            load_manifest(str(p))

    def test_empty_path(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,subset\na.pgm,s1,fb\n ,s2,fb\n")
        with pytest.raises(ManifestError, match=f"^{re.escape(str(p))}:3: empty path$"):
            load_manifest(str(p))

    @pytest.mark.parametrize("rows, message", [
        ("a.pgm,s1,fb\n" + "a" * 200_000 + ",s2,fb\n",
         "3: field larger than field limit (131072)"),
        ("img\0.pgm,s1,fb\nb.pgm,s2,fb\n", "2: path holds a NUL byte"),
        ('a.pgm,s1,"x\ny"\na.pgm,s2,fb\n', "4: duplicate path a.pgm"),
    ], ids=["field_over_csv_limit", "nul_in_path", "line_after_two_line_field"])
    def test_row_refused(self, tmp_path, rows, message):
        p = tmp_path / "m.csv"
        p.write_text("path,subject_id,subset\n" + rows)
        with pytest.raises(ManifestError, match=f"^{re.escape(f'{p}:{message}')}$"):
            load_manifest(str(p))


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        image = rng.integers(0, 256, (13, 21), dtype=np.uint8)
        p = tmp_path / "i.pgm"
        write_pgm(str(p), image)
        assert np.array_equal(read_pgm(str(p)), image)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        assert np.array_equal(read_pgm(str(p)), [[0, 1], [2, 3]])

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ManifestError):
            read_pgm(str(p))

    def test_rejects_p2(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(ManifestError):
            read_pgm(str(p))

    def test_rejects_maxval_zero(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n2 1\n0\n\x00\x00")
        with pytest.raises(ManifestError, match="maxval 0"):
            read_pgm(str(p))

    def test_rejects_pixels_above_maxval(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n2 2\n15\n\x00\x0f\xc8\xff")
        with pytest.raises(ManifestError, match="exceeds maxval 15"):
            read_pgm(str(p))

    def test_accepts_pixels_up_to_maxval(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n2 1\n15\n\x00\x0f")
        assert np.array_equal(read_pgm(str(p)), [[0, 15]])


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and the start
    method, runs in-process."""

    max_workers: list[int] = []
    start_methods: list[str] = []

    def __init__(self, max_workers, mp_context=None, initializer=None):
        RecordingExecutor.max_workers.append(max_workers)
        RecordingExecutor.start_methods.append(mp_context.get_start_method())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestJobsClamp:
    @pytest.fixture
    def recorded(self, monkeypatch):
        RecordingExecutor.max_workers = []
        RecordingExecutor.start_methods = []
        # parallel.imap imports the executor when it starts a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(parallel, "AFFINITY", 4)
        return RecordingExecutor.max_workers

    @pytest.mark.parametrize(
        "n_paths,jobs,expected",
        # the first item runs here, then at most one worker per item left
        [(3, 1000, [2]), (10, 1000, [4]), (10, 2, [2]), (10, 1, []), (1, 8, []),
         # the default: one worker per core of the affinity
         (3, None, [2]), (10, None, [4]), (1, None, []),
         # one item left runs here too
         (2, 8, [])],
    )
    def test_max_workers(self, recorded, n_paths, jobs, expected):
        paths = [f"img{i}.pgm" for i in range(n_paths)]
        extracted = parallel.imap(lambda path, suffix: path + suffix, paths, "!", jobs=jobs)
        assert list(extracted) == [p + "!" for p in paths]
        assert recorded == expected
        assert RecordingExecutor.start_methods == ["fork"] * len(expected)

    def test_closing_after_the_first_item_starts_no_pool(self, recorded):
        calls = []
        extracted = parallel.imap(calls.append, ["a", "b", "c"], jobs=2)
        assert next(extracted) is None
        extracted.close()
        assert calls == ["a"] and recorded == []

    @pytest.mark.parametrize("command", ["enroll", "evaluate", "sweep", "sweep-probe"])
    def test_missing_first_image_raises_before_a_pool(
        self, recorded, benchmark_dataset, benchmark_gallery, default_config, command
    ):
        gallery_records, probe_records = map(pipeline.load_manifest, benchmark_dataset)
        missing = pipeline.ManifestRecord("nonexistent_first.pgm", "s9", "g")
        with pytest.raises(ExtractionError, match="nonexistent_first.pgm") as exc:
            if command == "enroll":
                pipeline.enroll([missing, *gallery_records], default_config, jobs=2)
            elif command == "evaluate":
                pipeline.evaluate(benchmark_gallery, [missing, *probe_records[:4]], default_config,
                                  jobs=2)
            elif command == "sweep":
                pipeline.sweep([missing, *gallery_records], probe_records[:2], [default_config],
                               jobs=2)
            else:
                pipeline.sweep(gallery_records, [missing, *probe_records[:4]], [default_config],
                               jobs=2)
        assert isinstance(exc.value.cause, OSError)
        # a missing first probe stops the sweep after its gallery's pool
        assert recorded == ([2] if command == "sweep-probe" else [])

    def test_one_core_in_affinity_starts_no_pool(self, recorded, monkeypatch):
        monkeypatch.setattr(parallel, "AFFINITY", 1)
        paths = [f"img{i}.pgm" for i in range(3)]
        for jobs in (8, None):
            assert list(parallel.imap(str, paths, jobs=jobs)) == paths
        assert recorded == []

    @pytest.mark.parametrize("jobs", [0, -1])
    @pytest.mark.parametrize("command", ["enroll", "evaluate", "sweep"])
    def test_jobs_below_one_refused_before_any_image_is_read(
        self, benchmark_dataset, benchmark_gallery, default_config, no_image_read, command, jobs
    ):
        gallery_records, probe_records = map(pipeline.load_manifest, benchmark_dataset)
        with pytest.raises(ConfigError, match=f"^jobs must be at least 1, got {jobs}$"):
            if command == "enroll":
                pipeline.enroll(gallery_records, default_config, jobs=jobs)
            elif command == "evaluate":
                pipeline.evaluate(benchmark_gallery, probe_records, default_config, jobs=jobs)
            else:
                pipeline.sweep(gallery_records, probe_records, [default_config], jobs=jobs)


class TestPool:
    def test_jobs_2_saves_the_jobs_1_model(self, benchmark_dataset, default_config, tmp_path):
        # and so does the default, one worker per core
        records = pipeline.load_manifest(benchmark_dataset[0])
        save_model(pipeline.enroll(records, default_config, jobs=1), str(tmp_path / "a.bin"))
        save_model(pipeline.enroll(records, default_config, jobs=2), str(tmp_path / "b.bin"))
        save_model(pipeline.enroll(records, default_config), str(tmp_path / "c.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()

    def test_worker_error_names_the_image(self, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[0])[:3]
        records.append(pipeline.ManifestRecord("nonexistent_c.pgm", "s9", "g"))
        with pytest.raises(ExtractionError, match="nonexistent_c.pgm") as exc:
            pipeline.enroll(records, default_config, jobs=2)
        assert isinstance(exc.value.cause, OSError)

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_worker_error_names_the_first_bad_probe(
        self, benchmark_gallery, benchmark_dataset, default_config, command
    ):
        # the second probe is missing; with two cores a worker reads it
        records = pipeline.load_manifest(benchmark_dataset[1])[:4]
        records.insert(1, pipeline.ManifestRecord("nonexistent_p.pgm", "s9", "noisy"))
        records.append(pipeline.ManifestRecord("nonexistent_q.pgm", "s9", "noisy"))
        with pytest.raises(ExtractionError, match="nonexistent_p.pgm") as exc:
            if command == "evaluate":
                pipeline.evaluate(benchmark_gallery, records, default_config, jobs=2)
            else:
                gallery_records = pipeline.load_manifest(benchmark_dataset[0])
                config = dataclasses.replace(default_config, k_requested=5)
                pipeline.sweep(gallery_records, records, [config], jobs=2)
        assert isinstance(exc.value.cause, OSError)

    def test_pool_forks_under_a_spawn_default(self, benchmark_dataset, tmp_path):
        # a script without a __main__ guard would run again in each spawned
        # worker and stop the pool; forked workers do not run it
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import multiprocessing\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from lglg import pipeline\n"
            "from lglg.config import RunConfig\n"
            f"records = pipeline.load_manifest({benchmark_dataset[0]!r})[:4]\n"
            "pipeline.enroll(records, RunConfig(), jobs=2)\n"
            "print('enrolled')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pipeline.__file__))}
        out = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "enrolled\n"), out.stderr

    def test_extraction_error_pickles(self):
        err = pickle.loads(pickle.dumps(ExtractionError("a.pgm", ManifestError("bad"))))
        assert (str(err), err.path, str(err.cause)) == ("a.pgm: bad", "a.pgm", "bad")

    def test_initializer_sets_one_core(self, monkeypatch, blas_threads):
        # and leaves OpenBLAS at the one thread the forked worker inherits
        monkeypatch.setattr(parallel, "CORES", 2)
        parallel._one_core()
        assert parallel.CORES == 1
        assert blas_threads() == 1

    @pytest.mark.parametrize("failure", ["no library", "not a library", "no symbol"])
    def test_initializer_is_a_no_op_when_lookup_fails(self, tmp_path, monkeypatch, failure):
        # the lookup finds nothing, and then one split runs one thread
        fake = tmp_path / "libscipy_openblas64_fake.so"
        if failure == "not a library":
            fake.write_bytes(b"not ELF")
        elif failure == "no symbol":
            fake.write_bytes(b"")
            monkeypatch.setattr(parallel.ctypes, "CDLL", lambda path: object())
        monkeypatch.setattr(parallel, "_OPENBLAS_GLOB", str(tmp_path / "libscipy_openblas64_*.so"))
        assert parallel._find_openblas() is None
        monkeypatch.setattr(parallel, "_OPENBLAS", None)
        monkeypatch.setattr(parallel, "CORES", 2)
        assert parallel._one_core() is None
        assert parallel.split(lambda lo, hi: (lo, hi), 10) == [(0, 10)]

    def test_pool_worker_runs_one_core(self):
        # the first item runs here, on every core
        paths = ["a.pgm", "b.pgm", "c.pgm"]
        assert list(parallel.imap(_worker_cores, paths, jobs=2)) == [parallel.CORES, 1, 1]

    def test_workers_share_the_parents_spectra(
        self, benchmark_dataset, benchmark_gallery, default_config, monkeypatch
    ):
        # each call's first image builds the kernel spectra here, before its
        # pool forks
        monkeypatch.setattr(parallel, "AFFINITY", 2)
        monkeypatch.setattr(pipeline, "_extract_all", _extract_all_building_no_spectra)
        gallery_records, probe_records = map(pipeline.load_manifest, benchmark_dataset)
        config = dataclasses.replace(default_config, k_requested=5)
        for call in (
            lambda: pipeline.enroll(gallery_records, config, jobs=2),
            lambda: pipeline.evaluate(benchmark_gallery, probe_records[:4], default_config, jobs=2),
            lambda: pipeline.sweep(gallery_records, probe_records[:4], [config], jobs=2),
        ):
            gabor.kernel_spectra.cache_clear()
            call()

    def test_pool_after_threaded_identify_equals_jobs_1(
        self, benchmark_dataset, benchmark_gallery, default_config, tmp_path, monkeypatch
    ):
        # every plane loop and block list splits, so lglg threads have run
        # in this process before each pool forks
        monkeypatch.setattr(parallel, "CORES", 2)
        gallery_records = pipeline.load_manifest(benchmark_dataset[0])
        probe_records = pipeline.load_manifest(benchmark_dataset[1])[:4]
        threads = threading.active_count()
        identify(benchmark_gallery, probe_records[0].path, default_config)
        assert threading.active_count() == threads
        for jobs in (1, 2):
            gallery = pipeline.enroll(gallery_records, default_config, jobs=jobs)
            save_model(gallery, str(tmp_path / f"{jobs}.bin"))
        assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()
        configs = [dataclasses.replace(default_config, block_size=b, k_requested=5) for b in (11, 15)]
        accs = [pipeline.sweep(gallery_records, probe_records, configs, jobs=jobs) for jobs in (1, 2)]
        assert accs[0] == accs[1]


def _worker_cores(path):
    return parallel.CORES


_EXTRACT_ALL = pipeline._extract_all
_TEST_PID = os.getpid()


def _extract_all_building_no_spectra(path, configs, keypoints_dir):
    misses = gabor.kernel_spectra.cache_info().misses
    features = _EXTRACT_ALL(path, configs, keypoints_dir)
    if os.getpid() != _TEST_PID and gabor.kernel_spectra.cache_info().misses != misses:
        raise AssertionError(f"{path}: a worker built kernel spectra")
    return features


class TestEnroll:
    def test_mixed_image_sizes_name_the_odd_image(self, benchmark_dataset, default_config, tmp_path):
        records = pipeline.load_manifest(benchmark_dataset[0])[:3]
        small = tmp_path / "small.pgm"
        write_pgm(str(small), np.random.default_rng(0).integers(0, 256, (32, 32)))
        records.append(pipeline.ManifestRecord(str(small), "s9", "g"))
        with pytest.raises(DimensionMismatch, match="small.pgm: feature length"):
            pipeline.enroll(records, default_config)

    def test_gallery_shape(self, benchmark_gallery):
        assert len(benchmark_gallery.subject_ids) == 10
        # 10 centered training rows cap the rank at 9
        assert benchmark_gallery.model.output_dim <= 9
        assert benchmark_gallery.features.shape == (10, benchmark_gallery.model.output_dim)

    def test_deterministic(self, benchmark_dataset, default_config, tmp_path):
        records = pipeline.load_manifest(benchmark_dataset[0])
        g1 = pipeline.enroll(records, default_config)
        g2 = pipeline.enroll(records, default_config)
        save_model(g1, str(tmp_path / "a.bin"))
        save_model(g2, str(tmp_path / "b.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_needs_two_records(self, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[0])[:1]
        with pytest.raises(DegenerateTrainingSet):
            pipeline.enroll(records, default_config)

    def test_missing_image_reports_path(self, default_config):
        records = [
            pipeline.ManifestRecord("nonexistent_a.pgm", "s1", "g"),
            pipeline.ManifestRecord("nonexistent_b.pgm", "s2", "g"),
        ]
        with pytest.raises(ExtractionError) as exc:
            pipeline.enroll(records, default_config)
        assert "nonexistent_a.pgm" in str(exc.value)

    def test_given_features_save_the_same_model(self, benchmark_dataset, default_config, tmp_path):
        records = pipeline.load_manifest(benchmark_dataset[0])
        feats = np.vstack([pipeline.extract_feature(r.path, default_config) for r in records])
        save_model(pipeline.enroll(records, default_config), str(tmp_path / "a.bin"))
        save_model(pipeline.enroll(records, default_config, features=feats), str(tmp_path / "b.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    @pytest.mark.parametrize("rows", [9, 11])
    def test_given_features_must_match_records(self, benchmark_dataset, default_config, rows):
        records = pipeline.load_manifest(benchmark_dataset[0])
        assert len(records) == 10
        feats = np.ones((rows, 4))
        with pytest.raises(DimensionMismatch, match=f"{rows} feature rows given for 10 gallery records"):
            pipeline.enroll(records, default_config, features=feats)


class TestEnrolledGallery:
    """A gallery from enroll holds its model file's arrays and nothing more."""

    @pytest.fixture(scope="class")
    def gallery_features(self, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[0])
        return records, np.vstack([pipeline.extract_feature(r.path, default_config) for r in records])

    @pytest.mark.parametrize("given", [False, True])
    def test_holds_no_whitened_basis(self, gallery_features, default_config, given):
        # the basis is the whitening basis itself, so matching adds nothing
        records, feats = gallery_features
        gallery = pipeline.enroll(records, default_config, features=feats if given else None)
        pipeline.rank(gallery, feats[0], records[0].path)
        assert set(vars(gallery.model)) == {"train_mean", "basis", "eigvals"}

    def test_loaded_holds_its_file_arrays_after_matching(
        self, gallery_features, default_config, tmp_path
    ):
        records, feats = gallery_features
        save_model(pipeline.enroll(records, default_config, features=feats), str(tmp_path / "m.bin"))
        loaded = load_model(str(tmp_path / "m.bin"))
        pipeline.rank(loaded, feats[0], records[0].path)
        assert set(vars(loaded.model)) == {"train_mean", "basis", "eigvals"}

    def test_matches_as_its_loaded_model_file(
        self, gallery_features, benchmark_dataset, default_config, tmp_path
    ):
        records, feats = gallery_features
        probes = pipeline.load_manifest(benchmark_dataset[1])[::5]
        enrolled = pipeline.enroll(records, default_config, features=feats)
        rankings = [identify(enrolled, r.path, default_config).ranking for r in probes]
        rows = pipeline.evaluate(enrolled, probes, default_config, jobs=1)
        save_model(enrolled, str(tmp_path / "m.bin"))
        loaded = load_model(str(tmp_path / "m.bin"))
        # distances are finite and non-negative, so == compares their bits
        assert [identify(loaded, r.path, default_config).ranking for r in probes] == rankings
        assert pipeline.evaluate(loaded, probes, default_config, jobs=1) == rows

    def test_keeps_no_more_than_its_model_file(self, gallery_features, default_config, tmp_path):
        # a second input_dim x k array beside the basis, such as a whitened
        # copy of it, would make a k-component gallery hold about
        # (2k + 1) / (k + 1) times its file's bytes, 1.9 at k = 9
        records, feats = gallery_features
        tracemalloc.start()
        try:
            gallery = pipeline.enroll(records, default_config, features=feats)
            kept, _ = tracemalloc.get_traced_memory()
            pipeline.rank(gallery, feats[0], records[0].path)
            kept_after_match, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gallery.model.output_dim == 9
        save_model(gallery, str(tmp_path / "m.bin"))
        size = os.path.getsize(tmp_path / "m.bin")
        assert kept <= 1.1 * size and kept_after_match <= 1.1 * size


class TestModelAcrossBlasThreads:
    def test_same_bytes_at_one_and_two_threads_and_one_cpu(self, tmp_path):
        # importing lglg sets OpenBLAS to one thread, so the WPCA fit's bits
        # depend neither on OPENBLAS_NUM_THREADS nor on the CPU affinity.
        # 53 images is the smallest synthetic gallery (seed 3, no probes)
        # whose model bytes differed at one and two OpenBLAS threads before
        gallery, _ = write_benchmark(tmp_path, n_classes=53, probes_per_class=0, seed=3)
        (tmp_path / "run.cfg").write_text("")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(pipeline.__file__))
        pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        runs = {"threads1": ({"OPENBLAS_NUM_THREADS": "1"}, ""),
                "threads2": ({"OPENBLAS_NUM_THREADS": "2"}, ""),
                "one_cpu": ({}, pin)}
        models = {}
        for name, (extra, prelude) in runs.items():
            out = tmp_path / f"{name}.bin"
            code = prelude + "import sys; from lglg.cli import main; sys.exit(main(sys.argv[1:]))"
            subprocess.run([sys.executable, "-c", code, "enroll", "--config", str(tmp_path / "run.cfg"),
                            "--manifest", gallery, "--out", str(out)],
                           env={**env, **extra}, capture_output=True, check=True)
            models[name] = out.read_bytes()
        assert models["threads1"] == models["threads2"] == models["one_cpu"]


class TestIdentify:
    def test_self_match_rank_one(self, benchmark_gallery, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[0])
        res = identify(
            benchmark_gallery,
            records[0].path,
            default_config,
            true_subject=records[0].subject_id,
        )
        assert res.correct_rank == 1
        assert res.ranking[0][1] < 1e-8

    def test_ranking_sorted(self, benchmark_gallery, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[1])
        res = identify(benchmark_gallery, records[0].path, default_config)
        dists = [d for _, d in res.ranking]
        assert dists == sorted(dists)
        assert len(res.ranking) == 10

    def test_unseen_noise_probe_still_ranked(
        self, benchmark_gallery, default_config, tmp_path, rng
    ):
        noise = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        p = tmp_path / "noise.pgm"
        write_pgm(str(p), noise)
        res = identify(benchmark_gallery, str(p), default_config)
        assert len(res.ranking) == 10

    def test_config_mismatch(self, benchmark_gallery, benchmark_dataset):
        other = dataclasses.replace(RunConfig(), block_size=13)
        records = pipeline.load_manifest(benchmark_dataset[0])
        with pytest.raises(ConfigMismatch):
            identify(benchmark_gallery, records[0].path, other)


class TestRankAccuracy:
    @staticmethod
    def result(rank_of_truth):
        ranking = [(f"s{i}", float(i)) for i in range(5)]
        return MatchResult(probe="p", ranking=ranking, true_subject=f"s{rank_of_truth - 1}")

    def test_all_correct(self):
        assert rank_accuracy([self.result(1)] * 4, 1) == 1.0

    def test_none_correct(self):
        assert rank_accuracy([self.result(5)] * 4, 1) == 0.0

    def test_mixed(self):
        results = [self.result(1)] * 39 + [self.result(2)]
        assert rank_accuracy(results, 1) == pytest.approx(0.975)

    def test_monotone_in_rank(self):
        results = [self.result(r) for r in (1, 2, 3, 4, 5)]
        accs = [rank_accuracy(results, r) for r in range(1, 6)]
        assert accs == sorted(accs)

    def test_missing_ground_truth(self):
        res = MatchResult(probe="p", ranking=[("a", 0.0)], true_subject=None)
        with pytest.raises(MissingGroundTruth):
            rank_accuracy([res], 1)

    def test_no_results(self):
        with pytest.raises(NoResults, match="no match results to score"):
            rank_accuracy([], 1)


class TestEvaluate:
    def test_declared_empty_subset(self, benchmark_gallery, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[1])[:2]
        rows = pipeline.evaluate(benchmark_gallery, records, default_config)
        assert [row[:2] for row in rows] == [("noisy", 2)]

    def test_rows_equal_per_probe_identify(self, benchmark_gallery, benchmark_dataset, default_config):
        # relabelled probes find their label below rank 1, some below rank
        # 5, and one label is not in the gallery, so every case counts
        probes = pipeline.load_manifest(benchmark_dataset[1])[::3]
        subjects = sorted({r.subject_id for r in probes})
        records = [
            pipeline.ManifestRecord(r.path, subjects[i % len(subjects)] if i % 2 else r.subject_id,
                                    "ab"[i % 3 == 0])
            for i, r in enumerate(probes)
        ]
        records.append(pipeline.ManifestRecord(probes[0].path, "not_enrolled", "a"))
        results: dict[str, list[MatchResult]] = {}
        for rec in records:
            res = identify(benchmark_gallery, rec.path, default_config, true_subject=rec.subject_id)
            results.setdefault(rec.subset, []).append(res)
        expected = [(subset, len(res), rank_accuracy(res, 1), rank_accuracy(res, 5))
                    for subset, res in results.items()]
        ranks = {res.correct_rank for subset_results in results.values() for res in subset_results}
        assert {1, None} < ranks and max(ranks - {None}) > 5
        for jobs in (1, 2, None):
            assert pipeline.evaluate(benchmark_gallery, records, default_config, jobs=jobs) == expected

    def test_other_config_refused_before_any_image_is_read(
        self, benchmark_gallery, benchmark_dataset, no_image_read
    ):
        other = dataclasses.replace(RunConfig(), block_size=13)
        records = pipeline.load_manifest(benchmark_dataset[1])
        with pytest.raises(ConfigMismatch, match="differs from the gallery's feature config"):
            pipeline.evaluate(benchmark_gallery, records, other)


class TestPersistence:
    def test_round_trip_equality(self, benchmark_gallery, tmp_path):
        p = tmp_path / "m.bin"
        save_model(benchmark_gallery, str(p))
        loaded = load_model(str(p))
        assert loaded.config == benchmark_gallery.config
        assert loaded.subject_ids == benchmark_gallery.subject_ids
        assert np.array_equal(loaded.features, benchmark_gallery.features)
        assert np.array_equal(loaded.model.train_mean, benchmark_gallery.model.train_mean)
        assert np.array_equal(loaded.model.basis, benchmark_gallery.model.basis)
        assert np.array_equal(loaded.model.eigvals, benchmark_gallery.model.eigvals)
        again = tmp_path / "again.bin"
        save_model(loaded, str(again))
        assert again.read_bytes() == p.read_bytes()

    def test_truncated_file(self, benchmark_gallery, tmp_path):
        p = tmp_path / "m.bin"
        save_model(benchmark_gallery, str(p))
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            load_model(str(p))

    def test_version_mismatch(self, benchmark_gallery, tmp_path):
        import zlib

        p = tmp_path / "m.bin"
        save_model(benchmark_gallery, str(p))
        blob = bytearray(p.read_bytes()[:-4])
        blob[4:6] = struct.pack("<H", 99)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)))
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            load_model(str(p))

    def test_loaded_model_rejects_other_config(
        self, benchmark_gallery, benchmark_dataset, tmp_path
    ):
        p = tmp_path / "m.bin"
        save_model(benchmark_gallery, str(p))
        loaded = load_model(str(p))
        other = dataclasses.replace(RunConfig(), sigma_pi=1.2)
        records = pipeline.load_manifest(benchmark_dataset[0])
        with pytest.raises(ConfigMismatch):
            identify(loaded, records[0].path, other)


def test_enroll_two_records_explains_kept_components(benchmark_dataset, default_config):
    records = pipeline.load_manifest(benchmark_dataset[0])[:2]
    with pytest.raises(DegenerateTrainingSet, match="kept 1 component"):
        pipeline.enroll(records, default_config)


DIMS_AT = 6 + CONFIG_BLOCK_SIZE  # magic, version, config block


def tiny_gallery(subject_ids=("a", "b", "c"), k=2):
    rng = np.random.default_rng(3)
    model = ProjectionModel(
        train_mean=rng.standard_normal(5), basis=rng.standard_normal((5, k)),
        eigvals=np.arange(k, 0, -1, dtype=float),
    )
    return pipeline.Gallery(
        config=RunConfig(k_requested=2), model=model, subject_ids=list(subject_ids),
        features=rng.standard_normal((len(subject_ids), k)),
    )


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


class TestModelFile:
    @pytest.fixture
    def body(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(tiny_gallery(), str(p))
        return p.read_bytes()[:-4]

    @pytest.mark.parametrize("field, value", [
        (0, 6), (0, 0xFFFFFFFF), (1, 3), (1, 0xFFFFFFFF), (2, 4), (2, 0xFFFFFFFF),
    ])
    def test_bogus_dims(self, body, tmp_path, field, value):
        dims = list(struct.unpack_from("<III", body, DIMS_AT))
        dims[field] = value
        p = tmp_path / "bad.bin"
        p.write_bytes(with_crc(body[:DIMS_AT] + struct.pack("<III", *dims) + body[DIMS_AT + 12:]))
        with pytest.raises(ModelFormatError, match=str(p)):
            load_model(str(p))

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:DIMS_AT + 6],                                       # header cut short
        lambda b: b[:DIMS_AT - 17] + b"\x07" + b[DIMS_AT - 16:],          # mode byte 7
        lambda b: b.replace(b"\x01\x00a", b"\xff\xffa"),                 # id length overruns
        lambda b: b.replace(b"\x01\x00a", b"\x01\x00\xff"),              # id not UTF-8
    ])
    def test_bogus_entries(self, body, tmp_path, mutate):
        p = tmp_path / "bad.bin"
        p.write_bytes(with_crc(mutate(body)))
        with pytest.raises(ModelFormatError, match=str(p)):
            load_model(str(p))

    def test_version_1_refused(self, body, tmp_path):
        # a version-1 config block held a key-point count after block_size
        p = tmp_path / "v1.bin"
        p.write_bytes(with_crc(body[:4] + struct.pack("<H", 1) + body[6:]))
        with pytest.raises(FormatVersionMismatch, match=f"{p}: format version 1, expected 3"):
            load_model(str(p))

    def test_version_2_refused(self, body, tmp_path):
        # a version-2 file held the orthonormal basis U where W now is: its
        # layout still parses, so only the version tells them apart
        p = tmp_path / "v2.bin"
        p.write_bytes(with_crc(body[:4] + struct.pack("<H", 2) + body[6:]))
        with pytest.raises(FormatVersionMismatch, match=f"{p}: format version 2, expected 3"):
            load_model(str(p))

    @pytest.mark.parametrize("version", [1, 2])
    def test_cli_refuses_old_version_in_one_line(self, body, tmp_path, capsys, version):
        p = tmp_path / f"v{version}.bin"
        p.write_bytes(with_crc(body[:4] + struct.pack("<H", version) + body[6:]))
        code = main(["identify", "--model", str(p), "--image", str(tmp_path / "probe.pgm")])
        assert code == 3
        assert capsys.readouterr().err == f"error: data: {p}: format version {version}, expected 3\n"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.binary(min_size=1, max_size=12))
    def test_mutated_bytes_load_or_raise(self, tmp_path_factory, pos, patch):
        p = tmp_path_factory.getbasetemp() / "fuzz_model.bin"
        if not p.exists():
            save_model(tiny_gallery(), str(p))
        body = p.read_bytes()[:-4]
        pos %= len(body)
        p_bad = p.with_name("fuzz_model_bad.bin")
        p_bad.write_bytes(with_crc(body[:pos] + patch + body[pos + len(patch):]))
        try:
            load_model(str(p_bad))
        except LglgError:
            pass

    def test_cli_reports_one_line(self, body, tmp_path, capsys):
        p = tmp_path / "bad.bin"
        p.write_bytes(with_crc(body[:DIMS_AT] + struct.pack("<III", 5, 2, 9) + body[DIMS_AT + 12:]))
        code = main(["identify", "--model", str(p), "--image", str(tmp_path / "probe.pgm")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(p) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("array, index, value", [
        ("eigvals", slice(None), -1.0),
        ("eigvals", 1, 0.0),
        ("features", (0, 1), np.nan),
        ("train_mean", slice(None), np.inf),
    ])
    def test_non_finite_or_non_positive_values_rejected(
        self, tmp_path, capsys, array, index, value
    ):
        gallery = tiny_gallery()
        arrays = {"eigvals": gallery.model.eigvals, "train_mean": gallery.model.train_mean,
                  "features": gallery.features}
        arrays[array][index] = value
        p = tmp_path / "bad.bin"
        save_model(gallery, str(p))
        with pytest.raises(ModelFormatError, match=str(p)):
            load_model(str(p))
        code = main(["identify", "--model", str(p), "--image", str(tmp_path / "probe.pgm")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(p) in err and err.count("\n") == 1

    @pytest.mark.parametrize("subject_ids, k", [((), 2), (("a",), 2), (("a", "b", "c"), 1)])
    def test_too_few_entries_or_components_rejected(
        self, tmp_path, capsys, monkeypatch, subject_ids, k
    ):
        gallery = tiny_gallery(subject_ids, k)
        p = tmp_path / "small.bin"
        with pytest.raises(ModelFormatError, match="at least 2 of each"):
            save_model(gallery, str(p))
        assert list(tmp_path.iterdir()) == []
        # a CRC-valid file of such a gallery, as a writer without the check makes it
        with monkeypatch.context() as m:
            m.setattr(formats, "_check_model_size", lambda *args: None)
            save_model(gallery, str(p))
        with pytest.raises(ModelFormatError, match=f"{p}: {len(subject_ids)} entries with {k} "):
            load_model(str(p))
        code = main(["identify", "--model", str(p), "--image", str(tmp_path / "probe.pgm")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and str(p) in err and err.count("\n") == 1

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3)],
                             ids=["fewer_rows", "more_rows", "wrong_width"])
    def test_features_of_another_shape_rejected_before_writing(self, tmp_path, shape):
        gallery = dataclasses.replace(tiny_gallery(), features=np.ones(shape))
        with pytest.raises(DimensionMismatch, match=rf"shape \({shape[0]}, {shape[1]}\).* need \(3, 2\)"):
            save_model(gallery, str(tmp_path / "m.bin"))
        assert list(tmp_path.iterdir()) == []

    def test_long_subject_id_rejected_before_writing(self, tmp_path):
        p = tmp_path / "m.bin"
        with pytest.raises(ModelFormatError, match="'bbbb"):
            save_model(tiny_gallery(("a", "b" * 70_000)), str(p))
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_file_atomically(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(tiny_gallery(("a", "b")), str(p))
        old = p.read_bytes()
        with open(p, "rb") as reader:
            save_model(tiny_gallery(), str(p))
            assert reader.read() == old  # the old file was replaced, not rewritten
        assert load_model(str(p)).subject_ids == ["a", "b", "c"]
        assert [q.name for q in tmp_path.iterdir()] == ["m.bin"]
