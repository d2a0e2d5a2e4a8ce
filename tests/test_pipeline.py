import dataclasses
import pickle
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglg import descriptor, gabor, parallel, pipeline
from lglg.cli import main
from lglg.config import CONFIG_BLOCK_SIZE, RunConfig
from lglg.errors import (
    ChecksumMismatch,
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
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    max_workers: list[int] = []

    def __init__(self, max_workers, initializer=None):
        RecordingExecutor.max_workers.append(max_workers)

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
        # _extract_many imports the executor when it starts a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(pipeline, "extract_feature", lambda path, config, kp, stacks=None: path)
        monkeypatch.setattr(parallel, "AFFINITY", 4)
        return RecordingExecutor.max_workers

    @pytest.mark.parametrize(
        "n_paths,jobs,expected", [(3, 1000, [3]), (10, 1000, [4]), (10, 2, [2]), (10, 1, []), (1, 8, [])]
    )
    def test_max_workers(self, recorded, n_paths, jobs, expected):
        paths = [f"img{i}.pgm" for i in range(n_paths)]
        assert pipeline._extract_many(paths, [RunConfig()], None, jobs) == [[p] for p in paths]
        assert recorded == expected

    def test_one_core_in_affinity_starts_no_pool(self, recorded, monkeypatch):
        monkeypatch.setattr(parallel, "AFFINITY", 1)
        paths = [f"img{i}.pgm" for i in range(3)]
        assert pipeline._extract_many(paths, [RunConfig()], None, 8) == [[p] for p in paths]
        assert recorded == []


class TestPool:
    def test_jobs_2_saves_the_jobs_1_model(self, benchmark_dataset, default_config, tmp_path):
        records = pipeline.load_manifest(benchmark_dataset[0])
        save_model(pipeline.enroll(records, default_config, jobs=1), str(tmp_path / "a.bin"))
        save_model(pipeline.enroll(records, default_config, jobs=2), str(tmp_path / "b.bin"))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_worker_error_names_the_image(self, benchmark_dataset, default_config):
        records = pipeline.load_manifest(benchmark_dataset[0])[:3]
        records.append(pipeline.ManifestRecord("nonexistent_c.pgm", "s9", "g"))
        with pytest.raises(ExtractionError, match="nonexistent_c.pgm") as exc:
            pipeline.enroll(records, default_config, jobs=2)
        assert isinstance(exc.value.cause, OSError)

    def test_extraction_error_pickles(self):
        err = pickle.loads(pickle.dumps(ExtractionError("a.pgm", ManifestError("bad"))))
        assert (str(err), err.path, str(err.cause)) == ("a.pgm: bad", "a.pgm", "bad")

    @pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
    def test_initializer_sets_one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(parallel, "CORES", parallel.CORES)
        get, set_, _ = parallel._OPENBLAS
        before = get()
        try:
            parallel.pool_initializer()
            assert get() == 1
            assert parallel.CORES == 1
        finally:
            set_(before)

    @pytest.mark.parametrize("failure", ["no library", "not a library", "no symbol"])
    def test_initializer_is_a_no_op_when_lookup_fails(self, tmp_path, monkeypatch, failure):
        # the lookup finds nothing, and then neither the initializer nor a
        # split touches a BLAS, and one split runs one thread
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
        assert parallel.pool_initializer() is None
        assert parallel.split(lambda lo, hi: (lo, hi), 10) == [(0, 10)]

    def test_pool_worker_runs_one_core(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_extract_all", _worker_cores)
        assert pipeline._extract_many(["a.pgm", "b.pgm"], [RunConfig()], None, 2) == [1, 1]

    def test_pool_after_threaded_identify_equals_jobs_1(
        self, benchmark_dataset, benchmark_gallery, default_config, tmp_path, monkeypatch
    ):
        # every plane loop and block list splits, so lglg threads have run
        # in this process before each pool forks
        monkeypatch.setattr(parallel, "CORES", 2)
        monkeypatch.setattr(gabor, "MIN_SPLIT_PIXELS", 0)
        monkeypatch.setattr(descriptor, "MIN_SPLIT_BLOCKS", 1)
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


def _worker_cores(path, configs, keypoints_dir):
    return parallel.CORES


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


def tiny_gallery(subject_ids=("a", "b", "c")):
    rng = np.random.default_rng(3)
    model = ProjectionModel(
        train_mean=rng.standard_normal(5), basis=rng.standard_normal((5, 2)),
        eigvals=np.array([2.0, 1.0]),
    )
    return pipeline.Gallery(
        config=RunConfig(k_requested=2), model=model, subject_ids=list(subject_ids),
        features=rng.standard_normal((len(subject_ids), 2)),
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
        lambda b: b[:DIMS_AT - 21] + b"\x07" + b[DIMS_AT - 20:],          # mode byte 7
        lambda b: b.replace(b"\x01\x00a", b"\xff\xffa"),                 # id length overruns
        lambda b: b.replace(b"\x01\x00a", b"\x01\x00\xff"),              # id not UTF-8
    ])
    def test_bogus_entries(self, body, tmp_path, mutate):
        p = tmp_path / "bad.bin"
        p.write_bytes(with_crc(mutate(body)))
        with pytest.raises(ModelFormatError, match=str(p)):
            load_model(str(p))

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
