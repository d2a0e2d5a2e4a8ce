import dataclasses
import itertools
import struct
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lglg import descriptor, pipeline
from lglg.cli import main
from lglg.config import RunConfig
from lglg.errors import ExtractionError
from lglg.formats import load_config, parse_grid_file, write_pgm
from lglg.pipeline import load_manifest
from lglg.synthetic import grating, write_benchmark

CONFIG_TEXT = """\
# synthetic benchmark defaults
directions=8
scales=4
sigma_pi=1.0
window_len=9
block_size=15
k_requested=64
"""


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_bench")
    return write_benchmark(root, n_classes=4, probes_per_class=2, seed=1)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "run.cfg"
    p.write_text(CONFIG_TEXT)
    return str(p)


@pytest.fixture(scope="module")
def model_file(small_dataset, config_file, tmp_path_factory):
    gallery_manifest, _ = small_dataset
    out = tmp_path_factory.mktemp("model") / "gallery.bin"
    code = main(
        ["enroll", "--config", config_file, "--manifest", gallery_manifest, "--out", str(out)]
    )
    assert code == 0
    return str(out)


class TestEnroll:
    def test_success_prints_dims(self, small_dataset, config_file, tmp_path, capsys):
        gallery_manifest, _ = small_dataset
        out = tmp_path / "model.bin"
        code = main(
            ["enroll", "--config", config_file, "--manifest", gallery_manifest, "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "k=" in captured and "feature_length=" in captured

    def test_missing_image_exits_3(self, config_file, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_text("path,subject_id,subset\nmissing1.pgm,a,g\nmissing2.pgm,b,g\n")
        code = main(
            ["enroll", "--config", config_file, "--manifest", str(manifest),
             "--out", str(tmp_path / "m.bin")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "missing1.pgm" in err
        assert err.count("\n") == 1

    def test_malformed_config_exits_2(self, small_dataset, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("block_size fifteen\n")
        code = main(
            ["enroll", "--config", str(cfg), "--manifest", small_dataset[0],
             "--out", str(tmp_path / "m.bin")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_unreadable_config_exits_4(self, small_dataset, tmp_path, capsys):
        code = main(
            ["enroll", "--config", str(tmp_path / "absent.cfg"),
             "--manifest", small_dataset[0], "--out", str(tmp_path / "m.bin")]
        )
        assert code == 4

    def test_non_finite_keypoint_exits_3(self, small_dataset, tmp_path, capsys):
        gallery_manifest, _ = small_dataset
        cfg = tmp_path / "kp.cfg"
        cfg.write_text("mode=keypoint\nblock_size=15\nkeypoint_count=2\nk_requested=4\n")
        kp_dir = tmp_path / "kp"
        kp_dir.mkdir()
        stems = [Path(rec.path).stem for rec in load_manifest(gallery_manifest)]
        for stem in stems:
            (kp_dir / f"{stem}.txt").write_text("20 20\n40 40\n")
        bad = kp_dir / f"{stems[1]}.txt"
        bad.write_text("20 20\nnan 3\n")
        code = main(
            ["enroll", "--config", str(cfg), "--manifest", gallery_manifest,
             "--out", str(tmp_path / "m.bin"), "--keypoints-dir", str(kp_dir)]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and f"{bad}:2: non-finite" in err
        assert err.count("\n") == 1

    def _enroll_one_line(self, capsys, *argv):
        code = main(["enroll", *argv])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        return err

    def test_manifest_not_utf8_exits_3(self, config_file, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_bytes(b"path,subject_id,subset\n\xff.pgm,a,g\n")
        err = self._enroll_one_line(capsys, "--config", config_file, "--manifest", str(manifest),
                                    "--out", str(tmp_path / "m.bin"))
        assert f"{manifest}: not UTF-8" in err

    def test_keypoint_file_not_utf8_exits_3(self, small_dataset, tmp_path, capsys):
        gallery_manifest, _ = small_dataset
        cfg = tmp_path / "kp.cfg"
        cfg.write_text("mode=keypoint\nblock_size=15\nkeypoint_count=2\nk_requested=4\n")
        bad = tmp_path / f"{Path(load_manifest(gallery_manifest)[0].path).stem}.txt"
        bad.write_bytes(b"20 20\n40 \xff\n")
        err = self._enroll_one_line(capsys, "--config", str(cfg), "--manifest", gallery_manifest,
                                    "--out", str(tmp_path / "m.bin"),
                                    "--keypoints-dir", str(tmp_path))
        assert f"{bad}: not UTF-8" in err

    def test_empty_pgm_exits_3(self, config_file, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / f"{name}.pgm").write_bytes(b"P5\n0 0\n255\n")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,subject_id,subset\n{tmp_path}/a.pgm,a,g\n{tmp_path}/b.pgm,b,g\n")
        err = self._enroll_one_line(capsys, "--config", config_file, "--manifest", str(manifest),
                                    "--out", str(tmp_path / "m.bin"))
        assert f"{tmp_path}/a.pgm" in err and "empty" in err

    def test_window_beyond_image_exits_3_before_building_the_bank(self, small_dataset, tmp_path,
                                                                   capsys, monkeypatch):
        def fail(params):
            raise AssertionError("kernel bank built for an image it cannot filter")

        monkeypatch.setattr(descriptor, "build_bank", fail)
        config = tmp_path / "big.cfg"
        config.write_text(CONFIG_TEXT + "window_len=301\n")
        code = main(["enroll", "--config", str(config), "--manifest", small_dataset[0],
                     "--out", str(tmp_path / "m.bin")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "smaller than kernel support 301" in err

    @pytest.mark.parametrize("line", ["directions=17", "scales=9"])
    def test_bank_beyond_bounds_exits_2(self, small_dataset, tmp_path, capsys, line):
        config = tmp_path / "big.cfg"
        config.write_text(CONFIG_TEXT + line + "\n")
        code = main(["enroll", "--config", str(config), "--manifest", small_dataset[0],
                     "--out", str(tmp_path / "m.bin")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: config:") and err.count("\n") == 1
        assert "directions must be in 1..16 and scales in 1..8" in err
        assert not (tmp_path / "m.bin").exists()


class TestIdentify:
    @pytest.mark.parametrize("field,value", [("directions", 17), ("scales", 9)])
    def test_model_with_bank_beyond_bounds_exits_3(self, small_dataset, model_file, tmp_path,
                                                   capsys, field, value):
        # directions and scales are the first two u32 of the config block,
        # after the magic and the u16 version; the CRC is made valid again
        offset = 6 + 4 * [f.name for f in dataclasses.fields(RunConfig)].index(field)
        body = bytearray(Path(model_file).read_bytes()[:-4])
        body[offset:offset + 4] = struct.pack("<I", value)
        bad = tmp_path / "big.bin"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        probe = small_dataset[0].replace("gallery.csv", "images/class00_probe0.pgm")
        code = main(["identify", "--model", str(bad), "--image", probe])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "config block: directions must be in 1..16 and scales in 1..8" in err

    def test_stdout_ranking(self, small_dataset, model_file, capsys):
        gallery_manifest, _ = small_dataset
        probe = gallery_manifest.replace("gallery.csv", "images/class00_probe0.pgm")
        code = main(["identify", "--model", model_file, "--image", probe, "--top", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,subject_id,distance"
        assert len(lines) == 4
        assert lines[1].startswith("1,class00,")

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_top_below_one_exits_2(self, small_dataset, model_file, capsys, top):
        gallery_manifest, _ = small_dataset
        probe = gallery_manifest.replace("gallery.csv", "images/class00_probe0.pgm")
        code = main(["identify", "--model", model_file, "--image", probe, "--top", top])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: config: --top must be at least 1, got {top}\n"

    def test_probe_of_other_size_names_probe(self, model_file, tmp_path, capsys):
        probe = tmp_path / "small.pgm"
        write_pgm(str(probe), np.rint(255 * grating(32, 0.3, 0.5)))
        code = main(["identify", "--model", model_file, "--image", str(probe)])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1
        assert f"{probe}: feature length 2244, the gallery's is 8976" in err


class TestEvaluate:
    def test_csv_rows(self, small_dataset, model_file, tmp_path):
        _, probe_manifest = small_dataset
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--model", model_file, "--manifest", probe_manifest,
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subset,n_probes,rank1,rank5"
        assert len(lines) == 2
        subset, n, r1, r5 = lines[1].split(",")
        assert subset == "noisy" and n == "8"
        assert len(r1.split(".")[1]) == 4  # 4-decimal fraction

    def test_two_subsets(self, small_dataset, model_file, tmp_path):
        _, probe_manifest = small_dataset
        with open(probe_manifest) as fh:
            lines = fh.read().strip().splitlines()
        split = tmp_path / "probes2.csv"
        relabeled = [lines[0]] + [
            line if i % 2 == 0 else line.rsplit(",", 1)[0] + ",other"
            for i, line in enumerate(lines[1:])
        ]
        split.write_text("\n".join(relabeled) + "\n")
        out = tmp_path / "eval.csv"
        assert main(["evaluate", "--model", model_file, "--manifest", str(split),
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 3


class TestSweep:
    def test_grid_rows_and_layout(self, small_dataset, config_file, tmp_path):
        gallery_manifest, probe_manifest = small_dataset
        grid = tmp_path / "grid.txt"
        grid.write_text("window_len=7,9\nsigma_pi=1.2\n")
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--config", config_file, "--grid", str(grid),
            "--gallery-manifest", gallery_manifest,
            "--probe-manifest", probe_manifest, "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "window_len,sigma_pi,acc"
        assert len(lines) == 3
        assert lines[1].startswith("7,1.2,")
        assert lines[2].startswith("9,1.2,")

    def test_empty_grid_single_row(self, small_dataset, config_file, tmp_path):
        gallery_manifest, probe_manifest = small_dataset
        grid = tmp_path / "grid.txt"
        grid.write_text("# nothing swept\n")
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--config", config_file, "--grid", str(grid),
            "--gallery-manifest", gallery_manifest,
            "--probe-manifest", probe_manifest, "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "acc"
        assert len(lines) == 2

    def test_byte_identical_reruns(self, small_dataset, config_file, tmp_path):
        gallery_manifest, probe_manifest = small_dataset
        grid = tmp_path / "grid.txt"
        grid.write_text("block_size=15\n")
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main([
                "sweep", "--config", config_file, "--grid", str(grid),
                "--gallery-manifest", gallery_manifest,
                "--probe-manifest", probe_manifest, "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def sweep_dataset(tmp_path_factory):
    """Noisy enough that sweep rows differ in accuracy."""
    return write_benchmark(tmp_path_factory.mktemp("sweep_bench"), n_classes=8,
                           probes_per_class=1, noise_sigma=0.4, seed=2)


def reference_sweep_csv(config_path, grid_path, gallery_manifest, probe_manifest, keypoints_dir=None):
    """The sweep CSV of one enroll and one identify per probe for every row."""
    base = load_config(config_path)
    grid = parse_grid_file(grid_path)
    keys = [k for k, _ in grid]
    gallery_records = load_manifest(gallery_manifest)
    probe_records = load_manifest(probe_manifest)
    lines = [",".join(keys + ["acc"])]
    for combo in itertools.product(*[vs for _, vs in grid]):
        config = dataclasses.replace(base, **dict(zip(keys, combo)))
        gallery = pipeline.enroll(gallery_records, config, keypoints_dir)
        results = [pipeline.identify(gallery, r.path, config, keypoints_dir, true_subject=r.subject_id)
                   for r in probe_records]
        lines.append(",".join([str(v) for v in combo]
                              + [f"{pipeline.rank_accuracy(results, 1):.4f}"]))
    return ("\n".join(lines) + "\n").encode()


class TestSweepSharesExtraction:
    @pytest.mark.parametrize("grid_text, jobs", [
        ("k_requested=2,5,50\nblock_size=11,15\n", 1),  # rows of a feature config interleave
        ("sigma_pi=0.8,1.2\nk_requested=2,50\n", 1),
        ("k_requested=2,5,50\nblock_size=11,15\n", 2),
    ])
    def test_csv_equals_per_row_reference(self, sweep_dataset, config_file, tmp_path,
                                          grid_text, jobs):
        gallery_manifest, probe_manifest = sweep_dataset
        grid = tmp_path / "grid.txt"
        grid.write_text(grid_text)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_file, "--grid", str(grid),
                     "--gallery-manifest", gallery_manifest, "--probe-manifest", probe_manifest,
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        expected = reference_sweep_csv(config_file, str(grid), gallery_manifest, probe_manifest)
        assert out.read_bytes() == expected
        accuracies = [line.rsplit(b",", 1)[1] for line in expected.splitlines()[1:]]
        assert len(set(accuracies)) > 1  # so rows given each other's results would show

    def test_each_image_extracted_once_per_feature_config(self, sweep_dataset, monkeypatch):
        gallery_manifest, probe_manifest = sweep_dataset
        gallery_records = load_manifest(gallery_manifest)
        probe_records = load_manifest(probe_manifest)
        calls = Counter()
        extract = pipeline.extract_feature

        def counting(path, config, keypoints_dir=None):
            calls[path, config.feature_fingerprint()] += 1
            return extract(path, config, keypoints_dir)

        monkeypatch.setattr(pipeline, "extract_feature", counting)
        configs = [RunConfig(block_size=b, k_requested=k)
                   for b, k in itertools.product((11, 15, 21), (5, 50))]
        pipeline.sweep(gallery_records, probe_records, configs, jobs=1)
        images = len(gallery_records) + len(probe_records)
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == 3 * images

    @pytest.fixture
    def decompose_calls(self, monkeypatch):
        """(preprocessed image bytes, Gabor settings) of every decompose call."""
        calls = Counter()
        decompose = descriptor.decompose

        def counting(image, bank):
            calls[image.tobytes(), bank.params] += 1
            return decompose(image, bank)

        monkeypatch.setattr(descriptor, "decompose", counting)
        return calls

    def run_sweep(self, dataset, config_file, tmp_path, grid_text, jobs=1, keypoints_dir=None):
        """``lglg sweep`` of ``grid_text``: the CSV's bytes and the grid file's path."""
        gallery_manifest, probe_manifest = dataset
        grid = tmp_path / "grid.txt"
        grid.write_text(grid_text)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", config_file, "--grid", str(grid),
                "--gallery-manifest", gallery_manifest, "--probe-manifest", probe_manifest,
                "--out", str(out), "--jobs", str(jobs)]
        if keypoints_dir is not None:
            argv += ["--keypoints-dir", keypoints_dir]
        assert main(argv) == 0
        return out.read_bytes(), str(grid)

    def images(self, dataset):
        return sum(len(load_manifest(m)) for m in dataset)

    def test_each_image_decomposed_once_across_block_sizes(self, sweep_dataset, decompose_calls):
        configs = [RunConfig(block_size=b, k_requested=k)
                   for b, k in itertools.product((11, 15, 21), (5, 50))]
        pipeline.sweep(*map(load_manifest, sweep_dataset), configs, jobs=1)
        assert set(decompose_calls.values()) == {1}
        assert len(decompose_calls) == self.images(sweep_dataset)

    def test_interleaved_grid_decomposes_once_per_sigma(self, sweep_dataset, config_file, tmp_path,
                                                        decompose_calls):
        # consecutive rows differ in sigma_pi, so each image's two stacks alternate
        self.run_sweep(sweep_dataset, config_file, tmp_path, "block_size=11,15\nsigma_pi=0.8,1.2\n")
        assert set(decompose_calls.values()) == {1}
        assert len(decompose_calls) == 2 * self.images(sweep_dataset)
        assert {params.sigma for _, params in decompose_calls} == {0.8 * np.pi, 1.2 * np.pi}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interleaved_grid_equals_reference(self, sweep_dataset, config_file, tmp_path, jobs):
        got, grid = self.run_sweep(sweep_dataset, config_file, tmp_path,
                                   "block_size=11,15\nsigma_pi=0.8,1.2\nk_requested=3,4\n", jobs)
        expected = reference_sweep_csv(config_file, grid, *sweep_dataset)
        assert got == expected
        accuracies = [line.rsplit(b",", 1)[1] for line in expected.splitlines()[1:]]
        assert len(set(accuracies)) > 1

    def test_keypoint_sweep_shares_subbands(self, sweep_dataset, tmp_path, decompose_calls):
        keypoints = tmp_path / "kp"
        keypoints.mkdir()
        points = "".join(f"{x} {y}\n" for x, y in [(16, 16), (48, 20), (32, 40), (20, 50), (50, 50)])
        for manifest in sweep_dataset:
            for rec in load_manifest(manifest):
                (keypoints / (Path(rec.path).stem + ".txt")).write_text(points)
        config = tmp_path / "kp.cfg"
        config.write_text(CONFIG_TEXT + "mode=keypoint\nkeypoint_count=5\n")
        # keypoint_count stays fixed: every row reads the same sidecar files,
        # and each must hold exactly keypoint_count points
        got, grid = self.run_sweep(sweep_dataset, str(config), tmp_path,
                                   "block_size=11,21\nridge_scale=0.0001,0.1\n",
                                   keypoints_dir=str(keypoints))
        assert set(decompose_calls.values()) == {1}
        assert len(decompose_calls) == self.images(sweep_dataset)
        assert got == reference_sweep_csv(str(config), grid, *sweep_dataset, str(keypoints))

    def test_identify_twice_decomposes_twice(self, sweep_dataset, decompose_calls):
        gallery_records, probe_records = map(load_manifest, sweep_dataset)
        config = RunConfig(k_requested=5)
        gallery = pipeline.enroll(gallery_records, config)
        decompose_calls.clear()
        for _ in range(2):
            pipeline.identify(gallery, probe_records[0].path, config)
        assert list(decompose_calls.values()) == [2]

    def test_slot_empty_after_extract_all(self, sweep_dataset):
        path = load_manifest(sweep_dataset[0])[0].path
        configs = [RunConfig(block_size=11), RunConfig(block_size=15)]
        pipeline._extract_all(path, configs, None)
        assert descriptor._shared is None
        with pytest.raises(ExtractionError):
            pipeline._extract_all(path, configs + [RunConfig(block_size=99)], None)
        assert descriptor._shared is None

    @pytest.mark.parametrize("base_mode, grid_text, code", [
        ("keypoint", "keypoint_count=5,6\nblock_size=11\n", 2),
        ("keypoint", "mode=grid,keypoint\nkeypoint_count=5,6\n", 2),
        ("grid", "keypoint_count=5,6\n", 0),
    ])
    def test_keypoint_count_takes_one_value_in_keypoint_mode(self, sweep_dataset, tmp_path, capsys,
                                                             monkeypatch, base_mode, grid_text,
                                                             code):
        def fail(path):
            raise AssertionError(f"{path} read before the grid was refused")

        if code:
            monkeypatch.setattr("lglg.cli.load_manifest", fail)
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG_TEXT + f"mode={base_mode}\nk_requested=5\n")
        grid = tmp_path / "grid.txt"
        grid.write_text(grid_text)
        gallery_manifest, probe_manifest = sweep_dataset
        got = main(["sweep", "--config", str(config), "--grid", str(grid),
                    "--gallery-manifest", gallery_manifest, "--probe-manifest", probe_manifest,
                    "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert got == code
        if code:
            assert err.startswith("error: config:") and err.count("\n") == 1
            assert "keypoint_count [5, 6]" in err

    def test_no_probes_exits_3(self, sweep_dataset, config_file, tmp_path, capsys):
        gallery_manifest, _ = sweep_dataset
        probes = tmp_path / "probes.csv"
        probes.write_text("path,subject_id,subset\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("k_requested=5,50\n")
        code = main(["sweep", "--config", config_file, "--grid", str(grid),
                     "--gallery-manifest", gallery_manifest, "--probe-manifest", str(probes),
                     "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "at least one probe" in err

    @pytest.mark.parametrize("gallery_rows", [0, 1])
    def test_gallery_below_two_records_exits_3(self, sweep_dataset, config_file, tmp_path,
                                               capsys, gallery_rows):
        gallery_manifest, probe_manifest = sweep_dataset
        lines = open(gallery_manifest, encoding="utf-8").read().splitlines()
        gallery = tmp_path / "gallery.csv"
        gallery.write_text("\n".join(lines[:1 + gallery_rows]) + "\n")
        grid = tmp_path / "grid.txt"
        grid.write_text("k_requested=5,50\n")
        code = main(["sweep", "--config", config_file, "--grid", str(grid),
                     "--gallery-manifest", str(gallery), "--probe-manifest", probe_manifest,
                     "--out", str(tmp_path / "sweep.csv")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "at least 2 gallery records" in err
