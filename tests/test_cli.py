import csv
import dataclasses
import itertools
import math
import os
import resource
import struct
import subprocess
import sys
import weakref
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lglg import descriptor, parallel, pipeline
from lglg.cli import MAX_GRID_ROWS, main
from lglg.config import RunConfig
from lglg.errors import ExtractionError
from lglg.formats import load_config, parse_grid_file, write_pgm
from lglg.gabor import MAX_FILTER_BYTES
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


def main_in_child(argv, limit=1_500_000_000):
    """``lglg.cli.main(argv)`` run in a child process whose address space is
    limited to ``limit`` bytes: the completed process, its output as text."""
    code = f"import sys; from lglg.cli import main; sys.exit(main({argv!r}))"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, preexec_fn=limit_memory,
                          env={**os.environ, "PYTHONPATH": str(Path(parallel.__file__).parents[1])})


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

    def test_keeps_at_most_n_minus_one_components(self, tmp_path, capsys):
        # a near-flat bank makes three gallery features differ near rounding
        # level; their centred rank is 2, and 2 is what the model keeps
        gallery_manifest, _ = write_benchmark(tmp_path, n_classes=3, size=32, seed=0)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_pi=1000\nk_max_pi=0.001\n")
        code = main(["enroll", "--config", str(cfg), "--manifest", gallery_manifest,
                     "--out", str(tmp_path / "m.bin"), "--jobs", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("k=2 ")

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
        cfg.write_text("mode=keypoint\nblock_size=15\nk_requested=4\n")
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
        cfg.write_text("mode=keypoint\nblock_size=15\nk_requested=4\n")
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

    def test_image_over_filter_bound_exits_3_before_filtering(self, config_file, tmp_path):
        # a 3000x3000 image needs 7.1 GB of planes and spectra under the
        # default bank. The child runs under an address-space limit, so a
        # bound that stopped holding fails here with a MemoryError instead of
        # taking the machine's memory
        rng = np.random.default_rng(0)
        paths = [str(tmp_path / f"{name}.pgm") for name in ("a", "b")]
        for path in paths:
            write_pgm(path, rng.integers(0, 256, (3000, 3000)))
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,subject_id,subset\n{paths[0]},a,g\n{paths[1]},b,g\n")
        run = main_in_child(["enroll", "--config", config_file, "--manifest", str(manifest),
                             "--out", str(tmp_path / "m.bin"), "--jobs", "1"])
        assert (run.returncode, run.stderr) == (
            3, f"error: data: {paths[0]}: image (3000, 3000) needs 7138983936 bytes of Gabor "
               f"planes and kernel spectra, more than {MAX_FILTER_BYTES}\n")
        assert not (tmp_path / "m.bin").exists()

    def test_image_over_filter_bound_exits_3_before_float_copy(self, config_file, tmp_path):
        # a 12000x12000 image is read as 2 bytes a pixel (the file and its
        # pixels), well within the child's 1.1 GB address space; one float64
        # copy of it takes 1.15 GB more, so the bound must hold before any.
        # The images are sparse files of zeros, so writing them is fast
        header = b"P5\n12000 12000\n255\n"
        paths = [str(tmp_path / f"{name}.pgm") for name in ("a", "b")]
        for path in paths:
            with open(path, "wb") as fh:
                fh.write(header)
                fh.truncate(len(header) + 12000 * 12000)
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,subject_id,subset\n{paths[0]},a,g\n{paths[1]},b,g\n")
        run = main_in_child(["enroll", "--config", config_file, "--manifest", str(manifest),
                             "--out", str(tmp_path / "m.bin"), "--jobs", "1"],
                            limit=1_100_000 * 1024)
        assert (run.returncode, run.stderr) == (
            3, f"error: data: {paths[0]}: image (12000, 12000) needs 112459161600 bytes of Gabor "
               f"planes and kernel spectra, more than {MAX_FILTER_BYTES}\n")
        assert not (tmp_path / "m.bin").exists()

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

    @pytest.mark.parametrize("line, message", [
        # the first three crashed in the kernel bank or the DoG blur; 1e5
        # blurred for seconds per image
        pytest.param(line, message, id=line) for line, message in [
            ("spacing=1e200", "spacing factor must exceed 1 and be at most 16, got 1e+200"),
            ("sigma_pi=1e-300", "sigma and k_max must be 0.001 to 1000 times pi, got 1e-300 and 0.5"),
            ("dog_sigma_outer=1e12", "dog_sigma_inner < dog_sigma_outer <= 64, got 1 and 1e+12"),
            ("dog_sigma_outer=1e5", "dog_sigma_inner < dog_sigma_outer <= 64, got 1 and 100000"),
        ]
    ])
    def test_value_beyond_bounds_exits_2(self, small_dataset, tmp_path, capsys, no_image_read,
                                         line, message):
        config = tmp_path / "far.cfg"
        config.write_text(CONFIG_TEXT + line + "\n")
        code = main(["enroll", "--config", str(config), "--manifest", small_dataset[0],
                     "--out", str(tmp_path / "m.bin"), "--jobs", "1"])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: config:") and err.count("\n") == 1
        assert message in err
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

    def test_model_with_sigma_beyond_bounds_exits_3(self, small_dataset, model_file, tmp_path,
                                                    capsys):
        # sigma_pi, an f64, follows the u32 directions and scales
        offset = 6 + struct.calcsize("<II")
        body = bytearray(Path(model_file).read_bytes()[:-4])
        body[offset:offset + 8] = struct.pack("<d", 1e-300)
        bad = tmp_path / "narrow.bin"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
        probe = small_dataset[0].replace("gallery.csv", "images/class00_probe0.pgm")
        code = main(["identify", "--model", str(bad), "--image", probe])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "config block: sigma and k_max must be 0.001 to 1000 times pi, got 1e-300" in err

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

    def test_no_probes_exits_3(self, model_file, tmp_path, capsys):
        probes = tmp_path / "probes.csv"
        probes.write_text("path,subject_id,subset\n")
        out = tmp_path / "eval.csv"
        code = main(["evaluate", "--model", model_file, "--manifest", str(probes),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: data:") and err.count("\n") == 1
        assert "evaluate needs at least one probe record" in err
        assert not out.exists()


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

    def test_grid_over_max_rows_exits_2_before_building_rows(self, config_file, tmp_path):
        # 10 keys of 8-10 values: about 3 * 10**9 rows. The child runs under an
        # address-space limit, so a bound that stopped holding fails here
        # with a MemoryError instead of taking the machine's memory
        keys = [f.name for f in dataclasses.fields(RunConfig) if f.type in (int, float)][:10]
        grid = tmp_path / "grid.txt"
        grid.write_text("".join(f"{key}={','.join(['1'] * (8 + i % 3))}\n"
                                for i, key in enumerate(keys)))
        run = main_in_child(["sweep", "--config", config_file, "--grid", str(grid),
                             "--gallery-manifest", "none.csv", "--probe-manifest", "none.csv",
                             "--out", str(tmp_path / "never.csv")])
        rows = math.prod(8 + i % 3 for i in range(10))
        assert (run.returncode, run.stderr) == (
            2, f"error: config: grid gives {rows} rows, more than {MAX_GRID_ROWS}\n")
        assert not (tmp_path / "never.csv").exists()

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


class TestCsvFields:
    """Result tables are CSV: fields holding a comma, a quote or a line break
    read back as they were, and plain fields are written as they are."""

    SUBJECTS = ['class00,x"y', "class01\nz", "cl\rass02", "class03"]
    SUBSET = 'noisy,"set"'

    @staticmethod
    def read(path):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))

    @pytest.fixture(scope="class")
    def relabeled(self, tmp_path_factory):
        """(gallery manifest, probe manifest) with the odd subject ids and subset."""
        root = tmp_path_factory.mktemp("csv_fields")
        manifests = write_benchmark(root, n_classes=4, probes_per_class=1, seed=1)
        for manifest in manifests:
            rows = [[r.path, self.SUBJECTS[int(r.subject_id[5:])],
                     self.SUBSET if r.subset == "noisy" else r.subset]
                    for r in load_manifest(manifest)]
            with open(manifest, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([["path", "subject_id", "subset"], *rows])
        return manifests

    def test_outputs_read_back_field_for_field(self, relabeled, config_file, tmp_path):
        gallery_manifest, probe_manifest = relabeled
        model, ranking, table = (str(tmp_path / n) for n in ("m.bin", "id.csv", "eval.csv"))
        assert main(["enroll", "--config", config_file, "--manifest", gallery_manifest,
                     "--out", model]) == 0
        probe = load_manifest(probe_manifest)[0]
        assert main(["identify", "--model", model, "--image", probe.path, "--top", "4",
                     "--out", ranking]) == 0
        rows = self.read(ranking)
        assert rows[0] == ["rank", "subject_id", "distance"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3", "4"]
        assert sorted(r[1] for r in rows[1:]) == sorted(self.SUBJECTS)
        assert rows[1][1] == probe.subject_id
        assert main(["evaluate", "--model", model, "--manifest", probe_manifest,
                     "--out", table]) == 0
        rows = self.read(table)
        assert rows[0] == ["subset", "n_probes", "rank1", "rank5"]
        assert [r[:2] for r in rows[1:]] == [[self.SUBSET, "4"]]

    def test_plain_fields_are_not_quoted(self, relabeled, config_file, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text("block_size=11,15\nsigma_pi=1.2\n")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", config_file, "--grid", str(grid),
                     "--gallery-manifest", relabeled[0], "--probe-manifest", relabeled[1],
                     "--out", str(out)]) == 0
        rows = self.read(out)
        assert [r[:2] for r in rows] == [["block_size", "sigma_pi"], ["11", "1.2"], ["15", "1.2"]]
        assert out.read_text(encoding="utf-8") == "".join(",".join(r) + "\n" for r in rows)


class TestUsageErrors:
    """Usage errors exit 2 with one stderr line, before any image is read."""

    @pytest.fixture
    def keypoint_config(self, tmp_path):
        cfg = tmp_path / "kp.cfg"
        cfg.write_text(CONFIG_TEXT + "mode=keypoint\n")
        return str(cfg)

    @pytest.fixture
    def keypoint_model(self, model_file, tmp_path):
        gallery = pipeline.load_model(model_file)
        config = dataclasses.replace(gallery.config, mode="keypoint")
        path = str(tmp_path / "kp.bin")
        pipeline.save_model(dataclasses.replace(gallery, config=config), path)
        return path

    def argv(self, command, dataset, config, tmp_path, model=None):
        gallery_manifest, probe_manifest = dataset
        if command == "enroll":
            return ["enroll", "--config", config, "--manifest", gallery_manifest,
                    "--out", str(tmp_path / "m.bin")]
        if command == "evaluate":
            return ["evaluate", "--model", model, "--manifest", probe_manifest,
                    "--out", str(tmp_path / "eval.csv")]
        grid = tmp_path / "grid.txt"
        grid.write_text("k_requested=3,4\n")
        return ["sweep", "--config", config, "--grid", str(grid),
                "--gallery-manifest", gallery_manifest, "--probe-manifest", probe_manifest,
                "--out", str(tmp_path / "sweep.csv")]

    def one_config_line(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        return captured.err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["enroll", "sweep", "evaluate"])
    def test_jobs_below_one_exits_2(self, small_dataset, config_file, model_file, tmp_path, capsys,
                                    no_image_read, command, jobs):
        argv = self.argv(command, small_dataset, config_file, tmp_path, model_file) + ["--jobs", jobs]
        err = self.one_config_line(capsys, argv)
        assert err == f"error: config: jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("command", ["enroll", "sweep"])
    def test_keypoint_mode_without_dir_exits_2(self, small_dataset, keypoint_config, tmp_path,
                                               capsys, no_image_read, command):
        argv = self.argv(command, small_dataset, keypoint_config, tmp_path)
        err = self.one_config_line(capsys, argv)
        assert err == "error: config: keypoint mode requires --keypoints-dir\n"

    def test_keypoint_model_without_dir_exits_2(self, small_dataset, keypoint_model, tmp_path,
                                                capsys, no_image_read):
        probe = load_manifest(small_dataset[1])[0].path
        for argv in (["identify", "--model", keypoint_model, "--image", probe],
                     ["evaluate", "--model", keypoint_model, "--manifest", small_dataset[1],
                      "--out", str(tmp_path / "eval.csv")]):
            err = self.one_config_line(capsys, argv)
            assert err == "error: config: keypoint mode requires --keypoints-dir\n"


class TestKeypointCountFromSidecars:
    """Keypoint mode embeds one block per point of each image's sidecar file.
    No config key sets the count: images whose counts differ fail where
    their features meet, naming the image."""

    POINTS = [(16, 16), (48, 20), (32, 40), (20, 50), (50, 50)]
    BLOCK = 33 * 34 // 2  # feature length of one block under the 8x4 bank

    def write(self, path, n):
        path.write_text("".join(f"{x} {y}\n" for x, y in self.POINTS[:n]))

    @pytest.fixture
    def keypoints(self, small_dataset, tmp_path):
        """The keypoints dir: 5 points for every gallery and probe image."""
        kp = tmp_path / "kp"
        kp.mkdir()
        for manifest in small_dataset:
            for rec in load_manifest(manifest):
                self.write(kp / f"{Path(rec.path).stem}.txt", 5)
        return kp

    @pytest.fixture
    def config(self, tmp_path):
        cfg = tmp_path / "kp.cfg"
        cfg.write_text(CONFIG_TEXT + "mode=keypoint\n")
        return str(cfg)

    def sidecar(self, keypoints, manifest, i):
        """The image path of row ``i`` of ``manifest`` and its sidecar file."""
        path = load_manifest(manifest)[i].path
        return path, keypoints / f"{Path(path).stem}.txt"

    def enroll(self, small_dataset, config, keypoints, tmp_path):
        return main(["enroll", "--config", config, "--manifest", small_dataset[0],
                     "--out", str(tmp_path / "m.bin"), "--keypoints-dir", str(keypoints),
                     "--jobs", "1"])

    def evaluate(self, small_dataset, keypoints, tmp_path):
        return main(["evaluate", "--model", str(tmp_path / "m.bin"), "--manifest", small_dataset[1],
                     "--out", str(tmp_path / "eval.csv"), "--keypoints-dir", str(keypoints),
                     "--jobs", "1"])

    def data_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and err.count("\n") == 1
        return err

    def test_count_comes_from_the_files(self, small_dataset, config, keypoints, tmp_path, capsys):
        assert self.enroll(small_dataset, config, keypoints, tmp_path) == 0
        assert f"feature_length={5 * self.BLOCK}" in capsys.readouterr().out
        assert self.evaluate(small_dataset, keypoints, tmp_path) == 0
        rows = (tmp_path / "eval.csv").read_text().splitlines()
        assert rows[0] == "subset,n_probes,rank1,rank5" and rows[1].startswith("noisy,8,")

    def test_gallery_image_with_other_count_exits_3(self, small_dataset, config, keypoints,
                                                    tmp_path, capsys):
        first, _ = self.sidecar(keypoints, small_dataset[0], 0)
        image, sidecar = self.sidecar(keypoints, small_dataset[0], 2)
        self.write(sidecar, 4)
        assert self.enroll(small_dataset, config, keypoints, tmp_path) == 3
        err = self.data_error(capsys)
        assert (f"{image}: feature length {4 * self.BLOCK}, {first}'s is {5 * self.BLOCK} "
                "(gallery images differ in size or key-point count?)") in err
        assert not (tmp_path / "m.bin").exists()

    def test_probe_with_other_count_exits_3(self, small_dataset, config, keypoints, tmp_path,
                                            capsys):
        assert self.enroll(small_dataset, config, keypoints, tmp_path) == 0
        probe, sidecar = self.sidecar(keypoints, small_dataset[1], 3)
        self.write(sidecar, 4)
        assert self.evaluate(small_dataset, keypoints, tmp_path) == 3
        err = self.data_error(capsys)
        assert f"{probe}: feature length {4 * self.BLOCK}, the gallery's is {5 * self.BLOCK}" in err
        assert not (tmp_path / "eval.csv").exists()

    def test_empty_sidecar_exits_3(self, small_dataset, config, keypoints, tmp_path, capsys):
        _, sidecar = self.sidecar(keypoints, small_dataset[0], 1)
        sidecar.write_text("\n")
        assert self.enroll(small_dataset, config, keypoints, tmp_path) == 3
        assert f"{sidecar}: no points" in self.data_error(capsys)

    @pytest.mark.parametrize("command", ["enroll", "sweep"])
    def test_keypoint_count_key_exits_2(self, small_dataset, config, keypoints, tmp_path, capsys,
                                        no_image_read, command):
        gallery_manifest, probe_manifest = small_dataset
        bad = tmp_path / "bad.txt"
        bad.write_text("keypoint_count=5\n")
        if command == "enroll":
            argv = ["enroll", "--config", str(bad), "--manifest", gallery_manifest,
                    "--out", str(tmp_path / "m.bin")]
        else:
            argv = ["sweep", "--config", config, "--grid", str(bad),
                    "--gallery-manifest", gallery_manifest, "--probe-manifest", probe_manifest,
                    "--out", str(tmp_path / "sweep.csv")]
        assert main(argv + ["--keypoints-dir", str(keypoints)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config: {bad}:1: unknown key 'keypoint_count'\n"


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

        def counting(path, config, keypoints_dir=None, stacks=None):
            calls[path, config.feature_fingerprint()] += 1
            return extract(path, config, keypoints_dir, stacks)

        monkeypatch.setattr(pipeline, "extract_feature", counting)
        configs = [RunConfig(block_size=b, k_requested=k)
                   for b, k in itertools.product((11, 15, 21), (5, 50))]
        pipeline.sweep(gallery_records, probe_records, configs, jobs=1)
        images = len(gallery_records) + len(probe_records)
        assert set(calls.values()) == {1}
        assert sum(calls.values()) == 3 * images

    def test_each_image_read_once(self, sweep_dataset, monkeypatch):
        calls = Counter()
        read = pipeline.read_pgm

        def counting(path):
            calls[path] += 1
            return read(path)

        monkeypatch.setattr(pipeline, "read_pgm", counting)
        configs = [RunConfig(block_size=b, k_requested=5) for b in (11, 15, 21)]
        pipeline.sweep(*map(load_manifest, sweep_dataset), configs, jobs=1)
        assert set(calls.values()) == {1}
        assert len(calls) == self.images(sweep_dataset)

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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_keypoint_sweep_shares_subbands(self, sweep_dataset, tmp_path, decompose_calls, jobs):
        keypoints = tmp_path / "kp"
        keypoints.mkdir()
        points = "".join(f"{x} {y}\n" for x, y in [(16, 16), (48, 20), (32, 40), (20, 50), (50, 50)])
        for manifest in sweep_dataset:
            for rec in load_manifest(manifest):
                (keypoints / (Path(rec.path).stem + ".txt")).write_text(points)
        config = tmp_path / "kp.cfg"
        config.write_text(CONFIG_TEXT + "mode=keypoint\n")
        got, grid = self.run_sweep(sweep_dataset, str(config), tmp_path,
                                   "block_size=11,21\nridge_scale=0.0001,0.1\n", jobs,
                                   keypoints_dir=str(keypoints))
        # pool workers decompose the gallery and the probes, but the first
        # image of each, out of this process's sight
        def in_process(n):
            return 1 if min(jobs, n - 1, parallel.AFFINITY) > 1 else n

        assert set(decompose_calls.values()) == {1}
        assert len(decompose_calls) == sum(in_process(len(load_manifest(m))) for m in sweep_dataset)
        assert got == reference_sweep_csv(str(config), grid, *sweep_dataset, str(keypoints))

    def test_identify_twice_decomposes_twice(self, sweep_dataset, decompose_calls):
        gallery_records, probe_records = map(load_manifest, sweep_dataset)
        config = RunConfig(k_requested=5)
        gallery = pipeline.enroll(gallery_records, config)
        decompose_calls.clear()
        for _ in range(2):
            pipeline.identify(gallery, probe_records[0].path, config)
        assert list(decompose_calls.values()) == [2]

    def test_stacks_freed_after_extract_all(self, sweep_dataset, monkeypatch):
        refs = []
        decompose = descriptor.decompose

        def recording(image, bank):
            planes = decompose(image, bank)
            refs.append(weakref.ref(planes))
            return planes

        monkeypatch.setattr(descriptor, "decompose", recording)
        path = load_manifest(sweep_dataset[0])[0].path
        configs = [RunConfig(block_size=11), RunConfig(sigma_pi=1.2), RunConfig(block_size=15)]
        pipeline._extract_all(path, configs, None)
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        refs.clear()
        with pytest.raises(ExtractionError):
            pipeline._extract_all(path, configs + [RunConfig(block_size=99)], None)
        assert len(refs) == 3 and all(ref() is None for ref in refs)

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
