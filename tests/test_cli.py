from pathlib import Path

import pytest

from lglg.cli import main
from lglg.pipeline import load_manifest
from lglg.synthetic import write_benchmark

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


class TestIdentify:
    def test_stdout_ranking(self, small_dataset, model_file, capsys):
        gallery_manifest, _ = small_dataset
        probe = gallery_manifest.replace("gallery.csv", "images/class00_probe0.pgm")
        code = main(["identify", "--model", model_file, "--image", probe, "--top", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,subject_id,distance"
        assert len(lines) == 4
        assert lines[1].startswith("1,class00,")


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
