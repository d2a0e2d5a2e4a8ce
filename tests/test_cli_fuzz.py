"""``lglg`` on fuzzed input files: whatever the bytes of a config, grid,
manifest, PGM or model file, a failing command prints exactly one stderr
line, exits 2, 3 or 4, and raises no traceback.

Each test fuzzes one file and keeps the others valid. Fuzzed configs and
grids run against a one-record gallery, so the run stops before extraction
and a fuzzed value never sizes a kernel bank; the model fuzz leaves the
config block intact for the same reason. Only the fuzzed float fields of
the kernel shape, preprocessing and contrast reach extraction: with the
bank size and ``block_size`` at their defaults, each example enrolls the
3-record gallery in process."""

import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lglg.cli import main
from lglg.config import CONFIG_BLOCK_SIZE, RunConfig
from lglg.formats import write_pgm
from lglg.gabor import MAX_SPACING, SHAPE_RANGE_PI
from lglg.preprocess import DOG_SIGMA_RANGE, MIN_CONTRAST_ALPHA, MIN_CONTRAST_TAU
from lglg.synthetic import write_benchmark

CONFIG_TEXT = "block_size=8\nk_requested=4\n"
MODEL_BODY_START = 6 + CONFIG_BLOCK_SIZE  # magic, version, config block

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs: config, 3-record gallery, 1-record gallery, probe, model."""
    root = tmp_path_factory.mktemp("fuzz")
    gallery, probes = write_benchmark(root, n_classes=3, probes_per_class=1, size=32, seed=5)
    config = root / "run.cfg"
    config.write_text(CONFIG_TEXT)
    lines = open(gallery, encoding="utf-8").read().splitlines()
    one = root / "one.csv"
    one.write_text("\n".join(lines[:2]) + "\n")
    model = root / "model.bin"
    assert main(["enroll", "--config", str(config), "--manifest", gallery, "--out", str(model)]) == 0
    probe = open(probes, encoding="utf-8").read().splitlines()[1].split(",")[0]
    return {"root": root, "config": str(config), "gallery": gallery, "one": str(one),
            "probes": probes, "probe": probe, "model": model.read_bytes()}


def fails_with_one_line(capsys, argv, may_succeed=False):
    """Run ``lglg argv``; return its stderr. ``may_succeed`` allows exit 0
    with nothing on stderr, for inputs that can be valid."""
    code = main(argv)
    err = capsys.readouterr().err
    if may_succeed and code == 0:
        assert err == ""
        return err
    assert code in (2, 3, 4), (code, err)
    assert err.count("\n") == 1 and err.startswith("error: "), err
    assert "Traceback" not in err
    return err


def key_values(draw_values):
    """Lines of real config keys with fuzzed values, mixed with raw bytes."""
    line = st.builds(lambda key, value: key.encode() + b"=" + value,
                     st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]), draw_values)
    lines = st.lists(st.one_of(line, st.binary(max_size=12)), max_size=4).map(b"\n".join)
    return st.one_of(st.binary(max_size=64), lines)


VALUE = st.one_of(st.binary(max_size=8), st.sampled_from(
    [b"0", b"-1", b"1e400", b"nan", b"4294967296", b"grid", b"keypoint", b"2.5", b"3"]))


@FUZZ
@given(key_values(VALUE))
def test_enroll_config(files, capsys, data):
    path = files["root"] / "fuzz.cfg"
    path.write_bytes(data)
    fails_with_one_line(capsys, ["enroll", "--config", str(path), "--manifest", files["one"],
                                 "--out", str(files["root"] / "never.bin")])


def float_value(lo, hi):
    """Any float, or one of the field's accepted range and its bounds."""
    return st.one_of(st.floats(), st.floats(lo, hi)).map(repr)


FLOAT_FIELDS = st.fixed_dictionaries({}, optional={
    "sigma_pi": float_value(*SHAPE_RANGE_PI),
    "k_max_pi": float_value(*SHAPE_RANGE_PI),
    "spacing": float_value(1.0, MAX_SPACING),
    "gamma": float_value(0.0, 1.0),
    "dog_sigma_inner": float_value(*DOG_SIGMA_RANGE),
    "dog_sigma_outer": float_value(*DOG_SIGMA_RANGE),
    "contrast_alpha": float_value(MIN_CONTRAST_ALPHA, 1.0),
    "contrast_tau": float_value(MIN_CONTRAST_TAU, 1e3),
})


@settings(FUZZ, max_examples=100)  # about a quarter are valid configs
@given(FLOAT_FIELDS)
def test_enroll_float_fields(files, capsys, values):
    path = files["root"] / "fuzz_floats.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in values.items()))
    fails_with_one_line(capsys, ["enroll", "--config", str(path), "--manifest", files["gallery"],
                                 "--out", str(files["root"] / "floats.bin"), "--jobs", "1"],
                        may_succeed=True)


@FUZZ
@given(key_values(st.lists(VALUE, min_size=1, max_size=3).map(b",".join)))
def test_sweep_grid(files, capsys, data):
    path = files["root"] / "fuzz_grid.txt"
    path.write_bytes(data)
    fails_with_one_line(capsys, ["sweep", "--config", files["config"], "--grid", str(path),
                                 "--gallery-manifest", files["one"], "--probe-manifest", files["probes"],
                                 "--out", str(files["root"] / "never.csv")])


@FUZZ
@given(st.one_of(st.binary(max_size=64),
                 st.binary(max_size=64).map(lambda rows: b"path,subject_id,subset\n" + rows)))
@example(b"path,subject_id,subset\n" + b"a" * 200_000 + b",s1,fb\n")  # over the csv field limit
@example(b"path,subject_id,subset\nimg\0.pgm,s1,fb\nb.pgm,s2,fb\n")
def test_enroll_manifest(files, capsys, data):
    path = files["root"] / "fuzz.csv"
    path.write_bytes(data)
    fails_with_one_line(capsys, ["enroll", "--config", files["config"], "--manifest", str(path),
                                 "--out", str(files["root"] / "never.bin")])


@st.composite
def small_pgm(draw):
    """A valid P5 image of 1-14 pixels a side, smaller than the 32x32 set."""
    h, w = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    pixels = draw(st.binary(min_size=h * w, max_size=h * w))
    return b"P5\n%d %d\n255\n" % (w, h) + pixels


PGM = st.one_of(st.binary(max_size=64), small_pgm(), small_pgm().map(lambda b: b[: len(b) // 2]))


@FUZZ
@given(PGM, st.booleans())
def test_enroll_pgm(files, capsys, data, first):
    # first: the image whose size the parent builds the kernel spectra for
    image = files["root"] / "fuzz_gallery.pgm"
    image.write_bytes(data)
    manifest = files["root"] / "fuzz_gallery.csv"
    header, *lines = open(files["gallery"], encoding="utf-8").read().splitlines()[:3]
    fuzzed = [f"{image},fuzzed,gallery"]
    manifest.write_text("\n".join([header] + (fuzzed + lines if first else lines + fuzzed)) + "\n")
    fails_with_one_line(capsys, ["enroll", "--config", files["config"], "--manifest", str(manifest),
                                 "--out", str(files["root"] / "never.bin")])


@FUZZ
@given(PGM)
def test_identify_pgm(files, capsys, data):
    model = files["root"] / "probe_model.bin"
    model.write_bytes(files["model"])
    image = files["root"] / "fuzz_probe.pgm"
    image.write_bytes(data)
    fails_with_one_line(capsys, ["identify", "--model", str(model), "--image", str(image)])


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


@FUZZ
@given(st.one_of(
    st.binary(max_size=64),
    st.tuples(st.integers(0, 10_000), st.binary(min_size=1, max_size=12)),
    st.integers(0, 10_000),
))
def test_identify_model(files, capsys, fuzz):
    body = files["model"][:-4]
    if isinstance(fuzz, bytes):
        data = fuzz
    elif isinstance(fuzz, int):  # truncated after the config block, CRC recomputed
        data = with_crc(body[: MODEL_BODY_START + fuzz % (len(body) - MODEL_BODY_START)])
    else:  # patched after the config block, CRC recomputed
        pos, patch = fuzz
        pos = MODEL_BODY_START + pos % (len(body) - MODEL_BODY_START)
        patched = body[:pos] + patch + body[pos + len(patch):]
        if patched == body:
            patched += b"\0"
        data = with_crc(patched)
    model = files["root"] / "fuzz_model.bin"
    model.write_bytes(data)
    # a patched float can leave a valid model, which ranks the probe
    fails_with_one_line(capsys, ["identify", "--model", str(model), "--image", files["probe"]],
                        may_succeed=isinstance(fuzz, tuple))


def test_mixed_size_gallery_is_one_line(files, capsys):
    small = files["root"] / "small.pgm"
    write_pgm(str(small), np.random.default_rng(0).integers(0, 256, (12, 12)))
    manifest = files["root"] / "mixed.csv"
    lines = open(files["gallery"], encoding="utf-8").read().splitlines()
    manifest.write_text("\n".join(lines + [f"{small},small,gallery"]) + "\n")
    err = fails_with_one_line(capsys, ["enroll", "--config", files["config"], "--manifest", str(manifest),
                                       "--out", str(files["root"] / "never.bin")])
    assert "small.pgm: feature length" in err


def test_model_with_extreme_mean_is_one_line(files, capsys):
    body = files["model"][:-4]
    mean_at = MODEL_BODY_START + 12  # after the three u32 dims
    model = files["root"] / "extreme.bin"
    model.write_bytes(with_crc(body[:mean_at] + struct.pack("<d", 1e300) + body[mean_at + 8:]))
    err = fails_with_one_line(capsys, ["identify", "--model", str(model), "--image", files["probe"]])
    assert "matching overflows" in err
