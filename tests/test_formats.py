"""Input-file readers: any bytes give a value or an LglgError, and the PGM
header regex agrees with a hand-written tokenizer on valid headers."""

import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglg.config import RunConfig
from lglg.errors import ConfigError, KeypointError, LglgError, ManifestError
from lglg.formats import (
    ManifestRecord, load_config, load_keypoints, load_manifest, parse_grid_file, read_pgm,
    write_pgm,
)


def reference_read_pgm(data: bytes) -> np.ndarray:
    """Whitespace-and-comment tokenizer the header regex replaced."""
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\r", b"\n"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    assert len(tokens) == 4 and tokens[0] == b"P5"
    width, height = int(tokens[1]), int(tokens[2])
    pos += 1
    return np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos).reshape(height, width)


WHITESPACE = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
COMMENT = st.builds(
    lambda text, end: b"#" + text + end,
    st.binary(max_size=8).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.sampled_from([b"\n", b"\r"]),
)
SEPARATOR = st.builds(lambda first, rest: first + b"".join(rest),
                      WHITESPACE, st.lists(st.one_of(WHITESPACE, COMMENT), max_size=4))


def digits(n: int) -> st.SearchStrategy[bytes]:
    return st.builds(lambda zeros: b"0" * zeros + b"%d" % n, st.integers(0, 2))


@st.composite
def valid_pgm(draw) -> bytes:
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = draw(st.integers(1, 255))
    header = b"P5"
    for value in (width, height, maxval):
        header += draw(SEPARATOR) + draw(digits(value))
    header += draw(WHITESPACE)
    pixels = draw(st.binary(min_size=width * height, max_size=width * height))
    pixels = bytes(min(p, maxval) for p in pixels)
    return header + pixels + draw(st.binary(max_size=4))


class TestPgmHeader:
    @settings(max_examples=300, deadline=None)
    @given(valid_pgm())
    def test_matches_reference_tokenizer(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "oracle.pgm"
        p.write_bytes(data)
        assert np.array_equal(read_pgm(str(p)), reference_read_pgm(data))

    @pytest.mark.parametrize("data", [
        b"P5\n0 0\n255\n",
        b"P5\n0 2\n255\n",
        b"P5\n-3 4\n255\n" + bytes(12),
        b"P5\n+2 2\n255\n" + bytes(4),
        b"P5\n2_0 1\n255\n" + bytes(20),
        b" P5\n1 1\n255\n\x00",
        b"P5#c\n1 1\n255\n\x00",
        b"P5\n1 1\n255",
        b"P5 1 1 " + b"9" * 5000 + b" \x00",
    ], ids=["zero-size", "zero-width", "negative", "plus-sign", "underscore", "leading-space",
            "comment-in-magic", "no-pixel-separator", "maxval-too-long"])
    def test_rejects(self, tmp_path, data):
        p = tmp_path / "i.pgm"
        p.write_bytes(data)
        with pytest.raises(ManifestError, match=str(p)):
            read_pgm(str(p))

    def test_comment_run_rejected_in_linear_time(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5 " + b"# " * 40)
        start = time.perf_counter()
        with pytest.raises(ManifestError):
            read_pgm(str(p))
        assert time.perf_counter() - start < 0.5


class TestPgmRead:
    def test_peak_is_one_copy_of_the_file(self, tmp_path, rng):
        # the file is read into one buffer and the pixels are a view of it
        image = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
        p = tmp_path / "i.pgm"
        write_pgm(str(p), image)
        tracemalloc.start()
        try:
            pixels = read_pgm(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * p.stat().st_size
        assert pixels.flags.writeable and np.array_equal(pixels, image)

    def test_check_sees_the_size_before_the_pixels_are_read(self, tmp_path):
        # a sparse file whose header claims 1.6 GB of pixels: the check
        # refuses it having read the header alone
        header = b"P5\n40000 40000\n255\n"
        p = tmp_path / "i.pgm"
        with open(p, "wb") as fh:
            fh.write(header)
            fh.truncate(len(header) + 40000 * 40000)
        seen = []

        def refuse(shape):
            seen.append(shape)
            raise ManifestError("too large")

        tracemalloc.start()
        try:
            with pytest.raises(ManifestError, match="too large"):
                read_pgm(str(p), refuse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert seen == [(40000, 40000)] and peak < 1 << 20

    def test_check_gets_height_then_width(self, tmp_path):
        p = tmp_path / "i.pgm"
        write_pgm(str(p), np.arange(6).reshape(2, 3))
        seen = []
        assert read_pgm(str(p), seen.append).shape == (2, 3)
        assert seen == [(2, 3)]

    def test_header_longer_than_the_first_piece(self, tmp_path):
        data = b"P5\n#" + b"c" * 10000 + b"\n2 1\n255\n\x07\x09"
        p = tmp_path / "i.pgm"
        p.write_bytes(data)
        assert np.array_equal(read_pgm(str(p)), reference_read_pgm(data))

    def test_comments_end_at_cr(self, tmp_path):
        # pgm(5): a comment runs through the next carriage return or newline
        data = b"P5\r# tool\r4 4\r255\r" + bytes(range(16))
        p = tmp_path / "i.pgm"
        p.write_bytes(data)
        assert np.array_equal(read_pgm(str(p)), np.arange(16, dtype=np.uint8).reshape(4, 4))
        assert np.array_equal(read_pgm(str(p)), reference_read_pgm(data))

    def test_reads_a_pipe(self, tmp_path, rng):
        # fstat gives a pipe no size; 90 000 pixels span several pipe buffers
        image = rng.integers(0, 256, (300, 300), dtype=np.uint8)
        p = tmp_path / "i.pgm"
        os.mkfifo(p)
        writer = threading.Thread(
            target=p.write_bytes, args=(b"P5\n300 300\n255\n" + image.tobytes(),), daemon=True
        )
        writer.start()
        try:
            pixels = read_pgm(str(p))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(pixels, image)


class TestNotUtf8:
    def test_manifest(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"path,subject_id,subset\n\xff.pgm,a,g\n")
        with pytest.raises(ManifestError, match=f"{p}: not UTF-8"):
            load_manifest(str(p))

    def test_keypoints(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_bytes(b"1 2\n3 \xff\n")
        with pytest.raises(KeypointError, match=f"{p}: not UTF-8"):
            load_keypoints(str(p))


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes it,
    is not part of a text file's first line."""

    BOM = "\ufeff".encode()

    def test_manifest(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(self.BOM + b"path,subject_id,subset\na.pgm,s1,g\n")
        assert load_manifest(str(p)) == [ManifestRecord("a.pgm", "s1", "g")]

    def test_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(self.BOM + b"block_size=11\n")
        assert load_config(str(p)) == RunConfig(block_size=11)

    def test_grid(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_bytes(self.BOM + b"block_size=11,15\n")
        assert parse_grid_file(str(p)) == [("block_size", [11, 15])]

    def test_keypoints(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_bytes(self.BOM + b"1 2\n3 4\n")
        assert load_keypoints(str(p)) == [(1.0, 2.0), (3.0, 4.0)]

    def test_only_one_mark(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(2 * self.BOM + b"block_size=11\n")
        with pytest.raises(ConfigError, match=re.escape(r"unknown key '\ufeffblock_size'")):
            load_config(str(p))


class TestArbitraryBytes:
    """Each reader returns a valid result or raises LglgError, never more."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=64), valid_pgm().map(lambda b: b[: len(b) // 2])))
    def test_read_pgm(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz.pgm"
        p.write_bytes(data)
        try:
            image = read_pgm(str(p))
        except LglgError:
            return
        assert image.dtype == np.uint8 and image.ndim == 2 and image.size > 0

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_load_manifest(self, tmp_path_factory, body):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(b"path,subject_id,subset\n" + body)
        try:
            records = load_manifest(str(p))
        except LglgError:
            return
        assert all(r.subject_id for r in records)
        assert len({r.path for r in records}) == len(records)

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64))
    def test_load_keypoints(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz.txt"
        p.write_bytes(data)
        try:
            points = load_keypoints(str(p))
        except LglgError:
            return
        assert len(points) >= 1 and np.isfinite(points).all()
