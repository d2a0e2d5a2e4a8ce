"""Readers for config, grid, manifest, PGM, key-point and model files: any
bytes give a checked value or the format's :class:`~lglg.errors.LglgError`
naming the path. Text files are UTF-8, decoded by :func:`read_text` alone.
The binary model file is written here too (:func:`save_model`)."""

import contextlib
import csv
import io
import math
import os
import re
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    CONFIG_BLOCK_SIZE, RunConfig, coerce_value, parse_config_text, read_key_values, text_lines,
)
from .errors import (
    ChecksumMismatch, ConfigError, DimensionMismatch, FormatVersionMismatch, KeypointError,
    LglgError, ManifestError, ModelFormatError,
)
from .wpca import ProjectionModel

MANIFEST_HEADER = ["path", "subject_id", "subset"]
MODEL_MAGIC = b"LGLG"
# the basis slot holds the whitening basis W; a version-2 file held the
# orthonormal U there and is refused like any other version
MODEL_VERSION = 3

# Magic, width, height and maxval, each after whitespace holding '#' comments,
# each through the next CR or LF as pgm(5) has it (a comment must end at one,
# or '#' runs backtrack).
_PGM_HEADER = re.compile(rb"P5" + rb"\s(?:\s|#[^\r\n]*[\r\n])*(\d+)" * 3 + rb"\s")
#: Bytes read for a PGM header at first: all of a small image.
_PGM_PIECE = 4096


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    subject_id: str
    subset: str


@dataclass(frozen=True)
class Gallery:
    config: RunConfig
    model: ProjectionModel
    subject_ids: list[str]
    features: np.ndarray = field(repr=False)  # n_entries x output_dim, standardized

    @property
    def fingerprint(self) -> str:
        return self.config.feature_fingerprint()


def read_text(path: str, error: type[LglgError]) -> str:
    """The text of a UTF-8 file, without one leading byte-order mark, as
    Excel's "CSV UTF-8" writes; bytes that are not UTF-8 raise ``error``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_config(path: str) -> RunConfig:
    return parse_config_text(read_text(path, ConfigError), path)


def parse_grid_file(path: str) -> list[tuple[str, list[object]]]:
    """``key=v1,v2,...`` lines; returns (key, values) in file order."""
    grid: dict[str, list[object]] = {}
    for where, key, values in read_key_values(read_text(path, ConfigError), path):
        if key in grid:
            raise ConfigError(f"{where}: {key} given twice")
        grid[key] = [coerce_value(key, v.strip()) for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise ConfigError(f"{where}: no values for {key}")
    return list(grid.items())


def load_manifest(path: str) -> list[ManifestRecord]:
    """UTF-8 CSV with header ``path,subject_id,subset``."""
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    reader = csv.reader(io.StringIO(read_text(path, ManifestError), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise ManifestError(f"{path}: empty manifest")
        if [h.strip() for h in header] != MANIFEST_HEADER:
            raise ManifestError(f"{path}: header must be {','.join(MANIFEST_HEADER)}")
        for row in reader:
            lineno = reader.line_num  # where the row ends: a quoted field may hold line breaks
            if not row:
                continue
            if len(row) != 3:
                raise ManifestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            rec = ManifestRecord(*(field.strip() for field in row))
            if not rec.path:
                raise ManifestError(f"{path}:{lineno}: empty path")
            if "\0" in rec.path:
                raise ManifestError(f"{path}:{lineno}: path holds a NUL byte")
            if not rec.subject_id:
                raise ManifestError(f"{path}:{lineno}: empty subject_id")
            if rec.path in seen:
                raise ManifestError(f"{path}:{lineno}: duplicate path {rec.path}")
            seen.add(rec.path)
            records.append(rec)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ManifestError(f"{path}:{reader.line_num}: {exc}") from None
    return records


def read_pgm(path: str, check: Callable[[tuple[int, int]], None] | None = None) -> np.ndarray:
    """Read an 8-bit binary (P5) PGM into a uint8 array.

    ``check``, if given, gets the header's (height, width) before any pixel
    is read, and raises to refuse it. The header is read in pieces, then
    the pixels into one buffer with it, and the array is a writable view of
    its pixels in that buffer: about 1 byte a pixel."""
    with open(path, "rb") as fh:
        data = bytearray()
        # comments may make the header long; a piece that ends inside it
        # does not match, and the pieces grow so that a long one is read once
        while (header := _PGM_HEADER.match(data)) is None:
            piece = fh.read(max(_PGM_PIECE, len(data)))
            if not piece:
                raise ManifestError(f"{path}: not a binary (P5) PGM")
            data += piece
        try:
            width, height, maxval = map(int, header.groups())
        except ValueError:  # more digits than int() converts
            raise ManifestError(f"{path}: malformed PGM header") from None
        if width < 1 or height < 1:
            raise ManifestError(f"{path}: PGM size {width}x{height} is empty")
        if not 1 <= maxval <= 255:
            raise ManifestError(f"{path}: maxval {maxval} outside 1..255 (only 8-bit PGM supported)")
        if check is not None:
            check((height, width))
        end = header.end() + width * height
        if len(data) < end <= os.fstat(fh.fileno()).st_size:
            buffer = bytearray(end)
            buffer[:len(data)] = data
            with memoryview(buffer) as view:
                filled = len(data) + fh.readinto(view[len(data):])
            del buffer[filled:]  # a file that shrank since fstat
            data = buffer
        elif len(data) < end:
            # a truncated file, or a pipe, whose size fstat does not give
            data += fh.read()
    if len(data) < end:
        raise ManifestError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=header.end())
    if pixels.max() > maxval:
        raise ManifestError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(height, width)


def write_pgm(path: str, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (image.shape[1], image.shape[0]))
        fh.write(image.tobytes())


def keypoint_path(image_path: str, keypoints_dir: str) -> str:
    return str(Path(keypoints_dir) / (Path(image_path).stem + ".txt"))


def load_keypoints(path: str) -> list[tuple[float, float]]:
    """Sidecar file: one "x y" pair per line, ordered, at least one."""
    points = []
    for lineno, raw in enumerate(text_lines(read_text(path, KeypointError)), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise KeypointError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise KeypointError(f"{path}:{lineno}: non-numeric coordinate") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise KeypointError(f"{path}:{lineno}: non-finite coordinate")
        points.append((x, y))
    if not points:
        raise KeypointError(f"{path}: no points")
    return points


def _pack_array(arr: np.ndarray) -> np.ndarray:
    """``arr`` as C-contiguous little-endian float64, copied only if it is not."""
    return np.ascontiguousarray(arr, dtype="<f8")


def _check_model_size(n_entries: int, k: int, where: str) -> None:
    """Refuse a model :func:`lglg.pipeline.enroll` cannot make: fewer than 2
    entries or fewer than 2 WPCA components."""
    if n_entries < 2 or k < 2:
        raise ModelFormatError(
            f"{where}{n_entries} entries with {k} components; a model holds at least 2 of each"
        )


def save_model(gallery: Gallery, path: str) -> None:
    """Binary model file: magic, version, config block, dims, WPCA state (the
    training mean, the whitening basis W and the eigenvalues), standardized
    entries, trailing CRC-32 of everything before it.

    The parts are written one by one under a running CRC-32, to a temporary
    name in the same directory that is renamed over ``path``, so readers
    never see a partial model."""
    sids = [s.encode("utf-8") for s in gallery.subject_ids]
    for subject_id, sid in zip(gallery.subject_ids, sids):
        if len(sid) > 0xFFFF:
            raise ModelFormatError(
                f"subject id {subject_id[:40]!r}... has {len(sid)} UTF-8 bytes, at most 65535 fit"
            )
    model = gallery.model
    _check_model_size(len(sids), model.output_dim, "gallery has ")
    shape = (len(sids), model.output_dim)
    if np.shape(gallery.features) != shape:
        raise DimensionMismatch(
            f"gallery features have shape {np.shape(gallery.features)}, "
            f"{len(sids)} subject ids with {model.output_dim} components need {shape}"
        )
    parts = [
        MODEL_MAGIC,
        struct.pack("<H", MODEL_VERSION),
        gallery.config.pack(),
        struct.pack("<III", model.input_dim, model.output_dim, len(sids)),
        _pack_array(model.train_mean),
        _pack_array(model.basis),
        _pack_array(model.eigvals),
    ]
    for sid, feat in zip(sids, _pack_array(gallery.features)):
        parts += [struct.pack("<H", len(sid)), sid, feat]
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            crc = 0
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_model(path: str) -> Gallery:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 2 + 4:
        raise ChecksumMismatch(f"{path}: file too short")
    view = memoryview(blob)
    end = len(blob) - 4  # the entries end here, the CRC-32 follows
    if struct.unpack_from("<I", blob, end)[0] != zlib.crc32(view[:end]):
        raise ChecksumMismatch(f"{path}: CRC-32 mismatch (truncated or corrupted)")
    if blob[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic bytes")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != MODEL_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, expected {MODEL_VERSION}")
    pos = 6

    def take(size: int) -> memoryview:
        nonlocal pos
        if size > end - pos:
            raise ModelFormatError(f"{path}: truncated: {size} bytes needed at offset {pos}")
        pos += size
        return view[pos - size : pos]

    def take_floats(count: int) -> np.ndarray:
        return np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)

    try:
        config = RunConfig.unpack(take(CONFIG_BLOCK_SIZE))
    except ConfigError as exc:
        raise ModelFormatError(f"{path}: config block: {exc}") from exc
    input_dim, k, n = struct.unpack("<III", take(12))
    _check_model_size(n, k, f"{path}: ")
    # every entry holds at least its 2-byte id length and k floats
    need = 8 * (input_dim * (k + 1) + k) + n * (2 + 8 * k)
    if need > end - pos:
        raise ModelFormatError(
            f"{path}: dims {input_dim}x{k} with {n} entries need at least {need} bytes, "
            f"{end - pos} left"
        )
    train_mean = take_floats(input_dim)
    basis = take_floats(input_dim * k).reshape(input_dim, k)
    eigvals = take_floats(k)
    subject_ids = []
    features = np.empty((n, k))
    for i in range(n):
        (sid_len,) = struct.unpack("<H", take(2))
        try:
            subject_ids.append(str(take(sid_len), "utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: entry {i}: subject id is not UTF-8") from exc
        features[i] = take_floats(k)
    if pos != end:
        raise ModelFormatError(f"{path}: trailing bytes after entries")
    if not all(np.isfinite(a).all() for a in (train_mean, basis, eigvals, features)):
        raise ModelFormatError(f"{path}: WPCA state or entries hold NaN or Inf")
    if not (eigvals > 0.0).all():
        raise ModelFormatError(f"{path}: WPCA eigenvalues must be positive")
    model = ProjectionModel(train_mean=train_mean, basis=basis, eigvals=eigvals)
    return Gallery(config=config, model=model, subject_ids=subject_ids, features=features)
