"""Readers for config, grid, manifest, PGM and key-point files: any bytes give
a checked value or the format's :class:`~lglg.errors.LglgError` naming the
path. Text files are UTF-8, decoded by :func:`read_text` alone."""

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, coerce_value, parse_config_text, read_key_values, text_lines
from .errors import ConfigError, KeypointError, LglgError, ManifestError

MANIFEST_HEADER = ["path", "subject_id", "subset"]

# Magic, width, height and maxval, each after whitespace holding '#' comments
# to the end of their line (a comment must end at '\n' or '#' runs backtrack).
_PGM_HEADER = re.compile(rb"P5" + rb"\s(?:\s|#[^\n]*\n)*(\d+)" * 3 + rb"\s")


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    subject_id: str
    subset: str


def read_text(path: str, error: type[LglgError]) -> str:
    """The text of a UTF-8 file; bytes that are not UTF-8 raise ``error``."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
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
    header = next(reader, None)
    if header is None:
        raise ManifestError(f"{path}: empty manifest")
    if [h.strip() for h in header] != MANIFEST_HEADER:
        raise ManifestError(f"{path}: header must be {','.join(MANIFEST_HEADER)}")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ManifestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        rec = ManifestRecord(path=row[0].strip(), subject_id=row[1].strip(), subset=row[2].strip())
        if not rec.subject_id:
            raise ManifestError(f"{path}:{lineno}: empty subject_id")
        if rec.path in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate path {rec.path}")
        seen.add(rec.path)
        records.append(rec)
    return records


def read_pgm(path: str) -> np.ndarray:
    """Read an 8-bit binary (P5) PGM into a uint8 array."""
    data = Path(path).read_bytes()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ManifestError(f"{path}: not a binary (P5) PGM")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError:  # more digits than int() converts
        raise ManifestError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise ManifestError(f"{path}: PGM size {width}x{height} is empty")
    if not 1 <= maxval <= 255:
        raise ManifestError(f"{path}: maxval {maxval} outside 1..255 (only 8-bit PGM supported)")
    if len(data) - header.end() < width * height:
        raise ManifestError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=header.end())
    if pixels.max() > maxval:
        raise ManifestError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return pixels.reshape(height, width).copy()


def write_pgm(path: str, image: np.ndarray) -> None:
    image = np.asarray(image, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (image.shape[1], image.shape[0]))
        fh.write(image.tobytes())


def keypoint_path(image_path: str, keypoints_dir: str) -> str:
    return str(Path(keypoints_dir) / (Path(image_path).stem + ".txt"))


def load_keypoints(path: str, expected_count: int) -> list[tuple[float, float]]:
    """Sidecar file: one "x y" pair per line, ordered."""
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
    if len(points) != expected_count:
        raise KeypointError(f"{path}: has {len(points)} points, expected {expected_count}")
    return points
