"""End-to-end enrollment, identification, evaluation and model persistence."""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import CONFIG_BLOCK_SIZE, MODE_KEYPOINT, RunConfig
from .descriptor import image_feature
from .errors import (
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
)
# perfbench calls load_manifest and ManifestRecord, and wraps read_pgm, through lglg.pipeline
from .formats import ManifestRecord, keypoint_path, load_keypoints, load_manifest, read_pgm
from .wpca import ProjectionModel, fit, project, zscore

MODEL_MAGIC = b"LGLG"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Gallery:
    config: RunConfig
    model: ProjectionModel
    subject_ids: list[str]
    features: np.ndarray = field(repr=False)  # n_entries x output_dim, standardized

    @property
    def fingerprint(self) -> str:
        return self.config.feature_fingerprint()


@dataclass(frozen=True)
class MatchResult:
    probe: str
    ranking: list[tuple[str, float]]  # (subject_id, distance), ascending
    true_subject: str | None = None

    @property
    def correct_rank(self) -> int | None:
        if self.true_subject is None:
            return None
        for rank, (subject, _) in enumerate(self.ranking, start=1):
            if subject == self.true_subject:
                return rank
        return None


def extract_feature(path: str, config: RunConfig, keypoints_dir: str | None = None) -> np.ndarray:
    """Load one image and run the full descriptor pipeline on it."""
    try:
        image = read_pgm(path).astype(np.float64) / 255.0
        keypoints = None
        if config.mode == MODE_KEYPOINT:
            if keypoints_dir is None:
                raise ManifestError("keypoint mode requires --keypoints-dir")
            keypoints = load_keypoints(keypoint_path(path, keypoints_dir), config.keypoint_count)
        return image_feature(image, config, keypoints=keypoints)
    except ExtractionError:
        raise
    except (LglgError, OSError) as exc:
        raise ExtractionError(path, exc) from exc


def _extract_many(
    paths: list[str], config: RunConfig, keypoints_dir: str | None, jobs: int
) -> list[np.ndarray]:
    jobs = min(jobs, len(paths), os.cpu_count() or 1)
    if jobs <= 1:
        return [extract_feature(p, config, keypoints_dir) for p in paths]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(extract_feature, paths, [config] * len(paths), [keypoints_dir] * len(paths)))


def enroll(
    records: list[ManifestRecord],
    config: RunConfig,
    keypoints_dir: str | None = None,
    jobs: int = 1,
) -> Gallery:
    """Extract features for all gallery records, fit WPCA, standardize."""
    if len(records) < 2:
        raise DegenerateTrainingSet("enrollment needs at least 2 gallery records")
    feats = np.vstack(_extract_many([r.path for r in records], config, keypoints_dir, jobs))
    model = fit(feats, config.k_requested)
    if model.output_dim < 2:
        raise DegenerateTrainingSet(
            f"WPCA kept {model.output_dim} component(s) from {len(records)} gallery records; "
            "z-scoring needs at least 2, so enroll at least 3 records with distinct features"
        )
    standardized = np.vstack([zscore(project(model, f)) for f in feats])
    return Gallery(
        config=config,
        model=model,
        subject_ids=[r.subject_id for r in records],
        features=standardized,
    )


def identify(
    gallery: Gallery,
    probe_path: str,
    config: RunConfig,
    keypoints_dir: str | None = None,
    true_subject: str | None = None,
) -> MatchResult:
    """Rank all gallery entries by Euclidean distance to the probe feature.

    Ties are broken by gallery insertion order (stable sort)."""
    if config.feature_fingerprint() != gallery.fingerprint:
        raise ConfigMismatch("probe config differs from the gallery's feature config")
    feature = extract_feature(probe_path, config, keypoints_dir)
    if feature.size != gallery.model.input_dim:
        raise DimensionMismatch(
            f"{probe_path}: feature length {feature.size}, the gallery's is "
            f"{gallery.model.input_dim} (probe and gallery images differ in size?)"
        )
    z = zscore(project(gallery.model, feature))
    dists = np.linalg.norm(gallery.features - z, axis=1)
    order = np.argsort(dists, kind="stable")
    ranking = [(gallery.subject_ids[i], float(dists[i])) for i in order]
    return MatchResult(probe=probe_path, ranking=ranking, true_subject=true_subject)


def rank_accuracy(results: list[MatchResult], r: int) -> float:
    """Fraction of probes whose correct subject appears at rank <= r."""
    hits = 0
    for res in results:
        if res.true_subject is None:
            raise MissingGroundTruth(f"{res.probe}: no ground-truth subject")
        rank = res.correct_rank
        if rank is not None and rank <= r:
            hits += 1
    return hits / len(results)


def evaluate(
    gallery: Gallery,
    records: list[ManifestRecord],
    config: RunConfig,
    keypoints_dir: str | None = None,
    subsets: list[str] | None = None,
) -> list[tuple[str, int, float | None, float | None]]:
    """Per-subset (subset, n_probes, rank1, rank5) rows, subsets in first-
    appearance order (after any pre-declared ``subsets``). Accuracies are
    None for empty subsets."""
    by_subset: dict[str, list[MatchResult]] = {s: [] for s in subsets or []}
    for rec in records:
        by_subset.setdefault(rec.subset, [])
    for rec in records:
        res = identify(gallery, rec.path, config, keypoints_dir, true_subject=rec.subject_id)
        by_subset[rec.subset].append(res)
    rows: list[tuple[str, int, float | None, float | None]] = []
    for subset, results in by_subset.items():
        if not results:
            rows.append((subset, 0, None, None))
        else:
            rows.append((subset, len(results), rank_accuracy(results, 1), rank_accuracy(results, 5)))
    return rows


# ---------------------------------------------------------------------------
# persistence

def _pack_array(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_model(gallery: Gallery, path: str) -> None:
    """Binary model file: magic, version, config block, dims, WPCA state,
    standardized entries, trailing CRC-32 of everything before it.

    The file is written under a temporary name in the same directory and
    renamed over ``path``, so readers never see a partial model."""
    sids = [s.encode("utf-8") for s in gallery.subject_ids]
    for subject_id, sid in zip(gallery.subject_ids, sids):
        if len(sid) > 0xFFFF:
            raise ModelFormatError(
                f"subject id {subject_id[:40]!r}... has {len(sid)} UTF-8 bytes, at most 65535 fit"
            )
    model = gallery.model
    parts = [
        MODEL_MAGIC,
        struct.pack("<H", MODEL_VERSION),
        gallery.config.pack(),
        struct.pack("<III", model.input_dim, model.output_dim, len(sids)),
        _pack_array(model.train_mean),
        _pack_array(model.basis),
        _pack_array(model.eigvals),
    ]
    for sid, feat in zip(sids, gallery.features):
        parts.append(struct.pack("<H", len(sid)))
        parts.append(sid)
        parts.append(_pack_array(feat))
    body = b"".join(parts)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body)))
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
    body, crc_bytes = blob[:-4], blob[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise ChecksumMismatch(f"{path}: CRC-32 mismatch (truncated or corrupted)")
    if body[:4] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic bytes")
    (version,) = struct.unpack("<H", body[4:6])
    if version != MODEL_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, expected {MODEL_VERSION}")
    view = memoryview(body)
    pos = 6

    def take(size: int) -> memoryview:
        nonlocal pos
        if size > len(body) - pos:
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
    # every entry holds at least its 2-byte id length and k floats
    need = 8 * (input_dim * (k + 1) + k) + n * (2 + 8 * k)
    if need > len(body) - pos:
        raise ModelFormatError(
            f"{path}: dims {input_dim}x{k} with {n} entries need at least {need} bytes, "
            f"{len(body) - pos} left"
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
    if pos != len(body):
        raise ModelFormatError(f"{path}: trailing bytes after entries")
    if not all(np.isfinite(a).all() for a in (train_mean, basis, eigvals, features)):
        raise ModelFormatError(f"{path}: WPCA state or entries hold NaN or Inf")
    if not (eigvals > 0.0).all():
        raise ModelFormatError(f"{path}: WPCA eigenvalues must be positive")
    model = ProjectionModel(train_mean=train_mean, basis=basis, eigvals=eigvals)
    return Gallery(config=config, model=model, subject_ids=subject_ids, features=features)
