"""End-to-end enrollment, identification, evaluation and model persistence."""

from __future__ import annotations

import contextlib
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import parallel
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
    NoResults,
    NonFinite,
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


def extract_feature(
    path: str, config: RunConfig, keypoints_dir: str | None = None, stacks: dict | None = None
) -> np.ndarray:
    """Load one image and run the full descriptor pipeline on it. Calls that
    pass the same ``stacks`` dict for one image share its subband stack
    (:func:`lglg.descriptor.subbands`)."""
    try:
        image = read_pgm(path).astype(np.float64) / 255.0
        keypoints = None
        if config.mode == MODE_KEYPOINT:
            if keypoints_dir is None:
                raise ManifestError("keypoint mode requires --keypoints-dir")
            keypoints = load_keypoints(keypoint_path(path, keypoints_dir), config.keypoint_count)
        return image_feature(image, config, keypoints=keypoints, stacks=stacks)
    except ExtractionError:
        raise
    except (LglgError, OSError) as exc:
        raise ExtractionError(path, exc) from exc


def _extract_all(
    path: str, configs: list[RunConfig], keypoints_dir: str | None
) -> list[np.ndarray]:
    """:func:`extract_feature` of ``path`` under each of ``configs``, in
    order. Configs with the same preprocess and Gabor settings share one
    subband stack of the image."""
    stacks: dict = {}
    return [extract_feature(path, config, keypoints_dir, stacks) for config in configs]


def _extract_many(
    paths: list[str], configs: list[RunConfig], keypoints_dir: str | None, jobs: int
) -> list[list[np.ndarray]]:
    """:func:`_extract_all` of each path, ``jobs`` paths at a time, at most
    one per core of the process's CPU affinity. Each pool worker runs one
    thread; in process, each image uses every core."""
    jobs = min(jobs, len(paths), parallel.AFFINITY)
    if jobs <= 1:
        return [_extract_all(p, configs, keypoints_dir) for p in paths]
    # here, not at the top: the executor loads multiprocessing, which costs
    # about 15 ms of a cold start that runs no pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, initializer=parallel.pool_initializer) as pool:
        return list(pool.map(_extract_all, paths, repeat(configs), repeat(keypoints_dir)))


def _pop_column(paths: list[str], extracted: list[list[np.ndarray]]) -> np.ndarray:
    """Stack the first remaining feature of each image, one row per path, and
    drop those features from ``extracted`` so that they are freed once
    stacked. Every image must give the first one's feature length."""
    column = [features.pop(0) for features in extracted]
    for path, feature in zip(paths, column):
        if feature.size != column[0].size:
            raise DimensionMismatch(
                f"{path}: feature length {feature.size}, {paths[0]}'s is {column[0].size} "
                "(gallery images differ in size?)"
            )
    return np.vstack(column)


def _check_gallery_size(records: list[ManifestRecord]) -> None:
    if len(records) < 2:
        raise DegenerateTrainingSet("enrollment needs at least 2 gallery records")


def enroll(
    records: list[ManifestRecord],
    config: RunConfig,
    keypoints_dir: str | None = None,
    jobs: int = 1,
    features: np.ndarray | None = None,
) -> Gallery:
    """Fit WPCA on the gallery's features and standardize them.

    ``features`` holds one row per record, already extracted under
    ``config``; without it the images are extracted here, ``jobs`` at a time."""
    _check_gallery_size(records)
    if features is None:
        paths = [r.path for r in records]
        features = _pop_column(paths, _extract_many(paths, [config], keypoints_dir, jobs))
    elif features.shape[0] != len(records):
        raise DimensionMismatch(
            f"{features.shape[0]} feature rows given for {len(records)} gallery records"
        )
    model = fit(features, config.k_requested)
    if model.output_dim < 2:
        raise DegenerateTrainingSet(
            f"WPCA kept {model.output_dim} component(s) from {len(records)} gallery records; "
            "z-scoring needs at least 2, so enroll at least 3 records with distinct features"
        )
    standardized = np.vstack([zscore(project(model, f)) for f in features])
    return Gallery(
        config=config,
        model=model,
        subject_ids=[r.subject_id for r in records],
        features=standardized,
    )


def rank(
    gallery: Gallery, feature: np.ndarray, probe_path: str, true_subject: str | None = None
) -> MatchResult:
    """Rank all gallery entries by Euclidean distance to ``feature``, the
    probe's feature extracted under the gallery's config.

    Ties are broken by gallery insertion order (stable sort)."""
    if feature.size != gallery.model.input_dim:
        raise DimensionMismatch(
            f"{probe_path}: feature length {feature.size}, the gallery's is "
            f"{gallery.model.input_dim} (probe and gallery images differ in size?)"
        )
    # a model file may hold finite values whose products overflow
    with np.errstate(over="raise", invalid="raise"):
        try:
            z = zscore(project(gallery.model, feature))
            dists = np.linalg.norm(gallery.features - z, axis=1)
        except FloatingPointError as exc:
            raise NonFinite(
                f"{probe_path}: matching overflows ({exc}); the model holds extreme values"
            ) from exc
    order = np.argsort(dists, kind="stable")
    ranking = [(gallery.subject_ids[i], float(dists[i])) for i in order]
    return MatchResult(probe=probe_path, ranking=ranking, true_subject=true_subject)


def identify(
    gallery: Gallery,
    probe_path: str,
    config: RunConfig,
    keypoints_dir: str | None = None,
    true_subject: str | None = None,
) -> MatchResult:
    """Extract the probe's feature and :func:`rank` the gallery against it."""
    if config.feature_fingerprint() != gallery.fingerprint:
        raise ConfigMismatch("probe config differs from the gallery's feature config")
    feature = extract_feature(probe_path, config, keypoints_dir)
    return rank(gallery, feature, probe_path, true_subject)


def rank_accuracy(results: list[MatchResult], r: int) -> float:
    """Fraction of probes whose correct subject appears at rank <= r."""
    if not results:
        raise NoResults("no match results to score")
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
) -> list[tuple[str, int, float, float]]:
    """Per-subset (subset, n_probes, rank1, rank5) rows, subsets in first-
    appearance order."""
    by_subset: dict[str, list[MatchResult]] = {}
    for rec in records:
        res = identify(gallery, rec.path, config, keypoints_dir, true_subject=rec.subject_id)
        by_subset.setdefault(rec.subset, []).append(res)
    return [
        (subset, len(results), rank_accuracy(results, 1), rank_accuracy(results, 5))
        for subset, results in by_subset.items()
    ]


def sweep(
    gallery_records: list[ManifestRecord],
    probe_records: list[ManifestRecord],
    configs: list[RunConfig],
    keypoints_dir: str | None = None,
    jobs: int = 1,
) -> list[float]:
    """Rank-1 accuracy of each config, in order: enroll the gallery under it
    and identify every probe.

    Configs with the same preprocess and Gabor settings form one group, and
    each image is preprocessed and decomposed once per group. Within it,
    configs with the same feature fingerprint (they differ only in
    ``k_requested``) share one feature of each image. The gallery is
    extracted ``jobs`` images at a time and fitted once per row; then each
    probe is extracted in process and ranked against every gallery of the
    group."""
    _check_gallery_size(gallery_records)
    if not probe_records:
        raise ManifestError("sweep needs at least one probe record")
    # subband settings -> feature fingerprint -> rows
    groups: dict[tuple, dict[str, list[int]]] = {}
    for i, config in enumerate(configs):
        subband_key = (config.preprocess_params(), config.gabor_params())
        groups.setdefault(subband_key, {}).setdefault(config.feature_fingerprint(), []).append(i)
    gallery_paths = [r.path for r in gallery_records]
    accuracies = [0.0] * len(configs)
    for group in groups.values():
        row_sets = list(group.values())
        feature_configs = [configs[rows[0]] for rows in row_sets]
        extracted = _extract_many(gallery_paths, feature_configs, keypoints_dir, jobs)
        galleries: dict[int, Gallery] = {}
        for rows in row_sets:
            feats = _pop_column(gallery_paths, extracted)
            for i in rows:
                galleries[i] = enroll(gallery_records, configs[i], keypoints_dir, features=feats)
        del feats  # the probe loop needs only the fitted galleries
        results: dict[int, list[MatchResult]] = {i: [] for i in galleries}
        for rec in probe_records:
            features = _extract_all(rec.path, feature_configs, keypoints_dir)
            for feature, rows in zip(features, row_sets):
                for i in rows:
                    results[i].append(rank(galleries[i], feature, rec.path, rec.subject_id))
        for i, row_results in results.items():
            accuracies[i] = rank_accuracy(row_results, 1)
    return accuracies


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
