"""Feature extraction, enrollment, identification, evaluation and sweeps.
The model file is read and written by :mod:`lglg.formats`."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import parallel
from .config import MODE_KEYPOINT, RunConfig
from .descriptor import image_feature
from .errors import (
    ConfigMismatch, DegenerateTrainingSet, DimensionMismatch, ExtractionError, LglgError,
    ManifestError, MissingGroundTruth, NoResults, NonFinite,
)
# perfbench calls load_manifest, save_model and load_model and wraps read_pgm,
# save_model and load_model through lglg.pipeline
from .formats import (
    Gallery, ManifestRecord, keypoint_path, load_keypoints, load_manifest, load_model, read_pgm,
    save_model,
)
from .gabor import check_fits
from .wpca import fit, project, zscore


@dataclass(frozen=True)
class MatchResult:
    probe: str
    ranking: list[tuple[str, float]]  # (subject_id, distance), ascending
    true_subject: str | None = None

    @property
    def correct_rank(self) -> int | None:
        ranks = (r for r, (s, _) in enumerate(self.ranking, start=1) if s == self.true_subject)
        return None if self.true_subject is None else next(ranks, None)


def extract_feature(
    path: str, config: RunConfig, keypoints_dir: str | None = None, stacks: dict | None = None
) -> np.ndarray:
    """Load one image and run the full descriptor pipeline on it. Calls that
    pass the same ``stacks`` dict for one image read it once, kept under its
    path, and share its subband stack (:func:`lglg.descriptor.subbands`)."""
    stacks = {} if stacks is None else stacks
    try:
        if path not in stacks:
            # checked before the pixels are read: an image far over the
            # bound could fail to allocate them, or their float64 copy
            params = config.gabor_params()
            stacks[path] = read_pgm(path, lambda shape: check_fits(shape, params)) / 255.0
        keypoints = None
        if config.mode == MODE_KEYPOINT:
            if keypoints_dir is None:
                raise ManifestError("keypoint mode requires --keypoints-dir")
            keypoints = load_keypoints(keypoint_path(path, keypoints_dir))
        return image_feature(stacks[path], config, keypoints=keypoints, stacks=stacks)
    except ExtractionError:
        raise
    except (LglgError, OSError) as exc:
        raise ExtractionError(path, exc) from exc


def _extract_all(
    path: str, configs: list[RunConfig], keypoints_dir: str | None
) -> list[np.ndarray]:
    """:func:`extract_feature` of ``path`` under each of ``configs``, in
    order. The image is read once, and configs with the same preprocess and
    Gabor settings share one subband stack of it."""
    stacks: dict = {}
    return [extract_feature(path, config, keypoints_dir, stacks) for config in configs]


def _feature_matrices(
    paths: list[str], configs: list[RunConfig], keypoints_dir: str | None, jobs: int | None
) -> list[np.ndarray]:
    """One matrix per config, row i the feature of ``paths[i]``: each
    feature is copied into its row as it arrives from :func:`parallel.imap`.
    Every image must give the first one's feature length."""
    matrices: list[np.ndarray] = []
    extracted = parallel.imap(_extract_all, paths, configs, keypoints_dir, jobs=jobs)
    with contextlib.closing(extracted):
        for i, features in enumerate(extracted):
            if i == 0:
                matrices = [np.empty((len(paths), f.size), dtype=f.dtype) for f in features]
            for matrix, feature in zip(matrices, features):
                if feature.size != matrix.shape[1]:
                    raise DimensionMismatch(
                        f"{paths[i]}: feature length {feature.size}, {paths[0]}'s is "
                        f"{matrix.shape[1]} (gallery images differ in size or key-point count?)"
                    )
                matrix[i] = feature
    return matrices


def _check_gallery_size(records: list[ManifestRecord]) -> None:
    if len(records) < 2:
        raise DegenerateTrainingSet("enrollment needs at least 2 gallery records")


def enroll(
    records: list[ManifestRecord],
    config: RunConfig,
    keypoints_dir: str | None = None,
    jobs: int | None = None,
    features: np.ndarray | None = None,
) -> Gallery:
    """Fit WPCA on the gallery's features and standardize them.

    ``features`` holds one row per record, already extracted under
    ``config``; without it the images are extracted here, ``jobs`` as
    :func:`lglg.parallel.imap` takes it. The model's bytes do not depend
    on ``jobs``.

    The gallery's model holds the arrays that :func:`save_model` writes and
    nothing more: the training mean, the whitening basis W that projects
    both the entries and every probe, and the eigenvalues."""
    _check_gallery_size(records)
    if features is None:
        [features] = _feature_matrices([r.path for r in records], [config], keypoints_dir, jobs)
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
            f"{gallery.model.input_dim} (probe and gallery images differ in size or "
            "key-point count?)"
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
    ids = gallery.subject_ids
    ranking = [(ids[i], d) for i, d in zip(order.tolist(), dists[order].tolist())]
    return MatchResult(probe=probe_path, ranking=ranking, true_subject=true_subject)


def _check_config(gallery: Gallery, config: RunConfig) -> None:
    if config.feature_fingerprint() != gallery.fingerprint:
        raise ConfigMismatch("probe config differs from the gallery's feature config")


def identify(
    gallery: Gallery,
    probe_path: str,
    config: RunConfig,
    keypoints_dir: str | None = None,
    true_subject: str | None = None,
) -> MatchResult:
    """Extract the probe's feature and :func:`rank` the gallery against it."""
    _check_config(gallery, config)
    feature = extract_feature(probe_path, config, keypoints_dir)
    return rank(gallery, feature, probe_path, true_subject)


def rank_accuracy(results: list[MatchResult], r: int) -> float:
    """Fraction of probes whose correct subject appears at rank <= r."""
    if not results:
        raise NoResults("no match results to score")
    for res in results:
        if res.true_subject is None:
            raise MissingGroundTruth(f"{res.probe}: no ground-truth subject")
    return sum((res.correct_rank or r + 1) <= r for res in results) / len(results)


def _rank_probes(
    records: list[ManifestRecord], configs: list[RunConfig], galleries: list[list[Gallery]],
    keypoints_dir: str | None, jobs: int | None,
) -> list[list[list[MatchResult]]]:
    """:func:`rank` every gallery of ``galleries[j]`` against each probe's
    feature under ``configs[j]`` as it arrives, in probe order, the probes
    extracted as in :func:`enroll`. Results are nested as ``galleries``."""
    results: list[list[list[MatchResult]]] = [[[] for _ in group] for group in galleries]
    paths = [r.path for r in records]
    extracted = parallel.imap(_extract_all, paths, configs, keypoints_dir, jobs=jobs)
    with contextlib.closing(extracted):
        for rec, features in zip(records, extracted):
            for feature, group, group_results in zip(features, galleries, results):
                for gallery, gallery_results in zip(group, group_results):
                    gallery_results.append(rank(gallery, feature, rec.path, rec.subject_id))
    return results


def evaluate(
    gallery: Gallery,
    records: list[ManifestRecord],
    config: RunConfig,
    keypoints_dir: str | None = None,
    jobs: int | None = None,
) -> list[tuple[str, int, float, float]]:
    """Per-subset (subset, n_probes, rank1, rank5) rows, subsets in first-
    appearance order.

    The probes are extracted as :func:`enroll` extracts the gallery, in
    ``jobs`` worker processes, and each is ranked as its feature arrives,
    in probe order. The rows do not depend on ``jobs``."""
    if not records:
        raise ManifestError("evaluate needs at least one probe record")
    _check_config(gallery, config)
    [[results]] = _rank_probes(records, [config], [[gallery]], keypoints_dir, jobs)
    by_subset: dict[str, list[MatchResult]] = {}
    for rec, res in zip(records, results):
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
    jobs: int | None = None,
) -> list[float]:
    """Rank-1 accuracy of each config, in order: enroll the gallery under it
    and identify every probe.

    Configs with the same preprocess and Gabor settings form one group, and
    each image is preprocessed and decomposed once per group. Within it,
    configs with the same feature fingerprint (they differ only in
    ``k_requested``) share one feature of each image. Gallery and probes
    are extracted as in :func:`enroll`, in ``jobs`` worker processes; each
    row's gallery is fitted once, and each probe ranked against it."""
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
        matrices = _feature_matrices(gallery_paths, feature_configs, keypoints_dir, jobs)
        galleries = [
            [enroll(gallery_records, configs[i], keypoints_dir, features=feats) for i in rows]
            for rows, feats in zip(row_sets, matrices)
        ]
        del matrices  # the probe loop needs only the fitted galleries
        results = _rank_probes(probe_records, feature_configs, galleries, keypoints_dir, jobs)
        for rows, group_results in zip(row_sets, results):
            for i, row_results in zip(rows, group_results):
                accuracies[i] = rank_accuracy(row_results, 1)
    return accuracies
