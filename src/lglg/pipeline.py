"""Feature extraction, enrollment, identification, evaluation and sweeps.
The model file is read and written by :mod:`lglg.formats`."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import parallel
from .config import MODE_KEYPOINT, RunConfig
from .descriptor import ImageCache, image_feature, subband_key
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
    path: str, config: RunConfig, keypoints_dir: str | None = None, cache: ImageCache | None = None
) -> np.ndarray:
    """Load one image and run the full descriptor pipeline on it. Calls that
    pass the same ``cache``, built for this image, read it and its key points
    once and share its extractions (:func:`lglg.descriptor.image_feature`)."""
    cache = ImageCache([config]) if cache is None else cache
    try:
        if cache.image is None:
            # checked before the pixels are read: an image far over the
            # bound could fail to allocate them, or their float64 copy
            params = config.gabor_params()
            image = read_pgm(path, lambda shape: check_fits(shape, params)) / 255.0
            if any(c.mode == MODE_KEYPOINT for c in cache.configs):
                if keypoints_dir is None:
                    raise ManifestError("keypoint mode requires --keypoints-dir")
                cache.keypoints = load_keypoints(keypoint_path(path, keypoints_dir))
            cache.image = image
        return image_feature(cache.image, config, cache.keypoints, cache)
    except ExtractionError:
        raise
    except (LglgError, OSError) as exc:
        raise ExtractionError(path, exc) from exc


def _extract_all(
    path: str, configs: list[RunConfig], keypoints_dir: str | None
) -> list[np.ndarray]:
    """:func:`extract_feature` of ``path`` under each of ``configs``, in
    order, through one :class:`~lglg.descriptor.ImageCache`: the image is
    read once, and configs with the same preprocess and Gabor settings
    share one subband stack of it and one split of their blocks."""
    cache = ImageCache(configs)
    return [extract_feature(path, config, keypoints_dir, cache) for config in configs]


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


@contextlib.contextmanager
def _matching(probe_path: str):
    """Raise :class:`NonFinite` naming the probe where a product overflows:
    a model file may hold finite values that do."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise NonFinite(
                f"{probe_path}: matching overflows ({exc}); the model holds extreme values"
            ) from exc


def standardize(gallery: Gallery, feature: np.ndarray, probe_path: str) -> np.ndarray:
    """The first step of :func:`rank`: the probe's ``feature``, extracted
    under the gallery's config, projected by its model and z-scored."""
    if feature.size != gallery.model.input_dim:
        raise DimensionMismatch(
            f"{probe_path}: feature length {feature.size}, the gallery's is "
            f"{gallery.model.input_dim} (probe and gallery images differ in size or "
            "key-point count?)"
        )
    with _matching(probe_path):
        return zscore(project(gallery.model, feature))


def match(
    gallery: Gallery, z: np.ndarray, probe_path: str, true_subject: str | None = None
) -> MatchResult:
    """The second step of :func:`rank`: all gallery entries by Euclidean
    distance to the standardized probe ``z``. Ties are broken by gallery
    insertion order (stable sort)."""
    with _matching(probe_path):
        dists = np.linalg.norm(gallery.features - z, axis=1)
    order = np.argsort(dists, kind="stable")
    ids = gallery.subject_ids
    ranking = [(ids[i], d) for i, d in zip(order.tolist(), dists[order].tolist())]
    return MatchResult(probe=probe_path, ranking=ranking, true_subject=true_subject)


def rank(
    gallery: Gallery, feature: np.ndarray, probe_path: str, true_subject: str | None = None
) -> MatchResult:
    """Rank all gallery entries by Euclidean distance to ``feature``, the
    probe's feature extracted under the gallery's config: :func:`standardize`,
    then :func:`match`."""
    return match(gallery, standardize(gallery, feature, probe_path), probe_path, true_subject)


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


def _standardized_probe(
    path: str, configs: list[RunConfig], keypoints_dir: str | None, galleries: list[list[Gallery]]
) -> list[list[np.ndarray]]:
    """The feature of ``path`` under each of ``configs``, :func:`standardize`d
    for every gallery of its group: k floats a gallery, which is all a pool
    worker sends back."""
    features = _extract_all(path, configs, keypoints_dir)
    return [[standardize(g, f, path) for g in group] for f, group in zip(features, galleries)]


def _rank_probes(
    records: list[ManifestRecord], configs: list[RunConfig], galleries: list[list[Gallery]],
    keypoints_dir: str | None, jobs: int | None,
) -> list[list[list[MatchResult]]]:
    """:func:`rank` every gallery of ``galleries[j]`` against each probe's
    feature under ``configs[j]``, in probe order, the probes extracted as in
    :func:`enroll`. Each probe is standardized where it is extracted, in a
    pool worker but for the first, and matched here as it arrives. Results
    are nested as ``galleries``."""
    results: list[list[list[MatchResult]]] = [[[] for _ in group] for group in galleries]
    extracted = parallel.imap(
        _standardized_probe, [r.path for r in records], configs, keypoints_dir, galleries, jobs=jobs
    )
    with contextlib.closing(extracted):
        for rec, probe in zip(records, extracted):
            for zs, group, group_results in zip(probe, galleries, results):
                for z, gallery, gallery_results in zip(zs, group, group_results):
                    gallery_results.append(match(gallery, z, rec.path, rec.subject_id))
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
    ``jobs`` worker processes, and each is projected and z-scored
    (:func:`standardize`) where it was extracted. Only that vector comes
    back, and it is matched as it arrives, in probe order. The rows do not
    depend on ``jobs``."""
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
    each image is preprocessed and decomposed once per group, and its
    blocks embedded in one split. Within it, configs with the same feature
    fingerprint (they differ only in ``k_requested``) share one feature of
    each image. Gallery and probes are extracted as in :func:`enroll`, in
    ``jobs`` worker processes. Each row's gallery is fitted once, here, and
    each probe is standardized for every gallery of its group where it was
    extracted, as in :func:`evaluate`, then matched here."""
    _check_gallery_size(gallery_records)
    if not probe_records:
        raise ManifestError("sweep needs at least one probe record")
    # subband settings -> feature fingerprint -> rows
    groups: dict[tuple, dict[str, list[int]]] = {}
    for i, config in enumerate(configs):
        by_fingerprint = groups.setdefault(subband_key(config), {})
        by_fingerprint.setdefault(config.feature_fingerprint(), []).append(i)
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
