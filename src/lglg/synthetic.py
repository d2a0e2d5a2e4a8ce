"""Synthetic oriented-grating benchmark used by the test suite and the
example scripts. No real face data is bundled; this stands in for a
gallery/probe identification run."""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .formats import write_pgm


def grating(size: int, angle: float, freq: float, phase: float = 0.0) -> np.ndarray:
    """Sinusoidal grating in [0, 1] at the given orientation (radians) and
    spatial frequency (radians per pixel)."""
    coords = np.arange(size, dtype=np.float64)
    x, y = np.meshgrid(coords, coords, indexing="xy")
    arg = freq * (math.cos(angle) * x + math.sin(angle) * y) + phase
    return 0.5 + 0.5 * np.cos(arg)


def class_params(n_classes: int) -> list[tuple[float, float]]:
    """(angle, freq) per class: orientations spread over pi, two frequencies."""
    return [
        (math.pi * i / n_classes, 0.5 if i % 2 == 0 else 0.75)
        for i in range(n_classes)
    ]


def _quantize(image: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)


def write_benchmark(
    root: str | Path,
    n_classes: int = 10,
    probes_per_class: int = 5,
    noise_sigma: float = 0.05,
    size: int = 64,
    seed: int = 0,
) -> tuple[str, str]:
    """Write gallery/probe PGM images plus their two manifest CSVs under
    ``root``; returns (gallery_manifest_path, probe_manifest_path)."""
    root = Path(root)
    images = root / "images"
    images.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    def capture(clean: np.ndarray) -> np.ndarray:
        # every stored image goes through the same noisy acquisition model;
        # a noise-free gallery would make the covariance floors of gallery and
        # probe blocks differ by orders of magnitude, which the matrix log
        # amplifies into spurious distances
        return np.clip(clean + rng.normal(0.0, noise_sigma, clean.shape), 0.0, 1.0)

    gallery_rows = []
    probe_rows = []
    for cls, (angle, freq) in enumerate(class_params(n_classes)):
        subject = f"class{cls:02d}"
        clean = grating(size, angle, freq)
        gal_path = images / f"{subject}_gallery.pgm"
        write_pgm(str(gal_path), _quantize(capture(clean)))
        gallery_rows.append((str(gal_path), subject, "gallery"))
        for p in range(probes_per_class):
            probe_path = images / f"{subject}_probe{p}.pgm"
            write_pgm(str(probe_path), _quantize(capture(clean)))
            probe_rows.append((str(probe_path), subject, "noisy"))

    gallery_manifest = root / "gallery.csv"
    probe_manifest = root / "probes.csv"
    for path, rows in ((gallery_manifest, gallery_rows), (probe_manifest, probe_rows)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["path", "subject_id", "subset"])
            writer.writerows(rows)
    return str(gallery_manifest), str(probe_manifest)
