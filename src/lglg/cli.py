"""Batch command-line front end: enroll, identify, evaluate, sweep."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import sys
from contextlib import nullcontext

from . import pipeline
from .config import MODE_KEYPOINT, RunConfig
from .errors import ConfigError, LglgError
from .formats import load_config, load_manifest, parse_grid_file
from .parallel import check_jobs

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

#: Most rows a sweep grid may give. Each row fits a model and ranks every
#: probe (about 0.15 s a row on the 64x64 benchmark), so a larger grid is a
#: mistake, and its configs alone take about 300 bytes a row: gigabytes
#: from 10**7 rows.
MAX_GRID_ROWS = 10_000


def _check_keypoints_dir(configs: list[RunConfig], keypoints_dir: str | None) -> None:
    """A usage error, so reported before any manifest or image is read."""
    if keypoints_dir is None and any(c.mode == MODE_KEYPOINT for c in configs):
        raise ConfigError("keypoint mode requires --keypoints-dir")


def _write_csv(out: str | None, rows: list[list[str]]) -> None:
    """``rows``, header first, as CSV lines to the file ``out`` or to stdout."""
    # csv.writer leaves a lone "\r" unquoted when lines end in "\n" (Python 3.11)
    quoting = csv.QUOTE_ALL if any("\r" in f for row in rows for f in row) else csv.QUOTE_MINIMAL
    sink = open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout)
    with sink as fh:
        csv.writer(fh, lineterminator="\n", quoting=quoting).writerows(rows)


def cmd_enroll(args: argparse.Namespace) -> int:
    check_jobs(args.jobs)
    config = load_config(args.config)
    _check_keypoints_dir([config], args.keypoints_dir)
    records = load_manifest(args.manifest)
    gallery = pipeline.enroll(records, config, keypoints_dir=args.keypoints_dir, jobs=args.jobs)
    pipeline.save_model(gallery, args.out)
    print(f"k={gallery.model.output_dim} feature_length={gallery.model.input_dim}")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    gallery = pipeline.load_model(args.model)
    _check_keypoints_dir([gallery.config], args.keypoints_dir)
    result = pipeline.identify(
        gallery, args.image, gallery.config, keypoints_dir=args.keypoints_dir
    )
    ranking = enumerate(result.ranking[: args.top], start=1)
    _write_csv(args.out, [["rank", "subject_id", "distance"]]
               + [[str(rank), subject, f"{dist:.6f}"] for rank, (subject, dist) in ranking])
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    check_jobs(args.jobs)
    gallery = pipeline.load_model(args.model)
    _check_keypoints_dir([gallery.config], args.keypoints_dir)
    records = load_manifest(args.manifest)
    rows = pipeline.evaluate(
        gallery, records, gallery.config, keypoints_dir=args.keypoints_dir, jobs=args.jobs
    )
    _write_csv(args.out, [["subset", "n_probes", "rank1", "rank5"]]
               + [[subset, str(n), f"{r1:.4f}", f"{r5:.4f}"] for subset, n, r1, r5 in rows])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    check_jobs(args.jobs)
    base = load_config(args.config)
    grid = parse_grid_file(args.grid)
    keys = [k for k, _ in grid]
    n_rows = math.prod(len(vs) for _, vs in grid)
    if n_rows > MAX_GRID_ROWS:
        raise ConfigError(f"grid gives {n_rows} rows, more than {MAX_GRID_ROWS}")
    combos = list(itertools.product(*[vs for _, vs in grid])) if grid else [()]
    configs = [dataclasses.replace(base, **dict(zip(keys, combo))) for combo in combos]
    _check_keypoints_dir(configs, args.keypoints_dir)
    gallery_records = load_manifest(args.gallery_manifest)
    probe_records = load_manifest(args.probe_manifest)

    accuracies = pipeline.sweep(
        gallery_records, probe_records, configs, keypoints_dir=args.keypoints_dir, jobs=args.jobs
    )
    rows = [[*map(str, combo), f"{acc:.4f}"] for combo, acc in zip(combos, accuracies)]
    _write_csv(args.out, [keys + ["acc"], *rows])
    return 0


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes that extract images, in ranges of a few each, and "
                        "project and z-score each probe they extract (default: one per core of "
                        "the CPU affinity; 1 does all of it in this process)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lglg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", help="build a gallery model from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--keypoints-dir")
    _add_jobs(p)
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("identify", help="rank gallery subjects for one probe image")
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--keypoints-dir")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("evaluate", help="per-subset rank-1/rank-5 accuracies")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True, help="probe manifest")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--keypoints-dir")
    _add_jobs(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="Cartesian parameter grid, one CSV row each")
    p.add_argument("--config", required=True, help="base config")
    p.add_argument("--grid", required=True, help="grid file: key=v1,v2,... lines")
    p.add_argument("--gallery-manifest", required=True)
    p.add_argument("--probe-manifest", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--keypoints-dir")
    _add_jobs(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LglgError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
