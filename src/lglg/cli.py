"""Batch command-line front end: enroll, identify, evaluate, sweep."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

from . import pipeline
from .config import MODE_KEYPOINT
from .errors import ConfigError, LglgError
from .formats import load_config, load_manifest, parse_grid_file

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4


def _fmt_acc(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def cmd_enroll(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    records = load_manifest(args.manifest)
    gallery = pipeline.enroll(records, config, keypoints_dir=args.keypoints_dir, jobs=args.jobs)
    pipeline.save_model(gallery, args.out)
    print(f"k={gallery.model.output_dim} feature_length={gallery.model.input_dim}")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    gallery = pipeline.load_model(args.model)
    result = pipeline.identify(
        gallery, args.image, gallery.config, keypoints_dir=args.keypoints_dir
    )
    lines = ["rank,subject_id,distance"]
    for rank, (subject, dist) in enumerate(result.ranking[: args.top], start=1):
        lines.append(f"{rank},{subject},{dist:.6f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    gallery = pipeline.load_model(args.model)
    records = load_manifest(args.manifest)
    rows = pipeline.evaluate(gallery, records, gallery.config, keypoints_dir=args.keypoints_dir)
    lines = ["subset,n_probes,rank1,rank5"]
    for subset, n, rank1, rank5 in rows:
        lines.append(f"{subset},{n},{_fmt_acc(rank1)},{_fmt_acc(rank5)}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = load_config(args.config)
    grid = parse_grid_file(args.grid)
    keys = [k for k, _ in grid]
    combos = list(itertools.product(*[vs for _, vs in grid])) if grid else [()]
    configs = [dataclasses.replace(base, **dict(zip(keys, combo))) for combo in combos]
    counts = sorted({c.keypoint_count for c in configs if c.mode == MODE_KEYPOINT})
    if len(counts) > 1:
        raise ConfigError(
            f"grid gives keypoint_count {counts} in keypoint mode; every row reads the same "
            "--keypoints-dir, whose files hold one count, so give keypoint_count one value"
        )
    gallery_records = load_manifest(args.gallery_manifest)
    probe_records = load_manifest(args.probe_manifest)

    accuracies = pipeline.sweep(
        gallery_records, probe_records, configs, keypoints_dir=args.keypoints_dir, jobs=args.jobs
    )
    lines = [",".join(keys + ["acc"])]
    for combo, acc in zip(combos, accuracies):
        lines.append(",".join([str(v) for v in combo] + [f"{acc:.4f}"]))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lglg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", help="build a gallery model from a manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--keypoints-dir")
    p.add_argument("--jobs", type=int, default=1)
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
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="Cartesian parameter grid, one CSV row each")
    p.add_argument("--config", required=True, help="base config")
    p.add_argument("--grid", required=True, help="grid file: key=v1,v2,... lines")
    p.add_argument("--gallery-manifest", required=True)
    p.add_argument("--probe-manifest", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--keypoints-dir")
    p.add_argument("--jobs", type=int, default=1)
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
