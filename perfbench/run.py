#!/usr/bin/env python3
"""lglg benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gallery64 --seed 7 --seconds 25 --trace 0

Run it from the root of a checkout: it imports ``lglg`` from ``src/`` and
fails without a result when that is missing. Every workload drives the
public API in one process: ``pipeline.enroll``, ``save_model`` and
``load_model``, a closed loop of ``pipeline.identify`` calls (one caller,
model loaded once), ``pipeline.evaluate`` on the same probes, and
``cli.main(["sweep", ...])``. Inputs are synthetic gratings from
``synthetic.write_benchmark`` made from ``--seed``.

Times are wall times scaled to reference CPU speed (see ``speed.py``); the
report prints the raw wall figures beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library functions (see ``layers.py``), reports the per-layer metrics and
writes the spans to ``.perfbench-out/``. The human-readable report goes to
stdout; its last line is the JSON result. The exit code is 1 when an output
is wrong or a call failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Any

import numpy as np

import layers
import spans
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 7
SETUP_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))

Interval = tuple[float, float]  # time.monotonic() at start and end


@dataclass(frozen=True)
class Workload:
    """Synthetic set: ``classes`` subjects of ``size``² gratings, one gallery
    image and ``probes`` probes each. The sweep runs the grid on the first
    ``sweep_classes`` subjects with ``jobs`` workers (0 = nproc)."""

    size: int
    classes: int
    probes: int
    sweep_classes: int
    grid: tuple[tuple[str, str], ...]
    jobs: int
    rank1_floor: float  # sanity floor when no reference exists for the seed

    @property
    def rows(self) -> int:
        return math.prod(len(values.split(",")) for _, values in self.grid)

    @property
    def sweep_jobs(self) -> int:
        return self.jobs or NPROC


DEFAULT_ROW = (("k_requested", "1196"),)
SWEEP_GRID = (("block_size", "11,15,21"), ("k_requested", "5,50"))

WORKLOADS = {
    # Small images: per-image fixed costs (kernel bank, whitened basis) count;
    # 100-way matching at k=99; orientations pi/100 apart, so rank-1 is below
    # 1 and shows numerical drift.
    "gallery64": Workload(64, 100, 2, 10, DEFAULT_ROW, 1, 0.6),
    # Large images: FFT size and the 289-block embedding loop dominate.
    "image256": Workload(256, 10, 2, 3, DEFAULT_ROW, 1, 0.9),
    # Six sweep rows re-extract the same 60 images. The sweep runs at jobs=1:
    # at jobs=nproc each pool worker starts its own BLAS threads, and on a
    # 2-vCPU VM the oversubscribed sweep's rows/s spread by a quarter between
    # runs, three times what a steady metric may.
    "sweep64": Workload(64, 20, 2, 20, SWEEP_GRID, 1, 0.8),
}

#: The same workloads at a size that runs in seconds, for the smoke test;
#: its sweep64 keeps a pool (jobs=nproc), so that the pool path still runs.
TINY = {
    "gallery64": Workload(32, 6, 2, 3, DEFAULT_ROW, 1, 0.0),
    "image256": Workload(48, 3, 2, 3, DEFAULT_ROW, 1, 0.0),
    "sweep64": Workload(32, 4, 2, 4, (("block_size", "11,15"), ("k_requested", "5,50")), 0, 0.0),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "enroll_img_per_s": "1/s",
    "identify_p50_ms": "ms",
    "identify_p90_ms": "ms",
    "evaluate_probes_per_s": "1/s",
    "sweep_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}

INPUT_FILES = {"gallery": "gallery.csv", "probes": "probes.csv", "sweep_gallery": "sweep_gallery.csv",
               "sweep_probes": "sweep_probes.csv", "grid": "grid.txt", "config": "run.cfg"}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong program output)."""


def load_lib():
    if not (SRC / "lglg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lglg package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import lglg.cli
    import lglg.descriptor
    import lglg.pipeline
    import lglg.synthetic

    return lglg


def workload(args) -> Workload:
    return (TINY if args.tiny else WORKLOADS)[args.workload]


def input_paths(root: Path) -> SimpleNamespace:
    return SimpleNamespace(**{name: str(root / file) for name, file in INPUT_FILES.items()})


def make_inputs(lib, w: Workload, seed: int, root: Path) -> SimpleNamespace:
    """Images, manifests, the sweep subset, grid and config file."""
    lib.synthetic.write_benchmark(root, n_classes=w.classes, probes_per_class=w.probes,
                                  size=w.size, seed=seed)
    inp = input_paths(root)
    keep = {r.subject_id for r in lib.pipeline.load_manifest(inp.gallery)[: w.sweep_classes]}
    for src, dst in ((inp.gallery, inp.sweep_gallery), (inp.probes, inp.sweep_probes)):
        with open(dst, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["path", "subject_id", "subset"])
            out.writerows((r.path, r.subject_id, r.subset)
                          for r in lib.pipeline.load_manifest(src) if r.subject_id in keep)
    Path(inp.grid).write_text("".join(f"{k}={v}\n" for k, v in w.grid), encoding="utf-8")
    Path(inp.config).write_text("# default configuration\n", encoding="utf-8")
    return inp


def warm_up(lib, inp: SimpleNamespace) -> str:
    """One extraction; returns the SHA-256 of the feature bytes."""
    first = lib.pipeline.load_manifest(inp.gallery)[0].path
    feature = lib.pipeline.extract_feature(first, lib.RunConfig())
    return hashlib.sha256(feature.tobytes()).hexdigest()


def setup_child(args) -> int:
    """One cold set-up in its own process: imports, inputs, warm-up."""
    lib = load_lib()
    inp = make_inputs(lib, workload(args), args.seed, Path(args.setup_into))
    print(json.dumps({"feature_sha256": warm_up(lib, inp)}))
    return 0


def timed_setups(args, work: Path) -> tuple[list[Interval], list[str]]:
    """Set up SETUP_REPEATS times, each in a fresh process and directory."""
    intervals, hashes = [], []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-into", str(work / f"setup{i}"),
               "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        intervals.append((t0, time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        hashes.append(json.loads(proc.stdout.splitlines()[-1])["feature_sha256"])
    return intervals, hashes


class Calls:
    """Runs and times library calls; counts extract/identify calls attempted
    and failed."""

    def __init__(self, errors: tuple[type[BaseException], ...]):
        self.errors = errors
        self.attempted = 0
        self.failed = 0

    def run(self, calls: int, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` standing for ``calls`` extract/identify
        calls; returns (result, interval)."""
        self.attempted += calls
        t0 = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except self.errors:
            self.failed += calls
            raise
        return result, (t0, time.monotonic())


#: The closed identify loop and the evaluate call run in this many parts,
#: spread between the other phases, so that their figures sample the whole
#: run rather than one stretch of the machine's drifting speed.
PARTS = 3


@dataclass
class Round:
    """What one pass over every phase timed and produced."""

    enroll: list[Interval] = field(default_factory=list)
    identify: list[Interval] = field(default_factory=list)
    evaluate: list[Interval] = field(default_factory=list)
    sweep: Interval = (0.0, 0.0)
    untraced_identify_s: float = 0.0
    traced_identify_s: float = 0.0
    hits: int = 0
    evaluate_hits: int = 0
    rank1: float | None = None
    acc: list[str] = field(default_factory=list)
    model_sha256: str = ""
    rankings: Any = field(default_factory=hashlib.sha256)  # digest of every ranking
    rankings_sha256: str = ""


def identify_loop(lib, gallery, records, config, calls: Calls, rnd: Round | None) -> float:
    """Closed loop, one caller: the next probe is sent when the last returns.
    Returns the loop's wall seconds."""
    start = time.monotonic()
    for rec in records:
        res, iv = calls.run(1, lib.pipeline.identify, gallery, rec.path, config,
                            true_subject=rec.subject_id)
        if rnd is not None:
            rnd.identify.append(iv)
            rnd.hits += res.correct_rank == 1
            rnd.rankings.update(repr(res.ranking).encode())
    return time.monotonic() - start


def same_gallery(a, b) -> bool:
    return (a.config == b.config and a.subject_ids == b.subject_ids
            and all(x.tobytes() == y.tobytes() for x, y in (
                (a.features, b.features), (a.model.train_mean, b.model.train_mean),
                (a.model.basis, b.model.basis), (a.model.eigvals, b.model.eigvals))))


def run_round(lib, w: Workload, inp: SimpleNamespace, work: Path, calls: Calls,
              tracer: spans.Tracer | None, problems: list[str]) -> Round:
    p = lib.pipeline
    config = lib.RunConfig()
    gallery_recs, probe_recs = p.load_manifest(inp.gallery), p.load_manifest(inp.probes)
    step = math.ceil(len(probe_recs) / PARTS)
    parts = [probe_recs[i : i + step] for i in range(0, len(probe_recs), step)]
    rnd = Round()

    def enroll():
        gallery, iv = calls.run(len(gallery_recs), p.enroll, gallery_recs, config)
        rnd.enroll.append(iv)
        return gallery

    gallery = enroll()
    model_path = str(work / "model.bin")
    p.save_model(gallery, model_path)
    rnd.model_sha256 = hashlib.sha256(Path(model_path).read_bytes()).hexdigest()
    loaded = p.load_model(model_path)
    if not same_gallery(gallery, loaded):
        problems.append("load_model did not reproduce the enrolled gallery bitwise")

    if tracer is not None:
        tracer.uninstall()
        rnd.untraced_identify_s = identify_loop(lib, loaded, parts[0], config, calls, None)
        tracer.install()

    def identify_and_evaluate(part) -> None:
        wall = identify_loop(lib, loaded, part, config, calls, rnd)
        if part is parts[0]:
            rnd.traced_identify_s = wall
        rows, iv = calls.run(len(part), p.evaluate, loaded, part, config)
        rnd.evaluate.append(iv)
        rnd.evaluate_hits += sum(round(n * r1) for _, n, r1, _ in rows)

    identify_and_evaluate(parts[0])
    sweep_out = str(work / "sweep.csv")
    argv = ["sweep", "--config", inp.config, "--grid", inp.grid,
            "--gallery-manifest", inp.sweep_gallery, "--probe-manifest", inp.sweep_probes,
            "--out", sweep_out, "--jobs", str(w.sweep_jobs)]
    sweep_calls = w.rows * (len(p.load_manifest(inp.sweep_gallery)) + len(p.load_manifest(inp.sweep_probes)))
    code, rnd.sweep = calls.run(sweep_calls, lib.cli.main, argv)
    for part in parts[1:]:
        identify_and_evaluate(part)
    # enroll again at the end, so that its figure samples both ends of the run
    if not same_gallery(gallery, enroll()):
        problems.append("a second enroll of the same gallery gave a different gallery")

    rnd.rank1 = rnd.hits / len(probe_recs)
    rnd.rankings_sha256 = rnd.rankings.hexdigest()
    if rnd.evaluate_hits != rnd.hits:
        problems.append(f"evaluate found {rnd.evaluate_hits} rank-1 hits, the identify loop {rnd.hits}")
    if code != 0:
        calls.failed += sweep_calls
        problems.append(f"sweep exited with code {code}")
        return rnd
    with open(sweep_out, encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    rnd.acc = [row["acc"] for row in table]
    if len(table) != w.rows:
        problems.append(f"sweep wrote {len(table)} rows, expected {w.rows}")
    return rnd


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    return max([50.0] + [q for q in (75.0, 90.0, 95.0, 99.0, 99.9) if n * (1 - q / 100) >= 10])


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "nproc": NPROC,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_state(key: str, values: dict, problems: list[str]) -> None:
    """Values that must repeat across runs of the same program sources are
    kept per source digest under .perfbench-out/ and compared on each run."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"state-{source_digest()[:16]}.json"
    state = json.loads(path.read_text()) if path.exists() else {}
    seen = state.setdefault(key, {})
    for name, value in values.items():
        if name in seen and seen[name] != value:
            problems.append(f"{key} {name} is {value}, an earlier run of the same sources had {seen[name]}")
        seen.setdefault(name, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def report(name: str, value, unit: str, detail: str = "") -> None:
    print(f"metric {name} {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))


def end_to_end(lib, w: Workload, inp, done: list[Round], setups: list[Interval],
               probe: SpeedProbe) -> tuple[dict, dict]:
    """Metrics and their details (sample counts, raw wall figures)."""
    ref, wall = probe.at_reference, (lambda iv: iv[1] - iv[0])
    lat = [iv for r in done for iv in r.identify]
    lat_ms = [ref(*iv) * 1e3 for iv in lat]
    wall_ms = [wall(iv) * 1e3 for iv in lat]
    n_gal = len(lib.pipeline.load_manifest(inp.gallery))
    n_probe = len(lib.pipeline.load_manifest(inp.probes))
    tail = tail_percentile(len(lat))
    metrics = {
        "setup_s": median(ref(*iv) for iv in setups),
        "enroll_img_per_s": median(n_gal * len(r.enroll) / sum(ref(*iv) for iv in r.enroll) for r in done),
        "identify_p50_ms": float(np.percentile(lat_ms, 50)),
        "identify_p90_ms": float(np.percentile(lat_ms, 90)),
        "evaluate_probes_per_s": median(n_probe / sum(ref(*iv) for iv in r.evaluate) for r in done),
        "sweep_rows_per_s": median(w.rows / ref(*r.sweep) for r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    rounds = f"median of {len(done)} round(s)"
    details = {
        "setup_s": f"median of {len(setups)} set-ups; wall "
                   + ", ".join(f"{wall(iv):.3f}" for iv in setups) + " s",
        "enroll_img_per_s": f"{n_gal} images, enrolled twice per round, {rounds}; wall "
                            f"{median(n_gal * len(r.enroll) / sum(map(wall, r.enroll)) for r in done):.4g}/s",
        "identify_p50_ms": f"n={len(lat)}; p{tail:g} {np.percentile(lat_ms, tail):.2f} ms is the highest "
                           f"percentile with >=10 samples beyond it; wall p50 {np.percentile(wall_ms, 50):.2f} ms",
        "identify_p90_ms": f"n={len(lat)}, {len(lat) // 10} samples beyond it; "
                           f"wall p90 {np.percentile(wall_ms, 90):.2f} ms",
        "evaluate_probes_per_s": f"{n_probe} probes per round, {rounds}; wall "
                                 f"{median(n_probe / sum(map(wall, r.evaluate)) for r in done):.4g}/s",
        "sweep_rows_per_s": f"{w.rows} rows at jobs={w.sweep_jobs}, {rounds}; wall "
                            f"{median(w.rows / wall(r.sweep) for r in done):.4g}/s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, details


def per_layer(lib, w: Workload, done: list[Round], tracer: spans.Tracer, wkey: str, seed: int,
              problems: list[str]) -> tuple[dict, dict]:
    traced = sum(r.traced_identify_s for r in done)
    untraced = sum(r.untraced_identify_s for r in done)
    try:
        metrics = layers.derive(tracer.spans, w.rows, lib.RunConfig().feature_fingerprint(),
                                traced / untraced - 1)
    except ValueError as exc:
        problems.append(f"per-layer count: {exc}")
        return {}, {}
    check_state(wkey, {k: metrics[k] for k in layers.EXACT_COUNTS}, problems)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{wkey}-seed{seed}.jsonl"
    spans.write_jsonl(str(trace_path), tracer.spans,
                      {"workload": wkey, "seed": seed, "env": environment(), "pool_workers_traced": False})
    print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}; "
          "pool workers' spans are not collected")
    breakdown = layers.image_feature_breakdown(tracer.spans)
    total = sum(breakdown.values())
    print("self time under descriptor.image_feature: " + ", ".join(
        f"{k} {v:.0f} ms ({v / total:.0%})" for k, v in breakdown.items()))
    details = {
        "pipeline.enroll.pool_speedup": "pool workers are not traced: images x serial extract_feature "
                                        "p50 / enroll wall time in this process",
        "trace.overhead_frac": "traced / untraced closed-loop identify pass, minus 1",
    }
    return metrics, details


def run(lib, args, work: Path, probe: SpeedProbe | None) -> int:
    w = workload(args)
    wkey = args.workload + ("-tiny" if args.tiny else "")
    problems: list[str] = []
    calls = Calls((lib.errors.LglgError, OSError))
    print(f"workload {wkey} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment()))

    setups, hashes = timed_setups(args, work)
    inp = input_paths(work / "setup0")
    for extra in range(1, SETUP_REPEATS):
        shutil.rmtree(work / f"setup{extra}")
    if len(set(hashes + [warm_up(lib, inp)])) != 1:
        problems.append("warm-up feature differs between processes (not bitwise deterministic)")

    tracer = layers.install_tracer(lib) if args.trace else None
    rounds: list[Round] = []
    start = time.monotonic()
    try:
        while True:
            r0 = time.monotonic()
            rounds.append(run_round(lib, w, inp, work, calls, tracer, problems))
            now = time.monotonic()
            if now + (now - r0) > start + args.seconds:  # the next round would not fit
                break
    except calls.errors as exc:
        problems.append(f"call failed: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    if probe is not None:
        probe.stop()
    print(f"measured {time.monotonic() - start:.1f} s in {len(rounds)} round(s)")

    done = [r for r in rounds if r.acc]
    for attr in ("model_sha256", "rankings_sha256", "acc"):
        if len({json.dumps(getattr(r, attr)) for r in done}) > 1:
            problems.append(f"{attr} differs between rounds of one run")
    reference = json.loads(REFERENCE.read_text()).get(wkey, {}).get(str(args.seed))
    metrics: dict[str, float] = {}
    details: dict[str, str] = {}
    units = layers.PER_LAYER if args.trace else END_TO_END_UNITS
    if done:
        r = done[0]
        if reference is not None:
            if r.rank1 != reference["rank1"] or r.acc != reference["acc"]:
                problems.append(f"rank1 {r.rank1} / acc {r.acc} differ from the reference "
                                f"{reference['rank1']} / {reference['acc']} for seed {args.seed}")
        elif r.rank1 < w.rank1_floor:
            problems.append(f"rank1 {r.rank1} below the floor {w.rank1_floor}")
        check_state(f"{wkey}/seed{args.seed}", {"model_sha256": r.model_sha256}, problems)
        print(f"metric rank1 {r.rank1:.6g} fraction  (reference "
              f"{'none for this seed' if reference is None else reference['rank1']})")
        print(f"sweep acc {','.join(r.acc)}  model_sha256 {r.model_sha256}")
        if args.trace:
            metrics, details = per_layer(lib, w, done, tracer, wkey, args.seed, problems)
        else:
            metrics, details = end_to_end(lib, w, inp, done, setups, probe)
    else:
        problems.append("no round completed")

    for name, value in metrics.items():
        report(name, value, units[name], details.get(name, ""))
    report("failed_frac", calls.failed / max(calls.attempted, 1), "fraction",
           f"{calls.failed} of {calls.attempted} extract/identify calls")
    for problem in problems:
        print(f"MISMATCH {problem}")

    correct = not problems and calls.failed == 0 and metrics.keys() == units.keys()
    print(json.dumps({
        "correct": correct,
        "attempted": max(calls.attempted, 1),
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time: whole rounds are repeated while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_into:
        return setup_child(args)

    lib = load_lib()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # per-layer figures have no bound: the traced run keeps raw wall times
        with SpeedProbe() if not args.trace else contextlib.nullcontext() as probe:
            return run(lib, args, work, probe)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
