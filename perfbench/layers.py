"""Where the traced run wraps the library, and the per-layer metrics it
derives from the spans. A layer is one module of ``lglg``."""

from __future__ import annotations

import os
from collections import defaultdict
from statistics import median

from spans import Span, Tracer, self_times

MS = 1e-6  # ns -> ms

#: Per-layer metric -> unit.
PER_LAYER = {
    "preprocess.preprocess_chain.ms_p50": "ms",
    "gabor.build_bank.calls_per_image": "count",
    "gabor.build_bank.ms": "ms",
    "gabor.decompose.ms_p50": "ms",
    "gabor.decompose.mb_out": "MB",
    "gabor.decompose.calls_per_unique_image": "count",
    "descriptor.blocks_per_image": "count",
    "descriptor.feature_length": "count",
    "descriptor.estimate_gaussian.ms_per_image": "ms",
    "descriptor.block_feature.ms_per_image": "ms",
    "descriptor.image_feature.ms_p50": "ms",
    "wpca.fit.ms": "ms",
    "wpca.k_requested": "count",
    "wpca.k_kept": "count",
    "wpca.project.ms_p50": "ms",
    "pipeline.read_pgm.ms_p50": "ms",
    "pipeline.extract_feature.ms_p50": "ms",
    "pipeline.identify.self_ms_p50": "ms",
    "pipeline.evaluate.self_ms": "ms",
    "pipeline.save_model.ms": "ms",
    "pipeline.load_model.ms": "ms",
    "pipeline.model_bytes": "B",
    "pipeline.enroll.pool_speedup": "ratio",
    "cli.sweep.extract_calls_per_row": "count",
    "trace.overhead_frac": "ratio",
}

#: Counts that must repeat exactly across runs of the same program sources.
EXACT_COUNTS = (
    "gabor.build_bank.calls_per_image",
    "gabor.decompose.mb_out",
    "gabor.decompose.calls_per_unique_image",
    "descriptor.blocks_per_image",
    "descriptor.feature_length",
    "wpca.k_requested",
    "wpca.k_kept",
    "pipeline.model_bytes",
    "cli.sweep.extract_calls_per_row",
)


def install_tracer(lib) -> Tracer:
    """Wrap each public function at the name its callers bind."""
    t = Tracer()
    d, p = lib.descriptor, lib.pipeline
    t.wrap(d, "preprocess_chain", "preprocess.preprocess_chain")
    t.wrap(d, "build_bank", "gabor.build_bank")
    t.wrap(d, "decompose", "gabor.decompose", lambda a, r: {"out_bytes": r.nbytes})
    t.wrap(d, "estimate_gaussian", "descriptor.estimate_gaussian")
    t.wrap(d, "block_feature", "descriptor.block_feature")
    t.wrap(p, "image_feature", "descriptor.image_feature", lambda a, r: {"length": r.size})
    t.wrap(p, "read_pgm", "pipeline.read_pgm")
    t.wrap(p, "extract_feature", "pipeline.extract_feature", lambda a, r: {"path": a["path"]})
    t.wrap(p, "fit", "wpca.fit",
           lambda a, r: {"k_requested": a["k_requested"], "k_kept": r.output_dim})
    t.wrap(p, "project", "wpca.project")
    t.wrap(p, "zscore", "wpca.zscore")
    t.wrap(p, "enroll", "pipeline.enroll", lambda a, r: {
        "images": len(a["records"]), "jobs": a.get("jobs", 1),
        "fingerprint": a["config"].feature_fingerprint()})
    t.wrap(p, "identify", "pipeline.identify")
    t.wrap(p, "evaluate", "pipeline.evaluate")
    t.wrap(p, "save_model", "pipeline.save_model",
           lambda a, r: {"bytes": os.path.getsize(a["path"])})
    t.wrap(p, "load_model", "pipeline.load_model")
    t.wrap(lib.cli, "cmd_sweep", "cli.sweep")
    t.install()
    return t


def _p50_ms(spans: list[Span]) -> float:
    return median(s.dur_ns for s in spans) * MS


def _one(values: list) -> object:
    """The single value a count takes across spans; raise if it varies."""
    distinct = set(values)
    if len(distinct) != 1:
        raise ValueError(f"count varies across calls: {sorted(distinct)}")
    return distinct.pop()


def derive(spans: list[Span], sweep_rows: int, fingerprint: str, overhead_frac: float) -> dict:
    """Per-layer metrics. Spans outside ``cli.sweep`` (the workload's own
    enroll, persistence, identify and evaluate calls) give the per-image
    figures; spans inside it give the sweep's reuse counts."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    main: dict[str, list[Span]] = defaultdict(list)
    sweep: dict[str, list[Span]] = defaultdict(list)
    extracting_enrolls: set[int] = set()  # enroll spans with extraction spans below them
    for s in spans:
        up = list(ancestors(s))
        if any(a.name == "cli.sweep" for a in up):
            sweep[s.name].append(s)
            if s.name == "pipeline.extract_feature":
                extracting_enrolls.update(a.sid for a in up if a.name == "pipeline.enroll")
        elif s.name != "cli.sweep":
            main[s.name].append(s)

    images = len(main["descriptor.image_feature"])
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    project_ms = [
        sum(c.dur_ns for c in children[s.sid] if c.name in ("wpca.project", "wpca.zscore")) * MS
        for s in main["pipeline.identify"]
    ]
    fits = main["wpca.fit"]
    extract_p50 = _p50_ms(main["pipeline.extract_feature"])

    # Pool workers are not traced: an enroll that ran with jobs > 1 and shows
    # no extraction spans handed all its images to the pool, counted from
    # its arguments instead.
    pooled = sum(
        e.attrs["images"] for e in sweep["pipeline.enroll"]
        if e.attrs["jobs"] > 1 and e.sid not in extracting_enrolls
    )
    sweep_extracts = sweep["pipeline.extract_feature"]
    speedups = [
        e.attrs["images"] * extract_p50 / (e.dur_ns * MS)
        for e in sweep["pipeline.enroll"] if e.attrs["fingerprint"] == fingerprint
    ]
    sweeps = sum(1 for s in spans if s.name == "cli.sweep")

    return {
        "preprocess.preprocess_chain.ms_p50": _p50_ms(main["preprocess.preprocess_chain"]),
        "gabor.build_bank.calls_per_image": len(main["gabor.build_bank"]) / images,
        "gabor.build_bank.ms": _p50_ms(main["gabor.build_bank"]),
        "gabor.decompose.ms_p50": _p50_ms(main["gabor.decompose"]),
        "gabor.decompose.mb_out": _one([s.attrs["out_bytes"] for s in main["gabor.decompose"]]) / 1e6,
        "gabor.decompose.calls_per_unique_image":
            len(sweep["gabor.decompose"]) / len({s.attrs["path"] for s in sweep_extracts}),
        "descriptor.blocks_per_image": len(main["descriptor.estimate_gaussian"]) / images,
        "descriptor.feature_length": _one([s.attrs["length"] for s in main["descriptor.image_feature"]]),
        "descriptor.estimate_gaussian.ms_per_image":
            sum(s.dur_ns for s in main["descriptor.estimate_gaussian"]) * MS / images,
        "descriptor.block_feature.ms_per_image":
            sum(s.dur_ns for s in main["descriptor.block_feature"]) * MS / images,
        "descriptor.image_feature.ms_p50": _p50_ms(main["descriptor.image_feature"]),
        "wpca.fit.ms": _p50_ms(fits),
        "wpca.k_requested": _one([s.attrs["k_requested"] for s in fits]),
        "wpca.k_kept": _one([s.attrs["k_kept"] for s in fits]),
        "wpca.project.ms_p50": median(project_ms),
        "pipeline.read_pgm.ms_p50": _p50_ms(main["pipeline.read_pgm"]),
        "pipeline.extract_feature.ms_p50": extract_p50,
        "pipeline.identify.self_ms_p50": median(selfs[s.sid] for s in main["pipeline.identify"]) * MS,
        "pipeline.evaluate.self_ms": median(selfs[s.sid] for s in main["pipeline.evaluate"]) * MS,
        "pipeline.save_model.ms": _p50_ms(main["pipeline.save_model"]),
        "pipeline.load_model.ms": _p50_ms(main["pipeline.load_model"]),
        "pipeline.model_bytes": _one([s.attrs["bytes"] for s in main["pipeline.save_model"]]),
        "pipeline.enroll.pool_speedup": median(speedups),
        "cli.sweep.extract_calls_per_row": (len(sweep_extracts) + pooled) / (sweep_rows * sweeps),
        "trace.overhead_frac": overhead_frac,
    }


def image_feature_breakdown(spans: list[Span]) -> dict[str, float]:
    """Total self time (ms) of each span name under descriptor.image_feature,
    largest first, the image_feature span's own self time included."""
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        node = s
        while node is not None and node.name != "descriptor.image_feature":
            node = by_id.get(node.parent)
        if node is not None:
            totals[s.name] += selfs[s.sid] * MS
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))
