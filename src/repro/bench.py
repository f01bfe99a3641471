"""Pipeline + serving benchmark harness: ``python -m repro.bench``.

Runs the full crawl + PushAdMiner pipeline under a :class:`~repro.obs.PerfClock`
tracer and writes ``BENCH_pipeline.json``: per-stage wall time, peak matrix
footprint, the perf configuration (workers / tile size / storage / blocking),
per-stage speedup against the committed baseline, and the record/cluster
counters each stage reported.  The same seeded run under the default
:class:`~repro.obs.NullClock` stays bit-identical; this harness is the one
place wall-clock readings enter a committed artifact.

``--serve`` benchmarks the serving layer instead: build a
:class:`~repro.serve.MinedSnapshot` from a fresh run, then drive the
deterministic :mod:`repro.serve.loadgen` request mix against a
:class:`~repro.serve.ServeCore` at several thread counts, writing
``BENCH_serve.json`` (p50/p99 latency, QPS, cache hit rate per thread
count, plus the response checksum that must be identical across counts).

``--incremental`` benchmarks :mod:`repro.incremental` instead: hold out the
last 5% of the valid records, time a full batch mine of the union, then time
one :meth:`~repro.incremental.IncrementalMiner.absorb` of the held-out batch
against a base mine of the remainder, writing ``BENCH_incremental.json``
(all three walls, the absorb/full ratio, assigned/opened counts, and the
union summary).  The absorb wall crossing 15% of the full re-mine wall fails
the run outright — with or without a baseline — whenever the full re-mine is
long enough to gate (smoke scales only report the ratio), and the
``--compare`` gate additionally pins the deterministic counts and summary
exactly.

``--smoke`` runs a tiny scenario (for ``scripts/check.sh``) just to prove the
harness end-to-end; the default scale matches ``benchmarks/``.

``--scale-sweep`` runs the blocked sparse pipeline at several population
scales and writes ``BENCH_scale.json``: per-scale pipeline wall time, peak
matrix footprint, candidate-pair count, and the fitted growth exponents of
each against the record count.  The blocking stage's promise is staying a
small fraction of the dense O(n^2) trajectory, so the sweep's ``--compare``
gate fails when any counter crosses its dense-fraction ceiling, when a
growth exponent drifts above the committed trajectory, or when the
deterministic per-scale counters drift from the baseline at all.

``--compare`` is the regression gate: re-run the committed baseline's
scenario (under its recorded perf configuration, crawl workers included) and
fail when any crawl or pipeline stage regresses more than ``--tolerance``
(default 25%) in wall time, or when the deterministic summary drifts at all.
Stages whose baseline wall time is under ``--min-wall`` seconds are skipped —
their timings are noise-dominated.  With ``--serve``, the gate re-runs the
baseline's serve scenario and fails on *any* drift in snapshot content hash
or response checksum (determinism regressions), and on QPS drops beyond the
serve tolerance (default 50% — thread-scheduling noise is larger than stage
wall noise).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import MinerConfig, PushAdMiner
from repro.crawler.engine import DEFAULT_SHARD_SIZE
from repro.crawler.harvest import run_full_crawl
from repro.obs import PerfClock, Span, Tracer
from repro.serve import MinedSnapshot, ServeCore, generate_requests, run_load
from repro.webenv.scenario import paper_scenario

BENCH_SCHEMA = "repro-bench/1"
DEFAULT_SCALE = 0.125
SMOKE_SCALE = 0.02
DEFAULT_BASELINE = "BENCH_pipeline.json"
DEFAULT_TOLERANCE = 0.25
DEFAULT_MIN_WALL = 0.05

SERVE_SCHEMA = "repro-bench-serve/1"
DEFAULT_SERVE_BASELINE = "BENCH_serve.json"
DEFAULT_SERVE_TOLERANCE = 0.50
DEFAULT_SERVE_REQUESTS = 240
SMOKE_SERVE_REQUESTS = 60
SERVE_WORKER_COUNTS: Tuple[int, ...] = (1, 2, 4)

INCREMENTAL_SCHEMA = "repro-bench-incremental/1"
DEFAULT_INCREMENTAL_BASELINE = "BENCH_incremental.json"
DEFAULT_INCREMENTAL_SCALE = 0.25
SMOKE_INCREMENTAL_SCALE = 0.03
DEFAULT_BATCH_FRACTION = 0.05
#: Hard ceiling: absorbing the held-out batch must cost under this
#: fraction of a full re-mine of the union corpus.  The ceiling binds
#: even without a baseline — crossing it means the delta path is
#: re-paying the pipeline instead of computing only the delta.
ABSORB_WALL_CEILING = 0.15
#: The ratio is only gated when the full re-mine wall is at least this
#: many seconds: below it (smoke scales) the absorb leg's fixed verdict
#: cost dominates a noise-sized denominator and the ratio says nothing
#: about scaling.  At the committed scale 0.25 the full mine is ~3.4s.
MIN_GATED_FULL_WALL = 1.0
#: Wall tolerance for the incremental compare gate (absorb walls are
#: sub-second, so noisier than amortized stage walls).
DEFAULT_INCREMENTAL_TOLERANCE = 0.50
#: Deterministic keys the incremental gate pins against its baseline.
_INCREMENTAL_EXACT_KEYS: Tuple[str, ...] = (
    "n_base", "n_batch", "n_union", "assigned", "opened",
)

SCALE_SCHEMA = "repro-bench-scale/1"
DEFAULT_SCALE_BASELINE = "BENCH_scale.json"
SWEEP_SCALES: Tuple[float, ...] = (0.0625, 0.125, 0.25)
SMOKE_SWEEP_SCALES: Tuple[float, ...] = (0.02, 0.04)
#: Per-scale ceilings on each counter as a fraction of its dense
#: quadratic reference (all n*(n-1)/2 pairs; one n^2 float64 matrix).
#: Blocking keeps these small (measured ~0.26 / ~0.035 / ~0.07 at scale
#: 0.25); crossing a ceiling means candidate pruning collapsed and the
#: pipeline is back on the dense O(n^2) trajectory.
DENSE_FRACTION_CEILINGS: Dict[str, float] = {
    "candidate_pairs": 0.50,
    "stored_pairs": 0.125,
    "peak_matrix_bytes": 0.25,
}
#: Allowed drift of a fitted growth exponent above the committed
#: baseline's, for deterministic counters and for the (noisy) wall.
GROWTH_EXPONENT_DRIFT = 0.15
WALL_EXPONENT_DRIFT = 0.35
#: Wall-time sweep tolerance is looser than the per-stage gate: each scale
#: contributes one end-to-end pipeline wall, not amortized stage walls.
DEFAULT_SWEEP_TOLERANCE = 0.50
#: Deterministic per-scale counters the sweep gate pins against baseline.
_SWEEP_EXACT_KEYS: Tuple[str, ...] = (
    "n_records", "candidate_pairs", "stored_pairs", "peak_matrix_bytes",
    "clusters",
)


def _stage_rows(parent: Span) -> List[Dict[str, Any]]:
    return [
        {
            "stage": child.name,
            "wall_s": round(child.duration, 6),
            "metrics": {k: child.metrics[k] for k in sorted(child.metrics)},
        }
        for child in parent.children
    ]


def _peak_matrix_bytes(tracer: Tracer) -> int:
    """Largest single in-memory matrix any stage reported."""
    peak = 0
    for span in tracer.root.walk():
        for name, value in span.metrics.items():
            if name.endswith("_bytes"):
                peak = max(peak, int(value))
    return peak


def run_benchmark(
    seed: int,
    scale: float,
    *,
    workers: int = 1,
    tile_size: Optional[int] = None,
    storage: str = "dense",
    blocking: str = "none",
    blocking_bound: Optional[float] = None,
    crawl_workers: int = 1,
    crawl_shard_size: Optional[int] = None,
) -> Dict[str, Any]:
    """One crawl + pipeline run; returns the bench report payload."""
    tracer = Tracer(clock=PerfClock())
    config = paper_scenario(seed=seed, scale=scale)
    dataset = run_full_crawl(
        config=config,
        tracer=tracer,
        crawl_workers=crawl_workers,
        shard_size=crawl_shard_size,
    )
    overrides: Dict[str, Any] = dict(
        workers=workers, storage=storage, blocking=blocking,
    )
    if blocking_bound is not None:
        overrides["blocking_bound"] = blocking_bound
    if tile_size is not None:
        overrides["tile_size"] = tile_size
    miner = PushAdMiner.for_dataset(dataset, tracer=tracer, **overrides)
    result = miner.run(dataset.valid_records)
    tracer.finish()

    crawl_span = tracer.root.find("crawl")
    pipeline_span = tracer.root.find("pipeline")
    assert crawl_span is not None and pipeline_span is not None
    return {
        "schema": BENCH_SCHEMA,
        "clock": tracer.clock.name,
        "scenario": {"seed": seed, "scale": scale},
        "perf": {
            "workers": miner.config.workers,
            "tile_size": miner.config.tile_size,
            "storage": miner.config.storage,
            "blocking": miner.config.blocking,
            "blocking_bound": miner.config.blocking_bound,
            "crawl_workers": crawl_workers,
            "crawl_shard_size": (
                crawl_shard_size
                if crawl_shard_size is not None
                else DEFAULT_SHARD_SIZE
            ),
        },
        "crawl": {
            "wall_s": round(crawl_span.duration, 6),
            "records": int(crawl_span.metrics.get("records", 0)),
            "valid_records": int(crawl_span.metrics.get("valid_records", 0)),
            "stages": _stage_rows(crawl_span),
        },
        "pipeline": {
            "wall_s": round(pipeline_span.duration, 6),
            "stages": _stage_rows(pipeline_span),
        },
        "peak_matrix_bytes": _peak_matrix_bytes(tracer),
        "summary": result.summary(),
    }


def _growth_exponent(
    rows: List[Dict[str, Any]], key: str
) -> Optional[float]:
    """Fitted power-law exponent of ``key`` against ``n_records``.

    Uses the sweep's endpoints (the widest lever arm, least noise-
    dominated): ``value ~ n**e`` with
    ``e = log(v_last / v_first) / log(n_last / n_first)``.
    """
    if len(rows) < 2:
        return None
    first, last = rows[0], rows[-1]
    n0, n1 = float(first["n_records"]), float(last["n_records"])
    v0, v1 = float(first[key]), float(last[key])
    if n0 <= 0 or n1 <= n0 or v0 <= 0 or v1 <= 0:
        return None
    return round(math.log(v1 / v0) / math.log(n1 / n0), 3)


def run_scale_sweep(
    seed: int,
    scales: Tuple[float, ...] = SWEEP_SCALES,
    *,
    workers: int = 1,
    tile_size: Optional[int] = None,
    storage: str = "sparse",
    blocking: str = "url",
    blocking_bound: Optional[float] = None,
) -> Dict[str, Any]:
    """Pipeline runs at increasing scales; returns the sweep payload.

    Each row records the deterministic size counters (records, candidate
    pairs, stored pairs, peak matrix bytes, clusters) plus the pipeline
    wall; the ``growth`` block fits each metric's power-law exponent
    against the record count.  Staying a small, non-growing fraction of
    the dense quadratic is the blocking stage's scaling contract — the
    compare gate enforces the ceilings and the exponent trajectory.
    """
    rows: List[Dict[str, Any]] = []
    for scale in scales:
        tracer = Tracer(clock=PerfClock())
        config = paper_scenario(seed=seed, scale=scale)
        dataset = run_full_crawl(config=config, tracer=tracer)
        overrides: Dict[str, Any] = dict(
            workers=workers, storage=storage, blocking=blocking
        )
        if blocking_bound is not None:
            overrides["blocking_bound"] = blocking_bound
        if tile_size is not None:
            overrides["tile_size"] = tile_size
        miner = PushAdMiner.for_dataset(dataset, tracer=tracer, **overrides)
        result = miner.run(dataset.valid_records)
        tracer.finish()

        pipeline_span = tracer.root.find("pipeline")
        distances_span = tracer.root.find("pipeline.distances")
        blocking_span = tracer.root.find("pipeline.blocking")
        assert pipeline_span is not None and distances_span is not None
        n = len(dataset.valid_records)
        all_pairs = n * (n - 1) // 2
        rows.append({
            "scale": scale,
            "n_records": n,
            "wall_s": round(pipeline_span.duration, 6),
            "distances_wall_s": round(distances_span.duration, 6),
            "peak_matrix_bytes": _peak_matrix_bytes(tracer),
            "candidate_pairs": (
                int(blocking_span.metrics["candidate_pairs"])
                if blocking_span is not None
                else all_pairs
            ),
            "stored_pairs": (
                int(blocking_span.metrics["stored_pairs"])
                if blocking_span is not None
                else all_pairs
            ),
            "clusters": int(result.summary()["wpn_clusters"]),
        })
    return {
        "schema": SCALE_SCHEMA,
        "scenario": {"seed": seed, "scales": list(scales)},
        "perf": {
            "workers": workers,
            "tile_size": tile_size,
            "storage": storage,
            "blocking": blocking,
            "blocking_bound": blocking_bound,
        },
        "rows": rows,
        "growth": {
            key: _growth_exponent(rows, key)
            for key in ("wall_s", "peak_matrix_bytes", "candidate_pairs",
                        "stored_pairs")
        },
    }


def _dense_reference(row: Dict[str, Any], key: str) -> float:
    """The dense quadratic a sweep counter is measured against."""
    n = int(row["n_records"])
    if key == "peak_matrix_bytes":
        return float(n) * n * 8  # one dense float64 square
    return n * (n - 1) / 2.0  # all unordered pairs


def compare_scale_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_SWEEP_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """``(failures, report_lines)`` for a scale sweep against its baseline.

    Three layers catch the return of dense-trajectory growth.  Hard,
    deterministic: every per-scale counter must match the committed
    baseline exactly, and every counter must stay under its
    :data:`DENSE_FRACTION_CEILINGS` share of the dense quadratic — the
    ceilings bind even if the baseline itself is regenerated after a
    pruning collapse.  Drift: a fitted growth exponent may not exceed the
    baseline's by more than :data:`GROWTH_EXPONENT_DRIFT`
    (:data:`WALL_EXPONENT_DRIFT` for the noisy wall).  Soft: a scale's
    pipeline wall regressing more than ``tolerance`` fails like the
    per-stage gate.
    """
    failures: List[str] = []
    lines: List[str] = []

    base_rows = {row["scale"]: row for row in baseline.get("rows", [])}
    for row in fresh["rows"]:
        scale, wall = row["scale"], float(row["wall_s"])
        base = base_rows.get(scale)
        note = (
            f"scale {scale:<7g} n={row['n_records']:<6d} "
            f"wall {wall:7.3f}s  candidates {row['candidate_pairs']:>9,}  "
            f"peak {row['peak_matrix_bytes']:>12,} B"
        )
        for key, ceiling in DENSE_FRACTION_CEILINGS.items():
            reference = _dense_reference(row, key)
            fraction = float(row[key]) / reference if reference > 0 else 0.0
            if fraction > ceiling:
                failures.append(
                    f"scale {scale}: {key} is {fraction:.1%} of the dense "
                    f"quadratic (ceiling {ceiling:.0%}): candidate pruning "
                    "collapsed back to the O(n^2) trajectory"
                )
        if base is None:
            lines.append(note + "  (no baseline)")
            continue
        for key in _SWEEP_EXACT_KEYS:
            if row.get(key) != base.get(key):
                failures.append(
                    f"scale {scale}: {key} drifted (determinism "
                    f"regression): {row.get(key)} vs baseline {base.get(key)}"
                )
        base_wall = float(base["wall_s"])
        if base_wall > 0 and wall > base_wall * (1.0 + tolerance):
            lines.append(note + "  REGRESSION")
            failures.append(
                f"scale {scale}: wall {wall:.3f}s vs baseline "
                f"{base_wall:.3f}s (>{tolerance:.0%} regression)"
            )
        else:
            lines.append(note)
    missing = sorted(set(base_rows) - {r["scale"] for r in fresh["rows"]})
    for scale in missing:
        failures.append(
            f"scale {scale}: present in baseline but missing from run"
        )

    base_growth = baseline.get("growth", {})
    for key, exponent in fresh.get("growth", {}).items():
        if exponent is None:
            continue
        base_exponent = base_growth.get(key)
        note = f"growth {key:18s} ~ n^{exponent:.3f}"
        if base_exponent is None:
            lines.append(note + "  (no baseline)")
            continue
        drift = (
            WALL_EXPONENT_DRIFT if key == "wall_s" else GROWTH_EXPONENT_DRIFT
        )
        if exponent > float(base_exponent) + drift:
            lines.append(note + "  SUPERLINEAR DRIFT")
            failures.append(
                f"{key} grows as n^{exponent:.3f} vs baseline "
                f"n^{float(base_exponent):.3f} (drift allowance "
                f"{drift:g}): growth is pulling toward the dense trajectory"
            )
        else:
            lines.append(note + f"  (baseline n^{float(base_exponent):.3f})")
    return failures, lines


def run_incremental_benchmark(
    seed: int,
    scale: float,
    *,
    batch_fraction: float = DEFAULT_BATCH_FRACTION,
    workers: int = 1,
    tile_size: Optional[int] = None,
    storage: str = "sparse",
    blocking: str = "url",
    blocking_bound: Optional[float] = None,
) -> Dict[str, Any]:
    """Append-batch wall vs full re-mine wall; returns the report payload.

    One crawl produces the union corpus; the last ``batch_fraction`` of
    the valid records is held out as the append batch.  Three timed legs:
    a full batch mine of the union (the cost the incremental path must
    undercut), a base mine of the remainder, and one
    :meth:`~repro.incremental.IncrementalMiner.absorb` of the held-out
    batch.  ``walls.absorb_over_full`` is the headline ratio the
    :data:`ABSORB_WALL_CEILING` gate enforces; ``assigned``/``opened``
    and the union summary are deterministic and pinned by ``--compare``.
    """
    from repro.incremental import IncrementalMiner

    config = paper_scenario(seed=seed, scale=scale)
    dataset = run_full_crawl(config=config)
    valid = dataset.valid_records
    n_batch = max(1, int(round(len(valid) * batch_fraction)))
    if n_batch >= len(valid):
        raise ValueError(
            f"batch fraction {batch_fraction} leaves no base corpus "
            f"({len(valid)} valid records)"
        )
    base, batch = valid[:-n_batch], valid[-n_batch:]

    overrides: Dict[str, Any] = dict(
        workers=workers, storage=storage, blocking=blocking
    )
    if blocking_bound is not None:
        overrides["blocking_bound"] = blocking_bound
    if tile_size is not None:
        overrides["tile_size"] = tile_size

    full_tracer = Tracer(clock=PerfClock())
    PushAdMiner.for_dataset(dataset, tracer=full_tracer, **overrides).run(
        valid
    )
    full_tracer.finish()
    full_span = full_tracer.root.find("pipeline")
    assert full_span is not None

    base_tracer = Tracer(clock=PerfClock())
    base_miner = PushAdMiner.for_dataset(
        dataset, tracer=base_tracer, **overrides
    )
    base_result = base_miner.run(base)
    base_tracer.finish()
    base_span = base_tracer.root.find("pipeline")
    assert base_span is not None

    absorb_tracer = Tracer(clock=PerfClock())
    incremental = IncrementalMiner.from_result(
        base_result, tracer=absorb_tracer
    )
    report = incremental.absorb(batch)
    absorb_tracer.finish()
    absorb_span = absorb_tracer.root.find("incremental.absorb")
    assert absorb_span is not None

    full_wall = full_span.duration
    absorb_wall = absorb_span.duration
    return {
        "schema": INCREMENTAL_SCHEMA,
        "scenario": {
            "seed": seed, "scale": scale, "batch_fraction": batch_fraction,
        },
        "perf": {
            "workers": base_miner.config.workers,
            "tile_size": base_miner.config.tile_size,
            "storage": base_miner.config.storage,
            "blocking": base_miner.config.blocking,
            "blocking_bound": base_miner.config.blocking_bound,
        },
        "walls": {
            "full_remine_s": round(full_wall, 6),
            "base_mine_s": round(base_span.duration, 6),
            "absorb_s": round(absorb_wall, 6),
            "absorb_over_full": (
                round(absorb_wall / full_wall, 4) if full_wall > 0 else 0.0
            ),
        },
        "n_base": len(base),
        "n_batch": report.batch_size,
        "n_union": report.corpus_size,
        "assigned": report.assigned,
        "opened": report.opened,
        "candidate_pairs": report.n_candidates,
        "scored_pairs": report.n_scored,
        "summary": incremental.result().summary(),
    }


def compare_incremental_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_INCREMENTAL_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """``(failures, report_lines)`` for an incremental run vs its baseline.

    Hard, baseline-independent: the absorb/full wall ratio must stay
    under :data:`ABSORB_WALL_CEILING` — the incremental path's whole
    point is not re-paying the pipeline.  Hard, deterministic: the
    corpus split, assigned/opened counts, and the union summary must
    match the committed baseline exactly (same seed/scale must reproduce
    the same clustering decisions).  Soft: the absorb wall regressing
    more than ``tolerance`` fails like the per-stage gate.
    """
    failures: List[str] = []
    lines: List[str] = []

    walls = fresh["walls"]
    ratio = float(walls["absorb_over_full"])
    full_wall = float(walls["full_remine_s"])
    gated = full_wall >= MIN_GATED_FULL_WALL
    lines.append(
        f"absorb {walls['absorb_s']:.3f}s / full re-mine "
        f"{full_wall:.3f}s = {ratio:.1%} "
        + (f"(ceiling {ABSORB_WALL_CEILING:.0%})" if gated
           else "(below min gated full wall, ratio not gated)")
    )
    if gated and ratio > ABSORB_WALL_CEILING:
        failures.append(
            f"absorb wall is {ratio:.1%} of a full re-mine (ceiling "
            f"{ABSORB_WALL_CEILING:.0%}): the delta path is re-paying "
            "the pipeline"
        )

    for key in _INCREMENTAL_EXACT_KEYS:
        if fresh.get(key) != baseline.get(key):
            failures.append(
                f"{key} drifted (determinism regression): "
                f"{fresh.get(key)} vs baseline {baseline.get(key)}"
            )
    lines.append(
        f"batch {fresh['n_batch']} records: {fresh['assigned']} assigned, "
        f"{fresh['opened']} opened (union {fresh['n_union']})"
    )
    if fresh["summary"] != baseline.get("summary"):
        drift = sorted(
            k
            for k in set(fresh["summary"]) | set(baseline.get("summary", {}))
            if fresh["summary"].get(k) != baseline.get("summary", {}).get(k)
        )
        failures.append(
            "union summary drifted from baseline (determinism regression): "
            + ", ".join(drift)
        )

    base_walls = baseline.get("walls", {})
    base_absorb = float(base_walls.get("absorb_s", 0.0))
    if base_absorb > 0:
        absorb = float(walls["absorb_s"])
        note = (
            f"absorb wall {absorb:.3f}s  baseline {base_absorb:.3f}s  "
            f"x{absorb / base_absorb:.2f}"
        )
        if absorb > base_absorb * (1.0 + tolerance):
            lines.append(note + "  REGRESSION")
            failures.append(
                f"absorb wall {absorb:.3f}s vs baseline {base_absorb:.3f}s "
                f"(>{tolerance:.0%} regression)"
            )
        else:
            lines.append(note)
    return failures, lines


def run_serve_benchmark(
    seed: int,
    scale: float,
    *,
    n_requests: int = DEFAULT_SERVE_REQUESTS,
    worker_counts: Tuple[int, ...] = SERVE_WORKER_COUNTS,
) -> Dict[str, Any]:
    """Snapshot build + load-generation sweep; returns the report payload.

    Each thread count gets a *fresh* :class:`ServeCore` (cold cache), so
    hit rates compare like for like.  The response checksum must come out
    identical at every count — a mismatch is a determinism regression and
    is reported as ``response_checksums`` with more than one distinct
    value (the compare gate and check.sh fail on it).
    """
    config = paper_scenario(seed=seed, scale=scale)
    dataset = run_full_crawl(config=config)
    result = PushAdMiner.for_dataset(dataset).run(dataset.valid_records)
    snapshot = MinedSnapshot.from_result(result)
    requests = generate_requests(snapshot, n_requests, seed)

    rows: List[Dict[str, Any]] = []
    for workers in worker_counts:
        core = ServeCore(snapshot)
        outcome = run_load(core, requests, workers=workers, clock=PerfClock())
        rows.append(outcome.row())

    checksums = sorted({row["response_checksum"] for row in rows})
    return {
        "schema": SERVE_SCHEMA,
        "scenario": {
            "seed": seed,
            "scale": scale,
            "n_requests": n_requests,
        },
        "snapshot": {
            "content_hash": snapshot.hash,
            "records": snapshot.n_records,
            "clusters": len(snapshot.campaigns),
            "known_urls": len(snapshot.urls),
        },
        "workers": rows,
        "response_checksums": checksums,
    }


def compare_serve_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_SERVE_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """``(failures, report_lines)`` for a serve run against its baseline.

    Hard failures (no tolerance): the snapshot content hash or the response
    checksum differ — same seed/scale must reproduce the same bytes.  Soft
    failures: a thread count's QPS fell more than ``tolerance`` below the
    baseline's.  Latency percentiles are reported but not gated (nearest-
    rank percentiles of a small run are noise-dominated).
    """
    failures: List[str] = []
    lines: List[str] = []

    if fresh["snapshot"]["content_hash"] != baseline["snapshot"]["content_hash"]:
        failures.append(
            "snapshot content hash drifted (determinism regression): "
            f"{fresh['snapshot']['content_hash']} vs baseline "
            f"{baseline['snapshot']['content_hash']}"
        )
    if len(fresh.get("response_checksums", [])) != 1:
        failures.append(
            "response checksum differs across thread counts: "
            + ", ".join(fresh.get("response_checksums", []))
        )
    elif fresh["response_checksums"] != baseline.get("response_checksums"):
        failures.append(
            "response checksum drifted from baseline (determinism "
            f"regression): {fresh['response_checksums'][0]} vs "
            f"{baseline.get('response_checksums', ['<missing>'])[0]}"
        )

    base_rows = {row["workers"]: row for row in baseline.get("workers", [])}
    for row in fresh["workers"]:
        workers, qps = row["workers"], float(row["qps"])
        base = base_rows.get(workers)
        if base is None:
            lines.append(f"workers={workers}: qps {qps:9.1f}  (no baseline)")
            continue
        base_qps = float(base["qps"])
        note = (
            f"workers={workers}: qps {qps:9.1f}  baseline {base_qps:9.1f}  "
            f"p50 {row['p50_ms']:.3f}ms  p99 {row['p99_ms']:.3f}ms  "
            f"hit rate {row['cache_hit_rate']:.2f}"
        )
        if base_qps > 0 and qps < base_qps * (1.0 - tolerance):
            lines.append(note + "  REGRESSION")
            failures.append(
                f"workers={workers}: qps {qps:.1f} vs baseline "
                f"{base_qps:.1f} (>{tolerance:.0%} drop)"
            )
        else:
            lines.append(note)
    missing = sorted(set(base_rows) - {r["workers"] for r in fresh["workers"]})
    for workers in missing:
        failures.append(
            f"workers={workers}: present in baseline but missing from run"
        )
    return failures, lines


#: Report sections whose per-stage wall times the compare gate covers.
_GATED_SECTIONS: Tuple[str, ...] = ("crawl", "pipeline")


def _baseline_stage_walls(
    baseline: Dict[str, Any], section: str = "pipeline"
) -> Dict[str, float]:
    return {
        row["stage"]: float(row["wall_s"])
        for row in baseline.get(section, {}).get("stages", [])
    }


def annotate_speedups(
    payload: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> None:
    """Add ``speedup_vs_baseline`` to every crawl/pipeline stage row in place."""
    if baseline is None:
        return
    for section in _GATED_SECTIONS:
        base_walls = _baseline_stage_walls(baseline, section)
        for row in payload.get(section, {}).get("stages", []):
            base = base_walls.get(row["stage"])
            if base and row["wall_s"] > 0:
                row["speedup_vs_baseline"] = round(base / row["wall_s"], 2)


def _compare_section(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    section: str,
    tolerance: float,
    min_wall: float,
    failures: List[str],
    lines: List[str],
) -> None:
    base_walls = _baseline_stage_walls(baseline, section)
    for row in fresh[section]["stages"]:
        stage, wall = row["stage"], float(row["wall_s"])
        base = base_walls.get(stage)
        if base is None:
            lines.append(f"{stage:24s} {wall:8.3f}s  (no baseline)")
            continue
        ratio = wall / base if base > 0 else float("inf")
        note = f"{stage:24s} {wall:8.3f}s  baseline {base:8.3f}s  x{ratio:.2f}"
        if base < min_wall:
            lines.append(note + "  (below min-wall, not gated)")
        elif wall > base * (1.0 + tolerance):
            lines.append(note + "  REGRESSION")
            failures.append(
                f"{stage}: {wall:.3f}s vs baseline {base:.3f}s "
                f"(>{tolerance:.0%} regression)"
            )
        else:
            lines.append(note)
    missing = sorted(
        set(base_walls) - {r["stage"] for r in fresh[section]["stages"]}
    )
    for stage in missing:
        failures.append(f"{stage}: present in baseline but missing from run")


def compare_reports(
    fresh: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    min_wall: float = DEFAULT_MIN_WALL,
) -> Tuple[List[str], List[str]]:
    """``(failures, report_lines)`` for a fresh run against the baseline.

    A crawl or pipeline stage fails when its wall time exceeds the
    baseline's by more than ``tolerance`` (fractional); baseline stages
    under ``min_wall`` seconds are reported but never failed, since timing
    noise dominates them. The deterministic summary must match exactly.
    Baselines written before the crawl section was gated (no crawl stage
    rows) simply contribute no crawl comparisons.
    """
    failures: List[str] = []
    lines: List[str] = []
    for section in _GATED_SECTIONS:
        if section in fresh:
            _compare_section(
                fresh, baseline, section, tolerance, min_wall, failures, lines
            )
    if fresh["summary"] != baseline["summary"]:
        drift = sorted(
            k
            for k in set(fresh["summary"]) | set(baseline["summary"])
            if fresh["summary"].get(k) != baseline["summary"].get(k)
        )
        failures.append(
            "summary drifted from baseline (determinism regression): "
            + ", ".join(drift)
        )
    return failures, lines


def _load_baseline(
    path: str, required_key: str = "pipeline"
) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        # e.g. a fresh mktemp output target: no baseline to annotate from.
        return None
    if not isinstance(payload, dict) or required_key not in payload:
        return None
    return payload


def _run_serve_compare(args: argparse.Namespace, tolerance: float) -> int:
    baseline = _load_baseline(args.compare, required_key="workers")
    if baseline is None:
        print(f"no usable serve baseline at {args.compare}; nothing to compare")
        return 1
    scenario = baseline.get("scenario", {})
    seed = int(scenario.get("seed", args.seed))
    scale = float(scenario.get("scale", DEFAULT_SCALE))
    n_requests = int(scenario.get("n_requests", DEFAULT_SERVE_REQUESTS))
    payload = run_serve_benchmark(
        seed=seed, scale=scale, n_requests=n_requests
    )
    failures, lines = compare_serve_reports(
        payload, baseline, tolerance=tolerance
    )
    print(f"serve bench compare vs {args.compare} "
          f"(seed {seed}, scale {scale}, {n_requests} requests):")
    for line in lines:
        print("  " + line)
    if failures:
        print(f"\nserve bench compare: FAILED ({len(failures)} issue(s))")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nserve bench compare: ok")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    baseline = _load_baseline(args.compare)
    if baseline is None:
        print(f"no usable baseline at {args.compare}; nothing to compare")
        return 1
    scenario = baseline.get("scenario", {})
    seed = int(scenario.get("seed", args.seed))
    scale = float(scenario.get("scale", DEFAULT_SCALE))
    # Re-run under the baseline's recorded perf configuration (including
    # crawl workers/shards) so stage walls compare like for like.
    perf = baseline.get("perf", {})
    payload = run_benchmark(
        seed=seed,
        scale=scale,
        workers=int(perf.get("workers", 1)),
        tile_size=perf.get("tile_size"),
        storage=str(perf.get("storage", "dense")),
        blocking=str(perf.get("blocking", "none")),
        blocking_bound=perf.get("blocking_bound"),
        crawl_workers=int(perf.get("crawl_workers", 1)),
        crawl_shard_size=perf.get("crawl_shard_size"),
    )
    failures, lines = compare_reports(
        payload, baseline, tolerance=args.tolerance, min_wall=args.min_wall
    )
    print(f"bench compare vs {args.compare} (seed {seed}, scale {scale}):")
    for line in lines:
        print("  " + line)
    if failures:
        print(f"\nbench compare: FAILED ({len(failures)} issue(s))")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nbench compare: ok")
    return 0


def _run_scale_compare(args: argparse.Namespace, tolerance: float) -> int:
    baseline = _load_baseline(args.compare, required_key="rows")
    if baseline is None:
        print(f"no usable scale baseline at {args.compare}; nothing to compare")
        return 1
    scenario = baseline.get("scenario", {})
    seed = int(scenario.get("seed", args.seed))
    scales = tuple(float(s) for s in scenario.get("scales", SWEEP_SCALES))
    perf = baseline.get("perf", {})
    payload = run_scale_sweep(
        seed,
        scales,
        workers=int(perf.get("workers", 1)),
        tile_size=perf.get("tile_size"),
        storage=str(perf.get("storage", "sparse")),
        blocking=str(perf.get("blocking", "url")),
        blocking_bound=perf.get("blocking_bound"),
    )
    failures, lines = compare_scale_reports(
        payload, baseline, tolerance=tolerance
    )
    print(f"scale sweep compare vs {args.compare} "
          f"(seed {seed}, scales {', '.join(str(s) for s in scales)}):")
    for line in lines:
        print("  " + line)
    if failures:
        print(f"\nscale sweep compare: FAILED ({len(failures)} issue(s))")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nscale sweep compare: ok")
    return 0


def _run_scale_sweep(args: argparse.Namespace) -> int:
    scales = SMOKE_SWEEP_SCALES if args.smoke else SWEEP_SCALES
    output = args.output if args.output is not None else DEFAULT_SCALE_BASELINE
    payload = run_scale_sweep(
        args.seed,
        scales,
        workers=args.workers,
        tile_size=args.tile_size,
        storage=args.storage if args.storage != "dense" else "sparse",
        blocking=args.blocking if args.blocking != "none" else "url",
        blocking_bound=args.blocking_bound,
    )
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    growth = payload["growth"]
    last = payload["rows"][-1]
    print(f"wrote {output} ({len(payload['rows'])} scales up to "
          f"n={last['n_records']}; wall ~ n^{growth['wall_s']}, "
          f"peak bytes ~ n^{growth['peak_matrix_bytes']}, "
          f"candidates ~ n^{growth['candidate_pairs']})")
    return 0


def _incremental_kwargs(perf: Dict[str, Any]) -> Dict[str, Any]:
    return dict(
        workers=int(perf.get("workers", 1)),
        tile_size=perf.get("tile_size"),
        storage=str(perf.get("storage", "sparse")),
        blocking=str(perf.get("blocking", "url")),
        blocking_bound=perf.get("blocking_bound"),
    )


def _run_incremental_compare(args: argparse.Namespace, tolerance: float) -> int:
    baseline = _load_baseline(args.compare, required_key="walls")
    if baseline is None:
        print(f"no usable incremental baseline at {args.compare}; "
              "nothing to compare")
        return 1
    scenario = baseline.get("scenario", {})
    seed = int(scenario.get("seed", args.seed))
    scale = float(scenario.get("scale", DEFAULT_INCREMENTAL_SCALE))
    batch_fraction = float(
        scenario.get("batch_fraction", DEFAULT_BATCH_FRACTION)
    )
    payload = run_incremental_benchmark(
        seed=seed,
        scale=scale,
        batch_fraction=batch_fraction,
        **_incremental_kwargs(baseline.get("perf", {})),
    )
    failures, lines = compare_incremental_reports(
        payload, baseline, tolerance=tolerance
    )
    print(f"incremental bench compare vs {args.compare} "
          f"(seed {seed}, scale {scale}, batch {batch_fraction:.0%}):")
    for line in lines:
        print("  " + line)
    if failures:
        print(f"\nincremental bench compare: FAILED "
              f"({len(failures)} issue(s))")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nincremental bench compare: ok")
    return 0


def _run_incremental(args: argparse.Namespace) -> int:
    scale = args.scale
    if scale is None:
        scale = (
            SMOKE_INCREMENTAL_SCALE if args.smoke
            else DEFAULT_INCREMENTAL_SCALE
        )
    output = (
        args.output if args.output is not None
        else DEFAULT_INCREMENTAL_BASELINE
    )
    payload = run_incremental_benchmark(
        seed=args.seed,
        scale=scale,
        batch_fraction=args.batch_fraction,
        workers=args.workers,
        tile_size=args.tile_size,
        storage=args.storage if args.storage != "dense" else "sparse",
        blocking=args.blocking if args.blocking != "none" else "url",
        blocking_bound=args.blocking_bound,
    )
    walls = payload["walls"]
    ratio = float(walls["absorb_over_full"])
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} (absorb {walls['absorb_s']:.3f}s vs full "
          f"re-mine {walls['full_remine_s']:.3f}s = {ratio:.1%}; "
          f"batch {payload['n_batch']}: {payload['assigned']} assigned, "
          f"{payload['opened']} opened)")
    if (
        float(walls["full_remine_s"]) >= MIN_GATED_FULL_WALL
        and ratio > ABSORB_WALL_CEILING
    ):
        print(f"incremental bench: FAILED — absorb wall is {ratio:.1%} of "
              f"a full re-mine (ceiling {ABSORB_WALL_CEILING:.0%})")
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    scale = args.scale
    if scale is None:
        scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    n_requests = args.requests
    if n_requests is None:
        n_requests = (
            SMOKE_SERVE_REQUESTS if args.smoke else DEFAULT_SERVE_REQUESTS
        )
    output = args.output if args.output is not None else DEFAULT_SERVE_BASELINE

    payload = run_serve_benchmark(
        seed=args.seed, scale=scale, n_requests=n_requests
    )
    if len(payload["response_checksums"]) != 1:
        print("serve bench: FAILED — response checksum differs across "
              "thread counts: " + ", ".join(payload["response_checksums"]))
        return 1
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    best = max(payload["workers"], key=lambda row: row["qps"])
    print(f"wrote {output} (snapshot {payload['snapshot']['content_hash']}, "
          f"{payload['snapshot']['records']} records, {n_requests} requests; "
          f"best {best['qps']:.0f} qps at {best['workers']} worker(s), "
          f"p50 {best['p50_ms']:.3f}ms, p99 {best['p99_ms']:.3f}ms)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench", description="pipeline + serving benchmark harness"
    )
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"URL population fraction (default {DEFAULT_SCALE})")
    parser.add_argument("--output", default=None,
                        help="report path (default BENCH_pipeline.json, or "
                             "BENCH_serve.json with --serve)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny run (scale {SMOKE_SCALE}) to exercise "
                             "the harness in CI")
    parser.add_argument("--serve", action="store_true",
                        help="benchmark the serving layer (snapshot build + "
                             "load generation) instead of the pipeline")
    parser.add_argument("--incremental", action="store_true",
                        help="benchmark incremental absorption: append-batch "
                             "wall vs full re-mine wall (writes "
                             f"{DEFAULT_INCREMENTAL_BASELINE}; fails when "
                             "the ratio crosses "
                             f"{ABSORB_WALL_CEILING * 100:.0f}%%)")
    parser.add_argument("--batch-fraction", type=float,
                        default=DEFAULT_BATCH_FRACTION,
                        help="held-out append-batch fraction with "
                             f"--incremental (default {DEFAULT_BATCH_FRACTION})")
    parser.add_argument("--requests", type=int, default=None,
                        help="load-generator request count with --serve "
                             f"(default {DEFAULT_SERVE_REQUESTS}, "
                             f"{SMOKE_SERVE_REQUESTS} with --smoke)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the distance kernels")
    parser.add_argument("--crawl-workers", type=int, default=1,
                        help="worker processes for crawl session shards")
    parser.add_argument("--crawl-shard-size", type=int, default=None,
                        help="sessions per crawl shard (default "
                             f"{DEFAULT_SHARD_SIZE})")
    parser.add_argument("--tile-size", type=int, default=None,
                        help="kernel row-tile size (default MinerConfig's)")
    parser.add_argument("--storage", choices=("dense", "sparse"),
                        default="dense", help="distance matrix storage "
                             "(sparse requires --blocking url)")
    parser.add_argument("--blocking", choices=("none", "url"),
                        default="none",
                        help="candidate blocking stage (url requires "
                             "--storage sparse)")
    parser.add_argument("--blocking-bound", type=float, default=None,
                        help="blocking recall bound in (0, 0.5] "
                             "(default MinerConfig's)")
    parser.add_argument("--scale-sweep", action="store_true",
                        help="run the blocked pipeline at scales "
                             f"{'/'.join(str(s) for s in SWEEP_SCALES)} and "
                             "write BENCH_scale.json with fitted growth "
                             "exponents (with --compare: fail on counter "
                             "drift or superlinear growth)")
    parser.add_argument("--compare", nargs="?", const=DEFAULT_BASELINE,
                        metavar="BASELINE",
                        help="re-run the committed baseline's scenario and "
                             "fail on stage wall-time regressions or summary "
                             "drift (no report is written)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="fractional regression allowed: per-stage wall "
                             f"time (default {DEFAULT_TOLERANCE}) or, with "
                             f"--serve, QPS drop (default "
                             f"{DEFAULT_SERVE_TOLERANCE})")
    parser.add_argument("--min-wall", type=float, default=DEFAULT_MIN_WALL,
                        help="skip gating stages whose baseline wall time is "
                             f"below this many seconds (default "
                             f"{DEFAULT_MIN_WALL})")
    args = parser.parse_args(argv)

    if args.scale_sweep:
        if args.compare is not None:
            tolerance = (
                args.tolerance
                if args.tolerance is not None
                else DEFAULT_SWEEP_TOLERANCE
            )
            if args.compare == DEFAULT_BASELINE:
                args.compare = DEFAULT_SCALE_BASELINE
            return _run_scale_compare(args, tolerance)
        return _run_scale_sweep(args)
    if args.incremental:
        if args.compare is not None:
            tolerance = (
                args.tolerance
                if args.tolerance is not None
                else DEFAULT_INCREMENTAL_TOLERANCE
            )
            if args.compare == DEFAULT_BASELINE:
                args.compare = DEFAULT_INCREMENTAL_BASELINE
            return _run_incremental_compare(args, tolerance)
        return _run_incremental(args)
    if args.serve:
        if args.compare is not None:
            tolerance = (
                args.tolerance
                if args.tolerance is not None
                else DEFAULT_SERVE_TOLERANCE
            )
            return _run_serve_compare(args, tolerance)
        return _run_serve(args)
    if args.tolerance is None:
        args.tolerance = DEFAULT_TOLERANCE

    if args.compare is not None:
        return _run_compare(args)

    scale = args.scale
    if scale is None:
        scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE

    if args.output is None:
        args.output = DEFAULT_BASELINE
    baseline = _load_baseline(args.output)
    payload = run_benchmark(
        seed=args.seed,
        scale=scale,
        workers=args.workers,
        tile_size=args.tile_size,
        storage=args.storage,
        blocking=args.blocking,
        blocking_bound=args.blocking_bound,
        crawl_workers=args.crawl_workers,
        crawl_shard_size=args.crawl_shard_size,
    )
    if (
        baseline is not None
        and baseline.get("scenario") == payload["scenario"]
        and baseline.get("perf", payload["perf"]) == payload["perf"]
    ):
        annotate_speedups(payload, baseline)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    total = payload["crawl"]["wall_s"] + payload["pipeline"]["wall_s"]
    print(f"wrote {args.output} "
          f"(crawl {payload['crawl']['wall_s']:.2f}s + "
          f"pipeline {payload['pipeline']['wall_s']:.2f}s = {total:.2f}s, "
          f"peak matrix {payload['peak_matrix_bytes']:,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
