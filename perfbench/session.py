"""One benchmark session: a fresh process running one workload's user path.

``run.py`` starts several of these per run, one after another, and prints
the aggregate.  A session prints one JSON object as its last stdout line.

The program is driven only through its public entry points: the scenario
generator, the crawl, ``PushAdMiner.stage_*`` / ``run_verdict_stages``,
``MinedSnapshot``, ``ServeCore`` behind ``create_app`` (called in-process,
no sockets), ``IncrementalMiner`` and ``ServeCore.refresh``.

``--calibrate`` skips serving and only computes the outputs that
``references.json`` pins: base summary and snapshot hash, and the final
snapshot hash after absorbing the held-out batches.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.pipeline import PipelineResult, PushAdMiner
from repro.crawler.harvest import run_full_crawl
from repro.incremental import IncrementalMiner
from repro.serve import MinedSnapshot, ServeCore
from repro.serve.wsgi import create_app
from repro.webenv.generator import generate_ecosystem
from repro.webenv.scenario import paper_scenario

from hostspeed import probe
from loadgen import Request, RequestStream, call, probe_set
from spans import Recorder
from workloads import (
    BLOCKED, CLOSED_PER_SECOND, CLOSED_WARMUP, HOLDOUT_FRACTION,
    LATENCY_LIMIT_MS, OPEN_SHARE, SCALE, WORKLOADS, WRITER_BATCHES,
    percentile,
)

#: Kept error texts per session (the counts are exact either way).
MAX_ERRORS = 5
#: How long before a request is due the reader stops sleeping and polls.
SPIN_S = 0.0005


def _now() -> float:
    return time.perf_counter()


def wait_until(due: float) -> None:
    """Sleep until ``due``.  ``time.sleep`` wakes 0.1-0.2 ms late on the
    benchmark's host, as much as a cheap request takes, so it sleeps to
    just short of ``due`` and polls the rest, releasing the GIL each time."""
    wait = due - _now() - SPIN_S
    if wait > 0:
        time.sleep(wait)
    while _now() < due:
        time.sleep(0)


@dataclass
class Ops:
    """Attempted / failed operation counts, shared by reader and writer."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def count(self, ok: bool, error: str = "") -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if error and len(self.errors) < MAX_ERRORS:
                    self.errors.append(error)


@dataclass
class Base:
    """The base mine and what serving needs from it."""

    held: List[Any]
    #: Dropped once adopted: it holds the (dense) distance matrices.
    result: Optional[PipelineResult]
    snapshot: MinedSnapshot
    text: str
    batch_s: float
    #: Counts read off the returned objects, for the per-layer metrics.
    counts: Dict[str, float]


class Session:
    def __init__(
        self, scenario_seed: int, miner: Dict[str, str], trace: bool,
        request_seed: int = 0,
    ):
        self.scenario_seed = scenario_seed
        self.request_seed = request_seed
        self.miner = miner
        self.rec = Recorder(trace)
        self.ops = Ops()
        self.reports: List[Any] = []
        self.visible_s: List[float] = []
        self.snapshot_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.rejected_4xx = 0
        self.errors_5xx = 0
        #: Host-speed probe points (see hostspeed.py), each a list of samples.
        self.probes: List[List[float]] = []

    # ------------------------------------------------------------------
    def step(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call into the program under a span; exceptions count as failed
        operations and propagate to the caller's recovery point."""
        with self.rec.span(name):
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:
                self.ops.count(False, f"{name}: {type(exc).__name__}: {exc}")
                raise
        self.ops.count(True)
        return value

    def mine_base(self) -> Base:
        """generate -> crawl -> mine the first 95% -> snapshot (``batch_s``)."""
        step = self.step
        scenario = paper_scenario(seed=self.scenario_seed, scale=SCALE)
        start = _now()
        with self.rec.span("batch"):
            ecosystem = step("webenv.generate", generate_ecosystem, scenario)
            dataset = step(
                "crawler.crawl", run_full_crawl, ecosystem=ecosystem,
                crawl_workers=1,
            )
            valid = dataset.valid_records
            n_held = max(WRITER_BATCHES, round(len(valid) * HOLDOUT_FRACTION))
            records, held = valid[:-n_held], valid[-n_held:]
            miner = PushAdMiner.for_dataset(dataset, workers=1, **self.miner)
            features = step("core.features", miner.stage_features, records)
            model = step("core.text_model", miner.stage_text_model, features)
            distances = step(
                "core.distances", miner.stage_distances, records, features, model
            )
            linkage = step("core.linkage", miner.stage_linkage, distances)
            cut = step("core.cut", miner.stage_cut, linkage, distances)
            verdicts = step(
                "core.verdicts", miner.run_verdict_stages, records, cut.labels
            )
            result = PipelineResult(
                records=list(records),
                distances=distances,
                linkage=linkage,
                cut_threshold=cut.threshold,
                silhouette=cut.score,
                labels=cut.labels,
                clusters=verdicts.clusters,
                campaign_cluster_ids=verdicts.campaign_cluster_ids,
                labeling=verdicts.labeling,
                metas=verdicts.metas,
                suspicion=verdicts.suspicion,
                oracle=verdicts.oracle,
                config=miner.config,
                text_model=model,
            )
            snapshot = step("serve.snapshot_build", MinedSnapshot.from_result, result)
            text = step("serve.snapshot_dump", snapshot.to_json)
        batch_s = _now() - start
        n = len(records)
        all_pairs = n * (n - 1) // 2
        blocking = distances.blocking_stats
        # Dense storage screens and stores every pair.
        candidates = blocking.n_candidate_pairs if blocking else all_pairs
        stored = blocking.n_stored_pairs if blocking else all_pairs
        crawl = dataset.summary()
        counts = {
            "crawler.sessions": sum(
                s.visited_urls for s in (dataset.desktop_stats, dataset.mobile_stats)
            ),
            "crawler.valid_ratio": crawl["valid_wpns"] / crawl["collected_wpns"],
            "core.cut_candidates": cut.n_candidates,
            "core.clusters": len(verdicts.clusters),
            "perf.matrix_bytes": distances.component_bytes,
            "perf.candidate_pairs": candidates,
            "perf.stored_pairs": stored,
            "perf.candidate_frac": candidates / all_pairs,
            "perf.stored_over_candidates": stored / candidates,
        }
        return Base(
            held=held, result=result, snapshot=snapshot, text=text,
            batch_s=batch_s, counts=counts,
        )

    def batches(self, held: List[Any]) -> List[List[Any]]:
        k, n = WRITER_BATCHES, len(held)
        return [held[i * n // k:(i + 1) * n // k] for i in range(k)]

    def publish(self, inc: IncrementalMiner, batch: List[Any]) -> MinedSnapshot:
        """absorb -> result -> snapshot -> dump: one batch made servable."""
        self.reports.append(self.step("incremental.absorb", inc.absorb, batch))
        result = self.step("incremental.result", inc.result)
        snapshot = self.step("serve.snapshot_build", MinedSnapshot.from_result, result)
        self.snapshot_bytes = len(self.step("serve.snapshot_dump", snapshot.to_json))
        return snapshot

    # ------------------------------------------------------------------
    def send(self, app: Any, request: Request, trace_id: int) -> bool:
        """One request into the WSGI app; True when the answer is correct.
        Called from the reader thread only."""
        route = request.kind.split("_")[0]
        with self.rec.span("serve." + route, trace_id=trace_id):
            try:
                status, _ = call(app, request)
            except Exception as exc:
                # An uncaught exception is what a server turns into a 500.
                self.errors_5xx += 1
                self.ops.count(False, f"{request.path}: {type(exc).__name__}: {exc}")
                return False
        if status >= 500:
            self.errors_5xx += 1
        elif status >= 400:
            self.rejected_4xx += 1
        ok = 400 <= status < 500 if request.expect_4xx else status == 200
        self.ops.count(ok, "" if ok else f"{request.path}: status {status}")
        return ok

    def _take_cache_counts(self, core: ServeCore) -> None:
        info = core.cache_info()
        self.cache_hits += int(info["hits"])
        self.cache_misses += int(info["misses"])

    def writer(
        self, inc: IncrementalMiner, core: ServeCore, batches: List[List[Any]],
        t0: float, open_s: float,
    ) -> None:
        """Hand each held-out batch over on schedule and refresh after it.

        ``visible_s`` runs from the hand-over time, so a writer that falls
        behind shows as longer visibility, not as a shifted schedule.
        """
        for k, batch in enumerate(batches):
            due = t0 + (k + 0.5) * open_s / len(batches)
            wait = due - _now()
            if wait > 0:
                time.sleep(wait)
            try:
                with self.rec.span("visible", trace_id=-1 - k, start=due):
                    snapshot = self.publish(inc, batch)
                    self._take_cache_counts(core)  # refresh resets them
                    self.step("serve.refresh", core.refresh, snapshot)
            except Exception:
                continue  # counted by step(); the next batch still runs
            self.visible_s.append(_now() - due)

    def serve(
        self, snapshot: MinedSnapshot, core: ServeCore, inc: IncrementalMiner,
        held: List[Any], leg_seconds: float, rate: float,
    ) -> Dict[str, Any]:
        """Open loop with a concurrent writer, then a closed loop."""
        app = create_app(core)
        stream = RequestStream(snapshot, self.request_seed)
        open_s = leg_seconds * OPEN_SHARE
        t0 = _now()
        writer = threading.Thread(
            target=self.writer, name="writer",
            args=(inc, core, self.batches(held), t0, open_s),
        )
        writer.start()
        latencies: List[Optional[float]] = []  # None: failed
        busy = 0.0
        backlog_max = 0
        # A fixed number of requests, however late they run, so that a run
        # attempts the same operations on every host.
        n_open = round(open_s * rate)
        for i in range(n_open):
            due = t0 + i / rate
            wait_until(due)
            request = next(stream)
            start = _now()
            backlog_max = max(backlog_max, int((start - t0) * rate) - i)
            with self.rec.span("loadgen.request", trace_id=i, start=due):
                ok = self.send(app, request, i)
            end = _now()
            latencies.append((end - due) * 1000.0 if ok else None)
            busy += end - start
        open_elapsed = _now() - t0
        writer.join()
        self.probes.append(probe())

        i = n_open
        for _ in range(CLOSED_WARMUP):
            self.send(app, next(stream), i)
            i += 1
        completed = 0
        c0 = _now()
        for _ in range(round((leg_seconds - open_s) * CLOSED_PER_SECOND)):
            completed += self.send(app, next(stream), i)
            i += 1
        capacity = completed / (_now() - c0)
        self.probes.append(probe())
        self._take_cache_counts(core)
        return {
            "latencies_ms": latencies,
            "capacity_rps": capacity,
            "busy_frac": busy / open_elapsed,
            "backlog_max": backlog_max,
        }

    # ------------------------------------------------------------------
    def check_answers(self, core: ServeCore) -> List[str]:
        """Replay the probe set serially against the live core and against
        a core built fresh from its snapshot after a verified JSON round
        trip; every answer must match byte for byte."""
        live = core.snapshot
        problems: List[str] = []
        try:
            fresh_snapshot = MinedSnapshot.from_json(live.to_json(), verify=True)
        except Exception as exc:
            return [f"snapshot JSON round trip: {type(exc).__name__}: {exc}"]
        if fresh_snapshot.hash != live.hash:
            problems.append("snapshot hash changed in a JSON round trip")
        live_app, fresh_app = create_app(core), create_app(ServeCore(fresh_snapshot))
        for request in probe_set(fresh_snapshot, self.request_seed):
            answers = []
            for app in (live_app, fresh_app):
                try:
                    answers.append(call(app, request))
                except Exception as exc:
                    answers.append((type(exc).__name__, str(exc).encode()))
            if answers[0] != answers[1]:
                problems.append(
                    f"{request.method} {request.path}?{request.query}: live "
                    f"{answers[0][0]} != fresh {answers[1][0]}"
                )
        return problems

    def layers(self, base: Base, serve: Dict[str, Any]) -> Dict[str, float]:
        """Per-layer metrics from this session's spans and from the objects
        the program returned."""
        rec = self.rec
        by_id = {s.sid: s for s in rec.spans}

        def under(name: str, parent: str) -> List[float]:
            return [
                s.duration for s in rec.spans
                if s.name == name and s.parent is not None
                and by_id[s.parent].name == parent
            ]

        def one(name: str) -> float:
            return under(name, "batch")[0]

        def median_ms(name: str, q: float = 0.5) -> float:
            return percentile(rec.durations(name), q) * 1000.0

        absorbed = sum(r.batch_size for r in self.reports)
        scored = sum(r.n_scored for r in self.reports)
        screened = sum(r.n_candidates for r in self.reports)
        # The dense absorb path scores every (batch row, corpus row) pair.
        scored_ratio = scored / screened if screened else 1.0
        lookups = self.cache_hits + self.cache_misses
        self_times = rec.self_times()
        batch_span = next(s for s in rec.spans if s.name == "batch")
        waits = [
            self_times[s.sid] * 1000.0 for s in rec.spans
            if s.name == "loadgen.request"
        ]
        return {
            "webenv.generate_s": one("webenv.generate"),
            "crawler.crawl_s": one("crawler.crawl"),
            "crawler.sessions_per_s": (
                base.counts["crawler.sessions"] / one("crawler.crawl")
            ),
            "core.features_s": one("core.features"),
            "core.text_model_s": one("core.text_model"),
            "core.distances_s": one("core.distances"),
            "core.linkage_s": one("core.linkage"),
            "core.cut_s": one("core.cut"),
            "core.verdicts_s": one("core.verdicts"),
            **base.counts,
            "serve.classify_p50_ms": median_ms("serve.classify"),
            "serve.classify_p99_ms": median_ms("serve.classify", 0.99),
            "serve.check_p50_ms": median_ms("serve.check"),
            "serve.campaign_p50_ms": median_ms("serve.campaign"),
            "serve.stats_p50_ms": median_ms("serve.stats"),
            "serve.cache_hit_ratio": self.cache_hits / lookups,
            "serve.snapshot_build_s": statistics.median(
                under("serve.snapshot_build", "visible")
            ),
            "serve.snapshot_dump_s": statistics.median(
                under("serve.snapshot_dump", "visible")
            ),
            "serve.snapshot_bytes": self.snapshot_bytes,
            "serve.refresh_s": statistics.median(under("serve.refresh", "visible")),
            "serve.snapshot_load_s": rec.durations("serve.snapshot_load")[0],
            "serve.core_build_s": rec.durations("serve.core_build")[0],
            "serve.busy_frac": serve["busy_frac"],
            "serve.over_limit": sum(
                1 for x in serve["latencies_ms"]
                if x is None or x > LATENCY_LIMIT_MS
            ),
            "serve.rejected_4xx": self.rejected_4xx,
            "serve.errors_5xx": self.errors_5xx,
            "incremental.absorb_s": statistics.median(
                under("incremental.absorb", "visible")
            ),
            "incremental.result_s": statistics.median(
                under("incremental.result", "visible")
            ),
            "incremental.adopt_s": rec.durations("incremental.adopt")[0],
            "incremental.assigned_ratio": (
                sum(r.assigned for r in self.reports) / absorbed
            ),
            "incremental.scored_over_candidates": scored_ratio,
            "loadgen.late_p99_ms": percentile(waits, 0.99),
            "loadgen.backlog_max": serve["backlog_max"],
            "trace.batch_self_s": self_times[batch_span.sid],
            "trace.spans": len(rec.spans),
        }


def _adopt(session: Session, base: Base):
    """Load the dumped snapshot, build the core, adopt the incremental base."""
    loaded = session.step(
        "serve.snapshot_load", MinedSnapshot.from_json, base.text, verify=True
    )
    core = session.step("serve.core_build", ServeCore, loaded)
    inc = session.step("incremental.adopt", IncrementalMiner.from_result, base.result)
    return loaded, core, inc


def calibrate(seed: int, storage: str) -> Dict[str, Any]:
    """Pinned outputs of one seed, without serving."""
    session = Session(seed, BLOCKED if storage == "blocked" else {}, trace=False)
    base = session.mine_base()
    inc = session.step("incremental.adopt", IncrementalMiner.from_result, base.result)
    for batch in session.batches(base.held):
        final = session.publish(inc, batch)
    return {
        "base_summary": base.result.summary(),
        "base_hash": base.snapshot.hash,
        "final_summary": inc.result().summary(),
        "final_hash": final.hash,
    }


def run_session(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    session = Session(
        args.scenario_seed, workload.miner, bool(args.trace), args.seed
    )
    setup_end: Optional[float] = None
    if not workload.mine_in_setup:
        setup_end = time.monotonic()
    in_setup = 0.0  # probe time inside the set-up window, not set-up time

    def probe_point() -> None:
        nonlocal in_setup
        start = time.monotonic()
        session.probes.append(probe())
        if setup_end is None:
            in_setup += time.monotonic() - start

    try:
        probe_point()
        base = session.mine_base()
        probe_point()
        loaded, core, inc = _adopt(session, base)
    except Exception as exc:
        # Nothing to serve: report the counts and why, without figures.
        error = f"set-up: {type(exc).__name__}: {exc}"
        if not session.ops.failed:  # raised outside any counted call
            session.ops.count(False, error)
        return {
            "setup_failed": True,
            "attempted": session.ops.attempted,
            "failed": session.ops.failed,
            "errors": session.ops.errors,
            "problems": [f"scenario {args.scenario_seed}: {error}"],
            "traced": bool(args.trace),
        }
    base_summary = base.result.summary()
    # Serving needs nothing of the batch result past adoption; free the
    # distance matrices as a server process would.
    base.result = None
    gc.collect()
    if setup_end is None:
        setup_end = time.monotonic()
    probe_point()
    serve = session.serve(
        loaded, core, inc, base.held, args.leg_seconds, workload.rate
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = session.check_answers(core)
    final_snapshot = core.snapshot
    out: Dict[str, Any] = {
        "setup_failed": False,
        "setup_s": setup_end - args.spawned_at - in_setup,
        "probes": session.probes,
        "batch_s": base.batch_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": serve["latencies_ms"],
        "capacity_rps": serve["capacity_rps"],
        "visible_s": session.visible_s,
        "attempted": session.ops.attempted,
        "failed": session.ops.failed,
        "errors": session.ops.errors,
        "problems": problems,
        "base_summary": base_summary,
        "base_hash": base.snapshot.hash,
        "final_summary": inc.result().summary(),
        "final_hash": final_snapshot.hash,
        "traced": bool(args.trace),
    }
    if args.trace:
        out["layers"] = session.layers(base, serve)
        if args.spans:
            session.rec.dump(args.spans)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the request stream and probes (of the "
                        "scenario under --calibrate)")
    parser.add_argument("--scenario-seed", type=int,
                        help="seed of the simulated ecosystem")
    parser.add_argument("--leg-seconds", type=float,
                        help="serving time of the session")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.monotonic() of the parent when it started this process",
    )
    parser.add_argument("--calibrate", choices=("dense", "blocked"))
    args = parser.parse_args(argv)
    if args.calibrate:
        out = calibrate(args.seed, args.calibrate)
    else:
        required = (args.workload, args.scenario_seed, args.leg_seconds,
                    args.spawned_at)
        if None in required:
            parser.error("--workload, --scenario-seed, --leg-seconds and "
                         "--spawned-at are required")
        out = run_session(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
