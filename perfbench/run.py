"""Repo benchmark: run one workload and print every metric with its unit.

    python3 perfbench/run.py --workload batch-dense --seed 3 --seconds 34 --trace 0

Run from the repository root.  A run starts sessions one after another,
each a fresh ``perfbench/session.py`` process with BLAS pinned to one
thread, and aggregates them:

* ``--trace 0`` runs ``SESSIONS`` untraced sessions, each on its own
  scenario, and prints the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1`` runs each of the first ``TRACE_PAIRS`` of those scenarios
  twice, traced and untraced, and prints the per-layer metrics (medians
  over the traced sessions) plus the tracing overhead, taken per scenario
  as traced over untraced and then as the median over scenarios.  Spans
  are written to ``.perfbench/``.

End-to-end times are on the nominal host scale of
``hostspeed.py``: wall time scaled by a fixed task's time measured between
the sessions' phases, so that drifts in the host's speed cancel; the wall
times are printed beside them.  Per-layer metrics are wall time.  Both
also print the open-loop p99 with its sample count, the closed-loop
capacity, and the failed share of all operations.  ``--seed`` picks each
session's scenario from the calibrated pool and seeds the request stream.
``--seconds`` is the serving time of a ``--trace 0`` run, split evenly
over its sessions; every session, traced or not, serves for that long.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A session whose set-up fails is counted in
``attempted`` and ``failed``, left out of the metrics, and makes the run
incorrect.  The exit code is 0 only when every output check passed:

* each session's summaries and snapshot hashes equal those
  ``references.json`` records for its scenario (``calibrate.py`` only
  records a scenario whose dense and blocked summaries agree, the blocked
  path's exactness contract);
* the probe set answers the same from the live core as from a core built
  fresh from its snapshot (see ``session.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import (  # noqa: E402
    BLAS_THREADS, CALIBRATED_FOR, LATENCY_LIMIT_MS, SESSIONS, WORKLOADS,
    Workload, percentile,
)

#: Whole-run wall budget; sessions still running past it are killed.
RUN_BUDGET_S = 170.0
SPANS_DIR = ".perfbench"
#: Scenarios a traced run runs twice, once traced and once untraced.
TRACE_PAIRS = 2


class RunError(Exception):
    """The run cannot produce a result (exits 1 without printing one)."""


def session_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``session.py`` with ``args``; its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "session.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted before all sessions ran")
    try:
        proc = subprocess.run(
            cmd, env=session_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"session timed out after {exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RunError(f"session exited {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("session printed no result")
    return json.loads(lines[-1])


def plan(scenarios: List[int], trace: bool) -> List[Tuple[int, bool]]:
    """``(scenario, traced)`` of each session, in run order.  A traced run
    pairs each scenario with itself, alternating which of the two goes
    first so that a drift in machine speed does not bias the overhead."""
    if not trace:
        return [(scenario, False) for scenario in scenarios]
    return [
        (scenario, traced)
        for k, scenario in enumerate(scenarios[:TRACE_PAIRS])
        for traced in ((True, False) if k % 2 == 0 else (False, True))
    ]


def run_sessions(
    workload: Workload, seed: int, planned: List[Tuple[int, bool]],
    seconds: float, deadline: float,
) -> List[Dict[str, Any]]:
    leg = seconds / SESSIONS
    out = []
    for i, (scenario, traced) in enumerate(planned):
        args = [
            "--workload", workload.name, "--seed", str(seed),
            "--scenario-seed", str(scenario), "--leg-seconds", repr(leg),
            "--trace", str(int(traced)),
        ]
        if traced:
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans = os.path.join(SPANS_DIR, f"spans-{workload.name}-{seed}-{i}.json")
            args += ["--spans", spans]
        args += ["--spawned-at", repr(time.monotonic())]
        out.append(run_child(args, deadline))
    return out


# ----------------------------------------------------------------------
# Inputs and output checks
# ----------------------------------------------------------------------
PINNED = ("base_summary", "base_hash", "final_summary", "final_hash")


def load_references() -> Dict[str, Any]:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    if refs["params"] != CALIBRATED_FOR:
        raise RunError(
            f"references.json was calibrated for {refs['params']}, the "
            f"workloads use {CALIBRATED_FOR}: run perfbench/calibrate.py"
        )
    return refs


def scenario_seeds(refs: Dict[str, Any], seed: int, n: int) -> List[int]:
    """The ecosystems a run's sessions mine, picked from the calibrated
    pool by the seed, spread evenly over it.  The pool holds scenarios of
    nearly equal corpus size (see calibrate.py); giving each session its
    own scenario makes a run's medians average over scenarios, so runs
    with different seeds measure comparable work."""
    pool = refs["pool"]
    step = max(1, len(pool) // n)
    return [pool[(seed + i * step) % len(pool)] for i in range(n)]


def check_outputs(
    workload: Workload, refs: Dict[str, Any], planned: List[Tuple[int, bool]],
    sessions: List[Dict[str, Any]],
) -> List[str]:
    problems = [p for s in sessions for p in s["problems"]]
    mode = workload.storage
    for (scenario, _), session in zip(planned, sessions):
        if session["setup_failed"]:
            continue  # its problem is already listed
        expected = refs["seeds"][str(scenario)][mode]
        for key in PINNED:
            if session[key] != expected[key]:
                problems.append(
                    f"{key} differs from references.json, scenario {scenario} {mode}"
                )
    return problems


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def host_scale(sessions: List[Dict[str, Any]]) -> float:
    """Factor from wall to nominal-host time over the probe points of
    ``sessions`` (hostspeed.py).  One factor per run: the host's speed
    decorrelates within a second, so a probe point says little about the
    timed work next to it, but the points of a run together measure the
    share of the run the host spent in its slow mode."""
    return hostspeed.scale([p for s in sessions for p in s["probes"]])


def latency_stats(
    sessions: List[Dict[str, Any]],
) -> Tuple[Optional[float], Optional[float], int, int]:
    """Pooled open-loop wall-time ``(p50, p99, samples, beyond p99)``.  A
    failed request counts as infinitely late, i.e. as missing any limit; a
    percentile that falls on a failed request is undefined (``None``)."""
    pooled = [
        math.inf if x is None else x for s in sessions for x in s["latencies_ms"]
    ]
    if not pooled:
        return None, None, 0, 0
    p50, p99 = (percentile(pooled, q) for q in (0.5, 0.99))
    beyond = sum(1 for x in pooled if x > p99)
    return (
        p50 if math.isfinite(p50) else None,
        p99 if math.isfinite(p99) else None,
        len(pooled), beyond,
    )


def end_to_end(
    sessions: List[Dict[str, Any]], raw: bool = False,
) -> Dict[str, Optional[float]]:
    """Medians over the sessions whose set-up succeeded (``None`` when
    there are none).  Times are on the nominal host scale of hostspeed.py
    unless ``raw``; the closed-loop capacity, a per-layer metric, is not
    scaled."""
    if not sessions:
        return dict.fromkeys(E2E_FIGURES)
    factor = 1.0 if raw else host_scale(sessions)
    visible = [v for s in sessions for v in s["visible_s"]]
    p50 = latency_stats(sessions)[0]
    return {
        "setup_s": factor * statistics.median(s["setup_s"] for s in sessions),
        "batch_s": factor * statistics.median(s["batch_s"] for s in sessions),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        "req_p50_ms": None if p50 is None else factor * p50,
        "capacity_rps": statistics.median(s["capacity_rps"] for s in sessions),
        "visible_s": factor * statistics.median(visible) if visible else None,
        "host.probe_ms": hostspeed.NOMINAL_S / host_scale(sessions) * 1000.0,
    }


E2E_FIGURES = (
    "setup_s", "batch_s", "peak_rss_mb", "req_p50_ms", "capacity_rps",
    "visible_s", "host.probe_ms",
)


def overhead(
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]], key: str,
) -> Optional[float]:
    """Median over scenarios of traced / untraced ``key`` - 1."""
    ratios = []
    for on, off in pairs:
        a, b = end_to_end([on])[key], end_to_end([off])[key]
        if a is not None and b:
            ratios.append(a / b - 1.0)
    return statistics.median(ratios) if ratios else None


def per_layer(
    planned: List[Tuple[int, bool]], sessions: List[Dict[str, Any]],
) -> Dict[str, Optional[float]]:
    ran = [
        (scenario, s) for (scenario, _), s in zip(planned, sessions)
        if not s["setup_failed"]
    ]
    traced = [s for _, s in ran if s["traced"]]
    untraced = [s for _, s in ran if not s["traced"]]
    out: Dict[str, Optional[float]] = {}
    if traced:
        names = traced[0]["layers"]
        out = {n: statistics.median(s["layers"][n] for s in traced) for n in names}
    # Too unsteady on a shared machine for a bound (see catalogue.json):
    # reported here, from the untraced sessions, in wall time like every
    # per-layer metric.
    out["req_p99_ms"] = latency_stats(untraced)[1]
    out["capacity_rps"] = end_to_end(untraced)["capacity_rps"]
    out["host.probe_ms"] = end_to_end(traced)["host.probe_ms"]
    pairs = [
        (on, off) for scenario, on in ran if on["traced"]
        for other, off in ran if other == scenario and not off["traced"]
    ]
    out["trace.batch_overhead_frac"] = overhead(pairs, "batch_s")
    out["trace.req_p50_overhead_frac"] = overhead(pairs, "req_p50_ms")
    return out


def show(value: Optional[float]) -> str:
    return "undefined" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no program here (src/repro is missing); run from "
              "the repository root", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    try:
        refs = load_references()
        scenarios = scenario_seeds(refs, args.seed, SESSIONS)
        planned = plan(scenarios, trace)
        sessions = run_sessions(
            workload, args.seed, planned, args.seconds, deadline
        )
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = check_outputs(workload, refs, planned, sessions)
    served = [s for s in sessions if not s["setup_failed"]]
    figures = end_to_end(served)
    values = per_layer(planned, sessions) if trace else figures
    _, p99, samples, beyond = latency_stats(served)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
        for m in declared
    }
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)

    labels = " ".join(f"{sc}{'*' if traced else ''}" for sc, traced in planned)
    print(f"workload {workload.name}  seed {args.seed}  scenarios {labels} "
          f"(* traced)  BLAS threads {BLAS_THREADS}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {show(metric['value']):>16s} {metric['unit']}")
    wall = end_to_end(served, raw=True)
    print("  wall time: " + "  ".join(
        f"{name} {show(wall[name])}"
        for name in ("setup_s", "batch_s", "req_p50_ms", "visible_s")
    ) + f"  (host probe {show(figures['host.probe_ms'])} ms, nominal "
        f"{hostspeed.NOMINAL_S * 1000:g} ms)")
    if p99 is None:
        lost = sum(x is None for s in served for x in s["latencies_ms"])
        tail = f"undefined ({lost} of {samples} requests failed)"
    else:
        tail = f"{p99:.6g} ms over {samples} requests, {beyond} beyond it"
    print(f"  open-loop p99 {tail} (limit {LATENCY_LIMIT_MS:g} ms); "
          f"closed-loop capacity {show(wall['capacity_rps'])} 1/s")
    print(f"  operations {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6f})")
    for error in sorted({e for s in sessions for e in s["errors"]}):
        print(f"  failure: {error}")
    for problem in problems:
        print(f"  OUTPUT CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
