#!/usr/bin/env bash
# The single pre-merge gate: pushlint + mypy (when installed) + tier-1 pytest.
# Usage: scripts/check.sh [extra pytest args...]
set -u -o pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo
    echo "==> $1"
}

step "pushlint (python -m repro.analysis src/repro benchmarks)"
python -m repro.analysis src/repro benchmarks || failures=$((failures + 1))

# The whole-program passes run twice: a first (possibly cold) run that
# warms the content-hash summary cache, then a timed cached run that must
# fit the wall-time budget — the property that lets --flow sit in this
# gate. Override with PUSHLINT_FLOW_BUDGET (seconds).
step "pushlint --flow (cached run under ${PUSHLINT_FLOW_BUDGET:-10}s budget)"
flow_cache="$(mktemp /tmp/pushlint_flow.XXXXXX.json)"
python -m repro.analysis --flow --flow-cache "$flow_cache" src/repro \
    || failures=$((failures + 1))
python - "$flow_cache" "${PUSHLINT_FLOW_BUDGET:-10}" <<'PYEOF' || failures=$((failures + 1))
import subprocess, sys, time

cache, budget = sys.argv[1], float(sys.argv[2])
start = time.perf_counter()
proc = subprocess.run(
    [sys.executable, "-m", "repro.analysis", "--flow",
     "--flow-cache", cache, "src/repro"],
    capture_output=True, text=True,
)
elapsed = time.perf_counter() - start
sys.stdout.write(proc.stdout)
sys.stderr.write(proc.stderr)
print(f"cached --flow run: {elapsed:.2f}s (budget {budget:.0f}s)")
if proc.returncode != 0:
    sys.exit(proc.returncode)
if elapsed > budget:
    print(f"check.sh: cached --flow run blew the {budget:.0f}s budget")
    sys.exit(1)
PYEOF

# The shape/dtype passes (symbolic extent + promotion + sort stability)
# get their own isolated warm-cache budget: the scope construction and
# the param-extent fixpoint must never come to dominate the gate.
# Override with PUSHLINT_SHAPE_BUDGET (seconds).
step "pushlint --flow shape passes (--select dense/promotion/order under ${PUSHLINT_SHAPE_BUDGET:-10}s budget)"
python - "$flow_cache" "${PUSHLINT_SHAPE_BUDGET:-10}" <<'PYEOF' || failures=$((failures + 1))
import subprocess, sys, time

cache, budget = sys.argv[1], float(sys.argv[2])
start = time.perf_counter()
proc = subprocess.run(
    [sys.executable, "-m", "repro.analysis", "--flow", "--select",
     "flow-dense-alloc,flow-dtype-promotion,flow-unstable-order",
     "--flow-cache", cache, "src/repro"],
    capture_output=True, text=True,
)
elapsed = time.perf_counter() - start
sys.stdout.write(proc.stdout)
sys.stderr.write(proc.stderr)
print(f"cached shape-pass run: {elapsed:.2f}s (budget {budget:.0f}s)")
if proc.returncode != 0:
    sys.exit(proc.returncode)
if elapsed > budget:
    print(f"check.sh: cached shape-pass run blew the {budget:.0f}s budget")
    sys.exit(1)
PYEOF
rm -f "$flow_cache"

# The cold parse has its own budget: --flow-workers 2 fans the AST
# extraction over an ExecutionPlan, and the result must be byte-identical
# to a serial cold run. Override with PUSHLINT_FLOW_COLD_BUDGET (seconds).
step "pushlint --flow cold parse (--flow-workers 2 under ${PUSHLINT_FLOW_COLD_BUDGET:-25}s budget, byte-identity vs serial)"
python - "${PUSHLINT_FLOW_COLD_BUDGET:-25}" <<'PYEOF' || failures=$((failures + 1))
import subprocess, sys, tempfile, time

budget = float(sys.argv[1])

def cold_run(workers):
    with tempfile.NamedTemporaryFile(suffix=".json") as cache:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--flow",
             "--flow-workers", str(workers), "--format", "json",
             "--flow-cache", cache.name, "src/repro"],
            capture_output=True, text=True,
        )
        return proc, time.perf_counter() - start

serial, _ = cold_run(1)
parallel, elapsed = cold_run(2)
sys.stderr.write(parallel.stderr)
print(f"cold --flow-workers 2 run: {elapsed:.2f}s (budget {budget:.0f}s)")
if serial.returncode != 0 or parallel.returncode != 0:
    sys.exit(serial.returncode or parallel.returncode)
if serial.stdout != parallel.stdout:
    print("check.sh: --flow-workers 2 changed the --flow output bytes")
    sys.exit(1)
if elapsed > budget:
    print(f"check.sh: cold --flow run blew the {budget:.0f}s budget")
    sys.exit(1)
print("cold --flow run: workers=2 output byte-identical to serial")
PYEOF

step "mypy (strict: repro.util, repro.analysis)"
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy src/repro/util src/repro/analysis || failures=$((failures + 1))
else
    echo "mypy not installed; skipping (config lives in pyproject.toml)"
fi

step "tier-1 pytest (DeprecationWarning is an error)"
python -m pytest -x -q -W error::DeprecationWarning "$@" || failures=$((failures + 1))

step "crawl smoke (crawl_workers=2 byte-identity at scale 0.015)"
python - <<'PYEOF' || failures=$((failures + 1))
import dataclasses, json

from repro import paper_scenario, run_full_crawl

config = paper_scenario(seed=3, scale=0.015)

def fingerprint(ds):
    return json.dumps(
        [dataclasses.asdict(r) for r in ds.records], sort_keys=True
    )

serial = run_full_crawl(config=config, crawl_workers=1)
sharded = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
assert fingerprint(serial) == fingerprint(sharded), \
    "crawl_workers=2 changed the dataset bytes"
assert serial.summary() == sharded.summary()
print("crawl smoke: workers=2 dataset byte-identical to serial")
PYEOF

# DetSan: rerun the two pipeline halves under the runtime determinism
# sanitizer — filesystem enumeration shuffled, tile submission permuted,
# per-tile checksums verified against canonical recomputes — and demand
# the same output bytes as an unperturbed run. The permutation seed is
# randomized per invocation (printed for replay; pin with DETSAN_SEED).
step "DetSan (crawl_workers=2 byte-identity + miner stage sweep under permuted order)"
DETSAN_SEED="${DETSAN_SEED:-$RANDOM}" python - <<'PYEOF' || failures=$((failures + 1))
import dataclasses, json, os

from repro import PushAdMiner, paper_scenario, run_full_crawl
from repro.analysis.sanitizer import DetSan, _checksum

seed = int(os.environ["DETSAN_SEED"])
print(f"DetSan seed: {seed} (replay with DETSAN_SEED={seed})")
config = paper_scenario(seed=3, scale=0.015)

def fingerprint(ds):
    return json.dumps(
        [dataclasses.asdict(r) for r in ds.records], sort_keys=True
    )

plain = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
with DetSan(seed=seed, verify_tiles=True) as san:
    perturbed = run_full_crawl(config=config, crawl_workers=2, shard_size=4)
assert san.report.streams_permuted > 0, "sanitizer never engaged the crawl"
assert not san.report.divergences, san.report.divergences
assert fingerprint(plain) == fingerprint(perturbed), \
    "crawl bytes changed under permuted tile submission order"
print(
    f"DetSan crawl: byte-identical under {san.report.streams_permuted} "
    f"permuted stream(s), {san.report.tiles_verified} tile(s) verified"
)

miner = PushAdMiner.for_dataset(plain)
baseline = _checksum(miner.run(plain.valid_records))
with DetSan(seed=seed + 1, verify_tiles=True) as san:
    shaken = _checksum(miner.run(plain.valid_records))
assert not san.report.divergences, san.report.divergences
assert baseline == shaken, "miner output changed under DetSan"
print(
    f"DetSan miner: stage sweep identical "
    f"({san.report.fs_shuffled} enumeration(s) shuffled, "
    f"{san.report.tiles_checksummed} tile(s) checksummed)"
)
PYEOF

step "bench smoke (scripts/bench.sh --smoke)"
bench_out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
scripts/bench.sh --smoke --output "$bench_out" || failures=$((failures + 1))
rm -f "$bench_out"

step "bench compare (scripts/bench.sh --compare BENCH_pipeline.json)"
if [ -f BENCH_pipeline.json ]; then
    scripts/bench.sh --compare BENCH_pipeline.json || failures=$((failures + 1))
else
    echo "no committed BENCH_pipeline.json; skipping"
fi

# Scale sweep: re-run the blocked sparse pipeline at the committed
# baseline's scales and fail on counter drift, dense-fraction ceiling
# breaches, or growth-exponent drift (superlinear growth creeping back).
step "scale sweep compare (python -m repro.bench --scale-sweep --compare BENCH_scale.json)"
if [ -f BENCH_scale.json ]; then
    python -m repro.bench --scale-sweep --compare BENCH_scale.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_scale.json; skipping"
fi

# Serve stack: build a snapshot at reduced scale, drive the load generator
# at 1/2/4 threads and demand one response checksum across all counts
# (cache on, cold per count). The committed BENCH_serve.json then gates
# checksum + QPS drift exactly like the pipeline baseline above.
step "serve smoke (python -m repro.bench --serve --smoke)"
serve_out="$(mktemp /tmp/bench_serve_smoke.XXXXXX.json)"
python -m repro.bench --serve --smoke --output "$serve_out" \
    || failures=$((failures + 1))
rm -f "$serve_out"

step "serve compare (python -m repro.bench --serve --compare BENCH_serve.json)"
if [ -f BENCH_serve.json ]; then
    python -m repro.bench --serve --compare BENCH_serve.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_serve.json; skipping"
fi

# Incremental stack: absorb a held-out batch against a base mine and
# demand the delta stays a small fraction of a full re-mine. The smoke
# run proves the harness; the committed BENCH_incremental.json gates the
# absorb/full wall ratio (15% ceiling) plus assigned/opened/summary
# determinism exactly like the other baselines.
step "incremental smoke (python -m repro.bench --incremental --smoke)"
incr_out="$(mktemp /tmp/bench_incr_smoke.XXXXXX.json)"
python -m repro.bench --incremental --smoke --output "$incr_out" \
    || failures=$((failures + 1))
rm -f "$incr_out"

step "incremental compare (python -m repro.bench --incremental --compare BENCH_incremental.json)"
if [ -f BENCH_incremental.json ]; then
    python -m repro.bench --incremental --compare BENCH_incremental.json \
        || failures=$((failures + 1))
else
    echo "no committed BENCH_incremental.json; skipping"
fi

# Repo benchmark correctness: the benchmark checks each session's
# summaries and snapshot hashes against perfbench/references.json, so a
# crawl or snapshot byte change fails here rather than in a benchmark run.
# Gated on the exit code only; its walls are not compared.
step "perfbench correctness smoke (python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 8 --trace 0)"
python3 perfbench/run.py --workload batch-dense --seed 1 --seconds 8 --trace 0 \
    || failures=$((failures + 1))

# batch-dense never reaches the blocked cut; serve-live mines with blocked
# storage, so the same exit-code-only check covers the blocked sweep.
step "perfbench blocked smoke (python3 perfbench/run.py --workload serve-live --seed 1 --seconds 8 --trace 0)"
python3 perfbench/run.py --workload serve-live --seed 1 --seconds 8 --trace 0 \
    || failures=$((failures + 1))

echo
if [ "$failures" -ne 0 ]; then
    echo "check.sh: FAILED ($failures step(s) failed)"
    exit 1
fi
echo "check.sh: all checks passed"
